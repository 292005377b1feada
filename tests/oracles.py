"""Independent oracles the tests compare against.

Everything here is computed from first principles with none of the package's
algebra machinery, so agreement is meaningful.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import random
import re
from fractions import Fraction
from typing import Iterable, Sequence

from quiverlab.algebra import AlgebraElement, GradedBasis, restrict_to_vertices
from quiverlab.corner import (BimoduleGenerators, CornerGenerator,
                              CornerGenerators, CornerPresentation,
                              sufficient_dimension_bound)
from quiverlab.errors import BudgetExceeded, VerificationError
from quiverlab.linalg import Mat, SpanBuilder, axpy, block_upper, kernel_combos
from quiverlab.modules import (ModuleRep, check_relations, element_matrix,
                               invariant_fingerprint, restrict_corner)
from quiverlab.polynomials import (GroebnerBasis, NilpotentWitness, Polynomial,
                                   ideal_multigrading)
from quiverlab.quivers import Arrow, DimensionVector, Path, Quiver
from quiverlab.repscheme import (RepCoordinates, invariant_generators, path_matrix,
                                 variable_name)

_ZERO = Fraction(0)
_ONE = Fraction(1)

_FINITE_EDGES = {
    ("A", 1): [],
    ("A", 2): [(1, 2)],
    ("A", 3): [(1, 2), (2, 3)],
    ("A", 4): [(1, 2), (2, 3), (3, 4)],
    ("D", 4): [(1, 2), (2, 3), (2, 4)],
    ("D", 5): [(1, 2), (2, 3), (3, 4), (3, 5)],
}


def cartan_matrix(kind: str, rank: int) -> list[list[int]]:
    edges = _FINITE_EDGES[(kind, rank)]
    c = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
    for a, b in edges:
        c[a - 1][b - 1] = -1
        c[b - 1][a - 1] = -1
    return c


def positive_roots(kind: str, rank: int) -> list[tuple[int, ...]]:
    """All positive roots, found by brute force: v > 0 with v^T C v = 2."""
    c = cartan_matrix(kind, rank)
    roots = []
    for v in itertools.product(range(4), repeat=rank):
        if not any(v):
            continue
        q = sum(v[i] * c[i][j] * v[j] for i in range(rank) for j in range(rank))
        if q == 2:
            roots.append(v)
    return roots


def preprojective_total_dim(kind: str, rank: int) -> int:
    """Sum of coordinate sums over positive roots."""
    return sum(sum(r) for r in positive_roots(kind, rank))


def kleinian_z2_dims(max_deg: int) -> list[int]:
    """Graded dimensions of the sign-invariant subring of k[x,y].

    Counted directly: a degree-d monomial x^i y^(d-i) is fixed by
    (x,y) -> (-x,-y) exactly when d is even.
    """
    out = []
    for d in range(max_deg + 1):
        count = sum(1 for i in range(d + 1) if (-1) ** d == 1)
        out.append(count)
    return out


def path_counts(vertices, arrows, max_len: int) -> list[int]:
    """Number of paths of each length 0..max_len via adjacency powers.

    ``arrows`` is a list of (source, target) pairs; multiplicities matter.
    """
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    adj = [[0] * n for _ in range(n)]
    for s, t in arrows:
        adj[index[t]][index[s]] += 1
    counts = [n]
    power = [[1 * (i == j) for j in range(n)] for i in range(n)]
    for _ in range(max_len):
        power = [[sum(adj[i][k] * power[k][j] for k in range(n))
                  for j in range(n)] for i in range(n)]
        counts.append(sum(map(sum, power)))
    return counts


def rational_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _order_key(ring, exps: tuple):
    """Sort key of the monomial order; its largest element maximizes it."""
    if ring.order == "degrevlex":
        return (sum(exps), tuple(-e for e in reversed(exps)))
    return exps


# The parser before each term was read straight into a packed monomial: it
# built every factor through a polynomial product and every sum through a
# copy of the whole accumulated polynomial.  Kept as the reference whose
# results, term order and error messages ``PolyRing.parse`` must reproduce.

_NUM = re.compile(r"\d+(?:/\d+)?")


def reference_parse(ring, text: str) -> Polynomial:
    """Inverse of Polynomial.text(); accepts optional whitespace."""
    tokens = _reference_tokenize(ring, text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None)

    def take(kind):
        nonlocal pos
        tk, tv = peek()
        if tk != kind:
            raise ValueError(f"expected {kind} at token {pos} of {text!r}")
        pos += 1
        return tv

    total = ring.zero()
    sign = Fraction(1)
    tk, tv = peek()
    if tk == "op" and tv in "+-":
        sign = Fraction(-1) if tv == "-" else Fraction(1)
        pos += 1
    while True:
        total = total + _reference_parse_term(ring, tokens, peek, take).scale(sign)
        tk, tv = peek()
        if tk is None:
            return total
        if tk == "op" and tv in "+-":
            sign = Fraction(-1) if tv == "-" else Fraction(1)
            pos += 1
        else:
            raise ValueError(f"unexpected token {tv!r} in {text!r}")


def _reference_parse_term(ring, tokens, peek, take) -> Polynomial:
    out = ring.one()
    while True:
        tk, tv = peek()
        if tk == "num":
            take("num")
            out = out.scale(tv)
        elif tk == "var":
            take("var")
            exp = 1
            nk, nv = peek()
            if nk == "op" and nv == "^":
                take("op")
                e = take("num")
                if e.denominator != 1 or e < 0:
                    raise ValueError("exponent must be a nonnegative integer")
                exp = int(e)
            # the power's exponent tuple directly: one product per factor
            i = ring._index[tv]
            out = out * ring.monomial([exp if j == i else 0 for j in range(ring.nvars)])
        else:
            raise ValueError("expected a factor")
        nk, nv = peek()
        if nk == "op" and nv == "*":
            take("op")
            continue
        return out


def _reference_tokenize(ring, text: str):
    by_len = sorted(ring.variables, key=len, reverse=True)
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        for v in by_len:
            if text.startswith(v, i):
                tokens.append(("var", v))
                i += len(v)
                break
        else:
            if ch.isdigit():
                m = _NUM.match(text, i)
                assert m is not None
                try:
                    tokens.append(("num", Fraction(m.group())))
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in {m.group()!r}") from None
                i = m.end()
            elif ch in "+-*^":
                tokens.append(("op", ch))
                i += 1
            else:
                raise ValueError(f"cannot tokenize {text[i:i + 12]!r}")
    return tokens


def reference_reduce(f, basis) -> dict:
    """Terms of the full division remainder of f by the listed polynomials.

    The plain textbook loop: each basis polynomial's leading exponents are
    recomputed on every call, and the first one dividing the largest
    remaining term cancels it.  Kept as the reference that cached-lead
    normal forms must match exactly.
    """
    key = functools.partial(_order_key, f.ring)
    work = dict(f.terms)
    out = {}
    leads = [(max(g.terms, key=key), g) for g in basis]
    while work:
        exps = max(work, key=key)
        coef = work.pop(exps)
        for le, g in leads:
            if all(x <= y for x, y in zip(le, exps)):
                shift = tuple(x - y for x, y in zip(exps, le))
                factor = coef / g.terms[le]
                for e2, c2 in g.terms.items():
                    if e2 == le:
                        continue
                    e = tuple(a + b for a, b in zip(e2, shift))
                    v = work.get(e, Fraction(0)) - factor * c2
                    if v:
                        work[e] = v
                    else:
                        work.pop(e, None)
                break
        else:
            out[exps] = coef
    return out


def reference_buchberger(generators, max_steps: int = 50_000, ring=None):
    """Reduced Gröbner basis by the plain loop, reducing with reference_reduce.

    ``polynomials.buchberger`` as it stood before its reductions moved onto
    a heap-ordered work list and lead support masks; the bases must agree
    exactly, member for member.
    """
    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    def mono_sub(a, b):
        return tuple(x - y for x, y in zip(a, b))

    def mono_lcm(a, b):
        return tuple(max(x, y) for x, y in zip(a, b))

    def reduce(f, basis):
        return Polynomial(f.ring, reference_reduce(f, [g for _, g in basis]))

    gens = [g for g in generators if g]
    if not gens:
        if ring is None:
            raise ValueError("no nonzero generators and no ring given")
        return GroebnerBasis(ring, ())
    if ring is None:
        ring = gens[0].ring
    if any(g.ring != ring for g in gens):
        raise ValueError("generators from different rings")

    basis = []   # (lead exps, monic member)
    pairs = []

    def push(f):
        f = f.monic()
        lt = f.lead_exps()
        t = len(basis)
        basis.append((lt, f))
        for i in range(t):
            li = basis[i][0]
            if all(min(a, b) == 0 for a, b in zip(li, lt)):
                continue   # coprime leads never yield a new element
            lcm = mono_lcm(li, lt)
            heapq.heappush(pairs, (sum(lcm), i, t))

    for g in gens:
        r = reduce(g, basis)
        if r:
            push(r)

    steps = 0
    while pairs:
        steps += 1
        if steps > max_steps:
            raise BudgetExceeded(f"Gröbner computation exceeded {max_steps} steps")
        _, i, j = heapq.heappop(pairs)
        (li, fi), (lj, fj) = basis[i], basis[j]
        lcm = mono_lcm(li, lj)
        a = Polynomial(ring, {mono_sub(lcm, li): 1})
        b = Polynomial(ring, {mono_sub(lcm, lj): 1})
        s = a * fi - b * fj
        r = reduce(s, basis)
        if r:
            push(r)

    # minimalize: drop members whose lead another member's lead divides
    keep = []
    for i, (lt, g) in enumerate(basis):
        redundant = False
        for j, (lh, _) in enumerate(basis):
            if i == j:
                continue
            if divides(lh, lt) and (lh != lt or j < i):
                redundant = True
                break
        if not redundant:
            keep.append((lt, g))
    reduced = []
    for i, (_, g) in enumerate(keep):
        others = keep[:i] + keep[i + 1:]
        r = reduce(g, others) if others else g
        if r:
            reduced.append(r.monic())
    reduced.sort(key=lambda g: max(_order_key(ring, e) for e in g.terms))
    return GroebnerBasis(ring, tuple(reduced))


# -- sparse elimination: the three engines as they stood before the merge ----


class ReferenceSpanBuilder:
    """Row space of sparse vectors with monic pivot rows.

    The plain max-key elimination: each stored pivot row keeps its own lead
    with coefficient 1, and every reduction subtracts a multiple of it.
    """

    def __init__(self) -> None:
        self._pivots: dict = {}
        self._leads: list = []

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def leads(self) -> list:
        return list(self._leads)

    def _eliminate(self, row: dict) -> dict:
        row = {k: Fraction(c) for k, c in row.items() if c}
        while row:
            lead = max(row)
            piv = self._pivots.get(lead)
            if piv is None:
                return row
            factor = row.pop(lead)
            for k, c in piv.items():
                if k == lead:
                    continue
                v = row.get(k, Fraction(0)) - factor * c
                if v:
                    row[k] = v
                else:
                    row.pop(k, None)
        return row

    def add(self, row: dict) -> bool:
        row = self._eliminate(row)
        if not row:
            return False
        lead = max(row)
        inv = 1 / row[lead]
        self._pivots[lead] = {k: c * inv for k, c in row.items()}
        self._leads.append(lead)
        return True

    def contains(self, row: dict) -> bool:
        return not self._eliminate(row)

    def residue(self, row: dict) -> dict:
        out = {k: Fraction(c) for k, c in row.items() if c}
        while True:
            hit = None
            for k in sorted(out, reverse=True):
                if k in self._pivots:
                    hit = k
                    break
            if hit is None:
                return out
            factor = out.pop(hit)
            for k, c in self._pivots[hit].items():
                if k == hit:
                    continue
                v = out.get(k, Fraction(0)) - factor * c
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)


def reference_kernel_combos(vectors) -> list[dict]:
    """Dependencies among sparse vectors, tracking each row's combination."""
    pivots: dict = {}
    out = []
    for i, vec in enumerate(vectors):
        row = {k: Fraction(c) for k, c in vec.items() if c}
        combo = {i: Fraction(1)}
        while row:
            lead = max(row)
            if lead not in pivots:
                inv = 1 / row[lead]
                pivots[lead] = (
                    {k: c * inv for k, c in row.items()},
                    {k: c * inv for k, c in combo.items()},
                )
                break
            prow, pcombo = pivots[lead]
            factor = row.pop(lead)
            for k, c in prow.items():
                if k == lead:
                    continue
                v = row.get(k, Fraction(0)) - factor * c
                if v:
                    row[k] = v
                else:
                    row.pop(k, None)
            for k, c in pcombo.items():
                v = combo.get(k, Fraction(0)) - factor * c
                if v:
                    combo[k] = v
                else:
                    combo.pop(k, None)
        else:
            out.append(combo)
    return out


def reference_rref(matrix: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [[Fraction(x) for x in r] for r in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def reference_nullspace(matrix: Sequence[Sequence[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of {x : M x = 0} for a dense rational matrix with ncols columns."""
    if not matrix:
        return [[Fraction(1) if i == j else Fraction(0) for i in range(ncols)] for j in range(ncols)]
    reduced, pivots = reference_rref(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        basis.append(vec)
    return basis


def reference_insert_row(repl: dict, row: dict) -> None:
    """Add a row to rewrite rules ``repl[lead] = tail`` (lead = tail mod span)."""
    row = dict(row)
    while row:
        lead = max(row)
        sub = repl.get(lead)
        if sub is None:
            inv = 1 / Fraction(row.pop(lead))   # rows may hold ints
            repl[lead] = {k: -c * inv for k, c in row.items()}
            return
        factor = row.pop(lead)
        for k, c in sub.items():
            v = row.get(k, Fraction(0)) + factor * c
            if v:
                row[k] = v
            else:
                row.pop(k, None)


class ReferenceRewriteSpan:
    """The pivot store a graded basis reads, filled by ``reference_insert_row``."""

    def __init__(self) -> None:
        self.pivots: dict = {}

    def add(self, row: dict) -> None:
        reference_insert_row(self.pivots, row)

    def resolve(self) -> dict:
        """Each rule's tail with every lead in it substituted by its own
        resolved tail, recursively, so only keys that lead no rule remain."""
        done: dict = {}

        def resolved(lead):
            if lead not in done:
                out: dict = {}
                for k, c in self.pivots[lead].items():
                    for t, v in (resolved(k) if k in self.pivots else {k: 1}).items():
                        out[t] = out.get(t, 0) + c * v
                done[lead] = {t: v for t, v in out.items() if v}
            return done[lead]

        for lead in self.pivots:
            resolved(lead)
        self.pivots.update(done)
        return self.pivots


# -- quotient algebras by brute force -------------------------------------------


class BruteForceQuotient:
    """Graded slices of a path algebra modulo a homogeneous two-sided ideal.

    Paths are ``(base, arrow names in application order)`` pairs and
    ``arrows`` maps each arrow name to its ``(source, target)``.  Each
    relation is a dict from paths of one length, sharing source and target,
    to coefficients.  The degree-d slice of the ideal is spanned by every
    product post*r*pre of a relation r with arbitrary paths pre (acting
    first) and post of total length d; nothing is pruned.
    """

    def __init__(self, vertices, arrows: dict, relations, cutoff: int) -> None:
        self.arrows = arrows
        self.paths = [[(v, ()) for v in vertices]]
        for _ in range(cutoff):
            self.paths.append([(b, arrs + (a,)) for b, arrs in self.paths[-1]
                               for a, (s, _) in arrows.items()
                               if s == self._target((b, arrs))])
        self.ideal = []
        for d in range(cutoff + 1):
            span = ReferenceSpanBuilder()
            for rel in relations:
                base, word = next(iter(rel))
                e = len(word)
                for i in range(d - e + 1):
                    for pre in self.paths[i]:
                        if self._target(pre) != base:
                            continue
                        for post in self.paths[d - e - i]:
                            if post[0] != self._target((base, word)):
                                continue
                            span.add({(pre[0], pre[1] + w + post[1]): c
                                      for (_, w), c in rel.items()})
            self.ideal.append(span)

    def _target(self, path) -> str:
        base, arrs = path
        return self.arrows[arrs[-1]][1] if arrs else base

    def dimension(self, d: int) -> int:
        return len(self.paths[d]) - self.ideal[d].rank

    def ideal_rows(self, d: int) -> list[dict]:
        """Echelon rows spanning the degree-d slice of the ideal."""
        return list(self.ideal[d]._pivots.values())

    def in_ideal(self, element: dict) -> bool:
        """Whether a combination of equal-length paths lies in the ideal."""
        if not element:
            return True
        d = len(next(iter(element))[1])
        return self.ideal[d].contains(element)


# -- sparse updates: axpy as it stood before unit coefficients skipped products


def reference_axpy(dst: dict, c, src: dict) -> None:
    """``dst += c * src`` in place on sparse vectors; cancelled entries are dropped."""
    for k, v in src.items():
        v = dst.get(k, _ZERO) + c * v
        if v:
            dst[k] = v
        else:
            dst.pop(k, None)


# -- matrix products: the two loops as they stood before the merge -----------


def reference_pm_mul(zero, a: list, b: list, cols: int) -> list:
    """Product of list-of-rows matrices: the polynomial-matrix loop.

    Order i, k, j, skipping zero factors, accumulating onto ``zero``.  The
    original read ``cols`` as ``len(b[0]) if b else 0``, which loses the
    width of a ``b`` with no rows; here the caller passes it.
    """
    rows = len(a)
    inner = len(b)
    out = [[zero for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            aik = a[i][k]
            if not aik:
                continue
            for j in range(cols):
                if b[k][j]:
                    out[i][j] = out[i][j] + aik * b[k][j]
    return out


def reference_dense_mul(zero, a: list, b: list, cols: int) -> list:
    """Product of list-of-rows matrices: the dense rational loop.

    Every entry is ``sum`` over all inner indices starting from ``zero``,
    with no zero factor skipped.
    """
    inner = len(b)
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), zero)
             for j in range(cols)]
            for i in range(len(a))]


# -- cocenters: the all-pairs commutator loop ---------------------------------


def all_pairs_cocenter(basis, cutoff: int):
    """Degree dimensions and representatives of A/[A, A] from every pair.

    For each degree d the commutator subspace is spanned by xy - yx over
    basis classes x, y of complementary degrees, Σ_p dim(p)·dim(d - p) rows
    in all; representatives are the standard basis paths whose coordinates
    complete that span.  Products are read through ``basis.coords``, so this
    checks the choice of commutator rows, not the basis.  Kept as the
    reference that the generator-commutator ``cocenter`` must match exactly.
    """
    dims = []
    reps = []
    for d in range(cutoff + 1):
        span = ReferenceSpanBuilder()
        for p in range(d + 1):
            for x in basis.basis(p):
                for y in basis.basis(d - p):
                    row = dict(basis.coords(x * y)) if y.target == x.source else {}
                    if x.target == y.source:
                        for k, c in basis.coords(y * x).items():
                            row[k] = row.get(k, 0) - c
                    if row:
                        span.add(row)
        leads = set(span.leads)
        dims.append(basis.dimension(d) - span.rank)
        reps.append(tuple(p for p in basis.basis(d) if p.key not in leads))
    return tuple(dims), tuple(reps)


# -- invariants and substitution: the loops as they stood before sharing -----


def _reference_cycles(quiver, allowed: frozenset, bound: int):
    """Rotation-canonical cycles within ``allowed``, length 1..bound, unbounded in count."""
    for base in quiver.vertices:
        if base not in allowed:
            continue
        stack = [Path.idempotent(quiver, base)]
        while stack:
            p = stack.pop()
            for a in quiver.arrows_from(p.target):
                if a.target not in allowed:
                    continue
                q = p.extend(a)
                if q.target == base:
                    rots = [q.arrows[k:] + q.arrows[:k] for k in range(q.length)]
                    if q.arrows == min(rots):
                        yield q
                if q.length < bound:
                    stack.append(q)


def _reference_path_rows(coords, path) -> list:
    """Rows of a path's generic matrix, multiplied out from the identity."""
    zero, one = coords.zero, coords.one
    n = coords.dims[path.source]
    out = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for name in path.arrows:
        mat = coords.matrices[name]
        out = reference_pm_mul(zero, [list(r) for r in mat.data], out, n)
    return out


def reference_invariant_generators(coords, cycle_bound: int, path_bound: int) -> list:
    """(kind, path, row, col, polynomial) per invariant, in output order.

    Every cycle's full matrix is multiplied out from the identity and its
    diagonal summed; every framing entry rebuilds its path's matrix.
    """
    quiver = coords.quiver
    out = []
    seen = set()
    cycles = _reference_cycles(quiver, frozenset(quiver.i_vertices), cycle_bound)
    for cycle in sorted(cycles, key=lambda p: (p.length, p.key)):
        rows = _reference_path_rows(coords, cycle)
        total = coords.zero
        for i in range(len(rows)):
            total = total + rows[i][i]
        fingerprint = frozenset(total.terms.items())
        if not total or fingerprint in seen:
            continue
        seen.add(fingerprint)
        out.append(("trace", cycle, None, None, total))
    f_set = frozenset(quiver.f_vertices)
    frontier = [Path.idempotent(quiver, v) for v in quiver.f_vertices]
    for d in range(path_bound + 1):
        for p in frontier:
            if p.target in f_set:
                for i in range(1, coords.dims[p.target] + 1):
                    for j in range(1, coords.dims[p.source] + 1):
                        rows = _reference_path_rows(coords, p)
                        out.append(("entry", p, i, j, rows[i - 1][j - 1]))
        if d < path_bound:
            frontier = [p.extend(a) for p in frontier
                        for a in quiver.arrows_from(p.target)]
    return out


def reference_substitute(f, ring, images) -> dict:
    """Terms of f's image under a ring map, one term at a time.

    Each term becomes its coefficient times the product of its variables'
    images, multiplied out factor by factor; the terms are then summed.
    ``images`` maps a variable to a polynomial of ``ring`` or a number;
    an unmapped variable keeps its name in ``ring``.  Plain dicts only.
    """
    n = ring.nvars
    unit = (0,) * n

    def image(name: str) -> dict:
        img = images.get(name)
        if img is None:
            exps = [0] * n
            exps[ring.variables.index(name)] = 1
            return {tuple(exps): Fraction(1)}
        if not hasattr(img, "terms"):
            return {unit: Fraction(img)} if img else {}
        return dict(img.terms)

    def mul(a: dict, b: dict) -> dict:
        out: dict = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return {e: c for e, c in out.items() if c}

    total: dict = {}
    for exps, c in f.terms.items():
        term = {unit: Fraction(c)}
        for name, e in zip(f.ring.variables, exps):
            for _ in range(e):
                term = mul(term, image(name))
        for e, v in term.items():
            total[e] = total.get(e, 0) + v
    return {e: c for e, c in total.items() if c}


# -- ring maps out of a scheme: the image loops as they stood before ---------
#
# add_pullback and corner_comparison_map each named their images coordinate
# by coordinate; they now zip the coordinates with image matrices.  The loops
# are kept as written, but for calling path_matrix as a function.


def reference_pullback_images(coords, big_dims, mats) -> dict:
    """add_pullback's image of each enlarged coordinate: generic top-left,
    the fixed ``mats`` (one per arrow) bottom-right, zero across."""
    quiver = coords.quiver
    images: dict[str, Polynomial] = {}
    for a in quiver.arrows:
        st, ss = coords.dims[a.target], coords.dims[a.source]
        for i in range(1, big_dims[a.target] + 1):
            for j in range(1, big_dims[a.source] + 1):
                name = variable_name(a.name, i, j)
                if i <= st and j <= ss:
                    images[name] = coords.ring.variable(name)
                elif i > st and j > ss:
                    images[name] = coords.ring.constant(
                        mats[a.name].entry(i - st - 1, j - ss - 1))
                else:
                    images[name] = coords.ring.zero()
    return images


def reference_comparison_images(pres, coords, small_dims) -> dict:
    """corner_comparison_map's image of each presentation coordinate: the
    matching entry of its generator path's matrix."""
    images: dict[str, Polynomial] = {}
    for a in pres.quiver.arrows:
        mat = path_matrix(coords, pres.generator_paths[a.name])
        for i in range(1, small_dims[a.target] + 1):
            for j in range(1, small_dims[a.source] + 1):
                images[variable_name(a.name, i, j)] = mat.entry(i - 1, j - 1)
    return images


# -- corner generators: the two searches as they stood before sharing -------
#
# The corner search spanned products through coordinate vectors kept per
# degree; the column-module search through single H-to-H paths.  Kept as the
# references that the shared search must match generator for generator.


def _reference_product_coords(basis: GradedBasis, gen_path: Path,
                              vec: dict) -> dict:
    """Normal-form coordinates of gen * (element with coordinates vec)."""
    out: dict = {}
    for key, c in vec.items():
        p = next(b for b in basis.basis(len(key) - 1) if b.key == key)
        if p.target == gen_path.source:
            axpy(out, c, basis.coords(gen_path * p))
    return out


def _h_block(basis: GradedBasis, d: int, h_set: frozenset) -> list[Path]:
    return [p for p in basis.basis(d) if p.source in h_set and p.target in h_set]


def reference_corner_generators(basis: GradedBasis, verify_cutoff: int | None = None,
                                safety_bound: int = 64) -> CornerGenerators:
    """Minimized generating set of the corner subalgebra e_H A e_H.

    The interior quotient (restrict to the K vertices) must come out finite
    dimensional within ``safety_bound`` degrees; its top nonzero degree n
    bounds the generator search at n + 2.  Candidates are the standard basis
    paths between H vertices, scanned in (degree, path-key) order, and a
    candidate is retained exactly when it is not a combination of products of
    earlier retained generators.  Spanning of the whole H block is then
    verified degree by degree up to ``verify_cutoff`` (default: the basis
    cutoff); failure raises VerificationError rather than returning a wrong
    answer.
    """
    quiver = basis.quiver
    h_set = frozenset(quiver.h_vertices)
    if not h_set:
        raise ValueError("quiver has no F or J vertices to corner at")
    if verify_cutoff is None:
        verify_cutoff = basis.cutoff
    if verify_cutoff > basis.cutoff:
        raise ValueError(f"verify_cutoff {verify_cutoff} exceeds basis cutoff {basis.cutoff}")

    sub, subrels = restrict_to_vertices(quiver, basis.relations, quiver.k_vertices)
    interior = GradedBasis(sub, subrels, safety_bound)
    if not interior.finite_dimensional:
        raise VerificationError(
            f"interior quotient is still nonzero at degree {safety_bound}; "
            "a larger cutoff may be needed, or the corner may not be "
            "finitely generated")
    k_top = interior.top_degree or 0
    bound = k_top + 2
    if basis.cutoff < bound:
        raise ValueError(
            f"basis cutoff {basis.cutoff} is below the generation bound {bound}")

    retained: list[CornerGenerator] = []
    # independent spanning coordinate vectors per degree
    vecs: list[list[dict]] = [[{Path.idempotent(quiver, h).key: Fraction(1)}
                               for h in quiver.h_vertices]]

    for d in range(1, verify_cutoff + 1):
        builder = SpanBuilder()
        degree_vecs: list[dict] = []
        for gen in retained:
            k = gen.degree
            if k > d:
                continue
            for vec in vecs[d - k]:
                coords = _reference_product_coords(basis, gen.path, vec)
                # add takes its row over: the degree keeps its own copy
                if coords and builder.add(dict(coords)):
                    degree_vecs.append(coords)
        if d <= bound:
            for cand in _h_block(basis, d, h_set):
                coords = {cand.key: Fraction(1)}
                if builder.contains(coords):
                    continue
                name = (cand.arrows[0] if cand.length == 1
                        else f"g{sum(1 for g in retained if g.path.length > 1) + 1}")
                retained.append(CornerGenerator(
                    name, cand, d, cand.source, cand.target))
                builder.add(dict(coords))
                degree_vecs.append(coords)
        expected = len(_h_block(basis, d, h_set))
        if builder.rank != expected:
            raise VerificationError(
                f"corner generators span only {builder.rank} of {expected} "
                f"dimensions in degree {d}")
        vecs.append(degree_vecs)

    return CornerGenerators(basis, quiver.h_vertices, k_top,
                            tuple(retained), verify_cutoff)


def reference_bimodule_generators(corner: CornerGenerators,
                                  verify_cutoff: int | None = None) -> BimoduleGenerators:
    """Generators of the source-in-H column space as a right corner module.

    The H idempotents are retained up front; the remaining candidates are
    standard H-to-K paths of degree <= k_top_degree + 1, scanned in (degree,
    key) order and retained when independent of products (earlier generator)
    * (corner element).  Spanning against every standard path with source in
    H is verified degreewise up to ``verify_cutoff``.
    """
    basis = corner.basis
    quiver = basis.quiver
    h_set = frozenset(quiver.h_vertices)
    if verify_cutoff is None:
        verify_cutoff = corner.verified_to
    if verify_cutoff > corner.verified_to:
        raise ValueError(
            f"verify_cutoff {verify_cutoff} exceeds the corner verification "
            f"degree {corner.verified_to}")
    bound = corner.k_top_degree + 1

    retained: list[CornerGenerator] = [
        CornerGenerator(f"e_{h}", Path.idempotent(quiver, h), 0, h, h)
        for h in quiver.h_vertices
    ]
    # corner spanning is verified, so the corner in degree e is the full
    # H-to-H block of the standard basis
    corner_block = {e: _h_block(basis, e, h_set) for e in range(verify_cutoff + 1)}

    for d in range(verify_cutoff + 1):
        builder = SpanBuilder()
        for gen in retained:
            k = gen.degree
            if k > d:
                continue
            for q in corner_block[d - k]:
                coords = _reference_product_coords(basis, gen.path,
                                                   {q.key: Fraction(1)})
                builder.add(coords)
        if 1 <= d <= bound:
            for cand in basis.basis(d):
                if cand.source not in h_set or cand.target in h_set:
                    continue
                coords = {cand.key: Fraction(1)}
                if builder.contains(coords):
                    continue
                name = (cand.arrows[0] if cand.length == 1
                        else f"m{sum(1 for g in retained if g.path.length > 1) + 1}")
                retained.append(CornerGenerator(
                    name, cand, d, cand.source, cand.target))
                builder.add(coords)
        expected = sum(1 for p in basis.basis(d) if p.source in h_set)
        if builder.rank != expected:
            raise VerificationError(
                f"bimodule generators span only {builder.rank} of {expected} "
                f"dimensions in degree {d}")

    return BimoduleGenerators(corner, tuple(retained), verify_cutoff)


# -- corner presentation: the (pre, relation, post) ideal loop --------------
#
# The presentation as it stood before word coordinates were shared with
# prefixes and the ideal of earlier relations came from lower-weight
# dependencies: every word is evaluated from its ambient path, and the ideal
# is rebuilt from every (pre-word, relation, post-word) triple.  Kept as the
# reference the presentation must match relation for relation.


def _weighted_words(quiver: Quiver, weights: dict[str, int],
                    cutoff: int) -> list[list[Path]]:
    """All arrow words grouped by total weight 0..cutoff, in key order."""
    words: list[list[Path]] = [[Path.idempotent(quiver, v) for v in quiver.vertices]]
    for wd in range(1, cutoff + 1):
        layer = []
        for a in quiver.arrows:
            w = weights[a.name]
            if w > wd:
                continue
            for p in words[wd - w]:
                if p.target == a.source:
                    layer.append(p.extend(a))
        layer.sort(key=lambda p: p.key)
        words.append(layer)
    return words


def reference_corner_presentation(corner: CornerGenerators,
                                  cutoff: int | None = None) -> CornerPresentation:
    """Quiver-with-relations presentation of the corner, truncated in degree.

    Builds the generator quiver, then for each weighted degree finds all
    linear dependencies among evaluated arrow words and keeps those not
    already in the two-sided ideal of relations found earlier.  Every kept
    relation is re-evaluated in the ambient algebra (it must vanish) and the
    word-space ranks must agree with the corner's graded dimensions.
    """
    basis = corner.basis
    big = basis.quiver
    if cutoff is None:
        cutoff = corner.verified_to
    if cutoff > corner.verified_to:
        raise ValueError(
            f"cutoff {cutoff} exceeds the corner verification degree "
            f"{corner.verified_to}")
    h_set = frozenset(big.h_vertices)

    arrows = []
    weights: dict[str, int] = {}
    gen_paths: dict[str, Path] = {}
    for g in corner.generators:
        arrows.append(Arrow(g.name, g.source, g.target))
        weights[g.name] = g.degree
        gen_paths[g.name] = g.path
    partition = {h: big.tag(h) for h in big.h_vertices}
    qh = Quiver(big.h_vertices, arrows, partition)
    words = _weighted_words(qh, weights, cutoff)

    def ambient(word: Path) -> Path:
        arrs: tuple[str, ...] = ()
        for name in word.arrows:
            arrs = arrs + gen_paths[name].arrows
        return Path(big, word.base, arrs)

    relations: list[tuple[int, AlgebraElement]] = []   # (weighted degree, element)
    for wd in range(1, cutoff + 1):
        layer = words[wd]
        index = {p.key: i for i, p in enumerate(layer)}
        evals = [basis.coords(ambient(p)) for p in layer]
        combos = kernel_combos(evals)
        if len(layer) - len(combos) != len(_h_block(basis, wd, h_set)):
            raise VerificationError(
                f"word evaluations in weighted degree {wd} have rank "
                f"{len(layer) - len(combos)}, expected the corner dimension "
                f"{len(_h_block(basis, wd, h_set))}")
        ideal = SpanBuilder()
        for rd, rel in relations:
            for post_w in range(wd - rd + 1):
                pre_w = wd - rd - post_w
                for post in words[post_w]:        # applied after the relation
                    if post.source != rel.target:
                        continue
                    for pre in words[pre_w]:      # applied before it
                        if pre.target != rel.source:
                            continue
                        row: dict = {}
                        for p, c in rel.terms.items():
                            full = Path(qh, pre.base,
                                        pre.arrows + p.arrows + post.arrows)
                            j = index[full.key]
                            v = row.get(j, _ZERO) + c
                            if v:
                                row[j] = v
                            else:
                                row.pop(j, None)
                        if row:
                            ideal.add(row)
        for combo in combos:
            if ideal.contains(combo):
                continue
            el = AlgebraElement(qh, {layer[i]: c for i, c in combo.items()})
            check: dict = {}
            for p, c in el.terms.items():
                axpy(check, c, basis.coords(ambient(p)))
            if check:
                raise VerificationError(
                    "a found relation does not vanish in the ambient algebra")
            relations.append((wd, el))
            ideal.add(combo)

    return CornerPresentation(qh, weights, tuple(el for _, el in relations), gen_paths,
                              cutoff, f"truncated-at-{cutoff}")


# -- induction: per-vertex counters and a tail rescan --------------------------
#
# The induction loop as it stood with per-vertex symbol totals, pivot
# counts read off each new pivot and a rescan of the last degrees for
# survivors.  Kept as the reference that the one survivor list must match;
# it eliminates with ReferenceSpanBuilder and reads columns off its residues.


def reference_induce_module(v_h: ModuleRep, pres: CornerPresentation,
                            gens: BimoduleGenerators) -> ModuleRep:
    """Left-adjoint extension of a corner module to the whole algebra.

    Symbols (standard path with source in H) x (basis vector of V_H at the
    path's source) span the candidate space; for every corner generator l the
    identification (p*l) tensor w = p tensor (l*w) is imposed degreewise.  The
    loop stops once the per-vertex dimensions are unchanged and no symbol
    survives for k_top_degree + 2 consecutive degrees, then arrow actions are
    read off by residues.  The result is post-verified: ambient relations,
    H-dimensions, the sufficient dimension bound, and fingerprint equality of
    its corner restriction with V_H — any failure raises VerificationError,
    and reaching the basis cutoff first raises BudgetExceeded.
    """
    corner = gens.corner
    basis = corner.basis
    quiver = basis.quiver
    if v_h.quiver != pres.quiver:
        raise ValueError("V_H must live over the presentation quiver")
    for name, path in pres.generator_paths.items():
        if not any(g.name == name and g.path == path for g in corner.generators):
            raise ValueError("presentation and bimodule data disagree")
    ok, _ = check_relations(v_h, pres.relations)
    if not ok:
        raise ValueError("V_H violates the truncated corner relations")

    h_set = frozenset(quiver.h_vertices)
    window = corner.k_top_degree + 2

    span = ReferenceSpanBuilder()
    symbol_target: dict[tuple, str] = {}
    total_by_vertex = {v: 0 for v in quiver.vertices}
    pivot_by_vertex = {v: 0 for v in quiver.vertices}

    def enumerate_degree(d: int) -> None:
        for p in basis.basis(d):
            if p.source not in h_set:
                continue
            for j in range(v_h.dims[p.source]):
                symbol_target[(d, p.key, j)] = p.target
                total_by_vertex[p.target] += 1

    def add_row(row: dict) -> None:
        if span.add(row):
            lead = span._leads[-1]
            pivot_by_vertex[symbol_target[lead]] += 1

    enumerate_degree(0)
    history: list[dict] = [dict(total_by_vertex)]
    stopped_at: int | None = None
    for d in range(1, basis.cutoff + 1):
        enumerate_degree(d)
        for gen in corner.generators:
            k = gen.degree
            if k > d:
                continue
            m_gen = v_h.matrices[gen.name]
            start = {gen.path.key: _ONE}
            for p in basis.basis(d - k):
                if p.source != gen.target or p.source not in h_set:
                    continue
                nf = basis.extend(start, p.key[1:])   # p * gen: gen acts first
                for j in range(v_h.dims[gen.source]):
                    row = {(d, qkey, j): c for qkey, c in nf.items()}
                    for i in range(v_h.dims[gen.target]):
                        c = m_gen.entry(i, j)
                        if c:
                            # a symbol of degree d - k, never a key of nf
                            row[(d - k, p.key, i)] = -c
                    if row:
                        add_row(row)
        dims_now = {v: total_by_vertex[v] - pivot_by_vertex[v]
                    for v in quiver.vertices}
        history.append(dims_now)
        if d >= window:
            stable = all(history[-1] == history[-1 - i] for i in range(1, window + 1))
            tail_clear = not any(
                key not in span._pivots
                for key in symbol_target if d - window < key[0] <= d)
            if stable and tail_clear:
                stopped_at = d
                break
    if stopped_at is None:
        raise BudgetExceeded(
            f"induction dimensions did not stabilize within degree {basis.cutoff}")

    survivors = sorted(k for k in symbol_target if k not in span._pivots)
    by_vertex: dict[str, list[tuple]] = {v: [] for v in quiver.vertices}
    for key in survivors:
        by_vertex[symbol_target[key]].append(key)
    index = {v: {key: i for i, key in enumerate(keys)}
             for v, keys in by_vertex.items()}
    dims_out = DimensionVector({v: len(keys) for v, keys in by_vertex.items()})

    matrices: dict[str, Mat] = {}
    for a in quiver.arrows:
        rows, cols = dims_out[a.target], dims_out[a.source]
        data = [[_ZERO] * cols for _ in range(rows)]
        step = (quiver.arrow_index(a.name),)
        for col, key in enumerate(by_vertex[a.source]):
            d, pkey, j = key
            vec = {(d + 1, qkey, j): c
                   for qkey, c in basis.extend({pkey: _ONE}, step).items()}
            for rkey, c in span.residue(vec).items():
                data[index[a.target][rkey]][col] = c
        matrices[a.name] = Mat(rows, cols, tuple(tuple(r) for r in data))

    result = ModuleRep(quiver, dims_out, matrices)

    ok, _ = check_relations(result, basis.relations)
    if not ok:
        raise VerificationError("induced module violates the ambient relations")
    if result.dims.restrict(quiver.h_vertices) != v_h.dims:
        raise VerificationError("induced module has the wrong H dimensions")
    bound = sufficient_dimension_bound(gens, v_h.dims)
    if not bound.dominates(result.dims):
        raise VerificationError("induced module exceeds the dimension bound")
    coords = RepCoordinates(pres.quiver, v_h.dims)
    invs = invariant_generators(coords)
    got = invariant_fingerprint(restrict_corner(result, pres), invs)
    want = invariant_fingerprint(v_h, invs)
    if got != want:
        raise VerificationError("corner restriction of the induced module has "
                                "a different fingerprint than V_H")
    return result


# -- extensions: one whole block module per unknown ---------------------------


def reference_random_extension(sub: ModuleRep, quot: ModuleRep,
                               relations: Iterable[AlgebraElement], rng,
                               coef_bound: int = 3) -> ModuleRep:
    """A seeded-random block-triangular extension of quot by sub.

    With both diagonal blocks satisfying the relations, the residuals are
    linear in the off-diagonal blocks; the off-diagonal data is drawn as a
    random integer combination of an exact kernel basis of that linear
    system, so the result always satisfies the relations.
    """
    quiver = sub.quiver
    if quiver != quot.quiver:
        raise ValueError("blocks live over different quivers")
    rels = list(relations)
    if not check_relations(sub, rels)[0] or not check_relations(quot, rels)[0]:
        raise ValueError("both blocks must satisfy the relations")

    unknowns: list[tuple[str, int, int]] = []
    for a in quiver.arrows:
        for i in range(sub.dims[a.target]):
            for j in range(quot.dims[a.source]):
                unknowns.append((a.name, i, j))

    def assemble(values: dict[tuple[str, int, int], Fraction]) -> ModuleRep:
        mats = {}
        for a in quiver.arrows:
            x = [[values.get((a.name, i, j), _ZERO)
                  for j in range(quot.dims[a.source])]
                 for i in range(sub.dims[a.target])]
            xm = Mat(sub.dims[a.target], quot.dims[a.source],
                     tuple(tuple(row) for row in x))
            mats[a.name] = block_upper(sub.matrices[a.name], xm,
                                       quot.matrices[a.name])
        return ModuleRep(quiver, sub.dims + quot.dims, mats)

    # one sparse column per unknown: its residual entries, row-major per relation
    columns = []
    for u in unknowns:
        e = assemble({u: Fraction(1)})
        col = [x for rel in rels for row in element_matrix(e, rel).data for x in row]
        columns.append({r: x for r, x in enumerate(col) if x})

    values: dict[tuple[str, int, int], Fraction] = {}
    for combo in kernel_combos(columns):
        c = Fraction(rng.randint(-coef_bound, coef_bound))
        if not c:
            continue
        for k, entry in combo.items():
            u = unknowns[k]
            values[u] = values.get(u, _ZERO) + c * entry
    result = assemble(values)
    ok, _ = check_relations(result, rels)
    if not ok:
        raise VerificationError("extension construction produced an invalid module")
    return result


# -- nilpotence probing: the witness search as it stood before phase 1 -------
#
# Phase 1 reduced every power of every standard monomial, and the standard
# monomials were all C(n + d - 1, d) monomials of each degree that avoid the
# leading terms, listed before the first probe.  Kept as the reference whose
# witnesses, powers and budget cut-offs the search must reproduce.


def reference_standard_monomials(gb: GroebnerBasis, max_deg: int) -> list[Polynomial]:
    """Monomials of total degree 1..max_deg avoiding all leading terms."""
    ring = gb.ring
    out = []
    for d in range(1, max_deg + 1):
        for combo in itertools.combinations_with_replacement(range(ring.nvars), d):
            exps = [0] * ring.nvars
            for i in combo:
                exps[i] += 1
            exps = tuple(exps)
            if gb.is_standard(exps):
                out.append(ring.monomial(exps))
    return out


def reference_nilpotent_witness_search(gb: GroebnerBasis, max_deg: int, max_pow: int,
                                       seed: int = 0, trials: int = 200,
                                       max_ops: int | None = None) -> NilpotentWitness | None:
    """Search for f with f not in the ideal but f^k in it for some k <= max_pow.

    Nilpotents decompose into homogeneous parts for every grading of the
    ideal, so multi-term witnesses can be assumed to combine standard
    monomials of equal weight under ``ideal_multigrading``, and of equal
    degree when every basis member has all its terms in one degree.
    Three exact, reproducible phases:

    1. every standard monomial of degree <= max_deg, in graded order;
    2. signed pairs m + m' and m - m' of standard monomials sharing a
       grading class, probed at the square (by linearity one reduction of
       each of m*m, m'*m', m*m' settles both signs);
    3. seeded random small-integer combinations of 2..4 standard monomials
       drawn from a common grading class; none when no class has two.

    Every hit is re-verified from scratch (direct expansion of the power)
    before being returned.  Returns None when the bounded search exhausts
    without a hit; raises BudgetExceeded when ``max_ops`` normal-form
    computations were spent first.
    """
    if max_deg < 1 or max_pow < 2:
        raise ValueError("need max_deg >= 1 and max_pow >= 2")
    if trials < 0 or (max_ops is not None and max_ops < 0):
        raise ValueError("trials and max_ops must be nonnegative")
    ops = 0

    def charge() -> None:
        nonlocal ops
        ops += 1
        if max_ops is not None and ops > max_ops:
            raise BudgetExceeded(f"witness search exceeded {max_ops} reductions")

    def probe(f: Polynomial, standard: bool = False) -> NilpotentWitness | None:
        # a standard monomial is its own normal form, but is charged the same
        charge()
        power = f if standard else gb.normal_form(f)
        if not power:
            return None
        for k in range(2, max_pow + 1):
            charge()
            power = gb.normal_form(power * f)
            if not power:
                if gb.normal_form(f ** k):
                    raise AssertionError("incremental and direct reductions disagree")
                if not gb.normal_form(f):
                    raise AssertionError("witness unexpectedly lies in the ideal")
                return NilpotentWitness(f, k)
        return None

    monos = reference_standard_monomials(gb, max_deg)
    for m in monos:
        hit = probe(m, standard=True)
        if hit is not None:
            return hit

    weights = ideal_multigrading(gb)
    graded = all(len({sum(e) for e in g.terms}) == 1 for g in gb)
    classes: dict[tuple, list[int]] = {}
    for idx, m in enumerate(monos):
        exps = next(iter(m.terms))
        key = tuple(sum(w[i] * e for i, e in enumerate(exps) if e) for w in weights)
        classes.setdefault((sum(exps), key) if graded else key, []).append(idx)

    squares: dict[int, Polynomial] = {}

    def nf_square(i: int) -> Polynomial:
        if i not in squares:
            charge()
            squares[i] = gb.normal_form(monos[i] * monos[i])
        return squares[i]

    for key in sorted(classes):
        members = classes[key]
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                i, j = members[a], members[b]
                charge()
                cross = gb.normal_form(monos[i] * monos[j]).scale(2)
                base = nf_square(i) + nf_square(j)
                for f in ((monos[i] + monos[j]) if not (base + cross) else None,
                          (monos[i] - monos[j]) if not (base - cross) else None):
                    if f is not None:
                        hit = probe(f)
                        if hit is None:
                            raise AssertionError("pair probe lost a verified square")
                        return hit

    pools = [classes[key] for key in sorted(classes) if len(classes[key]) >= 2]
    rng = random.Random(seed)
    for _ in range(trials if pools else 0):
        pool = pools[rng.randrange(len(pools))]
        width = rng.randint(2, min(4, len(pool)))
        picks = rng.sample(pool, width)
        terms: dict[tuple, Fraction] = {}
        for i in picks:
            c = rng.choice((-2, -1, 1, 2))
            exps = next(iter(monos[i].terms))
            terms[exps] = Fraction(c)
        hit = probe(Polynomial(gb.ring, terms))
        if hit is not None:
            return hit
    return None
