"""Commutative polynomials over the rationals: orders, Gröbner bases, search.

Everything is exact; monomials are exponent tuples against a fixed variable
list.  Variable names may contain characters like ``*`` (they come from arrow
names), so the parser tokenizes by longest match against the ring's variable
set rather than by a fixed lexer.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import BudgetExceeded
from .linalg import axpy, nullspace

_ZERO = Fraction(0)
_ONE = Fraction(1)
_NUM = re.compile(r"\d+(?:/\d+)?")

ORDERS = ("degrevlex", "lex")


class PolyRing:
    """A polynomial ring with a fixed variable order and monomial order."""

    __slots__ = ("variables", "order", "_index")

    def __init__(self, variables: Iterable[str], order: str = "degrevlex") -> None:
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable name")
        for v in self.variables:
            if not v or v[0].isdigit() or any(ch in v for ch in "+-^/. \t"):
                raise ValueError(f"invalid variable name {v!r}")
        if order not in ORDERS:
            raise ValueError(f"unknown monomial order {order!r}")
        self.order = order
        self._index = {v: i for i, v in enumerate(self.variables)}

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def heap_key(self, exps: tuple[int, ...]):
        """The monomial order, reversed: its largest element has the least key."""
        if self.order == "degrevlex":
            return (-sum(exps), exps[::-1])
        return tuple(map(operator.neg, exps))

    def zero(self) -> "Polynomial":
        return Polynomial._raw(self, {})

    def one(self) -> "Polynomial":
        return Polynomial._raw(self, {(0,) * self.nvars: _ONE})

    def constant(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial._raw(self, {(0,) * self.nvars: c} if c else {})

    def variable(self, name: str) -> "Polynomial":
        try:
            i = self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial._raw(self, {exps: _ONE})

    def monomial(self, exps: Sequence[int], coefficient=1) -> "Polynomial":
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ValueError("bad exponent tuple")
        return Polynomial(self, {exps: Fraction(coefficient)})

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PolyRing)
                and self.variables == other.variables and self.order == other.order)

    def __hash__(self) -> int:
        return hash((self.variables, self.order))

    def __repr__(self) -> str:
        return f"PolyRing({len(self.variables)} variables, {self.order})"

    # -- parsing -----------------------------------------------------------

    def parse(self, text: str) -> "Polynomial":
        """Inverse of Polynomial.text(); accepts optional whitespace."""
        tokens = self._tokenize(text)
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

        total = self.zero()
        sign = Fraction(1)
        tk, tv = peek()
        if tk == "op" and tv in "+-":
            sign = Fraction(-1) if tv == "-" else Fraction(1)
            pos += 1
        while True:
            total = total + self._parse_term(tokens, peek, take).scale(sign)
            tk, tv = peek()
            if tk is None:
                return total
            if tk == "op" and tv in "+-":
                sign = Fraction(-1) if tv == "-" else Fraction(1)
                pos += 1
            else:
                raise ValueError(f"unexpected token {tv!r} in {text!r}")

    def _parse_term(self, tokens, peek, take) -> "Polynomial":
        out = self.one()
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
                out = out * self.variable(tv) ** exp
            else:
                raise ValueError("expected a factor")
            nk, nv = peek()
            if nk == "op" and nv == "*":
                take("op")
                continue
            return out

    def _tokenize(self, text: str):
        by_len = sorted(self.variables, key=len, reverse=True)
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


def _frac_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: Mapping[tuple, Fraction] | None = None) -> None:
        self.ring = ring
        data = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c:
                    data[e] = c
        self.terms = data

    @classmethod
    def _raw(cls, ring: PolyRing, terms: dict) -> "Polynomial":
        """Trusted constructor: ``terms`` must already map to nonzero Fractions.

        The dict is taken over, not copied.  Arithmetic builds its results
        here, so a coefficient is wrapped in ``Fraction`` once, not again on
        every operation that carries it along.
        """
        p = object.__new__(cls)
        p.ring = ring
        p.terms = terms
        return p

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Polynomial)
                and self.ring == other.ring and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        axpy(out, 1, other.terms)
        return Polynomial._raw(self.ring, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        axpy(out, -1, other.terms)
        return Polynomial._raw(self.ring, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.ring, {e: -c for e, c in self.terms.items()})

    def scale(self, c) -> "Polynomial":
        if type(c) is not Fraction:
            c = Fraction(c)
        if not c:
            return Polynomial._raw(self.ring, {})
        return Polynomial._raw(self.ring, {e: c * v for e, v in self.terms.items()})
    __rmul__ = scale

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return self._sum_of_products((self,), (other,))

    def _sum_of_products(self, xs: Iterable["Polynomial"],
                         ys: Iterable["Polynomial"]) -> "Polynomial":
        """Σ x·y over the paired polynomials, in the ring of ``self``.

        Every term product goes into one dict, so no intermediate polynomial
        is built; ``Mat`` products and traces over polynomials sum here.  A
        left coefficient of 1 takes the right one as it is, with no product.
        """
        out: dict[tuple, Fraction] = {}
        add = operator.add
        for x, y in zip(xs, ys):
            for e1, c1 in x.terms.items():
                unit = c1 == 1
                for e2, c2 in y.terms.items():
                    e = tuple(map(add, e1, e2))
                    c = c2 if unit else c1 * c2
                    v = out.get(e)
                    if v is None:
                        out[e] = c
                    elif v := v + c:
                        out[e] = v
                    else:
                        del out[e]
        return Polynomial._raw(self.ring, out)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        if n == 0:
            return self.ring.one()
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def lead_exps(self) -> tuple:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return min(self.terms, key=self.ring.heap_key)

    def lead_coeff(self) -> Fraction:
        return self.terms[self.lead_exps()]

    def monic(self) -> "Polynomial":
        return self.scale(1 / self.lead_coeff())

    def evaluate(self, env: Mapping[str, Fraction]) -> Fraction:
        """Value at a rational point given per-variable values."""
        total = _ZERO
        for exps, c in self.terms.items():
            v = Fraction(c)
            for name, e in zip(self.ring.variables, exps):
                if not e:
                    continue
                if name not in env:
                    raise ValueError(f"no value for variable {name!r}")
                v *= Fraction(env[name]) ** e
            total += v
        return total

    def substitute(self, ring: PolyRing,
                   images: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Ring map into ``ring`` sending each variable to its image.

        Variables without an explicit image must exist in the target ring
        under the same name.
        """
        # powers[i][k] is the image of variable i raised to k + 1
        powers: dict[int, list[Polynomial]] = {}

        def power(i: int, e: int) -> Polynomial:
            known = powers.get(i)
            if known is None:
                name = self.ring.variables[i]
                img = images.get(name)
                if img is None:
                    img = ring.variable(name)
                elif not isinstance(img, Polynomial):
                    img = ring.constant(img)
                elif img.ring != ring:
                    raise ValueError("image lies in a different ring")
                known = powers[i] = [img]
            while len(known) < e:
                known.append(known[-1] * known[0])
            return known[e - 1]

        one = {(0,) * ring.nvars: _ONE}
        out: dict[tuple, Fraction] = {}
        for exps, c in self.terms.items():
            term = None
            for i, e in enumerate(exps):
                if e:
                    p = power(i, e)
                    term = p if term is None else term * p
                    if not term:
                        break
            axpy(out, c, one if term is None else term.terms)
        return Polynomial._raw(ring, out)

    def text(self) -> str:
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda it: self.ring.heap_key(it[0]))
        rendered = []
        for exps, c in items:
            factors = []
            for name, e in zip(self.ring.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(c)
            if not factors:
                body = _frac_text(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = _frac_text(mag) + "*" + "*".join(factors)
            rendered.append((c < 0, body))
        neg, body = rendered[0]
        out = ("-" if neg else "") + body
        for neg, body in rendered[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def __repr__(self) -> str:
        return f"Polynomial({self.text()})"


def _divides(a: tuple, b: tuple) -> bool:
    return all(map(operator.le, a, b))


def _support(exps: tuple) -> int:
    """Bitmask of the variables a monomial uses; a divisor's mask is a subset."""
    return int.from_bytes(bytes(map(bool, exps)), "big")


def _mono_sub(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def _mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def _reduce(f: Polynomial, leads: Sequence[tuple[tuple, Polynomial]],
            masks: Sequence[int]) -> Polynomial:
    """Full multivariate division remainder of f by the listed polynomials.

    ``leads`` pairs each divisor with its leading exponents, ``masks`` holds
    their ``_support``s; the first divisor in list order whose lead divides
    a term cancels it.  A term enters the heap when it enters ``work``, and
    an entry whose term has cancelled since is skipped.  A popped term never
    returns, since all a reducer adds lies below the term it cancels.
    """
    ring = f.ring
    heap_key = ring.heap_key
    push, pop = heapq.heappush, heapq.heappop
    add = operator.add
    work = dict(f.terms)
    heap = [(heap_key(e), e) for e in work]
    heapq.heapify(heap)
    out: dict[tuple, Fraction] = {}
    while heap:
        exps = pop(heap)[1]
        coef = work.pop(exps, None)
        if coef is None:
            continue
        support = _support(exps)
        for mask, (le, g) in zip(masks, leads):
            if mask & support == mask and _divides(le, exps):
                shift = _mono_sub(exps, le)
                factor = coef / g.terms[le]
                for e2, c2 in g.terms.items():
                    if e2 == le:
                        continue
                    e = tuple(map(add, e2, shift))
                    v = work.get(e)
                    if v is None:
                        work[e] = -factor * c2
                        push(heap, (heap_key(e), e))
                    elif v := v - factor * c2:
                        work[e] = v
                    else:
                        del work[e]
                break
        else:
            out[exps] = coef
    return Polynomial._raw(ring, out)


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Gröbner basis: monic, inter-reduced, sorted by leading term."""

    ring: PolyRing
    polys: tuple[Polynomial, ...]
    # (leading exponents, polynomial) per member, computed once
    leads: tuple[tuple[tuple, Polynomial], ...] = field(
        init=False, repr=False, compare=False)
    # _support of each lead, in the same order
    _masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        leads = tuple((g.lead_exps(), g) for g in self.polys)
        object.__setattr__(self, "leads", leads)
        object.__setattr__(self, "_masks", tuple(_support(le) for le, _ in leads))

    def __iter__(self):
        return iter(self.polys)

    def __len__(self) -> int:
        return len(self.polys)

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        return _reduce(f, self.leads, self._masks)

    def ideal_member(self, f: Polynomial) -> tuple[bool, Polynomial]:
        nf = self.normal_form(f)
        return (not nf, nf)

    def is_standard(self, exps: tuple) -> bool:
        """True when the monomial avoids every leading term."""
        support = _support(exps)
        return not any(mask & support == mask and _divides(le, exps)
                       for mask, (le, _) in zip(self._masks, self.leads))

    def texts(self) -> list[str]:
        return [g.text() for g in self.polys]


def buchberger(generators: Iterable[Polynomial], max_steps: int = 50_000,
               ring: PolyRing | None = None) -> GroebnerBasis:
    """Reduced Gröbner basis of the ideal the generators span.

    ``max_steps`` bounds the number of S-pair reductions; running past it
    raises BudgetExceeded rather than returning a partial basis.  The zero
    ideal (no nonzero generators) is allowed when ``ring`` says where it
    lives.
    """
    if max_steps < 0:
        raise ValueError(f"max_steps must be nonnegative, not {max_steps}")
    gens = [g for g in generators if g]
    if not gens:
        if ring is None:
            raise ValueError("no nonzero generators and no ring given")
        return GroebnerBasis(ring, ())
    if ring is None:
        ring = gens[0].ring
    if any(g.ring != ring for g in gens):
        raise ValueError("generators from different rings")

    basis: list[tuple[tuple, Polynomial]] = []   # (lead exps, monic member)
    masks: list[int] = []                        # _support of each lead
    pairs: list[tuple] = []

    def push(f: Polynomial) -> None:
        f = f.monic()
        lt = f.lead_exps()
        t = len(basis)
        basis.append((lt, f))
        masks.append(_support(lt))
        for i in range(t):
            li = basis[i][0]
            if all(min(a, b) == 0 for a, b in zip(li, lt)):
                continue   # coprime leads never yield a new element
            lcm = _mono_lcm(li, lt)
            heapq.heappush(pairs, (sum(lcm), i, t))

    for g in gens:
        r = _reduce(g, basis, masks)
        if r:
            push(r)

    steps = 0
    while pairs:
        steps += 1
        if steps > max_steps:
            raise BudgetExceeded(f"Gröbner computation exceeded {max_steps} steps")
        _, i, j = heapq.heappop(pairs)
        (li, fi), (lj, fj) = basis[i], basis[j]
        lcm = _mono_lcm(li, lj)
        a = Polynomial._raw(ring, {_mono_sub(lcm, li): _ONE})
        b = Polynomial._raw(ring, {_mono_sub(lcm, lj): _ONE})
        s = a * fi - b * fj
        r = _reduce(s, basis, masks)
        if r:
            push(r)

    # minimalize: drop members whose lead another member's lead divides
    keep: list[int] = []
    for i, (lt, _) in enumerate(basis):
        redundant = False
        for j, (lh, _) in enumerate(basis):
            if i == j:
                continue
            if _divides(lh, lt) and (lh != lt or j < i):
                redundant = True
                break
        if not redundant:
            keep.append(i)
    reduced = []
    for i in keep:
        g = basis[i][1]
        others = [j for j in keep if j != i]
        r = (_reduce(g, [basis[j] for j in others], [masks[j] for j in others])
             if others else g)
        if r:
            reduced.append(r.monic())
    reduced.sort(key=lambda g: ring.heap_key(g.lead_exps()), reverse=True)
    return GroebnerBasis(ring, tuple(reduced))


# -- nilpotence probing -------------------------------------------------------


@dataclass(frozen=True)
class NilpotentWitness:
    """A polynomial outside the ideal with a power inside it."""

    element: Polynomial
    power: int


def standard_monomials(gb: GroebnerBasis, max_deg: int) -> list[Polynomial]:
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
                out.append(Polynomial._raw(ring, {exps: _ONE}))
    return out


def ideal_multigrading(gb: GroebnerBasis) -> list[tuple[int, ...]]:
    """Integer weight vectors spanning every grading under which the ideal
    is homogeneous.

    A weight vector w grades the quotient when each basis polynomial has all
    of its exponent vectors on a single w-level, so the solutions form the
    kernel of the exponent-difference matrix.  The returned vectors are the
    rational kernel basis with denominators cleared.
    """
    n = gb.ring.nvars
    diffs: list[list[Fraction]] = []
    for g in gb:
        exps = iter(g.terms)
        e0 = next(exps)
        for e in exps:
            diffs.append([Fraction(a - b) for a, b in zip(e, e0)])
    basis = nullspace(diffs, n)
    out = []
    for vec in basis:
        denom = math.lcm(*(x.denominator for x in vec))
        out.append(tuple(int(x * denom) for x in vec))
    return out


def nilpotent_witness_search(gb: GroebnerBasis, max_deg: int, max_pow: int,
                             seed: int = 0, trials: int = 200,
                             max_ops: int | None = None) -> NilpotentWitness | None:
    """Search for f with f not in the ideal but f^k in it for some k <= max_pow.

    Nilpotents decompose into homogeneous parts for every grading of the
    ideal, so multi-term witnesses can be assumed to combine standard
    monomials of equal degree and equal weight under ``ideal_multigrading``.
    Three exact, reproducible phases:

    1. every standard monomial of degree <= max_deg, in graded order;
    2. signed pairs m + m' and m - m' of standard monomials sharing a
       grading class, probed at the square (by linearity one reduction of
       each of m*m, m'*m', m*m' settles both signs);
    3. seeded random small-integer combinations of 2..4 standard monomials
       drawn from a common grading class.

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

    monos = standard_monomials(gb, max_deg)
    for m in monos:
        hit = probe(m, standard=True)
        if hit is not None:
            return hit

    weights = ideal_multigrading(gb)
    classes: dict[tuple, list[int]] = {}
    for idx, m in enumerate(monos):
        exps = next(iter(m.terms))
        key = (sum(exps),
               tuple(sum(w[i] * e for i, e in enumerate(exps) if e) for w in weights))
        classes.setdefault(key, []).append(idx)

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
    for _ in range(trials):
        if pools:
            pool = pools[rng.randrange(len(pools))]
        else:
            pool = list(range(len(monos)))
        if len(pool) < 2:
            break
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
