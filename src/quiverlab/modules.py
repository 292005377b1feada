"""Explicit modules: one exact-rational matrix per arrow.

Covers relation checking, direct sums, corner restriction and induction,
the framed-generation stability test, invariant fingerprints, conjugation,
and construction of random extensions compatible with a relation set.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .algebra import AlgebraElement
from .corner import (BimoduleGenerators, CornerPresentation,
                     sufficient_dimension_bound)
from .errors import BudgetExceeded, VerificationError
from .linalg import Mat, SpanBuilder, axpy, block_diag, block_upper, kernel_combos
from .quivers import DimensionVector, Quiver
from .repscheme import (InvariantGenerator, RepCoordinates, element_matrix,
                        invariant_generators, invariant_values, path_matrix,
                        variable_name)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ModuleRep:
    """A finite-dimensional module: dimensions per vertex, a matrix per arrow.

    The matrix of an arrow a: s -> t has shape dims[t] x dims[s] and acts on
    column vectors; a path acts by multiplying its arrows' matrices last
    applied leftmost.
    """

    __slots__ = ("quiver", "dims", "matrices")
    zero, one = _ZERO, Fraction(1)  # of the entries, for path_matrix

    def __init__(self, quiver: Quiver, dims: Mapping[str, int],
                 matrices: Mapping[str, Mat]) -> None:
        self.quiver = quiver
        self.dims = dims if isinstance(dims, DimensionVector) else DimensionVector(dims)
        if set(self.dims) != set(quiver.vertices):
            raise ValueError("dimension vector must cover exactly the vertices")
        mats = dict(matrices)
        unknown = set(mats) - {a.name for a in quiver.arrows}
        if unknown:
            raise ValueError(f"matrices for unknown arrows {sorted(unknown)}")
        for a in quiver.arrows:
            m = mats.get(a.name)
            if m is None:
                raise ValueError(f"missing matrix for arrow {a.name!r}")
            if (m.rows, m.cols) != (self.dims[a.target], self.dims[a.source]):
                raise ValueError(f"matrix for {a.name!r} has shape "
                                 f"{m.rows}x{m.cols}, expected "
                                 f"{self.dims[a.target]}x{self.dims[a.source]}")
        self.matrices = mats

    def matrix(self, arrow: str) -> Mat:
        return self.matrices[arrow]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ModuleRep) and self.quiver == other.quiver
                and self.dims == other.dims and self.matrices == other.matrices)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}={self.dims[v]}" for v in self.quiver.vertices)
        return f"ModuleRep({inner})"


def zero_module(quiver: Quiver, dims: Mapping[str, int]) -> ModuleRep:
    """The module of the given dimensions where every arrow acts as zero."""
    dv = dims if isinstance(dims, DimensionVector) else DimensionVector(dims)
    mats = {a.name: Mat.zero(dv[a.target], dv[a.source]) for a in quiver.arrows}
    return ModuleRep(quiver, dv, mats)


def check_relations(m: ModuleRep,
                    relations: Iterable[AlgebraElement]) -> tuple[bool, list[Mat]]:
    """Evaluate every relation on the module; True iff all residuals vanish."""
    residuals = [element_matrix(m, rel) for rel in relations]
    return all(r.is_zero() for r in residuals), residuals


def direct_sum(m1: ModuleRep, m2: ModuleRep) -> ModuleRep:
    if m1.quiver != m2.quiver:
        raise ValueError("summands live over different quivers")
    dims = m1.dims + m2.dims
    mats = {a.name: block_diag(m1.matrices[a.name], m2.matrices[a.name])
            for a in m1.quiver.arrows}
    return ModuleRep(m1.quiver, dims, mats)


def is_nilvadent(m: ModuleRep) -> bool:
    """True when every arrow acts as zero (then so does every longer path)."""
    return all(mat.is_zero() for mat in m.matrices.values())


def conjugate(m: ModuleRep, changes: Mapping[str, Mat]) -> ModuleRep:
    """Simultaneous change of basis; vertices not mentioned keep the identity.

    Basis changes at the gauged (non-framing) vertices preserve fingerprints
    and every relation residual's vanishing.
    """
    p: dict[str, Mat] = {}
    p_inv: dict[str, Mat] = {}
    for v, mat in changes.items():
        n = m.dims[v]
        if (mat.rows, mat.cols) != (n, n):
            raise ValueError(f"basis change at {v!r} has the wrong shape")
        p[v] = mat
        p_inv[v] = mat.inverse()
    def at(table, v):
        return table.get(v, Mat.identity(m.dims[v]))
    mats = {a.name: at(p, a.target) * m.matrices[a.name] * at(p_inv, a.source)
            for a in m.quiver.arrows}
    return ModuleRep(m.quiver, m.dims, mats)


def restrict_corner(m: ModuleRep, pres: CornerPresentation) -> ModuleRep:
    """The corner-presentation module on the H components of m.

    Each presentation arrow acts by the matrix of its underlying path.
    """
    for path in pres.generator_paths.values():
        if path.quiver != m.quiver:
            raise ValueError("presentation comes from a different quiver")
    dims = m.dims.restrict(pres.quiver.vertices)
    mats = {name: path_matrix(m, path)
            for name, path in pres.generator_paths.items()}
    return ModuleRep(pres.quiver, dims, mats)


# -- framed generation --------------------------------------------------------


def _matvec(mat: Mat, vec: dict) -> dict:
    out: dict[int, Fraction] = {}
    for j, c in vec.items():
        axpy(out, c, {i: row[j] for i, row in enumerate(mat.data) if row[j]})
    return out


def generated_by_framing(m: ModuleRep) -> bool:
    """Whether the framing component generates m under all arrow actions.

    Requires exactly one framing vertex of dimension one.  The closure keeps
    only vectors that raise some vertex's rank, so it stops within the total
    dimension many layers.
    """
    f = m.quiver.f_vertices
    if len(f) != 1:
        raise ValueError("expected exactly one framing vertex")
    start = f[0]
    if m.dims[start] != 1:
        raise ValueError("framing component must be one-dimensional")
    spans = {v: SpanBuilder() for v in m.quiver.vertices}
    seed = {0: Fraction(1)}
    spans[start].add(seed)
    frontier = [(start, seed)]
    while frontier:
        fresh = []
        for v, vec in frontier:
            for a in m.quiver.arrows_from(v):
                w = _matvec(m.matrices[a.name], vec)
                if w and spans[a.target].add(dict(w)):
                    fresh.append((a.target, w))
        frontier = fresh
    return all(spans[v].rank == m.dims[v] for v in m.quiver.vertices)


# -- fingerprints -------------------------------------------------------------


def invariant_fingerprint(m: ModuleRep,
                          gens: Iterable[InvariantGenerator]) -> tuple[Fraction, ...]:
    """Exact values of the invariant generators at the module, in order.

    Each value comes from the module's own path matrices, which equals the
    generator's polynomial evaluated at the module's entries.  The
    generators must be those of the module's dimension vector.
    """
    gens = list(gens)
    # the coordinate names of m's dimension vector, in RepCoordinates' order
    names = tuple(variable_name(a.name, i, j) for a in m.quiver.arrows
                  for i in range(1, m.dims[a.target] + 1)
                  for j in range(1, m.dims[a.source] + 1))
    if any(ring.variables != names for ring in {g.polynomial.ring for g in gens}):
        raise ValueError("invariant generators belong to another dimension vector")
    return tuple(invariant_values(m, gens))


# -- extensions ---------------------------------------------------------------


def random_extension(sub: ModuleRep, quot: ModuleRep,
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

    # One sparse residual column per unknown, keyed (relation, row, col).
    # A path a_k…a_1 has off-diagonal block Σ_i S(a_k…a_{i+1})·X(a_i)·Q(a_{i−1}…a_1),
    # so the unknown (a_i, r, c) adds column r of S(a_k…a_{i+1}) times row c
    # of Q(a_{i−1}…a_1); the diagonal blocks' relation residuals vanish.
    columns: dict[tuple[str, int, int], dict] = {u: {} for u in unknowns}
    for n, rel in enumerate(rels):
        for p, coeff in rel.terms.items():
            prefixes = [Mat.identity(quot.dims[p.source])]
            for name in p.arrows[:-1]:
                prefixes.append(quot.matrices[name] * prefixes[-1])
            suffix = Mat.identity(sub.dims[p.target])
            for name, prefix in zip(reversed(p.arrows), reversed(prefixes)):
                for r in range(suffix.cols):
                    for c, qrow in enumerate(prefix.data):
                        col = columns[(name, r, c)]
                        for i, srow in enumerate(suffix.data):
                            if srow[r]:
                                s = coeff * srow[r]
                                for j, q in enumerate(qrow):
                                    if q:
                                        col[(n, i, j)] = col.get((n, i, j), _ZERO) + s * q
                suffix = suffix * sub.matrices[name]

    values: dict[tuple[str, int, int], Fraction] = {}
    for combo in kernel_combos([columns[u] for u in unknowns]):
        c = Fraction(rng.randint(-coef_bound, coef_bound))
        if not c:
            continue
        for k, entry in combo.items():
            u = unknowns[k]
            values[u] = values.get(u, _ZERO) + c * entry
    mats = {}
    for a in quiver.arrows:
        x = Mat(sub.dims[a.target], quot.dims[a.source],
                tuple(tuple(values.get((a.name, i, j), _ZERO)
                            for j in range(quot.dims[a.source]))
                      for i in range(sub.dims[a.target])))
        mats[a.name] = block_upper(sub.matrices[a.name], x, quot.matrices[a.name])
    result = ModuleRep(quiver, sub.dims + quot.dims, mats)
    ok, _ = check_relations(result, rels)
    if not ok:
        raise VerificationError("extension construction produced an invalid module")
    return result


# -- induction ----------------------------------------------------------------


def induce_module(v_h: ModuleRep, pres: CornerPresentation,
                  gens: BimoduleGenerators, budget: int = 40) -> ModuleRep:
    """Left-adjoint extension of a corner module to the whole algebra.

    Symbols (standard path with source in H) x (basis vector of V_H at the
    path's source) span the candidate space; for every corner generator l the
    identification (p*l) tensor w = p tensor (l*w) is imposed degreewise.  The
    loop stops once the per-vertex dimensions are unchanged and no symbol
    survives for k_top_degree + 2 consecutive degrees, then arrow actions are
    read off by residues.  The result is post-verified: ambient relations,
    H-dimensions, the sufficient dimension bound, and fingerprint equality of
    its corner restriction with V_H — any failure raises VerificationError,
    and running out of degrees raises BudgetExceeded.
    """
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, not {budget}")
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
    top = min(budget, basis.cutoff)

    span = SpanBuilder()
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
            lead = next(reversed(span.pivots))
            pivot_by_vertex[symbol_target[lead]] += 1

    enumerate_degree(0)
    history: list[dict] = [dict(total_by_vertex)]
    stopped_at: int | None = None
    for d in range(1, top + 1):
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
                key not in span.pivots
                for key in symbol_target if d - window < key[0] <= d)
            if stable and tail_clear:
                stopped_at = d
                break
    if stopped_at is None:
        raise BudgetExceeded(
            f"induction dimensions did not stabilize within degree {top}")

    survivors = sorted(k for k in symbol_target if k not in span.pivots)
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


# -- serialization -------------------------------------------------------------


def module_to_json(m: ModuleRep) -> dict:
    """Plain-JSON form: dimensions plus row-major p/q string matrices."""
    return {
        "dimension": {v: m.dims[v] for v in m.quiver.vertices},
        "arrows": {a.name: [[str(x) for x in row]
                            for row in m.matrices[a.name].data]
                   for a in m.quiver.arrows},
    }


def _json_entry(x) -> Fraction:
    try:
        return Fraction(str(x))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in matrix entry {x!r}") from None


def module_from_json(quiver: Quiver, data: Mapping) -> ModuleRep:
    if not (isinstance(data, Mapping) and isinstance(data.get("dimension"), Mapping)):
        raise ValueError("a module document must be a JSON object whose "
                         "'dimension' maps vertices to dimensions")
    dims = DimensionVector(data["dimension"])
    missing = [v for v in quiver.vertices if v not in dims]
    unknown = [v for v in dims if v not in quiver.vertices]
    if missing or unknown:
        raise ValueError("'dimension' must name exactly the quiver's vertices "
                         f"(missing: {missing}, unknown: {unknown})")
    arrows = data.get("arrows", {})
    if not isinstance(arrows, Mapping):
        raise ValueError("'arrows' must map arrow names to matrices")
    mats = {}
    for a in quiver.arrows:
        rows, cols = dims[a.target], dims[a.source]
        raw = arrows.get(a.name)
        if raw is None:
            mats[a.name] = Mat.zero(rows, cols)
            continue
        if not (isinstance(raw, list) and all(isinstance(r, list) for r in raw)):
            raise ValueError(f"matrix for {a.name!r} must be a list of rows")
        if len(raw) != rows or any(len(r) != cols for r in raw):
            raise ValueError(f"matrix for {a.name!r} has the wrong shape")
        mats[a.name] = Mat(rows, cols, tuple(tuple(map(_json_entry, r)) for r in raw))
    return ModuleRep(quiver, dims, mats)
