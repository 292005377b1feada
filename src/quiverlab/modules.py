"""Explicit modules: one exact-rational matrix per arrow.

``ModuleRep``, relation checking, direct sums and corner restriction come
from ``repscheme``.  Here: corner induction, the framed-generation stability
test, invariant fingerprints, conjugation, and random extensions compatible
with a relation set.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import islice

from .algebra import AlgebraElement
from .corner import (BimoduleGenerators, CornerPresentation,
                     sufficient_dimension_bound)
from .errors import BudgetExceeded, VerificationError
from .linalg import Mat, SpanBuilder, _fraction, axpy, block_upper, kernel_combos
from .polynomials import PolyRing
from .quivers import DimensionVector, Quiver
from .repscheme import (InvariantGenerator, ModuleRep, RepCoordinates,
                        check_relations, coordinate_names, covering_dims,
                        direct_sum, element_matrix, invariant_generators,
                        invariant_values, lift, path_matrix, restrict_corner,
                        zero_module)

_ZERO = Fraction(0)
_COEF_BOUND = 3  # random_extension weighs each kernel vector by an int in ±_COEF_BOUND


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
    seed = {0: 1}
    spans[start].add(dict(seed))   # add takes its row over; the frontier keeps its own
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
    names = coordinate_names(m.quiver, m.dims)
    if any(ring.variables != names for ring in {g.polynomial.ring for g in gens}):
        raise ValueError("invariant generators belong to another dimension vector")
    return tuple(invariant_values(m, gens))


# -- extensions ---------------------------------------------------------------


def random_extension(sub: ModuleRep, quot: ModuleRep,
                     relations: Iterable[AlgebraElement], rng) -> ModuleRep:
    """A seeded-random block-triangular extension of quot by sub.

    The generic extension has a variable per off-diagonal entry; with both
    diagonal blocks satisfying the relations its residuals are linear (no X·X
    term), and the off-diagonal data is a random integer combination of an
    exact kernel basis of that system, so the result satisfies the relations.
    """
    quiver = sub.quiver
    if quiver != quot.quiver:
        raise ValueError("blocks live over different quivers")
    rels = list(relations)
    if not check_relations(sub, rels)[0] or not check_relations(quot, rels)[0]:
        raise ValueError("both blocks must satisfy the relations")

    shapes = [(a.name, sub.dims[a.target], quot.dims[a.source]) for a in quiver.arrows]
    ring = PolyRing(f"x{k}" for k in range(sum(r * c for _, r, c in shapes)))
    zero, xs = ring.zero(), iter(map(ring.variable, ring.variables))
    s, q = lift(sub, ring), lift(quot, ring)
    generic = ModuleRep(quiver, sub.dims + quot.dims, {
        name: block_upper(s.matrices[name],
                          Mat(r, c, tuple(tuple(islice(xs, c)) for _ in range(r)), zero),
                          q.matrices[name])
        for name, r, c in shapes})

    # a residual term is c·x_k: it goes to column k, keyed (relation, row, col)
    columns: list[dict] = [{} for _ in ring.variables]
    for n, residual in enumerate(check_relations(generic, rels)[1]):
        for i, row in enumerate(residual.data):
            for j, f in enumerate(row):
                for exps, c in f.terms.items():
                    columns[exps.index(1)][(n, i, j)] = c
    values: dict[int, Fraction] = {}
    for combo in kernel_combos(columns):
        axpy(values, rng.randint(-_COEF_BOUND, _COEF_BOUND), combo)
    point = {x: values.get(k, _ZERO) for k, x in enumerate(ring.variables)}
    result = ModuleRep(quiver, generic.dims, {
        name: Mat(m.rows, m.cols, tuple(tuple(f.evaluate(point) for f in row)
                                        for row in m.data))
        for name, m in generic.matrices.items()})
    ok, _ = check_relations(result, rels)
    if not ok:
        raise VerificationError("extension construction produced an invalid module")
    return result


# -- induction ----------------------------------------------------------------


def induce_module(v_h: ModuleRep, pres: CornerPresentation,
                  gens: BimoduleGenerators) -> ModuleRep:
    """Left-adjoint extension of a corner module to the whole algebra.

    Symbols (standard path with source in H) x (basis vector of V_H at the
    path's source) span the candidate space; for every corner generator l the
    identification (p*l) tensor w = p tensor (l*w) is imposed degreewise.  The
    loop stops once the per-vertex dimensions are unchanged and no symbol
    survives for k_top_degree + 2 consecutive degrees, then arrow actions are
    read off resolved pivots.  The result is post-verified: ambient relations,
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

    span = SpanBuilder()
    symbols: dict[tuple, str] = {}   # (degree, path key, j) -> the path's target
    history: list[Counter] = []      # survivors per target vertex, by degree
    for d in range(basis.cutoff + 1):
        for key, (source, target) in basis._table(d).items():
            if source in h_set:
                for j in range(v_h.dims[source]):
                    symbols[(d, key, j)] = target
        for gen in corner.generators:
            k = gen.degree
            if k > d:
                continue
            m_gen = v_h.matrices[gen.name]
            start = {basis._pack(gen.path.key): 1}
            for pkey, (source, _) in basis._table(d - k).items():
                if source != gen.target:
                    continue
                nf = basis._extend(start, basis._unpack(pkey)[1:])   # p * gen: gen acts first
                for j in range(v_h.dims[gen.source]):
                    row = {(d, qkey, j): c for qkey, c in nf.items()}
                    for i in range(v_h.dims[gen.target]):
                        c = m_gen.entry(i, j)
                        if c:
                            # a symbol of degree d - k, never a key of nf
                            row[(d - k, pkey, i)] = -c
                    if row:
                        span.add(row)
        survivors = [key for key in symbols if key not in span.pivots]
        history.append(Counter(symbols[key] for key in survivors))
        if (d >= window and all(h == history[-1] for h in history[-1 - window:-1])
                and all(key[0] <= d - window for key in survivors)):
            break
    else:
        raise BudgetExceeded(
            f"induction dimensions did not stabilize within degree {basis.cutoff}")

    survivors.sort()
    pivots = span.resolve()   # every tail over survivors alone
    by_vertex: dict[str, list[tuple]] = {v: [] for v in quiver.vertices}
    for key in survivors:
        by_vertex[symbols[key]].append(key)
    index = {key: i for keys in by_vertex.values() for i, key in enumerate(keys)}
    dims_out = DimensionVector({v: len(keys) for v, keys in by_vertex.items()})

    matrices: dict[str, Mat] = {}
    for a in quiver.arrows:
        rows, cols = dims_out[a.target], dims_out[a.source]
        data = [[_ZERO] * cols for _ in range(rows)]
        step = (quiver.arrow_index(a.name),)
        for col, key in enumerate(by_vertex[a.source]):
            d, pkey, j = key
            column: dict = {}
            for qkey, c in basis._extend({pkey: 1}, step).items():
                rkey = (d + 1, qkey, j)   # a lead reads as its tail
                axpy(column, c, pivots.get(rkey, {rkey: 1}))
            for rkey, c in column.items():
                data[index[rkey]][col] = _fraction(c)
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


_ENTRY = re.compile(r"-?[0-9]+(/[0-9]+)?")   # what module_to_json writes


def _json_entry(x, arrow: str) -> Fraction:
    """A matrix entry: a JSON integer or an integer or p/q string, ASCII digits only."""
    if not (type(x) is int or isinstance(x, str) and _ENTRY.fullmatch(x)):
        raise ValueError(f"matrix for {arrow!r} has an entry {x!r} that is "
                         "neither an integer nor a p/q string")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in matrix entry {x!r}") from None


def module_from_json(quiver: Quiver, data: Mapping) -> ModuleRep:
    if not (isinstance(data, Mapping) and isinstance(data.get("dimension"), Mapping)):
        raise ValueError("a module document must be a JSON object whose "
                         "'dimension' maps vertices to dimensions")
    dims = covering_dims(quiver, data["dimension"])
    arrows = data.get("arrows", {})
    if not isinstance(arrows, Mapping):
        raise ValueError("'arrows' must map arrow names to matrices")
    unknown = sorted(set(arrows) - {a.name for a in quiver.arrows})
    if unknown:
        raise ValueError(f"'arrows' names arrows the quiver lacks: {unknown}")
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
        mats[a.name] = Mat(rows, cols, tuple(tuple(_json_entry(x, a.name) for x in r)
                                                for r in raw))
    return ModuleRep(quiver, dims, mats)
