"""Representations and representation schemes: modules, ideals, invariants.

``ModuleRep`` attaches a matrix to every arrow; the generic one,
``RepCoordinates``, fills them with fresh variables.  Its relation residuals
generate the defining ideal, and every map out of a scheme is a module
operation on it.  Invariant generators are traces of cycles through the
gauged (I) vertices and entries of paths between framing (F) vertices.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction
from itertools import islice

from .algebra import AlgebraElement, RelationSet, restrict_relations
from .corner import CornerPresentation
from .errors import BudgetExceeded, Record
from .linalg import Mat, block_diag
from .quivers import (FRAMING_ARROW, FRAMING_VERTEX, DimensionVector,
                      Path, Quiver)
from .polynomials import MAX_VARIABLES, Polynomial, PolyRing, _RingMap


def variable_name(arrow: str, row: int, col: int) -> str:
    """Coordinate name for the (row, col) entry of an arrow's matrix, 1-based."""
    return f"x_{arrow}_{row}_{col}"


def coordinate_names(quiver: Quiver, dims: Mapping[str, int]) -> tuple[str, ...]:
    """Every matrix coordinate of (quiver, dims): by arrow, then row-major."""
    return tuple(variable_name(a.name, i, j) for a in quiver.arrows
                 for i in range(1, dims[a.target] + 1)
                 for j in range(1, dims[a.source] + 1))


def path_matrix(rep: ModuleRep, path: Path) -> Mat:
    """Product of the arrow matrices along the path (idempotent: identity)."""
    return _product(rep, path.source, path.arrows, [])


def _product(rep, base: str, arrows: tuple, chain: list) -> Mat:
    """Matrix of the path (base, arrows), starting from its first arrow.

    ``chain`` holds (arrow, matrix) for each prefix of the last path built
    through it.  The next path reuses the prefix the two share, so a batch
    of paths in sorted order shares its products while holding only one
    path's worth of matrices.
    """
    if not arrows:
        return Mat.identity(rep.dims[base], rep.zero, rep.one)
    k, n = 0, min(len(chain), len(arrows))
    while k < n and chain[k][0] == arrows[k]:
        k += 1
    if k == len(arrows):
        return chain[k - 1][1]
    del chain[k:]
    mats = rep.matrices
    out = chain[-1][1] if k else None
    for name in arrows[k:]:
        out = mats[name] if out is None else mats[name] * out
        chain.append((name, out))
    return out


def _value(rep, kind: str, path: Path, row, col, chain: list):
    """An invariant's value on ``rep``: a cycle's trace or a path's (row, col) entry.

    A trace comes from the diagonal of the last product only: with A the
    last arrow's matrix and P the product before it, tr(A·P) = sum of
    A[i][k]·P[k][i], so A·P is never formed.  ``chain`` goes to ``_product``,
    so the values of a batch share their prefix products.
    """
    if kind == "entry":
        return _product(rep, path.source, path.arrows, chain).entry(row - 1, col - 1)
    if path.source != path.target:
        raise ValueError("trace needs a cycle")
    if not path.arrows:
        return path_matrix(rep, path).trace()
    head = _product(rep, path.source, path.arrows[:-1], chain)
    return rep.matrices[path.arrows[-1]].trace_of_product(head)


def element_matrix(rep: ModuleRep, element: AlgebraElement) -> Mat:
    """Matrix of a homogeneous-endpoint element, over any entry ring.

    The one relation evaluator; a term of coefficient ±1 costs no scaling."""
    out = Mat.zero(rep.dims[element.target], rep.dims[element.source], rep.zero)
    for p, c in element.terms.items():
        m = path_matrix(rep, p)
        out = out + m if c == 1 else out - m if c == -1 else out + m.scale(c)
    return out


def covering_dims(quiver: Quiver, dims: Mapping[str, int]) -> DimensionVector:
    """``dims`` as a DimensionVector, which must name exactly the quiver's vertices."""
    dims = dims if isinstance(dims, DimensionVector) else DimensionVector(dims)
    missing = [v for v in quiver.vertices if v not in dims]
    unknown = [v for v in dims if v not in quiver.partition]
    if missing or unknown:
        raise ValueError("the dimension vector must name exactly the quiver's "
                         f"vertices (missing: {missing}, unknown: {unknown})")
    return dims


class ModuleRep:
    """A finite-dimensional module: dimensions per vertex, a matrix per arrow.

    The matrix of an arrow a: s -> t has shape dims[t] x dims[s] and acts on
    column vectors; a path acts by multiplying its arrows' matrices last
    applied leftmost.  The entries' ``zero`` is the matrices' common
    ``ring_zero`` (``Fraction(0)`` without arrows), and ``one`` its match.
    """

    __slots__ = ("quiver", "dims", "matrices", "zero", "one")

    def __init__(self, quiver: Quiver, dims: Mapping[str, int],
                 matrices: Mapping[str, Mat]) -> None:
        self.quiver = quiver
        self.dims = covering_dims(quiver, dims)
        mats = dict(matrices)
        unknown = set(mats) - {a.name for a in quiver.arrows}
        if unknown:
            raise ValueError(f"matrices for unknown arrows {sorted(unknown)}")
        for a in quiver.arrows:
            m = mats.get(a.name)
            if m is None:
                raise ValueError(f"missing matrix for arrow {a.name!r}")
            if (m.rows, m.cols) != (self.dims[a.target], self.dims[a.source]):
                raise ValueError(f"matrix for {a.name!r} has the wrong shape "
                                 f"{m.rows}x{m.cols}, expected "
                                 f"{self.dims[a.target]}x{self.dims[a.source]}")
        self.matrices = mats
        self.zero = next(iter(mats.values())).ring_zero if mats else Fraction(0)
        if any(m.ring_zero != self.zero for m in mats.values()):
            raise ValueError("the matrices use different entry rings")
        self.one = self.zero ** 0   # the empty product, in either ring

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ModuleRep) and self.quiver == other.quiver
                and self.dims == other.dims and self.matrices == other.matrices)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}={self.dims[v]}" for v in self.quiver.vertices)
        return f"{type(self).__name__}({inner})"


def zero_module(quiver: Quiver, dims: Mapping[str, int]) -> ModuleRep:
    """The module of the given dimensions where every arrow acts as zero."""
    dv = covering_dims(quiver, dims)
    mats = {a.name: Mat.zero(dv[a.target], dv[a.source]) for a in quiver.arrows}
    return ModuleRep(quiver, dv, mats)


def check_relations(m: ModuleRep,
                    relations: Iterable[AlgebraElement]) -> tuple[bool, list[Mat]]:
    """Evaluate every relation on the module; True iff all residuals vanish."""
    residuals = [element_matrix(m, rel) for rel in relations]
    return all(r.is_zero() for r in residuals), residuals


def lift(m: ModuleRep, ring: PolyRing) -> ModuleRep:
    """The module ``m`` over ``ring``: each rational entry becomes a constant."""
    return ModuleRep(m.quiver, m.dims, {
        name: Mat(x.rows, x.cols, tuple(tuple(map(ring.constant, row)) for row in x.data),
                  ring.zero()) for name, x in m.matrices.items()})


def direct_sum(m1: ModuleRep, m2: ModuleRep) -> ModuleRep:
    if m1.quiver != m2.quiver:
        raise ValueError("summands live over different quivers")
    dims = m1.dims + m2.dims
    mats = {a.name: block_diag(m1.matrices[a.name], m2.matrices[a.name])
            for a in m1.quiver.arrows}
    return ModuleRep(m1.quiver, dims, mats)


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


class RepCoordinates(ModuleRep):
    """The generic representation of (quiver, dims), over its coordinate ring.

    The matrix of an arrow a: s -> t has shape dims[t] x dims[s]; its (i, j)
    entry is the ring variable ``x_a_i_j`` (1-based).  Variables are ordered
    as ``coordinate_names`` lists them.
    """

    def __init__(self, quiver: Quiver, dims: Mapping[str, int]) -> None:
        dims = covering_dims(quiver, dims)
        count = sum(dims[a.target] * dims[a.source] for a in quiver.arrows)
        if count > MAX_VARIABLES:   # refused before a name is built
            raise ValueError(f"{count} matrix coordinates exceed the limit of "
                             f"{MAX_VARIABLES}")
        self.ring = ring = PolyRing(coordinate_names(quiver, dims))
        xs = iter(map(ring.variable, ring.variables))
        super().__init__(quiver, dims, {
            a.name: Mat(dims[a.target], dims[a.source],
                        tuple(tuple(islice(xs, dims[a.source]))
                              for _ in range(dims[a.target])), ring.zero())
            for a in quiver.arrows})
        self.zero, self.one = ring.zero(), ring.one()   # arrowless: no matrices


class RepIdeal(Record):
    """Defining ideal of the locus where every relation's matrix vanishes.

    Generators appear relation by relation, row-major within each, and
    identically zero entries are kept so the count is sum of v_t * v_s.
    """

    __slots__ = _fields = ("coords", "relations", "generators")

    @property
    def ring(self) -> PolyRing:
        return self.coords.ring

    def nonzero_generators(self) -> list[Polynomial]:
        return [g for g in self.generators if g]


def rep_ideal(coords: RepCoordinates, relations: RelationSet) -> RepIdeal:
    if relations.quiver != coords.quiver:
        raise ValueError("relations belong to a different quiver")
    residuals = check_relations(coords, relations)[1]
    return RepIdeal(coords, relations,
                    tuple(x for r in residuals for row in r.data for x in row))


# -- invariants ---------------------------------------------------------------


class InvariantGenerator(Record):
    """A polynomial invariant: a cycle trace or a framing-to-framing entry."""

    # kind is "trace" (row and col None) or "entry"
    __slots__ = _fields = ("kind", "path", "row", "col", "polynomial")

    def describe(self) -> str:
        if self.kind == "trace":
            return f"tr({self.path.text()})"
        return f"{self.path.text()}[{self.row},{self.col}]"


def trace_generator(coords: RepCoordinates, path: Path) -> InvariantGenerator:
    """Trace of a cycle's matrix; a length-0 cycle gives the constant dims."""
    return InvariantGenerator("trace", path, None, None,
                              _value(coords, "trace", path, None, None, []))


def entry_generator(coords: RepCoordinates, path: Path,
                    row: int, col: int) -> InvariantGenerator:
    return InvariantGenerator("entry", path, row, col,
                              _value(coords, "entry", path, row, col, []))


def invariant_values(rep, gens: Iterable[InvariantGenerator]) -> list:
    """Each generator's value on ``rep``, read off rep's own path matrices.

    On a ``ModuleRep`` this is the generator's polynomial evaluated at the
    module's entries; on the ``RepCoordinates`` the generators were built
    from, it is the polynomial itself.  Prefix products are shared.
    """
    chain: list = []
    return [_value(rep, g.kind, g.path, g.row, g.col, chain) for g in gens]


def _cycles(quiver: Quiver, allowed: frozenset, bound: int) -> Iterable[Path]:
    """Rotation-canonical cycles within the allowed vertex set, length 1..bound."""
    # walks are (arrow names, current vertex); a Path is built only per cycle.
    # Every walk on the stack is shorter than the bound, the empty one too.
    if bound < 1:
        return
    for base in quiver.vertices:
        if base not in allowed:
            continue
        stack = [((), base)]
        while stack:
            walk, at = stack.pop()
            for a in quiver.arrows_from(at):
                if a.target not in allowed:
                    continue
                q = walk + (a.name,)
                if a.target == base and all(q <= q[k:] + q[:k] for k in range(1, len(q))):
                    yield Path(quiver, base, q)
                if len(q) < bound:
                    stack.append((q, a.target))


# Cycle budget for the default (degree-bound) search, whose length grows
# with the square of the gauged dimension; explicit bounds are honoured.
_MAX_CYCLES = 10_000


def invariant_generators(coords: RepCoordinates,
                         cycle_bound: int | None = None,
                         path_bound: int | None = None) -> list[InvariantGenerator]:
    """Trace and framing-entry invariants up to the given length bounds.

    Defaults follow the classical degree bound: cycles up to the square of
    the total gauged dimension, framing paths two longer.  Trace generators
    are deduplicated by cycle rotation and by the realized polynomial, and
    identically zero polynomials are dropped.  Under the default cycle
    bound, enumerating more than ``_MAX_CYCLES`` cycles raises
    BudgetExceeded before any trace is taken.
    """
    for name, bound in (("cycle_bound", cycle_bound), ("path_bound", path_bound)):
        if bound is not None and bound < 0:
            raise ValueError(f"{name} must be nonnegative, not {bound}")
    quiver = coords.quiver
    gauged = frozenset(quiver.i_vertices)
    budget = None
    if cycle_bound is None:
        cycle_bound = sum(coords.dims[v] for v in gauged) ** 2
        budget = _MAX_CYCLES
    if path_bound is None:
        path_bound = cycle_bound + 2
    cycles: list[Path] = []
    for cycle in _cycles(quiver, gauged, cycle_bound):
        if budget is not None and len(cycles) >= budget:
            raise BudgetExceeded(
                f"invariant cycle enumeration reached {len(cycles) + 1} cycles, "
                f"over the budget of {budget}, at the default cycle bound "
                f"{cycle_bound}; pass an explicit cycle bound")
        cycles.append(cycle)
    cycles.sort(key=lambda p: (p.length, p.key))
    out: list[InvariantGenerator] = []
    seen: set = set()
    chain: list = []
    for cycle in cycles:
        total = _value(coords, "trace", cycle, None, None, chain)
        if not total or total in seen:
            continue
        seen.add(total)
        out.append(InvariantGenerator("trace", cycle, None, None, total))
    f_set = frozenset(quiver.f_vertices)
    frontier = [Path.idempotent(quiver, v) for v in quiver.f_vertices]
    for d in range(path_bound + 1):
        for p in frontier:
            rows, cols = coords.dims[p.target], coords.dims[p.source]
            if p.target in f_set:
                out.extend(InvariantGenerator("entry", p, i, j,
                                              _value(coords, "entry", p, i, j, chain))
                           for i in range(1, rows + 1) for j in range(1, cols + 1))
        if d < path_bound:
            frontier = [p.extend(a) for p in frontier
                        for a in quiver.arrows_from(p.target)]
    return out


# -- pullback along adding a fixed interior module ---------------------------


def add_pullback(coords: RepCoordinates, vk_dims: Mapping[str, int],
                 vk_matrices: Mapping[str, Mat],
                 rels: RelationSet | None = None,
                 ) -> tuple[RepCoordinates, Callable[[Polynomial], Polynomial]]:
    """Pullback of functions along block-adding a fixed K-supported module.

    Returns coordinates for the enlarged dimension vector together with the
    ring map classifying the direct sum of the generic module and the fixed
    one V_K, taken over the smaller scheme's ring.  ``vk_dims`` may leave out
    vertices where V_K is zero, and ``vk_matrices`` arrows that act on it as
    zero.  When ``rels`` is given, V_K is first checked to satisfy them.
    """
    quiver = coords.quiver
    given = DimensionVector(vk_dims)
    unknown = set(given) - set(quiver.vertices)
    if unknown:
        raise ValueError(f"added module names unknown vertices {sorted(unknown)}")
    vk = DimensionVector({v: given.get(v, 0) for v in quiver.vertices})
    for v in quiver.vertices:
        if vk[v] and quiver.tag(v) != "K":
            raise ValueError(f"added module must be supported on K vertices, "
                             f"not {v!r}")
    fixed = ModuleRep(quiver, vk, {**{a.name: Mat.zero(vk[a.target], vk[a.source])
                                      for a in quiver.arrows}, **vk_matrices})
    if rels is not None and not check_relations(fixed, rels)[0]:
        raise ValueError("fixed matrices do not satisfy the relations")

    big = RepCoordinates(quiver, coords.dims + vk)
    return big, _ring_map(big, coords.ring, direct_sum(coords, lift(fixed, coords.ring)),
                          "enlarged")


def corner_comparison_map(pres: CornerPresentation, coords: RepCoordinates,
                          ) -> tuple[RepCoordinates, Callable[[Polynomial], Polynomial]]:
    """Pullback of corner-presentation coordinates along restriction.

    A representation of the ambient algebra restricts to one of the corner
    presentation; the map classifies the generic module's restriction, so it
    sends each presentation variable to an entry of its path's matrix.
    """
    small = RepCoordinates(pres.quiver, coords.dims.restrict(pres.quiver.vertices))
    return small, _ring_map(small, coords.ring, restrict_corner(coords, pres),
                            "presentation")


def _ring_map(source: RepCoordinates, target: PolyRing, image: ModuleRep,
              what: str) -> Callable[[Polynomial], Polynomial]:
    """The ring map classifying ``image``, a module with entries in ``target``.

    The source's variables, in order, pair with the entries of the image
    matrices, read by arrow, then row-major.  The images are resolved once,
    here, and serve every call of the map.
    """
    table = dict(zip(source.ring.variables,
                     (x for a in source.quiver.arrows
                      for row in image.matrices[a.name].data for x in row),
                     strict=True))
    apply = _RingMap(source.ring, target, table)

    def hom(f: Polynomial) -> Polynomial:
        if f.ring != source.ring:
            raise ValueError(f"polynomial does not live on the {what} scheme")
        return apply(f)

    return hom


# -- framed-affine surgery ----------------------------------------------------


def _check_framed_affine(quiver: Quiver) -> None:
    if quiver.f_vertices != (FRAMING_VERTEX,):
        raise ValueError("expected exactly the framing vertex tagged F")
    if quiver.j_vertices != ("0",):
        raise ValueError("expected exactly vertex 0 tagged J")
    if not quiver.has_arrow(FRAMING_ARROW):
        raise ValueError("missing the framing arrow")
    iota = quiver.arrow(FRAMING_ARROW)
    if (iota.source, iota.target) != (FRAMING_VERTEX, "0"):
        raise ValueError("the framing arrow must run from the framing vertex to 0")
    for a in quiver.arrows:
        if a.name != FRAMING_ARROW and FRAMING_VERTEX in (a.source, a.target):
            raise ValueError("no arrow besides the framing arrow may touch the "
                             "framing vertex")


def build_astar(quiver: Quiver, relations: RelationSet) -> RelationSet:
    """Extend the relations by killing every arrow from K into vertex 0."""
    _check_framed_affine(quiver)
    extra = [AlgebraElement.from_path(Path(quiver, a.source, (a.name,)))
             for a in quiver.arrows_into("0") if quiver.tag(a.source) == "K"]
    return RelationSet(quiver, tuple(relations) + tuple(extra))


def build_acircledast(quiver: Quiver,
                      relations: RelationSet) -> tuple[Quiver, RelationSet]:
    """Delete the framing data and the K-to-0 arrows; re-tag 0 as framing.

    Relation terms using a deleted arrow are dropped, and relations left
    empty disappear entirely.
    """
    _check_framed_affine(quiver)
    killed = {FRAMING_ARROW}
    killed.update(a.name for a in quiver.arrows_into("0")
                  if quiver.tag(a.source) == "K")
    vertices = tuple(v for v in quiver.vertices if v != FRAMING_VERTEX)
    arrows = tuple(a for a in quiver.arrows if a.name not in killed)
    partition = {v: ("F" if v == "0" else "K") for v in vertices}
    small = Quiver(vertices, arrows, partition)
    return small, restrict_relations(relations, small)


def product_split_check(generators: Iterable[Polynomial],
                        variables: Iterable[str]) -> bool:
    """True when no generator involves any of the given variables.

    A defining ideal passing this check cuts out a product along the split
    of coordinates into the given variables and the rest.
    """
    targets = set(variables)
    for g in generators:
        ring = g.ring
        indices = [i for i, v in enumerate(ring.variables) if v in targets]
        for exps in g.terms:
            if any(exps[i] for i in indices):
                return False
    return True
