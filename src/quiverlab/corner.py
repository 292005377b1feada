"""Cornered algebras: generators, bimodule generators, finite presentations.

For a graded quotient algebra whose vertex set splits into framing (F),
interface (J) and interior (K) vertices, the corner is the subalgebra cut out
by the idempotents of H = F ∪ J.  Provided the interior quotient (kill all
H idempotents) is finite dimensional with top nonzero degree n, the corner is
generated in degrees <= n + 2 and the column space over the corner is
generated in degrees <= n + 1; both computations verify the claimed spanning
degreewise against the full graded basis and refuse to return unverified
output.
"""

from __future__ import annotations

from .algebra import AlgebraElement, GradedBasis, restrict_to_vertices
from .errors import Record, VerificationError
from .linalg import SpanBuilder, _kernel_combos, axpy
from .quivers import Arrow, DimensionVector, Path, Quiver


class CornerGenerator(Record):
    """One generator, represented by a standard path of the ambient algebra."""

    __slots__ = _fields = ("name", "path", "degree", "source", "target")


class CornerGenerators(Record):
    """Minimized algebra generators of the corner, with verified spanning."""

    __slots__ = _fields = ("basis", "h_vertices", "k_top_degree", "generators", "verified_to")

    @property
    def degree_bound(self) -> int:
        """Largest generator degree the theory allows: k_top_degree + 2."""
        return self.k_top_degree + 2


class BimoduleGenerators(Record):
    """Generators of the column space e_H-side module, with verified spanning.

    The paths with source in H form a right module over the corner; the
    retained generators (the H idempotents plus minimized H-to-K paths)
    span it degreewise up to ``verified_to``.
    """

    __slots__ = _fields = ("corner", "generators", "verified_to")

    @property
    def count(self) -> int:
        return len(self.generators)


def _retain(basis: GradedBasis, retained: list[CornerGenerator],
            degrees: range, top: int, cand_targets: frozenset,
            span_targets: frozenset, letter: str, what: str) -> None:
    """Extend ``retained`` degree by degree, verifying each degree's span.

    In degree d the products gen * q span, over the retained generators gen,
    each retained at its own degree <= d, and the standard H-to-H paths q of
    degree d - gen.degree ending at gen's source.  Up to degree ``top``,
    every standard path from H into ``cand_targets`` that ``SpanBuilder.add``
    says enlarged the span is retained, in key order, and named by its arrow
    or by ``letter`` and a count.  The span must then be all of the standard
    paths from H into ``span_targets``.  Products and candidates lie among
    those paths, so once the span's rank is their count every later product
    row and candidate is redundant and is skipped.  A finite-dimensional
    basis is walked only to its first empty degree: past it every block is
    empty and the span check reads 0 = 0.
    """
    if basis.finite_dimensional:
        degrees = range(degrees.start, min(degrees.stop, basis.top_degree + 2))
    h_set = frozenset(basis.quiver.h_vertices)
    blocks = [[(key, t) for key, (s, t) in basis._table(e).items()
               if s in h_set and t in h_set] for e in range(degrees.stop)]
    for d in degrees:
        from_h = [(key, t) for key, (s, t) in basis._table(d).items() if s in h_set]
        expected = sum(1 for _, target in from_h if target in span_targets)
        builder = SpanBuilder()
        products = ((key, gen.path.key[1:]) for gen in retained
                    for key, target in blocks[d - gen.degree] if target == gen.source)
        for key, arrows in products:
            if builder.rank == expected:
                break
            # _extend may hand back a pivot tail, which add would change
            builder.add(dict(basis._extend({key: 1}, arrows)))
        if d <= top:
            for key, target in from_h:
                if builder.rank == expected:
                    break
                if target not in cand_targets or not builder.add({key: 1}):
                    continue
                cand = basis._path(key)
                name = (cand.arrows[0] if cand.length == 1 else
                        f"{letter}{sum(1 for g in retained if g.path.length > 1) + 1}")
                retained.append(CornerGenerator(
                    name, cand, d, cand.source, cand.target))
        if builder.rank != expected:
            raise VerificationError(
                f"{what} generators span only {builder.rank} of {expected} "
                f"dimensions in degree {d}")


def corner_generators(basis: GradedBasis,
                      verify_cutoff: int | None = None) -> CornerGenerators:
    """Minimized generating set of the corner subalgebra e_H A e_H.

    The interior quotient (restrict to the K vertices) must come out finite
    dimensional within the basis cutoff; its top nonzero degree n bounds the
    generator search at n + 2, which the cutoff must reach.  Candidates are
    the standard basis paths between H vertices, scanned in (degree,
    path-key) order, and a candidate is retained exactly when it is not a
    combination of products of earlier retained generators.  Spanning of the whole H block is then
    verified degree by degree up to ``verify_cutoff`` (default: the basis
    cutoff); failure raises VerificationError rather than returning a wrong
    answer.  Products are spanned over standard H-to-H paths: each lower
    degree has already been verified to be the whole corner there.
    """
    quiver = basis.quiver
    h_set = frozenset(quiver.h_vertices)
    if not h_set:
        raise ValueError("quiver has no F or J vertices to corner at")
    if verify_cutoff is None:
        verify_cutoff = basis.cutoff
    if not 0 <= verify_cutoff <= basis.cutoff:
        raise ValueError(f"verify_cutoff {verify_cutoff} is outside 0..{basis.cutoff}")

    sub, subrels = restrict_to_vertices(quiver, basis.relations, quiver.k_vertices)
    interior = GradedBasis(sub, subrels, basis.cutoff)
    if not interior.finite_dimensional:
        raise VerificationError(
            f"interior quotient is still nonzero at degree {basis.cutoff}; "
            "a larger cutoff may be needed, or the corner may not be "
            "finitely generated")
    k_top = interior.top_degree or 0
    bound = k_top + 2
    if basis.cutoff < bound:
        raise ValueError(
            f"basis cutoff {basis.cutoff} is below the generation bound {bound}")

    retained: list[CornerGenerator] = []
    _retain(basis, retained, range(1, verify_cutoff + 1), bound,
            h_set, h_set, "g", "corner")
    return CornerGenerators(basis, quiver.h_vertices, k_top,
                            tuple(retained), verify_cutoff)


def bimodule_generators(corner: CornerGenerators,
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
    if verify_cutoff is None:
        verify_cutoff = corner.verified_to
    if not 0 <= verify_cutoff <= corner.verified_to:
        raise ValueError(f"verify_cutoff {verify_cutoff} is outside 0..{corner.verified_to}")

    retained: list[CornerGenerator] = [
        CornerGenerator(f"e_{h}", Path.idempotent(quiver, h), 0, h, h)
        for h in quiver.h_vertices
    ]
    # corner spanning is verified, so the corner in degree e is the full
    # H-to-H block of the standard basis
    _retain(basis, retained, range(verify_cutoff + 1), corner.k_top_degree + 1,
            frozenset(quiver.k_vertices), frozenset(quiver.vertices),
            "m", "bimodule")
    return BimoduleGenerators(corner, tuple(retained), verify_cutoff)


def sufficient_dimension_bound(bimod: BimoduleGenerators,
                               v_h: DimensionVector) -> DimensionVector:
    """Dimension vector certainly large enough for any induced module.

    Keeps v_h on the H vertices and allots (number of generators) * (total of
    v_h) to every K vertex.
    """
    quiver = bimod.corner.basis.quiver
    if set(v_h) != set(quiver.h_vertices):
        raise ValueError("v_h must be supported exactly on the H vertices")
    slack = bimod.count * v_h.total()
    out = {h: v_h[h] for h in quiver.h_vertices}
    out.update({k: slack for k in quiver.k_vertices})
    return DimensionVector(out)


# -- presentations -----------------------------------------------------------


class CornerPresentation(Record):
    """The corner as a quiver with weighted arrows and truncated relations.

    ``quiver`` lives on the H vertices with one arrow per positive-degree
    generator; ``weights`` records each arrow's degree in the ambient
    algebra.  ``relations`` are weighted-homogeneous combinations of arrow
    words found up to the stated cutoff — the ``completeness`` tag records
    that higher-degree relations may exist.
    """

    __slots__ = _fields = ("quiver", "weights", "relations", "generator_paths", "cutoff",
                           "completeness")


def corner_presentation(corner: CornerGenerators,
                        cutoff: int | None = None) -> CornerPresentation:
    """Quiver-with-relations presentation of the corner, truncated in degree.

    Builds the generator quiver, then for each weighted degree finds all
    linear dependencies among evaluated arrow words and keeps those not
    already in the two-sided ideal of relations found earlier.  A word's
    coordinates are its prefix's, extended by its last generator's arrows.
    Every dependency of lower weight lies in that ideal, and a product with
    a nonempty factor on either side of a relation factors through one
    generator, so in weight wd the ideal is spanned by x*k and k*x over
    generators x and dependencies k of weight wd - weight(x).  The ideal
    lies in the span of the weight's dependencies, so once its rank is their
    number the remaining rows are skipped, and so are the membership tests
    of the dependencies, none of which is then new.  Every kept
    relation is re-evaluated in the ambient algebra (it must vanish) and the
    word-space ranks must agree with the corner's graded dimensions.  On a
    finite-dimensional basis the weights stop at its top degree plus the
    largest generator weight: past that, every word is x*k for a word k of
    weight above the top degree, which is zero, so no relation is new.
    """
    basis = corner.basis
    big = basis.quiver
    if cutoff is None:
        cutoff = corner.verified_to
    if not 0 <= cutoff <= corner.verified_to:
        raise ValueError(f"cutoff {cutoff} is outside 0..{corner.verified_to}")
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
    steps = [gen_paths[a.name].key[1:] for a in qh.arrows]   # ambient arrow indices

    # arrow words by weight as (key over qh, target, ambient coordinates), and
    # the dependencies among each weight's words as (source, target, combo)
    starts = [{basis._pack((big.vertex_index(h),)): 1} for h in qh.vertices]
    words = [[((i,), h, starts[i]) for i, h in enumerate(qh.vertices)]]
    deps: list[list[tuple[str, str, dict]]] = [[]]
    relations: list[AlgebraElement] = []
    last = cutoff
    if basis.finite_dimensional:
        last = min(cutoff, basis.top_degree + max(weights.values(), default=0))
    for wd in range(1, last + 1):
        layer = []
        for ai, a in enumerate(qh.arrows):
            if weights[a.name] <= wd:
                for key, target, vec in words[wd - weights[a.name]]:
                    if target == a.source:
                        layer.append((key + (ai,), a.target, basis._extend(vec, steps[ai])))
        layer.sort(key=lambda word: word[0])
        words.append(layer)
        combos = _kernel_combos([vec for _, _, vec in layer])
        dim = sum(1 for s, t in basis._table(wd).values() if s in h_set and t in h_set)
        if len(layer) - len(combos) != dim:
            raise VerificationError(
                f"word evaluations in weighted degree {wd} have rank "
                f"{len(layer) - len(combos)}, expected the corner dimension {dim}")
        # keys of one layer compare in layer order, so they key the ideal
        ideal = SpanBuilder()
        for xi, x in enumerate(qh.arrows):
            if weights[x.name] > wd:
                continue
            first = (qh.vertex_index(x.source), xi)
            for source, target, k in deps[wd - weights[x.name]]:
                # x*k: x acts after k; k*x: x acts first
                if target == x.source and ideal.rank < len(combos):
                    ideal.add({key + (xi,): c for key, c in k.items()})
                if source == x.target and ideal.rank < len(combos):
                    ideal.add({first + key[1:]: c for key, c in k.items()})
        # a dependency's words share their endpoints: a word's coordinates are
        # standard paths from its source to its target, and elimination never
        # mixes two (source, target) blocks
        deps.append([])
        for combo in combos:
            dep = {layer[i][0]: c for i, c in combo.items()}
            key, target, _ = layer[next(iter(combo))]
            deps[wd].append((qh.vertices[key[0]], target, dep))
            if ideal.rank == len(combos) or not ideal.add(dict(dep)):
                continue
            check: dict = {}
            for key, c in dep.items():
                arrs = tuple(i for ai in key[1:] for i in steps[ai])
                axpy(check, c, basis._extend(starts[key[0]], arrs))
            if check:
                raise VerificationError(
                    "a found relation does not vanish in the ambient algebra")
            relations.append(AlgebraElement(qh, {
                Path(qh, qh.vertices[key[0]], tuple(arrows[ai].name for ai in key[1:])): c
                for key, c in dep.items()}))

    return CornerPresentation(qh, weights, tuple(relations), gen_paths, cutoff,
                              f"truncated-at-{cutoff}")
