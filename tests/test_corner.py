"""Corner subalgebras: generators, bimodule columns, presentations."""

import random
from fractions import Fraction

import pytest

from quiverlab.algebra import (AlgebraElement, GradedBasis, RelationSet,
                               framed_affine_preprojective, graded_basis,
                               preprojective_relations)
from quiverlab.corner import (
    VerificationError,
    _retain,
    bimodule_generators,
    corner_generators,
    corner_presentation,
    sufficient_dimension_bound,
)
from quiverlab.linalg import SpanBuilder, _kernel_combos
from quiverlab.quivers import Arrow, DimensionVector, Path, Quiver, build_doubled_dynkin

from conftest import random_quotient
from oracles import (kleinian_z2_dims, reference_bimodule_generators,
                     reference_corner_generators, reference_corner_presentation)


def ambient_word(pres, path):
    """Evaluate a presentation-quiver path back in the big algebra."""
    big = next(iter(pres.generator_paths.values())).quiver
    elem = AlgebraElement.idempotent(big, path.base)
    for name in path.arrows:
        elem = AlgebraElement.from_path(pres.generator_paths[name]) * elem
    return elem


def test_corner_generators_framed_a1(framed_a1, framed_a1_corner):
    _, _, basis = framed_a1
    corner, _, _ = framed_a1_corner
    assert corner.k_top_degree == 0
    assert corner.degree_bound == 2
    assert corner.verified_to == 8
    got = [(g.name, g.path.text(), g.degree, g.source, g.target) for g in corner.generators]
    assert got == [
        ("ι", "ι", 1, "∞", "0"),
        ("g1", "a*.a", 2, "0", "0"),
        ("g2", "b*.a", 2, "0", "0"),
        ("g3", "a*.b", 2, "0", "0"),
    ]
    for g in corner.generators:
        assert g.degree <= corner.degree_bound
        assert g.path in basis.basis(g.degree)


def test_corner_generators_framed_d4(framed_d4_corner):
    corner, _, _ = framed_d4_corner
    assert corner.k_top_degree == 4
    assert corner.degree_bound == 6
    assert [(g.name, g.degree) for g in corner.generators] == [
        ("ι", 1), ("g1", 4), ("g2", 4), ("g3", 6)]
    assert all(g.source == g.target == "0" for g in corner.generators[1:])


def test_corner_needs_h_vertices():
    q = build_doubled_dynkin("A", 2)
    gb = graded_basis(q, preprojective_relations(q), 4)
    with pytest.raises(ValueError):
        corner_generators(gb)


def test_corner_rejects_infinite_interior():
    q = Quiver(["h", "k"], [Arrow("l", "k", "k"), Arrow("j", "h", "k")], {"h": "J"})
    gb = graded_basis(q, RelationSet(q, []), 8)
    with pytest.raises(VerificationError, match="still nonzero at degree 8"):
        corner_generators(gb)


def test_interior_top_degree_bounds_the_cutoff(framed_d4):
    # the framed D4 interior has top degree 4, so its corner is generated in
    # degrees <= 6: a cutoff that misses the top or the bound is refused
    q, rels, _ = framed_d4
    with pytest.raises(VerificationError, match="still nonzero at degree 4; "
                                                "a larger cutoff may be needed"):
        corner_generators(graded_basis(q, rels, 4))
    with pytest.raises(ValueError, match="cutoff 5 is below the generation bound 6"):
        corner_generators(graded_basis(q, rels, 5))
    assert corner_generators(graded_basis(q, rels, 6)).k_top_degree == 4


def test_corner_cutoff_guards(framed_a1):
    q, rels, basis = framed_a1
    with pytest.raises(ValueError):
        corner_generators(basis, verify_cutoff=basis.cutoff + 1)
    with pytest.raises(ValueError, match="verify_cutoff -1 is outside"):
        corner_generators(basis, verify_cutoff=-1)
    shallow = graded_basis(q, rels, 1)
    with pytest.raises(ValueError):
        corner_generators(shallow)


def test_e0_corner_dimensions_match_invariant_counts(framed_a1):
    # loops at the affine vertex realize the polynomial invariants of the
    # sign action on the plane, degreewise
    _, _, basis = framed_a1
    dims = [sum(1 for p in basis.basis(d) if p.source == p.target == "0")
            for d in range(11)]
    assert dims == kleinian_z2_dims(10)
    assert dims == [1, 0, 3, 0, 5, 0, 7, 0, 9, 0, 11]


def test_bimodule_generators_framed_a1(framed_a1_corner):
    corner, bimod, _ = framed_a1_corner
    assert bimod.corner is corner
    got = [(g.name, g.path.text(), g.degree, g.source, g.target) for g in bimod.generators]
    assert got == [
        ("e_0", "e_0", 0, "0", "0"),
        ("e_∞", "e_∞", 0, "∞", "∞"),
        ("a", "a", 1, "0", "1"),
        ("b", "b", 1, "0", "1"),
    ]
    assert all(g.degree <= corner.k_top_degree + 1 for g in bimod.generators)


def test_bimodule_generators_framed_d4(framed_d4_corner):
    corner, bimod, _ = framed_d4_corner
    assert len(bimod.generators) == 12
    degrees = [g.degree for g in bimod.generators]
    assert degrees == [0, 0, 1, 2, 2, 2, 3, 3, 4, 4, 4, 5]
    assert max(degrees) == corner.k_top_degree + 1
    assert all(g.source in ("0", "∞") for g in bimod.generators)


def test_bimodule_cutoff_guard(framed_a1_corner):
    corner, _, _ = framed_a1_corner
    with pytest.raises(ValueError):
        bimodule_generators(corner, verify_cutoff=corner.verified_to + 1)
    with pytest.raises(ValueError, match="verify_cutoff -3 is outside"):
        bimodule_generators(corner, verify_cutoff=-3)


@pytest.mark.parametrize("kind, rank, cutoff", [
    ("A", 1, 14), ("A", 2, 12), ("A", 3, 12), ("D", 4, 14), ("D", 5, 14), ("E", 6, 20)])
def test_generators_match_the_reference_searches(kind, rank, cutoff):
    """One shared search gives the generators of both earlier loops."""
    q, rels = framed_affine_preprojective(kind, rank)
    basis = graded_basis(q, rels, cutoff)
    for verify in (cutoff, cutoff - 3):
        corner = corner_generators(basis, verify_cutoff=verify)
        ref = reference_corner_generators(basis, verify_cutoff=verify)
        assert corner == ref
        assert (bimodule_generators(corner, verify - 1)
                == reference_bimodule_generators(ref, verify - 1))


def _search(search, *args):
    try:
        return search(*args)
    except (ValueError, VerificationError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(30))
def test_generators_match_the_reference_searches_on_random_quotients(seed):
    rng = random.Random(seed)
    q, rels = random_quotient(rng)
    tagged = Quiver(q.vertices, q.arrows, {v: rng.choice("FJK") for v in q.vertices})
    basis = graded_basis(tagged, rels.on_quiver(tagged), 5)
    corner = _search(corner_generators, basis)
    ref = _search(reference_corner_generators, basis, None, basis.cutoff)
    assert corner == ref
    if not isinstance(corner, tuple):
        assert (_search(bimodule_generators, corner)
                == _search(reference_bimodule_generators, ref))


def test_searches_ask_the_span_once_per_row(framed_a1, monkeypatch):
    # add's answer is the membership test, so no row is eliminated twice
    _, _, basis = framed_a1
    ref = reference_corner_generators(basis, verify_cutoff=8)
    ref_bimod = reference_bimodule_generators(ref, verify_cutoff=8)
    ref_pres = reference_corner_presentation(ref, cutoff=8)

    def refuse(self, row):
        raise AssertionError("contains called")

    monkeypatch.setattr(SpanBuilder, "contains", refuse)
    corner = corner_generators(basis, verify_cutoff=8)
    assert corner == ref
    assert bimodule_generators(corner, verify_cutoff=8) == ref_bimod
    assert_same_presentation(corner_presentation(corner, cutoff=8), ref_pres)


def test_search_refuses_a_short_span(framed_a1):
    _, _, basis = framed_a1
    h = frozenset(basis.quiver.h_vertices)
    with pytest.raises(VerificationError,
                       match="corner generators span only 0 of 1 dimensions in degree 1"):
        _retain(basis, [], range(1, 3), 0, h, h, "g", "corner")


def test_finite_basis_search_stops_at_its_first_empty_degree(monkeypatch):
    q = build_doubled_dynkin("A", 2)
    tagged = Quiver(q.vertices, q.arrows, {"1": "J", "2": "K"})
    basis = graded_basis(tagged, preprojective_relations(q).on_quiver(tagged), 10_000)
    assert basis.finite_dimensional and basis.top_degree == 1
    degrees = []
    real = GradedBasis._table

    def counting(self, d):
        degrees.append(d)
        return real(self, d)

    monkeypatch.setattr(GradedBasis, "_table", counting)
    corner = corner_generators(basis)
    bimod = bimodule_generators(corner)
    # both searches read degrees up to the first empty one and no further
    assert max(degrees) == basis.top_degree + 1
    monkeypatch.undo()
    assert corner.verified_to == bimod.verified_to == 10_000
    short = graded_basis(tagged, preprojective_relations(q).on_quiver(tagged), 40)
    ref = reference_corner_generators(short, None, short.cutoff)
    assert corner.generators == ref.generators
    assert bimod.generators == reference_bimodule_generators(ref).generators


def test_sufficient_dimension_bound(framed_a1_corner):
    _, bimod, _ = framed_a1_corner
    v_h = DimensionVector({"∞": 1, "0": 2})
    bound = sufficient_dimension_bound(bimod, v_h)
    assert dict(bound) == {"∞": 1, "0": 2, "1": 12}
    with pytest.raises(ValueError):
        sufficient_dimension_bound(bimod, DimensionVector({"∞": 1}))


def test_presentation_framed_a1(framed_a1_corner):
    _, _, pres = framed_a1_corner
    assert [(a.name, a.source, a.target) for a in pres.quiver.arrows] == [
        ("ι", "∞", "0"), ("g1", "0", "0"), ("g2", "0", "0"), ("g3", "0", "0")]
    assert pres.weights == {"ι": 1, "g1": 2, "g2": 2, "g3": 2}
    assert pres.completeness == "truncated-at-8"
    assert [r.text() for r in pres.relations] == [
        "-g2.g1 + g1.g2",
        "g1.g1 + g3.g2",
        "-g3.g1 + g1.g3",
        "g1.g1 + g2.g3",
    ]
    for r in pres.relations:
        assert r.is_homogeneous(weights=pres.weights)
        assert all("ι" not in p.arrows for p in r.terms)


def test_presentation_builds_a_path_only_per_relation_term(monkeypatch):
    """Words are walked as keys: the only Paths built are the terms of the
    relations handed out (the 4,382 words at cutoff 14 build none)."""
    q, rels = framed_affine_preprojective("A", 1)
    corner = corner_generators(graded_basis(q, rels, 14))
    built = []
    real = Path.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Path, "__init__", counting)
    pres = corner_presentation(corner)
    monkeypatch.undo()
    assert len(built) == sum(len(r.terms) for r in pres.relations) == 8


def test_presentation_relations_vanish_in_ambient(framed_a1, framed_a1_corner):
    _, _, basis = framed_a1
    _, _, pres = framed_a1_corner
    for r in pres.relations:
        total = AlgebraElement.zero(basis.quiver)
        for p, c in r.terms.items():
            total = total + ambient_word(pres, p).scale(c)
        assert not basis.reduce(total)


def test_presentation_framed_d4(framed_d4_corner):
    _, _, pres = framed_d4_corner
    assert pres.weights == {"ι": 1, "g1": 4, "g2": 4, "g3": 6}
    assert pres.completeness == "truncated-at-12"
    texts = [r.text() for r in pres.relations]
    assert texts[:3] == ["-g2.g1 + g1.g2", "-g3.g1 + g1.g3", "-g3.g2 + g2.g3"]
    assert texts[3] == "g3.g3 + g2.g1.g1 - g2.g2.g1"
    weighted = [sum(pres.weights[a] for a in next(iter(r.terms)).arrows)
                for r in pres.relations]
    assert weighted == [8, 10, 10, 12]


def test_presentation_cutoff_guard(framed_a1_corner):
    corner, _, _ = framed_a1_corner
    with pytest.raises(ValueError):
        corner_presentation(corner, cutoff=corner.verified_to + 1)
    with pytest.raises(ValueError, match="cutoff -1 is outside"):
        corner_presentation(corner, -1)


def assert_same_presentation(pres, ref):
    """Equal presentations, with each relation's terms in the same order."""
    assert pres == ref
    assert ([list(r.terms.items()) for r in pres.relations]
            == [list(r.terms.items()) for r in ref.relations])


@pytest.mark.parametrize("kind, rank, cutoff", [
    ("A", 1, 8), ("A", 1, 12), ("A", 2, 12), ("A", 3, 12), ("D", 4, 14)])
def test_presentation_matches_the_reference_loop(kind, rank, cutoff):
    """Lower-weight dependencies span the ideal the (pre, relation, post)
    loop builds, so both keep the same relations."""
    q, rels = framed_affine_preprojective(kind, rank)
    corner = corner_generators(graded_basis(q, rels, cutoff))
    assert_same_presentation(corner_presentation(corner),
                             reference_corner_presentation(corner))
    assert_same_presentation(corner_presentation(corner, cutoff - 2),
                             reference_corner_presentation(corner, cutoff - 2))


@pytest.mark.parametrize("seed", range(40))
def test_presentation_matches_the_reference_loop_on_random_quotients(seed):
    rng = random.Random(seed)
    q, rels = random_quotient(rng)
    tagged = Quiver(q.vertices, q.arrows, {v: rng.choice("FJK") for v in q.vertices})
    basis = graded_basis(tagged, rels.on_quiver(tagged), 5)
    corner = _search(corner_generators, basis)
    if isinstance(corner, tuple):   # no corner to present
        return
    pres = _search(corner_presentation, corner)
    ref = _search(reference_corner_presentation, corner)
    if isinstance(ref, tuple):
        assert pres == ref
    else:
        assert_same_presentation(pres, ref)


# finite-dimensional corners: doubled Dynkin quivers with preprojective
# relations and a nonempty corner (A3-JJJ has no interior vertex at all)
FINITE_CORNERS = {
    "A2-JK": ("A", 2, {"1": "J", "2": "K"}),
    "A3-FKJ": ("A", 3, {"1": "F", "2": "K", "3": "J"}),
    "A3-JJJ": ("A", 3, {"1": "J", "2": "J", "3": "J"}),
    "D4-JKKF": ("D", 4, {"1": "J", "2": "K", "3": "K", "4": "F"}),
    "D4-KJKK": ("D", 4, {"1": "K", "2": "J", "3": "K", "4": "K"}),
}


def _finite_corner(name, cutoff):
    kind, rank, tags = FINITE_CORNERS[name]
    q = build_doubled_dynkin(kind, rank)
    tagged = Quiver(q.vertices, q.arrows, tags)
    basis = graded_basis(tagged, preprojective_relations(q).on_quiver(tagged), cutoff)
    assert basis.finite_dimensional
    return corner_generators(basis)


@pytest.mark.parametrize("name", sorted(FINITE_CORNERS))
def test_finite_presentation_matches_the_reference_at_every_cutoff(name):
    corner = _finite_corner(name, 9)
    for cutoff in range(10):
        assert_same_presentation(corner_presentation(corner, cutoff),
                                 reference_corner_presentation(corner, cutoff))


@pytest.mark.parametrize("name, walked", [("A2-JK", 1), ("A3-JJJ", 3), ("D4-KJKK", 6)])
def test_finite_presentation_stops_past_the_top_degree_and_largest_weight(
        name, walked, monkeypatch):
    corner = _finite_corner(name, 10_000)
    layers = []
    real = _kernel_combos

    def counting(rows):
        layers.append(len(rows))
        return real(rows)

    monkeypatch.setattr("quiverlab.corner._kernel_combos", counting)
    pres = corner_presentation(corner)
    monkeypatch.undo()
    # one word layer per weight, up to the top degree plus the largest weight
    assert len(layers) == walked == (corner.basis.top_degree
                                     + max(pres.weights.values(), default=0))
    assert pres.cutoff == 10_000 and pres.completeness == "truncated-at-10000"
    ref = reference_corner_presentation(corner, walked + 4)
    assert (pres.quiver, pres.weights) == (ref.quiver, ref.weights)
    assert ([list(r.terms.items()) for r in pres.relations]
            == [list(r.terms.items()) for r in ref.relations])
