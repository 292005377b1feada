import random

import pytest

from quiverlab.quivers import (
    FRAMING_ARROW,
    FRAMING_VERTEX,
    Arrow,
    DimensionVector,
    Path,
    Quiver,
    StabilityVector,
    affine_cartan_matrix,
    build_doubled_affine_dynkin,
    build_doubled_dynkin,
    delta,
    delta_k,
    evaluate_character,
    frame,
)

ADE_FINITE = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
              ("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8)]
ADE_AFFINE = [("A", 1), ("A", 2), ("A", 3), ("D", 4), ("D", 5), ("E", 6)]


def test_vertices_and_tags():
    q = build_doubled_dynkin("D", 4)
    assert q.vertices == ("1", "2", "3", "4")
    assert all(q.tag(v) == "K" for v in q.vertices)
    assert q.k_vertices == q.vertices
    assert q.i_vertices == q.vertices


def test_d4_edges_share_the_center():
    q = build_doubled_dynkin("D", 4)
    unstarred = [a for a in q.arrows if not a.name.endswith("*")]
    assert sorted((a.source, a.target) for a in unstarred) == \
        [("1", "2"), ("2", "3"), ("2", "4")]


@pytest.mark.parametrize("kind,rank", ADE_FINITE)
def test_doubling_is_an_involution(kind, rank):
    q = build_doubled_dynkin(kind, rank)
    by_name = {a.name: a for a in q.arrows}
    for a in q.arrows:
        partner = a.name[:-1] if a.name.endswith("*") else a.name + "*"
        assert partner in by_name
        assert (by_name[partner].source, by_name[partner].target) == (a.target, a.source)
    assert len(q.arrows) == 2 * (rank - 1)


@pytest.mark.parametrize("kind,rank", ADE_AFFINE)
def test_affine_has_vertex_zero_tagged_j(kind, rank):
    q = build_doubled_affine_dynkin(kind, rank)
    assert "0" in q.vertices
    assert q.tag("0") == "J"
    assert all(q.tag(v) == "K" for v in q.vertices if v != "0")


def test_affine_a1_double_edge():
    q = build_doubled_affine_dynkin("A", 1)
    assert len(q.arrows) == 4
    assert sorted(a.name for a in q.arrows) == ["a", "a*", "b", "b*"]
    assert {(a.source, a.target) for a in q.arrows} == {("0", "1"), ("1", "0")}


@pytest.mark.parametrize("kind,rank", ADE_AFFINE)
def test_delta_primitive_and_annihilated(kind, rank):
    d = delta(kind, rank)
    c = affine_cartan_matrix(kind, rank)
    names = sorted(d, key=lambda v: (v != "0", v))
    vec = [d[v] for v in names]
    g = 0
    for x in vec:
        while x:
            g, x = x, g % x
    assert g == 1
    for row in c:
        assert sum(a * b for a, b in zip(row, vec)) == 0
    dk = delta_k(kind, rank)
    assert set(dk) == set(d) - {"0"}
    assert all(dk[v] == d[v] for v in dk)


def test_delta_k_of_d4_is_the_highest_root():
    assert dict(delta_k("D", 4)) == {"1": 1, "2": 2, "3": 1, "4": 1}


def test_framing_adds_one_vertex_and_one_arrow():
    base = build_doubled_affine_dynkin("A", 1)
    q = frame(base, "0")
    assert q.vertices == base.vertices + (FRAMING_VERTEX,)
    assert q.tag(FRAMING_VERTEX) == "F"
    iota = q.arrow(FRAMING_ARROW)
    assert (iota.source, iota.target) == (FRAMING_VERTEX, "0")
    assert q.arrows[-1].name == FRAMING_ARROW
    assert q.h_vertices == ("0", FRAMING_VERTEX)


def test_paths_compose_in_application_order():
    q = build_doubled_dynkin("A", 3)
    p = Path(q, "1", ("a",))        # 1 -> 2
    r = Path(q, "2", ("b",))        # 2 -> 3
    pr = r * p                      # p acts first
    assert (pr.source, pr.target, pr.length) == ("1", "3", 2)
    assert pr.text() == "b.a"
    with pytest.raises(ValueError):
        p * r


def test_extend_equals_the_validated_path():
    rng = random.Random(12)
    q = build_doubled_affine_dynkin("D", 4)
    for _ in range(30):
        p = Path.idempotent(q, rng.choice(q.vertices))
        for _ in range(6):
            a = rng.choice(q.arrows_from(p.target))
            got = p.extend(a)
            want = Path(q, p.base, p.arrows + (a.name,))
            assert got == want and hash(got) == hash(want)
            assert (got.target, got.key, got.text()) == (want.target, want.key, want.text())
            p = got


def test_extend_still_rejects_a_wrong_arrow():
    q = build_doubled_affine_dynkin("D", 4)
    p = Path(q, "0", ("a",))        # 0 -> 2
    with pytest.raises(ValueError, match="does not start"):
        p.extend(q.arrow("a"))      # starts at 0
    with pytest.raises(ValueError, match="unknown arrow"):
        p.extend(Arrow("z", "2", "2"))
    # the name decides, as in Path(...): a foreign "a" starting at 2 is not q's "a"
    with pytest.raises(ValueError, match="does not start"):
        p.extend(Arrow("a", "2", "0"))


def test_path_composition_associative_random():
    rng = random.Random(11)
    q = build_doubled_affine_dynkin("D", 4)
    for _ in range(50):
        walk = [rng.choice(q.vertices)]
        arrows = []
        for _ in range(6):
            outs = q.arrows_from(walk[-1])
            a = rng.choice(outs)
            arrows.append(a.name)
            walk.append(a.target)
        p1 = Path(q, walk[0], tuple(arrows[:2]))
        p2 = Path(q, walk[2], tuple(arrows[2:4]))
        p3 = Path(q, walk[4], tuple(arrows[4:]))
        assert (p3 * p2) * p1 == p3 * (p2 * p1)
        assert (p3 * p2 * p1).length == 6
        e = Path.idempotent(q, p1.source)
        assert p1 * e == p1
        assert Path.idempotent(q, p1.target) * p1 == p1


def test_idempotent_text_and_key():
    q = build_doubled_dynkin("A", 2)
    e = Path.idempotent(q, "2")
    assert e.length == 0
    assert e.text() == "e_2"


def test_dimension_vector_arithmetic():
    a = DimensionVector({"1": 1, "2": 2})
    b = DimensionVector({"1": 0, "2": 3})
    assert (a + b)["2"] == 5
    assert a.total() == 3
    assert (a + b).dominates(a)
    assert not a.dominates(a + b)
    with pytest.raises(ValueError):
        DimensionVector({"1": -1})
    with pytest.raises(ValueError):
        a + DimensionVector({"1": 1})


def test_stability_and_character():
    from fractions import Fraction
    zeta = StabilityVector({"0": -2, "1": 1})
    dets = {"0": Fraction(3), "1": Fraction(5)}
    assert evaluate_character(zeta, dets) == Fraction(5) / Fraction(9)


def test_unknown_builders_rejected():
    with pytest.raises(ValueError):
        build_doubled_dynkin("B", 2)
    with pytest.raises(ValueError):
        build_doubled_dynkin("E", 9)
    with pytest.raises(ValueError):
        build_doubled_affine_dynkin("A", 0)


def test_quiver_rejects_duplicate_names():
    with pytest.raises(ValueError):
        Quiver(("1", "1"), (), {"1": "K"})
