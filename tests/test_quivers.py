import copy
import importlib
import pickle
import pkgutil
import random
import time
from fractions import Fraction

import pytest

import quiverlab
from quiverlab.algebra import Cocenter, RelationSet, framed_affine_preprojective, graded_basis
from quiverlab.corner import (BimoduleGenerators, CornerGenerator, CornerGenerators,
                              CornerPresentation)
from quiverlab.errors import Record
from quiverlab.linalg import Mat
from quiverlab.polynomials import GroebnerBasis, NilpotentWitness, PolyRing
from quiverlab.quiverfile import QuiverFile
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
from quiverlab.repscheme import InvariantGenerator, RepIdeal, _cycles

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


@pytest.mark.parametrize("value", [1.5, 2.9, True, False, "2", None, float("inf")],
                         ids=repr)
def test_dimension_vector_rejects_values_that_are_not_whole_numbers(value):
    with pytest.raises(ValueError, match=r"vertex 2 is not a whole number"):
        DimensionVector({"1": 1, "2": value})


def test_dimension_vector_takes_integral_numbers_as_ints():
    dims = DimensionVector({"1": 2.0, "2": 3})
    assert dict(dims) == {"1": 2, "2": 3}
    assert all(type(v) is int for v in dims.values())


@pytest.mark.parametrize("value", [0.5, 1.5, -2.9, True, "2", None, float("inf")],
                         ids=repr)
def test_stability_vector_rejects_values_that_are_not_whole_numbers(value):
    # int() used to read 1.5 as 1, so a character exponent of 0.5 evaluated as 1
    with pytest.raises(ValueError, match=r"stability at vertex b is not a whole number"):
        StabilityVector({"a": 1, "b": value})


def test_stability_vector_takes_negative_whole_numbers():
    zeta = StabilityVector({"a": -2.0, "b": 3})
    assert dict(zeta) == {"a": -2, "b": 3}
    assert all(type(v) is int for v in zeta.values())
    assert repr(zeta) == "StabilityVector(a=-2, b=3)"
    assert zeta == StabilityVector({"b": 3, "a": -2})
    assert zeta != DimensionVector({"a": 2, "b": 3})


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


def test_many_loops_at_one_vertex_build_in_linear_time():
    # the arrow tables were grown one tuple per arrow, quadratic in the loops
    loops = [Arrow(f"a{k}", "0", "0") for k in range(40_000)]
    start = time.perf_counter()
    q = Quiver(["0"], loops)
    assert time.perf_counter() - start < 1
    assert q.arrows_from("0") == q.arrows_into("0") == tuple(loops)


# -- value records ------------------------------------------------------------

def _record_values() -> dict:
    """Field values for each record class, in ``_fields`` order, all hashable."""
    q = build_doubled_dynkin("A", 2)
    p = Path(q, "1", ("a",))
    ring = PolyRing(["x", "y"])
    x, y = ring.variable("x"), ring.variable("y")
    gen = CornerGenerator("g", p, 1, "1", "2")
    # strings stand in for a graded basis, coordinates and relations
    corner = CornerGenerators("basis", ("1",), 0, (gen,), 2)
    return {
        Arrow: ("a", "1", "2"),
        Path: (q, "1", ("a",)),
        Mat: (2, 1, ((Fraction(1),), (Fraction(2),)), Fraction(0)),
        Cocenter: ((1, 0), ((p,), ()), False),
        CornerGenerator: ("g", p, 1, "1", "2"),
        CornerGenerators: ("basis", ("1",), 0, (gen,), 2),
        BimoduleGenerators: (corner, (gen,), 2),
        # a presentation holds dicts; tuples keep this one hashable
        CornerPresentation: (q, (("a", 1),), (), (("a", p),), 4, "truncated-at-4"),
        RepIdeal: ("coords", "relations", (x, y)),
        InvariantGenerator: ("trace", p, None, None, x),
        GroebnerBasis: (ring, (x, y)),
        NilpotentWitness: (x, 2),
        QuiverFile: (q, RelationSet(q, []), [], None, {}),
    }


RECORDS = [Arrow, Path, Mat, Cocenter, CornerGenerator, CornerGenerators, BimoduleGenerators,
           CornerPresentation, RepIdeal, InvariantGenerator, GroebnerBasis, NilpotentWitness,
           QuiverFile]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_values(cls):
    values = _record_values()[cls]
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    if cls is not QuiverFile:
        assert hash(a) == hash(b)
    # changing any one compared field breaks equality
    for name in cls._fields:
        kept = getattr(b, name)
        object.__setattr__(b, name, object())
        assert a != b and b != a
        object.__setattr__(b, name, kept)
    assert a == b
    # a record of another class with the same field values is never equal
    other = type("Other" + cls.__name__, (cls,), {})(*values)
    assert a != other and other != a
    if cls is not QuiverFile:
        for name in cls._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, values))
    assert repr(a) == (f"{cls.__name__}({shown})" if cls is not Path
                       else "Path(a: 1->2)")
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a


def test_records_of_two_classes_with_the_same_values_differ():
    values = _record_values()
    plain = [cls for cls in RECORDS if cls.__init__ is Record.__init__]
    pairs = [(first, second) for first in plain for second in plain
             if first is not second and len(first._fields) == len(second._fields)]
    assert len(pairs) == 18
    for first, second in pairs:
        assert first(*values[first]) != second(*values[first])


def test_groebner_basis_compares_only_ring_and_polys():
    ring = PolyRing(["x", "y"])
    x, y = ring.variable("x"), ring.variable("y")
    a, b = GroebnerBasis(ring, (x, y)), GroebnerBasis(ring, (x, y))
    assert a.leads == (((1, 0), x), ((0, 1), y))
    for name in ("leads", "_reducers", "_by_variable"):
        object.__setattr__(b, name, ())
        assert a == b and hash(a) == hash(b)
    assert "leads" not in repr(a) and "_reducers" not in repr(a)
    with pytest.raises(AttributeError):
        a.leads = ()


def test_quiver_file_is_mutable_unhashable_and_owns_its_defaults():
    q = build_doubled_dynkin("A", 2)
    rels = RelationSet(q, [])
    first, second = QuiverFile(q, rels), QuiverFile(q, rels)
    with pytest.raises(TypeError):
        hash(first)
    first.dimensions.append(DimensionVector({"1": 1, "2": 0}))
    first.weights["a"] = 2
    assert second.dimensions == [] and second.weights == {}
    assert first != second
    first.stability = StabilityVector({"1": 1, "2": -1})
    del first.stability
    with pytest.raises(AttributeError):
        first.stability


def test_path_and_mat_still_validate():
    q = build_doubled_dynkin("A", 2)
    with pytest.raises(ValueError, match="unknown vertex"):
        Path(q, "9")
    with pytest.raises(ValueError, match="non-composable"):
        Path(q, "1", ("a", "a"))
    with pytest.raises(ValueError, match="unknown arrow"):
        Path(q, "1", ("b",))
    with pytest.raises(ValueError, match="does not match its shape"):
        Mat(2, 1, ((Fraction(1),),))
    with pytest.raises(ValueError, match="does not match its shape"):
        Mat(1, 2, ((Fraction(1),),))
    with pytest.raises(ValueError, match="negative"):
        Mat(-1, 0, ())
    with pytest.raises(TypeError):
        Arrow("a", "1")


def _quiverlab_records() -> set:
    for info in pkgutil.iter_modules(quiverlab.__path__):
        if info.name != "__main__":
            importlib.import_module(f"quiverlab.{info.name}")
    found, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("quiverlab."):
                found.add(cls)
            todo.append(cls)
    return found


def test_every_record_compares_through_record_alone_and_is_slotted():
    records = _quiverlab_records()
    assert records == set(RECORDS)
    values = _record_values()
    for cls in records:
        assert cls.__eq__ is Record.__eq__, cls
        assert cls.__hash__ is (None if cls is QuiverFile else Record.__hash__), cls
        assert not hasattr(cls(*values[cls]), "__dict__"), cls


def _walk(p: Path) -> tuple:
    """A path's target and key, read afresh off its quiver."""
    q, at = p.quiver, p.base
    for name in p.arrows:
        assert q.arrow(name).source == at
        at = q.arrow(name).target
    return at, (q.vertex_index(p.base),) + tuple(q.arrow_index(name) for name in p.arrows)


def test_path_sets_its_target_and_key_once():
    quiver, rels = framed_affine_preprojective("A", 1)
    rng = random.Random(5)
    paths = [Path(quiver, "∞", ("ι", "a", "a*")), Path.idempotent(quiver, "1")]
    for _ in range(20):
        p = Path.idempotent(quiver, rng.choice(quiver.vertices))
        for _ in range(rng.randint(1, 5)):
            outs = quiver.arrows_from(p.target)
            if outs:
                p = p.extend(rng.choice(outs))
        head = Path(quiver, p.base, p.arrows[:p.length // 2])
        paths.append(p)
        paths.append(Path(quiver, head.target, p.arrows[p.length // 2:]) * head)
        paths.append(Path.idempotent(quiver, p.target) * p)
    gb = graded_basis(quiver, rels, 6)
    paths += [p for d in range(7) for p in gb.basis(d)]
    paths += list(_cycles(quiver, frozenset(quiver.vertices), 4))
    assert len(paths) > 100
    for p in paths:
        assert not hasattr(p, "__dict__")
        assert (p.target, p.key) == _walk(p)
