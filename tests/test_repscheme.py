"""Representation scheme coordinates, invariants, pullbacks, framing surgery."""

import random
from fractions import Fraction

import pytest

from quiverlab.algebra import (RelationSet, framed_affine_preprojective,
                               preprojective_relations)
from quiverlab.errors import BudgetExceeded
from quiverlab.linalg import Mat
from quiverlab.modules import ModuleRep, element_matrix
from quiverlab.polynomials import Polynomial, buchberger
from quiverlab.quivers import (
    Arrow,
    DimensionVector,
    Path,
    Quiver,
    build_doubled_dynkin,
    delta_k,
)
from quiverlab import repscheme
from quiverlab.repscheme import (
    RepCoordinates,
    build_acircledast,
    add_pullback,
    build_astar,
    check_relations,
    coordinate_names,
    corner_comparison_map,
    direct_sum,
    entry_generator,
    invariant_generators,
    invariant_values,
    lift,
    path_matrix,
    product_split_check,
    rep_ideal,
    restrict_corner,
    trace_generator,
    variable_name,
)

from conftest import framing_loop_quiver, two_loop_quiver
from oracles import (reference_comparison_images, reference_invariant_generators,
                     reference_pullback_images, reference_substitute)


def test_variable_name():
    assert variable_name("a*", 2, 3) == "x_a*_2_3"


def test_coordinate_ring_layout():
    q = build_doubled_dynkin("A", 2)
    coords = RepCoordinates(q, DimensionVector({"1": 2, "2": 3}))
    assert coords.ring.nvars == 12
    mat = coords.matrices["a"]
    assert mat.rows == 3 and mat.cols == 2
    assert mat.entry(2, 0).text() == "x_a_3_1"
    with pytest.raises(ValueError, match=r"missing: \['2'\]"):
        RepCoordinates(q, DimensionVector({"1": 2}))
    # the generic representation is a module over its coordinate ring
    assert isinstance(coords, ModuleRep)
    assert (coords.zero, coords.one) == (coords.ring.zero(), coords.ring.one())


def test_coordinate_count_is_bounded():
    q = Quiver(["0"], [Arrow("x", "0", "0")], {"0": "K"})
    with pytest.raises(ValueError, match="exceed the limit of 4096"):
        RepCoordinates(q, DimensionVector({"0": 10 ** 20}))
    assert RepCoordinates(q, DimensionVector({"0": 64})).ring.nvars == 4096


def test_path_matrix_multiplies_along_the_path():
    q = build_doubled_dynkin("A", 2)
    coords = RepCoordinates(q, DimensionVector({"1": 2, "2": 2}))
    loop = path_matrix(coords, Path(q, "1", ("a", "a*")))
    a, astar = coords.matrices["a"], coords.matrices["a*"]
    for i in range(2):
        for j in range(2):
            expect = astar.entry(i, 0) * a.entry(0, j) + astar.entry(i, 1) * a.entry(1, j)
            assert loop.entry(i, j) == expect
    ident = path_matrix(coords, Path.idempotent(q, "1"))
    assert ident.entry(0, 0) == coords.ring.one() and ident.entry(0, 1) == coords.ring.zero()


def test_rep_ideal_a2():
    q = build_doubled_dynkin("A", 2)
    coords = RepCoordinates(q, DimensionVector({"1": 1, "2": 1}))
    ideal = rep_ideal(coords, preprojective_relations(q))
    assert [g.text() for g in ideal.generators] == [
        "-x_a_1_1*x_a*_1_1", "x_a_1_1*x_a*_1_1"]
    gb = buchberger(ideal.nonzero_generators())
    assert gb.texts() == ["x_a_1_1*x_a*_1_1"]


def test_rep_ideal_d4_trace_identity(d4_rep_ideal):
    coords, ideal = d4_rep_ideal
    # one square generator block per vertex: 1 + 4 + 1 + 1 entries
    assert len(ideal.generators) == 7
    assert all(g.degree == 2 for g in ideal.nonzero_generators())
    # the per-vertex traces sum to zero: a global linear dependence
    total = coords.ring.zero()
    for rel in ideal.relations:
        mat = element_matrix(coords, rel)
        for i in range(mat.rows):
            total = total + mat.entry(i, i)
    assert not total


@pytest.mark.parametrize("kind,rank", [("A", 3), ("D", 4)])
@pytest.mark.parametrize("seed", range(10))
def test_generic_relation_matrices_evaluate_to_the_module_ones(kind, rank, seed):
    # evaluation at a module's entries is a ring map, so the generic matrix
    # of each relation must evaluate to the module's matrix of it
    rng = random.Random(seed)
    q = build_doubled_dynkin(kind, rank)
    dims = DimensionVector({v: rng.randint(0, 2) for v in q.vertices})
    mats = {a.name: Mat(dims[a.target], dims[a.source],
                        tuple(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                    for _ in range(dims[a.source]))
                              for _ in range(dims[a.target])))
            for a in q.arrows}
    module = ModuleRep(q, dims, mats)
    env = {variable_name(name, i + 1, j + 1): m.entry(i, j)
           for name, m in mats.items() for i in range(m.rows) for j in range(m.cols)}
    coords = RepCoordinates(q, dims)
    for rel in preprojective_relations(q):
        generic, want = element_matrix(coords, rel), element_matrix(module, rel)
        assert (generic.rows, generic.cols) == (want.rows, want.cols)
        assert all(generic.entry(i, j).evaluate(env) == want.entry(i, j)
                   for i in range(want.rows) for j in range(want.cols))


def test_matrices_through_a_zero_dimensional_vertex():
    q = build_doubled_dynkin("A", 3)
    coords = RepCoordinates(q, DimensionVector({"1": 1, "2": 0, "3": 2}))
    # one entry per relation entry, zero ones included: 1 + 0 + 4
    assert len(rep_ideal(coords, preprojective_relations(q)).generators) == 5
    through = path_matrix(coords, Path(q, "3", ("b*", "b")))
    assert (through.rows, through.cols) == (2, 2) and through.is_zero()
    for cycle in (Path(q, "3", ("b*", "b")), Path(q, "2", ("b", "b*"))):
        total = trace_generator(coords, cycle).polynomial
        assert isinstance(total, Polynomial) and total == coords.ring.zero()


def test_rep_ideal_quiver_mismatch():
    q = build_doubled_dynkin("A", 2)
    coords = RepCoordinates(q, DimensionVector({"1": 1, "2": 1}))
    with pytest.raises(ValueError):
        rep_ideal(coords, preprojective_relations(build_doubled_dynkin("A", 3)))


def test_trace_generator_cyclic_invariance():
    q = build_doubled_dynkin("A", 2)
    coords = RepCoordinates(q, DimensionVector({"1": 2, "2": 2}))
    t1 = trace_generator(coords, Path(q, "1", ("a", "a*")))
    t2 = trace_generator(coords, Path(q, "2", ("a*", "a")))
    assert t1.polynomial == t2.polynomial
    assert t1.describe() == "tr(a*.a)"
    with pytest.raises(ValueError):
        trace_generator(coords, Path(q, "1", ("a",)))


@pytest.mark.parametrize("seed", range(3))
def test_trace_generator_conjugation_invariant(seed):
    q = build_doubled_dynkin("A", 2)
    coords = RepCoordinates(q, DimensionVector({"1": 2, "2": 2}))
    gen = trace_generator(coords, Path(q, "1", ("a", "a*", "a", "a*")))
    rng = random.Random(seed)

    def env_from(mats):
        out = {}
        for name, m in mats.items():
            for i in range(2):
                for j in range(2):
                    out[variable_name(name, i + 1, j + 1)] = m.entry(i, j)
        return out

    mats = {name: Mat.from_rows([[rng.randint(-3, 3) for _ in range(2)]
                                 for _ in range(2)])
            for name in ("a", "a*")}
    g1 = Mat.from_rows([[1, rng.randint(-2, 2)], [0, 1]])
    g2 = Mat.from_rows([[1, 0], [rng.randint(-2, 2), 1]])
    # conjugate by the vertexwise change of basis (g1 at 1, g2 at 2)
    moved = {"a": g2 * mats["a"] * g1.inverse(),
             "a*": g1 * mats["a*"] * g2.inverse()}
    assert gen.polynomial.evaluate(env_from(mats)) == gen.polynomial.evaluate(env_from(moved))


def test_entry_generator_literal():
    q = Quiver(["∞", "0"], [Arrow("ι", "∞", "0"), Arrow("π", "0", "∞")],
               {"∞": "F", "0": "J"})
    coords = RepCoordinates(q, DimensionVector({"∞": 1, "0": 2}))
    back = entry_generator(coords, Path(q, "∞", ("ι", "π")), 1, 1)
    assert back.polynomial.text() == "x_ι_1_1*x_π_1_1 + x_ι_2_1*x_π_1_2"
    assert back.describe() == "π.ι[1,1]"


def test_invariant_generators_a2():
    q = build_doubled_dynkin("A", 2)
    coords = RepCoordinates(q, DimensionVector({"1": 1, "2": 1}))
    gens = invariant_generators(coords)
    assert [g.describe() for g in gens] == ["tr(a*.a)", "tr(a*.a.a*.a)"]
    # the default bounds are the square of the gauged total and two more
    explicit = invariant_generators(coords, cycle_bound=4, path_bound=6)
    assert [g.polynomial for g in gens] == [g.polynomial for g in explicit]


def test_invariant_generators_framing_entries():
    q = Quiver(["∞", "0"], [Arrow("ι", "∞", "0"), Arrow("π", "0", "∞")],
               {"∞": "F", "0": "K"})
    coords = RepCoordinates(q, DimensionVector({"∞": 1, "0": 1}))
    gens = invariant_generators(coords, cycle_bound=2, path_bound=2)
    entries = {g.describe() for g in gens if g.kind == "entry"}
    assert "π.ι[1,1]" in entries
    # cycles through the framing vertex are not gauged, so no traces here
    assert not any(g.kind == "trace" for g in gens)


# (quiver, dims, cycle bound, path bound); zero-dimensional vertices included
INVARIANT_CASES = {
    "A2": (lambda: build_doubled_dynkin("A", 2), {"1": 1, "2": 2}, 6, 0),
    "A3-zero": (lambda: build_doubled_dynkin("A", 3), {"1": 2, "2": 1, "3": 0}, 6, 2),
    "D4": (lambda: build_doubled_dynkin("D", 4), {"1": 1, "2": 2, "3": 1, "4": 1}, 6, 0),
    "D4-zero": (lambda: build_doubled_dynkin("D", 4), {"1": 1, "2": 1, "3": 0, "4": 2}, 6, 1),
    "framed-A1": (lambda: framed_affine_preprojective("A", 1)[0],
                  {"∞": 1, "0": 1, "1": 2}, 4, 3),
    "framed-A1-zero": (lambda: framed_affine_preprojective("A", 1)[0],
                       {"∞": 1, "0": 0, "1": 2}, 4, 2),
    "framed-D4": (lambda: framed_affine_preprojective("D", 4)[0],
                  {"∞": 1, "0": 1, "1": 1, "2": 2, "3": 1, "4": 0}, 4, 2),
    "framing-loop": (framing_loop_quiver, {"∞": 2, "0": 2}, 3, 4),
    "two-loops": (two_loop_quiver, {"0": 2}, 6, 0),
}


@pytest.mark.parametrize("case", sorted(INVARIANT_CASES))
def test_invariant_generators_match_the_reference_loop(case):
    build, dims, cycle_bound, path_bound = INVARIANT_CASES[case]
    coords = RepCoordinates(build(), DimensionVector(dims))
    gens = invariant_generators(coords, cycle_bound=cycle_bound, path_bound=path_bound)
    want = reference_invariant_generators(coords, cycle_bound, path_bound)
    assert [(g.kind, g.path, g.row, g.col, g.polynomial) for g in gens] == want
    assert gens
    # reading the values back from the generic matrices gives the polynomials
    assert invariant_values(coords, gens) == [g.polynomial for g in gens]


@pytest.mark.parametrize("case", sorted(INVARIANT_CASES))
def test_coordinate_names_are_the_ring_variables(case):
    build, dims, _, _ = INVARIANT_CASES[case]
    q = build()
    assert coordinate_names(q, dims) == RepCoordinates(q, DimensionVector(dims)).ring.variables


def test_framing_entries_reach_positive_lengths():
    build, dims, cycle_bound, path_bound = INVARIANT_CASES["framing-loop"]
    coords = RepCoordinates(build(), DimensionVector(dims))
    gens = invariant_generators(coords, cycle_bound=cycle_bound, path_bound=path_bound)
    lengths = {g.path.length for g in gens if g.kind == "entry"}
    assert lengths == {0, 2, 3, 4}


def test_invariant_cycle_budget(monkeypatch):
    q = build_doubled_dynkin("D", 4)
    coords = RepCoordinates(q, delta_k("D", 4))
    monkeypatch.setattr(repscheme, "_MAX_CYCLES", 40)
    # the default bound is (1 + 2 + 1 + 1)^2 = 25, far past any small budget
    with pytest.raises(BudgetExceeded, match=r"reached 41 cycles.*budget of 40"
                                             r".*default cycle bound 25"):
        invariant_generators(coords)
    # at the default bound 2^2 = 4, two loops give 2 + 3 + 4 + 6 cycles
    small = RepCoordinates(two_loop_quiver(), DimensionVector({"0": 2}))
    n = len(list(repscheme._cycles(small.quiver, frozenset({"0"}), 4)))
    assert n == 15
    monkeypatch.setattr(repscheme, "_MAX_CYCLES", n)
    assert invariant_generators(small) == invariant_generators(small, cycle_bound=4)
    monkeypatch.setattr(repscheme, "_MAX_CYCLES", n - 1)
    with pytest.raises(BudgetExceeded, match=f"reached {n} cycles"):
        invariant_generators(small)


def test_explicit_cycle_bound_ignores_the_budget(monkeypatch):
    small = RepCoordinates(two_loop_quiver(), DimensionVector({"0": 2}))
    unbudgeted = invariant_generators(small, cycle_bound=4)
    monkeypatch.setattr(repscheme, "_MAX_CYCLES", 1)
    assert len(unbudgeted) > 1
    assert invariant_generators(small, cycle_bound=4) == unbudgeted


def test_cycle_bound_zero_gives_no_traces():
    small = RepCoordinates(two_loop_quiver(), DimensionVector({"0": 2}))
    assert list(repscheme._cycles(small.quiver, frozenset({"0"}), 0)) == []
    assert [g for g in invariant_generators(small, cycle_bound=0, path_bound=0)
            if g.kind == "trace"] == []
    # bound 1 still gives the loops
    assert [g.describe() for g in invariant_generators(small, cycle_bound=1)
            if g.kind == "trace"] == ["tr(x)", "tr(y)"]


@pytest.mark.parametrize("bounds", [{"cycle_bound": -1}, {"cycle_bound": -3, "path_bound": 2},
                                    {"cycle_bound": 2, "path_bound": -1}, {"path_bound": -2}])
def test_negative_invariant_bounds_are_rejected(bounds):
    small = RepCoordinates(two_loop_quiver(), DimensionVector({"0": 2}))
    name = next(k for k, v in bounds.items() if v < 0)
    with pytest.raises(ValueError, match=f"{name} must be nonnegative"):
        invariant_generators(small, **bounds)


def test_product_split_check():
    from quiverlab.polynomials import PolyRing
    R = PolyRing(["x", "y", "z"])
    gens = [R.parse("x*y - z^2")]
    assert product_split_check(gens, ["w_unused"])
    assert not product_split_check(gens, ["x"])
    assert product_split_check([], ["x"])


# -- pullback along adding a fixed interior module ----------------------------


def test_add_pullback_images():
    q = build_doubled_dynkin("A", 2)
    coords = RepCoordinates(q, DimensionVector({"1": 1, "2": 1}))
    big, hom = add_pullback(coords, {"2": 1}, {}, rels=preprojective_relations(q))
    assert dict(big.dims) == {"1": 1, "2": 2}
    ring = big.ring
    assert hom(ring.variable("x_a_1_1")).text() == "x_a_1_1"
    assert not hom(ring.variable("x_a_2_1"))            # cross block
    assert not hom(ring.variable("x_a*_1_2"))           # cross block
    # generic-block trace pulls back to the small trace
    t_big = trace_generator(big, Path(q, "1", ("a", "a*"))).polynomial
    t_small = trace_generator(coords, Path(q, "1", ("a", "a*"))).polynomial
    assert hom(t_big) == t_small
    # degree-zero cycle picks up the fixed block's dimension
    e2_big = trace_generator(big, Path.idempotent(q, "2")).polynomial
    assert hom(e2_big) == coords.ring.constant(2)


def test_add_pullback_fixed_block_contributes():
    q = build_doubled_dynkin("A", 2)
    coords = RepCoordinates(q, DimensionVector({"1": 1, "2": 1}))
    fixed = {"a": Mat.from_rows([[2]]), "a*": Mat.from_rows([[0]])}
    big, hom = add_pullback(coords, {"1": 1, "2": 1}, fixed)
    t_big = trace_generator(big, Path(q, "1", ("a", "a*"))).polynomial
    t_small = trace_generator(coords, Path(q, "1", ("a", "a*"))).polynomial
    # fixed block is 2 * 0 so only the generic corner survives
    assert hom(t_big) == t_small
    entry = big.ring.variable("x_a_2_2")
    assert hom(entry) == coords.ring.constant(2)


def test_add_pullback_guards():
    q, rels = framed_affine_preprojective("A", 1)
    coords = RepCoordinates(q, DimensionVector({"∞": 1, "0": 1, "1": 1}))
    with pytest.raises(ValueError):
        add_pullback(coords, {"0": 1}, {})        # J vertex
    with pytest.raises(ValueError):
        add_pullback(coords, {"1": 1}, {"a": Mat.zero(2, 2)})
    # a and a* run between 0 and 1, so 1x1 blocks fail the shape guard first
    bad = {"a": Mat.from_rows([[1]]), "a*": Mat.from_rows([[1]]),
           "b": Mat.from_rows([[0]]), "b*": Mat.from_rows([[0]])}
    with pytest.raises(ValueError, match="wrong shape"):
        add_pullback(coords, {"1": 1}, bad, rels=rels)
    # the relations a a* (at 2) and a* a (at 1) cannot vanish when a = a* = 1
    q2 = build_doubled_dynkin("A", 2)
    coords2 = RepCoordinates(q2, DimensionVector({"1": 1, "2": 1}))
    one = Mat.from_rows([[1]])
    with pytest.raises(ValueError, match="do not satisfy the relations"):
        add_pullback(coords2, {"1": 1, "2": 1}, {"a": one, "a*": one},
                     rels=preprojective_relations(q2))
    # a matrix for an arrow the quiver lacks is refused, not dropped
    with pytest.raises(ValueError, match="'zz'"):
        add_pullback(coords2, {"2": 1}, {"zz": Mat.from_rows([[5]])})


@pytest.mark.parametrize("vk_dims, message", [
    ({"1": 1.5}, "not a whole number"),
    ({"1": True}, "not a whole number"),
    ({"1": -1}, "negative dimension"),
    ({"9": 1}, "unknown vertices"),
])
def test_add_pullback_reads_vk_dims_as_a_dimension_vector(vk_dims, message):
    q = build_doubled_dynkin("A", 2)
    coords = RepCoordinates(q, DimensionVector({"1": 1, "2": 1}))
    with pytest.raises(ValueError, match=message):
        add_pullback(coords, vk_dims, {})


def _assert_ring_map(hom, source, target, table, polys):
    """hom agrees with substituting ``table``, dict order included, and with
    the reference loop, on every source variable and on each of ``polys``."""
    assert list(table) == list(source.variables)
    for f in [source.variable(x) for x in source.variables] + polys:
        got, want = hom(f), f.substitute(target, table)
        assert got == want and list(got.terms.items()) == list(want.terms.items())
        assert got.terms == reference_substitute(f, target, table)


def _seeded_invariants(coords, rng, cycle_bound, path_bound):
    """Invariant polynomials of coords, and a few seeded products of pairs."""
    polys = [g.polynomial for g in invariant_generators(coords, cycle_bound=cycle_bound,
                                                        path_bound=path_bound)]
    return polys + [rng.choice(polys) * rng.choice(polys) for _ in range(4)]


@pytest.mark.parametrize("case", sorted(INVARIANT_CASES))
def test_add_pullback_matches_the_reference_images(case):
    build, dims, _, _ = INVARIANT_CASES[case]
    q = build()
    coords = RepCoordinates(q, DimensionVector(dims))
    rng = random.Random(case)
    # a seeded fixed module on the K vertices, zero-dimensional ones included
    vk = {v: rng.randint(0, 2) for v in q.vertices if q.tag(v) == "K"}
    shape = {a.name: (vk.get(a.target, 0), vk.get(a.source, 0)) for a in q.arrows}
    mats = {name: Mat(r, c, tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(c))
                                  for _ in range(r)))
            for name, (r, c) in shape.items()}
    big, hom = add_pullback(coords, vk, mats)
    table = reference_pullback_images(coords, big.dims, mats)
    _assert_ring_map(hom, big.ring, coords.ring, table,
                     _seeded_invariants(big, rng, cycle_bound=3, path_bound=2))


def test_ring_map_needs_one_image_entry_per_variable():
    q = build_doubled_dynkin("A", 2)
    source = RepCoordinates(q, DimensionVector({"1": 1, "2": 1}))
    for dims in ({"1": 2, "2": 1}, {"1": 1, "2": 0}):   # four entries, then none
        image = RepCoordinates(q, DimensionVector(dims))
        with pytest.raises(ValueError, match="argument 2 is (longer|shorter) than argument 1"):
            repscheme._ring_map(source, image.ring, image, "image")


def test_add_pullback_wrong_ring_rejected():
    q = build_doubled_dynkin("A", 2)
    coords = RepCoordinates(q, DimensionVector({"1": 1, "2": 1}))
    big, hom = add_pullback(coords, {"2": 1}, {})
    with pytest.raises(ValueError):
        hom(coords.ring.variable("x_a_1_1"))


# -- corner comparison --------------------------------------------------------


def test_corner_comparison_map(framed_a1, framed_a1_corner):
    quiver, rels, basis = framed_a1
    _, _, pres = framed_a1_corner
    coords = RepCoordinates(quiver, DimensionVector({"∞": 1, "0": 1, "1": 1}))
    small, hom = corner_comparison_map(pres, coords)
    assert small.quiver is pres.quiver
    assert dict(small.dims) == {"∞": 1, "0": 1}
    assert hom(small.ring.variable("x_g1_1_1")).text() == "x_a_1_1*x_a*_1_1"
    assert hom(small.ring.variable("x_ι_1_1")).text() == "x_ι_1_1"
    # presentation relations land inside the ambient rep ideal
    gb = buchberger(rep_ideal(coords, rels).nonzero_generators())
    for r in pres.relations:
        mat = element_matrix(small, r)
        for row in mat.data:
            for f in row:
                assert not gb.normal_form(hom(f))
    with pytest.raises(ValueError):
        hom(coords.ring.variable("x_a_1_1"))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_presentation_residuals_on_the_restricted_generic_module(framed_a1, framed_a1_corner, k):
    # the restricted generic module has polynomial entries, so its relation
    # residuals are the comparison images of the small scheme's ideal
    quiver, rels, _ = framed_a1
    _, _, pres = framed_a1_corner
    coords = RepCoordinates(quiver, DimensionVector({"∞": 1, "0": 1, "1": k}))
    small, hom = corner_comparison_map(pres, coords)
    _, residuals = check_relations(restrict_corner(coords, pres), pres.relations)
    entries = [f for r in residuals for row in r.data for f in row]
    small_ideal = rep_ideal(small, RelationSet(pres.quiver, pres.relations))
    assert entries == [hom(g) for g in small_ideal.generators]
    gb = buchberger(rep_ideal(coords, rels).nonzero_generators())
    assert not any(gb.normal_form(f) for f in entries)


def test_relations_on_the_generic_module_plus_a_lifted_one():
    q = build_doubled_dynkin("A", 2)
    rels = preprojective_relations(q)
    coords = RepCoordinates(q, DimensionVector({"1": 1, "2": 1}))
    vk = ModuleRep(q, {"1": 0, "2": 1}, {"a": Mat.zero(1, 0), "a*": Mat.zero(0, 1)})
    lifted = lift(vk, coords.ring)
    assert lifted.zero == coords.ring.zero() and lifted.one == coords.ring.one()
    ok, residuals = check_relations(direct_sum(coords, lifted), rels)
    assert not ok
    generic = check_relations(coords, rels)[1]
    for big, small in zip(residuals, generic, strict=True):
        n = small.rows
        assert [row[:small.cols] for row in big.data[:n]] == list(small.data)
        assert all(not f for row in big.data[n:] for f in row)
        assert all(not f for row in big.data[:n] for f in row[small.cols:])


def test_module_matrices_share_one_entry_ring():
    q = build_doubled_dynkin("A", 2)
    ring = RepCoordinates(q, DimensionVector({"1": 1, "2": 1})).ring
    poly = Mat(1, 1, ((ring.variable("x_a_1_1"),),), ring.zero())
    with pytest.raises(ValueError, match="different entry rings"):
        ModuleRep(q, {"1": 1, "2": 1}, {"a": poly, "a*": Mat.from_rows([[1]])})
    arrowless = ModuleRep(Quiver(["0"], []), {"0": 2}, {})
    assert (arrowless.zero, arrowless.one) == (Fraction(0), Fraction(1))


@pytest.mark.parametrize("fixture, dims", [
    ("a1", {"∞": 1, "0": 1, "1": 1}),
    ("a1", {"∞": 1, "0": 2, "1": 1}),
    ("a1", {"∞": 1, "0": 0, "1": 2}),
    ("d4", {"∞": 1, "0": 1, "1": 1, "2": 2, "3": 1, "4": 1}),
    ("d4", {"∞": 1, "0": 1, "1": 1, "2": 2, "3": 1, "4": 0}),
])
def test_corner_comparison_map_matches_the_reference_images(request, fixture, dims):
    quiver = request.getfixturevalue(f"framed_{fixture}")[0]
    pres = request.getfixturevalue(f"framed_{fixture}_corner")[2]
    coords = RepCoordinates(quiver, DimensionVector(dims))
    small, hom = corner_comparison_map(pres, coords)
    table = reference_comparison_images(pres, coords, small.dims)
    rng = random.Random(f"{fixture}{sorted(dims.items())}")
    _assert_ring_map(hom, small.ring, coords.ring, table,
                     _seeded_invariants(small, rng, cycle_bound=3, path_bound=2))


# -- framing surgery ----------------------------------------------------------


def test_astar_adds_degree_one_relations():
    q, rels = framed_affine_preprojective("A", 1)
    out = build_astar(q, rels)
    assert [r.text() for r in out] == ["-a*.a - b*.b", "a.a* + b.b*", "a*", "b*"]
    q4, rels4 = framed_affine_preprojective("D", 4)
    out4 = build_astar(q4, rels4)
    assert [r.text() for r in out4][len(rels4):] == ["a*"]


def test_astar_requires_framed_affine_shape():
    q = build_doubled_dynkin("A", 2)
    with pytest.raises(ValueError):
        build_astar(q, preprojective_relations(q))


def test_acircledast_framed_a1():
    q, rels = framed_affine_preprojective("A", 1)
    small, srels = build_acircledast(q, rels)
    assert small.vertices == ("0", "1")
    assert small.tag("0") == "F" and small.tag("1") == "K"
    assert [(a.name, a.source, a.target) for a in small.arrows] == [
        ("a", "0", "1"), ("b", "0", "1")]
    assert len(srels) == 0


def test_acircledast_framed_d4_matches_finite_d4():
    q, rels = framed_affine_preprojective("D", 4)
    small, srels = build_acircledast(q, rels)
    assert [(a.name, a.source, a.target) for a in small.arrows] == [
        ("a", "0", "2"),
        ("b", "1", "2"), ("b*", "2", "1"),
        ("c", "2", "3"), ("c*", "3", "2"),
        ("d", "2", "4"), ("d*", "4", "2"),
    ]
    finite = [r.text() for r in preprojective_relations(build_doubled_dynkin("D", 4))]
    fixed = []
    for text in (r.text() for r in srels):
        for old, new in (("b*", "A*"), ("b", "A"), ("c*", "B*"), ("c", "B"),
                         ("d*", "C*"), ("d", "C")):
            text = text.replace(old, new)
        fixed.append(text.lower())
    assert fixed == finite
