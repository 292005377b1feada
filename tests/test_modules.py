"""Explicit modules: validation, invariants, extensions, induction, JSON."""

import json
import random
from fractions import Fraction

import pytest

from quiverlab.algebra import (AlgebraElement, RelationSet, framed_affine_preprojective,
                               graded_basis, preprojective_relations)
from quiverlab.corner import bimodule_generators, corner_generators, corner_presentation
from quiverlab.errors import BudgetExceeded, VerificationError
from quiverlab.linalg import Mat
from quiverlab.modules import (
    ModuleRep,
    check_relations,
    conjugate,
    direct_sum,
    element_matrix,
    generated_by_framing,
    induce_module,
    invariant_fingerprint,
    is_nilvadent,
    module_from_json,
    module_to_json,
    path_matrix,
    random_extension,
    restrict_corner,
    zero_module,
)
from quiverlab.polynomials import Polynomial
from quiverlab.quivers import (
    Arrow,
    DimensionVector,
    Path,
    Quiver,
    build_doubled_dynkin,
)
from quiverlab.repscheme import RepCoordinates, invariant_generators, variable_name

from conftest import FIXTURES, framing_loop_quiver, two_loop_quiver
from oracles import reference_induce_module, reference_random_extension


def load_fixture_module(quiver, name):
    data = json.loads((FIXTURES / "modules" / f"{name}.json").read_text())
    return module_from_json(quiver, data)


def a2_module(a, astar):
    q = build_doubled_dynkin("A", 2)
    return q, ModuleRep(q, {"1": 1, "2": 1},
                        {"a": Mat.from_rows([[a]]), "a*": Mat.from_rows([[astar]])})


def test_module_validation():
    q = build_doubled_dynkin("A", 2)
    with pytest.raises(ValueError):
        ModuleRep(q, {"1": 1}, {})
    with pytest.raises(ValueError):
        ModuleRep(q, {"1": 1, "2": 1}, {"a": Mat.zero(1, 1)})
    with pytest.raises(ValueError):
        ModuleRep(q, {"1": 1, "2": 1},
                  {"a": Mat.zero(2, 1), "a*": Mat.zero(1, 1)})
    with pytest.raises(ValueError):
        ModuleRep(q, {"1": 1, "2": 1},
                  {"a": Mat.zero(1, 1), "a*": Mat.zero(1, 1), "zz": Mat.zero(1, 1)})


def test_zero_module_is_nilvadent():
    q = build_doubled_dynkin("A", 2)
    z = zero_module(q, {"1": 2, "2": 3})
    assert is_nilvadent(z)
    _, m = a2_module(1, 0)
    assert not is_nilvadent(m)


def test_path_and_element_matrices(framed_a1):
    quiver, rels, _ = framed_a1
    m = load_fixture_module(quiver, "framed_a1_generated_2")
    loop = path_matrix(m, Path(quiver, "0", ("a", "a*")))
    assert loop.entry(0, 0) == Fraction(-6)
    ok, residuals = check_relations(m, rels)
    assert ok and all(r.is_zero() for r in residuals)


@pytest.mark.parametrize("name,expected", [
    ("framed_a1_generated_1", True),
    ("framed_a1_generated_2", True),
    ("framed_a1_generated_3", True),
    ("framed_a1_ungenerated_1", False),
    ("framed_a1_ungenerated_2", False),
    ("framed_a1_ungenerated_3", False),
])
def test_fixture_modules_satisfy_relations_and_generation(framed_a1, name, expected):
    quiver, rels, _ = framed_a1
    m = load_fixture_module(quiver, name)
    assert check_relations(m, rels)[0]
    assert generated_by_framing(m) is expected


def test_generated_by_framing_guards():
    q = Quiver(["∞", "x", "0"],
               [Arrow("ι", "∞", "0"), Arrow("κ", "x", "0")],
               {"∞": "F", "x": "F", "0": "J"})
    m = zero_module(q, {"∞": 1, "x": 1, "0": 1})
    with pytest.raises(ValueError):
        generated_by_framing(m)
    q2, _ = framed_affine_preprojective("A", 1)
    fat = zero_module(q2, {"∞": 2, "0": 1, "1": 1})
    with pytest.raises(ValueError):
        generated_by_framing(fat)


def test_direct_sum_blocks_and_fingerprint_symmetry():
    q, m1 = a2_module(1, 0)
    _, m2 = a2_module(2, 3)
    total = direct_sum(m1, m2)
    assert dict(total.dims) == {"1": 2, "2": 2}
    assert total.matrices["a"].entry(0, 0) == 1
    assert total.matrices["a"].entry(1, 1) == 2
    assert total.matrices["a"].entry(0, 1) == 0
    gens = invariant_generators(RepCoordinates(q, total.dims), 4, 6)
    assert (invariant_fingerprint(total, gens)
            == invariant_fingerprint(direct_sum(m2, m1), gens))


FINGERPRINT_QUIVERS = {
    "two-loops": two_loop_quiver,
    "A3": lambda: build_doubled_dynkin("A", 3),
    "D4": lambda: build_doubled_dynkin("D", 4),
    "framed-A1": lambda: framed_affine_preprojective("A", 1)[0],
    "framing-loop": framing_loop_quiver,
}


@pytest.mark.parametrize("name", sorted(FINGERPRINT_QUIVERS))
@pytest.mark.parametrize("seed", range(5))
def test_fingerprint_equals_evaluating_each_generator(name, seed):
    # any matrices will do: the identity holds off the relations' zero locus too
    rng = random.Random(seed)
    q = FINGERPRINT_QUIVERS[name]()
    dims = DimensionVector({v: rng.randint(0, 2) for v in q.vertices})
    mats = {a.name: Mat(dims[a.target], dims[a.source],
                        tuple(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                    for _ in range(dims[a.source]))
                              for _ in range(dims[a.target])))
            for a in q.arrows}
    m = ModuleRep(q, dims, mats)
    env = {variable_name(a, i + 1, j + 1): mat.entry(i, j)
           for a, mat in mats.items() for i in range(mat.rows) for j in range(mat.cols)}
    gens = invariant_generators(RepCoordinates(q, dims), cycle_bound=5, path_bound=3)
    values = invariant_fingerprint(m, gens)
    assert values == tuple(g.polynomial.evaluate(env) for g in gens)
    assert all(type(v) is Fraction for v in values)
    # any order shares prefixes correctly, a path that is a prefix of the last one included
    order = list(range(len(gens)))
    rng.shuffle(order)
    assert invariant_fingerprint(m, [gens[i] for i in order]) == tuple(values[i] for i in order)


def test_fingerprint_rejects_generators_of_another_dimension_vector():
    q, m = a2_module(1, 2)
    gens = invariant_generators(RepCoordinates(q, {"1": 2, "2": 1}), 4, 0)
    with pytest.raises(ValueError, match="another dimension vector"):
        invariant_fingerprint(m, gens)
    assert invariant_fingerprint(m, []) == ()


@pytest.mark.parametrize("seed", range(4))
def test_conjugation_preserves_the_observable_structure(framed_a1, seed):
    quiver, rels, _ = framed_a1
    m = load_fixture_module(quiver, "framed_a1_generated_2")
    rng = random.Random(seed)

    def change(n):
        while True:
            cand = Mat.from_rows([[rng.randint(-2, 2) for _ in range(n)]
                                  for _ in range(n)])
            try:
                cand.inverse()
                return cand
            except ValueError:
                continue

    moved = conjugate(m, {"0": change(1), "1": change(1)})
    assert check_relations(moved, rels)[0]
    assert generated_by_framing(moved) == generated_by_framing(m)
    gens = invariant_generators(RepCoordinates(quiver, m.dims), 4, 6)
    assert invariant_fingerprint(moved, gens) == invariant_fingerprint(m, gens)


def test_conjugate_shape_guard():
    q, m = a2_module(1, 0)
    with pytest.raises(ValueError):
        conjugate(m, {"1": Mat.zero(2, 2)})


def test_restrict_corner(framed_a1, framed_a1_corner):
    quiver, _, _ = framed_a1
    _, _, pres = framed_a1_corner
    m = load_fixture_module(quiver, "framed_a1_generated_3")
    small = restrict_corner(m, pres)
    assert small.quiver is pres.quiver
    assert dict(small.dims) == {"∞": 1, "0": 1}
    assert small.matrices["ι"].entry(0, 0) == 1
    for name in ("g1", "g2", "g3"):
        assert small.matrices[name].is_zero()
    assert check_relations(small, pres.relations)[0]


# -- extensions ----------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_random_extension_is_invisible_to_invariants(seed):
    q = build_doubled_dynkin("A", 2)
    rels = preprojective_relations(q)
    _, sub = a2_module(1, 0)
    _, quot = a2_module(0, 2)
    rng = random.Random(seed)
    ext = random_extension(sub, quot, rels, rng)
    assert check_relations(ext, rels)[0]
    assert ext.dims == sub.dims + quot.dims
    gens = invariant_generators(RepCoordinates(q, ext.dims), 4, 6)
    assert (invariant_fingerprint(ext, gens)
            == invariant_fingerprint(direct_sum(sub, quot), gens))


def test_random_extension_guards():
    q = build_doubled_dynkin("A", 2)
    rels = preprojective_relations(q)
    _, good = a2_module(1, 0)
    _, bad = a2_module(1, 1)     # a*.a = 1 violates the vertex-1 relation
    rng = random.Random(0)
    assert not check_relations(bad, rels)[0]
    with pytest.raises(ValueError):
        random_extension(good, bad, rels, rng)
    other = zero_module(build_doubled_dynkin("A", 3), {"1": 1, "2": 1, "3": 1})
    with pytest.raises(ValueError):
        random_extension(good, other, rels, rng)


def test_random_extension_past_the_variable_limit_is_refused():
    # 70 x 70 off-diagonal unknowns: 4,900 ring variables
    q = Quiver(["0"], [Arrow("x", "0", "0")], {"0": "K"})
    x = Path(q, "0", ("x",))
    rels = [AlgebraElement(q, {x * x: Fraction(1)})]
    block = zero_module(q, {"0": 70})
    with pytest.raises(ValueError, match="4900 variables exceed the limit of 4096"):
        random_extension(block, block, rels, random.Random(0))


def _int_mat(rng, rows, cols, bound=2):
    if not rows:
        return Mat.zero(0, cols)
    return Mat.from_rows([[rng.randint(-bound, bound) for _ in range(cols)]
                          for _ in range(rows)])


def _a2_blocks(rng, quiver):
    ds = {"1": rng.randint(1, 2), "2": rng.randint(1, 2)}
    dq = {"1": rng.randint(1, 2), "2": rng.randint(1, 2)}
    sub = ModuleRep(quiver, ds, {"a": Mat.zero(ds["2"], ds["1"]),
                                 "a*": _int_mat(rng, ds["1"], ds["2"])})
    quot = ModuleRep(quiver, dq, {"a": _int_mat(rng, dq["2"], dq["1"]),
                                  "a*": Mat.zero(dq["1"], dq["2"])})
    return sub, quot


def _framed_a1_blocks(rng, quiver):
    def block():
        n = rng.randint(1, 2)
        m = _int_mat(rng, n, n)
        return ModuleRep(quiver, {"∞": 1, "0": n, "1": n}, {
            "a": Mat.identity(n), "b": Mat.identity(n), "a*": m, "b*": m.scale(-1),
            "ι": _int_mat(rng, n, 1)})
    return block(), block()


# The off-diagonal blocks random_extension drew, on the criterion-08 recipes,
# when it still solved its kernel by dense Gauss-Jordan elimination.
_PINNED_EXTENSIONS = [
    ("A2", 4000, {"a": [["0", "0"], ["-2", "0"]], "a*": [["-1"], ["-1"]]}),
    ("A2", 4001, {"a": [["-3", "-6"]], "a*": [["3"], ["3"]]}),
    ("A2", 4002, {"a": [["0"], ["0"]], "a*": [["1"], ["0"]]}),
    ("framed A1", 5000, {"a": [["0", "1"]], "a*": [["1", "-1"]], "b": [["0", "1"]],
                         "b*": [["-1", "1"]], "ι": [["-3"]]}),
    ("framed A1", 5001, {"a": [["2"], ["3"]], "a*": [["-6"], ["0"]], "b": [["0"], ["2"]],
                         "b*": [["2"], ["-2"]], "ι": [["0"], ["0"]]}),
]


@pytest.mark.parametrize("kind, seed, blocks", _PINNED_EXTENSIONS)
def test_random_extension_pinned_values(kind, seed, blocks):
    if kind == "A2":
        quiver = build_doubled_dynkin("A", 2)
        rels, make = preprojective_relations(quiver), _a2_blocks
    else:
        quiver, rels = framed_affine_preprojective("A", 1)
        make = _framed_a1_blocks
    rng = random.Random(seed)
    sub, quot = make(rng, quiver)
    ext = random_extension(sub, quot, rels, rng)
    got = {}
    for a in quiver.arrows:
        rows, cols = sub.dims[a.target], sub.dims[a.source]
        got[a.name] = [[str(x) for x in row[cols:]] for row in ext.matrices[a.name].data[:rows]]
    assert got == blocks


@pytest.mark.parametrize("kind, seed", [("A2", 4000), ("A2", 4001), ("framed A1", 5000),
                                        ("framed A1", 5001)])
def test_random_extension_places_its_blocks_without_evaluating(kind, seed, monkeypatch):
    """The result is built as the generic extension is: sub's and quot's
    matrices on the diagonal, zero below, the kernel point above, with no
    polynomial evaluated."""
    if kind == "A2":
        quiver = build_doubled_dynkin("A", 2)
        rels, make = preprojective_relations(quiver), _a2_blocks
    else:
        quiver, rels = framed_affine_preprojective("A", 1)
        make = _framed_a1_blocks
    rng = random.Random(seed)
    sub, quot = make(rng, quiver)

    def refuse(self, env):
        raise AssertionError("random_extension evaluated a polynomial")

    monkeypatch.setattr(Polynomial, "evaluate", refuse)
    ext = random_extension(sub, quot, rels, rng)
    for a in quiver.arrows:
        s, q, m = sub.matrices[a.name], quot.matrices[a.name], ext.matrices[a.name]
        assert tuple(row[:s.cols] for row in m.data[:s.rows]) == s.data
        assert tuple(row[s.cols:] for row in m.data[s.rows:]) == q.data
        assert all(x == 0 for row in m.data[s.rows:] for x in row[:s.cols])
        assert all(type(x) is Fraction for row in m.data for x in row)


def _extension_matches_the_reference(sub, quot, rels, rng):
    """random_extension against the per-unknown reference, from one generator state."""
    state = rng.getstate()
    got = random_extension(sub, quot, rels, rng)
    ref_rng = random.Random()
    ref_rng.setstate(state)
    assert got == reference_random_extension(sub, quot, rels, ref_rng)
    assert rng.getstate() == ref_rng.getstate()
    return got


@pytest.mark.parametrize("seed", range(10))
def test_random_extension_matches_the_reference_on_criterion_08_blocks(seed):
    a2 = build_doubled_dynkin("A", 2)
    rng = random.Random(4000 + seed)
    _extension_matches_the_reference(*_a2_blocks(rng, a2), preprojective_relations(a2), rng)
    framed, rels = framed_affine_preprojective("A", 1)
    rng = random.Random(5000 + seed)
    _extension_matches_the_reference(*_framed_a1_blocks(rng, framed), rels, rng)


@pytest.mark.parametrize("seed", range(8))
def test_random_extension_matches_the_reference_through_zero_dimensions(seed):
    quiver = build_doubled_dynkin("A", 2)
    rels = preprojective_relations(quiver)
    rng = random.Random(600 + seed)
    ds = {"1": rng.randint(0, 2), "2": rng.randint(0, 2)}
    dq = {"1": rng.randint(0, 2), "2": rng.randint(0, 2)}
    ds[rng.choice(["1", "2"])] = 0
    sub = ModuleRep(quiver, ds, {"a": Mat.zero(ds["2"], ds["1"]),
                                 "a*": _int_mat(rng, ds["1"], ds["2"])})
    quot = ModuleRep(quiver, dq, {"a": _int_mat(rng, dq["2"], dq["1"]),
                                  "a*": Mat.zero(dq["1"], dq["2"])})
    ext = _extension_matches_the_reference(sub, quot, rels, rng)
    # an extension is a block again, with nonzero off-diagonal data
    _extension_matches_the_reference(ext, quot, rels, rng)


def _layered_module(rng, quiver, dims, layers):
    """Each basis vector gets a layer below ``layers`` and arrows only raise
    layers, so every path of length ``layers`` or more acts as zero."""
    level = {v: [rng.randrange(layers) for _ in range(dims[v])] for v in quiver.vertices}
    return ModuleRep(quiver, dims, {a.name: Mat.from_rows(
        [[rng.randint(-2, 2) if level[a.target][i] > level[a.source][j] else 0
          for j in range(dims[a.source])] for i in range(dims[a.target])])
        if dims[a.target] else Mat.zero(0, dims[a.source]) for a in quiver.arrows})


@pytest.mark.parametrize("seed", range(8))
def test_random_extension_matches_the_reference_on_long_relations(seed):
    # relations of lengths 3 and 4 put nonzero path matrices on both sides of X
    quiver = Quiver(["0", "1"], [Arrow("a", "0", "1"), Arrow("b", "1", "0"),
                                 Arrow("x", "0", "0")])

    def rel(*terms):
        return AlgebraElement(quiver, {Path(quiver, base, arrows): c
                                       for base, arrows, c in terms})
    rels = RelationSet(quiver, [
        rel(("0", ("x", "a", "b"), 1), ("0", ("a", "b", "x"), 2), ("0", ("x", "x", "x"), -1)),
        rel(("1", ("b", "x", "x", "a"), 1), ("1", ("b", "a", "b", "a"), 3)),
    ])
    rng = random.Random(700 + seed)
    blocks = []
    while not any(not path_matrix(m, p).is_zero() for m in blocks
                  for p in (Path(quiver, "0", ("x", "a")), Path(quiver, "1", ("b", "x")))):
        blocks = [_layered_module(rng, quiver, {"0": rng.randint(1, 3), "1": rng.randint(0, 2)},
                                  3) for _ in range(2)]
    assert all(check_relations(m, rels)[0] for m in blocks)
    _extension_matches_the_reference(*blocks, rels, rng)


# -- induction -----------------------------------------------------------------


def corner_module(pres, iota, g1, g2, g3, n=1):
    mk = Mat.from_rows
    return ModuleRep(pres.quiver, {"∞": 1, "0": n},
                     {"ι": mk(iota), "g1": mk(g1), "g2": mk(g2), "g3": mk(g3)})


def test_induce_module_free_case(framed_a1, framed_a1_corner):
    quiver, rels, _ = framed_a1
    _, bimod, pres = framed_a1_corner
    vh = corner_module(pres, [[1]], [[0]], [[0]], [[0]])
    m = induce_module(vh, pres, bimod)
    assert m == load_fixture_module(quiver, "framed_a1_generated_3")
    assert generated_by_framing(m)


def test_induce_module_scalar_point(framed_a1, framed_a1_corner):
    # g1^2 = -g3 g2 with scalars: 2^2 = -(-4 * 1)
    quiver, rels, _ = framed_a1
    _, bimod, pres = framed_a1_corner
    vh = corner_module(pres, [[1]], [[2]], [[-4]], [[1]])
    m = induce_module(vh, pres, bimod)
    assert dict(m.dims) == {"∞": 1, "0": 1, "1": 1}
    assert check_relations(m, rels)[0]
    small = restrict_corner(m, pres)
    gens = invariant_generators(RepCoordinates(pres.quiver, vh.dims), 4, 6)
    assert invariant_fingerprint(small, gens) == invariant_fingerprint(vh, gens)


def test_induce_module_guards(framed_a1_corner):
    _, bimod, pres = framed_a1_corner
    # non-commuting loops violate the corner relations
    bad = ModuleRep(pres.quiver, {"∞": 1, "0": 2}, {
        "ι": Mat.from_rows([[1], [0]]),
        "g1": Mat.from_rows([[0, 1], [0, 0]]),
        "g2": Mat.from_rows([[0, 0], [1, 0]]),
        "g3": Mat.zero(2, 2),
    })
    assert not check_relations(bad, pres.relations)[0]
    with pytest.raises(ValueError):
        induce_module(bad, pres, bimod)
    q3 = build_doubled_dynkin("A", 2)
    foreign = zero_module(q3, {"1": 1, "2": 1})
    with pytest.raises(ValueError):
        induce_module(foreign, pres, bimod)


def test_induce_module_stops_at_the_basis_cutoff(framed_a1):
    # a cutoff of 2 reaches the corner's generation bound but leaves the
    # induction no room to see its dimensions stabilize
    quiver, rels, _ = framed_a1

    def induce_free(cutoff):
        corner = corner_generators(graded_basis(quiver, rels, cutoff))
        pres = corner_presentation(corner)
        vh = corner_module(pres, [[1]], [[0]], [[0]], [[0]])
        return induce_module(vh, pres, bimodule_generators(corner))

    with pytest.raises(BudgetExceeded, match="did not stabilize within degree 2"):
        induce_free(2)
    assert induce_free(3) == load_fixture_module(quiver, "framed_a1_generated_3")


def scalar_corner_modules(pres):
    """Criterion 11's ten V_H (seeds 7000-7009) and the bench's for seeds 0-7:
    scalar g1 = t, g2 = u, g3 = -t^2/u satisfy the framed A~1 corner relations."""
    out = []
    for seed in [7000 + s for s in range(10)] + list(range(8)):
        rng = random.Random(seed)
        t = Fraction(rng.randint(-3, 3))
        u = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        out.append(corner_module(pres, [[rng.choice([1, 2, 3])]], [[t]], [[u]],
                                 [[-t * t / u]]))
    return out


def zero_loop_modules(pres):
    """V_H with zero g matrices at dims (∞: 1, 0: 1) and (∞: 1, 0: 2)."""
    out = []
    for n in (1, 2):
        zero = [[0] * n for _ in range(n)]
        out.append(corner_module(pres, [[1]] + [[0]] * (n - 1), zero, zero, zero, n=n))
    return out


def framed_corner(kind, rank, cutoff):
    quiver, rels = framed_affine_preprojective(kind, rank)
    corner = corner_generators(graded_basis(quiver, rels, cutoff), verify_cutoff=cutoff)
    return bimodule_generators(corner, verify_cutoff=cutoff), corner_presentation(corner, cutoff)


def test_induce_module_matches_the_reference_loop(framed_a1_corner, framed_d4_corner):
    # framed A~1 at basis cutoff 8 (the bench's corner) and 12 (the shared fixture)
    _, bimod12, pres12 = framed_a1_corner
    _, bimod_d4, pres_d4 = framed_d4_corner
    bimod8, pres8 = framed_corner("A", 1, 8)
    cases = [(vh, pres, bimod) for bimod, pres in [(bimod8, pres8), (bimod12, pres12)]
             for vh in scalar_corner_modules(pres) + zero_loop_modules(pres)]
    for bimod, pres in [(bimod_d4, pres_d4), framed_corner("A", 2, 10)]:
        cases += [(vh, pres, bimod) for vh in zero_loop_modules(pres)]
    assert len(cases) == 2 * 20 + 2 * 2
    for vh, pres, bimod in cases:
        assert module_to_json(induce_module(vh, pres, bimod)) == \
            module_to_json(reference_induce_module(vh, pres, bimod))


# -- serialization ---------------------------------------------------------------


def test_module_json_round_trip(framed_a1):
    quiver, _, _ = framed_a1
    m = load_fixture_module(quiver, "framed_a1_generated_2")
    again = module_from_json(quiver, module_to_json(m))
    assert again == m


def test_module_json_fractions_and_defaults():
    q = build_doubled_dynkin("A", 2)
    m = module_from_json(q, {"dimension": {"1": 1, "2": 1},
                             "arrows": {"a": [["1/2"]]}})
    assert m.matrices["a"].entry(0, 0) == Fraction(1, 2)
    assert m.matrices["a*"].is_zero()
    with pytest.raises(ValueError):
        module_from_json(q, {"dimension": {"1": 1, "2": 1},
                             "arrows": {"a": [["1", "2"]]}})


def test_module_json_takes_integers_and_ascii_fraction_strings():
    q = build_doubled_dynkin("A", 2)
    m = module_from_json(q, {"dimension": {"1": 1, "2": 1},
                             "arrows": {"a": [[-7]], "a*": [["-3/4"]]}})
    assert m.matrices["a"].entry(0, 0) == -7
    assert m.matrices["a*"].entry(0, 0) == Fraction(-3, 4)


@pytest.mark.parametrize("entry", ["1_0", "٣", "1.5", 1.5, True, " 1", "+1",
                                   "1/-2", "", None, [1]])
def test_module_json_rejects_other_entries(entry):
    # Fraction(str(x)) used to read "1_0" as 10 and "٣" as 3
    q = build_doubled_dynkin("A", 2)
    with pytest.raises(ValueError, match="matrix for 'a\\*' has an entry"):
        module_from_json(q, {"dimension": {"1": 1, "2": 1},
                             "arrows": {"a": [["0"]], "a*": [[entry]]}})


def test_module_json_rejects_unknown_arrows():
    # a misspelt arrow used to load as the zero module
    q = build_doubled_dynkin("A", 2)
    with pytest.raises(ValueError, match=r"lacks: \['b', 'typo'\]"):
        module_from_json(q, {"dimension": {"1": 1, "2": 1},
                             "arrows": {"typo": [["5"]], "a": [["1"]], "b": [["2"]]}})
