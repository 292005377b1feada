"""End-to-end desk-scale checks, one test per headline guarantee.

Every test prints exactly one uncaptured verdict line, so a plain
``pytest -v`` run shows the scoreboard inline next to the test names.
Stated wall-clock budgets are asserted where a check has one.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from quiverlab.algebra import (
    cocenter,
    framed_affine_preprojective,
    graded_basis,
    preprojective_relations,
)
from quiverlab.corner import bimodule_generators, corner_generators
from quiverlab.linalg import Mat
from quiverlab.modules import (
    ModuleRep,
    conjugate,
    direct_sum,
    generated_by_framing,
    induce_module,
    invariant_fingerprint,
    is_nilvadent,
    module_from_json,
    random_extension,
    restrict_corner,
    zero_module,
)
from quiverlab.polynomials import buchberger, nilpotent_witness_search
from quiverlab.quivers import DimensionVector, build_doubled_dynkin, delta, delta_k
from quiverlab.repscheme import (
    RepCoordinates,
    add_pullback,
    build_acircledast,
    invariant_generators,
    product_split_check,
    rep_ideal,
    variable_name,
)

from conftest import FIXTURES
from oracles import kleinian_z2_dims, preprojective_total_dim

FINITE_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4), ("D", 5),
                ("E", 6), ("E", 7), ("E", 8)]

# top degree of the finite-type algebra: Coxeter number minus two
TOP_DEGREE = {("A", 1): 0, ("A", 2): 1, ("A", 3): 2, ("A", 4): 3,
              ("D", 4): 4, ("D", 5): 6, ("E", 6): 10, ("E", 7): 16, ("E", 8): 28}

_BASES: dict = {}


def finite_basis(kind, rank):
    key = (kind, rank)
    if key not in _BASES:
        quiver = build_doubled_dynkin(kind, rank)
        rels = preprojective_relations(quiver)
        _BASES[key] = graded_basis(quiver, rels, TOP_DEGREE[key] + 2)
    return _BASES[key]


def rand_mat(rng, rows, cols, bound=2):
    return Mat.from_rows([[rng.randint(-bound, bound) for _ in range(cols)]
                          for _ in range(rows)])


def random_invertible(rng, n):
    if n == 0:
        return Mat.identity(0)
    while True:
        m = rand_mat(rng, n, n)
        try:
            m.inverse()
        except ValueError:
            continue
        return m


@pytest.fixture
def verdict(capsys):
    """One uncaptured pass/fail line per check, with elapsed time."""

    @contextmanager
    def report(num, label):
        start = time.monotonic()
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"criterion {num:02d} FAIL - {label}")
            raise
        with capsys.disabled():
            print(f"criterion {num:02d} PASS "
                  f"({time.monotonic() - start:.2f}s) - {label}")

    return report


def test_criterion_01_cocenter_vanishing(verdict):
    with verdict(1, "cocenter concentrated in degree zero for nine finite types"):
        start = time.monotonic()
        for kind, rank in FINITE_TYPES:
            basis = finite_basis(kind, rank)
            assert basis.finite_dimensional
            # the positive roots' heights sum to n*h*(h+1)/6 (1,240 for E8)
            h = TOP_DEGREE[(kind, rank)] + 2
            assert sum(basis.dimensions) == rank * h * (h + 1) // 6
            coc = cocenter(basis)
            assert not coc.truncated
            assert coc.degree_dims[0] == len(basis.quiver.vertices)
            assert all(d == 0 for d in coc.degree_dims[1:])
        assert time.monotonic() - start < 120


def test_criterion_02_graded_dimensions(verdict):
    with verdict(2, "graded dimensions match the positive-root oracle"):
        a2 = finite_basis("A", 2)
        assert a2.top_degree == 1
        assert a2.dimensions[:2] == [2, 2]
        assert sum(a2.dimensions) == 4
        for kind, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4)]:
            basis = finite_basis(kind, rank)
            assert sum(basis.dimensions) == preprojective_total_dim(kind, rank)


def test_criterion_03_no_invariants_finite_type(d4_rep_ideal, d4_groebner, verdict):
    with verdict(3, "short trace invariants reduce to constants in finite type"):
        start = time.monotonic()
        cases = []
        for kind, rank in [("A", 2), ("A", 3)]:
            quiver = build_doubled_dynkin(kind, rank)
            coords = RepCoordinates(
                quiver, DimensionVector({v: 1 for v in quiver.vertices}))
            ideal = rep_ideal(coords, preprojective_relations(quiver))
            gb = buchberger(ideal.nonzero_generators())
            cases.append((coords, gb, TOP_DEGREE[(kind, rank)]))
        d4_coords, _ = d4_rep_ideal
        cases.append((d4_coords, d4_groebner, TOP_DEGREE[("D", 4)]))

        checked = 0
        for coords, gb, lam in cases:
            for gen in invariant_generators(coords, cycle_bound=lam, path_bound=0):
                assert gb.normal_form(gen.polynomial).degree <= 0
                checked += 1
        # the A2 window holds no cycles at all; A3 and D4 supply the substance
        assert checked >= 5
        assert time.monotonic() - start < 600


def test_criterion_04_nonreduced_witness(d4_groebner, verdict):
    with verdict(4, "nilpotent witness on the D4 interior scheme, re-verified"):
        start = time.monotonic()
        stages = []
        max_deg, max_pow = 3, 4
        witness = None
        while True:
            stages.append((max_deg, max_pow))
            witness = nilpotent_witness_search(d4_groebner, max_deg, max_pow,
                                               seed=0)
            if witness is not None or (max_deg, max_pow) == (5, 6):
                break
            max_deg = min(2 * max_deg, 5)
            max_pow = min(2 * max_pow, 6)
        # the first net comes up empty; the doubled one lands the witness
        assert stages == [(3, 4), (5, 6)]
        assert witness is not None
        f, k = witness.element, witness.power
        assert 0 < f.degree <= 5
        assert 2 <= k <= 6
        outside, _ = d4_groebner.ideal_member(f)
        assert not outside
        power = f
        for _ in range(k - 1):
            power = power * f
        inside, _ = d4_groebner.ideal_member(power)
        assert inside
        assert time.monotonic() - start < 900


def test_criterion_05_type_a_radical(verdict):
    with verdict(5, "A2 interior ideal is the squarefree monomial (x_a*x_a*)"):
        quiver = build_doubled_dynkin("A", 2)
        coords = RepCoordinates(quiver, DimensionVector({"1": 1, "2": 1}))
        ideal = rep_ideal(coords, preprojective_relations(quiver))
        gb = buchberger(ideal.nonzero_generators())
        assert gb.texts() == ["x_a_1_1*x_a*_1_1"]
        assert all(e <= 1 for e in gb.polys[0].lead_exps())
        assert nilpotent_witness_search(gb, 3, 4, seed=0) is None


def test_criterion_06_deframed_splitting(d4_rep_ideal, verdict):
    with verdict(6, "deframed D4 scheme splits off the leftover-arrow factor"):
        quiver, rels = framed_affine_preprojective("D", 4)
        circ_quiver, circ_rels = build_acircledast(quiver, rels)
        coords = RepCoordinates(circ_quiver, delta("D", 4))
        ideal = rep_ideal(coords, circ_rels)

        leftover = [a for a in circ_quiver.arrows if a.source == "0"]
        assert [a.name for a in leftover] == ["a"]
        extra = [variable_name("a", i + 1, 1) for i in range(coords.dims["2"])]
        assert product_split_check(ideal.generators, extra)

        finite_coords, finite_ideal = d4_rep_ideal
        ring = finite_coords.ring
        swaps = (("b*", "A*"), ("b", "A"), ("c*", "B*"), ("c", "B"),
                 ("d*", "C*"), ("d", "C"))

        def renamed(text):
            for old, new in swaps:
                text = text.replace(old, new)
            return text.lower()

        got = {ring.parse(renamed(g.text())) for g in ideal.nonzero_generators()}
        assert got == set(finite_ideal.nonzero_generators())


def test_criterion_07_add_functoriality(verdict):
    with verdict(7, "stacked pullbacks equal the direct-sum pullback, 20 seeds"):
        start = time.monotonic()
        quiver = build_doubled_dynkin("D", 4)
        coords = RepCoordinates(quiver, delta_k("D", 4))
        rels = preprojective_relations(quiver)

        def fixed_module(rng, bound):
            dims = {v: rng.randint(0, bound) for v in quiver.vertices}
            if not any(dims.values()):
                dims[rng.choice(quiver.vertices)] = 1
            return zero_module(quiver, dims)

        for seed in range(20):
            rng = random.Random(911 + seed)
            v_k = fixed_module(rng, 2)
            w_k = fixed_module(rng, 1)
            assert is_nilvadent(v_k) and is_nilvadent(w_k)
            both = direct_sum(v_k, w_k)
            big1, hom1 = add_pullback(coords, v_k.dims, v_k.matrices, rels)
            big2, hom2 = add_pullback(big1, w_k.dims, w_k.matrices, rels)
            big12, hom12 = add_pullback(coords, both.dims, both.matrices, rels)
            assert big2.ring == big12.ring
            gens = invariant_generators(big2, cycle_bound=4, path_bound=0)
            assert gens
            for g in gens:
                assert hom1(hom2(g.polynomial)) == hom12(g.polynomial)
        assert time.monotonic() - start < 60


def test_criterion_08_extension_invariance(framed_a1, verdict):
    with verdict(8, "fingerprints blind to extension data, 20 seeded runs"):
        def check(quiver, rels, sub, quot, rng, cycle_bound):
            ext = random_extension(sub, quot, rels, rng)
            flat = direct_sum(sub, quot)
            assert ext.dims == flat.dims
            coords = RepCoordinates(quiver, ext.dims)
            gens = invariant_generators(coords, cycle_bound=cycle_bound,
                                        path_bound=0)
            assert invariant_fingerprint(ext, gens) == \
                invariant_fingerprint(flat, gens)

        a2 = build_doubled_dynkin("A", 2)
        a2_rels = preprojective_relations(a2)
        for seed in range(10):
            rng = random.Random(4000 + seed)
            ds = {"1": rng.randint(1, 2), "2": rng.randint(1, 2)}
            dq = {"1": rng.randint(1, 2), "2": rng.randint(1, 2)}
            sub = ModuleRep(a2, ds, {"a": Mat.zero(ds["2"], ds["1"]),
                                     "a*": rand_mat(rng, ds["1"], ds["2"])})
            quot = ModuleRep(a2, dq, {"a": rand_mat(rng, dq["2"], dq["1"]),
                                      "a*": Mat.zero(dq["1"], dq["2"])})
            check(a2, a2_rels, sub, quot, rng, cycle_bound=6)

        fquiver, frels, _ = framed_a1

        def framed_block(rng):
            # a = b = identity forces b* = -a*; traces stay honestly nonzero
            n = rng.randint(1, 2)
            m = rand_mat(rng, n, n)
            return ModuleRep(fquiver, {"∞": 1, "0": n, "1": n}, {
                "a": Mat.identity(n),
                "b": Mat.identity(n),
                "a*": m,
                "b*": m.scale(-1),
                "ι": rand_mat(rng, n, 1),
            })

        for seed in range(10):
            rng = random.Random(5000 + seed)
            check(fquiver, frels, framed_block(rng), framed_block(rng), rng,
                  cycle_bound=4)


def test_criterion_09_corner_kleinian_match(framed_a1, verdict):
    with verdict(9, "e0-corner dimensions equal sign-invariant counts to 10"):
        start = time.monotonic()
        _, _, basis = framed_a1
        got = [sum(1 for p in basis.basis(d) if p.source == p.target == "0")
               for d in range(11)]
        assert got == kleinian_z2_dims(10)
        assert time.monotonic() - start < 120


def test_criterion_10_generation_bounds(framed_a1, framed_d4, verdict):
    with verdict(10, "generator degrees bounded, spanning verified to top+6"):
        for (quiver, rels, basis), lam in [(framed_a1, 0), (framed_d4, 4)]:
            corner = corner_generators(basis, verify_cutoff=lam + 6)
            assert corner.k_top_degree == lam
            assert all(g.degree <= lam + 2 for g in corner.generators)
            bimod = bimodule_generators(corner, verify_cutoff=lam + 6)
            assert all(g.degree <= lam + 1 for g in bimod.generators)


def test_criterion_11_induction_round_trip(framed_a1_corner, verdict):
    with verdict(11, "induced modules restrict back to their corner data"):
        _, bimod, pres = framed_a1_corner
        dims = DimensionVector({"∞": 1, "0": 1})
        coords = RepCoordinates(pres.quiver, dims)
        invs = invariant_generators(coords)
        for seed in range(10):
            rng = random.Random(7000 + seed)
            t = Fraction(rng.randint(-3, 3))
            u = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
            v_h = ModuleRep(pres.quiver, dims, {
                "ι": Mat.from_rows([[rng.choice([1, 2, 3])]]),
                "g1": Mat.from_rows([[t]]),
                "g2": Mat.from_rows([[u]]),
                "g3": Mat.from_rows([[-t * t / u]]),
            })
            induced = induce_module(v_h, pres, bimod)
            assert induced.dims.total() <= bimod.count * dims.total()
            back = restrict_corner(induced, pres)
            assert invariant_fingerprint(back, invs) == \
                invariant_fingerprint(v_h, invs)


def test_criterion_12_framing_generation(framed_a1, verdict):
    with verdict(12, "framed-generation verdicts survive random base change"):
        quiver, _, _ = framed_a1
        table = [("framed_a1_generated_1", True),
                 ("framed_a1_generated_2", True),
                 ("framed_a1_generated_3", True),
                 ("framed_a1_ungenerated_1", False),
                 ("framed_a1_ungenerated_2", False),
                 ("framed_a1_ungenerated_3", False)]
        for idx, (name, want) in enumerate(table):
            data = json.loads((FIXTURES / "modules" / f"{name}.json").read_text())
            m = module_from_json(quiver, data)
            assert generated_by_framing(m) is want
            rng = random.Random(8000 + idx)
            for _ in range(5):
                changes = {v: random_invertible(rng, m.dims[v])
                           for v in quiver.vertices}
                assert generated_by_framing(conjugate(m, changes)) is want
