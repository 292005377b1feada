"""Exact polynomial arithmetic, Gröbner bases, nilpotent witness search."""

import itertools
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from quiverlab import polynomials, repscheme
from quiverlab.algebra import framed_affine_preprojective, preprojective_relations
from quiverlab.errors import BudgetExceeded
from quiverlab.linalg import Mat
from quiverlab.polynomials import (
    ORDERS,
    GroebnerBasis,
    PolyRing,
    Polynomial,
    buchberger,
    ideal_multigrading,
    nilpotent_witness_search,
    standard_monomials,
)
from quiverlab.quivers import Arrow, DimensionVector, Quiver, build_doubled_dynkin, delta_k
from quiverlab.repscheme import (RepCoordinates, add_pullback, corner_comparison_map,
                                 invariant_generators, rep_ideal, zero_module)

from oracles import (_order_key, reference_buchberger, reference_nilpotent_witness_search,
                     reference_nullspace, reference_parse, reference_pm_mul,
                     reference_comparison_images, reference_pullback_images, reference_reduce,
                     reference_standard_monomials, reference_substitute)

SRC = Path(__file__).resolve().parent.parent / "src"

# small ideals in x, y, z that the tests above reduce against
R_IDEALS = [
    ["x^2 - 1", "x*y - 1"],
    ["x^2 - y", "y^3 - z"],
    ["x*y - z^2"],
    ["x^3 - y*z", "y^2 - x*z", "z^2 - x^2*y"],
]

# ten variables, so lead support masks span several bytes; its reduced basis
# has 44 members under degrevlex and reaches v9^450 under lex
WIDE = [f"v{i}" for i in range(10)]
WIDE_IDEAL = [f"v{i}^2 - v{i + 1}" for i in range(9)] + ["v0*v9 - v5^2"]


@pytest.fixture
def R():
    return PolyRing(["x", "y", "z"])


def test_ring_validation():
    with pytest.raises(ValueError):
        PolyRing(["x", "x"])
    for bad in ["2x", "a+b", "", "a b"]:
        with pytest.raises(ValueError):
            PolyRing([bad])
    with pytest.raises(ValueError):
        PolyRing(["x"], order="grlex")


def test_ring_variable_count_is_bounded():
    # a packed ring's memory grows as the square of its variable count
    with pytest.raises(ValueError, match="4097 variables exceed the limit of 4096"):
        PolyRing(f"v{i}" for i in range(4097))


def test_parse_text_round_trip(R):
    for text in ["x^2*y - 3/2*z + 1", "x + y", "-x*y*z", "7", "0", "x^4 - x"]:
        f = R.parse(text)
        assert R.parse(f.text()) == f
    assert R.parse("x^2*y - 3/2*z + 1").text() == "x^2*y - 3/2*z + 1"
    assert R.parse("0").text() == "0"


def test_parse_builds_a_power_with_one_product_per_factor(R, monkeypatch):
    calls = []
    real = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__",
                        lambda a, b: calls.append(1) or real(a, b))
    assert R.parse("x^1000") == R.monomial((1000, 0, 0)) and len(calls) <= 1
    calls.clear()
    assert R.parse("2*x^3*y^0*z") == R.monomial((3, 0, 1), 2) and len(calls) <= 3
    huge = R.parse("x^100000000")
    assert huge == R.monomial((100000000, 0, 0))
    assert huge.text() == "x^100000000" and R.parse(huge.text()) == huge


def test_parse_errors(R):
    # numbers are ASCII digits: U+0663 is ARABIC-INDIC DIGIT THREE
    for bad in ["w + 1", "x +", "x^", "(x", "x**2", "\u0663*x", "x^\u0663"]:
        with pytest.raises(ValueError):
            R.parse(bad)


def test_arithmetic(R):
    x, y = R.variable("x"), R.variable("y")
    assert ((x + y) ** 2).text() == "x^2 + 2*x*y + y^2"
    assert (x - x) == R.zero()
    assert x ** 0 == R.one()
    assert (x * y).scale(Fraction(1, 2)) - (x * y).scale(Fraction(1, 2)) == R.zero()
    assert (x + y) * (x - y) == x ** 2 - y ** 2


def test_monomial_orders():
    f = lambda ring: ring.variable("x") + ring.variable("y") ** 2
    assert f(PolyRing(["x", "y"])).lead_exps() == (0, 2)          # degree first
    assert f(PolyRing(["x", "y"], order="lex")).lead_exps() == (1, 0)


def test_evaluate_and_substitute(R):
    f = R.parse("x^2*y - 3/2*z + 1")
    env = {"x": Fraction(2), "y": Fraction(-1), "z": Fraction(4)}
    assert f.evaluate(env) == Fraction(-9)
    S = PolyRing(["u", "v"])
    g = f.substitute(S, {"x": S.parse("u"), "y": S.parse("v^2"), "z": S.parse("u*v")})
    assert g == S.parse("u^2*v^2 - 3/2*u*v + 1")


def test_buchberger_reduced_basis(R):
    gb = buchberger([R.parse("x^2 - 1"), R.parse("x*y - 1")])
    assert gb.texts() == ["x - y", "y^2 - 1"]
    member, rem = gb.ideal_member(R.parse("y - x"))
    assert member and not rem
    member, rem = gb.ideal_member(R.parse("x + 1"))
    assert not member and rem


def test_buchberger_guards(R):
    with pytest.raises(ValueError):
        buchberger([])
    gb = buchberger([], ring=R)
    assert len(gb) == 0
    f = R.parse("x^3 + y")
    assert gb.normal_form(f) == f
    other = PolyRing(["u"])
    with pytest.raises(ValueError):
        buchberger([R.parse("x"), other.parse("u")])
    with pytest.raises(BudgetExceeded):
        buchberger([R.parse("x^3 - y*z"), R.parse("y^2 - x*z"), R.parse("z^2 - x^2*y")],
                   max_steps=1)


def test_buchberger_rejects_a_negative_budget(R):
    # no S-pair arises for a single generator, so only the check can refuse
    with pytest.raises(ValueError, match="max_steps must be nonnegative"):
        buchberger([R.parse("x - y")], max_steps=-1)
    with pytest.raises(ValueError, match="max_steps must be nonnegative"):
        buchberger([], max_steps=-1, ring=R)
    assert buchberger([R.parse("x - y")], max_steps=0).texts() == ["x - y"]
    with pytest.raises(BudgetExceeded):
        buchberger([R.parse("x^2 - 1"), R.parse("x*y - 1")], max_steps=0)


@pytest.mark.parametrize("seed", range(4))
def test_normal_form_is_linear_and_multiplicative(R, seed):
    gb = buchberger([R.parse("x^2 - y"), R.parse("y^3 - z")])
    rng = random.Random(seed)

    def rand_poly():
        out = R.zero()
        for _ in range(4):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            out = out + R.monomial(exps, Fraction(rng.randint(-3, 3)))
        return out

    f, g = rand_poly(), rand_poly()
    assert gb.normal_form(f + g) == gb.normal_form(f) + gb.normal_form(g)
    assert gb.normal_form(f * g) == gb.normal_form(gb.normal_form(f) * gb.normal_form(g))
    assert gb.normal_form(gb.normal_form(f)) == gb.normal_form(f)


def test_standard_monomials():
    R2 = PolyRing(["x", "y"])
    gb = buchberger([R2.parse("x^2"), R2.parse("y^3")])
    mono_texts = [p.text() for p in standard_monomials(gb, 4)]
    assert mono_texts == ["x", "y", "x*y", "y^2", "x*y^2"]
    assert all(not gb.is_standard(g.lead_exps()) for g in gb)


def test_ideal_multigrading(R):
    gb = buchberger([R.parse("x*y - z^2")])
    weights = ideal_multigrading(gb)
    assert len(weights) == 2
    for w in weights:
        for g in gb:
            values = {sum(wi * e for wi, e in zip(w, exps)) for exps in g.terms}
            assert len(values) == 1


def test_ideal_multigrading_trivial_cases(R):
    # a monomial ideal is homogeneous under every grading
    assert len(ideal_multigrading(buchberger([R.parse("x*y^2")]))) == 3
    # x + 1 only under the zero weight on x
    gb = buchberger([R.parse("x + 1")])
    weights = ideal_multigrading(gb)
    assert all(w[0] == 0 for w in weights)


def test_witness_found_for_square_free_generatorless_radical():
    L = PolyRing(["x", "y"])
    assert nilpotent_witness_search(buchberger([L.parse("x^2 - y^2")]), 2, 3) is None


def test_witness_single_monomial():
    L = PolyRing(["x", "y"])
    w = nilpotent_witness_search(buchberger([L.parse("x^2*y")]), 2, 2)
    assert (w.element.text(), w.power) == ("x*y", 2)
    gb = buchberger([L.parse("x^2*y")])
    assert gb.normal_form(w.element)
    assert not gb.normal_form(w.element ** w.power)


def test_witness_needs_two_terms():
    # no standard monomial is nilpotent here; the paired phase finds x + y
    L = PolyRing(["x", "y"])
    gb = buchberger([L.parse("x^2 + 2*x*y + y^2")])
    w = nilpotent_witness_search(gb, 1, 2)
    assert (w.element.text(), w.power) == ("x + y", 2)
    again = nilpotent_witness_search(gb, 1, 2)
    assert again.element == w.element and again.power == w.power


def test_witness_power_bound_respected():
    L = PolyRing(["x"])
    gb = buchberger([L.parse("x^4")])
    assert nilpotent_witness_search(gb, 1, 3) is None
    w = nilpotent_witness_search(gb, 1, 4)
    assert (w.element.text(), w.power) == ("x", 4)


def test_witness_guards():
    L = PolyRing(["x", "y"])
    gb = buchberger([L.parse("x^2*y")])
    with pytest.raises(ValueError):
        nilpotent_witness_search(gb, 0, 2)
    with pytest.raises(ValueError):
        nilpotent_witness_search(gb, 2, 1)
    with pytest.raises(BudgetExceeded):
        nilpotent_witness_search(gb, 3, 3, max_ops=2)


def test_witness_search_rejects_negative_budgets():
    L = PolyRing(["x", "y"])
    gb = buchberger([L.parse("x^2*y")])
    for budget in ({"max_ops": -1}, {"trials": -1}, {"max_ops": -5, "trials": 3}):
        with pytest.raises(ValueError, match="must be nonnegative"):
            nilpotent_witness_search(gb, 2, 2, **budget)
    # zero is a budget: no reduction at all, or no random trial
    with pytest.raises(BudgetExceeded):
        nilpotent_witness_search(gb, 2, 2, max_ops=0)
    assert nilpotent_witness_search(buchberger([L.parse("x^2 - y^2")]), 2, 3,
                                    trials=0) is None


def test_witness_phase_one_takes_standard_monomials_as_normal_forms(d4_groebner,
                                                                   monkeypatch):
    # the seed-0 (3, 4) search charges 2,697 reductions.  The fourth power of
    # each of the 376 standard monomials is standard, so phase 1 takes no
    # normal form at all; the budget still charges it four per monomial.
    # The search reads every product's normal form by linearity from one
    # table, so it reduces single monomials only, each at most once, and a
    # miss never calls normal_form (which only re-verifies a hit).  1,485 of
    # the 1,556 monomials reduced are standard, and _reduce hands each back
    # after one lead scan, so only the other 71 build a heap
    calls, reduced, heaps = [], [], []
    normal_form, reduce = GroebnerBasis.normal_form, polynomials._reduce
    heapify = polynomials.heapq.heapify

    def counting(self, f):
        calls.append(f)
        return normal_form(self, f)

    def recording(f, reducers):
        reduced.append(f)
        return reduce(f, reducers)

    def heaping(heap):
        heaps.append(heap)
        return heapify(heap)

    monkeypatch.setattr(GroebnerBasis, "normal_form", counting)
    monkeypatch.setattr(polynomials, "_reduce", recording)
    monkeypatch.setattr(polynomials.heapq, "heapify", heaping)
    assert nilpotent_witness_search(d4_groebner, 3, 4, seed=0) is None
    monkeypatch.undo()
    assert len(standard_monomials(d4_groebner, 3)) == 376
    assert calls == []
    assert len(reduced) == 1_556 and len(heaps) == 71
    assert reduced and all(len(f._terms) == 1 and next(iter(f._terms.values())) == 1
                           for f in reduced)
    assert len({next(iter(f._terms)) for f in reduced}) == len(reduced)
    with pytest.raises(BudgetExceeded, match="exceeded 2696 reductions"):
        nilpotent_witness_search(d4_groebner, 3, 4, seed=0, max_ops=2696)
    assert nilpotent_witness_search(d4_groebner, 3, 4, seed=0, max_ops=2697) is None


def test_witness_budget_bounds_the_enumeration(d4_groebner, monkeypatch):
    # 12 variables have C(20, 8) - 1 = 125,969 monomials of degree 1..8, but
    # a budget of ten reductions runs out among the degree-1 monomials and
    # their squares; every divisibility test goes through _divisor, so the
    # degrees it sees are 0 (the unit-ideal check), 1 and 2
    seen = []
    divisor, top = polynomials._divisor, d4_groebner.ring._top

    def recording(m, reducers, guards):
        seen.append(m >> top)
        return divisor(m, reducers, guards)

    monkeypatch.setattr(polynomials, "_divisor", recording)
    with pytest.raises(BudgetExceeded, match="exceeded 10 reductions"):
        nilpotent_witness_search(d4_groebner, 8, 2, max_ops=10)
    assert set(seen) == {0, 1, 2}


# ideals with a witness that phase 1, phase 2 or phase 3 finds; in the last,
# x^2 is not standard, so (x*y)^2 is not either, though no lead using y
# divides it, and phase 1 must probe x*y to find it
WITNESS_IDEALS = [
    ["x^2*y"],
    ["x^2 + 2*x*y + y^2"],
    ["x^2 + 2*x*y + y^2 + 2*x*z + 2*y*z + z^2"],
    ["x^2 - z", "y*z"],
]


def _witness_basis(name, fixtures):
    if name in fixtures:
        return fixtures[name]
    ring = PolyRing(["x", "y", "z"])
    texts = (R_IDEALS if name[0] == "R" else WITNESS_IDEALS)[int(name[1:])]
    return buchberger([ring.parse(t) for t in texts])


def _witness_outcome(search, gb, max_deg, max_pow, seed, trials, max_ops=None):
    """The witness text and power, None, or the BudgetExceeded message."""
    try:
        w = search(gb, max_deg, max_pow, seed=seed, trials=trials, max_ops=max_ops)
    except BudgetExceeded as exc:
        return str(exc)
    return None if w is None else (w.element.text(), w.power)


class _Tally:
    """A budget that never runs out and keeps the largest count held up to it.

    The search compares ``ops > max_ops``, which Python answers here.
    """

    def __init__(self):
        self.most = 0

    def __lt__(self, count):
        self.most = max(self.most, count)
        return False


WITNESS_BASES = (["D4", "A3"] + [f"R{i}" for i in range(len(R_IDEALS))]
                 + [f"W{i}" for i in range(len(WITNESS_IDEALS))])
# (basis, max_deg, max_pow, seed, trials); few trials keep phase 3 short
WITNESS_GRID = (
    [("D4", *case) for case in [(1, 2, 0, 200), (2, 2, 1, 10), (2, 3, 0, 10),
                                (3, 2, 2, 10), (3, 4, 0, 10), (4, 3, 0, 10),
                                (5, 6, 0, 10)]]
    + [("A3", *case) for case in [(1, 3, 0, 50), (2, 2, 1, 10), (3, 4, 0, 10),
                                  (4, 3, 2, 10)]]
    + [(f"R{i}", *case) for i in range(len(R_IDEALS))
       for case in [(1, 2, 0, 200), (2, 3, 1, 10), (3, 2, 2, 10), (4, 4, 0, 10)]]
    + [(f"W{i}", *case) for i in range(len(WITNESS_IDEALS))
       for case in [(1, 2, 0, 200), (2, 3, 1, 10), (1, 2, 3, 200), (2, 2, 0, 25)]]
)


@pytest.mark.parametrize("name,max_deg,max_pow,seed,trials", WITNESS_GRID)
def test_witness_search_matches_the_reference(d4_groebner, a3_groebner, name, max_deg,
                                              max_pow, seed, trials):
    gb = _witness_basis(name, {"D4": d4_groebner, "A3": a3_groebner})
    args = (gb, max_deg, max_pow, seed, trials)
    tally = _Tally()
    want = _witness_outcome(reference_nilpotent_witness_search, *args, tally)
    assert _witness_outcome(nilpotent_witness_search, *args) == want
    needed = tally.most
    # every cut-off inside the first few probes, one midway, and the threshold
    spread = set(range(3 * max_pow + 2)) | {needed // 2, max(needed - 1, 0), needed}
    for ops in sorted(spread):
        got = _witness_outcome(nilpotent_witness_search, *args, ops)
        assert got == _witness_outcome(reference_nilpotent_witness_search, *args, ops)
        assert got == (want if ops >= needed else f"witness search exceeded {ops} reductions")


@pytest.mark.parametrize("name", WITNESS_BASES)
def test_standard_monomials_match_the_reference(d4_groebner, a3_groebner, name):
    gb = _witness_basis(name, {"D4": d4_groebner, "A3": a3_groebner})
    for d in range(7):
        assert standard_monomials(gb, d) == reference_standard_monomials(gb, d)


# ideals that the total degree does not grade: x and y^2 share a weight
INHOMOGENEOUS_IDEALS = [
    (["x", "y"], ["x^2 + 2*x*y^2 + y^4"]),
    (["x", "y", "z", "w"], ["x^2 + 2*x*y^2 + y^4", "z^2 - w^2"]),
    (["x", "y", "z"], ["x^2 + 2*x*y^2 + y^4", "z^3 - z"]),
]


def test_witness_pairs_a_class_that_spans_two_degrees():
    # (x + y^2)^2 is the first generator; x and y^2 differ in degree only
    names, texts = INHOMOGENEOUS_IDEALS[1]
    ring = PolyRing(names)
    gb = buchberger([ring.parse(t) for t in texts])
    w = nilpotent_witness_search(gb, 2, 2, trials=0)
    assert (w.element.text(), w.power) == ("y^2 + x", 2)


@pytest.mark.parametrize("names,texts",
                         [(["x", "y", "z"], texts) for texts in R_IDEALS + WITNESS_IDEALS]
                         + INHOMOGENEOUS_IDEALS,
                         ids=[f"R{i}" for i in range(len(R_IDEALS))]
                         + [f"W{i}" for i in range(len(WITNESS_IDEALS))]
                         + [f"I{i}" for i in range(len(INHOMOGENEOUS_IDEALS))])
def test_witness_search_finds_every_square_zero_pair(names, texts):
    # a brute force over m ± m' of distinct standard monomials: when one
    # squares into the ideal, the search with no random trial finds a witness
    ring = PolyRing(names)
    gb = buchberger([ring.parse(t) for t in texts])
    for max_deg in (1, 2, 3):
        monos = standard_monomials(gb, max_deg)
        paired = any(not gb.normal_form((m + s * m2) ** 2)
                     for m, m2 in itertools.combinations(monos, 2) for s in (1, -1))
        if paired:
            w = nilpotent_witness_search(gb, max_deg, 2, trials=0)
            assert w is not None, (texts, max_deg)
            assert gb.normal_form(w.element) and not gb.normal_form(w.element ** w.power)


def test_d4_groebner_shape(d4_groebner):
    assert len(d4_groebner) == 22
    weights = ideal_multigrading(d4_groebner)
    # three independent vertex scalings survive killing the global one,
    # plus total degree
    assert len(weights) >= 4
    for w in weights:
        for g in d4_groebner:
            values = {sum(wi * e for wi, e in zip(w, exps)) for exps in g.terms}
            assert len(values) == 1


def test_ideal_multigrading_matches_the_dense_reference(d4_groebner, R, monkeypatch):
    bases = [d4_groebner] + [buchberger([R.parse(t) for t in gens]) for gens in R_IDEALS]
    got = [ideal_multigrading(gb) for gb in bases]
    monkeypatch.setattr(polynomials, "nullspace", reference_nullspace)
    assert got == [ideal_multigrading(gb) for gb in bases]


def _random_poly(ring, rng, terms=4, max_exp=2):
    out = ring.zero()
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_exp) if rng.random() < 3 / ring.nvars else 0
                     for _ in range(ring.nvars))
        out = out + ring.monomial(exps, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return out


def _assert_trusted(f):
    """Only nonzero exact Fractions, and what the validating constructor keeps."""
    assert all(type(c) is Fraction and c for c in f.terms.values())
    assert f.terms == Polynomial(f.ring, f.terms).terms


@pytest.mark.parametrize("seed", range(6))
def test_arithmetic_keeps_coefficients_nonzero_fractions(R, seed, d4_groebner):
    rng = random.Random(seed)
    f = _random_poly(R, rng, terms=5)
    g = _random_poly(R, rng, terms=3) - f   # every term of f cancels in f + g
    S = PolyRing(["u", "v"])
    u, v = S.variable("u"), S.variable("v")
    images = {"x": u - u, "y": u + v, "z": S.constant(Fraction(3, 2))}
    results = [f + g, f - f, f - g, -f, f * g, (f + g) * (f - g), f * R.zero(),
               f.scale(0), f.scale(Fraction(-2, 3)), f.scale(3), f.scale(0.5), 2 * f,
               f ** 0, f ** 3,
               f.substitute(S, images), (f - f).substitute(S, images),
               R.constant(0), R.one(), R.variable("y"), R.zero()]
    results += [gb.normal_form(f * g) for gb in _r_bases(R)]
    results += list(buchberger([f, g])) if f and g else []
    for h in results:
        _assert_trusted(h)
    assert f + (-f) == R.zero() and f - f == R.zero() and f.scale(0) == R.zero()
    ring = d4_groebner.ring
    h = _random_poly(ring, rng) * _random_poly(ring, rng, terms=2)
    _assert_trusted(d4_groebner.normal_form(h))


def test_evaluate_needs_only_the_variables_it_uses(R):
    f = R.parse("x^2*y - 3/2*y + 1")
    env = {"x": 2, "y": Fraction(1, 3)}   # no z: no term uses it
    assert f.evaluate(env) == Fraction(4, 3) - Fraction(1, 2) + 1
    assert type(f.evaluate(env)) is Fraction
    with pytest.raises(ValueError, match="no value for variable 'y'"):
        f.evaluate({"x": 1, "z": 1})
    assert R.zero().evaluate({}) == 0 and R.constant(5).evaluate({}) == 5


@pytest.mark.parametrize("seed", range(8))
def test_substitute_matches_the_reference_loop(R, seed):
    # one-term and constant images multiply as one packed monomial and one
    # coefficient, longer ones as polynomials; either way the image matches
    # the reference in values and ``_tuple_substitute`` in dict order
    rng = random.Random(seed)
    S = PolyRing(["x", "u", "v"])
    f = _random_poly(R, rng, terms=6, max_exp=3) + R.parse("x^3*y^2*z - 5/4*x*z^2 + 2")
    image = lambda: _random_poly(S, rng, terms=rng.randint(0, 3))
    scaled = S.parse("-2/3*u^2")
    cases = [
        {"x": image(), "y": image(), "z": image()},
        {"y": image(), "z": S.zero()},                       # x keeps its name
        {"x": Fraction(rng.randint(-3, 3), 2), "y": 0, "z": image()},
        {"x": S.parse("u - v"), "y": S.parse("v - u"), "z": S.parse("u + v")},
        {"x": scaled, "y": S.parse("5*u*v"), "z": S.parse("v")},
        {"y": 3, "z": Fraction(-5, 7)},
        {"x": scaled, "y": S.constant(Fraction(1, 2)), "z": 0},
        {"x": S.zero(), "y": scaled, "z": S.parse("u")},
        {"x": scaled, "y": S.parse("u - 2*v + 1"), "z": S.parse("-v^2")},
    ]
    for images in cases:
        got = f.substitute(S, images)
        _assert_trusted(got)
        assert got.terms == reference_substitute(f, S, images)
        assert _items(got) == list(_tuple_substitute(f, S, images).items())
    # an image is checked the first time a term uses it, so never behind a
    # zero factor earlier in variable order, nor on an unused variable
    with pytest.raises(ValueError, match="different ring"):
        R.parse("x*y").substitute(S, {"x": R.variable("x"), "y": S.zero()})
    foreign = R.variable("y")
    assert R.parse("x*y").substitute(S, {"x": S.zero(), "y": foreign}) == S.zero()
    assert R.parse("x - 1").substitute(S, {"y": foreign}) == S.parse("x - 1")
    for images in ({"y": foreign}, {"y": R.parse("2*y")}, {"y": R.one()}):
        with pytest.raises(ValueError, match="different ring"):
            R.parse("x + y").substitute(S, images)


def test_substitute_multiplies_only_longer_images(R, monkeypatch):
    calls = []
    real = Polynomial._sum_of_products
    monkeypatch.setattr(Polynomial, "_sum_of_products",
                        lambda self, xs, ys: calls.append(1) or real(self, xs, ys))
    S = PolyRing(["u", "v"])
    f = R.parse("x^3*y^2*z - 2*x*y + z^4 + 1")
    one_term = {"x": S.parse("-2/3*u^2"), "y": 3, "z": S.parse("v")}
    assert f.substitute(S, one_term) == S.parse("-8/3*u^6*v + 4*u^2 + v^4 + 1")
    assert calls == []
    # z's image has two terms: z^2, z^3 and z^4 take one product each
    f.substitute(S, {**one_term, "z": S.parse("u + v")})
    assert len(calls) == 3
    calls.clear()
    # two longer images in one term multiply once
    R.parse("x*y*z").substitute(S, {"x": S.parse("u - 1"), "y": S.parse("v"),
                                    "z": S.parse("u + v")})
    assert len(calls) == 1


def _criterion_07_maps():
    """add_pullback's homs on doubled D4 at delta_k, for the twenty pairs of
    zero modules criterion 07 and the bench draw, legs relabelled as the
    bench does at seed 0: (hom, target ring, image table, polynomials) for
    the second map of each pair, then the first, on what the second gives."""
    quiver = build_doubled_dynkin("D", 4)
    coords = RepCoordinates(quiver, delta_k("D", 4))
    rels = preprojective_relations(quiver)
    relabel = random.Random(0)
    for shape in range(20):
        rng = random.Random(911 + shape)
        legs = dict(zip("134", relabel.sample("134", 3)))
        modules = []
        for bound in (2, 1):
            dims = {u: rng.randint(0, bound) for u in "1234"}
            if not any(dims.values()):
                dims[rng.choice("1234")] = 1
            modules.append(zero_module(quiver, {legs.get(u, u): n for u, n in dims.items()}))
        v, w = modules
        big1, hom1 = add_pullback(coords, v.dims, v.matrices, rels)
        big2, hom2 = add_pullback(big1, w.dims, w.matrices, rels)
        polys = [g.polynomial for g in invariant_generators(big2, cycle_bound=4, path_bound=0)]
        yield hom2, big1.ring, reference_pullback_images(big1, big2.dims, w.matrices), polys
        yield (hom1, coords.ring, reference_pullback_images(coords, big1.dims, v.matrices),
               [hom2(g) for g in polys])


def test_substitute_on_the_criterion_07_pullbacks():
    # every image is a variable or zero
    for hom, target, table, fs in _criterion_07_maps():
        assert all(p.degree <= 1 and len(p.terms) <= 1 and set(p.terms.values()) <= {1}
                   for p in table.values())
        for f in fs:
            image = hom(f)
            assert image.terms == reference_substitute(f, target, table)
            assert _items(image) == list(_tuple_substitute(f, target, table).items())


def test_criterion_07_maps_decode_only_the_surviving_terms(monkeypatch):
    # a term that meets a zero image is dropped by one mask test on its packed
    # monomial: only the terms that reach the result are decoded
    calls = []
    real = PolyRing._factors
    monkeypatch.setattr(PolyRing, "_factors", lambda self, m: calls.append(m) or real(self, m))
    seen = kept = 0
    for hom, _, table, fs in _criterion_07_maps():
        for f in fs:
            zero = [i for i, x in enumerate(f.ring.variables) if not table[x]]
            survivors = sum(not any(exps[i] for i in zero) for exps in f.terms)
            del calls[:]
            hom(f)
            assert len(calls) == survivors
            seen, kept = seen + len(f.terms), kept + survivors
    assert 0 < kept < seen // 2


def test_criterion_07_maps_resolve_their_images_once(monkeypatch):
    # resolving an image compares its ring with the target: after the map is
    # built, a call compares only its argument's ring with the source's
    calls = []
    real = PolyRing.__eq__
    monkeypatch.setattr(PolyRing, "__eq__",
                        lambda self, other: calls.append(1) or real(self, other))
    for hom, _, _, fs in _criterion_07_maps():
        for f in fs + fs:
            del calls[:]
            hom(f)
            assert len(calls) == 1


@pytest.mark.parametrize("order", ORDERS)
def test_ring_maps_raise_in_variable_order_behind_the_masks(order):
    # a term that meets a zero image skips its walk only when no failed image
    # and no overflow could come first: a foreign image, an unmapped name the
    # target lacks, a non-number or an overflow raises before a later zero
    # factor, as the walk in variable order does, and never behind an earlier one
    T = PolyRing(["y", "w"], order)
    y30 = T.monomial((2 ** 30, 0))
    foreign = PolyRing(["p"]).variable("p")
    overflow = (OverflowError, f"monomial degree {2 ** 31} is not below 2^31")
    with pytest.raises(ValueError) as info:
        Fraction("one")
    not_a_number = (ValueError, str(info.value))
    quiver = Quiver(["0"], [Arrow("p", "0", "0"), Arrow("q", "0", "0")], {"0": "K"})
    coords = RepCoordinates(quiver, {"0": 1})
    for text, p, q, want in (   # None leaves the variable without an image
            ("p*q + 2", foreign, 0, (ValueError, "image lies in a different ring")),
            ("p*q + 2", 0, foreign, T.constant(2)),
            ("p*q + 2", None, 0, (ValueError, "unknown variable {p!r}")),
            ("p*q + 2", 0, None, T.constant(2)),
            ("p*q + 2", "one", 0, not_a_number),
            ("p*q + 2", 0, "one", T.constant(2)),
            ("p^2*q + q", y30, 0, overflow),
            ("p*q^2 + q", 0, y30, y30)):
        image = SimpleNamespace(matrices={"p": SimpleNamespace(data=((p,),)),
                                          "q": SimpleNamespace(data=((q,),))})
        hom = repscheme._ring_map(coords, T, image, "loop")
        R = PolyRing(["p", "q"], order)
        images = {x: v for x, v in (("p", p), ("q", q)) if v is not None}
        xp, xq = coords.ring.variables
        for apply, f, name in (
                (lambda f: f.substitute(T, images), R.parse(text), "p"),
                (hom, coords.ring.parse(text.replace("p", xp).replace("q", xq)), xp)):
            if isinstance(want, Polynomial):
                assert _items(apply(f)) == _items(want)
                continue
            with pytest.raises(want[0]) as info:
                apply(f)
            assert str(info.value) == want[1].format(p=name)


@pytest.mark.parametrize("k", [1, 2])
def test_corner_comparison_map_keeps_the_tuple_dict_order(framed_a1, framed_a1_corner, k):
    # a corner generator's image sums k products of two coordinates: at k = 2
    # they multiply as polynomials, through powers the map keeps between calls
    quiver, pres = framed_a1[0], framed_a1_corner[2]
    coords = RepCoordinates(quiver, DimensionVector({"∞": 1, "0": 1, "1": k}))
    small, hom = corner_comparison_map(pres, coords)
    table = reference_comparison_images(pres, coords, small.dims)
    assert max(len(p.terms) for p in table.values()) == k
    polys = [g.polynomial for g in invariant_generators(small, cycle_bound=3, path_bound=2)]
    for f in polys + [f * g for f, g in zip(polys, polys[1:])]:
        assert _items(hom(f)) == list(_tuple_substitute(f, coords.ring, table).items())


def test_power_takes_n_minus_one_products(R, monkeypatch):
    f = R.parse("x + 2*y - 1")
    want = f * f * f * f * f
    calls = []
    real = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__",
                        lambda a, b: calls.append(1) or real(a, b))
    assert f ** 5 == want and len(calls) == 4
    assert f ** 1 == f and len(calls) == 4
    assert f ** 0 == R.one() and R.zero() ** 0 == R.one()
    with pytest.raises(ValueError, match="negative power"):
        f ** -1


def test_subtraction_builds_no_negated_copy(R, monkeypatch):
    f, g = R.parse("x^2 - y + 3"), R.parse("x^2 + 2*z + 3")
    want = f + (-g)
    monkeypatch.setattr(Polynomial, "__neg__", None)
    assert f - g == want == R.parse("-y - 2*z")


def _r_bases(R):
    return [buchberger([R.parse(t) for t in texts]) for texts in R_IDEALS]


def _test_bases(R, d4_groebner):
    """R_IDEALS in both orders, WIDE_IDEAL in both orders, and D4."""
    L = PolyRing(R.variables, order="lex")
    bases = _r_bases(R) + _r_bases(L)
    for order in ORDERS:
        W = PolyRing(WIDE, order=order)
        bases.append(buchberger([W.parse(t) for t in WIDE_IDEAL]))
    return bases + [d4_groebner]


def test_normal_form_matches_reference_division(R, d4_groebner):
    rng = random.Random(11)
    bases = _test_bases(R, d4_groebner)
    assert {gb.ring.order for gb in bases} == set(ORDERS)
    assert max(gb.ring.nvars for gb in bases) > 8
    for gb in bases[:-1]:
        for _ in range(25):
            f = _random_poly(gb.ring, rng, max_exp=3)
            assert gb.normal_form(f).terms == reference_reduce(f, gb.polys)
    ring = d4_groebner.ring
    for _ in range(40):
        f = _random_poly(ring, rng) * _random_poly(ring, rng, terms=2)
        assert d4_groebner.normal_form(f).terms == reference_reduce(f, d4_groebner.polys)


def test_normal_form_by_a_non_monic_basis_matches_reference_division(R, d4_groebner):
    # a GroebnerBasis built by hand may hold any lead coefficient; each
    # reduction step then divides by it
    rng = random.Random(12)
    for gb in _test_bases(R, d4_groebner):
        scaled = GroebnerBasis(gb.ring, tuple(
            g.scale(rng.choice([2, -3, Fraction(1, 2), Fraction(-5, 3)])) for g in gb.polys))
        for _ in range(10):
            f = _random_poly(gb.ring, rng, max_exp=3)
            nf = scaled.normal_form(f)
            assert list(nf.terms.items()) == list(reference_reduce(f, scaled.polys).items())


def test_normal_form_by_a_unit_basis_divides_never(R, d4_groebner, monkeypatch):
    # every coefficient of these reduced bases (all but D4's) is 1 or -1;
    # the update multiplies only by a scale other than ±1, and never divides
    bases = _test_bases(R, d4_groebner)[:-1]
    assert all(abs(c) == 1 for gb in bases for g in gb for c in g.terms.values())
    rng = random.Random(13)
    inputs = [(gb, _random_poly(gb.ring, rng, max_exp=3)) for gb in bases for _ in range(10)]
    calls = {"__truediv__": [], "__mul__": []}
    for name, seen in calls.items():
        def counting(a, b, op=getattr(Fraction, name), seen=seen):
            seen.append(a)
            return op(a, b)
        monkeypatch.setattr(Fraction, name, counting)
    for gb, f in inputs:
        gb.normal_form(f)
    monkeypatch.undo()
    assert calls["__truediv__"] == []
    assert calls["__mul__"] and all(abs(scale) != 1 for scale in calls["__mul__"])


@pytest.mark.parametrize("order", ORDERS)
def test_normal_form_survives_a_cancelled_and_recreated_term(order):
    # x^2 > y^2 > z^2 in both orders.  Reducing x^2 cancels the waiting z^2;
    # reducing y^2 then creates z^2 again, while the cancelled entry is still
    # queued.  In the second case z^2 is cancelled and never comes back.
    R = PolyRing(["x", "y", "z"], order=order)
    gb = buchberger([R.parse("x^2 - z^2"), R.parse("y^2 - z^2")])
    assert gb.texts() == ["y^2 - z^2", "x^2 - z^2"]
    cases = {"x^2 + y^2 - z^2": "z^2", "x^2 - z^2": "0",
             "x^2*y^2 - z^4 + y^2*z^2": "z^4"}
    for text, want in cases.items():
        f = R.parse(text)
        nf = gb.normal_form(f)
        assert nf.terms == reference_reduce(f, gb.polys)
        assert nf.text() == want


def test_reduce_hands_a_single_standard_term_back(d4_groebner):
    # a remainder modulo a Gröbner basis is unique, so a standard monomial,
    # at any coefficient, is its own; a single nonstandard term is reduced
    reducers = d4_groebner._reducers
    for m in standard_monomials(d4_groebner, 2)[::7]:
        for f in (m, m.scale(Fraction(-3, 2))):
            assert polynomials._reduce(f, reducers) is f
    lead = d4_groebner.polys[0]
    one_term = Polynomial(lead.ring, {lead.lead_exps(): Fraction(1)})
    nf = polynomials._reduce(one_term, reducers)
    assert nf is not one_term and nf.terms == reference_reduce(one_term, d4_groebner.polys)


def test_division_follows_list_order(R):
    # x^2*y: x*y - 1 first leaves x, x^2 - y first leaves y^2; neither list
    # is a Gröbner basis, so the first dividing lead must win
    f, g1, g2 = R.parse("x^2*y"), R.parse("x*y - 1"), R.parse("x^2 - y")
    for gs, want in (([g1, g2], "x"), ([g2, g1], "y^2")):
        nf = polynomials._reduce(f, [(g._lead(), g) for g in gs])
        assert nf.terms == reference_reduce(f, gs) and nf.text() == want


def test_buchberger_matches_the_reference_loop(R, d4_rep_ideal, d4_groebner):
    L = PolyRing(R.variables, order="lex")
    # repeated, proportional and dividing leads, then the unit ideal: the
    # minimalization's ties
    ties = [["x^2 - y", "x^2 - y", "3*x^2 - 3*y", "x^2*y - z", "x*y - z^2"],
            ["x", "x - 1"]]
    cases = [[ring.parse(t) for t in texts] for ring in (R, L)
             for texts in R_IDEALS + ties]
    cases += [[PolyRing(WIDE, order=order).parse(t) for t in WIDE_IDEAL]
              for order in ORDERS]
    for gens in cases:
        gb, want = buchberger(gens), reference_buchberger(gens)
        assert gb.texts() == want.texts() and gb == want
    _, ideal = d4_rep_ideal
    want = reference_buchberger(ideal.nonzero_generators())
    assert len(want) == 22 and d4_groebner.texts() == want.texts()
    # framed affine A1 at (∞, 0, 1) = (1, 2, 2): 18 variables
    quiver, rels = framed_affine_preprojective("A", 1)
    coords = RepCoordinates(quiver, DimensionVector({"∞": 1, "0": 2, "1": 2}))
    gens = rep_ideal(coords, rels).nonzero_generators()
    gb = buchberger(gens)
    assert coords.ring.nvars == 18 and len(gb) == 20
    assert gb.texts() == reference_buchberger(gens).texts()


def test_is_standard_matches_brute_force(R, d4_groebner):
    for gb in _test_bases(R, d4_groebner):
        n = gb.ring.nvars
        leads = [g.lead_exps() for g in gb]
        for d in range(5):
            for combo in itertools.combinations_with_replacement(range(n), d):
                exps = tuple(combo.count(i) for i in range(n))
                brute = not any(all(a <= b for a, b in zip(le, exps)) for le in leads)
                assert gb.is_standard(exps) == brute


def test_groebner_basis_equality_ignores_cached_leads(R):
    gb = buchberger([R.parse("x^2 - y"), R.parse("y^3 - z")])
    twin = GroebnerBasis(R, tuple(R.parse(t) for t in gb.texts()))
    assert twin is not gb and twin == gb and hash(twin) == hash(gb)
    assert repr(twin) == repr(gb) and "leads" not in repr(gb)
    assert gb.leads == tuple((g.lead_exps(), g) for g in gb.polys)
    assert GroebnerBasis(R, ()) != gb


@pytest.mark.parametrize("stale,message", [
    ("unreduced", "incremental and direct reductions disagree"),
    ("zero", "witness unexpectedly lies in the ideal"),
])
def test_witness_search_rechecks_hits_under_optimization(stale, message):
    # the search reads its normal forms from its own table and calls
    # normal_form only to re-verify a hit, so a basis whose normal_form
    # answers wrongly from its first call must make the search raise, also
    # with assert statements compiled away (python -O)
    script = textwrap.dedent(f"""
        from quiverlab.polynomials import GroebnerBasis, PolyRing, buchberger
        from quiverlab.polynomials import nilpotent_witness_search

        class Forgetful(GroebnerBasis):
            def normal_form(self, f):
                return f if {stale!r} == "unreduced" else self.ring.zero()

        L = PolyRing(["x", "y"])
        gb = buchberger([L.parse("x^2*y")])
        try:
            nilpotent_witness_search(Forgetful(gb.ring, gb.polys), 2, 2)
        except AssertionError as exc:
            print("raised:", exc)
        else:
            print("returned")
    """)
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"raised: {message}"


# -- sympy as an independent oracle (test-only dependency) ---------------------


@pytest.fixture
def sympy():
    return pytest.importorskip("sympy")


def _sympy_gens(sympy, ring):
    return [sympy.Symbol(name) for name in ring.variables]


def _to_sympy(sympy, f, gens):
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*[v ** e for v, e in zip(gens, exps)])
        for exps, c in f.terms.items()])


def _from_sympy(sympy, expr, gens) -> dict:
    poly = sympy.Poly(expr, *gens)
    return {exps: Fraction(int(c.p), int(c.q)) for exps, c in poly.terms() if c}


def _assert_same_ideal_as_sympy(sympy, gens, gb):
    sym_gens = _sympy_gens(sympy, gb.ring)
    G = sympy.groebner([_to_sympy(sympy, g, sym_gens) for g in gens], *sym_gens,
                       order="grevlex")
    assert len(gb) == len(G.exprs)
    assert all(G.contains(_to_sympy(sympy, g, sym_gens)) for g in gb)
    for expr in G.exprs:
        member, _ = gb.ideal_member(Polynomial(gb.ring, _from_sympy(sympy, expr, sym_gens)))
        assert member


def test_buchberger_agrees_with_sympy_on_d4(sympy, d4_rep_ideal, d4_groebner):
    _, ideal = d4_rep_ideal
    gens = [g for g in ideal.generators if g.terms]
    _assert_same_ideal_as_sympy(sympy, gens, d4_groebner)


def test_buchberger_agrees_with_sympy_on_random_ideals(sympy, R):
    rng = random.Random(5)
    for _ in range(8):
        gens = [_random_poly(R, rng, terms=rng.randint(2, 3))
                for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if g]
        _assert_same_ideal_as_sympy(sympy, gens, buchberger(gens))


def test_normal_form_agrees_with_sympy_remainder(sympy, R, d4_groebner):
    rng = random.Random(3)
    for gb in _r_bases(R) + [d4_groebner]:
        ring = gb.ring
        sym_gens = _sympy_gens(sympy, ring)
        divisors = [_to_sympy(sympy, g, sym_gens) for g in gb]
        for _ in range(10):
            f = _random_poly(ring, rng, max_exp=3) * _random_poly(ring, rng, terms=2)
            _, rem = sympy.reduced(_to_sympy(sympy, f, sym_gens), divisors, *sym_gens,
                                   order="grevlex")
            assert gb.normal_form(f).terms == _from_sympy(sympy, rem, sym_gens)


# -- the packed layer ---------------------------------------------------------
#
# Monomials are packed integers inside the module; plain loops over exponent
# tuples must give the same results, the dict order of ``terms`` included,
# on a seeded grid of ring sizes under both orders.

GRID = [(n, order) for n in (0, 1, 3, 12, 46, 80) for order in ORDERS]
TOP = 2 ** 31 - 1   # the largest total degree a monomial may have


def _grid_ring(n, order):
    return PolyRing([f"t{i}" for i in range(n)], order)


def _sparse_poly(ring, rng, terms, support, max_exp=3):
    """A nonzero polynomial whose exponents lie on the ``support`` variables."""
    out = {}
    for _ in range(terms):
        exps = [0] * ring.nvars
        for i in support:
            exps[i] = rng.randint(0, max_exp)
        out[tuple(exps)] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
    return Polynomial(ring, out)


def _tuple_sum(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + sign * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _tuple_product(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def _tuple_substitute(f, target, images):
    """f's image term by term: the images of its variables in variable order,
    each power built by products from the one below, multiplied left to right.

    ``reference_substitute`` multiplies one factor at a time, so only its
    values, not its dict order, match the cached powers.
    """
    powers = {}

    def power(i, e):
        if i not in powers:
            img = images.get(f.ring.variables[i])
            if img is None:
                img = target.variable(f.ring.variables[i])
            elif not isinstance(img, Polynomial):
                img = target.constant(img)
            powers[i] = [dict(img.terms)]
        known = powers[i]
        while len(known) < e:
            known.append(_tuple_product(known[-1], known[0]))
        return known[e - 1]

    total = {}
    for exps, c in f.terms.items():
        term = None
        for i, e in enumerate(exps):
            if e:
                p = power(i, e)
                term = p if term is None else _tuple_product(term, p)
                if not term:
                    break
        if term is None:
            term = {(0,) * target.nvars: 1}
        total = _tuple_sum(total, {k: c * v for k, v in term.items()})
    return total


def _tuple_text(ring, terms):
    """Terms from the largest monomial down, each as sign and body."""
    if not terms:
        return "0"
    parts = []
    for exps, c in sorted(terms.items(), key=lambda it: _order_key(ring, it[0]),
                          reverse=True):
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(ring.variables, exps) if e]
        mag = abs(c)
        num = str(mag.numerator) if mag.denominator == 1 else str(mag)
        body = "*".join(factors if factors and mag == 1 else [num] + factors)
        parts.append(("-" if c < 0 else "+") + " " + body)
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def _items(p):
    return list(p.terms.items())


@pytest.mark.parametrize("n, order", GRID)
def test_packed_arithmetic_matches_the_tuple_oracles(n, order):
    ring = _grid_ring(n, order)
    target = _grid_ring(n + 1, order)   # images may use one more variable
    for seed in range(3):
        rng = random.Random(100 * n + seed)
        support = rng.sample(range(n), min(n, 3))
        f = _sparse_poly(ring, rng, 5, support)
        g = _sparse_poly(ring, rng, 3, support)
        ft, gt = dict(f.terms), dict(g.terms)
        assert _items(f + g) == list(_tuple_sum(ft, gt).items())
        assert _items(f - g) == list(_tuple_sum(ft, gt, -1).items())
        assert _items(f + (g - f)) == list(_tuple_sum(ft, _tuple_sum(gt, ft, -1)).items())
        assert _items(f * g) == list(_tuple_product(ft, gt).items())
        assert _items(f ** 3) == list(_tuple_product(_tuple_product(ft, ft), ft).items())

        A = [[_sparse_poly(ring, rng, 2, support, 2) for _ in range(2)] for _ in range(2)]
        B = [[_sparse_poly(ring, rng, 2, support, 2) for _ in range(3)] for _ in range(2)]
        got = Mat(2, 2, tuple(map(tuple, A)), ring.zero()) * Mat(2, 3, tuple(map(tuple, B)),
                                                                 ring.zero())
        want = reference_pm_mul(ring.zero(), A, B, 3)
        assert all(_items(got.entry(i, j)) == _items(want[i][j])
                   for i in range(2) for j in range(3))

        images = {ring.variables[i]: _sparse_poly(target, rng, 2, [rng.randrange(n + 1)], 2)
                  for i in support[:2]}
        image = f.substitute(target, images)
        assert image.terms == reference_substitute(f, target, images)
        assert _items(image) == list(_tuple_substitute(f, target, images).items())

        for p in (f, g, f * g, ring.zero()):
            assert p.text() == _tuple_text(ring, p.terms)
            assert ring.parse(p.text()) == p

        gens = [_sparse_poly(ring, rng, 2, support, 2) for _ in range(2)]
        gb = buchberger(gens)
        assert [_items(p) for p in gb] == [_items(p) for p in reference_buchberger(gens)]
        assert gb.leads == tuple((p.lead_exps(), p) for p in gb.polys)
        h = f * g
        assert _items(gb.normal_form(h)) == list(reference_reduce(h, gb.polys).items())


@pytest.mark.parametrize("n, order", GRID)
def test_heap_key_sorts_as_the_order_key(n, order):
    ring = _grid_ring(n, order)
    rng = random.Random(n)
    monos = {(0,) * n}
    for _ in range(80):
        exps = [0] * n
        for _ in range(rng.randint(0, 3) if n else 0):
            exps[rng.randrange(n)] += rng.choice((1, 2, 7, 1000, 2 ** 20))
        monos.add(tuple(exps))
    if n:   # the largest degree, on the first and on the last variable
        monos |= {(TOP,) + (0,) * (n - 1), (0,) * (n - 1) + (TOP,)}
    shuffled = sorted(monos)
    rng.shuffle(shuffled)
    got = [ring._unpack(m) for m in sorted(map(ring._pack, shuffled), key=ring.heap_key)]
    assert got == sorted(shuffled, key=lambda e: _order_key(ring, e), reverse=True)
    assert Polynomial(ring, dict.fromkeys(shuffled, 1)).lead_exps() == got[0]


def test_degree_limit_raises_overflow(R):
    # the largest degree that fits round-trips; one more raises wherever it
    # would be stored: parsing, monomial, the constructor, a product
    assert R.parse(f"x^{TOP}") == R.monomial((TOP, 0, 0))
    assert R.parse(f"x^{TOP}").text() == f"x^{TOP}"
    assert R.monomial((TOP, 0, 0)).degree == TOP
    for make in (lambda: R.parse("x^2147483648"),
                 lambda: R.parse(f"x^{TOP}*z"),
                 lambda: R.monomial((2 ** 31, 0, 0)),
                 lambda: R.monomial((2 ** 30, 2 ** 30, 0)),
                 lambda: Polynomial(R, {(0, 0, 2 ** 31): 1}),
                 lambda: R.monomial((TOP, 0, 0)) * R.parse("y + 1"),
                 lambda: R.monomial((2 ** 30, 0, 0)) ** 2):
        with pytest.raises(OverflowError, match="not below 2\\^31"):
            make()
    # only the largest key is checked, and a result that cancels is zero
    f = R.monomial((TOP, 0, 0)) + R.one()
    assert f * R.zero() == R.zero() and (f * R.one()) == f
    # under lex a shifted tail can have a larger degree than the term it cancels
    L = PolyRing(["x", "y"], order="lex")
    gb = buchberger([L.parse(f"x - y^{TOP}")])
    assert gb.normal_form(L.parse("x")) == L.parse(f"y^{TOP}")
    with pytest.raises(OverflowError):
        gb.normal_form(L.parse("x^2"))


@pytest.mark.parametrize("n, order", GRID)
def test_standard_monomials_match_the_reference_on_the_grid(n, order):
    # per-variable lead lists against the all-lead test, also on the unit
    # ideal (its constant lead uses no variable) and the zero ideal
    ring = _grid_ring(n, order)
    rng = random.Random(n)
    support = rng.sample(range(n), min(n, 3))
    gens = [_sparse_poly(ring, rng, 2, support, 2) for _ in range(2)]
    top = {0: 6, 1: 6, 3: 6, 12: 4, 46: 2, 80: 2}[n]
    for gb in (buchberger(gens), buchberger([ring.one()]), GroebnerBasis(ring, ())):
        for d in (0, 1, top):
            assert standard_monomials(gb, d) == reference_standard_monomials(gb, d)
        if n <= 12:
            for d in range(1, min(top, 4) + 1):
                args = (gb, d, 3, 0, 10)
                assert (_witness_outcome(nilpotent_witness_search, *args)
                        == _witness_outcome(reference_nilpotent_witness_search, *args))


def test_overflow_names_the_true_degree():
    # phase 1 checks the degree of m^max_pow before testing m * max_pow; an
    # exponent of 2^32 or more in the highest variable field would carry into
    # the degree field if it were packed before the check
    xy, x = PolyRing(["x", "y"]), PolyRing(["x"])
    for make, degree in ((lambda: nilpotent_witness_search(
                              buchberger([xy.parse("x^2*y")]), 2, 2 ** 31), 2 ** 31),
                         (lambda: x.parse("x^21474836427"), 21474836427),
                         (lambda: x.monomial((2 ** 32,)), 2 ** 32),
                         (lambda: nilpotent_witness_search(
                             buchberger([x.parse("x^3")]), 1, 2 ** 32), 2 ** 32)):
        with pytest.raises(OverflowError) as info:
            make()
        assert str(info.value) == f"monomial degree {degree} is not below 2^31"


@pytest.mark.parametrize("order", ORDERS)
def test_substitute_overflow_names_the_term_degree(order):
    # each factor's degree joins the term's before its monomial is added or
    # its powers are built, so no field carries; the error names the term's
    # degree so far, in variable order, unless a zero factor came first
    T = PolyRing(["y", "w"], order)
    y30, w30, top = T.monomial((2 ** 30, 0)), T.monomial((0, 2 ** 30)), T.monomial((TOP, 0))
    for names, text, images, degree in (
            (["x"], "x^2", {"x": y30}, 2 ** 31),
            (["x"], "x^4", {"x": top}, 4 * TOP),
            (["x", "z"], "x*z", {"x": y30, "z": w30}, 2 ** 31),
            (["x"], "x^3", {"x": top.scale(3)}, 3 * TOP),
            (["x", "z"], "x^2*z", {"x": y30, "z": 0}, 2 ** 31),
            (["x"], "x^4", {"x": top + T.one()}, 4 * TOP),
            (["x", "z"], "x*z", {"x": y30 + T.one(), "z": w30}, 2 ** 31),
            (["x", "z"], "x*z", {"x": y30, "z": w30 + T.one()}, 2 ** 31)):
        with pytest.raises(OverflowError) as info:
            PolyRing(names).parse(text).substitute(T, images)
        assert str(info.value) == f"monomial degree {degree} is not below 2^31"
    assert PolyRing(["z", "x"]).parse("x^2*z").substitute(T, {"x": y30, "z": 0}) == T.zero()
    below = {"x": y30, "z": T.monomial((2 ** 30 - 1, 0))}
    assert PolyRing(["x", "z"]).parse("-x*z").substitute(T, below) == top.scale(-1)


# -- parsing ------------------------------------------------------------------
#
# ``PolyRing.parse`` reads each term straight into a packed monomial; the
# reference builds every factor by a product and every sum by a copy.  Both
# must give the same polynomial, in the same dict order, or the same error.

PARSE_RINGS = [
    [],
    ["x"],
    ["x", "x1", "y"],
    ["x", "x1", "x_a_1_1", "x_a*_1_1", "y", "y1", "z", "a*b", "a", "b10", "b1", "c"],
]
PARSE_ERRORS = ["w + 1", "x +", "x^", "(x", "x**2", "", "+", "x y", "x^1/2", "1/0*x",
                "x^x", "x^2147483648", "x^2147483647*x", "x +   (yyyyyyyyyyyy"]


def _parse_outcome(parse, ring, text):
    try:
        p = parse(ring, text)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    assert all(type(c) is Fraction and c for c in p.terms.values())
    return list(p.terms.items())


def _random_text(ring, rng):
    """A well-formed polynomial text: signs, whitespace, rational and zero
    coefficients, ``^0``, repeated factors and terms that cancel."""
    def ws():
        return rng.choice(("", "", " ", "  ", "\t", "\n "))

    def term():
        factors = []
        for _ in range(rng.randint(1, 4)):
            if ring.variables and rng.random() < 0.7:
                v = rng.choice(ring.variables)
                e = rng.choice(("",) * 4 + ("0", "1", "2", "5", "2147483647"))
                factors.append(f"{v}{ws()}^{ws()}{e}" if e else v)
            else:
                factors.append(rng.choice(("1", "2", "7", "3/4", "10/5", "0", "0/3")))
        return (ws() + "*" + ws()).join(factors)

    terms = []
    for _ in range(rng.randint(1, 6)):
        if terms and rng.random() < 0.25:   # an earlier term again, often cancelling
            sign, body = rng.choice(terms)
            terms.append(("-" if sign == "+" else "+", body))
        else:
            terms.append((rng.choice("+-"), term()))
    lead = rng.choice(("", terms[0][0]))
    text = ws() + lead + ws() + terms[0][1]
    for sign, body in terms[1:]:
        text += ws() + sign + ws() + body
    return text + ws()


@pytest.mark.parametrize("names", PARSE_RINGS, ids=len)
@pytest.mark.parametrize("order", ORDERS)
def test_parse_matches_the_reference_parser(names, order):
    ring = PolyRing(names, order)
    rng = random.Random(len(names))
    parsed = 0
    for _ in range(200):
        text = _random_text(ring, rng)
        want = _parse_outcome(reference_parse, ring, text)
        assert _parse_outcome(PolyRing.parse, ring, text) == want, text
        parsed += isinstance(want, list)
        # one character inserted, deleted or cut off: mostly malformed text
        i = rng.randrange(len(text) + 1)
        for bad in (text[:i] + rng.choice("+-*^/ 0123(xy") + text[i:],
                    text[:i] + text[i + 1:], text[:i]):
            assert (_parse_outcome(PolyRing.parse, ring, bad)
                    == _parse_outcome(reference_parse, ring, bad)), bad
    assert parsed >= 100
    for bad in PARSE_ERRORS:
        want = _parse_outcome(reference_parse, ring, bad)
        assert not isinstance(want, list)
        assert _parse_outcome(PolyRing.parse, ring, bad) == want, bad


def test_parse_rejects_a_digit_that_is_not_decimal(R):
    # "²" is a digit but no decimal: it is not a number token
    with pytest.raises(ValueError, match="cannot tokenize '²'"):
        R.parse("x²")


def test_parse_does_no_polynomial_arithmetic(R, monkeypatch):
    rng = random.Random(5)
    text = " + ".join(f"{rng.randint(1, 9)}/{rng.randint(1, 3)}*x^{rng.randint(0, 40)}"
                      f"*y^{rng.randint(0, 40)}*z" for _ in range(2000))
    calls = []
    for name in ("__add__", "__mul__", "scale", "_sum_of_products"):
        real = getattr(Polynomial, name)
        monkeypatch.setattr(Polynomial, name,
                            lambda *args, real=real: calls.append(1) or real(*args))
    got = R.parse(text)
    monkeypatch.undo()
    assert calls == []
    assert _items(got) == _items(reference_parse(R, text))
