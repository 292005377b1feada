"""Exact polynomial arithmetic, Gröbner bases, nilpotent witness search."""

import itertools
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from quiverlab import polynomials
from quiverlab.algebra import framed_affine_preprojective
from quiverlab.errors import BudgetExceeded
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
from quiverlab.quivers import DimensionVector
from quiverlab.repscheme import RepCoordinates, rep_ideal

from oracles import (reference_buchberger, reference_nullspace, reference_reduce,
                     reference_substitute)

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


def test_parse_text_round_trip(R):
    for text in ["x^2*y - 3/2*z + 1", "x + y", "-x*y*z", "7", "0", "x^4 - x"]:
        f = R.parse(text)
        assert R.parse(f.text()) == f
    assert R.parse("x^2*y - 3/2*z + 1").text() == "x^2*y - 3/2*z + 1"
    assert R.parse("0").text() == "0"


def test_parse_errors(R):
    for bad in ["w + 1", "x +", "x^", "(x", "x**2"]:
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
    # the seed-0 (3, 4) search made 2,697 reductions while phase 1 reduced
    # each of the 376 standard monomials; the budget still charges them
    calls = []
    normal_form = GroebnerBasis.normal_form

    def counting(self, f):
        calls.append(f)
        return normal_form(self, f)

    monkeypatch.setattr(GroebnerBasis, "normal_form", counting)
    assert nilpotent_witness_search(d4_groebner, 3, 4, seed=0) is None
    monkeypatch.undo()
    assert len(standard_monomials(d4_groebner, 3)) == 376
    assert len(calls) == 2697 - 376
    with pytest.raises(BudgetExceeded, match="exceeded 2696 reductions"):
        nilpotent_witness_search(d4_groebner, 3, 4, seed=0, max_ops=2696)
    assert nilpotent_witness_search(d4_groebner, 3, 4, seed=0, max_ops=2697) is None


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
    rng = random.Random(seed)
    S = PolyRing(["x", "u", "v"])
    f = _random_poly(R, rng, terms=6, max_exp=3)
    image = lambda: _random_poly(S, rng, terms=rng.randint(0, 3))
    cases = [
        {"x": image(), "y": image(), "z": image()},
        {"y": image(), "z": S.zero()},                       # x keeps its name
        {"x": Fraction(rng.randint(-3, 3), 2), "y": 0, "z": image()},
        {"x": S.parse("u - v"), "y": S.parse("v - u"), "z": S.parse("u + v")},
    ]
    for images in cases:
        assert f.substitute(S, images).terms == reference_substitute(f, S, images)
    with pytest.raises(ValueError, match="different ring"):
        R.parse("x*y").substitute(S, {"x": R.variable("x"), "y": S.zero()})


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


def test_buchberger_matches_the_reference_loop(R, d4_rep_ideal, d4_groebner):
    L = PolyRing(R.variables, order="lex")
    cases = [[ring.parse(t) for t in texts] for ring in (R, L) for texts in R_IDEALS]
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
    # a basis that reduces correctly until its first ideal member and answers
    # wrongly after it must make the search raise, also with assert
    # statements compiled away (python -O)
    script = textwrap.dedent(f"""
        from quiverlab.polynomials import GroebnerBasis, PolyRing, buchberger
        from quiverlab.polynomials import nilpotent_witness_search

        members = []

        class Forgetful(GroebnerBasis):
            def normal_form(self, f):
                if members:
                    return f if {stale!r} == "unreduced" else self.ring.zero()
                nf = super().normal_form(f)
                if not nf:
                    members.append(f)
                return nf

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
