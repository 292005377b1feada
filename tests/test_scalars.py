"""The scalar policy: coefficients are ``int`` inside until a division needs a
``Fraction``, and every public accessor hands out ``Fraction``.

The walks visit the coefficients that the acceptance criteria and the
bench's seed-0 inputs build, the rows every ``SpanBuilder`` is handed or
stores included, and assert that each is a nonzero ``int`` (not a ``bool``)
or ``Fraction``.  A ``float`` would mean an ``int / int`` got past
``linalg._div``.
"""

import json
import random
from fractions import Fraction as F

import pytest

from quiverlab import linalg
from quiverlab.algebra import (AlgebraElement, cocenter, framed_affine_preprojective,
                               graded_basis, preprojective_relations)
from quiverlab.corner import bimodule_generators, corner_generators, corner_presentation
from quiverlab.linalg import Mat, SpanBuilder, _div, _kernel_combos, kernel_combos, nullspace
from quiverlab.modules import (ModuleRep, generated_by_framing, induce_module,
                               module_from_json, random_extension, zero_module)
from quiverlab.polynomials import (PolyRing, Polynomial, _reduce, buchberger,
                                   ideal_multigrading, nilpotent_witness_search)
from quiverlab.quivers import Path, build_doubled_dynkin, delta_k
from quiverlab.repscheme import RepCoordinates, add_pullback, invariant_generators, lift

from conftest import FIXTURES


def assert_scalars(values, what: str) -> int:
    """Every value is a nonzero int (not a bool) or Fraction; returns the count."""
    values = list(values)
    bad = [c for c in values if type(c) not in (int, F) or not c]
    assert not bad, f"{what}: {bad[:5]}"
    return len(values)


def assert_fractions(values, what: str) -> None:
    bad = [c for c in values if type(c) is not F]
    assert not bad, f"{what}: {bad[:5]}"


def poly_coefficients(polys):
    return [c for p in polys for c in p._terms.values()]


def matrix_entries(module: ModuleRep):
    return [x for m in module.matrices.values() for row in m.data for x in row]


@pytest.fixture
def span_rows(monkeypatch):
    """Every row a SpanBuilder eliminates, as handed in and as left, and every
    tail it stores, collected while the test runs."""
    rows = []
    eliminate, store = SpanBuilder._eliminate, SpanBuilder._store

    def watched_eliminate(self, row):
        rows.append(dict(row))   # elimination changes the row in place
        out = eliminate(self, row)
        rows.append(dict(out))
        return out

    def watched_store(self, row):
        store(self, row)
        rows.append(self.pivots[next(reversed(self.pivots))])

    monkeypatch.setattr(SpanBuilder, "_eliminate", watched_eliminate)
    monkeypatch.setattr(SpanBuilder, "_store", watched_store)
    return rows


def walk_rows(rows, what: str) -> None:
    assert rows, f"{what}: no span rows seen"
    assert_scalars((c for row in rows for c in row.values()), f"{what} span rows")


# -- _div ------------------------------------------------------------------------


@pytest.mark.parametrize("a, b, want", [
    (6, 3, 2), (-1, -1, 1), (1, -1, -1), (0, 7, 0), (-6, 4, F(-3, 2)), (1, 3, F(1, 3)),
    (F(3, 2), F(1, 2), 3), (1, F(-1, 3), -3), (F(1, 2), 3, F(1, 6)), (F(4, 3), F(-2, 3), -2),
    (F(-1), 1, -1), (-1, F(3, 2), F(-2, 3)),
])
def test_div_is_an_int_exactly_when_the_quotient_is_whole(a, b, want):
    got = _div(a, b)
    assert got == want
    assert type(got) is (int if F(want).denominator == 1 else F)


@pytest.mark.parametrize("a, zero", [(1, 0), (-1, 0), (0, 0), (F(1, 2), 0), (3, F(0))])
def test_div_by_zero_raises(a, zero):
    with pytest.raises(ZeroDivisionError):
        _div(a, zero)


# -- the coefficient walk -----------------------------------------------------------


def test_parse_reads_integers_as_ints_and_p_over_q_as_fractions():
    R = PolyRing(["x", "y"])
    f = R.parse("3*x^2 - y + 1/2*x*y - 4/2*y^2 + 7")
    assert sorted(map(type, f._terms.values()), key=str) == [F, int, int, int, int]
    assert f._terms[R._pack((1, 1))] == F(1, 2)
    assert_scalars(f._terms.values(), "parse")


def test_constructors_store_whole_values_as_ints():
    # Polynomial(ring, terms), constant, monomial and lift's constants read a
    # value as the parser does, and a numeric image multiplies as an int
    R = PolyRing(["x", "y"])
    f = Polynomial(R, {(1, 0): F(3), (0, 1): F(1, 2), (0, 0): 2.0, (1, 1): "-4/2", (2, 0): 0})
    assert [type(c) for c in f._terms.values()] == [int, F, int, int]
    assert f == R.parse("3*x + 1/2*y + 2 - 2*x*y")
    for p, want in ((R.constant(F(6, 3)), int), (R.constant(F(1, 3)), F),
                    (R.monomial((1, 2), F(-4)), int), (R.monomial((1, 0), F(2, 3)), F)):
        assert [type(c) for c in p._terms.values()] == [want]
        assert_fractions(p.terms.values(), "constructor terms")
        assert type(p.lead_coeff()) is F
    assert not R.constant(F(0))._terms and not R.monomial((1, 0), 0)._terms
    a2 = build_doubled_dynkin("A", 2)
    m = ModuleRep(a2, {"1": 1, "2": 1}, {"a": Mat.from_rows([[F(2)]]),
                                         "a*": Mat.from_rows([[F(1, 2)]])})
    lifted = lift(m, R)
    assert [type(c) for x in matrix_entries(lifted) for c in x._terms.values()] == [int, F]
    image = R.parse("x^2*y - x").substitute(PolyRing(["u"]), {"x": F(4, 2), "y": 3.0})
    assert image._terms == {0: 10} and type(image._terms[0]) is int
    # a whole scale multiplies as an int, whatever its type
    x = R.parse("x")
    for c, want in ((F(3), 3), (2.0, 2), (F(1, 2), F(1, 2)), (3, 3)):
        for p in (x.scale(c), c * x):
            assert list(p._terms.values()) == [want]
            assert type(p._terms[next(iter(p._terms))]) is type(want)


def test_rep_ideals_groebner_bases_and_the_witness(d4_rep_ideal, d4_groebner, a3_groebner):
    _, ideal = d4_rep_ideal
    assert assert_scalars(poly_coefficients(ideal.generators), "D4 rep ideal")
    assert assert_scalars(poly_coefficients(d4_groebner), "D4 Groebner basis")
    assert assert_scalars(poly_coefficients(a3_groebner), "A3 Groebner basis")
    # every coefficient of the D4 reduced basis is an int
    assert all(type(c) is int for c in poly_coefficients(d4_groebner))
    # criterion 04 at the bench's (5, 6) stage, seed 0
    witness = nilpotent_witness_search(d4_groebner, 5, 6, seed=0)
    assert witness is not None
    assert_scalars(witness.element._terms.values(), "witness")
    assert_scalars(poly_coefficients([witness.element ** witness.power]), "witness power")


def test_groebner_basis_with_fractional_coefficients_divides_exactly():
    # leads of 3, 7 and 6: a float quotient would show in the texts
    gens = ["3*x^2 - 2*y", "7*x*y - 5*z", "6*z^2 - x"]
    for order, want in [("lex", ["z^6 - 5/2268*z", "y - 54*z^4", "x - 6*z^2"]),
                        ("degrevlex", ["z^2 - 1/6*x", "y^2 - 15/14*x*z", "x*y - 5/7*z",
                                       "x^2 - 2/3*y"])]:
        R = PolyRing(["x", "y", "z"], order)
        gb = buchberger(map(R.parse, gens))
        assert gb.texts() == want
        assert assert_scalars(poly_coefficients(gb), "fractional Groebner basis")
        assert all(g._terms[g._lead()] == 1 for g in gb)


def test_reduce_divides_by_a_lead_other_than_one_exactly():
    # a reduced basis is monic, so only a hand-made divisor list reaches this
    R = PolyRing(["x", "y"])
    f = R.parse("x^2 + y")
    for divisor, want in [("3*x - 2*y", "4/9*y^2 + y"), ("-x + y", "y^2 + y")]:
        g = R.parse(divisor)
        r = _reduce(f, [(g._lead(), g)])
        assert r.text() == want
        assert_scalars(r._terms.values(), "remainder")
    assert all(type(c) is int for c in r._terms.values())


def test_add_pullback_images(span_rows):
    # criterion 07's twenty pairs of zero modules, which the bench also draws
    quiver = build_doubled_dynkin("D", 4)
    coords = RepCoordinates(quiver, delta_k("D", 4))
    rels = preprojective_relations(quiver)
    seen = 0
    for seed in range(20):
        rng = random.Random(911 + seed)
        modules = []
        for bound in (2, 1):
            dims = {v: rng.randint(0, bound) for v in quiver.vertices}
            if not any(dims.values()):
                dims[rng.choice(quiver.vertices)] = 1
            modules.append(zero_module(quiver, dims))
        v_k, w_k = modules
        big1, hom1 = add_pullback(coords, v_k.dims, v_k.matrices, rels)
        big2, hom2 = add_pullback(big1, w_k.dims, w_k.matrices, rels)
        polys = [g.polynomial for g in invariant_generators(big2, cycle_bound=4, path_bound=0)]
        images = [hom2(g) for g in polys]
        seen += assert_scalars(poly_coefficients(polys + images + [hom1(g) for g in images]),
                               f"pullback {seed}")
    assert seen


def test_extension_modules(span_rows):
    # criterion 08's A2 and framed A~1 blocks, and the bench's at seed 0
    a2 = build_doubled_dynkin("A", 2)
    framed, framed_rels = framed_affine_preprojective("A", 1)
    rels = {a2: preprojective_relations(a2), framed: framed_rels}

    def rand_mat(rng, rows, cols):
        return Mat.from_rows([[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)])

    def a2_blocks(rng, ds, dq):
        return (ModuleRep(a2, ds, {"a": Mat.zero(ds["2"], ds["1"]),
                                   "a*": rand_mat(rng, ds["1"], ds["2"])}),
                ModuleRep(a2, dq, {"a": rand_mat(rng, dq["2"], dq["1"]),
                                   "a*": Mat.zero(dq["1"], dq["2"])}))

    def framed_block(rng, n):
        m = rand_mat(rng, n, n)
        return ModuleRep(framed, {"∞": 1, "0": n, "1": n}, {
            "a": Mat.identity(n), "b": Mat.identity(n), "a*": m, "b*": m.scale(-1),
            "ι": rand_mat(rng, n, 1)})

    cases = []
    for seed in range(10):
        rng = random.Random(4000 + seed)
        ds = {"1": rng.randint(1, 2), "2": rng.randint(1, 2)}
        dq = {"1": rng.randint(1, 2), "2": rng.randint(1, 2)}
        cases.append((*a2_blocks(rng, ds, dq), rng))
    for seed in range(10):
        rng = random.Random(5000 + seed)
        cases.append((framed_block(rng, rng.randint(1, 2)), framed_block(rng, rng.randint(1, 2)),
                      rng))
    rng = random.Random(0)
    for shape in range(16):
        ds = {"1": 1 + (shape & 1), "2": 1 + (shape >> 1 & 1)}
        dq = {"1": 1 + (shape >> 2 & 1), "2": 1 + (shape >> 3 & 1)}
        sub, quot = a2_blocks(rng, ds, dq)
        cases.append((sub, quot, random.Random(rng.getrandbits(32))))
    for shape in range(8):
        sub, quot = framed_block(rng, 1 + (shape & 1)), framed_block(rng, 1 + (shape >> 1 & 1))
        cases.append((sub, quot, random.Random(rng.getrandbits(32))))
    for sub, quot, ext_rng in cases:
        ext = random_extension(sub, quot, rels[sub.quiver], ext_rng)
        assert_fractions(matrix_entries(ext), "extension module entries")
    walk_rows(span_rows, "random_extension")


@pytest.mark.parametrize("kind, rank, h", [("A", 8, 9), ("D", 8, 14), ("E", 6, 12),
                                           ("E", 7, 18)])
def test_graded_basis_tails_and_cocenter_rows(kind, rank, h, span_rows):
    # the bench's cocenter workload: doubled Dynkin, basis to the top degree + 2
    quiver = build_doubled_dynkin(kind, rank)
    basis = graded_basis(quiver, preprojective_relations(quiver), h)
    tails = [c for pivots in basis._pivots for tail in pivots.values() for c in tail.values()]
    assert assert_scalars(tails, "pivot tails")
    walk_rows(span_rows, "graded basis")
    span_rows.clear()
    assert cocenter(basis).degree_dims[0] == rank
    walk_rows(span_rows, "cocenter")


@pytest.mark.parametrize("kind, rank, cutoff", [("A", 1, 14), ("D", 4, 8)])
def test_corner_rows_and_presentation(kind, rank, cutoff, span_rows):
    # the CLI bench's corner-present (framed A~1 at 14) and corner (framed D~4 at 8)
    quiver, rels = framed_affine_preprojective(kind, rank)
    basis = graded_basis(quiver, rels, cutoff)
    assert_scalars((c for pivots in basis._pivots for tail in pivots.values()
                    for c in tail.values()), "pivot tails")
    span_rows.clear()
    corner = corner_generators(basis)
    bimodule_generators(corner)
    walk_rows(span_rows, "corner and bimodule generators")
    span_rows.clear()
    pres = corner_presentation(corner)
    walk_rows(span_rows, "corner presentation")
    assert pres.relations
    assert_fractions((c for rel in pres.relations for c in rel.terms.values()),
                     "presentation relations")


def test_presentation_ideal_rows_are_whole(monkeypatch):
    # the CLI bench's corner-present: the dependencies and the x*k and k*x
    # rows built from them are whole (25,104 values at cutoff 14), so the
    # ideal's elimination spends no Fraction arithmetic
    quiver, rels = framed_affine_preprojective("A", 1)
    corner = corner_generators(graded_basis(quiver, rels, 14))
    rows = []
    add = SpanBuilder.add

    def watched_add(self, row):
        rows.append(dict(row))
        return add(self, row)

    monkeypatch.setattr(SpanBuilder, "add", watched_add)
    pres = corner_presentation(corner)
    monkeypatch.undo()
    values = [c for row in rows for c in row.values()]
    assert values
    bad = [c for c in values if type(c) is not int]
    assert not bad, bad[:5]
    # each row is keyed by words: a side that does not compose adds no row
    qh = pres.quiver
    for key in {key for row in rows for key in row}:
        Path(qh, qh.vertices[key[0]], tuple(qh.arrows[i].name for i in key[1:]))


def test_induced_modules_and_framing_generation(span_rows):
    # criterion 11's V_H (seeds 7000-7009) and the bench's (seed 0), then
    # criterion 12's fixture modules
    quiver, rels = framed_affine_preprojective("A", 1)
    corner = corner_generators(graded_basis(quiver, rels, 8))
    bimod, pres = bimodule_generators(corner), corner_presentation(corner)
    span_rows.clear()
    for seed in [7000 + s for s in range(10)] + [0]:
        rng = random.Random(seed)
        t = F(rng.randint(-3, 3))
        u = F(rng.choice([-3, -2, -1, 1, 2, 3]))
        v_h = ModuleRep(pres.quiver, {"∞": 1, "0": 1}, {
            "ι": Mat.from_rows([[rng.choice([1, 2, 3])]]), "g1": Mat.from_rows([[t]]),
            "g2": Mat.from_rows([[u]]), "g3": Mat.from_rows([[-t * t / u]])})
        induced = induce_module(v_h, pres, bimod)
        assert_fractions(matrix_entries(induced), "induced module entries")
        assert generated_by_framing(induced) in (True, False)
    walk_rows(span_rows, "induce_module")
    span_rows.clear()
    for path in sorted((FIXTURES / "modules").glob("framed_a1_*.json")):
        generated_by_framing(module_from_json(quiver, json.loads(path.read_text())))
    walk_rows(span_rows, "generated_by_framing")


# -- the public face -----------------------------------------------------------------


def test_polynomial_accessors_hand_out_fractions():
    R = PolyRing(["x", "y"])
    f = R.parse("-x^2 + 3*x*y - 2/3*y + 5")
    assert int in {type(c) for c in f._terms.values()}
    assert_fractions(f.terms.values(), "terms")
    assert type(f.lead_coeff()) is F and f.lead_coeff() == -1
    g = f.monic()
    assert all(type(c) is int for c in (g._terms[g._lead()], g._terms[R._pack((1, 1))]))
    assert_fractions(g.terms.values(), "monic terms")
    assert type(g.lead_coeff()) is F and g.lead_coeff() == 1
    assert type(R.parse("2*x").evaluate({"x": 3})) is F
    h = R.parse("3*x - 2").monic()
    assert h._terms[h._lead()] == 1 and type(h._terms[0]) is F and h._terms[0] == F(-2, 3)


def test_graded_basis_accessors_hand_out_fractions():
    quiver = build_doubled_dynkin("D", 4)
    rels = preprojective_relations(quiver)
    basis = graded_basis(quiver, rels, 6)
    tails = [c for pivots in basis._pivots for tail in pivots.values() for c in tail.values()]
    assert tails and all(type(c) is int for c in tails)
    checked = 0
    for rel in rels:
        for p in rel.terms:
            assert_fractions(basis.coords(p).values(), "coords")
            assert_fractions(basis.nf_path(p).values(), "nf_path")
            checked += 1
    assert checked
    x = AlgebraElement(quiver, {p: c for rel in rels for p, c in rel.terms.items()})
    forms = basis.normal_form(x)
    assert forms and all(type(c) is F for vec in forms.values() for c in vec)
    assert_fractions(basis.reduce(x).terms.values(), "reduce")


def test_graded_basis_accessors_hand_out_tuple_keys():
    # keys are packed ints inside the basis; coords and extend take and hand
    # out Path.key tuples, so a packed key never leaks out
    quiver, rels = framed_affine_preprojective("A", 1)
    basis = graded_basis(quiver, rels, 6)
    checked = 0
    for d in range(5):
        for p in basis.basis(d):
            for a in quiver.arrows_from(p.target):
                for after in (Path(quiver, p.target, (a.name,)),
                              *(Path(quiver, p.target, (a.name, b.name))
                                for b in quiver.arrows_from(a.target))):
                    path = after * p
                    coords = basis.coords(path)
                    assert all(type(k) is tuple for k in coords)
                    assert_fractions(coords.values(), "coords")
                    vec = basis.extend(basis.coords(p), after.key[1:])
                    assert all(type(k) is tuple for k in vec)
                    assert_fractions(vec.values(), "extend")
                    assert vec == coords
                    checked += bool(coords)
    assert checked
    e = Path.idempotent(quiver, quiver.vertices[0]).key
    unit = basis.extend({e: 1}, ())
    assert unit == {e: 1} and type(unit[e]) is F


def test_kernels_and_inverses_hand_out_fractions():
    combos = kernel_combos([{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 3}, {0: 1}])
    assert combos == [{0: -2, 1: 1}, {0: -1, 2: F(2, 3), 3: 1}]
    assert_fractions((c for combo in combos for c in combo.values()), "kernel_combos")
    # the private combos keep the library's scalars: ints where whole
    inner = _kernel_combos([{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 3}, {0: 1}])
    assert inner == combos
    assert [[type(c) for c in combo.values()] for combo in inner] == [[int, int], [int, F, int]]
    basis = nullspace([[1, 2, 3], [2, 4, 6]], 3)
    assert basis == [[-2, 1, 0], [-3, 0, 1]]
    assert_fractions((c for vec in basis for c in vec), "nullspace")
    inv = Mat(2, 2, ((2, 1), (1, 1))).inverse()
    assert inv.data == ((1, -1), (-1, 2))
    assert_fractions((x for row in inv.data for x in row), "inverse")


def test_integer_kernels_hand_kernel_combos_ints(monkeypatch, d4_groebner):
    # the exponent differences are integers, and nullspace takes int rows:
    # no Fraction wraps them on the way in
    rows = []
    real = linalg.kernel_combos
    monkeypatch.setattr(linalg, "kernel_combos",
                        lambda vectors: rows.extend(vectors) or real(vectors))
    assert len(ideal_multigrading(d4_groebner)) == 5
    assert rows and all(type(c) is int for row in rows for c in row.values())


# -- the basis is shared, not copied ----------------------------------------------------


def test_consumers_leave_the_basis_tails_alone():
    # extend hands out pivot tails themselves; SpanBuilder.add changes the row
    # it is given, so a consumer that passes a tail on uncopied corrupts the basis
    quiver, rels = framed_affine_preprojective("A", 1)
    basis = graded_basis(quiver, rels, 10)
    cocenter(basis)
    corner = corner_generators(basis)
    bimod = bimodule_generators(corner)
    pres = corner_presentation(corner)
    v_h = ModuleRep(pres.quiver, {"∞": 1, "0": 1}, {
        "ι": Mat.from_rows([[2]]), "g1": Mat.from_rows([[3]]),
        "g2": Mat.from_rows([[2]]), "g3": Mat.from_rows([[F(-9, 2)]])})
    induced = induce_module(v_h, pres, bimod)
    assert generated_by_framing(induced)
    fresh = graded_basis(quiver, rels, 10)
    assert basis._pivots == fresh._pivots
    assert basis._std == fresh._std
