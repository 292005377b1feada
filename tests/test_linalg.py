import math
import random
from fractions import Fraction

import pytest

from quiverlab.linalg import (
    Mat,
    SpanBuilder,
    block_diag,
    axpy,
    block_upper,
    kernel_combos,
    nullspace,
)

from quiverlab.polynomials import Polynomial, PolyRing
from quiverlab.quivers import (DimensionVector, affine_cartan_matrix, build_doubled_dynkin,
                               delta)
from quiverlab.repscheme import RepCoordinates

from oracles import (ReferenceSpanBuilder, reference_axpy, reference_dense_mul,
                     reference_kernel_combos, reference_nullspace, reference_pm_mul,
                     reference_rref)

F = Fraction


def _random_matrix(rng, rows, cols, bound=5):
    return [[F(rng.randint(-bound, bound)) for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("seed", range(6))
def test_rank_nullity(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    m = _random_matrix(rng, rows, cols)
    _, pivots = reference_rref(m)
    null = nullspace(m, cols)
    assert len(pivots) + len(null) == cols
    for vec in null:
        for row in m:
            assert sum(a * b for a, b in zip(row, vec)) == 0


def test_nullspace_of_empty_matrix_is_everything():
    assert len(nullspace([], 3)) == 3


@pytest.mark.parametrize("seed", range(6))
def test_span_builder_matches_rref_rank(seed):
    rng = random.Random(100 + seed)
    rows, cols = rng.randint(1, 7), rng.randint(1, 5)
    m = _random_matrix(rng, rows, cols)
    span = SpanBuilder()
    for row in m:
        span.add({i: c for i, c in enumerate(row) if c})
    _, pivots = reference_rref(m)
    assert span.rank == len(pivots)
    # anything in the row space fails to enlarge the span
    cs = [F(rng.randint(-2, 2)) for _ in range(rows)]
    combo = [sum(cs[i] * m[i][j] for i in range(rows)) for j in range(cols)]
    assert not span.add({i: c for i, c in enumerate(combo) if c})


def test_kernel_combos_annihilate():
    rng = random.Random(9)
    vectors = [{k: F(rng.randint(-3, 3)) for k in range(4)} for _ in range(6)]
    vectors = [{k: c for k, c in v.items() if c} for v in vectors]
    combos = kernel_combos(vectors)
    assert combos, "six vectors in a 4-dim space must be dependent"
    for combo in combos:
        total: dict[int, F] = {}
        for idx, coeff in combo.items():
            for k, c in vectors[idx].items():
                total[k] = total.get(k, F(0)) + coeff * c
        assert all(v == 0 for v in total.values())


def test_mat_mul_and_inverse():
    rng = random.Random(3)
    a = Mat(3, 3, tuple(tuple(F(rng.randint(-4, 4)) for _ in range(3)) for _ in range(3)))
    b = Mat(3, 2, tuple(tuple(F(rng.randint(-4, 4)) for _ in range(2)) for _ in range(3)))
    assert (a * b).rows == 3 and (a * b).cols == 2
    ident = Mat.identity(3)
    assert a * ident == a
    inv = None
    try:
        inv = a.inverse()
    except ValueError:
        pass
    if inv is not None:
        assert a * inv == ident


def test_mat_inverse_rejects_singular():
    singular = Mat(2, 2, ((F(1), F(2)), (F(2), F(4))))
    with pytest.raises(ValueError):
        singular.inverse()


def test_block_helpers():
    a = Mat(1, 1, ((F(2),),))
    b = Mat(2, 2, ((F(1), F(0)), (F(0), F(3))))
    d = block_diag(a, b)
    assert (d.rows, d.cols) == (3, 3)
    assert d.entry(0, 0) == 2 and d.entry(2, 2) == 3 and d.entry(0, 1) == 0
    x = Mat(1, 2, ((F(5), F(7)),))
    u = block_upper(a, x, b)
    assert u.entry(0, 1) == 5 and u.entry(0, 2) == 7
    assert u.entry(1, 0) == 0


def test_block_helpers_keep_the_entry_ring():
    ring = PolyRing(["x", "y", "z"])
    x, y, z = (ring.variable(v) for v in ring.variables)
    a = Mat(1, 1, ((x,),), ring.zero())
    b = Mat(1, 1, ((y,),), ring.zero())
    d = block_diag(a, b)
    assert d.ring_zero == ring.zero() and d.entry(1, 0) == ring.zero()
    assert (d * d).data == ((x * x, ring.zero()), (ring.zero(), y * y))
    u = block_upper(a, Mat(1, 1, ((z,),), ring.zero()), b)
    assert u.ring_zero == ring.zero()
    assert (u * u).data == ((x * x, x * z + z * y), (ring.zero(), y * y))


def _random_rows(rng, keys, count):
    """Sparse rows with explicit zeros, empty rows, repeats and span members."""
    rows = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.1:
            rows.append({})
        elif kind < 0.2 and rows:
            rows.append(dict(rng.choice(rows)))
        elif kind < 0.35 and len(rows) >= 2:
            combo: dict = {}
            for row in rng.sample(rows, 2):
                axpy(combo, F(rng.randint(-2, 2) or 1), row)
            rows.append(combo)
        else:
            rows.append({k: F(rng.randint(-3, 3), rng.randint(1, 3))
                         for k in rng.sample(keys, rng.randint(1, 4))})
    return rows


_KEY_SETS = {
    "int": list(range(8)),
    "tuple": [(a, b) for a in range(3) for b in range(3)],
}


@pytest.mark.parametrize("keys", sorted(_KEY_SETS))
@pytest.mark.parametrize("seed", range(8))
def test_span_builder_matches_reference(keys, seed):
    rng = random.Random(seed)
    rows = _random_rows(rng, _KEY_SETS[keys], 12)
    probes = _random_rows(rng, _KEY_SETS[keys], 8)
    span, ref = SpanBuilder(), ReferenceSpanBuilder()
    for row in rows:
        assert span.add(dict(row)) == ref.add(row)   # add takes its row over
        assert span.rank == ref.rank
        assert list(span.pivots) == ref.leads
        pivots = span.resolve()
        for probe in probes:
            assert span.contains(probe) == ref.contains(probe)
            # over resolved tails the residue takes one pass: a lead reads as
            # its tail, any other key as itself
            residue: dict = {}
            for k, c in probe.items():
                axpy(residue, c, pivots.get(k, {k: 1}))
            assert residue == ref.residue(probe)


@pytest.mark.parametrize("keys", sorted(_KEY_SETS))
@pytest.mark.parametrize("seed", range(8))
def test_kernel_combos_match_reference(keys, seed):
    rows = _random_rows(random.Random(50 + seed), _KEY_SETS[keys], 14)
    assert kernel_combos(rows) == reference_kernel_combos(rows)


def test_axpy_drops_cancelled_entries():
    dst = {0: F(1), 1: F(2)}
    axpy(dst, F(-2), {1: F(1), 2: F(1, 2)})
    assert dst == {0: F(1), 2: F(-1)}


@pytest.mark.parametrize("c", [F(1), F(-1), F(0), F(2, 3), 1, -1], ids=repr)
@pytest.mark.parametrize("seed", range(4))
def test_axpy_matches_the_loop_with_products(seed, c, monkeypatch):
    rng = random.Random(300 + seed)
    # Fraction additions and subtractions made inside axpy
    sums = []
    for name in ("__add__", "__sub__"):
        def counting(a, b, op=getattr(Fraction, name)):
            sums.append((a, b))
            return op(a, b)
        monkeypatch.setattr(Fraction, name, counting)
    dropped = 0
    for _ in range(40):
        dst = {k: F(rng.choice([-2, -1, 1, 2]), rng.choice([1, 3]))
               for k in rng.sample(range(8), rng.randint(0, 6))}
        # src mixes ints and Fractions; some entries cancel dst's
        src = {}
        for k in rng.sample(range(8), rng.randint(0, 6)):
            v = -dst[k] / c if c and k in dst and rng.random() < 0.5 else \
                F(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2]))
            src[k] = int(v) if v.denominator == 1 and rng.random() < 0.5 else v
        want, got = dict(dst), dict(dst)
        reference_axpy(want, c, src)
        sums.clear()
        axpy(got, c, src)
        # a key new to dst spends no addition onto zero
        assert len(sums) == (len(src.keys() & dst.keys()) if c else 0)
        assert list(got.items()) == list(want.items())
        assert all(type(v) in (int, Fraction) and v for v in got.values())
        # a unit scale stores a new key's int as an int; no float ever appears
        if c in (1, -1):
            assert all(type(got[k]) is int for k in src.keys() - dst.keys()
                       if type(src[k]) is int)
        assert not any(isinstance(v, float) for v in got.values())
        dropped += len(set(dst) - set(got))
    assert dropped or not c


@pytest.mark.parametrize("seed", range(40))
def test_mat_inverse_agrees_with_rank(seed):
    rng = random.Random(200 + seed)
    n = seed % 6
    bound = rng.choice([1, 2, 5])
    a = Mat(n, n, tuple(tuple(F(rng.randint(-bound, bound)) for _ in range(n))
                        for _ in range(n)))
    if len(reference_rref(a.data)[1]) < n:
        with pytest.raises(ValueError, match="singular"):
            a.inverse()
    else:
        inv = a.inverse()
        assert a * inv == Mat.identity(n) == inv * a


# -- the sparse kernel engine against dense Gauss-Jordan ----------------------
# Results are compared by repr: equal values of equal types, in equal order.


def _dense_matrix(rng, rows, cols):
    density = rng.choice([0.0, 0.2, 0.6, 1.0])
    bound = rng.choice([1, 2, 5])
    return [[F(rng.randint(-bound, bound), rng.randint(1, 3)) if rng.random() < density
             else F(0) for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("seed", range(10))
def test_nullspace_matches_reference(seed):
    rng = random.Random(300 + seed)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1)]
    shapes += [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(30)]
    for rows, cols in shapes:
        m = _dense_matrix(rng, rows, cols)
        assert repr(nullspace(m, cols)) == repr(reference_nullspace(m, cols))


@pytest.mark.parametrize("seed", range(10))
def test_mat_inverse_matches_reference(seed):
    rng = random.Random(400 + seed)
    for _ in range(30):
        n = rng.randint(0, 6)
        rows = _dense_matrix(rng, n, n)
        if n >= 2 and rng.random() < 0.2:
            rows[-1] = list(rows[0])
        a = Mat(n, n, tuple(map(tuple, rows)))
        reduced, pivots = reference_rref([row + [F(int(i == j)) for j in range(n)]
                                          for i, row in enumerate(rows)])
        if pivots[:n] != list(range(n)):
            with pytest.raises(ValueError, match="matrix is singular"):
                a.inverse()
        else:
            want = Mat(n, n, tuple(tuple(row[n:]) for row in reduced))
            assert repr(a.inverse()) == repr(want)


def test_delta_matches_the_dense_reference():
    """Each type's closed form is the primitive positive vector spanning the
    kernel of the dense affine Cartan matrix, vertex by vertex in order."""
    types = [("A", r) for r in (*range(1, 9), 40)] + [("D", r) for r in (*range(4, 9), 40)]
    types += [("E", 6), ("E", 7), ("E", 8)]
    for kind, rank in types:
        (vec,) = reference_nullspace(affine_cartan_matrix(kind, rank), rank + 1)
        ints = [int(x * math.lcm(*(y.denominator for y in vec))) for x in vec]
        g = math.gcd(*ints)
        want = [(str(i), x // g) for i, x in enumerate(ints)]
        assert all(x > 0 for _, x in want)
        assert list(delta(kind, rank).items()) == want


# -- Mat over Fraction and Polynomial entries --------------------------------


def _entry_source(rng, ring):
    """(zero, draw) for the named ring; draw returns a nonzero entry."""
    if ring == "fraction":
        return F(0), lambda: F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
    poly_ring = PolyRing(["x", "y", "z"])

    def draw():
        return Polynomial(poly_ring, {tuple(rng.randint(0, 2) for _ in range(3)):
                                      F(rng.choice([-3, -2, -1, 1, 2, 3]))
                                      for _ in range(rng.randint(1, 3))})
    return poly_ring.zero(), draw


def _sparse_rows(rng, rows, cols, zero, draw):
    """Entries at a random density, with one all-zero row and column."""
    density = rng.choice([0.0, 0.3, 0.7, 1.0])
    zero_row, zero_col = rng.randrange(rows + 1), rng.randrange(cols + 1)
    return [[draw() if i != zero_row and j != zero_col and rng.random() < density
             else zero for j in range(cols)] for i in range(rows)]


def _product_cases(rng, zero, draw):
    shapes = [(2, 0, 3), (0, 2, 2), (2, 2, 0), (0, 0, 0), (1, 1, 1)]
    shapes += [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(10)]
    for m, k, n in shapes:
        yield m, k, n, _sparse_rows(rng, m, k, zero, draw), _sparse_rows(rng, k, n, zero, draw)


def _mat(rows, cols, entries, zero):
    return Mat(rows, cols, tuple(map(tuple, entries)), zero)


@pytest.mark.parametrize("ring", ["fraction", "polynomial"])
@pytest.mark.parametrize("seed", range(8))
def test_mat_product_matches_reference_loops(ring, seed):
    rng = random.Random(seed)
    zero, draw = _entry_source(rng, ring)
    for m, k, n, a, b in _product_cases(rng, zero, draw):
        got = _mat(m, k, a, zero) * _mat(k, n, b, zero)
        assert (got.rows, got.cols) == (m, n)
        assert got.ring_zero == zero
        assert [list(r) for r in got.data] == reference_pm_mul(zero, a, b, n)
        assert [list(r) for r in got.data] == reference_dense_mul(zero, a, b, n)


def test_generic_path_matrices_multiply_without_fraction_products(monkeypatch):
    # arrow matrices over RepCoordinates hold single variables, so every left
    # factor's coefficients are 1; the path products' coefficients reach 2 on
    # walks that turn back and forth through a 2-dimensional vertex
    q = build_doubled_dynkin("D", 4)
    coords = RepCoordinates(q, DimensionVector({"1": 2, "2": 2, "3": 1, "4": 1}))
    mats = coords.matrices
    zero = coords.zero
    rng = random.Random(7)
    cases = []
    for _ in range(12):
        at = rng.choice(q.vertices)
        walk = []
        for _ in range(rng.randint(1, 5)):
            a = rng.choice(q.arrows_from(at))
            walk.append(a.name)
            at = a.target
        # back along the starred partners: a cycle whose last arrow closes it
        walk += [n[:-1] if n.endswith("*") else n + "*" for n in reversed(walk)]
        cases.append(walk)

    def rows(m):
        return [list(r) for r in m.data]

    want = []
    for walk in cases:
        steps = [rows(mats[walk[0]])]
        for n in walk[1:-1]:
            steps.append(reference_pm_mul(zero, rows(mats[n]), steps[-1], len(steps[-1][0])))
        last = reference_pm_mul(zero, rows(mats[walk[-1]]), steps[-1], len(steps[-1][0]))
        want.append((steps, sum((r[i] for i, r in enumerate(last)), zero)))
    assert max(abs(c) for steps, _ in want for row in steps[-1] for p in row
               for c in p.terms.values()) >= 2

    products = []
    mul = Fraction.__mul__

    def counting(a, b):
        products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(Fraction, "__mul__", counting)
    for walk, (steps, trace) in zip(cases, want):
        got = mats[walk[0]]
        for n, step in zip(walk[1:-1], steps[1:]):
            got = mats[n] * got
            assert rows(got) == step
        got_trace = mats[walk[-1]].trace_of_product(got)
        assert got_trace == trace and got_trace.text() == trace.text()
    monkeypatch.undo()
    assert products == []


def _cancelling_source(rng):
    """(zero, draw) with entries of ±1 on four monomials: term products collide and cancel."""
    ring = PolyRing(["x", "y"])
    monomials = [(0, 0), (1, 0), (0, 1), (1, 1)]

    def draw():
        return Polynomial(ring, {e: F(rng.choice([-1, 1]))
                                 for e in rng.sample(monomials, rng.randint(1, 3))})
    return ring.zero(), draw


@pytest.mark.parametrize("cancelling", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_polynomial_mat_product_sums_in_one_dict(seed, cancelling, monkeypatch):
    rng = random.Random(100 + seed)
    zero, draw = _cancelling_source(rng) if cancelling else _entry_source(rng, "polynomial")
    cases = list(_product_cases(rng, zero, draw))
    if cancelling:
        x, y = zero.ring.variable("x"), zero.ring.variable("y")
        cases.append((1, 2, 1, [[x, y]], [[y], [-x]]))        # xy - yx = 0
    transposes = [_sparse_rows(rng, k, m, zero, draw) for m, k, _, _, _ in cases]
    # the reference sums with Polynomial.__add__, so it runs before the patch
    want = [reference_pm_mul(zero, a, b, n) for _, _, n, a, b in cases]
    want_traces = [sum((row[i] for i, row in enumerate(reference_pm_mul(zero, a, bt, m))), zero)
                   for (m, _, _, a, _), bt in zip(cases, transposes)]

    def no_add(x, y):
        raise AssertionError("Polynomial.__add__ called")
    monkeypatch.setattr(Polynomial, "__add__", no_add)
    for (m, k, n, a, b), bt, rows, trace in zip(cases, transposes, want, want_traces):
        got = _mat(m, k, a, zero) * _mat(k, n, b, zero)
        assert [list(r) for r in got.data] == rows
        assert [[x.text() for x in r] for r in got.data] == [[x.text() for x in r] for r in rows]
        got_trace = _mat(m, k, a, zero).trace_of_product(_mat(k, m, bt, zero))
        assert got_trace == trace and got_trace.text() == trace.text()
    if cancelling:
        assert got.is_zero() and rows == [[zero]]


def test_polynomial_mat_sum_scale_and_trace():
    ring = PolyRing(["x", "y"])
    x, y, zero = ring.variable("x"), ring.variable("y"), ring.zero()
    a = _mat(2, 2, [[x, zero], [y, x * y]], zero)
    assert F(1, 2) * x == x.scale(F(1, 2))
    assert a.scale(3).data == ((x.scale(3), zero), (y.scale(3), (x * y).scale(3)))
    assert (a + a).data == a.scale(2).data
    assert (a - a).is_zero() and (a - a).ring_zero == zero
    assert a.trace() == x + x * y
    assert Mat.identity(2, zero, ring.one()) * a == a
    # a cycle through a dimension-0 vertex has a 0x0 matrix; its trace must
    # stay in the polynomial ring
    empty = Mat.zero(0, 0, zero).trace()
    assert isinstance(empty, Polynomial) and empty == zero
    assert Mat.zero(0, 0).trace() == 0


@pytest.mark.parametrize("ring", ["fraction", "polynomial"])
@pytest.mark.parametrize("seed", range(6))
def test_trace_of_product_reads_only_the_diagonal(ring, seed):
    rng = random.Random(200 + seed)
    zero, draw = _entry_source(rng, ring)
    for m, k, _, a, _ in _product_cases(rng, zero, draw):
        b = _sparse_rows(rng, k, m, zero, draw)
        got = _mat(m, k, a, zero).trace_of_product(_mat(k, m, b, zero))
        assert got == (_mat(m, k, a, zero) * _mat(k, m, b, zero)).trace()
        assert type(got) is type(zero)
    with pytest.raises(ValueError, match="trace of a product"):
        Mat.zero(2, 3, zero).trace_of_product(Mat.zero(3, 3, zero))
