"""Path algebra elements, preprojective presentations, graded bases, cocenters."""

import random
from fractions import Fraction

import pytest

from quiverlab import algebra
from quiverlab.algebra import (
    AlgebraElement,
    GradedBasis,
    RelationSet,
    cocenter,
    framed_affine_preprojective,
    graded_basis,
    normal_form,
    preprojective_relations,
    restrict_to_vertices,
    star_pairing,
)
from quiverlab.quivers import (
    FRAMING_ARROW,
    FRAMING_VERTEX,
    Arrow,
    Path,
    Quiver,
    build_doubled_affine_dynkin,
    build_doubled_dynkin,
)

from quiverlab.repscheme import build_astar

from conftest import random_quotient, random_relations
from oracles import (BruteForceQuotient, ReferenceRewriteSpan, all_pairs_cocenter,
                     path_counts, preprojective_total_dim)


def random_element(quiver, rng, terms=3, max_len=4):
    """Small random element supported on random walks."""
    out = AlgebraElement.zero(quiver)
    for _ in range(terms):
        at = rng.choice(quiver.vertices)
        names = []
        for _ in range(rng.randint(0, max_len)):
            outgoing = quiver.arrows_from(at)
            if not outgoing:
                break
            a = rng.choice(outgoing)
            names.append(a.name)
            at = a.target
        p = Path(quiver, names and quiver.arrow(names[0]).source or at, tuple(names))
        out = out + AlgebraElement.from_path(p, Fraction(rng.randint(-3, 3)))
    return out


# -- element arithmetic ------------------------------------------------------


def test_element_arithmetic():
    q = build_doubled_dynkin("A", 2)
    a = AlgebraElement.from_path(Path(q, "1", ("a",)))
    e1 = AlgebraElement.idempotent(q, "1")
    x = a + e1.scale(Fraction(5, 2))
    assert x - x == AlgebraElement.zero(q)
    assert not (x - x)
    assert -x + x == AlgebraElement.zero(q)
    assert x.scale(2) == x + x
    assert (x.scale(0)) == AlgebraElement.zero(q)


def test_element_text():
    q = build_doubled_dynkin("A", 2)
    e2 = AlgebraElement.idempotent(q, "2")
    loop = AlgebraElement.from_path(Path(q, "1", ("a", "a*")))
    back = AlgebraElement.from_path(Path(q, "2", ("a*", "a")))
    x = e2.scale(Fraction(5, 2)) + loop - back
    assert x.text() == "5/2*e_2 + a*.a - a.a*"
    assert AlgebraElement.zero(q).text() == "0"


def test_homogeneity():
    q = build_doubled_dynkin("A", 3)
    rels = preprojective_relations(q)
    for r in rels:
        assert r.is_homogeneous()
    mixed = AlgebraElement.idempotent(q, "1") + AlgebraElement.from_path(Path(q, "1", ("a",)))
    assert not mixed.is_homogeneous()
    # weights shift degrees: a counts 2, its star 0, so the vertex-2 relation
    # a.a* - b*.b stays homogeneous while unequal weights break it
    r2 = rels[1]
    assert r2.is_homogeneous(weights={"a": 2, "a*": 0})
    assert not r2.is_homogeneous(weights={"a": 2})


def test_length_source_target_accessors():
    q = build_doubled_dynkin("A", 2)
    a = AlgebraElement.from_path(Path(q, "1", ("a",)))
    assert (a.length, a.source, a.target) == (1, "1", "2")
    with pytest.raises(ValueError):
        AlgebraElement.zero(q).length
    mixed = a + AlgebraElement.idempotent(q, "1")
    with pytest.raises(ValueError):
        mixed.length


def test_multiply_application_order():
    q = build_doubled_dynkin("A", 2)
    a = AlgebraElement.from_path(Path(q, "1", ("a",)))
    e1 = AlgebraElement.idempotent(q, "1")
    e2 = AlgebraElement.idempotent(q, "2")
    # in x*y the factor y acts first
    assert a * e1 == a
    assert e2 * a == a
    assert e1 * a == AlgebraElement.zero(q)
    assert a * e2 == AlgebraElement.zero(q)
    star = AlgebraElement.from_path(Path(q, "2", ("a*",)))
    assert (star * a).text() == "a*.a"


@pytest.mark.parametrize("seed", range(5))
def test_multiply_bilinear(seed):
    q = build_doubled_affine_dynkin("D", 4)
    rng = random.Random(seed)
    x, y, z = (random_element(q, rng) for _ in range(3))
    assert (x + y) * z == x * z + y * z
    assert x * (y + z) == x * y + x * z
    assert x.scale(3) * y == (x * y).scale(3)


@pytest.mark.parametrize("seed", range(4))
def test_multiply_degree_additive(seed):
    q = build_doubled_affine_dynkin("A", 2)
    rng = random.Random(seed)
    for _ in range(10):
        d1, d2 = rng.randint(0, 3), rng.randint(0, 3)
        x = random_element(q, rng, terms=1, max_len=0)
        y = random_element(q, rng, terms=1, max_len=0)
        # rebuild at exact lengths
        while x and x.length != d1:
            x = random_element(q, rng, terms=1, max_len=d1)
        while y and y.length != d2:
            y = random_element(q, rng, terms=1, max_len=d2)
        p = x * y
        if p:
            assert p.length == d1 + d2


# -- preprojective presentations ---------------------------------------------


def test_star_pairing():
    q = build_doubled_dynkin("D", 4)
    pairing = star_pairing(q)
    assert pairing == {"a": "a*", "b": "b*", "c": "c*"}
    for name, partner in pairing.items():
        a, b = q.arrow(name), q.arrow(partner)
        assert (b.source, b.target) == (a.target, a.source)
    lopsided = build_doubled_dynkin("A", 2)
    chopped = type(lopsided)(lopsided.vertices, lopsided.arrows[:1], lopsided.partition)
    with pytest.raises(ValueError):
        star_pairing(chopped)


@pytest.mark.parametrize(
    "kind,rank,texts",
    [
        ("A", 2, ["-a*.a", "a.a*"]),
        ("A", 3, ["-a*.a", "a.a* - b*.b", "b.b*"]),
        ("D", 4, ["-a*.a", "a.a* - b*.b - c*.c", "b.b*", "c.c*"]),
    ],
)
def test_preprojective_texts(kind, rank, texts):
    q = build_doubled_dynkin(kind, rank)
    rels = preprojective_relations(q)
    assert [r.text() for r in rels] == texts
    for v, r in zip(q.vertices, rels):
        assert r.source == r.target == v
        assert r.length == 2


def test_affine_preprojective_texts():
    q = build_doubled_affine_dynkin("A", 1)
    rels = preprojective_relations(q)
    assert [r.text() for r in rels] == ["-a*.a - b*.b", "a.a* + b.b*"]


def test_framed_affine_builder():
    q, rels = framed_affine_preprojective("A", 1)
    assert q.tag(FRAMING_VERTEX) == "F"
    iota = q.arrow(FRAMING_ARROW)
    assert (iota.source, iota.target) == (FRAMING_VERTEX, "0")
    # the framing arrow takes part in no relation
    for r in rels:
        for p in r.terms:
            assert FRAMING_ARROW not in p.arrows
    assert [r.text() for r in rels] == ["-a*.a - b*.b", "a.a* + b.b*"]


# -- graded bases ------------------------------------------------------------


@pytest.mark.parametrize("builder,kind,rank", [
    (build_doubled_dynkin, "A", 3),
    (build_doubled_affine_dynkin, "D", 4),
])
def test_free_algebra_dimensions_count_paths(builder, kind, rank):
    q = builder(kind, rank)
    gb = graded_basis(q, RelationSet(q, []), 5)
    arrows = [(a.source, a.target) for a in q.arrows]
    assert gb.dimensions == path_counts(q.vertices, arrows, 5)
    assert not gb.finite_dimensional


PREPROJECTIVE_DIMS = {
    ("A", 1): [1],
    ("A", 2): [2, 2],
    ("A", 3): [3, 4, 3],
    ("A", 4): [4, 6, 6, 4],
    ("D", 4): [4, 6, 8, 6, 4],
    ("D", 5): [5, 8, 11, 12, 11, 8, 5],
}


@pytest.mark.parametrize("kind,rank", sorted(PREPROJECTIVE_DIMS))
def test_preprojective_dimensions(kind, rank):
    dims = PREPROJECTIVE_DIMS[(kind, rank)]
    q = build_doubled_dynkin(kind, rank)
    gb = graded_basis(q, preprojective_relations(q), len(dims) + 1)
    assert gb.finite_dimensional
    assert gb.top_degree == len(dims) - 1
    assert gb.dimensions[: len(dims)] == dims
    assert not any(gb.dimensions[len(dims):])
    # total dimension adds up the heights of the positive roots
    assert sum(dims) == preprojective_total_dim(kind, rank)


def test_graded_basis_dimension_zero_is_vertex_count():
    q = build_doubled_affine_dynkin("A", 2)
    gb = graded_basis(q, preprojective_relations(q), 3)
    assert gb.dimension(0) == len(q.vertices)
    assert [p.text() for p in gb.basis(0)] == [f"e_{v}" for v in q.vertices]


def test_graded_basis_errors():
    q = build_doubled_dynkin("A", 2)
    rels = preprojective_relations(q)
    with pytest.raises(ValueError):
        graded_basis(q, rels, -1)
    other = build_doubled_dynkin("A", 3)
    with pytest.raises(ValueError):
        graded_basis(other, rels, 2)
    gb = graded_basis(q, rels, 2)
    with pytest.raises(ValueError):
        gb.basis(3)
    with pytest.raises(ValueError, match="exceeds the cutoff"):
        gb.coords(Path(q, "1", ("a", "a*", "a")))


def test_coords_reject_a_path_of_another_quiver():
    # D4's b*.b has the key of A3's a.a* once arrows are read by index
    a3, d4 = build_doubled_dynkin("A", 3), build_doubled_dynkin("D", 4)
    gb = graded_basis(a3, preprojective_relations(a3), 3)
    foreign = Path(d4, "2", ("b", "b*"))
    with pytest.raises(ValueError, match="different quiver"):
        gb.coords(foreign)
    with pytest.raises(ValueError, match="different quiver"):
        gb.nf_path(foreign)


def brute_force(q, rels, cutoff):
    return BruteForceQuotient(
        q.vertices, {a.name: (a.source, a.target) for a in q.arrows},
        [{(p.base, p.arrows): c for p, c in r.terms.items()} for r in rels], cutoff)


@pytest.mark.parametrize("seed", range(30))
def test_graded_basis_matches_brute_force_quotient(seed):
    rng = random.Random(seed)
    q, rels = random_quotient(rng)
    assert_matches_brute_force(q, rels, 5, rng)


def _loops(*names):
    return Quiver(["1"], [Arrow(n, "1", "1") for n in names])


def _word(q, *arrows):
    return AlgebraElement.from_path(Path(q, "1", arrows))


def _row_builder_case(case):
    if case == "length 1":
        # build_astar's relations kill single arrows
        q, rels = framed_affine_preprojective("A", 1)
        return q, build_astar(q, rels)
    if case == "length 3":
        q = _loops("x", "y")
        return q, RelationSet(q, [_word(q, "x", "x", "y") - _word(q, "y", "y", "x").scale(2)])
    # the first relation makes the words u and v one standard path, so in
    # the rows of the others the entries of u.z and v.z merge, into 4 times
    # one entry and into none; u and v are one step from a standard path,
    # or two
    q = _loops("w", "x", "y", "z")
    u, v, w = ((("x",), ("y",), ("w",)) if case == "shared last arrow"
               else (("x", "y"), ("y", "x"), ("w", "w")))
    return q, RelationSet(q, [_word(q, *u) - _word(q, *v),
                              _word(q, *u, "z") + _word(q, *v, "z").scale(3) + _word(q, *w, "z"),
                              _word(q, *u, "z") - _word(q, *v, "z") + _word(q, *w, "w")])


@pytest.mark.parametrize("case", ["length 1", "length 3", "shared last arrow",
                                  "shared last arrow after two"])
def test_relation_rows_match_brute_force_quotient(case):
    """The row builder's general path: relation terms that are not one step
    from a standard path, and terms whose shifted tails share keys."""
    q, rels = _row_builder_case(case)
    assert_matches_brute_force(q, rels, 5, random.Random(case))


def assert_matches_brute_force(q, rels, cutoff, rng):
    gb = graded_basis(q, rels, cutoff)
    oracle = brute_force(q, rels, cutoff)
    assert gb.dimensions == [oracle.dimension(d) for d in range(cutoff + 1)]
    for d in range(1, cutoff + 1):
        paths = oracle.paths[d]
        ideal_rows = oracle.ideal_rows(d)
        for _ in range(6):
            x: dict = {}
            for row in rng.sample(ideal_rows, min(2, len(ideal_rows))):
                for k, c in row.items():
                    x[k] = x.get(k, 0) + rng.randint(1, 2) * c
            if paths and rng.random() < 0.5:
                k = rng.choice(paths)
                x[k] = x.get(k, 0) + rng.randint(1, 2)
            el = AlgebraElement(q, {Path(q, b, w): c for (b, w), c in x.items()})
            assert (not gb.reduce(el)) == oracle.in_ideal(x)


@pytest.mark.parametrize("seed", range(10))
def test_graded_basis_matches_reference_elimination(seed, monkeypatch):
    """The shared engine gives the same basis as the pre-merge rewrite rules."""
    if seed < 2:
        q, rels = framed_affine_preprojective("A", 1 + seed)
    else:
        q, rels = random_quotient(random.Random(seed))
    cutoff = 5
    gb = graded_basis(q, rels, cutoff)
    monkeypatch.setattr("quiverlab.algebra.SpanBuilder", ReferenceRewriteSpan)
    ref = graded_basis(q, rels, cutoff)
    assert gb.dimensions == ref.dimensions
    walks = brute_force(q, RelationSet(q, []), cutoff).paths
    rng = random.Random(seed)
    for d, paths in enumerate(walks):
        assert gb.basis(d) == ref.basis(d)
        for b, w in paths:
            p = Path(q, b, w)
            assert gb.nf_path(p) == ref.nf_path(p)
            # extending p's coordinates by q's arrows gives q.p, p acting first
            q_walks = [Path(q, b2, w2) for e in range(cutoff - d + 1)
                       for b2, w2 in walks[e] if b2 == p.target]
            for after in rng.sample(q_walks, min(3, len(q_walks))):
                assert gb.extend(gb.coords(p), after.key[1:]) == gb.coords(after * p)


def field_width_quotient(n, wide, rng):
    """Random quotient with max(#vertices, #arrows) == n: n arrows on (at
    most) two vertices, or n vertices with three arrows among the first and
    the last, so the top arrow or vertex index fills its key field.  Some
    relation has two terms or more, so pivots have tails, except on one
    loop at one vertex, which has one path per degree."""
    if wide == "arrows":
        vertices = ends = [str(i) for i in range(min(n, 2))]
        count = n
    else:
        vertices = [str(i) for i in range(n)]
        ends = [vertices[0], vertices[-1]]
        count = min(n, 3)
    while True:
        q = Quiver(vertices, [Arrow(f"x{i}", rng.choice(ends), rng.choice(ends))
                              for i in range(count)])
        rels = random_relations(rng, q, ends)
        if n == 1 or any(len(r.terms) > 1 for r in rels):
            return q, rels


@pytest.mark.parametrize("wide", ["arrows", "vertices"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 16, 17])
def test_packed_keys_at_the_field_width_boundaries(n, wide, monkeypatch):
    """Key fields are max(#vertices, #arrows).bit_length() wide: each table
    ascends and unpacks to its paths' keys, and the coordinates match the
    reference elimination's, at sizes on both sides of a power of two."""
    rng = random.Random(n)
    q, rels = field_width_quotient(n, wide, rng)
    cutoff = 5 if n <= 4 else 3
    gb = graded_basis(q, rels, cutoff)
    oracle = brute_force(q, rels, cutoff)
    assert gb.dimensions == [oracle.dimension(d) for d in range(cutoff + 1)]
    for d in range(cutoff + 1):
        table = gb._table(d)
        assert list(table) == sorted(table)
        assert [gb._unpack(k) for k in table] == [p.key for p in gb.basis(d)]
        assert list(table.values()) == [(p.source, p.target) for p in gb.basis(d)]
    monkeypatch.setattr("quiverlab.algebra.SpanBuilder", ReferenceRewriteSpan)
    ref = graded_basis(q, rels, cutoff)
    for paths in oracle.paths:
        for b, w in rng.sample(paths, min(len(paths), 60)):
            p = Path(q, b, w)
            assert gb.coords(p) == ref.coords(p)
            assert gb.nf_path(p) == ref.nf_path(p)


@pytest.mark.parametrize("case", [("A", 1), ("A", 2), ("D", 4)] + list(range(30)),
                         ids=lambda c: "".join(map(str, c)) if isinstance(c, tuple) else f"seed{c}")
def test_pivot_tails_hold_only_standard_keys(case):
    """Each stored pivot is its lead's normal form: standard keys only, and
    lead minus tail lies in the ideal."""
    if isinstance(case, tuple):
        q, rels = framed_affine_preprojective(*case)
    else:
        q, rels = random_quotient(random.Random(case))
    cutoff = 5
    gb = graded_basis(q, rels, cutoff)
    oracle = brute_force(q, rels, cutoff)
    for d in range(cutoff + 1):
        standard = {p.key for p in gb.basis(d)}
        # the candidates outside the standard basis are the pivot leads
        cands = ([Path.idempotent(q, v) for v in q.vertices] if d == 0 else
                 [p.extend(a) for p in gb.basis(d - 1) for a in q.arrows_from(p.target)])
        by_key = {p.key: p for p in cands}
        for lead in (k for k in by_key if k not in standard):
            tail = gb.coords(by_key[lead])
            assert set(tail) <= standard
            assert all(type(c) is Fraction and c for c in tail.values())
            x = {(p.base, p.arrows): c for p, c in
                 [(by_key[lead], 1)] + [(by_key[k], -c) for k, c in tail.items()]}
            assert oracle.in_ideal(x)


def test_relations_reduce_to_zero(framed_a1):
    q, rels, gb = framed_a1
    for r in rels:
        assert not gb.reduce(r)
        assert all(not any(vec) for vec in gb.normal_form(r).values())
        # two-sided: products with paths stay in the ideal
        for a in q.arrows_from(r.target):
            left = AlgebraElement.from_path(Path(q, r.source, (a.name,)))
            assert not gb.reduce(left * r)


@pytest.mark.parametrize("seed", range(4))
def test_normal_form_is_linear_and_multiplicative(framed_a1, seed):
    q, rels, gb = framed_a1
    rng = random.Random(seed)
    x = random_element(q, rng, terms=4, max_len=5)
    y = random_element(q, rng, terms=4, max_len=5)
    assert gb.reduce(x + y) == gb.reduce(x) + gb.reduce(y)
    assert gb.reduce(gb.reduce(x)) == gb.reduce(x)
    assert gb.reduce(x * y) == gb.reduce(gb.reduce(x) * gb.reduce(y))
    assert normal_form(x, gb) == gb.normal_form(x)


@pytest.mark.parametrize("seed", range(12))
def test_normal_form_reads_reduce_over_the_basis(seed):
    """normal_form is the reduced element read as coordinates over basis(d)."""
    rng = random.Random(seed)
    q, rels = (framed_affine_preprojective("A", 1) if seed % 3 == 0
               else random_quotient(rng))
    gb = graded_basis(q, rels, 5)
    for _ in range(4):
        x = random_element(q, rng, terms=rng.randint(1, 5), max_len=5)
        if rng.random() < 0.3:
            # a degree whose terms cancel in the quotient keeps its zero vector
            x = x + random_element(q, rng, terms=2, max_len=5) - gb.reduce(x)
        reduced = gb.reduce(x)
        expected = {d: tuple(reduced.terms.get(p, Fraction(0)) for p in gb.basis(d))
                    for d in sorted({p.length for p in x.terms})}
        assert gb.normal_form(x) == expected


def test_build_constructs_no_path(monkeypatch):
    """The build holds packed keys and endpoints only: it constructs no Path."""
    q, rels = framed_affine_preprojective("A", 1)
    built = []
    init = Path.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(Path, "__init__", counting)
    gb = graded_basis(q, rels, 10)
    assert len(built) == 0
    assert sum(gb.dimensions) == 188


def test_finite_basis_stops_at_its_first_empty_degree(monkeypatch):
    q = build_doubled_dynkin("A", 2)
    rels = preprojective_relations(q)
    degrees = []
    real = GradedBasis._relation_rows

    def counting(self, d):
        degrees.append(d)
        return real(self, d)

    monkeypatch.setattr(GradedBasis, "_relation_rows", counting)
    gb = graded_basis(q, rels, 10_000)
    assert gb.finite_dimensional and gb.top_degree == 1
    assert len(degrees) <= gb.top_degree + 2
    # past the top degree everything reads as empty, up to the cutoff
    assert gb.dimensions == [2, 2] + [0] * 9_999
    assert gb.dimension(2) == gb.dimension(10_000) == 0
    assert gb.basis(3) == [] and gb.basis(10_000) == []
    assert gb.coords(Path(q, "1", ("a", "a*", "a"))) == {}
    assert gb.normal_form(AlgebraElement.from_path(Path(q, "1", ("a", "a*")))) == {2: ()}
    with pytest.raises(ValueError, match="exceeds the cutoff"):
        gb.dimension(10_001)
    cc = cocenter(gb, 10_000)
    assert cc.degree_dims == (2,) + (0,) * 10_000
    assert cc.representatives == (tuple(gb.basis(0)),) + ((),) * 10_000
    assert not cc.truncated


# -- cocenter ----------------------------------------------------------------


@pytest.mark.parametrize("kind,rank", sorted(PREPROJECTIVE_DIMS))
def test_cocenter_of_finite_type_sits_in_degree_zero(kind, rank):
    q = build_doubled_dynkin(kind, rank)
    gb = graded_basis(q, preprojective_relations(q), len(PREPROJECTIVE_DIMS[(kind, rank)]))
    cc = cocenter(gb)
    assert cc.degree_dims[0] == len(q.vertices)
    assert not any(cc.degree_dims[1:])
    assert not cc.truncated
    assert [p.text() for p in cc.representatives[0]] == [f"e_{v}" for v in q.vertices]


def test_cocenter_representatives_are_cycles(framed_a1):
    q, rels, gb = framed_a1
    cc = cocenter(gb, cutoff=6)
    assert cc.truncated
    assert cc.degree_dims[0] == len(q.vertices)
    for reps in cc.representatives:
        for p in reps:
            assert p.source == p.target


def test_cocenter_cutoff_cannot_exceed_basis(framed_a1):
    _, _, gb = framed_a1
    with pytest.raises(ValueError, match="outside"):
        cocenter(gb, cutoff=gb.cutoff + 1)
    with pytest.raises(ValueError, match="outside"):
        cocenter(gb, cutoff=-1)


def assert_cocenter_matches_all_pairs(gb, cutoff=None):
    cc = cocenter(gb, cutoff)
    dims, reps = all_pairs_cocenter(gb, len(cc.degree_dims) - 1)
    assert cc.degree_dims == dims
    assert ([[p.text() for p in r] for r in cc.representatives]
            == [[p.text() for p in r] for r in reps])


@pytest.mark.parametrize("kind,rank", [("A", n) for n in range(1, 7)]
                         + [("D", n) for n in range(4, 8)] + [("E", 6), ("E", 7)])
def test_cocenter_matches_all_pairs_on_finite_types(kind, rank):
    q = build_doubled_dynkin(kind, rank)
    gb = graded_basis(q, preprojective_relations(q), 2 * rank + 4)  # past h - 2
    assert gb.finite_dimensional
    assert_cocenter_matches_all_pairs(gb)


@pytest.mark.parametrize("kind,rank,cutoff", [("A", 1, 8), ("D", 4, 6), ("A", 2, 8),
                                               ("D", 4, 10)])
def test_cocenter_matches_all_pairs_on_framed_affine(kind, rank, cutoff):
    q, rels = framed_affine_preprojective(kind, rank)
    assert_cocenter_matches_all_pairs(graded_basis(q, rels, cutoff), cutoff)


@pytest.mark.parametrize("seed", range(60))
def test_cocenter_matches_all_pairs_on_random_quotients(seed):
    q, rels = random_quotient(random.Random(seed))
    assert_cocenter_matches_all_pairs(graded_basis(q, rels, 5))


@pytest.mark.parametrize("case", ["E6", "framed A1", "random 0", "random 11"])
def test_cocenter_takes_one_arrow_step_per_product(case, monkeypatch):
    """Each y.a extends y's prefix's y.a, kept one degree down, by one arrow."""
    if case == "E6":
        q = build_doubled_dynkin("E", 6)
        gb = graded_basis(q, preprojective_relations(q), 12)
    elif case == "framed A1":
        q, rels = framed_affine_preprojective("A", 1)
        gb = graded_basis(q, rels, 8)
    else:
        q, rels = random_quotient(random.Random(int(case.split()[1])))
        gb = graded_basis(q, rels, 5)
    want = all_pairs_cocenter(gb, gb.top_degree if gb.finite_dimensional else gb.cutoff)
    steps = []
    real_extend, real_step = GradedBasis._extend, algebra._step

    def extending(self, vec, arrows):
        steps.append(len(arrows))
        return real_extend(self, vec, arrows)

    def stepping(pivots, std, key):   # a table read is one step
        steps.append(1)
        return real_step(pivots, std, key)

    monkeypatch.setattr(GradedBasis, "_extend", extending)
    monkeypatch.setattr(algebra, "_step", stepping)
    cc = cocenter(gb)
    assert steps and max(steps) <= 1
    assert cc.degree_dims == want[0]
    assert ([[p.text() for p in r] for r in cc.representatives]
            == [[p.text() for p in r] for r in want[1]])


def cycle_keys(gb, d):
    return {key for key, (source, target) in gb._table(d).items() if source == target}


@pytest.mark.parametrize("kind, rank", [("A", 4), ("D", 5), ("E", 6)])
def test_cocenter_stops_each_degree_once_its_span_is_full(kind, rank, record_spans):
    """A finite type's cocenter is degree 0 alone, so every later degree's
    rows span all its cycles; once they do, no row is added, and the last
    add of each degree enlarges the span.  A degree with no cycle (every odd
    one on a bipartite quiver) adds no row at all."""
    q = build_doubled_dynkin(kind, rank)
    gb = graded_basis(q, preprojective_relations(q), 2 * rank + 4)
    spans = record_spans("algebra")
    cc = cocenter(gb)
    assert cc.degree_dims == (rank,) + (0,) * gb.top_degree
    assert len(spans) == gb.top_degree + 1
    for d, span in enumerate(spans[1:], 1):
        cycles = cycle_keys(gb, d)
        assert span.rank == len(cycles)
        assert span.answers[-1] if cycles else not span.answers


@pytest.mark.parametrize("case", ["E6", "framed A1", "framed A2", "random 0", "random 11"])
def test_cocenter_adds_rows_on_cycles_only(case, record_spans):
    """Every non-cycle is a commutator, so each row a.y - y.a has a from y's
    target back to y's source and lies on the degree's cycles."""
    if case == "E6":
        q = build_doubled_dynkin("E", 6)
        gb = graded_basis(q, preprojective_relations(q), 12)
    elif case.startswith("framed"):
        q, rels = framed_affine_preprojective(case[-2], int(case[-1]))
        gb = graded_basis(q, rels, 8)
    else:
        q, rels = random_quotient(random.Random(int(case.split()[1])))
        gb = graded_basis(q, rels, 5)
    spans = record_spans("algebra")
    cocenter(gb)
    for d, span in enumerate(spans):
        cycles = cycle_keys(gb, d)
        assert all(row.keys() <= cycles for row in span.rows)
    if case == "E6":   # 26 rows enlarge the span: E6's cycles of positive degree
        assert sum(len(span.rows) for span in spans) == 38


@pytest.mark.parametrize("kind, rank, h, calls",
                         [("A", 8, 9, 170), ("D", 8, 14, 499), ("E", 6, 12, 262),
                          ("E", 7, 18, 747)])
def test_cocenter_builds_last_degree_products_only_for_its_rows(kind, rank, h, calls,
                                                                monkeypatch):
    """No degree reads the last degree's y.a, so it builds one only for a row
    it adds; keeping every y.a, as the earlier degrees do, would cost 26, 17,
    18 and 13 more arrow steps on A8, D8, E6 and E7."""
    q = build_doubled_dynkin(kind, rank)
    gb = graded_basis(q, preprojective_relations(q), h)
    seen = []
    real_extend = GradedBasis._extend

    def extending(self, vec, arrows):
        seen.append(arrows)
        return real_extend(self, vec, arrows)

    monkeypatch.setattr(GradedBasis, "_extend", extending)
    cc = cocenter(gb)
    assert cc.degree_dims == (rank,) + (0,) * gb.top_degree
    assert len(seen) == calls


def test_cocenter_of_two_free_loops_counts_necklaces():
    q = Quiver(["1"], [Arrow("x", "1", "1"), Arrow("y", "1", "1")])
    cc = cocenter(graded_basis(q, RelationSet(q, []), 8))
    # binary necklaces of length d: (1/d) * sum over e | d of phi(e) * 2^(d/e)
    assert cc.degree_dims == (1, 2, 3, 4, 6, 8, 14, 20, 36)
    assert cc.truncated


def test_cocenter_of_a_commutative_polynomial_ring_is_the_ring():
    q = Quiver(["1"], [Arrow("x", "1", "1"), Arrow("y", "1", "1")])
    xy = AlgebraElement.from_path(Path(q, "1", ("y", "x")))
    yx = AlgebraElement.from_path(Path(q, "1", ("x", "y")))
    cc = cocenter(graded_basis(q, RelationSet(q, [xy - yx]), 8))
    assert cc.degree_dims == tuple(range(1, 10))


def test_cocenter_of_an_undoubled_path_algebra():
    # every arrow a from s to t equals [e_t, a], so only the idempotents survive
    q = Quiver(["1", "2", "3"], [Arrow("a", "1", "2"), Arrow("b", "2", "3")])
    gb = graded_basis(q, RelationSet(q, []), 3)
    assert gb.dimensions == [3, 2, 1, 0]
    cc = cocenter(gb)
    assert cc.degree_dims == (3, 0, 0)
    assert not cc.truncated


# -- vertex restriction ------------------------------------------------------


def test_restrict_drops_killed_terms():
    q = build_doubled_dynkin("A", 3)
    sub, rels = restrict_to_vertices(q, preprojective_relations(q), ["1", "2"])
    assert sub.vertices == ("1", "2")
    assert {a.name for a in sub.arrows} == {"a", "a*"}
    # the vertex-2 relation loses its term through vertex 3
    assert [r.text() for r in rels] == ["-a*.a", "a.a*"]
    assert rels == preprojective_relations(sub)


def test_restrict_keeps_tags():
    q, rels = framed_affine_preprojective("A", 1)
    sub, srels = restrict_to_vertices(q, rels, ["0", "1"])
    assert sub.tag("0") == "J" and sub.tag("1") == "K"
    assert [r.text() for r in srels] == [r.text() for r in rels]


def test_restrict_unknown_vertex():
    q = build_doubled_dynkin("A", 2)
    with pytest.raises(ValueError):
        restrict_to_vertices(q, preprojective_relations(q), ["1", "9"])
