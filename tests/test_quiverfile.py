"""The line-oriented quiver file format: parsing, printing, errors."""

import random
import time
from fractions import Fraction

import pytest

from quiverlab.algebra import (AlgebraElement, framed_affine_preprojective,
                               preprojective_relations)
from quiverlab.quiverfile import ParseError, QuiverFile, parse_quiver_file, print_quiver_file
from quiverlab.quivers import Path, build_doubled_dynkin

from conftest import FIXTURES

ALL_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.quiver"))


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixture_files_round_trip(name):
    text = (FIXTURES / name).read_text()
    qf = parse_quiver_file(text)
    again = parse_quiver_file(print_quiver_file(qf))
    assert again.quiver == qf.quiver
    assert list(again.relations) == list(qf.relations)
    assert again.dimensions == qf.dimensions
    assert again.stability == qf.stability
    assert again.weights == qf.weights


def test_fixture_a2_matches_builder():
    qf = parse_quiver_file((FIXTURES / "a2.quiver").read_text())
    q = build_doubled_dynkin("A", 2)
    assert qf.quiver == q
    assert [r.text() for r in qf.relations] == \
        [r.text() for r in preprojective_relations(q)]
    assert len(qf.dimensions) == 1 and dict(qf.dimensions[0]) == {"1": 1, "2": 1}


def test_fixture_framed_matches_builder():
    qf = parse_quiver_file((FIXTURES / "affine_a1_framed.quiver").read_text())
    q, rels = framed_affine_preprojective("A", 1)
    assert qf.quiver == q
    assert [r.text() for r in qf.relations] == [r.text() for r in rels]


def test_comments_blanks_and_signs():
    qf = parse_quiver_file("""
# a two-cycle
vertex u J
vertex w        # default tag
arrow f: u -> w
arrow g: w -> u

relation -2*g.f
relation 1/3*f.g
dimension u=1 w=2
stability u=-3 w=1
""")
    assert qf.quiver.tag("u") == "J" and qf.quiver.tag("w") == "K"
    assert [r.text() for r in qf.relations] == ["-2*g.f", "1/3*f.g"]
    assert dict(qf.dimensions[0]) == {"u": 1, "w": 2}
    assert dict(qf.stability) == {"u": -3, "w": 1}


def test_relation_term_order():
    # rightmost arrow acts first, so g.f starts at f's source
    qf = parse_quiver_file(
        "vertex u\nvertex w\narrow f: u -> w\narrow g: w -> u\nrelation g.f\n")
    (rel,) = list(qf.relations)
    assert rel.source == "u" and rel.target == "u"


def test_arrow_weights_change_homogeneity():
    text = """vertex u
arrow f: u -> u @2
arrow g: u -> u @1
relation f - g.g
"""
    qf = parse_quiver_file(text)
    assert qf.weights == {"f": 2, "g": 1}
    (rel,) = list(qf.relations)
    assert rel.is_homogeneous(weights=qf.weights)
    # without the weights the same relation is rejected
    with pytest.raises(ParseError, match="homogeneous"):
        parse_quiver_file(text.replace(" @2", "").replace(" @1", ""))


def test_weighted_round_trip():
    text = "vertex u K\narrow f: u -> u @2\narrow g: u -> u @1\nrelation f - g.g\n"
    qf = parse_quiver_file(text)
    assert print_quiver_file(qf) == text


@pytest.mark.parametrize("text,fragment,line", [
    ("vertex a.b\n", "invalid vertex name", 1),
    ("vertex u\narrow 2f: u -> u\n", "invalid arrow name", 2),
    ("vertex u\nvertex u\n", "duplicate vertex", 2),
    ("vertex u X\n", "unknown tag", 1),
    ("vertex u\narrow f u -> u\n", "expected `arrow", 2),
    ("vertex u\narrow f: u -> u\narrow f: u -> u\n", "duplicate arrow", 3),
    ("vertex u\narrow f: u -> w\n", "undeclared vertex", 2),
    ("color u\n", "unknown keyword", 1),
    ("vertex u\narrow f: u -> u\nrelation f +\n", "dangling sign", 3),
    ("vertex u\narrow f: u -> u\nrelation f - f\n", "cancels to zero", 3),
    ("vertex u\narrow f: u -> u\nrelation h\n", "unknown arrow", 3),
    ("vertex u\nvertex w\narrow f: u -> w\nrelation f.f\n", "does not compose", 4),
    ("vertex u\narrow f: u -> u\nrelation 2*\n", "coefficient without a path", 3),
    ("vertex u\ndimension u=-1\n", "nonnegative", 2),
    ("vertex u\ndimension u=x\n", "bad integer", 2),
    ("vertex u\ndimension w=1\n", "unknown vertex", 2),
    ("vertex u\ndimension u=1 u=2\n", "assigned twice", 2),
    ("vertex u\nstability u=1\nstability u=2\n", "more than one stability", 3),
    ("vertex 0\nvertex 1\narrow a:-0 -> 1\n", "undeclared vertex '-0'", 3),
    # integers are ASCII decimal digits, with a sign only where one may go
    ("vertex 1\nvertex 2\ndimension 1=1_0 2=1\n", "bad integer '1_0'", 3),
    ("vertex 1\nvertex 2\ndimension 1=1 2=\u0663\n", "bad integer", 3),
    ("vertex u\nstability u=+3\n", "bad integer '\\+3'", 2),
    ("vertex 1\nvertex 2\narrow a: 1 -> 2 @\u0663\n", "expected `arrow", 3),
    ("vertex u\narrow f: u -> u\nrelation \u0663*f\n", "unknown arrow", 3),
])
def test_parse_errors_carry_locations(text, fragment, line):
    with pytest.raises(ParseError, match=fragment) as info:
        parse_quiver_file(text)
    assert info.value.line == line


def test_long_relation_parses_in_linear_time():
    # 1,000 terms over 500 distinct paths: the second half merges into the first
    n = 1000
    arrows = "".join(f"arrow a{i}: u -> u\n" for i in range(n // 2))
    terms = [(Fraction(i % 5 + 1, i % 3 + 1), f"a{i % 500}", f"a{7 * i % 500}")
             for i in range(n)]
    body = " ".join(f"{'-' if i % 2 else '+'} {c}*{x}.{y}"
                    for i, (c, x, y) in enumerate(terms))[2:]
    start = time.perf_counter()
    qf = parse_quiver_file(f"vertex u\n{arrows}relation {body}\n")
    assert time.perf_counter() - start < 2.0
    want = AlgebraElement.zero(qf.quiver)
    for i, (c, x, y) in enumerate(terms):
        want = want + AlgebraElement.from_path(Path(qf.quiver, "u", (y, x)),
                                               -c if i % 2 else c)
    (rel,) = list(qf.relations)
    assert rel == want and list(rel.terms) == list(want.terms)


def test_error_column_points_at_the_token():
    with pytest.raises(ParseError) as info:
        parse_quiver_file("vertex u\narrow f: u -> u\nrelation f + h\n")
    assert (info.value.line, info.value.column) == (3, 14)


@pytest.mark.parametrize("relation, column", [("1/0*f", 10), ("f - 3/0*f", 14),
                                              ("-2/0*f", 11)])
def test_zero_denominator_points_at_the_coefficient(relation, column):
    with pytest.raises(ParseError, match="zero denominator") as info:
        parse_quiver_file(f"vertex u\narrow f: u -> u\nrelation {relation}\n")
    assert (info.value.line, info.value.column) == (3, column)


def test_printer_is_canonical():
    q, rels = framed_affine_preprojective("D", 4)
    qf = QuiverFile(q, rels)
    text = print_quiver_file(qf)
    assert parse_quiver_file(text).quiver == q
    assert text == print_quiver_file(parse_quiver_file(text))


# characters the grammar gives meaning to, plus a few names and digits
_FUZZ_ALPHABET = "-:>@*.+/=# \t\n0123456789abuFJKx"


def _mutate(text: str, rng: random.Random) -> str:
    """One random edit: delete, insert or replace a character, or drop,
    repeat or swap lines."""
    op = rng.randrange(6)
    lines = text.splitlines(keepends=True)
    if op < 3 or not lines:
        i = rng.randrange(len(text) + 1)
        ch = rng.choice(_FUZZ_ALPHABET)
        if op == 0:
            return text[:i] + text[i + 1:]
        if op == 1:
            return text[:i] + ch + text[i:]
        return text[:i] + ch + text[i + 1:]
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    if op == 3:
        del lines[i]
    elif op == 4:
        lines.insert(j, lines[i])
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return "".join(lines)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_mutated_fixtures_fail_only_with_parse_errors(name):
    # malformed input must give ParseError (or ValueError from a builder),
    # never another exception: the CLI turns only those into `error: ...`
    text = (FIXTURES / name).read_text()
    rng = random.Random(f"fuzz-{name}")
    for _ in range(600):
        mutated = text
        for _ in range(rng.randint(1, 3)):
            mutated = _mutate(mutated, rng)
        try:
            parse_quiver_file(mutated)
        except ValueError:
            pass
