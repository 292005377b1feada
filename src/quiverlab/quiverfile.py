"""Line-oriented text format for quivers, relations, and vector data.

Grammar (``#`` starts a comment, blank lines ignored)::

    vertex <name> [F|J|K]
    arrow <name>: <src> -> <tgt> [@<weight>]
    relation <term> ( (+|-) <term> )*
    dimension <name>=<nat> ...
    stability <name>=<int> ...

A relation term is ``[coef*]name.name.....name`` with dot-separated arrow
names; the rightmost arrow acts first.  Coefficients are rational literals
like ``3`` or ``5/2``.  Names must not start with a digit and must avoid
whitespace and the punctuation the grammar itself uses; ``*`` is fine (and
needed for doubled-quiver arrows).  The printer emits a canonical form that
parses back to the same data.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import AlgebraElement, RelationSet
from .errors import Record
from .linalg import axpy
from .quivers import (Arrow, DimensionVector, Path, Quiver, StabilityVector,
                      TAGS)

_BAD_NAME_CHARS = set(" \t.+-=:@^/#\"<>(),;|")
_ARROW_RE = re.compile(r"^(?P<name>\S+)\s*:\s*(?P<src>\S+)\s*->\s*(?P<tgt>\S+)"
                       r"(?:\s+@(?P<weight>[0-9]+))?$")
_COEF_RE = re.compile(r"^([0-9]+(?:/[0-9]+)?)\*")
# ASCII digits only: int() would also take "1_0" and other scripts' digits
_INT_RE = re.compile(r"-?[0-9]+")


class ParseError(ValueError):
    """A syntax or semantic error in a quiver file, with its location."""

    def __init__(self, message: str, line: int, column: int = 1) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _valid_vertex_name(name: str) -> bool:
    return bool(name) and not (set(name) & _BAD_NAME_CHARS)


def _valid_name(name: str) -> bool:
    # arrow names appear in relation terms, where a leading digit would
    # collide with coefficient syntax; vertex names never do
    return _valid_vertex_name(name) and not name[0].isdigit()


class QuiverFile(Record):
    """Parsed contents of a quiver file; unlike the other records, it is mutable."""

    __slots__ = _fields = ("quiver", "relations", "dimensions", "stability", "weights")
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__
    __hash__ = None

    def __init__(self, quiver: Quiver, relations: RelationSet, dimensions: list | None = None,
                 stability: StabilityVector | None = None, weights: dict | None = None) -> None:
        super().__init__(quiver, relations, [] if dimensions is None else dimensions,
                         stability, {} if weights is None else weights)

    def text(self) -> str:
        return print_quiver_file(self)


def parse_quiver_file(text: str) -> QuiverFile:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].rstrip()
        if body.strip():
            lines.append((lineno, body))

    vertices: list[str] = []
    partition: dict[str, str] = {}
    arrows: dict[str, tuple[Arrow, int]] = {}   # name -> (arrow, line)
    weights: dict[str, int] = {}
    deferred: list[tuple[int, str, str, int]] = []   # (line, keyword, rest, column)

    for lineno, body in lines:
        stripped = body.strip()
        parts = stripped.split(None, 1)
        keyword = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        col = body.index(keyword) + 1
        if keyword == "vertex":
            fields = rest.split()
            if not 1 <= len(fields) <= 2:
                raise ParseError("expected `vertex <name> [F|J|K]`", lineno, col)
            name = fields[0]
            if not _valid_vertex_name(name):
                raise ParseError(f"invalid vertex name {name!r}", lineno, col)
            if name in partition:
                raise ParseError(f"duplicate vertex {name!r}", lineno, col)
            tag = fields[1] if len(fields) == 2 else "K"
            if tag not in TAGS:
                raise ParseError(f"unknown tag {tag!r}", lineno, col)
            vertices.append(name)
            partition[name] = tag
        elif keyword == "arrow":
            m = _ARROW_RE.match(rest)
            if m is None:
                raise ParseError("expected `arrow <name>: <src> -> <tgt>`",
                                 lineno, col)
            name = m.group("name")
            if not _valid_name(name):
                raise ParseError(f"invalid arrow name {name!r}", lineno, col)
            if name in arrows:
                raise ParseError(f"duplicate arrow {name!r}", lineno, col)
            arrows[name] = (Arrow(name, m.group("src"), m.group("tgt")), lineno)
            if m.group("weight") is not None:
                weights[name] = int(m.group("weight"))
        elif keyword in ("relation", "dimension", "stability"):
            rest_col = body.index(rest, col - 1 + len(keyword)) + 1 if rest else col
            deferred.append((lineno, keyword, rest, rest_col))
        else:
            raise ParseError(f"unknown keyword {keyword!r}", lineno, col)

    for a, lineno in arrows.values():
        for endpoint in (a.source, a.target):
            if endpoint not in partition:
                raise ParseError(f"arrow {a.name!r} uses undeclared vertex "
                                 f"{endpoint!r}", lineno)
    quiver = Quiver(vertices, [a for a, _ in arrows.values()], partition)

    relations: list[AlgebraElement] = []
    dimensions: list[DimensionVector] = []
    stability: StabilityVector | None = None
    for lineno, keyword, rest, rest_col in deferred:
        if keyword == "relation":
            relations.append(_parse_relation(quiver, rest, lineno, weights, rest_col))
        elif keyword == "dimension":
            dimensions.append(DimensionVector(_parse_assignments(
                quiver, rest, lineno, allow_negative=False, col0=rest_col)))
        else:
            if stability is not None:
                raise ParseError("more than one stability line", lineno, rest_col)
            stability = StabilityVector(_parse_assignments(
                quiver, rest, lineno, allow_negative=True, col0=rest_col))

    return QuiverFile(quiver, RelationSet(quiver, relations, weights or None),
                      dimensions, stability, weights)


def _parse_relation(quiver: Quiver, body: str, lineno: int,
                    weights: dict[str, int], col0: int = 1) -> AlgebraElement:
    tokens = body.split()
    if not tokens:
        raise ParseError("empty relation", lineno, col0)
    terms: dict[Path, Fraction] = {}
    sign = Fraction(1)
    expect_term = True
    offset = 0
    for token in tokens:
        col = body.index(token, offset) + col0
        offset = col - col0 + len(token)
        if not expect_term:
            if token == "+":
                sign = Fraction(1)
            elif token == "-":
                sign = Fraction(-1)
            else:
                raise ParseError(f"expected + or - before {token!r}", lineno, col)
            expect_term = True
            continue
        term = token
        if term.startswith("-"):
            sign, term = -sign, term[1:]
        elif term.startswith("+"):
            term = term[1:]
        coef = sign
        m = _COEF_RE.match(term)
        if m is not None:
            try:
                coef *= Fraction(m.group(1))
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {m.group(1)!r}", lineno,
                                 col + len(token) - len(term)) from None
            term = term[m.end():]
        if not term:
            raise ParseError("coefficient without a path", lineno, col)
        names = term.split(".")
        for name in names:
            if not quiver.has_arrow(name):
                raise ParseError(f"unknown arrow {name!r}", lineno, col)
        applied = list(reversed(names))   # rightmost acts first
        base = quiver.arrow(applied[0]).source
        try:
            path = Path(quiver, base, tuple(applied))
        except ValueError:
            raise ParseError(f"path {term!r} does not compose", lineno, col) from None
        axpy(terms, 1, {path: coef})
        expect_term = False
    if expect_term:
        raise ParseError("relation ends with a dangling sign", lineno, col0)
    total = AlgebraElement(quiver, terms)
    if not total:
        raise ParseError("relation cancels to zero", lineno, col0)
    if not total.is_homogeneous(weights or None):
        raise ParseError("relation is not homogeneous in degree, source, "
                         "and target", lineno, col0)
    return total


def _parse_assignments(quiver: Quiver, body: str, lineno: int,
                       allow_negative: bool, col0: int = 1) -> dict[str, int]:
    out: dict[str, int] = {}
    if not body.split():
        raise ParseError("expected `<vertex>=<integer>` assignments", lineno, col0)
    offset = 0
    for token in body.split():
        col = body.index(token, offset) + col0
        offset = col - col0 + len(token)
        name, eq, value = token.partition("=")
        if not eq or not value:
            raise ParseError(f"expected `<vertex>=<integer>`, got {token!r}",
                             lineno, col)
        if name not in quiver.partition:
            raise ParseError(f"unknown vertex {name!r}", lineno, col)
        if name in out:
            raise ParseError(f"vertex {name!r} assigned twice", lineno, col)
        if not _INT_RE.fullmatch(value):
            raise ParseError(f"bad integer {value!r}", lineno, col)
        n = int(value)
        if n < 0 and not allow_negative:
            raise ParseError("dimensions must be nonnegative", lineno, col)
        out[name] = n
    return out


def print_quiver_file(qf: QuiverFile) -> str:
    lines = []
    for v in qf.quiver.vertices:
        lines.append(f"vertex {v} {qf.quiver.tag(v)}")
    for a in qf.quiver.arrows:
        suffix = f" @{qf.weights[a.name]}" if a.name in qf.weights else ""
        lines.append(f"arrow {a.name}: {a.source} -> {a.target}{suffix}")
    for rel in qf.relations:
        lines.append(f"relation {rel.text()}")
    for dv in qf.dimensions:
        inner = " ".join(f"{v}={dv[v]}" for v in qf.quiver.vertices if v in dv)
        lines.append(f"dimension {inner}")
    if qf.stability is not None:
        inner = " ".join(f"{v}={qf.stability[v]}"
                         for v in qf.quiver.vertices if v in qf.stability)
        lines.append(f"stability {inner}")
    return "\n".join(lines) + "\n"
