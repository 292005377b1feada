"""Quivers, paths, dimension data, and (affine) ADE diagram builders.

Composition is written in function order throughout: in a product p * q the
path q acts first, and the arrow tuple of a path lists arrows in the order
they are applied.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from functools import cached_property

from .errors import Record
from .linalg import primitive_kernel_vector

TAGS = ("F", "J", "K")

FRAMING_VERTEX = "∞"   # ∞
FRAMING_ARROW = "ι"    # ι


class Arrow(Record):
    __slots__ = _fields = ("name", "source", "target")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.source, self.target) == (other.name, other.source, other.target)

    def __hash__(self) -> int:
        return hash((self.name, self.source, self.target))


class Quiver:
    """A finite directed multigraph with named arrows and a vertex partition.

    Every vertex carries one of the tags F (framing), J, K; the derived sets
    I = J ∪ K and H = F ∪ J are exposed as properties.  Instances are
    immutable and compare structurally.
    """

    def __init__(self, vertices: Iterable[str], arrows: Iterable[Arrow],
                 partition: Mapping[str, str] | None = None) -> None:
        self.vertices = tuple(vertices)
        self.arrows = tuple(arrows)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex name")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow name")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise ValueError(f"arrow {a.name} has an endpoint outside the vertex set")
        part = dict(partition) if partition is not None else {}
        for v in self.vertices:
            tag = part.setdefault(v, "K")
            if tag not in TAGS:
                raise ValueError(f"invalid tag {tag!r} for vertex {v}")
        if set(part) != vset:
            raise ValueError("partition mentions unknown vertices")
        self.partition = part
        self._vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self._arrow_index = {a.name: i for i, a in enumerate(self.arrows)}
        self._arrows_by_name = {a.name: a for a in self.arrows}
        out: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        into: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            out[a.source].append(a)
            into[a.target].append(a)
        self._from = {v: tuple(arrows) for v, arrows in out.items()}
        self._into = {v: tuple(arrows) for v, arrows in into.items()}
        # immutable, so the equality key and its hash are taken once: a Path
        # hashes its quiver on every dict operation
        self._key = (self.vertices, self.arrows, tuple(sorted(part.items())))
        self._hash = hash(self._key)

    # -- lookups ---------------------------------------------------------

    def arrow(self, name: str) -> Arrow:
        try:
            return self._arrows_by_name[name]
        except KeyError:
            raise ValueError(f"unknown arrow {name!r}") from None

    def has_arrow(self, name: str) -> bool:
        return name in self._arrows_by_name

    def arrow_index(self, name: str) -> int:
        return self._arrow_index[name]

    def vertex_index(self, name: str) -> int:
        try:
            return self._vertex_index[name]
        except KeyError:
            raise ValueError(f"unknown vertex {name!r}") from None

    def tag(self, vertex: str) -> str:
        return self.partition[vertex]

    def arrows_from(self, vertex: str) -> tuple[Arrow, ...]:
        return self._from[vertex]

    def arrows_into(self, vertex: str) -> tuple[Arrow, ...]:
        return self._into[vertex]

    def tagged(self, *tags: str) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if self.partition[v] in tags)

    @property
    def f_vertices(self) -> tuple[str, ...]:
        return self.tagged("F")

    @property
    def j_vertices(self) -> tuple[str, ...]:
        return self.tagged("J")

    @property
    def k_vertices(self) -> tuple[str, ...]:
        return self.tagged("K")

    @property
    def i_vertices(self) -> tuple[str, ...]:
        """J ∪ K, in vertex order."""
        return self.tagged("J", "K")

    @property
    def h_vertices(self) -> tuple[str, ...]:
        """F ∪ J, in vertex order."""
        return self.tagged("F", "J")

    # -- equality --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Quiver) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


class Path(Record):
    """A path in a quiver; ``arrows`` lists arrow names in application order.

    A length-0 path is the idempotent at its base vertex.  Paths keep a
    ``__dict__`` for their cached ``target`` and ``key``.
    """

    _fields = ("quiver", "base", "arrows")

    def __init__(self, quiver: Quiver, base: str, arrows: tuple[str, ...] = ()) -> None:
        at = base
        if at not in quiver.partition:
            raise ValueError(f"unknown vertex {at!r}")
        for name in arrows:
            a = quiver.arrow(name)
            if a.source != at:
                raise ValueError(f"non-composable path at arrow {name!r}")
            at = a.target
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "arrows", arrows)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.quiver, self.base, self.arrows) == (other.quiver, other.base, other.arrows)

    def __hash__(self) -> int:
        return hash((self.quiver, self.base, self.arrows))

    @staticmethod
    def idempotent(quiver: Quiver, vertex: str) -> "Path":
        return Path(quiver, vertex)

    @property
    def length(self) -> int:
        return len(self.arrows)

    @property
    def source(self) -> str:
        return self.base

    @cached_property
    def target(self) -> str:
        if not self.arrows:
            return self.base
        return self.quiver.arrow(self.arrows[-1]).target

    @cached_property
    def key(self) -> tuple[int, ...]:
        """Deterministic sort key: source index followed by arrow indices."""
        return (self.quiver.vertex_index(self.base),) + tuple(
            self.quiver.arrow_index(a) for a in self.arrows
        )

    def extend(self, arrow: Arrow) -> "Path":
        """Apply one more arrow after this path: check it, then build through ``Path(...)``."""
        a = self.quiver.arrow(arrow.name)
        if arrow.source != self.target or a.source != self.target:
            raise ValueError("extension arrow does not start at the path target")
        return Path(self.quiver, self.base, self.arrows + (a.name,))

    def __mul__(self, other: "Path") -> "Path":
        """Function-order composition: in p * q the path q acts first."""
        if other.quiver is not self.quiver and other.quiver != self.quiver:
            raise ValueError("paths live in different quivers")
        if other.target != self.source:
            raise ValueError("paths do not compose")
        return Path(self.quiver, other.base, other.arrows + self.arrows)

    def text(self) -> str:
        """Dot-separated arrow names, rightmost acting first."""
        if not self.arrows:
            return f"e_{self.base}"
        return ".".join(reversed(self.arrows))

    def __repr__(self) -> str:
        return f"Path({self.text()}: {self.source}->{self.target})"


class _VertexVector(Mapping):
    """Per-vertex whole numbers, compared and hashed by value.

    ``_noun`` names an entry in error messages; ``_negative`` says whether
    entries may be negative.
    """

    _noun = "entry"
    _negative = True

    def __init__(self, entries: Mapping[str, int]) -> None:
        data = {}
        for k, v in entries.items():
            try:
                n = int(v)
            except (TypeError, ValueError, OverflowError):
                n = None
            # int() would take 1.5 as 1, True as 1 and "2" as 2
            if n is None or n != v or isinstance(v, bool):
                raise ValueError(f"{self._noun} at vertex {k} is not a whole number: {v!r}")
            if n < 0 and not self._negative:
                raise ValueError(f"negative {self._noun} at vertex {k}")
            data[str(k)] = n
        self._data = data

    def __getitem__(self, key: str) -> int:
        return self._data[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, type(self)) and self._data == other._data

    def __hash__(self) -> int:
        return hash(frozenset(self._data.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._data.items()))
        return f"{type(self).__name__}({inner})"


class DimensionVector(_VertexVector):
    """Per-vertex natural numbers."""

    _noun = "dimension"
    _negative = False

    def total(self) -> int:
        return sum(self._data.values())

    def restrict(self, vertices: Iterable[str]) -> "DimensionVector":
        keep = set(vertices)
        return DimensionVector({k: v for k, v in self._data.items() if k in keep})

    def __add__(self, other: "DimensionVector") -> "DimensionVector":
        if set(self) != set(other):
            raise ValueError("dimension vectors over different vertex sets")
        return DimensionVector({k: self[k] + other[k] for k in self})

    def dominates(self, other: "DimensionVector") -> bool:
        """Componentwise ``self >= other`` over a shared vertex set."""
        if set(self) != set(other):
            raise ValueError("dimension vectors over different vertex sets")
        return all(self[k] >= other[k] for k in self)


class StabilityVector(_VertexVector):
    """Per-vertex integers (a GL-character exponent vector)."""

    _noun = "stability"


def evaluate_character(zeta: StabilityVector, dets: Mapping[str, Fraction]) -> Fraction:
    """Product of det(g_i)^{zeta_i} given the per-vertex determinants."""
    if set(dets) != set(zeta):
        raise ValueError("determinants must be given exactly on the support of zeta")
    out = Fraction(1)
    for v, z in zeta.items():
        d = Fraction(dets[v])
        if d == 0:
            raise ValueError(f"zero determinant at vertex {v}")
        out *= d ** z
    return out


# -- diagram builders ------------------------------------------------------


def _edge_name(k: int) -> str:
    # a, b, ..., z, aa, ab, ...
    out = ""
    k += 1
    while k:
        k, r = divmod(k - 1, 26)
        out = chr(ord("a") + r) + out
    return out


def _finite_edges(kind: str, rank: int) -> list[tuple[int, int]]:
    if kind == "A":
        if rank < 1:
            raise ValueError("type A needs rank >= 1")
        return [(i, i + 1) for i in range(1, rank)]
    if kind == "D":
        if rank < 4:
            raise ValueError("type D needs rank >= 4")
        edges = [(i, i + 1) for i in range(1, rank - 1)]
        edges.append((rank - 2, rank))
        return edges
    if kind == "E":
        if rank not in (6, 7, 8):
            raise ValueError("type E needs rank in {6, 7, 8}")
        edges = [(1, 3), (2, 4), (3, 4)]
        edges.extend((i, i + 1) for i in range(4, rank))
        return edges
    raise ValueError(f"unknown Dynkin type {kind!r}")


def _affine_edges(kind: str, rank: int) -> list[tuple[int, int]]:
    edges = _finite_edges(kind, rank)
    if kind == "A":
        if rank == 1:
            edges = [(0, 1), (0, 1)]   # double edge
        else:
            edges = edges + [(0, 1), (0, rank)]
    elif kind == "D":
        edges = edges + [(0, 2)]
    elif kind == "E":
        attach = {6: 2, 7: 1, 8: 8}[rank]
        edges = edges + [(0, attach)]
    return sorted(edges)


def _double(vertices: list[int], edges: list[tuple[int, int]],
            partition: Mapping[str, str]) -> Quiver:
    arrows = []
    for k, (u, v) in enumerate(edges):
        name = _edge_name(k)
        arrows.append(Arrow(name, str(u), str(v)))
        arrows.append(Arrow(name + "*", str(v), str(u)))
    return Quiver([str(v) for v in vertices], arrows, partition)


def build_doubled_dynkin(kind: str, rank: int) -> Quiver:
    """Doubled finite ADE diagram; every vertex is tagged K.

    Each edge {u, v} with u < v yields an arrow u -> v and its reverse,
    named with a trailing ``*``.
    """
    edges = sorted(_finite_edges(kind, rank))
    vertices = list(range(1, rank + 1))
    return _double(vertices, edges, {str(v): "K" for v in vertices})


def build_doubled_affine_dynkin(kind: str, rank: int) -> Quiver:
    """Doubled affine ADE diagram; vertex 0 is tagged J, the rest K."""
    edges = _affine_edges(kind, rank)
    vertices = list(range(0, rank + 1))
    partition = {str(v): "K" for v in vertices}
    partition["0"] = "J"
    return _double(vertices, edges, partition)


def frame(quiver: Quiver, target: str) -> Quiver:
    """Adjoin the framing vertex ∞ (tagged F) and one arrow ι: ∞ -> target."""
    if target not in quiver.partition:
        raise ValueError(f"unknown vertex {target!r}")
    if FRAMING_VERTEX in quiver.partition:
        raise ValueError("quiver already contains the framing vertex")
    if quiver.has_arrow(FRAMING_ARROW):
        raise ValueError("quiver already contains the framing arrow")
    partition = dict(quiver.partition)
    partition[FRAMING_VERTEX] = "F"
    return Quiver(quiver.vertices + (FRAMING_VERTEX,),
                  quiver.arrows + (Arrow(FRAMING_ARROW, FRAMING_VERTEX, target),),
                  partition)


def affine_cartan_matrix(kind: str, rank: int) -> list[list[int]]:
    """2*Id minus the (multiplicity-aware) adjacency of the affine diagram."""
    edges = _affine_edges(kind, rank)
    n = rank + 1
    mat = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for u, v in edges:
        mat[u][v] -= 1
        mat[v][u] -= 1
    return mat


def delta(kind: str, rank: int) -> DimensionVector:
    """Primitive positive generator of the affine Cartan matrix kernel."""
    vec = primitive_kernel_vector(affine_cartan_matrix(kind, rank))
    return DimensionVector({str(i): v for i, v in enumerate(vec)})


def delta_k(kind: str, rank: int) -> DimensionVector:
    """The restriction of delta away from the affine vertex 0."""
    d = delta(kind, rank)
    return d.restrict(v for v in d if v != "0")
