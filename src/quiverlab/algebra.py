"""Path algebras with homogeneous relations: elements, graded bases, cocenters."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import VerificationError
from .linalg import SpanBuilder, axpy
from .quivers import Path, Quiver, build_doubled_affine_dynkin, frame

_ZERO = Fraction(0)
_ONE = Fraction(1)


class AlgebraElement:
    """A finite rational linear combination of paths of a single quiver."""

    __slots__ = ("quiver", "terms")

    def __init__(self, quiver: Quiver, terms: Mapping[Path, Fraction] | None = None) -> None:
        self.quiver = quiver
        data = {}
        if terms:
            for p, c in terms.items():
                c = Fraction(c)
                if c:
                    data[p] = c
        self.terms = data

    @staticmethod
    def zero(quiver: Quiver) -> "AlgebraElement":
        return AlgebraElement(quiver)

    @staticmethod
    def from_path(path: Path, coefficient=1) -> "AlgebraElement":
        return AlgebraElement(path.quiver, {path: Fraction(coefficient)})

    @staticmethod
    def idempotent(quiver: Quiver, vertex: str) -> "AlgebraElement":
        return AlgebraElement.from_path(Path.idempotent(quiver, vertex))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, AlgebraElement)
                and self.quiver == other.quiver and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.quiver, frozenset(self.terms.items())))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = dict(self.terms)
        axpy(out, 1, other.terms)
        return AlgebraElement(self.quiver, out)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.quiver, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def scale(self, c) -> "AlgebraElement":
        c = Fraction(c)
        return AlgebraElement(self.quiver, {p: c * v for p, v in self.terms.items()})

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """Bilinear function-order product; non-composable path pairs vanish."""
        out: dict[Path, Fraction] = {}
        for p, cp in self.terms.items():
            axpy(out, cp, {p * q: cq for q, cq in other.terms.items() if q.target == p.source})
        return AlgebraElement(self.quiver, out)

    # -- homogeneity -------------------------------------------------------

    def is_homogeneous(self, weights: Mapping[str, int] | None = None) -> bool:
        """Same degree, source and target across all terms (zero counts).

        Degree is path length, or total arrow weight when ``weights`` is
        given (arrows missing from the mapping weigh 1).
        """
        if weights is None:
            sig = {(p.length, p.source, p.target) for p in self.terms}
        else:
            sig = {(sum(weights.get(a, 1) for a in p.arrows), p.source, p.target)
                   for p in self.terms}
        return len(sig) <= 1

    def _unique(self, values: set, what: str):
        if not values:
            raise ValueError(f"zero element has no {what}")
        if len(values) > 1:
            raise ValueError(f"element has no single {what}")
        return next(iter(values))

    @property
    def length(self) -> int:
        return self._unique({p.length for p in self.terms}, "length")

    @property
    def source(self) -> str:
        return self._unique({p.source for p in self.terms}, "source")

    @property
    def target(self) -> str:
        return self._unique({p.target for p in self.terms}, "target")

    def on_quiver(self, quiver: Quiver) -> "AlgebraElement":
        """Rebuild this element over another quiver sharing its arrow names."""
        out = {}
        for p, c in self.terms.items():
            out[Path(quiver, p.base, p.arrows)] = c
        return AlgebraElement(quiver, out)

    def sorted_terms(self) -> list[tuple[Path, Fraction]]:
        return sorted(self.terms.items(), key=lambda it: (it[0].length, it[0].key))

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for p, c in self.sorted_terms():
            body = p.text()
            if c == 1:
                s = body
            elif c == -1:
                s = f"-{body}"
            else:
                s = f"{c}*{body}"
            parts.append(s)
        out = parts[0]
        for s in parts[1:]:
            out += f" - {s[1:]}" if s.startswith("-") else f" + {s}"
        return out

    def __repr__(self) -> str:
        return f"AlgebraElement({self.text()})"


class RelationSet:
    """Homogeneous two-sided ideal generators for a path algebra quotient.

    Every generator must be nonzero, of uniform positive degree, and with
    all terms sharing source and target.  An optional arrow-weight mapping
    switches the degree from path length to total weight, which lets
    relations mix word lengths (as presentations of corner algebras do).
    """

    def __init__(self, quiver: Quiver, relations: Iterable[AlgebraElement],
                 weights: Mapping[str, int] | None = None) -> None:
        self.quiver = quiver
        self.weights = dict(weights) if weights else None
        rels = tuple(relations)
        for r in rels:
            if not r:
                raise ValueError("zero relation")
            if r.quiver != quiver:
                raise ValueError("relation over a different quiver")
            if not r.is_homogeneous(self.weights):
                raise ValueError(f"inhomogeneous relation {r.text()!r}")
            if any(not p.arrows for p in r.terms):
                raise ValueError("relations must have positive length")
        self.relations = rels

    def __iter__(self):
        return iter(self.relations)

    def __len__(self) -> int:
        return len(self.relations)

    def __getitem__(self, i: int) -> AlgebraElement:
        return self.relations[i]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, RelationSet)
                and self.quiver == other.quiver
                and self.relations == other.relations
                and self.weights == other.weights)

    def on_quiver(self, quiver: Quiver) -> "RelationSet":
        return RelationSet(quiver, (r.on_quiver(quiver) for r in self.relations),
                           self.weights)

    def __repr__(self) -> str:
        return f"RelationSet({len(self.relations)} relations)"


def star_pairing(quiver: Quiver) -> dict[str, str]:
    """Pair arrows with their ``*``-partners; error on any unpaired arrow."""
    pairs = {}
    for a in quiver.arrows:
        if a.name.endswith("*"):
            base = a.name[:-1]
            if not quiver.has_arrow(base):
                raise ValueError(f"unpaired arrow {a.name!r}")
            continue
        partner = a.name + "*"
        if not quiver.has_arrow(partner):
            raise ValueError(f"unpaired arrow {a.name!r}")
        b = quiver.arrow(partner)
        if (b.source, b.target) != (a.target, a.source):
            raise ValueError(f"arrows {a.name!r} and {partner!r} are not mutually reverse")
        pairs[a.name] = partner
    return pairs


def preprojective_relations(quiver: Quiver) -> RelationSet:
    """Per-vertex moment-map relations of a doubled quiver.

    At each vertex i the generator is
    sum over arrows a with target i of a a*  minus  sum over arrows a with
    source i of a* a, running over the chosen-orientation (unstarred) arrows.
    Vertices where the sum is empty contribute nothing.
    """
    pairs = star_pairing(quiver)
    rels = []
    for v in quiver.vertices:
        terms: dict[Path, Fraction] = {}
        for name, star in pairs.items():
            a = quiver.arrow(name)
            if a.target == v:
                # a a*: apply a* first, then a; a cycle at v
                p = Path(quiver, v, (star, name))
                terms[p] = terms.get(p, _ZERO) + 1
            if a.source == v:
                p = Path(quiver, v, (name, star))
                terms[p] = terms.get(p, _ZERO) - 1
        el = AlgebraElement(quiver, terms)
        if el:
            rels.append(el)
    return RelationSet(quiver, rels)


def framed_affine_preprojective(kind: str, rank: int) -> tuple[Quiver, RelationSet]:
    """Framed doubled affine ADE quiver with its preprojective relations.

    The framing arrow takes part in no relation.
    """
    base = build_doubled_affine_dynkin(kind, rank)
    rels = preprojective_relations(base)
    framed = frame(base, "0")
    return framed, rels.on_quiver(framed)


# -- graded bases ------------------------------------------------------------


class GradedBasis:
    """Degreewise monomial basis and normal form data for a quotient algebra.

    The quotient of the path algebra by the homogeneous ideal generated by
    ``relations`` is processed degree by degree up to ``cutoff``.  The
    monomial order (within a degree: lex on the source index followed by the
    arrow indices in application order) is multiplicative, so the leading
    paths of the ideal form a two-sided monomial ideal and every factor of a
    standard path is standard.  That keeps the work per degree proportional
    to the quotient, not to the raw path count:

    * candidates in degree d are the standard paths of degree d-1 extended
      by one arrow acting after them;
    * the degree-d slice of the ideal is spanned, in those coordinates, by
      the products r*s over relations r and standard paths s acting first
      (rows with a longer acts-last cofactor rewrite to zero through the
      degree d-1 normal forms);
    * max-key elimination then leaves the lexicographically smallest
      surviving candidates as the standard basis.

    If some degree turns out empty the algebra is flagged finite-dimensional
    (no candidates can ever reappear) and ``top_degree`` records the last
    nonzero degree.
    """

    def __init__(self, quiver: Quiver, relations: RelationSet, cutoff: int) -> None:
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        if relations.quiver != quiver:
            raise ValueError("relations belong to a different quiver")
        self.quiver = quiver
        self.relations = relations
        self.cutoff = cutoff
        self._std: list[dict[tuple, Path]] = []
        self._pivots: list[dict[tuple, dict[tuple, Fraction]]] = []
        self.finite_dimensional = False
        self.top_degree: int | None = None
        self._build()

    # -- construction ----------------------------------------------------

    def _build(self) -> None:
        quiver = self.quiver
        outgoing = {v: [(a, quiver.arrow_index(a.name)) for a in quiver.arrows_from(v)]
                    for v in quiver.vertices}
        # relations have positive degree, so every idempotent is standard
        self._std.append({(i,): Path.idempotent(quiver, v)
                          for i, v in enumerate(quiver.vertices)})
        self._pivots.append({})
        for d in range(1, self.cutoff + 1):
            # candidates stay keys, a standard key plus one arrow index, until
            # elimination has picked the leads; only the rest become Paths.
            # The standard tables are key-ordered, so this enumeration is too.
            cands = [(key + (ai,), p, a) for key, p in self._std[d - 1].items()
                     for a, ai in outgoing[p.target]]
            span = SpanBuilder()
            for row in self._relation_rows(d):
                span.add(row)
            pivots = span.pivots
            # every tail key is below its lead, so the tails a lead draws on
            # are already rewritten over standard keys when it comes up
            for lead in sorted(pivots):
                tail = pivots[lead]
                out = {t: c for t, c in tail.items() if t not in pivots}
                for t, c in tail.items():
                    if t in pivots:
                        axpy(out, c, pivots[t])
                pivots[lead] = out
            self._pivots.append(pivots)
            self._std.append({key: p.extend(a) for key, p, a in cands if key not in pivots})
        if not all(self._std):
            self.finite_dimensional = True
            self.top_degree = max((d for d, std in enumerate(self._std) if std),
                                  default=0)

    def _relation_rows(self, d: int):
        for rel in self.relations:
            e = rel.length
            if e > d:
                continue
            source = rel.source
            terms = [(c, p.key[1:-1], p.key[-1:]) for p, c in rel.terms.items()]
            for s_key, s in self._std[d - e].items():   # s acts first
                if s.target != source:
                    continue
                row: dict[tuple, Fraction] = {}
                for c, arrows, last in terms:
                    axpy(row, c, {m + last: cm
                                  for m, cm in self.extend({s_key: _ONE}, arrows).items()})
                if row:
                    yield row

    # -- queries ----------------------------------------------------------

    @property
    def dimensions(self) -> list[int]:
        """Graded dimensions for degrees 0..cutoff."""
        return [len(std) for std in self._std]

    def dimension(self, d: int) -> int:
        self._check_degree(d)
        return len(self._std[d])

    def basis(self, d: int) -> list[Path]:
        self._check_degree(d)
        return list(self._std[d].values())

    def _check_degree(self, d: int) -> None:
        if d < 0 or d > self.cutoff:
            raise ValueError(f"degree {d} exceeds the cutoff {self.cutoff}")

    def extend(self, vec: Mapping[tuple, Fraction],
               arrows: Sequence[int]) -> Mapping[tuple, Fraction]:
        """Coordinates of ``vec`` with ``arrows`` (by index) applied after it.

        ``vec`` holds coordinates over the standard keys of one degree.  Each
        arrow step reads one candidate's pivot per key; a term whose path
        ends away from the arrow's source vanishes, and a unit vector steps
        to its candidate's pivot with no product.  The result may be shared
        with ``vec`` or with the basis's pivots: read it, or copy it before
        changing it.
        """
        if not vec:
            return vec
        d = len(next(iter(vec))) - 1
        self._check_degree(d + len(arrows))
        for ai in arrows:
            d += 1
            std, pivots = self._std[d], self._pivots[d]
            out: dict[tuple, Fraction] = {}
            for m, c in vec.items():
                key = m + (ai,)
                if key in pivots:
                    tail = pivots[key]
                elif key in std:
                    tail = {key: _ONE}
                else:
                    continue
                if c == 1 and len(vec) == 1:
                    out = tail
                else:
                    axpy(out, c, tail)
            vec = out
        return vec

    def coords(self, path: Path) -> Mapping[tuple, Fraction]:
        """Coordinates of a path over the standard keys of its degree.

        The result may be shared with the basis's pivots: read it, or copy it
        before changing it.
        """
        if path.quiver is not self.quiver and path.quiver != self.quiver:
            raise ValueError("path over a different quiver")
        return self.extend({path.key[:1]: _ONE}, path.key[1:])

    def nf_path(self, path: Path) -> dict[Path, Fraction]:
        """Normal form of a single path as a basis-path combination."""
        coords = self.coords(path)
        table = self._std[path.length]
        return {table[k]: c for k, c in coords.items()}

    def reduce(self, x: AlgebraElement) -> AlgebraElement:
        """Canonical representative of x supported on standard paths."""
        if x.quiver != self.quiver:
            raise ValueError("element over a different quiver")
        out: dict[Path, Fraction] = {}
        for p, c in x.terms.items():
            axpy(out, c, self.nf_path(p))
        return AlgebraElement(self.quiver, out)

    def normal_form(self, x: AlgebraElement) -> dict[int, tuple[Fraction, ...]]:
        """Degreewise coordinates of the class of x in the graded basis.

        The result maps each degree occurring in x to the coordinate vector
        over ``basis(d)``; x lies in the ideal exactly when every vector is
        zero.
        """
        if x.quiver != self.quiver:
            raise ValueError("element over a different quiver")
        vecs: dict[int, dict[tuple, Fraction]] = {}
        for p, c in x.terms.items():
            axpy(vecs.setdefault(p.length, {}), c, self.coords(p))
        return {d: tuple(vecs[d].get(k, _ZERO) for k in self._std[d])
                for d in sorted(vecs)}

    def __repr__(self) -> str:
        kind = "finite" if self.finite_dimensional else f"truncated@{self.cutoff}"
        return f"GradedBasis(dims={self.dimensions}, {kind})"


def graded_basis(quiver: Quiver, relations: RelationSet, max_degree: int) -> GradedBasis:
    """Degreewise basis of the quotient algebra up to max_degree."""
    return GradedBasis(quiver, relations, max_degree)


def normal_form(x: AlgebraElement, basis: GradedBasis) -> dict[int, tuple[Fraction, ...]]:
    return basis.normal_form(x)


def restrict_to_vertices(quiver: Quiver, relations: RelationSet,
                         keep: Iterable[str]) -> tuple[Quiver, RelationSet]:
    """Quotient data for killing the idempotents of all vertices not kept.

    The result is the full subquiver on ``keep`` together with the surviving
    relations: generators whose endpoints were killed disappear, and in the
    rest every term passing through a killed vertex is dropped.
    """
    keep_set = set(keep)
    for v in keep_set:
        if v not in quiver.partition:
            raise ValueError(f"unknown vertex {v!r}")
    vertices = tuple(v for v in quiver.vertices if v in keep_set)
    arrows = tuple(a for a in quiver.arrows
                   if a.source in keep_set and a.target in keep_set)
    partition = {v: quiver.tag(v) for v in vertices}
    sub = Quiver(vertices, arrows, partition)
    rels = []
    for r in relations:
        if r.source not in keep_set or r.target not in keep_set:
            continue
        terms = {}
        for p, c in r.terms.items():
            if all(v in keep_set for v in p.vertices_visited()):
                terms[Path(sub, p.base, p.arrows)] = c
        el = AlgebraElement(sub, terms)
        if el:
            rels.append(el)
    return sub, RelationSet(sub, rels)


# -- cocenter ---------------------------------------------------------------


@dataclass(frozen=True)
class Cocenter:
    """Graded dimensions and representatives of A modulo [A, A]."""

    degree_dims: tuple[int, ...]
    representatives: tuple[tuple[Path, ...], ...]
    truncated: bool


def cocenter(basis: GradedBasis, cutoff: int | None = None) -> Cocenter:
    """Degreewise quotient of the algebra by its commutator subspace [A, A].

    Since [xy, z] = [x, yz] + [y, zx], induction on length shows that [A, A]
    in degree d is spanned by [e_i, y] and by [a, y] = ay - ya, for arrows a
    and basis paths y.  [e_i, y] is 0 when y is a cycle and +-y otherwise,
    and a path y = ay' that is not a cycle already equals [a, y'].  So the
    rows ay - ya over arrows a and basis paths y of degree d - 1 span it:
    #arrows * dim(d - 1) rows, not one per basis pair of complementary
    degrees.  Representatives are the standard basis paths whose
    coordinates complete that span.
    """
    if cutoff is None:
        cutoff = basis.top_degree if basis.finite_dimensional else basis.cutoff
        assert cutoff is not None
    if not 0 <= cutoff <= basis.cutoff:
        raise ValueError(f"cocenter cutoff {cutoff} is outside 0..{basis.cutoff}")
    # each arrow's endpoints, its source's idempotent key and its index
    quiver = basis.quiver
    arrows = [(a.source, a.target, (quiver.vertex_index(a.source),),
               quiver.arrow_index(a.name)) for a in quiver.arrows]
    dims = []
    reps = []
    for d in range(cutoff + 1):
        span = SpanBuilder()
        for y in basis.basis(d - 1) if d else ():
            for source, target, base, ai in arrows:
                # a.y: a acts after y; y.a: a acts first
                row = dict(basis.extend({y.key: _ONE}, (ai,))) if source == y.target else {}
                if target == y.source:
                    axpy(row, -1, basis.extend({base: _ONE}, (ai,) + y.key[1:]))
                if row:
                    span.add(row)
        degree_reps = tuple(p for p in basis.basis(d) if p.key not in span.pivots)
        dims.append(basis.dimension(d) - span.rank)
        reps.append(degree_reps)
        if len(degree_reps) != dims[-1]:
            raise VerificationError(
                f"cocenter degree {d} has {len(degree_reps)} representatives "
                f"for dimension {dims[-1]}")
    return Cocenter(tuple(dims), tuple(reps), truncated=not basis.finite_dimensional)
