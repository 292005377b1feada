"""Path algebras with homogeneous relations: elements, graded bases, cocenters."""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

from .errors import Record, VerificationError
from .linalg import SpanBuilder, _fraction, _scalar, axpy
from .quivers import Path, Quiver, build_doubled_affine_dynkin, frame

_ZERO = Fraction(0)


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
        # no path occurs twice: (a*, a) and (a, a*) differ across pairs and orders
        terms: dict[Path, int] = {}
        for name, star in pairs.items():
            a = quiver.arrow(name)
            if a.target == v:
                # a a*: apply a* first, then a; a cycle at v
                terms[Path(quiver, v, (star, name))] = 1
            if a.source == v:
                terms[Path(quiver, v, (name, star))] = -1
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


def _step(pivots: Mapping[int, Mapping[int, Fraction]], std: Mapping[int, tuple[str, str]],
          key: int) -> Mapping[int, Fraction] | None:
    """Coordinates of ``key``, a standard key with one arrow index appended,
    read off its degree's pivots and standard table.

    A pivot reads as its tail, which is shared with the pivots (read it, or
    copy it before changing it), and a standard key as itself; None means
    the arrow does not compose with the path.
    """
    tail = pivots.get(key)
    if tail is None and key in std:
        return {key: 1}
    return tail


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

    Inside the basis a path key is one ``int``: a sentinel 1 bit, then the
    source index, then one field per arrow index, each ``_bits`` wide, so
    appending an arrow is a shift and an or, and two keys of one degree
    compare as their tuples do.  Each degree's table maps a standard key to
    its path's (source, target) names; a ``Path`` is built only when one is
    handed out, and ``coords`` and ``extend`` take ``Path.key`` tuples.

    One step rule, ``_step``, reads a standard key with one arrow appended
    off that degree's pivots and table: a pivot as its tail, a standard key
    as itself.  A relation term one arrow past s (all but its last arrow)
    is one such read, whose tail the row builder writes into the row in
    place, shifted by the last arrow; ``_extend`` walks vectors and longer
    words through the same rule.

    If some degree turns out empty the build stops there, since no candidates
    can ever reappear: the algebra is flagged finite-dimensional,
    ``top_degree`` records the last nonzero degree, and every later degree up
    to ``cutoff`` reads as empty.
    """

    def __init__(self, quiver: Quiver, relations: RelationSet, cutoff: int) -> None:
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        if relations.quiver != quiver:
            raise ValueError("relations belong to a different quiver")
        for rel in relations:
            if len({p.length for p in rel.terms}) > 1:
                raise ValueError(f"relation {rel.text()!r} mixes path lengths: the "
                                 "basis grades by path length, not by arrow weight")
        self.quiver = quiver
        self.relations = relations
        self.cutoff = cutoff
        self._bits = max(len(quiver.vertices), len(quiver.arrows)).bit_length()
        # each relation read once: its source, its degree, and per term the
        # coefficient, the arrow indices but the last, and the last
        self._relation_terms = [
            (rel.source, rel.length,
             [(_scalar(c), p.key[1:-1], p.key[-1]) for p, c in rel.terms.items()])
            for rel in relations]
        self._std: list[dict[int, tuple[str, str]]] = []
        self._pivots: list[dict[int, dict[int, Fraction]]] = []
        self.finite_dimensional = False
        self.top_degree: int | None = None
        self._build()

    def _pack(self, key: Sequence[int]) -> int:
        out = 1
        for i in key:
            out = out << self._bits | i
        return out

    def _unpack(self, key: int) -> tuple[int, ...]:
        bits, mask = self._bits, (1 << self._bits) - 1
        return tuple(key >> shift & mask
                     for shift in range(key.bit_length() - 1 - bits, -1, -bits))

    def _path(self, key: int) -> Path:
        quiver = self.quiver
        base, *arrows = self._unpack(key)
        return Path(quiver, quiver.vertices[base], tuple(quiver.arrows[i].name for i in arrows))

    # -- construction ----------------------------------------------------

    def _build(self) -> None:
        quiver, bits = self.quiver, self._bits
        outgoing = {v: [(quiver.arrow_index(a.name), a.target) for a in quiver.arrows_from(v)]
                    for v in quiver.vertices}
        # relations have positive degree, so every idempotent is standard; the
        # tables share one (source, target) tuple per pair, made as it first occurs
        pairs: dict[tuple[str, str], tuple[str, str]] = {}
        self._std.append({1 << bits | i: pairs.setdefault((v, v), (v, v))
                          for i, v in enumerate(quiver.vertices)})
        self._pivots.append({})
        for d in range(1, self.cutoff + 1):
            # a candidate is a standard key plus one arrow index, with its
            # endpoints; the tables are key-ordered, so this enumeration is too
            cands = [(key << bits | ai, (source, target))
                     for key, (source, end) in self._std[d - 1].items()
                     for ai, target in outgoing[end]]
            span = SpanBuilder()
            for row in self._relation_rows(d):
                span.add(row)
            pivots = span.resolve()
            self._pivots.append(pivots)
            self._std.append({key: pairs.setdefault(ends, ends)
                              for key, ends in cands if key not in pivots})
            if not self._std[d]:
                break   # no later degree has a candidate
        if not self._std[-1]:
            self.finite_dimensional = True
            self.top_degree = max(len(self._std) - 2, 0)

    def _relation_rows(self, d: int):
        bits = self._bits
        pivots, std = self._pivots[d - 1], self._std[d - 1]
        for source, e, terms in self._relation_terms:
            if e > d:
                continue
            for s_key, (_, s_target) in self._std[d - e].items():   # s acts first
                if s_target != source:
                    continue
                row: dict[int, Fraction] = {}
                for c, arrows, last in terms:
                    # s times the term's arrows but the last, in degree d - 1
                    vec = (_step(pivots, std, s_key << bits | arrows[0]) if len(arrows) == 1
                           else self._extend({s_key: 1}, arrows))
                    for m, cm in vec.items():
                        key = m << bits | last
                        v = row.get(key)
                        if v is None:
                            row[key] = c * cm
                        elif v := v + c * cm:
                            row[key] = v
                        else:
                            del row[key]
                if row:
                    yield row

    # -- queries ----------------------------------------------------------

    @property
    def dimensions(self) -> list[int]:
        """Graded dimensions for degrees 0..cutoff."""
        return [len(std) for std in self._std] + [0] * (self.cutoff + 1 - len(self._std))

    def dimension(self, d: int) -> int:
        return len(self._table(d))

    def basis(self, d: int) -> list[Path]:
        return [self._path(key) for key in self._table(d)]

    def _table(self, d: int) -> Mapping[int, tuple[str, str]]:
        """Degree d's (source, target) by standard key; empty past the first empty degree."""
        self._check_degree(d)
        return self._std[d] if d < len(self._std) else {}

    def _check_degree(self, d: int) -> None:
        if d < 0 or d > self.cutoff:
            raise ValueError(f"degree {d} exceeds the cutoff {self.cutoff}")

    def _extend(self, vec: Mapping[int, Fraction],
                arrows: Sequence[int]) -> Mapping[int, Fraction]:
        """Coordinates of ``vec`` with ``arrows`` (by index) applied after it.

        ``vec`` holds coordinates over the packed standard keys of one
        degree.  Each arrow step reads one candidate's pivot per key; a term
        whose path ends away from the arrow's source vanishes, and a unit
        vector steps to its candidate's pivot with no product.  The result
        may be shared with ``vec`` or with the basis's pivots: read it, or
        copy it before changing it.
        """
        if not vec:
            return vec
        bits = self._bits
        d = (next(iter(vec)).bit_length() - 1) // bits - 1
        self._check_degree(d + len(arrows))
        if d + len(arrows) >= len(self._std):
            return {}
        for ai in arrows:
            d += 1
            pivots, std = self._pivots[d], self._std[d]
            out: dict[int, Fraction] = {}
            for m, c in vec.items():
                tail = _step(pivots, std, m << bits | ai)
                if tail is None:
                    continue
                if c == 1 and len(vec) == 1:
                    out = tail
                else:
                    axpy(out, c, tail)
            vec = out
        return vec

    def extend(self, vec: Mapping[tuple, Fraction],
               arrows: Sequence[int]) -> dict[tuple, Fraction]:
        """Coordinates of ``vec`` (over the ``Path.key`` tuples of one degree's
        standard paths) with ``arrows`` (by index) applied after it."""
        limit = 1 << self._bits   # a wider index would spill into the next field
        for k in vec:
            if not all(0 <= i < limit for i in k):
                raise ValueError(f"path key {k} has an index outside the quiver")
        out = self._extend({self._pack(k): c for k, c in vec.items()}, arrows)
        return {self._unpack(k): _fraction(c) for k, c in out.items()}

    def _coords(self, path: Path) -> Mapping[int, Fraction]:
        if path.quiver is not self.quiver and path.quiver != self.quiver:
            raise ValueError("path over a different quiver")
        return self._extend({self._pack(path.key[:1]): 1}, path.key[1:])

    def coords(self, path: Path) -> dict[tuple, Fraction]:
        """Fraction coordinates of a path over the standard keys of its degree."""
        return {self._unpack(k): _fraction(c) for k, c in self._coords(path).items()}

    def nf_path(self, path: Path) -> dict[Path, Fraction]:
        """Normal form of a single path as a basis-path combination."""
        return {self._path(k): _fraction(c) for k, c in self._coords(path).items()}

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
        vecs: dict[int, dict[int, Fraction]] = {}
        for p, c in x.terms.items():
            axpy(vecs.setdefault(p.length, {}), c, self._coords(p))
        return {d: tuple(_fraction(vecs[d].get(k, _ZERO)) for k in self._table(d))
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
    return sub, restrict_relations(relations, sub)


def restrict_relations(relations: RelationSet, sub: Quiver) -> RelationSet:
    """The relations over ``sub``, a quiver with a subset of their arrows.

    Terms using an arrow ``sub`` lacks are dropped, and relations left empty
    disappear; the result carries no arrow weights.
    """
    rels = []
    for r in relations:
        el = AlgebraElement(sub, {Path(sub, p.base, p.arrows): c
                                  for p, c in r.terms.items()
                                  if all(sub.has_arrow(a) for a in p.arrows)})
        if el:
            rels.append(el)
    return RelationSet(sub, rels)


# -- cocenter ---------------------------------------------------------------


class Cocenter(Record):
    """Graded dimensions and representatives of A modulo [A, A]."""

    __slots__ = _fields = ("degree_dims", "representatives", "truncated")


def cocenter(basis: GradedBasis, cutoff: int | None = None) -> Cocenter:
    """Degreewise quotient of the algebra by its commutator subspace [A, A].

    Since [xy, z] = [x, yz] + [y, zx], induction on length shows that [A, A]
    in degree d is spanned by [e_i, y] and by [a, y] = ay - ya, for arrows a
    and basis paths y of degree d - 1.  [e_i, y] is 0 when y is a cycle and
    +-y otherwise, and a standard non-cycle p = ay' equals [a, y'], since
    y'a does not compose.  Elimination never mixes (source, target) blocks,
    so the cocenter is read off each degree's cycles (standard keys whose
    source is their target), and the only rows that reach them are ay - ya
    for an arrow a from y's target back to y's source: both products are
    cycles.  So each y visits the arrows into its source.  Each a.y is one
    read of the basis tables (``_step``), and each y.a is y's prefix times
    a, kept from degree d - 1, with y's last arrow applied, so every row
    takes two single-arrow steps.  Once the span has rank #cycles the
    remaining rows are skipped; the y.a are still kept for the next degree,
    except in the last degree, which builds y.a only for a row it adds.
    Representatives are the cycles that lead no pivot; the set of leads
    depends only on the span, not on the order of its rows.  Past the top
    degree of a finite-dimensional algebra every degree is empty, so from
    top degree + 2 on nothing is computed.
    """
    if cutoff is None:
        cutoff = basis.top_degree if basis.finite_dimensional else basis.cutoff
        assert cutoff is not None
    if not 0 <= cutoff <= basis.cutoff:
        raise ValueError(f"cocenter cutoff {cutoff} is outside 0..{basis.cutoff}")
    last = min(cutoff, basis.top_degree + 1) if basis.finite_dimensional else cutoff
    # per vertex, the arrows into it (index, source, the source's idempotent key)
    quiver, bits = basis.quiver, basis._bits
    into: dict[str, list[tuple[int, str, int]]] = {v: [] for v in quiver.vertices}
    for ai, a in enumerate(quiver.arrows):
        into[a.target].append((ai, a.source, 1 << bits | quiver.vertex_index(a.source)))
    dims = []
    reps = []
    # the previous degree's y.a, y's prefix times a, by y's packed key with
    # a's index appended
    prefix_a: dict[int, Mapping[int, Fraction]] = {}
    for d in range(last + 1):
        table, pivots = basis._std[d], basis._pivots[d]
        cycles = [key for key, (source, target) in table.items() if source == target]
        span = SpanBuilder()
        y_a: dict[int, Mapping[int, Fraction]] = {}
        for y_key, (y_source, y_target) in basis._table(d - 1).items() if d else ():
            prefix, y_last = y_key >> bits, y_key & (1 << bits) - 1
            for ai, source, base in into[y_source]:   # y.a: a acts first
                adds = source == y_target and span.rank < len(cycles)
                if d == last and not adds:
                    continue   # no later degree reads this y.a
                ya = y_a[y_key << bits | ai] = (
                    basis._extend(prefix_a[prefix << bits | ai], (y_last,)) if d > 1
                    else _step(pivots, table, base << bits | ai))
                if adds:
                    row = dict(_step(pivots, table, y_key << bits | ai))   # a.y: a acts after y
                    axpy(row, -1, ya)
                    if row:
                        span.add(row)
        prefix_a = y_a
        degree_reps = tuple(basis._path(key) for key in cycles if key not in span.pivots)
        dims.append(len(cycles) - span.rank)
        reps.append(degree_reps)
        if len(degree_reps) != dims[-1]:
            raise VerificationError(
                f"cocenter degree {d} has {len(degree_reps)} representatives "
                f"for dimension {dims[-1]}")
    dims += [0] * (cutoff - last)
    reps += [()] * (cutoff - last)
    return Cocenter(tuple(dims), tuple(reps), not basis.finite_dimensional)
