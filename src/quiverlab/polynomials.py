"""Commutative polynomials over the rationals: orders, Gröbner bases, search.

Everything is exact.  Inside the module a monomial is one packed ``int``: a
``_BITS``-bit field per variable and the total degree in a field above them,
so a product of monomials is an addition, a quotient a subtraction, and
divisibility one guard-bit test.  Every stored monomial has total degree
below 2^31, so a sum of two never carries between fields; whatever can raise
a degree that far raises OverflowError.  Exponent tuples stay the public
face: ``Polynomial(ring, terms)``, ``PolyRing.monomial``, ``Polynomial.terms``,
``lead_exps``, ``GroebnerBasis.leads`` and ``is_standard``.  Coefficients
follow the scalar policy of ``linalg``: ``int`` inside until a division
needs a ``Fraction``, and ``Fraction`` from ``terms`` and ``lead_coeff``.
Variable names may contain characters like ``*`` (they come from arrow
names), so the parser's token pattern tries the ring's variable names,
longest first, before numbers and operators.
"""

from __future__ import annotations

import heapq
import math
import operator
import random
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from types import MappingProxyType

from .errors import BudgetExceeded, Record
from .linalg import _div, _fraction, _scalar, axpy, nullspace

_ZERO = Fraction(0)

ORDERS = ("degrevlex", "lex")

_BITS = 32                     # width of one exponent field of a packed monomial
_LIMIT = 1 << (_BITS - 1)      # every stored monomial's total degree is below this
_FIELD = (1 << _BITS) - 1
# PolyRing keeps one packed unit of 32·(n + 1) bits per variable, so its
# memory grows as n²: 4,096 variables take 67 MB
MAX_VARIABLES = 4096


class PolyRing:
    """A polynomial ring with a fixed variable order and monomial order.

    Variable i sits in field i of a packed monomial under degrevlex and in
    field n - 1 - i under lex, so that the low fields read as one integer
    break the order's ties; the total degree sits in field n.
    """

    __slots__ = ("variables", "order", "_index", "_lex", "_field_variables", "_shifts",
                 "_units", "_top", "_low", "_guards")

    def __init__(self, variables: Iterable[str], order: str = "degrevlex") -> None:
        self.variables = tuple(variables)
        if len(self.variables) > MAX_VARIABLES:
            raise ValueError(f"{len(self.variables)} variables exceed the limit of "
                             f"{MAX_VARIABLES}")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable name")
        for v in self.variables:
            if not v or v[0].isdigit() or any(ch in v for ch in "+-^/. \t"):
                raise ValueError(f"invalid variable name {v!r}")
        if order not in ORDERS:
            raise ValueError(f"unknown monomial order {order!r}")
        self.order = order
        self._index = {v: i for i, v in enumerate(self.variables)}
        n = len(self.variables)
        self._lex = order == "lex"
        # the variable each field holds; the map is its own inverse, so it also
        # gives each variable's field, whose bit offset _shifts lists by variable
        self._field_variables = tuple(n - 1 - k if self._lex else k for k in range(n))
        self._shifts = tuple(_BITS * k for k in self._field_variables)
        self._top = _BITS * n                       # offset of the degree field
        self._low = (1 << self._top) - 1            # the variable fields
        self._units = tuple(1 << s | 1 << self._top for s in self._shifts)
        # the top bit of every field, degree field included: packed a divides
        # b exactly when ((b | guards) - a) & guards == guards, no field borrowing
        self._guards = sum(1 << (_BITS * k + _BITS - 1) for k in range(n + 1))

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def heap_key(self, m: int) -> int:
        """The monomial order, reversed: its largest packed monomial has the least key.

        Under degrevlex the degree decides first, then the smaller low
        fields; under lex the larger low fields.
        """
        low = m & self._low
        return -low if self._lex else 2 * low - m

    def _pack(self, exps: Sequence[int]) -> int:
        if len(exps) != len(self._shifts) or any(e < 0 for e in exps):
            raise ValueError("bad exponent tuple")
        m = sum(exps) << self._top   # checked first: below 2^31 no field carries
        self._check_degree(m)
        return m | sum(e << s for e, s in zip(exps, self._shifts))

    def _unpack(self, m: int) -> tuple[int, ...]:
        return tuple(m >> s & _FIELD for s in self._shifts)

    def _factors(self, m: int) -> list[tuple[int, int]]:
        """(variable index, exponent) for each variable m uses, in variable order.

        Only the nonzero fields are read, the highest first, each found by
        its top bit.
        """
        out = []
        low = m & self._low
        while low:
            k = (low.bit_length() - 1) // _BITS
            e = low >> _BITS * k
            low -= e << _BITS * k
            out.append((self._field_variables[k], e))
        if not self._lex:
            out.reverse()
        return out

    def _lcm(self, a: int, b: int) -> int:
        """Least common multiple of two packed monomials, field by field."""
        g = self._guards
        # field k all ones where a's exponent is at least b's: its guard survives
        mask = ((((a | g) - b) & g) >> (_BITS - 1)) * _FIELD
        low = ((a & mask) | (b & ~mask)) & self._low
        # the fields sum to below 2^32 - 1, so casting out 2^32 - 1 recovers it
        return low | (low % _FIELD) << self._top

    def _check_degree(self, m: int) -> None:
        """Raise unless packed m (a result's largest key) has degree below 2^31."""
        if m >> self._top >= _LIMIT:
            raise OverflowError(f"monomial degree {m >> self._top} is not below "
                                f"2^{_BITS - 1}")

    def zero(self) -> "Polynomial":
        return Polynomial._packed(self, {})

    def one(self) -> "Polynomial":
        return Polynomial._packed(self, {0: 1})

    def constant(self, c) -> "Polynomial":
        c = _scalar(c)
        return Polynomial._packed(self, {0: c} if c else {})

    def variable(self, name: str) -> "Polynomial":
        try:
            i = self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None
        return Polynomial._packed(self, {self._units[i]: 1})

    def monomial(self, exps: Sequence[int], coefficient=1) -> "Polynomial":
        m = self._pack(tuple(int(e) for e in exps))
        c = _scalar(coefficient)
        return Polynomial._packed(self, {m: c} if c else {})

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PolyRing)
                and self.variables == other.variables and self.order == other.order)

    def __hash__(self) -> int:
        return hash((self.variables, self.order))

    def __repr__(self) -> str:
        return f"PolyRing({len(self.variables)} variables, {self.order})"

    # -- parsing -----------------------------------------------------------

    def parse(self, text: str) -> "Polynomial":
        """Inverse of Polynomial.text(); accepts optional whitespace.

        Each term is read straight into a coefficient and a packed monomial
        and added into one dict, so parsing costs time linear in the text.
        A factor is checked against the degree limit on its own, and the
        term's degree after it while the coefficient is nonzero.
        """
        tokens = self._tokenize(text) + [(None, None)]   # the end of the text
        units, index = self._units, self._index
        out: dict[int, Fraction] = {}
        pos = 1 if tokens[0] in (("op", "+"), ("op", "-")) else 0
        coef = -1 if tokens[0] == ("op", "-") else 1
        while True:
            m = 0
            while True:   # one term: factors joined by *
                kind, value = tokens[pos]
                if kind == "num":   # a whole number multiplies as an int
                    coef *= value.numerator if value.denominator == 1 else value
                elif kind == "var":
                    e = 1
                    if tokens[pos + 1] == ("op", "^"):
                        pos += 2
                        kind, e = tokens[pos]
                        if kind != "num":
                            raise ValueError(f"expected num at token {pos} of {text!r}")
                        if e.denominator != 1:
                            raise ValueError("exponent must be a nonnegative integer")
                        e = e.numerator
                    self._check_degree(e << self._top)
                    if coef:
                        m += e * units[index[value]]
                        self._check_degree(m)
                else:
                    raise ValueError("expected a factor")
                pos += 1
                if tokens[pos] != ("op", "*"):
                    break
                pos += 1
            axpy(out, 1, {m: coef})
            kind, value = tokens[pos]
            if kind is None:
                return Polynomial._packed(self, out)
            if kind != "op" or value not in "+-":
                raise ValueError(f"unexpected token {value!r} in {text!r}")
            coef = -1 if value == "-" else 1
            pos += 1

    def _tokenize(self, text: str) -> list[tuple]:
        """("var", name), ("num", Fraction) and ("op", char) tokens.

        Variable names are tried longest first, before numbers and operators.
        """
        names = "|".join(map(re.escape, sorted(self.variables, key=len, reverse=True)))
        token = re.compile(rf"(?P<space>\s+)|(?P<var>{names or '(?!)'})"
                           r"|(?P<num>[0-9]+(?:/[0-9]+)?)|(?P<op>[-+*^])")
        tokens = []
        i = 0
        while i < len(text):
            match = token.match(text, i)
            if match is None:
                raise ValueError(f"cannot tokenize {text[i:i + 12]!r}")
            kind, word, i = match.lastgroup, match.group(), match.end()
            if kind == "num":
                try:
                    tokens.append((kind, Fraction(word)))
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in {word!r}") from None
            elif kind != "space":
                tokens.append((kind, word))
        return tokens


def _frac_text(c: int | Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


class Polynomial:
    __slots__ = ("ring", "_terms")

    def __init__(self, ring: PolyRing, terms: Mapping[tuple, Fraction] | None = None) -> None:
        self.ring = ring
        data = {}
        if terms:
            for e, c in terms.items():
                c = _scalar(c)
                if c:
                    data[ring._pack(e)] = c
        self._terms = data

    @classmethod
    def _packed(cls, ring: PolyRing, terms: dict) -> "Polynomial":
        """Trusted constructor: ``terms`` maps packed monomials to nonzero coefficients.

        The dict is taken over, not copied, and its coefficients are not
        revisited: arithmetic builds its results here.
        """
        p = object.__new__(cls)
        p.ring = ring
        p._terms = terms
        return p

    @property
    def terms(self) -> Mapping[tuple, Fraction]:
        """Fraction coefficients by exponent tuple, in storage order; a read-only copy."""
        unpack = self.ring._unpack
        return MappingProxyType({unpack(m): _fraction(c) for m, c in self._terms.items()})

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Polynomial)
                and self.ring == other.ring and self._terms == other._terms)

    def __hash__(self) -> int:
        # the monomials alone: a Fraction hashes slowly, and equal
        # polynomials have equal monomials
        return hash((self.ring, frozenset(self._terms)))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self._terms)
        axpy(out, 1, other._terms)
        return Polynomial._packed(self.ring, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self._terms)
        axpy(out, -1, other._terms)
        return Polynomial._packed(self.ring, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._packed(self.ring, {e: -c for e, c in self._terms.items()})

    def scale(self, c) -> "Polynomial":
        if type(c) is not int and (type(c) is not Fraction or c.denominator == 1):
            c = _scalar(c)   # a whole value multiplies as an int
        if not c:
            return Polynomial._packed(self.ring, {})
        return Polynomial._packed(self.ring, {e: c * v for e, v in self._terms.items()})
    __rmul__ = scale

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return self._sum_of_products((self,), (other,))

    def _sum_of_products(self, xs: Iterable["Polynomial"],
                         ys: Iterable["Polynomial"]) -> "Polynomial":
        """Σ x·y over the paired polynomials, in the ring of ``self``.

        Every term product goes into one dict, so no intermediate polynomial
        is built; ``Mat`` products and traces over polynomials sum here.
        Two packed monomials multiply by one addition, and the result's
        largest key is checked against the degree limit once.
        """
        out: dict[int, Fraction] = {}
        for x, y in zip(xs, ys):
            for e1, c1 in x._terms.items():
                for e2, c2 in y._terms.items():
                    e = e1 + e2
                    c = c1 * c2
                    v = out.get(e)
                    if v is None:
                        out[e] = c
                    elif v := v + c:
                        out[e] = v
                    else:
                        del out[e]
        if out:
            self.ring._check_degree(max(out))
        return Polynomial._packed(self.ring, out)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        if n == 0:
            return self.ring.one()
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(self._terms) >> self.ring._top if self._terms else -1

    def _lead(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        return min(self._terms, key=self.ring.heap_key)

    def lead_exps(self) -> tuple:
        return self.ring._unpack(self._lead())

    def lead_coeff(self) -> Fraction:
        return _fraction(self._terms[self._lead()])

    def monic(self) -> "Polynomial":
        """This polynomial divided by its lead coefficient; itself for a lead of 1."""
        c = self._terms[self._lead()]
        return self if c == 1 else self.scale(_div(1, c))

    def evaluate(self, env: Mapping[str, Fraction]) -> Fraction:
        """Value at a rational point given per-variable values."""
        names = self.ring.variables
        total = _ZERO
        for m, c in self._terms.items():
            v = c
            for i, e in self.ring._factors(m):
                if names[i] not in env:
                    raise ValueError(f"no value for variable {names[i]!r}")
                v *= Fraction(env[names[i]]) ** e
            total += v
        return total

    def substitute(self, ring: PolyRing,
                   images: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Ring map into ``ring`` sending each variable to its image.

        Variables without an explicit image must exist in the target ring
        under the same name.  Factors whose images are single terms or
        constants multiply as one packed monomial and one coefficient; only
        longer images go through polynomial products.
        """
        return _RingMap(self.ring, ring, images)(self)

    def text(self) -> str:
        if not self._terms:
            return "0"
        ring = self.ring
        items = sorted(self._terms.items(), key=lambda it: ring.heap_key(it[0]))
        rendered = []
        for m, c in items:
            factors = [ring.variables[i] if e == 1 else f"{ring.variables[i]}^{e}"
                       for i, e in ring._factors(m)]
            mag = abs(c)
            if not factors:
                body = _frac_text(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = _frac_text(mag) + "*" + "*".join(factors)
            rendered.append((c < 0, body))
        neg, body = rendered[0]
        out = ("-" if neg else "") + body
        for neg, body in rendered[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def __repr__(self) -> str:
        return f"Polynomial({self.text()})"


class _RingMap:
    """The ring map from ``source`` into ``target`` sending each variable to its
    image, every image resolved once, when the map is built.

    A variable's form is (packed monomial, degree, coefficient, None) for a
    one-term image or a nonzero constant, (None, degree, None, powers) for
    a longer image, powers[k] being it raised to k + 1, None for zero, or
    the error its resolution raised, raised again only when a term's walk
    in variable order reaches it.  A term that meets a zero image, no error
    and no overflow is dropped by one test on its packed monomial, before
    it is decoded.
    """

    __slots__ = ("target", "_forms", "_drop", "_slow", "_safe")

    def __init__(self, source: PolyRing, target: PolyRing,
                 images: Mapping[str, "Polynomial"]) -> None:
        self.target = target
        self._forms = forms = []
        drop = slow = top = 0   # top: the largest image degree
        for name, shift in zip(source.variables, source._shifts):
            img = images.get(name)
            if img is None and name in target._index:
                # the same name's packed unit as it is: a Polynomial's dict
                # would hash that n-field int, once for each of n variables
                forms.append((target._units[target._index[name]], 1, 1, None))
                top = max(top, 1)
                continue
            try:
                if img is None:
                    img = target.variable(name)   # raises: the target lacks the name
                elif not isinstance(img, Polynomial):
                    img = target.constant(img)
                elif img.ring != target:
                    raise ValueError("image lies in a different ring")
            except (ArithmeticError, TypeError, ValueError) as err:
                forms.append(err)
                slow |= _FIELD << shift
                continue
            if len(img._terms) == 1:
                [(k, a)] = img._terms.items()
                forms.append((k, k >> target._top, a, None))
            elif img._terms:
                forms.append((None, img.degree, None, [img]))
            else:
                forms.append(None)
                drop |= _FIELD << shift
                continue
            top = max(top, forms[-1][1])
        # the fields of the zero images and of the errors; below the degree
        # in _safe, a term's degree times ``top`` is below 2^31
        self._drop, self._slow = drop, slow
        self._safe = ((_LIMIT - 1) // top + 1 if top else _LIMIT) << source._top

    def __call__(self, f: Polynomial) -> Polynomial:
        """The image of ``f``, a polynomial of the source ring."""
        ring = self.target
        top = ring._top
        forms, drop, slow, safe = self._forms, self._drop, self._slow, self._safe
        factors = f.ring._factors
        out: dict[int, Fraction] = {}
        for m, c in f._terms.items():
            if m & drop and not m & slow and m < safe:
                continue      # a zero image drops the term, and nothing before it raises
            mono = deg = 0    # the one-term factors' packed product; the term's degree
            long = None       # the longer factors' product, in variable order
            for i, e in factors(m):   # the nonzero exponents only
                form = forms[i]
                if type(form) is not tuple:
                    if form is None:  # a zero image drops the term
                        break
                    raise form.with_traceback(None)
                k, d, a, powers = form
                deg += e * d
                if deg >= _LIMIT:     # checked first: below 2^31 no field carries
                    ring._check_degree(deg << top)
                if powers is None:
                    mono += e * k
                    c = c * a ** e
                else:
                    while len(powers) < e:
                        powers.append(powers[-1] * powers[0])
                    long = powers[e - 1] if long is None else long * powers[e - 1]
            else:
                if long is None:
                    axpy(out, 1, {mono: c})
                else:
                    axpy(out, c, {mono + x: v for x, v in long._terms.items()})
        return Polynomial._packed(ring, out)


def _divisor(m: int, reducers: Iterable[tuple[int, Polynomial]],
             guards: int) -> tuple[int, Polynomial] | None:
    """The first (packed lead, polynomial) in ``reducers`` whose lead divides m."""
    b = m | guards
    for pair in reducers:
        if (b - pair[0]) & guards == guards:
            return pair
    return None


def _reduce(f: Polynomial, reducers: Sequence[tuple[int, Polynomial]]) -> Polynomial:
    """Full multivariate division remainder of f by the listed polynomials.

    ``reducers`` pairs each divisor's packed leading monomial with it; the
    first divisor in list order whose lead divides a term cancels it.  A
    single term that no lead divides is its own remainder, and f itself
    comes back: polynomials are never mutated, so sharing is safe.  A term
    enters the heap when it enters ``work``, and an entry whose term has
    cancelled since is skipped.  A popped term never returns, since all a
    reducer adds lies below the term it cancels.  Under lex a shifted tail
    may have a higher degree than the term it replaces, so it is checked.
    """
    ring = f.ring
    heap_key, guards, lex = ring.heap_key, ring._guards, ring._lex
    if len(f._terms) == 1 and _divisor(next(iter(f._terms)), reducers, guards) is None:
        return f
    push, pop = heapq.heappush, heapq.heappop
    work = dict(f._terms)
    heap = [(heap_key(e), e) for e in work]
    heapq.heapify(heap)
    out: dict[int, Fraction] = {}
    while heap:
        m = pop(heap)[1]
        coef = work.pop(m, None)
        if coef is None:
            continue
        hit = _divisor(m, reducers, guards)
        if hit is None:
            out[m] = coef
            continue
        le, g = hit
        shift = m - le
        tail = {e2 + shift: c2 for e2, c2 in g._terms.items() if e2 != le}
        if lex and tail:
            ring._check_degree(max(tail))
        for e in tail.keys() - work.keys():
            push(heap, (heap_key(e), e))
        axpy(work, _div(-coef, g._terms[le]), tail)
    return Polynomial._packed(ring, out)


class GroebnerBasis(Record):
    """A reduced Gröbner basis: monic, inter-reduced, sorted by leading term.

    Only ``ring`` and ``polys`` are compared and shown; the rest is derived.
    """

    __slots__ = ("ring", "polys", "leads", "_reducers", "_by_variable")
    _fields = ("ring", "polys")

    def __init__(self, ring: PolyRing, polys: tuple[Polynomial, ...]) -> None:
        super().__init__(ring, polys)
        # (packed lead, polynomial) per member, in order
        reducers = tuple((g._lead(), g) for g in polys)
        object.__setattr__(self, "_reducers", reducers)
        # (leading exponents, polynomial) per member
        object.__setattr__(self, "leads",
                           tuple((ring._unpack(le), g) for le, g in reducers))
        # per variable, the reducers whose lead uses it
        object.__setattr__(self, "_by_variable", tuple(
            tuple(r for r in reducers if r[0] >> s & _FIELD) for s in ring._shifts))

    def __iter__(self):
        return iter(self.polys)

    def __len__(self) -> int:
        return len(self.polys)

    def normal_form(self, f: Polynomial) -> Polynomial:
        """Remainder of f on division by the basis, once f's ring is checked."""
        if f.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        return _reduce(f, self._reducers)

    def ideal_member(self, f: Polynomial) -> tuple[bool, Polynomial]:
        nf = self.normal_form(f)
        return (not nf, nf)

    def is_standard(self, exps: tuple) -> bool:
        """True when the monomial avoids every leading term."""
        return _divisor(self.ring._pack(exps), self._reducers, self.ring._guards) is None

    def texts(self) -> list[str]:
        return [g.text() for g in self.polys]


def buchberger(generators: Iterable[Polynomial], max_steps: int = 50_000,
               ring: PolyRing | None = None) -> GroebnerBasis:
    """Reduced Gröbner basis of the ideal the generators span.

    ``max_steps`` bounds the number of S-pair reductions; running past it
    raises BudgetExceeded rather than returning a partial basis.  The zero
    ideal (no nonzero generators) is allowed when ``ring`` says where it
    lives.
    """
    if max_steps < 0:
        raise ValueError(f"max_steps must be nonnegative, not {max_steps}")
    gens = [g for g in generators if g]
    if not gens:
        if ring is None:
            raise ValueError("no nonzero generators and no ring given")
        return GroebnerBasis(ring, ())
    if ring is None:
        ring = gens[0].ring
    if any(g.ring != ring for g in gens):
        raise ValueError("generators from different rings")

    basis: list[tuple[int, Polynomial]] = []   # (packed lead, monic member)
    pairs: list[tuple] = []                    # (lcm degree, i, j, lcm)

    def push(f: Polynomial) -> None:
        f = f.monic()
        lt = f._lead()
        t = len(basis)
        basis.append((lt, f))
        for i in range(t):
            li = basis[i][0]
            lcm = ring._lcm(li, lt)
            if lcm != li + lt:   # coprime leads never yield a new element
                heapq.heappush(pairs, (lcm >> ring._top, i, t, lcm))

    for g in gens:
        r = _reduce(g, basis)
        if r:
            push(r)

    steps = 0
    while pairs:
        steps += 1
        if steps > max_steps:
            raise BudgetExceeded(f"Gröbner computation exceeded {max_steps} steps")
        _, i, j, lcm = heapq.heappop(pairs)
        (li, fi), (lj, fj) = basis[i], basis[j]
        a = Polynomial._packed(ring, {lcm - li: 1})
        b = Polynomial._packed(ring, {lcm - lj: 1})
        s = a * fi - b * fj
        r = _reduce(s, basis)
        if r:
            push(r)

    # minimalize: in increasing lead order, every divisor of a lead and every
    # earlier member with an equal lead come first, so one pass keeps exactly
    # the members whose lead no kept lead divides
    kept: list[tuple[int, Polynomial]] = []
    for pair in sorted(basis, key=lambda p: -ring.heap_key(p[0])):
        if _divisor(pair[0], kept, ring._guards) is None:
            kept.append(pair)
    # inter-reduce: no other kept lead divides a member's monic lead, so the
    # lead stays in place and the kept order is the basis order
    return GroebnerBasis(ring, tuple(_reduce(g, kept[:i] + kept[i + 1:])
                                     for i, (_, g) in enumerate(kept)))


# -- nilpotence probing -------------------------------------------------------


class NilpotentWitness(Record):
    """A polynomial outside the ideal with a power inside it."""

    __slots__ = _fields = ("element", "power")


def _standard_layers(gb: GroebnerBasis, max_deg: int) -> Iterator[list[tuple[int, int]]]:
    """(last variable, packed monomial) per standard monomial, one list per
    degree 1..max_deg.

    Standard monomials form an order ideal: every divisor of one is one too.
    So degree d grows from degree d - 1, starting from the monomial 1, each
    monomial m times a variable x_i at or after its last one, and only those
    candidates are tested.  As m is standard, a lead dividing m·x_i uses x_i,
    so only those leads are tested.  Each list is in lex order of the sorted
    variable indices, and the layers stop at the first empty degree.
    """
    ring = gb.ring
    guards, units, by_variable = ring._guards, ring._units, gb._by_variable
    n = ring.nvars
    # 1 is standard unless the ideal is the unit ideal, whose lead uses no
    # variable; its "last variable" 0 lets every variable follow it
    layer = [(0, 0)] if _divisor(0, gb._reducers, guards) is None else []
    for _ in range(max_deg):
        layer = [(i, cand) for last, m in layer for i in range(last, n)
                 if _divisor(cand := m + units[i], by_variable[i], guards) is None]
        if not layer:
            return
        yield layer


def standard_monomials(gb: GroebnerBasis, max_deg: int) -> list[Polynomial]:
    """Monomials of total degree 1..max_deg avoiding all leading terms.

    Graded, and within a degree in lex order of the sorted variable indices.
    """
    ring = gb.ring
    return [Polynomial._packed(ring, {m: 1})
            for layer in _standard_layers(gb, max_deg) for _, m in layer]


def ideal_multigrading(gb: GroebnerBasis) -> list[tuple[int, ...]]:
    """Integer weight vectors spanning every grading under which the ideal
    is homogeneous.

    A weight vector w grades the quotient when each basis polynomial has all
    of its exponent vectors on a single w-level, so the solutions form the
    kernel of the exponent-difference matrix.  The returned vectors are the
    rational kernel basis with denominators cleared.
    """
    n = gb.ring.nvars
    diffs: list[list[int]] = []
    for g in gb:
        exps = iter(g.terms)
        e0 = next(exps)
        for e in exps:
            diffs.append([a - b for a, b in zip(e, e0)])
    basis = nullspace(diffs, n)
    out = []
    for vec in basis:
        denom = math.lcm(*(x.denominator for x in vec))
        out.append(tuple(int(x * denom) for x in vec))
    return out


def nilpotent_witness_search(gb: GroebnerBasis, max_deg: int, max_pow: int,
                             seed: int = 0, trials: int = 200,
                             max_ops: int | None = None) -> NilpotentWitness | None:
    """Search for f with f not in the ideal but f^k in it for some k <= max_pow.

    The radical of an ideal homogeneous for a grading is homogeneous, so
    multi-term witnesses can be assumed to combine standard monomials of
    one grading class: equal weight under ``ideal_multigrading``, and equal
    degree only when every basis member has all its terms in one degree
    (the degree then lies in the span of the weights and splits no class).
    Three exact, reproducible phases:

    1. every standard monomial m of degree <= max_deg, in graded order,
       enumerated one degree at a time so that the budget also bounds the
       enumeration; when m^max_pow is standard, so is every lower power and
       m is passed over, else its powers are reduced in turn.  m = p·x_i
       grows from its parent p: m^max_pow is not standard when p^max_pow
       is not, and otherwise only the leads using x_i can divide it; m's
       grading key is p's plus x_i's;
    2. signed pairs m + m' and m - m' of standard monomials sharing a
       grading class, probed at the square (by linearity the normal forms
       of m*m, m'*m' and m*m' settle both signs);
    3. seeded random small-integer combinations of 2..4 standard monomials
       drawn from a common grading class.  With no class of two or more
       members no trial runs: under an order of the weights compatible
       with addition, the top component of f^k is (top component of f)^k,
       in the ideal with f^k; were every class one monomial m, that is
       (c·m)^k, and phase 1 has probed m up to max_pow already.

    A remainder modulo a Gröbner basis is unique, so the normal form is
    linear: NF(p·q) = Σ c·c'·NF(t·t') over the terms c·t of p and c'·t' of
    q.  Every power and product above reads one table, kept for this search
    only, from each packed monomial to the terms of its normal form, filled
    by one ``_reduce`` of that monomial on its first use; a standard
    monomial's entry costs one lead scan, as ``_reduce`` hands a single
    standard term back as it is.  A probe's f combines standard monomials,
    so it is its own normal form.  The budget charges one normal form per
    power of a probe and per pair's cross product, and one per square the
    first time a pair needs it, whatever the table already holds.

    Every hit is re-verified on its own, by ``normal_form`` of the
    expanded power and of f, which share nothing with the table, before
    being returned.  Returns None when the bounded search exhausts without
    a hit; raises BudgetExceeded when ``max_ops`` normal-form computations
    were spent first.
    """
    if max_deg < 1 or max_pow < 2:
        raise ValueError("need max_deg >= 1 and max_pow >= 2")
    if trials < 0 or (max_ops is not None and max_ops < 0):
        raise ValueError("trials and max_ops must be nonnegative")
    ring, reducers = gb.ring, gb._reducers
    units, guards, by_variable = ring._units, ring._guards, gb._by_variable
    ops = 0
    table: dict[int, dict] = {}   # packed monomial -> the terms of its normal form

    def charge(n: int = 1) -> None:
        nonlocal ops
        ops += n
        if max_ops is not None and ops > max_ops:
            raise BudgetExceeded(f"witness search exceeded {max_ops} reductions")

    def nf(m: int) -> dict:
        """The terms of NF(m), reduced on the first request; never mutated."""
        r = table.get(m)
        if r is None:
            ring._check_degree(m)   # a product of two stored monomials carries no field
            r = table[m] = _reduce(Polynomial._packed(ring, {m: 1}), reducers)._terms
        return r

    def probe(f: dict) -> NilpotentWitness | None:
        charge()
        power = f
        for k in range(2, max_pow + 1):
            charge()
            product: dict[int, Fraction] = {}   # NF(power·f), by linearity
            for t, a in power.items():
                for s, b in f.items():
                    axpy(product, a * b, nf(t + s))
            power = product
            if not power:
                f = Polynomial._packed(ring, f)
                if gb.normal_form(f ** k):
                    raise AssertionError("incremental and direct reductions disagree")
                if not gb.normal_form(f):
                    raise AssertionError("witness unexpectedly lies in the ideal")
                return NilpotentWitness(f, k)
        return None

    weights = ideal_multigrading(gb)
    if all(len({m >> ring._top for m in g._terms}) == 1 for g in gb):
        weights.insert(0, (1,) * ring.nvars)   # the degree grades the ideal too
    columns = [tuple(w[i] for w in weights) for i in range(ring.nvars)]   # x_i's key
    keys = {0: (0,) * len(weights)}   # by packed standard monomial, 1 first
    tame = {0}   # the standard monomials whose max_pow-th power is standard
    classes: dict[tuple, list[int]] = {}
    for layer in _standard_layers(gb, max_deg):
        for i, m in layer:
            parent = m - units[i]
            keys[m] = key = tuple(map(operator.add, keys[parent], columns[i]))
            classes.setdefault(key, []).append(m)
            # m^max_pow is m * max_pow, as below degree 2^31 no field carries
            ring._check_degree((m & ~ring._low) * max_pow)
            if parent in tame and _divisor(m * max_pow, by_variable[i], guards) is None:
                tame.add(m)
                charge(max_pow)   # what probe charges for max_pow nonzero powers
                continue
            hit = probe({m: 1})
            if hit is not None:
                return hit

    for key in sorted(classes):
        members = classes[key]
        for a, mi in enumerate(members):
            for b in range(a + 1, len(members)):
                mj = members[b]
                # the cross product, and each square when a pair first needs
                # it: members[0]'s and members[1]'s at (0, 1), members[b]'s at (0, b)
                charge(1 if a else 3 if b == 1 else 2)
                base = dict(nf(mi + mi))
                axpy(base, 1, nf(mj + mj))
                cross = nf(mi + mj)
                if base.keys() != cross.keys():
                    continue   # no sign cancels (mi ± mj)² = base ± 2·cross
                for sign in (1, -1):
                    if all(base[t] == -2 * sign * c for t, c in cross.items()):
                        hit = probe({mi: 1, mj: sign})
                        if hit is None:
                            raise AssertionError("pair probe lost a verified square")
                        return hit

    pools = [classes[key] for key in sorted(classes) if len(classes[key]) >= 2]
    rng = random.Random(seed)
    for _ in range(trials if pools else 0):
        pool = pools[rng.randrange(len(pools))]
        width = rng.randint(2, min(4, len(pool)))
        picks = rng.sample(pool, width)
        hit = probe({m: rng.choice((-2, -1, 1, 2)) for m in picks})
        if hit is not None:
            return hit
    return None
