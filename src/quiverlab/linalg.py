"""Exact linear algebra: sparse spans and kernels over the rationals, dense matrices.

Scalar policy: inside the library a coefficient is an ``int`` until a
division does not come out whole, and only then a ``Fraction``.  ``_div`` is
the one true division on coefficients, so no ``int / int`` ever makes a
``float``.  Every public accessor that hands out a coefficient converts it
to ``Fraction`` on the way out (``_fraction``).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import Record

_ZERO = Fraction(0)


def _div(a, b):
    """``a / b``: an ``int`` when whole, else a ``Fraction``; 0 raises ZeroDivisionError."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def _fraction(c) -> Fraction:
    """A coefficient as the public face shows it."""
    return c if type(c) is Fraction else Fraction(c)


def _scalar(c):
    """A number as a coefficient: an ``int`` when whole, else a ``Fraction``."""
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def axpy(dst: dict, c, src: dict) -> None:
    """``dst += c * src`` in place on sparse vectors; cancelled entries are dropped.

    A ``c`` of 1 or -1 adds or subtracts with no product.  A key new to
    ``dst`` takes the source value as it is, negated for -1, so it spends
    no addition.
    """
    if not c:
        return
    sub = c == -1
    if not sub and c != 1:
        src = {k: c * v for k, v in src.items()}
    for k, v in src.items():
        old = dst.get(k)
        if old is not None:
            if v := old - v if sub else old + v:
                dst[k] = v
            else:
                del dst[k]
        elif v:
            dst[k] = -v if sub else v


class SpanBuilder:
    """Incrementally built row space of sparse vectors.

    Vectors are dicts mapping mutually comparable keys to nonzero ``int`` or
    ``Fraction`` coefficients.  Each pivot is stored in rewrite form:
    ``pivots[lead]`` is a tail whose keys are all smaller than ``lead`` and
    which equals ``lead`` modulo the span.  ``pivots`` keeps insertion
    order, so its keys are the leads in the order they were found.
    """

    def __init__(self) -> None:
        self.pivots: dict = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _eliminate(self, row: dict) -> dict:
        """``row``, reduced in place until its largest key is a nonzero non-lead."""
        pivots = self.pivots
        while row:
            lead = max(row)
            tail = pivots.get(lead)
            if tail is None:
                if row[lead]:
                    break
                del row[lead]   # a zero entry of the input
            else:
                axpy(row, row.pop(lead), tail)
        return row

    def _store(self, row: dict) -> None:
        """Record an eliminated nonzero row as the pivot of its largest key.

        The row is taken over; a lead coefficient of -1 costs no division.
        """
        lead = max(row)
        c = row.pop(lead)
        if c != -1:
            ninv = _div(-1, c)
            row = {k: v * ninv for k, v in row.items()}
        self.pivots[lead] = row

    def add(self, row: dict) -> bool:
        """Insert a vector; True when it enlarged the span.

        The row is taken over and changed: pass a copy of one still in use.
        """
        row = self._eliminate(row)
        if not row:
            return False
        self._store(row)
        return True

    def contains(self, row: dict) -> bool:
        return not self._eliminate(dict(row))

    def resolve(self) -> dict:
        """Rewrite every tail in place over keys that lead no pivot; returns ``pivots``.

        Every tail key is below its lead, so in increasing lead order the
        tails a lead draws on are already rewritten when it comes up.
        """
        pivots = self.pivots
        for lead in sorted(pivots):
            tail = pivots[lead]
            out = {t: c for t, c in tail.items() if t not in pivots}
            for t, c in tail.items():
                if t in pivots:
                    axpy(out, c, pivots[t])
            pivots[lead] = out
        return pivots


def _kernel_combos(vectors: Sequence[dict]) -> list[dict]:
    """Linear dependencies among the given sparse vectors.

    Returns one ``{index: coefficient}`` dict per dependency, in discovery
    order, with whole coefficients as ``int``; each expresses a vanishing
    combination of the inputs.
    """
    # Vector i carries (0, i) below its own keys, wrapped as (1, k); a row
    # eliminated down to (0, .) keys alone is a dependency, not a pivot.
    span = SpanBuilder()
    out = []
    for i, vec in enumerate(vectors):
        row = {(1, k): c for k, c in vec.items()}
        row[(0, i)] = 1
        row = span._eliminate(row)
        if max(row)[0]:
            span._store(row)
        else:
            out.append({k[1]: c if type(c) is int else _scalar(c) for k, c in row.items()})
    return out


def kernel_combos(vectors: Sequence[dict]) -> list[dict[int, Fraction]]:
    """``_kernel_combos`` with ``Fraction`` coefficients."""
    return [{i: _fraction(c) for i, c in combo.items()} for combo in _kernel_combos(vectors)]


def _columns(rows: Sequence[Sequence], ncols: int) -> list[dict]:
    """The columns of a dense matrix as sparse vectors keyed by row index."""
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(ncols)]


def nullspace(matrix: Sequence[Sequence], ncols: int) -> list[list[Fraction]]:
    """Basis of {x : M x = 0} for a dense int or Fraction matrix with ncols columns.

    One vector per column f that depends on the columns before it: 1 at f,
    and otherwise supported on the independent columns before f.
    """
    basis = []
    for combo in kernel_combos(_columns(matrix, ncols)):
        vec = [_ZERO] * ncols
        for j, c in combo.items():
            vec[j] = c
        basis.append(vec)
    return basis


def primitive_kernel_vector(matrix: Sequence[Sequence[int]]) -> list[int]:
    """The primitive integer vector with positive entries spanning ker(M).

    Raises ValueError unless the kernel is one-dimensional with a strictly
    positive spanning vector.  ``nullspace``'s vector is 1 at its dependent
    column, so a sign-definite kernel comes out positive with no flip.
    """
    n = len(matrix[0]) if matrix else 0
    basis = nullspace(matrix, n)
    if len(basis) != 1:
        raise ValueError(f"kernel is {len(basis)}-dimensional, expected 1")
    vec = basis[0]
    denom = math.lcm(*(x.denominator for x in vec))
    ints = [int(x * denom) for x in vec]
    g = math.gcd(*ints)
    ints = [x // g for x in ints]
    if any(x <= 0 for x in ints):
        raise ValueError("kernel vector is not sign-definite")
    return ints


class Mat(Record):
    """Dense matrix over an exact ring, with explicit shape (zero-sized sides allowed).

    Entries are ``Fraction`` by default; ``ring_zero`` is the additive
    identity of the entries, so the same type holds ``Polynomial`` matrices;
    products and traces of products sum each entry through ``_dot``.
    ``from_rows`` and ``inverse`` are for ``Fraction`` entries only.
    """

    __slots__ = _fields = ("rows", "cols", "data", "ring_zero")

    def __init__(self, rows: int, cols: int, data: tuple[tuple, ...], ring_zero=_ZERO) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("matrix data does not match its shape")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "ring_zero", ring_zero)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.rows, self.cols, self.data, self.ring_zero)
                == (other.rows, other.cols, other.data, other.ring_zero))

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data, self.ring_zero))

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "Mat":
        data = tuple(tuple(Fraction(x) for x in r) for r in rows)
        if not data:
            raise ValueError("from_rows needs at least one row; use Mat.zero")
        return Mat(len(data), len(data[0]), data)

    @staticmethod
    def zero(rows: int, cols: int, zero=_ZERO) -> "Mat":
        return Mat(rows, cols, tuple((zero,) * cols for _ in range(rows)), zero)

    @staticmethod
    def identity(n: int, zero=_ZERO, one=Fraction(1)) -> "Mat":
        return Mat(n, n, tuple(tuple(one if i == j else zero for j in range(n))
                               for i in range(n)), zero)

    def entry(self, i: int, j: int):
        return self.data[i][j]

    def __add__(self, other: "Mat", _op=operator.add) -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        return Mat(self.rows, self.cols,
                   tuple(tuple(map(_op, r1, r2)) for r1, r2 in zip(self.data, other.data)),
                   self.ring_zero)

    def __sub__(self, other: "Mat") -> "Mat":
        return self.__add__(other, operator.sub)

    def scale(self, c) -> "Mat":
        c = Fraction(c)
        return Mat(self.rows, self.cols, tuple(tuple(c * x for x in r) for r in self.data),
                   self.ring_zero)

    def _dot(self, xs: Iterable, ys: Iterable):
        """Σ x·y over paired entries; the one place that tells the entry rings apart.

        ``Polynomial`` entries add every term product into one dict
        (``Polynomial._sum_of_products``); ``Fraction`` entries skip zero factors.
        """
        zero = self.ring_zero
        if type(zero) is not Fraction:
            return zero._sum_of_products(xs, ys)
        return sum((x * y for x, y in zip(xs, ys) if x and y), zero)

    def __mul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        cols = tuple(zip(*other.data)) or ((),) * other.cols
        return Mat(self.rows, other.cols,
                   tuple(tuple(self._dot(row, col) for col in cols) for row in self.data),
                   self.ring_zero)

    def is_zero(self) -> bool:
        return all(not x for r in self.data for x in r)

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((self.data[i][i] for i in range(self.rows)), self.ring_zero)

    def trace_of_product(self, other: "Mat"):
        """tr(self · other) from the diagonal alone: the sum of a_ik · b_ki."""
        if self.cols != other.rows or self.rows != other.cols:
            raise ValueError("shape mismatch in trace of a product")
        return self._dot((a for row in self.data for a in row),
                         (b for col in zip(*other.data) for b in col))

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        # Dependencies among the columns a_1..a_n, e_1..e_n: any among the
        # a_j means A is singular; otherwise the one ending at e_j reads
        # e_j + A c = 0, so -c is column j of the inverse.
        combos = kernel_combos(_columns(self.data, n) + [{j: 1} for j in range(n)])
        if any(max(combo) < n for combo in combos):
            raise ValueError("matrix is singular")
        return Mat(n, n, tuple(tuple(-combo.get(i, _ZERO) for combo in combos)
                               for i in range(n)))


def block_diag(a: Mat, b: Mat) -> Mat:
    return block_upper(a, Mat.zero(a.rows, b.cols, a.ring_zero), b)


def block_upper(a: Mat, x: Mat, b: Mat) -> Mat:
    """[[a, x], [0, b]] with x of shape a.rows x b.cols, over the entry ring of a."""
    if x.rows != a.rows or x.cols != b.cols:
        raise ValueError("off-diagonal block has the wrong shape")
    pad = (a.ring_zero,) * a.cols
    data = tuple(ra + rx for ra, rx in zip(a.data, x.data)) + tuple(pad + rb for rb in b.data)
    return Mat(a.rows + b.rows, a.cols + b.cols, data, a.ring_zero)
