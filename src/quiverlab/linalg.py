"""Exact linear algebra: sparse spans and kernels over the rationals, dense matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

_ZERO = Fraction(0)


def axpy(dst: dict, c, src: dict) -> None:
    """``dst += c * src`` in place on sparse vectors; cancelled entries are dropped.

    A ``c`` of 1 or -1 adds or subtracts with no product; a new entry is a
    ``Fraction`` even when ``src`` holds ints.
    """
    if not c:
        return
    sub = c == -1
    if not sub and c != 1:
        src = {k: c * v for k, v in src.items()}
    for k, v in src.items():
        v = dst.get(k, _ZERO) - v if sub else dst.get(k, _ZERO) + v
        if v:
            dst[k] = v
        else:
            dst.pop(k, None)


def _fractions(row: dict) -> dict:
    """Copy of a sparse vector without its zeros; only non-Fractions are wrapped."""
    return {k: c if type(c) is Fraction else Fraction(c) for k, c in row.items() if c}


class SpanBuilder:
    """Incrementally built row space of sparse vectors.

    Vectors are dicts mapping mutually comparable keys to nonzero Fraction
    coefficients.  Each pivot is stored in rewrite form: ``pivots[lead]`` is
    a tail whose keys are all smaller than ``lead`` and which equals ``lead``
    modulo the span.  ``pivots`` keeps insertion order, so its keys are the
    leads in the order they were found.
    """

    def __init__(self) -> None:
        self.pivots: dict = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def leads(self) -> list:
        return list(self.pivots)

    def _eliminate(self, row: dict) -> dict:
        """Copy of ``row`` reduced until its largest key is not a lead."""
        row = _fractions(row)
        pivots = self.pivots
        while row:
            lead = max(row)
            tail = pivots.get(lead)
            if tail is None:
                break
            axpy(row, row.pop(lead), tail)
        return row

    def _store(self, row: dict) -> None:
        """Record an eliminated nonzero row as the pivot of its largest key.

        The row is taken over; a lead coefficient of 1 or -1 costs no division.
        """
        lead = max(row)
        c = row.pop(lead)
        if c == 1:
            row = {k: -v for k, v in row.items()}
        elif c != -1:
            ninv = -1 / c
            row = {k: v * ninv for k, v in row.items()}
        self.pivots[lead] = row

    def add(self, row: dict) -> bool:
        """Insert a vector; True when it enlarged the span."""
        row = self._eliminate(row)
        if not row:
            return False
        self._store(row)
        return True

    def contains(self, row: dict) -> bool:
        return not self._eliminate(row)

    def residue(self, row: dict) -> dict:
        """Canonical representative of ``row`` modulo the span.

        Unlike :meth:`contains` this clears pivot keys everywhere in the
        vector, not just in leading position.
        """
        out = _fractions(row)
        while True:
            hits = [k for k in out if k in self.pivots]
            if not hits:
                return out
            hit = max(hits)
            axpy(out, out.pop(hit), self.pivots[hit])


def kernel_combos(vectors: Sequence[dict]) -> list[dict[int, Fraction]]:
    """Linear dependencies among the given sparse vectors.

    Returns one ``{index: coefficient}`` dict per dependency, in discovery
    order; each expresses a vanishing combination of the inputs.
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
            out.append({k[1]: c for k, c in row.items()})
    return out


def _columns(rows: Sequence[Sequence], ncols: int) -> list[dict]:
    """The columns of a dense matrix as sparse vectors keyed by row index."""
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(ncols)]


def nullspace(matrix: Sequence[Sequence[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of {x : M x = 0} for a dense rational matrix with ncols columns.

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
    positive (after sign normalization) spanning vector.
    """
    n = len(matrix[0]) if matrix else 0
    basis = nullspace([[Fraction(x) for x in row] for row in matrix], n)
    if len(basis) != 1:
        raise ValueError(f"kernel is {len(basis)}-dimensional, expected 1")
    vec = basis[0]
    denom = math.lcm(*(x.denominator for x in vec))
    ints = [int(x * denom) for x in vec]
    g = math.gcd(*ints)
    ints = [x // g for x in ints]
    if all(x < 0 for x in ints):
        ints = [-x for x in ints]
    if any(x <= 0 for x in ints):
        raise ValueError("kernel vector is not sign-definite")
    return ints


@dataclass(frozen=True)
class Mat:
    """Dense matrix over an exact ring, with explicit shape (zero-sized sides allowed).

    Entries are ``Fraction`` by default; ``ring_zero`` is the additive
    identity of the entries, so the same type holds ``Polynomial`` matrices;
    for them, products and traces of products sum each entry through
    ``Polynomial._sum_of_products``.  ``from_rows`` and ``inverse`` are for
    ``Fraction`` entries only.
    """

    rows: int
    cols: int
    data: tuple[tuple, ...]
    ring_zero: object = _ZERO

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix shape")
        if len(self.data) != self.rows or any(len(r) != self.cols for r in self.data):
            raise ValueError("matrix data does not match its shape")

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

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        return Mat(self.rows, self.cols,
                   tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.data, other.data)),
                   self.ring_zero)

    def __sub__(self, other: "Mat") -> "Mat":
        return self + other.scale(Fraction(-1))

    def scale(self, c) -> "Mat":
        c = Fraction(c)
        return Mat(self.rows, self.cols, tuple(tuple(c * x for x in r) for r in self.data),
                   self.ring_zero)

    def __mul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        zero = self.ring_zero
        if type(zero) is not Fraction:
            cols = tuple(zip(*other.data)) or ((),) * other.cols
            return Mat(self.rows, other.cols,
                       tuple(tuple(zero._sum_of_products(row, col) for col in cols)
                             for row in self.data), zero)
        # Order i, k, j with zero factors skipped.
        data = []
        for row in self.data:
            acc = [zero] * other.cols
            for aik, brow in zip(row, other.data):
                if not aik:
                    continue
                for j, bkj in enumerate(brow):
                    if bkj:
                        acc[j] = acc[j] + aik * bkj
            data.append(tuple(acc))
        return Mat(self.rows, other.cols, tuple(data), zero)

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
        total = self.ring_zero
        if type(total) is not Fraction:
            return total._sum_of_products(
                (a for row in self.data for a in row),
                (b for col in zip(*other.data) for b in col))
        for i, row in enumerate(self.data):
            for aik, brow in zip(row, other.data):
                if aik:
                    bki = brow[i]
                    if bki:
                        total = total + aik * bki
        return total

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
    return block_upper(a, Mat.zero(a.rows, b.cols), b)


def block_upper(a: Mat, x: Mat, b: Mat) -> Mat:
    """[[a, x], [0, b]] with x of shape a.rows x b.cols."""
    if x.rows != a.rows or x.cols != b.cols:
        raise ValueError("off-diagonal block has the wrong shape")
    data = []
    for i in range(a.rows):
        data.append(tuple(a.data[i]) + tuple(x.data[i]))
    for i in range(b.rows):
        data.append(tuple(_ZERO for _ in range(a.cols)) + tuple(b.data[i]))
    return Mat(a.rows + b.rows, a.cols + b.cols, tuple(data))
