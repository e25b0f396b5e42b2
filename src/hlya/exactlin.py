"""Exact dense linear algebra over the rationals.

Everything downstream (cochain spaces, coboundary matrices, cohomology
dimensions) reduces to kernels, images and solvability questions over Q.
Elimination here uses ``fractions.Fraction``; the contraction kernels of
:mod:`hlya.algebra` work on integer numerators over an explicit common
denominator.  Both are exact: there are no floats and no tolerance anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimMismatchError, NotContainedError, ShapeMismatchError

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value) -> Fraction:
    """Coerce ints, strings like ``-3/2`` or ``7``, and Fractions."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def rat_str(value: Fraction) -> str:
    """Serialize as ``p/q`` with the denominator omitted when 1."""
    return str(value)


class Matrix:
    """Dense row-major matrix of Fractions.  Immutable by convention."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence]):
        self.data = [[rat(x) for x in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.rows else 0
        for row in self.data:
            if len(row) != self.cols:
                raise DimMismatchError("ragged rows")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        m = cls.__new__(cls)
        m.rows, m.cols = rows, cols
        m.data = [[ZERO] * cols for _ in range(rows)]
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        m = cls.zeros(n, n)
        for i in range(n):
            m.data[i][i] = ONE
        return m

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: int | None = None) -> "Matrix":
        columns = [list(c) for c in columns]
        if rows is None:
            if not columns:
                raise ShapeMismatchError("cannot infer row count from no columns")
            rows = len(columns[0])
        for c in columns:
            if len(c) != rows:
                raise ShapeMismatchError("column length mismatch")
        return cls([[columns[j][i] for j in range(len(columns))] for i in range(rows)])

    def column(self, j: int) -> list[Fraction]:
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self) -> list[list[Fraction]]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "Matrix":
        return Matrix([[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def apply(self, vec: Sequence) -> list[Fraction]:
        """Matrix-vector product, summed over the nonzero vector entries only."""
        if len(vec) != self.cols:
            raise DimMismatchError(f"expected vector of length {self.cols}, got {len(vec)}")
        nonzero = [(j, x) for j, x in enumerate(vec) if x]
        out = [ZERO] * self.rows
        for i, row in enumerate(self.data):
            s = ZERO
            for j, x in nonzero:
                a = row[j]
                if a:
                    s += a * x
            out[i] = s
        return out

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimMismatchError("inner dimensions disagree")
        out = Matrix.zeros(self.rows, other.cols)
        for i in range(self.rows):
            row = self.data[i]
            orow = out.data[i]
            for k in range(self.cols):
                a = row[k]
                if not a:
                    continue
                brow = other.data[k]
                for j in range(other.cols):
                    b = brow[j]
                    if b:
                        orow[j] += a * b
        return out

    __matmul__ = matmul

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


def vstack(top: Matrix, bottom: Matrix) -> Matrix:
    if top.cols != bottom.cols:
        raise ShapeMismatchError("column counts disagree")
    if not top.rows + bottom.rows:
        return Matrix.zeros(0, top.cols)  # Matrix([]) would lose the columns
    return Matrix(top.data + bottom.data)


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the pivot columns, exact arithmetic."""
    data = [row[:] for row in m.data]
    rows, cols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if data[i][c]), None)
        if pr is None:
            continue
        data[r], data[pr] = data[pr], data[r]
        inv = ONE / data[r][c]
        if inv != 1:
            data[r] = [x * inv for x in data[r]]
        for i in range(rows):
            if i != r and data[i][c]:
                f = data[i][c]
                ri, rr = data[i], data[r]
                for j in range(c, cols):
                    if rr[j]:
                        ri[j] -= f * rr[j]
        pivots.append(c)
        r += 1
    return Matrix(data), pivots


class Subspace:
    """A subspace of Q^n given by a basis of independent columns.

    The stored basis is canonicalized (row echelon over the transpose), so
    two Subspace objects are equal iff they span the same space.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, columns: Iterable[Sequence]):
        columns = [list(map(rat, c)) for c in columns]
        for c in columns:
            if len(c) != ambient_dim:
                raise DimMismatchError("basis vector has wrong length")
        if columns:
            reduced, pivots = rref(Matrix(columns))
            rows = [reduced.data[i] for i in range(len(pivots))]
        else:
            rows = []
        self.ambient_dim = ambient_dim
        self.basis = Matrix.from_columns(rows, rows=ambient_dim) if rows else Matrix.zeros(ambient_dim, 0)

    @property
    def dim(self) -> int:
        return self.basis.cols

    def contains(self, vec: Sequence) -> bool:
        return solve(self.basis, [rat(x) for x in vec]) is not None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def kernel_basis(m: Matrix) -> Subspace:
    """Basis of the right null space; dim = cols - rank."""
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    cols = []
    for f in free:
        v = [ZERO] * m.cols
        v[f] = ONE
        for r, p in enumerate(pivots):
            if reduced.data[r][f]:
                v[p] = -reduced.data[r][f]
        cols.append(v)
    return Subspace(m.cols, cols)


def image_basis(m: Matrix) -> Subspace:
    """Basis of the column space; dim = rank."""
    _, pivots = rref(m)
    return Subspace(m.rows, [m.column(p) for p in pivots])


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def solve(m: Matrix, b: Sequence) -> list[Fraction] | None:
    """A particular solution of m x = b, or None when b is not in the image."""
    b = [rat(x) for x in b]
    if len(b) != m.rows:
        raise DimMismatchError("right-hand side has wrong length")
    aug = Matrix([row + [bv] for row, bv in zip(m.data, b)] if m.rows else [])
    if m.rows == 0:
        return [ZERO] * m.cols
    reduced, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [ZERO] * m.cols
    for r, p in enumerate(pivots):
        x[p] = reduced.data[r][m.cols]
    return x


def quotient_dim(z: Subspace, b: Subspace) -> int:
    """dim(z/b); raises NotContainedError unless span(b) is inside span(z)."""
    if z.ambient_dim != b.ambient_dim:
        raise ShapeMismatchError("subspaces of different ambient spaces")
    if b.dim:
        # z's basis is independent, so its columns are the first pivots of
        # [z | b]; a pivot in b's block is the first b vector outside span(z)
        stacked = Matrix([zr + br for zr, br in zip(z.basis.data, b.basis.data)])
        _, pivots = rref(stacked)
        outside = [p - z.dim for p in pivots if p >= z.dim]
        if outside:
            raise NotContainedError(
                f"basis vector {outside[0]} of the smaller space is outside the larger one"
            )
    return z.dim - b.dim
