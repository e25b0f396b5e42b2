"""Exact sparse linear algebra over the rationals.

Everything downstream (cochain spaces, coboundary matrices, cohomology
dimensions) reduces to kernels, images and solvability questions over Q.
A :class:`Matrix` stores only its nonzero ``fractions.Fraction`` entries,
row by row.  There is one eliminator, the sparse fraction-free
Gauss-Jordan routine :func:`reduce_rows` on integer rows: cochain spaces
reduce their integer equivariance rows with it, and every kernel, image,
rank, containment and solve runs it through :func:`eliminate`, which
reduces each Fraction row as its numerators over one denominator and
divides each reduced row by its pivot entry.  The contraction kernels of
:mod:`hlya.algebra` also work on integer numerators over an explicit
common denominator.  Everything is exact: there are no floats and no
tolerance anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimMismatchError, NotContainedError, ShapeMismatchError

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value) -> Fraction:
    """Coerce ints, strings like ``-3/2`` or ``7``, and Fractions.

    A float or a bool is a TypeError: a float holds its binary value, not
    the decimal written, and a bool is no number."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (bool, float)):
        raise TypeError(f"not an exact rational: {value!r}")
    return Fraction(value)


def rat_str(value: Fraction) -> str:
    """Serialize as ``p/q`` with the denominator omitted when 1."""
    return str(value)


def _sparse(vec: Sequence) -> dict:
    """{position: Fraction} of the nonzero entries of a dense vector."""
    return {i: rat(x) for i, x in enumerate(vec) if x}


def _transpose(vectors: Sequence[dict], length: int) -> list[dict]:
    """Sparse rows of the matrix whose columns are ``vectors``, each a
    sparse vector with ``length`` entries."""
    out = [{} for _ in range(length)]
    for j, vec in enumerate(vectors):
        for i, x in vec.items():
            out[i][j] = x
    return out


class Frozen:
    """Base of the values hlya shares, through the per-algebra memo and
    otherwise: an attribute is set only by :meth:`_init`, so setting or
    deleting one afterwards raises AttributeError.  Two values are equal
    when they have the same type and equal attributes ``_fields``; a
    subclass that is hashable defines ``__hash__`` over the same fields."""

    __slots__ = ()

    def _init(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _immutable(self, name: str, *value):
        raise AttributeError(f"cannot change {name!r}: a {type(self).__name__} is immutable")

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)


class Matrix(Frozen):
    """Sparse row-major matrix of Fractions, a :class:`Frozen` value.

    Row i is stored as ``{column: value}`` over its nonzero entries, and
    every operation here works on those.  :attr:`data` is a dense
    list-of-lists copy, built on each access.  The first :func:`solve`
    against a matrix keeps its reduction on it, so every later solve is
    one product; the first :meth:`apply` likewise keeps its rows as
    integers.
    """

    __slots__ = ("rows", "cols", "_rows", "_reduction", "_int_rows")
    _fields = ("rows", "cols", "_rows")

    def __init__(self, data: Sequence[Sequence]):
        rows = [list(row) for row in data]
        cols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != cols:
                raise DimMismatchError("ragged rows")
        self._set([_sparse(row) for row in rows], cols)

    def _set(self, rows: list[dict], cols: int) -> None:
        self._init(rows=len(rows), cols=cols, _rows=rows, _reduction=None, _int_rows=None)

    @classmethod
    def _from_rows(cls, rows: list[dict], cols: int) -> "Matrix":
        """A matrix over sparse rows of nonzero Fractions, taken as they are."""
        m = cls.__new__(cls)
        m._set(rows, cols)
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._from_rows([{} for _ in range(rows)], cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._from_rows([{i: ONE} for i in range(n)], n)

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
        return cls.from_sparse_columns([_sparse(c) for c in columns], rows)

    @classmethod
    def from_sparse_columns(cls, columns: Sequence[dict], rows: int) -> "Matrix":
        """The rows x len(columns) matrix whose column j is ``columns[j]``,
        a sparse vector {row: nonzero Fraction}."""
        return cls._from_rows(_transpose(columns, rows), len(columns))

    @property
    def data(self) -> list[list[Fraction]]:
        """Dense rows, built on each access; writing to them does not change
        the matrix."""
        out = []
        for row in self._rows:
            dense = [ZERO] * self.cols
            for j, x in row.items():
                dense[j] = x
            out.append(dense)
        return out

    def entries(self) -> list[tuple[int, int, Fraction]]:
        """The nonzero entries (i, j, value), in (i, j) order."""
        return [(i, j, row[j]) for i, row in enumerate(self._rows) for j in sorted(row)]

    def column(self, j: int) -> list[Fraction]:
        return [row.get(j, ZERO) for row in self._rows]

    def apply(self, vec: Sequence) -> list[Fraction]:
        """Matrix-vector product in integers: the vector over one common
        denominator, each row over its own (:meth:`_integer_rows`), and one
        Fraction per row."""
        if len(vec) != self.cols:
            raise DimMismatchError(f"expected vector of length {self.cols}, got {len(vec)}")
        den, ints = _over_lcm({j: rat(x) for j, x in enumerate(vec) if x})
        out = []
        for row_den, row in self._integer_rows():
            small, large = (row, ints) if len(row) < len(ints) else (ints, row)
            s = 0
            for j, a in small.items():
                b = large.get(j)
                if b is not None:
                    s += a * b
            out.append(Fraction(s, row_den * den) if s else ZERO)
        return out

    def _integer_rows(self) -> list[tuple[int, dict]]:
        """Each row as (denominator, {column: integer numerator}) over the
        lcm of its entries' denominators; built on first use and kept."""
        if self._int_rows is None:
            self._init(_int_rows=[_over_lcm(row) for row in self._rows])
        return self._int_rows

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimMismatchError("inner dimensions disagree")
        out = []
        for row in self._rows:
            acc: dict = {}
            for k, a in row.items():
                for j, b in other._rows[k].items():
                    x = acc.get(j)
                    acc[j] = a * b if x is None else x + a * b
            out.append({j: x for j, x in acc.items() if x})
        return Matrix._from_rows(out, other.cols)

    __matmul__ = matmul

    def add(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimMismatchError("matrix shapes disagree")
        out = []
        for row, orow in zip(self._rows, other._rows):
            acc = dict(row)
            for j, b in orow.items():
                x = acc.get(j, ZERO) + b
                if x:
                    acc[j] = x
                else:
                    acc.pop(j, None)
            out.append(acc)
        return Matrix._from_rows(out, self.cols)

    def scale(self, c) -> "Matrix":
        c = rat(c)
        rows = [{j: c * x for j, x in row.items()} if c else {} for row in self._rows]
        return Matrix._from_rows(rows, self.cols)

    def is_zero(self) -> bool:
        return not any(self._rows)

    def _reduced(self) -> tuple[list[int], "Matrix"]:
        """(pivots, E) with E m = RREF(m): E is the right block of the reduced
        [m | I].  Its rows past len(pivots) span the left kernel of m."""
        if self._reduction is None:
            n = self.cols
            augmented = [{**row, n + i: ONE} for i, row in enumerate(self._rows)]
            pivots, reduced = eliminate(augmented)
            inverse = [{j - n: x for j, x in row.items() if j >= n} for row in reduced]
            self._init(_reduction=([p for p in pivots if p < n], Matrix._from_rows(inverse, self.rows)))
        return self._reduction

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(r.items()) for r in self._rows)))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


def flatten(m: Matrix) -> list[Fraction]:
    """The entries of m row by row: m[i][j] at i * m.cols + j."""
    return [x for row in m.data for x in row]


def unflatten(flat: Sequence, cols: int) -> Matrix:
    """The matrix with ``cols`` columns whose entries, row by row, are ``flat``."""
    return Matrix([flat[i : i + cols] for i in range(0, len(flat), cols)])


def vstack(top: Matrix, bottom: Matrix) -> Matrix:
    if top.cols != bottom.cols:
        raise ShapeMismatchError("column counts disagree")
    return Matrix._from_rows(top._rows + bottom._rows, top.cols)


def reduce_rows(rows: Iterable[dict]) -> tuple[list[int], list[dict]]:
    """Fraction-free Gauss-Jordan elimination of sparse rows {column:
    nonzero int}, the one eliminator.

    Returns the pivot columns, ascending, and the nonzero reduced rows in
    the same order: row r is primitive (its entries are coprime), positive
    at ``pivots[r]`` and has no entry at any other pivot column, so row r
    over its entry at ``pivots[r]`` is row r of the reduced row echelon
    form.  That form is unique, so the result does not depend on the order
    of the rows.  A row is cancelled against a pivot row by cross
    multiplication, each side over the gcd of the two leading entries, and
    made primitive when it becomes a pivot row or is back-substituted.
    The input rows are not changed.
    """
    pivot_of: dict[int, dict] = {}
    for row in rows:
        r = dict(row)
        while r:
            c = min(r)
            piv = pivot_of.get(c)
            if piv is None:
                pivot_of[c] = _primitive(r, c)
                break
            r = _cancel(r, piv, c)
    # back-substitute, highest pivot first, so each row subtracted is final
    pivots = sorted(pivot_of)
    for c in reversed(pivots):
        row = pivot_of[c]
        hits = [cc for cc in row if cc != c and cc in pivot_of]
        for c2 in hits:
            row = _cancel(row, pivot_of[c2], c2)
        if hits:
            pivot_of[c] = _primitive(row, c)
    return pivots, [pivot_of[c] for c in pivots]


def _cancel(r: dict, piv: dict, c: int) -> dict:
    """piv[c] * r - r[c] * piv, both factors divided by their gcd: r
    without column c.  ``r`` is changed in place unless it has to be
    scaled; the result is returned either way."""
    a, p = r.pop(c), piv[c]
    g = gcd(a, p)
    if g != 1:
        a, p = a // g, p // g
    if p != 1:
        r = {cc: p * v for cc, v in r.items()}
    for cc, v in piv.items():
        if cc == c:
            continue
        x = r.get(cc)
        if x is None:
            r[cc] = -a * v
        else:
            x -= a * v
            if x:
                r[cc] = x
            else:
                del r[cc]
    return r


def _primitive(r: dict, c: int) -> dict:
    """r over the gcd of its entries, signed to be positive at column c."""
    g = gcd(*r.values())
    if r[c] < 0:
        g = -g
    return r if g == 1 else {cc: v // g for cc, v in r.items()}


def _over_lcm(row: dict) -> tuple[int, dict]:
    """A sparse rational row as (den, {column: integer numerator}) over the
    lcm of its entries' denominators."""
    den = lcm(*(x.denominator for x in row.values()))
    return den, {j: x.numerator * (den // x.denominator) for j, x in row.items()}


def eliminate(rows: Iterable[dict]) -> tuple[list[int], list[dict]]:
    """Gauss-Jordan elimination of sparse rows {column: nonzero Fraction}.

    Returns the pivot columns, ascending, and the nonzero rows of the
    reduced row echelon form in the same order: row r has a 1 at
    ``pivots[r]`` and no entry at any other pivot column.  The input rows
    are not changed.  The Fraction view of :func:`reduce_rows`: each row
    is reduced as its numerators over the lcm of its denominators, and
    each reduced row is divided by its pivot entry.
    """
    pivots, reduced = reduce_rows(_over_lcm(row)[1] for row in rows)
    out = []
    for p, row in zip(pivots, reduced):
        lead = row[p]
        out.append({j: ONE if j == p else Fraction(x, lead) for j, x in row.items()})
    return pivots, out


def null_vectors(pivots: list[int], reduced: list[dict], ncols: int) -> tuple[list[int], list[dict]]:
    """Free columns and kernel basis of a system in reduced form.

    ``(pivots, reduced)`` is the result of :func:`eliminate`.  Kernel
    vector j is sparse, with a 1 at the j-th free column and zeros at the
    others, so the coordinates of any kernel vector are its entries at the
    free columns.
    """
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    vectors = {f: {f: ONE} for f in free}
    for p, row in zip(pivots, reduced):
        for f, v in row.items():
            if f != p:
                vectors[f][p] = -v
    return free, [vectors[f] for f in free]


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the pivot columns, exact arithmetic."""
    pivots, reduced = eliminate(m._rows)
    padding = [{} for _ in range(m.rows - len(reduced))]
    return Matrix._from_rows(reduced + padding, m.cols), pivots


class Subspace(Frozen):
    """A subspace of Q^n given by a basis of independent columns.

    The stored basis is canonicalized (the reduced row echelon form of the
    spanning vectors, as columns), so two Subspace objects are equal iff
    they span the same space.
    """

    __slots__ = ("ambient_dim", "basis")
    _fields = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, columns: Iterable[Sequence]):
        vectors = []
        for c in map(list, columns):
            if len(c) != ambient_dim:
                raise DimMismatchError("basis vector has wrong length")
            vectors.append(_sparse(c))
        self._span(ambient_dim, vectors)

    def _span(self, ambient_dim: int, vectors: Iterable[dict]) -> None:
        _, reduced = eliminate(vectors)
        self._init(ambient_dim=ambient_dim, basis=Matrix.from_sparse_columns(reduced, ambient_dim))

    @classmethod
    def spanned_by(cls, ambient_dim: int, vectors: Iterable[dict]) -> "Subspace":
        """The span of sparse vectors {position: nonzero Fraction}."""
        s = cls.__new__(cls)
        s._span(ambient_dim, vectors)
        return s

    @property
    def dim(self) -> int:
        return self.basis.cols

    def contains(self, vec: Sequence) -> bool:
        return solve(self.basis, vec) is not None

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def kernel_basis(m: Matrix) -> Subspace:
    """Basis of the right null space; dim = cols - rank."""
    pivots, reduced = eliminate(m._rows)
    return Subspace.spanned_by(m.cols, null_vectors(pivots, reduced, m.cols)[1])


def image_basis(m: Matrix) -> Subspace:
    """Basis of the column space; dim = rank."""
    return Subspace.spanned_by(m.rows, _transpose(m._rows, m.cols))


def rank(m: Matrix) -> int:
    return len(eliminate(m._rows)[0])


def solve(m: Matrix, b: Sequence) -> list[Fraction] | None:
    """A particular solution of m x = b, or None when b is not in the image.

    Free variables are 0.  The reduction (pivots, E) of m is computed on
    the first call and kept on m: b is in the image iff the rows of E b
    past the rank vanish, and x at pivot r is (E b)_r.
    """
    if len(b) != m.rows:
        raise DimMismatchError("right-hand side has wrong length")
    pivots, inverse = m._reduced()
    eb = inverse.apply(b)
    if any(eb[len(pivots) :]):
        return None
    x = [ZERO] * m.cols
    for p, y in zip(pivots, eb):
        x[p] = y
    return x


def quotient_dim(z: Subspace, b: Subspace) -> int:
    """dim(z/b); raises NotContainedError unless span(b) is inside span(z)."""
    if z.ambient_dim != b.ambient_dim:
        raise ShapeMismatchError("subspaces of different ambient spaces")
    if b.dim:
        # z's basis is independent, so its columns are the first pivots of
        # [z | b]; a pivot in b's block is the first b vector outside span(z)
        shift = z.dim
        stacked = [
            {**zr, **{shift + j: x for j, x in br.items()}}
            for zr, br in zip(z.basis._rows, b.basis._rows)
        ]
        pivots, _ = eliminate(stacked)
        outside = [p - shift for p in pivots if p >= shift]
        if outside:
            j = outside[0]
            raise NotContainedError(f"basis vector {j} of the smaller space is outside the larger one", basis_index=j)
    return z.dim - b.dim
