"""Exact sparse linear algebra over the rationals.

Everything downstream (cochain spaces, coboundary matrices, cohomology
dimensions) reduces to kernels, images and solvability questions over Q.
A :class:`Matrix` is its canonical integer rows: each row is its
nonzero entries as integer numerators over one denominator, in lowest
terms.  There is one eliminator, the sparse fraction-free Gauss-Jordan
routine :func:`reduce_rows` on integer rows.  Cochain spaces reduce their
integer equivariance rows with it, and every kernel, image, rank,
containment and solve runs it on a matrix's numerators directly: a
reduced row r with pivot p, over r[p], is a row of the reduced row
echelon form, and is stored as such.  A vector is read in the same
format, the integer row (den, {position: numerator}), as the cochain
spaces give coordinates: one integer product (:meth:`Matrix._numerators`)
serves the kernel test :meth:`Matrix.kills`, :meth:`Matrix.apply` and
:func:`solve`, which reads and returns integer rows.  The product is
driven by the vector: a matrix keeps a column index of its rows, built on
the first product, and reads only the columns in the vector's support, so
a sparse coordinate row costs its own nonzeros, not the matrix's rows.  A
position outside the vector's length is a DimMismatchError, never
dropped, and a denominator that is not a positive int a
PreconditionError (:func:`_row_den`).  Fractions are made
only for a matrix's Fraction view and for dense vectors: the values
:meth:`Matrix.apply` returns, and :func:`solve` on a dense right-hand
side.  A d x d matrix flattened row by row, entry (i, j) at i * d + j,
has one form, the integer row of :meth:`Matrix.flat_row`, with
:func:`unflatten` its inverse and :func:`row_blocks` the split into rows
that both share.  The contraction kernels of :mod:`hlya.algebra` also
work on integer numerators over an explicit common denominator.
Everything is exact: there are no floats and no tolerance anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimMismatchError, NotContainedError, PreconditionError, ShapeMismatchError

ZERO = Fraction(0)


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


def _pruned(vec: dict) -> dict:
    return {k: x for k, x in vec.items() if x}


def _integer_row(vec: Sequence) -> tuple[int, dict]:
    """A dense vector of rationals, each read by :func:`rat` (so a float
    or a bool is a TypeError, zero or not), as the integer row (den,
    {position: numerator}) of its nonzero entries over the lcm of their
    denominators: the row in lowest terms."""
    row = {i: x for i, x in enumerate(map(rat, vec)) if x}
    den = lcm(*(x.denominator for x in row.values()))
    return den, {j: x.numerator * (den // x.denominator) for j, x in row.items()}


def _row_den(den) -> None:
    """PreconditionError unless ``den``, the denominator of an integer row
    read as input, is a positive int; a bool is no int here."""
    if type(den) is not int or den <= 0:
        raise PreconditionError(f"a row's denominator must be a positive integer, got {den!r}")


def _lowest(den: int, row: dict) -> tuple[int, dict]:
    """An integer row (den, {column: nonzero numerator}), den > 0, in
    lowest terms: both over the gcd of den and the numerators.  The one
    canonical form of a stored row; an empty row is (1, {})."""
    g = gcd(den, *row.values())
    return (den, row) if g == 1 else (den // g, {j: x // g for j, x in row.items()})


def _dense(row: tuple[int, dict], length: int) -> list[Fraction]:
    """The Fraction view of an integer row: its ``length`` values."""
    den, vec = row
    out = [ZERO] * length
    for j, x in vec.items():
        out[j] = Fraction(x, den)
    return out


def _joined(first: tuple[int, dict], second: tuple[int, dict], shift: int) -> tuple[int, dict]:
    """Two integer rows as one over the lcm of their denominators, the
    positions of ``second`` shifted by ``shift``; in lowest terms when both
    are."""
    (d1, v1), (d2, v2) = first, second
    den = lcm(d1, d2)
    w1, w2 = den // d1, den // d2
    row = {j: x * w1 for j, x in v1.items()}
    row.update((shift + j, x * w2) for j, x in v2.items())
    return den, row


def _transpose(vectors: Sequence[tuple[int, dict]], length: int) -> list[tuple[int, dict]]:
    """Integer rows of the matrix whose columns are ``vectors``, each an
    integer row (den, {position: numerator}) with ``length`` positions:
    every row over the lcm of the vectors' denominators."""
    den = lcm(*(d for d, _ in vectors))
    rows = [{} for _ in range(length)]
    for j, (d, vec) in enumerate(vectors):
        w = den // d
        for i, x in vec.items():
            rows[i][j] = w * x
    return [(den, row) for row in rows]


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
    """Sparse row-major matrix over Q, a :class:`Frozen` value held as its
    canonical integer rows.

    Row i is stored as ``(den, {column: numerator})`` over its nonzero
    entries, in lowest terms: den > 0 and the gcd of den and the
    numerators is 1 (:func:`_lowest`), so equal matrices have equal rows.
    Equality, the hash and every elimination read those rows.  The
    integer product that :meth:`kills`, :meth:`apply` and :func:`solve`
    share reads a column index of them, {column: [(row, numerator)]},
    built on the first product and kept, so a product touches only the
    columns in the vector's support.  :attr:`data`, :meth:`entries` and
    :meth:`column` read a Fraction view of the rows, built on first read
    and kept.  The first :func:`solve` against a matrix keeps its
    reduction on it, so every later solve is one product.  The view, the
    index and the reduction are derived from the rows, so equality and
    the hash ignore them.
    """

    __slots__ = ("rows", "cols", "_rows", "_view", "_reduction", "_by_column")
    _fields = ("rows", "cols", "_rows")

    def __init__(self, data: Sequence[Sequence]):
        rows = [list(row) for row in data]
        cols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != cols:
                raise DimMismatchError("ragged rows")
        self._set([_integer_row(row) for row in rows], cols)

    def _set(self, rows: list[tuple[int, dict]], cols: int) -> None:
        self._init(rows=len(rows), cols=cols, _rows=rows, _view=None, _reduction=None, _by_column=None)

    @classmethod
    def _of(cls, rows: Iterable[tuple[int, dict]], cols: int) -> "Matrix":
        """The matrix over integer rows (den, {column: nonzero numerator}),
        den > 0, each put in lowest terms."""
        m = cls.__new__(cls)
        m._set([_lowest(den, row) for den, row in rows], cols)
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._of([(1, {}) for _ in range(rows)], cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of([(1, {i: 1}) for i in range(n)], n)

    def _fractions(self) -> list[dict]:
        """The rows as {column: Fraction}, built on first read and kept."""
        if self._view is None:
            self._init(_view=[{j: Fraction(x, den) for j, x in row.items()} for den, row in self._rows])
        return self._view

    @property
    def data(self) -> list[list[Fraction]]:
        """Dense rows, built on each access from the Fraction view; writing
        to them does not change the matrix."""
        out = []
        for row in self._fractions():
            dense = [ZERO] * self.cols
            for j, x in row.items():
                dense[j] = x
            out.append(dense)
        return out

    def entries(self) -> list[tuple[int, int, Fraction]]:
        """The nonzero entries (i, j, value), in (i, j) order."""
        return [(i, j, row[j]) for i, row in enumerate(self._fractions()) for j in sorted(row)]

    def column(self, j: int) -> list[Fraction]:
        return [row.get(j, ZERO) for row in self._fractions()]

    def column_rows(self) -> list[tuple[int, dict]]:
        """The columns as canonical integer rows (den, {row index:
        numerator})."""
        return [_lowest(den, col) for den, col in _transpose(self._rows, self.cols)]

    def flat_row(self) -> tuple[int, dict]:
        """The entries row by row, m[i][j] at i * cols + j, as one
        canonical integer row."""
        den = lcm(*(row_den for row_den, _ in self._rows))
        flat = {}
        for i, (row_den, row) in enumerate(self._rows):
            w, shift = den // row_den, i * self.cols
            flat.update((shift + j, x * w) for j, x in row.items())
        return _lowest(den, flat)

    def _columns(self) -> dict:
        """The column index {column: [(row, numerator), ...]} of the
        canonical rows, built on the first product and kept."""
        if self._by_column is None:
            index: dict = {}
            for i, (_, row) in enumerate(self._rows):
                for j, x in row.items():
                    index.setdefault(j, []).append((i, x))
            self._init(_by_column=index)
        return self._by_column

    def _numerators(self, vec: dict) -> list[int]:
        """The integer product with a vector of numerators {column:
        numerator} over some den: entry i of the product is the i-th
        number over den_i * den, den_i the denominator of row i.  Only the
        columns in the vector's support are read (:meth:`_columns`); a
        position outside the columns is a DimMismatchError."""
        out = [0] * self.rows
        index = self._columns()
        for j, b in vec.items():
            column = index.get(j)
            if column is None:
                if not 0 <= j < self.cols:
                    raise DimMismatchError(f"vector position {j} is out of range for length {self.cols}")
                continue
            for i, a in column:
                out[i] += a * b
        return out

    def kills(self, row: tuple[int, dict]) -> bool:
        """Is the vector of an integer row (den, {column: numerator}) in the
        kernel?  Read off the integer product, with no division; a
        position outside the columns is a DimMismatchError, and den must
        be a positive int (PreconditionError)."""
        den, vec = row
        _row_den(den)
        return not any(self._numerators(vec))

    def apply(self, vec: Sequence) -> list[Fraction]:
        """Matrix-vector product, the Fraction view of the integer product
        (:meth:`_numerators`) of the vector over one common denominator."""
        if len(vec) != self.cols:
            raise DimMismatchError(f"expected vector of length {self.cols}, got {len(vec)}")
        den, ints = _integer_row(vec)
        return [Fraction(s, row_den * den) if s else ZERO for s, (row_den, _) in zip(self._numerators(ints), self._rows)]

    def matmul(self, other: "Matrix") -> "Matrix":
        """Row i of the product over den_i times the lcm of the
        denominators of the rows of ``other`` it reads."""
        if self.cols != other.rows:
            raise DimMismatchError("inner dimensions disagree")
        out = []
        for den, row in self._rows:
            inner = lcm(*(other._rows[k][0] for k in row))
            acc: dict = {}
            for k, a in row.items():
                k_den, k_row = other._rows[k]
                a *= inner // k_den
                for j, b in k_row.items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append((den * inner, _pruned(acc)))
        return Matrix._of(out, other.cols)

    __matmul__ = matmul

    def add(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimMismatchError("matrix shapes disagree")
        out = []
        for (den, row), (o_den, o_row) in zip(self._rows, other._rows):
            common = lcm(den, o_den)
            acc = {j: x * (common // den) for j, x in row.items()}
            w = common // o_den
            for j, b in o_row.items():
                acc[j] = acc.get(j, 0) + w * b
            out.append((common, _pruned(acc)))
        return Matrix._of(out, self.cols)

    def scale(self, c) -> "Matrix":
        c = rat(c)
        if not c:
            return Matrix.zeros(self.rows, self.cols)
        rows = ((den * c.denominator, {j: c.numerator * x for j, x in row.items()}) for den, row in self._rows)
        return Matrix._of(rows, self.cols)

    def is_zero(self) -> bool:
        return not any(row for _, row in self._rows)

    def _reduced(self) -> tuple[list[int], "Matrix"]:
        """(pivots, E) with E m = RREF(m): E is the right block of the reduced
        [m | I].  Its rows past len(pivots) span the left kernel of m.

        Row i of [m | I] is reduced as its numerators and den_i at column
        cols + i, its multiple by den_i, so a reduced row r with pivot p
        gives E's row as its right block over r[p]."""
        if self._reduction is None:
            n = self.cols
            pivots, reduced = reduce_rows({**row, n + i: den} for i, (den, row) in enumerate(self._rows))
            inverse = [(r[p], {j - n: x for j, x in r.items() if j >= n}) for p, r in zip(pivots, reduced)]
            self._init(_reduction=([p for p in pivots if p < n], Matrix._of(inverse, self.rows)))
        return self._reduction

    def __hash__(self):
        return hash((self.rows, self.cols, tuple((den, frozenset(row.items())) for den, row in self._rows)))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


def row_blocks(flat: dict, d: int) -> list[dict]:
    """The rows {j: numerator} of a d x d matrix flattened row by row,
    {i * d + j: numerator}, as :meth:`Matrix.flat_row` lays it out."""
    rows: list = [{} for _ in range(d)]
    for pos, x in flat.items():
        i, j = divmod(pos, d)
        rows[i][j] = x
    return rows


def unflatten(row: tuple[int, dict], d: int) -> Matrix:
    """The d x d matrix of a flattened integer row (den, {i * d + j:
    numerator}), the inverse of :meth:`Matrix.flat_row`."""
    den, flat = row
    return Matrix._of([(den, r) for r in row_blocks(flat, d)], d)


def vstack(top: Matrix, bottom: Matrix) -> Matrix:
    if top.cols != bottom.cols:
        raise ShapeMismatchError("column counts disagree")
    return Matrix._of(top._rows + bottom._rows, top.cols)


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


def _echelon(rows: Iterable[dict]) -> tuple[list[int], list[tuple[int, dict]]]:
    """The pivots of integer rows and the nonzero rows of their reduced row
    echelon form as canonical rows: the primitive row r of
    :func:`reduce_rows` with pivot p is (r[p], r).  A matrix is reduced as
    its numerators, since a row's denominator does not change its span."""
    pivots, reduced = reduce_rows(rows)
    return pivots, [(r[p], r) for p, r in zip(pivots, reduced)]


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the pivot columns, exact arithmetic."""
    pivots, reduced = _echelon(row for _, row in m._rows)
    padding = [(1, {}) for _ in range(m.rows - len(reduced))]
    return Matrix._of(reduced + padding, m.cols), pivots


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
            vectors.append(_integer_row(c)[1])
        self._span(ambient_dim, vectors)

    def _span(self, ambient_dim: int, vectors: Iterable[dict]) -> None:
        _, reduced = _echelon(vectors)
        self._init(ambient_dim=ambient_dim, basis=Matrix._of(_transpose(reduced, ambient_dim), len(reduced)))

    @classmethod
    def spanned_by(cls, ambient_dim: int, vectors: Iterable[dict]) -> "Subspace":
        """The span of sparse integer vectors {position: nonzero int}."""
        s = cls.__new__(cls)
        s._span(ambient_dim, vectors)
        return s

    @property
    def dim(self) -> int:
        return self.basis.cols

    def contains(self, vec) -> bool:
        """Is the vector, dense or an integer row as :func:`solve` reads
        it, in the span?"""
        return solve(self.basis, vec) is not None

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def kernel_basis(m: Matrix) -> Subspace:
    """Basis of the right null space; dim = cols - rank.

    Free column f spans e_f minus column f of the reduced row echelon
    form, the entry of row r put at row r's pivot; in integers, times
    the one denominator of the form's columns (:func:`_transpose`)."""
    pivots, reduced = _echelon(row for _, row in m._rows)
    columns = _transpose(reduced, m.cols)
    pivot_set = set(pivots)
    vectors = [
        {f: den, **{pivots[r]: -x for r, x in col.items()}}
        for f, (den, col) in enumerate(columns)
        if f not in pivot_set
    ]
    return Subspace.spanned_by(m.cols, vectors)


def image_basis(m: Matrix) -> Subspace:
    """Basis of the column space; dim = rank."""
    return Subspace.spanned_by(m.rows, (vec for _, vec in _transpose(m._rows, m.cols)))


def rank(m: Matrix) -> int:
    return len(reduce_rows(row for _, row in m._rows)[0])


def solve(m: Matrix, b) -> list[Fraction] | tuple[int, dict] | None:
    """A particular solution of m x = b, or None when b is not in the image.

    ``b`` is an integer row (den, {position: numerator}), as the cochain
    spaces give coordinates, and the solution the canonical integer row
    (:func:`_lowest`); or ``b`` is a dense vector of rationals, read as its
    integer row, and the solution its Fraction view, a dense list.  Free
    variables are 0.  The reduction (pivots, E) of m is computed on the
    first call and kept on m: b is in the image iff the rows of E b past
    the rank vanish, and x at pivot r is (E b)_r, the integer product
    (:meth:`Matrix._numerators`) over den times E's row denominator.  E b
    reads E's columns at b's nonzero positions only, so a position of an
    integer row outside m's rows is a DimMismatchError, and its
    denominator must be a positive int (PreconditionError).
    """
    dense = not (isinstance(b, tuple) and len(b) == 2 and isinstance(b[1], dict))
    if dense:
        if len(b) != m.rows:
            raise DimMismatchError("right-hand side has wrong length")
        b = _integer_row(b)
    den, vec = b
    _row_den(den)
    pivots, inverse = m._reduced()
    eb = inverse._numerators(vec)
    if any(eb[len(pivots) :]):
        return None
    dens = [row_den for row_den, _ in inverse._rows[: len(pivots)]]
    common = lcm(*(d for d, s in zip(dens, eb) if s))
    x = _lowest(common * den, {p: s * (common // d) for p, s, d in zip(pivots, eb, dens) if s})
    return _dense(x, m.cols) if dense else x


def quotient_dim(z: Subspace, b: Subspace) -> int:
    """dim(z/b); raises NotContainedError unless span(b) is inside span(z)."""
    if z.ambient_dim != b.ambient_dim:
        raise ShapeMismatchError("subspaces of different ambient spaces")
    if b.dim:
        # z's basis is independent, so its columns are the first pivots of
        # [z | b]; a pivot in b's block is the first b vector outside span(z).
        # Row i is reduced over the lcm of its two denominators.
        shift = z.dim
        stacked = [_joined(z_row, b_row, shift)[1] for z_row, b_row in zip(z.basis._rows, b.basis._rows)]
        pivots, _ = reduce_rows(stacked)
        outside = [p - shift for p in pivots if p >= shift]
        if outside:
            j = outside[0]
            raise NotContainedError(f"basis vector {j} of the smaller space is outside the larger one", basis_index=j)
    return z.dim - b.dim
