"""The Fraction evaluator the package no longer has, kept as a test oracle.

Brackets, alpha powers and cochains act here on sparse vectors {index:
Fraction}, term by term, and the twisted Leibniz rules are written out by
hand as linear rows in the entries of a d x d matrix.  None of it shares
code with the integer tables of :mod:`hlya.algebra` or the signed-term
data of :mod:`hlya.coboundary`, so the differential tests that import it
compare two independent computations.  :func:`fraction_read` is the
concrete cochain reader as it was before it read integer tables: it
shares the defect forms of :meth:`hlya.cochain.CochainSpace.defects`,
and feeds them the values themselves.  :func:`fraction_eliminate` is the
Fraction Gauss-Jordan loop the package reduced with before its one
fraction-free eliminator, and :func:`reference_space` rebuilds a cochain
space's reduced rows and basis with it from the Fraction equivariance rows
of :func:`general_equivariance_rows`.  :func:`eliminate`,
:func:`null_vectors` and :func:`divided` are the Fraction views the
package read its integer reductions and contractions through before its
matrices kept integer rows: the first reduces each Fraction row as its
numerators over one denominator and divides each reduced row by its
pivot entry.  :func:`fraction_solve` is a solve on :func:`fraction_eliminate`,
:func:`coordinate_row` the canonical integer row of a Fraction list, and
:func:`pair_coords` and :func:`pair_from_coords` are the Fraction
lists of a pair's concatenated coordinates the package passed around
before its coordinates were integer rows, built on the spaces' Fraction
views ``coords`` and ``from_coords``.  :func:`inverse_series` is the
recursion the package inverted a gauge series with before it divided by
the series, on dense Fraction matrices.  :func:`dense` is an algebra as
the nested Fraction tuples it was held as before it was its integer
tables, the form the oracles below read.
"""

import itertools
from fractions import Fraction
from math import lcm

from hlya.algebra import alpha_table, brackets
from hlya.cochain import _violation, build_cochain_space
from hlya.errors import ArityError, DimMismatchError
from hlya.exactlin import ZERO, Matrix, kernel_basis, rat, reduce_rows

ONE = Fraction(1)


def dense(a):
    """(binary, ternary, alpha) of an algebra as nested Fraction tuples, the
    tensors :func:`hlya.algebra.make_algebra` takes: binary[i][j] and
    ternary[i][j][k] the coordinates of [e_i, e_j] and {e_i e_j e_k}, and
    alpha row-major, alpha(e_j) = sum_i alpha[i][j] e_i.  Read off the
    algebra's tables, brackets(a) and alpha_table(a, 1)."""
    d, zero = range(a.dim), (ZERO,) * a.dim
    b, t = (table.fractions(a.dim) for table in brackets(a))
    al = alpha_table(a, 1).fractions(a.dim)
    binary = tuple(tuple(b.get((i, j), zero) for j in d) for i in d)
    ternary = tuple(tuple(tuple(t.get((i, j, k), zero) for k in d) for j in d) for i in d)
    return binary, ternary, tuple(tuple(al.get((j,), zero)[i] for j in d) for i in d)


def from_columns(columns, rows):
    """The rows x len(columns) matrix whose column j is ``columns[j]``, a
    dense vector of ``rows`` rationals; 0 x n for rows = 0."""
    assert all(len(c) == rows for c in columns)
    if not rows:
        return Matrix.zeros(0, len(columns))
    return Matrix([[c[i] for c in columns] for i in range(rows)])


def fraction_read(space, table):
    """Basis coordinates of a raw tabulation over the basis tuples, read as
    a map in one unknown with Fraction values: each nonzero value is the
    form {(output index, 0): entry}, and the first of its defects raises
    NotACochainError.  A value whose length is not the dimension raises
    DimMismatchError, a nonzero value at no basis tuple ArityError."""
    d, n = space.algebra.dim, space.arity
    indices = frozenset(range(d))
    forms = {}
    for idx, vec in table.items():
        if len(vec) != d:
            raise DimMismatchError(f"the value at {idx} has {len(vec)} entries, expected {d}")
        form = {(k, 0): rat(x) for k, x in enumerate(vec) if x}
        if form:
            if len(idx) != n or not indices.issuperset(idx):
                raise ArityError(f"{idx} is not a basis tuple of {n} indices below {d}")
            forms[idx] = form
    if not forms:  # the zero map has no defects
        return [ZERO] * space.dim
    for kind, idx, _ in space.defects(forms):
        raise _violation(kind, idx)
    reps, empty = space.rep_tuples, {}
    return [forms.get(reps[i // d], empty).get((i % d, 0), ZERO) for i in space._free]


def svec_add(acc, sv, coef=ONE):
    """acc += coef * sv, dropping entries that cancel."""
    for i, x in sv.items():
        v = acc.get(i, ZERO) + coef * x
        if v:
            acc[i] = v
        else:
            acc.pop(i, None)


def to_svec(vec):
    return {i: rat(x) for i, x in enumerate(vec) if x}


def alpha_power_columns(a, k):
    """Columns of alpha^k as sparse vectors; alpha^0 = identity."""
    cols = [{j: ONE} for j in range(a.dim)]
    alpha = dense(a)[2]
    for _ in range(k):
        nxt = []
        for col in cols:
            acc = {}
            for i, c in col.items():
                svec_add(acc, {r: alpha[r][i] for r in range(a.dim) if alpha[r][i]}, c)
            nxt.append(acc)
        cols = nxt
    return cols


def eval_sv(cochain, args):
    """Multilinear contraction of a cochain against sparse argument vectors."""
    assert len(args) == cochain.arity
    acc = {}
    for combo in itertools.product(*(v.items() for v in args)):
        vec = cochain.table.get(tuple(c[0] for c in combo))
        if vec is None:
            continue
        w = ONE
        for c in combo:
            w *= c[1]
        svec_add(acc, {k: x for k, x in enumerate(vec) if x}, w)
    return acc


class FractionOps:
    """One algebra's brackets and alpha powers on sparse Fraction vectors.

    ``A[k]`` holds the columns of alpha^k (k < 5) and ``e`` = ``A[0]`` is
    the standard basis."""

    def __init__(self, a):
        self.a = a
        self.A = tuple(alpha_power_columns(a, k) for k in range(5))
        self.e = self.A[0]
        self.binary, self.ternary, _ = dense(a)
        d = range(a.dim)
        self._btab = {
            (i, j): sv for i, j in itertools.product(d, repeat=2) if (sv := to_svec(self.binary[i][j]))
        }
        self._ttab = {
            (i, j, k): sv
            for i, j, k in itertools.product(d, repeat=3)
            if (sv := to_svec(self.ternary[i][j][k]))
        }

    def br(self, x, y):
        acc = {}
        for i, cx in x.items():
            for j, cy in y.items():
                sv = self._btab.get((i, j))
                if sv:
                    svec_add(acc, sv, cx * cy)
        return acc

    def tr(self, x, y, z):
        acc = {}
        for i, cx in x.items():
            for j, cy in y.items():
                for k, cz in z.items():
                    sv = self._ttab.get((i, j, k))
                    if sv:
                        svec_add(acc, sv, cx * cy * cz)
        return acc


# --- the k-twisted derivations as hand-written linear rows --------------------


def _leibniz_rows_binary(ops, ak, i, j):
    """D([e_i e_j]) - [a^k(e_i), D(e_j)] - [D(e_i), a^k(e_j)] = 0, one row
    per output coordinate, in the entries of D flattened row-major."""
    a, e = ops.a, ops.e
    d = a.dim
    rows = [[ZERO] * (d * d) for _ in range(d)]
    for m, c in enumerate(ops.binary[i][j]):
        if c:
            for l in range(d):
                rows[l][l * d + m] += c
    for p, cp in ak[i].items():
        for m in range(d):
            for l, c in ops.br({p: cp}, e[m]).items():
                rows[l][m * d + j] -= c
    for q, cq in ak[j].items():
        for m in range(d):
            for l, c in ops.br(e[m], {q: cq}).items():
                rows[l][m * d + i] -= c
    return rows


def _leibniz_rows_ternary(ops, ak, i, j, k):
    """D({e_i e_j e_k}) minus D applied in each slot, alpha^k in the others."""
    a, e = ops.a, ops.e
    d = a.dim
    rows = [[ZERO] * (d * d) for _ in range(d)]
    for m, c in enumerate(ops.ternary[i][j][k]):
        if c:
            for l in range(d):
                rows[l][l * d + m] += c
    slots = (i, j, k)
    for touched in range(3):
        for m in range(d):
            args = [ak[s] for s in slots]
            args[touched] = e[m]
            for l, c in ops.tr(*args).items():
                rows[l][m * d + slots[touched]] -= c
    return rows


def commutant_rows(a):
    """D o alpha = alpha o D as rows in the entries of D flattened row-major
    (D[i][j] at i * d + j), one per entry (i, j):
    sum_m D[i][m] A[m][j] - A[i][m] D[m][j] = 0."""
    d, alpha = a.dim, dense(a)[2]
    rows = []
    for i, j in itertools.product(range(d), repeat=2):
        row = [ZERO] * (d * d)
        for m in range(d):
            row[i * d + m] += alpha[m][j]
            row[m * d + j] -= alpha[i][m]
        rows.append(row)
    return rows


def reference_derivation_space(a, k):
    """The k-twisted derivations as the kernel of the stacked rows: alpha
    commutation, binary Leibniz on i < j and ternary Leibniz on all triples."""
    ops = FractionOps(a)
    ak = alpha_power_columns(a, k)
    rows = commutant_rows(a)
    for i, j in itertools.combinations(range(a.dim), 2):
        rows.extend(_leibniz_rows_binary(ops, ak, i, j))
    for idx in itertools.product(range(a.dim), repeat=3):
        rows.extend(_leibniz_rows_ternary(ops, ak, *idx))
    return kernel_basis(Matrix(rows))


def fraction_eliminate(rows):
    """Gauss-Jordan elimination of sparse rows {column: nonzero Fraction},
    in Fractions: the pivot columns, ascending, and the nonzero rows of the
    reduced row echelon form in the same order.  The input rows are not
    changed."""
    pivot_of = {}

    def subtract(r, coef, piv, skip):
        # r -= coef * piv, except at column skip, which the caller clears
        for cc, v in piv.items():
            if cc == skip:
                continue
            x = r.get(cc)
            if x is None:
                r[cc] = -coef * v
            else:
                x -= coef * v
                if x:
                    r[cc] = x
                else:
                    del r[cc]

    for row in rows:
        r = dict(row)
        while r:
            c = min(r)
            piv = pivot_of.get(c)
            if piv is None:
                lead = r[c]
                if lead != 1:
                    inv = ONE / lead
                    r = {cc: v * inv for cc, v in r.items()}
                pivot_of[c] = r
                break
            subtract(r, r.pop(c), piv, c)
    # back-substitute, highest pivot first, so each row subtracted is final
    pivots = sorted(pivot_of)
    for c in reversed(pivots):
        row = pivot_of[c]
        for c2 in [cc for cc in row if cc != c and cc in pivot_of]:
            subtract(row, row.pop(c2), pivot_of[c2], c2)
    return pivots, [pivot_of[c] for c in pivots]


def fraction_solve(m, b):
    """A particular solution of m x = b in Fractions, free variables 0, or
    None when b is not in the image: the reduced row echelon form of
    [m | b] by :func:`fraction_eliminate`, whose pivot rows have entry 1,
    so x at a pivot column is the row's entry in b's column, and b is
    outside the image exactly when that column holds a pivot."""
    n = m.cols
    rows = []
    for row, y in zip(m.data, b):
        r = {j: x for j, x in enumerate(row) if x}
        if y:
            r[n] = rat(y)
        rows.append(r)
    pivots, reduced = fraction_eliminate(rows)
    if n in pivots:
        return None
    x = [ZERO] * n
    for p, r in zip(pivots, reduced):
        x[p] = r.get(n, ZERO)
    return x


def pair_coords(a, f, g):
    """The basis coordinates of (f, g) in C2 x C3 as one Fraction list."""
    return build_cochain_space(a, 2).coords(f) + build_cochain_space(a, 3).coords(g)


def pair_from_coords(a, coords):
    """The pair in C2 x C3 with these concatenated basis coordinates."""
    c2, c3 = build_cochain_space(a, 2), build_cochain_space(a, 3)
    return c2.from_coords(coords[: c2.dim]), c3.from_coords(coords[c2.dim :])


def general_equivariance_rows(space):
    """The equivariance rows of ``space`` in Fractions, built for any alpha
    from alpha's Fraction matrix: the loop that also runs when alpha = id,
    where every row cancels."""
    a = space.algebra
    d = a.dim
    alpha = dense(a)[2]
    acols = [{r: alpha[r][i] for r in range(d) if alpha[r][i]} for i in range(d)]
    rows = []
    for pos, idx in enumerate(space.rep_tuples):
        combos = {}
        for combo in itertools.product(*(acols[i].items() for i in idx)):
            found = space._orbit.get(tuple(c[0] for c in combo))
            if found:
                target, sign = found
                w = ONE
                for c in combo:
                    w *= c[1]
                combos[target] = combos.get(target, ZERO) + sign * w
        for out in range(d):
            row = {}
            for k in range(d):
                c = alpha[out][k]
                if c:
                    row[pos * d + k] = c
            for target, w in combos.items():
                col = target * d + out
                v = row.get(col, ZERO) - w
                if v:
                    row[col] = v
                else:
                    row.pop(col, None)
            if row:
                rows.append(row)
    return rows


def reference_space(space):
    """(pivots, reduced rows, free columns, basis columns) of ``space``,
    all in Fractions: the general equivariance rows reduced by
    :func:`fraction_eliminate`, and the kernel basis of
    :func:`null_vectors`, as the space was built before it
    was built in integers."""
    pivots, rows = fraction_eliminate(general_equivariance_rows(space))
    free, cols = null_vectors(pivots, rows, space.reduced_dim)
    return pivots, rows, free, cols


def integer_rows(rows):
    """Each Fraction row times the lcm of its denominators: for a reduced
    row, 1 at its pivot, its primitive integer multiple."""
    out = []
    for row in rows:
        den = lcm(*(x.denominator for x in row.values()))
        out.append({i: x.numerator * (den // x.denominator) for i, x in row.items()})
    return out


def coordinate_row(values):
    """A list of rationals as the integer row (den, {index: nonzero
    numerator}) over the lcm of the denominators of its nonzero entries:
    the canonical row, in lowest terms, the cochain spaces record."""
    den, [col] = integer_basis([{i: rat(x) for i, x in enumerate(values) if x}])
    return den, col


def integer_basis(cols):
    """Fraction columns as (den, integer numerator columns) over the lcm of
    the denominators of all their entries."""
    den = lcm(*(x.denominator for col in cols for x in col.values()))
    return den, [{i: x.numerator * (den // x.denominator) for i, x in col.items()} for col in cols]


def eliminate(rows):
    """Gauss-Jordan elimination of sparse rows {column: nonzero Fraction}.

    Returns the pivot columns, ascending, and the nonzero rows of the
    reduced row echelon form in the same order: row r has a 1 at
    ``pivots[r]`` and no entry at any other pivot column.  The input rows
    are not changed.  The Fraction view of
    :func:`hlya.exactlin.reduce_rows`: each row is reduced as its
    numerators over the lcm of its denominators, and each reduced row is
    divided by its pivot entry.
    """
    pivots, reduced = reduce_rows(integer_rows(rows))
    out = []
    for p, row in zip(pivots, reduced):
        lead = row[p]
        out.append({j: ONE if j == p else Fraction(x, lead) for j, x in row.items()})
    return pivots, out


def null_vectors(pivots, reduced, ncols):
    """Free columns and kernel basis of a system in reduced form.

    ``(pivots, reduced)`` is the result of :func:`eliminate` or
    :func:`fraction_eliminate`.  Kernel vector j is sparse, with a 1 at
    the j-th free column and zeros at the others, so the coordinates of
    any kernel vector are its entries at the free columns.
    """
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    vectors = {f: {f: ONE} for f in free}
    for p, row in zip(pivots, reduced):
        for f, v in row.items():
            if f != p:
                vectors[f][p] = -v
    return free, [vectors[f] for f in free]


def divided(value, den):
    """Exact values from contraction numerators: value(idx) / den.

    With den 1 the numerators are the values and come back unchanged, as
    Python ints."""
    if den == 1:
        return value
    inv = Fraction(1, den)
    return lambda idx: {j: x * inv for j, x in value(idx).items()}


def inverse_series(phi):
    """The truncated inverse of a series of d x d matrices (dense rows of
    Fractions) with phi_0 = id, by the recursion psi_0 = id and
    psi_n = -sum_{i=1}^{n} phi_i psi_{n-i}."""
    d = len(phi[0])
    psi = [phi[0]]
    for n in range(1, len(phi)):
        acc = [[ZERO] * d for _ in range(d)]
        for i in range(1, n + 1):
            for r, c, k in itertools.product(range(d), repeat=3):
                acc[r][c] -= phi[i][r][k] * psi[n - i][k][c]
        psi.append(acc)
    return psi
