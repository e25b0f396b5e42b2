"""The sparse eliminator against the two eliminators it replaced.

``_dense_rref`` is the dense Fraction Gauss-Jordan elimination that backed
``rref``, ``kernel_basis``, ``image_basis``, ``solve``, ``quotient_dim``
and ``Subspace`` canonicalisation; ``_sparse_kernel`` is the dict-row
elimination that built every ``CochainSpace`` basis.  Both are kept here,
verbatim in their arithmetic, as reference oracles: RREF is unique, so the
one sparse routine must reproduce their results exactly, basis for basis.
"""

import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlya import samples, serialize
from hlya.algebra import yau_twist
from hlya.cochain import MAX_ARITY, CochainSpace
from hlya.errors import NotContainedError
from hlya.exactlin import (
    ONE,
    ZERO,
    Matrix,
    Subspace,
    image_basis,
    kernel_basis,
    quotient_dim,
    rank,
    rref,
    solve,
    vstack,
)
from hlya.samples import random_verified_algebras

# --- the reference oracles ------------------------------------------------


def _dense_rref(data, cols):
    """Reduced row echelon form of dense rows, and the pivot columns."""
    data = [row[:] for row in data]
    rows = len(data)
    pivots = []
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
    return data, pivots


def _dense_span(ambient_dim, columns):
    """Canonical basis columns of a span: the nonzero rows of its RREF."""
    if not columns:
        return []
    reduced, pivots = _dense_rref(columns, ambient_dim)
    return reduced[: len(pivots)]


def _dense_kernel(data, cols):
    reduced, pivots = _dense_rref(data, cols)
    vectors = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [ZERO] * cols
        v[f] = ONE
        for r, p in enumerate(pivots):
            if reduced[r][f]:
                v[p] = -reduced[r][f]
        vectors.append(v)
    return _dense_span(cols, vectors)


def _dense_image(data, rows, cols):
    _, pivots = _dense_rref(data, cols)
    return _dense_span(rows, [[data[i][p] for i in range(rows)] for p in pivots])


def _dense_solve(data, cols, b):
    """A fresh elimination of [m | b]."""
    if not data:
        return [ZERO] * cols
    reduced, pivots = _dense_rref([row + [x] for row, x in zip(data, b)], cols + 1)
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for r, p in enumerate(pivots):
        x[p] = reduced[r][cols]
    return x


def _dense_quotient(ambient_dim, z, b):
    """dim(z/b) from [z | b], or the index of the first b vector outside z."""
    if not b:
        return len(z)
    stacked = [[v[i] for v in z] + [v[i] for v in b] for i in range(ambient_dim)]
    _, pivots = _dense_rref(stacked, len(z) + len(b))
    outside = [p - len(z) for p in pivots if p >= len(z)]
    if outside:
        return ("outside", outside[0])
    return len(z) - len(b)


def _sparse_kernel(rows, ncols):
    """RREF of a sparse row system; returns (pivot cols, free cols, basis)."""
    pivot_of = {}
    for row in rows:
        r = dict(row)
        while r:
            c = min(r)
            piv = pivot_of.get(c)
            if piv is None:
                lead = r[c]
                pivot_of[c] = {cc: v / lead for cc, v in r.items()}
                break
            coef = r.pop(c)
            for cc, v in piv.items():
                if cc == c:
                    continue
                nv = r.get(cc, ZERO) - coef * v
                if nv:
                    r[cc] = nv
                else:
                    r.pop(cc, None)
    for c in sorted(pivot_of, reverse=True):
        row = pivot_of[c]
        for c2 in [cc for cc in row if cc != c and cc in pivot_of]:
            coef = row.pop(c2)
            for cc, v in pivot_of[c2].items():
                if cc == c2:
                    continue
                nv = row.get(cc, ZERO) - coef * v
                if nv:
                    row[cc] = nv
                else:
                    row.pop(cc, None)
    pivots = sorted(pivot_of)
    free = [c for c in range(ncols) if c not in set(pivots)]
    basis = []
    for f in free:
        col = {f: ONE}
        for c in pivots:
            v = pivot_of[c].get(f)
            if v:
                col[c] = -v
        basis.append(col)
    return pivots, free, basis


# --- random sparse rational matrices --------------------------------------

_small = st.integers(min_value=-4, max_value=4)
_entry = st.one_of(
    st.just(0), st.just(0), st.just(0), st.builds(Fraction, _small, st.integers(min_value=1, max_value=3))
)


@st.composite
def _dense_rows(draw):
    """Dense rows (possibly none) and the column count, with zero rows and
    columns arising from the mostly-zero entries and rows repeated or
    rescaled on purpose."""
    rows = draw(st.integers(min_value=0, max_value=6))
    cols = draw(st.integers(min_value=0, max_value=7))
    data = [[Fraction(x) for x in draw(st.lists(_entry, min_size=cols, max_size=cols))] for _ in range(rows)]
    for _ in range(draw(st.integers(min_value=0, max_value=2)) if rows else 0):
        src = data[draw(st.integers(min_value=0, max_value=rows - 1))]
        factor = draw(st.sampled_from((1, -1, 2, Fraction(1, 3))))
        data.insert(draw(st.integers(min_value=0, max_value=len(data))), [factor * x for x in src])
    return data, cols


def _matrix(data, cols):
    return Matrix(data) if data else Matrix.zeros(0, cols)


def _columns(s: Subspace):
    return [s.basis.column(j) for j in range(s.dim)]


@given(_dense_rows())
@settings(max_examples=200, deadline=None)
def test_rref_rank_kernel_image_match_dense_oracle(system):
    data, cols = system
    m = _matrix(data, cols)
    assert (m.rows, m.cols) == (len(data), cols)
    reduced, pivots = rref(m)
    oracle, oracle_pivots = _dense_rref(data, cols)
    assert pivots == oracle_pivots
    assert reduced.data == oracle
    assert rank(m) == len(oracle_pivots)
    assert _columns(kernel_basis(m)) == _dense_kernel(data, cols)
    assert _columns(image_basis(m)) == _dense_image(data, len(data), cols)


@given(_dense_rows(), _dense_rows())
@settings(max_examples=120, deadline=None)
def test_quotient_dim_matches_dense_oracle(first, second):
    (data, cols), (extra, extra_cols) = first, second
    m = _matrix(data, cols)
    more = _matrix([row[:cols] + [ZERO] * (cols - len(row)) for row in extra], cols)
    # ker [m; more] lies inside ker m, and not the other way round in general
    z, b = kernel_basis(m), kernel_basis(vstack(m, more))
    for big, small in ((z, b), (b, z)):
        expected = _dense_quotient(cols, _columns(big), _columns(small))
        if isinstance(expected, tuple):
            with pytest.raises(NotContainedError, match=f"basis vector {expected[1]} "):
                quotient_dim(big, small)
        else:
            assert quotient_dim(big, small) == expected


@given(_dense_rows(), st.lists(st.lists(_entry, min_size=7, max_size=7), min_size=1, max_size=8))
@settings(max_examples=120, deadline=None)
def test_repeated_solves_match_fresh_elimination(system, draws):
    data, cols = system
    m = _matrix(data, cols)
    for k, draw in enumerate(draws):
        if k % 2:
            # a consistent right-hand side, from the image
            b = m.apply([Fraction(x) for x in draw[:cols]])
        else:
            b = [Fraction(draw[i % 7]) for i in range(m.rows)]
        x = solve(m, b)
        assert x == _dense_solve(data, cols, b)
        if x is not None:
            assert m.apply(x) == b
    # the reduction is made once and kept on the matrix
    kept = m._reduction
    assert kept is not None
    solve(m, [ZERO] * m.rows)
    assert m._reduction is kept


def test_solve_edge_shapes():
    assert solve(Matrix.zeros(0, 3), []) == [ZERO] * 3
    assert solve(Matrix([[], []]), [ZERO, ZERO]) == []
    assert solve(Matrix([[], []]), [ZERO, ONE]) is None
    m = Matrix([[1, 2], [2, 4], [0, 0]])
    assert solve(m, [1, 2, 0]) == [ONE, ZERO]
    assert solve(m, [1, 2, 1]) is None
    assert solve(m, [1, 3, 0]) is None


def test_matrix_storage_and_views():
    m = Matrix([[0, "1/2", 0], [0, 0, 0], [3, 0, -1]])
    assert m.entries() == [(0, 1, Fraction(1, 2)), (2, 0, Fraction(3)), (2, 2, Fraction(-1))]
    view = m.data
    view[0][0] = ONE  # a copy: the matrix does not change
    assert m.data[0] == [ZERO, Fraction(1, 2), ZERO]
    assert m.transpose().data == [list(c) for c in zip(*m.data)]
    assert m == Matrix(m.data) and hash(m) == hash(Matrix(m.data))
    assert m.add(m.scale(-1)).is_zero()
    assert vstack(Matrix.zeros(0, 3), Matrix.zeros(0, 3)).cols == 3
    assert Matrix.from_columns([[1, 0], [0, 2]]) == Matrix([[1, 0], [0, 2]])
    empty = Matrix.from_sparse_columns([], 4)
    assert (empty.rows, empty.cols) == (4, 0)


# --- cochain spaces -------------------------------------------------------


def _gl2():
    return serialize.load_algebra(os.path.join(os.path.dirname(__file__), "..", "data", "e4_gl2.json"))


def _sl2_twist():
    s = Fraction(3, 2)
    return yau_twist(samples.sl2(), Matrix([[1, 0, 0], [0, s, 0], [0, 0, 1 / s]]), name="sl2_twist_3/2")


def _assert_spaces_match(a):
    # the spaces the package builds: C1 .. C7, and W4 (one pair condition)
    shapes = [(n, None) for n in range(1, MAX_ARITY + 1)] + [(4, 1)]
    for space in (CochainSpace(a, n, pairs) for n, pairs in shapes):
        pivots, free, basis = _sparse_kernel(space._equivariance_rows(), space.reduced_dim)
        assert space._pivots == pivots, (a.name, space.arity, space.pairs)
        assert space._free == free, (a.name, space.arity, space.pairs)
        assert space._basis_cols == basis, (a.name, space.arity, space.pairs)


def test_cochain_spaces_match_sparse_kernel_oracle(bundled):
    for a in [*bundled, _sl2_twist()]:
        _assert_spaces_match(a)


def test_cochain_spaces_match_sparse_kernel_oracle_on_random_corpus():
    for a in random_verified_algebras(12345, 20):
        _assert_spaces_match(a)


def test_gl2_cochain_spaces_match_sparse_kernel_oracle():
    _assert_spaces_match(_gl2())
