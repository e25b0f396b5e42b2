"""Exact linear algebra over Q: rref, kernels, images, solvability."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlya.errors import (
    InputError,
    NotContainedError,
    ShapeMismatchError,
    TheoremViolationError,
)
from hlya.exactlin import (
    Matrix,
    Subspace,
    image_basis,
    kernel_basis,
    quotient_dim,
    rank,
    rat,
    rat_str,
    rref,
    solve,
    vstack,
)


def test_rat_parses_strings_ints_fractions():
    assert rat("-3/2") == Fraction(-3, 2)
    assert rat(7) == Fraction(7)
    assert rat(Fraction(1, 3)) == Fraction(1, 3)
    assert rat_str(Fraction(-3, 2)) == "-3/2"
    assert rat_str(Fraction(7)) == "7"


def test_rat_refuses_floats_and_bools():
    """0.1 as a float is 3602879701896397 / 2**55, not 1/10, and True is no
    number: both are refused wherever a value becomes a Fraction."""
    for value in (0.1, 0.5, 1.0, True, False):
        with pytest.raises(TypeError):
            rat(value)
    with pytest.raises(TypeError):
        Matrix([[Fraction(1, 2), True]])
    with pytest.raises(TypeError):
        Matrix([[0.5, 1]])
    assert rat("0.1") == Fraction(1, 10)  # a decimal string is exact


def test_rref_known_matrix():
    m = Matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    reduced, pivots = rref(m)
    assert pivots == [0, 1]
    assert reduced.data[0] == [1, 0, 1]
    assert reduced.data[1] == [0, 1, 1]
    assert reduced.data[2] == [0, 0, 0]


def test_rref_idempotent():
    m = Matrix([[2, 1, 0], [1, 1, 7], [3, 2, 7]])
    r1, _ = rref(m)
    r2, _ = rref(r1)
    assert r1 == r2


def test_kernel_and_image_rank_nullity():
    m = Matrix([[1, 2, 3], [2, 4, 6]])
    k = kernel_basis(m)
    im = image_basis(m)
    assert k.dim + im.dim == m.cols
    assert k.dim == 2
    for j in range(k.dim):
        assert all(x == 0 for x in m.apply(k.basis.column(j)))


def test_solve_exact_and_unsolvable():
    m = Matrix([[1, 2], [3, 4]])
    b = [rat(5), rat(6)]
    x = solve(m, b)
    assert m.apply(x) == b
    singular = Matrix([[1, 2], [2, 4]])
    assert solve(singular, [rat(0), rat(1)]) is None


def test_subspace_equality_is_span_equality():
    s1 = Subspace(3, [[1, 0, 0], [0, 1, 0]])
    s2 = Subspace(3, [[1, 1, 0], [1, -1, 0]])
    s3 = Subspace(3, [[1, 0, 0], [0, 0, 1]])
    assert s1 == s2
    assert s1 != s3
    assert s1.contains([rat(5), rat(-7), rat(0)])
    assert not s1.contains([rat(0), rat(0), rat(1)])


def test_quotient_dim_and_containment_guard():
    z = Subspace(3, [[1, 0, 0], [0, 1, 0]])
    b = Subspace(3, [[1, 1, 0]])
    assert quotient_dim(z, b) == 1
    outside = Subspace(3, [[0, 0, 1]])
    with pytest.raises(NotContainedError):
        quotient_dim(z, outside)


def test_quotient_dim_names_first_vector_outside():
    z = Subspace(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    # canonical basis of b: e1 + e2 (inside z), then e3 and e4 (outside)
    b = Subspace(4, [[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert b.basis.column(0) == [1, 1, 0, 0]
    with pytest.raises(NotContainedError, match="basis vector 1 "):
        quotient_dim(z, b)
    with pytest.raises(NotContainedError, match="basis vector 0 "):
        quotient_dim(Subspace(4, [[0, 0, 0, 1]]), Subspace(4, [[0, 1, 0, 0]]))
    assert quotient_dim(Subspace(4, []), Subspace(4, [])) == 0


def test_not_contained_error_carries_the_first_vector_outside():
    z = Subspace(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    # canonical basis of b: e1 + e2 (inside z), then e3 and e4 (outside)
    b = Subspace(4, [[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(NotContainedError) as caught:
        quotient_dim(z, b)
    assert caught.value.basis_index == 1
    assert str(caught.value) == "basis vector 1 of the smaller space is outside the larger one"
    with pytest.raises(NotContainedError) as caught:
        quotient_dim(Subspace(4, [[0, 0, 0, 1]]), Subspace(4, [[0, 1, 0, 0]]))
    assert caught.value.basis_index == 0


def test_theorem_violations_take_only_their_own_witnesses():
    assert NotContainedError("m").basis_index is None
    with pytest.raises(TypeError):
        NotContainedError("m", k=1)


def test_vstack_and_matmul_shapes():
    top = Matrix([[1, 0], [0, 1]])
    bottom = Matrix([[2, 3]])
    assert vstack(top, bottom).rows == 3
    assert top.matmul(Matrix([[1], [2]])).column(0) == [rat(1), rat(2)]


def test_internal_shape_mismatches_are_theorem_violations():
    # these shapes come from the program, never from user input, so a
    # mismatch is a fault in the program rather than invalid input
    for call in (
        lambda: vstack(Matrix([[1, 2]]), Matrix([[1, 2, 3]])),
        lambda: Matrix.from_columns([[1, 2], [3]], rows=2),
        lambda: Matrix.from_columns([]),
        lambda: quotient_dim(Subspace(2, [[1, 0]]), Subspace(3, [[1, 0, 0]])),
    ):
        with pytest.raises(ShapeMismatchError) as info:
            call()
        assert isinstance(info.value, TheoremViolationError)
        assert not isinstance(info.value, InputError)


def test_empty_shapes_survive():
    # zero-row matrices must keep their column count for later products
    m = Matrix.zeros(0, 5)
    assert m.cols == 5
    assert kernel_basis(m).dim == 5
    assert m.apply([rat(0)] * 5) == []
    stacked = vstack(m, Matrix.zeros(0, 5))
    assert (stacked.rows, stacked.cols) == (0, 5)


_small = st.integers(min_value=-5, max_value=5)


@given(st.lists(st.lists(_small, min_size=3, max_size=3), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_rank_nullity_random(rows):
    m = Matrix(rows)
    assert kernel_basis(m).dim + rank(m) == m.cols


@given(
    st.lists(st.lists(_small, min_size=3, max_size=3), min_size=2, max_size=3),
    st.lists(_small, min_size=3, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_solve_result_is_exact_random(rows, coeffs):
    m = Matrix(rows)
    # right-hand side drawn from the image so a solution must exist
    b = m.apply([rat(c) for c in coeffs])
    x = solve(m, b)
    assert x is not None
    assert m.apply(x) == b


def _dense_apply(m, vec):
    """The product over every entry, as before zero vector entries were skipped."""
    out = [rat(0)] * m.rows
    for i, row in enumerate(m.data):
        s = rat(0)
        for a, x in zip(row, vec):
            if a and x:
                s += a * x
        out[i] = s
    return out


# mostly zeros, as the cocycle coordinates and operator matrices are
_sparse_entry = st.one_of(
    st.just(0), st.just(0), st.just(0), st.builds(Fraction, _small, st.integers(min_value=1, max_value=4))
)


@st.composite
def _sparse_system(draw):
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=8))
    data = draw(st.lists(st.lists(_sparse_entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    vec = draw(st.lists(_sparse_entry, min_size=cols, max_size=cols))
    return Matrix(data), [rat(x) for x in vec]


@given(_sparse_system())
@settings(max_examples=200, deadline=None)
def test_apply_matches_dense_product(system):
    m, vec = system
    out = m.apply(vec)
    assert out == _dense_apply(m, vec)
    assert all(isinstance(x, Fraction) for x in out)


def _fraction_apply(m, vec):
    """The product as Fraction sums over the stored entries of each row."""
    nonzero = {j: rat(x) for j, x in enumerate(vec) if x}
    out = []
    for row in m._rows:
        s = rat(0)
        for j, a in row.items():
            if j in nonzero:
                s += a * nonzero[j]
        out.append(s)
    return out


@given(_sparse_system(), st.lists(st.integers(min_value=1, max_value=9), min_size=8, max_size=8))
@settings(max_examples=200, deadline=None)
def test_integer_apply_matches_fraction_products(system, dens):
    """Mixed denominators in the matrix and the vector, and ints in the
    vector: the integer product gives the same Fractions, twice over (the
    second apply reads the integer rows kept by the first)."""
    m, vec = system
    vec = [x / dens[j] if j % 2 else int(x * dens[j]) for j, x in enumerate(vec)]
    expected = _fraction_apply(m, vec)
    assert m.apply(vec) == expected
    assert m.apply(vec) == expected
    assert all(isinstance(x, Fraction) for x in m.apply(vec))
