"""The integer product read by columns, against the Fraction oracles.

A :class:`hlya.exactlin.Matrix` keeps a column index of its canonical
rows, built on its first product, and the one integer product
(``_numerators``) reads only the columns in the vector's support.
``kills``, ``apply`` and ``solve`` read it.  Each is checked here against
Fraction arithmetic on the drawn entries themselves and against
:func:`fraction_reference.fraction_solve`, on random sparse matrices with
empty rows and columns, on the shapes 0 x n and n x 0, and on the empty
vector.  A position outside the vector's length is a DimMismatchError:
the product never drops it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hlya.errors import DimMismatchError
from hlya.exactlin import ZERO, Matrix, _dense, solve

from fraction_reference import coordinate_row, fraction_solve

# mostly zeros, so rows and columns are often empty
_entry = st.one_of(st.just(0), st.just(0), st.just(0), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5)))


@st.composite
def _sparse_system(draw):
    """A dense Fraction matrix of 0-6 rows and 0-6 columns, a vector over
    its columns and one over its rows, each sparse and often empty."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    data = [draw(st.lists(_entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    x = draw(st.lists(_entry, min_size=cols, max_size=cols))
    b = draw(st.lists(_entry, min_size=rows, max_size=rows))
    return data, cols, x, b


def _product(data, x):
    """The Fraction product of dense rows with a dense vector."""
    return [sum((Fraction(a) * Fraction(y) for a, y in zip(row, x)), ZERO) for row in data]


def _check(data, cols, x, b):
    m = Matrix._of([coordinate_row(row) for row in data], cols)
    expected = _product(data, x)
    den, vec = coordinate_row(x)
    numerators = m._numerators(vec)
    assert len(numerators) == m.rows
    assert [Fraction(s, row_den * den) for s, (row_den, _) in zip(numerators, m._rows)] == expected
    assert m.kills((den, vec)) == (not any(expected))
    assert m.apply(x) == expected
    reference = fraction_solve(m, b)
    got = solve(m, coordinate_row(b))
    if reference is None:
        assert got is None and solve(m, b) is None
    else:
        assert got == coordinate_row(reference) and solve(m, b) == reference
    # a right-hand side from the image is solved, and the solution maps back
    image = m.apply(x)
    solved = solve(m, coordinate_row(image))
    assert solved is not None and m.apply(_dense(solved, cols)) == image


@seed(4301)
@given(_sparse_system())
@settings(max_examples=300, deadline=None)
def test_the_column_product_matches_the_fraction_oracles(system):
    """The column product, kills, apply and solve (on integer rows and on
    dense vectors) agree with Fraction arithmetic and fraction_solve."""
    _check(*system)


@pytest.mark.parametrize(
    "data, cols, x, b",
    [
        ([], 3, [0, Fraction(1, 2), 2], []),  # 0 x n: the product is empty
        ([[], [], []], 0, [], [0, 1, 0]),  # n x 0: every product is 0
        ([[], []], 0, [], [0, 0]),
        ([[0, 0, 0], [1, 0, 2], [0, 0, 0]], 3, [0, 0, 0], [0, 1, 0]),  # empty rows, empty vector
        ([[0, 0, 0], [1, 0, 2]], 3, [5, 0, 0], [0, 3]),  # an empty column in the support
        ([[0, Fraction(1, 3), 0], [0, 0, 0]], 3, [0, 3, 0], [1, 0]),
    ],
    ids=["0-rows", "0-cols", "0-cols-zero", "empty-vector", "empty-column", "unsolvable"],
)
def test_the_column_product_on_edge_shapes(data, cols, x, b):
    _check(data, cols, x, b)


@pytest.mark.parametrize(
    "data, cols, call, position",
    [
        ([[1, 0, 0], [0, 1, 0]], 3, lambda m: m.kills((1, {5: 1})), 5),
        ([[1, 0, 0], [0, 1, 0]], 3, lambda m: m.kills((1, {3: 1})), 3),  # one past the last column
        ([[1, 0, 0], [0, 1, 0]], 3, lambda m: m.kills((2, {0: 0, -1: 1})), -1),
        ([[1, 0, 0], [0, 1, 0]], 3, lambda m: solve(m, (1, {7: 1})), 7),
        ([[1, 0, 0], [0, 1, 0]], 3, lambda m: solve(m, (1, {2: 1})), 2),  # m has 2 rows
        ([], 2, lambda m: m.kills((1, {2: 4})), 2),  # 0 x n
        ([[], []], 0, lambda m: m.kills((1, {0: 1})), 0),  # n x 0
        ([[], []], 0, lambda m: solve(m, (1, {0: 1, 2: 1})), 2),
    ],
    ids=["kills-far", "kills-one-past", "kills-negative", "solve-far", "solve-one-past", "kills-0-rows", "kills-0-cols", "solve-0-cols"],
)
def test_a_position_out_of_range_is_a_dim_mismatch(data, cols, call, position):
    """A vector position the matrix does not have is an input error that
    names the position: it is neither dropped (kills would say True, solve
    would claim that x = 0 solves m x = e_7) nor an IndexError."""
    m = Matrix._of([coordinate_row(row) for row in data], cols)
    with pytest.raises(DimMismatchError, match=f"position {position} "):
        call(m)


def test_positions_in_range_with_empty_columns_are_read_as_zero():
    m = Matrix([[1, 0, 0], [0, 1, 0]])
    assert m.kills((1, {2: 7})) and not m.kills((1, {0: 1, 2: 7}))
    assert solve(m, (3, {1: 2})) == (3, {1: 2})


def test_the_column_index_is_built_once_and_kept():
    """The index is built by the first product and reused by every later
    one, through kills, apply and solve alike; solve's E keeps its own.
    It is derived state: equality and the hash ignore it."""
    m = Matrix([[1, 0, 2], [0, 0, 0], [Fraction(1, 2), 3, 0]])
    twin = Matrix(m.data)
    assert m._by_column is None
    assert m.kills((1, {1: 1})) is False
    kept = m._by_column
    assert kept == {0: [(0, 1), (2, 1)], 1: [(2, 6)], 2: [(0, 2)]}
    assert m.apply([1, 1, 1]) == [3, 0, Fraction(7, 2)]
    assert m.kills((1, {})) and m._by_column is kept
    assert m == twin and hash(m) == hash(twin) and twin._by_column is None
    inverse = m._reduced()[1]
    assert inverse._by_column is None
    solve(m, (1, {0: 1}))
    index = inverse._by_column
    assert index is not None
    solve(m, [1, 0, 2])
    assert m._reduced()[1] is inverse and inverse._by_column is index and m._by_column is kept
    with pytest.raises(AttributeError):
        m._by_column = {}
