"""Integer coordinate rows against the Fraction computations they replaced.

A cochain space records a cochain's coordinates as the canonical integer
row (den, {basis index: nonzero numerator}), and the cocycle tests,
``solve`` and the second-order step read those rows with no Fraction.
Each is checked here against the Fraction path it replaced: the rows
against :func:`fraction_reference.fraction_read` made canonical, ``solve``
on integer rows against a solve on ``fraction_eliminate``, and the
cocycle and Z4 x Z5 verdicts against ``not any(m.apply(coords))`` on the
Fraction coordinates.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hlya.algebra import IntTable, yau_twist
from hlya.coboundary import d2, delta1, delta2, delta3
from hlya.cochain import Cochain, build_cochain_space
from hlya.cohomology import is_coboundary_2, is_cocycle_2
from hlya.deformation import obstruction_pair, solve_second_order
from hlya.errors import DimMismatchError, PreconditionError
from hlya.exactlin import Matrix, kernel_basis, solve, vstack
from hlya.samples import bundled_algebras, sl2

from fraction_reference import coordinate_row, fraction_read, fraction_solve, pair_coords, pair_from_coords

ALGEBRAS = [
    *bundled_algebras(),
    yau_twist(sl2(), Matrix([[1, 0, 0], [0, Fraction(3, 2), 0], [0, 0, Fraction(2, 3)]]), name="sl2_twist_3/2"),
]

_rational = st.one_of(st.just(0), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)))


def _canonical(row):
    den, vec = row
    return den > 0 and all(vec.values()) and gcd(den, *vec.values()) == 1


@seed(3901)
@given(st.sampled_from(ALGEBRAS), st.integers(1, 5), st.data())
@settings(max_examples=80, deadline=None)
def test_recorded_rows_are_the_fraction_readers_coordinates(a, arity, data):
    """Built from coordinates, from a table of values, from a whole
    integer table or from representative values, a cochain carries the
    canonical integer row of the coordinates the Fraction reader reads off
    its values; ``coords`` is that row's Fraction view."""
    space = build_cochain_space(a, arity)
    coords = data.draw(st.lists(_rational, min_size=space.dim, max_size=space.dim))
    c = space.from_coords(coords)
    table = dict(c.table)
    reference = fraction_read(space, table)
    assert reference == coords
    expected = coordinate_row(reference)
    assert _canonical(expected)
    fresh = Cochain(arity, a.dim, table)
    assert fresh._recorded(space) is None
    assert space.row(fresh) == expected and fresh._recorded(space) == expected
    assert space.coords(fresh) == reference
    reps = {idx: vec for idx in space.rep_tuples if (vec := c.ints.entries.get(idx))}
    scaled = IntTable(5 * c.ints.den, {idx: {k: 5 * x for k, x in vec.items()} for idx, vec in c.ints.entries.items()})
    built = [c, space.from_table(scaled), space.from_rep_values(IntTable(c.ints.den, reps))]
    for twin in built:
        assert twin == fresh and twin._recorded(space) == expected
        assert space.coords(twin) == reference


def _system(draw_rows, draw_cols):
    return st.integers(0, draw_rows).flatmap(
        lambda rows: st.integers(0, draw_cols).flatmap(
            lambda cols: st.tuples(
                st.lists(st.lists(_rational, min_size=cols, max_size=cols), min_size=rows, max_size=rows),
                st.just(cols),
                st.lists(_rational, min_size=rows, max_size=rows),
                st.lists(_rational, min_size=cols, max_size=cols),
            )
        )
    )


def _check_solve(m, b):
    """solve on b's integer row, and on b itself, against fraction_solve."""
    expected = fraction_solve(m, b)
    got = solve(m, coordinate_row(b))
    if expected is None:
        assert got is None and solve(m, b) is None
    else:
        assert _canonical(got) and got == coordinate_row(expected)
        assert solve(m, b) == expected
    return expected


@seed(3902)
@given(_system(6, 6))
@settings(max_examples=200, deadline=None)
def test_solve_on_integer_rows_matches_the_fraction_elimination(system):
    """Random right-hand sides, mostly outside the image, and ones from
    the image (m x for a drawn x), which must be solved."""
    data, cols, b, x = system
    m = Matrix._of([coordinate_row(row) for row in data], cols)
    _check_solve(m, b)
    assert _check_solve(m, m.apply(x)) is not None


@pytest.mark.parametrize(
    "data, cols, b, solvable",
    [
        ([[1, 2], [3, 4], [0, 0]], 2, [0, 0, 0], True),  # the zero vector
        ([[0, 0, 0], [0, 0, 0]], 3, [0, 0], True),  # rank 0, zero right-hand side
        ([[0, 0, 0], [0, 0, 0]], 3, [0, Fraction(1, 2)], False),  # rank 0
        ([[1, 1], [2, 2]], 2, [1, 3], False),  # inconsistent
        ([[Fraction(1, 2), 0], [0, Fraction(2, 3)]], 2, [Fraction(1, 3), 5], True),
        ([], 3, [], True),  # no rows
        ([[], []], 0, [0, 0], True),  # no columns
        ([[], []], 0, [0, 1], False),
    ],
    ids=["zero-vector", "rank-0", "rank-0-inconsistent", "inconsistent", "denominators", "0-row", "0-col", "0-col-inconsistent"],
)
def test_solve_edge_cases_on_integer_rows(data, cols, b, solvable):
    m = Matrix._of([coordinate_row(row) for row in data], cols)
    assert (_check_solve(m, b) is not None) == solvable


def _pair_draws(a, data):
    """A drawn pair in C2 x C3: a combination of the Z2 x Z3 basis, or
    random coordinates, so the cocycle verdict is drawn both ways."""
    c2, c3 = build_cochain_space(a, 2), build_cochain_space(a, 3)
    if data.draw(st.booleans()):
        z = kernel_basis(vstack(delta2(a).matrix, d2(a).matrix)).basis
        coeffs = data.draw(st.lists(_rational, min_size=z.cols, max_size=z.cols))
        return [sum((c * x for c, x in zip(coeffs, row)), Fraction(0)) for row in z.data]
    return data.draw(st.lists(_rational, min_size=c2.dim + c3.dim, max_size=c2.dim + c3.dim))


@seed(3903)
@given(st.sampled_from(ALGEBRAS), st.data())
@settings(max_examples=60, deadline=None)
def test_cocycle_verdicts_match_the_fraction_product(a, data):
    """is_cocycle_2 and is_coboundary_2 read the pair's integer row; the
    Fraction product of its coordinates and a Fraction solve decide the
    same."""
    coords = _pair_draws(a, data)
    f, g = pair_from_coords(a, coords)
    fraction = pair_coords(a, f, g)
    closed = not any(delta2(a).matrix.apply(fraction)) and not any(d2(a).matrix.apply(fraction))
    assert is_cocycle_2(a, f, g) == closed
    expected = fraction_solve(delta1(a).matrix, fraction)
    h = is_coboundary_2(a, (f, g))
    if expected is None:
        assert h is None
    else:
        assert build_cochain_space(a, 1).coords(h) == expected


@seed(3904)
@given(st.sampled_from(ALGEBRAS), st.data())
@settings(max_examples=40, deadline=None)
def test_second_order_verdicts_match_the_fraction_product(a, data):
    """On a cocycle pair, the Z4 x Z5 verdict is the Fraction product of
    (F, G)'s coordinates with delta3, and the second-order solution is a
    Fraction solve against delta2; on drawn C4 x C5 vectors, in the kernel
    or not, the integer kernel test agrees with the Fraction product."""
    z = kernel_basis(vstack(delta2(a).matrix, d2(a).matrix)).basis
    coeffs = data.draw(st.lists(_rational, min_size=z.cols, max_size=z.cols))
    f1, g1 = pair_from_coords(a, [sum((c * x for c, x in zip(coeffs, row)), Fraction(0)) for row in z.data])
    pair = obstruction_pair(a, f1, g1)
    c4, c5 = delta2(a).codomain
    fraction = c4.coords(pair.first) + c5.coords(pair.second)
    m3 = delta3(a).matrix
    assert pair.in_z4z5 == (not any(m3.apply(fraction)))
    expected = fraction_solve(delta2(a).matrix, fraction)
    solved = solve_second_order(a, f1, g1)
    if expected is None:
        assert solved is None
    else:
        assert pair_coords(a, *solved) == expected
    drawn = data.draw(st.lists(_rational, min_size=m3.cols, max_size=m3.cols))
    for vec in (drawn, fraction, [x + y for x, y in zip(drawn, fraction)]):
        assert m3.kills(coordinate_row(vec)) == (not any(m3.apply(vec)))


_C2 = build_cochain_space(sl2(), 2)


@pytest.mark.parametrize(
    "row, error, match",
    [
        ((1, {-1: 1}), DimMismatchError, "position -1 "),  # would read the last basis cochain
        ((1, {_C2.dim: 1}), DimMismatchError, f"position {_C2.dim} "),  # was a bare IndexError
        ((1, {0: 1, _C2.dim + 5: 2}), DimMismatchError, f"position {_C2.dim + 5} "),
        ((0, {0: 1}), PreconditionError, "denominator"),  # its table would divide by zero
        ((-2, {0: 1}), PreconditionError, "denominator"),  # would equal (2, {0: -1}) unequally
        ((Fraction(2), {0: 1}), PreconditionError, "denominator"),
        ((True, {0: 1}), PreconditionError, "denominator"),
    ],
    ids=["negative-position", "position-dim", "position-far", "zero-den", "negative-den", "fraction-den", "bool-den"],
)
def test_from_row_rejects_a_malformed_row(row, error, match):
    """A row with a denominator that is not a positive int, or a position
    outside 0..dim-1, is an input error, never a cochain."""
    with pytest.raises(error, match=match):
        _C2.from_row(row)


def test_from_row_takes_a_well_formed_row_in_lowest_terms():
    c = _C2.from_row((4, {0: -2}))
    assert c == _C2.from_coords([Fraction(-1, 2)] + [0] * (_C2.dim - 1))
    assert _C2.row(c) == (2, {0: -1})


@pytest.mark.parametrize("den", [0, -2, Fraction(1), True, 1.0])
def test_solve_contains_and_kills_reject_a_row_whose_denominator_is_not_a_positive_int(den):
    """solve used to return (0, {0: 1}) for the row (0, {0: 1}), contains
    to answer True for it, kills to say that it is in the kernel of a
    matrix that kills e_0, and a negative denominator came back from solve
    non-canonical."""
    m = Matrix([[1, 0], [0, 1]])
    with pytest.raises(PreconditionError, match="denominator"):
        solve(m, (den, {0: 1}))
    with pytest.raises(PreconditionError, match="denominator"):
        kernel_basis(Matrix([[0, 0]])).contains((den, {0: 1}))
    with pytest.raises(PreconditionError, match="denominator"):
        Matrix([[0, 1]]).kills((den, {0: 1}))
    assert solve(m, (2, {0: -1})) == (2, {0: -1})
    assert Matrix([[0, 1]]).kills((3, {0: -1})) and not m.kills((3, {0: -1}))
