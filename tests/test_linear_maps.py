"""A linear map has one integer form.

A d x d map is a :class:`Matrix` or a table of arity 1, entry (j,) its
column j, and ``map_table`` and ``table_map`` are the one pair of
converters between the two; a flattened map is the integer row of
``Matrix.flat_row``, read back by ``unflatten``; and ``convolve`` is the
one kernel that composes maps into a table's arguments.  The converters
build no Fraction view of a matrix, and each is checked against a
Fraction statement of what it computes.
"""

import itertools
import random
from fractions import Fraction

import pytest

from hlya.algebra import _canonical, alpha_table, brackets, convolve, is_endomorphism, map_table, table_map, yau_twist
from hlya.cochain import build_cochain_space, cochain_to_matrix, matrix_to_cochain
from hlya.errors import ArityError, DimMismatchError, PreconditionError
from hlya.exactlin import Matrix, unflatten
from hlya.samples import aff1, random_verified_algebras, sl2

from fraction_reference import FractionOps

_VALUES = (0, 0, 0, 1, -1, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6))


@pytest.fixture(scope="module")
def corpus():
    return random_verified_algebras(12345, 20)


def _random_matrices(rng, d, count):
    """Random d x d matrices with fractional entries, some with a zero row
    and a zero column."""
    out = []
    for n in range(count):
        rows = [[rng.choice(_VALUES) for _ in range(d)] for _ in range(d)]
        if n % 2:
            i, j = rng.randrange(d), rng.randrange(d)
            rows[i] = [0] * d
            for row in rows:
                row[j] = 0
        out.append(Matrix(rows))
    return [Matrix.zeros(d, d), Matrix.identity(d), *out]


def test_map_table_and_table_map_are_inverse():
    rng = random.Random(47)
    for d in (1, 2, 3, 4):
        for m in _random_matrices(rng, d, 12):
            t = map_table(m)
            canonical = _canonical(t)
            assert (t.den, t.entries) == (canonical.den, canonical.entries)
            for j in range(d):
                column = t.entries.get((j,), {})
                assert [Fraction(column.get(i, 0), t.den) for i in range(d)] == m.column(j)
            assert table_map(t, d) == m
            assert unflatten(m.flat_row(), d) == m


def test_matrix_to_cochain_and_back_is_the_identity(bundled, twisted_algebras, corpus):
    rng = random.Random(48)
    for a in [*bundled, *twisted_algebras, *corpus]:
        space = build_cochain_space(a, 1)
        for m in _random_matrices(rng, a.dim, 4):
            h = matrix_to_cochain(a, m)
            assert cochain_to_matrix(a, h) == m, a.name
            assert h.ints.entries == map_table(m).entries
        for h in space.basis_cochains:
            assert matrix_to_cochain(a, cochain_to_matrix(a, h)) == h, a.name


def test_the_converters_build_no_fraction_view():
    a = sl2()
    c = Fraction(1, 7)
    unipotent = Matrix([[1, 0, c], [-2 * c, 1, -c * c], [0, 0, 1]])
    beta = Matrix([[1, 0, 0], [0, Fraction(11, 7), 0], [0, 0, Fraction(7, 11)]]).matmul(unipotent)
    assert beta._view is None
    assert is_endomorphism(a, beta)
    assert beta._view is None
    twisted = yau_twist(a, beta)
    assert beta._view is None
    assert map_table(beta).entries == alpha_table(twisted, 1).entries
    m = Matrix([[0, Fraction(1, 2), 0], [0, 0, 0], [3, 0, -1]]).scale(2)
    matrix_to_cochain(a, m)
    assert m._view is None


def _reference_twist(a, arity, k, slot):
    """The bracket of arity 2 or 3 with alpha^k applied to the argument at
    ``slot``, at every basis tuple, as {tuple: dense Fraction vector} of its
    nonzero values, evaluated on sparse Fraction vectors."""
    ops = FractionOps(a)
    bracket = ops.br if arity == 2 else ops.tr
    out = {}
    for idx in itertools.product(range(a.dim), repeat=arity):
        args = [ops.A[k][i] if s == slot else ops.e[i] for s, i in enumerate(idx)]
        value = bracket(*args)
        if value:
            out[idx] = tuple(value.get(i, Fraction(0)) for i in range(a.dim))
    return out


def _sum(d, *values):
    """The sum of {tuple: dense vector} maps, zero values dropped."""
    out = {}
    for value in values:
        for idx, vec in value.items():
            out[idx] = tuple(x + y for x, y in zip(out.get(idx, (0,) * d), vec))
    return {idx: vec for idx, vec in out.items() if any(vec)}


def test_the_composition_kernel_is_the_fraction_evaluation(bundled, twisted_algebras, corpus):
    """Each alpha^k composed into each slot of each bracket, one table and
    one map; and as series, (t, t, t) with (alpha, alpha^2, id) composed
    in is (t alpha, t alpha^2 + t alpha, t + t alpha^2 + t alpha)."""
    for a in [*bundled, *twisted_algebras, *corpus[:8]]:
        d = a.dim
        for arity, t in zip((2, 3), brackets(a)):
            for slot in range(arity):
                e0, e1, e2 = (_reference_twist(a, arity, k, slot) for k in range(3))
                for k, expected in enumerate((e0, e1, e2)):
                    [[moved]] = convolve([[t]], [alpha_table(a, k)], slot)
                    assert moved.fractions(d) == expected, (a.name, arity, slot, k)
                maps = [alpha_table(a, 1), alpha_table(a, 2), alpha_table(a, 0)]
                [series] = convolve([[t, t, t]], maps, slot)
                expected = [e1, _sum(d, e2, e1), _sum(d, e0, e2, e1)]
                assert [m.fractions(d) for m in series] == expected, (a.name, arity, slot)


@pytest.mark.parametrize(
    "m, error, message",
    [
        (Matrix([[1], [2]]), DimMismatchError, "dim x dim"),  # was read with a zero second column
        (Matrix([[1, 0, 5], [0, 1, 7]]), DimMismatchError, "dim x dim"),  # lost its third column
        ([[1, 0], [0, 1]], PreconditionError, "must be a Matrix, got list"),  # was an AttributeError
    ],
    ids=["2x1", "2x3", "list"],
)
def test_matrix_to_cochain_rejects_what_is_no_map_of_the_algebra(m, error, message):
    with pytest.raises(error, match=message):
        matrix_to_cochain(aff1(), m)


@pytest.mark.parametrize(
    "h, error, message",
    [
        (lambda: build_cochain_space(sl2(), 2).basis_cochains[0], ArityError, "arity 2"),  # was the zero matrix
        (lambda: build_cochain_space(aff1(), 1).basis_cochains[0], DimMismatchError, "dimension 2, expected 3"),
        (lambda: [[1, 0, 0], [0, 1, 0], [0, 0, 1]], PreconditionError, "must be a Cochain, got list"),
    ],
    ids=["2-cochain", "aff1-cochain", "list"],
)
def test_cochain_to_matrix_rejects_what_is_no_1_cochain_of_the_algebra(h, error, message):
    # the aff1 cochain was a ShapeMismatchError, a theorem violation, and the
    # list an AttributeError
    with pytest.raises(error, match=message):
        cochain_to_matrix(sl2(), h())
