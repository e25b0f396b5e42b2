"""The deformation system is the structure map of the identities.

Each of the eight identities is at most quadratic in the brackets, and
identities 1-4 say only that the brackets lie in C2 x C3.  So for every x
in C2 x C3, a cocycle or not, identities 5-8 at the brackets mu0 + x of
an algebra mu0 are M_T x + B(x, x) over the index T of mu0's deformation
system (``hlya.deformation._system``), and vanish off T: order 0 at
mu0 + x is read off the linear part, the t^1 coefficient, and the
quadratic part, the t^2 terms outer_1(inner_1), of mu0.  The algebra with
brackets mu0 + x is usually no Hom-Lie-Yamaguti algebra, so it is built
from its integer tables with ``Algebra`` alone, and its identities are
read by ``identity_values`` at every scan tuple.  Adding f twice breaks
the equality wherever T is not empty, so the check is not vacuous.
"""

import random
from fractions import Fraction

import pytest

from hlya import deformation
from hlya.algebra import (
    Algebra,
    _scan,
    alpha_table,
    brackets,
    first_failure,
    from_lya_standard,
    identity_values,
    table_sum,
    yau_twist,
)
from hlya.cohomology import is_cocycle_2
from hlya.exactlin import Matrix, rank, rat

from fraction_reference import pair_coords, pair_from_coords


def _heisenberg_1_0_0():
    """The untwisted Heisenberg algebra, [e1, e2] = e3, twisted by
    diag(1, 0, 0), under a name of its own: the default one is that of
    the bundled heisenberg_twisted."""
    z = [0, 0, 0]
    bracket = [[z, [0, 0, 1], z], [[0, 0, -1], z, z], [z, z, z]]
    beta = Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    return yau_twist(from_lya_standard(bracket), beta, name="heisenberg_1_0_0")


@pytest.fixture(scope="module")
def algebras(bundled, twisted_algebras):
    """The bundle, the sl2 twist diag(1, 3/2, 2/3) and Heisenberg by diag(1, 0, 0)."""
    assert twisted_algebras[0].name == "sl2_twist_3/2"
    return [*bundled, twisted_algebras[0], _heisenberg_1_0_0()]


def _draw(a, rng):
    """A pair (f, g) of C2 x C3 with coordinates in -3..3 that is no
    cocycle, unless every pair is one (M_T = 0, as on abelian2 and
    heisenberg_twisted)."""
    system = deformation._system(a)
    every_pair_closes = rank(system.matrix) == 0
    while True:
        coords = [rat(rng.randint(-3, 3)) for _ in range(system.matrix.cols)]
        f, g = pair_from_coords(a, coords)
        if every_pair_closes or not is_cocycle_2(a, f, g):
            return f, g


def _checked(a, f, g, copies):
    """(mismatches, nonzero predicted values): identities 5-8 at the
    brackets (mu0 + copies * f, mu0 + g), read at every scan tuple and
    output, against M_T x + B(x, x) at x = (f, g) over T and 0 off it."""
    system = deformation._system(a)
    den, x = deformation._pair_row(a, f, g)
    linear = system.matrix.apply(pair_coords(a, f, g))
    square = deformation._quadratic(system, ((x, x),))
    qden = system.den * den * den
    predicted = {
        position: linear[t] + Fraction(square.get(t, 0), qden) for t, position in enumerate(system.positions)
    }
    br, tr = brackets(a)
    b = Algebra(a.dim, table_sum([br, *[f.ints] * copies]), table_sum((tr, g.ints)), alpha_table(a, 1))
    assert all(first_failure(b, k) is None for k in (1, 2, 3, 4)), a.name  # mu0 + x lies in C2 x C3
    mismatches = nonzero = 0
    for k in (5, 6, 7, 8):
        values = identity_values(b, k)
        value = values.probe()
        for idx in _scan(a, k):
            got = value(idx)
            for j in range(a.dim):
                expected = predicted.get((k, idx, j), 0)
                mismatches += Fraction(got.get(j, 0), values.den) != expected
                nonzero += expected != 0
    return mismatches, nonzero


def test_identities_at_mu0_plus_x_are_the_structure_map(algebras):
    """For 3 random pairs x of C2 x C3 per algebra, no cocycles where
    M_T != 0, order 0 of identities 5-8 at mu0 + x equals M_T x + B(x, x)
    at every scan tuple and output, and vanishes off T.  Where T is not
    empty, that is on all but heisenberg_twisted, some predicted value is
    nonzero, and mu0 + (2f, g) breaks the equality."""
    rng = random.Random(2501)
    for a in algebras:
        empty = not deformation._system(a).positions
        assert empty == (a.name == "heisenberg_twisted"), a.name
        for _ in range(3):
            f, g = _draw(a, rng)
            mismatches, nonzero = _checked(a, f, g, 1)
            assert mismatches == 0, a.name
            if empty:
                continue
            assert nonzero > 0, a.name
            assert _checked(a, f, g, 2)[0] > 0, a.name
