import os
from fractions import Fraction

import pytest

from hlya import serialize
from hlya.algebra import from_lie_algebra, yau_twist
from hlya.exactlin import Matrix
from hlya.samples import abelian, aff1, heisenberg_twisted, sl2

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


@pytest.fixture(scope="session")
def e0():
    return abelian()


@pytest.fixture(scope="session")
def e1():
    return aff1()


@pytest.fixture(scope="session")
def e2():
    return sl2()


@pytest.fixture(scope="session")
def e3():
    return heisenberg_twisted()


@pytest.fixture(scope="session")
def bundled(e0, e1, e2, e3):
    return [e0, e1, e2, e3]


def _sl2_twist(beta, name):
    return yau_twist(sl2(), Matrix(beta), name=name)


def _sevenths_elevenths():
    # diag(1, 11/7, 7/11) after exp(ad(e/7)): both are automorphisms of sl2
    c = Fraction(1, 7)
    unipotent = Matrix([[1, 0, c], [-2 * c, 1, -c * c], [0, 0, 1]])
    diagonal = Matrix([[1, 0, 0], [0, Fraction(11, 7), 0], [0, 0, Fraction(7, 11)]])
    return _sl2_twist(diagonal.matmul(unipotent).data, "sl2_twist_7_11")


def _heisenberg_236():
    z = [0, 0, 0]
    bracket = [[z, [0, 0, 1], z], [[0, 0, -1], z, z], [z, z, z]]
    return from_lie_algebra(bracket, [[2, 0, 0], [0, 3, 0], [0, 0, 6]], name="heisenberg_236")


@pytest.fixture(scope="session")
def twisted_algebras():
    """Dimension 3 algebras with twist denominators, then gl2 (dimension 4):
    the sl2 twists diag(1, 3/2, 2/3) and 7/11, Heisenberg diag(2, 3, 6)."""
    half = Fraction(3, 2)
    return [
        _sl2_twist([[1, 0, 0], [0, half, 0], [0, 0, 1 / half]], "sl2_twist_3/2"),
        _sevenths_elevenths(),
        _heisenberg_236(),
        serialize.load_algebra(os.path.join(DATA, "e4_gl2.json")),
    ]
