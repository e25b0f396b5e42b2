"""Bundled example algebras and seeded random verified algebras.

The bundled four cover the interesting corners: abelian, solvable,
semisimple, and nilpotent-with-nontrivial-twist.  Random algebras are
drawn from families whose members provably (or by construction plus the
axiom checker) satisfy the defining identities; every algebra is verified
by the constructor that builds it, which raises on a failed identity.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from .algebra import (
    Algebra,
    algebra_from_sparse,
    from_lie_algebra,
    from_lya_standard,
    yau_twist,
)
from .errors import AxiomError, NotMorphismError
from .exactlin import Matrix


def _identity(d):
    return [[int(i == j) for j in range(d)] for i in range(d)]


@lru_cache(maxsize=None)
def abelian(dim: int = 2) -> Algebra:
    """E0: everything-zero algebra with alpha = id."""
    return algebra_from_sparse(dim, {}, {}, _identity(dim), name=f"abelian{dim}")


@lru_cache(maxsize=None)
def aff1() -> Algebra:
    """E1: the 2-dim non-abelian Lie algebra [e1,e2] = e1, standard ternary."""
    bracket = [[[0, 0], [1, 0]], [[-1, 0], [0, 0]]]
    return from_lya_standard(bracket, name="aff1")


@lru_cache(maxsize=None)
def sl2() -> Algebra:
    """E2: sl2 on basis (h, e, f), standard ternary {xyz} = [[x,y],z]."""
    z = [0, 0, 0]
    bracket = [
        [z, [0, 2, 0], [0, 0, -2]],
        [[0, -2, 0], z, [1, 0, 0]],
        [[0, 0, 2], [-1, 0, 0], z],
    ]
    return from_lya_standard(bracket, name="sl2")


@lru_cache(maxsize=None)
def heisenberg_twisted() -> Algebra:
    """E3: Heisenberg [e1,e2] = e3, zero ternary, alpha = diag(1, 2, 2)."""
    z = [0, 0, 0]
    bracket = [[z, [0, 0, 1], z], [[0, 0, -1], z, z], [z, z, z]]
    alpha = [[1, 0, 0], [0, 2, 0], [0, 0, 2]]
    return from_lie_algebra(bracket, alpha, name="heisenberg_twisted")


def bundled_algebras() -> list[Algebra]:
    return [abelian(), aff1(), sl2(), heisenberg_twisted()]


# --- random families ------------------------------------------------------


def _rand_rat(rng: random.Random, nonzero=False) -> Fraction:
    while True:
        num = rng.randint(-3, 3)
        if nonzero and num == 0:
            continue
        return Fraction(num, rng.randint(1, 3))


def _random_d2_lya(rng: random.Random) -> Algebra:
    # Any antisymmetric bracket on dim 2 satisfies Jacobi.
    vec = [_rand_rat(rng), _rand_rat(rng)]
    bracket = [[[0, 0], vec], [[-vec[0], -vec[1]], [0, 0]]]
    return from_lya_standard(bracket, name="rand_d2_lya")


def _random_d2_homlie(rng: random.Random) -> Algebra:
    # Bracket [e1,e2] = c*e1 with alpha = diag(s, t) and s != 0: the
    # multiplicativity constraint alpha[e1,e2] = [alpha e1, alpha e2]
    # forces t = 1 when c != 0.
    c = _rand_rat(rng, nonzero=True)
    s = _rand_rat(rng, nonzero=True)
    bracket = [[[0, 0], [c, 0]], [[-c, 0], [0, 0]]]
    return from_lie_algebra(bracket, [[s, 0], [0, 1]], name="rand_d2_homlie")


def _random_d3_heisenberg(rng: random.Random) -> Algebra:
    # [e1,e2] = c*e3 with alpha = diag(p, q, pq).
    c = _rand_rat(rng, nonzero=True)
    p = _rand_rat(rng, nonzero=True)
    q = _rand_rat(rng, nonzero=True)
    z = [0, 0, 0]
    bracket = [[z, [0, 0, c], z], [[0, 0, -c], z, z], [z, z, z]]
    alpha = [[p, 0, 0], [0, q, 0], [0, 0, p * q]]
    return from_lie_algebra(bracket, alpha, name="rand_d3_heisenberg")


def _random_sl2_twist(rng: random.Random) -> Algebra:
    # diag(1, s, 1/s) is an automorphism of sl2 on the (h, e, f) basis.
    s = _rand_rat(rng, nonzero=True)
    beta = Matrix([[1, 0, 0], [0, s, 0], [0, 0, Fraction(1) / s]])
    return yau_twist(sl2(), beta, name="rand_sl2_twist")


def _random_aff1_twist(rng: random.Random) -> Algebra:
    # diag(p, 1) is an endomorphism of aff(1).
    p = _rand_rat(rng, nonzero=True)
    return yau_twist(aff1(), Matrix([[p, 0], [0, 1]]), name="rand_aff1_twist")


_FAMILIES = (
    _random_d2_lya,
    _random_d2_homlie,
    _random_d2_lya,
    _random_aff1_twist,
    _random_d2_homlie,
    _random_d3_heisenberg,
    _random_sl2_twist,
)


def random_verified_algebra(rng: random.Random) -> Algebra:
    """Draw one verified algebra; keeps sampling until a constructor accepts one."""
    while True:
        fam = rng.choice(_FAMILIES)
        try:
            return fam(rng)
        except (AxiomError, NotMorphismError):
            continue


def random_verified_algebras(seed: int, count: int) -> list[Algebra]:
    rng = random.Random(seed)
    return [random_verified_algebra(rng) for _ in range(count)]
