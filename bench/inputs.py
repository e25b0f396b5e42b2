"""Seeded inputs of the three workloads.  The same seed gives the same inputs.

Needs ``src`` on ``sys.path``.  Package functions are called through their
module, so that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hlya import cochain
from hlya.algebra import from_lya_standard, yau_twist
from hlya.exactlin import Matrix
from hlya.samples import random_verified_algebra, sl2

# The random corpus of the cli workload: (family name, cochain-space
# dimensions for n = 1..7) -> number of distinct algebras drawn for it, so
# every seed yields the same mix of costs.  Each family's most common
# signature is used; rarer ones (under 5% of draws, such as the sl2 twist
# with s = -1, which costs twice a generic one) would make the number of
# draws, and so the set-up time, depend strongly on the seed.  The stratum
# ("rand_d3_heisenberg", (3, 1, 0, 0, 0, 0, 0)) must stay out in any case:
# `hlya cohomology` fails on it (when both codomain blocks of [delta2; d2]
# are 0-dimensional, the stacked matrix loses its column count and
# `quotient_dim` raises DimMismatchError).
CORPUS_STRATA = {
    ("rand_d2_lya", (4, 2, 4, 2, 4, 2, 4)): 3,
    ("rand_d2_homlie", (2, 1, 1, 0, 0, 0, 0)): 3,
    ("rand_aff1_twist", (2, 1, 1, 0, 0, 0, 0)): 2,
    ("rand_sl2_twist", (3, 3, 7, 7, 19, 19, 51)): 2,
    ("rand_d3_heisenberg", (5, 4, 4, 0, 0, 0, 0)): 1,
}
# Drawing goes on to at least this many draws, so that its cost hardly
# depends on the seed; quotas are usually full by then.
MIN_DRAWS = 40
MAX_DRAWS = 1000

ROUND_TRIPS_PER_ALGEBRA = 1
DRAWS_PER_ALGEBRA = 9
GAUGE_ORDER = 4
AUDIT_ROUNDS = 6


def signature(a) -> tuple:
    return tuple(cochain.build_cochain_space(a, n).dim for n in range(1, cochain.MAX_ARITY + 1))


def corpus(seed: int) -> list:
    """Distinct random verified algebras filling every stratum's quota."""
    rng = random.Random(seed)
    quota = dict(CORPUS_STRATA)
    families = {name for name, _ in quota}
    chosen: dict = {key: [] for key in quota}
    for draws in range(MAX_DRAWS):
        if draws >= MIN_DRAWS and not any(quota.values()):
            return [a for key in CORPUS_STRATA for a in chosen[key]]
        a = random_verified_algebra(rng)
        if a.name not in families:
            continue
        key = (a.name, signature(a))
        if quota.get(key) and a not in chosen[key]:
            chosen[key].append(a)
            quota[key] -= 1
            if not any(q for (name, _), q in quota.items() if name == a.name):
                families.discard(a.name)
    raise RuntimeError(f"corpus quotas not filled after {MAX_DRAWS} draws: {quota}")


def gl2():
    """gl2 = sl2 + a central element, as a standard Lie-Yamaguti algebra."""
    bracket = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for i, j, value in ((0, 1, [0, 2, 0, 0]), (0, 2, [0, 0, -2, 0]), (1, 2, [1, 0, 0, 0])):
        bracket[i][j] = value
        bracket[j][i] = [-x for x in value]
    return from_lya_standard(bracket, name="gl2")


def sl2_twist():
    """The generic sl2 twist of the deformation and audit workloads.

    Fixed rather than seeded: the time of the level-3 audit on it moves by
    +-15% with s, which would swamp the audit workload's bounds.
    """
    s = Fraction(3, 2)
    beta = Matrix([[1, 0, 0], [0, s, 0], [0, 0, 1 / s]])
    return yau_twist(sl2(), beta, name="sl2_twist_3/2")


def deformation_tasks(seed: int, algebras: list) -> list:
    """(kind, algebra, task seed) for one pass of the deformation workload."""
    rng = random.Random(seed)
    kinds = ["round_trip"] * ROUND_TRIPS_PER_ALGEBRA + ["cocycle_draw"] * DRAWS_PER_ALGEBRA
    return [(kind, a, rng.getrandbits(32)) for a in algebras for kind in kinds]


def audit_tasks(bundled: list, twist) -> list:
    """(algebra, level) for one pass of the audit workload.

    Levels 1, 2 and d2 run on the bundled algebras and level 3 on the dim-2
    ones, ``AUDIT_ROUNDS`` times each; level 3 on the sl2 twist (about 12 s)
    runs once.  Level 3 on sl2 (over a minute) is left out.  The rounds give
    the op-time percentiles enough samples.  The inputs and their order are fixed: the
    first op to touch a codomain space builds its lazy tables, so a seeded
    order would move op times.
    """
    light = [(a, level) for a in bundled for level in ("1", "2", "d2")]
    light += [(a, "3") for a in bundled if a.dim == 2]
    return light * AUDIT_ROUNDS + [(twist, "3")]
