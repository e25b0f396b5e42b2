"""Acceptance suite: ten exact criteria, one test (and one verdict) each.

Every assertion is exact rational arithmetic -- no tolerances anywhere.
Randomized criteria use fixed seeds so the run is reproducible; the random
algebra corpus is drawn once per session.
"""

import random
import time

import pytest

from hlya.coboundary import (
    apply_operator,
    d2,
    delta1,
    delta2,
    delta3,
    verify_well_definedness,
)
from hlya.cochain import MAX_ARITY, build_cochain_space
from hlya.cohomology import cohomology_report, is_coboundary_2, is_cocycle_2
from hlya.deformation import (
    Deformation,
    apply_gauge,
    bracket_cochain,
    first_order_deformation,
    null_deformation,
    obstruction_pair,
    random_gauge,
    second_order_probe,
    solve_second_order,
    ternary_cochain,
    trivialize,
    verify_deformation,
    verify_equivalence,
)
from hlya.derivations import check_der_is_lie, derivation_space
from hlya.exactlin import ZERO, kernel_basis, rat, vstack
from hlya.samples import random_verified_algebras

from fraction_reference import dense
from draws import random_cocycle

RANDOM_ALGEBRA_SEED = 12345
RANDOM_ALGEBRA_COUNT = 20


@pytest.fixture(scope="session")
def random_corpus():
    return random_verified_algebras(RANDOM_ALGEBRA_SEED, RANDOM_ALGEBRA_COUNT)


def _z_basis_pairs(a):
    """Basis of Z2 x Z3 as cochain pairs."""
    z = kernel_basis(vstack(delta2(a).matrix, d2(a).matrix))
    c2 = build_cochain_space(a, 2)
    c3 = build_cochain_space(a, 3)
    pairs = []
    for j in range(z.dim):
        col = z.basis.column(j)
        pairs.append((c2.from_coords(col[: c2.dim]), c3.from_coords(col[c2.dim :])))
    return pairs


def test_criterion_01_composition_identities(bundled, random_corpus):
    started = time.monotonic()
    for a in bundled + random_corpus:
        first = delta1(a).matrix
        assert delta2(a).matrix.matmul(first).is_zero(), a.name
        assert d2(a).matrix.matmul(first).is_zero(), a.name
        assert delta3(a).matrix.matmul(delta2(a).matrix).is_zero(), a.name
    elapsed = time.monotonic() - started
    assert elapsed < 300
    print(
        f"criterion 01: composition identities exactly zero on "
        f"{len(bundled) + len(random_corpus)} algebras in {elapsed:.1f}s -- PASS"
    )


def test_criterion_02_well_definedness(bundled, twisted_algebras):
    # the twisted fixtures carry alpha with denominators, one not diagonal,
    # empty codomains (heisenberg_236) and dimension 4 (gl2, level 3 too)
    audited = 0
    algebras = bundled + twisted_algebras
    for a in algebras:
        for level in ("1", "2", "d2", "3"):
            audited += verify_well_definedness(a, level)
    print(
        f"criterion 02: full-tabulation audit clean on {audited} basis cochains "
        f"of {len(algebras)} algebras -- PASS"
    )


def test_criterion_03_h1_equals_der0(bundled, random_corpus):
    for a in bundled + random_corpus:
        assert cohomology_report(a).dims()["h1"] == derivation_space(a, 0).dim, a.name
    print("criterion 03: dim H1 = dim Der_0 on every bundled and random algebra -- PASS")


def test_criterion_04_derivation_closure(bundled):
    checked = 0
    for a in bundled:
        checked += check_der_is_lie(a, 3).checked_pairs
    print(f"criterion 04: derivation commutators closed, {checked} pairs checked -- PASS")


def test_criterion_05_infinitesimal_iff_cocycle(bundled):
    rng = random.Random(501)
    draws = 0
    for a in bundled:
        c2 = build_cochain_space(a, 2)
        c3 = build_cochain_space(a, 3)
        # the iff, sampled over the full coefficient space
        for _ in range(25):
            f1 = c2.from_coords([rat(rng.randint(-2, 2)) for _ in range(c2.dim)])
            g1 = c3.from_coords([rat(rng.randint(-2, 2)) for _ in range(c3.dim)])
            report = verify_deformation(first_order_deformation(a, f1, g1))
            assert report.ok_through(1) == is_cocycle_2(a, f1, g1), a.name
            draws += 1
        # the converse on the exact basis: every cocycle extends
        for f1, g1 in _z_basis_pairs(a):
            assert verify_deformation(first_order_deformation(a, f1, g1)).ok, a.name
            draws += 1
    assert draws >= 100
    print(
        f"criterion 05: n=1 equations hold iff the pair is a cocycle, "
        f"{draws} draws -- PASS"
    )


def test_criterion_06_equivalence_classes(bundled):
    rng = random.Random(601)
    pairs = 0
    while pairs < 50:
        for a in bundled:
            f1, g1 = random_cocycle(a, rng)
            d = first_order_deformation(a, f1, g1)
            p = random_gauge(a, 1, rng)
            d_prime = apply_gauge(d, p)
            diff = (
                d_prime.f_seq[1].sub(d.f_seq[1]),
                d_prime.g_seq[1].sub(d.g_seq[1]),
            )
            witness = is_coboundary_2(a, diff)
            assert witness is not None, a.name
            assert apply_operator(a, "1", witness) == diff, a.name
            pairs += 1
    print(
        f"criterion 06: gauge-shifted infinitesimals differ by verified "
        f"coboundaries, {pairs} pairs -- PASS"
    )


def test_criterion_07_rigidity_round_trip(bundled):
    rng = random.Random(701)
    for a in bundled:
        started = time.monotonic()
        null = null_deformation(a, 4)
        p = random_gauge(a, 4, rng)
        d = apply_gauge(null, p)
        result = trivialize(d)
        assert result.trivial, a.name
        assert verify_equivalence(d, null, result.gauge), a.name
        assert time.monotonic() - started < 120, a.name
    print("criterion 07: gauged null deformations trivialize back at N=4 -- PASS")


def test_criterion_08_obstruction_is_cocycle(bundled):
    rng = random.Random(801)
    draws = 0
    while draws < 100:
        for a in bundled:
            f1, g1 = random_cocycle(a, rng)
            assert obstruction_pair(a, f1, g1).in_z4z5, a.name
            draws += 1
    print(
        f"criterion 08: quadratic pair landed in Z4 x Z5 on all {draws} "
        f"cocycle draws -- PASS"
    )


def test_criterion_09_second_order_probe(bundled):
    rng = random.Random(901)
    probes = 0
    reported = {5: 0, 6: 0}
    for a in bundled:
        for _ in range(12):
            f1, g1 = random_cocycle(a, rng)
            solved = solve_second_order(a, f1, g1)
            if solved is None:
                continue  # probe preconditions unsatisfiable for this draw
            probe = second_order_probe(a, f1, g1, *solved)
            # the asserted part: 7' and 8' at n = 2
            assert probe.failures[7] is None, a.name
            assert probe.failures[8] is None, a.name
            # 5' and 6' are reported, never asserted
            for eq in (5, 6):
                if probe.failures[eq] is not None:
                    reported[eq] += 1
            probes += 1
    assert probes >= 20
    print(
        f"criterion 09: equations 7'/8' at n=2 held in all {probes} probes; "
        f"5' failed {reported[5]} times, 6' failed {reported[6]} times "
        f"(reported only) -- PASS"
    )


def _independent_constraint_dim(a, n):
    """Brute-force oracle: sparse row reduction of the full constraint
    system over all d^(n+1) tensor coordinates, coded from scratch."""
    import itertools

    d, alpha = a.dim, dense(a)[2]
    ncols = d ** (n + 1)
    acols = [
        [(i, alpha[i][j]) for i in range(d) if alpha[i][j]] for j in range(d)
    ]

    def pos(idx, k):
        base = 0
        for i in idx:
            base = base * d + i
        return base * d + k

    def reduce_rows(rows):
        pivots = {}
        for row in rows:
            r = dict(row)
            while r:
                c = min(r)
                if c not in pivots:
                    lead = r.pop(c)
                    pivots[c] = {cc: v / lead for cc, v in r.items()}
                    break
                piv = pivots[c]
                coef = r.pop(c)
                for cc, v in piv.items():
                    nv = r.get(cc, ZERO) - coef * v
                    if nv:
                        r[cc] = nv
                    else:
                        r.pop(cc, None)
        return len(pivots)

    rows = []
    for idx in itertools.product(range(d), repeat=n):
        for p in range(n // 2):
            swapped = list(idx)
            swapped[2 * p], swapped[2 * p + 1] = swapped[2 * p + 1], swapped[2 * p]
            swapped = tuple(swapped)
            if swapped < idx:
                continue
            for k in range(d):
                row = {}
                for t in (idx, swapped):
                    key = pos(t, k)
                    row[key] = row.get(key, ZERO) + 1
                rows.append(row)
        for k in range(d):
            row = {}
            for m, c in ((m, alpha[k][m]) for m in range(d) if alpha[k][m]):
                key = pos(idx, m)
                row[key] = row.get(key, ZERO) + c
            for combo in itertools.product(*(acols[i] for i in idx)):
                coef = rat(1)
                for _, c in combo:
                    coef *= c
                key = pos(tuple(j for j, _ in combo), k)
                nv = row.get(key, ZERO) - coef
                if nv:
                    row[key] = nv
                else:
                    row.pop(key, None)
            if row:
                rows.append(row)
    return ncols - reduce_rows(rows)


def test_criterion_10_dimension_oracles(bundled):
    checked = 0
    for a in bundled:
        for n in range(1, MAX_ARITY + 1):
            assert build_cochain_space(a, n).dim == _independent_constraint_dim(a, n), (
                a.name,
                n,
            )
            checked += 1
    # closed form for the untwisted algebras: pair slots contribute C(d,2)
    for a in bundled:
        alpha = dense(a)[2]
        if any(
            alpha[i][j] != (1 if i == j else 0)
            for i in range(a.dim)
            for j in range(a.dim)
        ):
            continue
        d = a.dim
        for n in range(1, MAX_ARITY + 1):
            p = n // 2
            assert (
                build_cochain_space(a, n).dim
                == d * d ** (n - 2 * p) * (d * (d - 1) // 2) ** p
            )
    print(
        f"criterion 10: solver dimensions match the brute-force constraint "
        f"oracle on {checked} spaces (plus closed forms) -- PASS"
    )
