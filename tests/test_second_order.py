"""The second-order trio against the implementation it replaced.

``obstruction_pair``, ``solve_second_order`` and ``second_order_probe``
share one second-order step per pair (f1, g1): the Z2 x Z3 check and one
evaluation of the obstruction pair, kept in a one-entry slot of the
algebra's memo until a call on another pair.  The probe reads its
precondition, delta2(f2, g2) = (F, G), from equations 7' and 8'
themselves.  The former trio, in which each function checked the pair and
recomputed the obstruction and the probe compared delta2 of its candidate
with it, is kept below as the oracle.  Every cocycle draw on the bundled algebras, the sl2 twist and
the seed-12345 corpus must give the same outcome (the returned value, or
the error type and message) on five candidates: zero, a random cochain
pair, the solution, its negative, and the solution plus an element of
ker delta2.
"""

import random
from collections import Counter

import pytest

from hlya import algebra, deformation
from hlya.algebra import IDENTITIES, bracket_series, make_algebra, first_failure, identity_values
from hlya.coboundary import apply_operator, d2, delta2, delta3
from hlya.cochain import Cochain, build_cochain_space
from hlya.cohomology import is_cocycle_2, pair_coords, pair_from_coords
from hlya.deformation import (
    ObstructionPair,
    ProbeReport,
    obstruction_pair,
    second_order_probe,
    solve_second_order,
)
from hlya.errors import HlyaError, NotInZ2Z3Error, PreconditionError
from hlya.exactlin import kernel_basis, rat, solve, vstack
from hlya.samples import random_verified_algebras

from fraction_reference import divided
from tabulated import tabulate


def reference_obstruction_pair(a, f1, g1):
    if not is_cocycle_2(a, f1, g1):
        raise NotInZ2Z3Error("(f1, g1) must be a 2-/3-cocycle pair")
    fs, gs = bracket_series(a, (f1,), (g1,))
    tables = []
    for k in (7, 8):
        coefficient = identity_values(a, k, 2, fs, gs)
        tables.append(tabulate(a, IDENTITIES[k][0], divided(coefficient.probe(), -coefficient.den)))
    f_table, g_table = tables
    big_f, big_g = Cochain(4, a.dim, f_table), Cochain(5, a.dim, g_table)
    coords_f, coords_g = build_cochain_space(a, 4).coords(big_f), build_cochain_space(a, 5).coords(big_g)
    image = delta3(a).matrix.apply(coords_f + coords_g)
    return ObstructionPair(big_f, big_g, not any(image))


def reference_probe(a, f1, g1, f2, g2):
    obstruction = reference_obstruction_pair(a, f1, g1)
    d2f, d2g = apply_operator(a, "2", f2, g2)
    if d2f != obstruction.first or d2g != obstruction.second:
        raise PreconditionError(
            "(f2, g2) does not solve the second-order extension equation: "
            "delta2(f2, g2) must equal the obstruction pair"
        )
    fs, gs = bracket_series(a, (f1, f2), (g1, g2))
    return ProbeReport({eq: first_failure(a, eq, 2, fs, gs) for eq in (5, 6, 7, 8)})


def reference_solve_second_order(a, f1, g1):
    obstruction = reference_obstruction_pair(a, f1, g1)
    c4 = build_cochain_space(a, 4)
    c5 = build_cochain_space(a, 5)
    rhs = c4.coords(obstruction.first) + c5.coords(obstruction.second)
    sol = solve(delta2(a).matrix, rhs)
    if sol is None:
        return None
    c2 = build_cochain_space(a, 2)
    c3 = build_cochain_space(a, 3)
    return c2.from_coords(sol[: c2.dim]), c3.from_coords(sol[c2.dim :])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except HlyaError as exc:
        return type(exc), str(exc)


def _combination(basis, rng):
    coeffs = [rat(rng.randint(-2, 2)) for _ in range(basis.cols)]
    return [sum(c * x for c, x in zip(coeffs, row)) for row in basis.data]


def _candidates(a, f1, g1, rng):
    c2, c3 = build_cochain_space(a, 2), build_cochain_space(a, 3)
    out = [
        (Cochain.zero(2, a.dim), Cochain.zero(3, a.dim)),
        pair_from_coords(a, [rat(rng.randint(-2, 2)) for _ in range(c2.dim + c3.dim)]),
    ]
    solved = reference_solve_second_order(a, f1, g1)
    if solved is not None:
        f2, g2 = solved
        shift = _combination(kernel_basis(delta2(a).matrix).basis, rng)
        shifted = [x + y for x, y in zip(pair_coords(a, f2, g2), shift)]
        out += [solved, (f2.scale(rat(-1)), g2.scale(rat(-1))), pair_from_coords(a, shifted)]
    return out


@pytest.fixture(scope="module")
def draws(bundled, twisted_algebras):
    rng = random.Random(9001)
    algebras = [*bundled, twisted_algebras[0]]
    out = []
    for a in algebras:
        z = kernel_basis(vstack(delta2(a).matrix, d2(a).matrix)).basis
        out.extend((a, *pair_from_coords(a, _combination(z, rng))) for _ in range(3))
    for a in random_verified_algebras(12345, 20):
        z = kernel_basis(vstack(delta2(a).matrix, d2(a).matrix)).basis
        out.append((a, *pair_from_coords(a, _combination(z, rng))))
    return out


def test_trio_matches_the_former_trio(draws):
    rng = random.Random(9002)
    probes = Counter()
    for a, f1, g1 in draws:
        assert _outcome(obstruction_pair, a, f1, g1) == _outcome(reference_obstruction_pair, a, f1, g1)
        assert _outcome(solve_second_order, a, f1, g1) == _outcome(reference_solve_second_order, a, f1, g1)
        for f2, g2 in _candidates(a, f1, g1, rng):
            got = _outcome(second_order_probe, a, f1, g1, f2, g2)
            assert got == _outcome(reference_probe, a, f1, g1, f2, g2), a.name
            probes[isinstance(got, ProbeReport)] += 1
    # both branches of the precondition were compared
    assert probes[True] >= 20 and probes[False] >= 20, probes


def _draw(a, rng):
    z = kernel_basis(vstack(delta2(a).matrix, d2(a).matrix)).basis
    return pair_from_coords(a, _combination(z, rng))


def test_each_entry_point_evaluates_the_obstruction_once(monkeypatch, e2):
    """One draw checks the pair against Z2 x Z3 once, evaluates the t^2
    coefficient of 7/8 without f2 once for all three entry points, and
    applies delta3 once.  The probe reads 7' and 8' as L(f2, g2) - (F, G)
    and builds no contraction for them; for 5' and 6' it builds the
    quadratic part Q(1, 1) once each, which binds (f1, g1) alone."""
    calls = Counter()
    original_values, original_delta3 = algebra.identity_values, deformation.delta3
    original_cocycle = deformation.is_cocycle_2
    f1, g1 = _draw(e2, random.Random(9003))

    def counted_values(a, k, n, fs, gs):
        assert fs[1:] == (f1.ints,) and gs[1:] == (g1.ints,)
        calls["obstruction" if fs[0] else "Q(1, 1)", k, n] += 1
        return original_values(a, k, n, fs, gs)

    def counted_delta3(a):
        calls["delta3"] += 1
        return original_delta3(a)

    def counted_cocycle(a, f, g):
        calls["Z2 x Z3"] += 1
        return original_cocycle(a, f, g)

    monkeypatch.setattr(algebra, "identity_values", counted_values)
    monkeypatch.setattr(deformation, "identity_values", counted_values)
    monkeypatch.setattr(deformation, "delta3", counted_delta3)
    monkeypatch.setattr(deformation, "is_cocycle_2", counted_cocycle)
    obstruction_pair(e2, f1, g1)
    solved = solve_second_order(e2, f1, g1)
    assert solved is not None
    second_order_probe(e2, f1, g1, *solved)
    assert calls == Counter({
        "Z2 x Z3": 1,
        ("obstruction", 7, 2): 1,
        ("obstruction", 8, 2): 1,
        ("Q(1, 1)", 5, 2): 1,
        ("Q(1, 1)", 6, 2): 1,
        "delta3": 1,
    })


def test_the_second_order_slot_holds_one_entry(e1):
    """50 distinct draws on one algebra leave one second-order entry: the
    memo is no larger than after the first draw."""
    a = make_algebra(e1.dim, e1.binary, e1.ternary, e1.alpha, name="aff1_slot")
    rng = random.Random(9004)
    seen, sizes = [], []
    while len(seen) < 50:
        f1, g1 = _draw(a, rng)
        if (f1, g1) in seen:
            continue
        seen.append((f1, g1))
        obstruction_pair(a, f1, g1)
        solved = solve_second_order(a, f1, g1)
        if solved is not None:
            second_order_probe(a, f1, g1, *solved)
        sizes.append(len(a._memo))
    assert deformation._SECOND_ORDER_SLOT in a._memo
    assert max(sizes) == sizes[0]


def test_a_changed_table_gives_a_fresh_step(e2):
    """Tables are read only, so a changed pair is a new pair of cochains.
    The slot is keyed by the pair's value: an equal pair built anew is
    served from it, and a changed pair gets a fresh step."""
    f1, g1 = _draw(e2, random.Random(9005))
    before = obstruction_pair(e2, f1, g1)
    assert not before.first.is_zero()
    idx = next(iter(f1.table))
    with pytest.raises(TypeError):
        f1.table[idx] = tuple(2 * x for x in f1.table[idx])
    rebuilt = Cochain(2, e2.dim, dict(f1.table)), Cochain(3, e2.dim, dict(g1.table))
    again = obstruction_pair(e2, *rebuilt)
    assert again.first is before.first and again == reference_obstruction_pair(e2, *rebuilt)
    # (F, G) is quadratic in (f1, g1)
    doubled = f1.scale(rat(2)), g1.scale(rat(2))
    after = obstruction_pair(e2, *doubled)
    assert after == reference_obstruction_pair(e2, *doubled)
    assert after.first == before.first.scale(rat(4)) and after.second == before.second.scale(rat(4))
    assert solve_second_order(e2, *doubled) == reference_solve_second_order(e2, *doubled)
    # and a pair changed out of Z2 x Z3 is rejected
    broken = Cochain(2, e2.dim, {**doubled[0].table, idx: tuple(x + 1 for x in doubled[0].table[idx])})
    with pytest.raises(NotInZ2Z3Error):
        obstruction_pair(e2, broken, doubled[1])


def test_returned_cochains_are_the_slots_and_read_only(e2):
    """obstruction_pair hands out the slot's own (F, G); their tables are
    read only, so trying to change them leaves the next call intact."""
    f1, g1 = _draw(e2, random.Random(9006))
    first = obstruction_pair(e2, f1, g1)
    expected = reference_obstruction_pair(e2, f1, g1)
    with pytest.raises(AttributeError):  # a read-only view has no clear()
        first.first.table.clear()
    with pytest.raises(TypeError):
        del first.first.table[next(iter(first.first.table))]
    again = obstruction_pair(e2, f1, g1)
    assert again == expected and again.first is first.first
    assert solve_second_order(e2, f1, g1) == reference_solve_second_order(e2, f1, g1)


def test_a_pair_outside_z2z3_raises_on_every_call(e1):
    """A failed check is never stored: a non-cocycle pair raises
    NotInZ2Z3Error from each entry point on each call, also right after a
    cocycle pair filled the slot, and the slot keeps that pair's step."""
    good = _draw(e1, random.Random(9007))
    c2, c3 = build_cochain_space(e1, 2), build_cochain_space(e1, 3)
    bad = next(
        (f, g) for f in c2.basis_cochains for g in c3.basis_cochains if not is_cocycle_2(e1, f, g)
    )
    z2, z3 = Cochain.zero(2, e1.dim), Cochain.zero(3, e1.dim)
    calls = [
        lambda f, g: obstruction_pair(e1, f, g),
        lambda f, g: solve_second_order(e1, f, g),
        lambda f, g: second_order_probe(e1, f, g, z2, z3),
    ]
    expected = reference_obstruction_pair(e1, *good)
    for _ in range(2):
        for call in calls:
            assert obstruction_pair(e1, *good) == expected
            for _ in range(2):
                with pytest.raises(NotInZ2Z3Error):
                    call(*bad)
            assert e1._memo[deformation._SECOND_ORDER_SLOT][0] == good
