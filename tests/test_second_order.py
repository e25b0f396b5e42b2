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
from hlya.cochain import Cochain, CochainSpace, build_cochain_space
from hlya.cohomology import is_cocycle_2
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

from fraction_reference import dense, divided, pair_coords, pair_from_coords
from tabulated import tabulate
from draws import combination


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


def _candidates(a, f1, g1, rng):
    c2, c3 = build_cochain_space(a, 2), build_cochain_space(a, 3)
    out = [
        (Cochain.zero(2, a.dim), Cochain.zero(3, a.dim)),
        pair_from_coords(a, [rat(rng.randint(-2, 2)) for _ in range(c2.dim + c3.dim)]),
    ]
    solved = reference_solve_second_order(a, f1, g1)
    if solved is not None:
        f2, g2 = solved
        shift = combination(kernel_basis(delta2(a).matrix).basis, rng)
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
        out.extend((a, *pair_from_coords(a, combination(z, rng))) for _ in range(3))
    for a in random_verified_algebras(12345, 20):
        z = kernel_basis(vstack(delta2(a).matrix, d2(a).matrix)).basis
        out.append((a, *pair_from_coords(a, combination(z, rng))))
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
    return pair_from_coords(a, combination(z, rng))


def test_each_entry_point_evaluates_the_obstruction_once(monkeypatch, e2):
    """One draw checks the pair against Z2 x Z3 once, evaluates B(c, c)
    once over all of T, reads the obstruction off its blocks of 7 and 8
    once for all three entry points, and applies delta3 once.  The probe
    reads 5'-8' as one T vector, M_T c_2 plus the B(c, c) the step holds,
    so it evaluates no bilinear form.  On an algebra whose forms are
    bound, no contraction is built: algebra._bound, which binds every
    contraction, is never called."""
    calls = Counter()
    original_bound, original_delta3 = algebra._bound, deformation.delta3
    original_closed, original_obstruction = deformation._closed, deformation._obstruction
    original_quadratic, original_failures = deformation._quadratic, deformation._first_failures
    f1, g1 = _draw(e2, random.Random(9003))
    system = deformation._system(e2)
    c = dict(deformation._pair_row(e2, f1, g1)[1])

    def counted_bound(tables, analysed):
        calls["contraction"] += 1
        return original_bound(tables, analysed)

    def counted_delta3(a):
        calls["delta3"] += 1
        return original_delta3(a)

    def counted_closed(a, row):
        calls["Z2 x Z3"] += 1
        return original_closed(a, row)

    def counted_obstruction(a, square):
        calls["obstruction"] += 1
        return original_obstruction(a, square)

    def counted_quadratic(s, pairs):
        [(x, y)] = pairs
        assert s is system and x is y and x == c
        calls["B(c, c)"] += 1
        return original_quadratic(s, pairs)

    def counted_failures(s, row, quadratic):
        assert s is system
        calls["T vector"] += 1
        return original_failures(s, row, quadratic)

    monkeypatch.setattr(algebra, "_bound", counted_bound)
    monkeypatch.setattr(deformation, "delta3", counted_delta3)
    monkeypatch.setattr(deformation, "_closed", counted_closed)
    monkeypatch.setattr(deformation, "_obstruction", counted_obstruction)
    monkeypatch.setattr(deformation, "_quadratic", counted_quadratic)
    monkeypatch.setattr(deformation, "_first_failures", counted_failures)
    obstruction_pair(e2, f1, g1)
    solved = solve_second_order(e2, f1, g1)
    assert solved is not None
    assert calls == Counter({"Z2 x Z3": 1, "B(c, c)": 1, "obstruction": 1, "delta3": 1})
    assert second_order_probe(e2, f1, g1, *solved).extension_closes
    assert calls == Counter({"Z2 x Z3": 1, "B(c, c)": 1, "obstruction": 1, "delta3": 1, "T vector": 1})


def test_the_trio_evaluates_b_c_c_once_per_pair(monkeypatch, e1, e2, twisted_algebras):
    """Across a draw's obstruction_pair, solve_second_order and
    second_order_probe, B(c, c) is evaluated once per pair, over all of T:
    the second-order step evaluates it, the obstruction reads its blocks
    of 7 and 8, and the probe reads the whole vector from the step.  A
    pair met again after another pair has taken the slot is evaluated
    anew, once."""
    evaluated = []
    original = deformation._quadratic

    def counted(system, pairs):
        evaluated.append(pairs)
        return original(system, pairs)

    monkeypatch.setattr(deformation, "_quadratic", counted)
    rng = random.Random(9009)
    probed = 0
    for a in (e1, e2, twisted_algebras[0]):
        draws = [_draw(a, rng) for _ in range(2)]
        for f1, g1 in [*draws, draws[0]]:
            evaluated.clear()
            obstruction_pair(a, f1, g1)
            solved = solve_second_order(a, f1, g1)
            if solved is not None:
                second_order_probe(a, f1, g1, *solved)
                probed += 1
            c = deformation._pair_row(a, f1, g1)[1]
            assert evaluated == [((c, c),)], a.name
    assert probed >= 6


def test_the_trio_reads_the_first_order_row_once(monkeypatch, e1, e2, twisted_algebras):
    """A draw's obstruction_pair, solve_second_order and second_order_probe
    read the coordinate row of (f1, g1) once between them: the shared
    second-order step reads it, and the probe reads the step's B(c, c).
    Each draw is a fresh pair of cochains, so no row recorded on it by an
    earlier call is read back."""
    reads = Counter()
    original_row = CochainSpace.row

    def counted_row(space, cochain):
        reads[id(cochain)] += 1
        return original_row(space, cochain)

    monkeypatch.setattr(CochainSpace, "row", counted_row)
    rng = random.Random(9008)
    probed = 0
    for a in (e1, e2, twisted_algebras[0]):
        for _ in range(2):
            f1, g1 = _draw(a, rng)
            reads.clear()
            obstruction_pair(a, f1, g1)
            solved = solve_second_order(a, f1, g1)
            if solved is not None:
                assert second_order_probe(a, f1, g1, *solved).failures[7] is None
                probed += 1
            assert (reads[id(f1)], reads[id(g1)]) == (1, 1), a.name
    assert probed >= 4


def test_the_second_order_slot_holds_one_entry(e1):
    """50 distinct draws on one algebra leave one second-order entry: the
    memo is no larger than after the first draw."""
    a = make_algebra(e1.dim, *dense(e1), name="aff1_slot")
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
