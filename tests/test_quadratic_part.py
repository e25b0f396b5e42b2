"""The deformation equations as a linear part plus a quadratic part.

Above order 0, equation k of 5-8 at order n is evaluated as
L_k(f_n, g_n) + Q_{k,n}, both read off forms on coordinates bound once per
algebra: L_k is the codomain block of d2 or delta2, applied to the
coordinates of (f_n, g_n), and Q_{k,n} = sum_{i=1}^{n-1} B_k(c_i, c_{n-i}),
B_k the bilinear forms of the t^2 coefficient on the generic pair
(``quadratic_part``) at the coordinates c_i of the orders below n.  The
four equations are read together as one vector over the system's index
T, M_T c_n plus the sum of B(c_i, c_{n-i}), identity k its block.  The
t^n coefficient of the Fraction evaluator, read at every basis tuple, is
the oracle (``fraction_reference``): every (equation, order) of
``_failures_from``, every outcome of ``second_order_probe``, every value
of Q_{k,n} and the obstruction pair must match it.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hlya import algebra, deformation
import pytest

from hlya.algebra import IDENTITIES, _scan, contract, from_lie_algebra, make_algebra
from hlya.coboundary import _generic_inputs, d2, delta2, linear_part, quadratic_part
from hlya.cochain import Cochain, build_cochain_space
from hlya.cohomology import h2h3
from hlya.deformation import (
    Deformation,
    ProbeReport,
    apply_gauge,
    null_deformation,
    obstruction_pair,
    random_gauge,
    second_order_probe,
    solve_second_order,
    trivialize,
    verify_deformation,
    verify_equivalence,
)
from hlya.errors import PreconditionError
from hlya.exactlin import kernel_basis, rank, rat, vstack
from hlya.samples import abelian, random_verified_algebras

from fraction_reference import (
    FractionOps,
    coordinate_row,
    dense,
    divided,
    pair_coords,
    pair_from_coords,
    reference_failures,
    reference_identity_values,
    reference_obstruction_tables,
    reference_series,
    reference_verify_deformation,
)
from draws import combination, random_cochain, random_cocycle
from series import order_one_terms

ORDER = 3


def _from(failures, start):
    """The entries of a report {(k, n): tuple} at the orders start..N."""
    return {(k, n): w for (k, n), w in failures.items() if n >= start}


def _values(a, k, n, f_higher, g_higher):
    """The t^n coefficient of identity k in Fractions at a basis tuple, on
    the series with a's brackets at t^0 and the given cochains above."""
    ops = FractionOps(a)
    return reference_identity_values(ops, k, n, *reference_series(ops, f_higher, g_higher))


def _algebras(bundled, twisted_algebras):
    twist = twisted_algebras[1]
    assert twist.name == "sl2_twist_7_11"
    return [*bundled, twist, *random_verified_algebras(12345, 10)]


def test_failures_from_matches_the_full_contraction(bundled, twisted_algebras):
    """On gauged null deformations of order 3, and on the same with a
    random cochain added at order n = 1, 2 or 3, _failures_from equals the
    Fraction oracle at every (equation, order), key for key and in
    order, from every start order; so it does on random series in g alone
    and in f alone, whose quadratic parts bind one bracket's tables."""
    rng = random.Random(3801)
    outcomes = {True: 0, False: 0}
    for a in _algebras(bundled, twisted_algebras):
        gauged = apply_gauge(null_deformation(a, ORDER), random_gauge(a, ORDER, rng))
        series = [gauged]
        for n in range(1, ORDER + 1):
            f_seq, g_seq = list(gauged.f_seq), list(gauged.g_seq)
            f_seq[n] = f_seq[n].add(random_cochain(a, 2, rng))
            if rng.random() < 0.5:
                g_seq[n] = g_seq[n].add(random_cochain(a, 3, rng))
            series.append(Deformation(a, ORDER, f_seq, g_seq))
        f0, g0 = gauged.f_seq[0], gauged.g_seq[0]
        zeros = [Cochain.zero(2, a.dim)] * ORDER, [Cochain.zero(3, a.dim)] * ORDER
        g_alone = [random_cochain(a, 3, rng) for _ in range(ORDER)]
        f_alone = [random_cochain(a, 2, rng) for _ in range(ORDER)]
        series.append(Deformation(a, ORDER, [f0, *zeros[0]], [g0, *g_alone]))
        series.append(Deformation(a, ORDER, [f0, *f_alone], [g0, *zeros[1]]))
        for d in series:
            oracle = reference_verify_deformation(d)
            got = deformation._failures_from(d, 0, ORDER)
            assert list(got.items()) == list(oracle.items()), a.name
            for start in range(1, ORDER + 1):
                assert deformation._failures_from(d, start, ORDER) == _from(oracle, start), (a.name, start)
            outcomes[verify_deformation(d).ok] += 1
    assert outcomes[True] >= 15 and outcomes[False] >= 20, outcomes


def test_a_null_deformation_of_high_order_verifies():
    """Only the orders whose coefficient is nonzero are paired, so the
    null deformation of abelian2 at order 25600 reads no quadratic part
    and verifies, with one entry per equation and order."""
    d = null_deformation(abelian(2), 25600)
    report = verify_deformation(d)
    assert report.ok and len(report.failures) == 8 * 25601


def test_a_sparse_series_reports_as_the_full_contraction(bundled, twisted_algebras):
    """A series whose coefficients are nonzero at orders 1 and 3 only,
    padded with zeros to order 12, gets the report of the Fraction oracle
    order by order, key for key and in order: Q_4 reads the pair (c_1,
    c_3), Q_6 the square of c_3, and the other orders above 3 nothing.
    The coefficients are random cochains, or cocycle pairs of Z2 x Z3, so
    orders 1 and 3 hold, and orders 2, 4 and 6 may fail."""
    rng = random.Random(3811)
    outcomes = {True: 0, False: 0}
    for a in [*bundled, twisted_algebras[1]]:
        for draw in (lambda: (random_cochain(a, 2, rng), random_cochain(a, 3, rng)), lambda: random_cocycle(a, rng)):
            null = null_deformation(a, 12)
            f_seq, g_seq = list(null.f_seq), list(null.g_seq)
            for n in (1, 3):
                f_seq[n], g_seq[n] = draw()
            d = Deformation(a, 12, f_seq, g_seq)
            report = verify_deformation(d)
            assert list(report.failures.items()) == list(reference_verify_deformation(d).items()), a.name
            outcomes[report.ok] += 1
    assert outcomes[True] >= 2 and outcomes[False] >= 5, outcomes


def _per_pair_failures(d):
    """_failures_from(d, 0, N) with Q_n summed over every ordered pair
    (c_i, c_{n-i}), 1 <= i <= n-1, each read on its own."""
    a = d.base
    den, xs = deformation._common_rows([deformation._pair_row(a, f, g) for f, g in zip(d.f_seq[1:], d.g_seq[1:])])
    xs = [None, *xs]
    system = deformation._system(a)
    failures = {(k, 0): w for k, w in algebra.axiom_witnesses(a).items()}
    for n in range(1, d.order + 1):
        q = (system.den * den * den, _per_pair(system, _ordered(xs, n)))
        found = deformation._first_failures(system, (den, xs[n]), q)
        failures.update(((k, n), found.get(k)) for k in IDENTITIES)
    return failures


def test_failures_from_reads_a_pair_and_its_mirror_at_once(monkeypatch, bundled, twisted_algebras):
    """_failures_from reads B(c_i, c_{n-i}) and B(c_{n-i}, c_i) as one
    unordered pair, and its verdicts are those of the per-pair sum, on
    gauged null deformations of order 4 (valid) and on the same with a
    random cochain added at one order (broken).  Where every c_i is
    nonzero it reads 4 pairs through order 4, not the 6 ordered ones."""
    rng = random.Random(3805)
    reads = []
    real = deformation._quadratic

    def counted(system, pairs):
        reads.append(len(pairs))
        return real(system, pairs)

    monkeypatch.setattr(deformation, "_quadratic", counted)
    outcomes, counted_reads = {True: 0, False: 0}, 0
    for a in _algebras(bundled, twisted_algebras):
        gauged = apply_gauge(null_deformation(a, 4), random_gauge(a, 4, rng))
        f_seq = list(gauged.f_seq)
        n = rng.randint(1, 4)
        f_seq[n] = f_seq[n].add(random_cochain(a, 2, rng))
        for d in (gauged, Deformation(a, 4, f_seq, gauged.g_seq)):
            reads.clear()
            got = deformation._failures_from(d, 0, 4)
            assert got == _per_pair_failures(d), a.name
            outcomes[all(v is None for v in got.values())] += 1
            if all(not (f.is_zero() and g.is_zero()) for f, g in zip(d.f_seq[1:], d.g_seq[1:])):
                assert sum(reads) == 4, (a.name, reads)
                counted_reads += 1
    assert outcomes[True] >= 15 and outcomes[False] >= 5 and counted_reads >= 10, (outcomes, counted_reads)


def test_the_stacked_system_has_the_kernel_of_delta2_and_d2(bundled, twisted_algebras):
    """M_T, the linear parts of 5-8 stacked over T, has the rank of
    M = [delta2; d2] and its kernel, Z2 x Z3, on the bundled algebras, a
    twisted sl2 and the seeded corpus: its rows are M's rows at the
    representative tuples of 5-8, and T leaves out only outputs at which
    no coefficient reads.  T runs identity by identity, each in scan
    order; it has 120 positions on sl2, 6 on aff1 and none on
    heisenberg_twisted, whose equations 5-8 have no nonzero coefficient."""
    sizes = {}
    for a in _algebras(bundled, twisted_algebras):
        system = deformation._system(a)
        stacked = vstack(delta2(a).matrix, d2(a).matrix)
        assert system.matrix.cols == stacked.cols and system.matrix.rows == len(system.positions)
        assert rank(system.matrix) == rank(stacked), a.name
        assert kernel_basis(system.matrix) == h2h3(a).cocycles, a.name
        order = [(k, _scan(a, k).index(idx), j) for k, idx, j in system.positions]
        assert order == sorted(set(order)), a.name
        sizes[a.name] = system.matrix.rows
    assert sizes["sl2"] == 120 and sizes["aff1"] == 6 and sizes["heisenberg_twisted"] == 0


def _full_probe(a, f1, g1, f2, g2):
    """5'-8' as Fraction t^2 coefficients read at every tuple: the
    precondition error when 7' or 8' fails, else the report."""
    full = {k: w for (k, _), w in reference_failures(a, (f1, f2), (g1, g2), (2,), (5, 6, 7, 8)).items()}
    if full[7] or full[8]:
        return PreconditionError
    return ProbeReport(full)


def _probe(a, f1, g1, f2, g2):
    try:
        return second_order_probe(a, f1, g1, f2, g2)
    except PreconditionError:
        return PreconditionError


def _heisenberg():
    """The untwisted Heisenberg algebra, [e1, e2] = e3: ker delta2 is not
    inside ker d2 there, so a delta2 solution shifted out of ker d2 still
    passes 7'/8' and fails 5'/6'."""
    z = [0, 0, 0]
    bracket = [[z, [0, 0, 1], z], [[0, 0, -1], z, z], [z, z, z]]
    return from_lie_algebra(bracket, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], name="heisenberg")


def test_second_order_probe_matches_the_full_contraction(bundled, twisted_algebras):
    """On cocycle draws, random combinations and basis cocycles, the probe
    of the delta2 solution, of its negation and of the solution plus an
    element of ker delta2 outside ker d2 matches the Fraction
    oracle at t^2: the same rejection, or the same report.  Candidates of
    every kind are met: rejected by 7'/8', accepted with 5'-8' holding,
    and accepted but broken in 5'/6' only."""
    rng = random.Random(3802)
    seen = {"rejected": 0, "accepted": 0, "broken in 5'/6' only": 0}
    for a in [*_algebras(bundled, twisted_algebras), _heisenberg()]:
        # 7'/8' are read at the scan tuples of identities 7 and 8, the
        # representative tuples of C4 and C5 that fix (F, G)
        assert [_scan(a, k) for k in (7, 8)] == [s.rep_tuples for s in delta2(a).codomain]
        z = kernel_basis(vstack(delta2(a).matrix, d2(a).matrix)).basis
        kernel = kernel_basis(delta2(a).matrix).basis
        outside = [kernel.column(j) for j in range(kernel.cols) if any(d2(a).matrix.apply(kernel.column(j)))]
        cocycles = [combination(z, rng) for _ in range(2)] + [z.column(rng.randrange(z.cols)) for _ in range(2)]
        if outside:  # where a shift breaks 5'/6' alone, every basis cocycle too
            cocycles += [z.column(j) for j in range(z.cols)]
        for f1, g1 in (pair_from_coords(a, coords) for coords in cocycles):
            solved = solve_second_order(a, f1, g1)
            if solved is None:
                continue
            f2, g2 = solved
            candidates = [solved, (f2.scale(rat(-1)), g2.scale(rat(-1)))]
            if outside:
                shift = rng.choice(outside)
                candidates.append(pair_from_coords(a, [x + y for x, y in zip(pair_coords(a, f2, g2), shift)]))
            for f, g in candidates:
                got = _probe(a, f1, g1, f, g)
                assert got == _full_probe(a, f1, g1, f, g), a.name
                if got is PreconditionError:
                    seen["rejected"] += 1
                    continue
                seen["broken in 5'/6' only" if got.failures[5] or got.failures[6] else "accepted"] += 1
    assert all(count >= 3 for count in seen.values()), seen


def _pair(a, numerators, denominators):
    c2, c3 = build_cochain_space(a, 2), build_cochain_space(a, 3)
    size = c2.dim + c3.dim
    coords = [Fraction(p, q) for p, q in zip(numerators[:size], denominators[:size])]
    return pair_from_coords(a, coords + [Fraction(0)] * (size - len(coords)))


@seed(38)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_lone_order_n_pair_is_the_linear_part(bundled, twisted_algebras, data):
    """On a series whose only coefficient above the base brackets is (f, g)
    at order n = 1..4, the t^n coefficient of identity k of 5-8 is L_k at
    the coordinates of (f, g): at every basis tuple through the bound
    linear part, and at every scan tuple through identity k's block of
    M_T."""
    a = data.draw(st.sampled_from([*bundled, *twisted_algebras[:3]]))
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.sampled_from((5, 6, 7, 8)))
    numerators = data.draw(st.lists(st.integers(-3, 3), min_size=40, max_size=40))
    denominators = data.draw(st.lists(st.integers(1, 3), min_size=40, max_size=40))
    f, g = _pair(a, numerators, denominators)
    zeros = [Cochain.zero(2, a.dim)] * (n - 1), [Cochain.zero(3, a.dim)] * (n - 1)
    got = _values(a, k, n, (*zeros[0], f), (*zeros[1], g))
    coords = pair_coords(a, f, g)

    def expected(forms, den):
        out = {}
        for j, c, u in forms:
            out[j] = out.get(j, 0) + Fraction(c, den) * coords[u]
        return {j: x for j, x in out.items() if x}

    generic = linear_part(a, k)
    probe = generic.probe()
    for idx in itertools.product(range(a.dim), repeat=IDENTITIES[k].arity):
        forms = [(j, c, u) for (j, u), c in probe(idx).items()]
        assert got(idx) == expected(forms, generic.den), (a.name, k, n, idx)
    # M_T's block of identity k is those forms at the scan tuples, row
    # (tuple, j) at each output that T holds, and the value is 0 at every
    # output it leaves out
    system = deformation._system(a)
    stacked = {(idx, j): x for (kk, idx, j), x in zip(system.positions, system.matrix.apply(coords)) if kk == k}
    for idx in _scan(a, k):
        for j in range(a.dim):
            assert stacked.get((idx, j), 0) == got(idx).get(j, 0), (a.name, k, n, idx, j)


@pytest.fixture(scope="module")
def algebras(bundled, twisted_algebras):
    return _algebras(bundled, twisted_algebras)


def _split_terms(k):
    """The nested terms of identity k with the outer table renamed
    ("outer", name) and the nested one ("inner", name): the t^2 terms
    outer_1(.., inner_1(..), ..) with the two order-1 tables told apart."""
    terms = []
    for sign, outer, args in IDENTITIES[k].terms:
        if all(isinstance(arg[0], int) for arg in args):
            continue
        args = tuple(arg if isinstance(arg[0], int) else (("inner", arg[0]), *arg[1:]) for arg in args)
        terms.append((sign, ("outer", outer), args))
    return tuple(terms)


def _per_pair(system, pairs):
    """The sum over (x, y) in ``pairs`` of B(x, y) over T, x outer and y
    inner, each ordered pair read on its own: {t: nonzero numerator}."""
    out = {}
    for x, y in pairs:
        for u, xu in x.items():
            for v, t, c in system.bilinear.get(u, ()):
                out[t] = out.get(t, 0) + c * xu * y.get(v, 0)
    return {t: b for t, b in out.items() if b}


def _ordered(xs, n):
    """(c_i, c_{n-i}) for 1 <= i <= n-1, both nonzero: every term of Q_n."""
    return tuple((xs[i], xs[n - i]) for i in range(1, n) if xs[i] and xs[n - i])


def _unordered(xs, n):
    """(c_i, c_{n-i}) for 1 <= i <= n-i, both nonzero: the pairs
    _failures_from reads, a pair and its mirror at once."""
    return tuple((xs[i], xs[n - i]) for i in range(1, n // 2 + 1) if xs[i] and xs[n - i])


def _block(system, k, scan, values, den):
    """Identity k's block of a T vector {t: numerator} over den, as
    {scan tuple: {output index: nonzero Fraction}} over identity k's
    ``scan``: T leaves out the outputs at which the equation reads 0."""
    out = {idx: {} for idx in scan}
    for t, (kk, idx, j) in enumerate(system.positions):
        if kk == k and values.get(t):
            out[idx][j] = Fraction(values[t], den)
    return out


@seed(40)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_quadratic_parts_read_off_the_bilinear_forms_are_the_contraction(algebras, data):
    """On random pairs c_1..c_{n-1} at orders n = 2..4, each order its own
    pair, Q_{k,n} as _failures_from and the probe evaluate it, identity
    k's block of the T vector sum B(c_i, c_{n-i}) on the coordinate rows,
    equals the t^n coefficient of the series with no order-n term at
    every scan tuple, and so has the same first failing tuple; so does the
    sum read off the bound quadratic part at every basis tuple.  With a
    random order-n pair c_n added, the stacked read M_T c_n + Q_n of the
    broken series fails first at the oracle's tuple.  B(x, y) itself,
    on two pairs drawn apart, is the contraction of the nested terms with
    x outer and y inner, so reading the forms with outer and inner swapped
    fails."""
    a = data.draw(st.sampled_from(algebras))
    n = data.draw(st.integers(2, 4))
    k = data.draw(st.sampled_from((5, 6, 7, 8)))

    def draw_pair():
        numerators = data.draw(st.lists(st.integers(-3, 3), min_size=40, max_size=40))
        denominators = data.draw(st.lists(st.integers(1, 3), min_size=40, max_size=40))
        return _pair(a, numerators, denominators)

    series = [draw_pair() for _ in range(1, n)]  # orders 1..n-1
    zero = (Cochain.zero(2, a.dim), Cochain.zero(3, a.dim))
    f_higher, g_higher = [f for f, _ in series] + [zero[0]], [g for _, g in series] + [zero[1]]
    expected = _values(a, k, n, f_higher, g_higher)

    den, xs = deformation._common_rows([deformation._pair_row(a, f, g) for f, g in series])
    xs = [None, *xs]
    system = deformation._system(a)
    scan = _scan(a, k)
    qden = system.den * den * den
    q = deformation._quadratic(system, _unordered(xs, n))
    assert {t: b for t, b in q.items() if b} == _per_pair(system, _ordered(xs, n)), (a.name, k, n)
    got = _block(system, k, scan, q, qden)
    for idx in scan:
        assert got[idx] == expected(idx), (a.name, k, n, idx)
    oracle = reference_failures(a, f_higher, g_higher, (n,), (k,))[k, n]
    assert deformation._first_failures(system, (den, {}), (qden, q)).get(k) == oracle

    # with an order-n pair added, the series is broken at order n in
    # general, and the stacked read M_T c_n + Q finds the oracle's tuple
    last = draw_pair()
    f_higher[-1], g_higher[-1] = last
    den_n, ys = deformation._common_rows([deformation._pair_row(a, f, g) for f, g in (*series, last)])
    ys = [None, *ys]
    quadratic = (system.den * den_n * den_n, deformation._quadratic(system, _unordered(ys, n)))
    found = deformation._first_failures(system, (den_n, ys[n]), quadratic)
    assert found.get(k) == reference_failures(a, f_higher, g_higher, (n,), (k,))[k, n], (a.name, k, n)

    coords = [None, *(pair_coords(a, f, g) for f, g in series)]
    bound = quadratic_part(a, k)
    probe = bound.probe()
    for idx in itertools.product(range(a.dim), repeat=IDENTITIES[k].arity):
        total = {}
        for ((j, u), v), c in probe(idx).items():
            for i in range(1, n):
                total[j] = total.get(j, 0) + Fraction(c, bound.den) * coords[i][u] * coords[n - i][v]
        assert {j: x for j, x in total.items() if x} == expected(idx), (a.name, k, n, idx)

    outer, inner = draw_pair(), draw_pair()

    def split(outer, inner):
        sides = (("outer", outer), ("inner", inner))
        tables = {(side, name): c.ints for side, pair in sides for name, c in zip("fg", pair)}
        contraction = contract(a, tables, _split_terms(k))
        return divided(contraction.probe(), contraction.den)

    oracle, mirror = split(outer, inner), split(inner, outer)
    den, (x, y) = deformation._common_rows([deformation._pair_row(a, *outer), deformation._pair_row(a, *inner)])
    got = _block(system, k, scan, _per_pair(system, ((x, y),)), system.den * den * den)
    both = _block(system, k, scan, deformation._quadratic(system, ((x, y),)), system.den * den * den)
    for idx in scan:
        assert got[idx] == oracle(idx), (a.name, k, idx)
        summed = Counter(oracle(idx))
        summed.update(mirror(idx))
        assert both[idx] == {j: v for j, v in summed.items() if v}, (a.name, k, idx)


def test_the_obstruction_is_the_full_tabulation_on_both_twisted_fixtures(bundled, twisted_algebras):
    """On cocycle draws over sl2_twist_7_11 and heisenberg_twisted, (F, G)
    taken as -B_7(c, c) and -B_8(c, c) at the representative tuples and
    built by the spaces equals minus the t^2 coefficient of identities 7
    and 8 tabulated at every basis tuple, with the same coordinate row;
    some draws on sl2_twist_7_11 are obstructed by a nonzero pair."""
    rng = random.Random(4001)
    nonzero = Counter()
    for a in (twisted_algebras[1], bundled[3]):
        assert a.name in ("sl2_twist_7_11", "heisenberg_twisted")
        z = kernel_basis(vstack(delta2(a).matrix, d2(a).matrix)).basis
        c4, c5 = delta2(a).codomain
        for _ in range(8):
            f1, g1 = pair_from_coords(a, combination(z, rng))
            big_f, big_g, row = deformation._second_order_step(a, f1, g1)[:3]
            tables = reference_obstruction_tables(a, f1, g1)
            assert [big_f, big_g] == [Cochain(n, a.dim, table) for n, table in zip((4, 5), tables)], a.name
            assert row == coordinate_row(c4.coords(big_f) + c5.coords(big_g)), a.name
            nonzero[a.name] += bool(row[1])
    assert nonzero["sl2_twist_7_11"] >= 4, nonzero


def test_a_warm_draw_and_round_trip_bind_and_twist_nothing(monkeypatch, bundled, twisted_algebras):
    """On an algebra that has run the deformation layer once, a cocycle
    draw (obstruction_pair, solve_second_order, second_order_probe) and a
    gauge round trip (random_gauge, apply_gauge, trivialize,
    verify_equivalence) bind no contraction (algebra._bound, which binds
    every one, is never called) and twist no table: every equation, the
    obstruction included, is read off the forms kept in the algebra's
    memo, and no cochain of a series gains a twist."""
    calls, twisted, probed = [], [], []
    original_bound, original_twisted = algebra._bound, algebra._twisted

    def counted_bound(tables, analysed):
        calls.append(analysed)
        return original_bound(tables, analysed)

    def counted_twisted(table, alphas, pos):
        twisted.append(table)
        return original_twisted(table, alphas, pos)

    def session(a, rng):
        z = kernel_basis(vstack(delta2(a).matrix, d2(a).matrix)).basis
        f1, g1 = pair_from_coords(a, combination(z, rng))
        obstruction_pair(a, f1, g1)
        solved = solve_second_order(a, f1, g1)
        if solved is not None:
            second_order_probe(a, f1, g1, *solved)
            probed.append(a)
        null = null_deformation(a, 4)
        disguised = apply_gauge(null, random_gauge(a, 4, rng))
        result = trivialize(disguised)
        assert result.trivial and verify_equivalence(disguised, null, result.gauge)
        return [f1, g1, *(solved or ()), *disguised.f_seq[1:], *disguised.g_seq[1:]]

    for a in (twisted_algebras[0], bundled[2], bundled[3]):
        rng = random.Random(4002)
        session(a, rng)  # the round trip's verification binds every form the layer reads
        monkeypatch.setattr(algebra, "_bound", counted_bound)
        monkeypatch.setattr(algebra, "_twisted", counted_twisted)
        for _ in range(3):
            series = session(a, rng)
            assert calls == [] and twisted == [], a.name
            assert not any(c.ints.twists for c in series), a.name
        monkeypatch.undo()
    assert len(probed) >= 6, [a.name for a in probed]


def test_the_quadratic_parts_analyse_only_the_terms_they_bind(bundled):
    """quadratic_part binds the generic pair of C2 x C3 as the order-1
    tables alone, so of the t^2 coefficient of identity k only the terms
    outer_1(inner_1) can bind: the term list it analyses into the memo
    reads the tables ("f", 1) and ("g", 1) and no other, 3, 3, 3 and 4
    terms for k = 5..8, in the order of series_terms(k, 2)."""
    base = bundled[2]
    a = make_algebra(base.dim, *dense(base), name="sl2_quadratic")
    _generic_inputs(a, (2, 3))

    def analysed():
        return {key[1] for key in a._memo if key[0] is algebra._analysed.__wrapped__}

    sizes = {}
    for k in (5, 6, 7, 8):
        before = analysed()
        quadratic_part(a, k)
        [terms] = analysed() - before
        for _, outer, args in terms:
            tables = [outer, *(arg[0] for arg in args if not isinstance(arg[0], int))]
            assert len(tables) == 2 and set(tables) <= {("f", 1), ("g", 1)}, (k, outer, args)
        assert terms == order_one_terms(k), k
        sizes[k] = len(terms)
    assert sizes == {5: 3, 6: 3, 7: 3, 8: 4}
