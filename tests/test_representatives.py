"""Representative-tuple evaluation of the deformation layer.

``first_failure`` scans only the tuples that increase inside each declared
alternating pair of an identity, and so do the deformation equations
above order 0; the obstruction pair is evaluated at the representative
tuples of C4 and C5 only.  This file checks the antisymmetry that makes
that exact at every order, on the t^n coefficients of random series, and
compares the scans with the full scans they replaced.  The oracles read
every basis tuple in Fractions (``fraction_reference``):
``reference_first_failure`` the first failing tuple of an identity at any
order, and ``full_tabulation_obstruction`` tabulates every tuple and
reads the coordinates of its cochain with ``coords``.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from hlya import algebra, coboundary, deformation
from hlya.algebra import (
    IDENTITIES,
    algebra_from_sparse,
    brackets,
    check_axioms,
    first_failure,
    from_lie_algebra,
    make_algebra,
    rep_tuples,
    series_terms,
)
from hlya.coboundary import d2, delta2
from hlya.cochain import Cochain, build_cochain_space
from hlya.deformation import (
    Deformation,
    Gauge,
    _second_order_step,
    apply_gauge,
    infinitesimal,
    null_deformation,
    random_gauge,
    trivialize,
    verify_deformation,
    verify_equivalence,
)
from hlya.exactlin import Matrix, kernel_basis, rat, vstack
from hlya.samples import random_verified_algebras, sl2

from fraction_reference import (
    coordinate_row,
    dense,
    pair_from_coords,
    reference_failures,
    reference_obstruction_tables,
    reference_verify_deformation,
)
from draws import random_cochain
from series import coefficient, order_one_terms, scanned_first_failure

ORDERS = range(4)


def full_tabulation_obstruction(a, f1, g1):
    """(F, G) and their coordinate row from tables over every basis tuple,
    the coordinates read as Fractions and made the canonical integer row."""
    parts = []
    for arity, table in zip((4, 5), reference_obstruction_tables(a, f1, g1)):
        c = Cochain(arity, a.dim, table)
        parts.append((c, build_cochain_space(a, arity).coords(c)))
    (big_f, coords_f), (big_g, coords_g) = parts
    return big_f, big_g, coordinate_row(coords_f + coords_g)


def _random_series(a, order, rng):
    """Random cochains f_1..f_order, g_1..g_order: no deformation, so the
    higher coefficients of the identities do not vanish."""
    f_higher = [random_cochain(a, 2, rng) for _ in range(order)]
    g_higher = [random_cochain(a, 3, rng) for _ in range(order)]
    return f_higher, g_higher


def _cocycle(a, rng):
    z = kernel_basis(vstack(delta2(a).matrix, d2(a).matrix)).basis
    coeffs = [rat(rng.randint(-2, 2)) for _ in range(z.cols)]
    coords = [sum(c * x for c, x in zip(coeffs, row)) for row in z.data]
    return pair_from_coords(a, coords)


def _swapped(idx, p):
    lst = list(idx)
    lst[2 * p], lst[2 * p + 1] = lst[2 * p + 1], lst[2 * p]
    return tuple(lst)


def _negated(vec):
    return {j: -x for j, x in vec.items()}


@pytest.fixture(scope="module")
def algebras(bundled, twisted_algebras):
    """The bundle, the sl2 twists, Heisenberg diag(2, 3, 6) and gl2."""
    return [*bundled, *twisted_algebras]


def test_rep_tuples_are_the_increasing_tuples(algebras):
    for dim, arity in itertools.product(range(5), range(8)):
        for pairs in range(arity // 2 + 1):
            expected = [
                idx
                for idx in itertools.product(range(dim), repeat=arity)
                if all(idx[2 * p] < idx[2 * p + 1] for p in range(pairs))
            ]
            assert rep_tuples(dim, arity, pairs) == tuple(expected), (dim, arity, pairs)
    for a in algebras:
        for arity in (2, 3, 4, 5):
            space = build_cochain_space(a, arity)
            assert space.rep_tuples == rep_tuples(a.dim, arity, arity // 2)


def test_identity_values_are_antisymmetric_in_their_pairs(algebras):
    """At orders 0-3 of random cochain series, every declared pair of every
    identity flips the sign of the value when its two arguments swap, and
    the value at a tuple with equal arguments in the pair is zero."""
    rng = random.Random(4101)
    checked = 0
    for a in algebras:
        series = _random_series(a, max(ORDERS), rng)
        for k, identity in IDENTITIES.items():
            for n in ORDERS:
                value = coefficient(a, k, n, *series).probe()
                for idx in itertools.product(range(a.dim), repeat=identity.arity):
                    vec = value(idx)
                    for p in range(identity.pairs):
                        if idx[2 * p] == idx[2 * p + 1]:
                            assert not vec, (a.name, k, n, idx)
                        else:
                            assert value(_swapped(idx, p)) == _negated(vec), (a.name, k, n, idx, p)
                            checked += bool(vec)
    assert checked > 1000


def test_identity_6_is_not_antisymmetric_in_its_second_pair(algebras):
    """Identity 6 declares one pair: its second pair (z, u) is not
    alternating, so reducing it as well would drop failing tuples."""
    rng = random.Random(4102)
    a = algebras[2]  # sl2
    value = coefficient(a, 6, 1, *_random_series(a, 1, rng)).probe()
    assert IDENTITIES[6].pairs == 1
    assert any(
        value(_swapped(idx, 1)) != _negated(value(idx))
        for idx in itertools.product(range(a.dim), repeat=4)
    )


def _corrupted(a):
    """Copies of a with a shifted ternary entry and a shifted twist entry."""
    d, (binary, ternary, alpha) = a.dim, dense(a)
    t = [[[list(v) for v in col] for col in row] for row in ternary]
    t[0][1][d - 1] = [x + int(k == 0) for k, x in enumerate(t[0][1][d - 1])]
    t[1][0][d - 1] = [x - int(k == 0) for k, x in enumerate(t[1][0][d - 1])]
    shifted = [list(row) for row in alpha]
    shifted[0][d - 1] += 1
    return [
        make_algebra(d, binary, t, alpha, name=a.name + "_ternary"),
        make_algebra(d, binary, ternary, shifted, name=a.name + "_alpha"),
    ]


def test_first_failure_matches_the_full_scan(algebras):
    """first_failure on corrupted algebras, and the scan of each t^n
    coefficient on random series that are no deformation and on
    second-order candidates that do not solve, find the first failing
    tuple of the Fraction scan over every tuple."""
    rng = random.Random(4103)
    failures = 0
    for a in algebras:
        for bad in _corrupted(a):
            expected = reference_failures(bad, (), (), (0,))
            for k in IDENTITIES:
                assert first_failure(bad, k) == expected[k, 0], (bad.name, k)
                failures += expected[k, 0] is not None
            assert check_axioms(bad).counterexamples == {k: w for (k, _), w in expected.items() if w}
        series = _random_series(a, 2, rng)
        for (k, n), expected in reference_failures(a, *series, range(3)).items():
            assert scanned_first_failure(a, k, coefficient(a, k, n, *series)) == expected, (a.name, k, n)
            failures += expected is not None
        f1, g1 = _cocycle(a, rng)
        f2, g2 = _random_series(a, 1, rng)
        series = ((f1, *f2), (g1, *g2))
        for (k, _), expected in reference_failures(a, *series, (2,), (5, 6, 7, 8)).items():
            assert scanned_first_failure(a, k, coefficient(a, k, 2, *series)) == expected, (a.name, k)
            failures += expected is not None
    assert failures > 50


def test_verify_deformation_reports_match_the_full_scan(algebras):
    """Gauged null deformations satisfy every equation; a coefficient moved
    off them fails some, at the tuples the full scan names."""
    rng = random.Random(4104)
    for a in algebras[:6]:
        d = apply_gauge(null_deformation(a, 3), random_gauge(a, 3, rng))
        broken = Deformation(
            a, 3, d.f_seq, (*d.g_seq[:2], d.g_seq[2].add(random_cochain(a, 3, rng)), d.g_seq[3])
        )
        for deformed in (d, broken):
            assert verify_deformation(deformed).failures == reference_verify_deformation(deformed), a.name
        assert verify_deformation(d).ok


def test_the_equations_left_out_hold_on_every_deformation(algebras):
    """verify_deformation evaluates identities 1-4 at order 0 only: on
    gauged null deformations, on the same with a cochain added at an order
    >= 1, and on random cochain series, its report equals the evaluation of
    all eight identities at every order in Fractions, key for key and in
    order, the cochain conditions 1-4 above order 0 included, and 1-4
    hold at every order >= 1.  On algebras that fail the axioms order 0 is
    the verdict of check_axioms."""
    rng = random.Random(4110)
    order = 3
    failing = 0
    for a in algebras:
        gauged = apply_gauge(null_deformation(a, order), random_gauge(a, order, rng))
        series = [gauged]
        for n in (1, 2, 3):
            f_seq, g_seq = list(gauged.f_seq), list(gauged.g_seq)
            if rng.random() < 0.5:
                f_seq[n] = f_seq[n].add(random_cochain(a, 2, rng))
            else:
                g_seq[n] = g_seq[n].add(random_cochain(a, 3, rng))
            series.append(Deformation(a, order, f_seq, g_seq))
        f_higher, g_higher = _random_series(a, order, rng)
        series.append(Deformation(a, order, (gauged.f_seq[0], *f_higher), (gauged.g_seq[0], *g_higher)))
        for bad in _corrupted(a):
            f_higher, g_higher = _random_series(bad, 1, rng)
            null = null_deformation(bad, 1)
            series += [null, Deformation(bad, 1, (null.f_seq[0], *f_higher), (null.g_seq[0], *g_higher))]
        for d in series:
            got = verify_deformation(d).failures
            assert list(got.items()) == list(reference_verify_deformation(d).items()), d.base.name
            assert all(got[(k, n)] is None for k in (1, 2, 3, 4) for n in range(1, d.order + 1))
            axioms = check_axioms(d.base)
            assert {k: got[(k, 0)] for k in IDENTITIES if got[(k, 0)]} == axioms.counterexamples
            failing += not verify_deformation(d).ok_through(1)
        assert verify_deformation(gauged).ok
    assert failing > len(algebras) * 4


def test_a_round_trip_evaluates_each_condition_once(monkeypatch):
    """On a sl2 gauge round trip at order 4, counted from the algebra's
    construction, identities 1-4 are evaluated at order 0 only, once for
    the algebra and for every later call on it.  Above order 0 only 5-8
    are bound, each once per algebra on the generic tables of C2 x C3: at
    order 1, the linear parts that delta2 and d2 assemble, and at order 2,
    the quadratic parts; the orders 3 and 4 of the series bind nothing.
    infinitesimal and a second round trip bind nothing; trivialize builds
    one Gauge, its result."""
    evaluated = Counter()

    def counted(key, contraction):
        evaluated[key] += 1
        return contraction

    _wrap_coefficients(monkeypatch, counted)
    a = _copy(sl2(), "sl2_round_trip")
    null = null_deformation(a, 4)
    disguised = apply_gauge(null, random_gauge(a, 4, random.Random(5)))
    gauges = []
    init = Gauge.__init__

    def counted_gauge(self, *args):
        gauges.append(self)
        init(self, *args)

    monkeypatch.setattr(Gauge, "__init__", counted_gauge)
    result = trivialize(disguised)
    assert result.trivial and gauges == [result.gauge]
    assert verify_equivalence(disguised, null, result.gauge)
    above = {(k, n): 1 for k in (5, 6, 7, 8) for n in (1, 2)}
    assert evaluated == {**{(k, 0): 1 for k in IDENTITIES}, **above}
    evaluated.clear()
    assert infinitesimal(disguised) == (disguised.f_seq[1], disguised.g_seq[1])
    assert not evaluated
    assert check_axioms(a).all_passed and verify_deformation(disguised).ok and trivialize(disguised).trivial
    assert not evaluated


def test_obstruction_matches_the_full_tabulation(algebras):
    rng = random.Random(4105)
    draws = [(a, *_cocycle(a, rng)) for a in algebras for _ in range(2)]
    draws += [(a, *_cocycle(a, rng)) for a in random_verified_algebras(12345, 20)]
    nonzero = 0
    for a, f1, g1 in draws:
        got = _second_order_step(a, f1, g1)[:3]
        assert got == full_tabulation_obstruction(a, f1, g1), a.name
        nonzero += bool(got[2][1])
    assert nonzero > 10


# the term list of each identity coefficient the package binds -> (k, n):
# orders 0 and 1, and of order 2 the terms outer_1(inner_1) of 5-8 alone
_COEFFICIENTS = {
    **{series_terms(k, n): (k, n) for k in IDENTITIES for n in (0, 1)},
    **{order_one_terms(k): (k, 2) for k in (5, 6, 7, 8)},
}


def _wrap_coefficients(monkeypatch, wrap):
    """Every contraction of an identity coefficient that the package
    builds, first_failure's (through identity_values) and the linear and
    quadratic parts that :mod:`hlya.coboundary` binds on the generic
    tables, handed out as wrap((k, n), contraction): each is one
    :func:`hlya.algebra.contract` of a term list of :data:`_COEFFICIENTS`,
    read back to its (k, n).  Other term lists pass unwrapped."""
    original = algebra.contract

    def wrapped(a, tables, terms):
        contraction = original(a, tables, terms)
        key = _COEFFICIENTS.get(tuple(terms))
        return contraction if key is None else wrap(key, contraction)

    monkeypatch.setattr(algebra, "contract", wrapped)
    monkeypatch.setattr(coboundary, "contract", wrapped)


def _counted_evaluations(monkeypatch):
    """Per identity, the tuples at which values of its coefficients are
    read, and the contractions of them that are built
    (:func:`_wrap_coefficients`)."""
    calls = {k: 0 for k in IDENTITIES}
    built = {k: 0 for k in IDENTITIES}

    def counted(key, contraction):
        k = key[0]
        built[k] += 1
        value = contraction.probe()

        def counting(idx):
            calls[k] += 1
            return value(idx)

        return SimpleNamespace(probe=lambda: counting, den=contraction.den)

    _wrap_coefficients(monkeypatch, counted)
    return calls, built


def _scan_counts(system):
    """Per identity of 5-8, its scan tuples in the system's index T."""
    return Counter(k for k, _ in {(k, idx) for k, idx, _ in system.positions})


def _counted_reads(monkeypatch):
    """Per identity, the scan tuples at which the deformation equations
    read the linear part of the system (:func:`hlya.deformation._system`),
    and those at which they add a quadratic part: each T vector read
    covers every scan tuple of 5-8, and each quadratic part evaluated
    every scan tuple too."""
    rows = {k: 0 for k in IDENTITIES}
    quadratic = {k: 0 for k in IDENTITIES}
    first_failures, bilinear = deformation._first_failures, deformation._quadratic

    def counted_failures(system, row, q):
        for k, count in _scan_counts(system).items():
            rows[k] += count
        return first_failures(system, row, q)

    def counted_quadratic(system, pairs):
        for k, count in _scan_counts(system).items():
            quadratic[k] += count
        return bilinear(system, pairs)

    monkeypatch.setattr(deformation, "_first_failures", counted_failures)
    monkeypatch.setattr(deformation, "_quadratic", counted_quadratic)
    return rows, quadratic


def _copy(a, name):
    """An algebra equal to a with a memo of its own, so its order-0
    verdict is not yet evaluated; make_algebra evaluates 3 and 4 into it,
    so a count that starts before the copy sees every order-0 scan."""
    return make_algebra(a.dim, *dense(a), name=name)


def test_identity_8_on_sl2_is_evaluated_at_27_tuples_per_order(monkeypatch):
    """sl2 has dimension 3: identity 8 has 3^5 = 243 basis tuples, and 27
    of them increase inside both of its pairs.  Identities 5 and 6 read
    only x < y < z: 1 of 9 and 3 of 27 tuples.  Identities 1-4 are
    evaluated at order 0 only, 3 and 4 when the algebra is built, the
    cochain conditions being settled above it
    (test_a_round_trip_evaluates_each_condition_once guards that).  Above
    order 0 equation k is L_k(f_n, g_n) + Q_{k,n}, read off one row of
    forms per scan tuple: the linear part and the quadratic part are each
    probed once per algebra at those tuples and laid out as one system,
    and then every order reads its rows, none on a null deformation, and
    the quadratic part at orders 2..N on a gauged one."""
    calls, _ = _counted_evaluations(monkeypatch)
    a = _copy(sl2(), "sl2_counted")
    order = 3
    rows, quadratic = _counted_reads(monkeypatch)
    report = verify_deformation(null_deformation(a, order))
    assert report.ok
    per_order = {1: 3, 2: 9, 3: 9, 4: 27, 5: 1, 6: 3, 7: 9, 8: 27}
    assert calls == per_order and calls[8] == 27
    assert not any(rows.values())
    system = deformation._system(a)
    bound = _scan_counts(system)
    assert bound == {5: 1, 6: 3, 7: 9, 8: 27} and system.matrix.rows == 3 * (1 + 3 + 9 + 27)
    assert calls == {k: count * 3 if k >= 5 else count for k, count in per_order.items()}
    calls.update(dict.fromkeys(calls, 0))
    rows.update(dict.fromkeys(rows, 0))
    gauged = apply_gauge(null_deformation(a, order), random_gauge(a, order, random.Random(4111)))
    assert all(not c.is_zero() for c in gauged.f_seq[1:])
    assert verify_deformation(gauged).ok
    assert not any(calls.values())
    assert rows == {k: count * order if k >= 5 else 0 for k, count in per_order.items()}
    assert quadratic == {k: count * (order - 1) if k >= 5 else 0 for k, count in per_order.items()}
    assert rows[8] == 27 * 3 and quadratic[8] == 27 * 2


def test_each_order_0_identity_is_built_once_per_algebra(monkeypatch):
    """make_algebra evaluates identities 3 and 4 into the algebra's memo,
    and the axiom verdict reads them there: from_lie_algebra, and
    algebra_from_sparse followed by check_axioms, build each identity's
    order-0 contraction once per algebra object on sl2's bracket, however
    often the verdict is asked; make_algebra builds none of 5-8."""
    built = Counter()
    original = algebra.identity_values

    def counted(a, k):
        built[k] += 1
        return original(a, k)

    monkeypatch.setattr(algebra, "identity_values", counted)
    bracket, identity = dense(sl2())[0], Matrix.identity(3).data
    lie = from_lie_algebra(bracket, identity, name="sl2_lie")
    assert check_axioms(lie).all_passed and built == {k: 1 for k in IDENTITIES}
    built.clear()
    sparse = {(i, j): bracket[i][j] for i, j in itertools.combinations(range(3), 2)}
    a = algebra_from_sparse(3, sparse, {}, identity, name="sl2_sparse")
    assert built == {3: 1, 4: 1}
    assert check_axioms(a).all_passed and check_axioms(a) == check_axioms(lie)
    assert verify_deformation(null_deformation(a, 0)).ok
    assert built == {k: 1 for k in IDENTITIES}


def test_identities_5_and_6_evaluate_no_tuple_in_dimension_2(monkeypatch, e1):
    """On aff1 no tuple has three distinct arguments: first_failure returns
    None for identities 5 and 6 without building their contraction, and
    verify_deformation reads no row of their forms and binds neither their
    linear nor their quadratic part, while it evaluates the others at
    their representative tuples."""
    fresh = _copy(e1, "aff1_counted")
    calls, built = _counted_evaluations(monkeypatch)
    rows, quadratic = _counted_reads(monkeypatch)
    order = 2
    assert first_failure(e1, 5) is first_failure(e1, 6) is None
    assert calls[5] == calls[6] == built[5] == built[6] == 0
    assert verify_deformation(null_deformation(fresh, order)).ok
    assert calls[5] == calls[6] == built[5] == built[6] == 0
    assert calls[8] == len(rep_tuples(2, 5, 2)) > 0  # order 0; a null series reads no form
    assert not any(rows.values())
    gauged = apply_gauge(null_deformation(fresh, order), random_gauge(fresh, order, random.Random(4112)))
    assert verify_deformation(gauged).ok
    assert calls[5] == calls[6] == built[5] == built[6] == 0
    assert rows[5] == rows[6] == quadratic[5] == quadratic[6] == 0
    # order 0, then the linear and quadratic parts probed once each
    assert calls[8] == len(rep_tuples(2, 5, 2)) * 3
    assert rows[8] == len(rep_tuples(2, 5, 2)) * order and quadratic[8] == len(rep_tuples(2, 5, 2))


def test_identities_5_and_6_are_alternating_in_x_y_z(algebras):
    """At orders 0-2 of random cochain series, every transposition of
    (x, y, z) changes the sign of identities 5 and 6, and a tuple with two
    equal arguments among x, y, z has value 0."""
    rng = random.Random(4107)
    checked = 0
    for a in algebras:
        series = _random_series(a, 2, rng)
        for k in (5, 6):
            assert IDENTITIES[k].block == 3
            for n in range(3):
                value = coefficient(a, k, n, *series).probe()
                for idx in itertools.product(range(a.dim), repeat=IDENTITIES[k].arity):
                    vec = value(idx)
                    if len(set(idx[:3])) < 3:
                        assert not vec, (a.name, k, n, idx)
                        continue
                    for s, t in ((0, 1), (1, 2), (0, 2)):
                        lst = list(idx)
                        lst[s], lst[t] = lst[t], lst[s]
                        assert value(tuple(lst)) == _negated(vec), (a.name, k, n, idx, (s, t))
                    checked += bool(vec)
    assert checked > 200


def _random_structure(rng, dim):
    """An algebra with random alternating brackets and a random alpha: no
    axiom beyond alternation (identities 3 and 4) is enforced."""
    def vec():
        return [rng.choice((0, 0, 1, -1, Fraction(1, 2))) for _ in range(dim)]

    binary = {(i, j): vec() for i, j in itertools.combinations(range(dim), 2) if rng.random() < 0.6}
    ternary = {
        (i, j, k): vec() for i, j in itertools.combinations(range(dim), 2) for k in range(dim) if rng.random() < 0.4
    }
    alpha = [[rng.choice((0, 0, 1, 2)) for _ in range(dim)] for _ in range(dim)]
    return algebra_from_sparse(dim, binary, ternary, alpha, name=f"random_{dim}")


def test_first_failure_on_the_block_matches_the_full_scan():
    """Random alternating structures of dimension 2-4 mostly fail
    identities 5 and 6, and order 1 of a series whose t coefficients are
    the brackets of another such structure is no cocycle: the scan of
    x < y < z finds the full scan's first failing tuple in both cases."""
    rng = random.Random(4108)
    failures = {5: 0, 6: 0}
    for draw in range(120):
        dim = 2 + draw % 3
        a, b = _random_structure(rng, dim), _random_structure(rng, dim)
        f1, g1 = (Cochain(n, dim, t.fractions(dim)) for n, t in zip((2, 3), brackets(b)))
        expected = reference_failures(a, (f1,), (g1,), (0, 1), (5, 6))
        for k in (5, 6):
            assert first_failure(a, k) == expected[k, 0], (draw, k)
            assert scanned_first_failure(a, k, coefficient(a, k, 1, (f1,), (g1,))) == expected[k, 1], (draw, k)
        for (k, _), w in expected.items():
            failures[k] += w is not None
    assert failures[5] > 80 and failures[6] > 80, failures


def test_a_second_verification_analyses_no_term(monkeypatch):
    """The analyses of one algebra are built by its first verify_deformation;
    a second, on another series of the same order, analyses no term."""
    base = sl2()
    a = make_algebra(base.dim, *dense(base), name="sl2_analyses")
    analysed = []
    original = algebra._analysed

    def counted(b, terms):
        analysed.append(b)
        return original(b, terms)

    monkeypatch.setattr(algebra, "_analysed", counted)
    rng = random.Random(4109)
    first, second = (apply_gauge(null_deformation(a, 3), random_gauge(a, 3, rng)) for _ in range(2))
    assert verify_deformation(first).ok
    assert analysed and all(b is a for b in analysed)
    analysed.clear()
    assert verify_deformation(second).ok and verify_deformation(first).ok
    assert analysed == []
