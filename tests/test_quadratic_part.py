"""The deformation equations as a linear part plus a quadratic part.

Above order 0, equation k of 5-8 at order n is evaluated as
L_k(f_n, g_n) + Q_{k,n}: L_k is the codomain block of d2 or delta2,
applied to the coordinates of (f_n, g_n), and Q_{k,n} the contraction of
the orders 1..n-1 alone.  The full t^n contraction of ``first_failure`` is
the oracle: every (equation, order) of ``_failures_from`` and every
outcome of ``second_order_probe`` must match it, witness for witness.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hlya import deformation
from hlya.algebra import IDENTITIES, _plan, bracket_series, first_failure, from_lie_algebra, identity_values
from hlya.coboundary import d2, delta2, linear_part
from hlya.cochain import Cochain, build_cochain_space
from hlya.cohomology import pair_coords, pair_from_coords
from hlya.deformation import (
    Deformation,
    ProbeReport,
    apply_gauge,
    null_deformation,
    random_gauge,
    second_order_probe,
    solve_second_order,
    verify_deformation,
)
from hlya.errors import PreconditionError
from hlya.exactlin import kernel_basis, rat, vstack
from hlya.samples import random_verified_algebras

ORDER = 3


def _oracle(d, start=0):
    """Every identity at the orders start..N as the full t^n contraction."""
    fs, gs = bracket_series(d.base, d.f_seq[1:], d.g_seq[1:])
    return {(k, n): first_failure(d.base, k, n, fs, gs) for n in range(start, d.order + 1) for k in IDENTITIES}


def _random_cochain(a, arity, rng):
    space = build_cochain_space(a, arity)
    return space.from_coords([rat(rng.randint(-2, 2)) for _ in range(space.dim)])


def _algebras(bundled, twisted_algebras):
    twist = twisted_algebras[1]
    assert twist.name == "sl2_twist_7_11"
    return [*bundled, twist, *random_verified_algebras(12345, 10)]


def test_failures_from_matches_the_full_contraction(bundled, twisted_algebras):
    """On gauged null deformations of order 3, and on the same with a
    random cochain added at order n = 1, 2 or 3, _failures_from equals the
    full contraction at every (equation, order), key for key and in
    order, from every start order; so it does on random series in g alone
    and in f alone, whose quadratic parts bind one bracket's tables."""
    rng = random.Random(3801)
    outcomes = {True: 0, False: 0}
    for a in _algebras(bundled, twisted_algebras):
        gauged = apply_gauge(null_deformation(a, ORDER), random_gauge(a, ORDER, rng))
        series = [gauged]
        for n in range(1, ORDER + 1):
            f_seq, g_seq = list(gauged.f_seq), list(gauged.g_seq)
            f_seq[n] = f_seq[n].add(_random_cochain(a, 2, rng))
            if rng.random() < 0.5:
                g_seq[n] = g_seq[n].add(_random_cochain(a, 3, rng))
            series.append(Deformation(a, ORDER, f_seq, g_seq))
        f0, g0 = gauged.f_seq[0], gauged.g_seq[0]
        zeros = [Cochain.zero(2, a.dim)] * ORDER, [Cochain.zero(3, a.dim)] * ORDER
        g_alone = [_random_cochain(a, 3, rng) for _ in range(ORDER)]
        f_alone = [_random_cochain(a, 2, rng) for _ in range(ORDER)]
        series.append(Deformation(a, ORDER, [f0, *zeros[0]], [g0, *g_alone]))
        series.append(Deformation(a, ORDER, [f0, *f_alone], [g0, *zeros[1]]))
        for d in series:
            got = deformation._failures_from(d, 0, ORDER)
            assert list(got.items()) == list(_oracle(d).items()), a.name
            for start in range(1, ORDER + 1):
                assert deformation._failures_from(d, start, ORDER) == _oracle(d, start), (a.name, start)
            outcomes[verify_deformation(d).ok] += 1
    assert outcomes[True] >= 15 and outcomes[False] >= 20, outcomes


def _full_probe(a, f1, g1, f2, g2):
    """5'-8' as full t^2 contractions: the precondition error when 7' or
    8' fails, else the report."""
    fs, gs = bracket_series(a, (f1, f2), (g1, g2))
    full = {k: first_failure(a, k, 2, fs, gs) for k in (5, 6, 7, 8)}
    if full[7] or full[8]:
        return PreconditionError
    return ProbeReport(full)


def _probe(a, f1, g1, f2, g2):
    try:
        return second_order_probe(a, f1, g1, f2, g2)
    except PreconditionError:
        return PreconditionError


def _combination(basis, rng):
    coeffs = [rat(rng.randint(-2, 2)) for _ in range(basis.cols)]
    return [sum(c * x for c, x in zip(coeffs, row)) for row in basis.data]


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
    element of ker delta2 outside ker d2 matches the full t^2
    contractions: the same rejection, or the same report.  Candidates of
    every kind are met: rejected by 7'/8', accepted with 5'-8' holding,
    and accepted but broken in 5'/6' only."""
    rng = random.Random(3802)
    seen = {"rejected": 0, "accepted": 0, "broken in 5'/6' only": 0}
    for a in [*_algebras(bundled, twisted_algebras), _heisenberg()]:
        # 7'/8' are read at the scan tuples of identities 7 and 8, the
        # representative tuples of C4 and C5 that fix (F, G)
        assert [_plan(a, k, 0).scan for k in (7, 8)] == [s.rep_tuples for s in delta2(a).codomain]
        z = kernel_basis(vstack(delta2(a).matrix, d2(a).matrix)).basis
        kernel = kernel_basis(delta2(a).matrix).basis
        outside = [kernel.column(j) for j in range(kernel.cols) if any(d2(a).matrix.apply(kernel.column(j)))]
        cocycles = [_combination(z, rng) for _ in range(2)] + [z.column(rng.randrange(z.cols)) for _ in range(2)]
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
    the coordinates of (f, g): at every scan tuple through the kept rows
    of forms, and at every basis tuple through the bound linear part."""
    a = data.draw(st.sampled_from([*bundled, *twisted_algebras[:3]]))
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.sampled_from((5, 6, 7, 8)))
    numerators = data.draw(st.lists(st.integers(-3, 3), min_size=40, max_size=40))
    denominators = data.draw(st.lists(st.integers(1, 3), min_size=40, max_size=40))
    f, g = _pair(a, numerators, denominators)
    zeros = [Cochain.zero(2, a.dim)] * (n - 1), [Cochain.zero(3, a.dim)] * (n - 1)
    fs, gs = bracket_series(a, (*zeros[0], f), (*zeros[1], g))
    coefficient = identity_values(a, k, n, fs, gs)
    value = coefficient.probe()
    coords = pair_coords(a, f, g)

    def expected(forms, den):
        out = {}
        for j, c, u in forms:
            out[j] = out.get(j, 0) + Fraction(c, den) * coords[u]
        return {j: x for j, x in out.items() if x}

    def got(idx):
        return {j: Fraction(x, coefficient.den) for j, x in value(idx).items()}

    den, rows = deformation._linear_forms(a, k)
    for idx, forms in rows:
        assert got(idx) == expected([(j, c, u) for j, terms in forms for u, c in terms], den), (a.name, k, n, idx)
    generic = linear_part(a, k)
    probe = generic.probe()
    for idx in itertools.product(range(a.dim), repeat=IDENTITIES[k].arity):
        forms = [(j, c, u) for (j, u), c in probe(idx).items()]
        assert got(idx) == expected(forms, generic.den), (a.name, k, n, idx)
