"""Truncated deformations, gauges, trivialization, and obstructions."""

import itertools
import random

import pytest

from hlya.algebra import algebra_from_sparse, check_axioms, from_lie_algebra
from hlya.coboundary import apply_operator, d2, delta2
from hlya.cochain import Cochain, build_cochain_space, cochain_to_matrix, identity_cochain, matrix_to_cochain
from hlya.deformation import (
    Deformation,
    Gauge,
    alpha_commutant_basis,
    apply_gauge,
    bracket_cochain,
    compose_gauges,
    first_order_deformation,
    identity_gauge,
    infinitesimal,
    inverse_gauge,
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
from hlya import algebra, deformation
from hlya.errors import (
    ArityError,
    BaseMismatchError,
    DimMismatchError,
    NotCocycleError,
    NotInZ2Z3Error,
    PreconditionError,
)
from hlya.cohomology import cohomology_report, is_coboundary_2, is_cocycle_2
from hlya.exactlin import Matrix, kernel_basis, rat, unflatten, vstack
from hlya.samples import random_verified_algebras

from fraction_reference import dense, pair_from_coords


def _cocycle_pair(a, coeffs):
    """Combine kernel basis vectors of the stacked degree-2 operators."""
    z = kernel_basis(vstack(delta2(a).matrix, d2(a).matrix))
    assert len(coeffs) == z.dim
    coords = [
        sum(rat(c) * z.basis.data[r][j] for j, c in enumerate(coeffs))
        for r in range(z.basis.rows)
    ]
    c2 = build_cochain_space(a, 2)
    c3 = build_cochain_space(a, 3)
    return c2.from_coords(coords[: c2.dim]), c3.from_coords(coords[c2.dim :])


def _aff_on_abelian():
    # deform the abelian algebra by the aff(1) bracket at first order
    return Cochain(2, 2, {(0, 1): (1, 0), (1, 0): (-1, 0)})


# --- the deformation equations --------------------------------------------


def test_null_deformation_verifies(bundled):
    for a in bundled:
        assert verify_deformation(null_deformation(a, 3)).ok


def test_a_deformation_cannot_change_the_shared_base_brackets(e2):
    """Every deformation holds the memoised base brackets as its order-0
    coefficients; their tables are read only, so the memo stays intact."""
    d = null_deformation(e2, 1)
    assert d.f_seq[0] is bracket_cochain(e2) and d.g_seq[0] is ternary_cochain(e2)
    with pytest.raises(AttributeError):
        d.f_seq[0].table.clear()
    with pytest.raises(TypeError):
        d.g_seq[0].table[(0, 1, 0)] = (0,) * e2.dim
    binary = {(i, j): dense(e2)[0][i][j] for i in range(e2.dim) for j in range(e2.dim)}
    assert bracket_cochain(e2) == Cochain(2, e2.dim, binary)
    assert not bracket_cochain(e2).is_zero()
    assert verify_deformation(null_deformation(e2, 1)).ok


def test_memoised_cochains_cannot_be_rebound(e2):
    """No attribute of a Cochain can be set or deleted, so the memoised base
    brackets and a space's cached basis keep their values."""
    space = build_cochain_space(e2, 2)
    shared = [bracket_cochain(e2), ternary_cochain(e2), space.basis_cochains[0]]
    kept = [(c.arity, c.dim, dict(c.table)) for c in shared]
    for c in shared:
        for name, value in (("table", {}), ("arity", 5), ("dim", 0), ("extra", 1)):
            with pytest.raises(AttributeError):
                setattr(c, name, value)
            with pytest.raises(AttributeError):
                delattr(c, name)
    assert [(c.arity, c.dim, dict(c.table)) for c in shared] == kept
    assert bracket_cochain(e2) is shared[0] and not shared[0].is_zero()
    assert verify_deformation(null_deformation(e2, 1)).ok


def test_base_cochains_equal_the_structure_tensors(bundled):
    for a in [*bundled, *random_verified_algebras(12345, 20)]:
        pairs = itertools.product(range(a.dim), repeat=2)
        triples = itertools.product(range(a.dim), repeat=3)
        binary, ternary, _ = dense(a)
        assert bracket_cochain(a) == Cochain(2, a.dim, {(i, j): binary[i][j] for i, j in pairs})
        assert ternary_cochain(a) == Cochain(3, a.dim, {(i, j, k): ternary[i][j][k] for i, j, k in triples})


def test_order_zero_reproduces_axiom_checker():
    bad = algebra_from_sparse(
        2, {(0, 1): (1, 0)}, {(0, 1, 0): (0, 1)}, [[1, 0], [0, 1]]
    )
    axiom_report = check_axioms(bad)
    assert not axiom_report.all_passed
    deform_report = verify_deformation(null_deformation(bad, 0))
    failing_eqs = sorted(eq for (eq, n) in deform_report.failing())
    assert failing_eqs == axiom_report.failing()


def test_linear_deformation_of_abelian(e0):
    # the aff(1) bracket deforms the abelian algebra to every order: all
    # higher convolution terms vanish because the base brackets are zero
    d = first_order_deformation(e0, _aff_on_abelian(), Cochain.zero(3, 2), order=2)
    report = verify_deformation(d)
    assert report.ok
    assert report.ok_through(1)


def test_infinitesimal_is_a_cocycle(e1):
    f1, g1 = _cocycle_pair(e1, [1, -2, 1])
    d = first_order_deformation(e1, f1, g1)
    assert infinitesimal(d) == (f1, g1)
    with pytest.raises(PreconditionError):
        infinitesimal(null_deformation(e1, 0))


def test_infinitesimal_evaluates_orders_0_and_1_only(monkeypatch, e1):
    """The equations at orders 2..N do not bear on the first-order pair, so
    they are not evaluated, also when they fail.  Order 0 is the algebra's
    axiom verdict, evaluated once per algebra, so only order 1 is evaluated
    here, as M_T at the coordinates of (f1, g1): they are read once, the
    T vector of equations 5-8 is read once with no quadratic part, and no
    bilinear form is evaluated and no contraction bound, since order 1 has
    no quadratic part (test_representatives.py counts every order)."""
    f1, g1 = _cocycle_pair(e1, [0, -1, 1])  # a pair whose obstruction is nonzero
    d = first_order_deformation(e1, f1, g1, order=3)
    assert not verify_deformation(d).ok_through(2)
    rows, stacked, read, bound = [], [], [], []
    real_row, real_failures = deformation._pair_row, deformation._first_failures
    real_quadratic, real_bound = deformation._quadratic, algebra._bound

    def pair_row(a, f, g):
        rows.append((f, g))
        return real_row(a, f, g)

    def first_failures(system, row, quadratic):
        stacked.append(quadratic[1])
        return real_failures(system, row, quadratic)

    def quadratic(system, p):
        read.append(p)
        return real_quadratic(system, p)

    def bind(tables, analysed):
        bound.append(analysed)
        return real_bound(tables, analysed)

    monkeypatch.setattr(deformation, "_pair_row", pair_row)
    monkeypatch.setattr(deformation, "_first_failures", first_failures)
    monkeypatch.setattr(deformation, "_quadratic", quadratic)
    monkeypatch.setattr(algebra, "_bound", bind)
    assert infinitesimal(d) == (f1, g1)
    assert rows == [(f1, g1)]
    assert stacked == [{}] and read == [] and bound == []


def test_constructor_validation(e0, e1, e3):
    with pytest.raises(PreconditionError):
        Deformation(e0, 1, [bracket_cochain(e0)], [ternary_cochain(e0)] * 2)
    with pytest.raises(PreconditionError):
        # order-0 term must be the base bracket
        Deformation(e0, 0, [_aff_on_abelian()], [ternary_cochain(e0)])
    with pytest.raises(PreconditionError):
        # equivariance-violating coefficient on the twisted algebra
        bad = Cochain(2, 3, {(0, 1): (1, 0, 0), (1, 0): (-1, 0, 0)})
        first_order_deformation(e3, bad, Cochain.zero(3, 3))


# --- gauges ----------------------------------------------------------------


def test_gauge_validation(e0, e3):
    with pytest.raises(PreconditionError, match="order-0 coefficient must be"):
        # a 1-cochain, but not the identity
        Gauge(e0, 1, [matrix_to_cochain(e0, Matrix([[2, 0], [0, 1]])), Cochain.zero(1, 2)])
    with pytest.raises(PreconditionError, match="order 1 is not a cochain: map violates the alpha-equivariance"):
        # a 1-cochain table that does not commute with alpha = diag(1, 2, 2)
        swap = Cochain(1, 3, {(0,): (0, 1, 0), (1,): (1, 0, 0), (2,): (0, 0, 1)})
        Gauge(e3, 1, [identity_cochain(e3), swap])


def test_series_rule_checks_order_and_length(e2):
    """Deformations and gauges share the truncated-series rule: a negative,
    fractional or boolean order and a wrong coefficient count are
    precondition errors."""
    with pytest.raises(PreconditionError, match="^order must be a nonnegative integer, got -1$"):
        Gauge(e2, -1, ())
    with pytest.raises(PreconditionError, match="^order must be a nonnegative integer, got -1$"):
        Deformation(e2, -1, (), ())
    z1, z2, z3 = Cochain.zero(1, 3), Cochain.zero(2, 3), Cochain.zero(3, 3)
    with pytest.raises(PreconditionError, match="got 1.0$"):
        Gauge(e2, 1.0, (identity_cochain(e2), z1))
    with pytest.raises(PreconditionError, match="got 1.0$"):
        Deformation(e2, 1.0, (bracket_cochain(e2), z2), (ternary_cochain(e2), z3))
    with pytest.raises(PreconditionError, match="order\\+1 coefficients"):
        Gauge(e2, 2, (identity_cochain(e2), Cochain.zero(1, 3)))
    # True is an int to isinstance, but a series of order True would be
    # written as "order": true, which the file reader rejects
    for make in (lambda: null_deformation(e2, True), lambda: identity_gauge(e2, True)):
        with pytest.raises(PreconditionError, match="^order must be a nonnegative integer, got True$"):
            make()


_CONSTRUCTORS = {
    "null_deformation": lambda a, order: null_deformation(a, order),
    "first_order_deformation": lambda a, order: first_order_deformation(
        a, Cochain.zero(2, a.dim), Cochain.zero(3, a.dim), order=order
    ),
    "identity_gauge": lambda a, order: identity_gauge(a, order),
    "random_gauge": lambda a, order: random_gauge(a, order, random.Random(1)),
}


@pytest.mark.parametrize("name", sorted(_CONSTRUCTORS))
def test_constructors_check_the_order_before_building_a_series(e2, name):
    """A float, a string or None as the order is the series rule's
    precondition error, raised before any coefficient list is built (list
    repetition and range would raise a bare TypeError); a first-order
    deformation of order 0 is refused for its order, not its length."""
    make = _CONSTRUCTORS[name]
    for order in (2.0, "2", None):
        with pytest.raises(PreconditionError, match=f"^order must be a nonnegative integer, got {order!r}$"):
            make(e2, order)
    if name == "first_order_deformation":
        with pytest.raises(PreconditionError, match="^order must be >= 1 for a first-order term, got 0$"):
            make(e2, 0)
    else:
        assert make(e2, 0).order == 0


def test_series_rule_names_the_cochain_type(e2):
    """A coefficient that is no Cochain at all, at order >= 1 of a
    deformation or a gauge, is a precondition error naming the expected
    type; a gauge coefficient of another arity is an input error."""
    f0, g0, h0 = bracket_cochain(e2), ternary_cochain(e2), identity_cochain(e2)
    z2, z3, z1 = Cochain.zero(2, 3), Cochain.zero(3, 3), Cochain.zero(1, 3)
    for bad, kind in ((None, "NoneType"), (Matrix.identity(3), "Matrix")):
        message = f"^coefficient at order 2 must be a Cochain, got {kind}$"
        for make in (
            lambda: Gauge(e2, 2, (h0, z1, bad)),
            lambda: Deformation(e2, 2, (f0, z2, bad), (g0, z3, z3)),
            lambda: Deformation(e2, 2, (f0, z2, z2), (g0, z3, bad)),
        ):
            with pytest.raises(PreconditionError, match=message):
                make()
    with pytest.raises(ArityError):
        Gauge(e2, 1, (h0, z2))


def test_gauge_group_identities(e1):
    rng = random.Random(21)
    p = random_gauge(e1, 3, rng)
    q = random_gauge(e1, 3, rng)
    r = random_gauge(e1, 3, rng)
    ident = identity_gauge(e1, 3)
    assert compose_gauges(p, inverse_gauge(p)) == ident
    assert compose_gauges(inverse_gauge(p), p) == ident
    assert compose_gauges(p, ident) == p
    assert compose_gauges(compose_gauges(p, q), r) == compose_gauges(
        p, compose_gauges(q, r)
    )


def test_apply_gauge_composition_law(e1):
    rng = random.Random(4)
    d = null_deformation(e1, 2)
    p = random_gauge(e1, 2, rng)
    q = random_gauge(e1, 2, rng)
    assert apply_gauge(apply_gauge(d, p), q) == apply_gauge(d, compose_gauges(p, q))
    assert apply_gauge(d, identity_gauge(e1, 2)) == d


def test_apply_gauge_base_mismatch(e0, e1):
    with pytest.raises(BaseMismatchError):
        apply_gauge(null_deformation(e0, 2), identity_gauge(e1, 2))
    with pytest.raises(BaseMismatchError):
        apply_gauge(null_deformation(e1, 2), identity_gauge(e1, 3))


# --- trivialization --------------------------------------------------------


def test_gauged_null_trivializes_back(e1):
    rng = random.Random(8)
    null = null_deformation(e1, 3)
    p = random_gauge(e1, 3, rng)
    d = apply_gauge(null, p)
    assert verify_deformation(d).ok
    result = trivialize(d)
    assert result.trivial
    assert verify_equivalence(d, null, result.gauge)


def test_the_gauge_action_builds_no_inverse_series(monkeypatch, bundled):
    """apply_gauge, trivialize and verify_equivalence divide the values by
    Phi order by order, so none of them builds Phi^{-1}; inverse_gauge
    alone does."""

    def refused(phi):
        raise AssertionError("_inverse_series called")

    monkeypatch.setattr(deformation, "_inverse_series", refused)
    rng = random.Random(11)
    for a in bundled:
        null = null_deformation(a, 3)
        d = apply_gauge(null, random_gauge(a, 3, rng))
        result = trivialize(d)
        assert result.trivial and verify_equivalence(d, null, result.gauge), a.name
    with pytest.raises(AssertionError, match="_inverse_series called"):
        inverse_gauge(random_gauge(bundled[0], 3, rng))


def _recorded_steps(monkeypatch) -> list:
    """The gauge series trivialize acts with from now on, in order: each
    step reaches the deformation through deformation._act."""
    steps = []
    real_act = deformation._act

    def act(current, phi):
        steps.append(phi)
        return real_act(current, phi)

    monkeypatch.setattr(deformation, "_act", act)
    return steps


def test_trivialize_reads_each_leading_pair_once(monkeypatch, e2):
    # one coordinate row per gauge step serves both the cocycle test and
    # the coboundary solve; every other read is one per order of a
    # verification: orders 1..N of the whole deformation, and again after
    # each step, whose equations at the orders r..N read the orders below
    # r in their quadratic parts.  No cochain read gains a twist: the
    # equations are forms on the rows
    d = apply_gauge(null_deformation(e2, 3), random_gauge(e2, 3, random.Random(9)))
    reads, tested, solved, checked = [], [], [], []
    real_row, real_closed, real_preimage = deformation._pair_row, deformation._closed, deformation._preimage
    real_check = deformation._check_step

    def pair_row(a, f, g):
        row = real_row(a, f, g)
        reads.append(((f, g), row))
        return row

    def closed(a, row):
        tested.append(row)
        return real_closed(a, row)

    def preimage(a, row):
        solved.append(row)
        return real_preimage(a, row)

    def check_step(previous, current, r):
        checked.append(r)
        return real_check(previous, current, r)

    monkeypatch.setattr(deformation, "_pair_row", pair_row)
    monkeypatch.setattr(deformation, "_closed", closed)
    monkeypatch.setattr(deformation, "_preimage", preimage)
    monkeypatch.setattr(deformation, "_check_step", check_step)
    steps = _recorded_steps(monkeypatch)
    assert trivialize(d).trivial
    # each step's cocycle test and solve take the very row of one read
    assert all(c is s for c, s in zip(tested, solved))
    leading = [pair for pair, row in reads if any(row is c for c in tested)]
    assert len(steps) == len(checked) == len(tested) == len(solved) == len(leading) == len(set(leading)) > 1
    assert len(reads) - len(leading) == 3 + 3 * len(checked)
    assert not any(c.ints.twists for pair, _ in reads for c in pair)


def test_trivialize_steps_by_the_preimage_cochain(monkeypatch, e2):
    """Each gauge step id - h t^r takes the 1-cochain h that solves
    delta1(h) = (f_r, g_r), the very object the solve returned: its series
    is the identity, then zero at every order but r, where it is -h, read
    off the integer table h keeps."""
    d = apply_gauge(null_deformation(e2, 3), random_gauge(e2, 3, random.Random(9)))
    preimages = []
    real_preimage = deformation._preimage

    def preimage(a, coords):
        preimages.append(real_preimage(a, coords))
        return preimages[-1]

    monkeypatch.setattr(deformation, "_preimage", preimage)
    steps = _recorded_steps(monkeypatch)
    assert trivialize(d).trivial
    assert len(steps) == len(preimages) > 1
    assert all(isinstance(h, Cochain) and h.arity == 1 for h in preimages)
    c1, identity = build_cochain_space(e2, 1), identity_cochain(e2)
    orders = []
    for phi, h in zip(steps, preimages):
        assert len(phi) == 4 and c1.from_table(phi[0]) == identity
        (r,) = [n for n in range(1, 4) if phi[n]]
        orders.append(r)
        negated = {key: {i: -x for i, x in vec.items()} for key, vec in h.ints.entries.items()}
        assert (phi[r].den, phi[r].entries) == (h.ints.den, negated)
        assert c1.from_table(phi[r]) == h.scale(-1)
    assert orders == sorted(set(orders))


def test_trivialize_reports_obstruction(e0):
    d = first_order_deformation(e0, _aff_on_abelian(), Cochain.zero(3, 2), order=2)
    result = trivialize(d)
    assert not result.trivial
    assert result.obstructed_at == 1
    f_r, g_r = result.representative
    assert f_r == _aff_on_abelian() and g_r.is_zero()


def _rigid_algebras():
    """Heisenberg [e1,e2] = e3 with alpha = diag(2, -2, -4), and the first
    rand_d3_heisenberg draw of seed 12345 with H2 x H3 = 0 (the 22nd)."""
    z = [0, 0, 0]
    bracket = [[z, [0, 0, 1], z], [[0, 0, -1], z, z], [z, z, z]]
    drawn = random_verified_algebras(12345, 22)[-1]
    assert drawn.name == "rand_d3_heisenberg"
    return [from_lie_algebra(bracket, [[2, 0, 0], [0, -2, 0], [0, 0, -4]], name="heisenberg_2_m2_m4"), drawn]


def test_every_deformation_of_a_rigid_algebra_is_trivial():
    """With H2 x H3 = 0 every infinitesimal is a coboundary, so each
    first-order deformation, truncated at any order, is trivial: it
    verifies, and trivialize returns a gauge to the null deformation that
    verify_equivalence accepts."""
    for a in _rigid_algebras():
        dims = cohomology_report(a).dims()
        assert (dims["z2z3"], dims["b2b3"], dims["h2h3"]) == (1, 1, 0), a
        cocycles = cohomology_report(a).level2.cocycles
        for j in range(cocycles.dim):
            f1, g1 = pair_from_coords(a, cocycles.basis.column(j))
            assert not f1.is_zero()
            for order in range(1, 5):
                d = first_order_deformation(a, f1, g1, order)
                assert verify_deformation(d).ok
                result = trivialize(d)
                assert result.trivial, (a, j, order)
                assert verify_equivalence(d, null_deformation(a, order), result.gauge)


def test_trivialize_requires_valid_deformation(e1):
    d = first_order_deformation(e1, _cocycle_pair(e1, [1, 0, 0])[0], Cochain.zero(3, 2))
    # corrupt: drop the ternary coefficient that the equations need
    broken = Deformation(
        e1, 1, [bracket_cochain(e1), _cocycle_pair(e1, [0, 3, 0])[0]],
        [ternary_cochain(e1), Cochain.zero(3, 2)],
    )
    if not verify_deformation(broken).ok:
        with pytest.raises(PreconditionError):
            trivialize(broken)
    else:  # pragma: no cover - the draw happened to satisfy the equations
        trivialize(broken)
    assert verify_deformation(d).ok or True


def test_trivialize_raises_when_a_coefficient_survives(monkeypatch, e3):
    # the order-2 gauge step brings the order-1 coefficient back as the base
    # bracket: (f0, f0, 0) is a valid deformation, since e3's ternary bracket
    # is zero, and the step still clears order 2, but the step check sees
    # the coefficient below the step's order change
    d = apply_gauge(null_deformation(e3, 2), random_gauge(e3, 2, random.Random(31)))
    real_act = deformation._act
    late_steps = []

    def leaky(current, phi):
        out = real_act(current, phi)
        if phi[1]:
            return out
        late_steps.append(phi)
        f_seq = (out.f_seq[0], bracket_cochain(e3), out.f_seq[2])
        return Deformation(e3, 2, f_seq, out.g_seq)

    monkeypatch.setattr(deformation, "_act", leaky)
    with pytest.raises(NotCocycleError, match="^gauge step at order 2 changed the coefficient at order 1$") as exc:
        trivialize(d)
    assert late_steps
    err = exc.value
    assert (err.step_order, err.changed_order) == (2, 1)
    assert err.equation is None and err.order is None and err.basis_tuple is None


def _step_outcome(previous, current, r):
    try:
        deformation._check_step(previous, current, r)
    except NotCocycleError as exc:
        return exc
    return None


def _first_failure_from(report, r):
    """(order, equation) of the report's first failure at an order >= r,
    lowest order first."""
    return min(((n, eq) for eq, n in report.failing() if n >= r), default=None)


def test_each_step_check_agrees_with_the_full_verification(monkeypatch, bundled, twisted_algebras):
    """At every gauge step of seeded round trips at N = 4 the step check
    accepts exactly when verify_deformation accepts the whole result, and
    so it does after the result is changed at any order n >= r: the
    orders below r still hold, and both name the same first failure."""
    steps = []
    real_check = deformation._check_step

    def recorded(previous, current, r):
        steps.append((previous, current, r))
        real_check(previous, current, r)

    monkeypatch.setattr(deformation, "_check_step", recorded)
    rng = random.Random(41)
    for a in [*bundled, twisted_algebras[0]]:
        null = null_deformation(a, 4)
        disguised = apply_gauge(null, random_gauge(a, 4, rng))
        result = trivialize(disguised)
        assert result.trivial and verify_equivalence(disguised, null, result.gauge)
    monkeypatch.undo()
    assert len(steps) >= 12
    compared = {True: 0, False: 0}
    for previous, current, r in steps:
        a = current.base
        assert verify_deformation(current).ok and _step_outcome(previous, current, r) is None
        c2, c3 = build_cochain_space(a, 2), build_cochain_space(a, 3)
        for n in range(r, 5):
            f_seq, g_seq = list(current.f_seq), list(current.g_seq)
            if n % 2:
                f_seq[n] = f_seq[n].add(c2.basis_cochains[0])
            else:
                g_seq[n] = g_seq[n].add(c3.basis_cochains[0])
            changed = Deformation(a, 4, f_seq, g_seq)
            full = verify_deformation(changed)
            assert full.ok_through(r - 1)
            err = _step_outcome(previous, changed, r)
            assert (err is None) == full.ok
            compared[full.ok] += 1
            if err is not None:
                n_first, eq = _first_failure_from(full, r)
                assert (err.step_order, err.equation, err.order) == (r, eq, n_first)
                assert err.basis_tuple == full.failures[(eq, n_first)]
                assert err.changed_order is None
    assert compared[True] and compared[False], compared


@pytest.mark.parametrize("leak_order", [1, 2, 4])
def test_a_step_that_breaks_an_equation_at_or_above_its_order_is_caught(monkeypatch, e2, leak_order):
    # a leaky gauge action adds a non-cocycle to f at an order >= 1 in the
    # first step, at order 1: the equations at that order no longer hold
    d = apply_gauge(null_deformation(e2, 4), random_gauge(e2, 4, random.Random(43)))
    assert not d.f_seq[1].is_zero()
    z3 = Cochain.zero(3, e2.dim)
    bad = next(f for f in build_cochain_space(e2, 2).basis_cochains if not is_cocycle_2(e2, f, z3))
    real_act = deformation._act
    leaked = []

    def leaky(current, phi):
        out = real_act(current, phi)
        f_seq = list(out.f_seq)
        f_seq[leak_order] = f_seq[leak_order].add(bad)
        leaked.append(Deformation(e2, 4, f_seq, out.g_seq))
        return leaked[-1]

    monkeypatch.setattr(deformation, "_act", leaky)
    with pytest.raises(NotCocycleError, match="^gauge step at order 1 broke the deformation equations$") as exc:
        trivialize(d)
    report = verify_deformation(leaked[0])
    n_first, eq = _first_failure_from(report, 1)
    assert n_first == leak_order
    err = exc.value
    assert (err.step_order, err.equation, err.order) == (1, eq, leak_order)
    assert err.basis_tuple == report.failures[(eq, leak_order)]
    assert err.changed_order is None


# --- obstructions ----------------------------------------------------------


def test_obstruction_requires_cocycle(e1):
    c2 = build_cochain_space(e1, 2)
    c3 = build_cochain_space(e1, 3)
    for f in c2.basis_cochains:
        for g in c3.basis_cochains:
            from hlya.cohomology import is_cocycle_2

            if not is_cocycle_2(e1, f, g):
                with pytest.raises(NotInZ2Z3Error):
                    obstruction_pair(e1, f, g)
                with pytest.raises(NotInZ2Z3Error):
                    solve_second_order(e1, f, g)
                with pytest.raises(NotInZ2Z3Error):
                    second_order_probe(e1, f, g, Cochain.zero(2, e1.dim), Cochain.zero(3, e1.dim))
                return
    raise AssertionError("every basis pair was a cocycle; cannot exercise the guard")


def test_non_cochain_inputs_are_input_errors(e1, e2, e3):
    """A non-cochain (f1, g1) is not in Z2 x Z3, and a non-cochain (f2, g2)
    fails the probe's precondition: both are input errors, as for the
    coefficients of a Deformation, and not theorem violations."""
    for a in (e1, e2, e3):
        d = a.dim
        e = tuple(int(i == 0) for i in range(d))
        z2, z3 = Cochain.zero(2, d), Cochain.zero(3, d)
        # nonzero at the diagonal pair (1, 1)
        diagonal = [(Cochain(2, d, {(0, 0): e}), z3), (z2, Cochain(3, d, {(0, 0, 1): e}))]
        for f, g in diagonal:
            for call in (obstruction_pair, solve_second_order):
                with pytest.raises(NotInZ2Z3Error, match="cocycle pair: nonzero value at diagonal"):
                    call(a, f, g)
            with pytest.raises(NotInZ2Z3Error, match="cocycle pair: nonzero value at diagonal"):
                second_order_probe(a, f, g, z2, z3)
            with pytest.raises(PreconditionError, match="order 2 is not a cochain") as exc:
                second_order_probe(a, z2, z3, f, g)
            assert exc.type is PreconditionError
    # antisymmetric, but alpha = diag(1, 2, 2) scales f(e1, e2) = e1 by 2
    # on the arguments and by 1 on the value
    f = Cochain(2, 3, {(0, 1): (1, 0, 0), (1, 0): (-1, 0, 0)})
    with pytest.raises(PreconditionError, match="alpha-equivariance"):
        second_order_probe(e3, Cochain.zero(2, 3), Cochain.zero(3, 3), f, Cochain.zero(3, 3))


def test_cochains_of_another_shape_are_input_errors(e1):
    """On aff1 a 3-cochain passed as f1 or f2, or a 2-cochain on dimension 3
    passed as f2, is an input error."""
    z2, z3 = Cochain.zero(2, 2), Cochain.zero(3, 2)
    triple = Cochain(3, 2, {(0, 1, 0): (1, 0), (1, 0, 0): (-1, 0)})
    with pytest.raises(ArityError):
        second_order_probe(e1, z2, z3, triple, z3)
    for f1 in (triple, Cochain.zero(3, 2)):
        for call in (obstruction_pair, solve_second_order):
            with pytest.raises(ArityError):
                call(e1, f1, z3)
        with pytest.raises(ArityError):
            second_order_probe(e1, f1, z3, z2, z3)
    with pytest.raises(DimMismatchError):
        second_order_probe(e1, z2, z3, Cochain.zero(2, 3), z3)
    with pytest.raises(ArityError):
        first_order_deformation(e1, Cochain.zero(3, 2), z3)


_NOT_COCHAIN_CALLS = {
    "is_cocycle_2": (lambda a, x: is_cocycle_2(a, x, x), PreconditionError, "pair component 1"),
    "is_cocycle_2_g": (lambda a, x: is_cocycle_2(a, Cochain.zero(2, a.dim), x), PreconditionError, "pair component 2"),
    "is_coboundary_2": (lambda a, x: is_coboundary_2(a, (x, x)), PreconditionError, "pair component 1"),
    "obstruction_pair": (lambda a, x: obstruction_pair(a, x, x), NotInZ2Z3Error, "pair component 1"),
    "solve_second_order": (lambda a, x: solve_second_order(a, x, x), NotInZ2Z3Error, "pair component 1"),
    "second_order_probe": (
        lambda a, x: second_order_probe(a, x, x, Cochain.zero(2, a.dim), Cochain.zero(3, a.dim)),
        NotInZ2Z3Error,
        "pair component 1",
    ),
    "apply_operator": (lambda a, x: apply_operator(a, "1", x), PreconditionError, "delta1 argument 1"),
}


@pytest.mark.parametrize("value", [None, {}], ids=["None", "dict"])
@pytest.mark.parametrize("entry", sorted(_NOT_COCHAIN_CALLS))
def test_an_argument_that_is_not_a_cochain_is_a_precondition_error(e1, entry, value):
    """None or a dict where a cochain is due raises PreconditionError, or
    NotInZ2Z3Error for the second-order trio, naming the argument and its
    type, before any attribute of it is read."""
    call, error, what = _NOT_COCHAIN_CALLS[entry]
    with pytest.raises(PreconditionError) as info:
        call(e1, value)
    assert info.type is error
    assert f"{what} must be a Cochain, got {type(value).__name__}" in str(info.value)


def test_obstruction_sign_convention(e1):
    """The second-order term must satisfy delta2(f2, g2) = +(F, G); the
    opposite-sign candidate is rejected by the probe's precondition."""
    f1, g1 = _cocycle_pair(e1, [0, -1, 1])
    pair = obstruction_pair(e1, f1, g1)
    assert not (pair.first.is_zero() and pair.second.is_zero())
    assert pair.in_z4z5
    solved = solve_second_order(e1, f1, g1)
    assert solved is not None
    f2, g2 = solved
    probe = second_order_probe(e1, f1, g1, f2, g2)
    assert probe.failures[7] is None and probe.failures[8] is None
    with pytest.raises(PreconditionError):
        second_order_probe(e1, f1, g1, f2.scale(rat(-1)), g2.scale(rat(-1)))


def test_unobstructed_pair_on_abelian(e0):
    # a pure binary first-order term on the abelian base has zero
    # obstruction, and the zero second-order term closes the extension
    f1 = _aff_on_abelian()
    g1 = Cochain.zero(3, 2)
    pair = obstruction_pair(e0, f1, g1)
    assert pair.first.is_zero() and pair.second.is_zero()
    assert pair.in_z4z5
    probe = second_order_probe(e0, f1, g1, Cochain.zero(2, 2), Cochain.zero(3, 2))
    assert probe.extension_closes


def test_obstructed_pair_on_abelian(e0):
    # on the abelian base delta2 vanishes, so any nonzero obstruction pair
    # admits no second-order solution
    c3 = build_cochain_space(e0, 3)
    for g in c3.basis_cochains:
        pair = obstruction_pair(e0, Cochain.zero(2, 2), g)
        if not (pair.first.is_zero() and pair.second.is_zero()):
            assert solve_second_order(e0, Cochain.zero(2, 2), g) is None
            return
    pytest.skip("no basis 3-cochain with nonzero quadratic pair on this base")


def test_alpha_commutant_basis_is_the_commutant(bundled, twisted_algebras):
    from fraction_reference import commutant_rows

    for a in [*bundled, *twisted_algebras, *random_verified_algebras(12345, 20)]:
        kernel = kernel_basis(Matrix(commutant_rows(a)))
        expected = tuple(matrix_to_cochain(a, unflatten(row, a.dim)) for row in kernel.basis.column_rows())
        assert alpha_commutant_basis(a) == expected, a.name


def test_single_step_gauge_shape(e1):
    h = matrix_to_cochain(e1, Matrix([[1, 0], [0, 0]]))
    c1, identity = build_cochain_space(e1, 1), identity_cochain(e1)
    p = deformation._single_step(identity.ints, 3, h, 2)
    assert len(p) == 4 and c1.from_table(p[0]) == identity
    assert cochain_to_matrix(e1, c1.from_table(p[2])) == Matrix([[-1, 0], [0, 0]])
    assert not p[1] and not p[3]
    with pytest.raises(PreconditionError):
        deformation._single_step(identity.ints, 3, h, 0)


def test_single_step_gauge_refuses_a_boolean_step(e2):
    # True passed 1 <= r <= order and built id - h t
    identity = identity_cochain(e2)
    with pytest.raises(PreconditionError, match="^step exponent must be an integer with 1 <= r <= order, got True$"):
        deformation._single_step(identity.ints, 2, identity, True)
