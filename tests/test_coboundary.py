"""Coboundary operators: closed-form values, compositions, well-definedness."""

import random

import pytest

from hlya.coboundary import (
    DELTA3,
    _hat_terms,
    apply_operator,
    d2,
    delta1,
    delta2,
    delta3,
    operator_by_level,
    verify_well_definedness,
)
from hlya.cochain import Cochain, build_cochain_space, matrix_to_cochain
from hlya.deformation import bracket_cochain, ternary_cochain
from hlya.errors import ArityError, DimMismatchError, PreconditionError
from hlya.exactlin import Matrix, rat


def test_all_operators_vanish_on_abelian(e0):
    # zero brackets kill every term of every formula
    for level in ("1", "2", "d2", "3"):
        assert operator_by_level(e0, level).matrix.is_zero()


def test_operator_shapes(bundled):
    for a in bundled:
        for level, dom, cod in (
            ("1", (1,), (2, 3)),
            ("2", (2, 3), (4, 5)),
            ("3", (4, 5), (6, 7)),
        ):
            op = operator_by_level(a, level)
            assert tuple(s.arity for s in op.domain) == dom
            assert tuple(s.arity for s in op.codomain) == cod
            assert op.matrix.rows == sum(s.dim for s in op.codomain)
            assert op.matrix.cols == op.domain_dim


def test_delta1_of_identity_map(e1):
    # h = id: the binary defect collapses to [x,y] and the ternary one to 2{xyz}
    h = matrix_to_cochain(e1, Matrix.identity(e1.dim))
    comp_i, comp_ii = apply_operator(e1, "1", h)
    assert comp_i == bracket_cochain(e1)
    assert comp_ii == ternary_cochain(e1).scale(rat(2))


def test_inner_derivation_is_delta1_kernel(e2):
    # ad_h on sl2 (basis h, e, f): diag(0, 2, -2) commutes with both brackets
    ad_h = matrix_to_cochain(e2, Matrix([[0, 0, 0], [0, 2, 0], [0, 0, -2]]))
    comp_i, comp_ii = apply_operator(e2, "1", ad_h)
    assert comp_i.is_zero() and comp_ii.is_zero()
    c1 = build_cochain_space(e2, 1)
    assert not any(delta1(e2).matrix.apply(c1.coords(ad_h)))


def test_compositions_vanish(bundled):
    for a in bundled:
        first = delta1(a).matrix
        assert delta2(a).matrix.matmul(first).is_zero(), a.name
        assert d2(a).matrix.matmul(first).is_zero(), a.name
        assert delta3(a).matrix.matmul(delta2(a).matrix).is_zero(), a.name


def test_matrix_agrees_with_direct_formula(e1):
    # linearity: pushing random coordinates through the matrix must match
    # tabulating the formulas on the corresponding cochain pair
    rng = random.Random(3)
    c2 = build_cochain_space(e1, 2)
    c3 = build_cochain_space(e1, 3)
    c4 = build_cochain_space(e1, 4)
    c5 = build_cochain_space(e1, 5)
    for _ in range(5):
        coords = [rat(rng.randint(-3, 3)) for _ in range(c2.dim + c3.dim)]
        f = c2.from_coords(coords[: c2.dim])
        g = c3.from_coords(coords[c2.dim :])
        out_f, out_g = apply_operator(e1, "2", f, g)
        expected = delta2(e1).matrix.apply(coords)
        assert c4.coords(out_f) + c5.coords(out_g) == expected


def _hat_term(name, arity, dropped, i):
    """The hat term of the pair at 0-based slots ``dropped`` with the triple at slot i."""
    return next(
        args
        for sign, outer, args in _hat_terms(name, arity)
        if any(arg[0] == "tr" and arg[1:] == (*dropped, i) for arg in args)
    )


def _surgery(args, base, replacement):
    return [replacement if arg[0] == "tr" else base[arg[1]] for arg in args]


def test_hat_args_surgery():
    base = ["a", "b", "c", "d", "e", "f"]
    # drop the first pair, substitute at original slot 5 (1-based)
    args = _hat_term("f", 6, (0, 1), 4)
    assert _surgery(args, base, "X") == ["c", "d", "X", "f"]
    # drop the second pair, substitute at original slot 6
    args = _hat_term("f", 6, (2, 3), 5)
    assert _surgery(args, base, "Y") == ["a", "b", "e", "Y"]
    # alpha^2 on every slot but the triple's
    assert all(arg[0] == 2 for arg in args if arg[0] != "tr")


def test_hat_terms_signs_and_count():
    # sum_k sum_{i=2k+1}^{n} (-1)^k: 4 + 2 terms over 6 slots, 5 + 3 + 1 over 7
    for name, arity, counts in (("f", 6, {-1: 4, 1: 2}), ("g", 7, {-1: 5 + 1, 1: 3})):
        terms = _hat_terms(name, arity)
        assert {sign: sum(1 for t in terms if t[0] == sign) for sign in (-1, 1)} == counts
        assert all(outer == name and len(args) == arity - 2 for _, outer, args in terms)
        assert set(terms) <= set(DELTA3[arity - 6])


def test_second_cyclic_image_not_alternating_in_trailing_pair(e2):
    """The second component of the degree-2 cyclic-identity operator maps
    some 2-cochains outside the fully alternating 4-cochain space: on sl2
    with f(e1,e2) = e1 the image takes the value -4 e3 at (e1,e2,e3,e1) but
    0 at (e1,e2,e1,e3).  Its codomain is therefore the one-pair space."""
    f = Cochain(2, 3, {(0, 1): (1, 0, 0), (1, 0): (-1, 0, 0)})
    g = Cochain.zero(3, 3)
    _, second = apply_operator(e2, "d2", f, g)
    assert second.value((0, 1, 2, 0)) == (rat(0), rat(0), rat(-4))
    assert second.value((0, 1, 0, 2)) == (rat(0), rat(0), rat(0))
    w4 = build_cochain_space(e2, 4, pairs=1)
    c4 = build_cochain_space(e2, 4)
    assert w4.contains(second)
    assert not c4.contains(second)


def test_d2_second_codomain_is_one_pair_space(bundled):
    for a in bundled:
        op = d2(a)
        assert [s.arity for s in op.codomain] == [3, 4]
        assert op.codomain[1].pairs == 1


def test_cyclic_g_sum_on_abelian(e0):
    # with zero brackets the first cyclic component reduces to the plain
    # cyclic sum of g; for dim 2 every triple has a repeat, so it vanishes
    c3 = build_cochain_space(e0, 3)
    for g in c3.basis_cochains:
        first, second = apply_operator(e0, "d2", Cochain.zero(2, 2), g)
        assert first.is_zero() and second.is_zero()


def test_well_definedness_audit_small(e0, e1):
    # the full-tabulation audit on the cheap algebras; the acceptance suite
    # runs it across the whole bundle
    for a in (e0, e1):
        for level in ("1", "2", "d2", "3"):
            op = operator_by_level(a, level)
            assert verify_well_definedness(a, level) == sum(s.dim for s in op.domain)


def test_well_definedness_rejects_unknown_level(e0):
    with pytest.raises(KeyError):
        operator_by_level(e0, "5")


def test_every_level_lookup_names_the_levels(e2):
    """An unknown level is the same KeyError, naming the known levels, for
    the operator, the audit and the direct application."""
    h = build_cochain_space(e2, 1).basis_cochains[0]
    message = "unknown operator level 'x'; choose from ['1', '2', '3', 'd2']"
    for call in (
        lambda: operator_by_level(e2, "x"),
        lambda: verify_well_definedness(e2, "x"),
        lambda: apply_operator(e2, "x", h),
    ):
        with pytest.raises(KeyError) as exc:
            call()
        assert exc.value.args == (message,)


@pytest.mark.parametrize(
    "level, arities, error",
    [
        ("3", (4,), ArityError),  # no g: it would be read as zero
        ("1", (1, 1), ArityError),  # the second cochain would be ignored
        ("1", (4,), ArityError),  # a 4-cochain read as the h of delta1
        ("3", (1, 1), ArityError),  # 1-cochains where f and g belong
        ("1", ("aff1",), DimMismatchError),  # a 1-cochain of the dimension-2 algebra
    ],
    ids=["missing-g", "extra-cochain", "wrong-arity", "arities-1-1", "wrong-dimension"],
)
def test_apply_operator_checks_its_cochains(e1, e2, level, arities, error):
    """The cochains must be the level's domain on sl2: their count, each
    arity and each dimension are checked before any formula runs."""
    cochains = [
        build_cochain_space(e1, 1).basis_cochains[0] if n == "aff1" else build_cochain_space(e2, n).basis_cochains[0]
        for n in arities
    ]
    with pytest.raises(error):
        apply_operator(e2, level, *cochains)


def test_apply_operator_refuses_maps_outside_its_domain(e3):
    """On heisenberg_twisted, alpha = diag(1, 2, 2), so neither e3 -> e1 nor
    e1 -> e2 commutes with alpha: neither is in C1.  Both are the caller's
    bad input, not images that broke the well-definedness theorem."""
    c1 = build_cochain_space(e3, 1)
    for h in (Cochain(1, 3, {(2,): (1, 0, 0)}), Cochain(1, 3, {(0,): (0, 1, 0)})):
        assert not c1.contains(h)
        with pytest.raises(PreconditionError, match="^delta1 argument 1, a 1-cochain, is not in C1: "):
            apply_operator(e3, "1", h)
