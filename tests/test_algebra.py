"""Structure constants, bracket evaluation, and the eight-identity checker."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlya.algebra import (
    algebra_from_sparse,
    check_axioms,
    eval_binary,
    eval_ternary,
    from_lie_algebra,
    from_lya_standard,
    is_endomorphism,
    make_algebra,
    yau_twist,
)
from hlya.errors import AxiomError, DimMismatchError, NotHomLieError, NotMorphismError
from hlya.exactlin import Matrix, rat


def test_bundled_algebras_pass_all_axioms(bundled):
    for a in bundled:
        report = check_axioms(a)
        assert report.all_passed, (a.name, report.failing())


def test_eval_binary_aff1(e1):
    # [e1, e2] = e1
    assert eval_binary(e1, (1, 0), (0, 1)) == (rat(1), rat(0))
    assert eval_binary(e1, (1, 1), (1, 1)) == (rat(0), rat(0))


def test_eval_binary_abelian_and_diagonal(e0, e2):
    assert eval_binary(e0, (3, 5), (-2, 7)) == (rat(0), rat(0))
    v = (rat(2), rat(-1), rat(3))
    assert eval_binary(e2, v, v) == (rat(0), rat(0), rat(0))


def test_eval_ternary_matches_iterated_binary(e1):
    # the bundled ternary bracket is {x y z} = [[x, y], z]
    x, y, z = (1, 0), (0, 1), (0, 1)
    inner = eval_binary(e1, x, y)
    assert eval_ternary(e1, x, y, z) == eval_binary(e1, inner, z)
    assert eval_ternary(e1, x, y, z) == (rat(1), rat(0))


def test_eval_dim_mismatch(e1):
    with pytest.raises(DimMismatchError):
        eval_binary(e1, (1, 0, 0), (0, 1))


def test_make_algebra_rejects_non_antisymmetric():
    b = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]  # [e2,e1] should be -[e1,e2]
    t = [[[[0, 0]] * 2] * 2] * 2
    with pytest.raises(AxiomError):
        make_algebra(2, b, t, [[1, 0], [0, 1]])


def test_make_algebra_refuses_float_and_bool_entries():
    # a float alpha of 0.1 would be the binary fraction 3602879701896397/2**55
    with pytest.raises(TypeError):
        make_algebra(1, [[[0]]], [[[[0]]]], [[0.1]])
    with pytest.raises(TypeError):
        make_algebra(1, [[[0]]], [[[[0]]]], [[True]])
    assert make_algebra(1, [[[0]]], [[[[0]]]], [["1/10"]]).alpha == ((Fraction(1, 10),),)


def test_corrupted_ternary_fails_leibniz_identities(e1):
    # put {e1 e2 e1} = e2 on top of the aff(1) bracket: identities 7/8 break
    bad = algebra_from_sparse(
        2,
        {(0, 1): (1, 0)},
        {(0, 1, 0): (0, 1)},
        [[1, 0], [0, 1]],
    )
    report = check_axioms(bad)
    assert not report.all_passed
    assert set(report.failing()) & {5, 7, 8}
    for axiom in report.failing():
        assert report.counterexamples[axiom]  # a 1-based witness tuple


def test_jacobi_violation_raises_not_hom_lie():
    bracket = [
        [[0, 0, 0], [0, 0, 1], [-1, 0, 0]],
        [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
        [[1, 0, 0], [-1, 0, 0], [0, 0, 0]],
    ]
    # [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e1 -- the cyclic sum does not vanish
    with pytest.raises(NotHomLieError):
        from_lie_algebra(bracket, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_from_lya_standard_rejects_non_lie():
    bracket = [
        [[0, 0, 0], [0, 0, 1], [-1, 0, 0]],
        [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
        [[1, 0, 0], [-1, 0, 0], [0, 0, 0]],
    ]
    with pytest.raises(AxiomError):
        from_lya_standard(bracket)


def test_yau_twist_by_endomorphism(e2):
    beta = Matrix([[1, 0, 0], [0, 2, 0], [0, 0, rat("1/2")]])
    assert is_endomorphism(e2, beta)
    twisted = yau_twist(e2, beta)
    assert check_axioms(twisted).all_passed
    assert twisted.alpha_matrix() == beta


def test_is_endomorphism_rejects_maps_of_the_wrong_shape(e0, e2):
    for a, beta in ((e0, Matrix.identity(5)), (e2, Matrix.zeros(7, 7)), (e2, Matrix.zeros(3, 2))):
        with pytest.raises(DimMismatchError):
            is_endomorphism(a, beta)


def test_yau_twist_rejects_non_endomorphism(e2):
    beta = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(NotMorphismError):
        yau_twist(e2, beta)


def test_yau_twist_requires_untwisted_base(e3):
    with pytest.raises(NotMorphismError):
        yau_twist(e3, e3.alpha_matrix())


def test_basis_verdict_extends_to_random_vectors(e1, e2):
    """Multilinearity: identities verified on basis tuples hold on any vectors."""
    rng = random.Random(9)

    def rv(d):
        return tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d))

    for a in (e1, e2):
        d = a.dim
        for _ in range(20):
            x, y, z = rv(d), rv(d), rv(d)
            # cyclic identity linking the two brackets (basis check said: holds)
            acc = [Fraction(0)] * d
            for p, q, r in ((x, y, z), (y, z, x), (z, x, y)):
                az = tuple(sum(rat(a.alpha[i][j]) * r[j] for j in range(d)) for i in range(d))
                term1 = eval_binary(a, eval_binary(a, p, q), az)
                term2 = eval_ternary(a, p, q, r)
                acc = [s + t1 + t2 for s, t1, t2 in zip(acc, term1, term2)]
            assert all(v == 0 for v in acc)


_coeff = st.integers(min_value=-4, max_value=4)
_vec2 = st.tuples(_coeff, _coeff)


@given(_vec2, _vec2, _vec2, _coeff)
@settings(max_examples=50, deadline=None)
def test_eval_binary_is_bilinear(x, y, z, c):
    from hlya.samples import aff1

    a = aff1()
    left = eval_binary(a, tuple(c * xi + yi for xi, yi in zip(x, y)), z)
    right = tuple(
        c * p + q for p, q in zip(eval_binary(a, x, z), eval_binary(a, y, z))
    )
    assert left == right
