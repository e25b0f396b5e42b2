"""Structure constants, bracket evaluation, and the eight-identity checker."""

import hashlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hlya import serialize
from hlya.algebra import (
    algebra_from_sparse,
    alpha_table,
    brackets,
    check_axioms,
    eval_binary,
    eval_ternary,
    from_lie_algebra,
    from_lya_standard,
    is_endomorphism,
    make_algebra,
    yau_twist,
)
from hlya.errors import AxiomError, DimMismatchError, NotHomLieError, NotMorphismError, PreconditionError
from hlya.exactlin import Matrix, rat
from hlya.samples import random_verified_algebras

from fraction_reference import dense


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


def _bad_shapes():
    """(binary, ternary, alpha) of dimension 2, each with one level or vector
    of the wrong length; the other tensors are zero or the identity."""
    z = [0, 0]
    zero_b = [[z, z], [z, z]]
    zero_t = [[[z, z], [z, z]], [[z, z], [z, z]]]
    ident = [[1, 0], [0, 1]]
    return [
        ([[z, [1, 0, 5]], [[-1, 0, -5], z]], zero_t, ident),  # a coordinate at index 2
        ([[z, [1]], [[-1], z]], zero_t, ident),  # one-entry vectors
        ([[z, [1, 0]], [[-1, 0], z], [z, z]], zero_t, ident),  # a third row
        (zero_b, [[[z, z], [z, [0, 0, 1]]], [[z, z], [z, z]]], ident),  # a ternary vector of length 3
        (zero_b, [[[z, z], [z]], [[z, z], [z, z]]], ident),  # a ternary level of one entry
        (zero_b, zero_t, [[1, 0], [0, 1, 0]]),  # an alpha row of length 3
        (zero_b, zero_t, [[1, 0]]),  # one alpha row
    ]


@pytest.mark.parametrize("binary, ternary, alpha", _bad_shapes())
def test_make_algebra_rejects_tensors_of_the_wrong_shape(binary, ternary, alpha):
    with pytest.raises(DimMismatchError):
        make_algebra(2, binary, ternary, alpha)


def test_constructors_reject_brackets_of_the_wrong_shape():
    z = [0, 0]
    for bracket in ([[z, [1, 0, 5]], [[-1, 0, -5], z]], [[z, [1]], [[-1], z]]):
        with pytest.raises(DimMismatchError):
            from_lie_algebra(bracket, [[1, 0], [0, 1]])
        with pytest.raises(DimMismatchError):
            from_lya_standard(bracket)
    with pytest.raises(DimMismatchError):
        algebra_from_sparse(2, {(0, 1): (1, 0, 5)}, {}, [[1, 0], [0, 1]])
    with pytest.raises(DimMismatchError):
        algebra_from_sparse(2, {}, {(0, 1, 0): (1,)}, [[1, 0], [0, 1]])


@pytest.mark.parametrize(
    "binary, ternary, message",
    [
        ({(1, 0): (1, 0)}, {}, "^binary entries must have i < j$"),
        ({}, {(1, 1, 0): (1, 0)}, "^ternary entries must have i < j$"),
    ],
    ids=["binary", "ternary"],
)
def test_sparse_entries_must_have_i_below_j(binary, ternary, message):
    """Sparse entries name each alternating pair once, as (i, j) with i < j:
    a swapped or diagonal pair is an axiom error, not an overwrite."""
    with pytest.raises(AxiomError, match=message):
        algebra_from_sparse(2, binary, ternary, [[1, 0], [0, 1]])


@pytest.mark.parametrize(
    "binary, ternary, message",
    [
        ({(0, 5): (1, 0)}, {}, r"^binary entry \(0, 5\): expected 2 integer indices in 0..1$"),
        ({}, {(0, 1, 7): (1, 0)}, r"^ternary entry \(0, 1, 7\): expected 3 integer indices in 0..1$"),
        ({(-1, 1): (1, 0)}, {}, r"^binary entry \(-1, 1\): expected 2 integer indices in 0..1$"),
        ({(0, 1, 1): (1, 0)}, {}, r"^binary entry \(0, 1, 1\): expected 2 integer indices in 0..1$"),
        ({}, {(0, 1): (1, 0)}, r"^ternary entry \(0, 1\): expected 3 integer indices in 0..1$"),
        ({(True, 1): (1, 0)}, {}, r"^binary entry \(True, 1\): expected 2 integer indices in 0..1$"),
        ({(0.0, 1): (1, 0)}, {}, r"^binary entry \(0.0, 1\): expected 2 integer indices in 0..1$"),
    ],
    ids=["binary-index-too-large", "ternary-index-too-large", "negative-index", "three-index-binary-key",
         "two-index-ternary-key", "boolean-index", "float-index"],
)
def test_sparse_entries_must_have_integer_indices_in_range(binary, ternary, message):
    """A sparse key is a tuple of the bracket's arity of ints in 0..dim-1,
    checked before the i < j rule: no entry lands at a wrapped index, is
    dropped or fails with an error that does not name it."""
    with pytest.raises(DimMismatchError, match=message):
        algebra_from_sparse(2, binary, ternary, [[1, 0], [0, 1]])


@pytest.mark.parametrize(
    "dim, size",
    [(True, 1), (2.0, 2), ("2", 2), (0, 0)],
    ids=["bool", "float", "string", "zero"],
)
def test_constructors_refuse_a_dim_that_is_not_a_positive_integer(dim, size):
    """dim is checked first, by the algebra file's rule, against tensors of
    the size it stands for: otherwise True builds the dim-1 algebra, 2.0
    fails on a bare TypeError, "2" blames the tensors' length and 0 builds
    a dim-0 algebra that no file can hold."""
    zero = [0] * size
    binary, ternary = [[zero] * size] * size, [[[zero] * size] * size] * size
    identity = Matrix.identity(size).data
    message = rf"^dim must be a positive integer, got {re.escape(repr(dim))}$"
    with pytest.raises(PreconditionError, match=message):
        make_algebra(dim, binary, ternary, identity)
    with pytest.raises(PreconditionError, match=message):
        algebra_from_sparse(dim, {}, {}, identity)


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
    assert dense(make_algebra(1, [[[0]]], [[[[0]]]], [["1/10"]]))[2] == ((Fraction(1, 10),),)


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
    with pytest.raises(NotHomLieError, match=r"^twisted Jacobi identity fails at basis tuple \(1, 2, 3\)$"):
        from_lie_algebra(bracket, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_from_lie_algebra_names_the_other_failing_axioms():
    # aff1's bracket satisfies the twisted Jacobi identity under diag(1, 2),
    # but that alpha does not preserve it: identity 1 fails
    bracket = [[[0, 0], [1, 0]], [[-1, 0], [0, 0]]]
    with pytest.raises(AxiomError, match=r"^axioms \[1\] fail$") as caught:
        from_lie_algebra(bracket, [[1, 0], [0, 2]])
    assert type(caught.value) is AxiomError


def test_from_lya_standard_rejects_non_lie():
    bracket = [
        [[0, 0, 0], [0, 0, 1], [-1, 0, 0]],
        [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
        [[1, 0, 0], [-1, 0, 0], [0, 0, 0]],
    ]
    with pytest.raises(AxiomError, match=r"^input bracket is not Lie: axioms \[5, 6, 7, 8\] fail$"):
        from_lya_standard(bracket)


def test_yau_twist_by_endomorphism(e2):
    beta = Matrix([[1, 0, 0], [0, 2, 0], [0, 0, rat("1/2")]])
    assert is_endomorphism(e2, beta)
    twisted = yau_twist(e2, beta)
    assert check_axioms(twisted).all_passed
    assert Matrix(dense(twisted)[2]) == beta


def test_is_endomorphism_rejects_maps_of_the_wrong_shape(e0, e2):
    for a, beta in ((e0, Matrix.identity(5)), (e2, Matrix.zeros(7, 7)), (e2, Matrix.zeros(3, 2))):
        with pytest.raises(DimMismatchError):
            is_endomorphism(a, beta)


def test_is_endomorphism_refuses_a_map_that_is_not_a_matrix(e2):
    # nested lists used to fail with "'list' object has no attribute 'rows'"
    with pytest.raises(PreconditionError, match="^the map must be a Matrix, got list$"):
        is_endomorphism(e2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_yau_twist_refuses_a_map_that_is_not_a_matrix(e2):
    with pytest.raises(PreconditionError, match="^the map must be a Matrix, got tuple$"):
        yau_twist(e2, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(DimMismatchError, match="^the map must be dim x dim$"):
        yau_twist(e2, Matrix.identity(2))


def test_yau_twist_rejects_non_endomorphism(e2):
    beta = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(NotMorphismError, match="^the given map does not preserve the brackets$"):
        yau_twist(e2, beta)


def test_yau_twist_requires_untwisted_base(e3):
    with pytest.raises(NotMorphismError, match=r"^yau_twist requires an untwisted base \(alpha = id\)$"):
        yau_twist(e3, Matrix(dense(e3)[2]))


def test_yau_twist_names_the_failing_axioms():
    """An untwisted base that fails identity 7 (see
    test_corrupted_ternary_fails_leibniz_identities) is named as the
    failure, not the morphism."""
    bad = algebra_from_sparse(2, {(0, 1): (1, 0)}, {(0, 1, 0): (0, 1)}, [[1, 0], [0, 1]])
    with pytest.raises(AxiomError, match=r"^the base algebra fails axioms \[7\]$") as caught:
        yau_twist(bad, Matrix.identity(2))
    assert type(caught.value) is AxiomError


def _tables(a):
    """The algebra's three integer tables as (den, entries)."""
    return [(t.den, t.entries) for t in (*brackets(a), alpha_table(a, 1))]


def test_an_algebra_is_the_same_however_it_is_built():
    """[e1, e2] = e1/2 with {e1 e2 e2} = e1/4, the standard ternary bracket,
    and alpha = id, built four ways: from dense tensors whose entries are
    not in lowest terms, from sparse entries, through the file format and
    as its twist by the identity.  Each is equal to the others with the
    same hash, whatever its name, and holds the same canonical tables."""
    a = from_lya_standard([[[0, 0], ["1/2", 0]], [["-1/2", 0], [0, 0]]], name="half")
    z = ["0/3", 0]
    ternary = [[[z, z], [z, ["2/8", "0/2"]]], [[z, ["-3/12", 0]], [z, z]]]
    built = [
        make_algebra(2, [[z, ["2/4", "0/7"]], [["-5/10", 0], z]], ternary, [["3/3", 0], [0, "4/4"]]),
        algebra_from_sparse(2, {(0, 1): ("2/4", 0)}, {(0, 1, 1): (Fraction(1, 4), 0)}, [[1, 0], [0, 1]]),
        serialize.algebra_from_obj(serialize.algebra_to_obj(a)),
        yau_twist(a, Matrix.identity(2)),
    ]
    canonical = [
        (2, {(0, 1): {0: 1}, (1, 0): {0: -1}}),
        (4, {(0, 1, 1): {0: 1}, (1, 0, 1): {0: -1}}),
        (1, {(0,): {0: 1}, (1,): {1: 1}}),
    ]
    assert _tables(a) == canonical
    for b in built:
        assert b == a and hash(b) == hash(a) and _tables(b) == canonical, b.name


def test_the_dense_tensors_of_an_algebra_build_it_again(bundled):
    """make_algebra of the tensors read off an algebra's tables is the same
    algebra, holding tables of its own."""
    for a in [*bundled, *random_verified_algebras(12345, 20)]:
        b = make_algebra(a.dim, *dense(a), name="copy")
        assert b == a and hash(b) == hash(a), a.name
        assert not any(t is s for t in (*brackets(b), alpha_table(b, 1)) for s in (*brackets(a), alpha_table(a, 1)))


@pytest.mark.parametrize("zero", [0.0, False], ids=["float", "bool"])
def test_a_float_or_bool_zero_is_refused_by_the_tensor_readers(zero):
    """The integer tables keep no zero entry, so the readers check each
    entry themselves: a float or a bool is a TypeError even where it is 0."""
    one, ident = [[[zero]]], [[1]]
    for binary, ternary, alpha in ((one, [[[[0]]]], ident), ([[[0]]], [one], ident), ([[[0]]], [[[[0]]]], [[zero]])):
        with pytest.raises(TypeError):
            make_algebra(1, binary, ternary, alpha)
    identity = [[1, 0], [0, 1]]
    for binary, ternary, alpha in (({(0, 1): (1, zero)}, {}, identity), ({}, {(0, 1, 0): (zero, 0)}, identity),
                                   ({}, {}, [[1, zero], [0, 1]])):
        with pytest.raises(TypeError):
            algebra_from_sparse(2, binary, ternary, alpha)


def test_is_endomorphism_leaves_the_twists_of_the_brackets_alone(e2):
    """The trial algebra with beta as its alpha holds tables of its own, so
    the twists made for it are not kept on the brackets of the algebra."""
    a = make_algebra(e2.dim, *dense(e2), name="sl2_fresh")
    before = [set(t.twists) for t in brackets(a)]
    for beta in (Matrix([[1, 0, 0], [0, 2, 0], [0, 0, rat("1/2")]]), Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])):
        is_endomorphism(a, beta)
    assert [set(t.twists) for t in brackets(a)] == before


CONSTRUCTED_DIGESTS = {
    "bundled": "cb11cc8605fdcf632bd68070079e2d95a5891090df2335408dedf334f6795d77",
    "twisted": "e2baeef0acb94bc70d99192f3ce8fb2a8c6a7ba47d646ab0c08fffafe8903a2f",
    "random 12345": "b56c8792def3ec89955cc9944eca61436782ff3ba9a94ae18c02f4366542b675",
}


def test_constructed_algebras_are_pinned(bundled, twisted_algebras):
    """Every constructor builds the same algebras: SHA-256 of the JSON files
    of the bundled four, the conftest twists and gl2, and 60 random draws."""
    groups = {
        "bundled": bundled,
        "twisted": twisted_algebras,
        "random 12345": random_verified_algebras(12345, 60),
    }
    digests = {}
    for name, algebras in groups.items():
        h = hashlib.sha256()
        for a in algebras:
            h.update(serialize.dumps(serialize.algebra_to_obj(a)).encode())
        digests[name] = h.hexdigest()
    assert digests == CONSTRUCTED_DIGESTS


def test_basis_verdict_extends_to_random_vectors(e1, e2):
    """Multilinearity: identities verified on basis tuples hold on any vectors."""
    rng = random.Random(9)

    def rv(d):
        return tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d))

    for a in (e1, e2):
        d, alpha = a.dim, dense(a)[2]
        for _ in range(20):
            x, y, z = rv(d), rv(d), rv(d)
            # cyclic identity linking the two brackets (basis check said: holds)
            acc = [Fraction(0)] * d
            for p, q, r in ((x, y, z), (y, z, x), (z, x, y)):
                az = tuple(sum(rat(alpha[i][j]) * r[j] for j in range(d)) for i in range(d))
                term1 = eval_binary(a, eval_binary(a, p, q), az)
                term2 = eval_ternary(a, p, q, r)
                acc = [s + t1 + t2 for s, t1, t2 in zip(acc, term1, term2)]
            assert all(v == 0 for v in acc)


_coeff = st.integers(min_value=-4, max_value=4)
_vec2 = st.tuples(_coeff, _coeff)


@seed(41)
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
