"""Each structural rule is stated once, by the code that defines it.

Alpha-equivariance of cochains, gauge coefficients commuting with alpha,
bracket preservation by a linear map, alternation of the brackets and the
product of gauges were each once written out a second time, by hand.  The
test-local functions below are those restatements.  Each is compared with
the code that now states the rule, on the bundled algebras, the twisted
algebras, the seed-12345 corpus and seeded random inputs that include
failures.
"""

import random
from fractions import Fraction

import pytest

from hlya.algebra import algebra_from_sparse, brackets, compose_out, compose_slot, is_endomorphism, make_algebra, matrix_table
from hlya.cochain import build_cochain_space, cochain_to_matrix
from hlya.deformation import Gauge, compose_gauges, identity_gauge, inverse_gauge, random_gauge
from hlya.errors import AxiomError, PreconditionError
from hlya.exactlin import Matrix
from hlya.samples import random_verified_algebras

_VALUES = (0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3))


@pytest.fixture(scope="module")
def corpus():
    return random_verified_algebras(12345, 20)


@pytest.fixture
def algebras(bundled, twisted_algebras, corpus):
    return [*bundled, *twisted_algebras, *corpus]


# --- the replaced statements ------------------------------------------------


def basis_column_residual(space, forms):
    """The equivariance defects from the kernel basis columns: at a pivot
    coordinate p, the form there minus the sum over j of col_j[p] times the
    form at free coordinate j."""
    d = space.algebra.dim
    free = set(space._free)
    residual = {p: dict(form) for p, form in forms.items() if p not in free}
    for i, col in zip(space._free, space._basis_cols):
        form = forms.get(i)
        if not form:
            continue
        for p, v in col.items():
            if p != i:
                acc = residual.setdefault(p, {})
                for u, c in form.items():
                    acc[u] = acc.get(u, 0) - v * c
    defects = []
    for p in sorted(residual):
        form = {(p % d, u): c for u, c in residual[p].items() if c}
        if form:
            defects.append(("equivariance", space.rep_tuples[p // d], form))
    return defects


def commutes_with_alpha(a, m):
    alpha = a.alpha_matrix()
    return m.matmul(alpha) == alpha.matmul(m)


def preserves_brackets(a, beta):
    """beta composed into every slot of each bracket against beta applied
    to its values."""
    m = matrix_table(beta)
    for arity, t in zip((2, 3), brackets(a)):
        moved = t
        for slot in range(arity):
            moved = compose_slot(moved, slot, m)
        if compose_out(m, t).fractions(a.dim) != moved.fractions(a.dim):
            return False
    return True


def antisymmetric(dim, b, t):
    """The dense loop: [e_i e_i] = 0 and [e_i e_j] = -[e_j e_i], and the
    same in the first two slots of the ternary bracket."""
    zero = (0,) * dim
    for i in range(dim):
        if tuple(b[i][i]) != zero:
            return False
        for j in range(i + 1, dim):
            if tuple(b[i][j]) != tuple(-x for x in b[j][i]):
                return False
        for k in range(dim):
            if tuple(t[i][i][k]) != zero:
                return False
            for j in range(i + 1, dim):
                if tuple(t[i][j][k]) != tuple(-x for x in t[j][i][k]):
                    return False
    return True


def fraction_product(p, q):
    """The series product of two gauges in Fraction matrices."""
    d = p.base.dim
    phi = []
    for n in range(p.order + 1):
        acc = Matrix.zeros(d, d)
        for i in range(n + 1):
            acc = acc.add(p.phi[i].matmul(q.phi[n - i]))
        phi.append(acc)
    return tuple(phi)


# --- inputs -------------------------------------------------------------------


def _random_matrix(rng, d):
    return Matrix([[rng.choice(_VALUES) for _ in range(d)] for _ in range(d)])


def _commuting(rng, a):
    """A random 1-cochain of ``a`` as a matrix: it commutes with alpha."""
    space = build_cochain_space(a, 1)
    return cochain_to_matrix(a, space.from_coords([rng.choice(_VALUES) for _ in range(space.dim)]))


def _spaces(a):
    shapes = [(1, None), (2, None), (3, None), (4, None), (4, 1)]
    if a.dim <= 3:
        shapes.append((5, None))
    return [build_cochain_space(a, n, pairs) for n, pairs in shapes]


def _random_forms(rng, space, unknowns):
    forms = {}
    for i in rng.sample(range(space.reduced_dim), min(space.reduced_dim, rng.randint(1, 6))):
        forms[i] = {u: rng.choice(_VALUES[3:]) for u in rng.sample(range(unknowns), rng.randint(1, unknowns))}
    return forms


def _value_forms(space, cochain):
    """A concrete cochain's representative values as forms in one unknown."""
    d = space.algebra.dim
    return {
        pos * d + k: {0: x} for pos, idx in enumerate(space.rep_tuples) for k, x in enumerate(cochain.value(idx)) if x
    }


# --- the comparisons ------------------------------------------------------------


def test_residual_reads_the_reduced_rows_as_the_basis_columns_did(algebras):
    rng = random.Random(20)
    failing = 0
    for a in algebras:
        for space in _spaces(a):
            cases = [{}] + [_random_forms(rng, space, 3) for _ in range(4)]
            cases += [_value_forms(space, c) for c in space.basis_cochains[:3]]
            # the generic table's representative forms: one unknown per coordinate
            generic, _ = space.generic()
            cases.append(space._forms(lambda idx: generic.entries.get(idx, {})))
            for forms in cases:
                expected = basis_column_residual(space, forms)
                assert space._residual(forms) == expected, (a.name, space)
                failing += bool(expected)
    assert failing  # random forms on twisted algebras break equivariance


def test_gauge_coefficients_are_the_matrices_commuting_with_alpha(algebras):
    rng = random.Random(21)
    verdicts = set()
    for a in algebras:
        d = a.dim
        alpha = a.alpha_matrix()
        candidates = [alpha, alpha.matmul(alpha), Matrix.zeros(d, d)]
        candidates += [_random_matrix(rng, d) for _ in range(4)] + [_commuting(rng, a) for _ in range(2)]
        for m in candidates:
            expected = commutes_with_alpha(a, m)
            verdicts.add(expected)
            if expected:
                assert Gauge(a, 1, [Matrix.identity(d), m]).phi[1] == m
            else:
                with pytest.raises(PreconditionError, match="gauge coefficient 1 does not commute with alpha"):
                    Gauge(a, 1, [Matrix.identity(d), m])
    assert verdicts == {True, False}


def test_is_endomorphism_agrees_with_composing_every_slot(algebras):
    rng = random.Random(22)
    verdicts = set()
    for a in algebras:
        d = a.dim
        alpha = a.alpha_matrix()
        candidates = [Matrix.identity(d), Matrix.zeros(d, d), alpha, alpha.matmul(alpha)]
        candidates += [_random_matrix(rng, d) for _ in range(4)] + [_commuting(rng, a) for _ in range(2)]
        for beta in candidates:
            expected = preserves_brackets(a, beta)
            verdicts.add(expected)
            assert is_endomorphism(a, beta) == expected, (a.name, beta.data)
    assert verdicts == {True, False}


def test_is_endomorphism_reads_the_ternary_bracket_on_its_own():
    # [e1, e2] = e1 and {e1 e2 e1} = e2, no Hom-Lie-Yamaguti algebra: diag(p, 1)
    # preserves the binary bracket for every p, the ternary one for p = +-1 only
    a = algebra_from_sparse(2, {(0, 1): (1, 0)}, {(0, 1, 0): (0, 1)}, [[1, 0], [0, 1]])
    for p in (1, -1, 0, 2, Fraction(1, 2)):
        beta = Matrix([[p, 0], [0, 1]])
        assert is_endomorphism(a, beta) == preserves_brackets(a, beta) == (p in (1, -1)), p


def test_make_algebra_rejects_exactly_the_tensors_the_dense_loop_rejected(algebras):
    rng = random.Random(23)
    verdicts = set()
    for a in algebras:
        d = a.dim
        for trial in range(6):
            b = [[list(a.binary[i][j]) for j in range(d)] for i in range(d)]
            t = [[[list(a.ternary[i][j][k]) for k in range(d)] for j in range(d)] for i in range(d)]
            i, j, k, out = (rng.randrange(d) for _ in range(4))
            x = rng.choice(_VALUES[3:])
            # even trials keep the pair antisymmetric, odd ones break it (unless on a diagonal)
            partner = -x if trial % 2 == 0 else rng.choice(_VALUES)
            target = b[i][j] if trial < 3 else t[i][j][k]
            mirror = b[j][i] if trial < 3 else t[j][i][k]
            target[out] += x
            if i != j:
                mirror[out] += partner
            expected = antisymmetric(d, b, t)
            verdicts.add(expected)
            if expected:
                make_algebra(d, b, t, a.alpha)
            else:
                with pytest.raises(AxiomError, match=r"is not alternating at basis tuple \("):
                    make_algebra(d, b, t, a.alpha)
    assert verdicts == {True, False}


def test_make_algebra_names_the_first_failing_tuple():
    z = [0, 0]
    t = [[[z, z], [z, z]], [[z, z], [z, z]]]
    b = [[z, [1, 0]], [[1, 0], z]]  # [e2, e1] = [e1, e2]
    with pytest.raises(AxiomError, match=r"^the binary bracket is not alternating at basis tuple \(1, 2\)$"):
        make_algebra(2, b, t, [[1, 0], [0, 1]])
    t[1][1][0] = [0, 1]  # {e2 e2 e1} = e2
    with pytest.raises(AxiomError, match=r"first two arguments is not alternating at basis tuple \(2, 2, 1\)$"):
        make_algebra(2, [[z, z], [z, z]], t, [[1, 0], [0, 1]])


def test_gauge_products_agree_with_fraction_matrices(algebras):
    rng = random.Random(24)
    for a in algebras:
        p, q = (random_gauge(a, 3, rng) for _ in range(2))
        assert compose_gauges(p, q).phi == fraction_product(p, q), a.name
        inverse = inverse_gauge(p)
        assert fraction_product(p, inverse) == identity_gauge(a, 3).phi, a.name
        assert compose_gauges(inverse, p) == identity_gauge(a, 3), a.name

