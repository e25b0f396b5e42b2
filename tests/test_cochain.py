"""Cochain spaces: dimensions against independent oracles, conversions."""

import itertools
from fractions import Fraction

import pytest

from hlya.cochain import Cochain, MAX_ARITY, _canonicalize, build_cochain_space
from hlya.errors import ArityError, DimMismatchError, NotACochainError
from hlya.exactlin import Matrix, ZERO, kernel_basis, rat


# --- independent dimension oracles (no shared code with CochainSpace) -----


def closed_form_dim(d: int, n: int) -> int:
    """Untwisted count: free pair slots contribute C(d,2), loose slots d."""
    p = n // 2
    return d * d ** (n - 2 * p) * (d * (d - 1) // 2) ** p


def diagonal_weight_dim(a, n: int) -> int:
    """Equivariant count for diagonal alpha via weight matching.

    A basis cochain may send the tuple T to e_k exactly when the product of
    the argument weights equals the weight of e_k; pair-alternation reduces
    the tuples to those increasing inside each adjacent pair.
    """
    d = a.dim
    w = [a.alpha[i][i] for i in range(d)]
    assert all(
        a.alpha[i][j] == 0 for i in range(d) for j in range(d) if i != j
    ), "oracle only valid for diagonal alpha"
    total = 0
    for tup in itertools.product(range(d), repeat=n):
        if any(tup[2 * p] >= tup[2 * p + 1] for p in range(n // 2)):
            continue
        prod = Fraction(1)
        for i in tup:
            prod *= w[i]
        total += sum(1 for k in range(d) if w[k] == prod)
    return total


def dense_constraint_dim(a, n: int) -> int:
    """Brute force: stack every alternation and equivariance row over the
    full d^(n+1) coordinate space and take the kernel dimension."""
    d = a.dim
    ncols = d ** (n + 1)

    def pos(idx, k):
        base = 0
        for i in idx:
            base = base * d + i
        return base * d + k

    rows = []
    for idx in itertools.product(range(d), repeat=n):
        for p in range(n // 2):
            swapped = list(idx)
            swapped[2 * p], swapped[2 * p + 1] = swapped[2 * p + 1], swapped[2 * p]
            swapped = tuple(swapped)
            if swapped < idx:
                continue  # one row per unordered pair of tuples
            for k in range(d):
                row = [ZERO] * ncols
                row[pos(idx, k)] += 1
                row[pos(swapped, k)] += 1
                if any(row):
                    rows.append(row)
        for k in range(d):
            row = [ZERO] * ncols
            for m in range(d):
                if a.alpha[k][m]:
                    row[pos(idx, m)] += a.alpha[k][m]
            for jdx in itertools.product(range(d), repeat=n):
                coef = Fraction(1)
                for i, j in zip(idx, jdx):
                    coef *= a.alpha[j][i]
                if coef:
                    row[pos(jdx, k)] -= coef
            if any(row):
                rows.append(row)
    if not rows:
        return ncols
    return kernel_basis(Matrix(rows)).dim


# --- dimension tests ------------------------------------------------------


def test_dims_match_closed_form_untwisted(e0, e1, e2):
    for a in (e0, e1, e2):
        for n in range(1, MAX_ARITY + 1):
            assert build_cochain_space(a, n).dim == closed_form_dim(a.dim, n)


def test_dims_match_diagonal_weight_oracle(bundled):
    for a in bundled:
        for n in range(1, MAX_ARITY + 1):
            assert build_cochain_space(a, n).dim == diagonal_weight_dim(a, n), (
                a.name,
                n,
            )


def test_dims_match_dense_constraint_oracle(e0, e1, e2, e3):
    cases = [(e0, 3), (e1, 3), (e2, 2), (e3, 2), (e3, 3)]
    for a, n_max in cases:
        for n in range(1, n_max + 1):
            assert build_cochain_space(a, n).dim == dense_constraint_dim(a, n)


def test_twisted_space_is_proper_subspace(e3):
    # E3's alpha = diag(1,2,2) cuts the untwisted count down
    assert build_cochain_space(e3, 1).dim == 5 < closed_form_dim(3, 1)
    assert build_cochain_space(e3, 4).dim == 0


def test_partial_pair_space(e2):
    full = build_cochain_space(e2, 4)
    partial = build_cochain_space(e2, 4, pairs=1)
    assert full.dim == 27
    assert partial.dim == 81
    # every fully alternating cochain also lives in the partial space
    for c in full.basis_cochains:
        assert partial.contains(c)


def test_arity_bounds(e0):
    with pytest.raises(ArityError):
        build_cochain_space(e0, 0)
    with pytest.raises(ArityError):
        build_cochain_space(e0, MAX_ARITY + 1)
    with pytest.raises(ArityError):
        build_cochain_space(e0, 2, pairs=2)


# --- canonicalization and membership --------------------------------------


def test_canonicalize_signs():
    assert _canonicalize((2, 1, 0, 3), 2) == ((1, 2, 0, 3), -1)
    assert _canonicalize((2, 1, 3, 0), 2) == ((1, 2, 0, 3), 1)
    assert _canonicalize((1, 1, 0, 3), 2) == ((1, 1, 0, 3), 0)


def test_equivariance_violation_detected(e3):
    # f(e1) = e2: alpha(f(e1)) = 2 e2 but f(alpha e1) = f(e1) = e2
    bad = Cochain(1, 3, {(0,): (0, 1, 0)})
    space = build_cochain_space(e3, 1)
    assert not space.contains(bad)
    with pytest.raises(NotACochainError):
        space.coords(bad)


def test_pair_violation_detected(e0):
    # symmetric instead of antisymmetric in the pair
    bad = Cochain(2, 2, {(0, 1): (1, 0), (1, 0): (1, 0)})
    space = build_cochain_space(e0, 2)
    with pytest.raises(NotACochainError):
        space.coords(bad)
    diag = Cochain(2, 2, {(0, 0): (1, 0)})
    with pytest.raises(NotACochainError):
        space.coords(diag)


def test_incomplete_orbits_are_rejected(e2):
    # a value at a representative tuple whose swapped partner is zero or
    # missing is no alternating map
    c2 = build_cochain_space(e2, 2)
    for table in (
        {(0, 1): (1, 0, 0)},
        {(0, 1): (1, 0, 0), (1, 0): (0, 0, 0)},
        {(0, 1): (1, 0, 0), (1, 0): (-1, 0, 0), (0, 2): (0, 1, 0)},
    ):
        with pytest.raises(NotACochainError, match="pair-antisymmetry") as exc:
            c2.cochain_from_table(table)
        assert exc.value.kind == "pair-antisymmetry"
        assert exc.value.basis_tuple in ((2, 1), (3, 1))
        assert not c2.contains(Cochain(2, 3, table))
    # an orbit of three pairs: seven partners, one left out
    c6 = build_cochain_space(e2, 6)
    rep = (0, 1, 0, 2, 1, 2)
    full = c6.from_rep_values({rep: {0: Fraction(1)}}).table
    assert len(full) == 8
    assert any(c6.coords(Cochain(6, 3, full)))
    for missing in full:
        if missing != rep:
            table = {idx: vec for idx, vec in full.items() if idx != missing}
            with pytest.raises(NotACochainError) as exc:
                c6.cochain_from_table(table)
            assert exc.value.basis_tuple == tuple(i + 1 for i in missing)


def test_cochains_of_another_shape_are_rejected(e1, e2):
    """A cochain of another arity or dimension, or a table keyed by tuples
    that are no basis tuples of the space, is an input error."""
    c2 = build_cochain_space(e1, 2)
    shapes = [
        (Cochain(3, 2, {(0, 1, 0): (1, 0), (1, 0, 0): (-1, 0)}), ArityError),
        (Cochain.zero(3, 2), ArityError),
        (Cochain(2, 3, {(0, 1): (1, 0, 0), (1, 0): (-1, 0, 0)}), DimMismatchError),
        (Cochain.zero(2, 3), DimMismatchError),
    ]
    for cochain, error in shapes:
        with pytest.raises(error):
            c2.coords(cochain)
        with pytest.raises(error):
            c2.contains(cochain)
    # declared as 2-cochains, keyed by a triple and by an index out of range
    for table in ({(0, 1, 0): (1, 0), (1, 0, 0): (-1, 0)}, {(0, 2): (1, 0), (2, 0): (-1, 0)}):
        with pytest.raises(ArityError):
            c2.coords(Cochain(2, 2, table))
    # a value vector longer than the dimension does not spill into the
    # next representative tuple, on a raw table either
    c1 = build_cochain_space(e2, 1)
    with pytest.raises(DimMismatchError):
        c1.coords(Cochain(1, 3, {(0,): (1, 0, 0, 5)}))
    with pytest.raises(DimMismatchError):
        c1.cochain_from_table({(0,): (1, 0)})
    assert build_cochain_space(e2, 3).contains(Cochain.zero(3, 3))


def test_coords_round_trip(bundled):
    # unit coordinates make the basis cochains independent, so the space
    # they span has dimension space.dim in the full multilinear space too
    for a in bundled:
        for n in (1, 2, 3):
            space = build_cochain_space(a, n)
            for j, c in enumerate(space.basis_cochains):
                coords = space.coords(c)
                assert coords == [
                    rat(1) if i == j else rat(0) for i in range(space.dim)
                ]
                assert space.from_coords(coords) == c


def test_eval_matches_table_and_is_multilinear(e1):
    space = build_cochain_space(e1, 2)
    c = space.from_coords([rat(k + 1) for k in range(space.dim)])
    # antisymmetry through the table
    assert c.eval([(1, 0), (0, 1)]) == tuple(-x for x in c.eval([(0, 1), (1, 0)]))
    assert c.eval([(1, 1), (1, 1)]) == (rat(0), rat(0))
    # eval on dense vectors agrees with the sparse path
    v1, v2 = (2, -3), (1, 5)
    dense = c.eval([v1, v2])
    lin = tuple(
        2 * 1 * a + 2 * 5 * b + (-3) * 1 * cc + (-3) * 5 * dd
        for a, b, cc, dd in zip(
            c.value((0, 0)), c.value((0, 1)), c.value((1, 0)), c.value((1, 1))
        )
    )
    assert dense == lin


def test_cochain_arithmetic(e0):
    space = build_cochain_space(e0, 2)
    c1 = space.basis_cochains[0]
    c2 = space.basis_cochains[1]
    s = c1.add(c2.scale(rat(3)))
    assert space.coords(s)[:2] == [rat(1), rat(3)]
    assert c1.sub(c1).is_zero()


def test_a_cochain_table_is_read_only():
    table = {(0, 1): [rat(1), rat(0)], (1, 0): [rat(-1), rat(0)]}
    c = Cochain(2, 2, table)
    table[(0, 1)][0] = rat(5)  # the cochain keeps its own values
    assert c.value((0, 1)) == (rat(1), rat(0))
    with pytest.raises(TypeError):
        c.table[(1, 1)] = (rat(1), rat(0))
    with pytest.raises(TypeError):
        del c.table[(0, 1)]
    with pytest.raises(AttributeError):  # a read-only view has no clear()
        c.table.clear()
    assert c == Cochain(2, 2, {(0, 1): (1, 0), (1, 0): (-1, 0)})


def test_the_cached_basis_cannot_be_changed(e2):
    space = build_cochain_space(e2, 2)
    first = space.basis_cochains[0]
    kept = dict(first.table)
    with pytest.raises(AttributeError):
        first.table.clear()
    with pytest.raises(TypeError):
        first.table[next(iter(kept))] = (rat(0),) * e2.dim
    assert build_cochain_space(e2, 2).basis_cochains[0].table == kept
    assert space.coords(first) == [rat(1)] + [rat(0)] * (space.dim - 1)
