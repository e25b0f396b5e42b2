"""Cochain spaces: dimensions against independent oracles, conversions."""

import itertools
import random
from fractions import Fraction

import pytest

from hlya.algebra import FormTable, IntTable, alpha_table, yau_twist
from hlya.cochain import Cochain, CochainSpace, MAX_ARITY, build_cochain_space, check_defects
from hlya.errors import ArityError, DimMismatchError, NotACochainError
from hlya.exactlin import Matrix, ZERO, kernel_basis, rat
from hlya.coboundary import _LEVELS, _bound_generic, d2
from hlya.samples import abelian, random_verified_algebras, sl2

from fraction_reference import dense, general_equivariance_rows, integer_basis, integer_rows, reference_space
from tabulated import scanned_defects


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
    d, alpha = a.dim, dense(a)[2]
    w = [alpha[i][i] for i in range(d)]
    assert all(
        alpha[i][j] == 0 for i in range(d) for j in range(d) if i != j
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
    d, alpha = a.dim, dense(a)[2]
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
                if alpha[k][m]:
                    row[pos(idx, m)] += alpha[k][m]
            for jdx in itertools.product(range(d), repeat=n):
                coef = Fraction(1)
                for i, j in zip(idx, jdx):
                    coef *= alpha[j][i]
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


def test_non_int_arity_or_pair_count_is_refused_before_the_memo(e2):
    # True == 1 and hash(True) == hash(1), so a boolean (or 2.0) would take
    # the memo key of a real shape: (4, True) became d2's codomain W4, and
    # (True,) a space whose arity is True
    with pytest.raises(ArityError, match="^pair count must be an integer in 0..2, got True$"):
        build_cochain_space(e2, 4, True)
    with pytest.raises(ArityError, match=f"^arity must be an integer in 1..{MAX_ARITY}, got True$"):
        build_cochain_space(e2, True)
    with pytest.raises(ArityError, match="got 2.0$"):
        build_cochain_space(e2, 2.0)
    assert [type(space.pairs) for space in d2(e2).codomain] == [int, int]
    assert type(build_cochain_space(e2, 1).arity) is int


def test_cochain_eval_and_add_refuse_other_shapes():
    c = Cochain(2, 2, {(0, 1): (1, 0), (1, 0): (-1, 0)})
    with pytest.raises(DimMismatchError, match="^expected 2 arguments, got 1$"):
        c.eval([[1, 0]])
    with pytest.raises(DimMismatchError, match="^argument vector of wrong length$"):
        c.eval([[1, 0], [0, 1, 0]])
    for other in (Cochain.zero(3, 2), Cochain.zero(2, 3)):
        with pytest.raises(DimMismatchError, match="^cochain shapes disagree$"):
            c.add(other)


# --- canonicalization and membership --------------------------------------


def test_orbit_map_signs():
    # the orbit map of C4 over dimension 4: each swapped pair flips the
    # sign, and a tuple with a diagonal pair has no entry
    space = build_cochain_space(abelian(4), 4)
    rep = space.rep_tuples.index((1, 2, 0, 3))
    assert space._orbit[2, 1, 0, 3] == (rep, -1)
    assert space._orbit[2, 1, 3, 0] == (rep, 1)
    assert (1, 1, 0, 3) not in space._orbit


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
            c2.coords(Cochain(2, 3, table))
        assert exc.value.kind == "pair-antisymmetry"
        assert exc.value.basis_tuple in ((2, 1), (3, 1))
        assert not c2.contains(Cochain(2, 3, table))
    # an orbit of three pairs: seven partners, one left out
    c6 = build_cochain_space(e2, 6)
    rep = (0, 1, 0, 2, 1, 2)
    full = c6.from_rep_values(IntTable(1, {rep: {0: 1}})).table
    assert len(full) == 8
    assert any(c6.coords(Cochain(6, 3, full)))
    for missing in full:
        if missing != rep:
            table = {idx: vec for idx, vec in full.items() if idx != missing}
            with pytest.raises(NotACochainError) as exc:
                c6.coords(Cochain(6, 3, table))
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
        c1.coords(Cochain(1, 3, {(0,): (1, 0)}))
    assert build_cochain_space(e2, 3).contains(Cochain.zero(3, 3))


def test_coordinate_lists_of_the_wrong_length_are_rejected(e2):
    """One coordinate per basis cochain: a shorter list is not padded with
    zeros and a longer one is not cut short."""
    space = build_cochain_space(e2, 2)
    assert space.dim == 9
    for coords in ([1], [1] * 8, [1] * 10):
        with pytest.raises(DimMismatchError, match=f"expected 9 coordinates, got {len(coords)}"):
            space.from_coords(coords)
    assert space.coords(space.from_coords([1] * 9)) == [1] * 9
    assert space.from_coords([0] * 9).is_zero()


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


def test_untwisted_spaces_match_the_general_equivariance_rows(bundled, twisted_algebras):
    """With alpha = id the general loop builds no row, so skipping it gives
    the same pivots, reduced rows and basis as the Fraction reference: on
    the bundled algebras, gl2 and the seed-12345 corpus."""
    candidates = [*bundled, *twisted_algebras, *random_verified_algebras(12345, 60)]
    untwisted = {a: None for a in candidates if Matrix(dense(a)[2]) == Matrix.identity(a.dim)}
    assert len(untwisted) > 10 and any(a.dim == 4 for a in untwisted)
    for a in untwisted:
        for arity in range(1, (5 if a.dim < 4 else 4) + 1):
            for pairs in {0, arity // 2}:
                space = CochainSpace(a, arity, pairs)
                pivots, rows, free, cols = reference_space(space)
                assert not rows
                got = (space._pivots, space._int_rows, space._free, space._int_basis)
                assert got == (pivots, integer_rows(rows), free, integer_basis(cols))


def test_twisted_rows_are_positive_multiples_of_the_general_rows(bundled, twisted_algebras):
    """On twisted algebras the integer rows are the general Fraction rows
    times D^n, D the denominator of alpha's table, row by row: alpha with
    denominators, the non-diagonal sl2_twist_7_11 and the negative alpha
    diag(1, -1, -1) of sl2."""
    negative = yau_twist(sl2(), Matrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]]), name="sl2_twist_minus")
    twisted = [a for a in [*bundled, *twisted_algebras, negative] if Matrix(dense(a)[2]) != Matrix.identity(a.dim)]
    assert {"sl2_twist_7_11", "sl2_twist_minus"} <= {a.name for a in twisted}
    for a in twisted:
        for arity in (1, 2, 3):
            space = build_cochain_space(a, arity)
            rows, expected = space._equivariance_rows(), general_equivariance_rows(space)
            assert len(rows) == len(expected) and rows, (a.name, arity)
            for row, fraction_row in zip(rows, expected):
                assert all(type(x) is int for x in row.values()), (a.name, arity)
                factors = {Fraction(x) / fraction_row[i] for i, x in row.items()}
                assert row.keys() == fraction_row.keys() and len(factors) == 1, (a.name, arity)
                assert factors == {Fraction(alpha_table(a, 1).den ** arity)}, (a.name, arity)
            pivots, reduced, free, cols = reference_space(space)
            got = (space._pivots, space._int_rows, space._free, space._int_basis)
            assert got == (pivots, integer_rows(reduced), free, integer_basis(cols)), (a.name, arity)


def test_generic_table_is_the_sum_over_the_basis(bundled, twisted_algebras):
    """The generic table is sum_j u_{offset + j} b_j: substituting the unit
    vector u = e_{offset + j} gives basis cochain b_j exactly, in C1 .. C5
    on the bundled algebras, the twisted ones (the non-diagonal
    sl2_twist_7_11 and gl2 among them) and the seed-12345 corpus.  A space
    of dimension 0 gives the empty table."""
    offset, empty = 5, 0
    for a in [*bundled, *twisted_algebras, *random_verified_algebras(12345, 60)]:
        for n in range(1, 6):
            space = build_cochain_space(a, n)
            table = space.generic(offset)
            assert type(table) is FormTable
            substituted: dict = {}  # u -> the table at u = e_u
            for idx, vec in table.entries.items():
                for (k, u), c in vec.items():
                    value = substituted.setdefault(u, {}).setdefault(idx, [ZERO] * a.dim)
                    value[k] = Fraction(c, table.den)
            cochains = {u - offset: Cochain(n, a.dim, values) for u, values in substituted.items()}
            assert cochains == dict(enumerate(space.basis_cochains)), (a.name, n)
            if not space.dim:
                assert not table.entries
                empty += 1
    assert empty  # heisenberg_236 has C3 .. C5 of dimension 0


def test_a_defect_names_its_lowest_nonzero_unknown(e2):
    # (0, 1) holds u_0 + u_2 and its swapped partner (1, 0) only -u_0, so
    # the pair-antisymmetry defect there keeps a zero coefficient of u_0:
    # it is the defect of basis cochain 2 alone
    space = build_cochain_space(e2, 2)
    defects = space.defects({(0, 1): {(0, 0): 1, (0, 2): 1}, (1, 0): {(0, 0): -1}})
    assert defects == [("pair-antisymmetry", (1, 0), {(0, 0): 0, (0, 2): 1})]
    with pytest.raises(NotACochainError) as exc:
        check_defects(defects, "basis cochain {}: ", level="1")
    err = exc.value
    assert (err.kind, err.basis_tuple, err.basis_index, err.level) == ("pair-antisymmetry", (2, 1), 2, "1")
    assert str(err).startswith("basis cochain 2: pair-antisymmetry violated at tuple (2, 1)")
    check_defects([])  # no defect, no error


# --- the orbit reader against the full scan ----------------------------------


def _one_unknown(table):
    """A concrete table's values as forms in the one unknown 0."""
    return {idx: {(k, 0): x for k, x in enumerate(vec) if x} for idx, vec in table.items()}


def _random_table(rng, space, count):
    """Random values in one unknown at ``count`` random basis tuples: most
    break pair antisymmetry, some sit on a diagonal pair."""
    d, n = space.algebra.dim, space.arity
    values = (1, -1, 2, Fraction(1, 3))
    return {
        tuple(rng.randrange(d) for _ in range(n)): {(rng.randrange(d), 0): rng.choice(values)}
        for _ in range(count)
    }


def _assert_reads_as_the_scan(space, table):
    expected = scanned_defects(space, table)
    assert space.defects(table) == expected, (space, table)
    return expected


def test_orbit_reader_matches_the_full_scan(bundled, twisted_algebras):
    """defects reads a table's entries and the orbits they touch; the full
    scan over every basis tuple is the reference.  Both give the same
    defects in the same order on the joined generic tables of every level
    and on concrete tables in one unknown (basis cochains and random
    tables), over the bundled, twisted and seed-12345 algebras."""
    rng = random.Random(2027)
    kinds = set()
    for a in [*bundled, *twisted_algebras, *random_verified_algebras(12345, 20)]:
        for level, (_, arities, shapes, tables) in _LEVELS.items():
            if a.dim == 4 and level == "3":
                continue  # C6 x C7 of gl2: 4^6 + 4^7 tuples per scan
            for (n, pairs), formula in zip(shapes, _bound_generic(a, tables, arities)):
                _assert_reads_as_the_scan(build_cochain_space(a, n, pairs), formula.join())
        for n, pairs in ((1, None), (2, None), (3, None), (4, 1)):
            space = build_cochain_space(a, n, pairs)
            for cochain in space.basis_cochains[:2]:
                assert _assert_reads_as_the_scan(space, _one_unknown(cochain.table)) == []
            for count in (1, 3, 8):
                kinds.update(kind for kind, _, _ in _assert_reads_as_the_scan(space, _random_table(rng, space, count)))
    assert kinds == {"diagonal", "pair-antisymmetry", "equivariance"}


def test_orbit_reader_matches_the_full_scan_on_planted_faults(twisted_algebras):
    """Faults planted in a joined generic table of sl2_twist_7_11 (levels 1
    and 2, every block): a value on a diagonal pair, a missing swapped
    partner, a partner of the wrong sign, and a change kept alternating
    that breaks equivariance.  The reader gives the scan's defects, in its
    order, and the scan finds the planted kind."""
    a = twisted_algebras[1]
    assert a.name == "sl2_twist_7_11"
    planted = 0
    for level in ("1", "2"):
        _, arities, shapes, tables = _LEVELS[level]
        for (n, pairs), formula in zip(shapes, _bound_generic(a, tables, arities)):
            space = build_cochain_space(a, n, pairs)
            joined = formula.join()
            rep = next(idx for idx in space.rep_tuples if joined.get(idx))
            swapped = (rep[1], rep[0], *rep[2:])
            members = space._members[space.rep_tuples.index(rep)]
            faults = {
                "diagonal": {**joined, (rep[0],) * n: {(0, 0): 1}},
                "missing partner": {idx: v for idx, v in joined.items() if idx != swapped},
                "wrong sign": {**joined, swapped: joined[rep]},
                # u_0 e_0 added at every member with its sign: still alternating
                "equivariance": {
                    **joined,
                    **{idx: {**joined.get(idx, {}), (0, 0): joined.get(idx, {}).get((0, 0), 0) + sign} for idx, sign in members},
                },
            }
            for fault, table in faults.items():
                found = {kind for kind, _, _ in _assert_reads_as_the_scan(space, table)}
                kind = {"missing partner": "pair-antisymmetry", "wrong sign": "pair-antisymmetry"}.get(fault, fault)
                assert kind in found, (level, n, fault)
                planted += 1
    assert planted == 16
