"""Twisted derivation spaces and the closure of their commutators."""

import hashlib
import os
from collections import Counter
from fractions import Fraction

import pytest

from hlya import derivations
from hlya.algebra import check_axioms, make_algebra
from hlya.cli import EXIT_OK, main
from hlya.derivations import DerivationSpace, check_der_is_lie, der_bracket, derivation_space
from hlya.coboundary import delta1
from hlya.cochain import CochainSpace
from hlya.errors import ClosureViolationError, DimMismatchError, PreconditionError
from hlya.exactlin import Matrix, Subspace
from hlya.samples import aff1, random_verified_algebras, sl2

from fraction_reference import dense, reference_derivation_space

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def test_abelian_derivations_are_all_matrices(e0):
    # with zero brackets only the commutation with alpha = id remains
    for k in range(4):
        assert derivation_space(e0, k).dim == 4


def test_bundled_dimension_table(bundled):
    expected = {"abelian2": 4, "aff1": 2, "sl2": 3, "heisenberg_twisted": 3}
    for a in bundled:
        for k in range(4):
            assert derivation_space(a, k).dim == expected[a.name], (a.name, k)


def test_sl2_adjoint_maps_are_derivations(e2):
    # ad_h, ad_e, ad_f on the (h, e, f) basis
    ad_h = Matrix([[0, 0, 0], [0, 2, 0], [0, 0, -2]])
    ad_e = Matrix([[0, 0, 1], [-2, 0, 0], [0, 0, 0]])
    ad_f = Matrix([[0, -1, 0], [0, 0, 0], [2, 0, 0]])
    der0 = derivation_space(e2, 0)
    for m in (ad_h, ad_e, ad_f):
        flat = [x for row in m.data for x in row]
        assert der0.basis.contains(flat)
    assert der0.dim == 3  # sl2 is semisimple: every derivation is inner


def test_adjoint_commutator(e2):
    ad_h = Matrix([[0, 0, 0], [0, 2, 0], [0, 0, -2]])
    ad_e = Matrix([[0, 0, 1], [-2, 0, 0], [0, 0, 0]])
    comm = der_bracket(e2, ad_h, 0, ad_e, 0)
    # [ad_h, ad_e] = ad_{[h,e]} = 2 ad_e
    assert comm == Matrix([[0, 0, 2], [-4, 0, 0], [0, 0, 0]])


def test_commutator_rows_are_the_matrix_commutator(bundled, twisted_algebras):
    """The closure check reads each commutator as a flattened integer row,
    and der_bracket builds its Matrix from that row: both equal
    d1 d2 - d2 d1 computed with Matrix products, on every pair of basis
    derivations through k + s = 2, and the check builds no Matrix."""
    checked = 0
    for a in [*bundled, *twisted_algebras[:3], *random_verified_algebras(31, 4)]:
        spaces = {k: derivation_space(a, k) for k in range(3)}
        for k in range(3):
            for s in range(3 - k):
                for m1 in spaces[k].matrices(a.dim):
                    for m2 in spaces[s].matrices(a.dim):
                        expected = m1.matmul(m2).add(m2.matmul(m1).scale(-1))
                        row = derivations._closed_commutator(spaces[k + s], m1.flat_row(), k, m2.flat_row(), s, a.dim)
                        den, flat = expected.flat_row()
                        assert {j: Fraction(x, row[0]) for j, x in row[1].items()} == {
                            j: Fraction(x, den) for j, x in flat.items()
                        }, (a.name, k, s)
                        assert der_bracket(a, m1, k, m2, s) == expected, (a.name, k, s)
                        checked += bool(row[1])
    assert checked > 50


def test_the_closure_check_builds_no_matrix(monkeypatch, e2):
    """Once the spaces keep their reductions for solve, a closure check
    builds no Matrix: each commutator stays a flattened integer row."""
    built = []
    original = Matrix._of.__func__

    def counted(cls, rows, cols):
        built.append(cols)
        return original(cls, rows, cols)

    check_der_is_lie(e2, 3)
    monkeypatch.setattr(Matrix, "_of", classmethod(counted))
    assert check_der_is_lie(e2, 3).checked_pairs == 90
    assert built == []


def test_closure_report(bundled):
    expected_pairs = {"abelian2": 160, "aff1": 40, "sl2": 90, "heisenberg_twisted": 90}
    for a in bundled:
        report = check_der_is_lie(a, 3)
        assert report.k_max == 3
        assert report.checked_pairs == expected_pairs[a.name]
        assert set(report.dims) == {0, 1, 2, 3}


def test_closure_check_solves_once_per_pair(monkeypatch):
    # the basis maps are members of the spaces just built, so each pair
    # costs one solve, the commutator's membership, and no argument checks
    from hlya import exactlin, serialize

    a = serialize.load_algebra(os.path.join(DATA, "e3_heisenberg.json"))
    for k in range(4):
        derivation_space(a, k)
    solves = []

    def counted(m, b, solve=exactlin.solve):
        solves.append(m)
        return solve(m, b)

    monkeypatch.setattr(exactlin, "solve", counted)
    monkeypatch.setattr(derivations, "solve", counted)
    assert check_der_is_lie(a, 3).checked_pairs == 90
    assert len(solves) == 90


def test_der_bracket_rejects_escapees(e1):
    # aff(1): the derivation algebra is 2-dimensional, so a full matrix
    # basis cannot all be derivations; a non-derivation commutator with a
    # mismatched target twist must be caught
    not_der = Matrix([[0, 0], [1, 0]])
    der0 = derivation_space(e1, 0)
    flat = [x for row in not_der.data for x in row]
    assert not der0.basis.contains(flat)
    # the bracket API verifies membership of its arguments first, so
    # non-derivations are the caller's error, not a closure violation
    with pytest.raises(PreconditionError, match="^the first map is not in Der_0$"):
        der_bracket(e1, not_der, 0, Matrix([[1, 0], [0, 0]]), 0)


def test_der_bracket_refuses_maps_that_are_not_derivations(e2):
    # on sl2 every derivation is inner; E11 and E12 are not derivations, and
    # their commutator used to be reported as a closure theorem violation
    ad_h = Matrix([[0, 0, 0], [0, 2, 0], [0, 0, -2]])
    e11 = Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    e12 = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(PreconditionError, match="^the first map is not in Der_0$"):
        der_bracket(e2, e11, 0, e12, 0)
    with pytest.raises(PreconditionError, match="^the second map is not in Der_1$"):
        der_bracket(e2, ad_h, 0, e12, 1)


def test_der_bracket_refuses_maps_that_are_not_matrices(e1):
    """Either map given as nested lists is a PreconditionError, and a
    matrix of the wrong shape stays a DimMismatchError."""
    ad = Matrix([[0, 1], [0, 0]])
    for first, second in ((ad.data, ad), (ad, [[0, 1], [0, 0]])):
        with pytest.raises(PreconditionError, match="^the map must be a Matrix, got list$"):
            der_bracket(e1, first, 0, second, 0)
    with pytest.raises(DimMismatchError, match="^the map must be dim x dim$"):
        der_bracket(e1, ad, 0, Matrix.identity(3), 0)


def test_closure_violation_carries_both_twists(monkeypatch, e1):
    # with Der_3 empty and every other space all of gl(2), the arguments
    # are derivations, a commutator that is not zero escapes Der_3, and the
    # error names the twists of the two derivations
    everything = Subspace(4, [[int(i == j) for i in range(4)] for j in range(4)])
    monkeypatch.setattr(
        derivations, "derivation_space", lambda a, k: DerivationSpace(k, Subspace(4, []) if k == 3 else everything)
    )
    with pytest.raises(ClosureViolationError) as caught:
        der_bracket(e1, Matrix([[0, 0], [1, 0]]), 2, Matrix([[1, 0], [0, 0]]), 1)
    assert (caught.value.k, caught.value.s) == (2, 1)
    assert str(caught.value) == "[Der_2, Der_1] escaped Der_3: closure theorem violated"


def test_negative_twist_rejected(e0):
    with pytest.raises(PreconditionError):
        derivation_space(e0, -1)
    with pytest.raises(PreconditionError):
        check_der_is_lie(e0, 0)


def test_non_int_twist_is_refused_before_the_memo(e1):
    # True would share the memo key of 1: stored first, it was the k = 1
    # space with twist True; asked second, it returned the k = 1 space
    with pytest.raises(PreconditionError, match="^twist exponent must be a nonnegative integer, got True$"):
        derivation_space(e1, True)
    assert type(derivation_space(e1, 1).twist) is int
    with pytest.raises(PreconditionError, match="^twist exponent must be a nonnegative integer, got True$"):
        derivation_space(e1, True)
    with pytest.raises(PreconditionError, match="got 1.0$"):
        derivation_space(e1, 1.0)


def test_boolean_k_max_is_refused(e1):
    # it returned a report with k_max True
    with pytest.raises(PreconditionError, match="^k_max must be an integer, got True$"):
        check_der_is_lie(e1, True)


# --- the kernel of leibniz(k) against the hand-written Leibniz rows ----------


def _alpha_perturbed(a, alpha, name):
    """a with alpha replaced; the new alpha preserves neither bracket."""
    binary, ternary, _ = dense(a)
    b = make_algebra(a.dim, binary, ternary, alpha, name=name)
    report = check_axioms(b)
    assert not (report.passed[1] and report.passed[2]), name
    return b


def test_derivation_spaces_match_hand_written_rows(bundled, twisted_algebras, e1, e2, e3):
    # C1 coordinates of the generic-cochain kernel, mapped to matrices, and
    # the kernel of the explicit rows in the d x d matrix entries, which
    # add the alpha-commutation rows to the Leibniz rows on every triple
    perturbed = [
        _alpha_perturbed(e1, [[1, 1], [0, 2]], "aff1_perturbed"),
        _alpha_perturbed(e2, [[1, 0, 0], [0, 2, 0], [0, 0, 3]], "sl2_perturbed"),
        _alpha_perturbed(e3, [[1, 0, 0], [0, 1, 0], [0, 0, 3]], "heisenberg_perturbed"),
        _alpha_perturbed(twisted_algebras[-1], [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "gl2_perturbed"),
    ]
    nontrivial = 0
    for a in bundled + twisted_algebras + random_verified_algebras(12345, 20) + perturbed:
        for k in range(7):
            space = derivation_space(a, k).basis
            assert space == reference_derivation_space(a, k), (a.name, k)
            nontrivial += 0 < space.dim < a.dim * a.dim
    assert nontrivial


# SHA-256 of the standard output of `hlya derive --k-max 6 data/<golden>`
DERIVE_STDOUT_SHA256 = {
    "e0_abelian.json": "6d5e130ce6eecfaa32ad76ac8c752a2fd9453ee3f8a44c7f4a321b50ec40b158",
    "e1_aff1.json": "7f7ed88b5033a4039df85a349619bb6c33292db83a5e14035c4603f7d7c09d85",
    "e2_sl2.json": "09ed3dfb7869593cd4eb6e1e75feceb041b721b891fce9b5ab322b96b46efeef",
    "e3_heisenberg.json": "fa1cb249639ee94e2e7aa9629bb70683ca8e3f2789a421261dac280b8835569e",
    "e4_gl2.json": "b97560d2df93373dd4303ea43914c383041e16a031022acbab3988ceed62e2d6",
}


@pytest.mark.parametrize("golden", sorted(DERIVE_STDOUT_SHA256))
def test_derive_output_is_pinned(golden, capsys):
    assert main(["derive", "--k-max", "6", os.path.join(DATA, golden)]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DERIVE_STDOUT_SHA256[golden]


def test_der_bracket_rejects_maps_that_are_not_dim_x_dim(e2):
    """A Der_0 basis map of sl2 with its entries row by row as one 1 x 9
    matrix has the flattened row of a derivation, but it is no map of the
    algebra: it is refused in either position, before membership."""
    (ad,) = derivation_space(e2, 0).matrices(3)[:1]
    flat = Matrix([[x for row in ad.data for x in row]])
    assert (flat.rows, flat.cols) == (1, 9) and flat.flat_row() == ad.flat_row()
    for args in ((flat, 0, ad, 0), (ad, 0, flat, 0), (Matrix([[1, 0], [0, 1]]), 0, ad, 0)):
        with pytest.raises(DimMismatchError, match="^the map must be dim x dim$"):
            der_bracket(e2, *args)
    assert der_bracket(e2, ad, 0, ad, 0).is_zero()


def test_delta1_and_every_twist_read_one_generic_table_of_c1(monkeypatch):
    """delta1 and Der_0 .. Der_3 bind the one generic table of C1 kept in
    the algebra's memo: C1 builds it once."""
    calls = Counter()
    generic = CochainSpace.generic

    def counted(space, *args):
        calls[space.arity] += 1
        return generic(space, *args)

    monkeypatch.setattr(CochainSpace, "generic", counted)
    for base in (sl2(), aff1()):
        # a fresh copy: nothing of it is memoised yet
        a = make_algebra(base.dim, *dense(base), base.name)
        calls.clear()
        delta1(a)
        check_der_is_lie(a, 3)
        assert calls[1] == 1, a.name
