"""Twisted derivation spaces and the closure of their commutators."""

import hashlib
import os

import pytest

from hlya import derivations
from hlya.algebra import check_axioms, make_algebra
from hlya.cli import EXIT_OK, main
from hlya.derivations import DerivationSpace, check_der_is_lie, der_bracket, derivation_space
from hlya.errors import ClosureViolationError, PreconditionError
from hlya.exactlin import Matrix, Subspace
from hlya.samples import random_verified_algebras

from fraction_reference import reference_derivation_space

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


def test_closure_report(bundled):
    expected_pairs = {"abelian2": 160, "aff1": 40, "sl2": 90, "heisenberg_twisted": 90}
    for a in bundled:
        report = check_der_is_lie(a, 3)
        assert report.k_max == 3
        assert report.checked_pairs == expected_pairs[a.name]
        assert set(report.dims) == {0, 1, 2, 3}


def test_der_bracket_rejects_escapees(e1):
    # aff(1): the derivation algebra is 2-dimensional, so a full matrix
    # basis cannot all be derivations; a non-derivation commutator with a
    # mismatched target twist must be caught
    not_der = Matrix([[0, 0], [1, 0]])
    der0 = derivation_space(e1, 0)
    flat = [x for row in not_der.data for x in row]
    assert not der0.basis.contains(flat)
    # the bracket API verifies membership of the commutator, so feeding it
    # non-derivations whose commutator escapes the target space must raise
    with pytest.raises(ClosureViolationError):
        der_bracket(e1, not_der, 0, Matrix([[1, 0], [0, 0]]), 0)


def test_closure_violation_carries_both_twists(monkeypatch, e1):
    # with every target space empty, a commutator that is not zero escapes
    # it, and the error names the twists of the two derivations
    monkeypatch.setattr(derivations, "derivation_space", lambda a, k: DerivationSpace(k, Subspace(4, [])))
    with pytest.raises(ClosureViolationError) as caught:
        der_bracket(e1, Matrix([[0, 0], [1, 0]]), 2, Matrix([[1, 0], [0, 0]]), 1)
    assert (caught.value.k, caught.value.s) == (2, 1)
    assert str(caught.value) == "[Der_2, Der_1] escaped Der_3: closure theorem violated"


def test_negative_twist_rejected(e0):
    with pytest.raises(PreconditionError):
        derivation_space(e0, -1)
    with pytest.raises(PreconditionError):
        check_der_is_lie(e0, 0)


# --- the kernel of leibniz(k) against the hand-written Leibniz rows ----------


def _alpha_perturbed(a, alpha, name):
    """a with alpha replaced; the new alpha preserves neither bracket."""
    b = make_algebra(a.dim, a.binary, a.ternary, alpha, name=name)
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
