"""Linearise-once assembly and audit against the per-cochain loops.

The reference functions below are the column-by-column assembly and the
per-cochain full-tabulation audit: each domain basis cochain is pushed
through the operator formula on its own, and its image is tabulated on
all tuples and read back by ``cochain_from_table``.  The package
evaluates each formula once per tuple on generic tables instead, and
audits each codomain condition as a linear defect form; both must give
equal matrices, equal audit counts, and the same kind of NotACochainError
on formulas whose output is not a cochain.
"""

import pytest

from hlya import coboundary
from hlya.algebra import divided, int_table
from hlya.coboundary import (
    _LEVELS,
    _assemble,
    apply_operator,
    operator_by_level,
    verify_well_definedness,
)
from hlya.cochain import Cochain, CochainSpace, build_cochain_space
from hlya.errors import NotACochainError
from hlya.exactlin import Matrix
from hlya.samples import random_verified_algebras

LEVELS = ("1", "2", "d2", "3")


def _basis_inputs(a, domain):
    zeros = [Cochain.zero(s.arity, a.dim) for s in domain]
    for comp, space in enumerate(domain):
        for basis_cochain in space.basis_cochains:
            yield zeros[:comp] + [basis_cochain] + zeros[comp + 1 :]


def columnwise_assemble(a, level):
    """Reference: the formula runs on every basis cochain separately."""
    _, domain_arities, codomain_shapes, tables = _LEVELS[level]
    domain = [build_cochain_space(a, n) for n in domain_arities]
    codomain = [build_cochain_space(a, n, pairs) for n, pairs in codomain_shapes]
    columns = []
    for cochains in _basis_inputs(a, domain):
        col = []
        for target, fn in zip(codomain, tables(a, *(int_table(c.table) for c in cochains))):
            col.extend(target.rep_coords({idx: fn(idx) for idx in target.rep_tuples}))
        columns.append(col)
    rows = sum(s.dim for s in codomain)
    if columns and rows:
        return Matrix.from_columns(columns, rows=rows)
    return Matrix.zeros(rows, len(columns))


def per_cochain_audit(a, level):
    """Reference: tabulate each basis cochain's image on all tuples."""
    audited = 0
    for cochains in _basis_inputs(a, operator_by_level(a, level).domain):
        apply_operator(a, level, *cochains)
        audited += 1
    return audited


def _assert_same_matrices(a, levels):
    for level in levels:
        assert _assemble(a, level).matrix == columnwise_assemble(a, level), (a.name, level)


def test_matrices_match_columnwise_on_bundled(bundled):
    for a in bundled:
        _assert_same_matrices(a, LEVELS)


def test_matrices_match_columnwise_on_random_corpus():
    for a in random_verified_algebras(12345, 20):
        _assert_same_matrices(a, ("1", "2", "d2"))


def test_matrices_match_columnwise_with_empty_codomains(twisted_algebras):
    # Heisenberg diag(2, 3, 6): C4 .. C7 are 0-dimensional, so every generic
    # table but C1's, C2's and C3's is the zero cochain
    heisenberg = twisted_algebras[2]
    assert heisenberg.name == "heisenberg_236"
    _assert_same_matrices(heisenberg, LEVELS)


def _assert_same_audits(cases):
    for a, levels in cases:
        for level in levels:
            assert verify_well_definedness(a, level) == per_cochain_audit(a, level), (a.name, level)


def test_audit_counts_match_per_cochain(bundled):
    _assert_same_audits((a, LEVELS) for a in bundled)


def test_audit_matches_per_cochain_on_twisted(twisted_algebras):
    # heisenberg_236 has C4 .. C7 of dimension 0: levels 2 and d2 audit a
    # zero codomain block, level 3 an empty domain
    *dim3, gl2 = twisted_algebras
    assert [a.dim for a in dim3] == [3, 3, 3] and gl2.dim == 4
    assert [build_cochain_space(dim3[2], n).dim for n in (4, 5, 6, 7)] == [0, 0, 0, 0]
    _assert_same_audits([(a, LEVELS) for a in dim3] + [(gl2, ("1", "2", "d2"))])


def test_audit_matches_per_cochain_on_sl2_level_3(e2):
    _assert_same_audits([(e2, ("3",))])


def test_audit_matches_per_cochain_on_random_corpus():
    # level 3 in dimension 3 costs the reference about half a second per
    # algebra; sl2 and the twisted algebras cover it
    _assert_same_audits(
        (a, LEVELS if a.dim == 2 else ("1", "2", "d2")) for a in random_verified_algebras(12345, 20)
    )


def test_audit_evaluates_each_tuple_once_and_applies_no_basis_on_sl2(monkeypatch, e2, twisted_algebras):
    # each codomain block's formula runs once at every basis tuple; on an
    # untwisted algebra no defect form is nonzero, so no form is applied
    # to the domain basis
    calls, defects, applied = {}, [], []

    def counting(level, block, fn):
        calls[level, block] = 0

        def value(idx):
            calls[level, block] += 1
            return fn(idx)

        return value

    def counted(level, formula):
        def tables(a, *generic):
            return [counting(level, block, fn) for block, fn in enumerate(formula(a, *generic))]

        return tables

    def recorded(space, fn):
        found = defects_of(space, fn)
        defects.append(len(found))
        return found

    def first_violation(found, basis):
        applied.append(len(found) * len(basis))
        return violation_of(found, basis)

    defects_of, violation_of = CochainSpace.defects, coboundary.first_violation
    monkeypatch.setattr(CochainSpace, "defects", recorded)
    monkeypatch.setattr(coboundary, "first_violation", first_violation)
    for level in LEVELS:
        name, domain, codomain, formula = _LEVELS[level]
        operator_by_level(e2, level)
        monkeypatch.setitem(coboundary._LEVELS, level, (name, domain, codomain, counted(level, formula)))
        verify_well_definedness(e2, level)
        assert [calls[level, b] for b in (0, 1)] == [e2.dim**n for n, _ in codomain], level
    assert len(defects) == 8 and not any(defects) and not applied
    # the counters see work where there is some: under the non-diagonal
    # twist the generic tables leave the domain, so the equivariance
    # residual forms are nonzero and are applied to the basis
    twist = twisted_algebras[1]
    assert twist.name == "sl2_twist_7_11"
    operator_by_level(twist, "1")
    verify_well_definedness(twist, "1")
    assert any(defects[8:]) and applied


# --- formulas whose output is not a cochain --------------------------------
#
# The formulas take integer tables, generic ones included: h's entry at
# (i,) holds h(e_i) as numerators over h.den, so the values below are read
# from it without looking at its output indices.


def _h(h, i):
    return h.entries.get((i,), {})


def _pair_breaking(a, h):
    # h(x) at (x, y): nonzero on the diagonal pairs (x, x)
    return [divided(lambda idx: dict(_h(h, idx[0])), h.den), lambda idx: {}]


def _increasing_only(a, h):
    # h(x) at (x, y) with x < y, zero elsewhere: the representative values
    # of an alternating map, but zero at every swapped partner
    return [divided(lambda idx: dict(_h(h, idx[0])) if idx[0] < idx[1] else {}, h.den), lambda idx: {}]


def _equivariance_breaking(a, h):
    # h(x) - h(y) at (x, y): alternating, but not alpha-equivariant once
    # alpha scales the basis unevenly
    def comp(idx):
        acc = dict(_h(h, idx[0]))
        for key, c in _h(h, idx[1]).items():
            acc[key] = acc.get(key, 0) - c
        return {key: c for key, c in acc.items() if c}

    return [divided(comp, h.den), lambda idx: {}]


def _patch_level_1(monkeypatch, formula):
    name, domain, codomain, _ = _LEVELS["1"]
    monkeypatch.setitem(coboundary._LEVELS, "1", (name, domain, codomain, formula))


def test_audit_catches_broken_pair_alternation(monkeypatch, e2):
    # with alpha = id every tabulation is equivariant, so only the audit's
    # pair check can see the diagonal values; assembly reads representative
    # tuples only and accepts them, on both paths alike
    operator_by_level(e2, "1")  # the audit reads the domain from the cached operator
    _patch_level_1(monkeypatch, _pair_breaking)
    assert _assemble(e2, "1").matrix == columnwise_assemble(e2, "1")
    for audit in (verify_well_definedness, per_cochain_audit):
        with pytest.raises(NotACochainError, match="diagonal"):
            audit(e2, "1")


def test_audit_catches_values_missing_from_swapped_tuples(monkeypatch, e2):
    # the representative values alone look like a cochain to assembly; the
    # swapped partners, zero here, must be their negatives
    operator_by_level(e2, "1")
    _patch_level_1(monkeypatch, _increasing_only)
    assert _assemble(e2, "1").matrix == columnwise_assemble(e2, "1")
    for audit in (verify_well_definedness, per_cochain_audit):
        with pytest.raises(NotACochainError, match="pair-antisymmetry"):
            audit(e2, "1")


def test_audit_failure_carries_a_witness(monkeypatch, e2):
    operator_by_level(e2, "1")
    _patch_level_1(monkeypatch, _increasing_only)
    with pytest.raises(NotACochainError) as exc:
        verify_well_definedness(e2, "1")
    err = exc.value
    assert (err.level, err.block, err.kind) == ("1", 0, "pair-antisymmetry")
    i, j = err.basis_tuple
    assert 1 <= j < i <= e2.dim  # 1-based, a decreasing pair
    # the image of that basis cochain is nonzero at the representative tuple
    image = columnwise_assemble(e2, "1").column(err.basis_index)
    assert any(image)
    assert str(err.basis_tuple) in str(err)


def test_assembly_and_audit_catch_broken_equivariance(monkeypatch, e3):
    operator_by_level(e3, "1")
    _patch_level_1(monkeypatch, _equivariance_breaking)
    for check in (_assemble, columnwise_assemble, verify_well_definedness, per_cochain_audit):
        with pytest.raises(NotACochainError, match="equivariance"):
            check(e3, "1")
    with pytest.raises(NotACochainError) as exc:
        verify_well_definedness(e3, "1")
    assert (exc.value.level, exc.value.kind) == ("1", "equivariance")
    # assembly names the matrix column it could not read, the one the audit
    # names: the image of that basis cochain alone is no cochain
    with pytest.raises(NotACochainError) as assembled:
        _assemble(e3, "1")
    witness = assembled.value
    assert witness.basis_index is not None
    assert (witness.kind, witness.basis_tuple, witness.basis_index) == (
        exc.value.kind,
        exc.value.basis_tuple,
        exc.value.basis_index,
    )
    inputs = list(_basis_inputs(e3, operator_by_level(e3, "1").domain))
    with pytest.raises(NotACochainError, match="equivariance"):
        apply_operator(e3, "1", *inputs[witness.basis_index])
    for cochains in inputs[: witness.basis_index]:
        apply_operator(e3, "1", *cochains)  # the columns before it are read
