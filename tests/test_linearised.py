"""Linearise-once assembly and audit against the per-cochain loops.

The reference functions below are the column-by-column assembly and the
per-cochain full-tabulation audit: each domain basis cochain is pushed
through the operator formula on its own.  The package evaluates each
formula once per tuple on generic cochains instead; both must give equal
matrices, equal audit counts, and the same NotACochainError on formulas
whose output is not a cochain.
"""

import pytest

from hlya import coboundary
from hlya.coboundary import (
    _LEVELS,
    _apply,
    _assemble,
    operator_by_level,
    verify_well_definedness,
)
from hlya.cochain import Cochain, build_cochain_space
from hlya.errors import NotACochainError
from hlya.exactlin import ONE, ZERO, Matrix
from hlya.samples import random_verified_algebras

from fraction_reference import FractionOps, eval_sv, svec_add

LEVELS = ("1", "2", "d2", "3")


def _acc(*signed_terms):
    acc = {}
    for sign, sv in signed_terms:
        svec_add(acc, sv, sign)
    return acc


def _basis_inputs(a, domain):
    zeros = [Cochain.zero(s.arity, a.dim) for s in domain]
    for comp, space in enumerate(domain):
        for basis_cochain in space.basis_cochains:
            yield zeros[:comp] + [basis_cochain] + zeros[comp + 1 :]


def _reduced_tabulation(space, fn):
    d = space.algebra.dim
    reduced = [ZERO] * space.reduced_dim
    for pos, idx in enumerate(space.rep_tuples):
        for k, x in fn(idx).items():
            reduced[pos * d + k] = x
    return reduced


def columnwise_assemble(a, level):
    """Reference: the formula runs on every basis cochain separately."""
    _, domain_arities, codomain_shapes, tables = _LEVELS[level]
    domain = [build_cochain_space(a, n) for n in domain_arities]
    codomain = [build_cochain_space(a, n, pairs) for n, pairs in codomain_shapes]
    columns = []
    for cochains in _basis_inputs(a, domain):
        col = []
        for target, fn in zip(codomain, tables(a, *cochains)):
            col.extend(target.coords_from_reduced(_reduced_tabulation(target, fn)))
        columns.append(col)
    rows = sum(s.dim for s in codomain)
    if columns and rows:
        return Matrix.from_columns(columns, rows=rows)
    return Matrix.zeros(rows, len(columns))


def per_cochain_audit(a, level):
    """Reference: tabulate each basis cochain's image on all tuples."""
    audited = 0
    for cochains in _basis_inputs(a, operator_by_level(a, level).domain):
        _apply(a, level, *cochains)
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


def test_audit_counts_match_per_cochain(e0, e1):
    for a in (e0, e1):
        for level in LEVELS:
            assert verify_well_definedness(a, level) == per_cochain_audit(a, level)


# --- formulas whose output is not a cochain --------------------------------


def _pair_breaking(a, h):
    # h(x) at (x, y): nonzero on the diagonal pairs (x, x)
    e = FractionOps(a).e
    return [lambda idx: eval_sv(h, [e[idx[0]]]), lambda idx: {}]


def _equivariance_breaking(a, h):
    # h(x) - h(y) at (x, y): alternating, but not alpha-equivariant once
    # alpha scales the basis unevenly
    e = FractionOps(a).e

    def comp(idx):
        x, y = (e[i] for i in idx)
        return _acc((ONE, eval_sv(h, [x])), (-ONE, eval_sv(h, [y])))

    return [comp, lambda idx: {}]


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


def test_assembly_and_audit_catch_broken_equivariance(monkeypatch, e3):
    operator_by_level(e3, "1")
    _patch_level_1(monkeypatch, _equivariance_breaking)
    for check in (_assemble, columnwise_assemble, verify_well_definedness, per_cochain_audit):
        with pytest.raises(NotACochainError, match="equivariance"):
            check(e3, "1")
