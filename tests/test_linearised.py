"""Linearise-once assembly and audit against the per-cochain loops.

The reference functions below are the column-by-column assembly and the
per-cochain full-tabulation audit: each domain basis cochain is pushed
through the operator formula on its own, and its image is read back by
``apply_operator``, which tabulates it on all tuples.  The package binds
each formula once to generic tables instead, probes it at the
representative tuples to assemble and joins it at all tuples to audit,
each codomain condition a linear defect form; both must give equal
matrices, equal audit counts, and the same kind of NotACochainError on
formulas whose output is not a cochain.
"""

from collections import Counter, defaultdict
from types import SimpleNamespace

import pytest

from hlya import coboundary
from hlya.algebra import FormTable, IntTable, int_table
from hlya.coboundary import (
    _LEVELS,
    _assemble,
    _generic_inputs,
    apply_operator,
    operator_by_level,
    verify_well_definedness,
)
from hlya.cochain import Cochain, CochainSpace, build_cochain_space
from hlya.errors import NotACochainError
from hlya.samples import random_verified_algebras

from fraction_reference import from_columns
from tabulated import Probed

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
        for target, formula in zip(codomain, tables(a, *(int_table(c.table) for c in cochains))):
            value = formula.probe()
            image = target.from_rep_values(IntTable(formula.den, {idx: value(idx) for idx in target.rep_tuples}))
            col.extend(target.coords(image))
        columns.append(col)
    return from_columns(columns, sum(s.dim for s in codomain))


def per_cochain_audit(a, level):
    """Reference: tabulate each basis cochain's image on all tuples."""
    audited = 0
    for cochains in _basis_inputs(a, operator_by_level(a, level).domain):
        apply_operator(a, level, *cochains)
        audited += 1
    return audited


def first_failing(a, level):
    """Reference witness: (kind, 1-based tuple, index) of the first domain
    basis input whose image ``apply_operator`` rejects, or None."""
    for j, cochains in enumerate(_basis_inputs(a, operator_by_level(a, level).domain)):
        try:
            apply_operator(a, level, *cochains)
        except NotACochainError as exc:
            return exc.kind, exc.basis_tuple, j
    return None


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


def test_joined_generic_images_have_no_defect(bundled, twisted_algebras):
    # the generic tables span the domain exactly, so each level's joined
    # image is a cochain in every unknown: no defect form at all
    joined = 0
    for a in [*bundled, *twisted_algebras, *random_verified_algebras(12345, 60)]:
        for level, (_, arities, shapes, tables) in _LEVELS.items():
            for (n, pairs), formula in zip(shapes, tables(a, *_generic_inputs(a, arities))):
                values = formula.join()
                assert build_cochain_space(a, n, pairs).defects(values) == [], (a.name, level, n)
                joined += bool(values)
    assert joined > 200


class _CountedTable(dict):
    """A joined table that records the keys its ``get`` reads in ``reads``."""

    def __init__(self, entries, reads, block):
        super().__init__(entries)
        self.reads, self.block = reads, block

    def get(self, key, default=None):
        self.reads[self.block].append(key)
        return super().get(key, default)


def _orbit(idx, pairs):
    """The tuples that differ from ``idx`` by swapping some of its first
    ``pairs`` slot pairs; empty when a pair holds equal arguments."""
    if any(idx[2 * p] == idx[2 * p + 1] for p in range(pairs)):
        return set()
    variants = [()]
    for p in range(pairs):
        x, y = idx[2 * p : 2 * p + 2]
        variants = [v + s for v in variants for s in ((x, y), (y, x))]
    return {v + idx[2 * pairs :] for v in variants}


def test_audit_evaluates_each_tuple_once_and_applies_no_basis_on_sl2(monkeypatch, e2, twisted_algebras):
    # each codomain block's formula is joined once, and its table is read
    # once at every member of an orbit that holds a nonzero entry and at no
    # other tuple; a correct operator leaves no defect form
    joins, reads, tables, defects, applied = Counter(), defaultdict(list), {}, [], []

    def counting(level, block, contraction):
        def join():
            joins[level, block] += 1
            table = tables[level, block] = _CountedTable(contraction.join(), reads, (level, block))
            return table

        return SimpleNamespace(den=contraction.den, probe=contraction.probe, join=join)

    def counted(level, formula):
        def tables(a, *generic):
            return [counting(level, block, c) for block, c in enumerate(formula(a, *generic))]

        return tables

    def recorded(space, fn):
        found = defects_of(space, fn)
        defects.append(len(found))
        return found

    def check_defects(found, *args, **witness):
        applied.append(len(found))
        return check_of(found, *args, **witness)

    defects_of, check_of = CochainSpace.defects, coboundary.check_defects
    tuples = 0
    monkeypatch.setattr(CochainSpace, "defects", recorded)
    monkeypatch.setattr(coboundary, "check_defects", check_defects)
    for level in LEVELS:
        name, domain, codomain, formula = _LEVELS[level]
        operator_by_level(e2, level)
        monkeypatch.setitem(coboundary._LEVELS, level, (name, domain, codomain, counted(level, formula)))
        verify_well_definedness(e2, level)
        assert [joins[level, b] for b in (0, 1)] == [1, 1], level
        for block, (n, pairs) in enumerate(codomain):
            table, read = tables[level, block], reads[level, block]
            pairs = n // 2 if pairs is None else pairs
            touched = set().union(*(_orbit(idx, pairs) for idx, value in table.items() if value))
            assert sorted(read) == sorted(touched), (level, block)
            tuples += e2.dim**n
    # the diagonal tuples, and the orbits where every image vanishes, go unread
    assert 0 < sum(map(len, reads.values())) < tuples
    assert len(defects) == 8 and not any(defects) and not any(applied)
    # the generic tables span the domain exactly, so under the non-diagonal
    # twist too the equivariance residual of a correct operator is no form
    twist = twisted_algebras[1]
    assert twist.name == "sl2_twist_7_11"
    operator_by_level(twist, "1")
    verify_well_definedness(twist, "1")
    assert len(defects) == 10 and not any(defects[8:]) and not any(applied[8:])


# --- formulas whose output is not a cochain --------------------------------
#
# The formulas take integer tables, generic ones included: h's entry at
# (i,) holds h(e_i) as numerators over h.den, so the values below are read
# from it without looking at its output indices.  Each block is a map on
# tuples, dressed as a contraction (``Probed``) for both read orders.


def _h(h, i):
    return h.entries.get((i,), {})


def _blocks(a, first, den):
    """Level 1's two blocks: ``first`` on pairs, as numerators over ``den``,
    and zero on triples."""
    return [Probed(a.dim, 2, first, den), Probed(a.dim, 3, lambda idx: {})]


def _pair_breaking(a, h):
    # h(x) at (x, y): nonzero on the diagonal pairs (x, x)
    return _blocks(a, lambda idx: dict(_h(h, idx[0])), h.den)


def _increasing_only(a, h):
    # h(x) at (x, y) with x < y, zero elsewhere: the representative values
    # of an alternating map, but zero at every swapped partner
    return _blocks(a, lambda idx: dict(_h(h, idx[0])) if idx[0] < idx[1] else {}, h.den)


def _equivariance_breaking(a, h):
    # h(x) - h(y) at (x, y): alternating, but not alpha-equivariant once
    # alpha scales the basis unevenly
    def comp(idx):
        acc = dict(_h(h, idx[0]))
        for key, c in _h(h, idx[1]).items():
            acc[key] = acc.get(key, 0) - c
        return {key: c for key, c in acc.items() if c}

    return _blocks(a, comp, h.den)


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


# a fixed map v on the 4-tuples, by the kind of its first defect in C4:
# a diagonal value, a value whose swapped partners are zero, and an
# alternating map that the non-diagonal sl2 twist does not commute with
_FAULTS = {
    "diagonal": {(0, 0, 1, 2): 1},
    "pair-antisymmetry": {(0, 1, 0, 2): 1},
    "equivariance": {(0, 1, 0, 2): 1, (1, 0, 0, 2): -1, (0, 1, 2, 0): -1, (1, 0, 2, 0): 1},
}


@pytest.mark.parametrize("kind", sorted(_FAULTS))
def test_audit_witness_past_column_0_matches_per_cochain(monkeypatch, twisted_algebras, kind):
    # level 2's first block becomes phi(g) v, phi(g) one coordinate of g at
    # one tuple, chosen to vanish on the first C3 basis cochain and not on
    # all: only the columns with phi != 0 fail, the first of them past
    # column C2.dim, and the witness must name the reference's column
    a = twisted_algebras[1]
    assert a.name == "sl2_twist_7_11"
    c2, c3 = operator_by_level(a, "2").domain
    first, *rest = c3.basis_cochains
    at, k = next(
        (idx, k)
        for idx in c3.rep_tuples
        for k in range(a.dim)
        if not first.value(idx)[k] and any(b.value(idx)[k] for b in rest)
    )
    v = _FAULTS[kind]

    def faulty(a, f, g):
        # phi(g) e_0 as numerators: {0: c} on a concrete g, {(0, u): c} on
        # a generic one, whose output indices are (k, u)
        entry = g.entries.get(at, {})
        if isinstance(g, FormTable):
            phi = {(0, u): c for (m, u), c in entry.items() if m == k}
        else:
            phi = {0: entry[k]} if k in entry else {}

        def value(idx):
            x = v.get(idx)
            return {key: x * c for key, c in phi.items()} if x else {}

        return [Probed(a.dim, 4, value, g.den), Probed(a.dim, 5, lambda idx: {})]

    name, domain, codomain, _ = _LEVELS["2"]
    monkeypatch.setitem(coboundary._LEVELS, "2", (name, domain, codomain, faulty))
    expected = first_failing(a, "2")
    assert expected[0] == kind and expected[2] > c2.dim
    checks = [verify_well_definedness] + ([_assemble] if kind == "equivariance" else [])
    for check in checks:
        with pytest.raises(NotACochainError) as exc:
            check(a, "2")
        assert (exc.value.kind, exc.value.basis_tuple, exc.value.basis_index) == expected, check.__name__
