"""The two read orders of a contraction agree at every basis tuple.

A :class:`hlya.algebra.Contraction` is probed one tuple at a time by the
scans (identity checks, assembly, the obstruction, derivations) and joined
at every tuple at once by the full-tabulation readers (the audit,
``apply_operator``, ``from_lya_standard``).  The join must hold the probe's
numerators at each tuple where they are not all zero, and no other tuple.
The inputs are concrete integer tables with denominators and generic
tables (:class:`hlya.algebra.FormTable`), in the outer and the nested slot,
on the bundled algebras, the twisted fixtures and the seed-12345 corpus,
and on two dim-5 Heisenberg algebras, where each join reads its codes at
base 5.
"""

import itertools
import random

import pytest

from hlya.algebra import (
    IDENTITIES,
    IntTable,
    brackets,
    contract,
    from_lie_algebra,
    from_lya_standard,
    int_table,
)
from hlya.coboundary import DELTA1, DELTA3, leibniz, quadratic_part
from hlya.cochain import build_cochain_space
from hlya.samples import random_verified_algebras

from draws import random_cochain
from series import coefficient


def _probed(contraction, dim, arity):
    """The probe's numerators at every basis tuple, zero values left out."""
    value = contraction.probe()
    tuples = itertools.product(range(dim), repeat=arity)
    return {idx: vec for idx in tuples if (vec := value(idx))}


def _assert_join_is_probe(contraction, dim, arity, label):
    joined = contraction.join()
    assert joined == _probed(contraction, dim, arity), label
    return len(joined)


@pytest.fixture(scope="module")
def algebras(bundled, twisted_algebras):
    """The bundle, the sl2 twists (7/11 not diagonal), Heisenberg diag(2, 3, 6)
    with C4 .. C7 empty, and gl2."""
    return [*bundled, *twisted_algebras]


@pytest.fixture(scope="module")
def heisenberg5():
    """The Heisenberg algebra h5, [x_i, y_i] = z on the basis x1, x2, y1, y2,
    z, twisted by diag(1/2, 3, 2, 1/3, 1) as a Lie algebra, and its
    untwisted standard form, whose ternary bracket [[x y] z] is zero as z
    is central.  Probing every tuple of arity 5 at dim 5 is cheap, of
    arity 7 (delta3) is not, so these read the identities and delta1."""
    bracket = [[[0] * 5 for _ in range(5)] for _ in range(5)]
    for x, y in ((0, 2), (1, 3)):
        bracket[x][y][4], bracket[y][x][4] = 1, -1
    twist = [[0] * 5 for _ in range(5)]
    for i, x in enumerate(("1/2", 3, 2, "1/3", 1)):
        twist[i][i] = x
    return [from_lie_algebra(bracket, twist, name="h5_twist"), from_lya_standard(bracket, name="h5")]


@pytest.fixture(scope="module")
def corpus():
    return random_verified_algebras(12345, 20)


def _generic(a, arities):
    """Generic tables of the spaces of ``arities``, unknowns numbered on."""
    tables, offset = [], 0
    for n in arities:
        space = build_cochain_space(a, n)
        tables.append(space.generic(offset))
        offset += space.dim
    return tables


def test_identities_join_as_they_probe_on_random_series(algebras, corpus, heisenberg5):
    rng = random.Random(2501)
    nonzero = 0
    for a in algebras + corpus + heisenberg5:
        f_higher = [random_cochain(a, 2, rng) for _ in range(2)]
        g_higher = [random_cochain(a, 3, rng) for _ in range(2)]
        for (k, identity), n in itertools.product(IDENTITIES.items(), range(3)):
            contraction = coefficient(a, k, n, f_higher, g_higher)
            nonzero += _assert_join_is_probe(contraction, a.dim, identity.arity, (a.name, k, n))
    assert nonzero > 1000


def test_identities_join_as_they_probe_on_generic_tables(algebras, corpus, heisenberg5):
    nonzero = 0
    for a in algebras + corpus + heisenberg5:
        f, g = _generic(a, (2, 3))
        for k, identity in IDENTITIES.items():
            contraction = coefficient(a, k, 1, (f,), (g,))
            nonzero += _assert_join_is_probe(contraction, a.dim, identity.arity, (a.name, k))
    assert nonzero > 1000


def _formulas(a, large=True):
    """(label, contractions, codomain arities) of delta1 and the twisted
    Leibniz rules on a generic C1, then, if ``large``, of delta3 on generic
    domain tables and of the quadratic parts of identities 5-8; h is read
    both as an outer and as a nested table, and a quadratic part reads the
    generic pair of C2 x C3 in both slots of each nested term, so its values
    carry an unknown from each."""
    br, tr = brackets(a)
    (h,) = _generic(a, (1,))
    with_h = {"br": br, "tr": tr, "h": h}

    def bound(components, tables):
        return [contract(a, tables, terms) for terms in components]

    yield "delta1", bound(DELTA1, with_h), (2, 3)
    for k in (1, 2, 3):
        yield f"leibniz({k})", bound(leibniz(k), with_h), (2, 3)
    if not large:
        return
    f, g = _generic(a, (4, 5))
    yield "delta3", bound(DELTA3, {"br": br, "tr": tr, "f": f, "g": g}), (6, 7)
    for k in (5, 6, 7, 8):
        yield f"quadratic_part({k})", [quadratic_part(a, k)], (IDENTITIES[k].arity,)


def test_formulas_join_as_they_probe_on_generic_tables(algebras, corpus, heisenberg5):
    nonzero = 0
    inputs = [(a, True) for a in algebras + corpus] + [(a, False) for a in heisenberg5]
    for a, large in inputs:
        for label, contractions, arities in _formulas(a, large):
            for block, (contraction, n) in enumerate(zip(contractions, arities)):
                nonzero += _assert_join_is_probe(contraction, a.dim, n, (a.name, label, block))
    assert nonzero > 1000


def test_an_empty_nested_table_drops_its_terms_in_both_orders(algebras):
    # the nested h is the zero map: only the plain twisted bracket is left
    sl2_twist = algebras[5]
    assert sl2_twist.name == "sl2_twist_7_11"
    br = brackets(sl2_twist)[0]
    terms = ((1, "br", ((0, 0), ("h", 1))), (2, "br", ((1, 1), (2, 0))))
    contraction = contract(sl2_twist, {"br": br, "h": IntTable(1, {})}, terms)
    assert _assert_join_is_probe(contraction, 3, 2, "empty h") > 0
    alone = contract(sl2_twist, {"br": br}, terms[1:])
    assert contraction.join() == alone.join() and contraction.den == alone.den


def test_empty_codomains_join_to_empty_tables(algebras):
    # Heisenberg diag(2, 3, 6): C4 and C5 are 0-dimensional, so delta3's
    # generic domain tables are zero and every term of it is dropped
    heisenberg = algebras[6]
    assert heisenberg.name == "heisenberg_236"
    br, tr = brackets(heisenberg)
    f, g = _generic(heisenberg, (4, 5))
    assert not f and not g
    for terms in DELTA3:
        assert contract(heisenberg, {"br": br, "tr": tr, "f": f, "g": g}, terms).join() == {}


def test_a_term_that_skips_a_slot_probes_but_does_not_join(algebras):
    # h(alpha^2 x_1) on pairs reads no x_0: it has a value at each tuple,
    # but no one tuple for the join to put an entry of h at
    a = algebras[4]
    h = int_table(random_cochain(a, 1, random.Random(2502)).table)
    contraction = contract(a, {"h": h}, [(1, "h", ((2, 1),))])
    assert any(contraction.probe()((i, j)) for i, j in itertools.product(range(a.dim), repeat=2))
    with pytest.raises(ValueError, match="every slot"):
        contraction.join()
