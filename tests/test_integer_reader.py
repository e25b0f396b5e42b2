"""The concrete cochain reader in integers against the Fraction reader it replaced.

A cochain keeps its table as integer numerators over one denominator
(``Cochain.ints``), and ``CochainSpace.coords`` reads those numerators
through the defect forms; :func:`fraction_reference.fraction_read` reads
the values themselves.  Both must give the same coordinates on cochains
and the same error on broken tables.  Every reader of a cochain's values
also follows one rule for its entries: a string is its rational, and a
float or a bool is a TypeError.  A cochain that a space builds from
integers is the same value as the cochain of its table, and the
coordinates the space records on it are the Fraction reader's.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

from hlya.algebra import IntTable, bracket_series
from hlya.coboundary import apply_operator, operator_by_level
from hlya.cochain import Cochain, build_cochain_space, cochain_to_matrix, matrix_to_cochain
from hlya.cohomology import is_cocycle_2
from hlya.deformation import (
    Deformation,
    apply_gauge,
    bracket_cochain,
    compose_gauges,
    first_order_deformation,
    inverse_gauge,
    random_gauge,
    ternary_cochain,
    verify_deformation,
)
from hlya.errors import ArityError, DimMismatchError, NotACochainError
from hlya.serialize import cochain_from_obj, cochain_to_obj
from hlya.samples import heisenberg_twisted, random_verified_algebras, sl2

from fraction_reference import coordinate_row, fraction_read

_VALUES = (0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7))


@pytest.fixture(scope="module")
def corpus():
    return random_verified_algebras(12345, 20)


def _spaces(a):
    """C1..C5, C5 only up to dimension 3."""
    return [build_cochain_space(a, n) for n in range(1, 6 if a.dim <= 3 else 5)]


def _outcome(read):
    """read()'s coordinates, or its error as (class, message, kind, 1-based tuple)."""
    try:
        return read()
    except (NotACochainError, DimMismatchError, ArityError) as exc:
        return type(exc), str(exc), getattr(exc, "kind", None), getattr(exc, "basis_tuple", None)


def test_integer_reader_gives_the_fraction_coordinates(bundled, twisted_algebras, corpus):
    rng = random.Random(28)
    for a in [*bundled, *twisted_algebras, *corpus]:
        for space in _spaces(a):
            for _ in range(3):
                coords = [rng.choice(_VALUES) for _ in range(space.dim)]
                c = space.from_coords(coords)
                got = space.coords(c)
                assert got == fraction_read(space, c.table) == coords, (a.name, space)
                assert all(type(x) is Fraction for x in got)
                twin = Cochain(c.arity, c.dim, dict(c.table))
                assert (twin, space.coords(twin)) == (c, got)


def _scaled(t, m):
    """The table t with numerators and denominator times m: the same map."""
    return IntTable(t.den * m, {key: {k: x * m for k, x in vec.items()} for key, vec in t.entries.items()})


def _built_from_integers(a, rng):
    """(space, cochain) for cochains that spaces build from integers:
    from_coords, from_rep_values and from_table on random cochains of
    C1..C5, and the outputs of random_gauge, compose_gauges, inverse_gauge,
    apply_gauge and apply_operator."""
    built = []
    for space in _spaces(a):
        c = space.from_coords([rng.choice(_VALUES) for _ in range(space.dim)])
        reps = {idx: vec for idx in space.rep_tuples if (vec := c.ints.entries.get(idx))}
        m = rng.choice((1, 2, 6))
        built += [
            (space, c),
            (space, space.from_rep_values(_scaled(IntTable(c.ints.den, reps), m))),
            (space, space.from_table(_scaled(c.ints, m))),
        ]
    c1, c2, c3 = (build_cochain_space(a, n) for n in (1, 2, 3))
    p, q = random_gauge(a, 2, rng), random_gauge(a, 2, rng)
    for g in (p, compose_gauges(p, q), inverse_gauge(p)):
        built += [(c1, h) for h in g.phi]
    f = [bracket_cochain(a), *(c2.from_coords([rng.choice(_VALUES) for _ in range(c2.dim)]) for _ in range(2))]
    g = [ternary_cochain(a), *(c3.from_coords([rng.choice(_VALUES) for _ in range(c3.dim)]) for _ in range(2))]
    moved = apply_gauge(Deformation(a, 2, f, g), p)
    built += [(c2, x) for x in moved.f_seq[1:]] + [(c3, x) for x in moved.g_seq[1:]]
    for level in ("1", "2", "d2", "3") if a.dim <= 3 else ("1", "2", "d2"):
        op = operator_by_level(a, level)
        cochains = [s.from_coords([rng.choice(_VALUES) for _ in range(s.dim)]) for s in op.domain]
        built += list(zip(op.codomain, apply_operator(a, level, *cochains)))
    return built


def _rebuilt(space, c):
    """c built anew by every path that builds a cochain: from its table of
    Fractions and of strings, by add, sub and scale, through the file
    format and, for a 1-cochain, a matrix, and by the space from its
    coordinates, its table and its representative values."""
    a, table = space.algebra, c.ints.fractions(c.dim)
    zero = Cochain.zero(c.arity, c.dim)
    half = c.scale(Fraction(1, 2))
    reps = {idx: vec for idx in space.rep_tuples if (vec := c.ints.entries.get(idx))}
    rebuilt = [
        Cochain(c.arity, c.dim, table),
        Cochain(c.arity, c.dim, {idx: tuple(map(str, vec)) for idx, vec in table.items()}),
        c.add(zero),
        half.add(half),
        c.scale(3).sub(c.scale(2)),
        zero.sub(c).scale(-1),
        cochain_from_obj(cochain_to_obj(c), c.arity, c.dim),
        space.from_coords(space.coords(c)),
        space.from_table(_scaled(c.ints, 3)),
        space.from_rep_values(IntTable(c.ints.den, reps)),
    ]
    if c.arity == 1:
        rebuilt.append(matrix_to_cochain(a, cochain_to_matrix(a, c)))
    return rebuilt


def test_cochains_built_from_integers_are_the_cochains_of_their_tables(bundled, twisted_algebras, corpus):
    """Every path gives a cochain the one canonical integer table: the
    same value, hash, zero test and file bytes, and hashing, comparing and
    the zero test never build the Fraction table."""
    rng = random.Random(31)
    nonzero = 0
    for a in [*bundled, *twisted_algebras, *corpus]:
        for space, c in _built_from_integers(a, rng):
            where = (a.name, space)
            recorded = c._recorded(space)
            assert c.sub(c) == Cochain.zero(c.arity, c.dim) and c.sub(c).is_zero(), where
            rebuilt, dumped = _rebuilt(space, c), json.dumps(cochain_to_obj(c))
            for twin in rebuilt:
                assert c == twin and twin == c and hash(c) == hash(twin), where
                assert c.is_zero() == twin.is_zero() == (not c.ints.entries), where
                assert twin._table is None, where
                # the integer table is the canonical one: each path reaches it anew
                assert (c.ints.den, c.ints.entries) == (twin.ints.den, twin.ints.entries), where
                assert json.dumps(cochain_to_obj(twin)) == dumped, where
            table, twin = dict(c.table), rebuilt[0]
            for idx in itertools.product(range(a.dim), repeat=c.arity):
                assert c.value(idx) == twin.value(idx), where
            assert recorded is not None and recorded == coordinate_row(fraction_read(space, table)), where
            nonzero += not c.is_zero()
    assert nonzero


def test_a_non_equivariant_rep_table_records_nothing_and_reads_as_before():
    """from_rep_values lays a table out through the orbit map, so only
    alpha-equivariance can fail; a table that breaks it gets no
    coordinates, and coords raises what it raised when nothing was
    recorded (the error pinned here is that reader's on this input)."""
    a = heisenberg_twisted()
    pinned = {
        2: ((0, 2), "map violates the alpha-equivariance condition at tuple (1, 3)", (1, 3)),
        3: ((0, 1, 1), "map violates the alpha-equivariance condition at tuple (1, 2, 2)", (1, 2, 2)),
    }
    for n, (rep, message, tup) in pinned.items():
        space = build_cochain_space(a, n)
        c = space.from_rep_values(IntTable(2, {rep: {0: 1}}))
        assert c._recorded(space) is None
        expected = (NotACochainError, message, "equivariance", tup)
        assert _outcome(lambda: space.coords(c)) == expected
        assert _outcome(lambda: fraction_read(space, dict(c.table))) == expected
        assert c._recorded(space) is None and not space.contains(c)


def _broken_tables(rng, space):
    """(fault, table) pairs, each a random cochain of ``space`` with one
    planted fault: a value at a diagonal tuple, a swapped tuple holding its
    partner's value instead of its negative, a short value vector, and a
    value at a tuple out of range and at one of another length."""
    d, n = space.algebra.dim, space.arity
    table = dict(space.from_coords([rng.choice(_VALUES[1:]) for _ in range(space.dim)]).table)
    vec = tuple(rng.choice(_VALUES[1:]) for _ in range(d))
    key = min(table) if table else space.rep_tuples[0]
    faults = [
        ("short", {**table, key: vec[:-1]}),
        ("out of range", {**table, (d,) + (0,) * (n - 1): vec}),
        ("length", {**table, (0,) * (n + 1): vec}),
    ]
    if n >= 2:
        faults.append(("diagonal", {**table, (0,) * n: vec}))
        if table:
            idx = rng.choice(sorted(table))
            faults.append(("pair", {**table, (idx[1], idx[0], *idx[2:]): table[idx]}))
    return faults


def test_integer_reader_raises_the_fraction_readers_error(bundled, twisted_algebras, corpus):
    rng = random.Random(29)
    seen = set()
    for a in [*bundled, *twisted_algebras, *corpus]:
        for space in _spaces(a):
            for fault, table in _broken_tables(rng, space):
                expected = _outcome(lambda: fraction_read(space, table))
                assert type(expected) is tuple, (a.name, space, fault)
                read = lambda: space.coords(Cochain(space.arity, a.dim, table))
                assert _outcome(read) == expected, (a.name, space, fault)
                seen.add(expected[2] or expected[0].__name__)
    assert seen == {"diagonal", "pair-antisymmetry", "DimMismatchError", "ArityError"}


def test_integer_reader_names_the_fraction_readers_equivariance_defect():
    """Random values at the representative tuples of heisenberg_twisted,
    extended by pair antisymmetry alone, mostly break equivariance."""
    a = heisenberg_twisted()
    rng = random.Random(30)
    broken = 0
    for space in _spaces(a):
        for _ in range(6):
            reps = rng.sample(space.rep_tuples, min(3, len(space.rep_tuples)))
            values = {idx: {rng.randrange(a.dim): rng.choice((1, -1, 2, 3))} for idx in reps}
            table = dict(space.from_rep_values(IntTable(rng.choice((1, 2, 6)), values)).table)
            expected = _outcome(lambda: fraction_read(space, table))
            assert _outcome(lambda: space.coords(Cochain(space.arity, a.dim, table))) == expected, space
            broken += type(expected) is tuple and expected[2] == "equivariance"
    assert broken


def test_a_string_entry_is_its_rational_in_every_reader():
    """A first-order deformation with string entries passes the series
    check and verify_deformation, and every reader agrees with the same
    cochain in Fractions."""
    a = sl2()
    strings = Cochain(2, 3, {(0, 1): ("1/2", 0, 0), (1, 0): ("-1/2", 0, 0)})
    fractions = Cochain(2, 3, {(0, 1): (Fraction(1, 2), 0, 0), (1, 0): (Fraction(-1, 2), 0, 0)})
    zero = Cochain.zero(3, 3)
    space = build_cochain_space(a, 2)
    assert space.coords(strings) == space.coords(fractions)
    assert (strings.ints.den, strings.ints.entries) == (fractions.ints.den, fractions.ints.entries)
    assert strings == fractions and hash(strings) == hash(fractions)
    assert strings.eval([(1, 0, 0), (0, 1, 0)]) == (Fraction(1, 2), 0, 0)
    assert verify_deformation(first_order_deformation(a, strings, zero)) == verify_deformation(
        first_order_deformation(a, fractions, zero)
    )
    assert apply_operator(a, "2", strings, zero) == apply_operator(a, "2", fractions, zero)
    assert is_cocycle_2(a, strings, zero) == is_cocycle_2(a, fractions, zero)


@pytest.mark.parametrize("entry", [0.5, True], ids=["float", "bool"])
def test_a_float_or_bool_entry_is_a_type_error_in_every_reader(entry):
    """A cochain converts its table when it is built, so the entry is
    refused there, before any reader of a cochain could see it; the
    readers of raw entries refuse it too."""
    space = build_cochain_space(sl2(), 2)
    c = space.basis_cochains[0]
    readers = [
        lambda: Cochain(2, 3, {(0, 1): (entry, 0, 0), (1, 0): (-entry, 0, 0)}),
        lambda: c.scale(entry),
        lambda: c.eval([(entry, 0, 0), (0, 1, 0)]),
        lambda: space.from_coords([entry] + [0] * (space.dim - 1)),
    ]
    for read in readers:
        with pytest.raises(TypeError, match="not an exact rational"):
            read()
