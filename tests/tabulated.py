"""Per-tuple maps as whole tables, for the tests.

:func:`tabulate` reads a map at every basis tuple, and :class:`Probed`
dresses a per-tuple map as one block of a formula of
``hlya.coboundary._LEVELS``, so a formula double serves both read orders
of :class:`hlya.algebra.Contraction`: its probe is the map and its join
the map read at every tuple; :func:`numerators` dresses a rational map
as integer numerators over one denominator, as a contraction's are.
:func:`scanned_defects` is the defect reader that reads a table at every
basis tuple, the reference for :meth:`hlya.cochain.CochainSpace.defects`,
which reads only the table's entries and the orbits they touch.
"""

import itertools
from math import lcm

from hlya.exactlin import ZERO, rat


def to_dense(sv, dim):
    """A sparse vector {index: value} as a dense tuple of ``dim`` values."""
    return tuple(sv.get(i, ZERO) for i in range(dim))


def tabulate(a, arity, fn):
    """fn maps a basis tuple to a sparse value; the table of its nonzero
    values at every tuple, as dense vectors."""
    table = {}
    for idx in itertools.product(range(a.dim), repeat=arity):
        sv = fn(idx)
        if sv:
            table[idx] = to_dense(sv, a.dim)
    return table


class Probed:
    """The map ``fn`` on ``arity`` slots of dimension ``dim``, read as a
    contraction over the denominator ``den``."""

    def __init__(self, dim, arity, fn, den=1):
        self.dim, self.arity, self.fn, self.den = dim, arity, fn, den

    def probe(self):
        return self.fn

    def join(self):
        tuples = itertools.product(range(self.dim), repeat=self.arity)
        return {idx: value for idx in tuples if (value := self.fn(idx))}


def numerators(dim, arity, fn, tuples=None):
    """fn, whose values are rational, read at ``tuples`` (by default every
    tuple) and dressed as a contraction whose values are integer numerators
    over the lcm of their denominators, as those of
    :class:`hlya.algebra.Contraction` are; it is zero at the other tuples."""
    if tuples is None:
        tuples = itertools.product(range(dim), repeat=arity)
    values = {idx: value for idx in tuples if (value := fn(idx))}
    den = lcm(*(rat(x).denominator for value in values.values() for x in value.values()))
    ints = {idx: {k: int(x * den) for k, x in value.items() if x} for idx, value in values.items()}
    return Probed(dim, arity, lambda idx: ints.get(idx, {}), den)


def scanned_defects(space, table):
    """The defects of ``table`` as a map into ``space``, read once at every
    basis tuple in lexicographic order: the first tuple met in each orbit
    is its representative, a value at a tuple off the orbit map is a
    "diagonal" defect, value - sign * representative value at every other
    tuple of an orbit a "pair-antisymmetry" one, and the "equivariance"
    defects follow, from the representative forms."""
    orbit = space._orbit
    reps, negated = [], {}
    defects = []
    read, empty = table.get, {}
    for idx in itertools.product(range(space.algebra.dim), repeat=space.arity):
        value = read(idx, empty)
        found = orbit.get(idx)
        if found is None:
            if value:
                defects.append(("diagonal", idx, value))
            continue
        pos, sign = found
        if pos == len(reps):  # the first tuple met in its orbit
            reps.append(value)
            continue
        rep = reps[pos]
        if sign == -1:
            rep = negated.get(pos)
            if rep is None:
                rep = negated[pos] = {key: -c for key, c in reps[pos].items()}
        if value != rep:
            defect = dict(value)
            for key, c in rep.items():
                defect[key] = defect.get(key, 0) - c
            defects.append(("pair-antisymmetry", idx, defect))
    return defects + space._residual(space._forms(enumerate(reps)))
