"""Per-tuple maps as whole tables, for the tests.

:func:`tabulate` reads a map at every basis tuple, and :class:`Probed`
dresses a per-tuple map as one block of a formula of
``hlya.coboundary._LEVELS``, so a formula double serves both read orders
of :class:`hlya.algebra.Contraction`: its probe is the map and its join
the map read at every tuple.
"""

import itertools

from hlya.exactlin import ZERO


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
    contraction over the denominator 1."""

    den = 1

    def __init__(self, dim, arity, fn):
        self.dim, self.arity, self.fn = dim, arity, fn

    def probe(self):
        return self.fn

    def join(self):
        tuples = itertools.product(range(self.dim), repeat=self.arity)
        return {idx: value for idx in tuples if (value := self.fn(idx))}
