"""The t^n coefficient of an identity on a bracket series, for the tests.

The package reads the identities at three orders: 0 at an algebra's own
tables (``hlya.algebra.identity_values``), 1 as the degree-2 coboundary
operators, and the terms outer_1(inner_1) of 2 as the quadratic part of
the deformation equations.  The tests that check a property of every
order, the antisymmetry behind the representative scans, the two read
orders of a contraction, bind the t^n coefficient of a whole series with
the one statement of it, ``series_terms(k, n)``, through ``contract``.
"""

from hlya.algebra import IntTable, _scan, alpha_table, brackets, contract, series_terms


def coefficient(a, k, n, f_higher=(), g_higher=()):
    """The t^n coefficient of identity k, a contraction, on the series with
    a's brackets at t^0 and ``f_higher[i - 1]``, ``g_higher[i - 1]`` at t^i:
    cochains, or integer tables such as generic ones."""
    br, tr = brackets(a)
    tables = {("f", 0): br, ("g", 0): tr, ("alpha", 0): alpha_table(a, 1)}
    for name, higher in (("f", f_higher), ("g", g_higher)):
        for i, c in enumerate(higher, 1):
            tables[name, i] = c if isinstance(c, IntTable) else c.ints
    return contract(a, tables, series_terms(k, n))


def scanned_first_failure(a, k, contraction):
    """The first of identity k's scan tuples (1-based) at which the
    contraction is nonzero, None if none: the scan of the axioms, at any
    order."""
    value = contraction.probe()
    return next((tuple(i + 1 for i in idx) for idx in _scan(a, k) if value(idx)), None)


def order_one_terms(k):
    """The terms of series_terms(k, 2) whose tables are all of order 1,
    outer_1(inner_1): the quadratic part of equation k."""
    return tuple(
        (sign, outer, args)
        for sign, outer, args in series_terms(k, 2)
        if {outer, *(arg[0] for arg in args if isinstance(arg[0], tuple))} <= {("f", 1), ("g", 1)}
    )
