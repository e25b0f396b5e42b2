"""Truncated one-parameter formal deformations and their gauge theory.

A deformation of order N deforms both brackets by cochain-valued
coefficients (f_i, g_i), i = 0..N, with (f_0, g_0) the base structure; the
eight order-by-order deformation equations express that the deformed
structure satisfies the defining identities through t^N.  They are not
written out here: equation k at order n is the t^n coefficient of identity
k of :data:`hlya.algebra.IDENTITIES` with the series f = sum f_i t^i and
g = sum g_i t^i substituted.  At n = 1 that coefficient is linear in
(f_1, g_1), which is why the infinitesimal of a deformation is a cocycle of
delta2 and d2.  The obstruction pair is minus the t^2 coefficient of
identities 7 and 8 with (f_1, g_1) and no second-order term, so a
second-order term must solve delta2(f_2, g_2) = +(F, G).  At every order
n >= 1 the coefficient splits the same way (Gerstenhaber's form of the
equation): equation k is L_k(f_n, g_n) + Q_{k,n}, with L_k the t^1
coefficient, a codomain block of delta2 (k = 7, 8) or d2 (k = 5, 6), and
Q_{k,n} quadratic in the orders 1..n-1.  Equations 5-8 are evaluated so:
L_k read off the linearised operator's forms on the coordinates of
(f_n, g_n), and only Q_{k,n} contracted, not at all at n = 1.  With
(f_2, g_2) substituted, 7' and 8' are delta2(f_2, g_2) - (F, G): the
second-order probe accepts a candidate exactly when they vanish at n = 2,
read against the (F, G) already computed.  Gauges are
truncated invertible series of 1-cochains (linear maps commuting with
alpha) with identity constant term; they act on deformations by
f' = Phi^{-1} f(Phi ., Phi .) and likewise on the ternary part.
"""

from __future__ import annotations

import itertools
from math import lcm
from typing import NamedTuple

from .algebra import (
    IDENTITIES,
    Algebra,
    IntTable,
    _plan,
    axiom_witnesses,
    bracket_series,
    brackets,
    compose_out,
    compose_slot,
    identity_values,
    memoised,
    table_sum,
)
from .coboundary import delta2, delta3, linear_part
from .cochain import Cochain, _canonical, build_cochain_space, cochain_to_matrix, identity_cochain, matrix_to_cochain
from .cohomology import _closed, _preimage, is_cocycle_2, pair_coords, pair_from_coords
from .errors import (
    BaseMismatchError,
    NotACochainError,
    NotCocycleError,
    NotInZ2Z3Error,
    PreconditionError,
)
from .exactlin import Frozen, Subspace, flatten, solve, unflatten

DEFAULT_ORDER = 4


@memoised
def bracket_cochain(a: Algebra) -> Cochain:
    """The base binary bracket as a 2-cochain."""
    return Cochain._of(2, a.dim, _canonical(brackets(a)[0]))


@memoised
def ternary_cochain(a: Algebra) -> Cochain:
    """The base ternary bracket as a 3-cochain."""
    return Cochain._of(3, a.dim, _canonical(brackets(a)[1]))


def _coefficient(space, c, n: int) -> None:
    """PreconditionError unless ``c``, the coefficient at order n, is a
    cochain of ``space``; ArityError or DimMismatchError for another shape."""
    if not isinstance(c, Cochain):
        raise PreconditionError(f"coefficient at order {n} must be a Cochain, got {type(c).__name__}")
    try:
        space.coords(c)
    except NotACochainError as exc:
        raise PreconditionError(f"coefficient at order {n} is not a cochain: {exc}")


def _series(base: Algebra, order: int, *series):
    """The truncated-series rule of deformations and gauges, yielding each
    (coefficients, constant term) as a tuple of order + 1 coefficients: the
    constant term, then cochains of its space (:func:`_coefficient`)."""
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        raise PreconditionError(f"order must be a nonnegative integer, got {order!r}")
    for seq, constant in series:
        seq = tuple(seq)
        if len(seq) != order + 1:
            raise PreconditionError("need exactly order+1 coefficients per series")
        if seq[0] != constant:
            raise PreconditionError("the order-0 coefficient must be the base bracket, or the identity of a gauge")
        space = build_cochain_space(base, constant.arity)
        for n, c in enumerate(seq[1:], 1):
            _coefficient(space, c, n)
        yield seq


def _same_series(x, y) -> None:
    """BaseMismatchError unless two series share their base and order."""
    if x.base != y.base or x.order != y.order:
        raise BaseMismatchError(f"{x!r} and {y!r} differ in base or truncation order")


class Deformation(Frozen):
    """Coefficient data of a truncated deformation over a fixed base, a
    :class:`Frozen` value."""

    __slots__ = ("base", "order", "f_seq", "g_seq")
    _fields = ("base", "order", "f_seq", "g_seq")

    def __init__(self, base: Algebra, order: int, f_seq, g_seq):
        f_seq, g_seq = _series(base, order, (f_seq, bracket_cochain(base)), (g_seq, ternary_cochain(base)))
        self._init(base=base, order=order, f_seq=f_seq, g_seq=g_seq)

    def __repr__(self) -> str:
        return f"Deformation(base={self.base.name}, order={self.order})"

    def is_null(self) -> bool:
        return all(c.is_zero() for c in self.f_seq[1:] + self.g_seq[1:])


def null_deformation(a: Algebra, order: int = DEFAULT_ORDER) -> Deformation:
    zeros2 = [Cochain.zero(2, a.dim)] * order
    zeros3 = [Cochain.zero(3, a.dim)] * order
    return Deformation(a, order, [bracket_cochain(a), *zeros2], [ternary_cochain(a), *zeros3])


def first_order_deformation(a: Algebra, f1: Cochain, g1: Cochain, order: int = 1) -> Deformation:
    f_seq = [bracket_cochain(a), f1] + [Cochain.zero(2, a.dim)] * (order - 1)
    g_seq = [ternary_cochain(a), g1] + [Cochain.zero(3, a.dim)] * (order - 1)
    return Deformation(a, order, f_seq, g_seq)


# --- the deformation equations --------------------------------------------


class DeformationReport(NamedTuple):
    """(equation, order) -> None when it holds, else first failing tuple."""

    order: int
    failures: dict

    @property
    def ok(self) -> bool:
        return all(v is None for v in self.failures.values())

    def ok_through(self, n: int) -> bool:
        return all(v is None for (eq, m), v in self.failures.items() if m <= n)

    def failing(self) -> list:
        return sorted(k for k, v in self.failures.items() if v is not None)


def verify_deformation(d: Deformation) -> DeformationReport:
    """The eight equations at every order 0..N, each evaluated where it can
    still fail (:func:`_failures_from`).

    Order 0 is the base axioms verbatim, evaluated once per algebra.  At
    orders n >= 1 equations 1-4 hold for every deformation, since they are
    the cochain conditions on (f_n, g_n), and equations 5-8 are evaluated,
    each only at the representative tuples of its alternating pairs, the
    tuples :func:`hlya.algebra.first_failure` scans, and with the same
    first failing tuple.  Equation k at order n is L_k(f_n, g_n), the
    linearised operator's forms at those tuples applied to the coordinates
    of (f_n, g_n), plus Q_{k,n}, the contraction of the orders 1..n-1
    alone (:func:`_equation_failure`); order 1 builds no contraction.  Each
    twisted table of the series is built once per coefficient cochain,
    kept on the integer table it keeps for every later call, and those of
    the base brackets once per algebra (:func:`hlya.algebra.contract`).
    """
    return DeformationReport(d.order, _failures_from(d, 0, d.order))


# The equations that are the cochain conditions: alpha-equivariance of f and
# g (identities 1 and 2) and alternation in the leading pair (3 and 4).
_COCHAIN_CONDITIONS = (1, 2, 3, 4)


def _failures_from(d: Deformation, start: int, stop: int) -> dict:
    """(equation, order) -> first failing tuple or None, for the orders
    start..stop in increasing order, each order's equations in turn.

    Order 0 reads the base brackets alone: it is the algebra's axiom
    verdict, kept in its memo (:func:`hlya.algebra.axiom_witnesses`).  At
    n >= 1 the t^n coefficient of identities 1-4 is linear in f_n or g_n
    alone and vanishes exactly when f_n lies in C2 and g_n in C3.  The
    series rule (:func:`_series`) has made every coefficient of a
    Deformation such a cochain, so those entries are None and only
    equations 5-8 are evaluated, each as L_k(f_n, g_n) + Q_{k,n}
    (:func:`_equation_failure`) on the coordinates of (f_n, g_n), read
    once per order.
    """
    base = d.base
    fs, gs = bracket_series(base, d.f_seq[1:], d.g_seq[1:])
    failures = {}
    for n in range(start, stop + 1):
        if n == 0:
            failures.update(((eq, 0), w) for eq, w in axiom_witnesses(base).items())
            continue
        row = _coordinate_row(base, d.f_seq[n], d.g_seq[n])
        for eq in IDENTITIES:
            if eq in _COCHAIN_CONDITIONS:
                failures[(eq, n)] = None
            else:
                failures[(eq, n)] = _equation_failure(base, eq, row, _quadratic(base, eq, n, fs, gs))
    return failures


@memoised
def _linear_forms(a: Algebra, k: int) -> tuple:
    """L_k in integers, kept in a's memo.

    The terms of equation k at order n >= 1 that read f_n or g_n against
    the base brackets are the t^1 coefficient of identity k with (f_n, g_n)
    in place of (f_1, g_1), so L_k is that coefficient on the generic pair
    (:func:`hlya.coboundary.linear_part`); the other terms, Q_{k,n}
    (:func:`_quadratic`), bind the orders 1..n-1 alone.  Returns (den,
    rows), one row per scan tuple of identity k
    (:func:`hlya.algebra.first_failure` scans the same), in scan order, as
    (tuple, ((output index, ((unknown, coefficient), ...)), ...)): output j
    of L_k at the tuple is the sum of coefficient times pair coordinate
    over den.  An identity with no scan tuple probes nothing."""
    scan = _plan(a, k, 0).scan
    if not scan:
        return 1, ()
    formula = linear_part(a, k)
    value = formula.probe()
    rows = []
    for idx in scan:
        forms: dict = {}
        for (j, u), c in value(idx).items():
            forms.setdefault(j, []).append((u, c))
        rows.append((idx, tuple((j, tuple(terms)) for j, terms in forms.items())))
    return formula.den, tuple(rows)


def _coordinate_row(a: Algebra, f: Cochain, g: Cochain) -> tuple[int, list] | None:
    """The coordinates of (f, g) in C2 x C3 as integer numerators over
    their lcm (:func:`hlya.cohomology.pair_coords`), or None when the pair
    is zero."""
    coords = pair_coords(a, f, g)
    if not any(coords):
        return None
    den = lcm(*(x.denominator for x in coords))
    return den, [x.numerator * (den // x.denominator) for x in coords]


def _quadratic(a: Algebra, k: int, n: int, fs, gs) -> tuple | None:
    """Q_{k,n}, the t^n coefficient of identity k with the order-0 and
    order-n tables of the series left out, as (probe, den): only the
    convolution terms outer_i(.., inner_{n-i}(..), ..) with 1 <= i <= n-1
    bind.  None when identity k has no scan tuple or no such term has two
    nonzero tables, at n = 1 always: no contraction is built then."""
    if not _plan(a, k, 0).scan:
        return None
    if not any((fs[i] or gs[i]) and (fs[n - i] or gs[n - i]) for i in range(1, n)):
        return None
    empty = IntTable(1, {})
    coefficient = identity_values(a, k, n, (empty, *fs[1:n]), (empty, *gs[1:n]))
    return coefficient.probe(), coefficient.den


def _equation_failure(a: Algebra, k: int, row, rest) -> tuple | None:
    """First scan tuple (1-based) of identity k at which L_k(row) + rest is
    nonzero, None when it vanishes throughout.

    ``row`` is a pair's :func:`_coordinate_row`, ``rest`` a (probe, den)
    of values at tuples as :func:`_quadratic` gives; None stands for zero.
    The same scan as :func:`hlya.algebra.first_failure`, so an equation
    equal to a t^n coefficient fails first at the same tuple.
    """
    if row is None and rest is None:
        return None
    den, rows = _linear_forms(a, k)
    xden, xs = row if row is not None else (1, None)
    value, rden = rest if rest is not None else (None, 1)
    scale = den * xden
    for idx, forms in rows:
        acc = {}
        if xs is not None:
            for j, terms in forms:
                s = 0
                for u, c in terms:
                    s += c * xs[u]
                if s:
                    acc[j] = s * rden
        if value is not None:
            for j, x in value(idx).items():
                acc[j] = acc.get(j, 0) + x * scale
        if any(acc.values()):
            return tuple(i + 1 for i in idx)
    return None


def infinitesimal(d: Deformation) -> tuple[Cochain, Cochain]:
    """The first-order pair, asserted to lie in Z2 x Z3.

    Only orders 0 and 1 are evaluated.  NotCocycleError here is an internal
    inconsistency: the n = 1 equations are the cocycle conditions.
    """
    if d.order < 1:
        raise PreconditionError("deformation of order 0 has no first-order term")
    report = DeformationReport(d.order, _failures_from(d, 0, 1))
    if not report.ok:
        raise PreconditionError(f"deformation equations fail through order 1: {report.failing()}")
    f1, g1 = d.f_seq[1], d.g_seq[1]
    if not is_cocycle_2(d.base, f1, g1):
        raise NotCocycleError("first-order term escaped Z2 x Z3 despite the n=1 equations")
    return f1, g1


# --- gauges ---------------------------------------------------------------


class Gauge(Frozen):
    """Truncated formal isomorphism: phi_0 = id, every phi_i a 1-cochain
    (commutes with alpha); a :class:`Frozen` value."""

    __slots__ = ("base", "order", "phi")
    _fields = ("base", "order", "phi")

    def __init__(self, base: Algebra, order: int, phi):
        [phi] = _series(base, order, (phi, identity_cochain(base)))
        self._init(base=base, order=order, phi=phi)

    def __repr__(self) -> str:
        return f"Gauge(base={self.base.name}, order={self.order})"


@memoised
def alpha_commutant_basis(a: Algebra) -> tuple:
    """A basis of {X : X alpha = alpha X}, the legal gauge coefficients, as
    1-cochains: the canonical basis of the span of C1's basis matrices,
    flattened row-major."""
    flats = [flatten(cochain_to_matrix(a, h)) for h in build_cochain_space(a, 1).basis_cochains]
    span = Subspace(a.dim**2, flats)
    return tuple(matrix_to_cochain(a, unflatten(span.basis.column(j), a.dim)) for j in range(span.dim))


def random_gauge(a: Algebra, order: int, rng) -> Gauge:
    """Identity plus random alpha-commuting higher coefficients: each a sum
    of the basis maps, each times p / q, p in -2..2 and q in 1..2, drawn as
    integer tables."""
    basis = [b.ints for b in alpha_commutant_basis(a)]
    space = build_cochain_space(a, 1)
    phi = [identity_cochain(a)]
    for _ in range(order):
        terms = []
        for b in basis:
            p, q = rng.randint(-2, 2), rng.randint(1, 2)
            scaled = {key: {k: p * x for k, x in vec.items()} for key, vec in b.entries.items()}
            terms.append(IntTable(b.den * q, scaled))
        phi.append(space.from_table(table_sum(terms)))
    return Gauge(a, order, phi)


def identity_gauge(a: Algebra, order: int = DEFAULT_ORDER) -> Gauge:
    return Gauge(a, order, [identity_cochain(a)] + [Cochain.zero(1, a.dim)] * order)


def compose_gauges(p: Gauge, q: Gauge) -> Gauge:
    """Series product p * q; acting with p then q equals acting with p * q."""
    _same_series(p, q)
    return _gauge(p.base, _product([h.ints for h in p.phi], [h.ints for h in q.phi]))


def _product(ps: list[IntTable], qs: list[IntTable]) -> list[IntTable]:
    """The truncated series product of two series of linear maps, as
    integer tables: (pq)_n = sum_{i=0}^{n} p_i q_{n-i}."""
    return [
        table_sum([compose_out(ps[i], qs[n - i]) for i in range(n + 1) if ps[i] and qs[n - i]])
        for n in range(len(ps))
    ]


def _negated(t: IntTable) -> IntTable:
    return IntTable(t.den, {key: {i: -x for i, x in vec.items()} for key, vec in t.entries.items()})


def _single_step(identity: IntTable, order: int, h: Cochain, r: int) -> list[IntTable]:
    """The rigidity-proof gauge id - h t^r, for a 1-cochain h, as the
    integer tables of its coefficients, given the identity's table."""
    if type(r) is not int or not 1 <= r <= order:
        raise PreconditionError(f"step exponent must be an integer with 1 <= r <= order, got {r!r}")
    step = [identity, *[IntTable(1, {})] * order]
    step[r] = _negated(h.ints)
    return step


def _inverse_series(phi: list[IntTable]) -> list[IntTable]:
    """The truncated inverse of a series of linear maps with phi_0 = id, as
    integer tables: psi_0 = id and psi_n = -sum_{i=1}^{n} phi_i psi_{n-i},
    whose i = n term is phi_n itself."""
    psi = [phi[0]]
    for n in range(1, len(phi)):
        psi.append(_negated(table_sum([phi[n], *(compose_out(phi[i], psi[n - i]) for i in range(1, n))])))
    return psi


def inverse_gauge(p: Gauge) -> Gauge:
    """Truncated series inverse: psi_0 = id, psi_n = -sum phi_i psi_{n-i}."""
    return _gauge(p.base, _inverse_series([h.ints for h in p.phi]))


def _gauge(base: Algebra, series: list[IntTable]) -> Gauge:
    """The gauge over ``base`` whose coefficients are the linear maps of an
    integer series (tables of arity 1), each built by C1 with its
    coordinates."""
    return Gauge(base, len(series) - 1, list(map(build_cochain_space(base, 1).from_table, series)))


def _pair_maps(phi: list[IntTable], dim: int) -> list[IntTable]:
    """The series Lambda = Lambda^2 Phi acting on alternating pairs.

    Lambda_m sends e_i ^ e_j (i < j) to sum_{c+e=m} phi_c e_i ^ phi_e e_j,
    so with phi[a, i] the coefficient of e_a in phi e_i its coefficient at
    e_a ^ e_b (a < b) is sum_{c+e=m} phi_c[a, i] phi_e[b, j] - phi_c[b, i]
    phi_e[a, j].  A table of arity 2 with pair outputs, over the square
    of the common denominator of the phi_c.
    """
    den = lcm(*(t.den for t in phi))
    cols = [
        [{a: x * (den // t.den) for a, x in t.entries.get((i,), {}).items()} for i in range(dim)]
        for t in phi
    ]
    maps = []
    for m in range(len(phi)):
        entries = {}
        for i, j in itertools.combinations(range(dim), 2):
            acc: dict = {}
            for c in range(m + 1):
                for a, x in cols[c][i].items():
                    for b, y in cols[m - c][j].items():
                        if a != b:
                            key, s = ((a, b), x * y) if a < b else ((b, a), -x * y)
                            acc[key] = acc.get(key, 0) + s
            entries[(i, j)] = {key: x for key, x in acc.items() if x}
        maps.append(IntTable(den * den, entries))
    return maps


def apply_gauge(d: Deformation, p: Gauge) -> Deformation:
    """The gauge action f' = Phi^{-1} f(Phi ., Phi .), coefficient by
    coefficient, for a gauge over the deformation's base and order: the
    action :func:`_act` of the integer tables its coefficients keep."""
    _same_series(d, p)
    return _act(d, [h.ints for h in p.phi])


def _act(d: Deformation, phi: list[IntTable]) -> Deformation:
    """The action of a gauge series Phi, given as integer tables of arity 1
    with phi_0 = id and one per order of ``d``, on ``d``.

    Every coefficient is alternating in its leading pair, so the series are
    kept at the representative tuples only, and Phi acts on that pair
    through the pair map Lambda^2 Phi (:func:`_pair_maps`) and on the third
    argument of the ternary series by Phi itself: a pass replaces the
    series T by T'_m = sum_{c+j=m} T_j(M_c ...), truncated at the order,
    and a last pass applies Psi = Phi^{-1} to the values.  M_0, the
    identity, is not composed, so the order-0 coefficients come back
    unchanged.  The series are integer tables; the cochain spaces build the
    higher coefficients from their representative values, with their
    coordinates (:meth:`hlya.cochain.CochainSpace.from_rep_values`).
    """
    base, order = d.base, d.order
    psi = _inverse_series(phi)
    pairs = _pair_maps(phi, base.dim)

    def convolve(series, maps, compose) -> list:
        out = []
        for m in range(order + 1):
            terms = [compose(series[j], maps[m - j]) for j in range(m) if series[j] and maps[m - j]]
            out.append(table_sum([series[m], *terms]) if terms else series[m])
        return out

    def transform(seq, arity: int) -> list:
        space = build_cochain_space(base, arity)
        ints = [c.ints for c in seq]
        series = [IntTable(t.den, {idx: vec for idx in space.rep_tuples if (vec := t.entries.get(idx))}) for t in ints]
        series = convolve(series, pairs, lambda t, m: compose_slot(t, 0, m))
        if arity == 3:
            series = convolve(series, phi, lambda t, m: compose_slot(t, 2, m))
        series = convolve(series, psi, lambda t, m: compose_out(m, t))
        return [seq[0], *map(space.from_rep_values, series[1:])]

    return Deformation(base, order, transform(d.f_seq, 2), transform(d.g_seq, 3))


def verify_equivalence(d1: Deformation, d2: Deformation, p: Gauge) -> bool:
    """Does p carry d1 to d2 coefficient-exactly through the common order?"""
    _same_series(d1, d2)
    return apply_gauge(d1, p) == d2


# --- trivialization -------------------------------------------------------


class TrivializeResult(NamedTuple):
    gauge: Gauge | None
    obstructed_at: int | None = None
    representative: tuple | None = None  # the (f_r, g_r) with no preimage

    @property
    def trivial(self) -> bool:
        return self.gauge is not None


def trivialize(d: Deformation) -> TrivializeResult:
    """Peel off leading terms with rigidity-proof gauges until null or stuck.

    The deformation is verified in full once.  Each leading pair is
    re-checked for the cocycle property (guaranteed by the order-r
    deformation equations).  After the step id - h t^r the deformation is
    re-checked rather than trusting the leading-order bookkeeping
    (:func:`_check_step`): the coefficients below r must come back exactly
    as they were, and the equations are evaluated at the orders r..N.  That
    is the full re-verification: the t^n coefficient of every identity
    depends only on f_0..f_n and g_0..g_n, so with those unchanged below r
    the lower orders keep the values verified before the step.  The step
    must clear order r, and the result must be null.  A failed check
    raises NotCocycleError with its witness as attributes.

    The steps and their running product stay series of integer tables,
    acting through :func:`_act` and multiplied as :func:`compose_gauges`
    multiplies; only the product is built into a Gauge, once, at the end,
    and each of its coefficients is checked as a member of C1 then
    (:func:`_gauge`).
    """
    report = verify_deformation(d)
    if not report.ok:
        raise PreconditionError(f"deformation equations fail: {report.failing()}")
    base, order = d.base, d.order
    identity = identity_cochain(base).ints
    total = [identity, *[IntTable(1, {})] * order]
    current = d
    for r in range(1, order + 1):
        f_r, g_r = current.f_seq[r], current.g_seq[r]
        if f_r.is_zero() and g_r.is_zero():
            continue
        coords = pair_coords(base, f_r, g_r)
        if not _closed(base, coords):
            raise NotCocycleError(f"leading term at order {r} is not a cocycle pair", step_order=r)
        h = _preimage(base, coords)
        if h is None:
            return TrivializeResult(None, obstructed_at=r, representative=(f_r, g_r))
        step = _single_step(identity, order, h, r)
        previous, current = current, _act(current, step)
        total = _product(total, step)
        _check_step(previous, current, r)
        if not current.f_seq[r].is_zero() or not current.g_seq[r].is_zero():
            raise NotCocycleError(f"gauge step failed to clear order {r}", step_order=r)
    if not current.is_null():
        raise NotCocycleError("gauge steps left a nonzero coefficient behind")
    return TrivializeResult(_gauge(base, total))


def _check_step(previous: Deformation, current: Deformation, r: int) -> None:
    """NotCocycleError unless the gauge step at order r, which took the
    verified ``previous`` to ``current``, kept every coefficient below r
    and every deformation equation at the orders r..N; the witness is the
    lowest changed order, else the first failing equation, lowest order
    first."""
    for n in range(r):
        if current.f_seq[n] != previous.f_seq[n] or current.g_seq[n] != previous.g_seq[n]:
            raise NotCocycleError(
                f"gauge step at order {r} changed the coefficient at order {n}", step_order=r, changed_order=n
            )
    for (eq, n), idx in _failures_from(current, r, current.order).items():
        if idx is not None:
            raise NotCocycleError(
                f"gauge step at order {r} broke the deformation equations",
                step_order=r,
                equation=eq,
                order=n,
                basis_tuple=idx,
            )


# --- obstruction machinery ------------------------------------------------


class ObstructionPair(NamedTuple):
    first: Cochain  # 4-cochain
    second: Cochain  # 5-cochain
    in_z4z5: bool


def _require_cocycle(a: Algebra, f1: Cochain, g1: Cochain) -> None:
    """NotInZ2Z3Error unless (f1, g1) lies in Z2 x Z3, also when it is not
    a pair of cochains at all."""
    try:
        closed = is_cocycle_2(a, f1, g1)
    except PreconditionError as exc:
        raise NotInZ2Z3Error(f"(f1, g1) must be a 2-/3-cocycle pair: {exc}")
    if not closed:
        raise NotInZ2Z3Error("(f1, g1) must be a 2-/3-cocycle pair")


def _obstruction(a: Algebra, f1: Cochain, g1: Cochain) -> tuple[Cochain, Cochain, list]:
    """(F, G) and their coordinates in C4 x C5, for (f1, g1) in Z2 x Z3.

    (F, G) is minus the t^2 coefficient of identities 7 and 8 with (f1, g1)
    and no second-order term, evaluated once at the representative tuples
    of C4 and C5, the codomain of delta2: both identities are antisymmetric
    in their two leading pairs, so those values fix F and G.  They stay
    the contraction's integer numerators, negated, until the spaces build
    F and G with their coordinates
    (:meth:`hlya.cochain.CochainSpace.from_rep_values`).  The caller
    checks the cocycle property (:func:`_second_order_step`).
    """
    fs, gs = bracket_series(a, (f1,), (g1,))
    parts = []
    for k, space in zip((7, 8), delta2(a).codomain):
        coefficient = identity_values(a, k, 2, fs, gs)
        value = coefficient.probe()
        values = IntTable(coefficient.den, {idx: {j: -x for j, x in value(idx).items()} for idx in space.rep_tuples})
        big = space.from_rep_values(values)
        parts.append((big, space.coords(big)))
    (big_f, coords_f), (big_g, coords_g) = parts
    return big_f, big_g, coords_f + coords_g


# The key of the second-order slot in an algebra's memo, beside the
# (function, *arguments) keys of @memoised.
_SECOND_ORDER_SLOT = "second-order step"


def _second_order_step(a: Algebra, f1: Cochain, g1: Cochain) -> tuple[Cochain, Cochain, list]:
    """The Z2 x Z3 check and :func:`_obstruction` of (f1, g1), done once
    per pair for the whole second-order trio.

    The result lives in a one-entry slot of the algebra's memo, keyed by
    the pair's value; cochains are immutable, so the slot keeps the
    caller's f1 and g1 and the callers hand out its F and G.  A call with
    another pair replaces the entry, so the slot never grows, and a pair
    that fails the check raises NotInZ2Z3Error on every call and is never
    stored.
    """
    slot = a._memo.get(_SECOND_ORDER_SLOT)
    if slot is not None and slot[0] == (f1, g1):
        return slot[1]
    _require_cocycle(a, f1, g1)
    step = _obstruction(a, f1, g1)
    a._memo[_SECOND_ORDER_SLOT] = ((f1, g1), step)
    return step


def obstruction_pair(a: Algebra, f1: Cochain, g1: Cochain) -> ObstructionPair:
    """The quadratic pair controlling second-order extension of (f1, g1).

    Requires (f1, g1) in Z2 x Z3.  The returned verdict records whether the
    pair lies in the kernel of the third coboundary operator; the theorem
    says it always does, and the acceptance suite tests exactly that.  The
    check and (F, G) come from the second-order step that this function,
    :func:`solve_second_order` and :func:`second_order_probe` share
    (:func:`_second_order_step`): computed by the first of them called on
    a pair, and kept until a call on another pair over the same algebra.
    """
    big_f, big_g, coords = _second_order_step(a, f1, g1)
    return ObstructionPair(big_f, big_g, not any(delta3(a).matrix.apply(coords)))


def solve_second_order(a: Algebra, f1: Cochain, g1: Cochain) -> tuple[Cochain, Cochain] | None:
    """A pair (f2, g2) with delta2(f2, g2) = obstruction pair, when one exists.

    Requires (f1, g1) in Z2 x Z3; the check and the right-hand side come
    from the shared second-order step (see :func:`obstruction_pair`).
    """
    sol = solve(delta2(a).matrix, _second_order_step(a, f1, g1)[2])
    return None if sol is None else pair_from_coords(a, sol)


class ProbeReport(NamedTuple):
    """Per-equation outcome of the order-2 equations 5'-8': None means it
    holds.  7' and 8' are None in every report, since the probe rejects a
    candidate on which either fails."""

    failures: dict

    @property
    def extension_closes(self) -> bool:
        return all(v is None for v in self.failures.values())


def second_order_probe(a: Algebra, f1: Cochain, g1: Cochain, f2: Cochain, g2: Cochain) -> ProbeReport:
    """Evaluate equations 5'-8' at n = 2 for a candidate second-order term.

    Preconditions (checked): (f1, g1) is a cocycle pair, (f2, g2) is a
    cochain pair, and (f2, g2) kills the obstruction, i.e. delta2 of
    (f2, g2) equals the obstruction pair.  The last is read off 7' and 8'
    themselves: their t^2 coefficient is L(f2, g2) - (F, G), L being
    delta2's two blocks, so it vanishes on every tuple exactly when the
    precondition holds.  It is read at the representative tuples of C4 and
    C5 against the (F, G) the shared second-order step holds, with no
    contraction; 5' and 6' are L(f2, g2) + Q(1, 1) (:func:`_equation_failure`).
    No outcome is asserted: 5' and 6' may fail, and the report is the
    deliverable.  The cocycle check is the shared second-order step's (see
    :func:`obstruction_pair`), which a probe that meets the pair first
    computes whole for the next call of the trio; 5'-8' are evaluated
    with (f2, g2) on every call.
    """
    big_f, big_g, _ = _second_order_step(a, f1, g1)
    for c, arity in ((f2, 2), (g2, 3)):
        _coefficient(build_cochain_space(a, arity), c, 2)
    row = _coordinate_row(a, f2, g2)
    for k, big in ((7, big_f), (8, big_g)):
        minus = _negated(big.ints)
        rest = (lambda idx, values=minus.entries: values.get(idx, {}), minus.den) if minus else None
        if _equation_failure(a, k, row, rest):
            raise PreconditionError(
                "(f2, g2) does not solve the second-order extension equation: "
                "delta2(f2, g2) must equal the obstruction pair"
            )
    fs, gs = bracket_series(a, (f1,), (g1,))
    failures = {eq: _equation_failure(a, eq, row, _quadratic(a, eq, 2, fs, gs)) for eq in (5, 6)}
    return ProbeReport({**failures, 7: None, 8: None})
