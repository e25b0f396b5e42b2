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
Q_{k,n} = sum_{i=1}^{n-1} B_k(c_i, c_{n-i}) quadratic in the orders
1..n-1, B_k the t^2 coefficient with order-1 tables alone, bilinear in
the outer and the inner one, and c_i the coordinates of (f_i, g_i).  Both
L_k and B_k are read off the generic pair of C2 x C3, bound once per
algebra (:func:`hlya.coboundary.linear_part`,
:func:`hlya.coboundary.quadratic_part`), as forms on coordinates, and
probed once per algebra into one system (:func:`_system`) over the index
T of (identity k in 5-8, scan tuple, output index): M_T, the L_k stacked
into one matrix, and B, the B_k over T.  At order n equations 5-8 are the one T vector
M_T c_n + sum_{i=1}^{n-1} B(c_i, c_{n-i}), read by the columns in the
coordinates' support; the obstruction pair is minus the blocks of 7 and
8 in B(c_1, c_1), and no cochain of a series is contracted, twisted or
bound.  With (f_2, g_2) substituted, 7' and 8' are
delta2(f_2, g_2) - (F, G): the second-order probe accepts a candidate
exactly when they vanish at n = 2, and it reads all four of 5'-8' as
M_T c_2 plus the B(c_1, c_1) that the obstruction was read from.  Gauges
are truncated invertible series of 1-cochains (linear maps commuting with
alpha) with identity constant term; they act on deformations by
f' = Phi^{-1} f(Phi ., Phi .) and likewise on the ternary part.
"""

from __future__ import annotations

import itertools
from math import lcm
from typing import Iterator, NamedTuple

from .algebra import (
    IDENTITIES,
    Algebra,
    IntTable,
    _scan,
    axiom_witnesses,
    brackets,
    convolve,
    memoised,
    table_sum,
)
from .coboundary import delta2, delta3, linear_part, quadratic_part
from .cochain import (
    Cochain,
    _canonical,
    _require_cochain,
    build_cochain_space,
    cochain_to_matrix,
    identity_cochain,
    matrix_to_cochain,
)
from .cohomology import _closed, _given_row, _pair_from_row, _pair_row, _preimage, is_cocycle_2
from .errors import (
    BaseMismatchError,
    NotACochainError,
    NotCocycleError,
    NotInZ2Z3Error,
    PreconditionError,
)
from .exactlin import Frozen, Matrix, Subspace, _joined, _pruned, solve, unflatten

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
    _require_cochain(c, f"coefficient at order {n}")
    try:
        space.row(c)
    except NotACochainError as exc:
        raise PreconditionError(f"coefficient at order {n} is not a cochain: {exc}")


def _require_order(order) -> None:
    """PreconditionError unless ``order`` is a nonnegative int (not a bool)."""
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        raise PreconditionError(f"order must be a nonnegative integer, got {order!r}")


def _series(base: Algebra, order: int, *series):
    """The truncated-series rule of deformations and gauges, yielding each
    (coefficients, constant term) as a tuple of order + 1 coefficients: the
    constant term, then cochains of its space (:func:`_coefficient`)."""
    _require_order(order)
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
    _require_order(order)
    zeros2 = [Cochain.zero(2, a.dim)] * order
    zeros3 = [Cochain.zero(3, a.dim)] * order
    return Deformation(a, order, [bracket_cochain(a), *zeros2], [ternary_cochain(a), *zeros3])


def first_order_deformation(a: Algebra, f1: Cochain, g1: Cochain, order: int = 1) -> Deformation:
    _require_order(order)
    if order < 1:
        raise PreconditionError(f"order must be >= 1 for a first-order term, got {order!r}")
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
    first failing tuple.  Equation k at order n is L_k(f_n, g_n) +
    Q_{k,n}, and the four are read together off the system laid out once
    per algebra (:func:`_system`): M_T at the coordinates of (f_n, g_n)
    plus sum_{i=1}^{n-1} B(c_i, c_{n-i}) at the coordinates c_i of the
    lower orders.  No coefficient of the series is contracted, twisted or
    bound.
    """
    return DeformationReport(d.order, _failures_from(d, 0, d.order))


# The equations evaluated above order 0: identities 1-4 there are the
# cochain conditions on f_n and g_n, alpha-equivariance (1 and 2) and
# alternation in the leading pair (3 and 4), which the series rule checks.
_EQUATIONS = (5, 6, 7, 8)


def _failures_from(d: Deformation, start: int, stop: int) -> dict:
    """(equation, order) -> first failing tuple or None, for the orders
    start..stop in increasing order, each order's equations in turn.

    Order 0 reads the base brackets alone: it is the algebra's axiom
    verdict, kept in its memo (:func:`hlya.algebra.axiom_witnesses`).  At
    n >= 1 the t^n coefficient of identities 1-4 is linear in f_n or g_n
    alone and vanishes exactly when f_n lies in C2 and g_n in C3.  The
    series rule (:func:`_series`) has made every coefficient of a
    Deformation such a cochain, so those entries are None and only
    equations 5-8 are evaluated, as one T vector M_T c_n + the sum of
    B(c_i, c_{n-i}) over 1 <= i <= n-1 (:func:`_first_failures`,
    :func:`_quadratic`), the terms i and n-i read as one pair, i <= n-i;
    an order whose coefficient and quadratic part are both zero reads
    nothing.  The coordinate rows c_i of (f_i, g_i) are read once per call,
    for the orders 1..stop, and put over one denominator, and the orders
    whose row is nonzero are listed once, so each order pairs only those
    and a series that is zero above some order costs that order's time.
    """
    base = d.base
    den, xs = _common_rows([_pair_row(base, f, g) for f, g in zip(d.f_seq[1 : stop + 1], d.g_seq[1 : stop + 1])])
    xs = [None, *xs]
    nonzero = [i for i in range(1, stop + 1) if xs[i]]
    failures = {}
    for n in range(start, stop + 1):
        if n == 0:
            failures.update(((eq, 0), w) for eq, w in axiom_witnesses(base).items())
            continue
        lower = itertools.takewhile(lambda i: 2 * i <= n, nonzero)
        pairs = tuple((xs[i], xs[n - i]) for i in lower if xs[n - i])
        found = {}
        if xs[n] or pairs:
            system = _system(base)
            quadratic = _quadratic(system, pairs) if pairs else {}
            found = _first_failures(system, (den, xs[n]), (system.den * den * den, quadratic))
        failures.update(((eq, n), found.get(eq)) for eq in IDENTITIES)
    return failures


def _common_rows(rows: list) -> tuple[int, list]:
    """Integer rows (den, {position: numerator}) as numerators over the lcm
    of their denominators: (lcm, [numerators, ...])."""
    den = lcm(*(r[0] for r in rows))
    return den, [vec if d == den else {j: x * (den // d) for j, x in vec.items()} for d, vec in rows]


class _System(NamedTuple):
    """Equations 5-8 as one quadratic system over the index T of (identity
    k, scan tuple of k, output index j), k by k, each k's tuples in scan
    order and each tuple's outputs in turn: position t is ``positions[t]``,
    (k, 0-based scan tuple, j).  T holds the (k, tuple, j) at which L_k or
    B_k has a nonzero coefficient; at any other, equation k is 0 whatever
    the coefficients of the series, so it never fails there.

    ``matrix`` is M_T, the linear parts stacked: row t is L_k at (tuple,
    j), a :class:`hlya.exactlin.Matrix` row over the unknowns of C2 x C3.
    ``bilinear`` is B over T, kept by outer unknown, {u: ((v, t,
    coefficient), ...)} over ``den``: B(x, y) at t is the sum of
    coefficient times x_u times y_v."""

    matrix: Matrix
    den: int
    bilinear: dict
    positions: tuple


@memoised
def _system(a: Algebra) -> _System:
    """The deformation system of ``a``, laid out once and kept in a's memo.

    The terms of equation k at order n >= 1 that read f_n or g_n against
    the base brackets are the t^1 coefficient of identity k with (f_n, g_n)
    in place of (f_1, g_1), so L_k is that coefficient on the generic pair
    (:func:`hlya.coboundary.linear_part`).  The other terms are the
    convolution outer_i(.., inner_{n-i}(..), ..), 1 <= i <= n-1, and each
    of them is the t^2 coefficient with order-1 tables alone, outer from
    order i and inner from order n-i: B_k is that coefficient on the
    generic pair as outer and inner table
    (:func:`hlya.coboundary.quadratic_part`).  Both are probed once per
    scan tuple of identity k (:func:`hlya.algebra.first_failure` scans the
    same), and their values laid out in that one pass: L_k at a tuple is
    {(output index, unknown): coefficient}, B_k there {((output index, u),
    v): coefficient}, x_u read by the outer table of a nested term and y_v
    by the inner one.  An identity with no scan tuple binds nothing.  B's
    coefficients are brought over the lcm of the four quadratic
    denominators."""
    parts = {}
    for k in _EQUATIONS:
        scan = _scan(a, k)
        if scan:
            parts[k] = scan, linear_part(a, k), quadratic_part(a, k)
    den = lcm(*(quadratic.den for _, _, quadratic in parts.values()))
    rows, bilinear, positions = [], {}, []
    for k, (scan, linear, quadratic) in parts.items():
        w = den // quadratic.den
        lvalue, qvalue = linear.probe(), quadratic.probe()
        for idx in scan:
            lforms, qforms = lvalue(idx), qvalue(idx)
            at = {}
            for j in sorted({j for j, _ in lforms} | {j for (j, _), _ in qforms}):
                at[j] = len(positions)
                positions.append((k, idx, j))
                rows.append((linear.den, {u: c for (i, u), c in lforms.items() if i == j}))
            for ((j, u), v), c in qforms.items():
                bilinear.setdefault(u, []).append((v, at[j], w * c))
    unknowns = build_cochain_space(a, 2).dim + build_cochain_space(a, 3).dim
    return _System(Matrix._of(rows, unknowns), den, {u: tuple(v) for u, v in bilinear.items()}, tuple(positions))


def _quadratic(system: _System, pairs: tuple) -> dict:
    """The sum over (x, y) in ``pairs`` of B(x, y) + B(y, x) over T, or of
    B(x, x) alone where y is x itself, each {position: numerator} over one
    den: {t: numerator} over system.den * den^2, a t it leaves out being 0.
    A pair and its mirror are read together, x_u y_v + y_u x_v, over one
    read of B at each outer unknown u; a square has no mirror, and its
    loop reads x_u x_v alone."""
    out: dict = {}
    bilinear = system.bilinear
    for x, y in pairs:
        if y is x:
            for u, xu in x.items():
                for v, t, c in bilinear.get(u, ()):
                    xv = x.get(v)
                    if xv:
                        out[t] = out.get(t, 0) + c * xu * xv
            continue
        for u in x.keys() | y.keys():
            xu, yu = x.get(u, 0), y.get(u, 0)
            for v, t, c in bilinear.get(u, ()):
                s = xu * y.get(v, 0) + yu * x.get(v, 0)
                if s:
                    out[t] = out.get(t, 0) + c * s
    return out


def _first_failures(system: _System, row: tuple, quadratic: tuple) -> dict:
    """{k: first failing scan tuple (1-based)} of the identities k of 5-8
    at which M_T x + q is nonzero, k absent when it vanishes throughout.

    ``row`` is a pair's coordinate row (den, x) in C2 x C3
    (:func:`hlya.cohomology._pair_row`) and ``quadratic`` a T vector (qden,
    {t: numerator}).  Row t of M_T x is the column product over d_t *
    den, d_t the denominator of M_T's row t, so the sum at t is nonzero
    exactly when its numerator times qden plus q_t times d_t * den is.
    The first failure of identity k is the lowest nonzero position in k's
    block of T, whose tuple is the one :func:`hlya.algebra.first_failure`
    meets first in the same scan."""
    den, x = row
    qden, q = quadratic
    if x:
        values = system.matrix._numerators(x)
        rows = system.matrix._rows
        for t, b in q.items():
            values[t] = values[t] * qden + b * rows[t][0] * den
        failing = (t for t, s in enumerate(values) if s)
    else:
        failing = sorted(t for t, b in q.items() if b)
    found = {}
    for t in failing:
        k, idx, _ = system.positions[t]
        if k not in found:
            found[k] = tuple(i + 1 for i in idx)
    return found


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
    flattened row-major (:meth:`hlya.exactlin.Matrix.flat_row`)."""
    flat = (cochain_to_matrix(a, h).flat_row()[1] for h in build_cochain_space(a, 1).basis_cochains)
    span = Subspace.spanned_by(a.dim**2, flat)
    return tuple(matrix_to_cochain(a, unflatten(row, a.dim)) for row in span.basis.column_rows())


def random_gauge(a: Algebra, order: int, rng) -> Gauge:
    """Identity plus random alpha-commuting higher coefficients: each a sum
    of the basis maps, each times p / q, p in -2..2 and q in 1..2, drawn as
    integer tables."""
    _require_order(order)
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
    _require_order(order)
    return Gauge(a, order, [identity_cochain(a)] + [Cochain.zero(1, a.dim)] * order)


def compose_gauges(p: Gauge, q: Gauge) -> Gauge:
    """Series product p * q; acting with p then q equals acting with p * q.
    (pq)_n = sum_{i=0}^{n} p_i q_{n-i}, a convolution
    (:func:`hlya.algebra.convolve`)."""
    _same_series(p, q)
    return _gauge(p.base, next(convolve([[h.ints for h in p.phi]], [h.ints for h in q.phi], 0)))


def _divide(several: list, phi: list[IntTable]) -> Iterator[list[IntTable]]:
    """Yields each series T of ``several`` divided by Phi, phi_0 = id,
    acting on the values: Phi T' = T solved order by order, T'_m = T_m -
    sum_{a=1}^{m} phi_a T'_{m-a}, so no inverse series is built.  With T
    over E and Phi over D, T'_m = X_m / (E D^m) and X_m = D^m E T_m -
    sum_a D^(a-1) (D phi_a) X_{m-a}.  Phi is indexed once, by the value
    coordinate each phi_a reads, and each finished order is pushed into
    the orders above it, so a step id - h t^r adds one term per order."""
    mden, cols = lcm(*(m.den for m in phi[1:])), {}
    for a, m in enumerate(phi[1:], 1):
        for (k,), col in m.entries.items():
            cols.setdefault(k, []).extend((a, i, -x * (mden // m.den) * mden ** (a - 1)) for i, x in col.items())
    for series in several:
        den, out = lcm(*(t.den for t in series)), []
        acc = [
            {key: {k: x * (den // t.den) * mden**m for k, x in vec.items()} for key, vec in t.entries.items()}
            for m, t in enumerate(series)
        ]
        for s, entries in enumerate(acc):
            done = {key: kept for key, vec in entries.items() if (kept := _pruned(vec))}
            out.append(IntTable(den * mden**s, done))
            for key, vec in done.items():
                for k, x in vec.items():
                    for a, i, c in cols.get(k, ()):
                        if s + a >= len(acc):
                            break
                        target = acc[s + a].setdefault(key, {})
                        target[i] = target.get(i, 0) + c * x
        yield out


def _single_step(identity: IntTable, order: int, h: Cochain, r: int) -> list[IntTable]:
    """The rigidity-proof gauge id - h t^r, for a 1-cochain h, as the
    integer tables of its coefficients, given the identity's table."""
    if type(r) is not int or not 1 <= r <= order:
        raise PreconditionError(f"step exponent must be an integer with 1 <= r <= order, got {r!r}")
    step = [identity, *[IntTable(1, {})] * order]
    step[r] = IntTable(h.ints.den, {key: {i: -x for i, x in vec.items()} for key, vec in h.ints.entries.items()})
    return step


def _inverse_series(phi: list[IntTable]) -> list[IntTable]:
    """The truncated inverse of a series of linear maps with phi_0 = id, as
    integer tables: the identity series divided by Phi (:func:`_divide`),
    psi_0 = id and psi_n = -sum_{i=1}^{n} phi_i psi_{n-i}."""
    [psi] = _divide([[phi[0], *[IntTable(1, {})] * (len(phi) - 1)]], phi)
    return psi


def inverse_gauge(p: Gauge) -> Gauge:
    """Truncated series inverse Psi, solving Phi Psi = id order by order:
    psi_0 = id, psi_n = -sum_{i=1}^{n} phi_i psi_{n-i}."""
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
    action :func:`_act` of the integer tables its coefficients keep, which
    divides by Phi order by order and builds no inverse series."""
    _same_series(d, p)
    return _act(d, [h.ints for h in p.phi])


def _act(d: Deformation, phi: list[IntTable]) -> Deformation:
    """The action of a gauge series Phi, given as integer tables of arity 1
    with phi_0 = id and one per order of ``d``, on ``d``.

    Every coefficient is alternating in its leading pair, so the series are
    kept at the representative tuples, and Phi acts on that pair through
    the pair map Lambda^2 Phi (:func:`_pair_maps`) and on the third
    argument of the ternary series by Phi itself, both through the one
    composition kernel (:func:`hlya.algebra.convolve`); the values are
    then divided by Phi (:func:`_divide`).  The order-0
    coefficients come back unchanged, and the cochain spaces build the
    higher ones from their representative values, with their coordinates
    (:meth:`hlya.cochain.CochainSpace.from_rep_values`).
    """
    seqs, spaces = (d.f_seq, d.g_seq), [build_cochain_space(d.base, arity) for arity in (2, 3)]
    fs, gs = (
        [IntTable(c.ints.den, {idx: vec for idx in space.rep_tuples if (vec := c.ints.entries.get(idx))}) for c in seq]
        for seq, space in zip(seqs, spaces)
    )
    fs, gs = convolve([fs, gs], _pair_maps(phi, d.base.dim), 0)
    [gs] = convolve([gs], phi, 2)
    acted = zip(seqs, spaces, _divide([fs, gs], phi))
    return Deformation(d.base, d.order, *([seq[0], *map(space.from_rep_values, ts[1:])] for seq, space, ts in acted))


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
    multiplies (:func:`hlya.algebra.convolve`); only the product is built
    into a Gauge, once, at the end, and each of its coefficients is
    checked as a member of C1 then (:func:`_gauge`).
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
        row = _pair_row(base, f_r, g_r)
        if not _closed(base, row):
            raise NotCocycleError(f"leading term at order {r} is not a cocycle pair", step_order=r)
        h = _preimage(base, row)
        if h is None:
            return TrivializeResult(None, obstructed_at=r, representative=(f_r, g_r))
        step = _single_step(identity, order, h, r)
        previous, current = current, _act(current, step)
        [total] = convolve([total], step, 0)
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


def _obstruction(a: Algebra, square: tuple) -> tuple[Cochain, Cochain, tuple]:
    """(F, G) and their coordinate row in C4 x C5, for B(c, c) over T, the
    T vector ``square`` (qden, {t: numerator}) of the coordinate row c of
    a pair (f1, g1) in Z2 x Z3.

    (F, G) is minus the t^2 coefficient of identities 7 and 8 with (f1, g1)
    and no second-order term, that is minus the blocks of identities 7 and
    8 in B(c, c) (:func:`_system`), read at the scan tuples of identities 7
    and 8: those are the representative tuples of C4 and C5, the codomain
    of delta2, and both identities are antisymmetric in their two leading
    pairs, so those values fix F and G.  They stay integer numerators until
    the spaces build F and G with their coordinate rows
    (:meth:`hlya.cochain.CochainSpace.from_rep_values`), which check
    alpha-equivariance, joined as the rows of a pair are.  The caller
    checks the cocycle property (:func:`_second_order_step`).
    """
    qden, q = square
    positions = _system(a).positions
    values: dict = {7: {}, 8: {}}
    for t, b in q.items():
        k, idx, j = positions[t]
        if k in values and b:
            values[k].setdefault(idx, {})[j] = -b
    c4, c5 = delta2(a).codomain
    big_f, big_g = (space.from_rep_values(IntTable(qden, values[k])) for k, space in ((7, c4), (8, c5)))
    return big_f, big_g, _joined(c4.row(big_f), c5.row(big_g), c4.dim)


# The key of the second-order slot in an algebra's memo, beside the
# (function, *arguments) keys of @memoised.
_SECOND_ORDER_SLOT = "second-order step"


def _second_order_step(a: Algebra, f1: Cochain, g1: Cochain) -> tuple[Cochain, Cochain, tuple, tuple]:
    """(F, G, row of (F, G), B(c, c) over T), c the coordinate row of
    (f1, g1), done once per pair for the whole second-order trio, the one
    reader of (f1, g1).

    The coordinate row of (f1, g1) is read once
    (:func:`hlya.cohomology._given_row`), checked against Z2 x Z3 on that
    row, and B(c, c) is evaluated on it once (:func:`_quadratic`), as
    (system.den * den^2, {t: numerator}); :func:`_obstruction` reads (F, G)
    off its blocks of 7 and 8, and the probe reads 5'-8' against all of
    it.  A pair that is not one of cochains, or not in Z2 x Z3, raises
    NotInZ2Z3Error.  The result lives in a one-entry slot of the algebra's
    memo, keyed by the pair's value; cochains are immutable, so the slot
    keeps the caller's f1 and g1 and the callers hand out its F and G.  A
    call with another pair replaces the entry, so the slot never grows,
    and a pair that fails the check raises on every call and is never
    stored.
    """
    slot = a._memo.get(_SECOND_ORDER_SLOT)
    if slot is not None and slot[0] == (f1, g1):
        return slot[1]
    try:
        row = _given_row(a, f1, g1)
    except PreconditionError as exc:
        raise NotInZ2Z3Error(f"(f1, g1) must be a 2-/3-cocycle pair: {exc}")
    if not _closed(a, row):
        raise NotInZ2Z3Error("(f1, g1) must be a 2-/3-cocycle pair")
    system = _system(a)
    den, c = row
    square = (system.den * den * den, _quadratic(system, ((c, c),)))
    step = (*_obstruction(a, square), square)
    a._memo[_SECOND_ORDER_SLOT] = ((f1, g1), step)
    return step


def obstruction_pair(a: Algebra, f1: Cochain, g1: Cochain) -> ObstructionPair:
    """The quadratic pair controlling second-order extension of (f1, g1).

    Requires (f1, g1) in Z2 x Z3.  (F, G) is minus the blocks of
    identities 7 and 8 in B(c, c), the system's bilinear map read on the
    coordinate row c of (f1, g1) (:func:`_obstruction`).  The returned
    verdict records whether the pair lies in the kernel of the third
    coboundary operator, a column product that reads only the columns of
    delta3 at (F, G)'s nonzero coordinates; the theorem says it always
    does, and the acceptance suite tests exactly that.  The read of the
    row, the check and (F, G) come from the second-order step that this
    function, :func:`solve_second_order` and :func:`second_order_probe`
    share (:func:`_second_order_step`): computed by the first of them
    called on a pair, and kept until a call on another pair over the same
    algebra.
    """
    big_f, big_g, row, _ = _second_order_step(a, f1, g1)
    return ObstructionPair(big_f, big_g, delta3(a).matrix.kills(row))


def solve_second_order(a: Algebra, f1: Cochain, g1: Cochain) -> tuple[Cochain, Cochain] | None:
    """A pair (f2, g2) with delta2(f2, g2) = obstruction pair, when one exists.

    Requires (f1, g1) in Z2 x Z3; the check and the right-hand side come
    from the shared second-order step (see :func:`obstruction_pair`).
    """
    sol = solve(delta2(a).matrix, _second_order_step(a, f1, g1)[2])
    return None if sol is None else _pair_from_row(a, sol)


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
    precondition holds.  All four equations are read as one T vector,
    M_T c_2 + B(c, c) (:func:`_first_failures`), c_2 the coordinate row of
    (f2, g2) and B(c, c) the one the shared second-order step holds, so
    no bilinear form is evaluated here.  No outcome is asserted: 5' and 6'
    may fail, and the report is the deliverable.  The row, the cocycle
    check and B(c, c) are the shared step's (see :func:`obstruction_pair`),
    which a probe that meets the pair first computes whole for the next
    call of the trio; M_T c_2 is read on every call.
    """
    square = _second_order_step(a, f1, g1)[3]
    for c, arity in ((f2, 2), (g2, 3)):
        _coefficient(build_cochain_space(a, arity), c, 2)
    found = _first_failures(_system(a), _pair_row(a, f2, g2), square)
    if 7 in found or 8 in found:
        raise PreconditionError(
            "(f2, g2) does not solve the second-order extension equation: "
            "delta2(f2, g2) must equal the obstruction pair"
        )
    return ProbeReport({5: found.get(5), 6: found.get(6), 7: None, 8: None})
