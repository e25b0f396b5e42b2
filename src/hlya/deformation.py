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
second-order term must solve delta2(f_2, g_2) = +(F, G).  With (f_2, g_2)
substituted as well, that coefficient is delta2(f_2, g_2) - (F, G): the
second-order probe accepts a candidate exactly when equations 7' and 8'
vanish at n = 2, and never applies delta2 itself.  Gauges are
truncated invertible series of linear maps with identity constant term,
each coefficient commuting with alpha; they act on deformations by
f' = Phi^{-1} f(Phi ., Phi .) and likewise on the ternary part.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .algebra import (
    IDENTITIES,
    Algebra,
    IntTable,
    bracket_series,
    brackets,
    compose_out,
    compose_slot,
    divided,
    first_failure,
    identity_values,
    int_table,
    matrix_table,
    memoised,
    table_sum,
)
from .coboundary import delta2, delta3
from .cochain import Cochain, build_cochain_space, cochain_to_matrix, matrix_to_cochain
from .cohomology import _closed, _preimage, is_cocycle_2, pair_coords, pair_from_coords
from .errors import (
    BaseMismatchError,
    NotACochainError,
    NotCocycleError,
    NotInZ2Z3Error,
    PreconditionError,
)
from .exactlin import Matrix, Subspace, flatten, solve, unflatten

DEFAULT_ORDER = 4


@memoised
def bracket_cochain(a: Algebra) -> Cochain:
    """The base binary bracket as a 2-cochain."""
    return Cochain(2, a.dim, brackets(a)[0].fractions(a.dim))


@memoised
def ternary_cochain(a: Algebra) -> Cochain:
    """The base ternary bracket as a 3-cochain."""
    return Cochain(3, a.dim, brackets(a)[1].fractions(a.dim))


class Deformation:
    """Coefficient data of a truncated deformation over a fixed base."""

    __slots__ = ("base", "order", "f_seq", "g_seq")

    def __init__(self, base: Algebra, order: int, f_seq, g_seq):
        if order < 0:
            raise PreconditionError("order must be nonnegative")
        f_seq = tuple(f_seq)
        g_seq = tuple(g_seq)
        if len(f_seq) != order + 1 or len(g_seq) != order + 1:
            raise PreconditionError("need exactly order+1 coefficient cochains per bracket")
        if f_seq[0] != bracket_cochain(base) or g_seq[0] != ternary_cochain(base):
            raise PreconditionError("order-0 coefficients must equal the base brackets")
        c2 = build_cochain_space(base, 2)
        c3 = build_cochain_space(base, 3)
        for i in range(1, order + 1):
            try:
                c2.coords(f_seq[i])
                c3.coords(g_seq[i])
            except NotACochainError as exc:
                raise PreconditionError(f"coefficient at order {i} is not a cochain: {exc}")
        self.base = base
        self.order = order
        self.f_seq = f_seq
        self.g_seq = g_seq

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Deformation)
            and self.base == other.base
            and self.order == other.order
            and self.f_seq == other.f_seq
            and self.g_seq == other.g_seq
        )

    def __repr__(self) -> str:
        return f"Deformation(base={self.base.name}, order={self.order})"

    def is_null(self) -> bool:
        return all(c.is_zero() for c in self.f_seq[1:]) and all(
            c.is_zero() for c in self.g_seq[1:]
        )


def null_deformation(a: Algebra, order: int = DEFAULT_ORDER) -> Deformation:
    zeros2 = [Cochain.zero(2, a.dim)] * order
    zeros3 = [Cochain.zero(3, a.dim)] * order
    return Deformation(a, order, [bracket_cochain(a), *zeros2], [ternary_cochain(a), *zeros3])


def first_order_deformation(a: Algebra, f1: Cochain, g1: Cochain, order: int = 1) -> Deformation:
    f_seq = [bracket_cochain(a), f1] + [Cochain.zero(2, a.dim)] * (order - 1)
    g_seq = [ternary_cochain(a), g1] + [Cochain.zero(3, a.dim)] * (order - 1)
    return Deformation(a, order, f_seq, g_seq)


# --- the deformation equations --------------------------------------------


@dataclass(frozen=True)
class DeformationReport:
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
    """Evaluate all eight equations for every order 0..N on basis tuples.

    Every coefficient is a cochain, so each equation is evaluated only at
    the representative tuples of its alternating pairs
    (:func:`hlya.algebra.first_failure`).  Each twisted table of the series
    is built once for all equations and orders, and those of the base
    brackets once per algebra (:func:`hlya.algebra.contract`).  Order 0
    reproduces the base axioms verbatim.
    """
    return DeformationReport(d.order, _failures_from(d, 0))


def _failures_from(d: Deformation, start: int) -> dict:
    """(equation, order) -> first failing tuple or None, for the orders
    start..N in increasing order, each order's equations in turn."""
    fs, gs = bracket_series(d.base, d.f_seq[1:], d.g_seq[1:])
    return {
        (eq, n): first_failure(d.base, eq, n, fs, gs)
        for n in range(start, d.order + 1)
        for eq in IDENTITIES
    }


def infinitesimal(d: Deformation) -> tuple[Cochain, Cochain]:
    """The first-order pair, asserted to lie in Z2 x Z3.

    NotCocycleError here is an internal inconsistency: the n = 1 equations
    are equivalent to the cocycle conditions.
    """
    if d.order < 1:
        raise PreconditionError("deformation of order 0 has no first-order term")
    report = verify_deformation(d)
    if not report.ok_through(1):
        raise PreconditionError(
            f"deformation equations fail through order 1: {report.failing()}"
        )
    f1, g1 = d.f_seq[1], d.g_seq[1]
    if not is_cocycle_2(d.base, f1, g1):
        raise NotCocycleError("first-order term escaped Z2 x Z3 despite the n=1 equations")
    return f1, g1


# --- gauges ---------------------------------------------------------------


class Gauge:
    """Truncated formal isomorphism: phi_0 = id, every phi_i a 1-cochain (commutes with alpha)."""

    __slots__ = ("base", "order", "phi")

    def __init__(self, base: Algebra, order: int, phi):
        phi = tuple(phi)
        if len(phi) != order + 1:
            raise PreconditionError("need exactly order+1 coefficient matrices")
        d = base.dim
        if phi[0] != Matrix.identity(d):
            raise PreconditionError("constant term of a gauge must be the identity")
        c1 = build_cochain_space(base, 1)
        for i, m in enumerate(phi):
            if m.rows != d or m.cols != d:
                raise PreconditionError("gauge coefficients must be dim x dim")
            if not c1.contains(matrix_to_cochain(base, m)):
                raise PreconditionError(f"gauge coefficient {i} does not commute with alpha")
        self.base = base
        self.order = order
        self.phi = phi

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Gauge)
            and self.base == other.base
            and self.order == other.order
            and self.phi == other.phi
        )

    def __repr__(self) -> str:
        return f"Gauge(base={self.base.name}, order={self.order})"


@memoised
def alpha_commutant_basis(a: Algebra) -> tuple:
    """Basis matrices of {X : X alpha = alpha X}, the legal gauge coefficients.

    These maps are the 1-cochains; the basis is the canonical one of C1's
    basis matrices, flattened row-major.
    """
    flats = [flatten(cochain_to_matrix(a, h)) for h in build_cochain_space(a, 1).basis_cochains]
    span = Subspace(a.dim**2, flats)
    return tuple(unflatten(span.basis.column(j), a.dim) for j in range(span.dim))


def random_gauge(a: Algebra, order: int, rng) -> Gauge:
    """Identity plus random alpha-commuting higher coefficients."""
    basis = alpha_commutant_basis(a)
    d = a.dim
    phi = [Matrix.identity(d)]
    for _ in range(order):
        acc = Matrix.zeros(d, d)
        for b in basis:
            acc = acc.add(b.scale(Fraction(rng.randint(-2, 2), rng.randint(1, 2))))
        phi.append(acc)
    return Gauge(a, order, phi)


def identity_gauge(a: Algebra, order: int = DEFAULT_ORDER) -> Gauge:
    zero = Matrix.zeros(a.dim, a.dim)
    return Gauge(a, order, [Matrix.identity(a.dim)] + [zero] * order)


def single_step_gauge(a: Algebra, order: int, h: Matrix, r: int) -> Gauge:
    """The rigidity-proof gauge id - h t^r."""
    if not 1 <= r <= order:
        raise PreconditionError("step exponent must satisfy 1 <= r <= order")
    zero = Matrix.zeros(a.dim, a.dim)
    phi = [Matrix.identity(a.dim)] + [zero] * order
    phi[r] = h.scale(-1)
    return Gauge(a, order, phi)


def compose_gauges(p: Gauge, q: Gauge) -> Gauge:
    """Series product p * q; acting with p then q equals acting with p * q."""
    if p.base != q.base or p.order != q.order:
        raise BaseMismatchError("gauges over different bases or orders")
    ps, qs = ([matrix_table(m) for m in g.phi] for g in (p, q))
    product = [table_sum([compose_out(ps[i], qs[n - i]) for i in range(n + 1)]) for n in range(p.order + 1)]
    return _gauge(p.base, product)


def _inverse_series(phi: list[IntTable]) -> list[IntTable]:
    """The truncated inverse of a series of linear maps with phi_0 = id, as
    integer tables: psi_0 = id and psi_n = -sum_{i=1}^{n} phi_i psi_{n-i},
    whose i = n term is phi_n itself."""
    psi = [phi[0]]
    for n in range(1, len(phi)):
        total = table_sum([phi[n], *(compose_out(phi[i], psi[n - i]) for i in range(1, n))])
        psi.append(IntTable(total.den, {key: {i: -x for i, x in vec.items()} for key, vec in total.entries.items()}))
    return psi


def inverse_gauge(p: Gauge) -> Gauge:
    """Truncated series inverse: psi_0 = id, psi_n = -sum phi_i psi_{n-i}."""
    return _gauge(p.base, _inverse_series([matrix_table(m) for m in p.phi]))


def _gauge(base: Algebra, series: list[IntTable]) -> Gauge:
    """The gauge over ``base`` whose coefficients are the linear maps of an
    integer series (tables of arity 1)."""
    d = base.dim
    columns = ([{i: Fraction(x, t.den) for i, x in t.entries.get((j,), {}).items()} for j in range(d)] for t in series)
    return Gauge(base, len(series) - 1, [Matrix.from_sparse_columns(cols, d) for cols in columns])


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
    """The gauge action f' = Phi^{-1} f(Phi ., Phi .), coefficient by coefficient.

    Every coefficient is alternating in its leading pair, so the series are
    kept at the representative tuples only, and Phi acts on that pair
    through the pair map Lambda^2 Phi (:func:`_pair_maps`) and on the third
    argument of the ternary series by Phi itself: a pass replaces the
    series T by T'_m = sum_{c+j=m} T_j(M_c ...), truncated at the order,
    and a last pass applies Psi = Phi^{-1} to the values.  M_0, the
    identity, is not composed, so the order-0 coefficients come back
    unchanged.  The series are integer tables; the cochain spaces build the
    higher coefficients from their representative values.
    """
    if d.base != p.base:
        raise BaseMismatchError("deformation and gauge live over different bases")
    if d.order != p.order:
        raise BaseMismatchError("deformation and gauge have different truncation orders")
    base, order = d.base, d.order
    phi = [matrix_table(m) for m in p.phi]
    psi = _inverse_series(phi)
    pairs = _pair_maps(phi, base.dim)

    def convolve(series, maps, compose) -> list:
        return [
            table_sum(
                [series[m], *(compose(series[j], maps[m - j]) for j in range(m) if series[j] and maps[m - j])]
            )
            for m in range(order + 1)
        ]

    def transform(seq, arity: int) -> list:
        series = [int_table({idx: vec for idx, vec in c.table.items() if idx[0] < idx[1]}) for c in seq]
        series = convolve(series, pairs, lambda t, m: compose_slot(t, 0, m))
        if arity == 3:
            series = convolve(series, phi, lambda t, m: compose_slot(t, 2, m))
        series = convolve(series, psi, lambda t, m: compose_out(m, t))
        space = build_cochain_space(base, arity)
        return [seq[0]] + [
            space.from_rep_values(
                {key: {k: Fraction(x, t.den) for k, x in vec.items()} for key, vec in t.entries.items()}
            )
            for t in series[1:]
        ]

    return Deformation(base, order, transform(d.f_seq, 2), transform(d.g_seq, 3))


def verify_equivalence(d1: Deformation, d2: Deformation, p: Gauge) -> bool:
    """Does p carry d1 to d2 coefficient-exactly through the common order?"""
    if d1.base != d2.base or d1.order != d2.order:
        raise BaseMismatchError("deformations over different bases or orders")
    return apply_gauge(d1, p) == d2


# --- trivialization -------------------------------------------------------


@dataclass(frozen=True)
class TrivializeResult:
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
    """
    report = verify_deformation(d)
    if not report.ok:
        raise PreconditionError(f"deformation equations fail: {report.failing()}")
    base, order = d.base, d.order
    total = identity_gauge(base, order)
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
        step = single_step_gauge(base, order, cochain_to_matrix(base, h), r)
        previous, current = current, apply_gauge(current, step)
        total = compose_gauges(total, step)
        _check_step(previous, current, r)
        if not current.f_seq[r].is_zero() or not current.g_seq[r].is_zero():
            raise NotCocycleError(f"gauge step failed to clear order {r}", step_order=r)
    if not current.is_null():
        raise NotCocycleError("gauge steps left a nonzero coefficient behind")
    return TrivializeResult(total)


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
    for (eq, n), idx in _failures_from(current, r).items():
        if idx is not None:
            raise NotCocycleError(
                f"gauge step at order {r} broke the deformation equations",
                step_order=r,
                equation=eq,
                order=n,
                basis_tuple=idx,
            )


# --- obstruction machinery ------------------------------------------------


@dataclass(frozen=True)
class ObstructionPair:
    first: Cochain  # 4-cochain
    second: Cochain  # 5-cochain
    in_z4z5: bool


def _require_cocycle(a: Algebra, f1: Cochain, g1: Cochain) -> None:
    """NotInZ2Z3Error unless (f1, g1) lies in Z2 x Z3, also when it is not
    a pair of cochains at all."""
    try:
        closed = is_cocycle_2(a, f1, g1)
    except NotACochainError as exc:
        raise NotInZ2Z3Error(f"(f1, g1) must be a 2-/3-cocycle pair: {exc}")
    if not closed:
        raise NotInZ2Z3Error("(f1, g1) must be a 2-/3-cocycle pair")


def _obstruction(a: Algebra, f1: Cochain, g1: Cochain) -> tuple[Cochain, Cochain, list]:
    """(F, G) and their coordinates in C4 x C5, for (f1, g1) in Z2 x Z3.

    (F, G) is minus the t^2 coefficient of identities 7 and 8 with (f1, g1)
    and no second-order term, evaluated once at the representative tuples
    of C4 and C5: both identities are antisymmetric in their two leading
    pairs, so those values fix F and G.  The caller checks the cocycle
    property (:func:`_second_order_step`).
    """
    fs, gs = bracket_series(a, (f1,), (g1,))
    parts = []
    for k in (7, 8):
        space = build_cochain_space(a, IDENTITIES[k].arity)
        value, den = identity_values(a, k, 2, fs, gs)
        value = divided(value, -den)
        values = {idx: value(idx) for idx in space.rep_tuples}
        parts.append((space.from_rep_values(values), space.rep_coords(values)))
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


@dataclass(frozen=True)
class ProbeReport:
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
    themselves: their t^2 coefficient is delta2(f2, g2) - (F, G), so it
    vanishes on every tuple exactly when the precondition holds.
    No outcome is asserted: 5' and 6' may fail, and the report is the
    deliverable.  The cocycle check is the shared second-order step's (see
    :func:`obstruction_pair`), which a probe that meets the pair first
    computes whole for the next call of the trio; 5'-8' are evaluated
    with (f2, g2) on every call.
    """
    _second_order_step(a, f1, g1)
    try:
        pair_coords(a, f2, g2)
    except NotACochainError as exc:
        raise PreconditionError(f"coefficient at order 2 is not a cochain: {exc}")
    fs, gs = bracket_series(a, (f1, f2), (g1, g2))
    if first_failure(a, 7, 2, fs, gs) or first_failure(a, 8, 2, fs, gs):
        raise PreconditionError(
            "(f2, g2) does not solve the second-order extension equation: "
            "delta2(f2, g2) must equal the obstruction pair"
        )
    failures = {eq: first_failure(a, eq, 2, fs, gs) for eq in (5, 6)}
    return ProbeReport({**failures, 7: None, 8: None})
