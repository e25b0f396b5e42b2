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
second-order term must solve delta2(f_2, g_2) = +(F, G).  Gauges are
truncated invertible series of linear maps with identity constant term,
each coefficient commuting with alpha; they act on deformations by
f' = Phi^{-1} f(Phi ., Phi .) and likewise on the ternary part.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import (
    IDENTITIES,
    Algebra,
    _Ops,
    bracket_series,
    compose_out,
    compose_slot,
    divided,
    first_failure,
    identity_values,
    int_table,
    table_sum,
)
from .coboundary import _tabulate, apply_delta2_pair, delta2, delta3
from .cochain import Cochain, build_cochain_space
from .cohomology import cochain_to_matrix, is_coboundary_2, is_cocycle_2
from .errors import (
    BaseMismatchError,
    NotACochainError,
    NotCocycleError,
    NotInZ2Z3Error,
    PreconditionError,
)
from .exactlin import Matrix

DEFAULT_ORDER = 4


@lru_cache(maxsize=None)
def bracket_cochain(a: Algebra) -> Cochain:
    """The base binary bracket as a 2-cochain."""
    table = {
        (i, j): a.binary[i][j]
        for i, j in itertools.product(range(a.dim), repeat=2)
        if any(a.binary[i][j])
    }
    return Cochain(2, a.dim, table)


@lru_cache(maxsize=None)
def ternary_cochain(a: Algebra) -> Cochain:
    """The base ternary bracket as a 3-cochain."""
    table = {
        idx: a.ternary[idx[0]][idx[1]][idx[2]]
        for idx in itertools.product(range(a.dim), repeat=3)
        if any(a.ternary[idx[0]][idx[1]][idx[2]])
    }
    return Cochain(3, a.dim, table)


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
    """Evaluate all eight equations for every order 0..N on all basis tuples.

    Order 0 reproduces the base axioms verbatim.
    """
    ops = _Ops(d.base)
    fs, gs = bracket_series(ops, d.f_seq[1:], d.g_seq[1:])
    failures = {}
    for n in range(d.order + 1):
        for eq in IDENTITIES:
            failures[(eq, n)] = first_failure(ops, eq, n, fs, gs)
    return DeformationReport(d.order, failures)


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
    """Truncated formal isomorphism: phi_0 = id, every phi_i commutes with alpha."""

    __slots__ = ("base", "order", "phi")

    def __init__(self, base: Algebra, order: int, phi):
        phi = tuple(phi)
        if len(phi) != order + 1:
            raise PreconditionError("need exactly order+1 coefficient matrices")
        d = base.dim
        if phi[0] != Matrix.identity(d):
            raise PreconditionError("constant term of a gauge must be the identity")
        alpha = base.alpha_matrix()
        for i, m in enumerate(phi):
            if m.rows != d or m.cols != d:
                raise PreconditionError("gauge coefficients must be dim x dim")
            if m.matmul(alpha) != alpha.matmul(m):
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


@lru_cache(maxsize=None)
def alpha_commutant_basis(a: Algebra) -> tuple:
    """Basis matrices of {X : X alpha = alpha X}, the legal gauge coefficients."""
    from .exactlin import ZERO, kernel_basis

    d = a.dim
    rows = []
    for i, j in itertools.product(range(d), repeat=2):
        row = [ZERO] * (d * d)
        for m in range(d):
            row[i * d + m] += a.alpha[m][j]
            row[m * d + j] -= a.alpha[i][m]
        rows.append(row)
    ker = kernel_basis(Matrix(rows))
    out = []
    for c in range(ker.dim):
        flat = ker.basis.column(c)
        out.append(Matrix([[flat[r * d + cc] for cc in range(d)] for r in range(d)]))
    return tuple(out)


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
    d = p.base.dim
    phi = []
    for n in range(p.order + 1):
        acc = Matrix.zeros(d, d)
        for i in range(n + 1):
            acc = acc.add(p.phi[i].matmul(q.phi[n - i]))
        phi.append(acc)
    return Gauge(p.base, p.order, phi)


def inverse_gauge(p: Gauge) -> Gauge:
    """Truncated series inverse: psi_0 = id, psi_n = -sum phi_i psi_{n-i}."""
    d = p.base.dim
    psi = [Matrix.identity(d)]
    for n in range(1, p.order + 1):
        acc = Matrix.zeros(d, d)
        for i in range(1, n + 1):
            acc = acc.add(p.phi[i].matmul(psi[n - i]))
        psi.append(acc.scale(-1))
    return Gauge(p.base, p.order, psi)


def _matrix_table(m: Matrix):
    """m as an integer table of arity 1: entry (j,) is column j."""
    return int_table({(j,): m.column(j) for j in range(m.cols)})


def apply_gauge(d: Deformation, p: Gauge) -> Deformation:
    """The gauge action f' = Phi^{-1} f(Phi ., Phi .), coefficient by coefficient.

    Phi acts one argument slot at a time: a pass over slot s replaces the
    series T by T'_m = sum_{c+j=m} T_j(.., phi_c ., ..), truncated at the
    order, and a last pass applies Psi = Phi^{-1} to the values.  The
    series are integer tables; Fractions are built for the result only.
    """
    if d.base != p.base:
        raise BaseMismatchError("deformation and gauge live over different bases")
    if d.order != p.order:
        raise BaseMismatchError("deformation and gauge have different truncation orders")
    base, order = d.base, d.order
    phi = [_matrix_table(m) for m in p.phi]
    psi = [_matrix_table(m) for m in inverse_gauge(p).phi]

    def convolve(series, maps, compose) -> list:
        return [
            table_sum(
                compose(series[j], maps[m - j]) for j in range(m + 1) if series[j] and maps[m - j]
            )
            for m in range(order + 1)
        ]

    def transform(seq, arity: int) -> list:
        series = [int_table(c.table) for c in seq]
        for slot in range(arity):
            series = convolve(series, phi, lambda t, m: compose_slot(t, slot, m))
        series = convolve(series, psi, lambda t, m: compose_out(m, t))
        return [Cochain(arity, base.dim, t.fractions(base.dim)) for t in series]

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

    Each leading pair is re-checked for the cocycle property (guaranteed by
    the order-r deformation equations) and the whole deformation is
    re-verified after every gauge step rather than trusting the
    leading-order bookkeeping.
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
        if not is_cocycle_2(base, f_r, g_r):
            raise NotCocycleError(f"leading term at order {r} is not a cocycle pair")
        h = is_coboundary_2(base, (f_r, g_r))
        if h is None:
            return TrivializeResult(None, obstructed_at=r, representative=(f_r, g_r))
        step = single_step_gauge(base, order, cochain_to_matrix(base, h), r)
        current = apply_gauge(current, step)
        total = compose_gauges(total, step)
        if not verify_deformation(current).ok:
            raise NotCocycleError(f"gauge step at order {r} broke the deformation equations")
        if not current.f_seq[r].is_zero() or not current.g_seq[r].is_zero():
            raise NotCocycleError(f"gauge step failed to clear order {r}")
    if not current.is_null():
        raise NotCocycleError("gauge steps left a nonzero coefficient behind")
    return TrivializeResult(total)


# --- obstruction machinery ------------------------------------------------


@dataclass(frozen=True)
class ObstructionPair:
    first: Cochain  # 4-cochain
    second: Cochain  # 5-cochain
    in_z4z5: bool


def obstruction_pair(a: Algebra, f1: Cochain, g1: Cochain) -> ObstructionPair:
    """The quadratic pair controlling second-order extension of (f1, g1).

    Requires (f1, g1) in Z2 x Z3.  The returned verdict records whether the
    pair lies in the kernel of the third coboundary operator; the theorem
    says it always does, and the acceptance suite tests exactly that.
    """
    if not is_cocycle_2(a, f1, g1):
        raise NotInZ2Z3Error("(f1, g1) must be a 2-/3-cocycle pair")
    # minus the t^2 coefficients of identities 7 and 8, with no f2, g2
    ops = _Ops(a)
    fs, gs = bracket_series(ops, (f1,), (g1,))
    tables = []
    for k in (7, 8):
        value, den = identity_values(ops, k, 2, fs, gs)
        tables.append(_tabulate(a, IDENTITIES[k][0], divided(value, -den)))
    f_table, g_table = tables

    c4 = build_cochain_space(a, 4)
    c5 = build_cochain_space(a, 5)
    big_f, coords_f = c4.cochain_from_table(f_table)
    big_g, coords_g = c5.cochain_from_table(g_table)
    image = delta3(a).matrix.apply(coords_f + coords_g)
    return ObstructionPair(big_f, big_g, not any(image))


@dataclass(frozen=True)
class ProbeReport:
    """Per-equation outcome of the order-2 equations: None means it holds."""

    failures: dict

    @property
    def extension_closes(self) -> bool:
        return all(v is None for v in self.failures.values())


def second_order_probe(a: Algebra, f1: Cochain, g1: Cochain, f2: Cochain, g2: Cochain) -> ProbeReport:
    """Evaluate equations 5'-8' at n = 2 for a candidate second-order term.

    Preconditions (checked): (f1, g1) is a cocycle pair, which
    :func:`obstruction_pair` checks, and (f2, g2) kills the obstruction,
    i.e. delta2 of (f2, g2) equals the obstruction pair.
    No outcome is asserted: 7' and 8' are expected to hold, 5' and 6' may
    fail, and the report is the deliverable.
    """
    obstruction = obstruction_pair(a, f1, g1)
    d2f, d2g = apply_delta2_pair(a, f2, g2)
    if d2f != obstruction.first or d2g != obstruction.second:
        raise PreconditionError(
            "(f2, g2) does not solve the second-order extension equation: "
            "delta2(f2, g2) must equal the obstruction pair"
        )
    ops = _Ops(a)
    fs, gs = bracket_series(ops, (f1, f2), (g1, g2))
    return ProbeReport({eq: first_failure(ops, eq, 2, fs, gs) for eq in (5, 6, 7, 8)})


def solve_second_order(a: Algebra, f1: Cochain, g1: Cochain) -> tuple[Cochain, Cochain] | None:
    """A pair (f2, g2) with delta2(f2, g2) = obstruction pair, when one exists."""
    from .exactlin import solve

    obstruction = obstruction_pair(a, f1, g1)
    c4 = build_cochain_space(a, 4)
    c5 = build_cochain_space(a, 5)
    rhs = c4.coords(obstruction.first) + c5.coords(obstruction.second)
    sol = solve(delta2(a).matrix, rhs)
    if sol is None:
        return None
    c2 = build_cochain_space(a, 2)
    c3 = build_cochain_space(a, 3)
    return c2.from_coords(sol[: c2.dim]), c3.from_coords(sol[c2.dim :])
