"""Twisted derivation spaces and the Lie structure on their direct sum.

A k-twisted derivation is a linear map D commuting with alpha and
satisfying both Leibniz rules with alpha^k inserted in the untouched
slots.  Matrices are flattened row-major (entry (i, j) at position
i * d + j, with D(e_j) = sum_i D[i][j] e_i).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import Algebra, _Ops, alpha_power_columns, commutant_rows, memoised, ops_of
from .errors import ClosureViolationError, PreconditionError
from .exactlin import Matrix, Subspace, ZERO, kernel_basis, solve

DEFAULT_K_MAX = 3


@dataclass(frozen=True)
class DerivationSpace:
    twist: int
    basis: Subspace  # of flattened d x d matrices

    @property
    def dim(self) -> int:
        return self.basis.dim

    def matrices(self, dim: int) -> list[Matrix]:
        out = []
        for j in range(self.basis.dim):
            flat = self.basis.basis.column(j)
            out.append(Matrix([[flat[r * dim + c] for c in range(dim)] for r in range(dim)]))
        return out


def _flatten(m: Matrix) -> list:
    return [x for row in m.data for x in row]


@memoised
def derivation_space(a: Algebra, k: int) -> DerivationSpace:
    """Kernel of the stacked linear system for k-twisted derivations."""
    if k < 0:
        raise PreconditionError("twist exponent must be nonnegative")
    d = a.dim
    n = d * d
    ops = ops_of(a)
    ak = alpha_power_columns(a, k)
    rows = commutant_rows(a)

    # binary Leibniz: D([e_i e_j]) - [a^k(e_i) D(e_j)] - [D(e_i) a^k(e_j)] = 0
    for i in range(d):
        for j in range(i + 1, d):
            rows.extend(_linear_rows_binary(ops, ak, i, j))

    # ternary Leibniz on basis triples (first two slots antisymmetric, but
    # the full range is cheap and avoids a case analysis)
    for idx in itertools.product(range(d), repeat=3):
        rows.extend(_linear_rows_ternary(ops, ak, *idx))

    return DerivationSpace(k, kernel_basis(Matrix(rows) if rows else Matrix.zeros(0, n)))


def _linear_rows_binary(ops: _Ops, ak, i, j):
    a, e = ops.a, ops.e
    d = a.dim
    n = d * d
    rows = [[ZERO] * n for _ in range(d)]
    # D([e_i e_j]): [e_i e_j] = sum_m c_m e_m contributes c_m * D[l][m]
    for m, c in enumerate(a.binary[i][j]):
        if c:
            for l in range(d):
                rows[l][l * d + m] += c
    # [a^k(e_i), D(e_j)]: D(e_j) = sum_m D[m][j] e_m
    for p, cp in ak[i].items():
        for m in range(d):
            vec = ops.br({p: cp}, e[m])
            for l, c in vec.items():
                rows[l][m * d + j] -= c
    # [D(e_i), a^k(e_j)]
    for q, cq in ak[j].items():
        for m in range(d):
            vec = ops.br(e[m], {q: cq})
            for l, c in vec.items():
                rows[l][m * d + i] -= c
    return rows


def _linear_rows_ternary(ops: _Ops, ak, i, j, k):
    a, e = ops.a, ops.e
    d = a.dim
    n = d * d
    rows = [[ZERO] * n for _ in range(d)]
    for m, c in enumerate(a.ternary[i][j][k]):
        if c:
            for l in range(d):
                rows[l][l * d + m] += c
    slots = (i, j, k)
    for touched in range(3):
        fixed = [ak[s] for s in slots]
        for m in range(d):
            args = list(fixed)
            args[touched] = e[m]
            vec = ops.tr(*args)
            for l, c in vec.items():
                rows[l][m * d + slots[touched]] -= c
    return rows


def der_bracket(a: Algebra, d1: Matrix, k: int, d2m: Matrix, s: int) -> Matrix:
    """Commutator of derivations, verified to land in the (k+s)-space.

    Raises ClosureViolationError on membership failure, which would
    contradict the closure theorem.
    """
    comm = d1.matmul(d2m).add(d2m.matmul(d1).scale(-1))
    target = derivation_space(a, k + s)
    if solve(target.basis.basis, _flatten(comm)) is None:
        raise ClosureViolationError(
            f"[Der_{k}, Der_{s}] escaped Der_{k + s}: closure theorem violated"
        )
    return comm


@dataclass(frozen=True)
class DerivationLieReport:
    k_max: int
    dims: dict  # twist exponent -> dimension
    checked_pairs: int


def check_der_is_lie(a: Algebra, k_max: int = DEFAULT_K_MAX) -> DerivationLieReport:
    """Exhaustive closure check [Der_k, Der_s] in Der_{k+s} for k+s <= k_max."""
    if k_max < 1:
        raise PreconditionError("k_max must be at least 1")
    spaces = {k: derivation_space(a, k) for k in range(k_max + 1)}
    checked = 0
    for k in range(k_max + 1):
        for s in range(k_max + 1 - k):
            for m1 in spaces[k].matrices(a.dim):
                for m2 in spaces[s].matrices(a.dim):
                    der_bracket(a, m1, k, m2, s)
                    checked += 1
    return DerivationLieReport(k_max, {k: sp.dim for k, sp in spaces.items()}, checked)
