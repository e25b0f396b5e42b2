"""Twisted derivation spaces and the Lie structure on their direct sum.

A k-twisted derivation is a 1-cochain, a linear map commuting with alpha,
on which the alpha^k-twisted Leibniz defects vanish: the k-twisted
derivations are the kernel of :func:`hlya.coboundary.leibniz` (k) on C1.
Since delta1 is leibniz(0), Der_0 is H1.  Matrices are flattened row-major
(entry (i, j) at position i * d + j, with D(e_j) = sum_i D[i][j] e_i).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, brackets, contract, divided, memoised
from .coboundary import leibniz
from .cochain import build_cochain_space, cochain_to_matrix
from .errors import ClosureViolationError, PreconditionError
from .exactlin import Matrix, Subspace, flatten, kernel_basis, solve, unflatten

DEFAULT_K_MAX = 3


@dataclass(frozen=True)
class DerivationSpace:
    twist: int
    basis: Subspace  # of flattened d x d matrices

    @property
    def dim(self) -> int:
        return self.basis.dim

    def matrices(self, dim: int) -> list[Matrix]:
        return [unflatten(self.basis.basis.column(j), dim) for j in range(self.basis.dim)]


@memoised
def derivation_space(a: Algebra, k: int) -> DerivationSpace:
    """The kernel of leibniz(k) on C1, as flattened d x d matrices.

    The defects are evaluated once on the generic 1-cochain of C1 at the
    representative tuples of C2 and C3 (i < j), which suffice: both are
    antisymmetric in their first two slots.  Only their values are read,
    never codomain coordinates, so an algebra whose alpha preserves neither
    bracket still has its spaces.
    """
    if k < 0:
        raise PreconditionError("twist exponent must be nonnegative")
    d = a.dim
    c1 = build_cochain_space(a, 1)
    generic, basis = c1.generic()
    br, tr = brackets(a)
    columns = [{} for _ in basis]
    rows = 0
    for space, terms in zip((build_cochain_space(a, 2), build_cochain_space(a, 3)), leibniz(k)):
        fn = divided(*contract(a, {"br": br, "tr": tr, "h": generic}, terms))
        for column, image in zip(columns, space.images(fn, basis)):
            column.update((rows + i, x) for i, x in image.items())
        rows += space.reduced_dim
    kernel = kernel_basis(Matrix.from_sparse_columns(columns, rows))
    ders = (c1.from_coords(kernel.basis.column(j)) for j in range(kernel.dim))
    return DerivationSpace(k, Subspace(d * d, [flatten(cochain_to_matrix(a, h)) for h in ders]))


def der_bracket(a: Algebra, d1: Matrix, k: int, d2m: Matrix, s: int) -> Matrix:
    """Commutator of derivations, verified to land in the (k+s)-space.

    Raises ClosureViolationError on membership failure, which would
    contradict the closure theorem.
    """
    comm = d1.matmul(d2m).add(d2m.matmul(d1).scale(-1))
    target = derivation_space(a, k + s)
    if solve(target.basis.basis, flatten(comm)) is None:
        raise ClosureViolationError(f"[Der_{k}, Der_{s}] escaped Der_{k + s}: closure theorem violated", k=k, s=s)
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
