"""Twisted derivation spaces and the Lie structure on their direct sum.

A k-twisted derivation is a 1-cochain, a linear map commuting with alpha,
on which the alpha^k-twisted Leibniz defects vanish: the k-twisted
derivations are the kernel of :func:`hlya.coboundary.leibniz` (k) on C1.
Since delta1 is leibniz(0), Der_0 is H1.  Matrices are flattened row-major
(entry (i, j) at position i * d + j, with D(e_j) = sum_i D[i][j] e_i).
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import Algebra, brackets, contract, memoised
from .coboundary import leibniz
from .cochain import build_cochain_space, flat_numerators
from .errors import ClosureViolationError, PreconditionError
from .exactlin import Matrix, Subspace, kernel_basis, solve, unflatten

DEFAULT_K_MAX = 3


class DerivationSpace(NamedTuple):
    twist: int
    basis: Subspace  # of flattened d x d matrices

    @property
    def dim(self) -> int:
        return self.basis.dim

    def matrices(self, dim: int) -> list[Matrix]:
        return [unflatten(self.basis.basis.column(j), dim) for j in range(self.basis.dim)]


def derivation_space(a: Algebra, k: int) -> DerivationSpace:
    """The kernel of leibniz(k) on C1, as flattened d x d matrices, one per
    (algebra, k).  PreconditionError unless k is a nonnegative int, checked
    before the lookup: True or 1.0 would share the memo key of 1."""
    if type(k) is not int or k < 0:
        raise PreconditionError(f"twist exponent must be a nonnegative integer, got {k!r}")
    return _derivation_space(a, k)


@memoised
def _derivation_space(a: Algebra, k: int) -> DerivationSpace:
    """The kernel of leibniz(k) on C1.

    The defects are evaluated once on the generic 1-cochain of C1 at the
    representative tuples of C2 and C3 (i < j), which suffice: both are
    antisymmetric in their first two slots.  Only their values are read,
    never codomain coordinates, so an algebra whose alpha preserves neither
    bracket still has its spaces.
    """
    d = a.dim
    c1 = build_cochain_space(a, 1)
    br, tr = brackets(a)
    tables = {"br": br, "tr": tr, "h": c1.generic()}
    rows = []
    for space, terms in zip((build_cochain_space(a, 2), build_cochain_space(a, 3)), leibniz(k)):
        defect = contract(a, tables, terms)
        images = space.images(defect.probe())
        rows.extend((defect.den, images.get(i, {})) for i in range(space.reduced_dim))
    kernel = kernel_basis(Matrix._of(rows, c1.dim))
    ders = map(c1.from_row, kernel.basis.column_rows())
    return DerivationSpace(k, Subspace.spanned_by(d * d, map(flat_numerators, ders)))


def der_bracket(a: Algebra, d1: Matrix, k: int, d2m: Matrix, s: int) -> Matrix:
    """Commutator of derivations, verified to land in the (k+s)-space.

    PreconditionError unless d1 is in Der_k and d2m in Der_s; then
    ClosureViolationError on membership failure, which would contradict
    the closure theorem.
    """
    for name, m, twist in (("first", d1, k), ("second", d2m, s)):
        if not derivation_space(a, twist).basis.contains(m.flat_row()):
            raise PreconditionError(f"the {name} map is not in Der_{twist}")
    return _closed_commutator(derivation_space(a, k + s), d1, k, d2m, s)


def _closed_commutator(target: DerivationSpace, d1: Matrix, k: int, d2m: Matrix, s: int) -> Matrix:
    """[d1, d2m] for d1 in Der_k and d2m in Der_s, checked to lie in target,
    Der_{k+s}: ClosureViolationError otherwise."""
    comm = d1.matmul(d2m).add(d2m.matmul(d1).scale(-1))
    if solve(target.basis.basis, comm.flat_row()) is None:
        raise ClosureViolationError(f"[Der_{k}, Der_{s}] escaped Der_{k + s}: closure theorem violated", k=k, s=s)
    return comm


class DerivationLieReport(NamedTuple):
    k_max: int
    dims: dict  # twist exponent -> dimension
    checked_pairs: int


def check_der_is_lie(a: Algebra, k_max: int = DEFAULT_K_MAX) -> DerivationLieReport:
    """Exhaustive closure check [Der_k, Der_s] in Der_{k+s} for k+s <= k_max."""
    if type(k_max) is not int:
        raise PreconditionError(f"k_max must be an integer, got {k_max!r}")
    if k_max < 1:
        raise PreconditionError("k_max must be at least 1")
    spaces = {k: derivation_space(a, k) for k in range(k_max + 1)}
    # basis maps are members of their spaces, so der_bracket's check is skipped
    matrices = {k: sp.matrices(a.dim) for k, sp in spaces.items()}
    checked = 0
    for k in range(k_max + 1):
        for s in range(k_max + 1 - k):
            for m1 in matrices[k]:
                for m2 in matrices[s]:
                    _closed_commutator(spaces[k + s], m1, k, m2, s)
                    checked += 1
    return DerivationLieReport(k_max, {k: sp.dim for k, sp in spaces.items()}, checked)
