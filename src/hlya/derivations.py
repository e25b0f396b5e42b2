"""Twisted derivation spaces and the Lie structure on their direct sum.

A k-twisted derivation is a 1-cochain, a linear map commuting with alpha,
on which the alpha^k-twisted Leibniz defects vanish: the k-twisted
derivations are the kernel of :func:`hlya.coboundary.leibniz` (k) on C1.
Since delta1 is leibniz(0), Der_0 is H1.  Matrices are flattened row-major
(entry (i, j) at position i * d + j, with D(e_j) = sum_i D[i][j] e_i), as
the integer rows of :meth:`hlya.exactlin.Matrix.flat_row`, and
:func:`hlya.exactlin.unflatten` reads them back.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import Algebra, check_map, memoised
from .coboundary import leibniz_defects
from .cochain import build_cochain_space, cochain_to_matrix
from .errors import ClosureViolationError, PreconditionError
from .exactlin import Matrix, Subspace, kernel_basis, row_blocks, solve, unflatten

DEFAULT_K_MAX = 3


class DerivationSpace(NamedTuple):
    twist: int
    basis: Subspace  # of flattened d x d matrices

    @property
    def dim(self) -> int:
        return self.basis.dim

    def matrices(self, dim: int) -> list[Matrix]:
        return [unflatten(row, dim) for row in self.basis.basis.column_rows()]


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
    antisymmetric in their first two slots.  That generic table is the one
    delta1 binds, with its twists (:func:`hlya.coboundary.leibniz_defects`),
    so every twist k reads it.  Only the defects' values are read, never
    codomain coordinates, so an algebra whose alpha preserves neither
    bracket still has its spaces.
    """
    d = a.dim
    c1 = build_cochain_space(a, 1)
    rows = []
    for space, defect in zip((build_cochain_space(a, 2), build_cochain_space(a, 3)), leibniz_defects(a, k)):
        images = space.images(defect.probe())
        rows.extend((defect.den, images.get(i, {})) for i in range(space.reduced_dim))
    kernel = kernel_basis(Matrix._of(rows, c1.dim))
    ders = map(c1.from_row, kernel.basis.column_rows())
    return DerivationSpace(k, Subspace.spanned_by(d * d, (cochain_to_matrix(a, h).flat_row()[1] for h in ders)))


def der_bracket(a: Algebra, d1: Matrix, k: int, d2m: Matrix, s: int) -> Matrix:
    """Commutator of derivations, verified to land in the (k+s)-space.

    PreconditionError or DimMismatchError unless both maps are dim x dim
    matrices (:func:`hlya.algebra.check_map`); PreconditionError unless d1
    is in Der_k and d2m in Der_s; then ClosureViolationError on membership
    failure, which would contradict the closure theorem.
    """
    for m in (d1, d2m):
        check_map(a, m)
    x, y = d1.flat_row(), d2m.flat_row()
    for name, row, twist in (("first", x, k), ("second", y, s)):
        if not derivation_space(a, twist).basis.contains(row):
            raise PreconditionError(f"the {name} map is not in Der_{twist}")
    return unflatten(_closed_commutator(derivation_space(a, k + s), x, k, y, s, a.dim), a.dim)


def _closed_commutator(target: DerivationSpace, x: tuple, k: int, y: tuple, s: int, dim: int) -> tuple[int, dict]:
    """[d1, d2m] = d1 d2m - d2m d1 for d1 in Der_k and d2m in Der_s, each
    given as its flattened integer row (den, {i * dim + j: numerator}),
    as such a row over the product of their denominators, checked to lie
    in target, Der_{k+s}: ClosureViolationError otherwise."""
    (p, xs), (q, ys) = x, y
    left, right = row_blocks(xs, dim), row_blocks(ys, dim)
    comm: dict = {}
    for first, second, sign in ((left, right, 1), (right, left, -1)):
        for i, row in enumerate(first):
            shift = i * dim
            for m, a in row.items():
                for j, b in second[m].items():
                    comm[shift + j] = comm.get(shift + j, 0) + sign * a * b
    row = p * q, {j: x for j, x in comm.items() if x}
    if solve(target.basis.basis, row) is None:
        raise ClosureViolationError(f"[Der_{k}, Der_{s}] escaped Der_{k + s}: closure theorem violated", k=k, s=s)
    return row


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
    # basis maps are members of their spaces, so der_bracket's check is
    # skipped, and they are read as the flattened integer rows they are
    flats = {k: sp.basis.basis.column_rows() for k, sp in spaces.items()}
    checked = 0
    for k in range(k_max + 1):
        for s in range(k_max + 1 - k):
            for x in flats[k]:
                for y in flats[s]:
                    _closed_commutator(spaces[k + s], x, k, y, s, a.dim)
                    checked += 1
    return DerivationLieReport(k_max, {k: sp.dim for k, sp in spaces.items()}, checked)
