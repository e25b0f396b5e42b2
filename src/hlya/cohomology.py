"""Cocycle, coboundary and cohomology spaces, plus membership tests.

All spaces are coordinate subspaces w.r.t. the computed cochain-space
bases, so kernels, images and quotients are plain exact linear algebra.
Level pairing follows the operators:

    H1           = ker delta1                     (inside C1)
    Z2 x Z3      = ker [delta2; d2]               (inside C2 x C3)
    B2 x B3      = im  delta1
    Z4 x Z5      = ker delta3                     (inside C4 x C5)
    B4 x B5      = im  delta2

B inside Z is forced by the composition theorem; a NotContainedError from
the quotient is therefore a loud internal failure, not a user error.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import Algebra, memoised
from .coboundary import d2, delta1, delta2, delta3
from .cochain import Cochain, _require_cochain, build_cochain_space
from .errors import NotACochainError, PreconditionError
from .exactlin import Subspace, _joined, image_basis, kernel_basis, quotient_dim, solve, vstack


class LevelReport(NamedTuple):
    cocycles: Subspace
    coboundaries: Subspace
    h_dim: int


class CohomologyReport(NamedTuple):
    """Dimension table and representative bases for all three levels."""

    algebra: Algebra
    h1: Subspace
    level2: LevelReport  # Z2xZ3 / B2xB3
    level3: LevelReport  # Z4xZ5 / B4xB5

    def dims(self) -> dict:
        return {
            "h1": self.h1.dim,
            "z2z3": self.level2.cocycles.dim,
            "b2b3": self.level2.coboundaries.dim,
            "h2h3": self.level2.h_dim,
            "z4z5": self.level3.cocycles.dim,
            "b4b5": self.level3.coboundaries.dim,
            "h4h5": self.level3.h_dim,
        }


@memoised
def h1(a: Algebra) -> Subspace:
    """First cohomology = first cocycles: kernel of delta1 in C1 coordinates.

    The level-1 pairs (f, f) carry a single copy of f, so one coordinate
    block suffices and both delta1 components must vanish.
    """
    return kernel_basis(delta1(a).matrix)


@memoised
def h2h3(a: Algebra) -> LevelReport:
    stacked = vstack(delta2(a).matrix, d2(a).matrix)
    z = kernel_basis(stacked)
    b = image_basis(delta1(a).matrix)
    return LevelReport(z, b, quotient_dim(z, b))


@memoised
def h4h5(a: Algebra) -> LevelReport:
    z = kernel_basis(delta3(a).matrix)
    b = image_basis(delta2(a).matrix)
    return LevelReport(z, b, quotient_dim(z, b))


def cohomology_report(a: Algebra) -> CohomologyReport:
    return CohomologyReport(a, h1(a), h2h3(a), h4h5(a))


# --- coordinates and membership -------------------------------------------


def _pair_row(a: Algebra, f: Cochain, g: Cochain) -> tuple[int, dict]:
    """The basis coordinates of a pair in C2 x C3 as one integer row, those
    of g shifted past C2's.  NotACochainError when either component is not
    a cochain."""
    c2 = build_cochain_space(a, 2)
    return _joined(c2.row(f), build_cochain_space(a, 3).row(g), c2.dim)


def _pair_from_row(a: Algebra, row: tuple[int, dict]) -> tuple[Cochain, Cochain]:
    """The pair in C2 x C3 with this integer row of concatenated basis
    coordinates."""
    c2, c3 = build_cochain_space(a, 2), build_cochain_space(a, 3)
    den, vec = row
    n = c2.dim
    f = {j: x for j, x in vec.items() if j < n}
    g = {j - n: x for j, x in vec.items() if j >= n}
    return c2.from_row((den, f)), c3.from_row((den, g))


def _given_row(a: Algebra, f: Cochain, g: Cochain) -> tuple[int, dict]:
    """:func:`_pair_row` of a caller's pair: an argument that is not a
    Cochain, or a cochain outside C2 or C3, is a PreconditionError."""
    for pos, c in enumerate((f, g), 1):
        _require_cochain(c, f"pair component {pos}")
    try:
        return _pair_row(a, f, g)
    except NotACochainError as exc:
        raise PreconditionError(str(exc)) from exc


def is_cocycle_2(a: Algebra, f: Cochain, g: Cochain) -> bool:
    """Does (f, g) lie in Z2 x Z3, i.e. is it killed by both delta2 and d2?
    PreconditionError when f or g is not a cochain."""
    return _closed(a, _given_row(a, f, g))


def is_coboundary_2(a: Algebra, pair: tuple[Cochain, Cochain]) -> Cochain | None:
    """A 1-cochain witness h with delta1(h) = pair, or None.

    None is a normal return: it means the pair's class in H2 x H3 is
    nontrivial (or the pair is no cocycle at all).  PreconditionError when
    either component is not a cochain.
    """
    return _preimage(a, _given_row(a, *pair))


def _closed(a: Algebra, row: tuple[int, dict]) -> bool:
    """:func:`is_cocycle_2` on the pair's coordinate row."""
    return delta2(a).matrix.kills(row) and d2(a).matrix.kills(row)


def _preimage(a: Algebra, row: tuple[int, dict]) -> Cochain | None:
    """:func:`is_coboundary_2` on the pair's coordinate row."""
    sol = solve(delta1(a).matrix, row)
    if sol is None:
        return None
    return build_cochain_space(a, 1).from_row(sol)
