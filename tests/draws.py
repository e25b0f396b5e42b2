"""Seeded random draws that several test modules share: a cochain, a
cocycle pair of Z2 x Z3 and a combination of a basis.  Each makes the same
rng calls in the same order wherever it is used, so a seed gives the same
draw in every module."""

from hlya.coboundary import d2, delta2
from hlya.cochain import build_cochain_space
from hlya.exactlin import kernel_basis, rat, vstack


def random_cochain(a, arity, rng):
    """A cochain of C^arity with integer coordinates in -2..2."""
    space = build_cochain_space(a, arity)
    return space.from_coords([rat(rng.randint(-2, 2)) for _ in range(space.dim)])


def random_cocycle(a, rng):
    """A pair (f1, g1) of Z2 x Z3, the kernel basis of [delta2; d2]
    combined with integer coefficients in -2..2."""
    z = kernel_basis(vstack(delta2(a).matrix, d2(a).matrix))
    coeffs = [rat(rng.randint(-2, 2)) for _ in range(z.dim)]
    coords = [sum(c * z.basis.data[r][j] for j, c in enumerate(coeffs)) for r in range(z.basis.rows)]
    c2 = build_cochain_space(a, 2)
    c3 = build_cochain_space(a, 3)
    return c2.from_coords(coords[: c2.dim]), c3.from_coords(coords[c2.dim :])


def combination(basis, rng):
    """The columns of ``basis`` combined with integer coefficients in -2..2,
    as one coordinate list."""
    coeffs = [rat(rng.randint(-2, 2)) for _ in range(basis.cols)]
    return [sum(c * x for c, x in zip(coeffs, row)) for row in basis.data]
