"""The four coboundary operators, materialized as exact matrices.

Each operator acts between (pairs of) cochain spaces.  Its formula is
linear in the domain cochains, so it is evaluated once per codomain
representative tuple on *generic* domain tables, whose entries are the
unknown reduced coordinates; the values are integer linear forms
{(output index, unknown): coefficient}.  Applying the forms to each domain
basis vector gives every column of the matrix in the codomain basis
(:meth:`CochainSpace.coordinates`), after the equivariance defect forms
are applied to the domain basis.  :func:`verify_well_definedness` is the
full-tabulation audit: the same forms taken on *all* tuples, each codomain
condition (diagonal pairs, pair antisymmetry, equivariance) turned into
linear defect forms once, and only the nonzero ones applied to the domain
basis.  Both find their witness with :func:`hlya.cochain.first_violation`.
The generic tables, coordinates and defect forms come from the cochain
spaces (:class:`hlya.cochain.CochainSpace`), which own the layout.

Levels and their (domain -> codomain) pairs:

    delta1 : C1        -> C2 x C3
    delta2 : C2 x C3   -> C4 x C5
    d2     : C2 x C3   -> C3 x W4   (W4: alternating in the leading pair only)
    delta3 : C4 x C5   -> C6 x C7

The degree-2 operators are not written out here: they are the
linearisation of the defining identities (:data:`hlya.algebra.IDENTITIES`)
at the base brackets.  Deforming the brackets to (f0 + t f, g0 + t g), the
t^1 coefficients of identities 7 and 8 are the two components of delta2,
and those of identities 5 and 6 are the two components of d2; so
(f, g) is a first-order deformation exactly when it lies in both kernels.
delta1 and delta3 are signed-term data in the same language
(:data:`DELTA1`, :data:`DELTA3`); delta1 is the untwisted case of the
alpha^k-twisted Leibniz rule :func:`leibniz`, whose kernel on C1 is the
space of k-twisted derivations (:mod:`hlya.derivations`).  All are
evaluated by the one integer contraction of :func:`hlya.algebra.contract`,
on the base brackets and the domain cochains as integer tables: the
formulas of :data:`_LEVELS` take integer tables, generic or not, and
:func:`apply_operator` converts its cochains.

The first component of delta2 and both components of d2 and delta3 couple
the two domain blocks, so the generic pair carries one set of unknowns per
block and each basis vector lives in one block: columns are the images of
(f, 0) and (0, g) and rely on linearity in the pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import (
    Algebra,
    IntTable,
    brackets,
    contract,
    divided,
    identity_values,
    int_table,
    memoised,
    to_dense,
)
from .cochain import Cochain, _violation, build_cochain_space, first_violation
from .exactlin import Matrix


@dataclass(frozen=True)
class CoboundaryMap:
    """Matrix of one operator w.r.t. the computed subspace bases."""

    level: str
    domain: tuple  # CochainSpace components
    codomain: tuple
    matrix: Matrix

    @property
    def domain_dim(self) -> int:
        return sum(s.dim for s in self.domain)

    @property
    def codomain_dim(self) -> int:
        return sum(s.dim for s in self.codomain)


def _tabulate(a: Algebra, arity: int, fn) -> dict:
    """fn maps an index tuple to a sparse value; returns a dense-key table."""
    d = a.dim
    table = {}
    for idx in itertools.product(range(d), repeat=arity):
        sv = fn(idx)
        if sv:
            table[idx] = to_dense(sv, d)
    return table


# --- operator formulas, as signed terms ----------------------------------
#
# The Leibniz defects and delta3 in the language of IDENTITIES
# (hlya.algebra): "br" and "tr" are the base brackets, "h" the 1-cochain of
# the Leibniz rule and "f", "g" the 4- and 5-cochains of delta3.  With
# x_0, x_1, ... the slot variables and a^k = alpha^k:
#   leibniz(k)_I(h)(x, y)     = [a^k x, h(y)] + [h(x), a^k y] - h([x y])
#   leibniz(k)_II(h)(x, y, z) = {h(x), a^k y, a^k z} + {a^k x, h(y), a^k z}
#                               + {a^k x, a^k y, h(z)} - h({x y z})
# delta1 is leibniz(0); the k-twisted derivations are the 1-cochains on
# which leibniz(k) vanishes (hlya.derivations).
#   delta3_I(f, g)(x_0 .. x_5)
#     = {a^3 x_0, a^3 x_1, f(x_2 .. x_5)} - {a^3 x_2, a^3 x_3, f(x_0, x_1, x_4, x_5)}
#       + hat sum of f
#       - g(a^1 x_0, a^1 x_1, a^1 x_2, a^1 x_3, [x_4 x_5])
#       + [a^4 x_4, g(x_0 .. x_3, x_5)] + [g(x_0 .. x_4), a^4 x_5]
#   delta3_II(f, g)(x_0 .. x_6)
#     = sum_{k=1}^{3} (-1)^(k+1) {a^4 x_{2k-2}, a^4 x_{2k-1}, g(the other five)}
#       + hat sum of g
#       + {g(x_0 .. x_4), a^4 x_5, a^4 x_6} - {g(x_0 .. x_3, x_5), a^4 x_4, a^4 x_6}


def _hat_terms(name: str, arity: int) -> tuple:
    """The hat sum of ``name`` over ``arity`` slots (1-based):
    sum_k sum_{i=2k+1}^{arity} (-1)^k name(a^2 x_1, .., {x_{2k-1} x_{2k} x_i}, ..),
    with slots 2k-1 and 2k left out, the triple at slot i and alpha^2 on
    the other slots."""
    terms = []
    for k in range(1, (arity - 1) // 2 + 1):
        pair = (2 * k - 2, 2 * k - 1)
        for i in range(2 * k, arity):
            args = tuple(
                ("tr", *pair, i) if m == i else (2, m) for m in range(arity) if m not in pair
            )
            terms.append(((-1) ** k, name, args))
    return tuple(terms)


def leibniz(k: int) -> tuple:
    """The alpha^k-twisted Leibniz defects of a 1-cochain "h", binary and
    ternary, as signed terms."""
    return (
        (
            (1, "br", ((k, 0), ("h", 1))),
            (1, "br", (("h", 0), (k, 1))),
            (-1, "h", (("br", 0, 1),)),
        ),
        (
            (1, "tr", (("h", 0), (k, 1), (k, 2))),
            (1, "tr", ((k, 0), ("h", 1), (k, 2))),
            (1, "tr", ((k, 0), (k, 1), ("h", 2))),
            (-1, "h", (("tr", 0, 1, 2),)),
        ),
    )


DELTA1 = leibniz(0)

DELTA3 = (
    (
        (1, "tr", ((3, 0), (3, 1), ("f", 2, 3, 4, 5))),
        (-1, "tr", ((3, 2), (3, 3), ("f", 0, 1, 4, 5))),
        *_hat_terms("f", 6),
        (-1, "g", ((1, 0), (1, 1), (1, 2), (1, 3), ("br", 4, 5))),
        (1, "br", ((4, 4), ("g", 0, 1, 2, 3, 5))),
        (1, "br", (("g", 0, 1, 2, 3, 4), (4, 5))),
    ),
    (
        *(
            ((-1) ** (m // 2), "tr", ((4, m), (4, m + 1), ("g", *(s for s in range(7) if s not in (m, m + 1)))))
            for m in (0, 2, 4)
        ),
        *_hat_terms("g", 7),
        (1, "tr", (("g", 0, 1, 2, 3, 4), (4, 5), (4, 6))),
        (-1, "tr", (("g", 0, 1, 2, 3, 5), (4, 4), (4, 6))),
    ),
)


def _contracted(components, names):
    """Tables of the signed-term ``components`` at the base brackets and the
    domain tables, bound in order to ``names``."""

    def tables(a: Algebra, *domain: IntTable):
        br, tr = brackets(a)
        named = {"br": br, "tr": tr, **dict(zip(names, domain))}
        return [divided(*contract(a, named, terms)) for terms in components]

    return tables


def _linearised(ids):
    """Tables of the t^1 coefficients of identities ``ids`` at the base
    brackets deformed by (t f, t g)."""

    def tables(a: Algebra, f: IntTable, g: IntTable):
        f0, g0 = brackets(a)
        fs, gs = (f0, f), (g0, g)
        return [divided(*identity_values(a, k, 1, fs, gs)) for k in ids]

    return tables


# --- assembly -------------------------------------------------------------

# level -> (name, domain arities, codomain (arity, pairs), formula tables)
_LEVELS = {
    "1": ("delta1", (1,), ((2, None), (3, None)), _contracted(DELTA1, ("h",))),
    "2": ("delta2", (2, 3), ((4, None), (5, None)), _linearised((7, 8))),
    "d2": ("d2", (2, 3), ((3, None), (4, 1)), _linearised((5, 6))),
    "3": ("delta3", (4, 5), ((6, None), (7, None)), _contracted(DELTA3, ("f", "g"))),
}


def _generic_inputs(domain) -> tuple[list, list]:
    """Generic tables of the domain blocks (:meth:`CochainSpace.generic`)
    and the domain basis over their unknowns, block by block; a block's
    unknowns follow the reduced coordinates of the blocks before it."""
    tables, basis, offset = [], [], 0
    for space in domain:
        table, vectors = space.generic(offset)
        tables.append(table)
        basis.extend(vectors)
        offset += space.reduced_dim
    return tables, basis


def _assemble(a: Algebra, level: str) -> CoboundaryMap:
    """The operator's matrix, linearised once per representative tuple.

    Each formula runs once per representative tuple of each codomain
    block, on generic domain tables; the linear forms it returns give
    every column at once, as sparse vectors.  Coordinates are read off by
    :meth:`CochainSpace.coordinates`, which raises NotACochainError, with
    the column as ``basis_index``, on an image that violates
    alpha-equivariance.  Pair alternation is not seen here: only
    representative tuples are evaluated.
    """
    name, domain_arities, codomain_shapes, tables = _LEVELS[level]
    domain = [build_cochain_space(a, n) for n in domain_arities]
    codomain = [build_cochain_space(a, n, pairs) for n, pairs in codomain_shapes]
    generic, basis = _generic_inputs(domain)
    blocks = [target.coordinates(fn, basis) for target, fn in zip(codomain, tables(a, *generic))]
    shift = codomain[0].dim
    columns = [
        {**first, **{shift + j: x for j, x in second.items()}} for first, second in zip(*blocks)
    ]
    matrix = Matrix.from_sparse_columns(columns, shift + codomain[1].dim)
    return CoboundaryMap(name, tuple(domain), tuple(codomain), matrix)


@memoised
def delta1(a: Algebra) -> CoboundaryMap:
    """f in C1 to (the pair of) its binary and ternary Leibniz defects."""
    return _assemble(a, "1")


@memoised
def delta2(a: Algebra) -> CoboundaryMap:
    """The t^1 coefficients of identities 7 and 8 around the base."""
    return _assemble(a, "2")


@memoised
def d2(a: Algebra) -> CoboundaryMap:
    """The t^1 coefficients of the two cyclic identities 5 and 6.

    Its first component lands in the full 3-cochain space (the cyclic sum
    cancels on the leading diagonal and equivariance is inherited).  The
    second component is alternating in its leading pair and equivariant but
    genuinely not alternating in the trailing pair -- e.g. on sl2 with the
    leading-pair indicator 2-cochain the values at (e1,e2,e3,e1) and
    (e1,e2,e1,e3) are -4*e3 and 0 -- so its codomain is the partially
    alternating space (one pair condition) rather than the full 4-cochain
    space.  Kernel computations are unaffected: vanishing of the tabulated
    formula is the same condition in either coordinate system.
    """
    return _assemble(a, "d2")


@memoised
def delta3(a: Algebra) -> CoboundaryMap:
    return _assemble(a, "3")


OPERATORS = {"1": delta1, "2": delta2, "d2": d2, "3": delta3}


def operator_by_level(a: Algebra, level: str) -> CoboundaryMap:
    if level not in OPERATORS:
        raise KeyError(f"unknown operator level {level!r}; choose from {sorted(OPERATORS)}")
    return OPERATORS[level](a)


# --- direct formula application -------------------------------------------


def apply_operator(a: Algebra, level: str, *cochains: Cochain) -> tuple[Cochain, Cochain]:
    """The two components of the operator at ``level`` on its domain
    cochains (h for "1", else the pair), straight from the formulas:
    tabulated on all tuples and read back by ``cochain_from_table``, which
    raises NotACochainError on an image that is not a cochain."""
    _, _, codomain_shapes, tables = _LEVELS[level]
    return tuple(
        build_cochain_space(a, n, pairs).cochain_from_table(_tabulate(a, n, fn))[0]
        for (n, pairs), fn in zip(codomain_shapes, tables(a, *(int_table(c.table) for c in cochains)))
    )


def verify_well_definedness(a: Algebra, level: str) -> int:
    """Full-tabulation audit of one operator on the whole domain.

    Unlike the matrix assembly, which reads only representative tuples,
    this checks every codomain condition (diagonal pairs, pair
    antisymmetry at every tuple, alpha-equivariance) on the operator's
    image of every domain cochain.  Each codomain block's formula runs
    once per basis tuple, on generic domain tables, and each condition
    becomes a linear defect form (:meth:`CochainSpace.defects`).  Only the forms that
    are nonzero are applied to the domain basis; on an untwisted algebra
    there are none.  A form nonzero on a basis cochain raises
    NotACochainError, with the level, block, 1-based tuple, basis index
    and kind as attributes.  Returns the number of basis cochains audited.
    """
    op = operator_by_level(a, level)
    name, _, _, tables = _LEVELS[level]
    generic, basis = _generic_inputs(op.domain)
    if not basis:
        return 0
    for block, (space, fn) in enumerate(zip(op.codomain, tables(a, *generic))):
        defects = space.defects(fn)
        found = first_violation(defects, basis) if defects else None
        if found is not None:
            (kind, idx, _), j = found
            raise _violation(
                kind,
                idx,
                f"{name} component {block + 1}, image of basis cochain {j}: ",
                level=level,
                block=block,
                basis_index=j,
            )
    return len(basis)
