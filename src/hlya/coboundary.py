"""The four coboundary operators, materialized as exact matrices.

Each operator acts between (pairs of) cochain spaces.  Its formula is
linear in the domain cochains, so it is bound once per algebra to
*generic* domain tables, sum_j u_j b_j over the domain basis cochains
b_j; the tables (:func:`_generic_inputs`) and the bound formula
(:func:`_bound_generic`) are kept in the algebra's memo.  The values are
integer linear forms {(output index, unknown): coefficient}, and unknown
j is column j.  Assembly probes the bound formula once per codomain
representative tuple; once no equivariance defect form is left, the form
of each codomain coordinate (:meth:`CochainSpace.coordinates`) is a
matrix row as it stands, its integer coefficients over the formula's
denominator.  :func:`verify_well_definedness` is the full-tabulation
audit: the same bound formula joined at *all* tuples in one pass over
the tables' nonzero entries and left undivided, since scaling by the
nonzero 1/L changes no form's zero-ness; each codomain condition (diagonal pairs,
pair antisymmetry, equivariance) is turned into linear defect forms once,
read over the joined entries and the orbits they touch
(:meth:`CochainSpace.defects`), and a correct operator leaves none.  Both
raise their witness through :func:`hlya.cochain.check_defects`.
:func:`apply_operator` joins its formula on concrete tables and divides.
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
on the base brackets and the domain cochains as integer tables, each term
list analysed once per algebra: the formulas of :data:`_LEVELS` take
integer tables, generic or not, and hand out one
:class:`hlya.algebra.Contraction` per codomain block, with its
denominator; :func:`apply_operator` reads the integer tables its
cochains keep (:attr:`hlya.cochain.Cochain.ints`).

The first component of delta2 and both components of d2 and delta3 couple
the two domain blocks, so the generic pair carries one set of unknowns per
block and each basis cochain lives in one block: columns are the images of
(f, 0) and (0, g) and rely on linearity in the pair.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import (
    IDENTITIES,
    Algebra,
    Contraction,
    IntTable,
    brackets,
    contract,
    identity_values,
    memoised,
)
from .cochain import Cochain, build_cochain_space, check_defects
from .errors import ArityError, NotACochainError, PreconditionError
from .exactlin import Matrix


class CoboundaryMap(NamedTuple):
    """Matrix of one operator w.r.t. the computed subspace bases."""

    level: str
    domain: tuple  # CochainSpace components
    codomain: tuple
    matrix: Matrix

    @property
    def domain_dim(self) -> int:
        return sum(s.dim for s in self.domain)


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
    """Contractions of the signed-term ``components`` at the base brackets
    and the domain tables, bound in order to ``names``."""

    def tables(a: Algebra, *domain: IntTable):
        br, tr = brackets(a)
        named = {"br": br, "tr": tr, **dict(zip(names, domain))}
        return [contract(a, named, terms) for terms in components]

    return tables


def _linearised(ids):
    """The codomain (arity, pairs) of each identity in ``ids``, as
    :data:`IDENTITIES` records it, and the contractions of their t^1
    coefficients at the base brackets deformed by (t f, t g)."""

    def tables(a: Algebra, f: IntTable, g: IntTable):
        f0, g0 = brackets(a)
        fs, gs = (f0, f), (g0, g)
        return [identity_values(a, k, 1, fs, gs) for k in ids]

    return tuple((IDENTITIES[k].arity, IDENTITIES[k].pairs) for k in ids), tables


# --- assembly -------------------------------------------------------------

# degree-2 level -> the identities whose t^1 coefficients are its codomain
# blocks, and identity -> (level, block)
_LINEARISED = {"2": (7, 8), "d2": (5, 6)}
_BLOCKS = {k: (level, block) for level, ids in _LINEARISED.items() for block, k in enumerate(ids)}

# level -> (name, domain arities, codomain (arity, pairs), formula tables);
# the degree-2 levels read their codomains off the identities they linearise
_LEVELS = {
    "1": ("delta1", (1,), ((2, None), (3, None)), _contracted(DELTA1, ("h",))),
    "2": ("delta2", (2, 3), *_linearised(_LINEARISED["2"])),
    "d2": ("d2", (2, 3), *_linearised(_LINEARISED["d2"])),
    "3": ("delta3", (4, 5), ((6, None), (7, None)), _contracted(DELTA3, ("f", "g"))),
}


@memoised
def _generic_inputs(a: Algebra, arities: tuple) -> tuple:
    """Generic tables of the domain spaces of ``arities``
    (:meth:`CochainSpace.generic`), block by block, kept in a's memo with
    their twists and join indexes; a block's unknowns follow the basis
    cochains of the blocks before it, so unknown j is column j."""
    tables, offset = [], 0
    for n in arities:
        space = build_cochain_space(a, n)
        tables.append(space.generic(offset))
        offset += space.dim
    return tuple(tables)


@memoised
def _bound_generic(a: Algebra, formula, arities: tuple) -> tuple:
    """A level's ``formula`` bound to the generic tables of its domain
    ``arities``, one contraction per codomain block, kept in a's memo: one
    binding serves assembly, which probes it, and every audit, which joins
    it.  The key is the formula itself, so a formula put in :data:`_LEVELS`
    later binds anew."""
    return tuple(formula(a, *_generic_inputs(a, arities)))


def linear_part(a: Algebra, k: int) -> Contraction:
    """The t^1 coefficient of identity k, one of 5-8, at the base
    brackets: the codomain block of d2 or delta2 that assembly probes,
    bound to the generic tables of C2 x C3 (:func:`_bound_generic`).  Its
    values are linear forms {(output index, unknown): coefficient} over
    its denominator, unknown u being coordinate u of a pair in C2 x C3
    (:func:`hlya.cohomology.pair_coords`)."""
    level, block = _BLOCKS[k]
    _, arities, _, tables = _LEVELS[level]
    return _bound_generic(a, tables, arities)[block]


def _assemble(a: Algebra, level: str) -> CoboundaryMap:
    """The operator's matrix, linearised once per representative tuple.

    Each formula, bound to generic domain tables (:func:`_bound_generic`),
    is probed once per representative tuple of each codomain block.  The
    linear forms it returns, read by :meth:`CochainSpace.coordinates` as
    one form per codomain coordinate, are the matrix rows, over the
    formula's denominator: row j's coefficient of unknown u is coordinate
    j of the image of basis cochain u.  ``coordinates`` raises
    NotACochainError, with the column as ``basis_index``, on an image that
    violates alpha-equivariance.  Pair alternation is not seen here: only
    representative tuples are evaluated.
    """
    name, domain_arities, codomain_shapes, tables = _LEVELS[level]
    domain = [build_cochain_space(a, n) for n in domain_arities]
    codomain = [build_cochain_space(a, n, pairs) for n, pairs in codomain_shapes]
    rows = []
    for target, formula in zip(codomain, _bound_generic(a, tables, domain_arities)):
        forms = target.coordinates(formula.probe())
        rows.extend((formula.den, forms.get(j, {})) for j in range(target.dim))
    matrix = Matrix._of(rows, sum(s.dim for s in domain))
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


def _level(level: str) -> tuple:
    """The record of an operator level; KeyError naming the levels."""
    if level not in _LEVELS:
        raise KeyError(f"unknown operator level {level!r}; choose from {sorted(_LEVELS)}")
    return _LEVELS[level]


def operator_by_level(a: Algebra, level: str) -> CoboundaryMap:
    _level(level)
    return OPERATORS[level](a)


# --- direct formula application -------------------------------------------


def apply_operator(a: Algebra, level: str, *cochains: Cochain) -> tuple[Cochain, Cochain]:
    """The two components of the operator at ``level`` on its domain
    cochains (h for "1", else the pair), straight from the formulas:
    joined at all tuples in integers and built by the codomain space
    (:meth:`hlya.cochain.CochainSpace.from_table`), which raises
    NotACochainError on an image that is not a cochain.  A cochain
    count or arity that is not the level's domain raises ArityError, a
    cochain on another dimension DimMismatchError, and one outside its
    domain space PreconditionError."""
    name, domain_arities, codomain_shapes, tables = _level(level)
    arities = tuple(c.arity for c in cochains)
    if arities != domain_arities:
        raise ArityError(f"{name} takes cochains of arities {domain_arities}, got {arities}")
    for pos, c in enumerate(cochains, 1):
        try:
            build_cochain_space(a, c.arity).coords(c)
        except NotACochainError as exc:
            raise PreconditionError(f"{name} argument {pos}, a {c.arity}-cochain, is not in C{c.arity}: {exc}")
    return tuple(
        build_cochain_space(a, n, pairs).from_table(IntTable(formula.den, formula.join()))
        for (n, pairs), formula in zip(codomain_shapes, tables(a, *(c.ints for c in cochains)))
    )


def verify_well_definedness(a: Algebra, level: str) -> int:
    """Full-tabulation audit of one operator on the whole domain.

    Unlike the matrix assembly, which reads only representative tuples,
    this checks every codomain condition (diagonal pairs, pair
    antisymmetry at every tuple, alpha-equivariance) on the operator's
    image of every domain cochain.  Each codomain block's formula, bound
    to the generic domain tables as for assembly (:func:`_bound_generic`),
    is joined once at all basis tuples, and each condition becomes a
    linear defect form (:meth:`CochainSpace.defects`).
    The forms stay in integers, L times the values: scaling by 1/L, which
    is not zero, changes no form's zero-ness, and a witness names a kind,
    a tuple and a basis index, never a value.  A correct operator leaves
    no defect form; the first one raises NotACochainError at its lowest
    unknown, with the level, block, 1-based tuple, basis index and kind as
    attributes.  Returns the number of basis cochains audited.
    """
    name, domain_arities, _, tables = _level(level)
    op = OPERATORS[level](a)
    for block, (space, formula) in enumerate(zip(op.codomain, _bound_generic(a, tables, domain_arities))):
        prefix = f"{name} component {block + 1}, image of basis cochain {{}}: "
        check_defects(space.defects(formula.join()), prefix, level=level, block=block)
    return op.domain_dim
