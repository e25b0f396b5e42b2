"""The four coboundary operators, materialized as exact matrices.

Each operator acts between (pairs of) cochain spaces.  Its formula is
linear in the domain cochains, so it is evaluated once per codomain
representative tuple on *generic* domain cochains, whose table entries
are unknowns; the values are linear forms in those unknowns.  Applying
the forms to each domain basis vector gives every column of the matrix,
and each column is expressed in the codomain basis, with the
equivariance residual checked during coordinate extraction.
:func:`verify_well_definedness` is the full-tabulation audit: the same
linear forms taken on *all* tuples, with every basis cochain's image
checked against the alternating-pair and equivariance conditions.

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
(:data:`DELTA1`, :data:`DELTA3`).  All four are evaluated by the one
integer contraction of :func:`hlya.algebra.contract`, on the base
brackets and the domain cochains as integer tables.

The first component of delta2 and both components of d2 and delta3 couple
the two domain blocks, so the generic pair carries one set of unknowns per
block and each basis vector lives in one block: columns are the images of
(f, 0) and (0, g) and rely on linearity in the pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .algebra import (
    Algebra,
    _Ops,
    bracket_series,
    contract,
    divided,
    identity_values,
    int_table,
    to_dense,
)
from .cochain import Cochain, CochainSpace, build_cochain_space
from .exactlin import Matrix, ZERO


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

    def split_domain_coords(self, coords):
        out = []
        at = 0
        for s in self.domain:
            out.append(list(coords[at : at + s.dim]))
            at += s.dim
        return out


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
# delta1 and delta3 in the language of IDENTITIES (hlya.algebra): "br" and
# "tr" are the base brackets, "h" the 1-cochain of delta1 and "f", "g" the
# 4- and 5-cochains of delta3.  With x_0, x_1, ... the slot variables and
# a^k = alpha^k:
#   delta1_I(h)(x, y)    = [x h(y)] + [h(x) y] - h([x y])
#   delta1_II(h)(x, y, z) = {h(x) y z} + {x h(y) z} + {x y h(z)} - h({x y z})
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


DELTA1 = (
    (
        (1, "br", ((0, 0), ("h", 1))),
        (1, "br", (("h", 0), (0, 1))),
        (-1, "h", (("br", 0, 1),)),
    ),
    (
        (1, "tr", (("h", 0), (0, 1), (0, 2))),
        (1, "tr", ((0, 0), ("h", 1), (0, 2))),
        (1, "tr", ((0, 0), (0, 1), ("h", 2))),
        (-1, "h", (("tr", 0, 1, 2),)),
    ),
)

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
    domain cochains, bound in order to ``names``."""

    def tables(ops: _Ops, *cochains: Cochain):
        br, tr = ops.brackets
        named = {"br": br, "tr": tr}
        named.update((name, int_table(c.table)) for name, c in zip(names, cochains))
        return [divided(*contract(ops, named, terms)) for terms in components]

    return tables


def _linearised(ids):
    """Tables of the t^1 coefficients of identities ``ids`` at the base
    brackets deformed by (t f, t g)."""

    def tables(ops: _Ops, f: Cochain, g: Cochain):
        fs, gs = bracket_series(ops, (f,), (g,))
        return [divided(*identity_values(ops, k, 1, fs, gs)) for k in ids]

    return tables


# --- assembly -------------------------------------------------------------

# level -> (name, domain arities, codomain (arity, pairs), formula tables)
_LEVELS = {
    "1": ("delta1", (1,), ((2, None), (3, None)), _contracted(DELTA1, ("h",))),
    "2": ("delta2", (2, 3), ((4, None), (5, None)), _linearised((7, 8))),
    "d2": ("d2", (2, 3), ((3, None), (4, 1)), _linearised((5, 6))),
    "3": ("delta3", (4, 5), ((6, None), (7, None)), _contracted(DELTA3, ("f", "g"))),
}


def _space(a: Algebra, arity: int, pairs: int | None) -> CochainSpace:
    # build_cochain_space caches by call form: (a, n) and (a, n, None) would
    # build the same space twice
    if pairs is None:
        return build_cochain_space(a, arity)
    return build_cochain_space(a, arity, pairs=pairs)


class _Form:
    """A linear form in the unknown reduced coordinates of generic cochains.

    It is the value type of a formula evaluated on generic cochains: the
    formulas add forms, scale them by integers (by rationals only where
    :func:`hlya.algebra.divided` leaves the integer kernel) and test them
    for zero, and never multiply two of them, because each is linear in
    its cochains.  ``terms`` maps an unknown to its nonzero coefficient, a
    Python int on the generic cochains.  In the integer tables of
    :mod:`hlya.algebra` a form is a numerator over the denominator 1.
    """

    __slots__ = ("terms",)
    denominator = 1

    @property
    def numerator(self):
        return self

    def __init__(self, terms: dict):
        self.terms = terms

    def __add__(self, other):
        if not isinstance(other, _Form):
            if other:
                raise TypeError("a linear form plus a nonzero constant")
            return self
        terms = dict(self.terms)
        for u, c in other.terms.items():
            v = terms.get(u, 0) + c
            if v:
                terms[u] = v
            else:
                del terms[u]
        return _Form(terms)

    __radd__ = __add__

    def __mul__(self, c):
        if isinstance(c, _Form):
            raise TypeError("a product of two linear forms")
        return _Form({u: x * c for u, x in self.terms.items()} if c else {})

    __rmul__ = __mul__

    def __neg__(self):
        return _Form({u: -x for u, x in self.terms.items()})

    def __bool__(self):
        return bool(self.terms)


def _generic_inputs(domain) -> tuple[list, list]:
    """Generic cochains of the domain blocks and the domain basis over them.

    Block b's reduced coordinate i is the unknown ``offset_b + i``, where
    ``offset_b`` is the reduced dimension of the blocks before b.  The
    generic cochain takes the value of each coordinate that some basis
    cochain uses, with the pair signs of :meth:`CochainSpace.from_reduced`;
    a block of dimension 0 is the zero cochain.  The basis comes back as
    sparse vectors over the unknowns, block by block.
    """
    cochains, basis = [], []
    offset = 0
    for space in domain:
        d = space.algebra.dim
        forms = {
            i: _Form({offset + i: 1}) for col in space._basis_cols for i in col
        }
        table = {}
        for pos, variants in enumerate(space._pair_orbits()):
            value = tuple(forms.get(pos * d + k, 0) for k in range(d))
            if any(value):
                negated = tuple(-x for x in value)
                for tup, sign in variants:
                    table[tup] = value if sign == 1 else negated
        cochains.append(Cochain(space.arity, d, table))
        basis.extend({offset + i: x for i, x in col.items()} for col in space._basis_cols)
        offset += space.reduced_dim
    return cochains, basis


def _images(tuples, fn, basis, d):
    """fn, evaluated once per tuple on generic cochains, then on each basis
    vector: one sparse table {tuple position: value vector} per vector."""
    if not basis:
        return
    linear = {}  # unknown -> [(tuple position, output index, coefficient)]
    for pos, idx in enumerate(tuples):
        for k, form in fn(idx).items():
            for u, c in form.terms.items():
                linear.setdefault(u, []).append((pos, k, c))
    for vec in basis:
        image = {}
        for u, x in vec.items():
            for pos, k, c in linear.get(u, ()):
                value = image.get(pos)
                if value is None:
                    value = image[pos] = [ZERO] * d
                value[k] += x * c
        yield image


def _assemble(a: Algebra, level: str) -> CoboundaryMap:
    """The operator's matrix, linearised once per representative tuple.

    Each formula runs once per representative tuple of each codomain
    block, on generic domain cochains; the linear forms it returns give
    every column at once, as sparse vectors.  Coordinates are read off by
    ``CochainSpace._coords``, whose residual check raises NotACochainError
    on an image that violates alpha-equivariance.  Pair alternation is
    not seen here: only representative tuples are evaluated.
    """
    name, domain_arities, codomain_shapes, tables = _LEVELS[level]
    d = a.dim
    domain = [build_cochain_space(a, n) for n in domain_arities]
    codomain = [_space(a, n, pairs) for n, pairs in codomain_shapes]
    cochains, basis = _generic_inputs(domain)
    blocks = []
    for target, fn in zip(codomain, tables(_Ops(a), *cochains)):
        blocks.append(
            [
                target._coords(
                    {pos * d + k: x for pos, value in image.items() for k, x in enumerate(value) if x}
                )
                for image in _images(target.rep_tuples, fn, basis, d)
            ]
        )
    shift = codomain[0].dim
    columns = [
        {**first, **{shift + j: x for j, x in second.items()}} for first, second in zip(*blocks)
    ]
    matrix = Matrix.from_sparse_columns(columns, shift + codomain[1].dim)
    return CoboundaryMap(name, tuple(domain), tuple(codomain), matrix)


@lru_cache(maxsize=None)
def delta1(a: Algebra) -> CoboundaryMap:
    """f in C1 to (the pair of) its binary and ternary Leibniz defects."""
    return _assemble(a, "1")


@lru_cache(maxsize=None)
def delta2(a: Algebra) -> CoboundaryMap:
    """The t^1 coefficients of identities 7 and 8 around the base."""
    return _assemble(a, "2")


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def delta3(a: Algebra) -> CoboundaryMap:
    return _assemble(a, "3")


OPERATORS = {"1": delta1, "2": delta2, "d2": d2, "3": delta3}


def operator_by_level(a: Algebra, level: str) -> CoboundaryMap:
    if level not in OPERATORS:
        raise KeyError(f"unknown operator level {level!r}; choose from {sorted(OPERATORS)}")
    return OPERATORS[level](a)


# --- direct formula application (used by tests and the deformation code) --


def _apply(a: Algebra, level: str, *cochains) -> tuple[Cochain, Cochain]:
    """The operator's two components as cochains, tabulated on all tuples."""
    _, _, codomain_shapes, tables = _LEVELS[level]
    return tuple(
        _space(a, n, pairs).cochain_from_table(_tabulate(a, n, fn))[0]
        for (n, pairs), fn in zip(codomain_shapes, tables(_Ops(a), *cochains))
    )


def apply_delta1_single(a: Algebra, h: Cochain) -> tuple[Cochain, Cochain]:
    return _apply(a, "1", h)


def apply_delta2_pair(a: Algebra, f: Cochain, g: Cochain) -> tuple[Cochain, Cochain]:
    """(delta2_I(f,g), delta2_II(g)) as cochains, straight from the formulas."""
    return _apply(a, "2", f, g)


def apply_d2_pair(a: Algebra, f: Cochain, g: Cochain) -> tuple[Cochain, Cochain]:
    return _apply(a, "d2", f, g)


def apply_delta3_pair(a: Algebra, f: Cochain, g: Cochain) -> tuple[Cochain, Cochain]:
    return _apply(a, "3", f, g)


def verify_well_definedness(a: Algebra, level: str) -> int:
    """Full-tabulation audit of one operator on every domain basis cochain.

    Unlike the matrix assembly, which reads only representative tuples,
    this tabulates each basis cochain's image on *all* basis tuples and
    passes the table to ``cochain_from_table``, which checks the codomain
    conditions (alternating pairs + equivariance) and raises
    NotACochainError on any violation.  The formula runs once per tuple,
    on generic cochains, and the tables are its linear forms evaluated at
    each basis cochain.  Returns the number of basis cochains audited.
    """
    op = operator_by_level(a, level)
    _, _, codomain_shapes, tables = _LEVELS[level]
    cochains, basis = _generic_inputs(op.domain)
    for (n, pairs), fn in zip(codomain_shapes, tables(_Ops(a), *cochains)):
        space = _space(a, n, pairs)
        tuples = list(itertools.product(range(a.dim), repeat=n))
        for image in _images(tuples, fn, basis, a.dim):
            space.cochain_from_table({tuples[pos]: value for pos, value in image.items()})
    return len(basis)
