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
delta1 and delta3 keep their explicit formulas.

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
    SVec,
    _Ops,
    bracket_series,
    divided,
    identity_values,
    svec_add,
    to_dense,
)
from .cochain import Cochain, CochainSpace, build_cochain_space
from .exactlin import Matrix, ONE, ZERO

_MINUS = -ONE


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


def _acc(*signed_terms) -> SVec:
    acc: SVec = {}
    for sign, sv in signed_terms:
        svec_add(acc, sv, sign)
    return acc


# --- operator formulas, tabulated on basis tuples -------------------------


def _delta1_tables(ops: _Ops, h: Cochain):
    e = ops.e
    br, tr = ops.br, ops.tr

    def hv(sv: SVec) -> SVec:
        return h.eval_sv([sv])

    def comp_I(idx):
        x, y = e[idx[0]], e[idx[1]]
        return _acc((ONE, br(x, hv(y))), (ONE, br(hv(x), y)), (_MINUS, hv(br(x, y))))

    def comp_II(idx):
        x, y, z = (e[i] for i in idx)
        return _acc(
            (ONE, tr(hv(x), y, z)),
            (ONE, tr(x, hv(y), z)),
            (ONE, tr(x, y, hv(z))),
            (_MINUS, hv(tr(x, y, z))),
        )

    return [comp_I, comp_II]


def _linearised(ids):
    """Tables of the t^1 coefficients of identities ``ids`` at the base
    brackets deformed by (t f, t g)."""

    def tables(ops: _Ops, f: Cochain, g: Cochain):
        fs, gs = bracket_series(ops, (f,), (g,))
        return [divided(*identity_values(ops, k, 1, fs, gs)) for k in ids]

    return tables


def _hat_args(base: list, k: int, i: int, replacement: SVec) -> list:
    """Argument-list surgery for the hat sums.

    Drops slots 2k-1 and 2k (1-based) from ``base`` and substitutes
    ``replacement`` at 1-based slot ``i`` of the original numbering.
    """
    drop = {2 * k - 2, 2 * k - 1}
    return [
        replacement if m == i - 1 else base[m]
        for m in range(len(base))
        if m not in drop
    ]


def _double_sum(arity: int, k_range, fn) -> SVec:
    """sum_k sum_{i=2k+1}^{arity} (-1)^k fn(k, i)."""
    acc: SVec = {}
    for k in k_range:
        for i in range(2 * k + 1, arity + 1):
            svec_add(acc, fn(k, i), ONE if k % 2 == 0 else _MINUS)
    return acc


def _delta3_tables(ops: _Ops, f: Cochain, g: Cochain):
    e = ops.e
    al, br, tr = ops.al, ops.br, ops.tr
    fv = lambda args: f.eval_sv(args)
    gv = lambda args: g.eval_sv(args)

    def comp_I(idx):
        x = [e[i] for i in idx]
        a2 = [al(2, v) for v in x]
        a3 = [al(3, v) for v in x]

        def hat_term(k, i):
            triple = tr(x[2 * k - 2], x[2 * k - 1], x[i - 1])
            return fv(_hat_args(a2, k, i, triple))

        return _acc(
            (ONE, tr(a3[0], a3[1], fv([x[2], x[3], x[4], x[5]]))),
            (_MINUS, tr(a3[2], a3[3], fv([x[0], x[1], x[4], x[5]]))),
            (ONE, _double_sum(6, (1, 2), hat_term)),
            (_MINUS, gv([al(1, x[0]), al(1, x[1]), al(1, x[2]), al(1, x[3]), br(x[4], x[5])])),
            (ONE, br(al(4, x[4]), gv([x[0], x[1], x[2], x[3], x[5]]))),
            (ONE, br(gv([x[0], x[1], x[2], x[3], x[4]]), al(4, x[5]))),
        )

    def comp_II(idx):
        x = [e[i] for i in idx]
        a2 = [al(2, v) for v in x]
        a4 = [al(4, v) for v in x]

        def pair_term(k):
            rest = [x[m] for m in range(7) if m not in (2 * k - 2, 2 * k - 1)]
            return tr(a4[2 * k - 2], a4[2 * k - 1], gv(rest))

        def hat_term(k, i):
            triple = tr(x[2 * k - 2], x[2 * k - 1], x[i - 1])
            return gv(_hat_args(a2, k, i, triple))

        acc = _acc(
            (ONE, pair_term(1)),
            (_MINUS, pair_term(2)),
            (ONE, pair_term(3)),
            (ONE, _double_sum(7, (1, 2, 3), hat_term)),
            (ONE, tr(gv([x[0], x[1], x[2], x[3], x[4]]), a4[5], a4[6])),
            (_MINUS, tr(gv([x[0], x[1], x[2], x[3], x[5]]), a4[4], a4[6])),
        )
        return acc

    return [comp_I, comp_II]


# --- assembly -------------------------------------------------------------

# level -> (name, domain arities, codomain (arity, pairs), formula tables)
_LEVELS = {
    "1": ("delta1", (1,), ((2, None), (3, None)), _delta1_tables),
    "2": ("delta2", (2, 3), ((4, None), (5, None)), _linearised((7, 8))),
    "d2": ("d2", (2, 3), ((3, None), (4, 1)), _linearised((5, 6))),
    "3": ("delta3", (4, 5), ((6, None), (7, None)), _delta3_tables),
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
    formulas add forms, scale them by rationals and test them for zero,
    and never multiply two of them, because each is linear in its
    cochains.  ``terms`` maps an unknown to its nonzero coefficient.  In
    the integer tables of :mod:`hlya.algebra` a form is a numerator over
    the denominator 1.
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
            v = terms.get(u, ZERO) + c
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
            i: _Form({offset + i: ONE}) for col in space._basis_cols for i in col
        }
        table = {}
        for pos, variants in enumerate(space._pair_orbits()):
            value = tuple(forms.get(pos * d + k, ZERO) for k in range(d))
            if any(value):
                negated = tuple(_MINUS * x for x in value)
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
    every column at once.  Coordinates are read off by
    ``coords_from_reduced``, whose residual check raises NotACochainError
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
        coords = []
        for image in _images(target.rep_tuples, fn, basis, d):
            reduced = [ZERO] * target.reduced_dim
            for pos, value in image.items():
                reduced[pos * d : (pos + 1) * d] = value
            coords.append(target.coords_from_reduced(reduced))
        blocks.append(coords)
    columns = [first + second for first, second in zip(*blocks)]
    rows = sum(s.dim for s in codomain)
    if columns and rows:
        matrix = Matrix.from_columns(columns, rows=rows)
    else:
        matrix = Matrix.zeros(rows, len(columns))
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
