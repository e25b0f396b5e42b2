"""Structure-constant representation of a twisted binary/ternary algebra.

An algebra is a quadruple (L, [.,.], {.,.,.}, alpha): a d-dimensional
rational vector space with an antisymmetric binary bracket, a ternary
bracket antisymmetric in its first two slots, and a twisting endomorphism
alpha.  Eight identities (checked by :func:`check_axioms`) make the
quadruple a Hom-Lie-Yamaguti algebra; with alpha = id it is an ordinary
Lie-Yamaguti algebra.

Every multilinear evaluation in the package is one contraction of integer
tables (:class:`IntTable`, :func:`contract`): the brackets and the powers
of alpha are kept on the algebra as such tables (:func:`brackets`,
:func:`alpha_table`), and the identities, the coboundary operators, the
twisted Leibniz rules, bracket and cochain evaluation at vectors, the
endomorphism test and the constructors all read them.  Each identity is
analysed once per algebra and order, into a plan kept in the algebra's
memo, and every other term list once per algebra; each evaluation only
binds its tables to that analysis (:class:`Contraction`).  A bound
contraction is read in one of two orders.  The readers that scan some
tuples (the identity scans of :func:`first_failure`, the quadratic parts
of the deformation equations, operator assembly, the second-order
obstruction, derivations) probe it one tuple at a time.
The readers that need every basis tuple (the well-definedness audit,
:func:`hlya.coboundary.apply_operator`, :func:`from_lya_standard`) join
it: each term's nonzero entries are paired on their shared index, so no
time goes to the empty entries of sparse bracket tables.  Each
constructor passes its tables through one dense builder,
:func:`make_algebra` and one axiom verdict.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import wraps
from math import gcd, lcm
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from .errors import AxiomError, DimMismatchError, NotHomLieError, NotMorphismError
from .exactlin import ZERO, Frozen, Matrix, _pruned, rat

Vec = tuple[Fraction, ...]

# Each identity is a list of signed terms in a binary map f, a ternary map g
# and the twist alpha, evaluated on slot variables x_0, x_1, ...  A term is
# (sign, map, args) with map "f", "g" or "alpha"; an argument (k, s) is
# alpha^k(x_s), and an argument ("f", s, t) or ("g", s, t, r) is a nested
# bracket on plain slot variables.  With f = [.,.] and g = {.,.,.}, and
# x, y, z, u, v for x_0 .. x_4:
#   1: alpha([xy]) - [alpha(x) alpha(y)]
#   2: alpha({xyz}) - {alpha(x) alpha(y) alpha(z)}
#   3: [xy] + [yx]                      (polarized [xx] = 0)
#   4: {xyz} + {yxz}                    (polarized {xxz} = 0)
#   5: cyclic_{x,y,z} ([[xy] alpha(z)] + {xyz})
#   6: cyclic_{x,y,z} {[xy] alpha(z) alpha(u)}
#   7: {alpha(x) alpha(y) [zu]} - [{xyz} a2(u)] - [a2(z) {xyu}]
#   8: {a2(x) a2(y) {zuv}} - {{xyz} a2(u) a2(v)} - {a2(z) {xyu} a2(v)}
#                          - {a2(z) a2(u) {xyv}}
# where a2 = alpha^2.  A Hom-Lie-Yamaguti algebra makes all eight vanish.
# Substituting series f = sum_i f_i t^i and g = sum_i g_i t^i gives the
# deformation equations as the t^n coefficients; at n = 1 around the base
# they are the degree-2 coboundary operators (see :mod:`hlya.coboundary`).
#
# Each identity also records its leading alternating slot pairs: when every
# f_i is alternating and every g_i alternating in its leading pair, every
# t^n coefficient changes sign when the two arguments of such a pair swap.
# Identities 1, 2, 5 and 6 are antisymmetric in (x, y): 1 and 2 term by
# term, 5 and 6 as cyclic sums of terms antisymmetric in (x, y).  7 and 8
# are antisymmetric in (x, y) and in (z, u): the first and last terms term
# by term, and the two middle terms go to minus each other.  6 is not
# antisymmetric in (z, u), since u lies outside the cycle, and 3 and 4,
# the alternation conditions themselves, have no pair.
#
# Identities 5 and 6 also record a leading block of three totally
# alternating slots: each is a cyclic sum S(x, y, z) = T(x, y, z) +
# T(y, z, x) + T(z, x, y) of a term T antisymmetric in (x, y).  Swapping x
# and y gives T(y, x, z) + T(x, z, y) + T(z, y, x) = -S(x, y, z), and S is
# invariant under rotation, so every transposition of (x, y, z) changes
# its sign.  S also vanishes when two of x, y, z are equal: S(x, x, z) =
# T(x, x, z) + T(x, z, x) + T(z, x, x) = 0.  So every t^n coefficient is
# alternating in (x, y, z), and both identities hold in dimension 2.

_P, _M = 1, -1


def _cyclic(terms) -> tuple:
    """The terms summed over the three rotations of slots 0, 1, 2."""
    rot = lambda s, r: (s + r) % 3 if s < 3 else s
    return tuple(
        (sign, outer, tuple((arg[0], *(rot(s, r) for s in arg[1:])) for arg in args))
        for r in range(3)
        for sign, outer, args in terms
    )


class Identity(NamedTuple):
    """One identity: its arity, its signed terms, its leading alternating
    pairs and its leading alternating block.  For any f alternating in its
    pair and g alternating in its leading pair, the value of every t^n
    coefficient changes sign when the arguments of slots (2p, 2p + 1),
    p < ``pairs``, are swapped, and when any two of the first ``block``
    slots are swapped."""

    arity: int
    terms: tuple
    pairs: int
    block: int = 0


IDENTITIES = {
    1: Identity(2, ((_P, "alpha", (("f", 0, 1),)), (_M, "f", ((1, 0), (1, 1)))), 1),
    2: Identity(3, ((_P, "alpha", (("g", 0, 1, 2),)), (_M, "g", ((1, 0), (1, 1), (1, 2)))), 1),
    3: Identity(2, ((_P, "f", ((0, 0), (0, 1))), (_P, "f", ((0, 1), (0, 0)))), 0),
    4: Identity(3, ((_P, "g", ((0, 0), (0, 1), (0, 2))), (_P, "g", ((0, 1), (0, 0), (0, 2)))), 0),
    5: Identity(3, _cyclic(((_P, "f", (("f", 0, 1), (1, 2))), (_P, "g", ((0, 0), (0, 1), (0, 2))))), 1, 3),
    6: Identity(4, _cyclic(((_P, "g", (("f", 0, 1), (1, 2), (1, 3))),)), 1, 3),
    7: Identity(4, (
        (_P, "g", ((1, 0), (1, 1), ("f", 2, 3))),
        (_M, "f", (("g", 0, 1, 2), (2, 3))),
        (_M, "f", ((2, 2), ("g", 0, 1, 3))),
    ), 2),
    8: Identity(5, (
        (_P, "g", ((2, 0), (2, 1), ("g", 2, 3, 4))),
        (_M, "g", (("g", 0, 1, 2), (2, 3), (2, 4))),
        (_M, "g", ((2, 2), ("g", 0, 1, 3), (2, 4))),
        (_M, "g", ((2, 2), (2, 3), ("g", 0, 1, 4))),
    ), 2),
}
AXIOM_IDS = tuple(IDENTITIES)


def _vec(values: Sequence) -> Vec:
    return tuple(rat(v) for v in values)


def zero_vec(dim: int) -> Vec:
    return (ZERO,) * dim


class Algebra(Frozen):
    """Structure-constant data, a :class:`Frozen` value.  Use the
    constructors below.

    Two algebras are equal when their dimension, brackets and alpha are;
    the name and the memo do not count."""

    __slots__ = ("dim", "binary", "ternary", "alpha", "name", "_memo", "_hash", "__weakref__")
    _fields = ("dim", "binary", "ternary", "alpha")

    def __init__(self, dim: int, binary: tuple, ternary: tuple, alpha: tuple, name: str = ""):
        self._init(
            dim=dim,
            binary=binary,  # binary[i][j] = coordinates of [e_i, e_j]
            ternary=ternary,  # ternary[i][j][k] = coordinates of {e_i e_j e_k}
            alpha=alpha,  # row-major matrix; alpha(e_j) = sum_i alpha[i][j] e_i
            name=name,
            # data derived from this algebra, filled by @memoised functions and by
            # the one-entry second-order slot of hlya.deformation
            _memo={},
            _hash=None,
        )

    def __hash__(self):
        # cached: the structure tensors are deeply nested Fraction tuples, and
        # algebras serve as dict and set keys
        h = self._hash
        if h is None:
            h = hash((self.dim, self.binary, self.ternary, self.alpha))
            self._init(_hash=h)
        return h

    def __repr__(self) -> str:
        label = self.name or "?"
        return f"Algebra({label}, dim={self.dim})"


def _tensor(data, levels: int, dim: int, what: str) -> tuple:
    """``data`` as nested tuples: ``levels`` levels of ``dim`` entries over
    vectors of ``dim`` rationals; DimMismatchError for any other length."""
    if len(data) != dim:
        raise DimMismatchError(f"{what} has {len(data)} entries where dim = {dim} belong")
    return tuple(_tensor(x, levels - 1, dim, what) for x in data) if levels else _vec(data)


def make_algebra(dim, binary, ternary, alpha, name="") -> Algebra:
    """Build an Algebra from full tensors, enforcing shape and antisymmetry.

    Rejects tensors that fail [xx]=0 / {xxy}=0 antisymmetry outright rather
    than silently symmetrizing: those are identities 3 and 4, definitional,
    and AxiomError names the first basis tuple at which one fails.
    """
    b = _tensor(binary, 2, dim, "the binary tensor")
    t = _tensor(ternary, 3, dim, "the ternary tensor")
    a = _tensor(alpha, 1, dim, "alpha")
    algebra = Algebra(dim, b, t, a, name)
    for k, what in ((3, "binary bracket"), (4, "ternary bracket in its first two arguments")):
        # no alternating pairs: every tuple is evaluated, diagonals included
        witness = _axiom_witness(algebra, k)
        if witness is not None:
            raise AxiomError(f"the {what} is not alternating at basis tuple {witness}")
    return algebra


def _dense(dim: int, levels: int, entries: dict, head: tuple = ()) -> list:
    """The tensor :func:`make_algebra` takes: ``entries[key]`` at each key, zero vectors elsewhere."""
    if len(head) == levels:
        return entries.get(head, (0,) * dim)
    return [_dense(dim, levels, entries, head + (i,)) for i in range(dim)]


def algebra_from_sparse(dim, binary_entries, ternary_entries, alpha, name="") -> Algebra:
    """Build from sparse 0-based entries {(i, j): vec} with i < j (binary)
    and {(i, j, k): vec} with i < j (ternary); omitted entries are zero.
    DimMismatchError for a key that is not a tuple of ints in 0..dim-1."""
    tensors = []
    for what, arity, entries in (("binary", 2, binary_entries), ("ternary", 3, ternary_entries)):
        full = {}
        for key, vec in entries.items():
            shaped = isinstance(key, tuple) and len(key) == arity
            if not (shaped and all(type(i) is int and 0 <= i < dim for i in key)):  # a bool is no index
                raise DimMismatchError(f"{what} entry {key!r}: expected {arity} integer indices in 0..{dim - 1}")
            i, j, *rest = key
            if i >= j:
                raise AxiomError(f"{what} entries must have i < j")
            full[key] = vec
            full[(j, i, *rest)] = [-rat(x) for x in vec]
        tensors.append(_dense(dim, arity, full))
    return make_algebra(dim, *tensors, alpha, name)


# --- integer tables -------------------------------------------------------


class IntTable:
    """A multilinear map on basis tuples, as integer numerators over one denominator.

    ``entries`` maps a basis-index tuple to a sparse vector {output index:
    numerator}, and the map's value there is numerator / ``den``.  A linear
    map is a table of arity 1: entry ``(j,)`` is the image of e_j.  A map
    on the alternating pairs e_i ^ e_j, i < j, is a table of arity 2 whose
    output indices are pairs (see :func:`compose_slot`).  Numerators are
    Python ints; a :class:`FormTable` keeps its unknowns in the output
    indices instead.  An empty table is the zero map and is false.
    ``twists`` holds the twisted forms :func:`contract` makes of the table,
    keyed by what they are made from (see :class:`_Term`), and
    ``by_output`` the index :meth:`Contraction.join` reads it by when it is
    nested (:func:`_by_output`), so both live exactly as long as the table
    and neither keeps an algebra alive.
    """

    __slots__ = ("den", "entries", "twists", "by_output")

    def __init__(self, den: int, entries: dict):
        self.den = den
        self.entries = {key: vec for key, vec in entries.items() if vec}
        self.twists: dict = {}
        self.by_output: dict | None = None

    def __bool__(self) -> bool:
        return bool(self.entries)

    def fractions(self, dim: int) -> dict:
        """The values as dense Fraction vectors (a Cochain table)."""
        den = self.den
        return {
            key: tuple(Fraction(vec.get(k, 0), den) for k in range(dim))
            for key, vec in self.entries.items()
        }


class FormTable(IntTable):
    """A generic multilinear map: an integer table whose output indices are
    pairs (k, u), the numerator at (k, u) being the coefficient of the
    unknown u in output coordinate k.

    Its values are linear forms in the unknowns, with integer coefficients
    and no per-form objects.  The table operations above never read an
    output index, so they act on it as on any table, and :func:`contract`
    returns such forms from any term list that reads one.
    """

    __slots__ = ()


def int_table(table: dict) -> IntTable:
    """A table of dense value vectors of rationals, as integer numerators
    over the lcm of their denominators.  Each nonzero entry is read by
    :func:`hlya.exactlin.rat`: a string is its rational, and a float or a
    bool is a TypeError."""
    values = {key: [(k, rat(x)) for k, x in enumerate(vec) if x] for key, vec in table.items()}
    den = lcm(*(x.denominator for vec in values.values() for _, x in vec))
    return IntTable(
        den,
        {key: {k: x.numerator * (den // x.denominator) for k, x in vec if x} for key, vec in values.items()},
    )


def compose_slot(t: IntTable, slot: int, m: IntTable) -> IntTable:
    """t with the linear map m applied to the argument at ``slot``: t(.., m e_J, ..).

    m is a table of arity w whose entry J is the image of the basis
    element e_J, and the argument is the w slots from ``slot`` on.  For a
    linear map (w = 1) the image is {i: coefficient of e_i}; for a map on
    pairs (w = 2) it is {(i, j): coefficient of e_i ^ e_j}.
    """
    width = len(next(iter(m.entries), ()))
    rows: dict = {}  # I -> [(J, coefficient of e_I in m e_J)]
    for jkey, col in m.entries.items():
        for i, c in col.items():
            rows.setdefault((i,) if width == 1 else i, []).append((jkey, c))
    end = slot + width
    out: dict = {}
    summed = set()  # keys hit more than once, where terms may cancel
    for key, vec in t.entries.items():
        row = rows.get(key[slot:end])
        if row is None:
            continue
        head, tail = key[:slot], key[end:]
        for jkey, c in row:
            new = head + jkey + tail
            acc = out.get(new)
            if acc is None:
                out[new] = {k: c * x for k, x in vec.items()}
            else:
                summed.add(new)
                for k, x in vec.items():
                    acc[k] = acc.get(k, 0) + c * x
    for key in summed:
        out[key] = _pruned(out[key])
    return IntTable(t.den * m.den, out)


def compose_out(m: IntTable, t: IntTable) -> IntTable:
    """The linear map m applied to every value of t."""
    cols = m.entries
    out = {}
    for key, vec in t.entries.items():
        acc: dict = {}
        for k, x in vec.items():
            for i, c in cols.get((k,), {}).items():
                acc[i] = acc.get(i, 0) + c * x
        out[key] = _pruned(acc)
    return IntTable(m.den * t.den, out)


def table_sum(tables) -> IntTable:
    """The sum of tables, over the lcm of their denominators."""
    tables = list(tables)
    den = lcm(*(t.den for t in tables))
    out: dict = {}
    for t in tables:
        w = den // t.den
        for key, vec in t.entries.items():
            acc = out.setdefault(key, {})
            for k, x in vec.items():
                acc[k] = acc.get(k, 0) + w * x
    return IntTable(den, {key: _pruned(vec) for key, vec in out.items()})


def _canonical(t: IntTable) -> IntTable:
    """t without zero numerators, over the lcm of the reduced denominators
    of its values (t.den over its gcd with the numerators): equal maps have
    equal canonical tables."""
    g = gcd(t.den, *(x for vec in t.entries.values() for x in vec.values()))
    return IntTable(t.den // g, {key: {k: x // g for k, x in vec.items() if x} for key, vec in t.entries.items()})


def memoised(fn):
    """fn(a, *args), computed once per algebra object and kept in its memo.

    The value lives exactly as long as the algebra.  It is keyed by the
    function and the arguments in positional form; fn takes no defaults,
    so each argument list has one key.  Only a call with keywords reads
    fn's signature, so only it imports :mod:`inspect`.
    """

    @wraps(fn)
    def cached(a, *args, **kwargs):
        if kwargs:
            import inspect

            args = inspect.signature(fn).bind(a, *args, **kwargs).args[1:]
        key = (fn, *args)
        try:
            return a._memo[key]
        except KeyError:
            value = a._memo[key] = fn(a, *args)
            return value

    return cached


@memoised
def brackets(a: Algebra) -> tuple[IntTable, IntTable]:
    """The base brackets as integer tables, the t^0 terms of every series."""
    pairs = itertools.product(range(a.dim), repeat=2)
    triples = itertools.product(range(a.dim), repeat=3)
    return (
        int_table({(i, j): a.binary[i][j] for i, j in pairs}),
        int_table({(i, j, k): a.ternary[i][j][k] for i, j, k in triples}),
    )


@memoised
def alpha_table(a: Algebra, k: int) -> IntTable:
    """alpha^k as a canonical integer table of arity 1 (:func:`_canonical`),
    for any k >= 0: alpha applied to every value of alpha^(k - 1)."""
    if k == 0:
        return IntTable(1, {(j,): {j: 1} for j in range(a.dim)})
    alpha = int_table({(j,): [row[j] for row in a.alpha] for j in range(a.dim)})
    return _canonical(compose_out(alpha, alpha_table(a, k - 1)))


def evaluate(t: IntTable, dim: int, args: Sequence[Sequence]) -> Vec:
    """The multilinear map t at the vectors ``args``, one per slot.

    Each vector is a linear map from a line, an integer table of arity 1,
    applied to its slot; the value is then the entry at (0, ..., 0)."""
    for slot, v in enumerate(args):
        t = compose_slot(t, slot, int_table({(0,): tuple(map(rat, v))}))
    return t.fractions(dim).get((0,) * len(args), zero_vec(dim))


# --- public evaluation ----------------------------------------------------


def _check_vecs(a: Algebra, *vecs: Sequence) -> tuple:
    for v in vecs:
        if len(v) != a.dim:
            raise DimMismatchError(f"vector of length {len(v)}, expected {a.dim}")
    return vecs


def eval_binary(a: Algebra, x: Sequence, y: Sequence) -> Vec:
    """[x, y] by bilinear contraction against the binary tensor."""
    return evaluate(brackets(a)[0], a.dim, _check_vecs(a, x, y))


def eval_ternary(a: Algebra, x: Sequence, y: Sequence, z: Sequence) -> Vec:
    """{x, y, z} by trilinear contraction against the ternary tensor."""
    return evaluate(brackets(a)[1], a.dim, _check_vecs(a, x, y, z))


# --- evaluating the identities ---------------------------------------------


def bracket_series(a: Algebra, f_higher=(), g_higher=()) -> tuple[tuple, tuple]:
    """The series f and g for :func:`identity_values`: the base brackets,
    then the given cochains as the coefficients of t, t^2, ..., each as the
    integer table it keeps (:attr:`hlya.cochain.Cochain.ints`), so the
    twists of a cochain are made once for as long as it lives."""
    f0, g0 = brackets(a)
    return (f0, *(c.ints for c in f_higher)), (g0, *(c.ints for c in g_higher))


def _getter(positions) -> Callable[[tuple], object]:
    """Reads a tuple at ``positions``; the same key for table and basis tuple."""
    return itemgetter(*positions) if positions else (lambda idx: ())


def _key_getter(positions) -> Callable[[tuple], tuple]:
    """Reads a tuple at ``positions`` as a table key: always a tuple, so a
    table of arity 1 is read at ``(j,)`` and not at ``j``."""
    if len(positions) == 1:
        (p,) = positions
        return lambda idx: (idx[p],)
    return _getter(positions)


def _is_identity(m: IntTable, dim: int) -> bool:
    return len(m.entries) == dim and all(col == {j: m.den} for (j,), col in m.entries.items())


def _twisted(t: IntTable, alphas: Sequence[IntTable | None], pos: int | None) -> tuple[int, dict]:
    """t with the linear map alphas[q] applied to argument q, unless it is
    None, and its denominator.

    Without a nested bracket (``pos`` None) the entries stay keyed by the
    argument tuple.  Otherwise they are grouped as {key of the other
    arguments: {index m of argument pos: value}}.
    """
    for q, m in enumerate(alphas):
        if m is not None:
            t = compose_slot(t, q, m)
    if pos is None:
        return t.den, t.entries
    key = _getter([q for q in range(len(alphas)) if q != pos])
    grouped: dict = {}
    for args, vec in t.entries.items():
        grouped.setdefault(key(args), {})[args[pos]] = vec
    return t.den, grouped


def _by_output(t: IntTable) -> dict:
    """t's entries grouped by output index, built once and kept on t:
    {m: [(key, numerator)]}, or {m: [(key, u, numerator)]} for a
    :class:`FormTable`, whose output indices are pairs (m, u)."""
    if t.by_output is None:
        rows: dict = {}
        if isinstance(t, FormTable):
            for key, vec in t.entries.items():
                for (m, u), c in vec.items():
                    rows.setdefault(m, []).append((key, u, c))
        else:
            for key, vec in t.entries.items():
                for m, c in vec.items():
                    rows.setdefault(m, []).append((key, c))
        t.by_output = rows
    return t.by_output


def _unjoinable(read: tuple) -> tuple:
    """The place of a term that does not read every slot exactly once."""
    raise ValueError("only a term that reads every slot exactly once can be joined")


def _placer(slots: list) -> Callable[[tuple], tuple] | None:
    """The map from the arguments a term reads, in the order ``slots``, to
    the basis tuple where its value lands: None when they come in slot
    order already, and :func:`_unjoinable` when no such tuple exists."""
    order = list(range(len(slots)))
    if sorted(slots) != order:
        return _unjoinable
    return None if slots == order else itemgetter(*map(slots.index, order))


class _Term(NamedTuple):
    """One signed term of :func:`contract`, analysed against an algebra.

    ``twist`` is the key of the outer table's twist: per argument the
    algebra's memoised alpha^p applied to it (:func:`alpha_table`), or None
    where alpha^p is the identity, and the nested position.  The tables
    compare by identity, so a twist is built once per algebra and holds no
    algebra.  ``key`` reads that twist's key off
    a basis tuple; ``inner`` names the nested table, if any, and
    ``inner_key`` reads its key.  ``place`` lays the twist's key (as a
    tuple) followed by the nested key out as the basis tuple, for
    :meth:`Contraction.join` (see :func:`_placer`)."""

    sign: int
    outer: object
    twist: tuple
    key: Callable[[tuple], object]
    inner: object
    inner_key: Callable[[tuple], tuple] | None
    place: Callable[[tuple], tuple] | None


@memoised
def _analysed(a: Algebra, terms: tuple) -> tuple[_Term, ...]:
    """The terms of :func:`contract` with everything that depends on the
    algebra alone worked out, once per algebra and term list: a power p
    with alpha^p the identity is not applied, and each term gets its twist
    key, its getters and its layout."""
    effective: dict = {}  # p -> alpha_table(a, p), or None when alpha^p is the identity
    analysed = []
    for sign, outer, args in terms:
        pos = inner = None
        alphas, plain = [], []
        for m, arg in enumerate(args):
            p = arg[0]
            if isinstance(p, int):
                if p not in effective:
                    effective[p] = None if p == 0 or _is_identity(alpha_table(a, p), a.dim) else alpha_table(a, p)
                alphas.append(effective[p])
                plain.append(arg[1])
            else:
                pos, inner = m, p
                alphas.append(None)
        twist = (tuple(alphas), pos)
        if inner is None:
            term = _Term(sign, outer, twist, _key_getter(plain), None, None, _placer(plain))
        else:
            nested = args[pos][1:]
            term = _Term(sign, outer, twist, _getter(plain), inner, _key_getter(nested), _placer(plain + list(nested)))
        analysed.append(term)
    return tuple(analysed)


def contract(a: Algebra, tables: dict, terms) -> Contraction:
    """A signed sum of table contractions in integers, bound to ``tables``.

    ``terms`` are (sign, outer, args) in the language of :data:`IDENTITIES`:
    ``outer`` names a table of ``tables`` (an :class:`IntTable` each), an
    argument (p, s) is alpha^p(x_s), and at most one argument per term is
    a nested table on plain slot variables, (name, s, t, ...).  A name that
    ``tables`` lacks, or maps to an empty table, is the zero map: its terms
    are dropped.  A power p with alpha^p the identity is not applied.
    Each twist of an outer table is kept in its ``twists``, keyed by the
    alpha tables it applies and the nested position (:class:`_Term`), for
    every later contraction of that table.  L, the contraction's ``den``,
    is the lcm of the terms' denominators and each term carries the
    integer weight sign * L / denominator, so the contraction's values are
    L times the sum at each 0-based basis tuple, as sparse vectors with
    zeros dropped.  Callers that keep the values keep them over L, as
    the rows of a matrix (assembly, derivations) or an :class:`IntTable`;
    a caller that only asks which values vanish, like the
    well-definedness audit, reads the numerators alone.

    The values are read in one of two orders (:class:`Contraction`).  The
    scans of representative tuples (:func:`first_failure`, the quadratic
    parts of the deformation equations, the obstruction, assembly,
    derivations) probe one tuple at a time, since
    they read a few of the d^n tuples or stop at the first nonzero value.
    The readers of every basis tuple (the audit, ``apply_operator``,
    :func:`from_lya_standard`) join: the probe would visit every term at
    every tuple, mostly to find an empty entry of a sparse table, and the
    join visits only the nonzero products.

    When a table is a :class:`FormTable`, the values are linear forms: the
    output indices become (k, u).  As an outer table its output indices
    pass through unchanged; as a nested table its output index (m, u) is
    split, m read by the outer table and u carried to the output.  Those
    terms are set apart when the tables are bound, and summed after the
    others: a term list without a nested FormTable runs the integer loop
    alone.

    The terms are analysed against the algebra once per term list
    (:func:`_analysed`), then bound to the tables (:func:`_bound`); the
    identities keep their analysis in the algebra's memo as plans
    (:func:`_plan`).
    """
    return _bound(tables, _analysed(a, tuple(terms)))


class Contraction:
    """Analysed terms bound to their tables (:func:`_bound`): each term
    with its integer weight, over the common denominator ``den``, L.  The
    two read orders of :func:`contract` run over the same bound terms and
    differ only in the final loop."""

    __slots__ = ("den", "_terms", "_split")

    def __init__(self, den: int, terms: list, split: list):
        self.den = den
        # (weight, key, twisted table, nested key, nested entries, layout),
        # the layout being (place, nested IntTable, one plain argument)
        self._terms = terms
        self._split = split  # the terms whose nested table is a FormTable

    def probe(self) -> Callable[[tuple], dict]:
        """The numerators at one 0-based basis tuple, zeros dropped."""
        compiled, split = self._terms, self._split

        def value(idx: tuple) -> dict:
            acc: dict = {}
            get = acc.get
            for w, key, table, inner_key, inner, _ in compiled:
                if inner is None:
                    vec = table.get(key(idx))
                    if vec:
                        for j, x in vec.items():
                            acc[j] = get(j, 0) + w * x
                    continue
                iv = inner.get(inner_key(idx))
                if not iv:
                    continue
                outer = table.get(key(idx))
                if not outer:
                    continue
                for m, c in iv.items():
                    vec = outer.get(m)
                    if vec:
                        wc = w * c
                        for j, x in vec.items():
                            acc[j] = get(j, 0) + wc * x
            return _pruned(acc)

        if not split:
            return value

        def form_value(idx: tuple) -> dict:
            acc = value(idx)
            get = acc.get
            for w, key, table, inner_key, inner, _ in split:
                iv = inner.get(inner_key(idx))
                if not iv:
                    continue
                outer = table.get(key(idx))
                if not outer:
                    continue
                for (m, u), c in iv.items():
                    vec = outer.get(m)
                    if vec:
                        wc = w * c
                        for j, x in vec.items():
                            acc[j, u] = get((j, u), 0) + wc * x
            return _pruned(acc)

        return form_value

    def join(self) -> dict:
        """The numerators at every basis tuple where they are not all zero:
        {0-based tuple: sparse vector}.

        A term without a nested table adds each entry of its twisted table
        where it lands.  A nested term pairs each entry {m: vector} of its
        twisted outer table with the entries of the nested table whose
        output index is m (:func:`_by_output`), and adds the product where
        the pair lands.  ValueError for a term that does not read every
        slot exactly once: its value has no one tuple to land at.
        """
        out: dict = {}
        get = out.get
        for w, _, table, _, _, (place, inner, single) in self._terms + self._split:
            if inner is None:
                for read, vec in table.items():
                    idx = read if place is None else place(read)
                    acc = get(idx)
                    if acc is None:
                        out[idx] = {j: w * x for j, x in vec.items()}
                    else:
                        for j, x in vec.items():
                            acc[j] = acc.get(j, 0) + w * x
                continue
            rows = _by_output(inner)
            forms = isinstance(inner, FormTable)
            for okey, group in table.items():
                head = (okey,) if single else okey  # one plain argument's key is no tuple
                for m, vec in group.items():
                    pairs = rows.get(m)
                    if pairs is None:
                        continue
                    if forms:
                        for key, u, c in pairs:
                            read = head + key
                            idx = read if place is None else place(read)
                            acc = get(idx)
                            wc = w * c
                            if acc is None:
                                out[idx] = {(j, u): wc * x for j, x in vec.items()}
                            else:
                                for j, x in vec.items():
                                    acc[j, u] = acc.get((j, u), 0) + wc * x
                        continue
                    for key, c in pairs:
                        read = head + key
                        idx = read if place is None else place(read)
                        acc = get(idx)
                        wc = w * c
                        if acc is None:
                            out[idx] = {j: wc * x for j, x in vec.items()}
                        else:
                            for j, x in vec.items():
                                acc[j] = acc.get(j, 0) + wc * x
        for idx, acc in out.items():
            if 0 in acc.values():
                out[idx] = _pruned(acc)
        return {idx: acc for idx, acc in out.items() if acc}


def _bound(tables: dict, analysed: Sequence[_Term]) -> Contraction:
    """The analysed terms of :func:`contract` bound to ``tables``: each
    outer table's twist, made once and kept on the table, and the weights.
    Both read orders share this binding: the scans probe the weighted
    terms, the readers of every tuple join them (:class:`Contraction`)."""
    compiled = []
    split = []  # the terms whose nested table is a FormTable
    for sign, outer, twist, key, inner_name, inner_key, place in analysed:
        source = tables.get(outer)
        if not source:
            continue
        inner = None
        if inner_name is not None:
            inner = tables.get(inner_name)
            if not inner:
                continue
        entry = source.twists.get(twist)
        if entry is None:
            entry = source.twists[twist] = _twisted(source, *twist)
        den, table = entry
        if inner is None:
            compiled.append((sign, den, key, table, None, None, (place, None, False)))
        else:
            layout = (place, inner, len(twist[0]) == 2)
            term = (sign, den * inner.den, key, table, inner_key, inner.entries, layout)
            (split if isinstance(inner, FormTable) else compiled).append(term)
    common = lcm(*(term[1] for term in compiled + split))
    compiled, split = (
        [(sign * (common // den), *rest) for sign, den, *rest in part] for part in (compiled, split)
    )
    return Contraction(common, compiled, split)


class _Plan(NamedTuple):
    """Identity k at order n on one algebra, before any series is bound:
    its analysed terms and the basis tuples :func:`first_failure` scans."""

    terms: tuple[_Term, ...]
    scan: tuple[tuple, ...]


@memoised
def _plan(a: Algebra, k: int, n: int) -> _Plan:
    """The plan of the t^n coefficient of identity k, kept in a's memo.

    The identity's terms are analysed once, and a term with a nested
    bracket becomes the convolution sum over i + j = n of
    outer_i(..., inner_j(...), ...), one term per pair on the tables named
    ("f", i) and ("g", i), all sharing that analysis.  The scan is the
    tuples increasing inside the identity's leading block, if it has one,
    and otherwise inside each of its alternating pairs (:func:`rep_tuples`),
    in lexicographic order; it does not depend on n, so every order reads
    that of order 0.
    """
    identity = IDENTITIES[k]
    terms = []
    for term in _analysed(a, identity.terms):
        if term.inner is None:
            terms.append(term._replace(outer=(term.outer, n)))
        else:
            terms.extend(term._replace(outer=(term.outer, i), inner=(term.inner, n - i)) for i in range(n + 1))
    if n:
        scan = _plan(a, k, 0).scan
    elif identity.block:
        tails = list(itertools.product(range(a.dim), repeat=identity.arity - identity.block))
        scan = tuple(head + tail for head in itertools.combinations(range(a.dim), identity.block) for tail in tails)
    else:
        scan = rep_tuples(a.dim, identity.arity, identity.pairs)
    return _Plan(tuple(terms), scan)


def identity_values(a: Algebra, k: int, n: int, fs, gs) -> Contraction:
    """The t^n coefficient of identity k in integers, as a :class:`Contraction`.

    ``fs[i]`` and ``gs[i]`` are the t^i coefficients of f and g as
    :class:`IntTable` (see :func:`bracket_series`), named ("f", i) and
    ("g", i) for :func:`contract`; empty ones contribute nothing.  The
    terms are analysed once per algebra, identity and order (:func:`_plan`),
    and each table is twisted once for all identities and orders.
    """
    series = {"f": fs, "g": gs, "alpha": (alpha_table(a, 1),)}
    tables = {(name, i): t for name, ts in series.items() for i, t in enumerate(ts)}
    return _bound(tables, _plan(a, k, n).terms)


def rep_tuples(dim: int, arity: int, pairs: int) -> tuple[tuple, ...]:
    """The basis tuples (0-based) that increase strictly inside each of the
    first ``pairs`` slot pairs (0, 1), (2, 3), ..., in lexicographic order."""
    pair = list(itertools.combinations(range(dim), 2))
    single = [(i,) for i in range(dim)]
    out = [()]
    for block in [pair] * pairs + [single] * (arity - 2 * pairs):
        out = [head + tail for head in out for tail in block]
    return tuple(out)


def first_failure(a: Algebra, k: int, n: int, fs, gs) -> tuple | None:
    """First basis tuple (1-based, lexicographic order) at which the t^n
    coefficient of identity k is nonzero; None when it vanishes throughout.

    Only the scan tuples of the identity's plan are evaluated (:func:`_plan`).
    That is exact when every f_i is alternating and every g_i alternating
    in its leading pair.  At a tuple with equal arguments in an alternating
    pair the value is its own negative, so 0, and swapping a decreasing
    pair gives a lexicographically smaller tuple with the negated value, so
    the first failing tuple increases inside every pair.  Identities 5 and 6
    are alternating in their leading block (x, y, z) (see :data:`IDENTITIES`):
    the value vanishes where two of x, y, z are equal, and sorting them
    gives a tuple no larger with the same value up to sign, so the first
    failing tuple has x < y < z.  On an algebra of dimension 2 there is no
    such tuple, and no contraction is built.
    """
    scan = _plan(a, k, n).scan
    if scan:
        value = identity_values(a, k, n, fs, gs).probe()
        for idx in scan:
            if value(idx):
                return tuple(i + 1 for i in idx)
    return None


# --- axiom checking -------------------------------------------------------


class AxiomReport(NamedTuple):
    """Pass flags per axiom id plus the first counterexample tuple (1-based)."""

    passed: dict
    counterexamples: dict

    @property
    def all_passed(self) -> bool:
        return all(self.passed.values())

    def failing(self) -> list[int]:
        return [k for k in AXIOM_IDS if not self.passed[k]]


@memoised
def _axiom_witness(a: Algebra, k: int) -> tuple | None:
    """The first failing basis tuple of identity k at the base brackets, or
    None; evaluated once per algebra and kept in its memo, for
    :func:`make_algebra` (identities 3 and 4) and :func:`axiom_witnesses`."""
    return first_failure(a, k, 0, *bracket_series(a))


def axiom_witnesses(a: Algebra) -> dict:
    """{k: first failing basis tuple or None} of the eight identities at
    the base brackets, for k in :data:`AXIOM_IDS` order, read from the
    per-identity verdicts (:func:`_axiom_witness`): for :func:`check_axioms`
    and for the order-0 equations of every deformation over the algebra
    (:func:`hlya.deformation.verify_deformation`)."""
    return {k: _axiom_witness(a, k) for k in AXIOM_IDS}


def check_axioms(a: Algebra) -> AxiomReport:
    """Evaluate the eight defining identities on basis tuples.

    Multilinearity makes basis checks sufficient, and the brackets of an
    :class:`Algebra` are alternating (:func:`make_algebra`), so each
    identity is evaluated at the representative tuples of its pairs only
    (:func:`first_failure`), once per algebra (:func:`axiom_witnesses`).
    Failures are recorded, never raised.
    """
    witnesses = axiom_witnesses(a)
    counter = {k: w for k, w in witnesses.items() if w is not None}
    return AxiomReport({k: k not in counter for k in AXIOM_IDS}, counter)


# --- constructors ---------------------------------------------------------


def _verified(a: Algebra, failure: str, jacobi: bool = False) -> Algebra:
    """a, if it passes all eight identities; else AxiomError with ``failure``
    naming the failing ids, or NotHomLieError first if ``jacobi`` and 5 fails."""
    report = check_axioms(a)
    if report.all_passed:
        return a
    if jacobi and not report.passed[5]:
        raise NotHomLieError(f"twisted Jacobi identity fails at basis tuple {report.counterexamples[5]}")
    raise AxiomError(failure.format(report.failing()))


def from_lie_algebra(bracket, alpha, name="") -> Algebra:
    """A twisted Lie algebra viewed with zero ternary bracket.

    Raises NotHomLieError when the twisted Jacobi identity (axiom 5 with a
    vanishing ternary part) fails, AxiomError for any other failure.
    """
    dim = len(bracket)
    a = make_algebra(dim, bracket, _dense(dim, 3, {}), alpha, name)
    return _verified(a, "axioms {} fail", jacobi=True)


def from_lya_standard(bracket, name="") -> Algebra:
    """Untwisted algebra with {x y z} = [[x, y], z] derived from a Lie bracket."""
    dim = len(bracket)
    lie = make_algebra(dim, bracket, _dense(dim, 3, {}), Matrix.identity(dim).data)
    bracketed = contract(lie, {"br": brackets(lie)[0]}, ((1, "br", (("br", 0, 1), (0, 2))),))
    ternary = IntTable(bracketed.den, bracketed.join())
    a = make_algebra(dim, bracket, _dense(dim, 3, ternary.fractions(dim)), lie.alpha, name)
    return _verified(a, "input bracket is not Lie: axioms {} fail")


def is_endomorphism(a: Algebra, beta: Matrix) -> bool:
    """Does beta preserve both brackets: identities 1 and 2 with beta as alpha?"""
    if beta.rows != a.dim or beta.cols != a.dim:
        raise DimMismatchError("the map must be dim x dim")
    b = Algebra(a.dim, a.binary, a.ternary, tuple(map(tuple, beta.data)))
    return all(first_failure(b, k, 0, *bracket_series(b)) is None for k in (1, 2))


def yau_twist(a: Algebra, morphism: Matrix, name="") -> Algebra:
    """Candidate twist [x,y]' = beta[x,y], {xyz}' = beta^2{xyz}, alpha' = beta.

    The base must be untwisted (alpha = id), pass the axioms, and have
    beta as an endomorphism; beta acts on the values of its integer tables
    (:func:`brackets`).  No correctness claim beyond the axiom checker:
    AxiomError is a normal outcome for morphisms whose twist fails the
    identities, and names the base when the base fails them.
    """
    d = a.dim
    if not _is_identity(alpha_table(a, 1), d):
        raise NotMorphismError("yau_twist requires an untwisted base (alpha = id)")
    _verified(a, "the base algebra fails axioms {}")
    if not is_endomorphism(a, morphism):
        raise NotMorphismError("the given map does not preserve the brackets")
    beta = int_table({(j,): morphism.column(j) for j in range(d)})
    binary, ternary = brackets(a)
    binary, ternary = compose_out(beta, binary), compose_out(beta, compose_out(beta, ternary))
    tensors = (_dense(d, 2, binary.fractions(d)), _dense(d, 3, ternary.fractions(d)))
    twisted = make_algebra(d, *tensors, morphism.data, name or (a.name + "_twisted"))
    return _verified(twisted, "twisted structure fails axioms {}")
