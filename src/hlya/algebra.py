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
twisted Leibniz rules, bracket and cochain evaluation at vectors and the
endomorphism test all read them.
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps
from math import lcm
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from .errors import AxiomError, DimMismatchError, NotHomLieError, NotMorphismError
from .exactlin import ZERO, Matrix, rat

Vec = tuple[Fraction, ...]
SVec = dict[int, Fraction]

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
    """One identity: its arity, its signed terms and its leading alternating
    pairs.  For any f alternating in its pair and g alternating in its
    leading pair, the value of every t^n coefficient changes sign when the
    arguments of slots (2p, 2p + 1), p < ``pairs``, are swapped."""

    arity: int
    terms: tuple
    pairs: int


IDENTITIES = {
    1: Identity(2, ((_P, "alpha", (("f", 0, 1),)), (_M, "f", ((1, 0), (1, 1)))), 1),
    2: Identity(3, ((_P, "alpha", (("g", 0, 1, 2),)), (_M, "g", ((1, 0), (1, 1), (1, 2)))), 1),
    3: Identity(2, ((_P, "f", ((0, 0), (0, 1))), (_P, "f", ((0, 1), (0, 0)))), 0),
    4: Identity(3, ((_P, "g", ((0, 0), (0, 1), (0, 2))), (_P, "g", ((0, 1), (0, 0), (0, 2)))), 0),
    5: Identity(3, _cyclic(((_P, "f", (("f", 0, 1), (1, 2))), (_P, "g", ((0, 0), (0, 1), (0, 2))))), 1),
    6: Identity(4, _cyclic(((_P, "g", (("f", 0, 1), (1, 2), (1, 3))),)), 1),
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


def to_dense(sv: SVec, dim: int) -> Vec:
    return tuple(sv.get(i, ZERO) for i in range(dim))


@dataclass(frozen=True)
class Algebra:
    """Immutable structure-constant data.  Use the constructors below."""

    dim: int
    binary: tuple  # binary[i][j] = coordinates of [e_i, e_j]
    ternary: tuple  # ternary[i][j][k] = coordinates of {e_i e_j e_k}
    alpha: tuple  # row-major matrix; alpha(e_j) = sum_i alpha[i][j] e_i
    name: str = field(default="", compare=False)
    # data derived from this algebra, filled by @memoised functions and by
    # the one-entry second-order slot of hlya.deformation
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def alpha_matrix(self) -> Matrix:
        return Matrix(self.alpha)

    def __hash__(self):
        # cached: the structure tensors are deeply nested Fraction tuples, and
        # algebras serve as dict and set keys
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.dim, self.binary, self.ternary, self.alpha))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        label = self.name or "?"
        return f"Algebra({label}, dim={self.dim})"


def make_algebra(dim, binary, ternary, alpha, name="") -> Algebra:
    """Build an Algebra from full tensors, enforcing the antisymmetry shape.

    Rejects tensors that fail [xx]=0 / {xxy}=0 antisymmetry outright rather
    than silently symmetrizing: those are identities 3 and 4, definitional,
    and AxiomError names the first basis tuple at which one fails.
    """
    b = tuple(tuple(_vec(binary[i][j]) for j in range(dim)) for i in range(dim))
    t = tuple(
        tuple(tuple(_vec(ternary[i][j][k]) for k in range(dim)) for j in range(dim))
        for i in range(dim)
    )
    a = tuple(_vec(alpha[i]) for i in range(dim))
    if len(a) != dim or any(len(row) != dim for row in a):
        raise DimMismatchError("alpha must be a dim x dim matrix")
    algebra = Algebra(dim, b, t, a, name)
    for k, what in ((3, "binary bracket"), (4, "ternary bracket in its first two arguments")):
        # no alternating pairs: every tuple is evaluated, diagonals included
        witness = first_failure(algebra, k, 0, *bracket_series(algebra))
        if witness is not None:
            raise AxiomError(f"the {what} is not alternating at basis tuple {witness}")
    return algebra


def algebra_from_sparse(dim, binary_entries, ternary_entries, alpha, name="") -> Algebra:
    """Build from sparse 0-based entries {(i, j): vec} with i < j (binary)
    and {(i, j, k): vec} with i < j (ternary); omitted entries are zero."""
    zero = [0] * dim
    b = [[list(zero) for _ in range(dim)] for _ in range(dim)]
    t = [[[list(zero) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    for (i, j), vec in binary_entries.items():
        if i >= j:
            raise AxiomError("binary entries must have i < j")
        b[i][j] = list(vec)
        b[j][i] = [-rat(x) for x in vec]
    for (i, j, k), vec in ternary_entries.items():
        if i >= j:
            raise AxiomError("ternary entries must have i < j")
        t[i][j][k] = list(vec)
        t[j][i][k] = [-rat(x) for x in vec]
    return make_algebra(dim, b, t, alpha, name)


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
    so they live exactly as long as the table.
    """

    __slots__ = ("den", "entries", "twists")

    def __init__(self, den: int, entries: dict):
        self.den = den
        self.entries = {key: vec for key, vec in entries.items() if vec}
        self.twists: dict = {}

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


def _pruned(vec: dict) -> dict:
    return {k: x for k, x in vec.items() if x}


def int_table(table: dict) -> IntTable:
    """A table of dense value vectors of rationals (Fractions or ints), as
    integer numerators over the lcm of their denominators."""
    den = 1
    for vec in table.values():
        for x in vec:
            if x:
                den = lcm(den, x.denominator)
    return IntTable(
        den,
        {
            key: {k: x.numerator * (den // x.denominator) for k, x in enumerate(vec) if x}
            for key, vec in table.items()
        },
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


def memoised(fn):
    """fn(a, *args), computed once per algebra object and kept in its memo.

    The value lives exactly as long as the algebra.  It is keyed by the
    function and the arguments in positional form; fn takes no defaults,
    so each argument list has one key.
    """

    @wraps(fn)
    def cached(a, *args, **kwargs):
        if kwargs:
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


def matrix_table(m: Matrix) -> IntTable:
    """m as an integer table of arity 1: entry (j,) is column j."""
    return int_table({(j,): m.column(j) for j in range(m.cols)})


@memoised
def alpha_table(a: Algebra, k: int) -> IntTable:
    """alpha^k as an integer table of arity 1, for any k >= 0."""
    power = Matrix.identity(a.dim)
    for _ in range(k):
        power = power.matmul(a.alpha_matrix())
    return matrix_table(power)


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
    then the given cochains as the coefficients of t, t^2, ..."""
    f0, g0 = brackets(a)
    fs = (f0, *(int_table(c.table) for c in f_higher))
    return fs, (g0, *(int_table(c.table) for c in g_higher))


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


def _twisted(a: Algebra, t: IntTable, powers: Sequence[int], pos: int | None) -> tuple[int, dict]:
    """t with alpha^powers[q] applied to argument q, and its denominator.

    Without a nested bracket (``pos`` None) the entries stay keyed by the
    argument tuple.  Otherwise they are grouped as {key of the other
    arguments: {index m of argument pos: value}}.
    """
    for q, p in enumerate(powers):
        if p:
            t = compose_slot(t, q, alpha_table(a, p))
    if pos is None:
        return t.den, t.entries
    key = _getter([q for q in range(len(powers)) if q != pos])
    grouped: dict = {}
    for args, vec in t.entries.items():
        grouped.setdefault(key(args), {})[args[pos]] = vec
    return t.den, grouped


def contract(a: Algebra, tables: dict, terms) -> tuple[Callable[[tuple], dict], int]:
    """A signed sum of table contractions in integers: (numerators, L).

    ``terms`` are (sign, outer, args) in the language of :data:`IDENTITIES`:
    ``outer`` names a table of ``tables`` (an :class:`IntTable` each), an
    argument (p, s) is alpha^p(x_s), and at most one argument per term is
    a nested table on plain slot variables, (name, s, t, ...).  A name that
    ``tables`` lacks, or maps to an empty table, is the zero map: its terms
    are dropped.  A power p with alpha^p the identity counts as 0.  Each
    twist of an outer table is kept in its ``twists``, keyed by (algebra,
    alpha powers, nested position), for every later contraction of that
    table.  L is the lcm of the terms' denominators and
    each term carries the integer weight sign * L / denominator, so
    ``numerators(idx)`` maps each output index to L times the sum at a
    0-based basis tuple, zeros dropped.  Callers that keep the values
    divide by L (:func:`divided`).

    When a table is a :class:`FormTable`, the values are linear forms: the
    output indices become (k, u).  As an outer table its output indices
    pass through unchanged; as a nested table its output index (m, u) is
    split, m read by the outer table and u carried to the output.  Those
    terms are set apart here, once, and summed after the others: a term
    list without a nested FormTable runs the integer loop alone.
    """
    effective: dict = {}  # p -> p, or 0 when alpha^p is the identity
    compiled = []
    split = []  # the terms whose nested table is a FormTable
    for sign, outer, args in terms:
        if not tables.get(outer):
            continue
        pos = inner = None
        powers, plain = [], []
        for m, arg in enumerate(args):
            p = arg[0]
            if isinstance(p, int):
                if p not in effective:
                    effective[p] = 0 if p == 0 or _is_identity(alpha_table(a, p), a.dim) else p
                powers.append(effective[p])
                plain.append(arg[1])
            else:
                pos, inner = m, tables.get(p)
                powers.append(0)
        if pos is not None and not inner:
            continue
        source, key = tables[outer], (a, tuple(powers), pos)
        entry = source.twists.get(key)
        if entry is None:
            entry = source.twists[key] = _twisted(a, source, powers, pos)
        den, table = entry
        if inner is None:
            compiled.append((sign, den, _key_getter(plain), table, None, None))
        else:
            inner_key = _key_getter(args[pos][1:])
            term = (sign, den * inner.den, _getter(plain), table, inner_key, inner.entries)
            (split if isinstance(inner, FormTable) else compiled).append(term)
    common = lcm(*(term[1] for term in compiled + split))
    compiled, split = (
        [(sign * (common // den), *rest) for sign, den, *rest in part] for part in (compiled, split)
    )

    def value(idx: tuple) -> dict:
        acc: dict = {}
        get = acc.get
        for w, key, table, inner_key, inner in compiled:
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
        return value, common

    def form_value(idx: tuple) -> dict:
        acc = value(idx)
        get = acc.get
        for w, key, table, inner_key, inner in split:
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

    return form_value, common


def identity_values(a: Algebra, k: int, n: int, fs, gs) -> tuple[Callable[[tuple], dict], int]:
    """The t^n coefficient of identity k in integers: (numerators, L).

    ``fs[i]`` and ``gs[i]`` are the t^i coefficients of f and g as
    :class:`IntTable` (see :func:`bracket_series`), named ("f", i) and
    ("g", i) for :func:`contract`; empty ones contribute nothing.  A term
    with a nested bracket becomes the convolution sum over i + j = n of
    outer_i(..., inner_j(...), ...), one contracted term per pair.  Each
    table is twisted once for all identities and orders (:func:`contract`).
    """
    series = {"f": fs, "g": gs, "alpha": (alpha_table(a, 1),)}
    tables = {(name, i): t for name, ts in series.items() for i, t in enumerate(ts)}
    terms = []
    for sign, outer, args in IDENTITIES[k].terms:
        for pos, arg in enumerate(args):
            if isinstance(arg[0], str):
                head, tail = args[:pos], args[pos + 1 :]
                terms.extend(
                    (sign, (outer, i), (*head, ((arg[0], n - i), *arg[1:]), *tail)) for i in range(n + 1)
                )
                break
        else:
            terms.append((sign, (outer, n), args))
    return contract(a, tables, terms)


def divided(value: Callable[[tuple], dict], den: int) -> Callable[[tuple], SVec]:
    """Exact values from kernel numerators: value(idx) / den.

    With den 1 the numerators are the values and come back unchanged, as
    Python ints."""
    if den == 1:
        return value
    inv = Fraction(1, den)
    return lambda idx: {j: x * inv for j, x in value(idx).items()}


def rep_tuples(dim: int, arity: int, pairs: int) -> list[tuple]:
    """The basis tuples (0-based) that increase strictly inside each of the
    first ``pairs`` slot pairs (0, 1), (2, 3), ..., in lexicographic order."""
    pair = list(itertools.combinations(range(dim), 2))
    single = [(i,) for i in range(dim)]
    out = [()]
    for block in [pair] * pairs + [single] * (arity - 2 * pairs):
        out = [head + tail for head in out for tail in block]
    return out


def first_failure(a: Algebra, k: int, n: int, fs, gs) -> tuple | None:
    """First basis tuple (1-based, lexicographic order) at which the t^n
    coefficient of identity k is nonzero; None when it vanishes throughout.

    Only the tuples of :func:`rep_tuples` for the identity's alternating
    pairs are evaluated.  That is exact when every f_i is alternating and
    every g_i alternating in its leading pair: at a tuple with equal
    arguments in such a pair the value is its own negative, so 0, and
    swapping a decreasing pair gives a lexicographically smaller tuple with
    the negated value.  So the first failing tuple increases inside every
    pair.
    """
    value, _ = identity_values(a, k, n, fs, gs)
    identity = IDENTITIES[k]
    for idx in rep_tuples(a.dim, identity.arity, identity.pairs):
        if value(idx):
            return tuple(i + 1 for i in idx)
    return None


# --- axiom checking -------------------------------------------------------


@dataclass(frozen=True)
class AxiomReport:
    """Pass flags per axiom id plus the first counterexample tuple (1-based)."""

    passed: dict
    counterexamples: dict

    @property
    def all_passed(self) -> bool:
        return all(self.passed.values())

    def failing(self) -> list[int]:
        return [k for k in AXIOM_IDS if not self.passed[k]]


def check_axioms(a: Algebra) -> AxiomReport:
    """Evaluate the eight defining identities on basis tuples.

    Multilinearity makes basis checks sufficient, and the brackets of an
    :class:`Algebra` are alternating (:func:`make_algebra`), so each
    identity is evaluated at the representative tuples of its pairs only
    (:func:`first_failure`).  Failures are recorded, never raised.
    """
    fs, gs = bracket_series(a)
    counter: dict = {}
    for k in AXIOM_IDS:
        witness = first_failure(a, k, 0, fs, gs)
        if witness is not None:
            counter[k] = witness
    return AxiomReport({k: k not in counter for k in AXIOM_IDS}, counter)


# --- constructors ---------------------------------------------------------


def _zero_ternary(dim: int):
    return [[[[0] * dim for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]


def from_lie_algebra(bracket, alpha, name="") -> Algebra:
    """A twisted Lie algebra viewed with zero ternary bracket.

    Raises NotHomLieError when the twisted Jacobi identity (axiom 5 with a
    vanishing ternary part) fails, AxiomError for any other failure.
    """
    dim = len(bracket)
    a = make_algebra(dim, bracket, _zero_ternary(dim), alpha, name)
    report = check_axioms(a)
    if report.all_passed:
        return a
    if not report.passed[5]:
        raise NotHomLieError(
            f"twisted Jacobi identity fails at basis tuple {report.counterexamples[5]}"
        )
    raise AxiomError(f"axioms {report.failing()} fail")


def from_lya_standard(bracket, name="") -> Algebra:
    """Untwisted algebra with {x y z} = [[x, y], z] derived from a Lie bracket."""
    dim = len(bracket)
    lie = make_algebra(dim, bracket, _zero_ternary(dim), [[int(i == j) for j in range(dim)] for i in range(dim)])
    value = divided(*contract(lie, {"br": brackets(lie)[0]}, ((1, "br", (("br", 0, 1), (0, 2))),)))
    t = [
        [[list(to_dense(value((i, j, k)), dim)) for k in range(dim)] for j in range(dim)]
        for i in range(dim)
    ]
    a = make_algebra(dim, bracket, t, lie.alpha, name)
    report = check_axioms(a)
    if not report.all_passed:
        raise AxiomError(
            f"input bracket is not Lie: axioms {report.failing()} fail"
        )
    return a


def is_endomorphism(a: Algebra, beta: Matrix) -> bool:
    """Does beta preserve both brackets: identities 1 and 2 with beta as alpha?"""
    if beta.rows != a.dim or beta.cols != a.dim:
        raise DimMismatchError("the map must be dim x dim")
    b = Algebra(a.dim, a.binary, a.ternary, tuple(map(tuple, beta.data)))
    return all(first_failure(b, k, 0, *bracket_series(b)) is None for k in (1, 2))


def yau_twist(a: Algebra, morphism: Matrix, name="") -> Algebra:
    """Candidate twist [x,y]' = beta[x,y], {xyz}' = beta^2{xyz}, alpha' = beta.

    The base must be untwisted (alpha = id) and beta an endomorphism of it.
    No correctness claim beyond the axiom checker: AxiomError is a normal
    outcome for morphisms whose twist fails the identities.
    """
    d = a.dim
    if a.alpha_matrix() != Matrix.identity(d):
        raise NotMorphismError("yau_twist requires an untwisted base (alpha = id)")
    if not is_endomorphism(a, morphism):
        raise NotMorphismError("the given map does not preserve the brackets")
    beta2 = morphism.matmul(morphism)
    b = [
        [list(morphism.apply(a.binary[i][j])) for j in range(d)]
        for i in range(d)
    ]
    t = [
        [
            [list(beta2.apply(a.ternary[i][j][k])) for k in range(d)]
            for j in range(d)
        ]
        for i in range(d)
    ]
    twisted = make_algebra(d, b, t, morphism.data, name or (a.name + "_twisted"))
    report = check_axioms(twisted)
    if not report.all_passed:
        raise AxiomError(f"twisted structure fails axioms {report.failing()}")
    return twisted
