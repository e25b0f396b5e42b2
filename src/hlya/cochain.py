"""Cochain spaces: multilinear maps L^n -> L with the two side conditions.

An n-cochain vanishes whenever the arguments of an adjacent odd-even slot
pair coincide (over Q this is equivalent to antisymmetry in that pair) and
commutes slotwise with the twist map alpha.  The space is realized as the
kernel of an exact linear constraint system.

Internally a cochain is a sparse table mapping basis-index tuples to value
vectors, and the space works in *reduced* coordinates indexed by
representative tuples (strictly increasing inside each pair slot); the
pair-antisymmetry is thereby built in and only the alpha-equivariance
remains as constraint rows.  Only this module knows that layout; formulas
use a space's generic cochain, image vectors and defect forms.  A cochain
is immutable, table and attributes alike, so it is shared freely.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Sequence

from .algebra import Algebra, FormTable, Vec, evaluate, int_table, memoised, rep_tuples, zero_vec
from .errors import ArityError, DimMismatchError, NotACochainError
from .exactlin import ONE, ZERO, Matrix, eliminate, null_vectors, rat

MAX_ARITY = 7


class Cochain:
    """Sparse multilinear map L^n -> L; table maps index tuples to values.

    The table is a read-only view of the nonzero values, as tuples, and no
    attribute can be set or deleted after ``__init__``."""

    __slots__ = ("arity", "dim", "table")

    def __init__(self, arity: int, dim: int, table: dict):
        init = super().__setattr__
        init("arity", arity)
        init("dim", dim)
        init("table", MappingProxyType({idx: tuple(vec) for idx, vec in table.items() if any(vec)}))

    def _immutable(self, name: str, *value):
        raise AttributeError(f"cannot change {name!r}: a Cochain is immutable")

    __setattr__ = __delattr__ = _immutable

    @classmethod
    def zero(cls, arity: int, dim: int) -> "Cochain":
        return cls(arity, dim, {})

    def is_zero(self) -> bool:
        return not self.table

    def value(self, idx: tuple) -> Vec:
        return self.table.get(idx, zero_vec(self.dim))

    def eval(self, args: Sequence[Sequence]) -> Vec:
        """Multilinear contraction against dense argument vectors."""
        if len(args) != self.arity:
            raise DimMismatchError(f"expected {self.arity} arguments, got {len(args)}")
        for a in args:
            if len(a) != self.dim:
                raise DimMismatchError("argument vector of wrong length")
        return evaluate(int_table(self.table), self.dim, args)

    def scale(self, c: Fraction) -> "Cochain":
        c = rat(c)
        return Cochain(
            self.arity, self.dim, {idx: tuple(c * x for x in vec) for idx, vec in self.table.items()}
        )

    def add(self, other: "Cochain") -> "Cochain":
        if (self.arity, self.dim) != (other.arity, other.dim):
            raise DimMismatchError("cochain shapes disagree")
        table = {idx: list(vec) for idx, vec in self.table.items()}
        for idx, vec in other.table.items():
            if idx in table:
                table[idx] = [a + b for a, b in zip(table[idx], vec)]
            else:
                table[idx] = list(vec)
        return Cochain(self.arity, self.dim, table)

    def sub(self, other: "Cochain") -> "Cochain":
        return self.add(other.scale(Fraction(-1)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain)
            and self.arity == other.arity
            and self.dim == other.dim
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.arity, self.dim, tuple(sorted(self.table.items()))))

    def __repr__(self) -> str:
        return f"Cochain(arity={self.arity}, dim={self.dim}, nnz={len(self.table)})"


def _canonicalize(idx: tuple, pairs: int) -> tuple[tuple, int]:
    """Sort each adjacent odd-even pair; sign 0 marks a diagonal pair."""
    lst = list(idx)
    sign = 1
    for p in range(pairs):
        a, b = lst[2 * p], lst[2 * p + 1]
        if a == b:
            return idx, 0
        if a > b:
            lst[2 * p], lst[2 * p + 1] = b, a
            sign = -sign
    return tuple(lst), sign


_MESSAGES = {
    "diagonal": "nonzero value at diagonal-pair tuple {}",
    "pair-antisymmetry": "pair-antisymmetry violated at tuple {}",
    "equivariance": "map violates the alpha-equivariance condition at tuple {}",
}


def _violation(kind: str, idx: tuple, prefix: str = "", **witness) -> NotACochainError:
    """NotACochainError of one ``kind`` at the 0-based tuple ``idx``; the
    message names the tuple 1-based, after ``prefix``."""
    tup = tuple(i + 1 for i in idx)
    return NotACochainError(prefix + _MESSAGES[kind].format(tup), kind=kind, basis_tuple=tup, **witness)


class CochainSpace:
    """The space of n-cochains of one algebra, with an explicit basis.

    The equivariance rows are reduced by :func:`hlya.exactlin.eliminate`;
    the basis is the kernel basis of :func:`hlya.exactlin.null_vectors`,
    so the coordinates of a cochain are its reduced entries at the free
    columns.
    """

    def __init__(self, algebra: Algebra, arity: int, pairs: int | None = None):
        if not 1 <= arity <= MAX_ARITY:
            raise ArityError(f"arity must be between 1 and {MAX_ARITY}, got {arity}")
        self.algebra = algebra
        self.arity = arity
        d = algebra.dim
        if pairs is None:
            pairs = arity // 2
        if not 0 <= pairs <= arity // 2:
            raise ArityError(f"pair count must lie in 0..{arity // 2}")
        self.pairs = pairs
        self.rep_tuples = rep_tuples(d, arity, pairs)
        self.rep_index = {idx: pos for pos, idx in enumerate(self.rep_tuples)}
        self.reduced_dim = len(self.rep_tuples) * d
        self._pivots, reduced = eliminate(self._equivariance_rows())
        self._free, self._basis_cols = null_vectors(self._pivots, reduced, self.reduced_dim)

    # reduced coordinate layout: (rep position, output index) -> pos * d + k

    @property
    def dim(self) -> int:
        return len(self._free)

    def _equivariance_rows(self):
        """alpha o f(T) - f(alpha e_{t_1}, ..., alpha e_{t_n}) = 0 rowwise.

        Representative tuples suffice: the constraint at a swapped or
        diagonal tuple is a signed copy of (or implied by) the one at the
        representative, because both sides are antisymmetric per pair.
        """
        a = self.algebra
        d = a.dim
        acols = [{r: a.alpha[r][i] for r in range(d) if a.alpha[r][i]} for i in range(d)]
        rows = []
        for pos, idx in enumerate(self.rep_tuples):
            combos: dict[tuple, Fraction] = {}
            for combo in itertools.product(*(acols[i].items() for i in idx)):
                jdx = tuple(c[0] for c in combo)
                w = ONE
                for c in combo:
                    w *= c[1]
                can, sign = _canonicalize(jdx, self.pairs)
                if sign == 0:
                    continue
                key = can
                v = combos.get(key, ZERO) + sign * w
                if v:
                    combos[key] = v
                else:
                    combos.pop(key, None)
            for out in range(d):
                row: dict[int, Fraction] = {}
                # alpha applied to the value vector: row indices of alpha
                for k in range(d):
                    c = a.alpha[out][k]
                    if c:
                        row[pos * d + k] = row.get(pos * d + k, ZERO) + c
                for can, w in combos.items():
                    col = self.rep_index[can] * d + out
                    v = row.get(col, ZERO) - w
                    if v:
                        row[col] = v
                    else:
                        row.pop(col, None)
                if row:
                    rows.append(row)
        return rows

    # --- conversions ------------------------------------------------------

    @cached_property
    def _orbits(self) -> list:
        """Per representative tuple, its pair-swapped variants and their signs."""
        orbits = []
        for idx in self.rep_tuples:
            variants = []
            for swaps in itertools.product((False, True), repeat=self.pairs):
                lst = list(idx)
                sign = 1
                for p, do_swap in enumerate(swaps):
                    if do_swap:
                        lst[2 * p], lst[2 * p + 1] = lst[2 * p + 1], lst[2 * p]
                        sign = -sign
                variants.append((tuple(lst), sign))
            orbits.append(variants)
        return orbits

    def _from_sparse(self, reduced: dict) -> Cochain:
        """The cochain of sparse reduced coordinates {position: value}."""
        d = self.algebra.dim
        values: dict[int, list] = {}
        for i, x in reduced.items():
            pos, k = divmod(i, d)
            values.setdefault(pos, [ZERO] * d)[k] = x
        orbits = self._orbits
        table = {}
        for pos in sorted(values):
            value = tuple(values[pos])
            for tup, sign in orbits[pos]:
                table[tup] = value if sign == 1 else tuple(-x for x in value)
        return Cochain(self.arity, d, table)

    def _reduce(self, table: dict) -> dict:
        """Reduced coordinates of a full tabulation over all basis tuples, as
        a sparse vector {position: nonzero value}.

        Verifies the diagonal/antisymmetry condition on every tuple and
        raises NotACochainError on violation; a key that is no basis tuple
        of this arity raises ArityError.  Every tuple in the orbit of a
        nonzero representative value must carry its signed copy: the
        matching copies are counted, and the count must fill every orbit.
        """
        d = self.algebra.dim
        index = self.rep_index
        reduced = {}
        nonzero = 0
        for idx, vec in table.items():
            pos = index.get(idx)
            if pos is not None and any(vec):
                nonzero += 1
                for k, x in enumerate(vec):
                    if x:
                        reduced[pos * d + k] = rat(x)
        copies = 0
        for idx, vec in table.items():
            if idx in index or not any(vec):
                continue
            can, sign = _canonicalize(idx, self.pairs)
            if sign == 0:
                raise _violation("diagonal", idx)
            base = index.get(can)
            if base is None:
                raise ArityError(f"{idx} is not a basis tuple of {self.arity} indices below {d}")
            base *= d
            for k, x in enumerate(vec):
                y = reduced.get(base + k, ZERO)
                if x != (y if sign == 1 else -y):
                    raise _violation("pair-antisymmetry", idx)
            copies += 1
        if copies != nonzero * (2**self.pairs - 1):
            for pos in sorted({i // d for i in reduced}):
                for tup, _ in self._orbits[pos]:
                    if not any(table.get(tup, ())):
                        raise _violation("pair-antisymmetry", tup)
        return reduced

    def _coords(self, reduced: dict) -> dict:
        """Basis coordinates of sparse reduced coordinates {position: value};
        NotACochainError when they are outside the space.

        The coordinates are the entries at the free columns.  The vector is
        in the space iff the basis combination they give is the vector
        itself; that residual check doubles as the alpha-equivariance test.
        """
        free, cols = self._free, self._basis_cols
        coords, recon = {}, {}
        for i, x in reduced.items():
            j = bisect_left(free, i)
            if j < len(free) and free[j] == i:
                coords[j] = x
                for p, v in cols[j].items():
                    y = recon.get(p)
                    recon[p] = x * v if y is None else y + x * v
        for i, x in reduced.items():
            if recon.pop(i, ZERO) != x:
                raise self._equivariance_violation(i)
        for i, x in recon.items():
            if x:
                raise self._equivariance_violation(i)
        return coords

    def _equivariance_violation(self, i: int) -> NotACochainError:
        """The error for a failed residual at reduced coordinate ``i``."""
        return _violation("equivariance", self.rep_tuples[i // self.algebra.dim])

    def _dense(self, coords: dict) -> list:
        out = [ZERO] * self.dim
        for j, x in coords.items():
            out[j] = x
        return out

    def coords(self, cochain: Cochain) -> list:
        """Basis coordinates of a cochain of this arity and dimension."""
        if cochain.arity != self.arity:
            raise ArityError(f"a {cochain.arity}-cochain is not in the space of {self.arity}-cochains")
        if cochain.dim != self.algebra.dim:
            raise DimMismatchError(f"a cochain on dimension {cochain.dim}, expected {self.algebra.dim}")
        return self._dense(self._coords(self._reduce(cochain.table)))

    def cochain_from_table(self, table: dict) -> tuple[Cochain, list]:
        """Canonical cochain and basis coordinates of a raw tabulation."""
        reduced = self._reduce(table)
        return self._from_sparse(reduced), self._dense(self._coords(reduced))

    def _rep_reduced(self, values: dict) -> dict:
        """Sparse reduced coordinates of values at representative tuples."""
        d = self.algebra.dim
        index = self.rep_index
        return {index[idx] * d + k: x for idx, vec in values.items() for k, x in vec.items() if x}

    def from_rep_values(self, values: dict) -> Cochain:
        """The cochain with the given values at the representative tuples.

        ``values`` maps representative tuples to sparse vectors {output
        index: Fraction}; a tuple it lacks has value 0, and the values at
        the other tuples follow from pair antisymmetry.  Alpha-equivariance
        is not checked here: :meth:`coords` and :meth:`rep_coords` check it.
        """
        return self._from_sparse(self._rep_reduced(values))

    def rep_coords(self, values: dict) -> list:
        """Basis coordinates of :meth:`from_rep_values` of ``values``;
        NotACochainError when that map violates alpha-equivariance."""
        return self._dense(self._coords(self._rep_reduced(values)))

    def from_coords(self, coords: Sequence) -> Cochain:
        reduced: dict = {}
        for x, col in zip(coords, self._basis_cols):
            x = rat(x)
            if x:
                for i, v in col.items():
                    y = reduced.get(i)
                    reduced[i] = x * v if y is None else y + x * v
        return self._from_sparse(reduced)

    def contains(self, cochain: Cochain) -> bool:
        try:
            self.coords(cochain)
        except NotACochainError:
            return False
        return True

    @cached_property
    def basis_cochains(self) -> list:
        return [self._from_sparse(col) for col in self._basis_cols]

    # --- generic cochains and linear forms ----------------------------------

    def generic(self, offset: int = 0) -> tuple[FormTable, list]:
        """A generic cochain of this space and the basis over its unknowns.

        Reduced coordinate i is the unknown ``offset + i``.  The table is a
        :class:`FormTable`: at each tuple of an orbit it holds the unknown
        of every coordinate that some basis cochain uses, with the pair
        signs of :meth:`_from_sparse`; a space of dimension 0 gives the zero
        table.  The basis comes back as sparse vectors over the unknowns.
        """
        d = self.algebra.dim
        used = {i for col in self._basis_cols for i in col}
        entries = {}
        for pos, variants in enumerate(self._orbits):
            value = {(k, offset + i): 1 for k, i in enumerate(range(pos * d, pos * d + d)) if i in used}
            if value:
                negated = {key: -1 for key in value}
                for tup, sign in variants:
                    entries[tup] = value if sign == 1 else negated
        return FormTable(1, entries), [{offset + i: x for i, x in col.items()} for col in self._basis_cols]

    def images(self, fn, basis):
        """The sparse reduced image of each basis vector under fn, a map from
        tuples to linear forms {(output index, unknown): coefficient} on
        generic tables (:meth:`generic`); fn runs once per representative."""
        if not basis:
            return
        d = self.algebra.dim
        linear = {}  # unknown -> [(reduced coordinate, coefficient)]
        for pos, idx in enumerate(self.rep_tuples):
            base = pos * d
            for (k, u), c in fn(idx).items():
                linear.setdefault(u, []).append((base + k, c))
        for vec in basis:
            image = {}
            for u, x in vec.items():
                for i, c in linear.get(u, ()):
                    image[i] = image.get(i, 0) + x * c
            yield {i: y for i, y in image.items() if y}

    def defects(self, fn) -> list:
        """The linear defects of fn's values as a map into this space.

        fn, as for :meth:`images`, runs once at every basis tuple in
        lexicographic order, so each representative tuple comes before the
        rest of its orbit.  The defects are (kind, 0-based tuple, form), one
        per condition :meth:`_reduce` and :meth:`_coords` check on a table,
        the form a sparse linear map {(output index, unknown): coefficient};
        only the nonzero forms are returned:

        - "diagonal": the value at a tuple with equal arguments in a pair;
        - "pair-antisymmetry": value(idx) - sign * value(representative) at
          every other tuple, also where value(idx) is zero;
        - "equivariance": the residual of :meth:`_coords`, taken on the
          representative forms.  Kernel basis vector j has a 1 at free
          coordinate j and 0 at the others, so the residual vanishes at the
          free coordinates and is, at a pivot coordinate p, the form there
          minus the sum over j of col_j[p] times the form at free coordinate j.

        fn's values are cochains for every input exactly when each form
        vanishes on every domain basis vector.
        """
        d = self.algebra.dim
        index = self.rep_index
        reps, negated = {}, {}
        defects = []
        for idx in itertools.product(range(d), repeat=self.arity):
            value = fn(idx)
            if idx in index:
                reps[idx] = value
                continue
            can, sign = _canonicalize(idx, self.pairs)
            if sign == 0:
                if value:
                    defects.append(("diagonal", idx, value))
                continue
            rep = reps[can]
            if sign == -1:
                rep = negated.get(can)
                if rep is None:
                    rep = negated[can] = {key: -c for key, c in reps[can].items()}
            if value != rep:
                defect = dict(value)
                for key, c in rep.items():
                    defect[key] = defect.get(key, 0) - c
                defects.append(("pair-antisymmetry", idx, defect))
        rep_forms: dict = {}  # reduced coordinate -> {unknown: coefficient}
        for pos, idx in enumerate(self.rep_tuples):
            for (k, u), c in reps[idx].items():
                rep_forms.setdefault(pos * d + k, {})[u] = c
        free = set(self._free)
        residual = {p: dict(form) for p, form in rep_forms.items() if p not in free}
        for i, col in zip(self._free, self._basis_cols):
            form = rep_forms.get(i)
            if not form:
                continue
            for p, v in col.items():
                if p != i:
                    acc = residual.setdefault(p, {})
                    for u, c in form.items():
                        acc[u] = acc.get(u, 0) - v * c
        for p in sorted(residual):
            form = {(p % d, u): c for u, c in residual[p].items() if c}
            if form:
                defects.append(("equivariance", self.rep_tuples[p // d], form))
        return defects

    def __repr__(self) -> str:
        return f"CochainSpace(n={self.arity}, dim={self.dim}, algebra={self.algebra.name})"


def build_cochain_space(algebra: Algebra, arity: int, pairs: int | None = None) -> CochainSpace:
    """Cochain space; ``pairs`` limits how many leading adjacent pairs carry
    the alternating condition (default: all of them).  One space per
    (arity, pairs), kept on the algebra."""
    return _cochain_space(algebra, arity, arity // 2 if pairs is None else pairs)


@memoised
def _cochain_space(algebra: Algebra, arity: int, pairs: int) -> CochainSpace:
    return CochainSpace(algebra, arity, pairs)


def cochain_to_matrix(a: Algebra, h: Cochain) -> Matrix:
    """View a 1-cochain as the d x d matrix sending e_j to h(e_j)."""
    cols = [list(h.value((j,))) for j in range(a.dim)]
    return Matrix.from_columns(cols, rows=a.dim)


def matrix_to_cochain(a: Algebra, m: Matrix) -> Cochain:
    table = {(j,): tuple(m.column(j)) for j in range(a.dim)}
    return Cochain(1, a.dim, table)
