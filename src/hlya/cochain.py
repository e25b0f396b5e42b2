"""Cochain spaces: multilinear maps L^n -> L with the two side conditions.

An n-cochain vanishes whenever the arguments of an adjacent odd-even slot
pair coincide (over Q this is equivalent to antisymmetry in that pair) and
commutes slotwise with the twist map alpha.  The space is realized as the
kernel of an exact linear constraint system.

Internally a cochain is a sparse table mapping basis-index tuples to value
vectors, and the space works in *reduced* coordinates indexed by
representative tuples (strictly increasing inside each pair slot); the
pair-antisymmetry is thereby built in and only the alpha-equivariance
remains as constraint rows.  The ambient d^(n+1) coordinate picture of the
full multilinear space is available through :meth:`CochainSpace.ambient_subspace`.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .algebra import Algebra, SVec, Vec, alpha_power_columns, to_dense, to_svec, zero_vec
from .errors import ArityError, DimMismatchError, NotACochainError
from .exactlin import ONE, ZERO, Subspace, eliminate, null_vectors, rat

MAX_ARITY = 7


class Cochain:
    """Sparse multilinear map L^n -> L; table maps index tuples to values."""

    __slots__ = ("arity", "dim", "table")

    def __init__(self, arity: int, dim: int, table: dict):
        self.arity = arity
        self.dim = dim
        self.table = {
            idx: tuple(vec)
            for idx, vec in table.items()
            if any(vec)
        }

    @classmethod
    def zero(cls, arity: int, dim: int) -> "Cochain":
        return cls(arity, dim, {})

    def is_zero(self) -> bool:
        return not self.table

    def value(self, idx: tuple) -> Vec:
        return self.table.get(idx, zero_vec(self.dim))

    def eval_sv(self, args: Sequence[SVec]) -> SVec:
        """Multilinear contraction against sparse argument vectors."""
        if len(args) != self.arity:
            raise DimMismatchError(f"expected {self.arity} arguments, got {len(args)}")
        acc: SVec = {}
        for combo in itertools.product(*(a.items() for a in args)):
            vec = self.table.get(tuple(c[0] for c in combo))
            if vec is None:
                continue
            w = ONE
            for c in combo:
                w *= c[1]
            for k, x in enumerate(vec):
                if x:
                    v = acc.get(k, ZERO) + w * x
                    if v:
                        acc[k] = v
                    else:
                        del acc[k]
        return acc

    def eval(self, args: Sequence[Sequence]) -> Vec:
        for a in args:
            if len(a) != self.dim:
                raise DimMismatchError("argument vector of wrong length")
        return to_dense(self.eval_sv([to_svec(a) for a in args]), self.dim)

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
        self.rep_tuples = [
            idx
            for idx in itertools.product(range(d), repeat=arity)
            if all(idx[2 * p] < idx[2 * p + 1] for p in range(self.pairs))
        ]
        self.rep_index = {idx: pos for pos, idx in enumerate(self.rep_tuples)}
        self.reduced_dim = len(self.rep_tuples) * d
        self._pivots, reduced = eliminate(self._equivariance_rows())
        self._free, self._basis_cols = null_vectors(self._pivots, reduced, self.reduced_dim)
        self._orbits = None
        self._basis_cochains = None
        self._ambient = None

    # reduced coordinate layout: (rep position, output index) -> pos * d + k

    @property
    def dim(self) -> int:
        return len(self._free)

    @property
    def ambient_dim(self) -> int:
        return self.algebra.dim ** (self.arity + 1)

    def _equivariance_rows(self):
        """alpha o f(T) - f(alpha e_{t_1}, ..., alpha e_{t_n}) = 0 rowwise.

        Representative tuples suffice: the constraint at a swapped or
        diagonal tuple is a signed copy of (or implied by) the one at the
        representative, because both sides are antisymmetric per pair.
        """
        a = self.algebra
        d = a.dim
        acols = alpha_power_columns(a, 1)
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

    def _pair_orbits(self):
        if self._orbits is None:
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
            self._orbits = orbits
        return self._orbits

    def from_reduced(self, vec: Sequence) -> Cochain:
        return self._from_sparse({i: rat(x) for i, x in enumerate(vec) if x})

    def _from_sparse(self, reduced: dict) -> Cochain:
        """The cochain of sparse reduced coordinates {position: value}."""
        d = self.algebra.dim
        values: dict[int, list] = {}
        for i, x in reduced.items():
            pos, k = divmod(i, d)
            values.setdefault(pos, [ZERO] * d)[k] = x
        orbits = self._pair_orbits()
        table = {}
        for pos in sorted(values):
            value = tuple(values[pos])
            for tup, sign in orbits[pos]:
                table[tup] = value if sign == 1 else tuple(-x for x in value)
        return Cochain(self.arity, d, table)

    def reduce_table(self, table: dict, check_pairs: bool = True) -> list:
        """Reduced coordinates of a full tabulation over all basis tuples.

        With check_pairs, verifies the diagonal/antisymmetry condition on
        every tuple and raises NotACochainError on violation.
        """
        reduced = [ZERO] * self.reduced_dim
        for i, x in self._reduce(table, check_pairs).items():
            reduced[i] = x
        return reduced

    def _reduce(self, table: dict, check_pairs: bool = True) -> dict:
        """:meth:`reduce_table` as a sparse vector {position: nonzero value}."""
        d = self.algebra.dim
        index = self.rep_index
        reduced = {}
        for idx, vec in table.items():
            pos = index.get(idx)
            if pos is not None:
                for k, x in enumerate(vec):
                    if x:
                        reduced[pos * d + k] = rat(x)
        if check_pairs:
            for idx, vec in table.items():
                if idx in index or not any(vec):
                    continue
                can, sign = _canonicalize(idx, self.pairs)
                if sign == 0:
                    raise NotACochainError(
                        f"nonzero value at diagonal-pair tuple {tuple(i + 1 for i in idx)}"
                    )
                base = index[can] * d
                for k, x in enumerate(vec):
                    y = reduced.get(base + k, ZERO)
                    if x != (y if sign == 1 else -y):
                        raise NotACochainError(
                            f"pair-antisymmetry violated at tuple {tuple(i + 1 for i in idx)}"
                        )
        return reduced

    def to_reduced(self, cochain: Cochain) -> list:
        return self.reduce_table(cochain.table, check_pairs=True)

    def coords_from_reduced(self, reduced: Sequence) -> list:
        """Coordinates w.r.t. the basis; raises when outside the span."""
        return self._dense(self._coords({i: rat(x) for i, x in enumerate(reduced) if x}))

    def _coords(self, reduced: dict) -> dict:
        """:meth:`coords_from_reduced` on sparse vectors {position: value}.

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
                raise NotACochainError("map violates the alpha-equivariance condition")
        if any(recon.values()):
            raise NotACochainError("map violates the alpha-equivariance condition")
        return coords

    def _dense(self, coords: dict) -> list:
        out = [ZERO] * self.dim
        for j, x in coords.items():
            out[j] = x
        return out

    def coords(self, cochain: Cochain) -> list:
        return self._dense(self._coords(self._reduce(cochain.table)))

    def cochain_from_table(self, table: dict) -> tuple[Cochain, list]:
        """Canonical cochain and basis coordinates of a raw tabulation."""
        reduced = self._reduce(table)
        coords = self._coords(reduced)
        return self._from_sparse(reduced), self._dense(coords)

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

    @property
    def basis_cochains(self) -> list:
        if self._basis_cochains is None:
            self._basis_cochains = [self._from_sparse(col) for col in self._basis_cols]
        return self._basis_cochains

    # --- ambient picture --------------------------------------------------

    def ambient_coords(self, cochain: Cochain) -> list:
        """Coordinates in the full d^(n+1) tensor coordinate space."""
        d = self.algebra.dim
        flat = [ZERO] * self.ambient_dim
        for idx, vec in cochain.table.items():
            base = 0
            for i in idx:
                base = base * d + i
            base *= d
            for k, x in enumerate(vec):
                if x:
                    flat[base + k] = x
        return flat

    def ambient_subspace(self) -> Subspace:
        if self._ambient is None:
            cols = [self.ambient_coords(c) for c in self.basis_cochains]
            self._ambient = Subspace(self.ambient_dim, cols)
        return self._ambient

    def __repr__(self) -> str:
        return f"CochainSpace(n={self.arity}, dim={self.dim}, algebra={self.algebra.name})"


@lru_cache(maxsize=None)
def build_cochain_space(algebra: Algebra, arity: int, pairs: int | None = None) -> CochainSpace:
    """Cochain space; ``pairs`` limits how many leading adjacent pairs carry
    the alternating condition (default: all of them)."""
    return CochainSpace(algebra, arity, pairs)


def coords_of_map(algebra: Algebra, arity: int, evaluator: Callable) -> Cochain:
    """Tabulate a map given by a formula into a verified cochain.

    ``evaluator`` receives n dense basis vectors and must return a length-d
    value vector; multilinearity is the caller's responsibility.  Raises
    NotACochainError when the tabulated map violates either cochain
    condition.
    """
    space = build_cochain_space(algebra, arity)
    d = algebra.dim
    basis = [tuple(ONE if i == j else ZERO for j in range(d)) for i in range(d)]
    table = {}
    for idx in itertools.product(range(d), repeat=arity):
        value = tuple(rat(x) for x in evaluator(*(basis[i] for i in idx)))
        if any(value):
            table[idx] = value
    cochain, _ = space.cochain_from_table(table)
    return cochain
