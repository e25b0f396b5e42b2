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
use a space's generic cochain, image vectors, coordinates and defect forms.

The conditions are written once, as linear defect forms
(:meth:`CochainSpace.defects`, with :meth:`CochainSpace._residual` for
equivariance), and every verdict reads them: the audit and operator
assembly apply them to a domain basis (:func:`first_violation`), and a
concrete table is the case of one unknown.  A cochain is immutable, table
and attributes alike, so it is shared freely.
"""

from __future__ import annotations

import itertools
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

    The equivariance rows are reduced by :func:`hlya.exactlin.eliminate` and
    kept, the one statement of the condition (:meth:`_residual`); the basis
    is the kernel basis of :func:`hlya.exactlin.null_vectors`, so the
    coordinates of a cochain are its reduced entries at the free columns.
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
        self._pivots, self._rows = eliminate(self._equivariance_rows())
        self._free, self._basis_cols = null_vectors(self._pivots, self._rows, self.reduced_dim)

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
                if sign:
                    combos[can] = combos.get(can, ZERO) + sign * w
            for out in range(d):
                row: dict[int, Fraction] = {}
                # alpha applied to the value vector: row indices of alpha
                for k in range(d):
                    c = a.alpha[out][k]
                    if c:
                        row[pos * d + k] = c
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

    def coords(self, cochain: Cochain) -> list:
        """Basis coordinates of a cochain of this arity and dimension."""
        if cochain.arity != self.arity:
            raise ArityError(f"a {cochain.arity}-cochain is not in the space of {self.arity}-cochains")
        if cochain.dim != self.algebra.dim:
            raise DimMismatchError(f"a cochain on dimension {cochain.dim}, expected {self.algebra.dim}")
        return self._read(cochain.table)

    def cochain_from_table(self, table: dict) -> tuple[Cochain, list]:
        """Canonical cochain and basis coordinates of a raw tabulation."""
        coords = self._read(table)
        return self.from_coords(coords), coords

    def _read(self, table: dict) -> list:
        """Basis coordinates of a tabulation over the basis tuples, read as
        a map in one unknown: each nonzero value is the form {(output index,
        0): entry}, and the first of its :meth:`defects` raises
        NotACochainError.  A value whose length is not the dimension raises
        DimMismatchError, a nonzero value at no basis tuple ArityError."""
        d, n = self.algebra.dim, self.arity
        indices = frozenset(range(d))
        forms = {}
        for idx, vec in table.items():
            if len(vec) != d:
                raise DimMismatchError(f"the value at {idx} has {len(vec)} entries, expected {d}")
            form = {(k, 0): rat(x) for k, x in enumerate(vec) if x}
            if form:
                if len(idx) != n or not indices.issuperset(idx):
                    raise ArityError(f"{idx} is not a basis tuple of {n} indices below {d}")
                forms[idx] = form
        if not forms:  # the zero map has no defects
            return [ZERO] * self.dim
        empty: dict = {}
        for kind, idx, _ in self.defects(lambda idx: forms.get(idx, empty)):
            raise _violation(kind, idx)
        reps = self.rep_tuples
        return [forms.get(reps[i // d], empty).get((i % d, 0), ZERO) for i in self._free]

    def from_rep_values(self, values: dict) -> Cochain:
        """The cochain with the given values at the representative tuples.

        ``values`` maps representative tuples to sparse vectors {output
        index: Fraction}; a tuple it lacks has value 0, and the values at
        the other tuples follow from pair antisymmetry.  Alpha-equivariance
        is not checked here: :meth:`coords` and :meth:`rep_coords` check it.
        """
        d = self.algebra.dim
        index = self.rep_index
        return self._from_sparse({index[idx] * d + k: x for idx, vec in values.items() for k, x in vec.items() if x})

    def rep_coords(self, values: dict) -> list:
        """Basis coordinates of :meth:`from_rep_values` of ``values``;
        NotACochainError when that map violates alpha-equivariance."""
        [coords] = self.coordinates(lambda idx: {(k, 0): x for k, x in values.get(idx, {}).items() if x}, [{0: 1}])
        return [coords.get(j, ZERO) for j in range(self.dim)]

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

    def _forms(self, fn) -> dict:
        """fn's values at the representative tuples as forms {unknown:
        coefficient}, keyed by reduced coordinate; fn maps tuples to linear
        forms {(output index, unknown): coefficient}, as on the generic
        tables of :meth:`generic`."""
        d = self.algebra.dim
        forms: dict = {}
        for pos, idx in enumerate(self.rep_tuples):
            for (k, u), c in fn(idx).items():
                forms.setdefault(pos * d + k, {})[u] = c
        return forms

    def images(self, fn, basis) -> list:
        """The sparse reduced image of each basis vector under fn, a map
        from tuples to linear forms as for :meth:`_forms`; fn runs once per
        representative tuple."""
        return _apply(self._forms(fn).items(), basis)

    def coordinates(self, fn, basis) -> list:
        """The basis coordinates, as sparse vectors, of fn's image of each
        basis vector; fn runs once per representative tuple.

        The :meth:`_residual` forms are applied to the basis by
        :func:`first_violation`: the first one nonzero on some basis vector
        raises NotACochainError, with the lowest such vector's index as
        ``basis_index``.  Otherwise every image is in the space, and its
        coordinates are its entries at the free coordinates.
        """
        forms = self._forms(fn)
        residual = self._residual(forms)
        found = first_violation(residual, basis) if residual else None
        if found is not None:
            (kind, idx, _), j = found
            raise _violation(kind, idx, basis_index=j)
        return _apply(((j, forms[i]) for j, i in enumerate(self._free) if i in forms), basis)

    def defects(self, fn) -> list:
        """The linear defects of fn's values as a map into this space.

        fn, as for :meth:`_forms`, runs once at every basis tuple in
        lexicographic order, so each representative tuple comes before the
        rest of its orbit.  The defects are (kind, 0-based tuple, form), one
        per condition a map into the space must meet, the form a sparse
        linear map {(output index, unknown): coefficient}; only the nonzero
        forms are returned, in this order:

        - "diagonal": the value at a tuple with equal arguments in a pair;
        - "pair-antisymmetry": value(idx) - sign * value(representative) at
          every other tuple, also where value(idx) is zero;
        - "equivariance": the :meth:`_residual` of the representative forms.

        fn's values are cochains for every input exactly when each form
        vanishes on every domain basis vector.  A concrete table is the
        case of one unknown (:meth:`coords`).
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
        return defects + self._residual(self._forms(reps.__getitem__))

    def _residual(self, forms: dict) -> list:
        """The nonzero "equivariance" defects of representative forms keyed
        by reduced coordinate (:meth:`_forms`), in coordinate order: each
        reduced equivariance row, in pivot order, applied to the forms."""
        if not forms:  # the zero map has no defects
            return []
        d = self.algebra.dim
        defects = []
        for p, row in zip(self._pivots, self._rows):
            acc: dict = {}
            for i, r in row.items():
                form = forms.get(i)
                if form:
                    for u, c in form.items():
                        acc[u] = acc.get(u, 0) + r * c
            form = {(p % d, u): c for u, c in acc.items() if c}
            if form:
                defects.append(("equivariance", self.rep_tuples[p // d], form))
        return defects

    def __repr__(self) -> str:
        return f"CochainSpace(n={self.arity}, dim={self.dim}, algebra={self.algebra.name})"


def _apply(forms, basis) -> list:
    """The sparse image {key: value} of each basis vector under ``forms``,
    pairs (key, {unknown: coefficient})."""
    rows: dict = {}  # unknown -> [(key, coefficient)]
    for key, form in forms:
        for u, c in form.items():
            rows.setdefault(u, []).append((key, c))
    images = []
    for vec in basis:
        image: dict = {}
        for u, x in vec.items():
            for key, c in rows.get(u, ()):
                image[key] = image.get(key, 0) + x * c
        images.append({key: y for key, y in image.items() if y})
    return images


def first_violation(defects, basis):
    """(defect, basis index) for the first defect form, in order, that is
    nonzero on some basis vector, with the first such vector; None when
    every form vanishes on the whole basis."""
    rows: dict = {}  # unknown -> [(basis index, entry)]
    for j, vec in enumerate(basis):
        for u, x in vec.items():
            rows.setdefault(u, []).append((j, x))
    for defect in defects:
        image: dict = {}
        for (k, u), c in defect[2].items():
            for j, x in rows.get(u, ()):
                image[j, k] = image.get((j, k), 0) + c * x
        hits = [j for (j, _), y in image.items() if y]
        if hits:
            return defect, min(hits)
    return None


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
