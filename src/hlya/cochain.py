"""Cochain spaces: multilinear maps L^n -> L with the two side conditions.

An n-cochain vanishes whenever the arguments of an adjacent odd-even slot
pair coincide (over Q this is equivalent to antisymmetry in that pair) and
commutes slotwise with the twist map alpha.  The space is realized as the
kernel of an exact linear constraint system.

Internally a cochain is a sparse table mapping basis-index tuples to value
vectors, and the space works in *reduced* coordinates indexed by
representative tuples (strictly increasing inside each pair slot).  One
orbit map per space sends each tuple with distinct arguments in every pair
to its representative's position and swap sign, so pair-antisymmetry is
built in and only alpha-equivariance remains as constraint rows.  Only
this module knows that layout; formulas use a space's generic cochain,
image vectors, coordinates and defect forms.

The conditions are written once, as linear defect forms
(:meth:`CochainSpace.defects`, with :meth:`CochainSpace._residual` for
equivariance), and every verdict reads them.  The unknowns of a generic
cochain are the basis cochains, so a form's coefficient of unknown j is
its value on basis cochain j: the audit and operator assembly raise the
first nonzero form through :func:`check_defects`, and a concrete table
is the case of one unknown.  A concrete table is read in integers: its
numerators over one positive denominator are positive multiples of its
values, so they give the same verdicts and witnesses, and only the
coordinates are divided.

A cochain is its canonical integer table (:attr:`Cochain.ints`): the
numerators of its values over the lcm of their reduced denominators, so
equal maps have equal tables.  A table of values is converted when the
cochain is built, and the spaces build cochains straight from integer
tables, from representative values (:meth:`CochainSpace.from_rep_values`),
a whole table (:meth:`CochainSpace.from_table`) or a coordinate row
(:meth:`CochainSpace.from_row`).  Coordinates are integer rows too: the
canonical row (den, {basis index: nonzero numerator}) in lowest terms,
the format of a :class:`hlya.exactlin.Matrix` row.  A space records on
each cochain the row it has established, so :meth:`CochainSpace.row`
hands it back without reading the table again, and the readers of
coordinates (the cocycle tests, :func:`hlya.exactlin.solve`, the
deformation equations) take the row as it is.  :meth:`CochainSpace.coords`
and :meth:`CochainSpace.from_coords` are its Fraction view, for callers
that hold Fractions.  A cochain is immutable, so it is shared freely, and
its integer table keeps the twists the contractions make of it.
"""

from __future__ import annotations

import itertools
import weakref
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import itemgetter
from types import MappingProxyType
from typing import Sequence

from .algebra import (
    Algebra,
    FormTable,
    IntTable,
    Vec,
    _canonical,
    _is_identity,
    alpha_table,
    check_map,
    evaluate,
    int_table,
    map_table,
    memoised,
    rep_tuples,
    table_map,
    table_sum,
    zero_vec,
)
from .errors import ArityError, DimMismatchError, NotACochainError, PreconditionError
from .exactlin import Frozen, Matrix, _dense, _integer_row, _lowest, _row_den, rat, reduce_rows

MAX_ARITY = 7


class Cochain(Frozen):
    """Sparse multilinear map L^n -> L, held as its canonical integer table.

    A :class:`Frozen` value.  :attr:`ints` is the :class:`IntTable` of its
    values over the lcm of their reduced denominators, fixed when the
    cochain is built; equality, the hash and :meth:`is_zero` read it
    alone.  The twists that :func:`hlya.algebra.contract` makes of it are
    kept on it (``IntTable.twists``), so each cochain object is twisted
    once.  :attr:`table` holds the nonzero values as Fraction tuples, keyed
    by basis tuple, and is built from :attr:`ints` on first read."""

    __slots__ = ("arity", "dim", "ints", "_table", "_coords")

    def __init__(self, arity: int, dim: int, table: dict):
        """The cochain of a table of value vectors keyed by basis tuple.

        Each nonzero entry is read by :func:`hlya.exactlin.rat`
        (:func:`hlya.algebra.int_table`, whose table is canonical), so a
        float or a bool is a TypeError.  A value whose length is not ``dim``
        raises DimMismatchError, a nonzero value at no basis tuple
        ArityError."""
        for idx, vec in table.items():
            if len(vec) != dim:
                raise DimMismatchError(f"the value at {idx} has {len(vec)} entries, expected {dim}")
        ints = int_table(table)
        indices = frozenset(range(dim))
        for idx in ints.entries:
            if len(idx) != arity or not indices.issuperset(idx):
                raise ArityError(f"{idx} is not a basis tuple of {arity} indices below {dim}")
        self._init(arity=arity, dim=dim, ints=ints, _table=None, _coords=None)

    @classmethod
    def _of(cls, arity: int, dim: int, ints: IntTable) -> "Cochain":
        """The cochain of a canonical table (:func:`_canonical`)."""
        c = cls.__new__(cls)
        c._init(arity=arity, dim=dim, ints=ints, _table=None, _coords=None)
        return c

    @property
    def table(self) -> MappingProxyType:
        """The nonzero values as tuples, keyed by basis tuple."""
        if self._table is None:
            self._init(_table=MappingProxyType(self.ints.fractions(self.dim)))
        return self._table

    def _recorded(self, space: "CochainSpace") -> tuple[int, dict] | None:
        """The coordinate row ``space`` recorded on this cochain, else None;
        shared, so not to be changed."""
        record = self._coords
        return record[1] if record is not None and record[0]() is space else None

    def _record(self, space: "CochainSpace", row: tuple[int, dict]) -> None:
        """Record the coordinate row ``space`` established, unless another
        live space holds the record; a weak reference, so that a cochain
        does not keep its algebra alive."""
        if self._coords is None or self._coords[0]() is None:
            self._init(_coords=(weakref.ref(space), row))

    @classmethod
    def zero(cls, arity: int, dim: int) -> "Cochain":
        return cls._of(arity, dim, IntTable(1, {}))

    def is_zero(self) -> bool:
        return not self.ints

    def value(self, idx: tuple) -> Vec:
        return self.table.get(idx, zero_vec(self.dim))

    def eval(self, args: Sequence[Sequence]) -> Vec:
        """Multilinear contraction against dense argument vectors."""
        if len(args) != self.arity:
            raise DimMismatchError(f"expected {self.arity} arguments, got {len(args)}")
        for a in args:
            if len(a) != self.dim:
                raise DimMismatchError("argument vector of wrong length")
        return evaluate(self.ints, self.dim, args)

    def scale(self, c: Fraction) -> "Cochain":
        c, t = rat(c), self.ints
        scaled = {idx: {k: c.numerator * x for k, x in vec.items()} for idx, vec in t.entries.items()}
        return Cochain._of(self.arity, self.dim, _canonical(IntTable(t.den * c.denominator, scaled)))

    def add(self, other: "Cochain") -> "Cochain":
        if (self.arity, self.dim) != (other.arity, other.dim):
            raise DimMismatchError("cochain shapes disagree")
        return Cochain._of(self.arity, self.dim, _canonical(table_sum((self.ints, other.ints))))

    def sub(self, other: "Cochain") -> "Cochain":
        return self.add(other.scale(Fraction(-1)))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        s, o = self.ints, other.ints
        return (self.arity, self.dim, s.den, s.entries) == (other.arity, other.dim, o.den, o.entries)

    def __hash__(self):
        t = self.ints
        entries = frozenset((idx, frozenset(vec.items())) for idx, vec in t.entries.items())
        return hash((self.arity, self.dim, t.den, entries))

    def __repr__(self) -> str:
        return f"Cochain(arity={self.arity}, dim={self.dim}, nnz={len(self.ints.entries)})"


def _require_cochain(c, what: str) -> None:
    """PreconditionError unless ``c``, named ``what`` in the message, is a
    :class:`Cochain`."""
    if not isinstance(c, Cochain):
        raise PreconditionError(f"{what} must be a Cochain, got {type(c).__name__}")


def _orbit_map(reps: tuple, arity: int, pairs: int) -> dict:
    """The orbit map of a layout: each tuple whose first ``pairs`` slot
    pairs hold distinct arguments -> (position in ``reps`` of its
    representative, product of the swap signs), orbit by orbit in the
    order of ``reps`` and, within an orbit, in swap-pattern order."""
    patterns = list(itertools.product((False, True), repeat=pairs))
    variants = [reps]  # patterns[0] swaps nothing
    for swaps in patterns[1:]:
        # slot i of the variant is slot i ^ 1, its partner, where the pair is swapped
        slots = [i ^ 1 if i < 2 * pairs and swaps[i // 2] else i for i in range(arity)]
        variants.append(list(map(itemgetter(*slots), reps)))
    signs = [(-1) ** sum(swaps) for swaps in patterns]
    return dict(zip(itertools.chain.from_iterable(zip(*variants)), itertools.product(range(len(reps)), signs)))


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


class CochainSpace(Frozen):
    """The space of n-cochains of one algebra, with an explicit basis.

    The equivariance rows are built in integers from alpha's integer table
    (:meth:`_equivariance_rows`), reduced by
    :func:`hlya.exactlin.reduce_rows` and kept as primitive integer rows
    (``_int_rows``), the one statement of the condition (:meth:`_residual`).
    The basis is the kernel basis those rows give (:attr:`_int_basis`), so
    the coordinates of a cochain are its reduced entries at the free
    columns.  A :class:`Frozen` value, equal only to itself.
    """

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, algebra: Algebra, arity: int, pairs: int | None = None):
        arity, pairs = _shape(arity, pairs)
        reps = rep_tuples(algebra.dim, arity, pairs)
        self._init(
            algebra=algebra,
            arity=arity,
            pairs=pairs,
            rep_tuples=reps,
            _orbit=_orbit_map(reps, arity, pairs),
            reduced_dim=len(reps) * algebra.dim,
        )
        pivots, rows = reduce_rows(self._equivariance_rows())
        pivot_set = set(pivots)
        free = [i for i in range(self.reduced_dim) if i not in pivot_set]
        self._init(_pivots=pivots, _int_rows=rows, _free=free)

    # reduced coordinate layout: (rep position, output index) -> pos * d + k

    @property
    def dim(self) -> int:
        return len(self._free)

    def _equivariance_rows(self) -> list:
        """alpha o f(T) - f(alpha e_{t_1}, ..., alpha e_{t_n}) = 0 rowwise,
        in integers: alpha's table holds numerators over D
        (:func:`hlya.algebra.alpha_table`), and each row is scaled by D^n,
        so the coefficient on the left is a numerator times D^(n-1) and the
        one on the right the signed product of n numerators.

        Representative tuples suffice: the constraint at a swapped or
        diagonal tuple is a signed copy of (or implied by) the one at the
        representative, because both sides are antisymmetric per pair.
        With alpha = id every row is f(T) - f(T) and cancels, so there are
        none.
        """
        a = self.algebra
        d = a.dim
        alpha = alpha_table(a, 1)
        if _is_identity(alpha, d):
            return []
        acols = [alpha.entries.get((i,), {}).items() for i in range(d)]
        scale = alpha.den ** (self.arity - 1)
        arows: list[dict] = [{} for _ in range(d)]  # arows[out][k]: alpha[out][k] * D^n
        for k, col in enumerate(acols):
            for out, x in col:
                arows[out][k] = x * scale
        orbit = self._orbit
        rows = []
        for pos, idx in enumerate(self.rep_tuples):
            combos: dict[int, int] = {}
            for combo in itertools.product(*(acols[i] for i in idx)):
                found = orbit.get(tuple(c[0] for c in combo))
                if found:
                    target, w = found
                    for c in combo:
                        w *= c[1]
                    combos[target] = combos.get(target, 0) + w
            for out in range(d):
                # alpha applied to the value vector: row out of alpha
                row = {pos * d + k: c for k, c in arows[out].items()}
                for target, w in combos.items():
                    col = target * d + out
                    v = row.get(col, 0) - w
                    if v:
                        row[col] = v
                    else:
                        row.pop(col, None)
                if row:
                    rows.append(row)
        return rows

    # --- conversions ------------------------------------------------------

    def _laid_out(self, reduced: dict, den: int) -> Cochain:
        """The cochain whose reduced coordinates are the numerators
        ``reduced`` {position: nonzero int} over ``den``, laid out through
        the orbit map, orbit by orbit, in lowest terms."""
        d, members = self.algebra.dim, self._members
        g = gcd(den, *reduced.values())
        signed: dict = {}  # representative position -> (value, negated value)
        for i, x in reduced.items():
            pos, k = divmod(i, d)
            if pos not in signed:
                signed[pos] = ({}, {})
            plus, minus = signed[pos]
            plus[k], minus[k] = x // g, -x // g
        entries = {}
        for pos in sorted(signed):
            plus, minus = signed[pos]
            for tup, sign in members[pos]:
                entries[tup] = plus if sign == 1 else minus
        return Cochain._of(self.arity, d, IntTable(den // g, entries))

    def row(self, cochain: Cochain) -> tuple[int, dict]:
        """Basis coordinates of a cochain of this arity and dimension, as
        the canonical integer row (den, {basis index: nonzero numerator}).

        The row this space recorded on the cochain, building or reading it,
        comes back without a read; otherwise its integer table is read
        (:meth:`_read`), and the row is recorded when the cochain holds no
        other live space's.  Another space, even of an equal algebra, reads
        the cochain afresh and reaches its own verdict.  The row is shared,
        so not to be changed."""
        if cochain.arity != self.arity:
            raise ArityError(f"a {cochain.arity}-cochain is not in the space of {self.arity}-cochains")
        if cochain.dim != self.algebra.dim:
            raise DimMismatchError(f"a cochain on dimension {cochain.dim}, expected {self.algebra.dim}")
        row = cochain._recorded(self)
        if row is None:
            row = self._read(cochain.ints)
            cochain._record(self, row)
        return row

    def coords(self, cochain: Cochain) -> list:
        """Basis coordinates of a cochain as Fractions: the view of its
        :meth:`row`."""
        return _dense(self.row(cochain), self.dim)

    def from_table(self, t: IntTable) -> Cochain:
        """The cochain whose values are those of the integer table
        ``t`` over basis tuples, with its coordinates recorded.  The table
        is read once (:meth:`_read`), so NotACochainError names the first
        defect of one that is no cochain of this space."""
        t = _canonical(t)
        row = self._read(t)
        c = Cochain._of(self.arity, self.algebra.dim, t)
        c._record(self, row)
        return c

    def _read(self, t: IntTable) -> tuple[int, dict]:
        """The coordinate row of a canonical integer tabulation over the
        basis tuples, read as a map in one unknown: each value is the form
        {(output index, 0): numerator}, t.den times the value, and the first
        of its :meth:`defects` raises NotACochainError.  The coordinates are
        the numerators at the free coordinates over t.den."""
        forms = {idx: {(k, 0): x for k, x in vec.items()} for idx, vec in t.entries.items()}
        if not forms:  # the zero map has no defects
            return 1, {}
        for kind, idx, _ in self.defects(forms):
            raise _violation(kind, idx)
        d, reps, empty = self.algebra.dim, self.rep_tuples, {}
        values = (forms.get(reps[i // d], empty).get((i % d, 0)) for i in self._free)
        return _lowest(t.den, {j: x for j, x in enumerate(values) if x})

    def from_rep_values(self, t: IntTable) -> Cochain:
        """The cochain whose values at the representative tuples are
        those of the integer table ``t``, keyed by representative tuples.

        A tuple ``t`` lacks has value 0, and the values at the other tuples
        follow from pair antisymmetry, so the layout has no diagonal or
        pair-antisymmetry defect.  The numerators are checked for
        alpha-equivariance, as forms in one unknown (:meth:`_residual`), and
        only when none is violated is the coordinate row recorded: the
        numerators at the free coordinates over t.den.  Otherwise
        :meth:`row` raises the first violation.
        """
        d, orbit = self.algebra.dim, self._orbit
        reduced = {orbit[idx][0] * d + k: x for idx, vec in t.entries.items() for k, x in vec.items() if x}
        c = self._laid_out(reduced, t.den)
        if not self._residual({i: {0: x} for i, x in reduced.items()}):
            c._record(self, _lowest(t.den, {j: x for j, i in enumerate(self._free) if (x := reduced.get(i))}))
        return c

    def from_coords(self, coords: Sequence) -> Cochain:
        """The cochain with these basis coordinates, each read by
        :func:`hlya.exactlin.rat`: :meth:`from_row` of their integer row.
        DimMismatchError unless there is one per basis cochain."""
        if len(coords) != self.dim:
            raise DimMismatchError(f"expected {self.dim} coordinates, got {len(coords)}")
        return self.from_row(_integer_row(coords))

    def from_row(self, row: tuple[int, dict]) -> Cochain:
        """The cochain with the coordinate row (den, {basis index: nonzero
        numerator}), den > 0, laid out through the basis columns
        (:attr:`_int_basis`), with the row recorded in lowest terms.
        PreconditionError unless den is a positive int, DimMismatchError
        for a basis index outside 0..dim-1."""
        den, vec = row
        _row_den(den)
        for j in vec:
            if not 0 <= j < self.dim:
                raise DimMismatchError(f"coordinate position {j} is out of range for dimension {self.dim}")
        row = _lowest(den, vec)
        den, vec = row
        basis_den, cols = self._int_basis
        reduced: dict = {}
        for j, x in vec.items():
            for i, v in cols[j].items():
                reduced[i] = reduced.get(i, 0) + x * v
        c = self._laid_out({i: x for i, x in reduced.items() if x}, den * basis_den)
        c._record(self, row)
        return c

    def contains(self, cochain: Cochain) -> bool:
        try:
            self.row(cochain)
        except NotACochainError:
            return False
        return True

    @cached_property
    def _int_basis(self) -> tuple[int, list]:
        """The kernel basis of the reduced rows as integer numerators over
        the lcm of the denominators of its entries: (den, [{reduced
        coordinate: numerator}]), one column per free coordinate f, with
        den at f and -den * row[f] / row[p] at each pivot p.  A reduced row
        is primitive, so its entries over its pivot entry have that entry
        as the lcm of their reduced denominators, and den is the lcm of the
        pivot entries."""
        pivots, rows = self._pivots, self._int_rows
        den = lcm(*(row[p] for p, row in zip(pivots, rows)))
        cols = {f: {f: den} for f in self._free}
        for p, row in zip(pivots, rows):
            scale = den // row[p]
            for f, x in row.items():
                if f != p:
                    cols[f][p] = -x * scale
        return den, [cols[f] for f in self._free]

    @cached_property
    def _members(self) -> list:
        """Each orbit's members with their swap signs, [(tuple, sign)], by
        representative position, the representative first."""
        members = [[] for _ in self.rep_tuples]
        for tup, (pos, sign) in self._orbit.items():
            members[pos].append((tup, sign))
        return members

    @cached_property
    def basis_cochains(self) -> tuple:
        return tuple(self.from_row((1, {j: 1})) for j in range(self.dim))

    # --- generic cochains and linear forms ----------------------------------

    def generic(self, offset: int = 0) -> FormTable:
        """The generic cochain sum_j u_{offset + j} b_j over the basis
        cochains b_j, as a :class:`FormTable` over the lcm of their
        denominators.  A form's coefficient of u_{offset + j} is its value
        on b_j; a space of dimension 0 gives the zero table."""
        d = self.algebra.dim
        den, cols = self._int_basis
        signed: dict = {}  # (position, sign) -> the signed value
        for j, col in enumerate(cols, offset):
            for i, c in col.items():
                pos, k = divmod(i, d)
                if (pos, 1) not in signed:
                    signed[pos, 1], signed[pos, -1] = {}, {}
                signed[pos, 1][k, j], signed[pos, -1][k, j] = c, -c
        return FormTable(den, {tup: signed[found] for tup, found in self._orbit.items() if found in signed})

    def _forms(self, values) -> dict:
        """Pairs (representative position, value) as forms {unknown:
        coefficient} keyed by reduced coordinate; each value is a linear
        form {(output index, unknown): coefficient}, as on the generic
        tables of :meth:`generic`."""
        d = self.algebra.dim
        forms: dict = {}
        for pos, value in values:
            for (k, u), c in value.items():
                forms.setdefault(pos * d + k, {})[u] = c
        return forms

    def images(self, fn) -> dict:
        """fn's values at the representative tuples as forms {unknown:
        coefficient} keyed by reduced coordinate (:meth:`_forms`): the form
        at i is row i of the map sending each unknown's basis cochain to
        the reduced coordinates of its image.  fn runs once per
        representative tuple."""
        return self._forms(enumerate(map(fn, self.rep_tuples)))

    def coordinates(self, fn) -> dict:
        """The basis coordinates of fn's image of each unknown's basis
        cochain, as forms {unknown: coefficient} keyed by coordinate; fn
        runs once per representative tuple.

        The first nonzero :meth:`_residual` form raises NotACochainError
        through :func:`check_defects`.  Otherwise every image is in the
        space, and its coordinates are its entries at the free coordinates.
        """
        forms = self.images(fn)
        check_defects(self._residual(forms))
        return {j: forms[i] for j, i in enumerate(self._free) if i in forms}

    def defects(self, table: dict) -> list:
        """The linear defects of a table's values as a map into this space.

        ``table`` maps tuples to linear forms as for :meth:`_forms`, a
        tuple it lacks to zero.  Only its entries and the orbits they touch
        are read: each entry once, and each member of an orbit with a
        nonzero member once, against its representative, the orbit's
        lexicographically first member (:attr:`_members`).  The defects are
        (kind, 0-based tuple, form), one per condition a map into the space
        must meet, the form a sparse linear map {(output index, unknown):
        coefficient}; only the nonzero forms are returned, the first two
        kinds by tuple and then the third:

        - "diagonal": the value at a tuple absent from the orbit map, one
          with equal arguments in a pair;
        - "pair-antisymmetry": value(idx) - sign * value(representative) at
          every other member of a touched orbit, also where value(idx) is
          zero;
        - "equivariance": the :meth:`_residual` of the representative forms.

        The table's values are cochains for every input exactly when there
        is no defect, its unknowns being those of :meth:`generic`.  A
        concrete table is the case of one unknown (:meth:`coords`).
        """
        orbit, members = self._orbit, self._members
        defects, touched = [], set()
        for idx, value in table.items():
            if value:
                found = orbit.get(idx)
                if found is None:
                    defects.append(("diagonal", idx, value))
                else:
                    touched.add(found[0])
        read, empty, reps = table.get, {}, []
        for pos in touched:
            (head, _), *others = members[pos]
            rep = read(head, empty)
            reps.append((pos, rep))
            signed = {1: rep, -1: {key: -c for key, c in rep.items()}}
            for idx, sign in others:
                value, target = read(idx, empty), signed[sign]
                if value != target:
                    defect = dict(value)
                    for key, c in target.items():
                        defect[key] = defect.get(key, 0) - c
                    defects.append(("pair-antisymmetry", idx, defect))
        defects.sort(key=itemgetter(1))
        return defects + self._residual(self._forms(reps))

    def _residual(self, forms: dict) -> list:
        """The nonzero "equivariance" defects of representative forms keyed
        by reduced coordinate (:meth:`_forms`), in coordinate order: each
        reduced equivariance row, in pivot order, applied to the forms.
        The rows are applied as primitive integer rows (:attr:`_int_rows`):
        a positive multiple of a form is zero, and has its lowest nonzero
        unknown, exactly where the form does."""
        if not forms:  # the zero map has no defects
            return []
        d = self.algebra.dim
        defects = []
        for p, row in zip(self._pivots, self._int_rows):
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


def check_defects(defects, prefix: str = "", **witness) -> None:
    """NotACochainError for the first of the ``defects`` that has a
    nonzero coefficient, at its lowest such unknown j: the defect of basis
    cochain j.  Its ``basis_index`` is j, which also fills the ``{}`` of
    ``prefix``.  A pair-antisymmetry form may hold zero coefficients."""
    for kind, idx, form in defects:
        hits = [u for (_, u), c in form.items() if c]
        if hits:
            j = min(hits)
            raise _violation(kind, idx, prefix.format(j), basis_index=j, **witness)


def _shape(arity: int, pairs: int | None) -> tuple[int, int]:
    """(arity, pairs) of a cochain space, pairs defaulting to all of them.

    ArityError out of range, and for any value but an int: True or 2.0
    would share the memo key of 1 or 2."""
    if type(arity) is not int or not 1 <= arity <= MAX_ARITY:
        raise ArityError(f"arity must be an integer in 1..{MAX_ARITY}, got {arity!r}")
    pairs = arity // 2 if pairs is None else pairs
    if type(pairs) is not int or not 0 <= pairs <= arity // 2:
        raise ArityError(f"pair count must be an integer in 0..{arity // 2}, got {pairs!r}")
    return arity, pairs


def build_cochain_space(algebra: Algebra, arity: int, pairs: int | None = None) -> CochainSpace:
    """Cochain space; ``pairs`` limits how many leading adjacent pairs carry
    the alternating condition (default: all of them).  One space per
    (arity, pairs), kept on the algebra; the shape is checked before the
    lookup."""
    return _cochain_space(algebra, *_shape(arity, pairs))


@memoised
def _cochain_space(algebra: Algebra, arity: int, pairs: int) -> CochainSpace:
    return CochainSpace(algebra, arity, pairs)


def cochain_to_matrix(a: Algebra, h: Cochain) -> Matrix:
    """View a 1-cochain of ``a`` as the d x d matrix sending e_j to h(e_j)
    (:func:`hlya.algebra.table_map`).  PreconditionError unless h is a
    :class:`Cochain`, ArityError unless its arity is 1 and DimMismatchError
    unless its dimension is a's."""
    _require_cochain(h, "the map")
    if h.arity != 1:
        raise ArityError(f"the map must be a 1-cochain, got arity {h.arity}")
    if h.dim != a.dim:
        raise DimMismatchError(f"the map is a cochain of dimension {h.dim}, expected {a.dim}")
    return table_map(h.ints, a.dim)


def matrix_to_cochain(a: Algebra, m: Matrix) -> Cochain:
    """View a d x d matrix (:func:`hlya.algebra.check_map`) as the 1-cochain
    sending e_j to its column j (:func:`hlya.algebra.map_table`)."""
    check_map(a, m)
    return Cochain._of(1, a.dim, map_table(m))


@memoised
def identity_cochain(a: Algebra) -> Cochain:
    """The identity map as a 1-cochain, the constant term of every gauge,
    built by C1 with its coordinates."""
    return build_cochain_space(a, 1).from_table(IntTable(1, {(j,): {j: 1} for j in range(a.dim)}))
