"""JSON input/output for algebras, cochains, deformations and gauges.

All indices in files are 1-based; rationals are strings like ``-3/2`` with
the denominator omitted when it is 1.  Omitted structure entries are zero,
and an entry that repeats an earlier entry's indices is a ParseError, as is
a key the object's kind does not have.
Emission is deterministic: keys are sorted and entry lists are emitted in
index order, so identical data yields byte-identical files.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import TYPE_CHECKING

from .algebra import Algebra, IntTable, algebra_from_sparse, alpha_table, brackets, table_map
from .cochain import Cochain, cochain_to_matrix, identity_cochain, matrix_to_cochain
from .errors import InputError
from .exactlin import Matrix, rat, rat_str

if TYPE_CHECKING:  # imported where used: reading an algebra needs no deformation code
    from .deformation import Deformation, Gauge


class ParseError(InputError):
    """Malformed input file; message carries a field path diagnostic."""


def _fail(path: str, msg: str):
    raise ParseError(f"{path}: {msg}")


def _check_object(obj, path: str, keys: tuple) -> None:
    """ParseError unless obj is a JSON object whose keys are among ``keys``."""
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    for key in obj:
        if key not in keys:
            _fail(f"{path}.{key}", f"unknown key; expected one of {', '.join(keys)}")


def _is_int(value) -> bool:
    """An integer of the file: a JSON number without fraction, not a boolean."""
    return isinstance(value, int) and not isinstance(value, bool)


def _rat_at(value, path: str) -> Fraction:
    try:
        return rat(value)
    except (ValueError, ZeroDivisionError, TypeError):
        _fail(path, f"not a rational: {value!r}")


def _entries(value, path: str, length: int, keys: int, shape: str):
    """(path, entry) for each entry of the list ``value``, each checked to
    be a list of ``length`` items laid out as ``shape``, whose first
    ``keys`` items are its key: a key met a second time is a ParseError."""
    if not isinstance(value, list):
        _fail(path, "expected a list")
    first: dict = {}  # key -> position of its entry
    for pos, entry in enumerate(value):
        if not isinstance(entry, list) or len(entry) != length:
            _fail(f"{path}[{pos}]", f"expected {shape}")
        yield f"{path}[{pos}]", entry
        # the caller has checked the key items, so they are integers
        key = tuple(entry[:keys])
        if key in first:
            _fail(f"{path}[{pos}]", f"repeats the key of entry {first[key]}")
        first[key] = pos


def _vec_at(value, dim: int, path: str):
    if not isinstance(value, list) or len(value) != dim:
        _fail(path, f"expected a coefficient list of length {dim}")
    return [_rat_at(x, f"{path}[{k}]") for k, x in enumerate(value)]


def _rows_at(value, dim: int, path: str) -> list:
    if not isinstance(value, list) or len(value) != dim:
        _fail(path, f"expected {dim} rows")
    return [_vec_at(row, dim, f"{path}[{r}]") for r, row in enumerate(value)]


# --- algebras --------------------------------------------------------------


def _upper_entries(t: IntTable, dim: int) -> list:
    """[i, j, ..., coefficients], 1-based, for the entries of the bracket
    table t with i < j, in index order."""
    values = sorted(t.fractions(dim).items())
    return [[*(i + 1 for i in key), [rat_str(x) for x in vec]] for key, vec in values if key[0] < key[1]]


def algebra_to_obj(a: Algebra) -> dict:
    d = a.dim
    binary, ternary = (_upper_entries(t, d) for t in brackets(a))
    alpha = [[rat_str(x) for x in row] for row in table_map(alpha_table(a, 1), d).data]
    return {"name": a.name, "dim": d, "binary": binary, "ternary": ternary, "alpha": alpha}


def algebra_from_obj(obj, path: str = "algebra") -> Algebra:
    _check_object(obj, path, ("name", "dim", "binary", "ternary", "alpha"))
    dim = obj.get("dim")
    if not _is_int(dim) or dim < 1:
        _fail(f"{path}.dim", "expected a positive integer")
    binary = {}
    for where, (i, j, vec) in _entries(obj.get("binary", []), f"{path}.binary", 3, 2, "[i, j, coefficients]"):
        if not (_is_int(i) and _is_int(j) and 1 <= i < j <= dim):
            _fail(where, f"need 1 <= i < j <= {dim}")
        binary[(i - 1, j - 1)] = _vec_at(vec, dim, f"{where}[2]")
    ternary = {}
    for where, (i, j, k, vec) in _entries(obj.get("ternary", []), f"{path}.ternary", 4, 3, "[i, j, k, coefficients]"):
        ok = all(_is_int(x) for x in (i, j, k)) and 1 <= i < j <= dim and 1 <= k <= dim
        if not ok:
            _fail(where, f"need 1 <= i < j <= {dim} and 1 <= k <= {dim}")
        ternary[(i - 1, j - 1, k - 1)] = _vec_at(vec, dim, f"{where}[3]")
    alpha_obj = obj.get("alpha")
    if alpha_obj is None:
        alpha = Matrix.identity(dim).data
    else:
        alpha = _rows_at(alpha_obj, dim, f"{path}.alpha")
    name = obj.get("name", "")
    if not isinstance(name, str):
        _fail(f"{path}.name", "expected a string")
    return algebra_from_sparse(dim, binary, ternary, alpha, name)


# --- cochains --------------------------------------------------------------


def cochain_to_obj(c: Cochain) -> list:
    entries = []
    for idx in sorted(c.table):
        for k, x in enumerate(c.table[idx]):
            if x:
                entries.append([*(i + 1 for i in idx), k + 1, rat_str(x)])
    return entries


def cochain_from_obj(entries, arity: int, dim: int, path: str = "cochain") -> Cochain:
    table: dict = {}
    for where, (*idx, k, coef) in _entries(entries, path, arity + 2, arity + 1, f"[i_1..i_{arity}, k, coefficient]"):
        if not all(_is_int(i) and 1 <= i <= dim for i in idx):
            _fail(where, f"argument indices must lie in 1..{dim}")
        if not (_is_int(k) and 1 <= k <= dim):
            _fail(where, f"output index must lie in 1..{dim}")
        key = tuple(i - 1 for i in idx)
        table.setdefault(key, [Fraction(0)] * dim)[k - 1] = _rat_at(coef, where)
    return Cochain(arity, dim, {idx: tuple(vec) for idx, vec in table.items()})


# --- deformations and gauges ----------------------------------------------


def _resolve_base(obj, path: str, base_dir: str | None) -> Algebra:
    base = obj.get("base")
    if isinstance(base, dict):
        return algebra_from_obj(base, f"{path}.base")
    if isinstance(base, str):
        ref = base if os.path.isabs(base) or base_dir is None else os.path.join(base_dir, base)
        try:
            inner = load_json(ref)
        except ParseError as exc:
            _fail(f"{path}.base", str(exc))
        return algebra_from_obj(inner, ref)
    _fail(f"{path}.base", "expected an inline algebra object or a file reference")


def _series_from_obj(obj, path: str, base_dir: str | None, constants: dict) -> tuple[Algebra, int, list]:
    """The base, order and series of a deformation or gauge object: under
    each key, the constant term ``constants[key](base)`` and then the
    coefficients of orders 1..order, zero where no entry gives one."""
    _check_object(obj, path, ("base", "order", *constants))
    base = _resolve_base(obj, path, base_dir)
    order = obj.get("order")
    if not _is_int(order) or order < 0:
        _fail(f"{path}.order", "expected a nonnegative integer")
    series = []
    for key, constant in constants.items():
        c0 = constant(base)
        out = [c0] + [Cochain.zero(c0.arity, base.dim)] * order
        shape = "[order_index, sparse cochain]" if c0.arity > 1 else "[order_index, matrix]"
        for where, (i, data) in _entries(obj.get(key, []), f"{path}.{key}", 2, 1, shape):
            if not (_is_int(i) and 1 <= i <= order):
                _fail(where, f"order index must lie in 1..{order}")
            if c0.arity > 1:
                out[i] = cochain_from_obj(data, c0.arity, base.dim, f"{where}[1]")
            else:  # a gauge coefficient, which the file holds as its matrix
                out[i] = matrix_to_cochain(base, Matrix(_rows_at(data, base.dim, f"{where}[1]")))
        series.append(out)
    return base, order, series


def _coefficients_to_obj(seq, write) -> list:
    """[order_index, write(coefficient)] for the nonzero coefficients of orders 1..N."""
    return [[i, write(c)] for i, c in enumerate(seq) if i and not c.is_zero()]


def deformation_to_obj(d: Deformation) -> dict:
    f, g = (_coefficients_to_obj(seq, cochain_to_obj) for seq in (d.f_seq, d.g_seq))
    return {"base": algebra_to_obj(d.base), "order": d.order, "f": f, "g": g}


def deformation_from_obj(obj, path: str = "deformation", base_dir: str | None = None) -> Deformation:
    from .deformation import Deformation, bracket_cochain, ternary_cochain

    base, order, (f_seq, g_seq) = _series_from_obj(obj, path, base_dir, {"f": bracket_cochain, "g": ternary_cochain})
    return Deformation(base, order, f_seq, g_seq)


def gauge_to_obj(p: Gauge) -> dict:
    # the file holds each coefficient as its d x d matrix
    phi = _coefficients_to_obj(p.phi, lambda h: [[rat_str(x) for x in row] for row in cochain_to_matrix(p.base, h).data])
    return {"base": algebra_to_obj(p.base), "order": p.order, "phi": phi}


def gauge_from_obj(obj, path: str = "gauge", base_dir: str | None = None) -> Gauge:
    from .deformation import Gauge

    base, order, (phi,) = _series_from_obj(obj, path, base_dir, {"phi": identity_cochain})
    return Gauge(base, order, phi)


# --- matrices (operator dumps) --------------------------------------------


def matrix_to_obj(m: Matrix) -> dict:
    entries = [[i + 1, j + 1, rat_str(x)] for i, j, x in m.entries()]
    return {"rows": m.rows, "cols": m.cols, "entries": entries}


# --- file helpers ----------------------------------------------------------


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_json(path: str):
    """The JSON value in the file at ``path``, read as UTF-8; ParseError
    when the file cannot be read or decoded."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text, byte {exc.start} cannot be decoded")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}")


def load_algebra(path: str) -> Algebra:
    return algebra_from_obj(load_json(path), path)


def load_deformation(path: str) -> Deformation:
    return deformation_from_obj(load_json(path), path, base_dir=os.path.dirname(path) or ".")


def load_gauge(path: str) -> Gauge:
    return gauge_from_obj(load_json(path), path, base_dir=os.path.dirname(path) or ".")


def save(path: str, obj) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(obj))
