"""JSON input/output for algebras, cochains, deformations and gauges.

All indices in files are 1-based; rationals are strings like ``-3/2`` with
the denominator omitted when it is 1.  Omitted structure entries are zero,
and an entry that repeats an earlier entry's indices is a ParseError.
Emission is deterministic: keys are sorted and entry lists are emitted in
index order, so identical data yields byte-identical files.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import TYPE_CHECKING

from .algebra import Algebra, algebra_from_sparse
from .cochain import Cochain
from .errors import InputError
from .exactlin import Matrix, rat, rat_str

if TYPE_CHECKING:  # imported where used: reading an algebra needs no deformation code
    from .deformation import Deformation, Gauge


class ParseError(InputError):
    """Malformed input file; message carries a field path diagnostic."""


def _fail(path: str, msg: str):
    raise ParseError(f"{path}: {msg}")


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


# --- algebras --------------------------------------------------------------


def algebra_to_obj(a: Algebra) -> dict:
    d = a.dim
    binary = [
        [i + 1, j + 1, [rat_str(x) for x in a.binary[i][j]]]
        for i in range(d)
        for j in range(i + 1, d)
        if any(a.binary[i][j])
    ]
    ternary = [
        [i + 1, j + 1, k + 1, [rat_str(x) for x in a.ternary[i][j][k]]]
        for i in range(d)
        for j in range(i + 1, d)
        for k in range(d)
        if any(a.ternary[i][j][k])
    ]
    return {
        "name": a.name,
        "dim": d,
        "binary": binary,
        "ternary": ternary,
        "alpha": [[rat_str(x) for x in row] for row in a.alpha],
    }


def algebra_from_obj(obj, path: str = "algebra") -> Algebra:
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
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
        alpha = [[int(r == c) for c in range(dim)] for r in range(dim)]
    else:
        if not isinstance(alpha_obj, list) or len(alpha_obj) != dim:
            _fail(f"{path}.alpha", f"expected {dim} rows")
        alpha = [_vec_at(row, dim, f"{path}.alpha[{r}]") for r, row in enumerate(alpha_obj)]
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


def _coefficient_list(obj, key: str, arity: int, dim: int, order: int, path: str) -> list:
    out = [Cochain.zero(arity, dim)] * (order + 1)
    for where, (i, data) in _entries(obj.get(key, []), f"{path}.{key}", 2, 1, "[order_index, sparse cochain]"):
        if not (_is_int(i) and 1 <= i <= order):
            _fail(where, f"order index must lie in 1..{order}")
        out[i] = cochain_from_obj(data, arity, dim, f"{where}[1]")
    return out


def deformation_to_obj(d: Deformation) -> dict:
    return {
        "base": algebra_to_obj(d.base),
        "order": d.order,
        "f": [[i, cochain_to_obj(d.f_seq[i])] for i in range(1, d.order + 1) if not d.f_seq[i].is_zero()],
        "g": [[i, cochain_to_obj(d.g_seq[i])] for i in range(1, d.order + 1) if not d.g_seq[i].is_zero()],
    }


def deformation_from_obj(obj, path: str = "deformation", base_dir: str | None = None) -> Deformation:
    from .deformation import Deformation, bracket_cochain, ternary_cochain

    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    base = _resolve_base(obj, path, base_dir)
    order = obj.get("order")
    if not _is_int(order) or order < 0:
        _fail(f"{path}.order", "expected a nonnegative integer")
    f_seq = _coefficient_list(obj, "f", 2, base.dim, order, path)
    g_seq = _coefficient_list(obj, "g", 3, base.dim, order, path)
    f_seq[0] = bracket_cochain(base)
    g_seq[0] = ternary_cochain(base)
    return Deformation(base, order, f_seq, g_seq)


def gauge_to_obj(p: Gauge) -> dict:
    phi = [
        [i, [[rat_str(x) for x in row] for row in p.phi[i].data]]
        for i in range(1, p.order + 1)
        if not p.phi[i].is_zero()
    ]
    return {"base": algebra_to_obj(p.base), "order": p.order, "phi": phi}


def gauge_from_obj(obj, path: str = "gauge", base_dir: str | None = None) -> Gauge:
    from .deformation import Gauge

    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    base = _resolve_base(obj, path, base_dir)
    order = obj.get("order")
    if not _is_int(order) or order < 0:
        _fail(f"{path}.order", "expected a nonnegative integer")
    d = base.dim
    phi = [Matrix.identity(d)] + [Matrix.zeros(d, d)] * order
    for where, (i, rows) in _entries(obj.get("phi", []), f"{path}.phi", 2, 1, "[order_index, matrix]"):
        if not (_is_int(i) and 1 <= i <= order):
            _fail(where, f"order index must lie in 1..{order}")
        if not isinstance(rows, list) or len(rows) != d:
            _fail(f"{where}[1]", f"expected {d} rows")
        phi[i] = Matrix([_vec_at(row, d, f"{where}[1][{r}]") for r, row in enumerate(rows)])
    return Gauge(base, order, phi)


# --- matrices (operator dumps) --------------------------------------------


def matrix_to_obj(m: Matrix) -> dict:
    entries = [[i + 1, j + 1, rat_str(x)] for i, j, x in m.entries()]
    return {"rows": m.rows, "cols": m.cols, "entries": entries}


def matrix_from_obj(obj, path: str = "matrix") -> Matrix:
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    rows, cols = obj.get("rows"), obj.get("cols")
    if not (_is_int(rows) and _is_int(cols) and rows >= 0 and cols >= 0):
        _fail(path, "rows/cols must be nonnegative integers")
    data = [[Fraction(0)] * cols for _ in range(rows)]
    for where, (i, j, v) in _entries(obj.get("entries", []), f"{path}.entries", 3, 2, "[i, j, value]"):
        if not (_is_int(i) and _is_int(j) and 1 <= i <= rows and 1 <= j <= cols):
            _fail(where, "index out of range")
        data[i - 1][j - 1] = _rat_at(v, where)
    return Matrix(data)


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
