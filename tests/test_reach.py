"""Every definition in the package is reached by the program.

A function, method or class of ``src/hlya`` that only the tests call is
an entry point no user path runs, and code the package keeps for its
tests alone.  The guard reads the package, the benchmark and the demos as
Python syntax and fails for any definition whose name they mention
nowhere outside the definition itself.  Names are matched as words, so a
method counts as reached when any attribute of that name is read; the
guard catches names that are gone from the program, not every dead path.
"""

import ast
import re
from pathlib import Path

import hlya

PACKAGE = Path(hlya.__file__).parent
READERS = [PACKAGE, PACKAGE.parents[1] / "bench", PACKAGE.parents[1] / "demos"]

# Reached by users and the tests that state the paper's claims, not by the
# program's own code; each with why it stays.
KEEP = {
    "eval": "Cochain.eval evaluates a cochain at vectors, the map the paper defines",
    "ok_through": "DeformationReport.ok_through reads a report order by order, as the criterion tests do",
    "deformation_to_obj": "the writer of the deformation file format, for the planned order-N extension command",
    "zeros": "Matrix.zeros is the one constructor of a zero matrix of any shape, 0 x n included",
    "apply": "Matrix.apply is the matrix-vector product on Fractions, the view of the integer product users read",
}


def _references(tree: ast.Module):
    """(name, line) of every name a module mentions: identifiers,
    attributes, imported names, and the words of its string constants
    other than docstrings (the benchmark wraps functions by name)."""
    docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            yield from ((word, node.lineno) for word in re.findall(r"[A-Za-z_]\w*", node.value))


def _unreached() -> list:
    """The definitions of the package that the package, the benchmark and
    the demos mention only inside themselves, as module.name."""
    mentions: dict = {}  # name -> {(path, line)}
    for root in READERS:
        for path in sorted(root.rglob("*.py")):
            for name, line in _references(ast.parse(path.read_text(), str(path))):
                mentions.setdefault(name, set()).add((path, line))
    exempt = set(hlya.__all__) | set(KEEP)
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name in exempt or (name.startswith("__") and name.endswith("__")):
                continue
            outside = [
                (where, line)
                for where, line in mentions.get(name, ())
                if where != path or not node.lineno <= line <= node.end_lineno
            ]
            if not outside:
                unreached.append(f"{path.stem}.{name}")
    return unreached


def test_every_definition_is_reached_outside_the_tests():
    assert _unreached() == []
