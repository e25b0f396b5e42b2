"""Every definition in the package is reached by the program.

A function, method or class of ``src/hlya`` that only the tests call is
an entry point no user path runs, and code the package keeps for its
tests alone.  The guard reads the package, the benchmark and the demos as
Python syntax and fails for any definition whose name they mention
nowhere outside the definition itself.  A method counts as reached only
when an attribute of its name is read (``.name``), or its name is read in
its own class body, since nothing else can call it: a local variable or
a word in a string of the same name elsewhere does not reach it.  Other
definitions are matched as words.  The guard catches names that are gone
from the program, not every dead path.
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
    "coords": "CochainSpace.coords is the Fraction view of a cochain's coordinate row, the coordinates users read",
    "matmul": "Matrix.matmul composes linear maps, as users build the automorphisms yau_twist takes",
    "scale": "Cochain.scale and Matrix.scale multiply by a rational: with add, the vector operations users write",
    "sub": "Cochain.sub is the difference of cochains, as the criterion tests compare them",
}


def _references(tree: ast.Module):
    """(name, line, attribute) of every name a module mentions:
    identifiers, attributes, imported names, and the words of its string
    constants other than docstrings (the benchmark wraps functions by
    name); ``attribute`` is True for an attribute read alone."""
    docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            yield from ((word, node.lineno, False) for word in re.findall(r"[A-Za-z_]\w*", node.value))


def _within(lines: tuple, line: int) -> bool:
    first, last = lines
    return first <= line <= last


def _unreached() -> list:
    """The definitions of the package that the package, the benchmark and
    the demos mention only inside themselves, as module.name; a method is
    mentioned only by an attribute read, or by a plain name in its own
    class body."""
    mentions: dict = {}  # name -> {(path, line, attribute)}
    for root in READERS:
        for path in sorted(root.rglob("*.py")):
            for name, line, attribute in _references(ast.parse(path.read_text(), str(path))):
                mentions.setdefault(name, set()).add((path, line, attribute))
    exempt = set(hlya.__all__) | set(KEEP)
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        # method -> its class's lines, where a plain name reaches it (__setattr__ = _immutable)
        methods = {
            id(node): (cls.lineno, cls.end_lineno)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name in exempt or (name.startswith("__") and name.endswith("__")):
                continue
            outside = [
                (where, line)
                for where, line, attribute in mentions.get(name, ())
                if (attribute or id(node) not in methods or where == path and _within(methods[id(node)], line))
                and (where != path or not node.lineno <= line <= node.end_lineno)
            ]
            if not outside:
                unreached.append(f"{path.stem}.{name}")
    return unreached


def test_every_definition_is_reached_outside_the_tests():
    assert _unreached() == []
