"""Spans and counters recorded around calls into hlya's public functions.

Nothing in the package is instrumented: :func:`install` replaces each
traced function, wherever a loaded ``hlya`` module (or a module-level dict
such as ``coboundary.OPERATORS``) holds a reference to it, by a wrapper
that records a span and, for some layers, counts work derived from the
call's inputs or its returned shapes.  :func:`Tracer.uninstall` puts the
originals back.

Counts are keyed by input (algebra, arity, level ...), not by whether a
package cache hit, so they repeat exactly whatever the cache policy.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# Codomain arities of the four coboundary operators, by level.
CODOMAIN_ARITIES = {"1": (2, 3), "2": (4, 5), "d2": (3, 4), "3": (6, 7)}
# Arity of the basis tuples each of the eight deformation equations runs over.
EQUATION_ARITIES = (2, 3, 2, 3, 3, 4, 4, 5)


def _operator_counts(level):
    def count(tracer, args, kwargs, op):
        a = args[0]
        if not tracer.first(("operator", level, a)):
            return
        evals = sum(len(s.rep_tuples) for s in op.codomain)
        tracer.counts["coboundary.assembly.columns"] += op.domain_dim
        tracer.counts["coboundary.assembly.tuple_evals"] += op.domain_dim * evals
        tracer.counts["coboundary.matrix.nnz"] += sum(
            1 for row in op.matrix.data for x in row if x
        )

    return count


def _audit_counts(tracer, args, kwargs, audited):
    a, level = args[0], args[1]
    tracer.counts["coboundary.audit.cochains"] += audited
    tracer.counts["coboundary.audit.tuple_evals"] += audited * sum(
        a.dim**n for n in CODOMAIN_ARITIES[level]
    )


def _space_counts(tracer, args, kwargs, space):
    if tracer.first(("space", space.algebra, space.arity, space.pairs)):
        tracer.counts["cochain.reduced_coords"] += space.reduced_dim
        tracer.counts["cochain.basis_dim"] += space.dim


def _elimination(kind):
    def count(tracer, args, kwargs, result):
        m = args[0]
        tracer.counts["exactlin.calls"] += 1
        if kind == "kernel":
            tracer.counts["exactlin.entries"] += m.rows * m.cols
            tracer.counts["exactlin.rank_sum"] += m.cols - result.dim
        elif kind == "image":
            tracer.counts["exactlin.entries"] += m.rows * m.cols
            tracer.counts["exactlin.rank_sum"] += result.dim
        elif kind == "solve":
            tracer.counts["exactlin.entries"] += m.rows * (m.cols + 1)

    return count


def _verify_counts(tracer, args, kwargs, report):
    d = args[0]
    per_order = sum(d.base.dim**n for n in EQUATION_ARITIES)
    tracer.counts["deformation.verify.tuple_evals"] += (d.order + 1) * per_order


def _closure_counts(tracer, args, kwargs, report):
    tracer.counts["derivations.closure.pairs"] += report.checked_pairs


def _dump_counts(tracer, args, kwargs, text):
    tracer.counts["serialize.bytes_out"] += len(text.encode())


# (module, function) -> (span name, counter hook or None)
TRACED = {
    ("algebra", "check_axioms"): ("algebra.check_axioms", None),
    ("cochain", "build_cochain_space"): ("cochain.build_space", _space_counts),
    ("coboundary", "delta1"): ("coboundary.delta1", _operator_counts("1")),
    ("coboundary", "delta2"): ("coboundary.delta2", _operator_counts("2")),
    ("coboundary", "d2"): ("coboundary.d2", _operator_counts("d2")),
    ("coboundary", "delta3"): ("coboundary.delta3", _operator_counts("3")),
    ("coboundary", "verify_well_definedness"): ("coboundary.audit", _audit_counts),
    ("exactlin", "kernel_basis"): ("exactlin.kernel", _elimination("kernel")),
    ("exactlin", "image_basis"): ("exactlin.image", _elimination("image")),
    ("exactlin", "quotient_dim"): ("exactlin.quotient", _elimination("quotient")),
    ("exactlin", "solve"): ("exactlin.solve", _elimination("solve")),
    ("cohomology", "cohomology_report"): ("cohomology.report", None),
    ("derivations", "derivation_space"): ("derivations.space", None),
    ("derivations", "check_der_is_lie"): ("derivations.closure", _closure_counts),
    ("deformation", "verify_deformation"): ("deformation.verify", _verify_counts),
    ("deformation", "apply_gauge"): ("deformation.apply_gauge", None),
    ("deformation", "trivialize"): ("deformation.trivialize", None),
    ("deformation", "obstruction_pair"): ("deformation.obstruction", None),
    ("deformation", "solve_second_order"): ("deformation.solve_second_order", None),
    ("deformation", "second_order_probe"): ("deformation.probe", None),
    ("serialize", "load_algebra"): ("serialize.load", None),
    ("serialize", "load_deformation"): ("serialize.load", None),
    ("serialize", "load_gauge"): ("serialize.load", None),
    ("serialize", "dumps"): ("serialize.dump", _dump_counts),
    ("serialize", "matrix_to_obj"): ("serialize.dump", None),
    ("serialize", "cochain_to_obj"): ("serialize.dump", None),
    ("serialize", "gauge_to_obj"): ("serialize.dump", None),
}

class Tracer:
    """In-memory span recorder; spans are (name, start, end, parent index)."""

    def __init__(self, clock=time.perf_counter):
        """``clock`` stamps span starts and ends; the default is wall time."""
        self._clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._seen: set = set()
        self._patched: list = []

    def first(self, key) -> bool:
        """True the first time ``key`` is seen by this tracer."""
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around benchmark code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self._clock(), None, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = self._clock()

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            self.counts[name + ".calls"] += 1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function in all loaded hlya modules."""
        wrappers = {}
        for (mod_name, fn_name), (span, hook) in TRACED.items():
            fn = getattr(importlib.import_module("hlya." + mod_name), fn_name)
            wrappers[id(fn)] = (fn, self._wrap(span, fn, hook))
        modules = [m for n, m in sys.modules.items() if n == "hlya" or n.startswith("hlya.")]
        for module in modules:
            namespaces = [vars(module)] + [
                value for key, value in vars(module).items()
                if isinstance(value, dict) and not key.startswith("__")
            ]
            for namespace in namespaces:
                for key, value in list(namespace.items()):
                    entry = wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        self._patch(namespace, key, entry[1])

    def _patch(self, container: dict, key, wrapper) -> None:
        self._patched.append((container, key, container[key]))
        container[key] = wrapper

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patched):
            container[key] = original
        self._patched.clear()

    def self_times(self) -> dict:
        """Seconds per span name, minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return dict(out)

    def export(self) -> dict:
        """Self times and counts, as one JSON-ready dict."""
        return {"self_s": self.self_times(), "counts": dict(self.counts)}
