"""Command-line front end.

Exit codes: 0 = analysis ran (reported failures are data, not errors),
2 = invalid input (parse/validation, or an algebra that fails its axioms
where a command needs a Hom-Lie-Yamaguti algebra), 3 = internal theorem
violation -- the latter should never happen on valid data and indicates a
bug.  On exit 3 the second stderr line is ``witness: `` and one JSON
object: the error's class name under "class" and its witness attributes.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import serialize
from .errors import AxiomError, InputError, TheoremViolationError
from .exactlin import rat_str

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_THEOREM = 3

# One command path: _run loads the file named by the command's first
# positional argument, an algebra or a deformation, and names the report's
# command and subject; each handler takes that value and ``args`` and returns
# only the fields it computes.  Handlers import the modules they need, so a
# command loads only those, and the parser spells out these defaults, which
# tests pin to derivations.DEFAULT_K_MAX and sorted(coboundary.OPERATORS).
DEFAULT_K_MAX = 3
OPERATOR_LEVELS = ("1", "2", "3", "d2")


def _run(args) -> dict:
    """The report of ``args.command``: its name, its subject and its handler's fields."""
    if "algebra" in vars(args):
        value = serialize.load_algebra(args.algebra)
        subject = {"algebra": value.name or args.algebra}
    else:
        value = serialize.load_deformation(args.deformation)
        subject = {"base": value.base.name}
    return {"command": args.command, **subject, **args.run(value, args)}


def _report_check(a, args) -> dict:
    from .algebra import check_axioms

    report = check_axioms(a)
    return {
        "dim": a.dim,
        "passed": {str(k): v for k, v in report.passed.items()},
        "counterexamples": {str(k): list(v) for k, v in report.counterexamples.items()},
        "all_passed": report.all_passed,
    }


def _on_algebra(a, compute):
    """compute(a), whose theorems hold for Hom-Lie-Yamaguti algebras only.

    So a theorem violation on an algebra that fails its axioms is invalid
    input: AxiomError, chained, naming the failing identities and the first
    counterexample.  Only a violation runs the axiom check."""
    try:
        return compute(a)
    except TheoremViolationError as exc:
        from .algebra import check_axioms

        report = check_axioms(a)
        if report.all_passed:
            raise
        first = report.failing()[0]
        raise AxiomError(
            f"not a Hom-Lie-Yamaguti algebra: identities {report.failing()} fail, "
            f"identity {first} first at basis tuple {report.counterexamples[first]}"
        ) from exc


def _report_cohomology(a, args) -> dict:
    from .cohomology import cohomology_report

    report = _on_algebra(a, cohomology_report)
    return {
        "dims": report.dims(),
        "h1_basis": [
            [rat_str(x) for x in report.h1.basis.column(j)] for j in range(report.h1.dim)
        ],
    }


def _report_derive(a, args) -> dict:
    # the closure theorem needs only maps that commute with alpha, not the
    # axioms, so a violation here stays a theorem violation
    from .derivations import check_der_is_lie, derivation_space

    closure = check_der_is_lie(a, args.k_max)
    return {
        "k_max": args.k_max,
        "dims": {str(k): dim for k, dim in closure.dims.items()},
        "bases": {
            str(k): [[[rat_str(x) for x in row] for row in m.data] for m in derivation_space(a, k).matrices(a.dim)]
            for k in closure.dims
        },
        "closure_checked_pairs": closure.checked_pairs,
    }


def _deformation_report(report) -> dict:
    return {
        "ok": report.ok,
        "failures": {
            f"eq{eq}@n={n}": list(v)
            for (eq, n), v in sorted(report.failures.items())
            if v is not None
        },
    }


def _report_deform_check(d, args) -> dict:
    from .deformation import verify_deformation

    return {"order": d.order, **_deformation_report(verify_deformation(d))}


def _report_trivialize(d, args) -> dict:
    from .deformation import trivialize

    result = trivialize(d)
    out = {"order": d.order, "trivial": result.trivial}
    if result.trivial:
        out["gauge"] = serialize.gauge_to_obj(result.gauge)
    else:
        out["obstructed_at"] = result.obstructed_at
        f_r, g_r = result.representative
        out["representative"] = {
            "f": serialize.cochain_to_obj(f_r),
            "g": serialize.cochain_to_obj(g_r),
        }
    return out


def _report_equiv(d1, args) -> dict:
    from .deformation import verify_equivalence

    d2 = serialize.load_deformation(args.other)
    p = serialize.load_gauge(args.gauge)
    return {"order": d1.order, "equivalent": verify_equivalence(d1, d2, p)}


def _report_obstruct(d, args) -> dict:
    from .deformation import infinitesimal, obstruction_pair, second_order_probe, solve_second_order

    f1, g1 = infinitesimal(d)
    pair = obstruction_pair(d.base, f1, g1)
    out = {
        "in_z4z5": pair.in_z4z5,
        "F": serialize.cochain_to_obj(pair.first),
        "G": serialize.cochain_to_obj(pair.second),
    }
    if d.order >= 2 and not (d.f_seq[2].is_zero() and d.g_seq[2].is_zero()):
        f2, g2 = d.f_seq[2], d.g_seq[2]
    else:
        solved = solve_second_order(d.base, f1, g1)
        f2, g2 = solved if solved is not None else (None, None)
    if f2 is None:
        out["probe"] = None
        out["probe_note"] = "no second-order term solves the extension equation"
    else:
        try:
            probe = second_order_probe(d.base, f1, g1, f2, g2)
        except InputError as exc:
            out["probe"] = None
            out["probe_note"] = str(exc)
        else:
            out["probe"] = {
                f"eq{eq}@n=2": None if v is None else list(v)
                for eq, v in sorted(probe.failures.items())
            }
            out["extension_closes"] = probe.extension_closes
    return out


def _report_dump_operator(a, args) -> dict:
    from .coboundary import operator_by_level

    op = _on_algebra(a, lambda a: operator_by_level(a, args.level))
    return {
        "level": args.level,
        "domain_dims": [s.dim for s in op.domain],
        "codomain_dims": [s.dim for s in op.codomain],
        "matrix": serialize.matrix_to_obj(op.matrix),
    }


def _render_table(obj, indent: int = 0, out=None) -> str:
    lines = [] if out is None else out
    pad = "  " * indent
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                _render_table(v, indent + 1, lines)
            else:
                lines.append(f"{pad}{k}: {v if v or v == 0 or v is False else '-'}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                _render_table(v, indent, lines)
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{obj}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hlya",
        description="Exact computations for twisted binary/ternary algebras: "
        "axioms, cohomology, derivations, deformations.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="json")
    common.add_argument("--output", help="write the report here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(parents=[common], name="check", help="verify the defining axioms of an algebra file")
    p.add_argument("algebra")
    p.set_defaults(run=_report_check)

    p = sub.add_parser(parents=[common], name="cohomology", help="cocycle/coboundary/cohomology dimensions")
    p.add_argument("algebra")
    p.set_defaults(run=_report_cohomology)

    p = sub.add_parser(parents=[common], name="derive", help="twisted derivation spaces and closure check")
    p.add_argument("algebra")
    p.add_argument("--k-max", type=int, default=DEFAULT_K_MAX, dest="k_max")
    p.set_defaults(run=_report_derive)

    p = sub.add_parser(parents=[common], name="deform-check", help="verify the deformation equations")
    p.add_argument("deformation")
    p.set_defaults(run=_report_deform_check)

    p = sub.add_parser(parents=[common], name="trivialize", help="construct a trivializing gauge or report the obstruction")
    p.add_argument("deformation")
    p.set_defaults(run=_report_trivialize)

    p = sub.add_parser(parents=[common], name="equiv", help="check that a gauge carries one deformation to another")
    p.add_argument("deformation")
    p.add_argument("other")
    p.add_argument("gauge")
    p.set_defaults(run=_report_equiv)

    p = sub.add_parser(parents=[common], name="obstruct", help="obstruction pair of the infinitesimal + second-order probe")
    p.add_argument("deformation")
    p.set_defaults(run=_report_obstruct)

    p = sub.add_parser(parents=[common], name="dump-operator", help="dump one coboundary operator matrix")
    p.add_argument("algebra")
    p.add_argument("level", choices=OPERATOR_LEVELS)
    p.set_defaults(run=_report_dump_operator)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = _run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TheoremViolationError as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        witness = {name: getattr(exc, name) for name in exc.witness}
        print("witness:", json.dumps({"class": type(exc).__name__, **witness}, sort_keys=True), file=sys.stderr)
        return EXIT_THEOREM
    if args.format == "json":
        text = serialize.dumps(report)
    else:
        text = _render_table(report) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
