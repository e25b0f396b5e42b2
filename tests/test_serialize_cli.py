"""JSON round trips, bundled golden files, and the command-line interface."""

import hashlib
import inspect
import json
import os
import random

import pytest

from hlya import cohomology, deformation, serialize
from hlya.algebra import check_axioms
from hlya.cli import EXIT_INPUT, EXIT_OK, EXIT_THEOREM, main
from hlya.coboundary import CoboundaryMap, d2, delta2
from hlya.cochain import Cochain
from hlya.deformation import (
    Deformation,
    apply_gauge,
    bracket_cochain,
    identity_gauge,
    null_deformation,
    random_gauge,
    ternary_cochain,
    verify_deformation,
)
from hlya.errors import NotCocycleError
from hlya.exactlin import Matrix, kernel_basis, rat, vstack
from hlya.serialize import ParseError

from fraction_reference import dense, from_columns, pair_from_coords

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def _golden(name):
    return os.path.join(DATA, name)


# --- round trips -----------------------------------------------------------


def test_algebra_round_trip(bundled):
    for a in bundled:
        assert serialize.algebra_from_obj(serialize.algebra_to_obj(a)) == a


def test_cochain_round_trip(e1):
    c = Cochain(2, 2, {(0, 1): (rat("1/2"), rat(-3)), (1, 0): (rat("-1/2"), rat(3))})
    obj = serialize.cochain_to_obj(c)
    assert serialize.cochain_from_obj(obj, 2, 2) == c


def test_cochain_duplicate_entries_rejected():
    # a repeated (arguments, output index) key is an input error, not a sum
    entries = [[1, 2, 1, "1/3"], [1, 2, 1, "2/3"]]
    with pytest.raises(ParseError, match=r"^cochain\[1\]: repeats the key of entry 0$"):
        serialize.cochain_from_obj(entries, 2, 2)
    # the same arguments at another output index are another key
    c = serialize.cochain_from_obj([[1, 2, 1, "1/3"], [1, 2, 2, "2/3"]], 2, 2)
    assert c.value((0, 1)) == (rat("1/3"), rat("2/3"))


def test_deformation_and_gauge_round_trip(e1):
    d = null_deformation(e1, 2)
    obj = serialize.deformation_to_obj(d)
    assert serialize.deformation_from_obj(obj) == d
    p = random_gauge(e1, 2, random.Random(13))
    assert serialize.gauge_from_obj(serialize.gauge_to_obj(p)) == p


def test_save_writes_what_dumps_returns(tmp_path, e1):
    path = tmp_path / "aff1.json"
    serialize.save(str(path), serialize.algebra_to_obj(e1))
    assert path.read_text() == serialize.dumps(serialize.algebra_to_obj(e1))
    assert serialize.load_algebra(str(path)) == e1


def _matrix_from_obj(obj):
    """The matrix that a matrix_to_obj object describes; no file format
    reads a matrix, so only these round trips need the reader."""
    columns = [[0] * obj["rows"] for _ in range(obj["cols"])]
    for i, j, value in obj["entries"]:
        columns[j - 1][i - 1] = rat(value)
    return from_columns(columns, obj["rows"])


def test_matrix_round_trip(e2):
    from hlya.coboundary import delta1

    m = delta1(e2).matrix
    assert _matrix_from_obj(serialize.matrix_to_obj(m)) == m


def test_matrix_round_trip_keeps_the_declared_shape():
    # a matrix with no rows still has its columns: dump-operator writes a
    # 0 x n delta2 where C4 x C5 is zero
    for m in (Matrix.zeros(0, 3), Matrix.zeros(3, 0), Matrix.zeros(0, 0), Matrix([[0, rat("-3/2")], [2, 0], [0, 0]])):
        obj = serialize.matrix_to_obj(m)
        back = _matrix_from_obj(obj)
        assert back == m and (back.rows, back.cols) == (m.rows, m.cols), obj
    assert _matrix_from_obj({"rows": 1, "cols": 2, "entries": [[1, 2, "0"]]}) == Matrix.zeros(1, 2)


def test_dumps_deterministic(e2):
    obj = serialize.algebra_to_obj(e2)
    assert serialize.dumps(obj) == serialize.dumps(json.loads(serialize.dumps(obj)))


def test_parse_errors():
    with pytest.raises(ParseError):
        serialize.algebra_from_obj({"dim": 0})
    with pytest.raises(ParseError):
        serialize.algebra_from_obj({"dim": 2, "binary": [[2, 1, ["1", "0"]]]})
    with pytest.raises(ParseError):
        serialize.cochain_from_obj([[1, 2, 1, "1/0"]], 2, 2)
    with pytest.raises(ParseError):
        serialize.load_json(_golden("does_not_exist.json"))


# --- bundled goldens -------------------------------------------------------


def test_goldens_parse_and_pass_axioms(bundled):
    names = ["e0_abelian.json", "e1_aff1.json", "e2_sl2.json", "e3_heisenberg.json"]
    for name, expected in zip(names, bundled):
        a = serialize.load_algebra(_golden(name))
        assert check_axioms(a).all_passed
        assert a == expected


def test_golden_deformation_resolves_base_reference():
    d = serialize.load_deformation(_golden("e0_plus_aff.json"))
    assert d.base.dim == 2 and d.order == 2
    assert verify_deformation(d).ok


# --- command line ----------------------------------------------------------


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_check_ok(capsys):
    code, out, _ = _run(capsys, "check", _golden("e2_sl2.json"))
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["all_passed"] is True
    assert report["dim"] == 3


def test_cli_check_reports_failures_with_exit_zero(tmp_path, capsys):
    # axiom failure is an analysis verdict, not an input error
    obj = {
        "name": "broken",
        "dim": 2,
        "binary": [[1, 2, ["1", "0"]]],
        "ternary": [[1, 2, 1, ["0", "1"]]],
    }
    path = tmp_path / "broken.json"
    path.write_text(serialize.dumps(obj))
    code, out, _ = _run(capsys, "check", str(path))
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["all_passed"] is False
    assert report["counterexamples"]


def test_cli_input_errors(tmp_path, capsys):
    code, _, err = _run(capsys, "check", str(tmp_path / "missing.json"))
    assert code == EXIT_INPUT and "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _run(capsys, "check", str(bad))
    assert code == EXIT_INPUT


def _aff1_obj(**changes):
    with open(_golden("e1_aff1.json")) as fh:
        return {**json.load(fh), **changes}


_BASE = os.path.abspath(_golden("e0_abelian.json"))


def _deformation_obj(**changes):
    # the e0_plus_aff golden, with its base given by an absolute path
    with open(_golden("e0_plus_aff.json")) as fh:
        return {**json.load(fh), "base": _BASE, **changes}


@pytest.mark.parametrize(
    "command, obj, message",
    [
        ("check", _aff1_obj(dim=True), ".dim: expected a positive integer"),
        ("check", _aff1_obj(binary=[[True, 2, ["1", "0"]]]), ".binary[0]: need 1 <= i < j <= 2"),
        ("check", _aff1_obj(ternary=[[1, 2, True, ["1", "0"]]]), ".ternary[0]: need 1 <= i < j <= 2"),
        ("check", _aff1_obj(binary=[[1, 2, ["1", False]]]), ".binary[0][2][1]: not a rational: False"),
        ("check", _aff1_obj(binary=5), ".binary: expected a list"),
        ("check", _aff1_obj(ternary={"1": 2}), ".ternary: expected a list"),
        ("deform-check", _deformation_obj(order=True), ".order: expected a nonnegative integer"),
        ("deform-check", _deformation_obj(f=[[True, []]]), ".f[0]: order index must lie in 1..2"),
        ("deform-check", _deformation_obj(f=[[1, [[True, 2, 1, "1"]]]]), ".f[0][1][0]: argument indices"),
        ("deform-check", _deformation_obj(f=[[1, [[1, 2, True, "1"]]]]), ".f[0][1][0]: output index"),
        ("deform-check", _deformation_obj(f=7), ".f: expected a list"),
        ("deform-check", _deformation_obj(g="none"), ".g: expected a list"),
        ("equiv", {"base": _BASE, "order": True}, ".order: expected a nonnegative integer"),
        ("equiv", {"base": _BASE, "order": 2, "phi": [[True, [["0", "0"], ["0", "0"]]]]}, ".phi[0]: order index"),
        ("equiv", {"base": _BASE, "order": 2, "phi": 5}, ".phi: expected a list"),
        # a JSON float is no rational: an algebra entry, a cochain coefficient, a gauge matrix entry
        ("check", _aff1_obj(binary=[[1, 2, [0.5, "0"]]]), ".binary[0][2][0]: not a rational: 0.5"),
        ("deform-check", _deformation_obj(f=[[1, [[1, 2, 1, 1.0]]]]), ".f[0][1][0]: not a rational: 1.0"),
        ("equiv", {"base": _BASE, "order": 1, "phi": [[1, [[0.1, "0"], ["0", "0"]]]]}, ".phi[0][1][0][0]: not a rational: 0.1"),
        # a key met twice: an algebra entry, a cochain entry, an order index, a gauge index
        ("check", _aff1_obj(binary=[[1, 2, ["1", "0"]], [1, 2, ["0", "1"]]]), ".binary[1]: repeats the key of entry 0"),
        ("check", _aff1_obj(ternary=[[1, 2, 2, ["1", "0"]], [1, 2, 2, ["1", "0"]]]), ".ternary[1]: repeats the key of entry 0"),
        ("deform-check", _deformation_obj(f=[[1, [[1, 2, 1, "1"], [1, 2, 1, "1"]]]]), ".f[0][1][1]: repeats the key of entry 0"),
        ("trivialize", _deformation_obj(f=[*_deformation_obj()["f"], [1, []]]), ".f[1]: repeats the key of entry 0"),
        ("equiv", {"base": _BASE, "order": 2, "phi": [[1, [["0", "0"], ["0", "0"]]]] * 2}, ".phi[1]: repeats the key of entry 0"),
        # a key the kind of file does not have: misspelled, or a file of another kind
        ("check", _aff1_obj(binray=[[1, 2, ["1", "0"]]]), ".binray: unknown key; expected one of name, dim, binary, ternary, alpha"),
        ("equiv", _deformation_obj(), ".f: unknown key; expected one of base, order, phi"),
        ("deform-check", {"base": _BASE, "order": 1, "phi": []}, ".phi: unknown key; expected one of base, order, f, g"),
        ("deform-check", _deformation_obj(base={"dim": 2, "comment": ""}), ".base.comment: unknown key"),
        # a value of the wrong kind or shape: a file that is no object, an
        # entry, a coefficient list, an alpha, a name, a base
        ("check", [_aff1_obj()], ": expected an object"),
        ("check", _aff1_obj(binary=[[1, 2]]), ".binary[0]: expected [i, j, coefficients]"),
        ("check", _aff1_obj(binary=[[1, 2, ["1"]]]), ".binary[0][2]: expected a coefficient list of length 2"),
        ("check", _aff1_obj(alpha=[["1", "0"]]), ".alpha: expected 2 rows"),
        ("check", _aff1_obj(name=5), ".name: expected a string"),
        ("deform-check", _deformation_obj(base=5), ".base: expected an inline algebra object or a file reference"),
    ],
)
def test_cli_malformed_input_exits_2(tmp_path, capsys, command, obj, message):
    """Booleans where an integer or a rational belongs, non-lists where a
    list belongs and values of the wrong kind or shape are input errors:
    one error line naming the field path, exit 2, no traceback."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    argv = [command, str(path)]
    if command == "equiv":  # the malformed file is the gauge
        deformation = _golden("e0_plus_aff.json")
        argv = [command, deformation, deformation, str(path)]
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_cli_json_float_exits_2_and_exact_forms_still_read(tmp_path, capsys):
    """0.1 as a JSON float is the binary fraction 3602879701896397 / 2**55,
    not 1/10, so it is refused; integers and strings read as before."""
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps({"dim": 1, "alpha": [[0.1]]}))
    assert _run(capsys, "check", str(path)) == (EXIT_INPUT, "", f"error: {path}.alpha[0][0]: not a rational: 0.1\n")
    for written, value in ((2, 2), ("1/10", rat("1/10")), ("0.1", rat("1/10")), ("-3", -3)):
        assert dense(serialize.algebra_from_obj({"dim": 1, "alpha": [[written]]}))[2] == ((value,),)


def test_cli_non_utf8_input_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"dim": 1, "name": "\u00e9"}'.encode("latin-1"))
    code, _, err = _run(capsys, "check", str(path))
    assert code == EXIT_INPUT and err.startswith("error: ") and "not UTF-8 text" in err
    # also when it is the base a deformation refers to
    deformation = tmp_path / "deformation.json"
    deformation.write_text(json.dumps({"base": "latin1.json", "order": 0}))
    code, _, err = _run(capsys, "deform-check", str(deformation))
    assert code == EXIT_INPUT and ".base: " in err and "not UTF-8 text" in err


def test_cli_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = _run(capsys, "check", "--output", str(target), _golden("e0_abelian.json"))
    assert code == EXIT_INPUT and out == ""
    assert err.startswith(f"error: cannot write {target}: ") and not target.exists()


def test_cli_internal_shape_fault_exits_3(monkeypatch, capsys, e1):
    # a [delta2; d2] stack whose blocks disagree in width is a program
    # fault, so it must exit as a theorem violation, not as invalid input
    op = d2(e1)
    broken = CoboundaryMap(op.level, op.domain, op.codomain, Matrix.zeros(op.matrix.rows, 1))
    monkeypatch.setattr(cohomology, "d2", lambda a: broken)
    monkeypatch.setattr(cohomology, "h2h3", cohomology.h2h3.__wrapped__)
    code, out, err = _run(capsys, "cohomology", _golden("e1_aff1.json"))
    assert code == EXIT_THEOREM and out == ""
    message, witness = err.splitlines()
    assert message.startswith("theorem violation: ")
    assert witness == 'witness: {"class": "ShapeMismatchError"}'


def test_cli_theorem_violation_prints_its_witness(monkeypatch, capsys):
    def violated(a):
        raise NotCocycleError("step broke", step_order=2, equation=7, basis_tuple=(1, 2, 1, 2))

    monkeypatch.setattr(cohomology, "cohomology_report", violated)
    code, out, err = _run(capsys, "cohomology", _golden("e1_aff1.json"))
    assert code == EXIT_THEOREM and out == ""
    assert err.splitlines() == [
        "theorem violation: step broke",
        'witness: {"basis_tuple": [1, 2, 1, 2], "changed_order": null, "class": "NotCocycleError", '
        '"equation": 7, "order": null, "step_order": 2}',
    ]


def _broken_golden(tmp_path, golden, change) -> str:
    with open(_golden(golden)) as fh:
        obj = json.load(fh)
    change(obj)
    path = tmp_path / golden
    path.write_text(serialize.dumps(obj))
    return str(path)


def _set_alpha_diag_1_2(obj):
    obj["alpha"] = [["1", "0"], ["0", "2"]]


def _double_e2_e3(obj):
    assert obj["binary"][2][:2] == [2, 3]
    obj["binary"][2] = [2, 3, ["2", "0", "0"]]


@pytest.mark.parametrize(
    "golden, change, argv, failing",
    [
        ("e1_aff1.json", _set_alpha_diag_1_2, ["cohomology"], "identities [1, 2] fail, identity 1 first at basis tuple (1, 2)"),
        ("e1_aff1.json", _set_alpha_diag_1_2, ["dump-operator", "1"], "identities [1, 2] fail"),
        ("e2_sl2.json", _double_e2_e3, ["cohomology"], "identities [7] fail, identity 7 first at basis tuple (1, 2, 1, 3)"),
    ],
    ids=["aff1-alpha-cohomology", "aff1-alpha-dump-operator", "sl2-bracket-cohomology"],
)
def test_cli_algebra_failing_its_axioms_exits_2(tmp_path, capsys, golden, change, argv, failing):
    # the theorems behind cohomology and the operators need a
    # Hom-Lie-Yamaguti algebra, so their violation on another is bad input
    path = _broken_golden(tmp_path, golden, change)
    assert not check_axioms(serialize.load_algebra(path)).all_passed
    command, *rest = argv
    code, out, err = _run(capsys, command, path, *rest)
    assert code == EXIT_INPUT and out == ""
    [line] = err.splitlines()
    assert line.startswith("error: not a Hom-Lie-Yamaguti algebra: ") and failing in line


def test_cli_cohomology_and_table_format(capsys):
    code, out, _ = _run(capsys, "cohomology", _golden("e1_aff1.json"))
    assert code == EXIT_OK
    assert json.loads(out)["dims"]["h1"] == 2
    code, out, _ = _run(capsys, "cohomology", "--format", "table", _golden("e1_aff1.json"))
    assert code == EXIT_OK
    assert "h1: 2" in out


def test_cli_derive(capsys):
    code, out, _ = _run(capsys, "derive", "--k-max", "2", _golden("e3_heisenberg.json"))
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["dims"] == {"0": 3, "1": 3, "2": 3}
    assert report["closure_checked_pairs"] > 0


def test_cli_deform_check(capsys):
    code, out, _ = _run(capsys, "deform-check", _golden("e0_plus_aff.json"))
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["ok"] is True and report["failures"] == {}


def test_cli_deform_check_reports_the_failures_of_a_first_order_term_that_is_no_cocycle(capsys):
    # data/e2_sl2_not_cocycle.json: on sl2, g1 = {e1 e2 e1} = e1 with its
    # alternated copy is a 3-cochain that breaks identities 7 and 8 at
    # order 1; a failing report is a result, so the exit is 0
    code, out, err = _run(capsys, "deform-check", _golden("e2_sl2_not_cocycle.json"))
    assert code == EXIT_OK and err == ""
    report = json.loads(out)
    assert report["ok"] is False and report["order"] == 1
    assert report["failures"] == {"eq7@n=1": [1, 2, 1, 2], "eq8@n=1": [1, 2, 1, 2, 1]}
    code, out, err = _run(capsys, "deform-check", "--format", "table", _golden("e2_sl2_not_cocycle.json"))
    assert code == EXIT_OK and err == ""
    assert "ok: False" in out.splitlines() and "  eq7@n=1:" in out.splitlines()


def test_cli_deform_check_rejects_a_coefficient_listed_at_one_tuple(tmp_path, capsys):
    # f1 given at (1, 2) only: its value at (2, 1) is then zero, not the
    # negative, so f1 is no cochain and the file is an input error
    with open(_golden("e0_plus_aff.json")) as fh:
        obj = json.load(fh)
    obj["base"] = os.path.abspath(_golden(obj["base"]))
    obj["f"][0][1] = [entry for entry in obj["f"][0][1] if entry[:2] == [1, 2]]
    assert obj["f"][0][1]
    path = tmp_path / "half.json"
    path.write_text(json.dumps(obj))
    code, out, err = _run(capsys, "deform-check", str(path))
    assert code == EXIT_INPUT and out == ""
    assert "not a cochain" in err and "pair-antisymmetry" in err


def test_cli_obstruct_rejects_a_first_order_term_that_is_no_cocycle(tmp_path, capsys):
    # on aff1, f1(e1, e2) = e2 with g1 = 0 breaks identity 7 at order 1
    obj = {"base": os.path.abspath(_golden("e1_aff1.json")), "order": 1, "f": [[1, [[1, 2, 2, "1"], [2, 1, 2, "-1"]]]]}
    path = tmp_path / "not_a_cocycle.json"
    path.write_text(json.dumps(obj))
    code, out, err = _run(capsys, "obstruct", str(path))
    assert code == EXIT_INPUT and out == ""
    assert err == "error: deformation equations fail through order 1: [(7, 1)]\n"


def test_cli_trivialize_obstructed(capsys):
    code, out, _ = _run(capsys, "trivialize", _golden("e0_plus_aff.json"))
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["trivial"] is False
    assert report["obstructed_at"] == 1
    assert report["representative"]["f"]


def test_cli_trivializes_the_gauged_aff1_golden(tmp_path, capsys, monkeypatch):
    """data/e1_aff1_gauged.json is the null deformation of aff1 at order 3
    moved by the gauge of data/e1_aff1_gauge.json, id + [[0,1],[0,0]]t +
    [[1,0],[0,0]]t^2 + [[0,0],[1,0]]t^3.  trivialize finds a gauge back to
    the null deformation through the gauge action, and equiv confirms the
    gauge of the file and the one trivialize found."""
    null, gauged, gauge = (_golden(f"e1_aff1_{name}.json") for name in ("null", "gauged", "gauge"))
    acted = []
    act = deformation._act

    def counted(d, phi):
        acted.append(phi)
        return act(d, phi)

    monkeypatch.setattr(deformation, "_act", counted)
    code, out, _ = _run(capsys, "trivialize", gauged)
    report = json.loads(out)
    assert code == EXIT_OK and report["trivial"] is True and report["order"] == 3 and acted
    assert report["gauge"]["phi"] == [[3, [["0", "0"], ["-1", "0"]]]]
    back = tmp_path / "back.json"
    back.write_text(json.dumps(report["gauge"]))
    equivalent = serialize.dumps({"base": "aff1", "command": "equiv", "equivalent": True, "order": 3})
    assert _run(capsys, "equiv", null, gauged, gauge) == (EXIT_OK, equivalent, "")
    assert _run(capsys, "equiv", gauged, null, str(back)) == (EXIT_OK, equivalent, "")


def test_cli_obstruct(capsys):
    code, out, _ = _run(capsys, "obstruct", _golden("e0_plus_aff.json"))
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["in_z4z5"] is True
    assert report["F"] == [] and report["G"] == []
    assert report["extension_closes"] is True


# bench/reference.json pins the standard output of the benchmark's fixed
# cli ops, keyed by the op's arguments with file paths from the repository
# root; the benchmark writes its gl2 input, bench/work/gl2.json, with the
# bytes of the golden data/e4_gl2.json.
ROOT = os.path.join(os.path.dirname(__file__), "..")
with open(os.path.join(ROOT, "bench", "reference.json")) as fh:
    BENCH_REFERENCE = json.load(fh)
BENCH_INPUTS = {"bench/work/gl2.json": "data/e4_gl2.json"}
DEFORMATION_COMMANDS = ("deform-check", "trivialize", "obstruct")
ALGEBRA_OPS = sorted(set(BENCH_REFERENCE) - {f"{command} data/e0_plus_aff.json" for command in DEFORMATION_COMMANDS})


def _matches_the_benchmark_reference(capsys, op: str):
    argv = [os.path.join(ROOT, BENCH_INPUTS.get(arg, arg)) if arg.endswith(".json") else arg for arg in op.split()]
    code, out, _ = _run(capsys, *argv)
    assert code == EXIT_OK
    data = out.encode()
    expected = BENCH_REFERENCE[op]
    assert (len(data), hashlib.sha256(data).hexdigest()) == (expected["bytes"], expected["sha256"])


@pytest.mark.parametrize("command", DEFORMATION_COMMANDS)
def test_cli_deformation_output_matches_the_benchmark_reference(command, capsys):
    _matches_the_benchmark_reference(capsys, f"{command} data/e0_plus_aff.json")


@pytest.mark.parametrize("op", ALGEBRA_OPS)
def test_cli_algebra_output_matches_the_benchmark_reference(op, capsys):
    # with the deformation ops above, every op of the reference is checked
    _matches_the_benchmark_reference(capsys, op)


# SHA-256 of `hlya trivialize` on sl2's null deformation of order 4 moved by
# random_gauge(sl2, 4, Random(12)): the trivial branch, which prints the gauge
SL2_TRIVIALIZE_SHA256 = "a1c8bcac27063cf42bd1375f684a5141fe37e26a4172819eeb7b1439b134bf83"


def test_cli_trivialize_prints_the_gauge_of_a_gauged_null_deformation(capsys, tmp_path, e2):
    d = apply_gauge(null_deformation(e2, 4), random_gauge(e2, 4, random.Random(12)))
    path = tmp_path / "gauged.json"
    path.write_text(serialize.dumps(serialize.deformation_to_obj(d)))
    code, out, _ = _run(capsys, "trivialize", str(path))
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["trivial"] is True and len(report["gauge"]["phi"]) == 4
    assert hashlib.sha256(out.encode()).hexdigest() == SL2_TRIVIALIZE_SHA256


# SHA-256 of the report below, whose probe_note is the probe's
# precondition error
OBSTRUCT_REJECTED_SHA256 = "9bd33649c4db7a873ff66fb684facd6e7478d199da36bd11a400ae51b399d36f"


def test_cli_obstruct_reports_a_second_order_term_that_does_not_solve(capsys, tmp_path, e1):
    # (f2, g2) = (f1, g1): delta2 kills the cocycle, but its obstruction pair
    # is nonzero, so the file's second-order term fails the probe
    z = kernel_basis(vstack(delta2(e1).matrix, d2(e1).matrix))
    coeffs = [rat(0), rat(-1), rat(1)]
    f1, g1 = pair_from_coords(e1, [sum(c * x for c, x in zip(coeffs, row)) for row in z.basis.data])
    d = Deformation(e1, 2, [bracket_cochain(e1), f1, f1], [ternary_cochain(e1), g1, g1])
    path = tmp_path / "rejected.json"
    path.write_text(serialize.dumps(serialize.deformation_to_obj(d)))
    code, out, _ = _run(capsys, "obstruct", str(path))
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["F"] and report["probe"] is None
    assert report["probe_note"] == (
        "(f2, g2) does not solve the second-order extension equation: "
        "delta2(f2, g2) must equal the obstruction pair"
    )
    assert hashlib.sha256(out.encode()).hexdigest() == OBSTRUCT_REJECTED_SHA256


def test_cli_obstruct_reports_that_no_second_order_term_solves(capsys, tmp_path, e0):
    # on abelian2 the obstruction pair of kernel vector 2 of [delta2; d2] is
    # a cocycle pair outside the image of delta2
    z = kernel_basis(vstack(delta2(e0).matrix, d2(e0).matrix))
    f1, g1 = pair_from_coords(e0, z.basis.column(2))
    d = Deformation(e0, 1, [bracket_cochain(e0), f1], [ternary_cochain(e0), g1])
    path = tmp_path / "unsolvable.json"
    path.write_text(serialize.dumps(serialize.deformation_to_obj(d)))
    code, out, _ = _run(capsys, "obstruct", str(path))
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["in_z4z5"] is True and (report["F"] or report["G"])
    assert report["probe"] is None
    assert report["probe_note"] == "no second-order term solves the extension equation"
    assert "extension_closes" not in report


def test_cli_equiv(tmp_path, capsys, e1):
    d = null_deformation(e1, 2)
    d_path = tmp_path / "d.json"
    d_path.write_text(serialize.dumps(serialize.deformation_to_obj(d)))
    g_path = tmp_path / "g.json"
    g_path.write_text(serialize.dumps(serialize.gauge_to_obj(identity_gauge(e1, 2))))
    code, out, _ = _run(capsys, "equiv", str(d_path), str(d_path), str(g_path))
    assert code == EXIT_OK
    assert json.loads(out)["equivalent"] is True


def test_cli_dump_operator(capsys):
    code, out, _ = _run(capsys, "dump-operator", _golden("e1_aff1.json"), "1")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["domain_dims"] == [4]
    assert report["codomain_dims"] == [2, 4]
    assert report["matrix"]["rows"] == 6


def test_cli_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, "check", "--output", str(target), _golden("e0_abelian.json")
    )
    assert code == EXIT_OK and out == ""
    assert json.loads(target.read_text())["all_passed"] is True


def test_cli_output_deterministic(tmp_path, capsys):
    t1, t2 = tmp_path / "a.json", tmp_path / "b.json"
    for t in (t1, t2):
        assert _run(capsys, "cohomology", "--output", str(t), _golden("e2_sl2.json"))[0] == EXIT_OK
    assert t1.read_bytes() == t2.read_bytes()


# SHA-256 of stdout for every command in JSON and in table format: the
# goldens, plus files the test writes for aff1 -- the null deformation of
# order 2, its image under random_gauge(aff1, 2, Random(5)), and that gauge
PINNED_OUTPUTS = {
    ("check e0_abelian.json", "json"): "74d953a3a9de8e15189b128b440358cead8b80ad2a513cb2af8caf123189da79",
    ("check e0_abelian.json", "table"): "dc29fbb612be253574fd000e448ef33eeaf4bbce7ab37fc5e0893459e1736c82",
    ("check e1_aff1.json", "json"): "c242ea0dcecbe0f4eee7cde8c771352291dbba190a63f89557ed06d8befbd51f",
    ("check e1_aff1.json", "table"): "2c4ab1b4289f787908e7ec9e66c061a4c70cbc1454443d2883853e4ecfe385aa",
    ("check e2_sl2.json", "json"): "4adb2f986785e5b77678d659eb56484afbbc3a33ab987d22c69edaa4935a97ca",
    ("check e2_sl2.json", "table"): "56e93b880b22ea3e813e40fa4b44ea64ac3186a04c61f0c427a2013f67d8a10d",
    ("check e3_heisenberg.json", "json"): "24b86cf2467fc1e8c9f2678c0cae96ddae3f79d7ac5621527137ed9bdf03ab5b",
    ("check e3_heisenberg.json", "table"): "5c0d4d8efaf89a94a4c465169b09be0aa3f0728134a8274ff3d5d98956fa6dff",
    ("check e4_gl2.json", "json"): "20649e5f1d150db34e624df81c6fe8776010f7384eeb4338bc87d24a03987db4",
    ("check e4_gl2.json", "table"): "2dcd1a0ce93fb932fff4d491b3da4bf510571f96e46ae72e6d0394d96a50cec2",
    ("cohomology e0_abelian.json", "json"): "e44c15c69bf4862f157f627c893ff842473719f3e76a0d5ecdf6f1d5c9952fdd",
    ("cohomology e0_abelian.json", "table"): "079bd42199573e8e79e7dbc68fe697e044a8e916603556dfc63529719ae7911f",
    ("cohomology e1_aff1.json", "json"): "8bc6a0de36991b43706b5b1210dbd0dfecf82fd31647d90b6f11cb90a5cca27d",
    ("cohomology e1_aff1.json", "table"): "a7e81ff8513863f6e4ca06be6506b85c592ef86c3dc42739aba212e77bd40105",
    ("cohomology e2_sl2.json", "json"): "eaeb594d489e5c0142c81b3500d0b09a69343e5ed6cd69f9ffdf97301fbc5c17",
    ("cohomology e2_sl2.json", "table"): "0c72d885fc64826848d439768b832b02f3121d5a42062d0615e20f33f051eeb5",
    ("cohomology e3_heisenberg.json", "json"): "52901b37674be38a13438760a36d61e54738210d94cf2af502049270c8c6416b",
    ("cohomology e3_heisenberg.json", "table"): "e2de7e3b2596f9f1ab61856529e67d6e19f439181e7d37f78fa4717b3f986336",
    ("cohomology e4_gl2.json", "json"): "44c18853109fc4a09955370e234ab1f45946e0ced00089a9d98bb8f5d7aac617",
    ("cohomology e4_gl2.json", "table"): "8ff30215cb27587c1b5c2f762be806ac9407ee6bba0df75528e929566ff9c341",
    ("derive e0_abelian.json", "json"): "cc6c1804b01a6ef70744b47d8776a01676c048d2b7ac8f5a9d395a87109af45c",
    ("derive e0_abelian.json", "table"): "3e187ea68076ee817bd7b1a7a2e86ae24a7e6559441c550122243dd6b5a8d0bd",
    ("derive e1_aff1.json", "json"): "c894bac97a747c01dcc9965d76b702244674e870521dec98db86a976523920e7",
    ("derive e1_aff1.json", "table"): "e1cfe7e3cab51117aceed7750d2132fa3015e0ec9e71eade31edc172212e407e",
    ("derive e2_sl2.json", "json"): "d64a5f3da4a0fff3767f837291434f5d135cf3973475dcfc0e444c2659eaf9a7",
    ("derive e2_sl2.json", "table"): "d1fc3fa580b1b8ace219f6acdef76ee51c1747ddb58f10319e035f6e23e4fc85",
    ("derive e3_heisenberg.json", "json"): "520e2f799c0582a7af6af59164fb7316324459ea748ec639ffb40a56cfe7da9e",
    ("derive e3_heisenberg.json", "table"): "6ebd03464815e3a104f6c4388a50039e58b2dc5792539b787ef4c70b075c7fb9",
    ("derive e4_gl2.json", "json"): "a481d1901f4f33c817b7a655fc207ff178de34f7c890898c69b977c51bf167b3",
    ("derive e4_gl2.json", "table"): "f0b3203d6e36558f2879e8b1123a7987b4431b44e781b7ed1256b0a7065c4e8a",
    ("dump-operator e0_abelian.json 3", "json"): "5164652d7c782ebe444d0cd78b4a6a5442bb9a1a6f8a434db7f674e421071a80",
    ("dump-operator e0_abelian.json 3", "table"): "13fa2fe636102e70ca772048b20fc39b03c1ba793dd916e9cff61841f1e19320",
    ("dump-operator e1_aff1.json 1", "json"): "de114a348a4397054230ce71b54a0e89161d2c7a1ace6c409b814e64f4bfe88e",
    ("dump-operator e1_aff1.json 1", "table"): "6840e5b2f53810431e8c261f95f778dcaf898a7a1fa6450c5637822862836eae",
    ("dump-operator e2_sl2.json d2", "json"): "b365d2062478cd06d93161545d20533c2d5b722ef7f58d796f50741be1c39754",
    ("dump-operator e2_sl2.json d2", "table"): "56eccf4b0aaef3573941311bc567960c74199ba1e1262ddfee1e5798a10648b0",
    ("dump-operator e3_heisenberg.json 2", "json"): "73dafbf1af71497a1fdcfb096783fd8fdfcf7644a98d61c907ea7f555260d092",
    ("dump-operator e3_heisenberg.json 2", "table"): "99f532a18b16993b18b6d1690da6810f3cc573ea20b202e47c84dbea1ead1f16",
    ("dump-operator e4_gl2.json 1", "json"): "153fbc9cbf9a6ec3d0f690550dcf68028708d24f3fe07dada792c5663138eea8",
    ("dump-operator e4_gl2.json 1", "table"): "1020eb73921c0e4b2f011dcb564eab08aca22a96a408926cb6b4f77fb851f59b",
    ("deform-check e0_plus_aff.json", "json"): "b6107d47f365b8a0ae9540c40100d77e4f70b8715bb9d8d1ee89cdf2a3541229",
    ("deform-check e0_plus_aff.json", "table"): "ff23728ddfcb69e0f353e9e170b3ed89ef2a388632a037ca17d9b9fa66c5aebb",
    ("deform-check e2_sl2_not_cocycle.json", "json"): "d88d4945a9bfa292782721f4ad973b105c7d92922165bb5a129621392038cc56",
    ("deform-check e2_sl2_not_cocycle.json", "table"): "eb11ae00ef22061b1bd78e2d1da22641f966d2beb93ac8ce7bc413c30e5ee186",
    ("trivialize e0_plus_aff.json", "json"): "58065792bc49792f308bc7fe844da74f9a4b64fcd7d7b6135ff889171d22d9c3",
    ("trivialize e0_plus_aff.json", "table"): "1282ebb95a26e2be2b0467a5fd145f6c28e54cc10c98570fc8a7ab65e2e2c01e",
    ("obstruct e0_plus_aff.json", "json"): "52f2cf8ad861ac2931957cf002ab819f259429aed7dbc9bf1a9039c4fa8aa6a1",
    ("obstruct e0_plus_aff.json", "table"): "033987d1a5d2ce81fce85e73882ce6c1f1a2984b6012dd0f1e1021d3be2d68fd",
    ("trivialize moved.json", "json"): "54fceb8ddd405c40ce51d3ab9f72be8fbeaf323fdd4f45a0be799c680f5fa795",
    ("trivialize moved.json", "table"): "ab26bd7a37b0bfd421728ba3d8041bd112f08f3bb66dcd1f1688e5e70ce79b51",
    ("equiv null.json moved.json gauge.json", "json"): "5d6353b9d92dd5937064b27b81a58b4f8050f067ea3ce0c7878edf61014b41b3",
    ("equiv null.json moved.json gauge.json", "table"): "82dde3dcae6496b99883410a6cd347b87930830831053c5281407f982fed7a23",
    ("equiv null.json null.json gauge.json", "json"): "eb45661b9696cde58126cf47f5a212d99b920edef622f336bb9830c43c6b70a3",
    ("equiv null.json null.json gauge.json", "table"): "8ed570f980f438a2891434e141cd6234687bf8f80bbbbb8492046c33d3f85af3",
}


@pytest.fixture(scope="module")
def aff1_gauge_files(tmp_path_factory, e1):
    d = null_deformation(e1, 2)
    p = random_gauge(e1, 2, random.Random(5))
    folder = tmp_path_factory.mktemp("aff1_gauge")
    for name, obj in (
        ("null.json", serialize.deformation_to_obj(d)),
        ("moved.json", serialize.deformation_to_obj(apply_gauge(d, p))),
        ("gauge.json", serialize.gauge_to_obj(p)),
    ):
        (folder / name).write_text(serialize.dumps(obj))
    return folder


@pytest.mark.parametrize("op, fmt", sorted(PINNED_OUTPUTS))
def test_cli_output_is_pinned_in_both_formats(op, fmt, capsys, aff1_gauge_files):
    # a file is a golden unless the fixture wrote it
    command, *words = op.split()
    paths = {w: _golden(w) if os.path.exists(_golden(w)) else str(aff1_gauge_files / w) for w in words if w.endswith(".json")}
    code, out, err = _run(capsys, command, "--format", fmt, *(paths.get(w, w) for w in words))
    assert code == EXIT_OK and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_OUTPUTS[op, fmt]


# --- package and CLI imports ------------------------------------------------


def test_cli_defaults_match_the_library():
    # the parser spells these out so that it imports neither module
    from hlya import cli, coboundary, derivations

    args = cli.build_parser().parse_args(["derive", "x.json"])
    assert args.k_max == derivations.DEFAULT_K_MAX == 3
    assert list(cli.OPERATOR_LEVELS) == sorted(coboundary.OPERATORS) == ["1", "2", "3", "d2"]
    for level in cli.OPERATOR_LEVELS:
        assert cli.build_parser().parse_args(["dump-operator", "x.json", level]).level == level
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["dump-operator", "x.json", "5"])


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--order", "3", "x.json"],
        ["obstruct", "--seed", "1", "x.json"],
        ["cohomology", "--k-max", "2", "x.json"],
    ],
)
def test_cli_rejects_options_the_command_does_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    assert "unrecognized arguments" in capsys.readouterr().err


def _modules_loaded_by(*argv) -> list:
    """The hlya modules a fresh interpreter has loaded after one command."""
    import subprocess
    import sys

    code = (
        "import json, sys\n"
        "from hlya.cli import main\n"
        f"assert main({list(argv)!r}) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('hlya'))))\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120, check=True
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def _imports_of(*args) -> set:
    """The modules a fresh interpreter imports when run with ``args``, as
    -X importtime lists them."""
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    err = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True, env=env, timeout=120, check=True
    ).stderr
    return {line.rsplit("|", 1)[1].strip() for line in err.splitlines() if line.startswith("import time:")}


@pytest.mark.parametrize("command, golden", [("cohomology", "e1_aff1.json"), ("trivialize", "e0_plus_aff.json")])
def test_cli_loads_neither_dataclasses_nor_inspect(command, golden):
    loaded = _imports_of("-m", "hlya.cli", command, _golden(golden)) - _imports_of("-c", "pass")
    assert "hlya.algebra" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_cli_cohomology_loads_only_what_it_uses():
    loaded = _modules_loaded_by("cohomology", _golden("e1_aff1.json"))
    assert "hlya.cohomology" in loaded
    for name in ("hlya.deformation", "hlya.derivations", "hlya.samples"):
        assert name not in loaded


def test_cli_derive_loads_only_what_it_uses():
    loaded = _modules_loaded_by("derive", _golden("e3_heisenberg.json"))
    assert "hlya.derivations" in loaded
    for name in ("hlya.deformation", "hlya.cohomology", "hlya.samples"):
        assert name not in loaded


def test_every_public_name_resolves():
    import hlya

    assert len(hlya.__all__) == len(set(hlya.__all__))
    for name in hlya.__all__:
        assert getattr(hlya, name) is not None, name
    with pytest.raises(AttributeError):
        hlya.no_such_name
    # apply_operator is the one way to apply an operator's formulas
    assert "apply_operator" in hlya.__all__
    removed = ["apply_d2_pair", "apply_delta1_single", "apply_delta2_pair", "apply_delta3_pair", "coords_of_map"]
    for name in removed:
        assert name not in hlya.__all__
        with pytest.raises(AttributeError):
            getattr(hlya, name)
    from hlya import coboundary, cochain, samples

    for module, names in ((coboundary, removed[:4]), (cochain, removed[4:])):
        assert not any(hasattr(module, name) for name in names)
    for member in ("coords_from_reduced", "ambient_dim", "ambient_coords", "ambient_subspace", "_ambient"):
        assert not hasattr(cochain.CochainSpace, member), member
    for fn in (samples.random_verified_algebra, samples.random_verified_algebras):
        assert "allow_dim3" not in inspect.signature(fn).parameters
    for fn in (serialize.deformation_to_obj, serialize.gauge_to_obj):
        assert "base_ref" not in inspect.signature(fn).parameters
