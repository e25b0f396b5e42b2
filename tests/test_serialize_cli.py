"""JSON round trips, bundled golden files, and the command-line interface."""

import hashlib
import inspect
import json
import os
import random

import pytest

from hlya import cohomology, serialize
from hlya.algebra import check_axioms
from hlya.cli import EXIT_INPUT, EXIT_OK, EXIT_THEOREM, main
from hlya.coboundary import CoboundaryMap, d2, delta2
from hlya.cochain import Cochain
from hlya.cohomology import pair_from_coords
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
from hlya.exactlin import Matrix, kernel_basis, rat, vstack
from hlya.serialize import ParseError

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


def test_matrix_round_trip(e2):
    from hlya.coboundary import delta1

    m = delta1(e2).matrix
    assert serialize.matrix_from_obj(serialize.matrix_to_obj(m)) == m


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
    ],
)
def test_cli_malformed_input_exits_2(tmp_path, capsys, command, obj, message):
    """Booleans where an integer or a rational belongs and non-lists where a
    list belongs are input errors: one error line, exit 2, no traceback."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    argv = [command, str(path)]
    if command == "equiv":  # the malformed file is the gauge
        deformation = _golden("e0_plus_aff.json")
        argv = [command, deformation, deformation, str(path)]
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_matrix_entries_must_be_a_list():
    with pytest.raises(ParseError, match=r"matrix\.entries: expected a list"):
        serialize.matrix_from_obj({"rows": 1, "cols": 1, "entries": {"1": 1}})
    with pytest.raises(ParseError, match=r"matrix: rows/cols"):
        serialize.matrix_from_obj({"rows": True, "cols": 1, "entries": []})
    with pytest.raises(ParseError, match=r"matrix\.entries\[0\]: index out of range"):
        serialize.matrix_from_obj({"rows": 1, "cols": 1, "entries": [[True, 1, "1"]]})
    with pytest.raises(ParseError, match=r"matrix\.entries\[0\]: not a rational: 0\.5"):
        serialize.matrix_from_obj({"rows": 1, "cols": 1, "entries": [[1, 1, 0.5]]})


def test_matrix_duplicate_entries_rejected():
    obj = {"rows": 2, "cols": 2, "entries": [[1, 2, "1"], [2, 1, "1"], [1, 2, "3"]]}
    with pytest.raises(ParseError, match=r"^matrix\.entries\[2\]: repeats the key of entry 0$"):
        serialize.matrix_from_obj(obj)


def test_cli_json_float_exits_2_and_exact_forms_still_read(tmp_path, capsys):
    """0.1 as a JSON float is the binary fraction 3602879701896397 / 2**55,
    not 1/10, so it is refused; integers and strings read as before."""
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps({"dim": 1, "alpha": [[0.1]]}))
    assert _run(capsys, "check", str(path)) == (EXIT_INPUT, "", f"error: {path}.alpha[0][0]: not a rational: 0.1\n")
    for written, value in ((2, 2), ("1/10", rat("1/10")), ("0.1", rat("1/10")), ("-3", -3)):
        assert serialize.algebra_from_obj({"dim": 1, "alpha": [[written]]}).alpha == ((value,),)


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
    code, _, err = _run(capsys, "cohomology", _golden("e1_aff1.json"))
    assert code == EXIT_THEOREM and "theorem violation:" in err


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


def test_cli_trivialize_obstructed(capsys):
    code, out, _ = _run(capsys, "trivialize", _golden("e0_plus_aff.json"))
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["trivial"] is False
    assert report["obstructed_at"] == 1
    assert report["representative"]["f"]


def test_cli_obstruct(capsys):
    code, out, _ = _run(capsys, "obstruct", _golden("e0_plus_aff.json"))
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["in_z4z5"] is True
    assert report["F"] == [] and report["G"] == []
    assert report["extension_closes"] is True


@pytest.mark.parametrize("command", ["deform-check", "trivialize", "obstruct"])
def test_cli_deformation_output_matches_the_benchmark_reference(command, capsys):
    # bench/reference.json pins the standard output of the benchmark's cli ops
    with open(os.path.join(os.path.dirname(__file__), "..", "bench", "reference.json")) as fh:
        expected = json.load(fh)[f"{command} data/e0_plus_aff.json"]
    code, out, _ = _run(capsys, command, _golden("e0_plus_aff.json"))
    assert code == EXIT_OK
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (expected["bytes"], expected["sha256"])


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
