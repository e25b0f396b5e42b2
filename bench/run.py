"""The hlya benchmark: three closed-loop, single-client workloads.

    python3 bench/run.py --workload cli|deformation|audit --seed N --seconds S --trace 0|1

Run from the repository root.  Inputs are made from ``--seed``; every op's
output is checked.  A run sets up ``SETUP_REPS`` times, each in a fresh
process, and then measures whole passes over the workload's fixed op mix
until ``--seconds`` have passed.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines before it print every metric by name and unit.
Why each workload exists and what each metric should move: bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = BENCH / "work"
SETUP_REPS = 3
WORKER_TIMEOUT_S = 170
CLI_TIMEOUT_S = 120

# Fixed cli ops, checked byte for byte against bench/reference.json: the
# cohomology table of the four goldens, three gl2 operators, and the
# commands documented in the README on their data/ goldens (`cohomology
# data/e1_aff1.json` is both, and runs once).
GL2 = "bench/work/gl2.json"
FIXED_CLI_OPS = (
    ("cohomology", "data/e0_abelian.json"),
    ("cohomology", "data/e1_aff1.json"),
    ("cohomology", "data/e2_sl2.json"),
    ("cohomology", "data/e3_heisenberg.json"),
    ("dump-operator", GL2, "1"),
    ("dump-operator", GL2, "2"),
    ("dump-operator", GL2, "d2"),
    ("check", "data/e2_sl2.json"),
    ("derive", "--k-max", "3", "data/e3_heisenberg.json"),
    ("deform-check", "data/e0_plus_aff.json"),
    ("trivialize", "data/e0_plus_aff.json"),
    ("obstruct", "data/e0_plus_aff.json"),
    ("dump-operator", "data/e1_aff1.json", "2"),
)

# name -> unit, in printing order; BENCHMARK.json says which way is better.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "coboundary.delta1.s": "s",
    "coboundary.delta2.s": "s",
    "coboundary.d2.s": "s",
    "coboundary.delta3.s": "s",
    "coboundary.assembly.columns": "count",
    "coboundary.assembly.tuple_evals": "count",
    "coboundary.matrix.nnz": "count",
    "coboundary.audit.s": "s",
    "coboundary.audit.cochains": "count",
    "coboundary.audit.tuple_evals": "count",
    "deformation.verify.s": "s",
    "deformation.verify.calls": "count",
    "deformation.verify.tuple_evals": "count",
    "deformation.apply_gauge.s": "s",
    "deformation.apply_gauge.calls": "count",
    "deformation.trivialize.s": "s",
    "deformation.obstruction.s": "s",
    "deformation.solve_second_order.s": "s",
    "deformation.probe.s": "s",
    "deformation.solvable_ratio": "ratio",
    "exactlin.kernel.s": "s",
    "exactlin.image.s": "s",
    "exactlin.quotient.s": "s",
    "exactlin.solve.s": "s",
    "exactlin.calls": "count",
    "exactlin.entries": "count",
    "exactlin.rank_sum": "count",
    "cochain.build_space.s": "s",
    "cochain.build_space.calls": "count",
    "cochain.reduced_coords": "count",
    "cochain.basis_dim": "count",
    "cli.startup.s": "s",
    "cli.main.s": "s",
    "serialize.load.s": "s",
    "serialize.dump.s": "s",
    "serialize.bytes_out": "count",
    "algebra.check_axioms.s": "s",
    "algebra.check_axioms.calls": "count",
    "derivations.space.s": "s",
    "derivations.closure.s": "s",
    "derivations.closure.pairs": "count",
    "cohomology.report.s": "s",
    "samples.corpus.s": "s",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def worker(workload: str, seed: int, seconds: float = 0, trace: int = 0, flags=()):
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *flags]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- workloads --------------------------------------------------------------


def run_in_process(args) -> dict:
    """deformation / audit: the session runs inside a worker after its set-up."""
    if args.trace:
        setups = []
    else:
        setups = [worker(args.workload, args.seed, flags=["--setup-only"])
                  for _ in range(SETUP_REPS - 1)]
    out = worker(args.workload, args.seed, args.seconds, args.trace)
    setups = [(s["setup_s"], s["setup_calibrated_s"]) for s in setups + [out]]
    out["setups"] = setups
    return out


class CliChecker:
    """Fixed inputs against the stored digests; corpus outputs by invariants;
    every op's output identical on every pass."""

    def __init__(self, corpus: list):
        sys.path.insert(0, str(ROOT / "src"))
        from hlya import derivations, serialize

        with open(BENCH / "reference.json") as fh:
            self.reference = json.load(fh)
        self.der0 = {
            path: derivations.derivation_space(serialize.load_algebra(str(ROOT / path)), 0).dim
            for path in corpus
        }
        self.seen: dict = {}

    def __call__(self, op: tuple, stdout: bytes) -> bool:
        key = " ".join(op)
        digest = hashlib.sha256(stdout).hexdigest()
        if self.seen.setdefault(key, digest) != digest:
            return False
        if key in self.reference:
            return digest == self.reference[key]["sha256"]
        report = json.loads(stdout)
        dims = report["dims"]
        return (
            dims["h1"] == self.der0[op[1]] == len(report["h1_basis"])
            and dims["h2h3"] == dims["z2z3"] - dims["b2b3"]
            and dims["h4h5"] == dims["z4z5"] - dims["b4b5"]
        )


def run_cli_op(op: tuple, traced: bool, index: int):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    layers_path = WORK / "layers" / f"{index}.json"
    if traced:
        layers_path.parent.mkdir(exist_ok=True)
        cmd = [sys.executable, str(BENCH / "cli_traced.py"), str(layers_path), *op]
        env["BENCH_SPAWN_TIME"] = repr(time.time())
    else:
        cmd = [sys.executable, "-m", "hlya.cli", *op]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S)
    layers = None
    if traced and layers_path.exists():
        layers = json.loads(layers_path.read_text())
    return proc, layers


def run_cli(args) -> dict:
    """cli: every op is a fresh `python -m hlya.cli` process with cold caches.

    The corpus draw is input generation and is not timed: by rejection
    sampling its cost swings 4x between seeds.  Set-up loads and verifies
    the inputs."""
    generated = worker("cli", args.seed, trace=args.trace, flags=["--generate"])
    corpus = generated["corpus"]
    reps = 1 if args.trace else SETUP_REPS
    setups = [worker("cli", args.seed, trace=args.trace) for _ in range(reps)]
    ops_list = list(FIXED_CLI_OPS) + [("cohomology", path) for path in corpus]
    check = CliChecker(corpus)
    ops, passes, pass_layers = [], [], []
    sampler = calibration.Sampler()
    spawn_before = calibration.spawn_probe()
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        for op in ops_list:
            (proc, layers), elapsed, probe_s = sampler.measure(
                lambda: run_cli_op(op, traced, len(ops)))
            spawn_after = calibration.spawn_probe()
            spawn_s = calibration.harmonic_mean([spawn_before, spawn_after])
            spawn_before = spawn_after
            ok = proc.returncode == 0 and check(op, proc.stdout)
            if not ok:
                print(f"op failed: {' '.join(op)} (exit {proc.returncode})\n"
                      f"{proc.stderr.decode()[-2000:]}", file=sys.stderr)
            if layers:
                pass_layers.append(layers)
            calibrated = calibration.calibrated_process(elapsed, probe_s, spawn_s)
            ops.append([" ".join(op), elapsed, ok, len(passes), calibrated])
        passes.append(traced)
        done = time.perf_counter() - started >= args.seconds
        if done and (not args.trace or len(passes) % 2 == 0):
            break
    setup_s = [(s["setup_s"], s["setup_calibrated_s"]) for s in setups]
    out = {"ops": ops, "passes": passes, "setups": setup_s}
    if args.trace:
        out["setup_layers"] = _merge([generated["setup_layers"], setups[-1]["setup_layers"]])
        out["layers"] = _merge([out["setup_layers"], *pass_layers])
    return out


# --- metrics ----------------------------------------------------------------


def _merge(parts: list) -> dict:
    merged = {"self_s": {}, "counts": {}}
    for part in parts:
        for kind in merged:
            for name, value in part[kind].items():
                merged[kind][name] = merged[kind].get(name, 0) + value
    return merged


def tail(times: list) -> tuple:
    """(value, percentile, n): the highest percentile with 10 samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(out: dict) -> tuple[dict, list]:
    raw = [op[1] for op in out["ops"]]
    times = [op[4] for op in out["ops"]]
    value, pct, n = tail(times)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = {
        "setup_s": statistics.median(calibrated for _, calibrated in out["setups"]),
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": value,
        "peak_rss_mb": rss,
    }
    notes = [
        f"op_tail_s is p{pct:.1f} of n={n} ops",
        f"setup_s is the median of {len(out['setups'])} set-ups",
        f"raw: setup_s {statistics.median(s for s, _ in out['setups']):.4f} "
        f"ops_per_s {len(raw) / sum(raw):.4f} op_p50_s {statistics.median(raw):.4f} "
        f"op_tail_s {tail(raw)[0]:.4f}",
    ]
    return metrics, notes


def per_layer(out: dict) -> tuple[dict, list]:
    """Set-up plus one traced pass (the mean over traced passes)."""
    pass_s = [0.0] * len(out["passes"])
    for op in out["ops"]:
        pass_s[op[3]] += op[4]
    traced = [s for s, t in zip(pass_s, out["passes"]) if t]
    plain = [s for s, t in zip(pass_s, out["passes"]) if not t]
    n = len(traced)
    setup, total = out["setup_layers"], out["layers"]
    metrics = {}
    for name in PER_LAYER:
        kind, key = ("self_s", name[:-2]) if name.endswith(".s") else ("counts", name)
        first = setup[kind].get(key, 0)
        value = first + (total[kind].get(key, 0) - first) / n
        metrics[name] = int(value) if kind == "counts" and value == int(value) else value
    if out.get("draws"):
        metrics["deformation.solvable_ratio"] = out["solved"] / out["draws"]
    metrics["trace.overhead"] = sum(traced) / sum(plain) - 1
    notes = [f"per-layer figures: inputs and set-up plus one traced pass ({n} traced, "
             f"{len(plain)} untraced passes); layer times are not calibrated"]
    return metrics, notes


WORKLOADS = {"cli": run_cli, "deformation": run_in_process, "audit": run_in_process}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hlya" / "__init__.py").is_file():
        print(f"error: no hlya package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    # One client and one op at a time: keep it and its children on one CPU,
    # so that no op migrates between CPUs while it runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        out = WORKLOADS[args.workload](args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics, notes = (per_layer if args.trace else end_to_end)(out)
    units = PER_LAYER if args.trace else END_TO_END
    attempted = len(out["ops"])
    failed = sum(1 for op in out["ops"] if not op[2])
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(out['passes'])} passes, {attempted} ops")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for note in notes:
        print(f"  ({note})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
