"""One benchmark process: set-up, and for in-process workloads the session.

Run by ``bench/run.py``, never by hand; prints one JSON line.  Each worker
is a fresh interpreter, so every set-up starts from cold package caches.

    worker.py cli SEED --generate --trace 0|1       write the cli inputs
    worker.py cli SEED --trace 0|1                  load and verify them
    worker.py deformation|audit SEED --seconds S --trace 0|1 [--setup-only]
"""

import calibration

# Set-up is timed from here: imports, inputs, operators.
SAMPLER = calibration.Sampler()
SAMPLER.start()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "bench" / "work"
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
from hlya import algebra, coboundary, cochain, exactlin, samples, serialize  # noqa: E402
from hlya import deformation as df  # noqa: E402
from tracing import Tracer  # noqa: E402

# Domain arities of the coboundary operators, by level.
DOMAIN_ARITIES = {"1": (1,), "2": (2, 3), "d2": (2, 3), "3": (4, 5)}


def generate_cli_inputs(seed, tracer):
    """Draw the corpus and write it and gl2 under bench/work."""
    with tracer.span("samples.corpus") if tracer else contextlib.nullcontext():
        algebras = inputs.corpus(seed)
    corpus_dir = WORK / "corpus"
    corpus_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for i, a in enumerate(algebras):
        path = corpus_dir / f"{i:02d}_{a.name}.json"
        serialize.save(str(path), serialize.algebra_to_obj(a))
        files.append(str(path.relative_to(ROOT)))
    serialize.save(str(WORK / "gl2.json"), serialize.algebra_to_obj(inputs.gl2()))
    return {"corpus": files}


def setup_cli():
    """Load the cli inputs and verify them: axioms, and each corpus
    algebra's stratum."""
    corpus = sorted((WORK / "corpus").glob("*.json"))
    for path in [WORK / "gl2.json", *corpus]:
        a = serialize.load_algebra(str(path))
        if not algebra.check_axioms(a).all_passed:
            raise RuntimeError(f"{path} fails the axioms")
        if path in corpus and (a.name, inputs.signature(a)) not in inputs.CORPUS_STRATA:
            raise RuntimeError(f"{path} is in no corpus stratum")


class Deformation:
    """Gauge round trips and cocycle draws on warm operators."""

    def __init__(self, seed):
        algebras = samples.bundled_algebras() + [inputs.sl2_twist()]
        self.cycles = {}
        for a in algebras:
            for build in coboundary.OPERATORS.values():
                build(a)
            stacked = exactlin.vstack(coboundary.delta2(a).matrix, coboundary.d2(a).matrix)
            self.cycles[a] = exactlin.kernel_basis(stacked)
        self.tasks = inputs.deformation_tasks(seed, algebras)
        self.solved = 0
        self.draws = 0

    def ops(self):
        for kind, a, task_seed in self.tasks:
            op = self.round_trip if kind == "round_trip" else self.cocycle_draw
            yield f"{kind}:{a.name}", lambda op=op, a=a, s=task_seed: op(a, s)

    def round_trip(self, a, task_seed):
        rng = random.Random(task_seed)
        null = df.null_deformation(a, inputs.GAUGE_ORDER)
        gauge = df.random_gauge(a, inputs.GAUGE_ORDER, rng)
        disguised = df.apply_gauge(null, gauge)
        result = df.trivialize(disguised)
        return result.trivial and df.verify_equivalence(disguised, null, result.gauge)

    def cocycle_draw(self, a, task_seed):
        rng = random.Random(task_seed)
        z = self.cycles[a]
        coeffs = [rng.choice((-1, 1)) for _ in range(z.dim)]
        coords = [sum(c * x for c, x in zip(coeffs, row)) for row in z.basis.data]
        c2, c3 = cochain.build_cochain_space(a, 2), cochain.build_cochain_space(a, 3)
        f1, g1 = c2.from_coords(coords[: c2.dim]), c3.from_coords(coords[c2.dim :])
        pair = df.obstruction_pair(a, f1, g1)
        solved = df.solve_second_order(a, f1, g1)
        self.draws += 1
        if solved is None:
            return pair.in_z4z5
        self.solved += 1
        probe = df.second_order_probe(a, f1, g1, *solved)
        # equations 7' and 8' must hold whenever a second-order solution exists
        return pair.in_z4z5 and probe.failures[7] is None and probe.failures[8] is None


class Audit:
    """Full-tabulation audits of operators built during set-up."""

    def __init__(self, seed):
        self.tasks = inputs.audit_tasks(samples.bundled_algebras(), inputs.sl2_twist())
        for a, level in self.tasks:
            coboundary.operator_by_level(a, level)

    def ops(self):
        for a, level in self.tasks:

            def op(a=a, level=level):
                audited = coboundary.verify_well_definedness(a, level)
                arities = DOMAIN_ARITIES[level]
                return audited == sum(cochain.build_cochain_space(a, n).dim for n in arities)

            yield f"audit:{a.name}:{level}", op


def run_session(session, seconds, tracer):
    """Whole passes until ``seconds`` have passed; untraced and traced passes
    alternate when tracing, starting untraced."""
    ops, passes = [], []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        for name, op in session.ops():
            ok, elapsed, probe_s = SAMPLER.measure(lambda: _checked(name, op))
            ops.append([name, elapsed, ok, len(passes), calibration.calibrated(elapsed, probe_s)])
        if traced:
            tracer.uninstall()
        passes.append(traced)
        done = time.perf_counter() - started >= seconds
        if done and (tracer is None or len(passes) % 2 == 0):
            return ops, passes


def _checked(name, op) -> bool:
    try:
        if op():
            return True
    except Exception:
        traceback.print_exc()
    print(f"op failed: {name}", file=sys.stderr)
    return False


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("cli", "deformation", "audit"))
    parser.add_argument("seed", type=int)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--generate", action="store_true")
    args = parser.parse_args()

    tracer = Tracer(SAMPLER.clock) if args.trace else None
    if tracer:
        tracer.install()
    out = {}
    session = None
    if args.generate:
        out.update(generate_cli_inputs(args.seed, tracer))
    elif args.workload == "cli":
        setup_cli()
    else:
        session = (Deformation if args.workload == "deformation" else Audit)(args.seed)
    out["setup_s"], probe_s = SAMPLER.stop()
    out["setup_calibrated_s"] = calibration.calibrated(out["setup_s"], probe_s)
    if tracer:
        tracer.uninstall()
        out["setup_layers"] = tracer.export()
    if session is not None and not args.setup_only:
        out["ops"], out["passes"] = run_session(session, args.seconds, tracer)
        if tracer:
            out["layers"] = tracer.export()
        if args.workload == "deformation":
            out["solved"], out["draws"] = session.solved, session.draws
    print(json.dumps(out))


if __name__ == "__main__":
    main()
