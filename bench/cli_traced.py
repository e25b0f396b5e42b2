"""Run one ``hlya`` command under the benchmark's tracer.

    cli_traced.py LAYERS_OUT ARGS...

Runs ``python -m hlya.cli ARGS...`` in this process, the way ``-m`` does
(``hlya.cli`` executes as ``__main__``), writes the span self times and
counts as JSON to LAYERS_OUT and exits with the command's exit code.
``cli.startup`` is the time from the parent's spawn stamp
(``BENCH_SPAWN_TIME``, a ``time.time()`` value) until the ``hlya`` package
is imported; the ``cli.main`` span covers the rest of the command.
"""

import json
import os
import runpy
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hlya  # noqa: E402,F401

STARTUP = time.time() - float(os.environ["BENCH_SPAWN_TIME"])

from tracing import Tracer  # noqa: E402

if __name__ == "__main__":
    out_path = sys.argv[1]
    sys.argv = ["hlya", *sys.argv[2:]]
    tracer = Tracer()
    tracer.install()
    code = 0
    with tracer.span("cli.main"):
        try:
            runpy.run_module("hlya.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code
    tracer.uninstall()
    layers = tracer.export()
    layers["self_s"]["cli.startup"] = STARTUP
    with open(out_path, "w") as fh:
        json.dump(layers, fh)
    sys.exit(code)
