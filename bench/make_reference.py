"""Write bench/reference.json: digests of the fixed cli ops' outputs.

    python3 bench/make_reference.py

Run from the repository root on a commit whose outputs are trusted; the
benchmark then requires every later commit to reproduce them byte for byte.
"""

import hashlib
import json
import shutil

import run


def main():
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir(parents=True)
    run.worker("cli", 0, flags=["--generate"])  # writes the gl2 input
    reference = {}
    for op in run.FIXED_CLI_OPS:
        proc, _ = run.run_cli_op(op, False, 0)
        if proc.returncode != 0:
            raise SystemExit(f"{' '.join(op)} exited with code {proc.returncode}")
        reference[" ".join(op)] = {
            "sha256": hashlib.sha256(proc.stdout).hexdigest(),
            "bytes": len(proc.stdout),
        }
    with open(run.BENCH / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
