"""The two demos run to completion and print exactly what they printed when
their output was last reviewed (SHA-256 of standard output), and the
README's Python example prints the value its comment shows."""

import hashlib
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")

DIGESTS = {
    "cohomology_tour.py": "0cbe36b56fbdc53d8e0c30ad6ffc1af99c3098f1d4fca83b1ca038c678d9806e",
    "deformation_walkthrough.py": "5e1a3f56204e2cb25f70c47c989ec4df43128d8de52ec9294a177e33e5f3a731",
}


def _run(args) -> bytes:
    """Standard output of ``python args`` with ``src`` on the path; the run must succeed."""
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, *args], capture_output=True, cwd=ROOT, env=env, timeout=300)
    assert run.returncode == 0, run.stderr.decode()
    return run.stdout


@pytest.mark.parametrize("demo", sorted(DIGESTS))
def test_demo_output_is_pinned(demo):
    stdout = _run([os.path.join(ROOT, "demos", demo)])
    assert hashlib.sha256(stdout).hexdigest() == DIGESTS[demo]


def test_readme_example_prints_its_comment():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        (block,) = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)
    (expected,) = re.findall(r"^# (\{.*\})$", block, re.M)
    assert _run(["-c", block]).decode() == expected + "\n"
