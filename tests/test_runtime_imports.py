"""The runtime paths stay numpy-free.

numpy is a declared dependency for the workload reference kernels, the
examples and the tests only.  Reproducing the paper, fuzzing and serving
must never import it: it costs ~12 MiB of resident memory and ~0.13 s of
start-up per process.  The check runs in a fresh interpreter, because
this test process has long since imported numpy for other tests.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
import sys

import repro.fuzz
import repro.harness.verify
import repro.serve.daemon
from repro.serve.session import Session

_report, ok = repro.harness.verify.run_verification()
assert ok, _report
repro.fuzz.FuzzEngine(seed=1, schedule="churn").run(60)
session = Session("s1", "tenant", "baseline", 1)
session.step(2)
session.advance(5_000_000)
session.inspect()
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
"""


def test_verify_fuzz_and_serve_never_import_numpy():
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
