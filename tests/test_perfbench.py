"""The benchmark's own checks, run briefly.

`perfbench/run.py` compares a reference run with its recorded losses and
scores (`perfbench/references.json`), checks every trial against an
independent route, and checks the trace's span accounting.  The two
training workloads run both traced and untraced.  A change under
`src/` that breaks any of them fails here, before a full benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _assert_checks_pass(workload, trace):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    failures = [line for line in run.stdout.splitlines() if line.startswith("FAILED")]
    assert run.returncode == 0, failures or run.stderr[-2000:]
    assert json.loads(run.stdout.splitlines()[-1])["correct"] is True


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["digit-triples", "relations-knowledge", "oracle-agreement"])
def test_benchmark_checks_pass(workload):
    _assert_checks_pass(workload, 1)


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["digit-triples", "relations-knowledge"])
def test_benchmark_checks_pass_untraced(workload):
    # the benchmark itself runs at --trace 0, where no tracer wraps the kernels
    _assert_checks_pass(workload, 0)
