"""The benchmark's own checks, run briefly.

`perfbench/run.py` compares a reference run with its recorded losses and
scores (`perfbench/references.json`), checks every trial against an
independent route, and checks the trace's span accounting.  The two
training workloads run both traced and untraced.  A change under
`src/` that breaks any of them fails here, before a full benchmark run.
The tracer's wrapping of dasl's functions is also checked in process, so a
renamed or deleted name that it wraps fails the quick `-m "not slow"` loop.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _namespaces() -> dict:
    """Every loaded dasl module and every class it defines, each with a copy of its attributes."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "dasl" or name.startswith("dasl."))]
    classes = {v for m in modules for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("dasl")}
    return {ns: dict(vars(ns)) for ns in [*modules, *classes]}


def test_the_tracer_patches_every_name_it_wraps_and_restores_them():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # resolves the functions _SPANS names
    before = _namespaces()
    with tracer.Tracer() as t:  # resolves the kernels _OPS and the classes' methods
        patched = list(t._undo)
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr}"
    assert len({(owner, attr) for owner, attr, _ in patched}) > len(tracer._OPS)
    after = _namespaces()
    assert after.keys() == before.keys()
    for ns, attrs in before.items():
        assert after[ns].keys() == attrs.keys(), ns.__name__
        changed = [attr for attr, value in attrs.items() if after[ns][attr] is not value]
        assert not changed, f"{ns.__name__}: {changed} not restored"


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
