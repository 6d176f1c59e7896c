"""Minor page faults and wall time per step, evaluation pass and trial of each
perfbench workload, with one CPU and then two in this process's affinity set.

    python3 tests/tools/faults.py [--seed N] [--steps N] [--evals N] [--trials N]
                                  [--workload NAME ...]

Run it from the repository root; it is not a test and pytest does not
collect it.  It imports `dasl` from `src/` and the workloads from
`perfbench/workloads.py`, unedited, and pins BLAS to one thread before numpy
loads, as `perfbench/run.py` does.  The affinity is set with
`os.sched_setaffinity(0, ...)`: with one CPU, `dasl.tensor` runs both halves
of a large kernel on the caller, and with two its worker thread takes the
first half.  Each row is measured in a fresh process, as perfbench runs each
workload in its own.  Faults are `ru_minflt` of `getrusage(RUSAGE_SELF)`,
which counts every thread of the process, read around each unit after one
warm-up unit.  Times are medians, faults means; oracle-agreement has no steps, and its
evaluation pass is the 200-trial agreement suite.  Linux only.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from dasl import train  # noqa: E402


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def units(fn, count: int) -> tuple[float, float]:
    """(median ms, mean minor faults) of `count` calls of fn(i), after fn(-1)."""
    fn(-1)
    ms, faults = [], []
    for i in range(count):
        f0, t0 = minflt(), time.perf_counter()
        fn(i)
        ms.append((time.perf_counter() - t0) * 1e3)
        faults.append(minflt() - f0)
    return statistics.median(ms), statistics.fmean(faults)


def steps(wl, session, count: int) -> tuple[float, float]:
    """(median ms, mean faults) between the returns of adam_step in one
    train.train call of count + 2 steps; the first interval is left out."""
    marks, adam_step = [], train.adam_step

    def marked(params, state):
        out = adam_step(params, state)
        marks.append((time.perf_counter(), minflt()))
        return out

    train.adam_step = marked
    try:
        train.train(session.plan, wl.config(session.seed, count + 2))
    finally:
        train.adam_step = adam_step
    gaps = list(zip(marks[1:], marks[2:]))
    return (statistics.median((b[0] - a[0]) * 1e3 for a, b in gaps),
            statistics.fmean(b[1] - a[1] for a, b in gaps))


def measure(wl, seed: int, args) -> dict[str, tuple[float, float] | None]:
    inputs = wl.inputs(seed)
    session = wl.setup(inputs)
    if isinstance(wl, workloads.OracleAgreement):
        trials = inputs["trials"]
        return {"step": None,
                "eval": units(lambda i: wl.suite(session, seed), args.evals),
                "trial": units(lambda i: wl.trial(session, *trials[i + 1], time.perf_counter),
                               args.trials)}
    out = {"step": steps(wl, session, args.steps),
           "eval": units(lambda i: wl.score(session, inputs), args.evals)}
    draws = [session.plan.draw() for _ in range(args.trials + 1)]
    out["trial"] = units(lambda i: wl.trial(session, draws[i + 1]), args.trials)
    return out


def row(name: str, cpus: int, args) -> str:
    """One workload measured in this process, with its affinity set to its first
    `cpus` CPUs."""
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:cpus])
    got = measure(workloads.WORKLOADS[name], args.seed, args)
    cells = "".join("        -            -" if got[k] is None else
                    f"{got[k][0]:9.2f} {got[k][1]:12.2f}" for k in ("step", "eval", "trial"))
    return f"{name:20s} {cpus:5d}{cells}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=4242)
    ap.add_argument("--steps", type=int, default=40)
    ap.add_argument("--evals", type=int, default=10)
    ap.add_argument("--trials", type=int, default=40)
    ap.add_argument("--workload", nargs="*", default=list(workloads.WORKLOADS))
    ap.add_argument("--cpus", type=int, help="measure one workload here, at this many CPUs")
    args = ap.parse_args(argv)
    if args.cpus:
        print(row(args.workload[0], args.cpus, args), flush=True)
        return 0
    print("workload              cpus  step ms  faults/step  eval ms  faults/eval  "
          "trial ms  faults/trial", flush=True)
    # a fresh process per row: glibc's dynamic thresholds rise with the largest
    # block freed, so one workload would change the next one's faults
    have = len(os.sched_getaffinity(0))
    for cpus in (1, 2):
        if have < cpus:
            print(f"(only {have} CPU in the affinity set: no {cpus}-CPU rows)")
            continue
        for name in args.workload:
            subprocess.run([sys.executable, __file__, "--workload", name, "--cpus", str(cpus),
                            "--seed", str(args.seed), "--steps", str(args.steps),
                            "--evals", str(args.evals), "--trials", str(args.trials)],
                           check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
