"""dasl benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  `--trace 0` measures the end-to-end
metrics; `--trace 1` rebuilds each step or trial from public calls under
the tracer and reports the per-layer split.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Any failed check makes the exit
code 1.  `--record-references` rewrites references.json from the
reference seed.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# BLAS must be pinned before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"

# Shares of --seconds given to each phase.  They become fixed operation
# counts through each workload's nominal costs, so the work done depends
# on --seconds and --seed only, never on how fast the machine is running.
SETUP_SHARE = 0.05
STEP_SHARE, EVAL_SHARE, TRIAL_SHARE = 0.55, 0.08, 0.08  # trials' references take as long again
TRACE_STEP_SHARE = 0.3  # the traced run steps twice: train.train, then the rebuilt loop
ORACLE_TRIAL_SHARE, ORACLE_EVAL_SHARE = 0.45, 0.15
# Every phase runs once per round (each workload sets its ROUNDS), so each
# figure samples the whole run rather than the few seconds one phase would
# take (see over_rounds).
MIN_SAMPLES = 100  # a p90 with at least ten samples beyond it
MIN_COVERAGE = 0.8  # share of a traced unit's wall time its top-level spans must cover
COUNT_REPEAT_UNITS = 10
# the public calls, in order, that make up one traced unit
STEP_CALLS = ("interp.sample", "compiler.fused_evaluate", "tensor.backward", "train.adam")
TRIAL_CALLS = ("lang.check", "oracle.bridge", "compiler.compile", "compiler.evaluate",
               "oracle.tarski")
REL_TOL = 1e-9

END_TO_END = {  # name -> unit
    "setup_s": "s", "step_ms_p50": "ms", "step_ms_p90": "ms", "steps_per_s": "1/s",
    "eval_ms": "ms", "trial_ms_p50": "ms", "trial_ms_p90": "ms", "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {  # name -> unit; reported on every workload
    "interp.sample_ms": "ms", "interp.symbol_ms": "ms", "interp.symbol_calls": "count",
    "interp.mlp_rows": "count", "compiler.forward_ms": "ms", "compiler.self_ms": "ms",
    "compiler.compile_ms": "ms", "compiler.evaluate_ms": "ms", "logit.ms": "ms",
    "logit.conj_calls": "count", "tensor.tape_records": "count", "tensor.op_calls": "count",
    "train.param_values": "count", "lang.parse_ms": "ms", "lang.check_ms": "ms",
    "trace.overhead_ratio": "ratio",
}
# layers a workload may never call; printed, but kept out of the JSON line
PER_LAYER_PRINTED = {"tensor.backward_ms": "ms", "train.adam_ms": "ms",
                     "experiments.score_ms": "ms", "oracle.bridge_ms": "ms",
                     "oracle.tarski_ms": "ms"}
COUNTS = ("tensor.tape_records", "tensor.op_calls", "interp.symbol_calls", "logit.conj_calls")
# metric name -> key in a tracer unit, where they differ
UNIT_KEY = {"logit.ms": "logit_ms"}

clock = time.perf_counter


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# environment


def import_dasl():
    sys.path.insert(0, str(SRC))
    try:
        import dasl
    except ImportError as e:
        raise BenchError(f"cannot import dasl from {SRC}: {e}") from e
    if Path(dasl.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"dasl was imported from {dasl.__file__}, not from {SRC}")
    return dasl


def blas_threads() -> int:
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    raise BenchError("cannot find OpenBLAS to read its thread count")


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.exists():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def env_stamp() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    threads = blas_threads()
    if threads != 1:
        raise BenchError(f"BLAS runs {threads} threads; the pin to 1 did not take")
    return {"commit": commit(), "src_sha256": digest.hexdigest()[:16], "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": threads}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# machine speed
#
# The shared machine this was built on runs pure-Python code at speeds that
# drift by up to 2x over minutes, and dasl's steps and trials are mostly
# Python.  Before every timed phase the run times a fixed pure-Python loop;
# the end-to-end times are then scaled by how fast that loop ran in this run
# against the reference figure below (README "Machine speed").

CALIBRATION_LOOP = 4000
CALIBRATION_PASSES = 10
CALIBRATION_REF_S = 0.00055  # one pass on the reference machine
# how each end-to-end unit scales with the machine's speed
SPEED_POWER = {"s": 1, "ms": 1, "1/s": -1, "MB": 0}

calibration: list[float] = []  # median pass time of each block, in run order


def calibration_pass() -> None:
    """Dict reads and writes and integer adds; no dasl and no numpy."""
    counts = {}
    for i in range(CALIBRATION_LOOP):
        counts[i % 97] = counts.get(i % 97, 0) + i


def calibrate() -> None:
    times = []
    for _ in range(CALIBRATION_PASSES):
        start = clock()
        calibration_pass()
        times.append(clock() - start)
    calibration.append(median(times))


def speed_scale() -> float:
    """Reference pass time over this run's mean pass time; below 1 when the
    machine ran slower than the reference."""
    return CALIBRATION_REF_S / statistics.fmean(calibration)


# ---------------------------------------------------------------------------
# small helpers


class Tally:
    """Operations attempted and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, attempted: int, failures=()) -> None:
        """Count `attempted` operations, of which each message in failures failed."""
        self.attempted += attempted
        self.failures.extend(failures)


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def median(values) -> float:
    return statistics.median(values)


def settle() -> None:
    """Measure the machine's speed, then start the next timed phase from
    the same collector state."""
    calibrate()
    gc.collect()


def timed(fn, *args):
    start = clock()
    out = fn(*args)
    return clock() - start, out


def operations(share: float, seconds: float, nominal_s: float, least: int) -> int:
    """How many operations of nominal cost fill `share` of the run."""
    return max(least, round(share * seconds / nominal_s))


# ---------------------------------------------------------------------------
# training workloads


def train_untraced(session, config):
    """train.train with a timestamp at each return of adam_step.

    Returns (timestamps, wall seconds, TrainState or None, error or None).
    """
    from dasl import compiler, tensor, train

    stamps = []
    adam_step = train.adam_step

    def stamped(params, state):
        out = adam_step(params, state)
        stamps.append(clock())
        return out

    train.adam_step = stamped
    settle()
    start = clock()
    try:
        state, error = train.train(session.plan, config), None
    except (compiler.NonFiniteLogit, tensor.NonFiniteGradient) as e:
        state, error = None, f"step raised {type(e).__name__}: {e}"
    finally:
        train.adam_step = adam_step
    return stamps, clock() - start, state, error


def check_losses(losses, iterations, error) -> tuple[int, list[str]]:
    """A step fails if it raised, never ran, or gave a non-finite loss."""
    losses = losses or []
    bad = [f"step {i + 1}: loss {v!r} is not finite" for i, v in enumerate(losses)
           if not np.isfinite(v)]
    if len(losses) < iterations:
        bad += [error or "train.train stopped early"] * (iterations - len(losses))
    return iterations, bad


def reference_run(wl, references):
    """Train the reference seed and return (first losses, scores)."""
    ref = references[wl.name]
    inputs = wl.inputs(references["reference_seed"])
    session = wl.setup(inputs)
    _, _, state, error = train_untraced(session, wl.config(session.seed, ref["steps"]))
    if error:
        raise BenchError(f"reference run failed: {error}")
    return state.loss_history[:5], wl.metrics(wl.score(session, inputs), inputs)


def reference_check(wl, references, tally) -> None:
    """Compare the reference seed's first losses (and scores) with the record."""
    ref = references[wl.name]
    losses, scores = reference_run(wl, references)
    bad = [f"reference loss {i + 1}: {got!r}, recorded {want!r}"
           for i, (got, want) in enumerate(zip(losses, ref["first_losses"]))
           if not abs(got - want) <= REL_TOL * abs(want)]
    if len(losses) != len(ref["first_losses"]):
        bad.append("reference run gave fewer losses than recorded")
    for split, values in (ref.get("scores") or {}).items():
        for metric, want in values.items():
            got = scores[split][metric]
            if got != want:
                bad.append(f"reference {split} {metric}: {got!r}, recorded {want!r}")
    tally.add(len(ref["first_losses"]) + sum(len(v) for v in (ref.get("scores") or {}).values()),
              bad)


def timed_setups(wl, inputs, count, tracer=None):
    """`count` closed-loop set-ups; returns their times, units and the last session."""
    times, units = [], []
    settle()
    for _ in range(count):
        if tracer:
            tracer.begin_unit()
        seconds, session = timed(wl.setup, inputs)
        if tracer:
            units.append(tracer.end_unit(seconds))
        times.append(seconds)
    return times, units, session


def run_evals(wl, session, inputs, count, tally, tracer=None):
    """Repeated evaluation passes; each must equal the first."""
    times, units, first, bad = [], [], None, []
    settle()
    for i in range(count):
        if tracer:
            tracer.begin_unit()
        seconds, value = timed(wl.score, session, inputs)
        if tracer:
            units.append(tracer.end_unit(seconds))
        times.append(seconds)
        if first is None:
            first = value
            bad += wl.check_score(session, inputs, first)
        elif not wl.same_score(value, first):
            bad.append(f"evaluation pass {i} differs from the first")
    tally.add(count, bad)
    return times, units


def run_trials(wl, session, count, tally, tracer=None):
    """Verification trials on pre-drawn batches of the trained plan."""
    batches = [session.plan.draw() for _ in range(count)]
    times, units, roots = [], [], []
    settle()
    for draws in batches:
        if tracer:
            tracer.begin_unit()
        seconds, root = timed(wl.trial, session, draws)
        if tracer:
            units.append(tracer.end_unit(seconds))
        times.append(seconds)
        roots.append(root)
    bad = [msg for draws, root in zip(batches, roots)
           if (msg := wl.trial_reference(session, draws, root))]
    tally.add(count, bad)
    return times, units


def over_rounds(samples: list[list[float]], stat=median) -> float:
    """Mean over rounds of a statistic of each round's samples.

    The machine flips between a fast and a slow state every second or so.
    A median over one long phase snaps to whichever state held most of it;
    the mean of per-round figures, spread over the whole run, moves
    smoothly with the mix of states.
    """
    return statistics.fmean(stat(s) for s in samples)


def p90(values) -> float:
    return quantile(values, 90)


def print_samples(wl, **phases) -> None:
    print(f"{wl.name} samples over {wl.ROUNDS} rounds: "
          + ", ".join(f"{sum(map(len, rounds))} {name}" for name, rounds in phases.items()))


def round_counts(wl, seconds, least, **shares_and_costs) -> dict:
    """Operations per round for each phase: name=(share of run, nominal cost)."""
    return {name: operations(share / wl.ROUNDS, seconds, cost, least[name])
            for name, (share, cost) in shares_and_costs.items()}


def measure_training(wl, seed, seconds, references, tally) -> dict:
    reference_check(wl, references, tally)
    inputs = wl.inputs(seed)
    wl.setup(inputs)  # first-call costs (imports inside functions) stay out of the figures
    n = round_counts(wl, seconds, {"setup": 3, "step": MIN_SAMPLES // wl.ROUNDS + 1, "eval": 2,
                                   "trial": MIN_SAMPLES // wl.ROUNDS},
                     setup=(SETUP_SHARE, wl.SETUP_S), step=(STEP_SHARE, wl.STEP_S),
                     eval=(EVAL_SHARE, wl.EVAL_S), trial=(TRIAL_SHARE, wl.TRIAL_S))
    setups, steps, evals, trials = [], [], [], []
    iterations, train_wall = 0, 0.0
    first_losses = None
    for r in range(wl.ROUNDS):
        # a fresh session each round, so every round does the same work
        times, _, session = timed_setups(wl, inputs, n["setup"])
        setups.append(times)
        stamps, wall, state, error = train_untraced(session, wl.config(seed, n["step"]))
        losses = state.loss_history if state else None
        tally.add(*check_losses(losses, n["step"], error))
        if r == 0:
            first_losses = losses
        else:
            tally.add(1, [] if losses == first_losses else
                      [f"round {r}: loss history differs from round 0's"])
        steps.append([b - a for a, b in zip(stamps, stamps[1:])])
        iterations += len(stamps)
        train_wall += wall
        evals.append(run_evals(wl, session, inputs, n["eval"], tally)[0])
        trials.append(run_trials(wl, session, n["trial"], tally)[0])
    print_samples(wl, setups=setups, steps=steps, evaluations=evals, trials=trials)
    return {
        "setup_s": over_rounds(setups),
        "step_ms_p50": over_rounds(steps) * 1e3, "step_ms_p90": over_rounds(steps, p90) * 1e3,
        "steps_per_s": iterations / train_wall,
        "eval_ms": over_rounds(evals) * 1e3,
        "trial_ms_p50": over_rounds(trials) * 1e3, "trial_ms_p90": over_rounds(trials, p90) * 1e3,
        "trials_per_s": sum(map(len, trials)) / sum(map(sum, trials)),
    }


def traced_train(wl, session, iterations, tracer):
    """The steps of train.train rebuilt from public calls, one unit per step.

    Returns (losses, per-step units, error or None); a step that raises
    ends the loop.
    """
    from dasl import compiler, tensor, train

    plan, config = session.plan, wl.config(session.seed, iterations)
    fused, params = compiler.fuse_loss(plan), plan.parameters
    adam = train.AdamState(lr=config.lr)
    curriculum = sampler = None
    if config.curriculum:
        sampler = next(s for s in plan.samplers.values()
                       if s.domain.name == config.curriculum_domain)
        per_class = sampler.domain.cardinality // config.curriculum_classes
        curriculum = train.CurriculumState(
            working_set=min(config.curriculum_initial, per_class), max_size=per_class)
        sampler.set_active_size(curriculum.working_set * config.curriculum_classes)
    every = {ax.name for ax in plan.theory.axioms}

    def active():
        if curriculum is not None and curriculum.phase == "rules-only":
            return every - set(config.labeled_axioms)
        return None

    def step():
        with tensor.Tape():
            for p in params:
                p.zero_grad()
            draws = plan.draw()
            value, batch = fused.evaluate(draws, active_axioms=active())
            if value.node is not None:
                tensor.backward(value)
                train.adam_step(params, adam)
        losses.append(float(value.data))
        if curriculum is not None:
            out = batch.symbol_outputs.get((config.monitor_symbol, (config.monitor_arg,)))
            if out is not None:
                shifted = np.exp(out.data - out.data.max(axis=-1, keepdims=True))
                p_max = float((shifted / shifted.sum(axis=-1, keepdims=True)).max(axis=-1).mean())
                before = curriculum.working_set
                train.update_curriculum(curriculum, p_max)
                if curriculum.working_set != before:
                    sampler.set_active_size(curriculum.working_set * config.curriculum_classes)

    losses, units = [], []
    try:
        with tensor.Tape():  # train() probes the loss once before the first step
            fused.evaluate(plan.draw(), active_axioms=active())
        for _ in range(iterations):
            tracer.begin_unit()
            start = clock()
            try:
                step()
            finally:
                units.append(tracer.end_unit(clock() - start))
    except (compiler.NonFiniteLogit, tensor.NonFiniteGradient) as e:
        return losses, units, f"traced step raised {type(e).__name__}: {e}"
    return losses, units, None


def trace_training(wl, seed, seconds, references, tally, tracer_cls) -> tuple[dict, dict]:
    """Blocks of train.train, untraced, each followed by the same steps
    rebuilt under the tracer, so the overhead compares neighbours in time."""
    reference_check(wl, references, tally)
    inputs = wl.inputs(seed)
    wl.setup(inputs)
    steps = operations(TRACE_STEP_SHARE / wl.ROUNDS, seconds, wl.STEP_S, 3)
    tracer, groups = tracer_cls(), {"main": []}
    untraced, traced, guard, first_units = [], [], [], None
    for _ in range(wl.ROUNDS):
        # the equivalence guard's reference: train.train itself, untraced
        stamps, _, state, error = train_untraced(wl.setup(inputs), wl.config(seed, steps))
        tally.add(*check_losses(state and state.loss_history, steps, error))
        untraced.append([b - a for a, b in zip(stamps, stamps[1:])])
        with tracer:
            losses, units, traced_error = traced_train(wl, wl.setup(inputs), steps, tracer)
        tally.add(*check_losses(losses, steps, traced_error))
        if state is None or losses != state.loss_history:
            guard.append(traced_error or "traced loss history differs from train.train's")
        # every block runs the same seed, so its counts must repeat the first's
        if first_units is None:
            first_units = units
        else:
            tally.add(*count_mismatches(first_units, units))
        groups["main"] += units
        traced.append([u["trace.wall_ms"] / 1e3 for u in units[1:]])
    tally.add(wl.ROUNDS, guard)
    tally.add(*accounting(tracer, groups["main"], STEP_CALLS))
    with tracer:
        _, groups["setup"], session = timed_setups(
            wl, inputs, operations(SETUP_SHARE, seconds, wl.SETUP_S, 5), tracer)
        _, groups["eval"] = run_evals(wl, session, inputs,
                                      operations(EVAL_SHARE / 2, seconds, wl.EVAL_S, 5),
                                      tally, tracer)
        _, groups["trials"] = run_trials(
            wl, session, operations(TRIAL_SHARE / 2, seconds, wl.TRIAL_S, MIN_SAMPLES),
            tally, tracer)
    ratio = over_rounds(traced) / over_rounds(untraced) if all(traced) else None
    return groups, {"trace.overhead_ratio": ratio}


def count_mismatches(units, repeat_units) -> tuple[int, list[str]]:
    """Counts must repeat exactly when the same seed runs again."""
    bad = []
    for i, (a, b) in enumerate(zip(units, repeat_units)):
        diff = [f"{k} {a.get(k, 0)} then {b.get(k, 0)}" for k in COUNTS if a.get(k, 0) != b.get(k, 0)]
        if diff:
            bad.append(f"unit {i}: " + ", ".join(diff))
    return len(repeat_units), bad


# ---------------------------------------------------------------------------
# oracle workload


def oracle_trials(wl, session, trials, count, tally, tracer=None, first=0):
    """Closed loop over `count` pre-generated trials from index `first`,
    cycling through the list."""
    results, units = [], []
    settle()
    for i in range(first, first + count):
        model, formula = trials[i % len(trials)]
        if tracer:
            tracer.begin_unit()
        seconds, (classical, compiled, forward) = timed(wl.trial, session, model, formula, clock)
        if tracer:
            units.append(tracer.end_unit(seconds))
        results.append((seconds, forward, classical, compiled))
    bad = [f"trial {i % len(trials)}: tarski={c} compiled={d}"
           for i, (_, _, c, d) in enumerate(results, first) if c != d]
    tally.add(len(results), bad)
    return results, units


def suite_check(result, results, tally) -> None:
    """The trial loop's verdicts must be oracle.agreement_suite's, trial for trial."""
    verdicts = [tuple(v == "True" for v in re.search(r"tarski=(\w+) compiled=(\w+)", line).groups())
                for line in result.transcript]
    mine = [(c, d) for _, _, c, d in results[:len(verdicts)]]
    bad = [f"agreement_suite: {f}" for f in result.failures]
    if mine != verdicts[:len(mine)]:
        bad.append("trial verdicts differ from agreement_suite's for the same seed")
    tally.add(result.trials + 1, bad)


def measure_oracle(wl, seed, seconds, tally) -> dict:
    inputs = wl.inputs(seed)
    wl.setup(inputs)
    n = round_counts(wl, seconds, {"setup": 3, "trial": MIN_SAMPLES // wl.ROUNDS, "suite": 1},
                     setup=(SETUP_SHARE, wl.SETUP_S), trial=(ORACLE_TRIAL_SHARE, wl.TRIAL_S),
                     suite=(ORACLE_EVAL_SHARE, wl.EVAL_S))
    setups, trials, forwards, suites = [], [], [], []
    for rnd in range(wl.ROUNDS):
        times, _, session = timed_setups(wl, inputs, n["setup"])
        setups.append(times)
        # each round takes the next slice of the list, so a run's p50 is
        # that of the whole list rather than of its first few hundred trials
        results, _ = oracle_trials(wl, session, inputs["trials"], n["trial"], tally,
                                   first=rnd * n["trial"])
        trials.append([r[0] for r in results])
        forwards.append([r[1] for r in results])
        settle()
        # one `dasl oracle-check` run per derived seed; a suite's time depends
        # on its draw (trial cost is heavy-tailed), so every pass has its own
        times = []
        for k in range(rnd * n["suite"], (rnd + 1) * n["suite"]):
            spent, result = timed(wl.suite, session, seed * 1000 + k)
            tally.add(result.trials, [f"agreement_suite: {f}" for f in result.failures])
            times.append(spent)
        suites.append(times)
    print_samples(wl, setups=setups, forwards=forwards, suites=suites, trials=trials)
    return {
        "setup_s": over_rounds(setups),
        "step_ms_p50": over_rounds(forwards) * 1e3,
        "step_ms_p90": over_rounds(forwards, p90) * 1e3,
        "steps_per_s": sum(map(len, forwards)) / sum(map(sum, forwards)),
        "eval_ms": over_rounds(suites) * 1e3,
        "trial_ms_p50": over_rounds(trials) * 1e3, "trial_ms_p90": over_rounds(trials, p90) * 1e3,
        "trials_per_s": sum(map(len, trials)) / sum(map(sum, trials)),
    }


def trace_oracle(wl, seed, seconds, tally, tracer_cls) -> tuple[dict, dict]:
    """Blocks of trials, each run untraced and then traced, so the overhead
    compares the same trials at neighbouring times."""
    inputs = wl.inputs(seed)
    wl.setup(inputs)
    trials, tracer = inputs["trials"], tracer_cls()
    with tracer:
        _, setup_units, session = timed_setups(
            wl, inputs, operations(SETUP_SHARE, seconds, wl.SETUP_S, 5), tracer)
    groups = {"setup": setup_units, "main": []}
    count = operations(TRACE_STEP_SHARE / wl.ROUNDS, seconds, wl.TRIAL_S, 10)
    untraced, traced = [], []
    for block in range(wl.ROUNDS):
        plain, _ = oracle_trials(wl, session, trials, count, tally, first=block * count)
        with tracer:
            results, units = oracle_trials(wl, session, trials, count, tally, tracer,
                                           first=block * count)
        if block == 0:
            suite_check(wl.suite(session, seed), results, tally)
        untraced.append([r[0] for r in plain])
        traced.append([r[0] for r in results])
        groups["main"] += units
    with tracer:
        _, repeat_units = oracle_trials(wl, session, trials, COUNT_REPEAT_UNITS, tally, tracer)
    tally.add(*count_mismatches(groups["main"], repeat_units))
    tally.add(*accounting(tracer, groups["main"], TRIAL_CALLS))
    return groups, {"trace.overhead_ratio": over_rounds(traced) / over_rounds(untraced)}


def accounting(tracer, units, calls) -> tuple[int, list[str]]:
    """Span accounting over the traced run.

    No span's children, and no unit's top-level spans, may cover more than
    the time around them (this guards the tracer itself).  Each unit must
    be made of exactly the public calls `calls`, in that order, and the
    spans must cover most of the median unit: if work moves out of the
    functions the tracer wraps, the per-layer split no longer describes
    the step or trial, and these checks fail.
    """
    if not units:
        return 1, ["the traced run has no units"]
    covered = median([u["trace.spans_ms"] / u["trace.wall_ms"] for u in units])
    print(f"trace spans cover {covered:.1%} of the median step or trial")
    bad = tracer.violations[:1]
    if covered < MIN_COVERAGE:
        bad.append(f"spans cover {covered:.0%} of the median unit, less than {MIN_COVERAGE:.0%}")
    bad += [f"unit {i} calls {', '.join(u['trace.top'])}; expected {', '.join(calls)}"
            for i, u in enumerate(units) if u["trace.top"] != calls][:5]
    return 2 + len(units), bad


# ---------------------------------------------------------------------------
# per-layer figures


def per_layer(groups: dict, extra: dict) -> dict:
    """Median per unit of each layer metric, from the first group that calls it.

    Units are steps (training) or trials (oracle); layers the main loop never
    calls (set-up, evaluation, verification) are taken per set-up, per
    evaluation pass or per trial.
    """
    names = {**PER_LAYER, **PER_LAYER_PRINTED}
    out = {}
    for name in names:
        if name in extra:
            out[name] = extra[name]
            continue
        key = UNIT_KEY.get(name, name)
        for group in ("main", "trials", "setup", "eval"):
            units = groups.get(group) or []
            if name.endswith("_ms") and not any(u.get(key) for u in units):
                continue
            out[name] = median([u.get(key, 0) for u in units])
            break
        else:
            out[name] = None
    return out


# ---------------------------------------------------------------------------
# entry point


def record_references(workloads) -> None:
    out = {"reference_seed": 0}
    for wl in workloads.WORKLOADS.values():
        if not isinstance(wl, workloads.Training):
            continue
        out[wl.name] = {"steps": wl.REFERENCE_STEPS}
        losses, scores = reference_run(wl, out)
        out[wl.name]["first_losses"] = losses
        if scores:
            out[wl.name]["scores"] = scores
    REFERENCES.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {REFERENCES}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)
    try:
        import_dasl()
        stamp = env_stamp()
        import tracer
        import workloads
        if args.record_references:
            record_references(workloads)
            return 0
        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
        if not REFERENCES.exists():
            raise BenchError(f"missing {REFERENCES}")
        references = json.loads(REFERENCES.read_text())
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    print("env " + json.dumps(stamp, sort_keys=True))
    wl = workloads.WORKLOADS[args.workload]
    tally = Tally()
    is_oracle = isinstance(wl, workloads.OracleAgreement)
    if args.trace:
        if is_oracle:
            groups, extra = trace_oracle(wl, args.seed, args.seconds, tally, tracer.Tracer)
        else:
            groups, extra = trace_training(wl, args.seed, args.seconds, references, tally,
                                           tracer.Tracer)
        values = per_layer(groups, extra)
        tally.add(len(PER_LAYER),
                  [f"{name} was never measured" for name in PER_LAYER if values[name] is None])
        for name, unit in {**PER_LAYER, **PER_LAYER_PRINTED}.items():
            shown = "n/a (not called)" if values[name] is None else f"{values[name]:.6g} {unit}"
            print(f"{args.workload} {name} {shown}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        if is_oracle:
            values = measure_oracle(wl, args.seed, args.seconds, tally)
        else:
            values = measure_training(wl, args.seed, args.seconds, references, tally)
        values["peak_rss_mb"] = peak_rss_mb()
        scale = speed_scale()
        print(f"{args.workload} calibration pass {statistics.fmean(calibration) * 1e3:.4g} ms"
              f" over {len(calibration)} blocks, reference {CALIBRATION_REF_S * 1e3:.4g} ms:"
              f" times scaled by {scale:.4g}")
        metrics = {}
        for name, unit in END_TO_END.items():
            value = values[name] * scale ** SPEED_POWER[unit]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{args.workload} {name} {value:.6g} {unit} (as measured {values[name]:.6g})")
    failed = len(tally.failures)
    print(f"{args.workload} error_rate {failed / max(tally.attempted, 1):.6g} ratio"
          f" ({failed} failed of {tally.attempted} attempted)")
    for msg in tally.failures[:20]:
        print(f"FAILED: {msg}")
    print(json.dumps({"correct": not tally.failures, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if tally.failures else 0


if __name__ == "__main__":
    sys.exit(main())
