"""Optimization: Adam, the curriculum schedule, metrics.

The curriculum starts with all labeled data plus a small working set of
unlabeled triples, doubles the working set whenever a low-pass-filtered
confidence score crosses its threshold (then resets the score), and after
the working set has reached its maximum drops the labeled axioms entirely
so the model trains on the rules alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from . import tensor as T
from .compiler import NonFiniteLogit, Plan, classifier_axiom, fuse_loss, scores
from .errors import InvalidValue
from .tensor import NonFiniteGradient, Parameter, Tensor, save_checkpoint


# ---------------------------------------------------------------------------
# Adam

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's published defaults (Kingma & Ba 2015)


@dataclass
class AdamState:
    """Adam's learning rate, step count and moments.

    m and v are two flat buffers laid out like the store (`tensor.pack`) of
    the parameter list that the first `adam_step` packed, `params`; all
    three are None before that step."""

    lr: float = 5e-5
    step: int = field(default=0, init=False)
    m: np.ndarray | None = field(default=None, init=False)
    v: np.ndarray | None = field(default=None, init=False)
    params: tuple[Parameter, ...] | None = field(default=None, init=False, repr=False)


_CHUNK = 1 << 14  # values per Adam block: a block's operands and scratch stay in L2
# From 4 blocks on, the two halves of the block list run on two CPUs
# (`tensor._halves`).  Measured on a 2-CPU Xeon: 4 blocks 450 -> 351 us, the
# digit MLP's 25 blocks 3.10 -> 2.14 ms; 2 blocks gain nothing (238 -> 237 us).
_SPLIT_BLOCKS = 4


def adam_step(params: list[Parameter], state: AdamState) -> AdamState:
    """One bias-corrected Adam update from the accumulated gradients.

    Runs once over the parameters' store (`tensor.pack`).  The moments
    belong to the list of the first step: any other list raises ValueError
    naming a parameter.  All or nothing: the list and every gradient are
    checked before any value, moment or the step count changes.  The store
    is updated in place, block by block, through two scratch buffers (from
    _SPLIT_BLOCKS blocks on, the two halves of the block list on two CPUs,
    each with its own pair), with the operations of

        m += (1 - b1) * (g - m);  v += (1 - b2) * (g * g - v)
        value -= lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)

    in this order.  Each is elementwise, so the result is bit-identical to
    that formula applied parameter by parameter, wherever the blocks fall.
    """
    params, kept = tuple(params), state.params
    if kept is not None and kept != params:
        p, q = next(pq for pq in zip_longest(params, kept) if pq[0] is not pq[1])
        raise ValueError(f"the list differs at parameter {(p or q).name!r} from the one "
                         f"Adam's moments belong to")
    store = T.pack(params)
    if not np.isfinite(store.grads).all():
        bad = next(p for p in store.params if not np.isfinite(p.grad).all())
        raise NonFiniteGradient(f"parameter {bad.name!r} has a non-finite gradient")
    n = store.values.size
    if kept is None:
        state.params, state.m, state.v = params, np.zeros(n), np.zeros(n)
    state.step += 1
    lr, c1, c2 = state.lr, 1.0 - BETA1 ** state.step, 1.0 - BETA2 ** state.step
    flat = store.values, store.grads, state.m, state.v
    blocks = -(-n // _CHUNK)
    if blocks < _SPLIT_BLOCKS:
        _adam_blocks(flat, lr, c1, c2)
    else:
        T._halves(lambda part: _adam_blocks([a[part] for a in flat], lr, c1, c2),
                  blocks // 2 * _CHUNK, n)
    return state


def _adam_blocks(flat, lr: float, c1: float, c2: float) -> None:
    """`adam_step`'s update over (values, grads, m, v), block by block, through
    its own two scratch buffers."""
    b1, b2, eps = BETA1, BETA2, EPS
    n = flat[0].size
    scratch = np.empty(min(n, _CHUNK)), np.empty(min(n, _CHUNK))
    for lo in range(0, n, _CHUNK):
        value, g, m, v = (a[lo:lo + _CHUNK] for a in flat)
        t, u = (s[:value.size] for s in scratch)
        np.subtract(g, m, out=t)
        t *= 1.0 - b1
        m += t
        np.multiply(g, g, out=t)
        t -= v
        t *= 1.0 - b2
        v += t
        np.divide(v, c2, out=t)
        np.sqrt(t, out=t)
        t += eps
        np.divide(m, c1, out=u)
        u *= lr
        u /= t
        value -= u


# ---------------------------------------------------------------------------
# curriculum

# the confidence filter's weight, the confidence that grows the working set, and its factor
ALPHA, THRESHOLD, GROWTH = 0.1, 0.9, 2


@dataclass
class CurriculumState:
    """Confidence-gated doubling of the unlabeled working set (per class)."""

    p_c: float = 0.0
    working_set: int = 10
    max_size: int = 10
    phase: str = "warm"  # warm -> growing -> rules-only


def update_curriculum(state: CurriculumState, p_max: float) -> CurriculumState:
    """Low-pass the confidence; on crossing, grow-then-reset atomically."""
    state.p_c = (1.0 - ALPHA) * state.p_c + ALPHA * p_max
    if state.p_c > THRESHOLD and state.phase != "rules-only":
        if state.working_set < state.max_size:
            state.working_set = min(state.working_set * GROWTH, state.max_size)
            state.p_c = 0.0
            state.phase = "growing"
        else:
            state.phase = "rules-only"
    return state


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainConfig:
    iterations: int = 1000
    batch_size: int = 64
    lr: float = 5e-5
    seed: int = 0
    cadence: int = 500
    out_dir: str | None = None
    curriculum: bool = False
    curriculum_domain: str = "Triples"
    curriculum_initial: int = 10  # working set per class
    curriculum_classes: int = 10
    monitor_symbol: str = "digit"
    monitor_arg: str = "x1"
    labeled_axioms: tuple[str, ...] = ("labels",)
    eval_symbol: str | None = None
    rules_only_after: int | None = None  # force the final phase at this iteration

    def __post_init__(self):
        if self.iterations < 0:
            raise InvalidValue("iterations must be >= 0")
        if self.batch_size < 1:
            raise InvalidValue("batch size must be >= 1")
        if self.cadence < 1:
            raise InvalidValue("cadence must be >= 1")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise InvalidValue(f"learning rate must be finite and > 0, got {self.lr}")
        if self.curriculum_initial < 1 or self.curriculum_classes < 1:
            raise InvalidValue("curriculum_initial and curriculum_classes must be >= 1")
        if self.rules_only_after is not None and not self.curriculum:
            raise InvalidValue("rules_only_after needs the curriculum")


@dataclass
class TrainState:
    parameters: list[Parameter]
    adam: AdamState
    curriculum: CurriculumState | None
    loss_history: list[float] = field(default_factory=list)
    metrics: list[dict] = field(default_factory=list)
    best_accuracy: float = -1.0


def evaluate_classifier(binding, inputs, labels) -> float:
    """Argmax accuracy of a classifier binding; ties go to the smaller index."""
    out = binding([inputs])
    scores = out.data if isinstance(out, Tensor) else np.asarray(out)
    pred = np.argmax(scores, axis=-1)
    return float(np.mean(pred == np.asarray(labels)))


def _metrics_row(it: int, loss_v: float, state: TrainState, acc: float | None) -> dict:
    cur = state.curriculum
    return {
        "iteration": it,
        "loss": loss_v,
        "working_set": cur.working_set if cur else 0,
        "p_c": cur.p_c if cur else 0.0,
        "test_accuracy": acc,
    }


def _write_metrics(path: str, rows: list[dict]) -> None:
    with open(path, "w") as fh:
        fh.write("iteration,loss,working_set,p_c,test_accuracy\n")
        for r in rows:
            acc = "" if r["test_accuracy"] is None else repr(float(r["test_accuracy"]))
            fh.write(f"{r['iteration']},{r['loss']!r},{r['working_set']},{r['p_c']!r},{acc}\n")


def _p_max(batch, symbol: str, arg: str) -> float | None:
    out = batch.symbol_outputs.get((symbol, (arg,)))
    if out is None:
        return None
    scores = out.data
    shifted = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = shifted / shifted.sum(axis=-1, keepdims=True)
    return float(probs.max(axis=-1).mean())


def train(plan: Plan, config: TrainConfig, test_set=None) -> TrainState:
    """Run the optimization loop; returns the final TrainState.

    test_set is an optional tuple of columns, one per variable of the
    classifier axiom `forall (x…, y): D . pi[y](V)` whose V applies
    config.eval_symbol.  At every metrics cadence that axiom scores them
    through `compiler.scores`, so masks in V apply, and the accuracy is the
    share of rows whose argmax is y.
    """
    fused = fuse_loss(plan)
    axiom = None
    if test_set is not None and config.eval_symbol is not None:
        axiom = classifier_axiom(plan, config.eval_symbol)
    params = plan.parameters
    adam = AdamState(lr=config.lr)
    curriculum = None
    triples_sampler = None
    if config.curriculum:
        monitor = (config.monitor_symbol, (config.monitor_arg,))
        if monitor not in plan.vector_outputs:
            raise InvalidValue(
                f"curriculum monitor {config.monitor_symbol}({config.monitor_arg}) is not a "
                f"vector-valued relation application in any axiom")
        candidates = [s for s in plan.samplers.values()
                      if s.domain.name == config.curriculum_domain]
        if not candidates:
            raise InvalidValue(f"no sampler over domain {config.curriculum_domain!r}")
        triples_sampler = candidates[0]
        size = triples_sampler.domain.cardinality
        if size < config.curriculum_classes:
            raise InvalidValue(f"curriculum domain {config.curriculum_domain!r} has {size} rows, "
                               f"fewer than its {config.curriculum_classes} classes")
        width = plan.theory.rel(config.monitor_symbol).out
        if width != config.curriculum_classes:  # the working set holds rows per class
            raise InvalidValue(f"curriculum_classes is {config.curriculum_classes}, but the "
                               f"monitored relation {config.monitor_symbol} has {width} classes")
        missing = sorted(set(config.labeled_axioms) - {ax.name for ax in plan.theory.axioms})
        if missing:
            raise InvalidValue(f"labeled axioms {', '.join(missing)} are not in the theory")
        max_per_class = size // config.curriculum_classes
        curriculum = CurriculumState(
            working_set=min(config.curriculum_initial, max_per_class),
            max_size=max_per_class,
        )
        triples_sampler.set_active_size(curriculum.working_set * config.curriculum_classes)
    state = TrainState(params, adam, curriculum)

    def test_accuracy(it: int) -> float | None:
        if axiom is None:
            return None
        try:
            logits, labels = scores(plan, axiom, test_set)
        except NonFiniteLogit as e:
            raise NonFiniteLogit(f"iteration {it}: scoring the test set: {e}") from e
        return float(np.mean(np.argmax(logits, axis=-1) == labels))

    def probe_loss() -> float:  # never differentiated, so no tape
        value, _ = fused.evaluate(active_axioms=_active(state, config, plan))
        return float(value.data)

    if config.iterations > 0:
        acc = test_accuracy(0)
        _record(state, 0, probe_loss(), acc, config)
        grads = T.pack(params).grads

    for it in range(1, config.iterations + 1):
        active = _active(state, config, plan)
        try:
            with T.Tape():
                grads.fill(0.0)
                value, batch = fused.evaluate(active_axioms=active)
                if value.node is not None:  # constant loss: nothing to learn
                    T.backward(value)
                    adam_step(params, adam)
        except NonFiniteGradient as e:
            raise NonFiniteGradient(f"iteration {it}: {e}") from e
        except NonFiniteLogit as e:
            raise NonFiniteLogit(f"iteration {it}: {e}") from e
        loss_v = float(value.data)
        state.loss_history.append(loss_v)
        if curriculum is not None:
            p_max = _p_max(batch, config.monitor_symbol, config.monitor_arg)
            if p_max is not None:
                before = curriculum.working_set
                update_curriculum(curriculum, p_max)
                if curriculum.working_set != before:
                    triples_sampler.set_active_size(
                        curriculum.working_set * config.curriculum_classes)
            if config.rules_only_after is not None and it >= config.rules_only_after:
                curriculum.phase = "rules-only"
        if it % config.cadence == 0:
            acc = test_accuracy(it)
            _record(state, it, loss_v, acc, config)

    if config.out_dir is not None:
        os.makedirs(config.out_dir, exist_ok=True)
        save_checkpoint(params, os.path.join(config.out_dir, "final.ckpt"))
        _write_metrics(os.path.join(config.out_dir, "metrics.csv"), state.metrics)
    return state


def _active(state: TrainState, config: TrainConfig, base: Plan) -> set[str] | None:
    if state.curriculum is not None and state.curriculum.phase == "rules-only":
        return {ax.name for ax in base.theory.axioms} - set(config.labeled_axioms)
    return None


def _record(state: TrainState, it: int, loss_v: float, acc: float | None,
            config: TrainConfig) -> None:
    state.metrics.append(_metrics_row(it, loss_v, state, acc))
    if acc is not None and acc > state.best_accuracy:
        state.best_accuracy = acc
        if config.out_dir is not None:
            os.makedirs(config.out_dir, exist_ok=True)
            save_checkpoint(state.parameters, os.path.join(config.out_dir, "best.ckpt"))
