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

import numpy as np

from . import tensor as T
from .compiler import NonFiniteLogit, Plan, classifier_axiom, fuse_loss, scores
from .tensor import NonFiniteGradient, Parameter, Tensor, save_checkpoint


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Adam's settings, step count and moments.

    m and v keep each parameter's moments by name, as views of two flat
    buffers laid out like the parameters' store (`tensor.pack`), which
    `flat` holds as (store, m, v)."""

    lr: float = 5e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    flat: tuple | None = field(default=None, init=False, repr=False, compare=False)


_CHUNK = 1 << 14  # values per Adam block: a block's operands and scratch stay in L2


def adam_step(params: list[Parameter], state: AdamState) -> AdamState:
    """One bias-corrected Adam update from the accumulated gradients.

    Runs once over the parameters' store, which the first call for a list
    packs (`tensor.pack`).  All or nothing: every gradient is checked before
    any value, moment or the step count changes.  The store is updated in
    place, block by block, through two scratch buffers, with the operations of

        m += (1 - b1) * (g - m);  v += (1 - b2) * (g * g - v)
        value -= lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)

    in this order.  Each is elementwise, so the result is bit-identical to
    that formula applied parameter by parameter, wherever the blocks fall.
    """
    store = T.pack(params)
    if not np.isfinite(store.grads).all():
        bad = next(p for p in store.params if not np.isfinite(p.grad).all())
        raise NonFiniteGradient(f"parameter {bad.name!r} has a non-finite gradient")
    if state.flat is None or state.flat[0] is not store:
        state.flat = store, _lay_out(state.m, store), _lay_out(state.v, store)
    state.step += 1
    b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.eps
    c1, c2 = 1.0 - b1 ** state.step, 1.0 - b2 ** state.step
    flat = store.values, store.grads, state.flat[1], state.flat[2]
    n = store.values.size
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
    return state


def _lay_out(moments: dict[str, np.ndarray], store: T.Store) -> np.ndarray:
    """Flat moments laid out like `store`: what `moments` keeps under each parameter's
    name, zeros for a name it lacks; each name is rebound to its view."""
    flat = np.zeros(store.values.size)
    for p, view in zip(store.params, store.views(flat)):
        if p.name in moments:
            view[...] = moments[p.name]
        moments[p.name] = view
    return flat


# ---------------------------------------------------------------------------
# curriculum


@dataclass
class CurriculumState:
    """Confidence-gated doubling of the unlabeled working set (per class)."""

    p_c: float = 0.0
    alpha: float = 0.1
    threshold: float = 0.9
    working_set: int = 10
    max_size: int = 10
    growth: int = 2
    phase: str = "warm"  # warm -> growing -> rules-only


def update_curriculum(state: CurriculumState, p_max: float) -> CurriculumState:
    """Low-pass the confidence; on crossing, grow-then-reset atomically."""
    state.p_c = (1.0 - state.alpha) * state.p_c + state.alpha * p_max
    if state.p_c > state.threshold and state.phase != "rules-only":
        if state.working_set < state.max_size:
            state.working_set = min(state.working_set * state.growth, state.max_size)
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
            raise ValueError("iterations must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.cadence < 1:
            raise ValueError("cadence must be >= 1")


@dataclass
class TrainState:
    parameters: list[Parameter]
    adam: AdamState
    curriculum: CurriculumState | None
    seed: int
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
            raise ValueError(
                f"curriculum monitor {config.monitor_symbol}({config.monitor_arg}) is not a "
                f"vector-valued relation application in any axiom")
        candidates = [s for s in plan.samplers.values()
                      if s.domain.name == config.curriculum_domain]
        if not candidates:
            raise ValueError(f"no sampler over domain {config.curriculum_domain!r}")
        triples_sampler = candidates[0]
        max_per_class = triples_sampler.domain.cardinality // config.curriculum_classes
        curriculum = CurriculumState(
            working_set=min(config.curriculum_initial, max_per_class),
            max_size=max_per_class,
        )
        triples_sampler.set_active_size(curriculum.working_set * config.curriculum_classes)
    state = TrainState(params, adam, curriculum, config.seed)

    def test_accuracy() -> float | None:
        if axiom is None:
            return None
        logits, labels = scores(plan, axiom, test_set)
        return float(np.mean(np.argmax(logits, axis=-1) == labels))

    def probe_loss() -> float:  # never differentiated, so no tape
        value, _ = fused.evaluate(active_axioms=_active(state, config, plan))
        return float(value.data)

    if config.iterations > 0:
        acc = test_accuracy()
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
            acc = test_accuracy()
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
