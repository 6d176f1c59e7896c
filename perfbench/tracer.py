"""Spans and counters recorded around calls into dasl's public functions.

Nothing in the package is edited: while a `Tracer` is active it replaces
module attributes and class methods with timing or counting wrappers, and
it puts the originals back when the `with` block ends.  Spans nest through
a stack.  Within one layer only the outermost call opens a span (a `disj`
calling `conj` is one logit span), so a layer's time is the plain sum of
its spans.  Spans stay in memory and are folded into per-unit figures
(one unit is a training step or an oracle trial) by `end_unit`.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from dasl import compiler, experiments, interp, lang, logit, oracle, tensor, train

# span name -> the function or method it wraps
_SPANS = {
    "lang.parse": [lang.parse_theory],
    "lang.check": [lang.check_theory],
    "compiler.compile": [compiler.compile],
    "compiler.evaluate": [compiler.evaluate],
    "compiler.fused_evaluate": [(compiler.FusedPlan, "evaluate")],
    "interp.sample": [(compiler.Plan, "draw")],
    "interp.symbol": [(cls, "__call__") for cls in (interp.MlpBinding, interp.ExternBinding,
                                                    interp.EmbeddingBinding, interp.FixedBinding)],
    "logit": [logit.conj, logit.conj_reduce, logit.disj, logit.implies, logit.neg,
              logit.softselect, logit.equality_logit, logit.mask_classes, logit.bool_vector],
    "tensor.backward": [tensor.backward],
    "train.adam": [train.adam_step],
    "experiments.score": [experiments.masked_scores],
    "oracle.bridge": [oracle.crisp_interpretation],
    "oracle.tarski": [oracle.tarski_eval],
}

# every differentiable kernel of dasl.tensor: each call is one op
_OPS = ["add", "sub", "mul", "neg", "exp", "expm1", "log", "sqrt", "sigmoid", "logsigmoid",
        "softplus", "relu", "tanh", "clamp_max", "where", "matmul", "reduce_sum",
        "reduce_mean", "reduce_max", "logsumexp", "gather", "concat", "reshape",
        "select_class", "mask_class"]

FORWARD = ("compiler.evaluate", "compiler.fused_evaluate")


def _layer(name: str) -> str:
    return name.split(".")[0]


class TraceError(Exception):
    pass


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()  # layer -> number of open spans
        self._undo: list[tuple[object, str, object]] = []
        self.violations: list[str] = []  # spans that outlast what holds them

    # -- patching

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_function(self, fn, wrapper) -> None:
        """Rebind every reference to fn held by a loaded dasl module."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "dasl" or name.startswith("dasl.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def _install(self, target, wrap) -> None:
        if isinstance(target, tuple):
            cls, attr = target
            self._set(cls, attr, wrap(getattr(cls, attr)))
        else:
            self._replace_function(target, wrap(target))

    def __enter__(self) -> "Tracer":
        for name, targets in _SPANS.items():
            for target in targets:
                self._install(target, lambda fn, name=name: self._spanned(name, fn))
        for op in _OPS:
            self._install(getattr(tensor, op), lambda fn: self._counted("tensor.op_calls", fn))
        self._install((tensor.Tape, "record"), lambda fn: self._counted("tensor.tape_records", fn))
        self._install((logit, "conj"), lambda fn: self._counted("logit.conj_calls", fn))
        self._install((logit, "conj_reduce"), lambda fn: self._counted("logit.conj_calls", fn))
        self._install((interp.MlpBinding, "__call__"), self._mlp_rows)
        self._install((train, "adam_step"), self._param_values)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- wrappers

    def _spanned(self, name: str, fn):
        layer = _layer(name)
        spans, stack, open_ = self.spans, self._stack, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if open_[layer]:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            open_[layer] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_[layer] -= 1
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _mlp_rows(self, fn):
        counts = self.counts

        def wrapper(binding, args):
            out = fn(binding, args)
            batched = out.data.ndim == (2 if binding.out_width > 1 else 1)
            counts["interp.mlp_rows"] += out.data.shape[0] if batched else 1
            return out

        return wrapper

    def _param_values(self, fn):
        counts = self.counts

        def wrapper(params, state):
            counts["train.param_values"] += sum(p.value.size for p in params)
            return fn(params, state)

        return wrapper

    # -- units

    def begin_unit(self) -> None:
        if self._stack:
            raise TraceError("a unit began inside an open span")
        self.spans.clear()
        self.counts.clear()

    def end_unit(self, wall: float) -> dict[str, float]:
        """Per-layer figures of the spans and counts since begin_unit.

        `wall` is the unit's own time, measured around it by the caller.
        """
        if self._stack:
            raise TraceError("a unit ended inside an open span")
        spans = self.spans
        child_time = [0.0] * len(spans)
        top, top_names = 0.0, []
        out: Counter = Counter()
        for name, start, end, parent in spans:
            dur = end - start
            out[name + "_ms"] += dur * 1e3
            out[name + "_calls"] += 1
            if parent >= 0:
                child_time[parent] += dur
            else:
                top += dur
                top_names.append(name)
        self.violations += [f"children of a {name} span cover more than its duration"
                            for (name, start, end, _), inner in zip(spans, child_time)
                            if inner > (end - start) + 1e-9]
        if top > wall + 1e-9:
            self.violations.append(f"spans cover {top:.6f} s of a {wall:.6f} s unit")
        out["trace.spans_ms"], out["trace.wall_ms"] = top * 1e3, wall * 1e3
        out["trace.top"] = tuple(top_names)
        # compiler self time: forward spans minus interp and logit work inside them
        inner = 0.0
        for name, start, end, parent in spans:
            if _layer(name) in ("interp", "logit") and self._under_forward(parent):
                inner += end - start
        out["compiler.forward_ms"] = out["compiler.evaluate_ms"] + out["compiler.fused_evaluate_ms"]
        out["compiler.self_ms"] = out["compiler.forward_ms"] - inner * 1e3
        for key, value in self.counts.items():
            out[key] += value
        return dict(out)

    def _under_forward(self, idx: int) -> bool:
        while idx >= 0:
            name, _, _, parent = self.spans[idx]
            if name in FORWARD:
                return True
            idx = parent
        return False
