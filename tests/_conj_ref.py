"""Independent reference for `dasl.logit.conj` and `dasl.logit.conj_reduce`.

The composed chain the two functions were built from before they became
single kernels: each step one `dasl.tensor` op with its own tape record
(`logsigmoid`, `add`, `clamp_max`, `expm1`, `neg`, `log`, `sub`, `exp`,
`logsumexp`, `where`).  Used by the tests as the second route for values and
accumulated gradients, which must match bit for bit; deliberately plain.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from dasl import tensor as T
from dasl.logit import _CLAMP, STABLE_MIN, EmptyConjunction
from dasl.tensor import Tensor


def _data(x) -> np.ndarray:
    if isinstance(x, Tensor):
        return x.data
    if isinstance(x, T.Parameter):
        return x.value
    return np.asarray(x, dtype=np.float64)


def conj(*logits, parts=None) -> Tensor:
    if not logits:
        raise EmptyConjunction("conjunction of zero formulas")
    if parts is None and len(logits) == 1:  # the operand itself, a Parameter times 1 on the tape
        x = logits[0]
        if isinstance(x, T.Parameter):
            return T.mul(x, 1.0)
        return x if isinstance(x, Tensor) else Tensor(_data(x))
    lo, s, acc = (None, None, None) if parts is None else parts
    lows = ([] if lo is None else [lo]) + [_data(l) for l in logits]
    T._check_broadcast(*[d.shape for d in lows])

    def exact() -> Tensor:
        total = _sum(s, logits, T.logsigmoid)
        return T.sub(total, T.log(T.neg(T.expm1(T.clamp_max(total, _CLAMP)))))

    def stable() -> Tensor:
        total = _sum(acc, logits, _exp_neg)
        return T.neg(T.log(total))

    return _branch(reduce(np.minimum, lows), exact, stable)


def conj_parts(*logits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    datas = [_data(l) for l in logits]
    T._check_broadcast(*[d.shape for d in datas])
    return (reduce(np.minimum, datas), _sum(None, datas, T.logsigmoid).data,
            _sum(None, datas, _exp_neg).data)


def _sum(start, logits, term) -> Tensor:
    total = start
    for l in logits:
        total = term(l) if total is None else T.add(total, term(l))
    return total


def _exp_neg(l) -> Tensor:
    return T.exp(T.neg(l))


def conj_reduce(t, axis: int) -> Tensor:
    data = _data(t)
    if data.shape[axis] == 0:
        raise EmptyConjunction("conjunction over an empty axis")
    lo = data.min(axis=axis)

    def exact() -> Tensor:
        s = T.reduce_sum(T.logsigmoid(t), axis)
        return T.sub(s, T.log(T.neg(T.expm1(T.clamp_max(s, _CLAMP)))))

    def stable() -> Tensor:
        return T.neg(T.logsumexp(T.neg(t), axis))

    return _branch(lo, exact, stable)


def _branch(lo: np.ndarray, exact, stable) -> Tensor:
    use_stable = lo > STABLE_MIN
    if not use_stable.any():
        return exact()
    if use_stable.all():
        return stable()
    return T.where(use_stable, stable(), exact())
