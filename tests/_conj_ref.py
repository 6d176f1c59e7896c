"""Independent reference for `dasl.logit.conj` and `dasl.logit.conj_reduce`.

The composed chain the two functions were built from before they became
single kernels: each step one `dasl.tensor` op with its own tape record
(`logsigmoid`, `add`, `clamp_max`, `expm1`, `neg`, `log`, `sub`).  Used by
the tests as the second route for values and accumulated gradients, which
must match bit for bit; deliberately plain.
"""

from __future__ import annotations

import numpy as np

from dasl import tensor as T
from dasl.logit import _CAP, EmptyConjunction
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
    shapes = ([] if parts is None else [np.shape(parts)]) + [_data(l).shape for l in logits]
    T._check_broadcast(*shapes)
    return _tail(_sum(parts, logits, T.logsigmoid))


def conj_parts(*logits) -> np.ndarray:
    datas = [_data(l) for l in logits]
    T._check_broadcast(*[d.shape for d in datas])
    return _sum(None, datas, T.logsigmoid).data


def _sum(start, logits, term) -> Tensor:
    total = start
    for l in logits:
        total = term(l) if total is None else T.add(total, term(l))
    return total


def _tail(s) -> Tensor:
    return T.sub(s, T.log(T.neg(T.expm1(T.clamp_max(s, _CAP)))))


def conj_reduce(t, axis: int) -> Tensor:
    if _data(t).shape[axis] == 0:
        raise EmptyConjunction("conjunction over an empty axis")
    if _data(t).shape[axis] == 1:  # the one entry, times 1 on the tape, the axis dropped
        return T.reshape(T.mul(t, 1.0), np.squeeze(_data(t), axis).shape)
    return _tail(T.reduce_sum(T.logsigmoid(t), axis))
