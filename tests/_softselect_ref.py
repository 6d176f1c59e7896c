"""Independent reference for the softselect, loss and MLP-input kernels.

The composed chains `dasl.logit.softselect`, the fused loss term and
`dasl.interp.MlpBinding`'s input were built from before they became single
kernels: each step one `dasl.tensor` op with its own tape record.  Used by
the tests as the second route for values and accumulated gradients, which
must match bit for bit; deliberately plain.
"""

from __future__ import annotations

import numpy as np

from dasl import tensor as T
from dasl.logit import _MASK_FILL, DegenerateVector
from dasl.tensor import Tensor


def _data(x) -> np.ndarray:
    if isinstance(x, Tensor):
        return x.data
    if isinstance(x, T.Parameter):
        return x.value
    return np.asarray(x, dtype=np.float64)


def softselect(v, index) -> Tensor:
    data = _data(v)
    if data.ndim < 1 or data.shape[-1] < 2:
        raise DegenerateVector(f"softselect needs >= 2 classes, got shape {data.shape}")
    lead, n = data.shape[:-1], data.shape[-1]
    if T._check_broadcast(lead, np.shape(index)) == lead:
        sel = T.select_class(v, index)
        rest = T.logsumexp(T.mask_class(v, index, _MASK_FILL), axis=-1)
        return T.sub(sel, rest)
    rows = T.reshape(v, lead + (1, n))
    rest = T.logsumexp(T.mask_class(rows, np.arange(n), _MASK_FILL), axis=-1)
    return T.select_class(T.sub(v, rest), index)


def softplus_neg_sum(a, shape: tuple = ()) -> Tensor:
    """The fused loss term as the compiler once built it: spread, neg, softplus, sum."""
    value = a
    if _data(a).shape != shape:
        value = T.add(value, np.zeros(shape))
    return T.reduce_sum(T.softplus(T.neg(value)))


def mlp_input(args, cards):
    """The MLP's first-layer input: each argument encoded, then one concat."""
    encoded = []
    for arg, card in zip(args, cards):
        if card is not None:
            ids = np.asarray(arg, dtype=np.int64)
            hot = np.zeros((ids.size, card))
            hot[np.arange(ids.size), ids] = 1.0
            encoded.append(hot)
        else:
            encoded.append(arg)
    return encoded[0] if len(encoded) == 1 else T.concat(encoded, axis=-1)
