"""Logit-space truth algebra.

Truth values t in [0,1] are carried as logits l = ln(t/(1-t)); sigma is the
inverse map.  Connectives are computed directly in logit space so that
conjunctions become sums of log-probabilities and gradients do not vanish
as conjuncts accumulate.  All functions accept floats, numpy arrays,
Tensors, or Parameters, broadcast elementwise, and are differentiable
through the tensor tape.  A conjunction, n-ary or along an axis, is one
kernel of `dasl.tensor` and adds one tape record, however many operands.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor

# logit assigned to crisp truth; sigma(BIG) ~ 1 - 2e-9 keeps double-precision
# headroom in chained conjunctions
BIG = 20.0

# the equality logit's noise model: the distance between equal values spreads
# by EQ_EPS around 0, between unequal ones by EQ_SIGMA around +-EQ_MU.  With
# EQ_EPS < EQ_SIGMA the logit is maximal at 0 and non-increasing after it.
EQ_EPS, EQ_MU, EQ_SIGMA = 0.1, 1.0, 0.5

# caps S = sum logsigmoid(l_i) below 0, so that ln(-expm1(S)) stays finite when
# every conjunct is true.  A conjunction is exact below -ln(1e-300) = 690.7755
# and saturates there, as the chain of single ops does at tensor.log's floor.
_CAP = -1e-300
_MASK_FILL = -1e30


class EmptyConjunction(Exception):
    pass


class EmptyDisjunction(Exception):
    pass


class DegenerateVector(Exception):
    pass


def _data(x) -> np.ndarray:
    if isinstance(x, Tensor):
        return x.data
    if isinstance(x, T.Parameter):
        return x.value
    return np.asarray(x, dtype=np.float64)


def neg(l) -> Tensor:
    """Logical negation: logit(1 - t) = -l."""
    return T.neg(l)


def conj(*logits, parts=None) -> Tensor:
    """n-ary conjunction: logit(prod sigma(l_i)), elementwise with broadcasting.

    Computed as S - ln(-expm1(min(S, _CAP))) for S = sum logsigmoid(l_i),
    exact where the result is below 690.7755 and saturating there.  One
    kernel (`tensor.conjoin`) and one tape record, whose pull gives each
    operand the per-conjunct gradient of that formula.

    `parts`, from `conj_parts(*first)`, stands for leading operands `first`
    whose sum is already taken: the sum starts from it, so
    `conj(*logits, parts=conj_parts(*first))` adds in the order
    `conj(*first, *logits)` does and equals it bit for bit.

    An operand may be a `tensor.Columns`, a static operand kept at two
    columns: its logsigmoid is taken there and gathered by its bits where it
    is added.
    """
    if not logits:
        raise EmptyConjunction("conjunction of zero formulas")
    if parts is None and len(logits) == 1:  # the operand itself; a Parameter joins the tape
        x = logits[0]
        if isinstance(x, T.Parameter):
            return T.reshape(x, x.shape)
        if isinstance(x, T.Columns):
            return Tensor(x.wide())
        return x if isinstance(x, Tensor) else Tensor(_data(x))
    return T.conjoin(logits, parts, _CAP)


def conj_parts(*logits) -> np.ndarray:
    """S = sum logsigmoid(l_i), the running sum `conj` keeps over `logits`.

    For constant operands whose conjunction with others is taken many times:
    `conj(*rest, parts=conj_parts(*logits))` resumes from it.  S has the
    operands' broadcast shape.  An operand may be a `tensor.Columns`, as in
    `conj`.  Nothing is recorded on a tape.
    """
    if not logits:
        raise EmptyConjunction("conjunction of zero formulas")
    return np.asarray(T.conjoin_sums([l if isinstance(l, T.Columns) else _data(l)
                                      for l in logits]))


def conj_reduce(t, axis: int) -> Tensor:
    """Conjunction along a tensor axis (the universal-quantifier reduction); one
    kernel (`tensor.conjoin_axis`) and one tape record.  Over an axis of one
    entry it is that entry, exactly, as `conj` of one operand is."""
    data = _data(t)
    T._check_axis(data, axis)
    if data.shape[axis] == 0:
        raise EmptyConjunction("conjunction over an empty axis")
    if data.shape[axis] == 1:  # logit(sigma(l)) = l: the axis dropped, gradient 1
        return T.reshape(t, np.squeeze(data, axis).shape)
    return T.conjoin_axis(t, axis, _CAP)


def disj(*logits) -> Tensor:
    """n-ary disjunction: ~(~a & ~b & ...)."""
    if not logits:
        raise EmptyDisjunction("disjunction of zero formulas")
    return T.neg(conj(*[T.neg(l) for l in logits]))


def implies(a, b) -> Tensor:
    """Implication: ~(a & ~b); differentiable in both sides."""
    return T.neg(conj(a, T.neg(b)))


def softselect(v, index) -> Tensor:
    """logit(softmax(v)_i) = v_i - logsumexp of the other components.

    v has classes along the last axis; index is one integer or an integer
    array that broadcasts against v's leading axes, and the result has their
    broadcast shape.  Where the index has at most one entry per row of v,
    only the selected class is masked (`tensor.softselect_rows`).  Where it
    spans axes v lacks, every class's value is taken once per row of v, with
    the same -1e30 hole, and gathered by the index (`tensor.softselect_table`):
    bit for bit what masking v spread to the index's axes gives, at n entries
    per row of v rather than n per index entry.  Either way one kernel and
    one tape record.
    """
    data = _data(v)
    if data.ndim < 1 or data.shape[-1] < 2:
        raise DegenerateVector(f"softselect needs >= 2 classes, got shape {data.shape}")
    lead = data.shape[:-1]
    if T._check_broadcast(lead, np.shape(index)) == lead:
        return T.softselect_rows(v, index, _MASK_FILL)
    return T.softselect_table(v, index, _MASK_FILL)


def equality_logit(u, v) -> Tensor:
    """Log likelihood ratio that u and v denote the same value.

    With x = ||u - v|| (norm over the last axis; plain difference for
    scalars), returns

        ln(2*sigma/eps) - x^2/(2*eps^2)
                        - ln(exp(-(x-mu)^2/(2*sigma^2)) + exp(-(x+mu)^2/(2*sigma^2)))

    with eps, mu, sigma = EQ_EPS, EQ_MU, EQ_SIGMA: the log of the ratio
    between an equal-case density centred at 0 with spread eps and an
    unequal-case density centred at +-mu with spread sigma.
    """
    d = T.sub(u, v)
    d2 = T.mul(d, d)
    x2 = d2 if _data(d).ndim == 0 else T.reduce_sum(d2, axis=-1)
    # the tiny offset keeps the gradient finite at u = v and moves the
    # value by far less than any tolerance in use
    x = T.sqrt(T.add(x2, 1e-30))
    inv2s2 = 1.0 / (2.0 * EQ_SIGMA * EQ_SIGMA)
    a = T.mul(T.mul(T.sub(x, EQ_MU), T.sub(x, EQ_MU)), inv2s2)
    b = T.mul(T.mul(T.add(x, EQ_MU), T.add(x, EQ_MU)), inv2s2)
    # ln(e^-a + e^-b) = -a + ln(1 + e^-(b-a)), and b >= a for x >= 0
    lo, hi = a, b
    denom_log = T.sub(T.softplus(T.neg(T.sub(hi, lo))), lo)
    const = float(np.log(2.0 * EQ_SIGMA / EQ_EPS))
    return T.sub(T.sub(const, T.mul(x2, 1.0 / (2.0 * EQ_EPS * EQ_EPS))), denom_log)


def bool_vector(bits) -> Tensor:
    """Crisp truth vector: bit b -> (2b - 1) * BIG."""
    arr = np.asarray(bits, dtype=np.float64)
    return Tensor((2.0 * arr - 1.0) * BIG)


def mask_classes(class_logits, mask, condition) -> Tensor:
    """Suppress the masked classes of a classifier unless condition holds.

    out_c = class_logits_c & (mask_c -> condition).  Classes outside the
    mask pass through (vacuous implication); masked classes are crushed
    toward -BIG when the condition is false.
    """
    cdata = _data(class_logits)
    mdata = _data(mask)
    if mdata.shape != cdata.shape[-1:]:
        raise T.ShapeMismatch(cdata.shape, mdata.shape)
    cond = condition
    cond_data = _data(condition)
    if cond_data.ndim == cdata.ndim - 1:
        cond = T.reshape(cond, cond_data.shape + (1,))
    return conj(class_logits, implies(mask, cond))
