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

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import tensor as T
from .tensor import Tensor

# logit assigned to crisp truth; sigma(BIG) ~ 1 - 2e-9 keeps double-precision
# headroom in chained conjunctions
BIG = 20.0

# above this, 1 - prod(t_i) underflows and the exact conjunction form loses
# accuracy, so we switch to -ln(sum exp(-l_i))
STABLE_MIN = 15.0

_CLAMP = -1e-12  # keeps ln(-expm1(S)) finite when every conjunct is true
_MASK_FILL = -1e30


class EmptyConjunction(Exception):
    pass


class EmptyDisjunction(Exception):
    pass


class DegenerateVector(Exception):
    pass


class InvalidParams(Exception):
    pass


class DomainError(Exception):
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

    Computed as S - ln(-expm1(S)) for S = sum logsigmoid(l_i); where every
    operand exceeds STABLE_MIN this switches to -ln(sum exp(-l_i)).  One
    kernel (`tensor.conjoin`) and one tape record, whose pull gives each
    operand the per-conjunct gradient of that formula.

    `parts`, from `conj_parts(*first)`, stands for leading operands `first`
    whose sums are already taken: the sums start from them, so
    `conj(*logits, parts=conj_parts(*first))` adds in the order
    `conj(*first, *logits)` does and equals it bit for bit.
    """
    if not logits:
        raise EmptyConjunction("conjunction of zero formulas")
    if parts is None and len(logits) == 1:  # the operand itself; a Parameter joins the tape
        x = logits[0]
        if isinstance(x, T.Parameter):
            return T.reshape(x, x.shape)
        return x if isinstance(x, Tensor) else Tensor(_data(x))
    return T.conjoin(logits, parts, STABLE_MIN, _CLAMP)


def conj_parts(*logits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The running (min, sum logsigmoid, sum exp(-l)) that `conj` keeps over `logits`.

    For constant operands whose conjunction with others is taken many times:
    `conj(*rest, parts=conj_parts(*logits))` resumes from these sums.  The
    three arrays have the operands' broadcast shape.  Nothing is recorded
    on a tape.
    """
    if not logits:
        raise EmptyConjunction("conjunction of zero formulas")
    datas = [_data(l) for l in logits]
    T._check_broadcast(*[d.shape for d in datas])
    s, acc = T.conjoin_sums(datas)
    return reduce(np.minimum, datas), np.asarray(s), np.asarray(acc)


def conj_reduce(t, axis: int) -> Tensor:
    """Conjunction along a tensor axis (the universal-quantifier reduction); one
    kernel (`tensor.conjoin_axis`) and one tape record."""
    data = _data(t)
    T._check_axis(data, axis)
    if data.shape[axis] == 0:
        raise EmptyConjunction("conjunction over an empty axis")
    return T.conjoin_axis(t, axis, STABLE_MIN, _CLAMP)


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


@dataclass(frozen=True)
class EqualityParams:
    """Noise model for the equality logit.

    eps:   spread of the distance when the two values are equal
    mu:    typical distance when they are genuinely different
    sigma: spread of that unequal-case distance
    """

    eps: float = 0.1
    mu: float = 1.0
    sigma: float = 0.5

    def validate(self) -> "EqualityParams":
        if not (self.eps > 0 and self.mu > 0 and self.sigma > 0):
            raise InvalidParams(f"all parameters must be positive: {self}")
        if not self.eps < self.sigma:
            raise InvalidParams(f"eps must be < sigma: {self}")
        return self


DEFAULT_EQUALITY = EqualityParams()


def equality_logit(u, v, params: EqualityParams = DEFAULT_EQUALITY) -> Tensor:
    """Log likelihood ratio that u and v denote the same value.

    With x = ||u - v|| (norm over the last axis; plain difference for
    scalars), returns

        ln(2*sigma/eps) - x^2/(2*eps^2)
                        - ln(exp(-(x-mu)^2/(2*sigma^2)) + exp(-(x+mu)^2/(2*sigma^2)))

    which is the log of the ratio between an equal-case density centred at
    0 with spread eps and an unequal-case density centred at +-mu with
    spread sigma.  Maximal at x = 0 and monotone non-increasing for x >= 0
    whenever eps < sigma.
    """
    params.validate()
    d = T.sub(u, v)
    d2 = T.mul(d, d)
    x2 = d2 if _data(d).ndim == 0 else T.reduce_sum(d2, axis=-1)
    # the tiny offset keeps the gradient finite at u = v and moves the
    # value by far less than any tolerance in use
    x = T.sqrt(T.add(x2, 1e-30))
    inv2s2 = 1.0 / (2.0 * params.sigma * params.sigma)
    a = T.mul(T.mul(T.sub(x, params.mu), T.sub(x, params.mu)), inv2s2)
    b = T.mul(T.mul(T.add(x, params.mu), T.add(x, params.mu)), inv2s2)
    # ln(e^-a + e^-b) = -a + ln(1 + e^-(b-a)), and b >= a for x >= 0
    lo, hi = a, b
    denom_log = T.sub(T.softplus(T.neg(T.sub(hi, lo))), lo)
    const = float(np.log(2.0 * params.sigma / params.eps))
    return T.sub(T.sub(const, T.mul(x2, 1.0 / (2.0 * params.eps * params.eps))), denom_log)


def bool_vector(bits, big: float = BIG) -> Tensor:
    """Crisp truth vector: bit b -> (2b - 1) * big."""
    arr = np.asarray(bits, dtype=np.float64)
    return Tensor((2.0 * arr - 1.0) * big)


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


# ---------------------------------------------------------------------------
# truth-space t-norms, for the vanishing-gradient comparison only


def tnorm_eval(kind: str, t1, t2):
    """Binary t-norm on raw truth values in [0,1] (not logits)."""
    a = np.asarray(t1, dtype=np.float64)
    b = np.asarray(t2, dtype=np.float64)
    if (a < 0).any() or (a > 1).any() or (b < 0).any() or (b > 1).any():
        raise DomainError("truth values must lie in [0, 1]")
    if kind == "product":
        return a * b
    if kind == "goedel-min":
        return np.minimum(a, b)
    if kind == "lukasiewicz":
        return np.maximum(0.0, a + b - 1.0)
    raise ValueError(f"unknown t-norm {kind!r}")


def tnorm_grad(kind: str, t1, t2):
    """Subgradients (d/dt1, d/dt2) of tnorm_eval at (t1, t2)."""
    a = np.asarray(t1, dtype=np.float64)
    b = np.asarray(t2, dtype=np.float64)
    if (a < 0).any() or (a > 1).any() or (b < 0).any() or (b > 1).any():
        raise DomainError("truth values must lie in [0, 1]")
    if kind == "product":
        return b, a
    if kind == "goedel-min":
        take_a = a <= b  # ties route to the first argument
        return take_a.astype(np.float64), (~take_a).astype(np.float64)
    if kind == "lukasiewicz":
        alive = (a + b - 1.0 > 0).astype(np.float64)
        return alive, alive
    raise ValueError(f"unknown t-norm {kind!r}")
