"""The truth-value algebra in logit space, and why it beats raw t-norms.

Truth t in [0,1] is carried as l = ln(t/(1-t)).  Conjunction becomes a sum
of log-probabilities, so chaining thousands of conjuncts neither
underflows nor kills the gradient.
"""

import numpy as np

from dasl import logit as L
from dasl import tensor as T
from dasl.tensor import Parameter, Tape, backward


def sigma(x):
    return 1 / (1 + np.exp(-np.asarray(x, dtype=float)))


print("=== connectives agree with the truth-space definitions ===")
a, b = 1.2, -0.7
ta, tb = sigma(a), sigma(b)
print(f"and({a}, {b}) = {L.conj(a, b).item():+.6f}   "
      f"logit(ta*tb) = {np.log(ta * tb / (1 - ta * tb)):+.6f}")
print(f"or ({a}, {b}) = {L.disj(a, b).item():+.6f}   "
      f"logit(ta+tb-ta*tb) = {np.log((ta + tb - ta * tb) / (1 - (ta + tb - ta * tb))):+.6f}")

print("\n=== the vanishing-gradient contrast ===")
n = 2000
t = 0.99
print(f"product t-norm: d(prod)/dt_i with {n} conjuncts at t={t}: {t ** (n - 1):.2e}")
l = float(np.log(t / (1 - t)))
params = [Parameter(f"l{i}", np.array(l)) for i in range(n)]
with Tape():
    for p in params:
        p.zero_grad()
    backward(T.softplus(T.neg(L.conj(*params))))
print(f"logit space:    d(loss)/dl_i with {n} conjuncts: {abs(float(params[0].grad)):.4f} "
      f"(= sigma(-l), independent of n)")

print("\n=== softselect ties classifiers into formulas ===")
scores = np.array([2.0, 0.5, -1.0])
for i in range(3):
    pi = L.softselect(scores, i).item()
    print(f"pi_{i}(scores) = {pi:+.4f}  sigma -> {sigma(pi):.4f}")

print("\n=== the equality logit is a log likelihood ratio over distance ===")
print(f"noise model: eps={L.EQ_EPS}, mu={L.EQ_MU}, sigma={L.EQ_SIGMA}")
for x in (0.0, 0.1, 0.25, 0.5, 1.0):
    v = L.equality_logit(x, 0.0).item()
    print(f"x = {x:4.2f} -> logit {v:+9.3f}  (truth {sigma(v):.4f})")

print("\n=== class masking: suppress classes whose precondition fails ===")
class_logits = np.zeros(4)
mask = L.bool_vector([1, 0, 0, 0])  # rule targets class 0 only
for cond in (L.BIG, -L.BIG):
    out = L.mask_classes(class_logits, mask, cond).data
    tag = "condition holds" if cond > 0 else "condition fails"
    print(f"{tag}: {np.round(out, 3)}")
