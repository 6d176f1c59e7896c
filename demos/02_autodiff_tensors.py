"""The differentiable substrate: tensors, tapes, gradients, checkpoints.

Everything compiled from a theory runs on float64 numpy arrays whose
operations record backward rules on a per-step tape.
"""

import os
import tempfile

import numpy as np

from dasl import tensor as T
from dasl.tensor import Parameter, Tape, backward, grad_check, load_checkpoint, save_checkpoint

rng = np.random.default_rng(0)

print("=== a scalar gradient by tape replay ===")
p = Parameter("p", np.array(0.0))
with Tape():
    loss = T.softplus(T.neg(p))  # -ln(sigma(p))
    backward(loss)
print(f"d/dp -ln(sigma(p)) at p=0 is {float(p.grad):+.3f}  (analytically -0.5)")

print("\n=== a small MLP checked against central finite differences ===")
w1 = Parameter("w1", rng.uniform(-0.5, 0.5, size=(5, 8)))
b1 = Parameter("b1", np.zeros(8))
w2 = Parameter("w2", rng.uniform(-0.5, 0.5, size=(8, 3)))
x = rng.normal(size=(6, 5))


def build():
    h = T.sigmoid(T.add(T.matmul(T.Tensor(x), w1), b1))
    return T.reduce_sum(T.softplus(T.matmul(h, w2)))


report = grad_check(build, [w1, b1, w2])
print(f"max relative error vs finite differences: {report.max_rel_error:.2e} "
      f"({'pass' if report.passed else 'FAIL'})")

print("\n=== broadcasting sums gradients over stretched axes ===")
a = Parameter("a", np.ones((3, 1)))
b = Parameter("b", np.ones(4))
with Tape():
    a.zero_grad(), b.zero_grad()
    backward(T.reduce_sum(T.mul(a, b)))
print(f"value shapes {a.value.shape} {b.value.shape} -> grad shapes "
      f"{a.grad.shape} {b.grad.shape}")

print("\n=== logsumexp is exact under uniform shifts ===")
v = rng.uniform(-5, 5, size=16)
print(f"|lse(v+100) - (lse(v)+100)| = "
      f"{abs(T.logsumexp(v + 100.0).item() - (T.logsumexp(v).item() + 100.0)):.2e}")

print("\n=== checkpoint container round trip ===")
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "demo.ckpt")
    save_checkpoint([w1, b1, w2], path)
    loaded = load_checkpoint(path)
print("names:", sorted(loaded), "| w1 identical:", np.array_equal(loaded["w1"], w1.value))
