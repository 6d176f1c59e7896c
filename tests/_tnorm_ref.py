"""Truth-space t-norms on raw truth values in [0, 1] (not logits).

The baselines of the vanishing-gradient comparison: what dasl's logit-space
conjunction is compared with, not what it runs.
"""

from __future__ import annotations

import numpy as np


class DomainError(Exception):
    pass


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
