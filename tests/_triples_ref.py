"""Independent reference for `dasl.interp.build_triples`.

The per-triple loop that `build_triples` used before it was written with
array operations: one scalar `rng.integers` draw per triple and one cursor
step per image taken.  Used by the tests as the second route for the triple
ids and for `InsufficientClassCount`; deliberately slow and simple.
"""

from __future__ import annotations

import numpy as np

from dasl.interp import Column, Domain, InsufficientClassCount


def build_triples(rows: np.ndarray, labels: np.ndarray, per_class: int, seed: int,
                  n_classes: int = 10) -> Domain:
    """Index triples (i1, i2, i3) with label(i1) + label(i2) = label(i3) mod n.

    Labels steer construction only; the emitted domain exposes pixel rows,
    never labels.  Triples are ordered round-robin over the class of the
    third element, so any prefix of k*n_classes triples is class-balanced;
    images may repeat across triples, cycling through each class pool.
    """
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels)
    pools = []
    for c in range(n_classes):
        pool = np.flatnonzero(labels == c)
        if len(pool) < max(per_class, 1):
            raise InsufficientClassCount(c)
        pools.append(rng.permutation(pool))
    cursors = np.zeros(n_classes, dtype=np.int64)

    def take(cls: int) -> int:
        i = pools[cls][cursors[cls] % len(pools[cls])]
        cursors[cls] += 1
        return int(i)

    i1, i2, i3 = [], [], []
    for _ in range(per_class):
        for c in range(n_classes):
            y1 = int(rng.integers(n_classes))
            y2 = (c - y1) % n_classes
            i1.append(take(y1))
            i2.append(take(y2))
            i3.append(take(c))
    rows = np.asarray(rows, dtype=np.float64)
    cols = tuple(Column(rows, np.array(ids)) for ids in (i1, i2, i3))
    return Domain("Triples", len(i1), cols)
