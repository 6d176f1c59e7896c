"""Randomized gradient verification over compiled logic plans.

Each graph is one theory, `_LOGIC_SRC`, bound to random parameters and data
and compiled; its scalar is the fused training loss.  Each is checked
against central finite differences and is deterministic given the trial seed.
"""

from __future__ import annotations

import numpy as np

from .compiler import compile, fuse_loss
from .errors import InvalidValue
from .interp import bind_theory
from .lang import check_theory, parse_theory
from .tensor import GradCheckReport, grad_check

# the MLPs tape `affine` with each activation; a1 and a2 take a class by a row's
# id (`softselect_rows`) and by an index variable (`softselect_table`); a3 an
# embedding table's rows (`gather`), an MLP input built from a taped argument
# (`write_columns`) and a quantifier under the tape (`conjoin_axis`); a4 the
# equality chain (`sqrt`) and Q applied to both r and h(r), one batched call
# cut back into its applications (`concat`, `slice_rows`)
_LOGIC_SRC = """
sort Row dim 2;
sort K card 4;
sort E card 3 dim 2;
rel P : Row out 4 mlp 2 act sigmoid;
rel Q : Row mlp 2 act tanh;
rel S : Row x E mlp 2 act relu;
func h : Row -> Row mlp 2 act tanh;
data Pool : Row x K from "mem";
axiom a1 : forall (r, k): Pool . pi[k](P(r)) & Q(r);
axiom a2 : forall (r, k): Pool . forall j: K . pi[j](P(r)) -> pi[(j + 1) mod 4](P(r)) | Q(r);
axiom a3 : forall (r, k): Pool . exists e: E . S(r, e);
axiom a4 : forall (r, k): Pool . ~(h(r) = r) | Q(h(r));
"""


def _logic_graph(rng: np.random.Generator):
    """The compiled four-axiom plan on fresh rows; the scalar is the fused training loss."""
    theory = check_theory(parse_theory(_LOGIC_SRC))
    rows = rng.normal(size=(5, 2))
    ks = rng.integers(4, size=5)
    interp = bind_theory(theory, data={"Pool": (rows, ks)},
                         seed=int(rng.integers(2 ** 31)))
    plan = compile(theory, interp, batch_size=None)
    fused = fuse_loss(plan)
    draws = plan.draw()

    def build():
        value, _ = fused.evaluate(draws)
        return value

    return build, interp.parameters


def run_gradcheck(trials: int = 50, seed: int = 0) -> list[tuple[str, GradCheckReport]]:
    """Check `trials` randomized graphs with `grad_check`; returns (name, report) pairs."""
    if trials < 1:
        raise InvalidValue(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    out = []
    for i in range(trials):
        build, params = _logic_graph(rng)
        out.append((f"logic-plan-{i}", grad_check(build, params)))
    return out
