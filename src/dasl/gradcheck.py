"""Randomized gradient verification over compiled graphs.

Three families of scalar graphs: chains of primitive ops, small MLPs, and
fully compiled logic plans.  Each is checked against central finite
differences; the builders are deterministic given the trial seed.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .compiler import compile, fuse_loss
from .interp import bind_theory
from .lang import check_theory, parse_theory
from .tensor import GradCheckReport, Parameter, grad_check


def _primitive_graph(rng: np.random.Generator):
    """A chain mixing the elementwise kernels, reductions, and matmul."""
    a = Parameter("a", rng.uniform(-3, 3, size=(3, 4)))
    b = Parameter("b", rng.uniform(-3, 3, size=(4, 2)))
    c = Parameter("c", rng.uniform(-3, 3, size=(3, 2)))
    kind = int(rng.integers(4))

    def build():
        h = T.matmul(a, b)
        if kind == 0:
            h = T.tanh(T.add(h, c))
            return T.reduce_sum(T.softplus(h))
        if kind == 1:
            h = T.sigmoid(T.sub(h, c))
            return T.reduce_mean(T.mul(h, h))
        if kind == 2:
            h = T.logsigmoid(T.add(h, c))
            return T.logsumexp(T.reshape(h, (6,)))
        h = T.relu(T.add(h, c))
        return T.reduce_sum(T.log(T.add(T.exp(T.neg(h)), 1.0)))

    return build, [a, b, c]


def _mlp_graph(rng: np.random.Generator):
    """Random small MLP with a softplus pseudo-loss."""
    sizes = [int(rng.integers(3, 7)) for _ in range(3)]
    x = rng.uniform(-1, 1, size=(5, sizes[0]))
    params = []
    for i, (m, n) in enumerate(zip(sizes[:-1], sizes[1:])):
        params.append(Parameter(f"w{i}", rng.uniform(-0.8, 0.8, size=(m, n))))
        params.append(Parameter(f"b{i}", rng.uniform(-0.3, 0.3, size=n)))

    def build():
        h = T.Tensor(x)
        for i in range(0, len(params), 2):
            h = T.add(T.matmul(h, params[i]), params[i + 1])
            if i + 2 < len(params):
                h = T.sigmoid(h)
        return T.reduce_sum(T.softplus(T.neg(h)))

    return build, params


# a3 tapes an embedding table's rows (`gather`), an MLP input built from a
# taped argument (`write_columns`) and a quantifier under the tape
# (`conjoin_axis`); a4 the equality chain (`sqrt`) and Q applied to both r and
# h(r), one batched call cut back into its applications (`concat`, `slice_rows`)
_LOGIC_SRC = """
sort Row dim 5;
sort K card 4;
sort E card 3 dim 2;
rel P : Row out 4 mlp 6 act sigmoid;
rel Q : Row mlp 5 act tanh;
rel S : Row x E mlp 4 act relu;
func h : Row -> Row mlp 3 act tanh;
data Pool : Row x K from "mem";
axiom a1 : forall (r, k): Pool . pi[k](P(r)) & Q(r);
axiom a2 : forall (r, k): Pool . forall j: K . pi[j](P(r)) -> pi[(j + 1) mod 4](P(r)) | Q(r);
axiom a3 : forall (r, k): Pool . exists e: E . S(r, e);
axiom a4 : forall (r, k): Pool . ~(h(r) = r) | Q(h(r));
"""


def _logic_graph(rng: np.random.Generator):
    """A compiled four-axiom plan; the scalar is the fused training loss."""
    theory = check_theory(parse_theory(_LOGIC_SRC))
    rows = rng.normal(size=(6, 5))
    ks = rng.integers(4, size=6)
    interp = bind_theory(theory, data={"Pool": (rows, ks)},
                         seed=int(rng.integers(2 ** 31)))
    plan = compile(theory, interp, batch_size=None)
    fused = fuse_loss(plan)
    draws = plan.draw()

    def build():
        value, _ = fused.evaluate(draws)
        return value

    return build, interp.parameters


def run_gradcheck(trials: int = 50, seed: int = 0, h: float = 1e-5,
                  tol: float = 1e-4) -> list[tuple[str, GradCheckReport]]:
    """Check `trials` randomized graphs; returns (name, report) pairs."""
    rng = np.random.default_rng(seed)
    builders = [("primitive", _primitive_graph), ("mlp", _mlp_graph),
                ("logic-plan", _logic_graph)]
    out = []
    for i in range(trials):
        name, make = builders[i % len(builders)]
        build, params = make(rng)
        report = grad_check(build, params, h=h, tol=tol)
        out.append((f"{name}-{i}", report))
    return out
