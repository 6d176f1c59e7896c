"""Independent scalar reference interpreter for compiled-plan checks.

Re-implements the logit semantics with plain Python floats and explicit
loops (no tensor module, no broadcasting, no tape), walking the same
checked AST.  Used by the tests as the second route for root-logit
equivalence; deliberately slow and simple.
"""

from __future__ import annotations

import math

import numpy as np

from dasl.interp import Column, EmbeddingColumn
from dasl.lang import (
    And,
    ArithExpr,
    BoolConst,
    BoolVectorConst,
    Constant,
    Equals,
    Exists,
    Forall,
    FuncApp,
    Implies,
    IntLiteral,
    Not,
    Or,
    RelApp,
    SoftSelect,
    Variable,
)


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def logsigmoid(x: float) -> float:
    return -math.log1p(math.exp(-abs(x))) + min(x, 0.0)


def conj(ls: list[float]) -> float:
    if len(ls) == 1:
        return ls[0]
    if min(ls) > 15.0:
        return -math.log(sum(math.exp(-l) for l in ls))
    s = sum(logsigmoid(l) for l in ls)
    s_c = min(s, -1e-12)
    return s - math.log(-math.expm1(s_c))


def disj(ls: list[float]) -> float:
    return -conj([-l for l in ls])


def implies(a: float, b: float) -> float:
    return -conj([a, -b])


def softselect(vec: list[float], idx: int) -> float:
    others = [v for j, v in enumerate(vec) if j != idx]
    m = max(others)
    return vec[idx] - (m + math.log(sum(math.exp(v - m) for v in others)))


def equality(u, v, params) -> float:
    du = u if isinstance(u, list) else [u]
    dv = v if isinstance(v, list) else [v]
    x2 = sum((a - b) ** 2 for a, b in zip(du, dv))
    x = math.sqrt(x2 + 1e-30)
    s2 = 2.0 * params.sigma * params.sigma
    a = (x - params.mu) ** 2 / s2
    b = (x + params.mu) ** 2 / s2
    denom = math.log(math.exp(-a) + math.exp(-b))
    return math.log(2.0 * params.sigma / params.eps) - x2 / (2.0 * params.eps ** 2) - denom


def _mlp_forward(binding, args: list) -> list[float]:
    row: list[float] = []
    for arg, card in zip(args, binding.arg_cards):
        if card is not None:
            hot = [0.0] * card
            hot[int(arg)] = 1.0
            row.extend(hot)
        else:
            row.extend(float(v) for v in arg)
    h = row
    last = len(binding.weights) - 1
    for i, (w, b) in enumerate(zip(binding.weights, binding.biases)):
        wv, bv = w.value, b.value
        out = []
        for j in range(wv.shape[1]):
            acc = bv[j]
            for k in range(wv.shape[0]):
                acc += h[k] * wv[k, j]
            out.append(acc)
        if i < last:
            if binding.activation == "sigmoid":
                out = [sigmoid(v) for v in out]
            elif binding.activation == "tanh":
                out = [math.tanh(v) for v in out]
            else:
                out = [max(v, 0.0) for v in out]
        h = out
    return h


def _column_value(col, i: int):
    if isinstance(col, Column):
        value = col.values[i if col.ids is None else col.ids[i]]
        return int(value) if value.ndim == 0 else [float(v) for v in value]
    if isinstance(col, EmbeddingColumn):
        return [float(v) for v in col.param.value[col.ids[i]]]
    raise TypeError(col)


def eval_term(theory, interp, t, env):
    if isinstance(t, Variable):
        return env[t.name]
    if isinstance(t, Constant):
        value = interp.symbols[t.name]([])
        if hasattr(value, "data"):
            return [float(v) for v in np.ravel(value.data)]
        if isinstance(value, (int, np.integer)):
            return int(value)
        return [float(v) for v in np.ravel(value)]
    if isinstance(t, IntLiteral):
        return t.value
    if isinstance(t, ArithExpr):
        a = eval_term(theory, interp, t.args[0], env)
        b = eval_term(theory, interp, t.args[1], env)
        return (a + b) if t.op == "add" else (a % b)
    if isinstance(t, FuncApp):
        binding = interp.symbols[t.symbol]
        args = [eval_term(theory, interp, a, env) for a in t.args]
        if hasattr(binding, "weights"):
            out = _mlp_forward(binding, args)
            return out if len(out) > 1 else out[0]
        raw = binding.fn(*[np.asarray(a) if isinstance(a, list) else a for a in args])
        if isinstance(raw, (int, np.integer)):
            return int(raw)
        arr = np.ravel(np.asarray(raw, dtype=np.float64))
        return [float(v) for v in arr] if arr.size > 1 else float(arr[0])
    raise TypeError(t)


def eval_formula(theory, interp, f, env) -> float | list[float]:
    big = interp.big
    if isinstance(f, BoolConst):
        return big if f.value else -big
    if isinstance(f, BoolVectorConst):
        bits = theory.boolvec(f.name).bits
        return [big if b else -big for b in bits]
    if isinstance(f, RelApp):
        bv = theory.boolvec(f.symbol)
        if bv is not None:
            i = eval_term(theory, interp, f.args[0], env)
            return big if bv.bits[i] else -big
        binding = interp.symbols[f.symbol]
        args = [eval_term(theory, interp, a, env) for a in f.args]
        if hasattr(binding, "weights"):
            out = _mlp_forward(binding, args)
            return out if len(out) > 1 else out[0]
        raw = binding.fn(*[np.asarray(a, dtype=np.float64) if isinstance(a, list) else a
                           for a in args])
        arr = np.ravel(np.asarray(raw, dtype=np.float64))
        return [float(v) for v in arr] if arr.size > 1 else float(arr[0])
    if isinstance(f, Equals):
        lhs = eval_term(theory, interp, f.lhs, env)
        rhs = eval_term(theory, interp, f.rhs, env)
        if isinstance(lhs, int) and isinstance(rhs, int):
            return big if lhs == rhs else -big
        return equality(lhs, rhs, interp.equality)
    if isinstance(f, Not):
        v = eval_formula(theory, interp, f.body, env)
        return [-x for x in v] if isinstance(v, list) else -v
    if isinstance(f, And):
        return _nary(theory, interp, f.items, env, conj)
    if isinstance(f, Or):
        return _nary(theory, interp, f.items, env, disj)
    if isinstance(f, Implies):
        return _nary(theory, interp, (Not(f.lhs), f.rhs), env, disj)
    if isinstance(f, SoftSelect):
        idx = eval_term(theory, interp, f.index, env)
        vec = eval_formula(theory, interp, f.vector, env)
        return softselect(vec, idx)
    if isinstance(f, Forall):
        return _quantify(theory, interp, f, env)
    if isinstance(f, Exists):
        return -_quantify(theory, interp, Forall(f.vars, f.domain, Not(f.body)), env)
    raise TypeError(f)


def _nary(theory, interp, items, env, combine):
    vals = [eval_formula(theory, interp, i, env) for i in items]
    width = max(len(v) if isinstance(v, list) else 1 for v in vals)
    if width == 1:
        return combine([v for v in vals])
    cols = []
    for j in range(width):
        col = [v[j] if isinstance(v, list) else v for v in vals]
        cols.append(combine(col))
    return cols


def _quantify(theory, interp, f: Forall, env) -> float:
    sort = theory.sort(f.domain)
    results: list[float] = []
    if sort is not None and sort.is_index:
        for i in range(sort.cardinality):
            v = eval_formula(theory, interp, f.body, {**env, f.vars[0]: i})
            results.extend(v if isinstance(v, list) else [v])
        return conj(results)
    domain = interp.domains[f.domain]
    for i in range(domain.cardinality):
        inner = dict(env)
        for var, col in zip(f.vars, domain.columns):
            inner[var] = _column_value(col, i)
        v = eval_formula(theory, interp, f.body, inner)
        results.extend(v if isinstance(v, list) else [v])
    return conj(results)


def root_logit(theory, interp) -> float:
    """Scalar-path root: the conjunction over all axioms, full sampling."""
    roots = []
    for ax in theory.axioms:
        v = eval_formula(theory, interp, ax.formula, {})
        if isinstance(v, list):
            v = conj(v)
        roots.append(v)
    return conj(roots)
