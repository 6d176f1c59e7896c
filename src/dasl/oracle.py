"""Classical reference semantics and executable agreement checks.

tarski_eval is a brute-force recursive interpreter over finite crisp
models (relations are Boolean tables, equality is identity, universal
quantifiers iterate the whole domain).  The agreement suite compares its
verdicts against the sign of the compiled crisp logit on randomized
(model, formula) pairs; partition_loss_check verifies that batch losses
sum exactly to the full-sampling loss.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .compiler import Node, Plan, compile, evaluate, fuse_loss
from .interp import Interpretation, bind_theory
from .lang import (
    And,
    ArithExpr,
    AxiomDecl,
    BoolConst,
    Constant,
    Equals,
    Exists,
    Forall,
    Formula,
    FuncApp,
    Implies,
    IntLiteral,
    Not,
    Or,
    RelApp,
    SoftSelect,
    Term,
    Theory,
    Variable,
    check_theory,
    print_formula,
)
from .logit import BIG


class SortMismatch(Exception):
    pass


class SearchSpaceTooLarge(Exception):
    pass


_ENUM_GUARD = 2 ** 24


# ---------------------------------------------------------------------------
# crisp models


@dataclass
class CrispModel:
    """Finite first-order structure with Boolean relation tables."""

    sizes: dict[str, int]
    constants: dict[str, int] = field(default_factory=dict)
    functions: dict[str, np.ndarray] = field(default_factory=dict)
    relations: dict[str, np.ndarray] = field(default_factory=dict)


def _term_value(model: CrispModel, t: Term, env: dict[str, int]) -> int:
    if isinstance(t, Variable):
        if t.name in env:
            return env[t.name]
        if t.name in model.constants:  # parser-shaped AST: bare name
            return model.constants[t.name]
        raise SortMismatch(f"free variable {t.name!r}")
    if isinstance(t, Constant):
        return model.constants[t.name]
    if isinstance(t, IntLiteral):
        return t.value
    if isinstance(t, ArithExpr):
        a = _term_value(model, t.args[0], env)
        b = _term_value(model, t.args[1], env)
        return (a + b) if t.op == "add" else (a % b)
    if isinstance(t, FuncApp):
        args = tuple(_term_value(model, a, env) for a in t.args)
        return int(model.functions[t.symbol][args])
    raise SortMismatch(f"not a term: {t!r}")


def tarski_eval(model: CrispModel, f: Formula, env: dict[str, int] | None = None) -> bool:
    """Classical recursive evaluation; quantifiers iterate the full domain."""
    env = env or {}
    if isinstance(f, BoolConst):
        return f.value
    if isinstance(f, RelApp):
        args = tuple(_term_value(model, a, env) for a in f.args)
        return bool(model.relations[f.symbol][args])
    if isinstance(f, Equals):
        return _term_value(model, f.lhs, env) == _term_value(model, f.rhs, env)
    if isinstance(f, Not):
        return not tarski_eval(model, f.body, env)
    if isinstance(f, And):
        return all(tarski_eval(model, i, env) for i in f.items)
    if isinstance(f, Or):
        return any(tarski_eval(model, i, env) for i in f.items)
    if isinstance(f, Implies):
        return (not tarski_eval(model, f.lhs, env)) or tarski_eval(model, f.rhs, env)
    if isinstance(f, (Forall, Exists)):
        if f.domain not in model.sizes:
            raise SortMismatch(f"domain {f.domain!r} not in model")
        n = model.sizes[f.domain]
        var = f.vars[0]
        values = (tarski_eval(model, f.body, {**env, var: u}) for u in range(n))
        return all(values) if isinstance(f, Forall) else any(values)
    if isinstance(f, SoftSelect):
        raise SortMismatch("softselect has no classical counterpart")
    raise SortMismatch(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# model enumeration


def enumerate_models(theory: Theory, sizes: dict[str, int]):
    """Exhaustive, duplicate-free stream of crisp models for the signature."""
    const_space, func_space, rel_space = [], [], []
    count = 1
    for c in theory.consts:
        n = sizes[c.sort]
        const_space.append((c.name, n))
        count *= n
    for fdecl in theory.funcs:
        cells = int(np.prod([sizes[s] for s in fdecl.arg_sorts])) if fdecl.arg_sorts else 1
        out = sizes[fdecl.result_sort]
        func_space.append((fdecl.name, tuple(sizes[s] for s in fdecl.arg_sorts), cells, out))
        count *= out ** cells
    for r in theory.rels:
        cells = int(np.prod([sizes[s] for s in r.arg_sorts])) if r.arg_sorts else 1
        rel_space.append((r.name, tuple(sizes[s] for s in r.arg_sorts), cells))
        count *= 2 ** cells
    if count > _ENUM_GUARD:
        raise SearchSpaceTooLarge(f"{count} models exceeds the {_ENUM_GUARD} guard")

    const_iters = [range(n) for _, n in const_space]
    func_iters = [itertools.product(range(out), repeat=cells) for _, _, cells, out in func_space]
    rel_iters = [itertools.product((False, True), repeat=cells) for _, _, cells in rel_space]
    for combo in itertools.product(*const_iters, *func_iters, *rel_iters):
        k = len(const_space)
        consts = {name: combo[i] for i, (name, _) in enumerate(const_space)}
        functions = {}
        for j, (name, shape, cells, _) in enumerate(func_space):
            table = np.array(combo[k + j], dtype=np.int64).reshape(shape or (1,))
            functions[name] = table if shape else table.reshape(())
        k += len(func_space)
        relations = {}
        for j, (name, shape, cells) in enumerate(rel_space):
            table = np.array(combo[k + j], dtype=bool).reshape(shape or (1,))
            relations[name] = table if shape else table.reshape(())
        yield CrispModel(dict(sizes), consts, functions, relations)


# ---------------------------------------------------------------------------
# crisp model -> interpretation bridge


def crisp_interpretation(model: CrispModel, theory: Theory, big: float = BIG) -> Interpretation:
    """Bind a crisp model: tables become externs returning +-big logits."""
    externs: dict[str, object] = {}
    for c in theory.consts:
        externs[c.name] = model.constants[c.name]
    for fdecl in theory.funcs:
        table = model.functions[fdecl.name]

        def f_fn(*args, table=table):
            if not args:
                return int(table)
            return table[tuple(np.asarray(a) for a in args)]

        externs[_extern_name(fdecl.binding, fdecl.name)] = f_fn
    for r in theory.rels:
        table = model.relations[r.name]

        def r_fn(*args, table=table):
            values = table[tuple(np.asarray(a) for a in args)] if args else table
            return np.where(values, big, -big)

        externs[_extern_name(r.binding, r.name)] = r_fn
    return bind_theory(theory, externs=externs, big=big)


def _extern_name(binding, fallback: str) -> str:
    return getattr(binding, "name", fallback)


# ---------------------------------------------------------------------------
# threshold satisfaction


@dataclass
class SatisfactionReport:
    per_axiom: dict[str, bool]
    satisfied: bool
    loss: float
    theta: float


def satisfies_at_threshold(model: CrispModel, theory: Theory,
                           theta: float | None = None, big: float = BIG) -> SatisfactionReport:
    """Compile with crisp bindings, full sampling; satisfied iff loss <= theta.

    theta defaults to 1e-6 per root-level conjunct; an explicit theta is
    apportioned to axioms by their conjunct counts so the overall verdict
    stays the conjunction of per-axiom verdicts.
    """
    interp = crisp_interpretation(model, theory, big=big)
    plan = compile(theory, interp, batch_size=None)
    fused = fuse_loss(plan)
    total, batch = fused.evaluate()
    counts = {name: _conjunct_count(plan, node) for name, node in plan.roots}
    total_count = max(1, sum(counts.values()))
    theta_total = 1e-6 * total_count if theta is None else theta
    per_axiom = {
        name: float(batch.per_axiom[name].data) <= theta_total * counts[name] / total_count
        for name in counts
    }
    return SatisfactionReport(per_axiom, all(per_axiom.values()) if per_axiom else True,
                              float(total.data), theta_total)


def _conjunct_count(plan: Plan, node: Node) -> int:
    if node.kind == "fold":
        return _conjunct_count(plan, node.kids[0])
    if node.kind == "and":
        return sum(_conjunct_count(plan, k) for k in node.kids)
    if node.kind == "index":
        return node.data[1] * _conjunct_count(plan, node.kids[0])
    if node.kind == "sample":
        domain = plan.samplers[node.data[1]].domain
        return domain.cardinality * _conjunct_count(plan, node.kids[0])
    return 1


# ---------------------------------------------------------------------------
# random models and formulas


def random_model(theory: Theory, sizes: dict[str, int], rng: np.random.Generator) -> CrispModel:
    consts = {c.name: int(rng.integers(sizes[c.sort])) for c in theory.consts}
    functions = {}
    for fdecl in theory.funcs:
        shape = tuple(sizes[s] for s in fdecl.arg_sorts)
        functions[fdecl.name] = rng.integers(sizes[fdecl.result_sort], size=shape or ())
    relations = {}
    for r in theory.rels:
        shape = tuple(sizes[s] for s in r.arg_sorts)
        relations[r.name] = rng.random(size=shape or ()) < 0.5
    return CrispModel(dict(sizes), consts, functions, relations)


_VAR_POOL = ("x", "y", "z")


def random_formula(theory: Theory, depth: int, rng: np.random.Generator,
                   scope: tuple[tuple[str, str], ...] = ()) -> Formula:
    """Random closed-by-construction formula with a bounded depth budget."""

    def term_of(sort: str, allow_literal: bool = True) -> Term | None:
        options = [v for v, s in scope if s == sort]
        choices = []
        if options:
            choices.append("var")
        consts = [c for c in theory.consts if c.sort == sort]
        if consts:
            choices.append("const")
        funcs = [f for f in theory.funcs if f.result_sort == sort]
        if funcs and rng.random() < 0.3:
            choices.append("func")
        if allow_literal or not choices:
            choices.append("literal")
        pick = choices[int(rng.integers(len(choices)))]
        if pick == "var":
            return Variable(options[int(rng.integers(len(options)))])
        if pick == "const":
            return Constant(consts[int(rng.integers(len(consts)))].name)
        if pick == "func":
            f = funcs[int(rng.integers(len(funcs)))]
            return FuncApp(f.name, tuple(term_of(s) for s in f.arg_sorts))
        if not allow_literal:
            return None
        card = theory.sort(sort).cardinality
        return IntLiteral(int(rng.integers(card)))

    def atom() -> Formula:
        rels = list(theory.rels)
        if rels and rng.random() < 0.8:
            r = rels[int(rng.integers(len(rels)))]
            return RelApp(r.name, tuple(term_of(s) for s in r.arg_sorts))
        sort = theory.sorts[int(rng.integers(len(theory.sorts)))].name
        lhs = term_of(sort, allow_literal=False)
        if lhs is None:  # nothing sorted in scope: literal = literal is untyped
            r = rels[int(rng.integers(len(rels)))]
            return RelApp(r.name, tuple(term_of(s) for s in r.arg_sorts))
        return Equals(lhs, term_of(sort))

    def quantifier() -> Formula:
        base = _VAR_POOL[len(scope) % len(_VAR_POOL)]
        name = base if all(v != base for v, _ in scope) else f"{base}{len(scope)}"
        sort = theory.sorts[int(rng.integers(len(theory.sorts)))].name
        body = random_formula(theory, depth - 1, rng, scope + ((name, sort),))
        cls = Forall if rng.random() < 0.5 else Exists
        return cls((name,), sort, body)

    if depth <= 0:
        return atom()
    roll = rng.random()
    if roll < 0.25:
        return atom()
    if roll < 0.40:
        return Not(random_formula(theory, depth - 1, rng, scope))
    if roll < 0.55:
        k = 2 + int(rng.integers(2))
        return And(tuple(random_formula(theory, depth - 1, rng, scope) for _ in range(k)))
    if roll < 0.70:
        k = 2 + int(rng.integers(2))
        return Or(tuple(random_formula(theory, depth - 1, rng, scope) for _ in range(k)))
    if roll < 0.80:
        return Implies(random_formula(theory, depth - 1, rng, scope),
                       random_formula(theory, depth - 1, rng, scope))
    return quantifier()


# ---------------------------------------------------------------------------
# the agreement suite


@dataclass
class AgreementResult:
    trials: int
    passes: int
    failures: list[str] = field(default_factory=list)
    transcript: list[str] = field(default_factory=list)

    @property
    def all_agree(self) -> bool:
        return self.passes == self.trials


def default_signature(domain_size: int = 3) -> Theory:
    """Small many-symbol signature used by the randomized agreement suite."""
    from .lang import parse_theory

    return check_theory(parse_theory(f"""
sort D card {domain_size};
const c : D;
func f : D -> D extern f;
rel P : D extern P;
rel R : D x D extern R;
"""))


def agreement_suite(signature: Theory, depth: int = 4, trials: int = 200,
                    seed: int = 0, big: float = BIG) -> AgreementResult:
    """Randomized soundness/completeness check at finite scale.

    For each trial, a random crisp model and random closed formula are
    evaluated classically and through the compiled pipeline with full
    sampling; the Tarski verdict must match the sign of the crisp logit.
    """
    rng = np.random.default_rng(seed)
    sizes = {s.name: s.cardinality for s in signature.sorts if s.is_index}
    result = AgreementResult(trials=trials, passes=0)
    for trial in range(trials):
        model = random_model(signature, sizes, rng)
        formula = random_formula(signature, depth, rng)
        theory = check_theory(Theory(
            sorts=signature.sorts,
            consts=signature.consts,
            funcs=signature.funcs,
            rels=signature.rels,
            axioms=(AxiomDecl("trial", formula),),
        ))
        classical = tarski_eval(model, theory.axioms[0].formula)
        interp = crisp_interpretation(model, theory, big=big)
        plan = compile(theory, interp, batch_size=None)
        root = evaluate(plan).root
        compiled = float(root.data) > 0.0
        line = (f"trial {trial}: tarski={classical} compiled={compiled} "
                f"logit={float(root.data):+.6f} formula={print_formula(formula)}")
        result.transcript.append(line)
        if classical == compiled:
            result.passes += 1
        else:
            result.failures.append(
                f"{line}\n  model sizes={model.sizes} constants={model.constants}\n"
                f"  functions={ {k: v.tolist() for k, v in model.functions.items()} }\n"
                f"  relations={ {k: v.tolist() for k, v in model.relations.items()} }")
    return result


# ---------------------------------------------------------------------------
# sampling-loss additivity


def partition_loss_check(plan: Plan, k: int, trials: int = 10, seed: int = 0) -> float:
    """Max relative deviation of sum-of-batch losses from the full loss.

    The plan must quantify over exactly one dataset; each trial partitions
    it into k random disjoint batches covering it exactly once.
    """
    fused = fuse_loss(plan)
    keys = list(plan.samplers)
    if len(keys) != 1:
        raise ValueError("partition_loss_check needs exactly one sampled quantifier")
    key = keys[0]
    n = plan.samplers[key].domain.cardinality
    full_loss = float(fused.evaluate({key: np.arange(n)})[0].data)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        perm = rng.permutation(n)
        bounds = np.linspace(0, n, k + 1).astype(int)
        total = 0.0
        for i in range(k):
            part = np.sort(perm[bounds[i]:bounds[i + 1]])
            if len(part) == 0:
                continue
            total += float(fused.evaluate({key: part})[0].data)
        worst = max(worst, abs(total - full_loss) / max(abs(full_loss), 1e-300))
    return worst
