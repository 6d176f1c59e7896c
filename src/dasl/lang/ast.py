"""Typed AST for theory files: sorts, symbol declarations, terms, formulas.

All nodes are frozen dataclasses, so they hash, compare structurally, and
can be shared freely across threads once built.
"""

from __future__ import annotations

from dataclasses import dataclass


# ---------------------------------------------------------------------------
# declarations


@dataclass(frozen=True)
class SortDecl:
    """A sort with one of three representations.

    cardinality only          -> index-range (finite set of integer ids)
    dim only                  -> data-table (rows come from a dataset)
    cardinality and dim       -> embedding-table (learned rows)
    """

    name: str
    cardinality: int | None = None
    dim: int | None = None

    @property
    def representation(self) -> str:
        if self.cardinality is not None and self.dim is not None:
            return "embedding-table"
        if self.cardinality is not None:
            return "index-range"
        return "data-table"

    @property
    def is_index(self) -> bool:
        return self.representation == "index-range"


@dataclass(frozen=True)
class MlpSpec:
    hidden: tuple[int, ...]
    activation: str = "relu"


@dataclass(frozen=True)
class ExternRef:
    name: str


Binding = MlpSpec | ExternRef


@dataclass(frozen=True)
class ConstDecl:
    name: str
    sort: str
    learned: bool = False  # learned -> embedding row; otherwise extern-supplied


@dataclass(frozen=True)
class FuncDecl:
    name: str
    arg_sorts: tuple[str, ...]
    result_sort: str
    binding: Binding


@dataclass(frozen=True)
class RelDecl:
    name: str
    arg_sorts: tuple[str, ...]
    out: int | None  # out N -> vector of N class logits
    binding: Binding


@dataclass(frozen=True)
class BoolVecDecl:
    """Named vector of crisp truth bits, usable bare or indexed by a term."""

    name: str
    bits: tuple[int, ...]


@dataclass(frozen=True)
class DataDecl:
    name: str
    column_sorts: tuple[str, ...]
    source: str  # comma-separated file list, one file per column


# ---------------------------------------------------------------------------
# terms


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Variable(Term):
    name: str
    sort: str | None = None  # filled in by the checker


@dataclass(frozen=True)
class Constant(Term):
    name: str
    sort: str | None = None


@dataclass(frozen=True)
class FuncApp(Term):
    symbol: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class IntLiteral(Term):
    value: int


@dataclass(frozen=True)
class ArithExpr(Term):
    """Integer arithmetic over index-range terms; op is 'add' or 'mod'."""

    op: str
    args: tuple[Term, ...]


# ---------------------------------------------------------------------------
# formulas


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class RelApp(Formula):
    symbol: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Equals(Formula):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    items: tuple[Formula, ...]


@dataclass(frozen=True)
class Or(Formula):
    items: tuple[Formula, ...]


@dataclass(frozen=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Forall(Formula):
    """Quantifier over a sort or a dataset.

    A dataset with k columns binds a k-tuple of variables; a sort binds one.
    """

    vars: tuple[str, ...]
    domain: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    vars: tuple[str, ...]
    domain: str
    body: Formula


@dataclass(frozen=True)
class SoftSelect(Formula):
    """pi[index](vector): logit of the index-th softmax probability."""

    index: Term
    vector: Formula


@dataclass(frozen=True)
class BoolConst(Formula):
    value: bool


@dataclass(frozen=True)
class BoolVectorConst(Formula):
    name: str


@dataclass(frozen=True)
class AxiomDecl:
    name: str
    formula: Formula


@dataclass(frozen=True)
class Theory:
    sorts: tuple[SortDecl, ...] = ()
    consts: tuple[ConstDecl, ...] = ()
    funcs: tuple[FuncDecl, ...] = ()
    rels: tuple[RelDecl, ...] = ()
    boolvecs: tuple[BoolVecDecl, ...] = ()
    datasets: tuple[DataDecl, ...] = ()
    axioms: tuple[AxiomDecl, ...] = ()

    def sort(self, name: str) -> SortDecl | None:
        for s in self.sorts:
            if s.name == name:
                return s
        return None

    def dataset(self, name: str) -> DataDecl | None:
        for d in self.datasets:
            if d.name == name:
                return d
        return None

    def rel(self, name: str) -> RelDecl | None:
        for r in self.rels:
            if r.name == name:
                return r
        return None

    def func(self, name: str) -> FuncDecl | None:
        for f in self.funcs:
            if f.name == name:
                return f
        return None

    def boolvec(self, name: str) -> BoolVecDecl | None:
        for b in self.boolvecs:
            if b.name == name:
                return b
        return None

    def const(self, name: str) -> ConstDecl | None:
        for c in self.consts:
            if c.name == name:
                return c
        return None


# ---------------------------------------------------------------------------
# structural operations


def children(node: Formula | Term) -> tuple:
    """Direct sub-formulas and sub-terms of a node, in source order."""
    if isinstance(node, (Variable, Constant, IntLiteral, BoolConst, BoolVectorConst)):
        return ()
    if isinstance(node, (RelApp, FuncApp, ArithExpr)):
        return node.args
    if isinstance(node, (Not, Forall, Exists)):
        return (node.body,)
    if isinstance(node, (And, Or)):
        return node.items
    if isinstance(node, (Implies, Equals)):
        return (node.lhs, node.rhs)
    if isinstance(node, SoftSelect):
        return (node.index, node.vector)
    raise TypeError(f"not a formula or term: {node!r}")


def free_variables(formula: Formula | Term) -> set[str]:
    """Exact set of variable names occurring free in the formula."""
    if isinstance(formula, Variable):
        return {formula.name}
    out: set[str] = set()
    for c in children(formula):
        out |= free_variables(c)
    if isinstance(formula, (Forall, Exists)):
        out -= set(formula.vars)
    return out


def desugar(formula: Formula) -> Formula:
    """Rewrite Or/Implies/Exists into the Not/And/Forall core.

    Or(a, b)                -> ~(~a & ~b)
    Implies(a, b)           -> ~(a & ~b)
    Implies(a & b & ..., c) -> ~(a & b & ... & ~c), one n-ary conjunction
    Exists(x, S, f)         -> ~forall x: S . ~f
    """
    if isinstance(formula, Or):
        items = tuple(Not(desugar(f)) for f in formula.items)
        return Not(And(items))
    if isinstance(formula, Implies):
        lhs = formula.lhs.items if isinstance(formula.lhs, And) else (formula.lhs,)
        return Not(And((*(desugar(f) for f in lhs), Not(desugar(formula.rhs)))))
    if isinstance(formula, Exists):
        return Not(Forall(formula.vars, formula.domain, Not(desugar(formula.body))))
    if isinstance(formula, Not):
        return Not(desugar(formula.body))
    if isinstance(formula, And):
        return And(tuple(desugar(f) for f in formula.items))
    if isinstance(formula, Forall):
        return Forall(formula.vars, formula.domain, desugar(formula.body))
    if isinstance(formula, SoftSelect):
        return SoftSelect(formula.index, desugar(formula.vector))
    return formula
