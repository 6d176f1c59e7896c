"""Symbol resolution, arity/sort verification, and renaming-apart.

check_theory validates every declaration, resolves each name in each axiom
(quantified variable, constant, function, relation, boolvec), verifies
arities and sorts, alpha-renames shadowed variables, and returns an
annotated copy of the theory.  Checking an already-checked theory is a
no-op.
"""

from __future__ import annotations

from ..errors import DaslError
from .ast import (
    And,
    ArithExpr,
    AxiomDecl,
    BoolConst,
    BoolVectorConst,
    Constant,
    Equals,
    Exists,
    Forall,
    Formula,
    FuncApp,
    Implies,
    IntLiteral,
    MlpSpec,
    Not,
    Or,
    RelApp,
    SoftSelect,
    Term,
    Theory,
    Variable,
    children,
)
from .printer import print_term


class DuplicateDecl(DaslError):
    def __init__(self, name: str):
        super().__init__(f"duplicate declaration of {name!r}")
        self.name = name


class UnboundSymbol(DaslError):
    def __init__(self, name: str):
        super().__init__(f"unbound symbol {name!r}")
        self.name = name


class SortError(DaslError):
    def __init__(self, symbol: str, expected: str, found: str):
        super().__init__(f"{symbol}: expected {expected}, found {found}")
        self.symbol = symbol
        self.expected = expected
        self.found = found


class _Checker:
    def __init__(self, theory: Theory):
        self.theory = theory
        self.names: dict[str, str] = {}  # every declared name -> kind
        for s in theory.sorts:
            self._declare(s.name, "sort")
        for c in theory.consts:
            self._declare(c.name, "const")
        for f in theory.funcs:
            self._declare(f.name, "func")
        for r in theory.rels:
            self._declare(r.name, "rel")
        for b in theory.boolvecs:
            self._declare(b.name, "boolvec")
        for d in theory.datasets:
            self._declare(d.name, "data")
        self.used_names = set(self.names)

    def _declare(self, name: str, kind: str) -> None:
        if name in self.names:
            raise DuplicateDecl(name)
        self.names[name] = kind

    def _fresh(self, base: str) -> str:
        """`base_i` for the least i >= 2 that no name in the theory uses."""
        i = 2
        while f"{base}_{i}" in self.used_names:
            i += 1
        name = f"{base}_{i}"
        self.used_names.add(name)
        return name

    # -- declaration validation

    def check_decls(self) -> None:
        for s in self.theory.sorts:
            if s.cardinality is not None and s.cardinality < 1:
                raise SortError(s.name, "cardinality >= 1", str(s.cardinality))
            if s.dim is not None and s.dim < 1:
                raise SortError(s.name, "dim >= 1", str(s.dim))
        for c in self.theory.consts:
            self._require_sort(c.name, c.sort)
        for f in self.theory.funcs:
            for a in f.arg_sorts:
                self._require_sort(f.name, a)
            self._require_sort(f.name, f.result_sort)
            if isinstance(f.binding, MlpSpec) and any(h < 1 for h in f.binding.hidden):
                raise SortError(f.name, "hidden sizes >= 1", str(f.binding.hidden))
        for r in self.theory.rels:
            for a in r.arg_sorts:
                self._require_sort(r.name, a)
            if r.out is not None and r.out < 2:
                raise SortError(r.name, "out >= 2", str(r.out))
            if isinstance(r.binding, MlpSpec) and not r.arg_sorts:
                raise SortError(r.name, "at least one argument to an mlp", "none")
            if isinstance(r.binding, MlpSpec) and any(h < 1 for h in r.binding.hidden):
                raise SortError(r.name, "hidden sizes >= 1", str(r.binding.hidden))
        for b in self.theory.boolvecs:
            if not b.bits:
                raise SortError(b.name, "at least one bit", "empty")
        for d in self.theory.datasets:
            for c in d.column_sorts:
                self._require_sort(d.name, c)
        names = [a.name for a in self.theory.axioms]
        for n in names:
            if names.count(n) > 1:
                raise DuplicateDecl(n)

    def _require_sort(self, owner: str, name: str) -> None:
        if self.theory.sort(name) is None:
            raise UnboundSymbol(name)

    # -- terms; returns (annotated term, sort name or None for bare ints)

    def term(self, t: Term, env: dict[str, tuple[str, str]]):
        if isinstance(t, (Variable, Constant)):
            name = t.name
            if name in env:
                renamed, sort = env[name]
                return Variable(renamed, sort), sort
            const = self.theory.const(name)
            if const is not None:
                return Constant(name, const.sort), const.sort
            raise UnboundSymbol(name)
        if isinstance(t, IntLiteral):
            return t, None
        if isinstance(t, FuncApp):
            decl = self.theory.func(t.symbol)
            if decl is None:
                kind = self.names.get(t.symbol)
                if kind in ("rel", "boolvec"):
                    raise SortError(t.symbol, "a function", kind)
                raise UnboundSymbol(t.symbol)
            args = self._arguments(t.symbol, t.args, decl.arg_sorts, env)
            return FuncApp(t.symbol, args), decl.result_sort
        if isinstance(t, ArithExpr):
            args, sorts = [], []
            for a in t.args:
                arg, sort = self.term(a, env)
                if sort is not None and not self._is_index(sort):
                    raise SortError("arithmetic", "an index-range sort", sort)
                args.append(arg)
                sorts.append(sort)
            named = {s for s in sorts if s is not None}
            if len(named) > 1:
                raise SortError("arithmetic", "one index sort", str(sorted(named)))
            if t.op == "mod":
                self._divisor(t, args[1], sorts[1])
            return ArithExpr(t.op, tuple(args)), (named.pop() if named else None)
        raise TypeError(f"not a term: {t!r}")

    def _divisor(self, t: ArithExpr, divisor: Term, sort: str | None) -> None:
        """Reject a `mod` whose divisor is 0 somewhere: a literal below 1, or a
        bare variable, whose index range starts at 0."""
        if isinstance(divisor, IntLiteral) and divisor.value <= 0:
            found = str(divisor.value)
        elif isinstance(divisor, Variable):
            found = f"variable {print_term(t.args[1])} of {sort}, which ranges from 0"
        else:
            return
        raise SortError(print_term(t), "a divisor that is never 0", found)

    def _is_index(self, sort: str) -> bool:
        s = self.theory.sort(sort)
        return s is not None and s.is_index

    def _arguments(self, symbol: str, args: tuple[Term, ...], sorts: tuple[str, ...], env):
        """The annotated arguments of a function or relation, each of its slot's sort."""
        if len(args) != len(sorts):
            raise SortError(symbol, f"{len(sorts)} arguments", str(len(args)))
        out = []
        for i, (a, want) in enumerate(zip(args, sorts)):
            arg, sort = self.term(a, env)
            self._match_sort(symbol, want, sort)
            if sort is None:  # a bare literal, in an index-range slot
                self._literal_in_range(symbol, f"argument {i}", arg,
                                       self.theory.sort(want).cardinality)
            out.append(arg)
        return tuple(out)

    def _literal_in_range(self, symbol: str, what: str, arg: Term, n: int) -> None:
        """Reject a literal that is no id of its slot or sort, [0, n); an id
        computed from it (`x + 5`, an extern's result) is checked at run time."""
        if isinstance(arg, IntLiteral) and not 0 <= arg.value < n:
            raise SortError(symbol, f"{what} in [0, {n})", f"literal {arg.value}")

    def _match_sort(self, symbol: str, want: str, found: str | None) -> None:
        if found is None:  # bare int literal: fine for index-range slots
            if not self._is_index(want):
                raise SortError(symbol, want, "integer literal")
            return
        if want != found:
            raise SortError(symbol, want, found)

    # -- formulas; returns (annotated formula, width)

    def formula(self, f: Formula, env: dict[str, tuple[str, str]]):
        if isinstance(f, BoolConst):
            return f, 1
        if isinstance(f, BoolVectorConst):
            decl = self.theory.boolvec(f.name)
            if decl is None:
                raise UnboundSymbol(f.name)
            return f, len(decl.bits)
        if isinstance(f, RelApp):
            return self._rel_app(f, env)
        if isinstance(f, Equals):
            lhs, ls = self.term(f.lhs, env)
            rhs, rs = self.term(f.rhs, env)
            if ls is not None and rs is not None and ls != rs:
                raise SortError("=", ls, rs)
            if ls is None and rs is None:
                raise SortError("=", "a sorted term", "two bare integers")
            named = ls if ls is not None else rs
            if ls is None or rs is None:
                if not self._is_index(named):
                    raise SortError("=", "an index-range sort beside a literal", named)
                self._literal_in_range("=", f"an id of {named}", lhs if ls is None else rhs,
                                       self.theory.sort(named).cardinality)
            return Equals(lhs, rhs), 1
        if isinstance(f, Not):
            body, w = self.formula(f.body, env)
            return Not(body), w
        if isinstance(f, (And, Or)):
            items, widths = [], []
            for i in f.items:
                fi, w = self.formula(i, env)
                items.append(fi)
                widths.append(w)
            return type(f)(tuple(items)), self._join_widths(type(f).__name__, widths)
        if isinstance(f, Implies):
            lhs, wl = self.formula(f.lhs, env)
            rhs, wr = self.formula(f.rhs, env)
            return Implies(lhs, rhs), self._join_widths("->", [wl, wr])
        if isinstance(f, (Forall, Exists)):
            return self._quantifier(f, env)
        if isinstance(f, SoftSelect):
            index, sort = self.term(f.index, env)
            if sort is not None and not self._is_index(sort):
                raise SortError("pi", "an index-range term", sort)
            vector, w = self.formula(f.vector, env)
            if w < 2:
                raise SortError("pi", "a vector of width >= 2", str(w))
            if isinstance(index, IntLiteral) and not 0 <= index.value < w:
                raise SortError("pi", f"index in [0, {w})", str(index.value))
            return SoftSelect(index, vector), 1
        raise TypeError(f"not a formula: {f!r}")

    def _join_widths(self, what: str, widths: list[int]) -> int:
        top = max(widths)
        for w in widths:
            if w != top and w != 1:
                raise SortError(what, f"widths broadcastable to {top}", str(w))
        return top

    def _rel_app(self, f: RelApp, env):
        decl = self.theory.rel(f.symbol)
        if decl is not None:
            args = self._arguments(f.symbol, f.args, decl.arg_sorts, env)
            return RelApp(f.symbol, args), decl.out or 1
        bv = self.theory.boolvec(f.symbol)
        if bv is not None:
            if not f.args:
                return BoolVectorConst(f.symbol), len(bv.bits)
            if len(f.args) != 1:
                raise SortError(f.symbol, "one index argument", str(len(f.args)))
            arg, sort = self.term(f.args[0], env)
            if sort is not None:
                s = self.theory.sort(sort)
                if not s.is_index or s.cardinality != len(bv.bits):
                    raise SortError(f.symbol, f"index sort of card {len(bv.bits)}", sort)
            self._literal_in_range(f.symbol, "argument 0", arg, len(bv.bits))
            return RelApp(f.symbol, (arg,)), 1
        kind = self.names.get(f.symbol)
        if kind == "func":
            raise SortError(f.symbol, "a relation", "func")
        if f.symbol in env:
            raise SortError(f.symbol, "a relation", "quantified variable")
        raise UnboundSymbol(f.symbol)

    def _quantifier(self, f: Forall | Exists, env):
        domain_sort = self.theory.sort(f.domain)
        dataset = self.theory.dataset(f.domain)
        if domain_sort is not None:
            col_sorts = [f.domain]
        elif dataset is not None:
            col_sorts = list(dataset.column_sorts)
        else:
            raise UnboundSymbol(f.domain)
        if len(f.vars) != len(col_sorts):
            raise SortError(f.domain, f"{len(col_sorts)} bound variables", str(len(f.vars)))
        if len(set(f.vars)) != len(f.vars):
            raise SortError(f.domain, "distinct bound variables", str(f.vars))
        inner = dict(env)
        renamed = []
        for v, s in zip(f.vars, col_sorts):
            if v in env or v in self.names:
                new = self._fresh(v)
            else:
                new = v
                self.used_names.add(v)
            inner[v] = (new, s)
            renamed.append(new)
        body, w = self.formula(f.body, inner)
        return type(f)(tuple(renamed), f.domain, body), w


def _all_names(f: Formula | Term, out: set[str]) -> None:
    if isinstance(f, (Forall, Exists)):
        out.update(f.vars)
    elif isinstance(f, (Variable, Constant)):
        out.add(f.name)
    for c in children(f):
        _all_names(c, out)


def check_theory(theory: Theory) -> Theory:
    """Validate and annotate a parsed theory; raises DuplicateDecl, UnboundSymbol or SortError."""
    ck = _Checker(theory)
    ck.check_decls()
    axioms = []
    for ax in theory.axioms:
        # seed the fresh-name pool so renaming never collides with user names
        _all_names(ax.formula, ck.used_names)
        formula, _ = ck.formula(ax.formula, {})
        axioms.append(AxiomDecl(ax.name, formula))
    return Theory(
        sorts=theory.sorts,
        consts=theory.consts,
        funcs=theory.funcs,
        rels=theory.rels,
        boolvecs=theory.boolvecs,
        datasets=theory.datasets,
        axioms=tuple(axioms),
    )
