"""Recursive-descent parser for theory files.

Connective precedence, loosest to tightest: `->` (right-assoc), `|`, `&`, `~`.
A quantifier body extends to the end of the enclosing formula.  Formula/term
ambiguity (e.g. `f(x) = y` vs `P(x)`) is resolved locally: applications parse
neutrally and are tagged term or formula by the position they end up in; the
checker later validates symbol kinds.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from .ast import (
    And,
    ArithExpr,
    AxiomDecl,
    BoolConst,
    BoolVecDecl,
    ConstDecl,
    DataDecl,
    Equals,
    Exists,
    Forall,
    Formula,
    FuncApp,
    FuncDecl,
    ExternRef,
    Implies,
    IntLiteral,
    MlpSpec,
    Not,
    Or,
    RelApp,
    RelDecl,
    SoftSelect,
    SortDecl,
    Term,
    Theory,
    Variable,
)
from ..errors import DaslError
from .lexer import Token, scan, tokenize


class ParseError(DaslError):
    def __init__(self, token: Token | None, expected: str):
        where = f"{token.line}:{token.col} at {token.text!r}" if token else "end of input"
        super().__init__(f"{where}: expected {expected}")
        self.token = token
        self.expected = expected


# the largest integer literal: every count and index fits a signed 64-bit int
INT_MAX = 2**63 - 1


class _Parser:
    """Recursive descent over parallel lists of token kinds and texts.

    `kinds` ends in a None sentinel, so a lookahead at the end of input
    needs no bounds test.  Positions are looked up only for an error:
    `tokens()` gives the token list they come from.
    """

    def __init__(self, kinds: list[str], texts: list[str],
                 tokens: Callable[[], Sequence[Token]]):
        self.kinds = [*kinds, None]
        self.texts = texts
        self.tokens = tokens
        self.pos = 0

    # -- token helpers

    def error(self, pos: int, expected: str) -> ParseError:
        tokens = self.tokens()
        return ParseError(tokens[pos] if pos < len(tokens) else None, expected)

    def expect(self, kind: str) -> str:
        pos = self.pos
        if self.kinds[pos] != kind:
            raise self.error(pos, repr(kind))
        self.pos = pos + 1
        return self.texts[pos]

    def accept(self, kind: str) -> bool:
        if self.kinds[self.pos] == kind:
            self.pos += 1
            return True
        return False

    def integer(self) -> int:
        pos = self.pos
        digits = self.expect("int").lstrip("0") or "0"
        # the length test keeps int() off literals beyond its digit limit
        if len(digits) > 19 or int(digits) > INT_MAX:
            raise self.error(pos, f"an integer at most {INT_MAX}")
        return int(digits)

    # the position comes first, so `as_formula(self.pos, self.formula())`
    # reads it before the node is parsed

    def as_formula(self, pos: int, node: Term | Formula) -> Formula:
        """node in formula position; an error names token pos."""
        if isinstance(node, Formula):
            return node
        if isinstance(node, FuncApp):
            return RelApp(node.symbol, node.args)
        if isinstance(node, Variable):
            # bare name in formula position: 0-ary relation or boolvec
            # constant; the checker disambiguates
            return RelApp(node.name, ())
        raise self.error(pos, "a formula (got an arithmetic term)")

    def as_term(self, pos: int, node: Term | Formula) -> Term:
        """node in term position; an error names token pos."""
        if isinstance(node, Term):
            return node
        if isinstance(node, RelApp):
            return FuncApp(node.symbol, node.args) if node.args else Variable(node.symbol)
        raise self.error(pos, "a term")

    # -- statements

    def theory(self) -> Theory:
        sorts, consts, funcs, rels = [], [], [], []
        boolvecs, datasets, axioms = [], [], []
        while (kind := self.kinds[self.pos]) is not None:
            if kind == "sort":
                sorts.append(self.sort_decl())
            elif kind == "const":
                consts.append(self.const_decl())
            elif kind == "func":
                funcs.append(self.func_decl())
            elif kind == "rel":
                rels.append(self.rel_decl())
            elif kind == "boolvec":
                boolvecs.append(self.boolvec_decl())
            elif kind == "data":
                datasets.append(self.data_decl())
            elif kind == "axiom":
                axioms.append(self.axiom_decl())
            else:
                raise self.error(self.pos, "a declaration keyword")
        return Theory(
            sorts=tuple(sorts),
            consts=tuple(consts),
            funcs=tuple(funcs),
            rels=tuple(rels),
            boolvecs=tuple(boolvecs),
            datasets=tuple(datasets),
            axioms=tuple(axioms),
        )

    def sort_decl(self) -> SortDecl:
        self.expect("sort")
        name = self.expect("ident")
        card = dim = None
        if self.accept("card"):
            card = self.integer()
        if self.accept("dim"):
            dim = self.integer()
        if card is None and dim is None:
            raise self.error(self.pos, "'card' or 'dim'")
        self.expect(";")
        return SortDecl(name, card, dim)

    def const_decl(self) -> ConstDecl:
        self.expect("const")
        name = self.expect("ident")
        self.expect(":")
        sort = self.expect("ident")
        learned = self.accept("learned")
        self.expect(";")
        return ConstDecl(name, sort, learned)

    def _sort_list(self) -> tuple[str, ...]:
        names = [self.expect("ident")]
        # 'x' separates sorts; it lexes as a plain identifier
        while self.kinds[self.pos] == "ident" and self.texts[self.pos] == "x":
            self.pos += 1
            names.append(self.expect("ident"))
        return tuple(names)

    def _binding(self):
        if self.accept("mlp"):
            hidden = [self.integer()]
            while self.accept(","):
                hidden.append(self.integer())
            act = "relu"
            if self.accept("act"):
                act = self.expect("ident")
            return MlpSpec(tuple(hidden), act)
        if self.accept("extern"):
            return ExternRef(self.expect("ident"))
        raise self.error(self.pos, "'mlp' or 'extern'")

    def func_decl(self) -> FuncDecl:
        self.expect("func")
        name = self.expect("ident")
        self.expect(":")
        args = self._sort_list()
        self.expect("->")
        result = self.expect("ident")
        binding = self._binding()
        self.expect(";")
        return FuncDecl(name, args, result, binding)

    def rel_decl(self) -> RelDecl:
        self.expect("rel")
        name = self.expect("ident")
        self.expect(":")
        args: tuple[str, ...] = ()
        if self.kinds[self.pos] == "ident":
            args = self._sort_list()
        out = None
        if self.accept("out"):
            out = self.integer()
        binding = self._binding()
        self.expect(";")
        return RelDecl(name, args, out, binding)

    def bit(self) -> int:
        pos = self.pos
        bit = self.integer()
        if bit not in (0, 1):
            raise self.error(pos, "bits 0 or 1 in boolvec")
        return bit

    def boolvec_decl(self) -> BoolVecDecl:
        self.expect("boolvec")
        name = self.expect("ident")
        self.expect(":")
        self.expect("[")
        bits = [self.bit()]
        while self.accept(","):
            bits.append(self.bit())
        self.expect("]")
        self.expect(";")
        return BoolVecDecl(name, tuple(bits))

    def data_decl(self) -> DataDecl:
        self.expect("data")
        name = self.expect("ident")
        self.expect(":")
        cols = self._sort_list()
        self.expect("from")
        source = self.expect("string")
        self.expect(";")
        return DataDecl(name, cols, source)

    def axiom_decl(self) -> AxiomDecl:
        self.expect("axiom")
        name = self.expect("ident")
        self.expect(":")
        formula = self.as_formula(self.pos, self.formula())
        self.expect(";")
        return AxiomDecl(name, formula)

    # -- formulas (returns Term | Formula; callers coerce)

    def formula(self):
        return self.implies()

    def implies(self):
        pos = self.pos
        lhs = self.disjunction()
        if self.accept("->"):
            rhs_pos = self.pos
            rhs = self.implies()  # right-associative
            return Implies(self.as_formula(pos, lhs), self.as_formula(rhs_pos, rhs))
        return lhs

    def disjunction(self):
        pos = self.pos
        first = self.conjunction()
        if self.kinds[self.pos] != "|":
            return first
        items = [self.as_formula(pos, first)]
        while self.accept("|"):
            items.append(self.as_formula(self.pos, self.conjunction()))
        return Or(tuple(items))

    def conjunction(self):
        pos = self.pos
        first = self.unary()
        if self.kinds[self.pos] != "&":
            return first
        items = [self.as_formula(pos, first)]
        while self.accept("&"):
            items.append(self.as_formula(self.pos, self.unary()))
        return And(tuple(items))

    def unary(self):
        kind = self.kinds[self.pos]
        if kind == "~":
            self.pos += 1
            return Not(self.as_formula(self.pos, self.unary()))
        if kind == "forall" or kind == "exists":
            return self.quantifier()
        return self.equality()

    def quantifier(self):
        cls = Forall if self.kinds[self.pos] == "forall" else Exists
        self.pos += 1
        if self.accept("("):
            names = [self.expect("ident")]
            while self.accept(","):
                names.append(self.expect("ident"))
            self.expect(")")
        else:
            names = [self.expect("ident")]
        self.expect(":")
        domain = self.expect("ident")
        self.expect(".")
        body = self.as_formula(self.pos, self.formula())
        return cls(tuple(names), domain, body)

    def equality(self):
        pos = self.pos
        lhs = self.arith()
        if self.accept("="):
            rhs_pos = self.pos
            rhs = self.arith()
            return Equals(self.as_term(pos, lhs), self.as_term(rhs_pos, rhs))
        return lhs

    def arith(self):
        pos = self.pos
        node = self.primary()
        while (kind := self.kinds[self.pos]) == "+" or kind == "mod":
            self.pos += 1
            rhs = self.primary()
            # a bad right operand is reported at the token after it
            rhs = self.as_term(self.pos, rhs)
            node = ArithExpr("add" if kind == "+" else "mod", (self.as_term(pos, node), rhs))
        return node

    def primary(self):
        pos = self.pos
        kind = self.kinds[pos]
        if kind == "ident":
            self.pos = pos + 1
            if self.kinds[pos + 1] != "(":
                return Variable(self.texts[pos])
            self.pos += 1
            args: list[Term] = []
            if self.kinds[self.pos] != ")":
                args.append(self.as_term(pos + 2, self.formula()))
                while self.accept(","):
                    args.append(self.as_term(self.pos, self.formula()))
            self.expect(")")
            # neutral application; position decides RelApp vs FuncApp
            return FuncApp(self.texts[pos], tuple(args))
        if kind == "(":
            self.pos += 1
            inner = self.formula()
            self.expect(")")
            return inner
        if kind == "int":
            return IntLiteral(self.integer())
        if kind == "true" or kind == "false":
            self.pos += 1
            return BoolConst(kind == "true")
        if kind == "pi":
            self.pos += 1
            self.expect("[")
            index = self.as_term(self.pos, self.formula())
            self.expect("]")
            self.expect("(")
            vector = self.as_formula(self.pos, self.formula())
            self.expect(")")
            return SoftSelect(index, vector)
        raise self.error(pos, "a term or formula")


def _parser(source: str) -> _Parser:
    kinds, texts, _ = scan(source)
    return _Parser(kinds, texts, lambda: tokenize(source))


def parse_theory(source: str) -> Theory:
    """Parse a full theory file's source text into an AST."""
    return _parser(source).theory()


def parse_formula(source: str) -> Formula:
    """Parse a single formula; used by tests and the oracle generator."""
    p = _parser(source)
    f = p.as_formula(0, p.formula())
    if p.kinds[p.pos] is not None:
        raise p.error(p.pos, "end of formula")
    return f
