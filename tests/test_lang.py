"""Lexer, parser, checker, printer, and structural-operation tests."""

import numpy as np
import pytest

from dasl.lang import (
    And,
    ArithExpr,
    BoolVectorConst,
    Constant,
    DuplicateDecl,
    Equals,
    Forall,
    Implies,
    LexError,
    Not,
    Or,
    ParseError,
    RelApp,
    SoftSelect,
    SortError,
    UnboundSymbol,
    Variable,
    check_theory,
    free_variables,
    parse_formula,
    parse_theory,
    print_formula,
    print_theory,
    tokenize,
)
from dasl.oracle import default_signature, random_formula


class TestTokenize:
    def test_quantifier_line(self):
        kinds = [t.kind for t in tokenize("forall x: D .")]
        assert kinds == ["forall", "ident", ":", "ident", "."]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_axiom_line(self):
        kinds = [t.kind for t in tokenize("axiom a1: P(c);")]
        assert kinds == ["axiom", "ident", ":", "ident", "(", "ident", ")", ";"]

    def test_comments_and_whitespace_dropped(self):
        toks = tokenize("# a comment\n  P(c) # trailing\n")
        assert [t.text for t in toks] == ["P", "(", "c", ")"]

    def test_positions(self):
        toks = tokenize("ab\n cd")
        assert (toks[0].line, toks[0].col) == (1, 1)
        assert (toks[1].line, toks[1].col) == (2, 2)

    def test_illegal_character(self):
        with pytest.raises(LexError):
            tokenize("P(c) $")

    def test_arrow_vs_minus(self):
        assert [t.kind for t in tokenize("a -> b")] == ["ident", "->", "ident"]


class TestParse:
    def test_quantifier_body_extends_right(self):
        f = parse_formula("forall x: D . P(x) -> Q(x)")
        assert isinstance(f, Forall)
        assert isinstance(f.body, Implies)

    def test_not_binds_tighter_than_and(self):
        f = parse_formula("~P(c) & Q(c)")
        assert f == And((Not(RelApp("P", (Variable("c"),))),
                         RelApp("Q", (Variable("c"),))))

    def test_implies_right_associative(self):
        f = parse_formula("P(c) -> Q(c) -> R(c)")
        assert isinstance(f, Implies)
        assert isinstance(f.rhs, Implies)

    def test_precedence_or_under_implies(self):
        f = parse_formula("P(c) | Q(c) -> R(c)")
        assert isinstance(f, Implies)
        assert isinstance(f.lhs, Or)

    def test_equality_and_arith(self):
        f = parse_formula("(y1 + y2) mod 10 = y3")
        assert isinstance(f, Equals)
        assert isinstance(f.lhs, ArithExpr)
        assert f.lhs.op == "mod"

    def test_softselect(self):
        f = parse_formula("pi[y](digit(x))")
        assert isinstance(f, SoftSelect)
        assert f.index == Variable("y")

    def test_tuple_quantifier(self):
        f = parse_formula("forall (a, b, c): T . P(a)")
        assert f.vars == ("a", "b", "c")

    def test_parenthesized_group_not_flattened(self):
        f = parse_formula("(P(c) & Q(c)) & R(c)")
        assert isinstance(f, And) and len(f.items) == 2
        assert isinstance(f.items[0], And)

    def test_parse_error_position(self):
        with pytest.raises(ParseError):
            parse_formula("P(c) &")
        with pytest.raises(ParseError):
            parse_theory("axiom a P(c);")

    def test_statement_forms(self):
        th = parse_theory("""
            sort D card 3;
            sort Image dim 784;
            sort E card 5 dim 8;
            const c : D;
            const e : E learned;
            func f : D x D -> E mlp 4,3 act tanh;
            rel P : D extern p;
            rel digit : Image out 10 mlp 512 act sigmoid;
            boolvec mask : [1, 0, 1];
            data Pairs : Image x D from "a.csv,b.csv";
            axiom a : forall x: D . P(x);
        """)
        assert th.sort("D").representation == "index-range"
        assert th.sort("Image").representation == "data-table"
        assert th.sort("E").representation == "embedding-table"
        assert th.func("f").binding.hidden == (4, 3)
        assert th.rel("digit").out == 10
        assert th.boolvec("mask").bits == (1, 0, 1)
        assert th.dataset("Pairs").column_sorts == ("Image", "D")


THEORY_SRC = """
sort D card 3;
sort Row dim 4;
const c : D;
rel P : D extern p;
rel Q : D extern q;
rel R : D x D extern r;
func f : D -> D extern f;
rel classify : Row out 5 mlp 6 act relu;
boolvec riders : [1, 0, 1];
boolvec preds : [1, 0, 1, 0, 0];
data Items : Row x D from "rows.csv,ids.csv";
"""


def _checked(axiom: str):
    return check_theory(parse_theory(THEORY_SRC + axiom))


class TestCheck:
    def test_well_sorted_accepts(self):
        th = _checked("axiom a : forall x: D . P(x);")
        assert th.axioms[0].name == "a"

    def test_arity_error(self):
        with pytest.raises(SortError):
            _checked("axiom a : forall x: D . P(x, x);")

    def test_unbound_relation(self):
        with pytest.raises(UnboundSymbol):
            _checked("axiom a : forall x: D . Nope(x);")

    def test_duplicate_decl(self):
        with pytest.raises(DuplicateDecl):
            check_theory(parse_theory("sort D card 2;\nsort D card 3;"))

    def test_sort_mismatch_across_relations(self):
        with pytest.raises(SortError):
            _checked("axiom a : forall (row, k): Items . P(row);")

    def test_free_variable_rejected(self):
        with pytest.raises(UnboundSymbol):
            check_theory(parse_theory("sort D card 2;\nrel P : D extern p;\naxiom a : P(x);"))

    def test_variable_annotated_with_sort(self):
        th = _checked("axiom a : forall x: D . P(x);")
        body = th.axioms[0].formula.body
        assert body.args[0] == Variable("x", "D")

    def test_constant_resolved(self):
        th = _checked("axiom a : P(c);")
        assert th.axioms[0].formula.args[0] == Constant("c", "D")

    def test_bare_boolvec_becomes_constant_node(self):
        th = _checked("axiom a : forall (row, k): Items . pi[k](classify(row) & (preds -> Q(k)));")
        inner = th.axioms[0].formula.body.vector
        assert any(isinstance(i, Implies) and isinstance(i.lhs, BoolVectorConst)
                   for i in inner.items)

    def test_indexed_boolvec_is_relapp(self):
        th = _checked("axiom a : forall x: D . riders(x);")
        assert isinstance(th.axioms[0].formula.body, RelApp)

    def test_boolvec_width_mismatch(self):
        with pytest.raises(SortError):
            _checked("axiom a : forall (row, k): Items . pi[k](classify(row) & riders);")

    def test_shadowed_variable_renamed_apart(self):
        th = _checked("axiom a : forall x: D . P(x) & (forall x: D . Q(x));")
        outer = th.axioms[0].formula
        inner = outer.body.items[1]
        assert outer.vars == ("x",)
        assert inner.vars != ("x",)
        assert free_variables(outer) == set()

    def test_idempotent(self):
        th = _checked("axiom a : forall x: D . P(x) & (forall x: D . R(x, f(x)));")
        assert check_theory(th) == th

    def test_relation_used_as_term(self):
        with pytest.raises(SortError):
            _checked("axiom a : forall x: D . f(P(x)) = x;")

    def test_function_used_as_formula(self):
        with pytest.raises(SortError):
            _checked("axiom a : forall x: D . f(x);")

    def test_softselect_index_bounds(self):
        with pytest.raises(SortError):
            _checked("axiom a : forall (row, k): Items . pi[7](classify(row));")

    def test_softselect_needs_vector(self):
        with pytest.raises(SortError):
            _checked("axiom a : forall x: D . pi[0](P(x));")


class TestFreeVariables:
    def test_atom(self):
        assert free_variables(RelApp("P", (Variable("x"),))) == {"x"}

    def test_bound(self):
        assert free_variables(Forall(("x",), "D", RelApp("P", (Variable("x"),)))) == set()

    def test_mixed(self):
        f = Forall(("x",), "D", RelApp("R", (Variable("x"), Variable("y"))))
        assert free_variables(f) == {"y"}


class TestRoundTrip:
    def test_theory_round_trip(self):
        th = parse_theory(THEORY_SRC + "axiom a : forall x: D . P(x) -> Q(x) | R(x, c);")
        assert parse_theory(print_theory(th)) == th

    def test_random_formula_round_trip(self):
        # print/parse is the identity on parser-shaped ASTs, so normalize
        # generator output (which pre-resolves constants) through one parse
        rng = np.random.default_rng(3)
        sig = default_signature(4)
        for _ in range(200):
            f = parse_formula(print_formula(random_formula(sig, depth=4, rng=rng)))
            assert parse_formula(print_formula(f)) == f

    def test_quantifier_needs_parens_inside_connectives(self):
        f = And((Forall(("x",), "D", RelApp("P", (Variable("x"),))), RelApp("Q", ())))
        assert parse_formula(print_formula(f)) == f

    def test_arith_round_trip(self):
        f = parse_formula("pi[(y1 + y2) mod 10](digit(x3))")
        assert parse_formula(print_formula(f)) == f
