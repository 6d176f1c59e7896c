"""Lexer, parser, checker, printer, and structural-operation tests."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _lex_ref
from dasl import experiments, gradcheck, lang
from dasl.cli import main
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
        # '->' is the only token with '-', so a lone '-' is illegal
        for source, col in (("P(c) $", 6), ("a - b", 3)):
            with pytest.raises(LexError, match=f"^1:{col}: illegal character"):
                tokenize(source)

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
        th = parse_theory(STATEMENT_FORMS_SRC)
        assert th.sort("D").representation == "index-range"
        assert th.sort("Image").representation == "data-table"
        assert th.sort("E").representation == "embedding-table"
        assert th.func("f").binding.hidden == (4, 3)
        assert th.rel("digit").out == 10
        assert th.boolvec("mask").bits == (1, 0, 1)
        assert th.dataset("Pairs").column_sorts == ("Image", "D")


STATEMENT_FORMS_SRC = """
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
"""

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

    def test_mlp_relation_without_arguments(self):
        # an MLP has no input to read; evaluation failed with a bare IndexError
        with pytest.raises(SortError, match="^r: expected at least one argument to an mlp"):
            check_theory(parse_theory("rel r : mlp 4;\naxiom a : r;"))
        check_theory(parse_theory("rel r : extern r;\naxiom a : r;"))

    @pytest.mark.parametrize("hidden", ["0", "4, 0"])
    def test_mlp_relation_with_an_empty_hidden_layer(self, hidden):
        # a zero-width layer made the relation a learned constant
        with pytest.raises(SortError, match=r"^r: expected hidden sizes >= 1"):
            check_theory(parse_theory(f"sort X dim 2;\nrel r : X mlp {hidden};"))
        check_theory(parse_theory("sort X dim 2;\nrel r : X mlp 1;"))

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

    def test_renaming_skips_a_taken_suffix(self):
        th = _checked("axiom a : forall x: D . P(x) & (forall x: D . Q(x))"
                      " & (forall x_2: D . R(x_2, x_2));")
        outer = th.axioms[0].formula
        assert outer.body.items[1].vars == ("x_3",)
        assert outer.body.items[2].vars == ("x_2",)

    def test_idempotent(self):
        th = _checked("axiom a : forall x: D . P(x) & (forall x: D . R(x, f(x)));")
        assert check_theory(th) == th

    def test_idempotent_over_a_bare_boolvec(self):
        # the first check makes `preds` a BoolVectorConst, which the second reads
        th = _checked("axiom a : forall (row, k): Items . pi[k](classify(row) & (preds -> Q(k)));")
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

    MOD = ("sort K card 3;\nrel Q : K x K extern q;\ndata D : K from \"mem\";\n"
           "axiom a : forall (y): D . forall j: K . forall k: K . Q(j, {});")

    @pytest.mark.parametrize("term, printed, found", [
        ("(j + k) mod 0", "j + k mod 0", "0"),
        ("j mod 00", "j mod 0", "0"),
        ("(j + k) mod k", "j + k mod k", "variable k of K, which ranges from 0"),
        ("j mod y", "j mod y", "variable y of K, which ranges from 0"),
    ])
    def test_mod_by_a_divisor_that_can_be_0(self, term, printed, found):
        # numpy's remainder by 0 warns and gives 0, so the term read index 0 silently
        with pytest.raises(SortError) as e:
            check_theory(parse_theory(self.MOD.format(term)))
        assert str(e.value) == f"{printed}: expected a divisor that is never 0, found {found}"

    @pytest.mark.parametrize("term", ["(j + k) mod 3", "j mod (k + 1)", "k mod 1"])
    def test_mod_by_a_divisor_that_may_be_nonzero(self, term):
        check_theory(parse_theory(self.MOD.format(term)))


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

    def test_truth_constants_round_trip(self):
        for text in ("true", "false", "(P(x) | false) & true", "~true -> false"):
            f = parse_formula(text)
            assert parse_formula(print_formula(f)) == f


class TestLexicalRules:
    def test_integers_are_ascii_digits(self):
        # '²' passes str.isdigit and '٣' (Arabic-Indic three) str.isdecimal
        for digit in ("²", "٣"):
            with pytest.raises(LexError) as e:
                parse_theory(f"sort S card {digit};")
            assert (e.value.line, e.value.col) == (1, 13)
            assert str(e.value) == f"1:13: illegal character {digit!r}"

    def test_identifier_rule(self):
        # a word starts with a letter or '_', then letters, digits or '_'
        assert [(t.kind, t.text) for t in tokenize("x² _a1 é٣ 3x")] == [
            ("ident", "x²"), ("ident", "_a1"), ("ident", "é٣"), ("int", "3"), ("ident", "x")]
        for source in ("²x", "½", "Ⅷ"):
            with pytest.raises(LexError, match=r"1:1: illegal character"):
                tokenize(source)

    def test_cli_reports_the_position_of_a_non_ascii_digit(self, tmp_path, capsys):
        theory = tmp_path / "bad.dasl"
        theory.write_text("sort S card ²;\n", encoding="utf-8")
        assert main(["compile", "--theory", str(theory)]) == 2
        assert "1:13" in capsys.readouterr().err

    def test_integer_literal_above_int64_is_a_parse_error(self):
        src = "sort S card 3;\nrel P : S extern p;\naxiom a : forall x: S . P(x + {} mod 3);"
        check_theory(parse_theory(src.format(2**63 - 1)))
        with pytest.raises(ParseError) as e:
            parse_theory(src.format("99999999999999999999999"))
        assert str(e.value).startswith("3:31 at '99999999999999999999999': expected an integer")
        for decl in ("sort S card {};", "sort S dim {};", "rel P : out {} mlp 2;",
                     "rel P : mlp 2, {};", "boolvec b : [{}];"):
            with pytest.raises(ParseError, match="expected an integer at most"):
                parse_theory(decl.format(2**63))
        # leading zeros do not count, and no literal is too long to read
        assert parse_theory("sort S card 0007;").sorts[0].cardinality == 7
        with pytest.raises(ParseError, match="expected an integer at most"):
            parse_theory(f"sort S card {'9' * 5000};")

    @pytest.mark.parametrize("tail", ["\nsort S card 3;", ""])
    def test_boolvec_bit_error_is_at_the_bit(self, tail):
        with pytest.raises(ParseError) as e:
            parse_theory("boolvec b : [0, 2];" + tail)
        assert str(e.value) == "1:17 at '2': expected bits 0 or 1 in boolvec"

    def test_trailing_blanks_scan_in_linear_time(self):
        # a search that failed in trailing blanks would restart at each one
        source = "sort S card 3;" + " \n" * 200_000
        assert lang.lexer.scan(source) == (["sort", "ident", "card", "int", ";"],
                                           ["sort", "S", "card", "3", ";"], [0, 5, 7, 12, 13])
        assert len(tokenize(source)) == 5


def _lexed(tokenize_fn, source):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize_fn(source)]
    except LexError as e:
        return ("LexError", e.line, e.col, str(e))


_FRAGMENTS = [
    "sort", "card", "axiom", "forall", "mod", "pi", "x", "abc", "_a1", "é", "naïve", "Ω",
    "x²", "a٣", "²", "٣", "½", "0", "12", "007", "->", "(", ")", "[", "]", ":", ";", ".",
    ",", "&", "|", "~", "=", "+", "-", "$", "\x0c", '"a b"', '""', '"#x"', '"->"', '"abc',
    '"', "# note", "#", " ", "\t", "\r", "\n",
]


class TestAgainstReferenceLexer:
    @pytest.mark.slow
    @given(st.lists(st.one_of(st.sampled_from(_FRAGMENTS),
                              st.text(alphabet="ab1²٣-># \"\n\t;", max_size=4)),
                    max_size=30))
    @settings(max_examples=1500, deadline=None)
    def test_token_stream_or_error_matches(self, parts):
        source = "".join(parts)
        assert _lexed(tokenize, source) == _lexed(_lex_ref.tokenize, source)

    def test_every_theory_in_the_repo_parses_alike(self, monkeypatch):
        sources = [gradcheck._LOGIC_SRC, STATEMENT_FORMS_SRC, THEORY_SRC,
                   THEORY_SRC + "axiom a : forall x: D . P(x) & (forall x: D . R(x, f(x)));",
                   THEORY_SRC + "axiom a : forall (row, k): Items . "
                                "pi[k](classify(row) & (preds -> Q(k)));",
                   THEORY_SRC + "axiom a : forall x: D . P(x) -> Q(x) | R(x, c);"]
        seen = []

        def spy(source):
            seen.append(source)
            return parse_theory(source)

        monkeypatch.setattr(experiments, "parse_theory", spy)
        monkeypatch.setattr(lang, "parse_theory", spy)  # default_signature imports it late
        for knowledge in (True, False):
            experiments.relations_theory(knowledge)
            experiments.mnist_theory(knowledge)
        default_signature()
        assert len(seen) == 5
        for source in seen + sources:  # the parser reads only kinds and texts
            assert _lexed(tokenize, source) == _lexed(_lex_ref.tokenize, source)

    def test_random_formulas_parse_alike(self):
        rng = np.random.default_rng(5)
        sig = default_signature(4)
        for _ in range(200):
            source = f"axiom a : {print_formula(random_formula(sig, depth=4, rng=rng))};"
            assert _lexed(tokenize, source) == _lexed(_lex_ref.tokenize, source)


class TestErrorPositions:
    FIXTURE = Path(__file__).with_name("relations_parse_errors.json")

    @staticmethod
    def _outcome(source):
        try:
            parse_theory(source)
        except ParseError as e:
            return str(e)
        return None

    def test_relations_theory_errors_are_pinned(self):
        """`str(ParseError)` as recorded before the scanner rewrite.

        For the knowledge relations theory, cut after each token's end
        (mostly 'end of input') and with each token blanked out (an error
        at some line:col).
        """
        pinned = json.loads(self.FIXTURE.read_text(encoding="utf-8"))
        source = pinned["source"]
        tokens = _lex_ref.tokenize(source)
        line_starts = [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]
        spans = []
        for t in tokens:
            start = line_starts[t.line - 1] + t.col - 1
            spans.append((start, start + len(t.text) + 2 * (t.kind == "string")))
        assert len(spans) == len(pinned["cut_after_token"]) == 657
        assert [self._outcome(source[:end]) for _, end in spans] == pinned["cut_after_token"]
        blanked = [self._outcome(source[:start] + " " * (end - start) + source[end:])
                   for start, end in spans]
        assert blanked == pinned["token_blanked"]
