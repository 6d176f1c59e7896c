"""Compilation, evaluation, loss fusion, and the scalar-reference check."""

import re

import numpy as np
import pytest

import _scalar_ref as ref
from dasl import logit as L
from dasl import tensor as T
from dasl import compiler
from dasl.compiler import (NonFiniteLogit, RowAxisMismatch, compile, evaluate, explain,
                           fuse_loss, scores)
from dasl.interp import bind_theory, build_triples
from dasl.lang import UnboundSymbol, check_theory, parse_theory
from dasl.logit import BIG
from dasl.oracle import CrispModel, agreement_suite, crisp_interpretation, default_signature
from dasl.tensor import Tape, backward
from dasl.train import TrainConfig, train


def _crisp_plan(table, axiom):
    th = check_theory(parse_theory(
        f"sort D card {len(table)};\nrel P : D extern P;\naxiom a : {axiom};"))
    model = CrispModel({"D": len(table)}, {}, {}, {"P": np.asarray(table, dtype=bool)})
    interp = crisp_interpretation(model, th)
    return compile(th, interp, batch_size=None)


EXPLAIN_DIGIT_RULE = """\
1 axioms
axiom rule:
  #22 forall x1, x2, x3 in Triples [sampled]
    #21 forall y1 in Digit [exhaustive 0..9]
      #20 forall y2 in Digit [exhaustive 0..9]
        #19 not
          #18 and of 3
            #4 softselect[y1]
              #3 digit(x1)
            #8 softselect[y2]
              #7 digit(x2)
            #17 not
              #16 softselect[y1 + y2 mod 10]
                #15 digit(x3)
samplers:
  rule/x1,x2,x3/Triples: full over Triples (n=20, batch=all)
parameters:
  digit: mlp, 226 parameters
total parameters: 226"""


class TestCompile:
    def test_forall_full_sampler_is_nary_conj(self):
        plan = _crisp_plan([True, True, True], "forall x: D . P(x)")
        root = evaluate(plan).root.item()
        want = L.conj(BIG, BIG, BIG).item()
        assert root == pytest.approx(want, abs=1e-12)

    def test_unbound_symbol_defense(self):
        th = check_theory(parse_theory(
            "sort D card 2;\nrel P : D extern P;\naxiom a : forall x: D . P(x);"))
        interp = bind_theory(th, externs={"P": lambda i: np.where(i == 0, BIG, -BIG)})
        del interp.symbols["P"]
        with pytest.raises(UnboundSymbol):
            compile(th, interp)

    def test_explain_lists_structure(self):
        th = check_theory(parse_theory("""
            sort Image dim 16;
            sort Digit card 10;
            rel digit : Image out 10 mlp 8 act sigmoid;
            data Triples : Image x Image x Image from "mem";
            axiom rule : forall (x1, x2, x3): Triples . forall y1: Digit .
                forall y2: Digit .
                (pi[y1](digit(x1)) & pi[y2](digit(x2))) -> pi[(y1 + y2) mod 10](digit(x3));
        """))
        rows = np.zeros((40, 16))
        trip = build_triples(rows, np.tile(np.arange(10), 4), per_class=2, seed=0)
        interp = bind_theory(th, data={"Triples": trip})
        text = explain(compile(th, interp))
        assert text == EXPLAIN_DIGIT_RULE
        assert text == explain(compile(th, interp))  # deterministic

    def test_explain_empty_theory(self):
        th = check_theory(parse_theory("sort D card 2;\nrel P : D extern P;"))
        interp = bind_theory(th, externs={"P": lambda i: np.full_like(i, 1.0, dtype=float)})
        assert "0 axioms" in explain(compile(th, interp))


def _relations_plan():
    from dasl import data, experiments

    splits = data.gen_synth_relations(train_fraction=0.01, seed=0)
    th = experiments.relations_theory(True, splits.vocab, hidden=8)
    rows = (splits.train.features, splits.train.subject, splits.train.object,
            splits.train.predicate)
    interp = bind_theory(th, externs=data.spatial_predicate_externs(), data={"Train": rows})
    return compile(th, interp, batch_size=16)


def _lowered(axiom):
    th = check_theory(parse_theory(
        "sort D card 3;\nrel P : D extern P;\nrel Q : D extern Q;\nrel R : D extern R;\n"
        f"axiom a : {axiom};"))
    externs = dict.fromkeys("PQR", lambda i: np.zeros(len(i)))
    (_, root), = compile(th, bind_theory(th, externs=externs)).roots
    return root


def _skeleton(node):
    """A lowered formula's connectives, with atoms and folds by kind alone."""
    if node.kind not in ("not", "and", "index", "sample", "select"):
        return node.kind
    kids = node.kids[1:] if node.kind == "select" else node.kids  # a select's index is a term
    return (node.kind, *map(_skeleton, kids))


class TestLowering:
    @pytest.mark.parametrize("root, skeleton", [
        (lambda: _lowered("forall x: D . P(x) | Q(x)"),
         ("index", ("not", ("and", ("not", "rel"), ("not", "rel"))))),
        (lambda: _lowered("forall x: D . P(x) -> Q(x)"),
         ("index", ("not", ("and", "rel", ("not", "rel"))))),
        (lambda: _lowered("forall x: D . (P(x) & Q(x)) -> R(x)"),  # one n-ary and
         ("index", ("not", ("and", "rel", "rel", ("not", "rel"))))),
        (lambda: _lowered("exists x: D . P(x)"),
         ("not", ("index", ("not", "rel")))),
        (lambda: _relations_plan().roots[0][1],  # vrd(f, s, o) beside ten folded guards
         ("sample", ("select", ("and", "rel", *["fold"] * 10)))),
    ], ids=["or", "implies", "conjunctive_implies", "exists", "relations_labels"])
    def test_lowers_to_the_core(self, root, skeleton):
        assert _skeleton(root()) == skeleton

    def test_explain_lists_every_node_with_its_uid(self):
        plan = _relations_plan()
        (_, root), = plan.roots
        text = explain(plan)
        listing = text[text.index("axiom labels:\n") + 14:text.index("samplers:")].splitlines()
        assert all(re.match(r" +#\d+ ", line) for line in listing)
        uids = [int(line.split()[0][1:]) for line in listing]
        assert uids[0] == root.uid and len(set(uids)) == len(uids)
        assert sum("fold [computed once over Train" in line for line in listing) == 10


class TestEvaluate:
    def test_tautology_is_strongly_true(self):
        plan = _crisp_plan([True, False], "forall x: D . P(x) -> P(x)")
        assert evaluate(plan).root.item() >= BIG - 1

    def test_tautology_erodes_by_log_domain_size(self):
        # conj of n crisply true conjuncts sits at BIG - ln(n)
        for n in (3, 5, 8):
            table = np.arange(n) % 2 == 0
            plan = _crisp_plan(table, "forall x: D . P(x) -> P(x)")
            root = evaluate(plan).root.item()
            assert root == pytest.approx(BIG - np.log(n), abs=1e-6)

    def test_one_false_conjunct_dominates(self):
        plan = _crisp_plan([True, True, False], "forall x: D . P(x)")
        assert evaluate(plan).root.item() <= -BIG + 2

    def test_zero_weight_digit_grid_matches_scalar_oracle(self):
        th = check_theory(parse_theory("""
            sort Image dim 12;
            sort Digit card 10;
            rel digit : Image out 10 mlp 6 act sigmoid;
            data Triples : Image x Image x Image from "mem";
            axiom rule : forall (x1, x2, x3): Triples . forall y1: Digit .
                forall y2: Digit .
                (pi[y1](digit(x1)) & pi[y2](digit(x2))) -> pi[(y1 + y2) mod 10](digit(x3));
        """))
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(20, 12))
        trip = build_triples(rows, np.tile(np.arange(10), 2), per_class=1, seed=1)
        interp = bind_theory(th, data={"Triples": trip}, seed=2)
        for p in interp.parameters:
            p.value[...] = 0.0
        plan = compile(th, interp)
        root = evaluate(plan).root.item()
        # every softselect is logit(1/10); verify against the scalar path
        want = ref.root_logit(th, interp)
        assert root == pytest.approx(want, abs=1e-9)
        pi_val = -np.log(9.0)
        grid_logit = ref.implies(ref.conj([pi_val, pi_val]), pi_val)
        assert root == pytest.approx(ref.conj([grid_logit] * 1000), abs=1e-6)

    def test_non_finite_detection(self):
        th = check_theory(parse_theory(
            "sort D card 2;\nrel P : D extern P;\naxiom a : forall x: D . P(x);"))
        interp = bind_theory(th, externs={"P": lambda i: np.array([np.nan, 1.0])[i]})
        plan = compile(th, interp)
        with pytest.raises(NonFiniteLogit):
            evaluate(plan)


class TestScalarOracleEquivalence:
    def _random_theory_and_interp(self, seed):
        th = check_theory(parse_theory("""
            sort Row dim 4;
            sort K card 3;
            rel C : Row out 3 mlp 5 act sigmoid;
            rel Q : Row mlp 4 act tanh;
            rel S : K extern S;
            func g : K -> K extern g;
            data Pool : Row x K from "mem";
            axiom a1 : forall (r, k): Pool . pi[k](C(r)) & Q(r);
            axiom a2 : forall (r, k): Pool . forall j: K . S(j) -> pi[g(j)](C(r)) | Q(r);
            axiom a3 : forall (r, k): Pool . exists j: K . k = j & Q(r);
        """))
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(6, 4))
        ks = rng.integers(3, size=6)
        s_table = np.where(rng.random(3) < 0.5, BIG, -BIG)
        g_table = rng.integers(3, size=3)
        interp = bind_theory(
            th,
            externs={"S": lambda i: s_table[i], "g": lambda i: g_table[i]},
            data={"Pool": (rows, ks)},
            seed=seed,
        )
        return th, interp

    def test_root_matches_reference_interpreter(self):
        for seed in range(8):
            th, interp = self._random_theory_and_interp(seed)
            plan = compile(th, interp)
            got = evaluate(plan).root.item()
            want = ref.root_logit(th, interp)
            assert got == pytest.approx(want, abs=1e-6), f"seed {seed}"

    def test_crisp_agreement_with_tarski(self):
        result = agreement_suite(default_signature(4), depth=4, trials=200, seed=17)
        assert result.all_agree, result.failures[0]


class TestNestedSampling:
    """Every quantified variable is a tensor axis: nested quantifiers, sampled or
    over an index sort, range over the cross product of their groundings, and a
    body that does not mention a quantifier's variable still counts once per
    grounding of it."""

    SRC = """
        sort Row dim 3;
        sort E card 4 dim 2;
        sort K card 3;
        const c : Row learned;
        boolvec bv : [1, 0, 1];
        rel M : E x Row mlp 5 act tanh;
        rel Q : Row mlp 4 act sigmoid;
        rel R : Row x Row mlp 4 act sigmoid;
        rel N : Row x K mlp 4 act sigmoid;
        rel V : Row out 3 mlp 4 act tanh;
        data Pool : Row from "mem";
        axiom %s;
    """
    AXIOMS = {
        "data_in_data": "dd : forall r: Pool . exists q: Pool . R(r, q) | Q(q)",
        "data_in_embedding": "de : forall e: E . exists r: Pool . M(e, r)",
        "embedding_in_data": "ed : forall u: Pool . Q(u) -> exists e: E . M(e, u)",
        # bodies without the quantifier's variable
        "constant_body": "cb : forall r: Pool . Q(c)",
        "vector_body": "vb : forall r: Pool . bv",
        "vector_conjunction": "vc : forall r: Pool . Q(r) & bv",
        # sampled and index quantifiers mixed
        "data_in_index": "di : forall k: K . exists r: Pool . N(r, k)",
        "data_in_data_in_index": "ddi : forall k: K . forall r: Pool . "
                                 "exists q: Pool . R(r, q) | N(q, k)",
        "mod_index_in_data": "mi : forall r: Pool . forall j: K . forall k: K . "
                             "pi[(j + k) mod 3](V(r)) | ~pi[j](V(r)) & ~pi[k](V(r))",
        "one_hot_index_in_data": "oh : forall r: Pool . forall k: K . N(r, k) | Q(r)",
    }

    def _plan(self, axiom, seed):
        th = check_theory(parse_theory(self.SRC % axiom))
        rows = np.random.default_rng(seed).normal(size=(5, 3))
        interp = bind_theory(th, data={"Pool": (rows,)}, seed=seed)
        return th, interp, compile(th, interp)

    @pytest.mark.parametrize("nesting", sorted(AXIOMS))
    def test_root_matches_reference_interpreter(self, nesting):
        for seed in range(3):
            th, interp, plan = self._plan(self.AXIOMS[nesting], seed)
            got = evaluate(plan).root.item()
            assert got == pytest.approx(ref.root_logit(th, interp), abs=1e-9), f"seed {seed}"
            fused = fuse_loss(plan).evaluate()[0].item()
            assert fused == pytest.approx(float(np.logaddexp(0.0, -got)), rel=1e-9), f"seed {seed}"

    def test_learned_row_across_a_batch_has_exact_gradients(self):
        _, _, plan = self._plan(self.AXIOMS["embedding_in_data"], 0)
        fused = fuse_loss(plan)
        report = T.grad_check(lambda: fused.evaluate()[0], plan.parameters)
        assert report.passed, report

    def test_learned_constant_across_axes_has_exact_gradients(self):
        _, _, plan = self._plan("lc : forall r: Pool . forall k: K . N(c, k) | R(r, c)", 1)
        fused = fuse_loss(plan)
        report = T.grad_check(lambda: fused.evaluate()[0], plan.parameters)
        assert report.passed, report


class TestScores:
    """`scores` gives, row by row, the scalar reference's value of V."""

    SRC = """
        sort Row dim 3;
        sort A card 4;
        sort K card 3;
        rel C : Row x A out 3 mlp 5 act tanh;
        rel Q : Row x Row mlp 4 act sigmoid;
        boolvec notlast : [1, 1, 0];
        data Train : Row x A x K from "mem";
        data Pool : Row from "mem";
        axiom labels : forall (r, a, y): Train .
            pi[y](C(r, a) & (notlast -> exists q: Pool . Q(r, q)));
    """

    def test_matches_reference_interpreter(self):
        th = check_theory(parse_theory(self.SRC))
        (ax,) = th.axioms
        for seed in range(3):
            rng = np.random.default_rng(seed)
            columns = (rng.normal(size=(6, 3)), rng.integers(4, size=6), rng.integers(3, size=6))
            interp = bind_theory(th, data={"Train": columns,
                                           "Pool": (rng.normal(size=(4, 3)),)}, seed=seed)
            plan = compile(th, interp, batch_size=2, seed=seed)
            logits, labels = scores(plan, "labels", columns)
            np.testing.assert_array_equal(labels, columns[2])
            assert logits.shape == (6, 3)
            for i in range(6):
                env = {v: ref._column_value(col, i)
                       for v, col in zip(ax.formula.vars, interp.domains["Train"].columns)}
                want = ref.eval_formula(th, interp, ax.formula.body.vector, env)
                assert logits[i] == pytest.approx(want, abs=1e-9), f"seed {seed} row {i}"

    def test_rejects_wrong_column_count(self):
        th = check_theory(parse_theory(self.SRC))
        rows = np.zeros((2, 3))
        interp = bind_theory(th, data={"Train": (rows, np.zeros(2, int), np.zeros(2, int)),
                                       "Pool": (rows,)})
        with pytest.raises(ValueError, match="3 variables"):
            scores(compile(th, interp), "labels", (rows,))


def _folds(node):
    """The fold nodes of a lowered tree."""
    out = [node] if node.kind == "fold" else []
    for kid in node.kids:
        out += _folds(kid)
    return out


def _loss_and_grads(plan, draws, fold):
    """The fused loss on `draws`, with or without the fold tables, and its gradients."""
    with Tape():
        for p in plan.parameters:
            p.zero_grad()
        ev = compiler._Evaluator(plan, draws, fold=fold)
        total = T.Tensor(0.0)
        for _, node in plan.roots:
            total = T.add(total, ev.loss(node, {}))
        backward(total)
    return float(total.data), {p.name: p.grad.copy() for p in plan.parameters}


class TestFold:
    """Static guards are evaluated once per dataset and gathered by the draw."""

    def _relations_plan(self, **kwargs):
        from dasl import data, experiments

        splits = data.gen_synth_relations(train_fraction=0.01, seed=0)
        th = experiments.relations_theory(True, splits.vocab, hidden=8)
        rows = (splits.train.features, splits.train.subject, splits.train.object,
                splits.train.predicate)
        interp = bind_theory(th, externs=data.spatial_predicate_externs(), data={"Train": rows})
        return compile(th, interp, **kwargs)

    def _assert_fold_is_exact(self, plan, steps):
        for step in range(steps):
            draws = plan.draw()
            got = _loss_and_grads(plan, draws, fold=True)
            want = _loss_and_grads(plan, draws, fold=False)
            assert got[0] == want[0], f"step {step}"
            for name, grad in want[1].items():
                np.testing.assert_array_equal(got[1][name], grad, err_msg=f"step {step} {name}")

    def test_relations_guards_fold_bit_for_bit(self):
        plan = self._relations_plan(batch_size=16, seed=2)
        (_, root), = plan.roots
        folds = _folds(root)
        assert len(folds) == 10  # one per guard, beside the unfolded vrd(f, s, o)
        assert all("vrd" not in compiler._symbols(f) for f in folds)
        self._assert_fold_is_exact(plan, 20)
        assert sorted(plan.folds) == sorted(f.uid for f in folds)
        assert all(t.shape == (200, 12) for t in plan.folds.values())

    def test_working_set_prefix_indexes_the_full_table(self):
        plan = self._relations_plan(batch_size=4, seed=3)
        (sampler,) = plan.samplers.values()
        sampler.set_active_size(10)
        self._assert_fold_is_exact(plan, 5)
        assert all(t.shape[0] == sampler.domain.cardinality for t in plan.folds.values())
        sampler.set_active_size(sampler.domain.cardinality)
        self._assert_fold_is_exact(plan, 5)

    SRC = """
        sort Row dim 3;
        sort E card 4 dim 2;
        sort K card 3;
        rel M : E x Row mlp 5 act tanh;
        rel Q : Row mlp 4 act sigmoid;
        rel near : E x Row extern near;
        rel side : E extern side;
        rel far : Row extern far;
        data Pool : Row from "mem";
        %s
    """
    # piecewise constant in the embedding rows, so finite differences see no
    # slope where the tape records none
    EXTERNS = {
        "near": lambda e, u: np.where(e[..., 0] > 0, 2.0, -2.0) + u[..., 0],
        "side": lambda e: np.where(e[..., 1] > 0, 3.0, -3.0),
        "far": lambda u: u[..., 0] - 0.5 * u[..., 2],
    }

    def _plan(self, axioms, externs=EXTERNS, **kwargs):
        th = check_theory(parse_theory(self.SRC % axioms))
        rows = np.random.default_rng(4).normal(size=(7, 3))
        interp = bind_theory(th, externs=externs, data={"Pool": (rows,)}, seed=4)
        return th, interp, compile(th, interp, **kwargs)

    def test_embedding_variables_stay_unfolded(self):
        th, interp, plan = self._plan(
            "axiom ed : forall u: Pool . far(u) & (Q(u) -> exists e: E . M(e, u) & near(e, u));\n"
            "axiom es : forall e: E . side(e) -> exists u: Pool . M(e, u);")
        assert [[list(compiler._symbols(f)) for f in _folds(root)]
                for _, root in plan.roots] == [[["far"]], []]
        table = interp.domains["E"].columns[0].param.value
        for _ in range(2):  # a stale fold of near or side would miss the sign flip
            got = evaluate(plan).root.item()
            assert got == pytest.approx(ref.root_logit(th, interp), abs=1e-9)
            table *= -1.0
        assert len(plan.folds) == 1
        report = T.grad_check(lambda: fuse_loss(plan).evaluate()[0], plan.parameters)
        assert report.passed, report

    def test_shared_draw(self):
        # a3 is static as a whole; its loss keeps one term per conjunct
        _, _, plan = self._plan("axiom a1 : forall u: Pool . Q(u) & far(u);\n"
                                "axiom a2 : forall v: Pool . far(v) -> Q(v);\n"
                                "axiom a3 : forall w: Pool . far(w) & ~far(w);",
                                batch_size=3, shared_draw=True, seed=1)
        assert len(plan.samplers) == 1
        assert [len(_folds(root)) for _, root in plan.roots] == [1, 1, 2]
        self._assert_fold_is_exact(plan, 6)
        assert len(plan.folds) == 4

    def test_guards_beside_an_index_axis(self):
        # in ik the index quantifier encloses the dataset quantifier; in ki the
        # dataset quantifier encloses it, so far(u)'s rows sit on axis 0 of 2
        _, _, plan = self._plan("axiom ik : forall k: K . forall u: Pool . Q(u) & far(u);\n"
                                "axiom ki : forall u: Pool . forall k: K . far(u) -> Q(u);",
                                batch_size=3, seed=1)
        assert [[list(compiler._symbols(f)) for f in _folds(root)]
                for _, root in plan.roots] == [[["far"]], [["far"]]]
        self._assert_fold_is_exact(plan, 6)
        assert len(plan.folds) == 2

    @pytest.mark.parametrize("axiom, symbol, result, rows", [
        ("forall u: Pool . Q(u) & far(u)", "far", 0.5, 7),  # folded
        ("forall e: E . forall u: Pool . near(e, u)", "near", 0.5, 28),
        ("forall e: E . forall u: Pool . near(e, u)", "near", np.full(7, 0.5), 28),
    ], ids=["folded", "scalar", "one_axis_of_two"])
    def test_extern_without_a_row_axis_is_a_typed_error(self, axiom, symbol, result, rows):
        externs = {**self.EXTERNS, symbol: lambda *args: result}
        _, _, plan = self._plan(f"axiom flat : {axiom};", externs)
        match = f"'flat': {symbol} on {rows} rows gave shape {np.shape(result)}"
        with pytest.raises(RowAxisMismatch, match=re.escape(match)):
            evaluate(plan)
        with pytest.raises(RowAxisMismatch, match=re.escape(match)):
            fuse_loss(plan).evaluate()

    def test_extern_runs_once_per_plan(self):
        calls = []

        def far(u):
            calls.append(len(u))
            return self.EXTERNS["far"](u)

        _, _, plan = self._plan("axiom a : forall u: Pool . Q(u) & far(u);",
                                {**self.EXTERNS, "far": far}, batch_size=3)
        state = train(plan, TrainConfig(iterations=10, batch_size=3, lr=1e-2))
        assert len(state.loss_history) == 10
        assert calls == [7]


class TestExistsForallDuality:
    def test_exact_duality(self):
        th_e = check_theory(parse_theory(
            "sort D card 3;\nrel P : D extern P;\naxiom a : exists x: D . P(x);"))
        th_f = check_theory(parse_theory(
            "sort D card 3;\nrel P : D extern P;\naxiom a : forall x: D . ~P(x);"))
        table = np.array([-2.0, 1.5, -0.5])
        externs = {"P": lambda i: table[i]}
        root_e = evaluate(compile(th_e, bind_theory(th_e, externs=externs))).root.item()
        root_f = evaluate(compile(th_f, bind_theory(th_f, externs=externs))).root.item()
        assert root_e == -root_f


class TestFuseLoss:
    def test_two_half_truths(self):
        th = check_theory(parse_theory(
            "sort D card 2;\nrel P : D extern P;\naxiom a : forall x: D . P(x);"))
        interp = bind_theory(th, externs={"P": lambda i: np.zeros_like(i, dtype=float)})
        fused = fuse_loss(compile(th, interp))
        loss, _ = fused.evaluate()
        assert loss.item() == pytest.approx(2 * np.log(2), abs=1e-12)

    def test_satisfied_theory_loss_tiny(self):
        plan = _crisp_plan([True] * 5, "forall x: D . P(x)")
        loss, _ = fuse_loss(plan).evaluate()
        assert loss.item() <= 5 * 2.1e-9

    def test_fused_equals_unfused(self):
        rng = np.random.default_rng(20)
        table = rng.uniform(-10, 10, size=6)
        th = check_theory(parse_theory(
            "sort D card 6;\nrel P : D extern P;\naxiom a : forall x: D . P(x);"))
        interp = bind_theory(th, externs={"P": lambda i: table[i]})
        plan = compile(th, interp)
        fused_loss = fuse_loss(plan).evaluate()[0].item()
        root = evaluate(plan).root.item()
        unfused = float(np.logaddexp(0.0, -root))
        assert fused_loss == pytest.approx(unfused, rel=1e-9)

    def test_fusion_preserves_gradients(self):
        th = check_theory(parse_theory("""
            sort Row dim 4;
            rel P : Row mlp 5 act sigmoid;
            data Pool : Row from "mem";
            axiom a : forall r: Pool . P(r);
        """))
        rows = np.random.default_rng(21).normal(size=(8, 4))
        interp = bind_theory(th, data={"Pool": (rows,)}, seed=21)
        plan = compile(th, interp)
        fused = fuse_loss(plan)

        with Tape():
            for p in plan.parameters:
                p.zero_grad()
            loss, _ = fused.evaluate()
            backward(loss)
        g_fused = {p.name: p.grad.copy() for p in plan.parameters}

        with Tape():
            for p in plan.parameters:
                p.zero_grad()
            root = evaluate(plan).root
            backward(T.softplus(T.neg(root)))
        for p in plan.parameters:
            denom = np.maximum(np.abs(g_fused[p.name]), 1e-12)
            rel = np.abs(p.grad - g_fused[p.name]) / denom
            assert rel.max() < 1e-6

    def test_batch_partition_additivity(self):
        th = check_theory(parse_theory("""
            sort Row dim 6;
            rel P : Row mlp 5 act relu;
            data Pool : Row from "mem";
            axiom a : forall r: Pool . P(r);
        """))
        rows = np.random.default_rng(22).normal(size=(64, 6))
        interp = bind_theory(th, data={"Pool": (rows,)}, seed=22)
        plan = compile(th, interp)
        fused = fuse_loss(plan)
        key = next(iter(plan.samplers))
        full = fused.evaluate({key: np.arange(64)})[0].item()
        rng = np.random.default_rng(23)
        for k in (2, 4, 64):
            perm = rng.permutation(64)
            parts = np.array_split(perm, k)
            total = sum(fused.evaluate({key: np.sort(p)})[0].item() for p in parts)
            assert abs(total - full) / abs(full) < 1e-9

    def test_active_axiom_filter(self):
        th = check_theory(parse_theory("""
            sort D card 2;
            rel P : D extern P;
            rel Q : D extern Q;
            axiom labels : forall x: D . P(x);
            axiom rule : forall x: D . Q(x);
        """))
        interp = bind_theory(th, externs={
            "P": lambda i: np.full(np.shape(i), -5.0),
            "Q": lambda i: np.full(np.shape(i), BIG),
        })
        fused = fuse_loss(compile(th, interp))
        full, _ = fused.evaluate()
        rules_only, _ = fused.evaluate(active_axioms={"rule"})
        assert rules_only.item() < 1e-6 < full.item()


class TestSharedDraw:
    def test_flag_merges_sampler_keys(self):
        th = check_theory(parse_theory("""
            sort Row dim 3;
            rel P : Row mlp 4 act relu;
            rel Q : Row mlp 4 act relu;
            data Pool : Row from "mem";
            axiom a1 : forall r: Pool . P(r);
            axiom a2 : forall r: Pool . Q(r);
        """))
        rows = np.random.default_rng(1).normal(size=(10, 3))
        interp = bind_theory(th, data={"Pool": (rows,)})
        independent = compile(th, interp, batch_size=4, seed=0)
        shared = compile(th, interp, batch_size=4, shared_draw=True, seed=0)
        assert len(independent.samplers) == 2
        assert len(shared.samplers) == 1


class TestRecordedLosses:
    """Fused training losses pinned bit for bit; a change here changes training."""

    def test_digit_rule_run(self):
        from dasl import experiments

        rng = np.random.default_rng(3)
        images, labels = rng.random((200, 12)), np.tile(np.arange(10), 20)
        labeled = experiments.balanced_subset(labels, 2, np.random.default_rng(3))
        mask = np.zeros(200, dtype=bool)
        mask[labeled] = True
        th = experiments.mnist_theory(True, image_dim=12, hidden=8)
        interp = bind_theory(th, data={
            "Labeled": (images[labeled], labels[labeled]),
            "Triples": build_triples(images[~mask], labels[~mask], 4, seed=4),
        }, seed=3)
        config = TrainConfig(iterations=5, batch_size=8, lr=1e-2, seed=3, curriculum=True,
                             curriculum_initial=2, monitor_symbol="digit", monitor_arg="x1")
        state = train(compile(th, interp, batch_size=8, seed=5), config)
        assert state.loss_history == [26.00736800236372, 13.944103288178319, 26.0982341051945,
                                      25.949275104285974, 13.679732227287415]

    def test_relations_knowledge_run(self):
        from dasl import data, experiments

        splits = data.gen_synth_relations(train_fraction=0.01, seed=0)
        th = experiments.relations_theory(True, splits.vocab)
        train_split = splits.train
        interp = bind_theory(th, externs=data.spatial_predicate_externs(), data={"Train": (
            train_split.features, train_split.subject, train_split.object,
            train_split.predicate)}, seed=0)
        config = TrainConfig(iterations=5, batch_size=16, lr=1e-2, seed=0)
        state = train(compile(th, interp, batch_size=16, seed=2), config)
        assert state.loss_history == [28.26978829609689, 37.983660016303915, 40.99442260090634,
                                      31.58591894579169, 28.626016595080817]
