"""Classical semantics, model enumeration, and the agreement machinery."""

import numpy as np
import pytest

from dasl.lang import check_theory, parse_formula, parse_theory
from dasl.oracle import (
    CrispModel,
    SearchSpaceTooLarge,
    SortMismatch,
    agreement_suite,
    default_signature,
    enumerate_models,
    partition_loss_check,
    random_formula,
    random_model,
    satisfies_at_threshold,
    tarski_eval,
)
from dasl.compiler import compile
from dasl.data import write_csv_table
from dasl.interp import bind_theory
from dasl.lang import free_variables


def _model_p(table):
    return CrispModel({"D": len(table)}, {}, {}, {"P": np.asarray(table, dtype=bool)})


class TestTarskiEval:
    def test_forall_false_when_any_element_fails(self):
        f = parse_formula("forall x: D . P(x)")
        assert tarski_eval(_model_p([True, False]), f) is False

    def test_exists_true_when_any_element_holds(self):
        f = parse_formula("exists x: D . P(x)")
        assert tarski_eval(_model_p([True, False]), f) is True

    def test_tautology_true_everywhere(self):
        f = parse_formula("forall x: D . P(x) -> P(x)")
        for bits in ([True, True], [False, False], [True, False]):
            assert tarski_eval(_model_p(bits), f) is True

    def test_equality_is_identity(self):
        f = parse_formula("forall x: D . forall y: D . x = y")
        assert tarski_eval(_model_p([True]), f) is True
        assert tarski_eval(_model_p([True, True]), f) is False

    def test_functions_and_constants(self):
        model = CrispModel(
            {"D": 3},
            constants={"c": 1},
            functions={"f": np.array([1, 2, 0])},
            relations={"P": np.array([False, True, False])},
        )
        assert tarski_eval(model, parse_formula("P(c)")) is True
        assert tarski_eval(model, parse_formula("P(f(c))")) is False

    def test_truth_constants(self):
        model = _model_p([True, False])
        assert tarski_eval(model, parse_formula("true")) is True
        assert tarski_eval(model, parse_formula("false")) is False
        assert tarski_eval(model, parse_formula("forall x: D . P(x) | true")) is True
        assert tarski_eval(model, parse_formula("exists x: D . P(x) & false")) is False
        assert tarski_eval(model, parse_formula("exists x: D . (P(x) | false) & true")) is True

    def test_arithmetic(self):
        model = CrispModel({"D": 10}, {}, {}, {"P": np.zeros(10, dtype=bool)})
        f = parse_formula("forall x: D . x = x + 0 mod 10")
        assert tarski_eval(model, f) is True


class TestEnumerateModels:
    def test_unary_relation_two_elements(self):
        sig = check_theory(parse_theory("sort D card 2;\nrel P : D extern P;"))
        assert sum(1 for _ in enumerate_models(sig, {"D": 2})) == 4

    def test_one_constant_three_elements(self):
        sig = check_theory(parse_theory("sort D card 3;\nconst c : D;"))
        assert sum(1 for _ in enumerate_models(sig, {"D": 3})) == 3

    def test_unary_function_two_elements(self):
        sig = check_theory(parse_theory("sort D card 2;\nfunc f : D -> D extern f;"))
        assert sum(1 for _ in enumerate_models(sig, {"D": 2})) == 4

    def test_no_duplicates(self):
        sig = check_theory(parse_theory(
            "sort D card 2;\nrel P : D extern P;\nrel R : D x D extern R;"))
        seen = set()
        for m in enumerate_models(sig, {"D": 2}):
            key = (tuple(m.relations["P"].tolist()),
                   tuple(map(tuple, m.relations["R"].tolist())))
            assert key not in seen
            seen.add(key)
        assert len(seen) == 4 * 16

    def test_guard(self):
        sig = check_theory(parse_theory("sort D card 6;\nrel R : D x D x D extern R;"))
        with pytest.raises(SearchSpaceTooLarge):
            next(enumerate_models(sig, {"D": 6}))


class TestSatisfiesAtThreshold:
    def _theory(self, n):
        return check_theory(parse_theory(
            f"sort D card {n};\nrel P : D extern P;\naxiom a : forall x: D . P(x);"))

    def test_satisfied_crisp_theory(self):
        rep = satisfies_at_threshold(_model_p([True, True]), self._theory(2))
        assert rep.satisfied
        assert rep.loss <= 2 * 2.1e-9
        assert rep.per_axiom == {"a": True}

    def test_violated_conjunct(self):
        rep = satisfies_at_threshold(_model_p([True, False]), self._theory(2))
        assert not rep.satisfied
        assert rep.loss >= 19

    def test_empty_theory_vacuously_satisfied(self):
        th = check_theory(parse_theory("sort D card 2;\nrel P : D extern P;"))
        rep = satisfies_at_threshold(_model_p([True, False]), th)
        assert rep.satisfied
        assert rep.loss == 0.0

    def test_each_dataset_row_and_conjunct_counts(self, tmp_path):
        # 600 rows, each with P(x) and the two groundings of the index
        # quantifier, whose Q(y) guard is folded: 1800 conjuncts.  Their summed
        # loss exceeds 1e-6, so the verdict holds only if each one counts.
        rng = np.random.default_rng(0)
        for name in ("x", "y"):
            write_csv_table(tmp_path / f"{name}.csv", rng.integers(2, size=(600, 1)))
        th = check_theory(parse_theory(
            "sort D card 2;\nrel P : D extern P;\nrel Q : D extern Q;\n"
            "rel R : D x D extern R;\n"
            f'data Pairs : D x D from "{tmp_path}/x.csv,{tmp_path}/y.csv";\n'
            "axiom a : forall (x, y): Pairs . P(x) & (forall z: D . R(x, z) | Q(y));"))
        tables = {"P": np.ones(2, bool), "Q": np.ones(2, bool), "R": np.ones((2, 2), bool)}
        model = CrispModel({"D": 2}, {}, {}, tables)
        rep = satisfies_at_threshold(model, th)
        assert rep.satisfied and 1e-6 < rep.loss <= 1800 * 1e-6
        tables["Q"][1], tables["R"][...] = False, False
        assert satisfies_at_threshold(model, th).per_axiom == {"a": False}

    def test_verdict_matches_tarski_over_enumeration(self):
        th = self._theory(2)
        sig = check_theory(parse_theory("sort D card 2;\nrel P : D extern P;"))
        f = th.axioms[0].formula
        for model in enumerate_models(sig, {"D": 2}):
            assert satisfies_at_threshold(model, th).satisfied == tarski_eval(model, f)


class TestRandomGeneration:
    def test_formulas_are_closed_and_bounded(self):
        sig = default_signature(3)
        rng = np.random.default_rng(0)
        for _ in range(200):
            f = random_formula(sig, depth=4, rng=rng)
            assert free_variables(f) == set()

    def test_models_are_total(self):
        sig = default_signature(3)
        rng = np.random.default_rng(1)
        m = random_model(sig, {"D": 3}, rng)
        assert m.functions["f"].shape == (3,)
        assert m.relations["R"].shape == (3, 3)
        assert 0 <= m.constants["c"] < 3


class TestAgreementSuite:
    def test_full_agreement_at_scale(self):
        result = agreement_suite(default_signature(4), depth=4, trials=200, seed=0)
        assert result.passes == result.trials == 200

    def test_depth_zero_atoms(self):
        result = agreement_suite(default_signature(3), depth=0, trials=50, seed=1)
        assert result.all_agree

    def test_seeded_transcript_identical(self):
        a = agreement_suite(default_signature(3), depth=3, trials=40, seed=9)
        b = agreement_suite(default_signature(3), depth=3, trials=40, seed=9)
        assert a.transcript == b.transcript


class TestPartitionLoss:
    def _plan(self, n=64):
        th = check_theory(parse_theory("""
            sort Row dim 6;
            rel P : Row mlp 5 act relu;
            data Pool : Row from "mem";
            axiom a : forall r: Pool . P(r);
        """))
        rows = np.random.default_rng(3).normal(size=(n, 6))
        interp = bind_theory(th, data={"Pool": (rows,)}, seed=4)
        return compile(th, interp)

    def test_single_batch_zero_deviation(self):
        assert partition_loss_check(self._plan(), k=1, trials=3) == 0.0

    def test_small_partitions(self):
        plan = self._plan()
        for k in (2, 4):
            assert partition_loss_check(plan, k=k, trials=10, seed=5) < 1e-9

    def test_singleton_batches(self):
        assert partition_loss_check(self._plan(), k=64, trials=3, seed=6) < 1e-9

    def test_softselect_unsupported_classically(self):
        f = parse_formula("pi[0](P(x))")
        with pytest.raises(SortMismatch):
            tarski_eval(_model_p([True, False]), f, {"x": 0})
