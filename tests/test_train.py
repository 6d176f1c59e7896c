"""Loss, Adam, the curriculum schedule, metrics, and checkpoints."""

import dataclasses

import numpy as np
import pytest

from dasl import tensor as T
from dasl.compiler import NonFiniteLogit, compile
from dasl.interp import bind_theory
from dasl.lang import check_theory, parse_theory
from dasl.logit import BIG
from dasl.tensor import NonFiniteGradient, Parameter, load_checkpoint
from dasl.train import (
    BETA1,
    BETA2,
    EPS,
    AdamState,
    CurriculumState,
    TrainConfig,
    adam_step,
    evaluate_classifier,
    train,
    update_curriculum,
)


def loss(l):
    """Cross-entropy against truth, -ln(t) = softplus(-l): the term the compiled
    loss (`compiler.fuse_loss`) sums per grounding."""
    return T.softplus(T.neg(l))


class TestLoss:
    def test_half(self):
        assert loss(0.0).item() == pytest.approx(np.log(2), abs=1e-12)

    def test_truth_limit(self):
        assert loss(BIG).item() <= 2.1e-9

    def test_false_side(self):
        assert loss(-5.0).item() == pytest.approx(np.log(1 + np.exp(5)), abs=1e-9)
        assert loss(-5.0).item() == pytest.approx(5.00672, abs=1e-5)

    def test_monotone_decreasing(self):
        grid = np.linspace(-20, 20, 200)
        vals = [loss(float(l)).item() for l in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        p = Parameter("p", np.array([1.0, -2.0]))
        p.grad[...] = np.array([0.3, -7.0])
        state = AdamState(lr=1e-3)
        before = p.value.copy()
        adam_step([p], state)
        np.testing.assert_allclose(np.abs(p.value - before), 1e-3, rtol=1e-6)

    def test_zero_gradient_no_move(self):
        p = Parameter("p", np.array([1.0, 2.0]))
        state = AdamState(lr=1e-2)
        adam_step([p], state)
        np.testing.assert_array_equal(p.value, [1.0, 2.0])

    def test_deterministic_trajectory(self):
        def run():
            rng = np.random.default_rng(0)
            p = Parameter("p", rng.normal(size=4))
            state = AdamState(lr=1e-2)
            for i in range(50):
                p.grad[...] = np.sin(p.value + i)
                adam_step([p], state)
                p.zero_grad()
            return p.value.copy()

        np.testing.assert_array_equal(run(), run())

    def test_non_finite_gradient(self):
        p = Parameter("p", np.zeros(2))
        p.grad[...] = np.array([np.nan, 0.0])
        with pytest.raises(NonFiniteGradient):
            adam_step([p], AdamState())

    def test_non_finite_gradient_changes_nothing(self):
        a, b = Parameter("a", np.array([1.0, 2.0])), Parameter("b", np.array([3.0]))
        state = AdamState(lr=1e-2)
        a.grad[...], b.grad[...] = [0.5, -0.5], [1.0]
        adam_step([a, b], state)
        before = (a.value.copy(), b.value.copy(), state.m.copy(), state.v.copy(), state.step)
        b.grad[...] = np.inf
        with pytest.raises(NonFiniteGradient, match="'b'"):
            adam_step([a, b], state)
        after = (a.value, b.value, state.m, state.v, state.step)
        for got, want in zip(after[:4], before[:4]):
            np.testing.assert_array_equal(got, want)
        assert after[4] == before[4] == 1

    def test_blocked_update_is_bit_identical_to_the_formula(self):
        from dasl.train import _CHUNK

        rng = np.random.default_rng(1)
        shape = (3, _CHUNK // 2 + 13)  # two blocks, the second one partial
        p = Parameter("p", rng.normal(size=shape))
        value, m, v = p.value.copy(), np.zeros(shape), np.zeros(shape)
        state = AdamState(lr=1e-2)
        for step in range(1, 4):
            g = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3, size=shape)
            p.grad[...] = g
            adam_step([p], state)
            b1, b2 = BETA1, BETA2
            m += (1.0 - b1) * (g - m)
            v += (1.0 - b2) * (g * g - v)
            m_hat = m / (1.0 - b1 ** step)
            v_hat = v / (1.0 - b2 ** step)
            value -= state.lr * m_hat / (np.sqrt(v_hat) + EPS)
            np.testing.assert_array_equal(p.value, value)
            store = T.pack([p])
            np.testing.assert_array_equal(store.views(state.m)[0], m)
            np.testing.assert_array_equal(store.views(state.v)[0], v)


class TestCurriculum:
    def test_low_pass_values(self):
        s = CurriculumState()
        update_curriculum(s, 0.8)
        assert s.p_c == pytest.approx(0.08, abs=1e-12)
        update_curriculum(s, 0.8)
        assert s.p_c == pytest.approx(0.152, abs=1e-12)

    def test_grow_then_reset(self):
        s = CurriculumState(working_set=10, max_size=80)
        s.p_c = 0.89
        update_curriculum(s, 1.0)  # crosses 0.9
        assert s.working_set == 20
        assert s.p_c == 0.0
        assert s.phase == "growing"

    def test_doubling_sequence_capped(self):
        s = CurriculumState(working_set=10, max_size=50)
        sizes = [s.working_set]
        for _ in range(4):
            s.p_c = 0.95
            update_curriculum(s, 1.0)
            sizes.append(s.working_set)
        assert sizes == [10, 20, 40, 50, 50]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_rules_only_after_max(self):
        s = CurriculumState(working_set=40, max_size=40)
        s.p_c = 0.95
        update_curriculum(s, 1.0)
        assert s.phase == "rules-only"
        assert s.working_set == 40

    def test_never_shrinks(self):
        rng = np.random.default_rng(1)
        s = CurriculumState(working_set=10, max_size=160)
        prev = s.working_set
        for _ in range(500):
            update_curriculum(s, float(rng.random()))
            assert s.working_set >= prev
            prev = s.working_set


def _toy_setup(n=30, seed=0):
    th = check_theory(parse_theory("""
        sort Row dim 6;
        sort K card 3;
        rel classify : Row out 3 mlp 8 act relu;
        data Train : Row x K from "mem";
        axiom labels : forall (r, y): Train . pi[y](classify(r));
    """))
    rng = np.random.default_rng(seed)
    protos = rng.normal(size=(3, 6))
    ys = rng.integers(3, size=n)
    rows = protos[ys] + 0.3 * rng.normal(size=(n, 6))
    interp = bind_theory(th, data={"Train": (rows, ys)}, seed=seed)
    return th, interp, rows, ys


class TestTrainLoop:
    def test_zero_iterations_initial_checkpoint_only(self, tmp_path):
        th, interp, rows, ys = _toy_setup()
        plan = compile(th, interp, batch_size=8, seed=1)
        config = TrainConfig(iterations=0, batch_size=8, out_dir=str(tmp_path),
                             eval_symbol="classify")
        state = train(plan, config, test_set=(rows, ys))
        assert (tmp_path / "final.ckpt").exists()
        body = (tmp_path / "metrics.csv").read_text().splitlines()
        assert body == ["iteration,loss,working_set,p_c,test_accuracy"]
        assert state.loss_history == []

    def test_hundred_iteration_smoke(self, tmp_path):
        th, interp, rows, ys = _toy_setup()
        plan = compile(th, interp, batch_size=8, seed=1)
        config = TrainConfig(iterations=100, batch_size=8, lr=1e-2, cadence=50,
                             out_dir=str(tmp_path), eval_symbol="classify")
        state = train(plan, config, test_set=(rows, ys))
        assert len(state.loss_history) == 100
        assert all(np.isfinite(v) for v in state.loss_history)
        rows_csv = (tmp_path / "metrics.csv").read_text().splitlines()
        assert len(rows_csv) - 1 == 100 // 50 + 1

    def test_metrics_row_count_formula(self, tmp_path):
        th, interp, rows, ys = _toy_setup()
        for iterations, cadence in ((100, 500), (40, 10), (45, 10)):
            plan = compile(th, interp, batch_size=8, seed=2)
            out = tmp_path / f"run_{iterations}_{cadence}"
            config = TrainConfig(iterations=iterations, batch_size=8, cadence=cadence,
                                 out_dir=str(out))
            train(plan, config)
            lines = (out / "metrics.csv").read_text().splitlines()
            assert len(lines) - 1 == iterations // cadence + 1

    @pytest.mark.parametrize("cadence", [0, -1])
    def test_cadence_below_one_is_an_error(self, cadence):
        # 0 divided by zero at iteration 1; -1 wrote a metrics row every iteration
        with pytest.raises(ValueError, match="cadence must be >= 1"):
            TrainConfig(iterations=4, batch_size=8, cadence=cadence)

    @pytest.mark.parametrize("lr", [0.0, -1.0, float("nan"), float("inf")])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        # -1 ran gradient ascent; nan was caught only as a non-finite loss
        with pytest.raises(ValueError, match="learning rate must be finite and > 0"):
            TrainConfig(iterations=4, batch_size=8, lr=lr)

    def test_loss_decreases_on_learnable_task(self):
        th, interp, rows, ys = _toy_setup(n=60)
        plan = compile(th, interp, batch_size=16, seed=3)
        config = TrainConfig(iterations=400, batch_size=16, lr=5e-3, cadence=1000)
        state = train(plan, config)
        first = np.median(state.loss_history[:40])
        last = np.median(state.loss_history[-40:])
        assert last < first

    def test_checkpoint_round_trip_bit_identical_accuracy(self, tmp_path):
        th, interp, rows, ys = _toy_setup(n=40)
        plan = compile(th, interp, batch_size=8, seed=4)
        config = TrainConfig(iterations=60, batch_size=8, lr=1e-2, cadence=30,
                             out_dir=str(tmp_path), eval_symbol="classify")
        train(plan, config, test_set=(rows, ys))
        acc_before = evaluate_classifier(interp.symbols["classify"], rows, ys)
        loaded = load_checkpoint(tmp_path / "final.ckpt")
        th2, interp2, _, _ = _toy_setup(n=40)
        for p in interp2.parameters:
            p.value[...] = loaded[p.name]
        acc_after = evaluate_classifier(interp2.symbols["classify"], rows, ys)
        assert acc_before == acc_after

    def test_deterministic_metrics_bytes(self, tmp_path):
        outs = []
        for run in ("a", "b"):
            th, interp, rows, ys = _toy_setup()
            plan = compile(th, interp, batch_size=8, seed=5)
            config = TrainConfig(iterations=50, batch_size=8, lr=1e-2, cadence=10,
                                 out_dir=str(tmp_path / run), eval_symbol="classify")
            train(plan, config, test_set=(rows, ys))
            outs.append((tmp_path / run / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]


class TestTestAccuracy:
    """`test_accuracy` scores the classifier axiom, so masks in V apply."""

    SRC = """
        sort Row dim 4;
        sort K card 3;
        rel classify : Row out 3 mlp 6 act relu;
        boolvec nottwo : [1, 1, 0];
        data Train : Row x K from "mem";
        axiom labels : forall (r, y): Train . pi[y](%s);
    """

    def _run(self, body, tmp_path=None):
        th = check_theory(parse_theory(self.SRC % body))
        rows = np.random.default_rng(8).normal(size=(40, 4))
        ys = np.full(40, 2)
        interp = bind_theory(th, data={"Train": (rows, ys)}, seed=8)
        config = TrainConfig(iterations=1, batch_size=8, lr=1e-3, cadence=1,
                             eval_symbol="classify")
        state = train(compile(th, interp, batch_size=8, seed=8), config, test_set=(rows, ys))
        raw = evaluate_classifier(interp.symbols["classify"], rows, ys)
        return [m["test_accuracy"] for m in state.metrics], raw

    def test_unmasked_accuracy_is_the_bindings(self):
        accs, raw = self._run("classify(r)")
        assert accs[-1] == raw

    def test_masks_apply(self):
        accs, raw = self._run("classify(r) & nottwo")
        assert raw > 0.0  # the raw binding predicts the masked class on some rows
        assert accs == [0.0, 0.0]

    def test_a_non_finite_test_logit_names_the_iteration_and_the_test_set(self):
        th = check_theory(parse_theory(self.SRC % "classify(r)"))
        rows = np.random.default_rng(9).normal(size=(8, 4))
        ys = np.zeros(8, int)
        interp = bind_theory(th, data={"Train": (rows, ys)}, seed=9)
        test_rows = rows.copy()
        test_rows[5, 1] = np.nan
        config = TrainConfig(iterations=3, batch_size=4, cadence=1, eval_symbol="classify")
        with pytest.raises(NonFiniteLogit, match=r"^iteration 0: scoring the test set: "
                                                 r"axiom 'labels' produced a non-finite logit"):
            train(compile(th, interp, batch_size=4), config, test_set=(test_rows, ys))

    def test_no_classifier_axiom_is_an_error_before_the_first_step(self):
        th = check_theory(parse_theory(self.SRC % "classify(r)"))
        rows = np.zeros((4, 4))
        interp = bind_theory(th, data={"Train": (rows, np.zeros(4, int))})
        before = [p.value.copy() for p in interp.parameters]
        config = TrainConfig(iterations=3, batch_size=2, eval_symbol="nosuch")
        with pytest.raises(ValueError, match="nosuch"):
            train(compile(th, interp, batch_size=2), config, test_set=(rows, np.zeros(4, int)))
        assert all(np.array_equal(a, p.value) for a, p in zip(before, interp.parameters))


class TestEvaluateClassifier:
    class _OneHot:
        def __init__(self, scores):
            self.scores = np.asarray(scores, dtype=np.float64)

        def __call__(self, args):
            return self.scores

    def test_perfect_predictions(self):
        scores = np.eye(4)
        assert evaluate_classifier(self._OneHot(scores), np.zeros((4, 1)),
                                   np.arange(4)) == 1.0

    def test_uniform_ties_choose_smallest_index(self):
        scores = np.zeros((10, 10))
        labels = np.arange(10)
        acc = evaluate_classifier(self._OneHot(scores), np.zeros((10, 1)), labels)
        assert acc == 0.1  # constant-0 predictor

    def test_hand_built_linear_model(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(3, 4))
        x = rng.normal(size=(10, 3))
        scores = x @ w
        want = float(np.mean(np.argmax(scores, axis=1) == 2))

        class Linear:
            def __call__(self, args):
                return np.asarray(args[0]) @ w

        got = evaluate_classifier(Linear(), x, np.full(10, 2))
        assert got == want


class TestCurriculumInTraining:
    def test_working_set_grows_and_rules_only_engages(self, tmp_path):
        th = check_theory(parse_theory("""
            sort Row dim 4;
            sort K card 3;
            rel digit : Row out 3 mlp 6 act sigmoid;
            data Labeled : Row x K from "mem";
            data Triples : Row x Row x Row from "mem";
            axiom labels : forall (r, y): Labeled . pi[y](digit(r));
            axiom rule : forall (x1, x2, x3): Triples . pi[0](digit(x1)) -> pi[0](digit(x1));
        """))
        rng = np.random.default_rng(3)
        ys = np.tile(np.arange(3), 10)
        protos = 4.0 * np.eye(3, 4)  # cleanly separable classes
        rows = protos[ys] + 0.05 * rng.normal(size=(30, 4))
        from dasl.interp import build_triples

        trip = build_triples(rows, ys, per_class=8, seed=0, n_classes=3)
        interp = bind_theory(th, data={"Labeled": (rows, ys), "Triples": trip}, seed=1)
        plan = compile(th, interp, batch_size=6, seed=2)
        config = TrainConfig(iterations=800, batch_size=6, lr=5e-2, cadence=400,
                             curriculum=True, curriculum_domain="Triples",
                             curriculum_initial=2, curriculum_classes=3,
                             monitor_symbol="digit", monitor_arg="x1",
                             labeled_axioms=("labels",))
        state = train(plan, config)
        # confidence rises on the separable task, so the set must double at
        # least once, stay capped, and eventually drop the labeled axioms
        assert state.curriculum.working_set > 2
        assert state.curriculum.working_set <= state.curriculum.max_size
        assert state.curriculum.phase in ("growing", "rules-only")

    def test_mistyped_monitor_is_an_error_before_the_first_step(self):
        th = check_theory(parse_theory("""
            sort Row dim 4;
            rel digit : Row out 3 mlp 6 act sigmoid;
            data Triples : Row x Row x Row from "mem";
            axiom rule : forall (x1, x2, x3): Triples . pi[0](digit(x1)) -> pi[0](digit(x2));
        """))
        rows = np.random.default_rng(4).normal(size=(9, 4))
        from dasl.interp import build_triples

        trip = build_triples(rows, np.tile(np.arange(3), 3), per_class=2, seed=0, n_classes=3)
        plan = compile(th, bind_theory(th, data={"Triples": trip}, seed=1), batch_size=3)
        before = [p.value.copy() for p in plan.parameters]
        for symbol, arg in (("digit", "x9"), ("digits", "x1")):
            config = TrainConfig(iterations=5, batch_size=3, curriculum=True,
                                 curriculum_classes=3, monitor_symbol=symbol, monitor_arg=arg)
            with pytest.raises(ValueError, match=rf"{symbol}\({arg}\)"):
                train(plan, config)
        for p, v in zip(plan.parameters, before):
            np.testing.assert_array_equal(p.value, v)
        config = TrainConfig(iterations=1, batch_size=3, curriculum=True, curriculum_classes=3,
                             monitor_symbol="digit", monitor_arg="x2", labeled_axioms=())
        assert len(train(plan, config).loss_history) == 1

    @pytest.mark.parametrize("setting", [{"curriculum_initial": 0}, {"curriculum_classes": 0}],
                             ids=["initial", "classes"])
    def test_a_curriculum_size_below_one_is_an_error(self, setting):
        # classes 0 divided by zero; initial 0 sampled an empty working set at step 1
        with pytest.raises(ValueError, match="curriculum_initial and curriculum_classes"):
            TrainConfig(iterations=4, batch_size=8, curriculum=True, **setting)

    def test_rules_only_after_without_the_curriculum_is_an_error(self):
        # it was ignored without a word: no curriculum, so no rules-only phase
        with pytest.raises(ValueError, match="rules_only_after needs the curriculum"):
            TrainConfig(iterations=4, batch_size=8, rules_only_after=2)

    @staticmethod
    def _digit_plan(triples_per_class=2):
        th = check_theory(parse_theory("""
            sort Row dim 4;
            rel digit : Row out 3 mlp 6 act sigmoid;
            data Triples : Row x Row x Row from "mem";
            axiom labels : forall (x1, x2, x3): Triples . pi[0](digit(x1));
            axiom rule : forall (x1, x2, x3): Triples . pi[0](digit(x1)) -> pi[0](digit(x2));
        """))
        rows = np.random.default_rng(4).normal(size=(9, 4))
        from dasl.interp import build_triples

        trip = build_triples(rows, np.tile(np.arange(3), 3), per_class=triples_per_class,
                             seed=0, n_classes=3)
        return compile(th, bind_theory(th, data={"Triples": trip}, seed=1), batch_size=3)

    def test_a_mistyped_labeled_axiom_is_an_error_before_the_first_step(self):
        # rules-only would have gone on training `labels` without a word
        plan = self._digit_plan()
        before = [p.value.copy() for p in plan.parameters]
        config = TrainConfig(iterations=5, batch_size=3, curriculum=True, curriculum_classes=3,
                             labeled_axioms=("label", "labels"))
        with pytest.raises(ValueError, match="labeled axioms label are not in the theory"):
            train(plan, config)
        for p, v in zip(plan.parameters, before):
            np.testing.assert_array_equal(p.value, v)

    def test_curriculum_classes_other_than_the_monitored_width_is_an_error(self):
        # a 3-class theory trained on a working set of rows // 4 per class
        plan = self._digit_plan()
        before = [p.value.copy() for p in plan.parameters]
        config = TrainConfig(iterations=5, batch_size=3, curriculum=True, curriculum_classes=4)
        match = "curriculum_classes is 4, but the monitored relation digit has 3 classes"
        with pytest.raises(ValueError, match=match):
            train(plan, config)
        for p, v in zip(plan.parameters, before):
            np.testing.assert_array_equal(p.value, v)
        assert len(train(plan, dataclasses.replace(config, curriculum_classes=3)).loss_history) == 5

    def test_a_curriculum_domain_smaller_than_its_classes_is_an_error(self):
        # its working set was empty, and step 1 stopped with EmptyDomain
        plan = self._digit_plan()
        config = TrainConfig(iterations=5, batch_size=3, curriculum=True, curriculum_classes=7)
        with pytest.raises(ValueError, match="'Triples' has 6 rows, fewer than its 7 classes"):
            train(plan, config)
