"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion.  Criterion 7 needs the real MNIST IDX files (point
DASL_DATA_DIR at them; download URLs are in the README) and skips with an
explicit message when they are absent.
"""

import os
import time

import numpy as np
import pytest

import _scalar_ref as ref
from dasl import logit as L
from dasl import tensor as T
from dasl.compiler import compile
from dasl.experiments import (
    ExperimentConfig,
    knowledge_gap,
    load_mnist,
    masked_scores,
    relations_theory,
    run_mnist_once,
    run_relations_experiment,
    summarize,
)
from dasl.data import gen_synth_relations, spatial_predicate_externs
from dasl.gradcheck import run_gradcheck
from dasl.interp import bind_theory
from dasl.lang import check_theory, parse_theory
from dasl.logit import EQ_EPS, EQ_MU, EQ_SIGMA
from dasl.oracle import agreement_suite, default_signature, partition_loss_check
from dasl.tensor import Parameter, Tape, backward
from dasl.train import CurriculumState, TrainConfig, train, update_curriculum

pytestmark = pytest.mark.acceptance

MNIST_DIR = os.environ.get("DASL_DATA_DIR") or os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data")


def _report(n: int, text: str) -> None:
    print(f"\ncriterion {n}: PASS - {text}")


def _sigma(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


@pytest.fixture(scope="module")
def gradcheck_run():
    """One timed `run_gradcheck(50)`: its reports, seconds and every pull it taped."""
    pulls = set()
    record = T.Tape.record

    def spy(tape, out, inputs):
        pulls.update(item[1].__name__ for item in inputs)
        return record(tape, out, inputs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T.Tape, "record", spy)
        t0 = time.time()
        reports = run_gradcheck(trials=50, seed=0)
        elapsed = time.time() - t0
    return reports, elapsed, pulls


@pytest.mark.slow
class TestCriterion1Gradients:
    def test_fifty_randomized_graphs(self, gradcheck_run):
        reports, elapsed, _ = gradcheck_run
        worst = max(r.max_rel_error for _, r in reports)
        failures = [name for name, r in reports if not r.passed]
        assert len(reports) == 50
        assert failures == []
        assert worst < 1e-4
        assert elapsed < 60
        _report(1, f"50/50 graphs, max rel err {worst:.2e}, {elapsed:.1f}s")

    def test_the_graphs_tape_every_kernel_training_emits(self, gradcheck_run):
        _, _, pulls = gradcheck_run
        emitted = {
            "_pull_conjoin", "_pull_conjoin_axis", "_pull_softselect_rows",
            "_pull_softselect_table", "_pull_softplus_neg_sum", "_pull_sigmoid",
            "_pull_tanh", "_pull_relu", "_pull_sqrt",
            "_matmul_by_transpose", "_transpose_matmul",  # affine, an MLP layer
            "_pull_gather",  # an embedding sort's rows
            "_pull_slice",  # concat and write_columns
            "_pull_rows",  # slice_rows
        }
        assert emitted - pulls == set()


class TestCriterion2ConnectiveAlgebra:
    def test_algebra_suite(self):
        # direct truth-space oracle at 50 digits: float64 cannot even
        # represent 1 - t to 1e-9 once t saturates past 1 - 1e-7
        import mpmath

        rng = np.random.default_rng(0)
        a, b = rng.uniform(-10, 10, size=(2, 400))
        got_and = L.conj(a, b).data
        got_or = L.disj(a, b).data
        got_imp = L.implies(a, b).data
        worst = 0.0
        with mpmath.workdps(50):
            def mlogit(t):
                return float(mpmath.log(t / (1 - t)))

            for i in range(len(a)):
                ta = 1 / (1 + mpmath.e ** mpmath.mpf(-a[i]))
                tb = 1 / (1 + mpmath.e ** mpmath.mpf(-b[i]))
                worst = max(worst, abs(got_and[i] - mlogit(ta * tb)))
                worst = max(worst, abs(got_or[i] - mlogit(ta + tb - ta * tb)))
                worst = max(worst, abs(got_imp[i] - mlogit(1 - ta * (1 - tb))))
        assert worst < 1e-9

        with mpmath.workdps(50):
            v = rng.uniform(-10, 10, size=8)
            exps = [mpmath.e ** mpmath.mpf(x) for x in v]
            total = sum(exps)
            ss_err = 0.0
            for i in range(8):
                p = exps[i] / total
                want = float(mpmath.log(p / (1 - p)))
                ss_err = max(ss_err, abs(L.softselect(v, i).item() - want))
        assert ss_err < 1e-9

        hi = rng.uniform(15, 30, size=(2, 4000))
        stable_err = np.abs(L.conj(hi[0], hi[1]).data
                            - (-np.log(np.exp(-hi[0]) + np.exp(-hi[1])))).max()
        assert stable_err < 1e-4

        ls = rng.uniform(-10, 10, size=20)
        fused = np.sum(np.logaddexp(0.0, -ls))
        whole = float(np.logaddexp(0.0, -L.conj(*ls).item()))
        assert abs(whole - fused) / fused < 1e-9

        v = rng.uniform(-20, 20, size=12)
        probs = _sigma(np.array([L.softselect(v, i).item() for i in range(12)]))
        assert abs(probs.sum() - 1.0) < 1e-12
        _report(2, f"direct-formula err {worst:.1e}, softselect err {ss_err:.1e}, "
                   f"stable-branch err {stable_err:.1e}, probs sum to 1")


class TestCriterion3VanishingGradientContrast:
    def test_product_vanishes_logit_does_not(self):
        # product-space gradient at t = 0.99 with 2000 conjuncts
        t = 0.99
        product_grad = t ** 1999
        assert product_grad < 1e-4

        # logit-space per-conjunct loss gradient is sigma(-l) for any n
        l = float(np.log(0.99 / 0.01))
        expected = float(_sigma(-l))
        for n in (2, 20, 200, 2000):
            params = [Parameter(f"l{i}", np.array(l)) for i in range(n)]
            with Tape():
                for p in params:
                    p.zero_grad()
                backward(T.softplus(T.neg(L.conj(*params))))
            grads = np.array([float(p.grad) for p in params])
            assert np.abs(grads + expected).max() < 1e-9
        _report(3, f"product grad {product_grad:.1e} < 1e-4; logit grad "
                   f"{expected:.4f} for n in {{2,20,200,2000}} exact to 1e-9")


class TestCriterion4SoundnessCompleteness:
    def test_agreement_200_of_200(self):
        t0 = time.time()
        result = agreement_suite(default_signature(4), depth=4, trials=200, seed=0)
        elapsed = time.time() - t0
        assert result.passes == result.trials == 200, result.failures[:1]
        assert elapsed < 60
        _report(4, f"tarski vs compiled crisp sign: {result.passes}/200, {elapsed:.1f}s")


class TestCriterion5SamplingLossAdditivity:
    def test_partitions(self):
        th = check_theory(parse_theory("""
            sort Row dim 6;
            rel P : Row mlp 8 act relu;
            data Pool : Row from "mem";
            axiom a : forall r: Pool . P(r);
        """))
        rows = np.random.default_rng(1).normal(size=(64, 6))
        interp = bind_theory(th, data={"Pool": (rows,)}, seed=2)
        plan = compile(th, interp)
        worst = 0.0
        for k in (1, 2, 4, 64):
            dev = partition_loss_check(plan, k=k, trials=10, seed=3)
            worst = max(worst, dev)
            assert dev < 1e-9, f"k={k}: {dev}"
        _report(5, f"max relative deviation {worst:.2e} over k in {{1,2,4,64}}")


class TestCriterion6EqualitySemantics:
    def test_density_ratio_maximum_monotone(self):
        import mpmath

        grid = np.arange(0.0, 5.0001, 0.01)
        worst = 0.0
        vals = []
        with mpmath.workdps(50):
            eps, mu, sg = (mpmath.mpf(str(v)) for v in (EQ_EPS, EQ_MU, EQ_SIGMA))
            for x in grid:
                got = L.equality_logit(float(x), 0.0).item()
                xm = mpmath.mpf(float(x))
                f_eq = (2 / eps) * mpmath.e ** (-xm * xm / (2 * eps ** 2))
                f_neq = (1 / sg) * (mpmath.e ** (-((xm - mu) ** 2) / (2 * sg ** 2))
                                    + mpmath.e ** (-((xm + mu) ** 2) / (2 * sg ** 2)))
                want = float(mpmath.log(f_eq / f_neq))
                worst = max(worst, abs(got - want))
                vals.append(got)
        vals = np.array(vals)
        assert worst < 1e-9
        assert vals[0] == pytest.approx(3.609438, abs=1e-6)
        assert np.argmax(vals) == 0
        assert np.all(np.diff(vals) <= 1e-12)
        _report(6, f"density-ratio err {worst:.1e}, max {vals[0]:.6f} at x=0, monotone")


class TestCriterion7MnistReproduction:
    @pytest.mark.slow
    def test_digit_triples_protocol(self, tmp_path):
        try:
            mnist = load_mnist(MNIST_DIR)
        except Exception:
            pytest.skip(
                f"MNIST IDX files not found under {MNIST_DIR!r}; this sandbox has "
                "no network route to fetch them. Download the four files (URLs in "
                "the README) into that directory, or set DASL_DATA_DIR, and rerun. "
                "The training pipeline itself is exercised end-to-end on synthetic "
                "fixtures in tests/test_experiments.py.")
        images = mnist["train_images"][:50000]
        labels = mnist["train_labels"][:50000]
        # fallback budget: 10K iterations (stated in the results log), with
        # thresholds 85% / 40-75% / 96%
        iterations = int(os.environ.get("DASL_MNIST_ITERATIONS", "10000"))
        fallback = iterations < 30000
        thresholds = (0.85, (0.40, 0.75), 0.96) if fallback else (0.90, (0.40, 0.70), 0.97)
        seeds = (0, 1, 2)
        results = {}
        log_lines = [f"budget: {iterations} iterations per run "
                     f"({'fallback thresholds 85%/40-75%/96%' if fallback else 'full 30K budget'})"]
        for name, ntr, knowledge in (("with-knowledge", 2, True),
                                     ("no-knowledge", 2, False),
                                     ("all-labels", 10 ** 9, False)):  # all = every label
            accs = []
            for seed in seeds:
                config = ExperimentConfig(
                    ntr=ntr, knowledge=knowledge, triples_per_class=4000,
                    seeds=(seed,), iterations=iterations, batch_size=64,
                    lr=5e-5, cadence=500)
                state = run_mnist_once(images, labels, mnist["test_images"],
                                       mnist["test_labels"], config, seed,
                                       out_dir=str(tmp_path / f"{name}_{seed}"))
                accs.append(state.metrics[-1]["test_accuracy"])
            results[name] = float(np.mean(accs))
            log_lines.append(f"{name}: seeds={list(seeds)} accs={accs} mean={results[name]:.4f}")
        (tmp_path / "results.log").write_text("\n".join(log_lines) + "\n")
        print("\n".join(log_lines))
        assert results["with-knowledge"] >= thresholds[0]
        assert thresholds[1][0] <= results["no-knowledge"] <= thresholds[1][1]
        assert results["all-labels"] >= thresholds[2]
        _report(7, f"knowledge {results['with-knowledge']:.3f}, "
                   f"baseline {results['no-knowledge']:.3f}, "
                   f"all-labels {results['all-labels']:.3f} at {iterations} iterations")


@pytest.mark.slow
class TestCriterion8KnowledgeBenefit:
    def test_zero_shot_gap_and_mask_suppression(self, tmp_path):
        t0 = time.time()
        config = ExperimentConfig(
            seeds=tuple(range(9)), iterations=1500,
            batch_size=64, lr=5e-5, cadence=1500, train_fraction=0.01,
            out_dir=str(tmp_path / "rel"))
        rows = run_relations_experiment(config)
        gap, p = knowledge_gap(rows, metric="accuracy", split="zero-shot")
        elapsed = time.time() - t0
        assert gap >= 0.05, f"zero-shot gap {gap:.4f}"
        assert p < 0.05, f"sign test p {p:.5f}"
        assert elapsed < 600

        # masked rule-violating classes carry < 1e-4 softmax mass
        splits = gen_synth_relations(train_fraction=0.01, seed=0)
        th = relations_theory(True, splits.vocab)
        interp = bind_theory(th, externs=spatial_predicate_externs(),
                             data={"Train": (splits.train.features,
                                             splits.train.subject,
                                             splits.train.object,
                                             splits.train.predicate)}, seed=0)
        split = splits.test_standard
        scores = masked_scores(interp, splits.vocab, split, knowledge=True)
        probs = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        riding = list(splits.vocab.predicates).index("riding")
        violating = (~np.isin(split.subject, splits.vocab.members["can_ride"])
                     | ~np.isin(split.object, splits.vocab.members["ridable"]))
        mass = probs[violating, riding].max()
        assert mass < 1e-4
        know = summarize(rows, "accuracy", "zero-shot", True)
        base = summarize(rows, "accuracy", "zero-shot", False)
        _report(8, f"zero-shot gap {gap * 100:+.1f} points "
                   f"({know[0]:.3f} vs {base[0]:.3f}), sign test p={p:.4f}, "
                   f"violating-class mass {mass:.1e}, {elapsed:.0f}s")


class TestCriterion9CurriculumUnits:
    def test_schedule(self):
        s = CurriculumState()
        update_curriculum(s, 0.8)
        assert s.p_c == pytest.approx(0.08, abs=1e-15)
        update_curriculum(s, 0.8)
        assert s.p_c == pytest.approx(0.152, abs=1e-15)

        s = CurriculumState(working_set=10, max_size=40)
        s.p_c = 0.91
        update_curriculum(s, 1.0)  # post-update score crosses: grow then reset
        assert (s.working_set, s.p_c) == (20, 0.0)
        s.p_c = 0.95
        update_curriculum(s, 1.0)
        assert (s.working_set, s.p_c) == (40, 0.0)
        s.p_c = 0.95
        update_curriculum(s, 1.0)
        assert s.phase == "rules-only"
        assert s.working_set == 40
        _report(9, "low-pass values, doubling, reset-after-grow, rules-only entry")


class TestCriterion10Determinism:
    def _train_bytes(self, root, tag):
        th = check_theory(parse_theory("""
            sort Row dim 5;
            sort K card 3;
            rel classify : Row out 3 mlp 6 act relu;
            data Train : Row x K from "mem";
            axiom labels : forall (r, y): Train . pi[y](classify(r));
        """))
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(30, 5))
        ys = rng.integers(3, size=30)
        interp = bind_theory(th, data={"Train": (rows, ys)}, seed=7)
        plan = compile(th, interp, batch_size=8, seed=7)
        out = os.path.join(root, tag)
        config = TrainConfig(iterations=40, batch_size=8, lr=1e-2, cadence=10,
                             seed=7, out_dir=out, eval_symbol="classify")
        train(plan, config, test_set=(rows, ys))
        with open(os.path.join(out, "metrics.csv"), "rb") as fh:
            metrics = fh.read()
        with open(os.path.join(out, "final.ckpt"), "rb") as fh:
            ckpt = fh.read()
        return metrics, ckpt

    def test_metrics_files_byte_identical(self, tmp_path):
        m1, c1 = self._train_bytes(str(tmp_path), "run1")
        m2, c2 = self._train_bytes(str(tmp_path), "run2")
        assert m1 == m2
        assert c1 == c2

        a = agreement_suite(default_signature(3), depth=4, trials=60, seed=5)
        b = agreement_suite(default_signature(3), depth=4, trials=60, seed=5)
        assert a.transcript == b.transcript

        rows = []
        for tag in ("r1", "r2"):
            cfg = ExperimentConfig(seeds=(0,), iterations=40, cadence=40,
                                   out_dir=str(tmp_path / tag))
            run_relations_experiment(cfg)
            rows.append((tmp_path / tag / "results.csv").read_bytes())
        assert rows[0] == rows[1]
        _report(10, "training metrics, checkpoints, agreement transcripts, and "
                    "results files byte-identical across seeded reruns")
