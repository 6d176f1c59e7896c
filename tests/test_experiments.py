"""Experiment harness mechanics on small fixtures (no real MNIST needed)."""

import os

import numpy as np
import pytest

from dasl import experiments
from dasl import logit as L
from dasl.compiler import compile, scores
from dasl.data import (
    RelationVocab,
    default_relation_vocab,
    gen_synth_relations,
    spatial_predicate_externs,
    write_idx,
)
from dasl.experiments import (
    DataMissing,
    ExperimentConfig,
    balanced_subset,
    knowledge_gap,
    load_mnist,
    masked_scores,
    mnist_theory,
    recall_at,
    relations_theory,
    run_mnist_experiment,
    run_mnist_once,
    run_relations_once,
    sign_test,
    summarize,
    write_results,
)
from dasl.interp import bind_theory, build_triples
from dasl.lang import print_theory
from dasl.tensor import Tensor
from dasl.train import TrainConfig, train


def _fixture_digits(n_per_class=12, dim=36, seed=0, modes=4, noise=0.3):
    """Synthetic digit stand-in: each class is a mixture of several modes.

    Two labeled anchors per class cannot cover all modes, so supervised
    accuracy plateaus while the arithmetic triples can still pin every
    mode's label; this mirrors the multimodal within-class variation that
    makes the real digit task interesting.
    """
    rng = np.random.default_rng(seed)
    protos = rng.normal(size=(10, modes, dim)) * 1.2
    labels = np.tile(np.arange(10), n_per_class)
    rng.shuffle(labels)
    which = rng.integers(modes, size=len(labels))
    images = np.clip(protos[labels, which] + noise * rng.normal(size=(len(labels), dim)), -4, 4)
    images = (images - images.min()) / (images.max() - images.min())
    return images, labels


def _write_mnist_fixture(root, n_train=120, n_test=60):
    side = 6
    images, labels = _fixture_digits(n_per_class=(n_train + n_test) // 10, dim=side * side)
    as_bytes = (images * 255).astype(np.uint8).reshape(-1, side, side)
    write_idx(os.path.join(root, "train-images-idx3-ubyte"), as_bytes[:n_train])
    write_idx(os.path.join(root, "train-labels-idx1-ubyte"), labels[:n_train].astype(np.uint8))
    write_idx(os.path.join(root, "t10k-images-idx3-ubyte"), as_bytes[n_train:n_train + n_test])
    write_idx(os.path.join(root, "t10k-labels-idx1-ubyte"),
              labels[n_train:n_train + n_test].astype(np.uint8))


class TestMnistHarness:
    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(DataMissing):
            load_mnist(str(tmp_path))

    def test_fixture_round_trip(self, tmp_path):
        _write_mnist_fixture(str(tmp_path))
        data = load_mnist(str(tmp_path))
        assert data["train_images"].shape == (120, 36)
        assert data["test_labels"].shape == (60,)

    def test_balanced_subset(self):
        labels = np.tile(np.arange(10), 5)
        idx = balanced_subset(labels, 2, np.random.default_rng(0))
        assert len(idx) == 20
        np.testing.assert_array_equal(np.bincount(labels[idx], minlength=10), np.full(10, 2))

    def test_labeled_unlabeled_disjoint_and_triples_budgeted(self):
        images, labels = _fixture_digits()
        rng = np.random.default_rng(1)
        idx = balanced_subset(labels, 2, rng)
        mask = np.zeros(len(labels), dtype=bool)
        mask[idx] = True
        assert not set(idx) & set(np.flatnonzero(~mask))

    def test_triples_take_the_unlabeled_rows_in_place(self, monkeypatch):
        # run_mnist_once hides the labeled rows behind label -1 instead of
        # copying images[~mask]; both routes must take the same rows
        images, labels = _fixture_digits(n_per_class=20, seed=2)
        built = {}

        def in_place(rows, labels, per_class, seed):
            built["in_place"] = build_triples(rows, labels, per_class, seed)
            return built["in_place"]

        def copied(rows, labels, per_class, seed):
            unlabeled = labels >= 0
            built["copied"] = build_triples(rows[unlabeled], labels[unlabeled], per_class, seed)
            return built["copied"]

        config = ExperimentConfig(ntr=2, triples_per_class=6, seeds=(1,), iterations=20,
                                  cadence=20, lr=1e-2, batch_size=16)
        histories = {}
        for name, route in (("in_place", in_place), ("copied", copied)):
            monkeypatch.setattr(experiments, "build_triples", route)
            state = run_mnist_once(images, labels, images[:50], labels[:50], config, seed=1)
            histories[name] = state.loss_history
        np.testing.assert_array_equal(histories["in_place"], histories["copied"])
        ours, theirs = built["in_place"], built["copied"]
        assert ours.columns[0].values is images
        assert ours.cardinality == theirs.cardinality == 60
        every = np.arange(ours.cardinality)
        for col, ref in zip(ours.columns, theirs.columns, strict=True):
            np.testing.assert_array_equal(col.take(every), ref.take(every))

    @pytest.mark.parametrize("budget", [0, -5])
    def test_triples_budget_below_one_is_rejected(self, budget):
        with pytest.raises(ValueError, match="triples_per_class"):
            ExperimentConfig(triples_per_class=budget)
        ExperimentConfig(triples_per_class=budget, knowledge=False)  # no triples to build

    @pytest.mark.parametrize("setting, message", [
        (dict(lr=0.0), "learning rate"), (dict(lr=float("nan")), "learning rate"),
        (dict(train_fraction=0.0), "train fraction"), (dict(train_fraction=5.0), "train fraction"),
    ], ids=["lr-0", "lr-nan", "fraction-0", "fraction-5"])
    def test_bad_run_setting_is_rejected(self, setting, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**setting)

    def test_theory_shape(self):
        th = mnist_theory(knowledge=True)
        assert {a.name for a in th.axioms} == {"labels", "rule"}
        assert th.rel("digit").out == 10
        th0 = mnist_theory(knowledge=False)
        assert {a.name for a in th0.axioms} == {"labels"}

    def test_experiment_runs_end_to_end(self, tmp_path):
        _write_mnist_fixture(str(tmp_path / "data")) if (tmp_path / "data").mkdir() is None else None
        config = ExperimentConfig(
            ntr=2, knowledge=True, triples_per_class=6, seeds=(0,),
            iterations=30, cadence=15, data_dir=str(tmp_path / "data"),
            out_dir=str(tmp_path / "out"),
        )
        rows = run_mnist_experiment(config)
        assert any(r.metric == "accuracy" for r in rows)
        results = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert results[0] == "task,seed,ntr,triples,knowledge,split,metric,value"
        metrics = (tmp_path / "out" / "seed0" / "metrics.csv").read_text().splitlines()
        assert len(metrics) - 1 == 30 // 15 + 1

    @pytest.mark.slow
    def test_knowledge_improves_on_fixture_digits(self):
        # end-to-end semi-supervised check at fixture scale: with two labels
        # per class the supervised model misses modes it never saw, while
        # the arithmetic triples plus curriculum recover them
        images, labels = _fixture_digits(n_per_class=60, dim=36, seed=3)
        train_i, train_l = images[:400], labels[:400]
        test_i, test_l = images[400:], labels[400:]
        accs = {}
        for knowledge in (False, True):
            config = ExperimentConfig(
                ntr=2, knowledge=knowledge, triples_per_class=39,
                seeds=(0,), iterations=2500, cadence=500, lr=1e-2, batch_size=32,
            )
            state = run_mnist_once(train_i, train_l, test_i, test_l,
                                   config, seed=0)
            accs[knowledge] = state.metrics[-1]["test_accuracy"]
        assert 0.2 <= accs[False] <= 0.8
        assert accs[True] >= 0.9
        assert accs[True] > accs[False] + 0.2

    def test_run_requires_data_dir(self):
        with pytest.raises(DataMissing):
            run_mnist_experiment(ExperimentConfig(data_dir=None))

    @pytest.mark.slow
    def test_loss_decreases_seed_averaged(self):
        images, labels = _fixture_digits(n_per_class=40, dim=36, seed=6)
        early, late = [], []
        for seed in (0, 1, 2):
            config = ExperimentConfig(ntr=4, knowledge=False, seeds=(seed,),
                                      iterations=1000, cadence=1000, lr=5e-3,
                                      batch_size=32)
            state = run_mnist_once(images, labels, images[:50], labels[:50],
                                   config, seed=seed)
            early.append(np.median(state.loss_history[:100]))
            late.append(np.median(state.loss_history[900:1000]))
        assert np.mean(late) < np.mean(early)

    @pytest.mark.slow
    def test_accuracy_non_decreasing_in_triples_budget(self):
        # seed-averaged analog of the triples-count trend: the largest
        # triples budget must do at least as well as the smallest
        images, labels = _fixture_digits(n_per_class=60, dim=36, seed=3)
        train_i, train_l = images[:400], labels[:400]
        test_i, test_l = images[400:], labels[400:]
        means = {}
        for per_class in (5, 39):
            accs = []
            for seed in (0, 1, 2):
                config = ExperimentConfig(
                    ntr=2, knowledge=True, triples_per_class=per_class,
                    seeds=(seed,), iterations=1500, cadence=1500, lr=1e-2,
                    batch_size=32)
                state = run_mnist_once(train_i, train_l, test_i, test_l,
                                       config, seed=seed)
                accs.append(state.metrics[-1]["test_accuracy"])
            means[per_class] = float(np.mean(accs))
        assert means[39] >= means[5]


def _reference_masked_scores(interp, vocab, split):
    """The rule masks composed in numpy straight from the vocab.

    It does not read the theory text, so it is the independent reference
    for `masked_scores`.
    """
    spatial = spatial_predicate_externs()
    scores = interp.symbols["vrd"]([split.features, split.subject, split.object])
    for pred in sorted(vocab.rules):
        subj, obj, sp = vocab.rules[pred]
        conds = []
        if subj is not None:
            conds.append(np.where(np.asarray(vocab.bits(subj))[split.subject] == 1, L.BIG, -L.BIG))
        if obj is not None:
            conds.append(np.where(np.asarray(vocab.bits(obj))[split.object] == 1, L.BIG, -L.BIG))
        if sp is not None:
            conds.append(spatial[sp](split.features))
        cond = L.conj(*conds) if len(conds) > 1 else Tensor(conds[0])
        mask = L.bool_vector(vocab.predicate_mask(pred))
        scores = L.mask_classes(scores, mask, cond)
    return scores.data


def _relations_interp(splits, knowledge, seed):
    th = relations_theory(knowledge, splits.vocab)
    return bind_theory(th, externs=spatial_predicate_externs(),
                       data={"Train": (splits.train.features, splits.train.subject,
                                       splits.train.object, splits.train.predicate)},
                       seed=seed)


class TestRelationsHarness:
    def test_theory_compiles_both_variants(self):
        for knowledge in (False, True):
            th = relations_theory(knowledge)
            assert th.rel("vrd").out == 12
            assert (th.boolvec("h_riding") is not None) == knowledge

    def test_member_sets_with_equal_classes_keep_their_names(self):
        default = default_relation_vocab()
        members = dict(default.members, living=default.members["can_ride"])
        vocab = RelationVocab(default.object_classes, default.predicates, members, default.rules)
        text = print_theory(relations_theory(True, vocab))
        for name in members:
            assert f"boolvec {name} : " in text
        assert "(h_riding -> can_ride(s) & ridable(o) & above(f))" in text
        assert "(h_wear -> living(s) & wearable(o))" in text

    def test_masked_scores_match_the_numpy_rule_masks(self):
        splits = gen_synth_relations(n_train_pool=400, n_test=120, seed=9)
        interp = _relations_interp(splits, True, seed=9)
        plan = compile(interp.theory, interp, batch_size=32, seed=11)
        train(plan, TrainConfig(iterations=40, batch_size=32, lr=1e-2, seed=9, cadence=40,
                                eval_symbol=None))
        for split in (splits.test_standard, splits.test_zero_shot):
            got = masked_scores(interp, splits.vocab, split, knowledge=True)
            want = _reference_masked_scores(interp, splits.vocab, split)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(np.argsort(-got, axis=-1, kind="stable"),
                                          np.argsort(-want, axis=-1, kind="stable"))

    @pytest.mark.parametrize("knowledge", [False, True])
    def test_masked_scores_knowledge_must_match_the_theory(self, knowledge):
        splits = gen_synth_relations(n_train_pool=200, n_test=40, seed=3)
        interp = _relations_interp(splits, not knowledge, seed=3)
        with pytest.raises(ValueError, match="rule masks"):
            masked_scores(interp, splits.vocab, splits.test_standard, knowledge)

    def test_scores_rejects_a_non_classifier_axiom(self):
        images, labels = _fixture_digits(n_per_class=2)
        th = mnist_theory(knowledge=True, image_dim=images.shape[1], hidden=8)
        interp = bind_theory(th, data={"Labeled": (images, labels),
                                       "Triples": (images, images, images)})
        plan = compile(th, interp)
        with pytest.raises(ValueError, match="'rule'"):
            scores(plan, "rule", (images, images, images))
        logits, got = scores(plan, "labels", (images, labels))
        assert logits.shape == (len(labels), 10)
        np.testing.assert_array_equal(got, labels)

    def test_masked_rule_violating_classes_are_crushed(self):
        splits = gen_synth_relations(n_train_pool=400, n_test=120, seed=5)
        interp = _relations_interp(splits, True, seed=5)
        split = splits.test_standard
        scores = masked_scores(interp, splits.vocab, split, knowledge=True)
        probs = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        riding = list(splits.vocab.predicates).index("riding")
        violating = (~np.isin(split.subject, splits.vocab.members["can_ride"])
                     | ~np.isin(split.object, splits.vocab.members["ridable"]))
        assert violating.any()
        assert probs[violating, riding].max() < 1e-4

    def test_recall_at_full_width_is_one(self):
        rng = np.random.default_rng(6)
        scores = rng.normal(size=(50, 12))
        labels = rng.integers(12, size=50)
        assert recall_at(scores, labels, 12) == 1.0

    def test_recall_at_one_is_argmax_accuracy(self):
        rng = np.random.default_rng(7)
        scores = rng.normal(size=(40, 5))
        labels = rng.integers(5, size=40)
        want = float(np.mean(np.argmax(scores, axis=1) == labels))
        assert recall_at(scores, labels, 1) == want

    def test_short_paired_run(self):
        splits = gen_synth_relations(n_train_pool=600, n_test=150, seed=8)
        cfg = ExperimentConfig(iterations=120, cadence=60, seeds=(0,))
        _, with_k = run_relations_once(splits, cfg, seed=0, knowledge=True)
        _, without = run_relations_once(splits, cfg, seed=0, knowledge=False)
        assert set(with_k) == set(without)
        assert 0.0 <= with_k[("zero-shot", "accuracy")] <= 1.0


class TestStats:
    def test_sign_test_all_wins(self):
        assert sign_test([1, 2, 3, 4, 5, 6, 7, 8, 9], [0] * 9) == pytest.approx(2 / 512)

    def test_sign_test_split(self):
        assert sign_test([1, 0, 1, 0], [0, 1, 0, 1]) == 1.0

    def test_sign_test_ties_dropped(self):
        assert sign_test([1, 1, 1], [1, 1, 1]) == 1.0

    def test_sign_test_eight_of_nine(self):
        p = sign_test([1] * 8 + [0], [0] * 8 + [1])
        want = 2 * (1 + 9) / 2 ** 9
        assert p == pytest.approx(want)

    def test_summarize_and_gap(self, tmp_path):
        from dasl.experiments import ResultRow

        rows = []
        for seed, (b, k) in enumerate([(0.4, 0.5), (0.45, 0.52), (0.42, 0.55)]):
            rows.append(ResultRow("synth-relations", seed, 1, 0, False,
                                  "zero-shot", "accuracy", b))
            rows.append(ResultRow("synth-relations", seed, 1, 0, True,
                                  "zero-shot", "accuracy", k))
        gap, p = knowledge_gap(rows)
        assert gap == pytest.approx(np.mean([0.1, 0.07, 0.13]))
        assert p == pytest.approx(0.25)
        mean, std = summarize(rows, "accuracy", "zero-shot", True)
        assert mean == pytest.approx(np.mean([0.5, 0.52, 0.55]))
        write_results(tmp_path / "r.csv", rows)
        assert (tmp_path / "r.csv").read_text().count("\n") == 7
