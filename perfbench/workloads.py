"""The three benchmark workloads, driven through dasl's public API.

Each workload has the same four parts, so every metric exists on every
workload:

- inputs(seed): arrays and formulas generated before any timing;
- setup(inputs): the program's own set-up (parse, check, bind, compile);
- a closed loop of steps, then an evaluation pass, then verification
  trials, each with one client that waits for the previous call.

The training workloads step through `train.train`; the oracle workload
runs `dasl oracle-check` trials.  See README.md for why each was chosen.
"""

from __future__ import annotations

import numpy as np

from dasl import compiler, data, experiments, interp, lang, oracle, tensor, train

BATCH = 64
LR = 5e-5


# ---------------------------------------------------------------------------
# training workloads


class Training:
    """A theory trained by `train.train`, then scored and verified.

    A verification trial draws a batch and evaluates the whole theory with
    `compiler.evaluate`.  Its reference is the fused training loss on the
    same draws: the loss of a conjunction is the sum of its conjuncts'
    losses, so softplus(-root) must equal the fused loss.
    """

    name = ""

    def inputs(self, seed: int):
        raise NotImplementedError

    def setup(self, inputs):
        raise NotImplementedError

    def config(self, seed: int, iterations: int) -> train.TrainConfig:
        return train.TrainConfig(iterations=iterations, batch_size=BATCH, lr=LR, seed=seed)

    def score(self, session, inputs):
        """One evaluation pass; returns a value the check compares."""
        raise NotImplementedError

    def check_score(self, session, inputs, value) -> list[str]:
        raise NotImplementedError

    def same_score(self, a, b) -> bool:
        return a == b

    def metrics(self, scores, inputs) -> dict | None:
        """Scores recorded for the reference seed, if the workload has any."""
        return None

    def trial(self, session, draws) -> float:
        root = compiler.evaluate(session.plan, draws).root
        return float(root.data)

    def trial_reference(self, session, draws, root: float) -> str | None:
        loss, _ = compiler.fuse_loss(session.plan).evaluate(draws)
        want = float(loss.data)
        got = float(tensor.softplus(tensor.neg(tensor.Tensor(root))).data)
        if not np.isfinite(got) or abs(got - want) > 1e-9 * max(1.0, abs(want)):
            return f"fused loss {want!r} but softplus(-root) {got!r}"
        return None


class Session:
    def __init__(self, seed: int, plan, **extra):
        self.seed = seed
        self.plan = plan
        self.__dict__.update(extra)


class DigitTriples(Training):
    """The paper's experiment 1 on seeded MNIST-shaped rows."""

    name = "digit-triples"
    DIM, MODES, NOISE = 784, 4, 0.3
    TRAIN_PER_CLASS, TEST_PER_CLASS = 110, 200
    LABELED_PER_CLASS, TRIPLES_PER_CLASS = 2, 100
    # 32 per class = 320 triples = 5 full batches of 64
    WORKING_SET = 32
    REFERENCE_STEPS = 8
    ROUNDS = 10  # a per-round p90 needs about ten 75 ms steps
    SETUP_S, STEP_S, EVAL_S, TRIAL_S = 0.017, 0.075, 0.065, 0.03  # nominal seconds each

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        protos = rng.random((10, self.MODES, self.DIM))

        def rows(per_class):
            labels = np.tile(np.arange(10), per_class)
            rng.shuffle(labels)
            which = rng.integers(self.MODES, size=labels.size)
            noise = self.NOISE * rng.normal(size=(labels.size, self.DIM))
            return np.clip(protos[labels, which] + noise, 0.0, 1.0), labels

        images, labels = rows(self.TRAIN_PER_CLASS)
        test_images, test_labels = rows(self.TEST_PER_CLASS)
        return {"seed": seed, "images": images, "labels": labels,
                "test_images": test_images, "test_labels": test_labels}

    def setup(self, inputs):
        # the steps of experiments.run_mnist_once, without a test set
        seed, images, labels = inputs["seed"], inputs["images"], inputs["labels"]
        labeled = experiments.balanced_subset(labels, self.LABELED_PER_CLASS,
                                              np.random.default_rng(seed))
        mask = np.zeros(len(labels), dtype=bool)
        mask[labeled] = True
        theory = experiments.mnist_theory(True, image_dim=self.DIM)
        triples = interp.build_triples(images[~mask], labels[~mask], self.TRIPLES_PER_CLASS,
                                       seed=seed + 1)
        bound = interp.bind_theory(theory, data={"Labeled": (images[labeled], labels[labeled]),
                                                 "Triples": triples}, seed=seed)
        plan = compiler.compile(theory, bound, batch_size=BATCH, seed=seed + 2)
        return Session(seed, plan)

    def config(self, seed: int, iterations: int) -> train.TrainConfig:
        return train.TrainConfig(
            iterations=iterations, batch_size=BATCH, lr=LR, seed=seed,
            curriculum=True, curriculum_domain="Triples", curriculum_initial=self.WORKING_SET,
            monitor_symbol="digit", monitor_arg="x1", labeled_axioms=("labels",),
            eval_symbol="digit")

    def score(self, session, inputs):
        binding = session.plan.interp.symbols["digit"]
        return train.evaluate_classifier(binding, inputs["test_images"], inputs["test_labels"])

    def check_score(self, session, inputs, value) -> list[str]:
        # independent numpy forward of the 784-512-10 sigmoid MLP
        binding = session.plan.interp.symbols["digit"]
        (w0, w1), (b0, b1) = [p.value for p in binding.weights], [p.value for p in binding.biases]
        hidden = 1.0 / (1.0 + np.exp(-(inputs["test_images"] @ w0 + b0)))
        pred = np.argmax(hidden @ w1 + b1, axis=-1)
        want = float(np.mean(pred == inputs["test_labels"]))
        return [] if value == want else [f"test accuracy {value!r}, numpy forward gives {want!r}"]


class RelationsKnowledge(Training):
    """Synthetic relations, regime 0.01, knowledge variant."""

    name = "relations-knowledge"
    REGIME = 0.01
    REFERENCE_STEPS = 200
    ROUNDS = 30
    SETUP_S, STEP_S, EVAL_S, TRIAL_S = 0.0045, 0.0035, 0.03, 0.003  # nominal seconds each
    SPLITS = ("standard", "zero-shot")

    def inputs(self, seed: int):
        return {"seed": seed,
                "splits": data.gen_synth_relations(train_fraction=self.REGIME, seed=seed)}

    def setup(self, inputs):
        # the steps of experiments.run_relations_once
        seed, splits = inputs["seed"], inputs["splits"]
        theory = experiments.relations_theory(True, splits.vocab)
        rows = (splits.train.features, splits.train.subject, splits.train.object,
                splits.train.predicate)
        bound = interp.bind_theory(theory, externs=data.spatial_predicate_externs(),
                                   data={"Train": rows}, seed=seed)
        plan = compiler.compile(theory, bound, batch_size=BATCH, seed=seed + 2)
        return Session(seed, plan)

    def _splits(self, inputs):
        splits = inputs["splits"]
        return zip(self.SPLITS, (splits.test_standard, splits.test_zero_shot))

    def score(self, session, inputs):
        vocab = inputs["splits"].vocab
        return [experiments.masked_scores(session.plan.interp, vocab, split, True)
                for _, split in self._splits(inputs)]

    def metrics(self, scores, inputs) -> dict[str, dict[str, float]]:
        out = {}
        for (name, split), s in zip(self._splits(inputs), scores):
            pred = np.argmax(s, axis=-1)
            out[name] = {"accuracy": float(np.mean(pred == split.predicate)),
                         "recall@3": experiments.recall_at(s, split.predicate, 3)}
        return out

    def check_score(self, session, inputs, value) -> list[str]:
        return [f"scores of split {name!r} are not finite"
                for name, s in zip(self.SPLITS, value) if not np.all(np.isfinite(s))]

    def same_score(self, a, b) -> bool:
        return all(np.array_equal(x, y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# oracle workload


class OracleAgreement:
    """`dasl oracle-check` trials on the default signature at depth 4.

    A trial checks the one-axiom theory, bridges the crisp model, compiles,
    runs one forward with full sampling and compares the sign of the root
    logit with `tarski_eval`.  The trials are the suite's own (model,
    formula) stream for the seed, generated before timing.
    """

    name = "oracle-agreement"
    DEPTH = 4
    TRIALS = 6000
    SUITE_TRIALS = 200
    ROUNDS = 30
    SETUP_S, EVAL_S, TRIAL_S = 0.00015, 0.3, 0.001  # nominal seconds per set-up, suite, trial

    def inputs(self, seed: int):
        signature = oracle.default_signature()
        rng = np.random.default_rng(seed)
        sizes = {s.name: s.cardinality for s in signature.sorts if s.is_index}
        trials = []
        for _ in range(self.TRIALS):  # the draw order of oracle.agreement_suite
            model = oracle.random_model(signature, sizes, rng)
            trials.append((model, oracle.random_formula(signature, self.DEPTH, rng)))
        return {"seed": seed, "trials": trials}

    def setup(self, inputs):
        return Session(inputs["seed"], None, signature=oracle.default_signature())

    def trial(self, session, model, formula, clock):
        """Returns (tarski verdict, compiled verdict, seconds inside evaluate)."""
        sig = session.signature
        theory = lang.check_theory(lang.Theory(
            sorts=sig.sorts, consts=sig.consts, funcs=sig.funcs, rels=sig.rels,
            axioms=(lang.AxiomDecl("trial", formula),)))
        bound = oracle.crisp_interpretation(model, theory)
        plan = compiler.compile(theory, bound, batch_size=None)
        start = clock()
        root = compiler.evaluate(plan).root
        forward = clock() - start
        classical = oracle.tarski_eval(model, theory.axioms[0].formula)
        return classical, float(root.data) > 0.0, forward

    def suite(self, session, seed: int):
        return oracle.agreement_suite(session.signature, depth=self.DEPTH,
                                      trials=self.SUITE_TRIALS, seed=seed)


WORKLOADS = {w.name: w for w in (DigitTriples(), RelationsKnowledge(), OracleAgreement())}
