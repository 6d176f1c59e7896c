"""End-to-end experiments: digit triples on MNIST and synthetic relations.

Both experiments build a theory, bind it to data, compile, train, and
report per-seed metrics with mean/std summaries.  MNIST is read from IDX
files fetched out of band (see README); the relationship task is generated
procedurally so the rule machinery is testable without pretrained vision
features.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .compiler import compile, scores
from .data import (
    SPATIAL,
    RelationSplit,
    RelationSplits,
    RelationVocab,
    check_train_fraction,
    default_relation_vocab,
    gen_synth_relations,
    load_idx,
    spatial_predicate_externs,
)
from .interp import bind_theory, build_triples
from .lang import Theory, check_theory, parse_theory
from .train import TrainConfig, TrainState, train


class DataMissing(Exception):
    pass


@dataclass
class ExperimentConfig:
    ntr: int = 2
    triples_per_class: int = 4000
    knowledge: bool = True
    seeds: tuple[int, ...] = (0, 1, 2)
    iterations: int = 30000
    batch_size: int = 64
    lr: float = 5e-5
    cadence: int = 500
    data_dir: str | None = None
    out_dir: str | None = None
    train_fraction: float = 0.01  # synth-relations data regime

    def __post_init__(self):
        if self.ntr < 1:
            raise ValueError("ntr must be >= 1")
        if self.knowledge and self.triples_per_class < 1:
            raise ValueError("triples_per_class must be >= 1 with knowledge on")
        if not self.seeds:
            raise ValueError("need at least one seed")
        check_train_fraction(self.train_fraction)
        self.train_config(seed=0)  # TrainConfig checks the training settings

    def train_config(self, seed: int, out_dir: str | None = None, **settings) -> TrainConfig:
        """The TrainConfig of one seeded run; other TrainConfig fields keep their defaults."""
        return TrainConfig(iterations=self.iterations, batch_size=self.batch_size, lr=self.lr,
                           seed=seed, cadence=self.cadence, out_dir=out_dir, **settings)


@dataclass
class ResultRow:
    task: str
    seed: int
    ntr: int
    triples: int
    knowledge: bool
    split: str
    metric: str
    value: float


def write_results(path: str, rows: list[ResultRow]) -> None:
    with open(path, "w") as fh:
        fh.write("task,seed,ntr,triples,knowledge,split,metric,value\n")
        for r in rows:
            fh.write(f"{r.task},{r.seed},{r.ntr},{r.triples},"
                     f"{'on' if r.knowledge else 'off'},{r.split},{r.metric},{r.value!r}\n")


def summarize(rows: list[ResultRow], metric: str, split: str,
              knowledge: bool | None = None) -> tuple[float, float]:
    vals = [r.value for r in rows
            if r.metric == metric and r.split == split
            and (knowledge is None or r.knowledge == knowledge)]
    return float(np.mean(vals)), float(np.std(vals))


def sign_test(a, b) -> float:
    """Two-sided paired sign test p-value for the a-vs-b seed pairs."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    diffs = a - b
    n = int(np.sum(diffs != 0))
    if n == 0:
        return 1.0
    k = int(np.sum(diffs > 0))
    tail = min(k, n - k)
    p = 2.0 * sum(math.comb(n, i) for i in range(tail + 1)) / 2.0 ** n
    return min(1.0, p)


# ---------------------------------------------------------------------------
# MNIST triples


MNIST_FILES = {
    "train_images": ("train-images-idx3-ubyte", "train-images.idx3-ubyte"),
    "train_labels": ("train-labels-idx1-ubyte", "train-labels.idx1-ubyte"),
    "test_images": ("t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte"),
    "test_labels": ("t10k-labels-idx1-ubyte", "t10k-labels.idx1-ubyte"),
}


def load_mnist(data_dir: str) -> dict[str, np.ndarray]:
    """Load the four standard IDX files from data_dir (see README for URLs)."""
    out = {}
    for key, names in MNIST_FILES.items():
        for name in names:
            path = os.path.join(data_dir, name)
            if os.path.exists(path):
                out[key] = load_idx(path)
                break
        else:
            raise DataMissing(f"no {names[0]} under {data_dir!r}")
    return out


def mnist_theory(knowledge: bool, image_dim: int = 784, hidden: int = 512) -> Theory:
    src = [
        f"sort Image dim {image_dim};",
        "sort Digit card 10;",
        f"rel digit : Image out 10 mlp {hidden} act sigmoid;",
        'data Labeled : Image x Digit from "labeled";',
    ]
    if knowledge:
        src.append('data Triples : Image x Image x Image from "triples";')
    src.append("axiom labels : forall (x, y): Labeled . pi[y](digit(x));")
    if knowledge:
        src.append(
            "axiom rule : forall (x1, x2, x3): Triples . "
            "forall y1: Digit . forall y2: Digit . "
            "(pi[y1](digit(x1)) & pi[y2](digit(x2))) -> pi[(y1 + y2) mod 10](digit(x3));"
        )
    return check_theory(parse_theory("\n".join(src)))


def balanced_subset(labels: np.ndarray, per_class: int, rng: np.random.Generator,
                    n_classes: int = 10) -> np.ndarray:
    picks = []
    for c in range(n_classes):
        pool = np.flatnonzero(labels == c)
        if len(pool) < per_class:
            raise DataMissing(f"class {c} has only {len(pool)} examples")
        picks.append(rng.choice(pool, size=per_class, replace=False))
    return np.sort(np.concatenate(picks))


def run_mnist_once(
    images: np.ndarray,
    labels: np.ndarray,
    test_images: np.ndarray,
    test_labels: np.ndarray,
    config: ExperimentConfig,
    seed: int,
    out_dir: str | None = None,
) -> TrainState:
    """One seeded run of the digit experiment on preloaded arrays."""
    rng = np.random.default_rng(seed)
    # ntr beyond the smallest class means "use the entire training set"
    ntr = min(config.ntr, int(np.bincount(labels, minlength=10).min()))
    labeled_idx = balanced_subset(labels, ntr, rng)
    mask = np.zeros(len(labels), dtype=bool)
    mask[labeled_idx] = True
    theory = mnist_theory(config.knowledge, image_dim=images.shape[1])
    data = {"Labeled": (images[labeled_idx], labels[labeled_idx])}
    if config.knowledge:
        per_class = min(config.triples_per_class,
                        int(np.bincount(labels[~mask], minlength=10).min()))
        # label -1 keeps the labeled rows out of every pool without copying the images
        unlabeled = np.where(mask, -1, np.asarray(labels, dtype=np.int64))
        data["Triples"] = build_triples(images, unlabeled, per_class, seed=seed + 1)
    interp = bind_theory(theory, data=data, seed=seed)
    plan = compile(theory, interp, batch_size=config.batch_size, seed=seed + 2)
    tconf = config.train_config(seed, out_dir, curriculum=config.knowledge, eval_symbol="digit")
    return train(plan, tconf, test_set=(test_images, test_labels))


def run_mnist_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """The digit-triples protocol over config.seeds; returns result rows."""
    if config.data_dir is None:
        raise DataMissing("set data_dir (or DASL_DATA_DIR) to the MNIST IDX files")
    mnist = load_mnist(config.data_dir)
    images = mnist["train_images"][:50000]
    labels = mnist["train_labels"][:50000]
    rows: list[ResultRow] = []
    for seed in config.seeds:
        sub = os.path.join(config.out_dir, f"seed{seed}") if config.out_dir else None
        state = run_mnist_once(images, labels, mnist["test_images"],
                               mnist["test_labels"], config, seed, out_dir=sub)
        final_acc = [m["test_accuracy"] for m in state.metrics if m["test_accuracy"] is not None]
        rows.append(ResultRow("mnist-triples", seed, config.ntr, config.triples_per_class,
                              config.knowledge, "test", "accuracy",
                              final_acc[-1] if final_acc else float("nan")))
        rows.append(ResultRow("mnist-triples", seed, config.ntr, config.triples_per_class,
                              config.knowledge, "test", "best_accuracy", state.best_accuracy))
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        write_results(os.path.join(config.out_dir, "results.csv"), rows)
    return rows


# ---------------------------------------------------------------------------
# synthetic relations


def relations_theory(knowledge: bool, vocab: RelationVocab | None = None,
                     hidden: int = 64) -> Theory:
    """Classifier theory, optionally conjoined with the rule-schema masks."""
    vocab = vocab or default_relation_vocab()

    def bits(t):
        return "[" + ", ".join(str(b) for b in t) + "]"

    src = [
        f"sort Feat dim {vocab.feature_dim};",
        f"sort Obj card {len(vocab.object_classes)};",
        f"sort Pred card {len(vocab.predicates)};",
        f"rel vrd : Feat x Obj x Obj out {len(vocab.predicates)} mlp {hidden} act relu;",
        'data Train : Feat x Obj x Obj x Pred from "train";',
    ]
    score = "vrd(f, s, o)"
    if knowledge:
        for name in vocab.members:
            src.append(f"boolvec {name} : {bits(vocab.bits(name))};")
        for rel in sorted(SPATIAL):
            src.append(f"rel {rel} : Feat extern {rel};")
        guards = []
        for pred in sorted(vocab.rules):
            hname = f"h_{vocab.predicates[pred].replace('-', '_')}"
            src.append(f"boolvec {hname} : {bits(vocab.predicate_mask(pred))};")
            # the rule's subject set tests s, its object set o, its SPATIAL name f
            conds = [f"{name}({var})" for name, var in zip(vocab.rules[pred], "sof")
                     if name is not None]
            guards.append(f"({hname} -> {' & '.join(conds)})")
        score = " & ".join([score, *guards])
    src.append(f"axiom labels : forall (f, s, o, y): Train . pi[y]({score});")
    return check_theory(parse_theory("\n".join(src)))


def masked_scores(interp, vocab: RelationVocab, split: RelationSplit,
                  knowledge: bool) -> np.ndarray:
    """Class logits for a split, scored through the theory's `labels` axiom.

    The rule masks apply exactly when the theory declares them, as
    `relations_theory(True)` does; `knowledge` must agree with that, and a
    mismatch raises ValueError.  `vocab` is not read: the masks come from
    the theory text.
    """
    if knowledge != bool(interp.theory.boolvecs):
        raise ValueError(f"knowledge={knowledge}, but the theory "
                         f"{'declares' if interp.theory.boolvecs else 'has no'} rule masks")
    columns = (split.features, split.subject, split.object, split.predicate)
    return scores(compile(interp.theory, interp), "labels", columns)[0]


def recall_at(scores: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Fraction of pairs whose true predicate is among the k top scores."""
    order = np.argsort(-scores, axis=-1, kind="stable")
    hits = (order[:, :k] == labels[:, None]).any(axis=1)
    return float(hits.mean())


def run_relations_once(splits: RelationSplits, config: ExperimentConfig, seed: int,
                       knowledge: bool, out_dir: str | None = None):
    """Train one variant and score both test splits."""
    theory = relations_theory(knowledge, splits.vocab)
    data = {"Train": (splits.train.features, splits.train.subject,
                      splits.train.object, splits.train.predicate)}
    interp = bind_theory(theory, externs=spatial_predicate_externs(), data=data, seed=seed)
    plan = compile(theory, interp, batch_size=config.batch_size, seed=seed + 2)
    state = train(plan, config.train_config(seed, out_dir))
    metrics = {}
    n_pred = len(splits.vocab.predicates)
    for split_name, split in (("standard", splits.test_standard),
                              ("zero-shot", splits.test_zero_shot)):
        scores = masked_scores(interp, splits.vocab, split, knowledge)
        pred = np.argmax(scores, axis=-1)
        metrics[(split_name, "accuracy")] = float(np.mean(pred == split.predicate))
        metrics[(split_name, "recall@3")] = recall_at(scores, split.predicate, 3)
        metrics[(split_name, f"recall@{n_pred}")] = recall_at(scores, split.predicate, n_pred)
    return state, metrics


def run_relations_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Baseline vs knowledge-masked variant, paired per seed."""
    rows: list[ResultRow] = []
    for seed in config.seeds:
        splits = gen_synth_relations(train_fraction=config.train_fraction, seed=seed)
        for knowledge in (False, True):
            sub = None
            if config.out_dir:
                sub = os.path.join(config.out_dir,
                                   f"seed{seed}_{'know' if knowledge else 'base'}")
            _, metrics = run_relations_once(splits, config, seed, knowledge, out_dir=sub)
            for (split_name, metric), value in sorted(metrics.items()):
                rows.append(ResultRow("synth-relations", seed, config.ntr, 0,
                                      knowledge, split_name, metric, value))
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        write_results(os.path.join(config.out_dir, "results.csv"), rows)
    return rows


def knowledge_gap(rows: list[ResultRow], metric: str = "accuracy",
                  split: str = "zero-shot") -> tuple[float, float]:
    """(mean gap, sign-test p) of knowledge minus baseline across seeds."""
    seeds = sorted({r.seed for r in rows})
    base = [next(r.value for r in rows
                 if r.seed == s and not r.knowledge and r.metric == metric and r.split == split)
            for s in seeds]
    know = [next(r.value for r in rows
                 if r.seed == s and r.knowledge and r.metric == metric and r.split == split)
            for s in seeds]
    gap = float(np.mean(np.asarray(know) - np.asarray(base)))
    return gap, sign_test(know, base)
