"""Commonsense masks on a synthetic relationship-detection task.

Box pairs carry noisy context evidence that never separates confusable
predicate pairs (riding/wear, sleep-on/eat, ...); only class membership or
geometry can.  The knowledge variant conjoins the classifier with mask
rules like  h_riding -> can_ride(s) & ridable(o) & above(f),  which shuts
rule-violating predicates off.  The payoff concentrates on the zero-shot
split, whose (predicate, subject, object) combinations never occur in
training.
"""

import numpy as np

from dasl.data import gen_synth_relations
from dasl.experiments import (
    ExperimentConfig,
    knowledge_gap,
    run_relations_experiment,
    sign_test,
    summarize,
)

config = ExperimentConfig(
    seeds=(0, 1, 2, 3, 4),          # the acceptance run uses nine
    iterations=1500,
    cadence=1500,
    train_fraction=0.01,            # the 1% data regime
)
print("training baseline and knowledge variants on 5 seeds "
      "(about 25 seconds)...\n")
rows = run_relations_experiment(config)

print(f"{'variant':12s} {'split':10s} {'accuracy':>14s} {'recall@3':>14s}")
for knowledge in (False, True):
    for split in ("standard", "zero-shot"):
        acc = summarize(rows, "accuracy", split, knowledge)
        r3 = summarize(rows, "recall@3", split, knowledge)
        tag = "knowledge" if knowledge else "baseline"
        print(f"{tag:12s} {split:10s} {acc[0]:7.3f}+-{acc[1]:.3f} {r3[0]:7.3f}+-{r3[1]:.3f}")

gap, p = knowledge_gap(rows, metric="accuracy", split="zero-shot")
print(f"\nzero-shot accuracy gap: {gap * 100:+.1f} points, two-sided sign test p = {p:.4f}")

splits = gen_synth_relations(train_fraction=0.01, seed=0)
print(f"\n(task: {len(splits.vocab.predicates)} predicates over "
      f"{len(splits.vocab.object_classes)} object classes; "
      f"{len(splits.train.pairs)} training pairs at the 1% regime; "
      f"{len(splits.zero_shot_combos)} held-out combinations)")
