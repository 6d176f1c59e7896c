"""Command-line entry point: compile, train, eval, oracle-check, mnist,
synth-rel, and gradcheck subcommands.

Exit codes: 0 success, 1 failed check, 2 usage error or diagnostics.
Config files are flat `key = value` text with `#` comments; command-line
flags override file values.  All randomness sits behind --seed; the
default data directory comes from $DASL_DATA_DIR.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .compiler import classifier_axiom, compile, explain, scores
from .data import spatial_predicate_externs
from .experiments import (
    ExperimentConfig,
    knowledge_gap,
    run_mnist_experiment,
    run_relations_experiment,
    summarize,
)
from .gradcheck import run_gradcheck
from .interp import bind_theory
from .lang import CheckError, LexError, ParseError, check_theory, parse_theory
from .logit import BIG, EqualityParams
from .oracle import agreement_suite
from .tensor import load_checkpoint
from .train import TrainConfig, train


TRAIN_CONFIG_KEYS = ("iterations", "batch_size", "lr", "cadence", "curriculum", "eval_symbol",
                     "labeled_axioms", "curriculum_domain", "monitor_symbol", "monitor_arg",
                     "rules_only_after")


def parse_config_file(path: str) -> dict[str, str]:
    """Flat `key = value` lines over TRAIN_CONFIG_KEYS; `#` starts a comment."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: bad config line {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in TRAIN_CONFIG_KEYS:
                raise ValueError(f"{path}: unknown config key {key!r}")
            out[key] = value
    return out


def _load_theory(path: str):
    with open(path) as fh:
        return check_theory(parse_theory(fh.read()))


def _bind(args, theory, data=None):
    eq = EqualityParams(args.eq_eps, args.eq_mu, args.eq_sigma).validate()
    return bind_theory(
        theory,
        externs=spatial_predicate_externs(args.big),
        data=data,
        data_dir=args.data_dir,
        seed=args.seed,
        big=args.big,
        equality=eq,
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--data-dir", default=os.environ.get("DASL_DATA_DIR"))
    p.add_argument("--big", type=float, default=BIG,
                   help="logit assigned to crisp truth")
    p.add_argument("--eq-eps", type=float, default=0.1)
    p.add_argument("--eq-mu", type=float, default=1.0)
    p.add_argument("--eq-sigma", type=float, default=0.5)


def _diagnostic(e: Exception) -> bool:
    if isinstance(e, (LexError, ParseError, CheckError, OSError, ValueError)):
        return True
    return type(e).__module__.startswith("dasl")


def _cmd_compile(args) -> int:
    theory = _load_theory(args.theory)
    interp = _bind(args, theory)
    plan = compile(theory, interp, batch_size=args.batch_size,
                   shared_draw=args.shared_draw, seed=args.seed)
    if args.explain:
        print(explain(plan))
    else:
        print(f"compiled {len(theory.axioms)} axioms, "
              f"{interp.parameter_count} parameters")
    return 0


_BOOLEANS = {"1": True, "true": True, "on": True, "yes": True,
             "0": False, "false": False, "off": False, "no": False}
_KINDS = {bool: "one of " + "/".join(_BOOLEANS), int: "an integer", float: "a number"}


def _train_config_from(args, overrides: dict[str, str]) -> TrainConfig:
    def get(key, cast, default):
        cli = getattr(args, key, None)
        if cli is not None:
            return cli
        if key in overrides:
            raw = overrides[key]
            try:
                return _BOOLEANS[raw.lower()] if cast is bool else cast(raw)
            except (KeyError, ValueError):
                raise ValueError(f"{args.config}: config key {key!r} needs "
                                 f"{_KINDS[cast]}, got {raw!r}") from None
        return default

    return TrainConfig(
        iterations=get("iterations", int, 1000),
        batch_size=get("batch_size", int, 64),
        lr=get("lr", float, 5e-5),
        seed=args.seed,
        cadence=get("cadence", int, 500),
        out_dir=args.out,
        curriculum=get("curriculum", bool, False),
        curriculum_domain=overrides.get("curriculum_domain", "Triples"),
        monitor_symbol=overrides.get("monitor_symbol", "digit"),
        monitor_arg=overrides.get("monitor_arg", "x1"),
        labeled_axioms=tuple(overrides.get("labeled_axioms", "labels").split(",")),
        eval_symbol=overrides.get("eval_symbol"),
        rules_only_after=get("rules_only_after", int, None),
    )


def _cmd_train(args) -> int:
    overrides = parse_config_file(args.config) if args.config else {}
    config = _train_config_from(args, overrides)
    theory = _load_theory(args.theory)
    interp = _bind(args, theory)
    plan = compile(theory, interp, batch_size=config.batch_size,
                   shared_draw=args.shared_draw, seed=args.seed)
    state = train(plan, config)
    final = state.loss_history[-1] if state.loss_history else float("nan")
    print(f"trained {config.iterations} iterations; final loss {final:.6f}")
    if args.out:
        print(f"wrote {os.path.join(args.out, 'metrics.csv')}")
    return 0


def _cmd_eval(args) -> int:
    theory = _load_theory(args.theory)
    interp = _bind(args, theory)
    plan = compile(theory, interp)
    axiom = classifier_axiom(plan, args.symbol, args.data)
    loaded = load_checkpoint(args.checkpoint)
    for p in interp.parameters:
        value = loaded.get(p.name)
        if value is None or value.shape != p.value.shape:
            got = "missing" if value is None else f"of shape {value.shape}"
            raise ValueError(f"{args.checkpoint}: parameter {p.name!r} is {got}, "
                             f"the theory needs shape {p.value.shape}")
        p.value[...] = value
    domain = interp.domains[args.data]
    idx = np.arange(domain.cardinality)
    logits, labels = scores(plan, axiom, [c.take(idx) for c in domain.columns])
    acc = float(np.mean(np.argmax(logits, axis=-1) == labels))
    print(f"loaded {len(interp.parameters)} parameters; accuracy {acc!r}")
    return 0


def _cmd_oracle_check(args) -> int:
    signature = _load_theory(args.signature)
    result = agreement_suite(signature, depth=args.depth, trials=args.trials,
                             seed=args.seed, big=args.big)
    print(f"agreement: {result.passes}/{result.trials}")
    if not result.all_agree:
        print(result.failures[0])
        return 1
    return 0


def _cmd_mnist(args) -> int:
    config = ExperimentConfig(
        task="mnist-triples",
        ntr=args.ntr,
        triples_per_class=args.triples_per_class,
        knowledge=args.knowledge == "on",
        seeds=tuple(range(args.seeds)),
        iterations=args.iterations,
        batch_size=args.batch_size or 64,
        lr=args.lr,
        cadence=args.cadence,
        data_dir=args.data_dir,
        out_dir=args.out,
    )
    rows = run_mnist_experiment(config)
    mean, std = summarize(rows, "accuracy", "test")
    print(f"mnist ntr={args.ntr} knowledge={args.knowledge} "
          f"accuracy {mean:.4f} +- {std:.4f} over {args.seeds} seeds")
    return 0


def _cmd_synth_rel(args) -> int:
    config = ExperimentConfig(
        task="synth-relations",
        seeds=tuple(range(args.seeds)),
        iterations=args.iterations,
        batch_size=args.batch_size or 64,
        lr=args.lr,
        cadence=args.cadence,
        out_dir=args.out,
        train_fraction=args.regime,
    )
    rows = run_relations_experiment(config)
    for knowledge in (False, True):
        for split in ("standard", "zero-shot"):
            mean, std = summarize(rows, "accuracy", split, knowledge)
            tag = "knowledge" if knowledge else "baseline "
            print(f"{tag} {split:9s} accuracy {mean:.4f} +- {std:.4f}")
    gap, p = knowledge_gap(rows)
    print(f"zero-shot gap {gap:+.4f} (sign test p = {p:.5f})")
    return 0


def _cmd_gradcheck(args) -> int:
    reports = run_gradcheck(trials=args.trials, seed=args.seed)
    failed = 0
    for name, report in reports:
        status = "pass" if report.passed else "FAIL"
        print(f"{name}: {status} (max rel err {report.max_rel_error:.3e})")
        failed += 0 if report.passed else 1
    print(f"{len(reports) - failed}/{len(reports)} graphs pass at tol 1e-4")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dasl",
        description="Compile first-order theories with neural bindings into "
                    "differentiable logit-space graphs; train and verify them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a theory and print its plan")
    p.add_argument("--theory", required=True)
    p.add_argument("--explain", action="store_true")
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--shared-draw", action="store_true",
                   help="axioms over the same dataset share one draw per step")
    _add_common(p)
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser(
        "train", help="train a theory against its data",
        epilog="config file keys (flat `key = value`, overridden by flags): "
               + ", ".join(TRAIN_CONFIG_KEYS))
    p.add_argument("--theory", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--cadence", type=int, default=None)
    p.add_argument("--curriculum", action="store_const", const=True, default=None)
    p.add_argument("--rules-only-after", type=int, default=None)
    p.add_argument("--shared-draw", action="store_true")
    _add_common(p)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="score a checkpointed classifier on a dataset")
    p.add_argument("--theory", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset name in the theory")
    p.add_argument("--symbol", required=True, help="classifier relation name")
    _add_common(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("oracle-check",
                       help="randomized agreement between the classical oracle "
                            "and compiled crisp evaluation")
    p.add_argument("--signature", required=True)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--trials", type=int, default=200)
    _add_common(p)
    p.set_defaults(fn=_cmd_oracle_check)

    p = sub.add_parser("mnist", help="digit-triples experiment")
    p.add_argument("--ntr", type=int, default=2)
    p.add_argument("--knowledge", choices=("on", "off"), default="on")
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--iterations", type=int, default=30000)
    p.add_argument("--triples-per-class", type=int, default=4000)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", type=float, default=5e-5)
    p.add_argument("--cadence", type=int, default=500)
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(fn=_cmd_mnist)

    p = sub.add_parser("synth-rel", help="synthetic relationship experiment")
    p.add_argument("--regime", type=float, default=0.01,
                   help="training-data fraction of the generated pool")
    p.add_argument("--seeds", type=int, default=9)
    p.add_argument("--iterations", type=int, default=1500)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", type=float, default=5e-5)
    p.add_argument("--cadence", type=int, default=500)
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(fn=_cmd_synth_rel)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--trials", type=int, default=20)
    _add_common(p)
    p.set_defaults(fn=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as e:  # noqa: BLE001
        if not _diagnostic(e):
            raise
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
