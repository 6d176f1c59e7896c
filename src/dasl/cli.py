"""Command-line entry point: compile, train, eval, oracle-check, mnist,
synth-rel, and gradcheck subcommands.

Exit codes: 0 success; 2 a usage error, a DaslError or an OSError, printed
as one `error:` line; 1 a failed check, or a defect with its traceback.
Config files are flat `key = value` text with `#` comments; command-line
flags override file values, and TrainConfig's defaults fill the rest.
Randomness sits behind --seed, or --seeds N (seeds 0..N-1) for the
experiments; compile and eval take none, as nothing they print depends on
one.  The default data directory comes from $DASL_DATA_DIR.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .errors import DaslError, InvalidValue
from .gradcheck import run_gradcheck
from .interp import bind_theory
from .lang import check_theory, parse_theory
from .oracle import agreement_suite
from .tensor import GRAD_CHECK_TOL, load_checkpoint
from .train import TrainConfig, train


# every training setting a config file may set, with the cast of its text;
# an unset key keeps TrainConfig's default
_TRAIN_CONFIG_CASTS = {
    "iterations": int, "batch_size": int, "lr": float, "cadence": int, "curriculum": bool,
    "labeled_axioms": lambda raw: tuple(raw.split(",")), "curriculum_domain": str,
    "monitor_symbol": str, "monitor_arg": str, "rules_only_after": int,
}
TRAIN_CONFIG_KEYS = tuple(_TRAIN_CONFIG_CASTS)


def _read_text(path) -> str:
    """The file's text; bytes that are not UTF-8 raise InvalidValue naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise InvalidValue(f"{path}: {e}") from e


def parse_config_file(path: str) -> dict[str, str]:
    """Flat `key = value` lines over TRAIN_CONFIG_KEYS; `#` starts a comment."""
    out: dict[str, str] = {}
    for line in _read_text(path).split("\n"):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidValue(f"{path}: bad config line {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in TRAIN_CONFIG_KEYS:
            raise InvalidValue(f"{path}: unknown config key {key!r}")
        out[key] = value
    return out


def _load_theory(path: str):
    return check_theory(parse_theory(_read_text(path)))


def _bind(args, theory, seed: int = 0):
    return bind_theory(theory, externs=spatial_predicate_externs(),
                       data_dir=args.data_dir, seed=seed)


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take only integers >= 0."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return seed


def _add_options(p: argparse.ArgumentParser, *dests: str) -> None:
    """Add the shared options named by dest, each with its one default."""
    specs = {
        "seed": dict(type=_seed, default=0),
        "data_dir": dict(default=os.environ.get("DASL_DATA_DIR")),
    }
    for dest in dests:
        p.add_argument("--" + dest.replace("_", "-"), **specs[dest])


def _cmd_compile(args) -> int:
    theory = _load_theory(args.theory)
    interp = _bind(args, theory)
    plan = compile(theory, interp, batch_size=args.batch_size)
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
    """TrainConfig from the flags, then the config file, then its own defaults."""
    settings = {}
    for key, cast in _TRAIN_CONFIG_CASTS.items():
        cli = getattr(args, key, None)
        if cli is not None:
            settings[key] = cli
        elif key in overrides:
            raw = overrides[key]
            try:
                settings[key] = _BOOLEANS[raw.lower()] if cast is bool else cast(raw)
            except (KeyError, ValueError):
                raise InvalidValue(f"{args.config}: config key {key!r} needs "
                                   f"{_KINDS[cast]}, got {raw!r}") from None
    return TrainConfig(seed=args.seed, out_dir=args.out, **settings)


def _cmd_train(args) -> int:
    overrides = parse_config_file(args.config) if args.config else {}
    config = _train_config_from(args, overrides)
    theory = _load_theory(args.theory)
    monitor = theory.rel(config.monitor_symbol)
    if config.curriculum and monitor is not None and monitor.out:
        # the working set holds rows per class of the monitored classifier
        config = dataclasses.replace(config, curriculum_classes=monitor.out)
    interp = _bind(args, theory, args.seed)
    plan = compile(theory, interp, batch_size=config.batch_size, seed=args.seed)
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
            raise InvalidValue(f"{args.checkpoint}: parameter {p.name!r} is {got}, "
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
                             seed=args.seed)
    print(f"agreement: {result.passes}/{result.trials}")
    if not result.all_agree:
        print(result.failures[0])
        return 1
    return 0


def _cmd_mnist(args) -> int:
    config = ExperimentConfig(
        ntr=args.ntr,
        triples_per_class=args.triples_per_class,
        knowledge=args.knowledge == "on",
        seeds=tuple(range(args.seeds)),
        iterations=args.iterations,
        batch_size=args.batch_size,
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
        seeds=tuple(range(args.seeds)),
        iterations=args.iterations,
        batch_size=args.batch_size,
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
    print(f"{len(reports) - failed}/{len(reports)} graphs pass at tol "
          f"{np.format_float_scientific(GRAD_CHECK_TOL, trim='-', exp_digits=1)}")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dasl",
        description="Compile first-order theories with neural bindings into "
                    "differentiable logit-space graphs; train and verify them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        # no prefix matching, so `mnist --seed 5` cannot mean `--seeds 5`
        return sub.add_parser(name, allow_abbrev=False, **kwargs)

    p = add("compile", help="compile a theory and print its plan")
    p.add_argument("--theory", required=True)
    p.add_argument("--explain", action="store_true")
    p.add_argument("--batch-size", type=int, default=None)
    _add_options(p, "data_dir")
    p.set_defaults(fn=_cmd_compile)

    p = add(
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
    _add_options(p, "seed", "data_dir")
    p.set_defaults(fn=_cmd_train)

    p = add("eval", help="score a checkpointed classifier on a dataset")
    p.add_argument("--theory", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset name in the theory")
    p.add_argument("--symbol", required=True, help="classifier relation name")
    _add_options(p, "data_dir")
    p.set_defaults(fn=_cmd_eval)

    p = add("oracle-check", help="randomized agreement between the classical oracle "
                                 "and compiled crisp evaluation")
    p.add_argument("--signature", required=True)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--trials", type=int, default=200)
    _add_options(p, "seed")
    p.set_defaults(fn=_cmd_oracle_check)

    # the experiments' defaults are ExperimentConfig's, bar the seed counts
    # and synth-rel's shorter run
    p = add("mnist", help="digit-triples experiment")
    p.add_argument("--ntr", type=int, default=ExperimentConfig.ntr)
    p.add_argument("--knowledge", choices=("on", "off"), default="on")
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--iterations", type=int, default=ExperimentConfig.iterations)
    p.add_argument("--triples-per-class", type=int, default=ExperimentConfig.triples_per_class)
    p.add_argument("--batch-size", type=int, default=ExperimentConfig.batch_size)
    p.add_argument("--lr", type=float, default=ExperimentConfig.lr)
    p.add_argument("--cadence", type=int, default=ExperimentConfig.cadence)
    p.add_argument("--out", default=None)
    _add_options(p, "data_dir")
    p.set_defaults(fn=_cmd_mnist)

    p = add("synth-rel", help="synthetic relationship experiment")
    p.add_argument("--regime", type=float, default=ExperimentConfig.train_fraction,
                   help="training-data fraction of the generated pool")
    p.add_argument("--seeds", type=int, default=9)
    p.add_argument("--iterations", type=int, default=1500)
    p.add_argument("--batch-size", type=int, default=ExperimentConfig.batch_size)
    p.add_argument("--lr", type=float, default=ExperimentConfig.lr)
    p.add_argument("--cadence", type=int, default=ExperimentConfig.cadence)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_synth_rel)

    p = add("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--trials", type=int, default=20)
    _add_options(p, "seed")
    p.set_defaults(fn=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DaslError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
