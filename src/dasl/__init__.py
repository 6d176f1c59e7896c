"""dasl: compile first-order theories with neural bindings into
differentiable logit-space computation graphs, train them by gradient
descent against data and declarative knowledge, and verify the semantics
against a brute-force classical oracle."""

from . import compiler, data, experiments, interp, lang, logit, oracle, tensor, train
from .compiler import CompiledBatch, Plan, compile, evaluate, explain, fuse_loss
from .errors import DaslError
from .interp import Interpretation, Sampler, bind_theory, build_triples
from .lang import Theory, check_theory, parse_theory, print_theory
from .logit import BIG
from .oracle import CrispModel, agreement_suite, tarski_eval
from .tensor import Parameter, Tape, Tensor, backward, grad_check
from .train import AdamState, CurriculumState, TrainConfig, TrainState, adam_step, train as run_training

__version__ = "0.1.0"

__all__ = [
    "AdamState", "BIG", "CompiledBatch", "CrispModel", "CurriculumState", "DaslError",
    "Interpretation", "Parameter", "Plan", "Sampler", "Tape", "Tensor",
    "Theory", "TrainConfig", "TrainState", "adam_step", "agreement_suite",
    "backward", "bind_theory", "build_triples",
    "check_theory", "compile", "compiler", "data", "evaluate", "experiments",
    "explain", "fuse_loss", "grad_check", "interp", "lang", "logit",
    "oracle", "parse_theory", "print_theory", "run_training", "tarski_eval",
    "tensor", "train",
]
