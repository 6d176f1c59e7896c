"""CLI contract: subcommands, exit codes, config files."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dasl.cli import _load_theory, _train_config_from, build_parser, main, parse_config_file
from dasl.data import load_csv_table, write_csv_table
from dasl.experiments import ResultRow
from dasl.interp import bind_theory
from dasl.oracle import AgreementResult
from dasl.tensor import load_checkpoint, save_checkpoint
from dasl.train import evaluate_classifier


SIGNATURE = """
sort D card 3;
const c : D;
func f : D -> D extern f;
rel P : D extern P;
rel R : D x D extern R;
"""

TOY = """
sort Row dim 5;
sort K card 3;
rel classify : Row out 3 mlp 6 act relu;
data Train : Row x K from "rows.csv,labels.csv";
axiom labels : forall (r, y): Train . pi[y](classify(r));
"""


PAIR = """
sort Row dim 5;
sort A card 4;
sort K card 3;
rel classify : Row x A out 3 mlp 6 act relu;
data Train : Row x A x K from "rows.csv,a.csv,labels.csv";
axiom labels : forall (r, a, y): Train . pi[y](classify(r, a));
"""


@pytest.fixture()
def toy_dir(tmp_path):
    rng = np.random.default_rng(0)
    write_csv_table(tmp_path / "rows.csv", rng.normal(size=(24, 5)))
    write_csv_table(tmp_path / "labels.csv", rng.integers(3, size=(24, 1)).astype(float))
    write_csv_table(tmp_path / "a.csv", rng.integers(4, size=(24, 1)).astype(float))
    (tmp_path / "toy.dasl").write_text(TOY)
    (tmp_path / "pair.dasl").write_text(PAIR)
    (tmp_path / "sig.dasl").write_text(SIGNATURE)
    return tmp_path


class TestConfigFile:
    def test_parse(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("iterations = 100  # comment\nlr = 0.01\n\n# full line comment\n")
        assert parse_config_file(p) == {"iterations": "100", "lr": "0.01"}

    def test_bad_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("not a config\n")
        with pytest.raises(ValueError):
            parse_config_file(p)


class TestExitCodes:
    def test_unknown_flag_exits_2(self, toy_dir):
        with pytest.raises(SystemExit) as exc:
            main(["compile", "--no-such-flag"])
        assert exc.value.code == 2

    def test_missing_theory_is_diagnostic(self, toy_dir, capsys):
        code = main(["compile", "--theory", str(toy_dir / "absent.dasl")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_theory_is_diagnostic(self, toy_dir, capsys):
        bad = toy_dir / "bad.dasl"
        bad.write_text("axiom broken : P(;\n")
        assert main(["compile", "--theory", str(bad)]) == 2

    def test_oracle_check_pass_exits_0(self, toy_dir, capsys):
        code = main(["oracle-check", "--signature", str(toy_dir / "sig.dasl"),
                     "--depth", "3", "--trials", "40", "--seed", "2"])
        assert code == 0
        assert "40/40" in capsys.readouterr().out

    def test_oracle_check_failure_exits_1_with_the_first_failure(self, toy_dir, capsys,
                                                                  monkeypatch):
        def agreement_suite(signature, depth, trials, seed):
            return AgreementResult(trials, trials - 1, ["trial 7: first failure"])

        monkeypatch.setattr("dasl.cli.agreement_suite", agreement_suite)
        code = main(["oracle-check", "--signature", str(toy_dir / "sig.dasl"),
                     "--trials", "5"])
        assert code == 1
        assert capsys.readouterr().out == "agreement: 4/5\ntrial 7: first failure\n"

    def test_gradcheck_exits_0(self, toy_dir, capsys):
        assert main(["gradcheck", "--trials", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert [line.split(":")[0] for line in out.splitlines()[:3]] == [
            "logic-plan-0", "logic-plan-1", "logic-plan-2"]
        assert "3/3 graphs pass at tol 1e-4" in out

    @pytest.mark.parametrize("signature, message", [
        ("sort Row dim 5;\nsort D card 3;\nrel classify : Row x D extern classify;\n",
         "sort Row: the oracle models index-range sorts only, not data-table"),
        ("sort D card 3;\n", "the oracle needs at least one relation to build atoms from"),
        ("sort D card 3;\nrel P : D mlp 4 act relu;\n",
         "rel P: the oracle models extern symbols only, not an mlp"),
        ("sort D card 3;\nrel P : D extern P;\nrel V : D out 3 extern V;\n",
         "rel V: the oracle models Boolean relations only, not out 3"),
    ], ids=["data-sort", "no-relation", "mlp-relation", "class-vector-relation"])
    def test_oracle_check_rejects_a_signature_it_cannot_model(self, tmp_path, capsys,
                                                              signature, message):
        path = tmp_path / "sig.dasl"
        path.write_text(signature)
        assert main(["oracle-check", "--signature", str(path), "--trials", "5"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["oracle-check", "--signature", "sig.dasl", "--trials", "-3"],
        ["oracle-check", "--signature", "sig.dasl", "--trials", "0"],
        ["gradcheck", "--trials", "0"],
        ["gradcheck", "--trials", "-1"],
    ], ids=["oracle-check-minus-3", "oracle-check-0", "gradcheck-0", "gradcheck-minus-1"])
    def test_fewer_than_one_trial_exits_2(self, toy_dir, capsys, argv):
        argv = [str(toy_dir / arg) if arg == "sig.dasl" else arg for arg in argv]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: trials must be >= 1, got {argv[-1]}\n")

    @pytest.mark.parametrize("command", [["train", "--theory", "t.dasl"],
                                         ["oracle-check", "--signature", "s.dasl"],
                                         ["gradcheck"]], ids=lambda argv: argv[0])
    def test_a_negative_seed_exits_2_before_anything_runs(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--seed", "-1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "argument --seed: expected an integer >= 0, got '-1'")

    @pytest.mark.parametrize("call, raised", [
        ("np.reshape(np.arange(3), (2, 2))", "ValueError: cannot reshape array"),
        ("tensor.backward(tensor.Tensor(0.0))",
         "dasl.tensor.DetachedNode: root is not on the active tape"),
    ], ids=["numpy-value-error", "detached-node"])
    def test_a_defect_in_a_handler_exits_1_with_its_traceback(self, call, raised):
        script = ("import sys\nimport numpy as np\nfrom dasl import cli, tensor\n"
                  f"cli.run_gradcheck = lambda trials, seed: {call}\n"
                  "sys.exit(cli.main(['gradcheck']))\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert lines[0] == "Traceback (most recent call last):"
        assert lines[-1].startswith(raised)
        assert not any(line.startswith("error:") for line in lines)

    @pytest.mark.parametrize("case", ["latin-1-theory", "ff-fe-config", "theory-as-checkpoint",
                                      "compile-batch-size-0"])
    def test_misuse_exits_2_with_one_error_line(self, toy_dir, capsys, case):
        theory, data = ["--theory", str(toy_dir / "toy.dasl")], ["--data-dir", str(toy_dir)]
        if case == "latin-1-theory":
            path = toy_dir / "latin1.dasl"
            path.write_bytes(("# café\n" + TOY).encode("latin-1"))
            argv = ["compile", "--theory", str(path), *data]
            message = f"{path}: 'utf-8' codec can't decode byte 0xe9"
        elif case == "ff-fe-config":
            path = toy_dir / "utf16.cfg"
            path.write_bytes(b"\xff\xfe" + "iterations = 3\n".encode("utf-16-le"))
            argv = ["train", *theory, *data, "--config", str(path)]
            message = f"{path}: 'utf-8' codec can't decode byte 0xff"
        elif case == "theory-as-checkpoint":
            argv = ["eval", *theory, *data, "--checkpoint", str(toy_dir / "toy.dasl"),
                    "--data", "Train", "--symbol", "classify"]
            message = f"{toy_dir / 'toy.dasl'}: not a checkpoint file"
        else:
            argv = ["compile", *theory, *data, "--batch-size", "0"]
            message = "sampler over Train: batch_size must be at least 1, got 0"
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: {message}")


class TestCompileTrainEval:
    def test_compile_explain(self, toy_dir, capsys):
        code = main(["compile", "--theory", str(toy_dir / "toy.dasl"),
                     "--data-dir", str(toy_dir), "--explain"])
        assert code == 0
        out = capsys.readouterr().out
        assert "classify" in out and "Train" in out

    def test_train_writes_outputs(self, toy_dir, capsys):
        out = toy_dir / "run"
        code = main(["train", "--theory", str(toy_dir / "toy.dasl"),
                     "--data-dir", str(toy_dir), "--out", str(out),
                     "--iterations", "20", "--cadence", "10",
                     "--batch-size", "8", "--seed", "3"])
        assert code == 0
        assert (out / "final.ckpt").exists()
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) - 1 == 20 // 10 + 1

    def test_config_file_drives_training(self, toy_dir):
        cfg = toy_dir / "train.cfg"
        cfg.write_text("iterations = 8\nbatch_size = 6\ncadence = 4\nlr = 0.001\n")
        out = toy_dir / "run_cfg"
        code = main(["train", "--theory", str(toy_dir / "toy.dasl"),
                     "--data-dir", str(toy_dir), "--config", str(cfg),
                     "--out", str(out), "--seed", "4"])
        assert code == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) - 1 == 8 // 4 + 1

    def test_unknown_config_key_is_diagnostic(self, toy_dir, capsys):
        cfg = toy_dir / "typo.cfg"
        cfg.write_text("iteratons = 5\n")
        code = main(["train", "--theory", str(toy_dir / "toy.dasl"),
                     "--data-dir", str(toy_dir), "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "'iteratons'" in err

    def test_a_config_key_train_would_not_read_is_unknown(self, toy_dir, capsys):
        # train has no test set, so an eval symbol would never take effect
        cfg = toy_dir / "eval.cfg"
        cfg.write_text("eval_symbol = classify\n")
        code = main(["train", "--theory", str(toy_dir / "toy.dasl"),
                     "--data-dir", str(toy_dir), "--config", str(cfg)])
        assert code == 2
        assert "unknown config key 'eval_symbol'" in capsys.readouterr().err

    @pytest.mark.parametrize("line, wanted", [
        ("curriculum = ture", "one of 1/true/on/yes/0/false/off/no"),
        ("iterations = five", "an integer"),
        ("lr = fast", "a number"),
    ], ids=["boolean", "int", "float"])
    def test_unreadable_config_value_is_diagnostic(self, toy_dir, capsys, line, wanted):
        cfg = toy_dir / "value.cfg"
        cfg.write_text(line + "\n")
        code = main(["train", "--theory", str(toy_dir / "toy.dasl"),
                     "--data-dir", str(toy_dir), "--config", str(cfg)])
        assert code == 2
        key, raw = (part.strip() for part in line.split("="))
        assert f"{cfg}: config key {key!r} needs {wanted}, got {raw!r}" in capsys.readouterr().err

    def test_config_booleans_in_any_case(self):
        args = SimpleNamespace(seed=0, out=None, config="x.cfg")
        for raw, want in [("YES", True), ("On", True), ("1", True), ("False", False),
                          ("off", False), ("0", False), ("No", False)]:
            assert _train_config_from(args, {"curriculum": raw}).curriculum is want

    def test_cadence_below_one_is_diagnostic(self, toy_dir, capsys):
        code = main(["train", "--theory", str(toy_dir / "toy.dasl"),
                     "--data-dir", str(toy_dir), "--iterations", "3", "--cadence", "0"])
        assert code == 2
        assert "cadence must be >= 1" in capsys.readouterr().err

    def test_mistyped_curriculum_monitor_is_diagnostic(self, toy_dir, capsys):
        cfg = toy_dir / "curriculum.cfg"
        cfg.write_text("curriculum = on\nmonitor_symbol = clasify\nmonitor_arg = r\n")
        code = main(["train", "--theory", str(toy_dir / "toy.dasl"),
                     "--data-dir", str(toy_dir), "--config", str(cfg),
                     "--iterations", "3", "--batch-size", "6"])
        assert code == 2
        assert "clasify(r)" in capsys.readouterr().err

    def test_the_curriculum_takes_its_class_count_from_the_monitored_relation(
            self, tmp_path, capsys):
        # 9 triples hold 3 per class of a 3-class digit, but fewer than 10 classes' worth
        (tmp_path / "three.dasl").write_text(
            "sort Img dim 4;\nsort C card 3;\n"
            "rel digit : Img out 3 mlp 5 act relu;\n"
            'data Labeled : Img x C from "img.csv,lab.csv";\n'
            'data Triples : Img x Img x Img from "t1.csv,t2.csv,t3.csv";\n'
            "axiom labels : forall (x, y): Labeled . pi[y](digit(x));\n"
            "axiom rule : forall (x1, x2, x3): Triples . forall y1: C . forall y2: C . "
            "(pi[y1](digit(x1)) & pi[y2](digit(x2))) -> pi[(y1 + y2) mod 3](digit(x3));\n")
        rng = np.random.default_rng(0)
        write_csv_table(tmp_path / "img.csv", rng.normal(size=(6, 4)))
        write_csv_table(tmp_path / "lab.csv", np.arange(6.0)[:, None] % 3)
        for name in ("t1.csv", "t2.csv", "t3.csv"):
            write_csv_table(tmp_path / name, rng.normal(size=(9, 4)))
        code = main(["train", "--theory", str(tmp_path / "three.dasl"),
                     "--data-dir", str(tmp_path), "--curriculum",
                     "--iterations", "4", "--batch-size", "3"])
        assert code == 0, capsys.readouterr().err
        assert "trained 4 iterations" in capsys.readouterr().out

    def test_a_boolvec_index_past_its_bits_is_diagnostic(self, toy_dir, capsys):
        # j + k reaches 4 over a three-bit boolvec; check and compile cannot see it
        theory = toy_dir / "wrap.dasl"
        theory.write_text("sort K card 3;\nboolvec b : [1, 0, 1];\n"
                          "axiom wrap : forall j: K . forall k: K . b(j + k);\n")
        assert main(["train", "--theory", str(theory), "--iterations", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: axiom 'wrap': boolvec b has id 4, outside [0, 3)")

    def test_a_literal_past_its_sort_fails_compile(self, toy_dir, capsys):
        # a literal id is checked with the theory; only computed ids wait for run time
        theory = toy_dir / "literal.dasl"
        theory.write_text("sort D card 3;\nrel P : D mlp 4;\naxiom a : P(5);\n")
        assert main(["compile", "--theory", str(theory)]) == 2
        assert capsys.readouterr().err == \
            "error: P: expected argument 0 in [0, 3), found literal 5\n"

    @staticmethod
    def _train(toy_dir, theory="toy.dasl", out="run_eval"):
        assert main(["train", "--theory", str(toy_dir / theory),
                     "--data-dir", str(toy_dir), "--out", str(toy_dir / out),
                     "--iterations", "10", "--batch-size", "8", "--seed", "5"]) == 0
        return toy_dir / out / "final.ckpt"

    @staticmethod
    def _trained_classifier(toy_dir, theory, ckpt):
        interp = bind_theory(_load_theory(toy_dir / theory), data_dir=str(toy_dir))
        loaded = load_checkpoint(ckpt)
        for p in interp.parameters:
            p.value[...] = loaded[p.name]
        return interp.symbols["classify"]

    @staticmethod
    def _eval(toy_dir, theory, ckpt, symbol="classify"):
        return main(["eval", "--theory", str(toy_dir / theory), "--data-dir", str(toy_dir),
                     "--checkpoint", str(ckpt), "--data", "Train", "--symbol", symbol])

    def test_eval_round_trip(self, toy_dir, capsys):
        ckpt = self._train(toy_dir)
        capsys.readouterr()
        assert self._eval(toy_dir, "toy.dasl", ckpt) == 0
        out = capsys.readouterr().out
        assert out.startswith("loaded 4 parameters; accuracy ")
        rows = load_csv_table(toy_dir / "rows.csv")
        labels = load_csv_table(toy_dir / "labels.csv")[:, 0].astype(int)
        classify = self._trained_classifier(toy_dir, "toy.dasl", ckpt)
        assert float(out.split()[-1]) == evaluate_classifier(classify, rows, labels)

    def test_eval_two_argument_classifier(self, toy_dir, capsys):
        ckpt = self._train(toy_dir, "pair.dasl", "run_pair")
        capsys.readouterr()
        assert self._eval(toy_dir, "pair.dasl", ckpt) == 0
        rows = load_csv_table(toy_dir / "rows.csv")
        a = load_csv_table(toy_dir / "a.csv")[:, 0].astype(int)
        labels = load_csv_table(toy_dir / "labels.csv")[:, 0].astype(int)
        logits = self._trained_classifier(toy_dir, "pair.dasl", ckpt)([rows, a]).data
        want = float(np.mean(np.argmax(logits, axis=-1) == labels))
        assert capsys.readouterr().out.split()[-1] == repr(want)

    def test_eval_applies_the_theory_masks(self, toy_dir, capsys):
        # the classifier axiom's vector is conjoined with a mask that rules
        # out class 2, so no row is predicted as class 2
        masked = TOY.replace("pi[y](classify(r))", "pi[y](classify(r) & nottwo)")
        (toy_dir / "masked.dasl").write_text("boolvec nottwo : [1, 1, 0];\n" + masked)
        ckpt = self._train(toy_dir)
        capsys.readouterr()
        assert self._eval(toy_dir, "masked.dasl", ckpt) == 0
        labels = load_csv_table(toy_dir / "labels.csv")[:, 0].astype(int)
        rows = load_csv_table(toy_dir / "rows.csv")
        logits = self._trained_classifier(toy_dir, "toy.dasl", ckpt)([rows]).data
        pred = np.argmax(logits[:, :2], axis=-1)
        want = float(np.mean(pred == labels))
        assert capsys.readouterr().out.split()[-1] == repr(want)

    @pytest.mark.parametrize("edit, symbol, param", [
        (("classify", "classifier"), "classifier", "classifier.w0"),
        (("mlp 6", "mlp 7"), "classify", "classify.w0"),
    ], ids=["renamed-symbol", "hidden-size"])
    def test_eval_checkpoint_mismatch_is_diagnostic(self, toy_dir, capsys, edit, symbol,
                                                    param):
        ckpt = self._train(toy_dir)
        (toy_dir / "edited.dasl").write_text(TOY.replace(*edit))
        capsys.readouterr()
        assert self._eval(toy_dir, "edited.dasl", ckpt, symbol) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and param in err and "final.ckpt" in err

    def test_eval_non_finite_logit_is_diagnostic(self, toy_dir, capsys):
        ckpt = self._train(toy_dir)
        values = load_checkpoint(ckpt)
        values["classify.b0"][0] = np.nan  # every row's logits go NaN
        save_checkpoint(values, ckpt)
        capsys.readouterr()
        assert self._eval(toy_dir, "toy.dasl", ckpt) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: axiom 'labels' produced a non-finite logit"]

    def test_eval_unknown_symbol_is_diagnostic(self, toy_dir, capsys):
        ckpt = self._train(toy_dir)
        capsys.readouterr()
        assert self._eval(toy_dir, "toy.dasl", ckpt, "nosuch") == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_eval_truncated_checkpoint_is_diagnostic(self, toy_dir, capsys):
        out = toy_dir / "run_bad"
        main(["train", "--theory", str(toy_dir / "toy.dasl"),
              "--data-dir", str(toy_dir), "--out", str(out),
              "--iterations", "2", "--batch-size", "8", "--seed", "5"])
        ckpt = out / "final.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:30])
        capsys.readouterr()
        code = main(["eval", "--theory", str(toy_dir / "toy.dasl"),
                     "--data-dir", str(toy_dir), "--checkpoint", str(ckpt),
                     "--data", "Train", "--symbol", "classify"])
        assert code == 2
        assert "final.ckpt" in capsys.readouterr().err

    def test_synth_rel_smoke(self, toy_dir, capsys):
        code = main(["synth-rel", "--seeds", "2", "--iterations", "60",
                     "--cadence", "60", "--out", str(toy_dir / "rel")])
        assert code == 0
        out = capsys.readouterr().out
        assert "zero-shot gap" in out
        assert (toy_dir / "rel" / "results.csv").exists()

    def test_mnist_requires_data(self, toy_dir, capsys, monkeypatch):
        monkeypatch.delenv("DASL_DATA_DIR", raising=False)
        code = main(["mnist", "--seeds", "1", "--iterations", "5",
                     "--data-dir", str(toy_dir / "nowhere")])
        assert code == 2

    def test_mnist_rejects_an_empty_triples_budget_before_loading(self, toy_dir, capsys,
                                                                   monkeypatch):
        def load_mnist(data_dir):
            raise AssertionError("data loaded before the config was checked")

        monkeypatch.setattr("dasl.experiments.load_mnist", load_mnist)
        code = main(["mnist", "--seeds", "1", "--iterations", "5", "--triples-per-class", "0",
                     "--data-dir", str(toy_dir)])
        assert code == 2
        assert "triples_per_class must be >= 1" in capsys.readouterr().err


# each subcommand's options, by dest, as `--help` lists them
OPTIONS = {
    "compile": {"theory", "explain", "batch_size", "data_dir"},
    "train": {"theory", "config", "out", "iterations", "batch_size", "lr", "cadence",
              "curriculum", "rules_only_after", "seed", "data_dir"},
    "eval": {"theory", "checkpoint", "data", "symbol", "data_dir"},
    "oracle-check": {"signature", "depth", "trials", "seed"},
    "mnist": {"ntr", "knowledge", "seeds", "iterations", "triples_per_class", "batch_size",
              "lr", "cadence", "out", "data_dir"},
    "synth-rel": {"regime", "seeds", "iterations", "batch_size", "lr", "cadence", "out"},
    "gradcheck": {"trials", "seed"},
}


class _Reads:
    """A parsed namespace that records which attributes its reader asks for."""

    def __init__(self, values: dict):
        self.__dict__.update(_values=values, read=set())

    def __getattr__(self, name):
        self.read.add(name)
        try:
            return self._values[name]
        except KeyError:
            raise AttributeError(name) from None


class TestOptions:
    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_help_lists_the_subcommands_options(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--([a-z-]+)", capsys.readouterr().out)) - {"help"}
        assert listed == {dest.replace("_", "-") for dest in OPTIONS[command]}

    def test_forty_three_options_in_all(self):
        assert sum(len(dests) for dests in OPTIONS.values()) == 43

    def test_readme_usage_block_lists_each_subcommands_options(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```", 2)[1]
        listed: dict[str, set[str]] = {}
        for line in block.strip().splitlines():
            head = re.match(r"dasl ([a-z-]+)", line)
            if head:
                command = listed.setdefault(head.group(1), set())
            command.update(re.findall(r"--([a-z-]+)", line))
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        parsed = {name: {opt[2:] for action in p._actions for opt in action.option_strings
                         if opt.startswith("--") and opt != "--help"}
                  for name, p in sub.choices.items()}
        assert listed == parsed

    def test_every_option_is_read(self, toy_dir, monkeypatch):
        # the experiments are stubbed; every other handler runs on the toy theory
        rows = [ResultRow("t", 0, 2, 0, know, split, "accuracy", 0.5)
                for know in (False, True) for split in ("test", "standard", "zero-shot")]
        monkeypatch.setattr("dasl.cli.run_mnist_experiment", lambda config: rows)
        monkeypatch.setattr("dasl.cli.run_relations_experiment", lambda config: rows)
        ckpt = TestCompileTrainEval._train(toy_dir)
        theory, data = ["--theory", str(toy_dir / "toy.dasl")], ["--data-dir", str(toy_dir)]
        argvs = {
            "compile": theory + data,
            "train": theory + data + ["--iterations", "2", "--batch-size", "4"],
            "eval": theory + data + ["--checkpoint", str(ckpt), "--data", "Train",
                                     "--symbol", "classify"],
            "oracle-check": ["--signature", str(toy_dir / "sig.dasl"), "--depth", "2",
                             "--trials", "2"],
            "mnist": data,
            "synth-rel": [],
            "gradcheck": ["--trials", "1"],
        }
        parser = build_parser()
        for command, argv in argvs.items():
            args = vars(parser.parse_args([command, *argv]))
            reads = _Reads(args)
            assert args["fn"](reads) == 0, command
            assert set(args) - {"command", "fn"} - reads.read == set(), command

    @pytest.mark.parametrize("argv", [
        ["oracle-check", "--signature", "sig.dasl", "--data-dir", "."],
        ["oracle-check", "--signature", "sig.dasl", "--eq-eps", "0.2"],
        ["mnist", "--seed", "5"],
        ["mnist", "--big", "30"],
        ["synth-rel", "--big", "30"],
        ["synth-rel", "--seed", "1"],
        ["synth-rel", "--data-dir", "."],
        ["gradcheck", "--big", "30"],
        ["gradcheck", "--eq-sigma", "0.7"],
        ["compile", "--theory", "t.dasl", "--big", "30"],
        ["compile", "--theory", "t.dasl", "--eq-eps", "0.2"],
        ["compile", "--theory", "t.dasl", "--seed", "1"],  # no value printed drew from it
        ["train", "--theory", "t.dasl", "--big", "30"],
        ["train", "--theory", "t.dasl", "--eq-mu", "2"],
        ["eval", "--theory", "t.dasl", "--checkpoint", "c", "--data", "D", "--symbol", "s",
         "--big", "30"],
        ["eval", "--theory", "t.dasl", "--checkpoint", "c", "--data", "D", "--symbol", "s",
         "--eq-sigma", "0.7"],
        ["eval", "--theory", "t.dasl", "--checkpoint", "c", "--data", "D", "--symbol", "s",
         "--seed", "1"],  # the checkpoint overwrites every parameter, and scores draws nothing
        ["oracle-check", "--signature", "sig.dasl", "--big", "30"],
    ])
    def test_an_option_the_subcommand_would_not_read_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["mnist", "--ntr", "0"], "ntr must be >= 1"),
        (["mnist", "--batch-size", "0"], "batch size must be >= 1"),  # trained at 64
        (["mnist", "--cadence", "0"], "cadence must be >= 1"),
        (["synth-rel", "--batch-size", "0"], "batch size must be >= 1"),
        (["mnist", "--lr", "0"], "learning rate must be finite and > 0"),
        (["synth-rel", "--regime", "0"], "train fraction must be in (0, 1]"),  # one pair
        (["synth-rel", "--regime", "5"], "train fraction must be in (0, 1]"),  # the whole pool
    ], ids=["mnist-ntr", "mnist-batch-size", "mnist-cadence", "synth-rel-batch-size",
            "mnist-lr", "synth-rel-regime-0", "synth-rel-regime-5"])
    def test_a_zero_setting_exits_2_before_any_data(self, toy_dir, capsys, monkeypatch,
                                                    argv, message):
        def no_data(*args, **kwargs):
            raise AssertionError("data made before the config was checked")

        monkeypatch.setattr("dasl.experiments.load_mnist", no_data)
        monkeypatch.setattr("dasl.experiments.gen_synth_relations", no_data)
        assert main([*argv, "--seeds", "1", "--iterations", "5"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("lr", ["-1", "nan"])
    def test_train_with_a_bad_learning_rate_exits_2_before_any_data(self, toy_dir, capsys,
                                                                     monkeypatch, lr):
        def no_data(*args, **kwargs):
            raise AssertionError("data loaded before the config was checked")

        monkeypatch.setattr("dasl.cli._bind", no_data)
        argv = ["train", "--theory", str(toy_dir / "toy.dasl"), "--data-dir", str(toy_dir),
                "--iterations", "3", "--lr", lr]
        assert main(argv) == 2
        assert "learning rate must be finite and > 0" in capsys.readouterr().err

    def test_train_rules_only_after_without_the_curriculum_exits_2_before_any_data(
            self, toy_dir, capsys, monkeypatch):
        def no_data(*args, **kwargs):
            raise AssertionError("data loaded before the config was checked")

        monkeypatch.setattr("dasl.cli._bind", no_data)
        argv = ["train", "--theory", str(toy_dir / "toy.dasl"), "--data-dir", str(toy_dir),
                "--rules-only-after", "5"]
        assert main(argv) == 2
        assert "rules_only_after needs the curriculum" in capsys.readouterr().err

    def test_compile_rejects_an_mlp_relation_with_an_empty_hidden_layer(self, tmp_path,
                                                                          capsys):
        theory = tmp_path / "constant.dasl"
        theory.write_text("sort X dim 2;\nrel r : X mlp 0;\n")
        assert main(["compile", "--theory", str(theory)]) == 2
        assert "r: expected hidden sizes >= 1, found (0,)" in capsys.readouterr().err

    def test_compile_rejects_an_mlp_relation_without_arguments(self, tmp_path, capsys):
        theory = tmp_path / "nullary.dasl"
        theory.write_text("rel r : mlp 4;\naxiom a : r;\n")
        assert main(["compile", "--theory", str(theory)]) == 2
        assert "r: expected at least one argument to an mlp, found none" in \
            capsys.readouterr().err
