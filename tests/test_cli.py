"""CLI contract: subcommands, exit codes, config files."""

from types import SimpleNamespace

import numpy as np
import pytest

from dasl.cli import _load_theory, _train_config_from, main, parse_config_file
from dasl.data import load_csv_table, write_csv_table
from dasl.interp import bind_theory
from dasl.tensor import load_checkpoint
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

    def test_gradcheck_exits_0(self, toy_dir, capsys):
        assert main(["gradcheck", "--trials", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "3/3 graphs pass" in out


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
                     "--checkpoint", str(ckpt), "--data", "Train", "--symbol", symbol,
                     "--seed", "5"])

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
