"""IDX files, spatial features/predicates, and the synthetic generator."""

import struct

import numpy as np
import pytest

from dasl.data import (
    BadMagic,
    BoxPair,
    DegenerateBox,
    TruncatedFile,
    gen_synth_relations,
    load_csv_table,
    load_idx,
    spatial_features,
    spatial_predicate_externs,
    spatial_predicates,
    write_csv_table,
    write_idx,
    _rule_holds,
)
from dasl.logit import BIG


class TestIdx:
    def test_label_fixture(self, tmp_path):
        path = tmp_path / "labels.idx"
        path.write_bytes(struct.pack(">II", 0x00000801, 3) + bytes([7, 2, 1]))
        np.testing.assert_array_equal(load_idx(path), [7, 2, 1])

    def test_image_fixture_scaled(self, tmp_path):
        path = tmp_path / "imgs.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(range(8)))
        out = load_idx(path)
        assert out.shape == (2, 4)
        np.testing.assert_allclose(out[0], [0, 1 / 255, 2 / 255, 3 / 255])
        assert out.dtype == np.float64

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">II", 0x00000805, 3) + bytes(3))
        with pytest.raises(BadMagic):
            load_idx(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">II", 0x00000801, 10) + bytes(4))
        with pytest.raises(TruncatedFile):
            load_idx(path)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        imgs = rng.integers(0, 256, size=(5, 4, 3)).astype(np.uint8)
        labels = rng.integers(0, 10, size=7).astype(np.uint8)
        write_idx(tmp_path / "i.idx", imgs)
        write_idx(tmp_path / "l.idx", labels)
        got_i = load_idx(tmp_path / "i.idx")
        np.testing.assert_allclose(got_i, imgs.reshape(5, 12) / 255.0)
        np.testing.assert_array_equal(load_idx(tmp_path / "l.idx"), labels)

    def test_csv_round_trip(self, tmp_path):
        rows = np.random.default_rng(1).normal(size=(6, 3))
        write_csv_table(tmp_path / "t.csv", rows)
        np.testing.assert_allclose(load_csv_table(tmp_path / "t.csv"), rows, atol=1e-12)


def _pair(s, o, subj=0, obj=3, pred=0):
    return BoxPair(s, o, subj, obj, pred)


class TestSpatialFeatures:
    def test_identical_boxes_zero(self):
        p = _pair((1.0, 2.0, 3.0, 4.0), (1.0, 2.0, 3.0, 4.0))
        np.testing.assert_allclose(spatial_features(p), np.zeros(8))

    def test_hand_computed(self):
        p = _pair((2.0, 2.0, 2.0, 2.0), (1.0, 1.0, 1.0, 1.0))
        want = [1.0, 1.0, -0.5, -0.5, np.log(2), np.log(2), -np.log(2), -np.log(2)]
        np.testing.assert_allclose(spatial_features(p), want, atol=1e-12)

    def test_log_antisymmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            xs, ys, xo, yo = rng.uniform(-3, 3, size=4)
            ws, hs, wo, ho = rng.uniform(0.2, 3.0, size=4)
            f = spatial_features(_pair((xs, ys, ws, hs), (xo, yo, wo, ho)))
            assert f[4] == pytest.approx(-f[6], abs=1e-12)
            assert f[5] == pytest.approx(-f[7], abs=1e-12)

    def test_degenerate_box(self):
        with pytest.raises(DegenerateBox):
            spatial_features(_pair((0, 0, 0.0, 1.0), (0, 0, 1.0, 1.0)))


class TestSpatialPredicates:
    def test_above_below(self):
        p = _pair((0.0, 3.0, 1.0, 1.0), (0.0, 1.0, 1.0, 1.0))
        preds = spatial_predicates(p)
        assert preds["above"] and not preds["below"]

    def test_boundary_both_true(self):
        p = _pair((0.0, 1.0, 1.0, 1.0), (5.0, 1.0, 1.0, 1.0))
        preds = spatial_predicates(p)
        assert preds["above"] and preds["below"]

    def test_left_right(self):
        p = _pair((-1.0, 0.0, 1.0, 1.0), (2.0, 0.0, 1.0, 1.0))
        preds = spatial_predicates(p)
        assert preds["left-of"] and not preds["right-of"]

    def test_externs_agree_with_predicates(self):
        externs = spatial_predicate_externs()
        rng = np.random.default_rng(3)
        for _ in range(50):
            xs, ys, xo, yo = rng.uniform(-3, 3, size=4)
            p = _pair((xs, ys, 1.0, 1.0), (xo, yo, 1.0, 1.0))
            feats = spatial_features(p)
            preds = spatial_predicates(p)
            assert (externs["above"](feats) == BIG) == preds["above"]
            assert (externs["below"](feats) == BIG) == preds["below"]
            assert (externs["left_of"](feats) == BIG) == preds["left-of"]
            assert (externs["right_of"](feats) == BIG) == preds["right-of"]


class TestSynthRelations:
    def test_generator_soundness(self):
        splits = gen_synth_relations(n_train_pool=800, n_test=200, seed=0)
        vocab = splits.vocab
        for split in (splits.train, splits.test_standard, splits.test_zero_shot):
            assert all(_rule_holds(vocab, p) for p in split.pairs)

    def test_riding_examples_satisfy_full_rule(self):
        splits = gen_synth_relations(n_train_pool=2000, n_test=500, seed=1)
        vocab = splits.vocab
        for split in (splits.train, splits.test_standard):
            for p in split.pairs:
                if vocab.predicates[p.predicate] == "riding":
                    assert p.subject_class in vocab.can_ride
                    assert p.object_class in vocab.ridable
                    assert spatial_predicates(p)["above"]

    def test_zero_shot_split_disjoint(self):
        splits = gen_synth_relations(n_train_pool=3000, n_test=500, seed=2)
        train_combos = {(p.predicate, p.subject_class, p.object_class)
                        for p in splits.train.pairs}
        zero_combos = {(p.predicate, p.subject_class, p.object_class)
                       for p in splits.test_zero_shot.pairs}
        assert not (train_combos & zero_combos)
        assert zero_combos <= splits.zero_shot_combos

    def test_train_fraction(self):
        splits = gen_synth_relations(n_train_pool=1000, n_test=100,
                                     train_fraction=0.01, seed=3)
        assert len(splits.train.pairs) == int(np.ceil(0.01 * 1000))
        whole = gen_synth_relations(n_train_pool=100, n_test=10, train_fraction=1.0, seed=3)
        assert len(whole.train.pairs) == 100

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5, 5.0, float("nan")])
    def test_train_fraction_outside_the_pool_is_rejected(self, fraction):
        # 0 trained on one pair and 5 silently meant the whole pool
        with pytest.raises(ValueError, match=r"train fraction must be in \(0, 1\]"):
            gen_synth_relations(n_train_pool=100, n_test=10, train_fraction=fraction)

    def test_feature_layout(self):
        splits = gen_synth_relations(n_train_pool=300, n_test=50, seed=4)
        n_pred = len(splits.vocab.predicates)
        assert splits.train.features.shape[1] == 8 + (n_pred + 1) // 2

    def test_seed_determinism(self):
        a = gen_synth_relations(n_train_pool=300, n_test=50, seed=5)
        b = gen_synth_relations(n_train_pool=300, n_test=50, seed=5)
        np.testing.assert_array_equal(a.train.features, b.train.features)
        np.testing.assert_array_equal(a.test_zero_shot.predicate, b.test_zero_shot.predicate)
