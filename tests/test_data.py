"""IDX files, spatial features/predicates, and the synthetic generator.

The box-coordinate form of the spatial predicates and the rule check live
here, apart from `dasl.data`, as the independent route the generator and
the externs are checked against.
"""

import struct

import numpy as np
import pytest

from dasl.data import (
    SPATIAL,
    BadMagic,
    DegenerateBox,
    InvalidVocab,
    RelationVocab,
    TruncatedFile,
    default_relation_vocab,
    gen_synth_relations,
    load_csv_table,
    load_idx,
    spatial_features,
    spatial_predicate_externs,
    write_csv_table,
    write_idx,
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


def _features(s, o):
    """The eight features of one subject box `s` and object box `o`."""
    return spatial_features(np.array([s]), np.array([o]))[0]


class TestSpatialFeatures:
    def test_identical_boxes_zero(self):
        box = (1.0, 2.0, 3.0, 4.0)
        np.testing.assert_allclose(_features(box, box), np.zeros(8))

    def test_hand_computed(self):
        want = [1.0, 1.0, -0.5, -0.5, np.log(2), np.log(2), -np.log(2), -np.log(2)]
        np.testing.assert_allclose(_features((2.0, 2.0, 2.0, 2.0), (1.0, 1.0, 1.0, 1.0)), want,
                                   atol=1e-12)

    def test_log_antisymmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            xs, ys, xo, yo = rng.uniform(-3, 3, size=4)
            ws, hs, wo, ho = rng.uniform(0.2, 3.0, size=4)
            f = _features((xs, ys, ws, hs), (xo, yo, wo, ho))
            assert f[4] == pytest.approx(-f[6], abs=1e-12)
            assert f[5] == pytest.approx(-f[7], abs=1e-12)

    def test_degenerate_box(self):
        with pytest.raises(DegenerateBox):
            _features((0, 0, 0.0, 1.0), (0, 0, 1.0, 1.0))
        subject = np.ones((4, 4))
        obj = np.ones((4, 4))
        subject[3, 2] = -1.0
        obj[1, 3] = 0.0
        with pytest.raises(DegenerateBox, match=r"^row 1: .*object \[1.0, 1.0, 1.0, 0.0\]"):
            spatial_features(subject, obj)

    def test_rows_match_the_per_row_formula(self):
        rng = np.random.default_rng(5)
        centers = rng.uniform(-3, 3, size=(40, 2, 2))
        centers[:5, 0] = centers[:5, 1]  # equal centers: both differences are +0.0
        boxes = np.concatenate([centers, rng.uniform(0.2, 3.0, size=(40, 2, 2))], axis=2)
        got = spatial_features(boxes[:, 0], boxes[:, 1])
        assert got.shape == (40, 8) and got.dtype == np.float64
        for row, ((xs, ys, ws, hs), (xo, yo, wo, ho)) in zip(got, boxes.tolist()):
            want = [(xs - xo) / wo, (ys - yo) / ho, (xo - xs) / ws, (yo - ys) / hs,
                    np.log(ws / wo), np.log(hs / ho), np.log(wo / ws), np.log(ho / hs)]
            assert row.tobytes() == np.array(want).tobytes()  # bit for bit, zeros' signs too


def spatial_predicates(subject_box, object_box):
    """Crisp spatial relations on the box centers; boundaries are inclusive on both sides."""
    xs, ys = subject_box[:2]
    xo, yo = object_box[:2]
    return {"above": ys >= yo, "below": ys <= yo, "right_of": xs >= xo, "left_of": xs <= xo}


def pairs(split):
    """Each pair of a split as (predicate, subject class, object class, (2, 4) boxes)."""
    return zip(split.predicate, split.subject, split.object, split.boxes)


def rule_holds(vocab, pred, subj, obj, boxes):
    subj_set, obj_set, spatial = vocab.rules.get(pred, (None, None, None))
    return ((subj_set is None or subj in vocab.members[subj_set])
            and (obj_set is None or obj in vocab.members[obj_set])
            and (spatial is None or spatial_predicates(*boxes)[spatial]))


class TestSpatialPredicates:
    def test_above_below(self):
        preds = spatial_predicates((0.0, 3.0, 1.0, 1.0), (0.0, 1.0, 1.0, 1.0))
        assert preds["above"] and not preds["below"]

    def test_boundary_both_true(self):
        preds = spatial_predicates((0.0, 1.0, 1.0, 1.0), (5.0, 1.0, 1.0, 1.0))
        assert preds["above"] and preds["below"]

    def test_left_right(self):
        preds = spatial_predicates((-1.0, 0.0, 1.0, 1.0), (2.0, 0.0, 1.0, 1.0))
        assert preds["left_of"] and not preds["right_of"]

    def test_the_table_names_every_extern(self):
        assert set(spatial_predicate_externs()) == set(SPATIAL) == {
            "above", "below", "left_of", "right_of"}

    def test_externs_agree_with_predicates(self):
        externs = spatial_predicate_externs()
        rng = np.random.default_rng(3)
        centers = rng.uniform(-3, 3, size=(50, 4))
        centers[:10, 2:] = centers[:10, :2]  # ties on both coordinates
        centers[10:20, 3] = centers[10:20, 1]  # ties on y only
        for xs, ys, xo, yo in centers:
            s, o = (xs, ys, 1.0, 1.0), (xo, yo, 1.0, 1.0)
            feats = _features(s, o)
            preds = spatial_predicates(s, o)
            for name, extern in externs.items():
                assert (extern(feats) == BIG) == preds[name], name
            batched = {name: extern(feats[None, :]) for name, extern in externs.items()}
            assert all(v.shape == (1,) for v in batched.values())

    @pytest.mark.parametrize("dx, dy", [(0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0)])
    def test_signed_zero_is_a_tie(self, dx, dy):
        # the box form reads a tie as both sides holding, whatever the zero's sign
        rows = np.array([[dx, dy] + [0.5] * 6])
        for name, extern in spatial_predicate_externs().items():
            np.testing.assert_array_equal(extern(rows), [BIG], err_msg=name)

    def test_externs_read_the_sign_of_dx_and_dy(self):
        rows = np.array([[2.0, -3.0] + [0.0] * 6, [-1e-300, 1e-300] + [0.0] * 6])
        got = {name: extern(rows) for name, extern in spatial_predicate_externs().items()}
        np.testing.assert_array_equal(got["above"], [-BIG, BIG])
        np.testing.assert_array_equal(got["below"], [BIG, -BIG])
        np.testing.assert_array_equal(got["right_of"], [BIG, -BIG])
        np.testing.assert_array_equal(got["left_of"], [-BIG, BIG])


def _vocab(**rules):
    """A three-class vocabulary whose rules come from `rules` (predicate index -> rule)."""
    return RelationVocab(("a", "b", "c"), ("p", "q"), {"ab": (0, 1)},
                         {int(k[1:]): v for k, v in rules.items()})


class TestRelationVocab:
    def test_default_vocab_rules_name_its_sets(self):
        vocab = default_relation_vocab()
        assert vocab.rules[0] == ("can_ride", "ridable", "above")
        assert vocab.members["can_ride"] == (0, 1)
        assert vocab.bits("eatable") == (0, 0, 0, 0, 0, 0, 0, 0, 1, 0)

    @pytest.mark.parametrize("rule, unknown", [
        (("ab", "near", None), "member set 'near'"),
        (("nope", None, None), "member set 'nope'"),
        ((None, "ab", "near"), "spatial predicate 'near'"),
        ((None, None, "left-of"), "spatial predicate 'left-of'"),
    ])
    def test_unknown_names_are_rejected_at_construction(self, rule, unknown):
        with pytest.raises(InvalidVocab, match=f"predicate 'q' names unknown {unknown}"):
            _vocab(p1=rule)

    def test_a_rule_must_name_a_predicate_and_constrain_something(self):
        with pytest.raises(InvalidVocab, match="predicate 2, outside the 2 predicates"):
            _vocab(p2=("ab", None, None))
        with pytest.raises(InvalidVocab, match="predicate 'p' constrains nothing"):
            _vocab(p0=(None, None, None))

    def test_too_small_a_vocabulary_is_rejected(self):
        with pytest.raises(InvalidVocab, match="at least two object classes"):
            RelationVocab(("a",), ("p", "q"), {}, {})

    def test_feature_dim(self):
        assert _vocab().feature_dim == 8 + 1
        assert default_relation_vocab().feature_dim == 8 + 6


class TestSynthRelations:
    def test_generator_soundness(self):
        splits = gen_synth_relations(n_train_pool=800, n_test=200, train_fraction=1.0, seed=0)
        vocab = splits.vocab
        for split in (splits.train, splits.test_standard, splits.test_zero_shot):
            assert len(split.boxes) == len(split.predicate) > 0
            assert all(rule_holds(vocab, *pair) for pair in pairs(split))

    def test_riding_examples_satisfy_full_rule(self):
        splits = gen_synth_relations(n_train_pool=2000, n_test=500, seed=1)
        vocab = splits.vocab
        for split in (splits.train, splits.test_standard):
            for pred, subj, obj, boxes in pairs(split):
                if vocab.predicates[pred] == "riding":
                    assert subj in vocab.members["can_ride"]
                    assert obj in vocab.members["ridable"]
                    assert spatial_predicates(*boxes)["above"]

    def test_zero_shot_split_disjoint(self):
        splits = gen_synth_relations(n_train_pool=3000, n_test=500, seed=2)
        train_combos = {(p, s, o) for p, s, o, _ in pairs(splits.train)}
        zero_combos = {(p, s, o) for p, s, o, _ in pairs(splits.test_zero_shot)}
        assert not (train_combos & zero_combos)
        assert zero_combos <= splits.zero_shot_combos

    def test_train_fraction(self):
        splits = gen_synth_relations(n_train_pool=1000, n_test=100,
                                     train_fraction=0.01, seed=3)
        assert len(splits.train.boxes) == len(splits.train.features) == int(np.ceil(0.01 * 1000))
        whole = gen_synth_relations(n_train_pool=100, n_test=10, train_fraction=1.0, seed=3)
        assert whole.train.boxes.shape == (100, 2, 4)

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5, 5.0, float("nan")])
    def test_train_fraction_outside_the_pool_is_rejected(self, fraction):
        # 0 trained on one pair and 5 silently meant the whole pool
        with pytest.raises(ValueError, match=r"train fraction must be in \(0, 1\]"):
            gen_synth_relations(n_train_pool=100, n_test=10, train_fraction=fraction)

    def test_feature_layout(self):
        splits = gen_synth_relations(n_train_pool=300, n_test=50, seed=4)
        n_pred = len(splits.vocab.predicates)
        assert splits.train.features.shape[1] == 8 + (n_pred + 1) // 2 == splits.vocab.feature_dim
        for split in (splits.train, splits.test_standard, splits.test_zero_shot):
            np.testing.assert_array_equal(
                split.features[:, :8], spatial_features(split.boxes[:, 0], split.boxes[:, 1]))
            for a in (split.subject, split.object, split.predicate):
                assert a.dtype == np.int64 and a.shape == (len(split.boxes),)

    def test_seed_determinism(self):
        a = gen_synth_relations(n_train_pool=300, n_test=50, seed=5)
        b = gen_synth_relations(n_train_pool=300, n_test=50, seed=5)
        np.testing.assert_array_equal(a.train.features, b.train.features)
        np.testing.assert_array_equal(a.test_zero_shot.predicate, b.test_zero_shot.predicate)
