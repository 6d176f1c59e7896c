"""Dataset ingestion and the synthetic spatial-relationship generator.

Covers the IDX container (big-endian header, unsigned byte payload), CSV
numeric tables, box-pair spatial features, and a procedurally generated
relationship-classification task whose labels respect a set of
semantic/spatial rules by construction.  The crisp spatial predicates are
stated once, in SPATIAL: the generator places boxes by it, the externs
test features by it, and `experiments.relations_theory` declares it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DaslError, InvalidValue
from .logit import BIG

IDX_LABEL_MAGIC = 0x00000801
IDX_IMAGE_MAGIC = 0x00000803


class BadMagic(DaslError):
    pass


class TruncatedFile(DaslError):
    pass


class DegenerateBox(DaslError):
    pass


class InvalidVocab(DaslError):
    pass


def load_idx(path) -> np.ndarray:
    """Read an IDX file: images -> n x (rows*cols) floats in [0,1]; labels -> n ints."""
    with open(path, "rb") as fh:
        head = fh.read(4)
        if len(head) != 4:
            raise TruncatedFile(f"{path}: missing magic")
        (magic,) = struct.unpack(">I", head)
        if magic == IDX_LABEL_MAGIC:
            ndim = 1
        elif magic == IDX_IMAGE_MAGIC:
            ndim = 3
        else:
            raise BadMagic(f"{path}: magic 0x{magic:08x}")
        raw_dims = fh.read(4 * ndim)
        if len(raw_dims) != 4 * ndim:
            raise TruncatedFile(f"{path}: truncated header")
        dims = struct.unpack(f">{ndim}I", raw_dims)
        count = int(np.prod(dims))
        payload = fh.read(count)
        if len(payload) != count:
            raise TruncatedFile(f"{path}: expected {count} bytes, got {len(payload)}")
    data = np.frombuffer(payload, dtype=np.uint8)
    if magic == IDX_LABEL_MAGIC:
        return data.astype(np.int64)
    n = dims[0]
    return (data.reshape(n, dims[1] * dims[2]) / 255.0).astype(np.float64)


def write_idx(path, array: np.ndarray) -> None:
    """Write labels (1-D ints) or images (n x rows x cols uint8) as IDX."""
    arr = np.asarray(array)
    with open(path, "wb") as fh:
        if arr.ndim == 1:
            fh.write(struct.pack(">II", IDX_LABEL_MAGIC, arr.shape[0]))
            fh.write(arr.astype(np.uint8).tobytes())
        elif arr.ndim == 3:
            fh.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, *arr.shape))
            fh.write(arr.astype(np.uint8).tobytes())
        else:
            raise ValueError(f"cannot write rank-{arr.ndim} array as IDX")


def load_csv_table(path) -> np.ndarray:
    """Numeric CSV with a header row; one row per element."""
    return np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.float64, ndmin=2)


def write_csv_table(path, array: np.ndarray) -> None:
    arr = np.atleast_2d(np.asarray(array, dtype=np.float64))
    cols = ",".join(f"c{i}" for i in range(arr.shape[1]))
    np.savetxt(path, arr, delimiter=",", header=cols, comments="")


# ---------------------------------------------------------------------------
# spatial features


def spatial_features(subject_boxes, object_boxes) -> np.ndarray:
    """Eight relative-geometry features per row of (n, 4) boxes, as (n, 8).

    Boxes are (x, y, w, h) in center format.  A row is
    [dx/w_o, dy/h_o, -dx/w_s, -dy/h_s, ln(w_s/w_o), ln(h_s/h_o),
     ln(w_o/w_s), ln(h_o/h_s)] with dx = x_s - x_o, dy = y_s - y_o.
    """
    s = np.asarray(subject_boxes, dtype=np.float64)
    o = np.asarray(object_boxes, dtype=np.float64)
    bad = np.flatnonzero((s[:, 2:] <= 0).any(axis=1) | (o[:, 2:] <= 0).any(axis=1))
    if bad.size:
        i = bad[0]
        raise DegenerateBox(f"row {i}: non-positive box size: subject {s[i].tolist()}, "
                            f"object {o[i].tolist()}")
    centers_s, sizes_s, centers_o, sizes_o = s[:, :2], s[:, 2:], o[:, :2], o[:, 2:]
    return np.hstack([(centers_s - centers_o) / sizes_o, (centers_o - centers_s) / sizes_s,
                      np.log(sizes_s / sizes_o), np.log(sizes_o / sizes_s)])


# extern name -> (box coordinate: 0 = x, 1 = y; sign): the predicate holds
# when sign * (subject - object) >= 0 on that coordinate, ties included
SPATIAL = {"above": (1, 1.0), "below": (1, -1.0), "left_of": (0, -1.0), "right_of": (0, 1.0)}


def spatial_predicate_externs() -> dict[str, object]:
    """Batched extern functions feature-rows -> crisp logits, one per SPATIAL entry.

    Each extern reads the 8-feature encoding of spatial_features; rows may
    be a single 8-vector or a batch (n, 8).  Features 0 and 1 are dx/w_o
    and dy/h_o, so they carry the sign of the subject-minus-object
    difference on box coordinates 0 and 1.  They stay numpy-only: perfbench
    traces `logit`'s functions, and a logit span inside an extern's
    `interp.symbol` span would be taken twice off `compiler.self_ms`.
    """

    def extern(axis: int, sign: float):
        holds = np.greater_equal if sign > 0 else np.less_equal

        def crisp(rows):
            return np.where(holds(np.asarray(rows, dtype=np.float64)[..., axis], 0), BIG, -BIG)

        return crisp

    return {name: extern(axis, sign) for name, (axis, sign) in SPATIAL.items()}


# ---------------------------------------------------------------------------
# synthetic relationship task


@dataclass(frozen=True)
class RelationVocab:
    """Object/predicate vocabularies plus the rule schema the data obeys.

    `members` names sets of object classes.  A rule names the member set
    its subject and its object belong to and the SPATIAL predicate their
    boxes satisfy, each or None.  Predicates come in confusable pairs
    (2k, 2k+1) that share one context code in the generated features, so
    only class membership or geometry separates a pair.
    """

    object_classes: tuple[str, ...]
    predicates: tuple[str, ...]
    members: dict[str, tuple[int, ...]] = field(hash=False)
    # predicate -> (subject member set, object member set, SPATIAL name); each may be None
    rules: dict[int, tuple[str | None, str | None, str | None]] = field(hash=False)

    def __post_init__(self):
        if len(self.object_classes) < 2 or len(self.predicates) < 2:
            raise InvalidVocab("need at least two object classes and two predicates")
        for pred, (subj, obj, spatial) in self.rules.items():
            if not 0 <= pred < len(self.predicates):
                raise InvalidVocab(f"a rule names predicate {pred}, "
                                   f"outside the {len(self.predicates)} predicates")
            if subj is obj is spatial is None:
                raise InvalidVocab(f"the rule for predicate {self.predicates[pred]!r} "
                                   f"constrains nothing")
            for name, known, kind in ((subj, self.members, "member set"),
                                      (obj, self.members, "member set"),
                                      (spatial, SPATIAL, "spatial predicate")):
                if name is not None and name not in known:
                    raise InvalidVocab(f"the rule for predicate {self.predicates[pred]!r} "
                                       f"names unknown {kind} {name!r}")

    @property
    def feature_dim(self) -> int:
        """Width of a feature row: 8 spatial dims, then one context code per predicate pair."""
        return 8 + (len(self.predicates) + 1) // 2

    def bits(self, name: str) -> tuple[int, ...]:
        members = self.members[name]
        return tuple(1 if i in members else 0 for i in range(len(self.object_classes)))

    def predicate_mask(self, pred: int) -> tuple[int, ...]:
        return tuple(1 if i == pred else 0 for i in range(len(self.predicates)))


def default_relation_vocab() -> RelationVocab:
    objects = (
        "person", "dog", "cat", "horse", "bike",
        "shirt", "hat", "bed", "pizza", "table",
    )
    predicates = (
        "riding", "wear", "sleep-on", "eat", "above", "below",
        "left-of", "right-of", "on", "under", "near", "beside",
    )
    members = {"can_ride": (0, 1), "ridable": (3, 4), "living": (0, 1, 2),
               "wearable": (5, 6), "sleepable": (7, 9), "eatable": (8,)}
    rules = {
        0: ("can_ride", "ridable", "above"),   # riding
        1: ("living", "wearable", None),       # wear
        2: ("living", "sleepable", "above"),   # sleep-on
        3: (None, "eatable", None),            # eat
        4: (None, None, "above"),
        5: (None, None, "below"),
        6: (None, None, "left_of"),
        7: (None, None, "right_of"),
        8: (None, None, "above"),              # on
        9: (None, None, "below"),              # under
    }
    return RelationVocab(objects, predicates, members, rules)


def _sample_pair(vocab: RelationVocab, pred: int, rng: np.random.Generator) -> np.ndarray:
    """Random (subject, object) boxes, (2, 4), for predicate `pred`; the subject
    moves to clear the predicate's spatial rule."""
    centers = rng.uniform(-2.0, 2.0, size=4)  # xs, ys, xo, yo
    sizes = np.exp(rng.uniform(-0.7, 0.7, size=4))  # ws, hs, wo, ho
    spatial = vocab.rules.get(pred, (None, None, None))[2]
    if spatial is not None:
        axis, sign = SPATIAL[spatial]
        s, o = centers[axis], centers[axis + 2]
        centers[axis] = o + sign * abs(s - o) + sign * 0.05
    return np.hstack([centers.reshape(2, 2), sizes.reshape(2, 2)])


@dataclass
class RelationSplit:
    """One split, one row per box pair.

    boxes (n, 2, 4) holds the subject and the object box in (x, y, w, h)
    center format.  features = [8 spatial dims | n_pred/2 context dims].
    The context block carries noisy evidence for the true predicate's PAIR
    (the stand-in for image appearance): confusable predicates (2k, 2k+1)
    share code k, so context alone never separates a pair.  Context noise
    depends on the subject class, so some subjects are systematically
    harder to read.
    """

    boxes: np.ndarray
    features: np.ndarray
    subject: np.ndarray
    object: np.ndarray
    predicate: np.ndarray


@dataclass
class RelationSplits:
    train: RelationSplit
    test_standard: RelationSplit
    test_zero_shot: RelationSplit
    vocab: RelationVocab
    zero_shot_combos: set[tuple[int, int, int]]


CONTEXT_SIGNAL = 2.0
CONTEXT_NOISE_BASE = 0.6
CONTEXT_NOISE_STEP = 0.25
ZERO_SHOT_FRACTION = 0.25  # the share of legal combinations held out of training


def _encode_split(combos: np.ndarray, boxes: np.ndarray, vocab: RelationVocab,
                  rng: np.random.Generator) -> RelationSplit:
    """The split of (n, 3) (predicate, subject, object) rows and their (n, 2, 4) boxes."""
    pred, subj, obj = combos.T.copy()
    spatial = spatial_features(boxes[:, 0], boxes[:, 1])
    n_codes = vocab.feature_dim - spatial.shape[1]
    noise_std = CONTEXT_NOISE_BASE + CONTEXT_NOISE_STEP * (subj % 3)
    context = rng.normal(0.0, 1.0, size=(len(pred), n_codes)) * noise_std[:, None]
    context[np.arange(len(pred)), pred // 2] += CONTEXT_SIGNAL
    return RelationSplit(boxes, np.hstack([spatial, context]), subj, obj, pred)


def check_train_fraction(fraction: float) -> None:
    """Raise InvalidValue unless `fraction` is a share of the train pool: 0 < fraction <= 1."""
    if not 0 < fraction <= 1:
        raise InvalidValue(f"train fraction must be in (0, 1], got {fraction}")


def gen_synth_relations(
    vocab: RelationVocab | None = None,
    n_train_pool: int = 20000,
    n_test: int = 2000,
    train_fraction: float = 0.01,
    seed: int = 0,
) -> RelationSplits:
    """Generate train/test box-pair splits whose labels obey the rule schema.

    ZERO_SHOT_FRACTION of the legal (predicate, subject, object) combinations
    is held out entirely from the train pool and forms the zero-shot test
    split; the train set is a `train_fraction` subsample of the pool.
    """
    check_train_fraction(train_fraction)
    vocab = vocab or default_relation_vocab()
    n_obj = len(vocab.object_classes)
    rng = np.random.default_rng(seed)

    combos = []
    for p in range(len(vocab.predicates)):
        subj, obj, _ = vocab.rules.get(p, (None, None, None))
        subj_ok = vocab.members[subj] if subj else range(n_obj)
        obj_ok = vocab.members[obj] if obj else range(n_obj)
        combos.extend((p, s, o) for s in subj_ok for o in obj_ok if s != o)
    combos.sort()
    rng.shuffle(combos)
    n_zero = max(1, int(len(combos) * ZERO_SHOT_FRACTION))
    zero_shot = set(map(tuple, combos[:n_zero]))
    seen = [tuple(c) for c in combos[n_zero:]]

    def draw(pool, count):  # per pair one integer, then eight doubles: a bulk draw reorders them
        drawn = np.empty((count, 3), dtype=np.int64)
        boxes = np.empty((count, 2, 4))
        for i in range(count):
            drawn[i] = pool[rng.integers(len(pool))]
            boxes[i] = _sample_pair(vocab, drawn[i, 0], rng)
        return drawn, boxes

    n_train = max(1, int(np.ceil(train_fraction * n_train_pool)))
    train = [drawn[:n_train] for drawn in draw(seen, n_train_pool)]
    test_standard = draw(seen, n_test)
    test_zero = draw(sorted(zero_shot), n_test)
    return RelationSplits(
        train=_encode_split(*train, vocab, rng),
        test_standard=_encode_split(*test_standard, vocab, rng),
        test_zero_shot=_encode_split(*test_zero, vocab, rng),
        vocab=vocab,
        zero_shot_combos=zero_shot,
    )
