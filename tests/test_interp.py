"""Domains, symbol bindings, samplers, and triple construction."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _triples_ref
from dasl.compiler import compile, evaluate, explain
from dasl.interp import (
    DataLoadError,
    EmptyDomain,
    IdOutOfRange,
    InsufficientClassCount,
    MissingExtern,
    Sampler,
    WidthMismatch,
    bind_theory,
    build_triples,
)
from dasl.lang import check_theory, parse_theory


MNIST_DECLS = """
sort Image dim 784;
sort Digit card 10;
rel digit : Image out 10 mlp 512 act sigmoid;
"""


class TestBindTheory:
    def test_mlp_parameter_count(self):
        th = check_theory(parse_theory(MNIST_DECLS))
        interp = bind_theory(th)
        assert interp.parameter_count == 784 * 512 + 512 + 512 * 10 + 10
        assert interp.parameter_count == 407050

    def test_missing_extern(self):
        th = check_theory(parse_theory("sort R dim 8;\nrel above : R extern above;"))
        with pytest.raises(MissingExtern):
            bind_theory(th)

    def test_index_sort_past_numpy_range_is_a_load_error(self):
        # np.arange(2**63 - 1) is silently empty; unchecked, it binds a 0-row
        # domain and evaluate fails later with a broadcast error naming no sort
        th = check_theory(parse_theory("sort S card 9223372036854775807; rel P : S extern p;\n"
                                       "axiom a : forall x: S . P(x);"))
        tracemalloc.start()
        try:
            with pytest.raises(DataLoadError, match="sort S: card 9223372036854775807"):
                bind_theory(th)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    def test_embedding_sort_past_numpy_range_is_a_load_error(self):
        # (card, dim) past what numpy can allocate used to surface as numpy's bare
        # "array is too big" from glorot_uniform, naming no sort
        th = check_theory(parse_theory("sort S card 9223372036854775807 dim 3;"))
        with pytest.raises(DataLoadError, match="sort S: card 9223372036854775807 dim 3"):
            bind_theory(th)

    def test_embedding_sort_parameter(self):
        th = check_theory(parse_theory("sort E card 100 dim 16;"))
        interp = bind_theory(th)
        assert interp.domains["E"].columns[0].param.shape == (100, 16)

    def test_learned_constant(self):
        th = check_theory(parse_theory("sort E card 4 dim 6;\nconst c : E learned;"))
        interp = bind_theory(th)
        out = interp.symbols["c"]([])
        assert out.data.shape == (6,)

    def test_shared_embedding_domain_is_one_parameter(self):
        th = check_theory(parse_theory("sort E card 5 dim 3;"))
        table = bind_theory(th).domains["E"]
        th2 = check_theory(parse_theory(
            "sort E card 5 dim 3;\ndata A : E from \"mem\";\ndata B : E from \"mem\";"))
        interp = bind_theory(th2, data={"A": table, "B": table})
        shared = table.columns[0].param
        assert [p for p in interp.parameters if p is shared] == [shared]
        assert len(interp.parameters) == 2  # the shared table and E's own
        listing = explain(compile(th2, interp))
        assert listing.count("embedding-table, 15 parameters") == 3
        assert listing.endswith("total parameters: 30")

    IDS = "sort K card 3;\nrel R : K mlp 4 act tanh;\ndata Train : K from \"%s\";\n" \
          "axiom a : forall y: Train . R(y);"

    @pytest.mark.parametrize("ids, shown", [
        ([0, 1, -1], "-1"),  # was read as id 2, the last
        ([0, 1, 2.7], "2.7"),  # was truncated to 2
        ([0, 1, 7], "7"),  # was an IndexError in the MLP's one-hot encoding
    ], ids=["negative", "fractional", "past_card"])
    def test_bad_index_id_is_a_load_error(self, ids, shown):
        th = check_theory(parse_theory(self.IDS % "mem"))
        match = f"Train: column 0 (sort K) row 2: id {shown} is not an integer in [0, 3)"
        with pytest.raises(DataLoadError, match=re.escape(match)):
            bind_theory(th, data={"Train": (np.array(ids),)})

    def test_bad_index_id_in_a_file_is_a_load_error(self, tmp_path):
        (tmp_path / "k.csv").write_text("k\n0\n2\n1.5\n")
        th = check_theory(parse_theory(self.IDS % "k.csv"))
        match = "Train: column 0 (sort K) row 2: id 1.5 is not an integer in [0, 3)"
        with pytest.raises(DataLoadError, match=re.escape(match)):
            bind_theory(th, data_dir=str(tmp_path))
        (tmp_path / "k.csv").write_text("k\n0\n2\n1\n")
        column = bind_theory(th, data_dir=str(tmp_path)).domains["Train"].columns[0]
        assert column.values.dtype == np.int64 and column.values.tolist() == [0, 2, 1]


    def test_index_column_of_two_ids_per_row_is_a_load_error(self):
        # flattened, this 2 x 2 table would bind the 4 rows [0 1 2 0]
        th = check_theory(parse_theory(self.IDS % "mem"))
        match = "Train: column 0 (sort K) must hold one id per row, got shape (2, 2)"
        with pytest.raises(DataLoadError, match=re.escape(match)):
            bind_theory(th, data={"Train": (np.array([[0, 1], [2, 0]]),)})

    def test_index_file_of_two_columns_is_a_load_error(self, tmp_path):
        (tmp_path / "k.csv").write_text("k,j\n0,1\n2,0\n")
        th = check_theory(parse_theory(self.IDS % "k.csv"))
        match = "Train: column 0 (sort K) must hold one id per row, got shape (2, 2)"
        with pytest.raises(DataLoadError, match=re.escape(match)):
            bind_theory(th, data_dir=str(tmp_path))


class TestEvalSymbol:
    def test_extern_modular_add(self):
        th = check_theory(parse_theory(
            "sort D card 10;\nfunc addmod : D x D -> D extern addmod;"))
        interp = bind_theory(th, externs={"addmod": lambda a, b: (a + b) % 10})
        assert interp.symbols["addmod"]([3, 9]) == 2

    def test_zero_weight_mlp_outputs_bias(self):
        th = check_theory(parse_theory(MNIST_DECLS))
        interp = bind_theory(th)
        binding = interp.symbols["digit"]
        for p in binding.parameters:
            p.value[...] = 0.0
        binding.biases[-1].value[...] = np.arange(10.0)
        out = binding([np.zeros((3, 784))])
        np.testing.assert_allclose(out.data, np.tile(np.arange(10.0), (3, 1)))

    def test_batched_shape_contract(self):
        th = check_theory(parse_theory(MNIST_DECLS))
        interp = bind_theory(th)
        out = interp.symbols["digit"]([np.random.default_rng(0).normal(size=(7, 784))])
        assert out.data.shape == (7, 10)

    def test_batch_consistency(self):
        th = check_theory(parse_theory(MNIST_DECLS.replace("512", "32")))
        interp = bind_theory(th, seed=3)
        rows = np.random.default_rng(1).normal(size=(5, 784))
        batched = interp.symbols["digit"]([rows]).data
        single = np.concatenate([interp.symbols["digit"]([rows[i:i + 1]]).data
                                 for i in range(5)])
        np.testing.assert_allclose(batched, single, atol=1e-12)

    def test_a_row_without_a_row_axis_is_a_width_mismatch(self):
        th = check_theory(parse_theory(MNIST_DECLS.replace("512", "32")))
        interp = bind_theory(th)
        with pytest.raises(WidthMismatch, match="digit"):
            interp.symbols["digit"]([np.zeros(784)])

    def test_index_argument_one_hot(self):
        th = check_theory(parse_theory(
            "sort D card 4;\nrel pick : D out 3 mlp 5 act relu;"))
        interp = bind_theory(th, seed=0)
        out = interp.symbols["pick"]([np.array([0, 1, 2, 3])])
        assert out.data.shape == (4, 3)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_an_id_outside_the_sort_is_a_typed_error(self, bad):
        # -1 once became the one-hot of class 2 without a word, and 3 a bare IndexError
        th = check_theory(parse_theory(
            "sort D card 3;\nsort C card 3;\nfunc g : D -> C extern g;\n"
            "rel R : D x C mlp 4;\naxiom a : forall x: D . R(x, g(x));"))
        ids = np.array([0, 1, bad])
        interp = bind_theory(th, externs={"g": lambda x: ids[x]})
        with pytest.raises(IdOutOfRange, match=rf"^R: argument 1 has id {bad}, outside \[0, 3\)$"):
            evaluate(compile(th, interp))


def _domain(n, dim=2):
    th = check_theory(parse_theory(
        f"sort Row dim {dim};\ndata Pool : Row from \"mem\";"))
    rows = np.arange(n * dim, dtype=np.float64).reshape(n, dim)
    interp = bind_theory(th, data={"Pool": (rows,)})
    return interp.domains["Pool"]


class TestSamplers:
    def test_full_returns_domain_in_order(self):
        s = Sampler(_domain(10), batch_size=None)
        np.testing.assert_array_equal(s.sample(), np.arange(10))

    def test_minibatch_epoch_partition(self):
        s = Sampler(_domain(50000), batch_size=64,
                    rng=np.random.default_rng(5))
        batches = [s.sample() for _ in range(782)]
        assert len(batches) == 782
        assert len(batches[-1]) == 50000 - 781 * 64
        joined = np.concatenate(batches)
        assert len(joined) == 50000
        np.testing.assert_array_equal(np.sort(joined), np.arange(50000))

    def test_epoch_coverage_is_permutation(self):
        s = Sampler(_domain(103), batch_size=10,
                    rng=np.random.default_rng(6))
        epoch = np.concatenate([s.sample() for _ in range(11)])
        np.testing.assert_array_equal(np.sort(epoch), np.arange(103))

    def test_seed_determinism(self):
        def batches(seed):
            s = Sampler(_domain(64), batch_size=7,
                        rng=np.random.default_rng(seed))
            return [s.sample().tolist() for _ in range(30)]

        assert batches(9) == batches(9)
        assert batches(9) != batches(10)

    def test_batch_size_below_one_is_an_error(self):
        with pytest.raises(ValueError, match="batch_size must be at least 1"):
            Sampler(_domain(4), batch_size=0)

    def test_empty_domain(self):
        s = Sampler(_domain(4), batch_size=None)
        s.set_active_size(0)
        with pytest.raises(EmptyDomain):
            s.sample()

    def test_active_size_prefix(self):
        s = Sampler(_domain(100), batch_size=100,
                    rng=np.random.default_rng(8))
        s.set_active_size(30)
        batch = s.sample()
        assert len(batch) == 30
        assert batch.max() < 30


@st.composite
def _triples_cases(draw):
    """Labels with missing, short and wrapping class pools and stray labels."""
    n_classes = draw(st.integers(2, 12))
    per_class = draw(st.integers(0, 60))
    least = max(per_class, 1)
    sizes = draw(st.lists(st.integers(least, 3 * least), min_size=n_classes,
                          max_size=n_classes))
    for c in draw(st.lists(st.integers(0, n_classes - 1), max_size=2)):
        sizes[c] = draw(st.integers(0, least - 1))  # missing or too short
    stray = draw(st.lists(st.sampled_from([-7, -1, n_classes, n_classes + 3]), max_size=20))
    seed = draw(st.integers(0, 2**32 - 1))
    labels = np.concatenate([np.repeat(np.arange(n_classes), sizes),
                             np.array(stray, dtype=np.int64)])
    labels = np.random.default_rng(seed).permutation(labels)
    return labels, per_class, seed, n_classes


def _assert_triples_match_the_loop(labels, per_class, seed, n_classes=10):
    rows = np.arange(len(labels), dtype=np.float64)[:, None]
    try:
        expected = _triples_ref.build_triples(rows, labels, per_class, seed, n_classes)
    except InsufficientClassCount as e:
        with pytest.raises(InsufficientClassCount) as got:
            build_triples(rows, labels, per_class, seed, n_classes)
        assert got.value.cls == e.cls
        return
    dom = build_triples(rows, labels, per_class, seed, n_classes)
    assert dom.name == expected.name and dom.cardinality == expected.cardinality
    for col, ref in zip(dom.columns, expected.columns, strict=True):
        assert col.sort == ref.sort and col.values is rows
        np.testing.assert_array_equal(col.ids, ref.ids)
        # with no triples the loop's empty id lists become float64 arrays
        assert col.ids.dtype == ref.ids.dtype or per_class == 0


class TestBuildTriples:
    def _data(self, per_label=30, seed=0):
        rng = np.random.default_rng(seed)
        labels = np.tile(np.arange(10), per_label)
        rows = rng.normal(size=(len(labels), 8))
        return rows, labels

    def test_every_triple_satisfies_the_rule(self):
        rows, labels = self._data()
        dom = build_triples(rows, labels, per_class=20, seed=1)
        i1, i2, i3 = (c.ids for c in dom.columns)
        y1, y2, y3 = labels[i1], labels[i2], labels[i3]
        assert np.all((y1 + y2) % 10 == y3)

    def test_spec_examples(self):
        assert (3 + 9) % 10 == 2
        assert (0 + 0) % 10 == 0
        assert (5 + 5) % 10 != 1

    def test_rows_exposed_not_labels(self):
        rows, labels = self._data()
        dom = build_triples(rows, labels, per_class=5, seed=2)
        taken = dom.columns[0].take(np.array([0, 1]))
        assert taken.shape == (2, 8)

    def test_class_balanced_prefix(self):
        rows, labels = self._data()
        dom = build_triples(rows, labels, per_class=12, seed=3)
        y3 = labels[dom.columns[2].ids]
        for k in (1, 4, 12):
            counts = np.bincount(y3[: 10 * k], minlength=10)
            np.testing.assert_array_equal(counts, np.full(10, k))

    def test_insufficient_class(self):
        rows, labels = self._data()
        labels = labels.copy()
        labels[labels == 7] = 6  # class 7 vanishes
        with pytest.raises(InsufficientClassCount):
            build_triples(rows, labels, per_class=5, seed=4)

    def test_seed_determinism(self):
        rows, labels = self._data()
        a = build_triples(rows, labels, per_class=8, seed=5)
        b = build_triples(rows, labels, per_class=8, seed=5)
        for ca, cb in zip(a.columns, b.columns):
            np.testing.assert_array_equal(ca.ids, cb.ids)

    @pytest.mark.parametrize("n_classes", range(2, 13))
    def test_one_draw_reads_the_generator_as_scalar_draws(self, n_classes):
        # build_triples draws every y1 at once where the loop drew one per triple
        scalar = np.random.default_rng(n_classes)
        batch = np.random.default_rng(n_classes)
        expected = [scalar.integers(n_classes) for _ in range(500)]
        np.testing.assert_array_equal(batch.integers(n_classes, size=500), expected)
        assert batch.integers(1 << 40) == scalar.integers(1 << 40)  # and leave it alike

    @given(_triples_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_triple_loop(self, case):
        _assert_triples_match_the_loop(*case)

    def test_no_triples_is_an_empty_domain_of_int64_ids(self):
        rows, labels = self._data()
        dom = build_triples(rows, labels, per_class=0, seed=6)
        assert dom.cardinality == 0
        assert all(c.ids.dtype == np.int64 and c.ids.shape == (0,) for c in dom.columns)

    def test_matches_the_per_triple_loop_at_paper_scale(self):
        labels = np.random.default_rng(11).integers(10, size=60_000)
        _assert_triples_match_the_loop(labels, per_class=4000, seed=12)
