"""Tensor kernels, broadcasting, the tape, and the checkpoint container."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dasl import tensor as T
from dasl.tensor import (
    AxisOutOfRange,
    DetachedNode,
    IndexOutOfRange,
    NotScalar,
    Parameter,
    ShapeMismatch,
    Tape,
    Tensor,
    backward,
    grad_check,
    load_checkpoint,
    save_checkpoint,
)


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert T.sigmoid(0.0).item() == pytest.approx(0.5, abs=1e-15)

    def test_softplus_at_zero(self):
        assert T.softplus(0.0).item() == pytest.approx(np.log(2), abs=1e-12)

    def test_broadcast_add(self):
        out = T.add(np.array([1.0, 2.0, 3.0]), 1.0)
        np.testing.assert_allclose(out.data, [2.0, 3.0, 4.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            T.add(np.zeros(3), np.zeros(4))

    def test_log_clamps_instead_of_nan(self):
        out = T.log(np.array([0.0, -1.0]))
        assert np.all(np.isfinite(out.data))

    def test_exp_saturates_instead_of_inf(self):
        assert np.isfinite(T.exp(1e6).item())


class TestMatmul:
    def test_identity(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(T.matmul(np.eye(2), m).data, m)

    def test_small_product(self):
        out = T.matmul(np.array([[1.0, 0.0]]), np.array([[0.0], [1.0]]))
        np.testing.assert_allclose(out.data, [[0.0]])

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeMismatch):
            T.matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        a = Parameter("a", rng.uniform(-1, 1, size=(3, 4)))
        b = np.ones((4, 2))

        report = grad_check(lambda: T.reduce_sum(T.matmul(a, b)), [a], h=1e-5)
        assert report.passed
        # closed form: ones @ B^T
        with Tape():
            a.zero_grad()
            backward(T.reduce_sum(T.matmul(a, b)))
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.T)


class TestReduce:
    def test_logsumexp_ln2(self):
        assert T.logsumexp(np.zeros(2)).item() == pytest.approx(np.log(2), abs=1e-12)

    def test_logsumexp_no_overflow(self):
        out = T.logsumexp(np.array([1000.0, 1000.0]))
        assert out.item() == pytest.approx(1000 + np.log(2), abs=1e-9)

    def test_logsumexp_shift_exactness(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-5, 5, size=32)
        for c in (-7.5, 3.25, 100.0):
            lhs = T.logsumexp(x + c).item()
            rhs = T.logsumexp(x).item() + c
            assert abs(lhs - rhs) < 1e-12

    def test_mean(self):
        assert T.reduce_mean(np.array([1.0, 2.0, 3.0])).item() == pytest.approx(2.0)

    def test_axis_out_of_range(self):
        with pytest.raises(AxisOutOfRange):
            T.reduce_sum(np.zeros((2, 2)), axis=5)


class TestGather:
    def test_rows_copied(self):
        table = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(T.gather(table, [1]).data, [[3.0, 4.0]])

    def test_scatter_add_on_duplicates(self):
        p = Parameter("t", np.array([[1.0, 2.0], [3.0, 4.0]]))
        with Tape():
            p.zero_grad()
            out = T.gather(p, [0, 0])
            backward(T.reduce_sum(out))
        np.testing.assert_allclose(p.grad, [[2.0, 2.0], [0.0, 0.0]])

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            T.gather(np.zeros((2, 2)), [2])


class TestBackward:
    def test_softplus_neg(self):
        p = Parameter("p", np.zeros(()))
        with Tape():
            p.zero_grad()
            backward(T.softplus(T.neg(p)))
        assert p.grad == pytest.approx(-0.5, abs=1e-12)

    def test_sum_of_squares(self):
        p = Parameter("p", np.array([1.0, 2.0]))
        with Tape():
            p.zero_grad()
            backward(T.reduce_sum(T.mul(p, p)))
        np.testing.assert_allclose(p.grad, [2.0, 4.0])

    def test_three_layer_mlp_vs_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, size=(4, 5))
        params = []
        sizes = [5, 6, 4, 3]
        for i, (m, n) in enumerate(zip(sizes[:-1], sizes[1:])):
            params.append(Parameter(f"w{i}", rng.uniform(-0.7, 0.7, size=(m, n))))
            params.append(Parameter(f"b{i}", rng.uniform(-0.2, 0.2, size=n)))

        def build():
            h = Tensor(x)
            for i in range(0, 6, 2):
                h = T.add(T.matmul(h, params[i]), params[i + 1])
                if i < 4:
                    h = T.tanh(h)
            return T.reduce_sum(T.softplus(h))

        assert grad_check(build, params, h=1e-5, tol=1e-4).passed

    def test_not_scalar(self):
        p = Parameter("p", np.zeros(3))
        with Tape():
            out = T.mul(p, p)
            with pytest.raises(NotScalar):
                backward(out)

    def test_detached_root(self):
        p = Parameter("p", np.zeros(()))
        with Tape():
            out = T.softplus(p)
        with pytest.raises(DetachedNode):
            with Tape():
                backward(out)

    def test_tensor_from_another_tape_raises(self):
        p = Parameter("p", np.ones(()))
        with Tape():
            out = T.softplus(p)
            with Tape():  # a second live tape would drop out's gradient
                with pytest.raises(DetachedNode):
                    T.mul(out, 2.0)
        with Tape():  # and so would a later one
            with pytest.raises(DetachedNode):
                T.mul(out, 2.0)
        assert T.mul(out, 2.0).data == 2.0 * out.data  # no tape records: a constant

    def test_tape_consumed_once(self):
        p = Parameter("p", np.zeros(()))
        with Tape():
            out = T.softplus(p)
            backward(out)
            with pytest.raises(DetachedNode):
                backward(out)


UNARY_OPS = [T.neg, T.exp, T.expm1, T.sigmoid, T.logsigmoid, T.softplus, T.relu, T.tanh,
             T.sqrt, T.log]


class TestPrimitiveGradients:
    @pytest.mark.parametrize("op", UNARY_OPS, ids=lambda f: f.__name__)
    def test_unary_matches_finite_differences(self, op):
        rng = np.random.default_rng(hash(op.__name__) % 2 ** 31)
        raw = rng.uniform(-3, 3, size=6)
        if op in (T.sqrt, T.log):
            raw = np.abs(raw) + 0.1
        if op is T.relu:  # keep probes away from the kink
            raw = raw + np.where(np.abs(raw) < 0.01, 0.1, 0.0)
        p = Parameter("p", raw)
        report = grad_check(lambda: T.reduce_sum(op(p)), [p], h=1e-5, tol=1e-4)
        assert report.passed, report.per_param

    @pytest.mark.parametrize("op", [T.add, T.sub, T.mul], ids=lambda f: f.__name__)
    def test_binary_matches_finite_differences(self, op):
        rng = np.random.default_rng(42)
        a = Parameter("a", rng.uniform(-3, 3, size=(2, 3)))
        b = Parameter("b", rng.uniform(-3, 3, size=(3,)))  # broadcast path
        report = grad_check(lambda: T.reduce_sum(op(a, b)), [a, b], h=1e-5, tol=1e-4)
        assert report.passed

    @pytest.mark.parametrize(
        "op", [T.reduce_sum, T.reduce_mean, T.reduce_max, T.logsumexp],
        ids=lambda f: f.__name__)
    def test_reductions_match_finite_differences(self, op):
        rng = np.random.default_rng(43)
        p = Parameter("p", rng.uniform(-3, 3, size=(3, 4)))
        report = grad_check(lambda: T.reduce_sum(op(p, 1)), [p], h=1e-5, tol=1e-4)
        assert report.passed

    def test_select_and_mask_class(self):
        rng = np.random.default_rng(44)
        p = Parameter("p", rng.uniform(-3, 3, size=(4, 5)))
        idx = np.array([0, 3, 1, 4])

        def build():
            kept = T.select_class(p, idx)
            rest = T.logsumexp(T.mask_class(p, idx, -1e30), axis=-1)
            return T.reduce_sum(T.sub(kept, rest))

        assert grad_check(build, [p], h=1e-5, tol=1e-4).passed


class TestClassIndexing:
    """The broadcasting `select_class`, the masks, and the kernels that must stay bit for
    bit what they replaced."""

    @pytest.mark.parametrize("v_shape, idx_shape", [
        ((6, 1, 1, 10), (1, 4, 3)),  # the digit rule: the index spans axes v lacks
        ((5, 4), (5,)),              # one index per row
        ((3, 1, 4), (1, 2)),         # both sides broadcast
        ((4,), (2, 3)),              # v with no leading axes
    ])
    def test_broadcast_select_matches_spread_then_select(self, v_shape, idx_shape):
        rng = np.random.default_rng(45)
        n = v_shape[-1]
        p = Parameter("p", rng.uniform(-3, 3, size=v_shape))
        idx = rng.integers(0, n, size=idx_shape)
        lead = np.broadcast_shapes(v_shape[:-1], idx_shape)
        idx_b = np.broadcast_to(idx, lead)
        spread = np.broadcast_to(p.value, lead + (n,))
        got = T.select_class(p, idx).data
        assert np.array_equal(got, np.take_along_axis(spread, idx_b[..., None], -1)[..., 0])

        weights = rng.uniform(-1, 1, size=lead)
        p.zero_grad()
        with Tape():
            backward(T.reduce_sum(T.mul(T.select_class(p, idx), weights)))
        hot = weights[..., None] * (np.arange(n) == idx_b[..., None])
        hot = hot.sum(axis=tuple(range(hot.ndim - len(v_shape))))
        want = hot.sum(axis=tuple(i for i, s in enumerate(v_shape) if s == 1), keepdims=True)
        np.testing.assert_allclose(p.grad, want, rtol=0, atol=1e-12)
        report = grad_check(lambda: T.reduce_sum(T.mul(T.select_class(p, idx), weights)), [p])
        assert report.passed, report.per_param

    def test_broadcast_mask_matches_spread_then_mask(self):
        rng = np.random.default_rng(46)
        p = Parameter("p", rng.uniform(-3, 3, size=(3, 1, 5)))
        idx = rng.integers(0, 5, size=(4,))
        spread = np.broadcast_to(p.value, (3, 4, 5)).copy()
        np.put_along_axis(spread, np.broadcast_to(idx, (3, 4))[..., None], -1e30, -1)
        assert np.array_equal(T.mask_class(p, idx, -1e30).data, spread)
        report = grad_check(lambda: T.reduce_sum(T.logsumexp(T.mask_class(p, idx, -1e30), -1)),
                            [p])
        assert report.passed, report.per_param

    def test_class_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            T.select_class(np.zeros((2, 3)), np.array([[0], [3]]))
        with pytest.raises(IndexOutOfRange):
            T.mask_class(np.zeros((2, 3)), -1, 0.0)

    def test_sigmoid_of_matches_where_formula(self):
        rng = np.random.default_rng(47)
        x = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, -746.0, 746.0],
                            rng.standard_normal(100_000) * 10.0 ** rng.uniform(-4, 3, 100_000)])
        t = np.exp(-np.abs(x))
        want = np.where(x >= 0, 1.0, t) / (1.0 + t)
        assert np.array_equal(T._sigmoid_of(x, t).view(np.int64), want.view(np.int64))

    def test_affine_is_add_of_matmul_bit_for_bit(self):
        rng = np.random.default_rng(48)
        values = [rng.normal(size=(7, 5)), rng.normal(size=(5, 3)), rng.normal(size=3)]
        weights = rng.normal(size=(7, 3))

        def run(op):
            params = [Parameter(name, v) for name, v in zip("hwb", values)]
            with Tape():
                out = op(*params)
                backward(T.reduce_sum(T.mul(T.tanh(out), weights)))
            return [out.data] + [p.grad for p in params]

        got = run(T.affine)
        want = run(lambda h, w, b: T.add(T.matmul(h, w), b))
        for a, b in zip(got, want):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))

    def test_affine_shape_errors(self):
        with pytest.raises(ShapeMismatch):
            T.affine(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(5))
        with pytest.raises(ShapeMismatch):  # the bias may not widen the product
            T.affine(np.zeros((2, 3)), np.zeros((3, 5)), np.zeros((4, 2, 5)))
        with pytest.raises(ShapeMismatch):
            T.affine(np.zeros((2, 3)), np.zeros((3, 5)), np.zeros(4))


class TestBroadcastBackward:
    def test_gradient_shape_matches_value_shape(self):
        a = Parameter("a", np.ones((3, 1)))
        b = Parameter("b", np.ones(4))
        with Tape():
            a.zero_grad()
            b.zero_grad()
            backward(T.reduce_sum(T.mul(a, b)))
        assert a.grad.shape == a.value.shape
        assert b.grad.shape == b.value.shape
        np.testing.assert_allclose(a.grad, 4.0 * np.ones((3, 1)))
        np.testing.assert_allclose(b.grad, 3.0 * np.ones(4))


class TestDeterminism:
    def test_bit_identical_forward_and_grads(self):
        def run():
            rng = np.random.default_rng(123)
            p = Parameter("p", rng.uniform(-1, 1, size=(8, 8)))
            x = rng.uniform(-1, 1, size=(4, 8))
            with Tape():
                p.zero_grad()
                out = T.reduce_sum(T.softplus(T.matmul(Tensor(x), p)))
                backward(out)
            return out.item(), p.grad.copy()

        v1, g1 = run()
        v2, g2 = run()
        assert v1 == v2
        assert np.array_equal(g1, g2)


class TestThreadIndependence:
    def test_distinct_tapes_on_distinct_threads(self):
        import threading

        results = {}

        def worker(tag, scale):
            p = Parameter(tag, np.full(3, scale))
            for _ in range(50):
                with Tape():
                    p.zero_grad()
                    backward(T.reduce_sum(T.mul(p, p)))
            results[tag] = p.grad.copy()

        threads = [threading.Thread(target=worker, args=(f"t{i}", float(i + 1)))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(4):
            np.testing.assert_allclose(results[f"t{i}"], 2.0 * (i + 1))


class TestGradCheckHarness:
    def test_square(self):
        p = Parameter("x", np.array(3.0))
        report = grad_check(lambda: T.mul(p, p), [p], h=1e-5)
        assert report.passed and report.max_rel_error < 1e-6

    def test_softplus_at_zero(self):
        p = Parameter("x", np.array(0.0))
        with Tape():
            p.zero_grad()
            backward(T.softplus(p))
        assert p.grad == pytest.approx(0.5, abs=1e-9)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = {
            "w": np.arange(6.0).reshape(2, 3),
            "b": np.array([1.5]),
            "s": np.array(2.25),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(params)
        for k in params:
            np.testing.assert_array_equal(loaded[k], params[k])

    def test_binary_layout(self, tmp_path):
        path = tmp_path / "one.ckpt"
        save_checkpoint({"ab": np.array([1.0, 2.0])}, path)
        raw = path.read_bytes()
        assert raw[:8] == b"DASLCKPT"
        assert struct.unpack("<I", raw[8:12])[0] == 2  # version
        assert struct.unpack("<I", raw[12:16])[0] == 2  # name length
        assert raw[16:18] == b"ab"
        assert struct.unpack("<I", raw[18:22])[0] == 1  # rank
        assert struct.unpack("<I", raw[22:26])[0] == 2  # dim
        assert np.frombuffer(raw[26:42], dtype="<f8").tolist() == [1.0, 2.0]
        assert struct.unpack("<I", raw[42:46])[0] == zlib.crc32(raw[:42])
        assert len(raw) == 46

    def test_reads_version_1(self, tmp_path):
        # version 1 is the same layout without the CRC-32 trailer
        path = tmp_path / "old.ckpt"
        path.write_bytes(b"DASLCKPT" + struct.pack("<2I", 1, 1) + b"s"
                         + struct.pack("<Id", 0, 2.5))
        loaded = load_checkpoint(path)
        assert list(loaded) == ["s"] and loaded["s"].shape == () and loaded["s"] == 2.5

    def test_corrupt_rank_is_a_value_error(self, tmp_path):
        # version 1 has no checksum, so the bounds checks alone must hold
        path = tmp_path / "rank.ckpt"
        path.write_bytes(b"DASLCKPT" + struct.pack("<2I", 1, 1) + b"w"
                         + struct.pack("<I", 0xFFFFFFFF))
        with pytest.raises(ValueError, match="truncated dims"):
            load_checkpoint(path)

    @staticmethod
    def _saved(tmp_path):
        params = {"w": np.arange(6.0).reshape(2, 3), "bias": np.array([1.5]),
                  "s": np.array(2.25)}
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        return params, path.read_bytes()

    def test_every_truncation_is_a_value_error(self, tmp_path):
        _, raw = self._saved(tmp_path)
        path = tmp_path / "cut.ckpt"
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError):
                load_checkpoint(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(at=st.integers(0, 10_000), flip=st.integers(1, 255))
    def test_single_byte_flip_raises_or_loads_same_shapes(self, tmp_path, at, flip):
        params, raw = self._saved(tmp_path)
        at %= len(raw)
        path = tmp_path / "flip.ckpt"
        path.write_bytes(raw[:at] + bytes([raw[at] ^ flip]) + raw[at + 1:])
        try:
            loaded = load_checkpoint(path)
        except ValueError:
            return
        assert {k: v.shape for k, v in loaded.items()} == {k: v.shape for k, v in params.items()}

    def test_save_replaces_atomically(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint({"a": np.zeros(2)}, path)
        save_checkpoint({"b": np.ones(3)}, path)
        assert list(load_checkpoint(path)) == ["b"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTADASL" + b"\x00" * 8)
        with pytest.raises(ValueError):
            load_checkpoint(path)
