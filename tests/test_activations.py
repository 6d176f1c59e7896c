"""MLP activations write into their layer's own buffer, with the bits of fresh arrays.

`sigmoid`, `relu` and `tanh` take numpy's `out=`, which `MlpBinding` points
at each layer's fresh `affine` product, and each pull reads only the output.
Sigmoid and its pull take their scratch one bounded block of rows at a time.
The reference here is the plain numpy of fresh arrays: every check compares
bytes.  The last tests gate the memory an untaped MLP call holds and the
page faults a loop of them takes once glibc keeps its freed blocks.
"""

import json
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dasl import tensor as T
from dasl.interp import MlpBinding
from dasl.lang import MlpSpec

WIDTH, HIDDEN, CLASSES = 16, 512, 10
# 512 entries, 47 rows below _SPLIT_ENTRIES, 212 rows split into halves of one
# scratch block each, 2000 rows into halves of several blocks; no product
# here reaches _SPLIT_MACS (2000 x 16 x 512 < 2**24), so every product is one
# numpy matmul
ROWS = [1, 47, 212, 2000]
ACTIVATIONS = ["sigmoid", "relu", "tanh"]
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0, 1e-300, -1e-300,
                     36.7, -36.7, 709.5, -745.2])


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _with_specials(rng, shape, scale=8.0):
    x = scale * rng.normal(size=shape)
    flat = x.reshape(-1)
    flat[rng.choice(flat.size, min(flat.size, 4 * SPECIALS.size), replace=False)] = \
        np.resize(SPECIALS, min(flat.size, 4 * SPECIALS.size))
    return x


def _act(name, x):
    """The activation of fresh arrays, as the kernels computed it before they took `out=`."""
    if name == "sigmoid":
        return T._sigmoid_of(x, np.exp(-np.abs(x)))
    return np.maximum(x, 0.0) if name == "relu" else np.tanh(x)


def _act_pull(name, g, x, out):
    if name == "sigmoid":
        return g * out * (1.0 - out)
    return g * (x > 0) if name == "relu" else g * (1.0 - out * out)


@pytest.fixture(params=["worker", "caller"])
def halves(request, monkeypatch):
    """Large kernels' first halves on the worker thread (where the process has two
    CPUs), or both halves on the caller, as while BLAS runs threads of its own."""
    monkeypatch.setattr(T, "_blas_threads", lambda: 1 if request.param == "worker" else 2)
    return request.param


def _binding(activation, seed=0):
    rng = np.random.default_rng(seed)
    binding = MlpBinding("m", MlpSpec((HIDDEN,), activation), [WIDTH], [None], CLASSES, rng)
    for w in binding.weights:  # hidden pre-activations past sigmoid's and tanh's flat ends
        w.value[...] *= 6.0
    for b in binding.biases:
        b.value[...] = rng.normal(size=b.value.shape)
    return binding


class TestMlp:
    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_forward_and_gradients_are_the_fresh_array_formulas(self, halves, activation,
                                                                 rows):
        binding = _binding(activation)
        rng = np.random.default_rng(rows)
        x = rng.normal(size=(rows, WIDTH))
        weight = rng.normal(size=(rows, CLASSES))
        (w0, w1), (b0, b1) = [p.value for p in binding.weights], [p.value for p in binding.biases]
        pre = x @ w0 + b0
        hidden = _act(activation, pre)
        logits = hidden @ w1 + b1
        d_hidden = weight @ w1.T
        d_pre = _act_pull(activation, d_hidden, pre, hidden)
        want = {"m.w0": x.T @ d_pre, "m.b0": d_pre.sum(axis=0),
                "m.w1": hidden.T @ weight, "m.b1": weight.sum(axis=0)}

        _same_bits(binding([x]).data, logits)  # no tape
        for p in binding.parameters:
            p.zero_grad()
        with T.Tape():
            out = binding([x])
            T.backward(T.reduce_sum(T.mul(out, weight)))
        _same_bits(out.data, logits)
        for p in binding.parameters:
            _same_bits(p.grad, np.zeros(p.shape) + want[p.name])  # the accumulator's 0.0 +

    def test_each_layer_is_one_array(self, monkeypatch):
        binding, seen, relu = _binding("relu"), [], T.relu

        def spy(a, out=None):
            seen.append((a.data, out))
            return relu(a, out=out)

        monkeypatch.setattr(T, "relu", spy)
        binding([np.ones((5, WIDTH))])
        assert len(seen) == 1 and seen[0][1] is seen[0][0]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning",
                            "ignore:overflow:RuntimeWarning")
class TestOut:
    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_out_aliasing_the_operand_gives_the_bytes_of_a_fresh_out(self, halves, activation,
                                                                     rows):
        kernel = getattr(T, activation)
        x = _with_specials(np.random.default_rng(rows), (rows, HIDDEN))
        g = _with_specials(np.random.default_rng(rows + 1), (rows, HIDDEN))
        fresh = kernel(x).data
        _same_bits(fresh, _act(activation, x))
        _same_bits(kernel(x, out=np.empty_like(x)).data, fresh)
        grads = []
        for alias in (False, True):
            operand = T.Parameter("x", x.copy())
            with T.Tape():
                y = kernel(operand, out=operand.value if alias else None)
                assert (y.data is operand.value) is alias
                T.backward(T.reduce_sum(T.mul(y, g)))
            _same_bits(y.data, fresh)
            grads.append(operand.grad)
        _same_bits(grads[1], grads[0])
        _same_bits(grads[0], np.zeros_like(x) + _act_pull(activation, g, x, fresh))

    def test_a_strided_operand_gives_the_contiguous_bytes(self, halves):
        x = _with_specials(np.random.default_rng(9), (HIDDEN, 2000)).T  # F-ordered rows
        for activation in ACTIVATIONS:
            kernel = getattr(T, activation)
            _same_bits(kernel(x).data, _act(activation, np.ascontiguousarray(x)))
            same = x.copy(order="K")
            kernel(same, out=same)
            _same_bits(same, _act(activation, x))

    def test_relu_output_mask_is_its_input_mask(self):
        x = np.concatenate([SPECIALS, np.nextafter(0.0, [1.0, -1.0])])
        out = T.relu(x).data
        np.testing.assert_array_equal(out > 0, x > 0)
        np.testing.assert_array_equal(out > 0, [False, False, True, False, False, True, False,
                                                True, False, True, False, True, False,
                                                True, False])
        g = np.arange(1.0, x.size + 1.0)
        _same_bits(T._pull_relu(g, out), g * (x > 0))


class TestScratch:
    def test_blocks_are_bounded_and_cover_every_row(self, monkeypatch):
        seen = []
        monkeypatch.setattr(T, "_BLOCK_ENTRIES", 1000)

        def kernel(x, t):
            seen.append((len(x), t.shape))
            t[...] = x
            x += t  # a write through the block view lands in the caller's array

        x = np.arange(4100.0).reshape(41, 100)
        T._in_blocks(kernel, [x])
        assert seen == [(10, (10, 100))] * 4 + [(1, (1, 100))]
        _same_bits(x, 2.0 * np.arange(4100.0).reshape(41, 100))
        seen.clear()
        T._in_blocks(kernel, [np.zeros((3, 2500))])  # a row past the bound is its own block
        assert seen == [(1, (1, 2500))] * 3

    @pytest.mark.parametrize("shape", [(212, HIDDEN), (2000, HIDDEN)])
    def test_sigmoid_takes_its_scratch_a_block_at_a_time(self, shape, monkeypatch):
        """A digit step's halves are one block each; a 2000-row scoring pass
        loops over blocks of one scratch per half."""
        monkeypatch.setattr(T, "_blas_threads", lambda: 2)  # both halves here, in turn
        scratch = []
        into = T._sigmoid_into

        def spy(x, out, t):
            scratch.append((len(x), t.size))
            into(x, out, t)

        monkeypatch.setattr(T, "_sigmoid_into", spy)
        T.sigmoid(np.zeros(shape))
        half, per_block = shape[0] // 2, T._BLOCK_ENTRIES // HIDDEN
        assert sum(rows for rows, _ in scratch) == shape[0]
        assert len(scratch) == 2 * -(-half // per_block)
        assert max(size for _, size in scratch) <= max(T._BLOCK_ENTRIES, HIDDEN)


def test_an_untaped_digit_sized_call_holds_little_more_than_one_hidden_layer():
    rows = 10_000
    binding = MlpBinding("digit", MlpSpec((HIDDEN,), "sigmoid"), [784], [None], CLASSES,
                         np.random.default_rng(0))
    x = np.random.default_rng(1).random((rows, 784))
    layer = rows * HIDDEN * 8
    tracemalloc.start()
    try:
        out = binding([x])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.data.shape == (rows, CLASSES)
    assert peak <= 1.25 * layer, f"peak {peak / layer:.2f} hidden layers"


# run in a fresh interpreter, so the count sees this module's heap policy alone
_FAULT_SCRIPT = """
import json, resource, sys
import numpy as np
from dasl import tensor as T
from dasl.interp import MlpBinding
from dasl.lang import MlpSpec
rows, calls = 2000, 60
binding = MlpBinding("vrd", MlpSpec((64,), "relu"), [12, 8, 8], [None, None, None], 18,
                     np.random.default_rng(0))
rng = np.random.default_rng(1)
args = [rng.normal(size=(rows, w)) for w in (12, 8, 8)]

def faults(fn):
    for _ in range(5):
        fn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        fn()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls

def step():
    with T.Tape():
        T.backward(T.reduce_sum(binding(args)))

seen = {"scoring": faults(lambda: binding(args)), "step": faults(step)}
# asked only after the counts, which must see what the import set alone
print(json.dumps({**seen, "policy": T._set_heap_policy()}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="the heap policy is set on glibc only, and ru_minflt is Linux's")
def test_a_loop_of_mlp_calls_stops_faulting():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items()
           if k not in T._HEAP_ENV and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = []
    # glibc's fixed 128 KB threshold, set in the environment, turns the policy
    # off: every MLP array is mmapped again, so the count is live
    for extra in ({}, {"MALLOC_MMAP_THRESHOLD_": "131072"}):
        proc = subprocess.run([sys.executable, "-c", _FAULT_SCRIPT], env={**env, **extra},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    kept, mmapped = runs
    assert kept["policy"] is True and mmapped["policy"] is False
    assert kept["scoring"] < 10 and kept["step"] < 10, kept
    assert mmapped["scoring"] > 100 and mmapped["step"] > 100, mmapped


class TestHeapPolicy:
    @pytest.mark.parametrize("env", [{"MALLOC_MMAP_THRESHOLD_": "131072"},
                                     {"MALLOC_TRIM_THRESHOLD_": "0"},
                                     {"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=4096"},
                                     {"GLIBC_TUNABLES": "glibc.malloc.tcache_count=0:"
                                                        "glibc.malloc.trim_threshold=1"}])
    def test_the_environment_overrides_it(self, monkeypatch, env):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        called = []
        monkeypatch.setattr(T.ctypes, "CDLL", lambda name: called.append(name))
        assert T._set_heap_policy() is False
        assert called == []

    def test_it_is_set_on_glibc_alone(self, monkeypatch):
        for key in (*T._HEAP_ENV, "GLIBC_TUNABLES"):
            monkeypatch.delenv(key, raising=False)
        monkeypatch.setenv("GLIBC_TUNABLES", "glibc.malloc.tcache_count=0")
        glibc = platform.libc_ver()[0] == "glibc" and sys.platform.startswith("linux")
        assert T._set_heap_policy() is glibc

        class Musl:  # a C library without gnu_get_libc_version
            def mallopt(self, *args):
                raise AssertionError("mallopt called off glibc")

        monkeypatch.setattr(T.ctypes, "CDLL", lambda name: Musl())
        assert T._set_heap_policy() is False
