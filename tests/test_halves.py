"""Large kernels in two halves on two CPUs give the bits of one whole call.

Products split their output rows, never the summed dimension, at 48-aligned
cuts; sigmoid, its pull and Adam split their leading axis.  Every check
compares bytes, not values within a tolerance.
"""

import ctypes
import glob
import hashlib
import inspect
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from dasl import experiments
from dasl import tensor as T
from dasl import train as TR
from dasl.compiler import compile
from dasl.interp import bind_theory, build_triples


def _openblas_setter():
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                       "openblas_set_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return fn
    return None


@pytest.fixture
def one_blas_thread():
    """BLAS on one thread for the test, as the benchmark pins it: products split only then."""
    setter, before = _openblas_setter(), T._blas_threads()
    if setter is None or before == 0:
        pytest.skip("numpy's OpenBLAS is not found, so no product splits")
    setter(1)
    try:
        yield
    finally:
        setter(before)


@pytest.fixture
def splits(monkeypatch):
    """The (cut, n) of every `_halves` call the test makes."""
    calls, halves = [], T._halves

    def spy(kernel, cut, n):
        calls.append((cut, n))
        halves(kernel, cut, n)

    monkeypatch.setattr(T, "_halves", spy)
    return calls


def _same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _layouts(rng, m, k, n, layout):
    """a (m, k) and b (k, n): C-ordered, or a or b the transpose of a C-ordered array."""
    a = rng.normal(size=(k, m)).T if layout == "a.T" else rng.normal(size=(m, k))
    b = rng.normal(size=(n, k)).T if layout == "b.T" else rng.normal(size=(k, n))
    return a, b


def _sweep_shapes():
    rng = np.random.default_rng(3232)
    shapes = []
    for i in range(210):
        m, k = int(rng.integers(96, 2200)), int(rng.integers(16, 1000))
        n = max(2, -(-int(T._SPLIT_MACS * rng.uniform(1.0, 1.25)) // (m * k)))
        shapes.append((m, k, n, ("C", "a.T", "b.T")[i % 3]))
    return shapes


# every product of at least _SPLIT_MACS multiply-adds that perfbench runs (the
# tier-1 tests run none in process): the 784-512 layer's forward over a
# 212-row step and over a 2000-row scoring pass, and its weight gradient,
# whose a.T operand is the step's input
RUN_SHAPES = [(212, 784, 512, "C"), (2000, 784, 512, "C"), (784, 212, 512, "a.T")]


class TestProducts:
    @pytest.mark.slow
    def test_sweep_of_split_products_is_one_matmul(self, one_blas_thread, splits):
        rng = np.random.default_rng(0)
        shapes = _sweep_shapes() + RUN_SHAPES
        for m, k, n, layout in shapes:
            assert m * k * n >= T._SPLIT_MACS
            a, b = _layouts(rng, m, k, n, layout)
            want = np.matmul(a, b)
            _same_bits(T._product(a, b), want)
            if layout == "a.T":  # the weight gradient a.T @ g: W's rows split, not the batch
                _same_bits(T._transpose_matmul(b, a.T), want)
            if layout == "b.T":  # the input gradient g @ w.T
                _same_bits(T._matmul_by_transpose(a, b.T), want)
            if layout == "C":
                bias = rng.normal(size=n)
                _same_bits(T.affine(a, b, bias).data, want + bias)
        assert len(splits) == 2 * len(shapes)  # _product, then the pull or affine
        assert all(cut % T._ROW_ALIGN == 0 and 0 < cut <= rows // 2 for cut, rows in splits)

    def test_below_the_threshold_products_stay_whole(self, one_blas_thread, splits):
        rng = np.random.default_rng(1)
        # relations' largest: 2000 vrd rows through a 12-feature, 181-wide layer
        for m, k, n in [(2000, 12, 181), (96, 512, 340), (95, 1000, 1000)]:
            a, b = _layouts(rng, m, k, n, "C")
            _same_bits(T._product(a, b), a @ b)
        assert splits == []

    def test_two_blas_threads_leave_products_whole_and_the_worker_idle(self, splits,
                                                                          monkeypatch):
        monkeypatch.setattr(T, "_blas_threads", lambda: 2)
        a, b = _layouts(np.random.default_rng(2), 212, 784, 512, "C")
        T._product(a, b)
        assert splits == []
        assert T._pool() is None  # BLAS's own threads hold the other CPU


SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0, 1e-300, -1e-300,
                     36.7, -36.7, 709.5, -745.2])


def _with_specials(rng, shape, scale=8.0):
    x = scale * rng.normal(size=shape)
    x.reshape(-1)[rng.choice(x.size, 40 * SPECIALS.size, replace=False)] = np.repeat(SPECIALS, 40)
    return x


class TestElementwise:
    def test_sigmoid_in_halves_is_the_whole_kernel(self, splits):
        rng = np.random.default_rng(3)
        for shape in [(212, 512), (2000, 512), (3, 40000), (T._SPLIT_ENTRIES,)]:
            x = _with_specials(rng, shape)
            _same_bits(T.sigmoid(x).data, T._sigmoid_of(x, np.exp(-np.abs(x))))
        assert len(splits) == 4

    def test_sigmoid_pull_in_halves_is_the_whole_formula(self, splits):
        rng = np.random.default_rng(4)
        for shape in [(212, 512), (2000, 512)]:
            g, out = _with_specials(rng, shape), _with_specials(rng, shape, 0.5)
            _same_bits(T._pull_sigmoid(g, out), g * out * (1.0 - out))
        assert len(splits) == 2

    def test_small_and_0d_arrays_stay_whole(self, splits):
        for x in [np.array(-0.0), np.array(np.nan), SPECIALS, np.zeros((64, 12))]:
            _same_bits(T.sigmoid(x).data, T._sigmoid_of(x, np.exp(-np.abs(x))))
            _same_bits(T._pull_sigmoid(x, x), x * x * (1.0 - x))
        assert splits == []


def _adam_params(rng, sizes):
    params = []
    for i, size in enumerate(sizes):
        p = T.Parameter(f"p{i}", _with_specials(rng, (size,), 1.0) if size > 600 else
                        rng.normal(size=size))
        p.grad[...] = rng.normal(size=size)
        p.grad[::97] = -0.0
        params.append(p)
    return params


class TestAdam:
    @pytest.mark.parametrize("sizes", [(407050,), (TR._CHUNK * 4,), (5, TR._CHUNK * 3 + 1),
                                       (401920, 5120, 10, 5120)])
    def test_adam_in_halves_is_adam_whole(self, splits, monkeypatch, sizes):
        runs = []
        for split in (True, False):
            if not split:
                monkeypatch.setattr(TR, "_SPLIT_BLOCKS", 1 << 62)
            params, state = _adam_params(np.random.default_rng(5), sizes), TR.AdamState(lr=1e-2)
            for _ in range(3):
                TR.adam_step(params, state)
            runs.append((T.pack(params).values.copy(), state.m, state.v))
        for got, want in zip(*runs):
            _same_bits(got, want)
        assert len(splits) == 3  # the three split steps, and no more

    def test_fewer_blocks_stay_whole(self, splits):
        params = _adam_params(np.random.default_rng(6), (TR._CHUNK * 3,))
        TR.adam_step(params, TR.AdamState())
        assert splits == []


# ---------------------------------------------------------------------------
# a digit-shaped run: the 784-512-10 MLP at 212 rows a step


def _digit_plan():
    rng = np.random.default_rng(7)
    images, labels = rng.random((400, 784)), np.tile(np.arange(10), 40)
    theory = experiments.mnist_theory(True)
    labeled = experiments.balanced_subset(labels, 2, np.random.default_rng(8))
    mask = np.zeros(len(labels), dtype=bool)
    mask[labeled] = True
    triples = build_triples(images[~mask], labels[~mask], 32, seed=9)  # 5 batches of 64
    bound = bind_theory(theory, data={"Labeled": (images[labeled], labels[labeled]),
                                      "Triples": triples}, seed=10)
    return compile(theory, bound, batch_size=64, seed=11)


def _digit_run(iterations):
    plan = _digit_plan()
    state = TR.train(plan, TR.TrainConfig(iterations=iterations, batch_size=64, lr=1e-3,
                                          cadence=1000))
    return plan, state


class TestDigitRun:
    def test_split_run_is_the_whole_run_bit_for_bit(self, one_blas_thread, splits, monkeypatch):
        _, on = _digit_run(4)
        split_calls = len(splits)
        monkeypatch.setattr(T, "_SPLIT_MACS", 1 << 62)
        monkeypatch.setattr(T, "_SPLIT_ENTRIES", 1 << 62)
        monkeypatch.setattr(TR, "_SPLIT_BLOCKS", 1 << 62)
        _, off = _digit_run(4)
        assert len(splits) == split_calls
        # the probe before the first step: its product and sigmoid; then per
        # step the product, the sigmoid, its pull, the weight gradient and Adam
        assert split_calls == 2 + 4 * 5
        assert [x.hex() for x in on.loss_history] == [x.hex() for x in off.loss_history]
        for p, q in zip(on.parameters, off.parameters):
            assert p.name == q.name
            _same_bits(p.value, q.value)
        _same_bits(on.adam.m, off.adam.m)
        _same_bits(on.adam.v, off.adam.v)

    def test_one_cpu_runs_both_halves_here_with_the_same_bytes(self, one_blas_thread,
                                                               monkeypatch):
        _, two = _digit_run(2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        ran = []
        T._halves(lambda rows: ran.append((rows, threading.get_ident())), 3, 7)
        assert ran == [(slice(0, 3), threading.get_ident()), (slice(3, 7), threading.get_ident())]
        _, one = _digit_run(2)
        assert [x.hex() for x in one.loss_history] == [x.hex() for x in two.loss_history]
        for p, q in zip(one.parameters, two.parameters):
            _same_bits(p.value, q.value)

    def test_the_worker_runs_the_first_half_on_two_cpus(self, one_blas_thread):
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("one CPU: both halves run on the caller")
        ran = {}
        T._halves(lambda rows: ran.update({rows.start: threading.get_ident()}), 3, 7)
        assert ran[3] == threading.get_ident() != ran[0]

    def test_an_error_in_a_half_waits_for_the_other_and_propagates(self):
        ran = []

        def kernel(rows):
            if rows.start:
                raise ZeroDivisionError("second half")
            ran.append(rows)

        with pytest.raises(ZeroDivisionError, match="second half"):
            T._halves(kernel, 2, 4)
        assert ran == [slice(0, 2)]


def test_more_callers_than_cpus_get_the_bits_of_one_call(one_blas_thread, monkeypatch):
    monkeypatch.setattr(T, "_worker", None)  # the callers race to make the pool
    rng = np.random.default_rng(13)
    a, b, x = rng.normal(size=(300, 400)), rng.normal(size=(400, 200)), _with_specials(rng, (300, 512))
    want = (a @ b).tobytes(), T._sigmoid_of(x, np.exp(-np.abs(x))).tobytes()
    wrong, interval = [], sys.getswitchinterval()

    def caller():
        for _ in range(10):
            if (T._product(a, b).tobytes(), T._sigmoid_np(x).tobytes()) != want:
                wrong.append(threading.get_ident())

    threads = [threading.Thread(target=caller) for _ in range(4)]
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


class TestWorkerStaysOffTheTrace:
    def test_records_and_public_kernels_run_on_the_calling_thread(self, one_blas_thread,
                                                                  splits, monkeypatch):
        threads = []

        def spied(fn, name):
            def wrapper(*args, **kwargs):
                threads.append((name, threading.get_ident()))
                return fn(*args, **kwargs)
            return wrapper

        public = [name for name, fn in vars(T).items() if not name.startswith("_")
                  and inspect.isfunction(fn) and fn.__module__ == T.__name__]
        assert {"affine", "sigmoid", "backward", "pack", "conjoin_axis"} <= set(public)
        for name in public:
            monkeypatch.setattr(T, name, spied(getattr(T, name), name))
        monkeypatch.setattr(T.Tape, "record", spied(T.Tape.record, "Tape.record"))
        plan = _digit_plan()
        TR.train(plan, TR.TrainConfig(iterations=1, batch_size=64, cadence=1000))
        assert len(splits) == 2 + 5
        assert {name for name, _ in threads} >= {"affine", "sigmoid", "backward", "Tape.record"}
        assert {ident for _, ident in threads} == {threading.get_ident()}


_FORK_SHAPE = (200, 300, 300)


def _fork_product():
    m, k, n = _FORK_SHAPE
    rng = np.random.default_rng(12)
    return T._product(rng.normal(size=(m, k)), rng.normal(size=(k, n)))


def _child(conn):
    out = _fork_product()
    conn.send((hashlib.sha256(out.tobytes()).hexdigest(),
               T._worker is not None and T._worker[0] == os.getpid()))


def test_a_forked_child_makes_its_own_worker(one_blas_thread):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: no worker thread to inherit")
    assert np.prod(_FORK_SHAPE) >= T._SPLIT_MACS
    want = hashlib.sha256(_fork_product().tobytes()).hexdigest()
    assert T._worker is not None and T._worker[0] == os.getpid()
    ctx = multiprocessing.get_context("fork")
    ours, theirs = ctx.Pipe()
    child = ctx.Process(target=_child, args=(theirs,))
    child.start()
    try:
        assert ours.poll(60), "the forked child hung on its split product"
        assert ours.recv() == (want, True)
    finally:
        child.join(5)
        if child.is_alive():
            child.kill()


# run in a fresh interpreter: pytest itself may have loaded concurrent.futures
_POOL_IMPORT_SCRIPT = """
import importlib, json, os, pkgutil, sys
import dasl
for info in pkgutil.walk_packages(dasl.__path__, "dasl."):
    importlib.import_module(info.name)
at_import = "concurrent.futures" in sys.modules
import numpy as np
from dasl import tensor as T
calls, halves = [], T._halves
T._halves = lambda kernel, cut, n: (calls.append([cut, n]), halves(kernel, cut, n))[1]
rng = np.random.default_rng(12)
a, b = rng.normal(size=(200, 300)), rng.normal(size=(300, 300))
same = T._product(a, b).tobytes() == np.matmul(a, b).tobytes()
print(json.dumps({"at_import": at_import, "blas": T._blas_threads(),
                  "cpus": len(os.sched_getaffinity(0)), "calls": calls, "same": same,
                  "after": "concurrent.futures" in sys.modules}))
"""


def test_the_pool_module_loads_with_the_first_worker_only():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")  # one BLAS thread, as the benchmark pins it
    proc = subprocess.run([sys.executable, "-c", _POOL_IMPORT_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["at_import"] is False  # no dasl module loads it at import
    if seen["blas"] != 1:
        pytest.skip("numpy's OpenBLAS is not found, so no product splits")
    assert 200 * 300 * 300 >= T._SPLIT_MACS
    assert seen["calls"] == [[96, 200]] and seen["same"] is True
    assert seen["after"] is (seen["cpus"] >= 2)  # one CPU makes no worker, so no pool
