"""Dense float64 tensors with tape-based reverse-mode differentiation.

A Tape records every operation in execution order (hence already
topologically sorted); backward() replays it once in reverse.  Tapes are
scoped: training code opens a fresh tape per step, because samplers return
different data on each invocation and the graph is rebuilt.  Parameters
live outside any tape and join one lazily the first time an op touches
them while it is active.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import DaslError, InvalidValue

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

_LOG_FLOOR = 1e-300
_EXP_MAX = 709.0  # exp saturates here instead of overflowing to inf


class ShapeMismatch(Exception):
    def __init__(self, *shapes):
        super().__init__(f"incompatible shapes: {shapes}")
        self.shapes = shapes


class AxisOutOfRange(Exception):
    pass


class IndexOutOfRange(Exception):
    pass


class NotScalar(Exception):
    pass


class DetachedNode(Exception):
    pass


class NonFiniteGradient(DaslError):
    pass


class DuplicateParameter(DaslError):
    pass


# ---------------------------------------------------------------------------
# tape


class _TapeStack(threading.local):
    def __init__(self):
        self.stack: list = []  # runs once per thread, on first access


_tls = _TapeStack()


def active_tape():
    stack = _tls.stack
    return stack[-1] if stack else None


class Tape:
    """Recorded forward pass; one per training step, single-threaded."""

    def __init__(self):
        self._records: list[tuple[int, tuple]] = []  # (out node, inputs; see _make)
        self._next_node = 0
        self._param_nodes: dict[Parameter, int] = {}
        self.consumed = False

    def __enter__(self) -> "Tape":
        _tls.stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _tls.stack.pop()

    def new_node(self) -> int:
        nid = self._next_node
        self._next_node += 1
        return nid

    def record(self, out_node: int, inputs: tuple) -> None:
        self._records.append((out_node, inputs))

    def param_node(self, p: "Parameter") -> int:
        nid = self._param_nodes.get(p)
        if nid is None:
            nid = self._param_nodes[p] = self.new_node()
        return nid


class Tensor:
    """Shape-carrying float64 array, optionally tracked on the active tape."""

    __slots__ = ("data", "node", "tape")

    def __init__(self, data, node: int | None = None, tape: Tape | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.node = node
        self.tape = tape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor({self.data!r})"


@dataclass(eq=False)
class Parameter:
    """Named trainable tensor with a persistent gradient accumulator.

    Parameters compare and hash by identity, so they can key a dict.  The
    value is C-contiguous, so a flat view of it writes through.  `pack`
    rebinds value and grad to views of a shared `Store`: read them from the
    Parameter, and never hold either array across a pack."""

    name: str
    value: np.ndarray
    grad: np.ndarray = field(init=False)
    store: Store | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=np.float64, order="C")
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape


class Store:
    """One float64 value buffer and one gradient buffer that `params` tile in order.

    Each parameter's value and grad are C-contiguous views of its slice, so
    one elementwise op over a buffer covers every parameter."""

    __slots__ = ("params", "values", "grads", "_layout")

    def __init__(self, params: tuple[Parameter, ...]):
        named: dict[str, Parameter] = {}
        for p in params:
            if p.name in named:
                what = "appears twice in" if named[p.name] is p else "names two parameters of"
                raise DuplicateParameter(f"parameter {p.name!r} {what} the list")
            named[p.name] = p
        self.params, self._layout, lo = params, [], 0
        for p in params:
            self._layout.append((lo, lo + p.value.size, p.value.shape))
            lo += p.value.size
        self.values, self.grads = np.empty(lo), np.empty(lo)
        for p, value, grad in zip(params, self.views(self.values), self.views(self.grads)):
            value[...], grad[...] = p.value, p.grad
            p.value, p.grad, p.store = value, grad, self

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """`flat`, laid out like the buffers, as one view per parameter, shaped like it."""
        return [flat[lo:hi].reshape(shape) for lo, hi, shape in self._layout]


def pack(params) -> Store:
    """Lay `params` out, in list order, in one value buffer and one gradient buffer.

    Copies each current value and gradient in and rebinds the Parameter's
    value and grad to views of them.  A list that already tiles one store
    in order gets that store back, with nothing copied.  A Parameter listed
    twice, or two that share a name, raise DuplicateParameter.
    """
    params = tuple(params)
    store = params[0].store if params else None
    if (store is not None and store.params == params
            and all(p.value.base is store.values and p.grad.base is store.grads
                    for p in params)):
        return store
    return Store(params)


def _ensure(x) -> tuple[np.ndarray, int | None]:
    """Coerce an operand to (data, node id), enrolling Parameters on the tape."""
    if isinstance(x, Tensor):
        if x.node is not None and x.tape is not active_tape():
            if active_tape() is not None:
                raise DetachedNode("tensor from another tape used while a tape records")
            return x.data, None  # no tape records: nothing to differentiate
        return x.data, x.node
    if isinstance(x, Parameter):
        tape = active_tape()
        return x.value, (tape.param_node(x) if tape is not None else None)
    return np.asarray(x, dtype=np.float64), None


def _make(data: np.ndarray, *inputs: tuple) -> Tensor:
    """Create the output tensor, recording how to pull gradients if needed.

    Each input is (node id, pull, *saved); pull(g, *saved) returns the
    gradient contribution for that input given the output gradient g.  A
    kernel with one pull for several inputs gives a tuple of node ids
    instead, and its pull returns one contribution per id, in that order.
    Pulls are module-level functions, not per-op closures: a training step
    records thousands of ops, and closures made the garbage collector run
    several times per step.
    """
    stack = _tls.stack
    if not stack:
        return Tensor(data)
    live = inputs
    for item in inputs:
        if item[0] is None:
            live = tuple(item for item in inputs if item[0] is not None)
            if not live:
                return Tensor(data)
            break
    tape = stack[-1]
    out = tape.new_node()
    tape.record(out, live)
    return Tensor(data, out, tape)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that broadcasting stretched."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] > 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _unbroadcast_neg(g, shape):
    return _unbroadcast(-g, shape)


def _unbroadcast_times(g, factor, shape):
    return _unbroadcast(g * factor, shape)


def _check_broadcast(*shapes):
    first = shapes[0]
    for s in shapes:
        if s != first:
            break
    else:
        return first
    try:
        return np.broadcast_shapes(*shapes)
    except ValueError:
        raise ShapeMismatch(*shapes) from None


# ---------------------------------------------------------------------------
# two halves on two CPUs
#
# A large kernel fills one preallocated output in two row ranges, the first
# on one persistent worker thread and the second on the caller.  A product
# splits its output rows, never the dimension it sums, so every output entry is
# the same operations on the same operands as in one whole call, and the bits
# depend only on the shapes and BLAS's thread count, never on the CPU count.
# The worker runs numpy and this module's private helpers only: it never
# records on a tape (which is thread-local) and never calls a public dasl
# function (which a tracer may wrap).

# A product splits at M*K*N >= 2**24 multiply-adds: about 0.6 ms of one-thread
# GEMM on a 2-CPU Xeon (numpy's OpenBLAS 0.3.31, SkylakeX core), against a
# handoff of tens of us.  A 784-512 layer's forward and weight gradient split
# (212 rows: 3.1 -> 1.8 and 3.1 -> 1.6 ms); every product of the relations
# theories (at most 4.4M) stays whole.
_SPLIT_MACS = 1 << 24
# That OpenBLAS tiles 24 rows per double-precision micro-kernel.  On 300 random
# shapes of 2**24 to 2**25 multiply-adds, a third each with C-ordered, a.T and
# b.T operands, cuts at M // 2 changed the bits of 51 products and cuts at
# multiples of 48 of none (nor of 300 more).  In an earlier sweep, cuts at
# multiples of 24 changed 3 of 298, all with a half of 24 rows.
_ROW_ALIGN = 48
# An elementwise kernel splits its leading axis in half from 2**16 entries on.
# Measured there on the same box: sigmoid 475 -> 395 us, its pull 300 -> 285
# us; at 2**15 the pull lost (133 -> 150 us).  The 212 x 512 hidden layer of a
# digit step splits; relations' and the oracle's arrays stay far below.
_SPLIT_ENTRIES = 1 << 16

_worker: tuple[int, ThreadPoolExecutor] | None = None  # (pid that made it, the pool)


def _pool() -> ThreadPoolExecutor | None:
    """The one worker thread of this process, made on first use; None on one CPU
    and while BLAS runs threads of its own, which hold (and spin on) the others."""
    global _worker
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if (cpus or 1) < 2 or _blas_threads() > 1:
        return None
    if _worker is None or _worker[0] != os.getpid():  # a forked child makes its own
        from concurrent.futures import ThreadPoolExecutor  # loaded with the first worker only

        _worker = os.getpid(), ThreadPoolExecutor(max_workers=1)
    return _worker[1]


def _halves(kernel, cut: int, n: int) -> None:
    """kernel(slice(0, cut)) on the worker thread and kernel(slice(cut, n)) here,
    waiting for the worker in a finally; without a worker both run here in turn."""
    pool = _pool()
    if pool is None:
        kernel(slice(0, cut))
        kernel(slice(cut, n))
        return
    first = pool.submit(kernel, slice(0, cut))
    try:
        kernel(slice(cut, n))
    finally:
        first.result()


@functools.cache
def _openblas_count():
    """numpy's OpenBLAS thread-count function, found as perfbench finds it, once
    per process; None without OpenBLAS."""
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn
    return None


def _blas_threads() -> int:
    """OpenBLAS's own thread count, about 1 us a read; 0 (unknown) without OpenBLAS."""
    count = _openblas_count()
    return 0 if count is None else int(count())


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-D operands; from _SPLIT_MACS multiply-adds on, while BLAS runs
    one thread, as two _ROW_ALIGN-aligned halves of the output rows."""
    (m, k), n = a.shape, b.shape[1]
    cut = m // 2 // _ROW_ALIGN * _ROW_ALIGN
    if not cut or m * k * n < _SPLIT_MACS or _blas_threads() != 1:
        return a @ b
    out = np.empty((m, n))
    _halves(lambda rows: np.matmul(a[rows], b, out=out[rows]), cut, m)
    return out


def _by_rows(kernel, *arrays) -> None:
    """kernel(*arrays), in two halves of their leading axis from _SPLIT_ENTRIES
    entries on."""
    n = len(arrays[0]) if arrays[0].size >= _SPLIT_ENTRIES else 0
    if n < 2:
        kernel(*arrays)
    else:
        _halves(lambda rows: kernel(*[a[rows] for a in arrays]), n // 2, n)


# ---------------------------------------------------------------------------
# elementwise kernels


def _broadcasting(op, *datas) -> np.ndarray:
    """op(*datas), numpy's error for shapes that do not broadcast raised as ShapeMismatch."""
    try:
        return op(*datas)
    except ValueError:
        raise ShapeMismatch(*[d.shape for d in datas]) from None


def add(a, b) -> Tensor:
    (da, na), (db, nb) = _ensure(a), _ensure(b)
    return _make(_broadcasting(np.add, da, db), (na, _unbroadcast, da.shape),
                 (nb, _unbroadcast, db.shape))


def sub(a, b) -> Tensor:
    (da, na), (db, nb) = _ensure(a), _ensure(b)
    return _make(_broadcasting(np.subtract, da, db), (na, _unbroadcast, da.shape),
                 (nb, _unbroadcast_neg, db.shape))


def mul(a, b) -> Tensor:
    (da, na), (db, nb) = _ensure(a), _ensure(b)
    return _make(_broadcasting(np.multiply, da, db), (na, _unbroadcast_times, db, da.shape),
                 (nb, _unbroadcast_times, da, db.shape))


def neg(a) -> Tensor:
    da, na = _ensure(a)
    return _make(-da, (na, np.negative))


def exp(a) -> Tensor:
    da, na = _ensure(a)
    out = np.exp(np.minimum(da, _EXP_MAX))
    return _make(out, (na, np.multiply, out))


def expm1(a) -> Tensor:
    da, na = _ensure(a)
    capped = np.minimum(da, _EXP_MAX)
    return _make(np.expm1(capped), (na, _pull_expm1, capped))


def _pull_expm1(g, x):
    return g * np.exp(x)


def log(a) -> Tensor:
    da, na = _ensure(a)
    clamped = np.maximum(da, _LOG_FLOOR)
    return _make(np.log(clamped), (na, np.divide, clamped))


def sqrt(a) -> Tensor:
    da, na = _ensure(a)
    out = np.sqrt(da)
    return _make(out, (na, _pull_sqrt, out))


def _pull_sqrt(g, out):
    return g / (2.0 * np.maximum(out, _LOG_FLOOR))


def sigmoid(a) -> Tensor:
    da, na = _ensure(a)
    out = _sigmoid_np(da)
    return _make(out, (na, _pull_sigmoid, out))


def _pull_sigmoid(g, out):
    res = np.empty_like(out)
    _by_rows(_pull_sigmoid_into, g, out, res, np.empty_like(out))
    return res


def _pull_sigmoid_into(g, out, res, t):
    """res = g * out * (1 - out), t the scratch for 1 - out."""
    np.multiply(g, out, out=res)
    np.subtract(1.0, out, out=t)
    res *= t


def logsigmoid(a) -> Tensor:
    da, na = _ensure(a)
    x = -da
    sp, t = _softplus_parts(x)
    return _make(-sp, (na, _times_sigmoid, x, t))


def softplus(a) -> Tensor:
    da, na = _ensure(a)
    sp, t = _softplus_parts(da)
    return _make(sp, (na, _times_sigmoid, da, t))


def _times_sigmoid(g, x, t):
    return g * _sigmoid_of(x, t)


def softplus_neg_sum(a, shape: tuple = ()) -> Tensor:
    """sum(softplus(-a)) over `a` broadcast to `shape`: the chain add onto zeros
    of `shape`, neg, softplus, reduce_sum, as one kernel and one record.

    The add is left out: it only turns -0.0 into 0.0, and softplus and its
    sigmoid agree on the two.
    """
    da, na = _ensure(a)
    full = _check_broadcast(da.shape, shape)
    x = np.negative(da if full == da.shape else np.broadcast_to(da, full))
    sp, t = _softplus_parts(x)
    return _make(sp.sum(), (na, _pull_softplus_neg_sum, x, t, da.shape))


def _pull_softplus_neg_sum(g, x, t, shape):
    return _unbroadcast(np.negative(g * _sigmoid_of(x, t)), shape)


def relu(a) -> Tensor:
    da, na = _ensure(a)
    return _make(np.maximum(da, 0.0), (na, _pull_relu, da))


def _pull_relu(g, da):
    return g * (da > 0)


def tanh(a) -> Tensor:
    da, na = _ensure(a)
    out = np.tanh(da)
    return _make(out, (na, _pull_tanh, out))


def _pull_tanh(g, out):
    return g * (1.0 - out * out)


def clamp_max(a, cap: float) -> Tensor:
    """min(a, cap); subgradient passes where a < cap."""
    da, na = _ensure(a)
    return _make(np.minimum(da, cap), (na, _pull_clamp_max, da, cap))


def _pull_clamp_max(g, da, cap):
    return g * (da <= cap)


def where(cond, a, b) -> Tensor:
    """Select a where cond else b; cond is a constant boolean array."""
    cond = np.asarray(cond, dtype=bool)
    (da, na), (db, nb) = _ensure(a), _ensure(b)
    return _make(_broadcasting(np.where, cond, da, db), (na, _unbroadcast_times, cond, da.shape),
                 (nb, _unbroadcast_times, ~cond, db.shape))


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    _by_rows(_sigmoid_into, x, out, np.empty_like(x))
    return out


def _sigmoid_into(x, out, t):
    """out = _sigmoid_of(x, t = exp(-|x|)), through its ufuncs in its order, in place."""
    np.abs(x, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.maximum(t, x >= 0, out=out)
    t += 1.0
    out /= t


def _sigmoid_of(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sigmoid(x) given t = exp(-|x|), which softplus already computed.

    The numerator is 1 where x >= 0 and t elsewhere; since 0 <= t <= 1,
    max(t, x >= 0) gives it bit for bit, several times faster than np.where."""
    return np.maximum(t, x >= 0) / (1.0 + t)


def _softplus_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """softplus(x) and the t = exp(-|x|) it was built from."""
    t = np.exp(-np.abs(x))
    return np.maximum(x, 0.0) + np.log1p(t), t


# ---------------------------------------------------------------------------
# matmul / reductions / indexing


def matmul(a, b) -> Tensor:
    (da, na), (db, nb) = _ensure(a), _ensure(b)
    if da.ndim != 2 or db.ndim != 2 or da.shape[1] != db.shape[0]:
        raise ShapeMismatch(da.shape, db.shape)
    return _make(da @ db, (na, _matmul_by_transpose, db), (nb, _transpose_matmul, da))


def affine(h, w, b) -> Tensor:
    """h @ w + b, the bias added in place into the fresh product: one record, one array."""
    (dh, nh), (dw, nw), (db, nb) = _ensure(h), _ensure(w), _ensure(b)
    if dh.ndim != 2 or dw.ndim != 2 or dh.shape[1] != dw.shape[0]:
        raise ShapeMismatch(dh.shape, dw.shape)
    out = _product(dh, dw)
    if _check_broadcast(out.shape, db.shape) != out.shape:
        raise ShapeMismatch(out.shape, db.shape)
    out += db
    return _make(out, (nh, _matmul_by_transpose, dw), (nw, _transpose_matmul, dh),
                 (nb, _unbroadcast, db.shape))


def _matmul_by_transpose(g, b):
    return _product(g, b.T)


def _transpose_matmul(g, a):
    return _product(a.T, g)


def _check_axis(data: np.ndarray, axis: int | None) -> None:
    if axis is None:
        return
    if not -data.ndim <= axis < data.ndim:
        raise AxisOutOfRange(f"axis {axis} out of range for rank {data.ndim}")


def reduce_sum(a, axis: int | None = None) -> Tensor:
    da, na = _ensure(a)
    _check_axis(da, axis)
    return _make(da.sum(axis=axis), (na, _pull_sum, da.shape, axis))


def _pull_sum(g, shape, axis):
    full = np.empty(shape)
    full[...] = g if axis is None else np.expand_dims(g, axis)
    return full


def reduce_mean(a, axis: int | None = None) -> Tensor:
    da, na = _ensure(a)
    _check_axis(da, axis)
    n = da.size if axis is None else da.shape[axis]
    return _make(da.mean(axis=axis), (na, _pull_mean, da.shape, axis, n))


def _pull_mean(g, shape, axis, n):
    full = np.empty(shape)
    full[...] = (g if axis is None else np.expand_dims(g, axis)) / n
    return full


def reduce_max(a, axis: int | None = None) -> Tensor:
    da, na = _ensure(a)
    _check_axis(da, axis)
    if axis is None:
        out = da.max()
        hot = np.zeros_like(da)
        hot[np.unravel_index(np.argmax(da), da.shape)] = 1.0
        return _make(out, (na, np.multiply, hot))
    out = da.max(axis=axis)
    # ties route to the first maximum for determinism
    idx = np.expand_dims(np.argmax(da, axis=axis), axis)
    hot = np.zeros_like(da)
    np.put_along_axis(hot, idx, 1.0, axis)
    return _make(out, (na, _expand_times, axis, hot))


def _expand_times(g, axis, factor):
    return np.expand_dims(g, axis) * factor


def logsumexp(a, axis: int | None = None) -> Tensor:
    """Max-shifted log-sum-exp; exact under uniform shifts."""
    da, na = _ensure(a)
    _check_axis(da, axis)
    out, shifted, total = _logsumexp_parts(da, axis)
    # the softmax is taken in the pull, so a pass without a tape never divides
    if axis is None:
        return _make(out.reshape(()), (na, _pull_logsumexp, None, shifted, total))
    return _make(np.squeeze(out, axis), (na, _pull_logsumexp, axis, shifted, total))


def _logsumexp_parts(da, axis):
    """The log-sum-exp of `da` along `axis`, kept as an axis of 1, and the
    (shifted, total) its pull needs."""
    m = da.max(axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    shifted = np.exp(da - m)
    total = shifted.sum(axis=axis, keepdims=True)
    return np.log(total) + m, shifted, total


def _pull_logsumexp(g, axis, shifted, total):
    soft = shifted / total
    return g * soft if axis is None else np.expand_dims(g, axis) * soft


def gather(table, indices) -> Tensor:
    """Rows of a 2-D table; backward scatter-adds into the table gradient."""
    dt, nt = _ensure(table)
    idx = np.asarray(indices)
    if dt.ndim != 2:
        raise ShapeMismatch(dt.shape)
    if idx.size and (idx.min() < 0 or idx.max() >= dt.shape[0]):
        raise IndexOutOfRange(f"index outside [0, {dt.shape[0]})")
    return _make(dt[idx], (nt, _pull_gather, dt, idx))


def _pull_gather(g, table, idx):
    out = np.zeros_like(table)
    np.add.at(out, idx, g)
    return out


def concat(parts: list, axis: int = -1) -> Tensor:
    pairs = [_ensure(p) for p in parts]
    datas = [d for d, _ in pairs]
    out = np.concatenate(datas, axis=axis)
    offsets = np.cumsum([0] + [d.shape[axis] for d in datas])
    return _make(out, *[(n, _pull_slice, axis, offsets[i], offsets[i + 1])
                        for i, (_, n) in enumerate(pairs)])


def write_columns(out: np.ndarray, parts) -> Tensor:
    """`out`, a (rows, width) buffer, with each (x, lo) of `parts` written into its
    columns from lo on; the gradient reaches each x through its columns, as
    `concat`'s does.  One record, none when no x is on the tape."""
    inputs = []
    for x, lo in parts:
        d, n = _ensure(x)
        hi = lo + d.shape[1]
        out[:, lo:hi] = d
        inputs.append((n, _pull_slice, -1, lo, hi))
    return _make(out, *inputs)


def _pull_slice(g, axis, lo, hi):
    sl = [slice(None)] * g.ndim
    sl[axis] = slice(lo, hi)
    return g[tuple(sl)]


def slice_rows(t, lo: int, hi: int) -> Tensor:
    """Rows lo..hi-1 of t's first axis; backward writes into zeros of t's shape."""
    dt, nt = _ensure(t)
    return _make(dt[lo:hi], (nt, _pull_rows, dt.shape, lo, hi))


def _pull_rows(g, shape, lo, hi):
    full = np.zeros(shape)
    full[lo:hi] = g
    return full


def reshape(t, shape) -> Tensor:
    dt, nt = _ensure(t)
    if int(np.prod(shape)) != dt.size:
        raise ShapeMismatch(dt.shape, tuple(shape))
    return _make(dt.reshape(shape), (nt, np.reshape, dt.shape))


def _class_flat(shape: tuple, index) -> np.ndarray:
    """Flat positions of t[..., index] in a C-ordered t of `shape`, classes last.

    The index broadcasts against t's leading axes, and the result has their
    broadcast shape: t's rows repeat along axes the index spans and t lacks.
    """
    idx = np.asarray(index)
    lead, n = shape[:-1], shape[-1]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexOutOfRange(f"class index outside [0, {n})")
    _check_broadcast(lead, idx.shape)
    return np.arange(0, math.prod(lead) * n, n).reshape(lead) + idx.astype(np.int64, copy=False)


def select_class(t, index) -> Tensor:
    """t[..., index], the index broadcast against t's leading axes; one flat take
    forward, a scatter-add backward."""
    dt, nt = _ensure(t)
    flat = _class_flat(dt.shape, index)
    return _make(dt.reshape(-1).take(flat), (nt, _pull_select, dt.shape, flat))


def _pull_select(g, shape, flat):
    return np.bincount(flat.reshape(-1), np.reshape(g, -1), math.prod(shape)).reshape(shape)


def mask_class(t, index, fill: float) -> Tensor:
    """t with t[..., index] replaced by a constant, the index broadcast against t's
    leading axes as in `select_class`; gradient is zero at the hole."""
    dt, nt = _ensure(t)
    lead = _check_broadcast(dt.shape[:-1], np.shape(index))
    out = np.broadcast_to(dt, lead + dt.shape[-1:]).copy()
    flat = _class_flat(out.shape, index)
    out.put(flat, fill)
    return _make(out, (nt, _pull_mask, flat, dt.shape))


def _pull_mask(g, flat, shape):
    full = g.copy()
    full.put(flat, 0.0)
    return _unbroadcast(full, shape)


# ---------------------------------------------------------------------------
# softselect: v[..., i] - logsumexp of v's other classes
#
# Each kernel runs the numpy ops of a chain of single ops (named in its
# docstring; tests/_softselect_ref.py keeps it), in that chain's order, and
# adds one tape record, `(nv, nv)` like `conjoin`'s.  Its pull returns v's two
# contributions in the order that chain's backward adds them, so values and
# accumulated gradients equal the chain's bit for bit, also where v is used
# again later.


def softselect_rows(v, index, fill: float) -> Tensor:
    """v[..., index] minus the logsumexp of v with that class set to `fill`,
    where the index broadcasts to v's leading axes (at most one entry per row).

    The chain: select_class, mask_class, logsumexp, sub.
    """
    dv, nv = _ensure(v)
    flat = _class_flat(dv.shape, index)
    masked = dv.copy()
    masked.put(flat, fill)
    rest, shifted, total = _logsumexp_parts(masked, -1)
    out = dv.reshape(-1).take(flat) - np.squeeze(rest, -1)
    if nv is None:
        return Tensor(out)
    return _make(out, ((nv, nv), _pull_softselect_rows, dv.shape, flat, shifted, total))


def _pull_softselect_rows(g, shape, flat, shifted, total):
    masked = np.expand_dims(-g, -1) * (shifted / total)  # sub's negation, then logsumexp's pull
    masked.put(flat, 0.0)  # no gradient at the hole
    return masked, _pull_select(g, shape, flat)


def softselect_table(v, index, fill: float) -> Tensor:
    """softselect where the index spans axes v lacks: v's logsumexp without each
    class is taken once per row of v (the class set to `fill`), subtracted
    from v, and the result gathered by the index, whose broadcast shape the
    output has.

    The chain: reshape to (..., 1, n), mask_class by arange(n), logsumexp,
    sub from v, select_class.
    """
    dv, nv = _ensure(v)
    flat = _class_flat(dv.shape, index)
    n = dv.shape[-1]
    masked = np.broadcast_to(dv.reshape(dv.shape[:-1] + (1, n)), dv.shape + (n,)).copy()
    masked.reshape(-1, n * n)[:, :: n + 1] = fill  # row i of each n x n block loses class i
    rest, shifted, total = _logsumexp_parts(masked, -1)
    out = (dv - np.squeeze(rest, -1)).reshape(-1).take(flat)
    if nv is None:
        return Tensor(out)
    return _make(out, ((nv, nv), _pull_softselect_table, dv.shape, flat, shifted, total))


def _pull_softselect_table(g, shape, flat, shifted, total):
    sel = _pull_select(g, shape, flat)  # what sub passes on to v as it is
    masked = np.expand_dims(-sel, -1) * (shifted / total)
    n = shape[-1]
    masked.reshape(-1, n * n)[:, :: n + 1] = 0.0
    return sel, masked.sum(axis=-2)  # unbroadcast from the (..., 1, n) reshape


# ---------------------------------------------------------------------------
# logit-space conjunction
#
# logit(prod sigmoid(l_i)) is S - ln(-expm1(min(S, cap))) for
# S = sum logsigmoid(l_i).  Each kernel adds one tape record.  Its pull
# replays the backward of the chain of single ops (logsigmoid, add,
# clamp_max, expm1, neg, log, sub) in that chain's order, operands last to
# first.  So values and accumulated gradients equal the chain's bit for bit,
# also where an operand appears twice or is used again later.  The forward
# takes shorter routes to the same bits: logsigmoid(d) = min(d, -0) -
# log1p(exp(-|d|)) is -(max(-d, 0) + log1p(t)) with the negation moved
# inward, which rounding does not see; and since cap < 0, expm1 never
# reaches its _EXP_MAX cap, and with cap <= -_LOG_FLOOR -expm1 never falls
# below the log's floor.


class Columns:
    """A static conjunction operand kept narrow: its entries are `values[..., bits]`.

    `values` holds the operand's two truth columns (its value where a boolvec
    bit is 0 and where it is 1) and `bits` that boolvec's bits, so the
    operand's shape is `values.shape[:-1] + bits.shape`.  The conjunction
    kernel takes logsigmoid on the two columns and gathers it by the bits
    just before it is added, so the sum adds the numbers the gathered
    operand gives, in the same order.  Never on a tape.
    """

    __slots__ = ("values", "bits")

    def __init__(self, values: np.ndarray, bits: np.ndarray):
        self.values = values
        self.bits = bits

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape[:-1] + self.bits.shape

    def wide(self) -> np.ndarray:
        """The operand gathered to its classes."""
        return self.values[..., self.bits]


def conjoin_sums(datas, s=None, saved: list | None = None):
    """Add logsigmoid(d) onto `s` for each of `datas`, left to right; None starts
    from the first term.  A `Columns` has it taken on its two columns and
    gathered by its bits.  The sum broadcasts every operand, so it is the
    shape check: a mismatch raises ShapeMismatch.

    A sum that is an array made here, of the result's shape, takes each
    addition in place: a conjunction over 2000 x 12 entries then reuses one
    array instead of making one per operand.  With `saved`, appends per
    operand what the pull needs: (d, t = exp(-|d|), the shape of the sum
    after it).  Without, no operand's temporaries outlive its addition.
    """
    start, own = s, False  # own: s is an array made here and kept nowhere else
    try:
        for x in datas:
            d, bits = (x.values, x.bits) if isinstance(x, Columns) else (x, None)
            t = np.exp(np.copysign(d, -1.0))
            ls = np.minimum(d, -0.0) - np.log1p(t)
            if bits is not None:
                ls = ls[..., bits]
            if s is None:
                s, own = ls, True
            elif own and s.ndim and ls.shape == s.shape:  # numpy gives 0-d results as scalars
                np.add(s, ls, out=s)
            else:
                s, own = np.add(s, ls), True
            if saved is not None:
                saved.append((d, t, np.shape(s)))
    except ValueError:
        raise ShapeMismatch(*[np.shape(x) for x in ([] if start is None else [start])],
                            *[x.shape for x in datas]) from None
    return s


def conjoin(logits, parts, cap: float) -> Tensor:
    """The conjunction of `logits`, elementwise with broadcasting, resumed from
    `parts` = S of leading operands, or from nothing if None.  An operand may
    be a `Columns`."""
    datas, nodes = [], []
    for l in logits:
        d, n = (l, None) if isinstance(l, Columns) else _ensure(l)
        datas.append(d)
        nodes.append(n)
    taped = [k for k, n in enumerate(nodes) if n is not None]
    saved = [] if taped else None
    out, tail = _tail(conjoin_sums(datas, parts, saved), cap)
    if not taped:
        return Tensor(out)
    nids = tuple(nodes[k] for k in reversed(taped))
    return _make(out, (nids, _pull_conjoin, taped, saved, cap, tail))


def _tail(s, cap):
    """S - ln(-expm1(min(S, cap))), and what its pull needs."""
    capped = np.minimum(s, cap)
    p_false = -np.expm1(capped)  # 1 - prod sigmoid(l_i)
    return s - np.log(p_false), (s, capped, p_false)


def _pull_tail(g, cap, s, capped, p_false):
    """The gradient that reaches S: directly, then through the log, neg, expm1
    and clamp."""
    return g + np.negative(-g / p_false) * np.exp(capped) * (s <= cap)


def _pull_conjoin(g, taped, saved, cap, tail):
    out = []
    grad = _pull_tail(g, cap, *tail)
    for k in range(len(saved) - 1, taped[0] - 1, -1):
        d, t, _ = saved[k]
        if k in taped:
            out.append(_unbroadcast(grad, np.shape(d)) * _sigmoid_of(-d, t))
        if k:
            grad = _unbroadcast(grad, saved[k - 1][2])
    return out


def conjoin_axis(a, axis: int, cap: float) -> Tensor:
    """The conjunction along one axis of `a` (the universal-quantifier reduction);
    the axis is in range and not empty, as `logit.conj_reduce` checks."""
    da, na = _ensure(a)
    t = np.exp(np.copysign(da, -1.0))
    out, tail = _tail((np.minimum(da, -0.0) - np.log1p(t)).sum(axis=axis), cap)
    if na is None:
        return Tensor(out)
    return _make(out, (na, _pull_conjoin_axis, axis, cap, da, t, tail))


def _pull_conjoin_axis(g, axis, cap, d, t, tail):
    return np.expand_dims(_pull_tail(g, cap, *tail), axis) * _sigmoid_of(-d, t)


# ---------------------------------------------------------------------------
# backward pass


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(param) into every reachable Parameter's .grad."""
    tape = active_tape()
    if root.node is None or tape is None or root.tape is not tape:
        raise DetachedNode("root is not on the active tape")
    if tape.consumed:
        raise DetachedNode("tape already consumed by a previous backward pass")
    if root.data.shape != ():
        raise NotScalar(f"backward root must be rank-0, got {root.data.shape}")
    grads: dict[int, np.ndarray] = {root.node: np.ones(())}
    for out, live in reversed(tape._records):
        g = grads.get(out)
        if g is None:
            continue
        for item in live:
            nid = item[0]
            contrib = item[1](g, *item[2:])
            if nid.__class__ is tuple:  # a kernel's one pull: a contribution per listed input
                for nid, c in zip(nid, contrib):
                    prev = grads.get(nid)
                    grads[nid] = c if prev is None else prev + c
                continue
            prev = grads.get(nid)
            grads[nid] = contrib if prev is None else prev + contrib
    for p, nid in tape._param_nodes.items():
        g = grads.get(nid)
        if g is not None:
            p.grad += g
    tape.consumed = True


# ---------------------------------------------------------------------------
# finite-difference gradient checking


GRAD_CHECK_H = 1e-5  # the central-difference step
GRAD_CHECK_TOL = 1e-4  # the largest relative error that passes


@dataclass
class GradCheckReport:
    max_rel_error: float
    per_param: dict[str, float]

    @property
    def passed(self) -> bool:
        return self.max_rel_error < GRAD_CHECK_TOL


def grad_check(build, params: list[Parameter]) -> GradCheckReport:
    """Compare reverse-mode gradients of build() against central differences.

    build() must construct a scalar Tensor from the current parameter
    values; it is re-invoked for every probe, so it must be deterministic.
    """
    for p in params:
        p.zero_grad()
    with Tape():
        out = build()
        backward(out)
    analytic = {p.name: p.grad.copy() for p in params}

    def value() -> float:  # no backward follows a probe, so it runs off the tape
        return float(build().data)

    per_param: dict[str, float] = {}
    worst = 0.0
    for p in params:
        flat = p.value.reshape(-1)
        err = 0.0
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + GRAD_CHECK_H
            up = value()
            flat[i] = keep - GRAD_CHECK_H
            down = value()
            flat[i] = keep
            numeric = (up - down) / (2.0 * GRAD_CHECK_H)
            g = analytic[p.name].reshape(-1)[i]
            err = max(err, abs(numeric - g) / max(1.0, abs(g)))
        per_param[p.name] = err
        worst = max(worst, err)
    return GradCheckReport(worst, per_param)


# ---------------------------------------------------------------------------
# checkpoint container

_MAGIC = b"DASLCKPT"
_VERSION = 2  # version 2 appends a CRC-32 of every preceding byte; version 1 has none


def save_checkpoint(params, path) -> None:
    """Write parameters to the flat binary checkpoint container.

    Layout: magic, version, then per parameter its name length, name, rank,
    dims and little-endian float64 values, then the CRC-32 trailer.  The
    bytes go to a temporary file that is renamed over `path`, so an
    interrupted save leaves any previous checkpoint intact.
    """
    if isinstance(params, dict):
        items = list(params.items())
    else:
        items = [(p.name, p.value) for p in params]
    parts = [_MAGIC, struct.pack("<I", _VERSION)]
    for name, value in items:
        value = np.asarray(value, dtype=np.float64)
        raw = name.encode("utf-8")
        parts += [struct.pack("<I", len(raw)), raw,
                  struct.pack(f"<{value.ndim + 1}I", value.ndim, *value.shape),
                  value.astype("<f8").tobytes()]
    body = b"".join(parts)
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(body)
            fh.write(struct.pack("<I", zlib.crc32(body)))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint container back into name -> array.

    A file that is not a checkpoint, is truncated, or is corrupt raises
    InvalidValue naming the byte offset; no length field is trusted beyond
    the bytes that remain.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != _MAGIC:
        raise InvalidValue(f"{path}: not a checkpoint file")
    pos, end = 8, len(blob)

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if n > end - pos:
            raise InvalidValue(f"{path}: truncated {what} at byte {pos}")
        pos += n
        return blob[pos - n:pos]

    def u32(what: str) -> int:
        return struct.unpack("<I", take(4, what))[0]

    version = u32("version")
    if version == 2:
        if end < 16 or zlib.crc32(blob[:end - 4]) != struct.unpack("<I", blob[end - 4:])[0]:
            raise InvalidValue(f"{path}: checksum mismatch, the file is truncated or corrupt")
        end -= 4
    elif version != 1:
        raise InvalidValue(f"{path}: unsupported checkpoint version {version}")
    out: dict[str, np.ndarray] = {}
    while pos < end:
        start = pos
        try:
            name = take(u32("name length"), "name").decode("utf-8")
        except UnicodeDecodeError:
            raise InvalidValue(f"{path}: name at byte {start} is not UTF-8") from None
        rank = u32(f"rank of {name!r}")
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"dims of {name!r}"))
        payload = take(8 * math.prod(dims), f"payload for {name!r}")
        out[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
    return out
