"""The softselect, loss and MLP-input kernels against the chains they replace, bit for bit.

`logit.softselect` is one kernel per regime (`tensor.softselect_rows`,
`tensor.softselect_table`), the fused loss term one kernel
(`tensor.softplus_neg_sum`), and `MlpBinding` writes its arguments into
one input buffer; `tests/_softselect_ref.py` keeps the chains of single
`tensor` ops they were built from.  Values and every accumulated gradient
must have the same bits (any NaN equals any NaN), with special values, v
given as a Tensor or a Parameter, and v used again after the kernel.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _softselect_ref as ref
from dasl import logit as L
from dasl import tensor as T
from dasl.interp import MlpBinding, WidthMismatch
from dasl.lang import MlpSpec
from dasl.tensor import Parameter, Tape, backward

SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -1e30])
HOW = ["constant", "tensor", "parameter"]


def assert_same_bits(got, want, what):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape, what
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan, err_msg=what)
    np.testing.assert_array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64),
                                  err_msg=what)


def values(rng, shape, scale, specials):
    v = rng.normal(scale=scale, size=shape)
    if specials:
        hit = rng.random(shape) < 0.3
        v[hit] = rng.choice(SPECIALS, size=int(hit.sum()))
    return v


def run(fn, vals, arg, how, reuse):
    """fn(v, arg) with v the values as a constant, a Tensor on the tape or a
    Parameter; the root weighs the result and, with `reuse`, uses v again after
    it, so the kernel's contributions add onto a gradient already there.
    Returns the value and the parameter's gradient."""
    p = Parameter("v", vals.copy())
    with np.errstate(all="ignore"), Tape():
        v = {"constant": vals, "tensor": T.reshape(p, p.shape), "parameter": p}[how]
        out = fn(v, arg)
        weights = np.random.default_rng(7).uniform(-2.0, 2.0, size=out.shape)
        root = T.reduce_sum(T.mul(out, weights))
        if reuse:
            later = np.random.default_rng(8).uniform(-2.0, 2.0, size=p.shape)
            root = T.add(root, T.reduce_sum(T.mul(v, later)))
        if root.node is not None:  # a constant v gives a constant root
            backward(root)
    return out.data, p.grad


def compare(fn, ref_fn, vals, arg, how, reuse):
    got = run(fn, vals, arg, how, reuse)
    want = run(ref_fn, vals, arg, how, reuse)
    assert_same_bits(got[0], want[0], "value")
    assert_same_bits(got[1], want[1], "gradient")


@st.composite
def selections(draw):
    """(v, index) over index shapes: one integer, one entry per row of v, an index
    spanning axes v lacks, and a `(y1 + y2) mod n` term as the compiler builds it."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["scalar", "per-row", "spanning", "mod"]))
    full = tuple(draw(st.lists(st.integers(1, 3), min_size=int(kind in ("per-row", "spanning")),
                               max_size=3)))
    if kind == "scalar":
        lead, index = full, int(rng.integers(n))
    elif kind == "per-row":  # an index that broadcasts to v's leading axes
        lead = full
        keep = draw(st.integers(0, len(full)))
        shape = tuple(d if draw(st.booleans()) else 1 for d in full[len(full) - keep:])
        index = rng.integers(n, size=shape)
    elif kind == "spanning":  # some axis of the index longer than v's
        span = draw(st.integers(0, len(full) - 1))
        full = full[:span] + (draw(st.integers(2, 4)),) + full[span + 1:]
        lead = tuple(1 if i == span or draw(st.booleans()) else d for i, d in enumerate(full))
        shape = tuple(d if i == span or draw(st.booleans()) else 1 for i, d in enumerate(full))
        index = rng.integers(n, size=(draw(st.integers(1, 2)),) * draw(st.booleans()) + shape)
    else:  # forall y1, y2 over axes 1 and 2 of a batch on axis 0
        k1, k2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        lead = (draw(st.integers(1, 4)), 1, 1)
        index = (np.arange(k1)[None, :, None] + np.arange(k2)[None, None, :]) % n
    scale = draw(st.sampled_from([1.0, 30.0, 1e4]))
    return values(rng, lead + (n,), scale, draw(st.booleans())), index


class TestSoftselectKernels:
    @settings(max_examples=400, deadline=None)
    @given(selections(), st.sampled_from(HOW), st.booleans())
    def test_matches_composed_chain(self, case, how, reuse):
        compare(L.softselect, ref.softselect, *case, how, reuse)

    @pytest.mark.parametrize("how", HOW)
    @pytest.mark.parametrize("value", list(SPECIALS), ids=lambda v: repr(float(v)))
    def test_special_values_in_both_regimes(self, value, how):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(4, 1, 5))
        v[1, 0, 2] = v[2, 0, :] = value
        for index in (rng.integers(5, size=(4, 1)), np.array([[0, 4, 2]])):
            for reuse in (False, True):
                compare(L.softselect, ref.softselect, v, index, how, reuse)

    def test_each_regime_takes_its_kernel(self, monkeypatch):
        taken = []

        def spy(name):
            kernel = getattr(T, name)

            def call(v, index, fill):
                taken.append(name)
                return kernel(v, index, fill)

            monkeypatch.setattr(T, name, call)

        spy("softselect_rows")
        spy("softselect_table")
        v = np.zeros((4, 1, 3))
        L.softselect(v, 2)
        L.softselect(v, np.arange(4)[:, None] % 3)
        L.softselect(v, np.array([[0, 1]]))
        L.softselect(v, np.zeros((2, 4, 1), dtype=int))
        assert taken == ["softselect_rows", "softselect_rows", "softselect_table",
                         "softselect_table"]

    def test_index_out_of_range_in_both_regimes(self):
        with pytest.raises(T.IndexOutOfRange):
            L.softselect(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(T.IndexOutOfRange):
            L.softselect(np.zeros((2, 1, 3)), np.array([[-1, 0]]))


@st.composite
def losses(draw):
    full = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    keep = draw(st.integers(0, len(full)))
    shape = tuple(d if draw(st.booleans()) else 1 for d in full[len(full) - keep:])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 30.0, 1e4]))
    spread = draw(st.booleans())  # the compiler's _spread to the quantifier axes
    return values(rng, shape, scale, draw(st.booleans())), full if spread else shape


class TestLossKernel:
    @settings(max_examples=300, deadline=None)
    @given(losses(), st.sampled_from(HOW), st.booleans())
    def test_matches_composed_chain(self, case, how, reuse):
        compare(T.softplus_neg_sum, ref.softplus_neg_sum, *case, how, reuse)

    @pytest.mark.parametrize("how", HOW)
    def test_special_values_spread_and_not(self, how):
        v = np.concatenate([SPECIALS, [-745.0, 745.0]]).reshape(8, 1)
        for shape in [(8, 1), (8, 3), (2, 8, 3)]:
            for reuse in (False, True):
                compare(T.softplus_neg_sum, ref.softplus_neg_sum, v, shape, how, reuse)

    def test_never_minus_zero(self):
        # the compiler starts a sum of terms from the first, not from 0.0
        for x in (1e30, np.inf, 800.0):
            out = T.softplus_neg_sum(np.array([x, x]))
            assert out.data == 0.0 and not np.signbit(out.data)


# an MLP argument kind: (width, card or None); a "tensor" argument is passed as a Tensor
ARGS = {"index": (4, 4), "float": (3, None), "tensor": (2, None)}


def mlp_case(kinds, rows=5, seed=0):
    """A binding over arguments of the given kinds, and their values."""
    rng = np.random.default_rng(seed)
    widths, cards = [ARGS[k][0] for k in kinds], [ARGS[k][1] for k in kinds]
    binding = MlpBinding("m", MlpSpec((6,), "tanh"), widths, cards, 3, rng)
    raw = [rng.integers(w, size=rows) if card else rng.normal(size=(rows, w))
           for w, card in zip(widths, cards)]
    return binding, raw


def mlp_run(binding, kinds, raw, input_fn):
    """The binding's forward on its input from `input_fn`; value and gradients."""
    sources = [Parameter(f"a{i}", r) for i, (k, r) in enumerate(zip(kinds, raw))
               if k == "tensor"]
    for p in binding.parameters:
        p.zero_grad()
    with Tape():
        feeds = iter(sources)
        args = [T.mul(next(feeds), 1.5) if k == "tensor" else r
                for k, r in zip(kinds, raw)]
        h = input_fn(args)
        last = len(binding.weights) - 1
        for i, (w, b) in enumerate(zip(binding.weights, binding.biases)):
            h = T.affine(h, w, b)
            if i < last:
                h = T.tanh(h)
        weights = np.random.default_rng(9).uniform(-2.0, 2.0, size=h.shape)
        backward(T.reduce_sum(T.mul(h, weights)))
    return h.data, [p.grad.copy() for p in binding.parameters + sources]


class TestMlpInput:
    @pytest.mark.parametrize("kinds", [["index"], ["float"], ["tensor"], ["index", "float"],
                                       ["float", "index", "tensor"], ["index", "index"],
                                       ["tensor", "float", "tensor"]],
                             ids=lambda k: "+".join(k))
    def test_buffer_matches_concat(self, kinds):
        binding, raw = mlp_case(kinds)
        got = mlp_run(binding, kinds, raw, binding._input)
        want = mlp_run(binding, kinds, raw,
                       lambda args: ref.mlp_input(args, binding.arg_cards))
        assert_same_bits(got[0], want[0], "value")
        for i, (g, w) in enumerate(zip(got[1], want[1])):
            assert_same_bits(g, w, f"gradient {i}")
        with Tape():  # and the call itself runs the same layers
            assert_same_bits(binding([T.mul(Parameter("a", r), 1.5) if k == "tensor" else r
                                      for k, r in zip(kinds, raw)]).data, got[0], "call")

    def test_lone_array_is_not_copied(self):
        binding, (x,) = mlp_case(["float"])
        assert binding._input([x]) is x

    def test_rows_that_differ_are_a_width_mismatch(self):
        binding, raw = mlp_case(["index", "float"])
        with pytest.raises(WidthMismatch, match="argument 1 has 4 rows, argument 0 has 5"):
            binding._input([raw[0], raw[1][:4]])


class TestOneRecord:
    """Each kernel adds one tape record; an MLP input without a Tensor adds none."""

    def records(self, build):
        with Tape() as tape:
            build()
            return len(tape._records)

    def test_softselect(self):
        p = Parameter("v", np.zeros((4, 1, 3)))
        assert self.records(lambda: L.softselect(p, 1)) == 1
        assert self.records(lambda: L.softselect(p, np.arange(4)[:, None] % 3)) == 1
        assert self.records(lambda: L.softselect(p, np.array([[0, 1, 2]]))) == 1
        assert self.records(lambda: L.softselect(np.zeros((4, 1, 3)), 1)) == 0

    def test_loss(self):
        p = Parameter("v", np.zeros((4, 1)))
        assert self.records(lambda: T.softplus_neg_sum(p)) == 1
        assert self.records(lambda: T.softplus_neg_sum(p, (2, 4, 3))) == 1
        assert self.records(lambda: T.softplus_neg_sum(np.zeros(3), (2, 3))) == 0

    def test_mlp_input(self):
        binding, raw = mlp_case(["index", "float", "tensor"])
        a = Parameter("a", raw[2])
        assert self.records(lambda: binding._input(raw[:2] + [T.mul(a, 1.0)])) == 2
        assert self.records(lambda: binding._input(raw[:2] + [raw[2]])) == 0
