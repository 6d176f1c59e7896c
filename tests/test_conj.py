"""The conjunction kernels against the composed chain they replace, bit for bit.

`logit.conj` and `logit.conj_reduce` are single kernels with one tape record
each; `tests/_conj_ref.py` keeps the chain of single `tensor` ops they were
built from.  Values and every operand's accumulated gradient must have the
same bits (any NaN equals any NaN), in every branch regime, with special
values, repeated operands, constants, and operands used again later on the
tape.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _conj_ref as ref
from dasl import logit as L
from dasl import tensor as T
from dasl.logit import BIG, STABLE_MIN, conj, conj_parts, conj_reduce
from dasl.tensor import Parameter, Tape, backward

# each regime's range puts the operands' minimum below, around, or above
# STABLE_MIN, so the exact branch, both branches, or the stable branch run
REGIMES = {"exact": (-40.0, 10.0), "mixed": (10.0, 22.0), "stable": (STABLE_MIN, 45.0)}
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, STABLE_MIN, BIG, -BIG])


def assert_same_bits(got, want, what):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape, what
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan, err_msg=what)
    np.testing.assert_array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64),
                                  err_msg=what)


def values(rng, shape, regime, specials):
    lo, hi = REGIMES[regime]
    v = rng.uniform(lo, hi, size=shape)
    if specials:
        hit = rng.random(shape) < 0.3
        v[hit] = rng.choice(SPECIALS, size=int(hit.sum()))
    return v


def run(conj_fn, parts_fn, vals, taped, order, split, reuse):
    """A conjunction over `vals[i] for i in order` (taped ones as Parameters), its
    first `split` operands (constants) taken as parts; the root weighs the
    result and, with `reuse`, uses every taped operand again after it, so
    the conjunction's contributions add onto a gradient already there.
    Returns the value and every parameter's gradient."""
    params = {i: Parameter(f"p{i}", v.copy()) for i, v in enumerate(vals) if taped[i]}
    ops = [params.get(i, vals[i]) for i in order]
    with np.errstate(all="ignore"), Tape():
        if split:
            out = conj_fn(*ops[split:], parts=parts_fn(*ops[:split]))
        else:
            out = conj_fn(*ops)
        weights = np.random.default_rng(7).uniform(-2.0, 2.0, size=out.shape)
        root = T.reduce_sum(T.mul(out, weights))
        for i in sorted(params) if reuse else ():
            later = np.random.default_rng(i).uniform(-2.0, 2.0, size=params[i].shape)
            root = T.add(root, T.reduce_sum(T.mul(params[i], later)))
        if root.node is not None:  # a lone constant operand gives a constant root
            backward(root)
    return out.data, [params[i].grad for i in sorted(params)]


def compare(vals, taped, order, split=0, reuse=False):
    got = run(conj, conj_parts, vals, taped, order, split, reuse)
    want = run(ref.conj, ref.conj_parts, vals, taped, order, split, reuse)
    assert_same_bits(got[0], want[0], "value")
    for i, (g, w) in enumerate(zip(got[1], want[1])):
        assert_same_bits(g, w, f"gradient of parameter {i}")


@st.composite
def conjunctions(draw):
    n = draw(st.integers(1, 5))
    full = draw(st.lists(st.integers(1, 3), min_size=0, max_size=3))
    shapes = []
    for _ in range(n):
        keep = draw(st.integers(0, len(full)))  # trailing axes kept; the rest dropped
        shapes.append(tuple(d if draw(st.booleans()) else 1 for d in full[len(full) - keep:]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    regime = draw(st.sampled_from(sorted(REGIMES)))
    specials = draw(st.booleans())
    vals = [values(rng, s, regime, specials) for s in shapes]
    split = draw(st.integers(0, n - 1))
    taped = [i >= split and draw(st.booleans()) for i in range(n)]
    order = list(range(n))
    for _ in range(draw(st.integers(0, 2))):  # one operand passed twice, or thrice
        order.insert(draw(st.integers(split, len(order))), draw(st.integers(split, n - 1)))
    return vals, taped, order, split, draw(st.booleans())


class TestConjKernel:
    @settings(max_examples=400, deadline=None)
    @given(conjunctions())
    def test_matches_composed_chain(self, case):
        compare(*case)

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    @pytest.mark.parametrize("split", [0, 1, 2])
    def test_repeated_operand_constant_and_later_use(self, regime, split):
        rng = np.random.default_rng(3)
        shapes = [(2, 1), (1, 3), (2, 3), (3,)]
        vals = [values(rng, s, regime, False) for s in shapes]
        taped = [False, True, True, True] if split == 0 else [False, False, True, True]
        # operand 2 twice, operand 3 twice apart, and a constant in the middle
        order = [0, 1, 2, 3, 2, 3] if split < 2 else [0, 1, 2, 3, 2, 0, 3]
        compare(vals, taped, order, split, reuse=True)

    def test_repeated_operand_through_staged_broadcasts(self):
        # a (1, 1) operand repeated after a (1, 4) and a (3, 4) one: its
        # contributions are unbroadcast in different stages, so they differ
        # in the last bits and the order they are added in shows
        for seed in range(20):
            rng = np.random.default_rng(seed)
            for regime in sorted(REGIMES):
                vals = [values(rng, s, regime, False) for s in [(1, 1), (1, 4), (3, 4)]]
                compare(vals, [True, True, True], [0, 1, 2, 0], reuse=True)
                compare(vals, [True, True, True], [0, 1, 0, 2, 0], reuse=True)

    @pytest.mark.parametrize("value", list(SPECIALS), ids=lambda v: repr(float(v)))
    def test_special_values_beside_each_regime(self, value):
        rng = np.random.default_rng(4)
        for regime in sorted(REGIMES):
            vals = [np.array([value, value]), values(rng, (3, 1), regime, False),
                    values(rng, (3, 2), regime, False)]
            compare(vals, [True, True, True], [0, 1, 2, 0], reuse=True)
            compare(vals, [False, True, True], [0, 1, 2], split=1)

    def test_lone_parameter_is_on_the_tape(self):
        # conj(p) is p itself, bit for bit, and recorded: the root's gradient reaches p
        vals = np.concatenate([SPECIALS, np.random.default_rng(5).uniform(-40.0, 45.0, 8)])
        p = Parameter("p", vals.reshape(4, 4))
        with np.errstate(all="ignore"), Tape():
            out = conj(p)
            backward(T.reduce_sum(out))
        assert_same_bits(out.data, vals.reshape(4, 4), "value")
        assert_same_bits(p.grad, np.ones((4, 4)), "gradient")
        compare([vals.reshape(4, 4)], [True], [0])
        compare([vals.reshape(4, 4)], [True], [0], reuse=True)

    def test_exactly_at_stable_min(self):
        # the switch is strict: an operand at STABLE_MIN keeps its entry exact
        at = np.full((2, 2), STABLE_MIN)
        above = np.array([[STABLE_MIN + 1.0, 30.0], [40.0, STABLE_MIN]])
        compare([at, above], [True, True], [0, 1])
        compare([above, above + 1.0], [True, True], [0, 1], reuse=True)
        assert conj(at, above).data[0, 0] == ref.conj(at, above).data[0, 0]

    @pytest.mark.parametrize("switch", [np.inf, -np.inf], ids=["exact only", "stable only"])
    def test_one_branch_over_every_regime(self, switch, monkeypatch):
        # with the switch moved, one branch runs where the other would: the
        # exact branch on sums within the clamp's reach of 0, the stable one
        # on sums of exp(-l) that overflow
        for module in (L, ref):
            monkeypatch.setattr(module, "STABLE_MIN", switch)
        rng = np.random.default_rng(6)
        for regime in (*sorted(REGIMES), "far"):
            shapes = [(3, 1), (1, 2), (3, 2)]
            vals = ([rng.uniform(28.0, 60.0, size=s) for s in shapes] if regime == "far"
                    else [values(rng, s, regime, True) for s in shapes])
            compare(vals, [True, True, True], [0, 1, 2, 1], reuse=True)
            compare(vals, [False, True, True], [0, 1, 2, 2], split=1, reuse=True)
            for axis in (0, 1):
                got = run_reduce(conj_reduce, vals[2], axis, True)
                want = run_reduce(ref.conj_reduce, vals[2], axis, True)
                assert_same_bits(got[0], want[0], f"value, axis {axis}")
                assert_same_bits(got[1], want[1], f"gradient, axis {axis}")


@st.composite
def reductions(draw):
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    regime = draw(st.sampled_from(sorted(REGIMES)))
    return values(rng, shape, regime, draw(st.booleans())), draw(st.booleans())


def run_reduce(fn, vals, axis, reuse):
    p = Parameter("p", vals.copy())
    with np.errstate(all="ignore"), Tape():
        out = fn(p, axis)
        weights = np.random.default_rng(8).uniform(-2.0, 2.0, size=out.shape)
        root = T.reduce_sum(T.mul(out, weights))
        if reuse:
            later = np.random.default_rng(9).uniform(-2.0, 2.0, size=p.shape)
            root = T.add(root, T.reduce_sum(T.mul(p, later)))
        backward(root)
    return out.data, p.grad


class TestConjReduceKernel:
    @settings(max_examples=300, deadline=None)
    @given(reductions())
    def test_matches_composed_chain_on_every_axis(self, case):
        vals, reuse = case
        for axis in range(-vals.ndim, vals.ndim):
            got = run_reduce(conj_reduce, vals, axis, reuse)
            want = run_reduce(ref.conj_reduce, vals, axis, reuse)
            assert_same_bits(got[0], want[0], f"value, axis {axis}")
            assert_same_bits(got[1], want[1], f"gradient, axis {axis}")

    def test_rows_in_every_regime(self):
        # one row exact, one at STABLE_MIN, one stable, one with specials
        vals = np.array([[-3.0, 20.0, 2.0], [STABLE_MIN, 30.0, 16.0], [16.0, 18.0, 40.0],
                         [np.inf, -0.0, np.nan]])
        for axis in (0, 1, -1):
            got = run_reduce(conj_reduce, vals, axis, True)
            want = run_reduce(ref.conj_reduce, vals, axis, True)
            assert_same_bits(got[0], want[0], f"value, axis {axis}")
            assert_same_bits(got[1], want[1], f"gradient, axis {axis}")

    @pytest.mark.parametrize("axis", [2, -3, 7])
    def test_axis_out_of_range_is_typed(self, axis):
        with pytest.raises(T.AxisOutOfRange):
            conj_reduce(np.zeros((2, 3)), axis)

    def test_empty_axis(self):
        with pytest.raises(L.EmptyConjunction):
            conj_reduce(np.zeros((2, 0)), 1)


class TestOneRecord:
    """A conjunction adds one tape record, however many operands and branches."""

    def records(self, build):
        with Tape() as tape:
            build()
            return len(tape._records)

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_conj(self, n):
        params = [Parameter(f"p{i}", np.array([-3.0, 16.0 + i, 30.0])) for i in range(n)]
        assert self.records(lambda: conj(*params)) == 1
        assert self.records(lambda: conj(*params, params[0], 2.0)) == 1
        parts = conj_parts(np.array([20.0, 18.0, 40.0]))
        assert self.records(lambda: conj(*params, parts=parts)) == 1

    def test_conj_reduce(self):
        p = Parameter("p", np.array([[-3.0, 20.0], [16.0, 30.0]]))
        assert self.records(lambda: conj_reduce(p, 0)) == 1
        assert self.records(lambda: conj_reduce(p, 1)) == 1
