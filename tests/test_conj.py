"""The conjunction kernels against the composed chain they replace, bit for bit.

`logit.conj` and `logit.conj_reduce` are single kernels with one tape record
each; `tests/_conj_ref.py` keeps the chain of single `tensor` ops they were
built from.  Values and every operand's accumulated gradient must have the
same bits (any NaN equals any NaN), in every regime up to and past the cap,
with special values, repeated operands, constants, and operands used again
later on the tape.  `TestExactness` checks both kernels against 50-digit
mpmath.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _conj_ref as ref
from dasl import logit as L
from dasl import tensor as T
from dasl.logit import _CAP, BIG, conj, conj_parts, conj_reduce
from dasl.tensor import Parameter, Tape, backward

# each regime's range puts the operands' minimum below, around, or above 15,
# around crisp truth (BIG), or on both sides of where S reaches the cap
# (about 690.8 for one operand and 693.2 for eleven)
REGIMES = {"exact": (-40.0, 10.0), "mixed": (10.0, 22.0), "stable": (15.0, 45.0),
           "cap": (680.0, 745.0)}
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 15.0, BIG, -BIG])


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

    @pytest.mark.parametrize("regimes", [("exact", "mixed"), ("stable", "cap", "far")],
                             ids=["exact only", "stable only"])
    def test_one_branch_over_every_regime(self, regimes):
        # the one formula over the regimes once split between two branches:
        # ranges reaching below 15, where entries kept the formula that is
        # now the only one, and ranges from 15 up, which the deleted stable
        # branch took and where values moved.  Three operands, one repeated,
        # with and without a constant taken as parts; then conj_reduce over
        # each axis of the widest
        rng = np.random.default_rng(6)
        for regime in regimes:
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

    def test_around_15(self):
        at = np.full((2, 2), 15.0)
        above = np.array([[16.0, 30.0], [40.0, 15.0]])
        compare([at, above], [True, True], [0, 1])
        compare([above, above + 1.0], [True, True], [0, 1], reuse=True)


@st.composite
def narrow_conjunctions(draw):
    """A conjunction over (rows, n) class logits in which some constant operands
    come as a `tensor.Columns` (two columns and n bits); the same operands
    gathered to full width stand beside them."""
    rows, n, k = draw(st.integers(1, 4)), draw(st.integers(2, 6)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    regime, specials = draw(st.sampled_from(sorted(REGIMES))), draw(st.booleans())
    bits = np.asarray(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    narrow, wide, kinds = [], [], []
    for _ in range(k):
        kind = draw(st.sampled_from(["columns", "columns without rows", "classes", "rows"]))
        shape = {"columns": (rows, 2), "columns without rows": (2,),
                 "classes": (rows, n), "rows": (rows, 1)}[kind]
        v = values(rng, shape, regime, specials)
        wide.append(v[..., bits] if kind.startswith("columns") else v)
        narrow.append(T.Columns(v, bits) if kind.startswith("columns") else v)
        kinds.append(kind)
    split = draw(st.integers(0, k - 1))
    taped = [i >= split and not kinds[i].startswith("columns") and draw(st.booleans())
             for i in range(k)]
    return narrow, wide, taped, split


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


class TestColumnsOperand:
    """A `tensor.Columns` operand gives the value, the parts and every gradient
    that the same operand gathered to its classes gives, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(narrow_conjunctions())
    def test_matches_the_gathered_operand(self, case):
        narrow, wide, taped, split = case
        order = list(range(len(narrow)))
        got = run(conj, conj_parts, narrow, taped, order, split, False)
        want = run(conj, conj_parts, wide, taped, order, split, False)
        assert_same_bits(got[0], want[0], "value")
        for i, (g, w) in enumerate(zip(got[1], want[1])):
            assert_same_bits(g, w, f"gradient of parameter {i}")
        with np.errstate(all="ignore"):
            assert_same_bits(conj_parts(*narrow), conj_parts(*wide), "S")

    def test_a_mismatched_operand_is_a_shape_error(self):
        columns = T.Columns(np.zeros((3, 2)), np.array([0, 1, 1, 0]))
        assert columns.shape == (3, 4)
        with pytest.raises(T.ShapeMismatch):
            conj(columns, np.zeros((3, 5)))
        with pytest.raises(T.ShapeMismatch):
            conj_parts(np.zeros(5), columns)


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
        # rows below, at and above 15, one with specials, one past the cap
        vals = np.array([[-3.0, 20.0, 2.0], [15.0, 30.0, 16.0], [16.0, 18.0, 40.0],
                         [np.inf, -0.0, np.nan], [700.0, 740.0, 691.0]])
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


class TestOneEntryAxis:
    """Over an axis of one entry, conj_reduce is that entry with the axis dropped,
    as conj of one operand is: logit(sigma(l)) = l exactly, gradient 1."""

    @pytest.mark.parametrize("l", [2.0, -3.5, BIG, -BIG, 740.0])
    def test_the_value_is_the_operand_bit_for_bit(self, l):
        assert_same_bits(conj_reduce(np.array([l]), 0).data, l, "one entry")
        assert_same_bits(conj_reduce(np.full((2, 1, 3), l), 1).data, np.full((2, 3), l),
                         "a middle axis")
        assert_same_bits(conj_reduce(np.array([l]), 0).data, conj(l).data, "conj of one")

    def test_the_gradient_is_one(self):
        p = Parameter("p", np.array([[2.0], [-3.5], [740.0]]))
        with Tape() as tape:
            out = conj_reduce(p, -1)
            assert len(tape._records) == 1
            backward(T.reduce_sum(T.mul(out, np.array([1.0, 2.0, 3.0]))))
        assert_same_bits(out.data, [2.0, -3.5, 740.0], "value")
        assert_same_bits(p.grad, [[1.0], [2.0], [3.0]], "gradient")


class TestOneRecord:
    """A conjunction adds one tape record, however many operands."""

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


def exact_conj(ls):
    """logit(prod sigma(l_i)) and its gradient in each l_i, in 50-digit mpmath:
    S = sum -log1p(e^-l_i), the value S - ln(-expm1(S)) and the gradient
    sigma(-l_i) / -expm1(S).  Through expm1, 50 digits keep S's own digits
    where prod sigma(l_i) is 1 - 1e-300."""
    import mpmath

    with mpmath.workdps(50):
        ls = [mpmath.mpf(float(l)) for l in ls]
        s = mpmath.fsum(-mpmath.log1p(mpmath.exp(-l)) for l in ls)
        p_false = -mpmath.expm1(s)
        return float(s - mpmath.log(p_false)), [float(1 / ((1 + mpmath.exp(l)) * p_false))
                                                for l in ls]


def exactness_cases():
    """Operand lists of 1 to 12 below the cap: uniform in [-40, 690], in the band
    [15, 27.6], +-BIG, 15 +- 1e-9, and minima in [680, 690.77]."""
    rng = np.random.default_rng(11)
    cases = []
    for kind in ("wide", "band", "big", "at 15", "near the cap"):
        for _ in range(40):
            n = int(rng.integers(1, 13))
            if kind == "wide":
                ls = rng.uniform(-40.0, 690.0, n)
            elif kind == "band":
                ls = rng.uniform(15.0, 27.6, n)
            elif kind == "big":
                ls = rng.choice([BIG, -BIG, BIG, rng.uniform(-40.0, 40.0)], n)
            elif kind == "at 15":
                ls = 15.0 + rng.choice([-1e-9, 0.0, 1e-9], n)
            else:
                low = rng.uniform(680.0, 690.77)
                ls = low + rng.uniform(0.0, 6.0, n)
                ls[rng.integers(n)] = low
            cases.append(ls)
    return cases


def value_and_grads(build, ls):
    """The value of `build(*params)` over one parameter per operand, and each
    parameter's gradient."""
    params = [Parameter(f"p{i}", np.float64(l)) for i, l in enumerate(ls)]
    with Tape():
        out = build(*params)
        backward(out)
    return out.item(), [p.grad.item() for p in params]


class TestExactness:
    """conj, conj with parts and conj_reduce against 50-digit mpmath: within
    1e-12 in value and 1e-9 relative in gradient below the cap, continuous at
    it, and saturated at -ln(1e-300) past it, where conj and conj_reduce
    agree."""

    ROUTES = {
        "conj": lambda *ps: conj(*ps),
        "conj with parts": lambda *ps: conj(*ps[1:], parts=conj_parts(*ps[:1])),
        "conj_reduce": lambda *ps: conj_reduce(T.concat([T.reshape(p, (1,)) for p in ps], 0), 0),
    }

    @pytest.mark.parametrize("route", list(ROUTES))
    def test_value_and_gradient_match_mpmath(self, route):
        build = self.ROUTES[route]
        for ls in exactness_cases():
            if route == "conj with parts" and len(ls) == 1:
                continue
            want, want_grads = exact_conj(ls)
            got, got_grads = value_and_grads(build, ls)
            what = f"{route} of {ls.tolist()}"
            assert abs(got - want) <= 1e-12, what
            # the parts are constants: the gradient reaches the others only
            first = 1 if route == "conj with parts" else 0
            np.testing.assert_allclose(got_grads[first:], want_grads[first:], rtol=1e-9,
                                       atol=0, err_msg=what)

    @pytest.mark.parametrize("l", [690.0, 690.77, 691.0, 700.0, 740.0, 1e4, np.inf])
    @pytest.mark.parametrize("n", [2, 3, 12])
    def test_conj_and_conj_reduce_agree(self, l, n):
        ls = np.full(n, l)
        ls[1:] += np.linspace(0.0, 3.0, n - 1)
        got = conj(*ls).item()
        assert abs(got - conj_reduce(ls, 0).item()) <= 1e-12
        if l > 693.0:  # S is above the cap: saturated at its -ln, from either kernel
            assert got == -np.log(-_CAP) + _CAP

    @pytest.mark.parametrize("n", [1, 2, 11])
    def test_continuous_across_the_cap(self, n):
        # bisect to the two adjacent doubles l between which S crosses the cap;
        # the operands sit at l + offsets
        offsets = np.linspace(0.0, 2.0, n)
        lo, hi = 680.0, 700.0
        while np.nextafter(lo, hi) < hi:
            mid = lo + (hi - lo) / 2
            if conj_parts(*(mid + offsets)).item() <= _CAP:
                lo = mid
            else:
                hi = mid
        assert conj_parts(*(lo + offsets)).item() <= _CAP < conj_parts(*(hi + offsets)).item()
        kernels = [lambda ls: conj_reduce(ls, 0)] + [lambda ls: conj(*ls)] * (n > 1)
        for kernel in kernels:
            assert abs(kernel(hi + offsets).item() - kernel(lo + offsets).item()) <= 1e-12
