"""Logit-algebra tests against direct truth-space computation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _tnorm_ref import DomainError, tnorm_eval, tnorm_grad
from dasl import logit as L
from dasl import tensor as T
from dasl.logit import (
    BIG,
    EQ_EPS,
    EQ_MU,
    EQ_SIGMA,
    DegenerateVector,
    EmptyConjunction,
    EmptyDisjunction,
    bool_vector,
    conj,
    conj_reduce,
    disj,
    equality_logit,
    implies,
    mask_classes,
    neg,
    softselect,
)
from dasl.tensor import Parameter, Tape, backward


def sigma(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def logit_of(t):
    return np.log(t / (1.0 - t))


class TestNeg:
    def test_half_is_fixed_point(self):
        assert neg(0.0).item() == 0.0

    def test_flips_sign(self):
        assert neg(2.0).item() == -2.0

    def test_involution(self):
        x = np.linspace(-30, 30, 101)
        np.testing.assert_array_equal(neg(neg(x)).data, x)


class TestConj:
    def test_quarter(self):
        assert conj(0.0, 0.0).item() == pytest.approx(np.log(1 / 3), abs=1e-12)

    def test_eighth(self):
        assert conj(0.0, 0.0, 0.0).item() == pytest.approx(np.log(1 / 7), abs=1e-12)

    def test_conj_with_true_is_near_identity(self):
        # conjunction with sigma(BIG) shifts the logit by about
        # sigma(-BIG) * (1 + e^l), tiny except near the top of the range
        delta = sigma(-BIG)
        for l in np.linspace(-10, 10, 41):
            got = conj(BIG, float(l)).item()
            assert abs(got - l) <= 1.02 * delta * (1 + np.exp(l)) + 1e-12
            if l <= 6.0:
                assert abs(got - l) < 1e-6

    def test_direct_formula_agreement(self):
        rng = np.random.default_rng(0)
        l1, l2 = rng.uniform(-10, 10, size=(2, 2000))
        got = conj(l1, l2).data
        want = logit_of(sigma(l1) * sigma(l2))
        np.testing.assert_allclose(got, want, atol=1e-9, rtol=0)

    def test_stable_branch_agreement(self):
        rng = np.random.default_rng(1)
        l1, l2 = rng.uniform(15, 30, size=(2, 2000))
        got = conj(l1, l2).data
        want = -np.log(np.exp(-l1) + np.exp(-l2))
        np.testing.assert_allclose(got, want, atol=1e-4, rtol=0)

    def test_associative_consistency(self):
        rng = np.random.default_rng(2)
        a, b, c = rng.uniform(-10, 10, size=(3, 500))
        lhs = conj(conj(a, b).data, c).data
        rhs = conj(a, b, c).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_no_infinity_when_all_true(self):
        out = conj(np.full(8, 40.0), np.full(8, 40.0))
        assert np.all(np.isfinite(out.data))

    def test_empty_raises(self):
        with pytest.raises(EmptyConjunction):
            conj()

    def test_reduce_matches_nary(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-10, 10, size=(5, 7))
        got = conj_reduce(x, axis=1).data
        want = np.array([conj(*row).item() for row in x])
        np.testing.assert_allclose(got, want, atol=1e-12)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_matches_product_of_truths(self, ls):
        got = conj(*ls).item()
        want = logit_of(np.prod(sigma(np.array(ls))))
        assert got == pytest.approx(want, abs=1e-9)


    @pytest.mark.parametrize("low", [-3.0, 14.0, 16.0], ids=["exact", "mixed", "stable"])
    def test_resuming_from_parts_is_bit_identical(self, low):
        # constant operands (one width-1 beside width-4 ones) summed once, then
        # resumed with the rest, against one flat conjunction: parts of the
        # first one or of all three, then one or two learned operands
        rng = np.random.default_rng(5)
        consts = [rng.uniform(low, low + 4, size=(6, 1)), rng.uniform(low, low + 4, size=(6, 4)),
                  rng.uniform(low, low + 4, size=(6, 4))]
        params = [Parameter(f"p{i}", rng.uniform(low, low + 4, size=(6, 4))) for i in range(2)]
        for split, learned in [(3, 1), (1, 1), (3, 2), (1, 2)]:
            first, ps = consts[:split], params[:learned]
            rest = [*consts[split:], *ps]
            results = []
            for resume in (True, False):
                for p in ps:
                    p.zero_grad()
                with Tape():
                    out = (conj(*rest, parts=L.conj_parts(*first)) if resume
                           else conj(*first, *rest))
                    backward(T.reduce_sum(out))
                results.append((out.data, [p.grad.copy() for p in ps]))
            (got, got_grads), (want, want_grads) = results
            case = f"parts of {split}, {learned} learned"
            np.testing.assert_array_equal(got, want, err_msg=case)
            for got_grad, want_grad in zip(got_grads, want_grads):
                np.testing.assert_array_equal(got_grad, want_grad, err_msg=case)

class TestDisjImplies:
    def test_three_quarters(self):
        assert disj(0.0, 0.0).item() == pytest.approx(np.log(3), abs=1e-12)

    def test_vacuous_truth(self):
        assert implies(-BIG, -3.0).item() >= BIG - 1

    def test_true_antecedent_is_near_identity(self):
        for l in np.linspace(-6, 6, 25):
            assert implies(BIG, float(l)).item() == pytest.approx(float(l), abs=1e-6)

    def test_de_morgan_definitional(self):
        rng = np.random.default_rng(4)
        a, b = rng.uniform(-10, 10, size=(2, 1000))
        lhs = disj(a, b).data
        rhs = T.neg(conj(T.neg(T.Tensor(a)), T.neg(T.Tensor(b)))).data
        np.testing.assert_array_equal(lhs, rhs)

    def test_de_morgan_truth_space(self):
        rng = np.random.default_rng(5)
        a, b = rng.uniform(-10, 10, size=(2, 1000))
        t1, t2 = sigma(a), sigma(b)
        want = logit_of(t1 + t2 - t1 * t2)
        np.testing.assert_allclose(disj(a, b).data, want, atol=1e-9)

    def test_empty_raises(self):
        with pytest.raises(EmptyDisjunction):
            disj()


class TestSoftselect:
    def test_two_way_split(self):
        assert softselect(np.zeros(2), 0).item() == pytest.approx(0.0, abs=1e-12)

    def test_spec_value(self):
        got = softselect(np.array([1.0, 0.0, 0.0]), 0).item()
        assert got == pytest.approx(1 - np.log(2), abs=1e-12)

    def test_uniform_three(self):
        got = softselect(np.zeros(3), 1).item()
        assert got == pytest.approx(-np.log(2), abs=1e-12)

    def test_closed_form_equals_softmax_logit(self):
        # high-precision oracle: float64 softmax-then-logit cancels near
        # saturation, so the reference is computed at 50 digits
        import mpmath

        rng = np.random.default_rng(6)
        with mpmath.workdps(50):
            for n in (2, 3, 8, 16):
                v = rng.uniform(-20, 20, size=n)
                exps = [mpmath.e ** mpmath.mpf(x) for x in v]
                total = sum(exps)
                for i in range(n):
                    p = exps[i] / total
                    want = float(mpmath.log(p / (1 - p)))
                    assert softselect(v, i).item() == pytest.approx(want, abs=1e-9)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(7)
        v = rng.uniform(-20, 20, size=10)
        probs = np.array([sigma(softselect(v, i).item()) for i in range(10)])
        shifted = np.exp(v - v.max())
        np.testing.assert_allclose(probs, shifted / shifted.sum(), atol=1e-9)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_per_row_indices(self):
        rng = np.random.default_rng(8)
        v = rng.uniform(-5, 5, size=(6, 4))
        idx = np.array([0, 1, 2, 3, 0, 1])
        got = softselect(v, idx).data
        want = np.array([softselect(v[i], int(idx[i])).item() for i in range(6)])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_degenerate_vector(self):
        with pytest.raises(DegenerateVector):
            softselect(np.zeros(1), 0)

    def test_index_out_of_range(self):
        with pytest.raises(T.IndexOutOfRange):
            softselect(np.zeros(3), 5)

    def test_differentiable_in_every_component(self):
        rng = np.random.default_rng(9)
        p = Parameter("v", rng.uniform(-2, 2, size=5))
        report = T.grad_check(lambda: softselect(p, 2), [p])
        assert report.passed


def _spread_softselect(v, idx):
    """softselect by masking v spread to the index's axes: one mask per index entry."""
    lead = np.broadcast_shapes(v.shape[:-1], np.shape(idx))
    spread = T.add(v, np.zeros(lead + v.shape[-1:]))
    idx = np.broadcast_to(idx, lead)
    rest = T.logsumexp(T.mask_class(spread, idx, -1e30), axis=-1)
    return T.sub(T.select_class(spread, idx), rest)


class TestSoftselectTable:
    """An index that spans axes v lacks takes every class once per row of v, then
    gathers; the values must be those of the spread-and-mask path, bit for bit."""

    @pytest.mark.parametrize("case", ["grid", "two classes", "constant index", "large",
                                      "minus inf"])
    def test_matches_spread_and_mask(self, case):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = 2 if case == "two classes" else int(rng.integers(2, 12))
            batch, k1, k2 = (int(d) for d in rng.integers(1, 9, size=3))
            v = rng.normal(scale=3.0, size=(batch, 1, 1, n))
            idx = (np.arange(k1)[:, None] + np.arange(k2)[None, :]) % n
            idx = idx[None] if case != "constant index" else np.full((1, k1, k2), n - 1)
            if case == "large":
                v = v * 1e4
            if case == "minus inf":
                v[rng.random(v.shape) < 0.4] = -np.inf
            got = softselect(v, idx).data
            assert got.shape == (batch, k1, k2)
            assert np.array_equal(got, _spread_softselect(v, idx).data)

    def test_index_spanning_all_of_v(self):
        rng = np.random.default_rng(11)
        v = rng.normal(size=7)
        idx = rng.integers(0, 7, size=(3, 4))
        assert np.array_equal(softselect(v, idx).data, _spread_softselect(v, idx).data)

    def test_gradient(self):
        rng = np.random.default_rng(12)
        p = Parameter("v", rng.uniform(-2, 2, size=(3, 1, 4)))
        idx = rng.integers(0, 4, size=(1, 5))
        weights = rng.uniform(-1, 1, size=(3, 5))
        report = T.grad_check(lambda: T.reduce_sum(T.mul(softselect(p, idx), weights)), [p])
        assert report.passed, report.per_param

    def test_index_out_of_range(self):
        with pytest.raises(T.IndexOutOfRange):
            softselect(np.zeros((2, 1, 3)), np.array([[0, 3]]))


def density_ratio_oracle(x: float) -> float:
    """ln of (equal-case density / unequal-case density), evaluated directly.

    Uses 50-digit arithmetic: the equal-case density underflows float64
    already at x around 3.8 for the default spread.
    """
    import mpmath

    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        eps, mu, sg = (mpmath.mpf(str(v)) for v in (EQ_EPS, EQ_MU, EQ_SIGMA))
        root = mpmath.sqrt(2 * mpmath.pi)
        f_eq = (2 / (eps * root)) * mpmath.e ** (-x * x / (2 * eps ** 2))
        f_neq = (1 / (sg * root)) * (
            mpmath.e ** (-((x - mu) ** 2) / (2 * sg ** 2))
            + mpmath.e ** (-((x + mu) ** 2) / (2 * sg ** 2)))
        return float(mpmath.log(f_eq / f_neq))


class TestEqualityLogit:
    def test_value_at_zero(self):
        got = equality_logit(0.0, 0.0).item()
        assert got == pytest.approx(np.log(10) + 2 - np.log(2), abs=1e-6)
        assert got == pytest.approx(3.609438, abs=1e-6)

    def test_value_at_one(self):
        got = equality_logit(1.0, 0.0).item()
        want = np.log(10) - 50 - np.log(1 + np.exp(-8))
        assert got == pytest.approx(want, abs=1e-6)
        assert got == pytest.approx(-47.698, abs=1e-3)

    def test_matches_density_ratio_oracle(self):
        for x in np.arange(0.0, 5.0001, 0.01):
            got = equality_logit(float(x), 0.0).item()
            assert got == pytest.approx(density_ratio_oracle(float(x)), abs=1e-9)

    def test_monotone_non_increasing(self):
        grid = np.arange(0.0, 5.0001, 0.01)
        vals = np.array([equality_logit(float(x), 0.0).item() for x in grid])
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.argmax(vals) == 0

    @given(st.lists(st.floats(-3, 3), min_size=2, max_size=6),
           st.lists(st.floats(-3, 3), min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_symmetric(self, u, v):
        n = min(len(u), len(v))
        a = np.array(u[:n])
        b = np.array(v[:n])
        assert equality_logit(a, b).item() == pytest.approx(
            equality_logit(b, a).item(), abs=1e-12)

    def test_vector_norm_semantics(self):
        u = np.array([1.0, 2.0])
        v = np.array([1.0, 0.0])
        want = equality_logit(2.0, 0.0).item()  # same distance
        assert equality_logit(u, v).item() == pytest.approx(want, abs=1e-9)

    def test_noise_model_keeps_the_maximum_at_zero(self):
        # eps < sigma is what makes the logit maximal at 0 and non-increasing after
        assert 0 < EQ_EPS < EQ_SIGMA and EQ_MU > 0

    def test_gradient_finite_at_equal_points(self):
        p = Parameter("u", np.array([1.0, 1.0]))
        with Tape():
            p.zero_grad()
            backward(equality_logit(p, np.array([1.0, 1.0])))
        assert np.all(np.isfinite(p.grad))


class TestBoolVector:
    def test_bits(self):
        np.testing.assert_array_equal(bool_vector([1, 0]).data, [BIG, -BIG])

    def test_empty(self):
        assert bool_vector([]).data.shape == (0,)

    def test_sigma_saturated(self):
        vals = sigma(bool_vector([0, 1, 0, 1]).data)
        assert np.all((vals <= 1e-8) | (vals >= 1 - 1e-8))


class TestBroadcastConnective:
    def test_row_broadcast_matches_scalar(self):
        x = np.zeros((2, 2))
        y = np.array([[BIG], [-BIG]])
        z = conj(x, y).data
        for i in range(2):
            for j in range(2):
                assert z[i, j] == pytest.approx(conj(x[i, j], y[i, 0]).item(), abs=1e-12)

    def test_and_with_true_scalar(self):
        x = np.random.default_rng(10).uniform(-6, 6, size=(3, 4))
        z = conj(x, BIG).data
        np.testing.assert_allclose(z, x, atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeMismatch):
            conj(np.zeros((2, 3)), np.zeros(4))


class TestMaskClasses:
    def test_all_false_mask_passes_through(self):
        logits = np.array([0.5, -1.0, 2.0])
        out = mask_classes(logits, bool_vector([0, 0, 0]), -BIG).data
        np.testing.assert_allclose(out, logits, atol=1e-6)

    def test_true_condition_passes_through(self):
        logits = np.array([0.5, -1.0, 2.0])
        out = mask_classes(logits, bool_vector([1, 1, 0]), BIG - 1).data
        np.testing.assert_allclose(out, logits, atol=1e-6)

    def test_false_condition_suppresses(self):
        logits = np.array([0.0, 0.0, 0.0])
        out = mask_classes(logits, bool_vector([1, 0, 0]), -BIG).data
        assert out[0] <= -15
        np.testing.assert_allclose(out[1:], logits[1:], atol=1e-6)

    def test_batched_condition(self):
        logits = np.zeros((2, 3))
        cond = np.array([BIG, -BIG])
        out = mask_classes(logits, bool_vector([1, 0, 0]), T.Tensor(cond)).data
        assert out[0, 0] == pytest.approx(0.0, abs=1e-6)
        assert out[1, 0] <= -15

    def test_length_mismatch(self):
        with pytest.raises(T.ShapeMismatch):
            mask_classes(np.zeros(3), bool_vector([1, 0]), 0.0)


class TestLossInteraction:
    def test_loss_additivity(self):
        rng = np.random.default_rng(11)
        for n in (2, 5, 20):
            ls = rng.uniform(-10, 10, size=n)
            fused = np.sum(np.logaddexp(0.0, -ls))
            whole = float(np.logaddexp(0.0, -conj(*ls).item()))
            assert whole == pytest.approx(fused, rel=1e-9)

    def test_gradient_non_vanishing(self):
        # d loss(and(l_1..l_n)) / d l_i = -sigma(-l_i), independent of n
        for n in (2, 20, 200):
            params = [Parameter(f"l{i}", np.array(np.log(0.99 / 0.01))) for i in range(n)]
            with Tape():
                for p in params:
                    p.zero_grad()
                root = conj(*params)
                backward(T.softplus(T.neg(root)))
            for p in params:
                assert float(p.grad) == pytest.approx(-sigma(-p.value), abs=1e-9)
                assert abs(p.grad) == pytest.approx(0.01, abs=1e-4)

    def test_product_space_gradient_vanishes(self):
        t = np.full(200, 0.99)
        partial = np.prod(t[1:])  # d(prod)/dt_0
        assert partial == pytest.approx(0.99 ** 199, rel=1e-12)
        assert abs(partial - 0.1340) < 5e-3
        t2000 = 0.99 ** 1999
        assert t2000 < 1e-4


class TestTnorm:
    def test_lukasiewicz_dead_zone(self):
        assert tnorm_eval("lukasiewicz", 0.4, 0.5) == 0.0
        g1, g2 = tnorm_grad("lukasiewicz", 0.4, 0.5)
        assert g1 == 0.0 and g2 == 0.0

    def test_goedel_min(self):
        assert tnorm_eval("goedel-min", 0.3, 0.7) == pytest.approx(0.3)
        g1, g2 = tnorm_grad("goedel-min", 0.3, 0.7)
        assert (g1, g2) == (1.0, 0.0)

    def test_product_chain(self):
        vals = np.full(200, 0.99)
        prod = vals[0]
        for v in vals[1:]:
            prod = tnorm_eval("product", prod, v)
        assert prod == pytest.approx(0.99 ** 200, rel=1e-9)
        assert abs(prod - 0.1340) < 5e-3

    def test_domain_error(self):
        with pytest.raises(DomainError):
            tnorm_eval("product", 1.2, 0.5)
        with pytest.raises(DomainError):
            tnorm_grad("goedel-min", -0.1, 0.5)
