"""The flat parameter store (`tensor.pack`) and Adam over it.

Adam over the store must give, bit for bit, what the per-parameter formula
gives each parameter alone: every one of its operations is elementwise, so
the blocks may fall anywhere, also across parameters.  Values and moments
are compared through `.view(np.int64)`.
"""

import numpy as np
import pytest

from dasl import tensor as T
from dasl.compiler import compile
from dasl.interp import bind_theory
from dasl.lang import check_theory, parse_theory
from dasl.tensor import DuplicateParameter, NonFiniteGradient, Parameter, load_checkpoint, pack
from dasl.train import _CHUNK, AdamState, TrainConfig, adam_step, evaluate_classifier, train


def assert_bits(got, want, what=""):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape, what
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64), err_msg=what)


def reference_adam(values, ms, vs, grads, step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The Adam formula on one parameter's own arrays, parameter by parameter."""
    for value, m, v, g in zip(values, ms, vs, grads):
        m += (1.0 - b1) * (g - m)
        v += (1.0 - b2) * (g * g - v)
        value -= lr * (m / (1.0 - b1 ** step)) / (np.sqrt(v / (1.0 - b2 ** step)) + eps)


# one block boundary falls where `b` ends and `c` starts, the next inside `c`;
# a 0-d and an empty parameter sit among them
SHAPES = {"a": (), "b": (3, (_CHUNK - 1) // 3), "c": (2, 10000), "e": (0, 3), "d": (4,)}


def make_params(rng):
    return [Parameter(name, rng.normal(size=shape)) for name, shape in SHAPES.items()]


def random_grads(rng, params):
    return [rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 3, size=p.shape)
            for p in params]


class TestPack:
    def test_layout_in_list_order(self):
        params = make_params(np.random.default_rng(0))
        before = [(p.value.copy(), p.value.shape) for p in params]
        for p in params:
            p.grad[...] = np.random.default_rng(1).normal(size=p.shape)
        grads = [p.grad.copy() for p in params]
        store = pack(params)
        assert store.params == tuple(params)
        assert store.values.size == store.grads.size == sum(p.value.size for p in params)
        lo = 0
        for p, (value, shape), grad in zip(params, before, grads):
            assert p.value.shape == p.grad.shape == shape
            assert p.value.flags.c_contiguous and p.grad.flags.c_contiguous
            assert p.value.base is store.values and p.grad.base is store.grads
            assert_bits(p.value, value, p.name)
            assert_bits(p.grad, grad, p.name)
            assert_bits(store.values[lo:lo + value.size], value.reshape(-1), p.name)
            lo += value.size

    def test_views_write_through(self):
        params = make_params(np.random.default_rng(2))
        store = pack(params)
        params[2].value[1, 7] = 5.0
        params[2].zero_grad()
        params[2].grad += 1.0
        lo = 1 + params[1].value.size
        assert store.values[lo + 10007] == 5.0
        assert np.all(store.grads[lo:lo + params[2].value.size] == 1.0)
        store.grads.fill(0.0)
        assert not any(p.grad.any() for p in params)

    def test_second_pack_is_the_same_store(self):
        params = make_params(np.random.default_rng(3))
        store = pack(params)
        arrays = [(p.value, p.grad) for p in params]
        again = pack(list(params))
        assert again is store and again.values is store.values and again.grads is store.grads
        assert all(p.value is v and p.grad is g for p, (v, g) in zip(params, arrays))

    def test_another_order_or_a_rebound_value_packs_again(self):
        params = make_params(np.random.default_rng(4))
        store = pack(params)
        values = [p.value.copy() for p in params]
        other = pack(params[::-1])
        assert other is not store and other.values is not store.values
        for p, value in zip(params, values):
            assert p.value.base is other.values
            assert_bits(p.value, value, p.name)
        params[0].value = np.array(2.5)
        third = pack(params[::-1])
        assert third is not other and float(params[0].value) == 2.5

    def test_empty_list(self):
        store = pack([])
        assert store.values.size == 0 and store.params == ()
        assert adam_step([], AdamState()).step == 1

    def test_parameter_listed_twice_is_typed(self):
        c = Parameter("c", np.zeros(2))
        with pytest.raises(DuplicateParameter, match="parameter 'c' appears twice in the list"):
            pack([c, Parameter("d", np.zeros(1)), c])
        with pytest.raises(DuplicateParameter):
            adam_step([c, c], AdamState())
        assert c.store is None and c.value.base is None

    def test_two_parameters_sharing_a_name_is_typed(self):
        a, b = Parameter("p", np.zeros(2)), Parameter("p", np.zeros(2))
        a.grad[...], b.grad[...] = 1.0, -1.0
        state = AdamState(lr=0.1)
        with pytest.raises(DuplicateParameter, match="parameter 'p' names two parameters"):
            adam_step([a, b], state)
        assert state.step == 0 and state.m == {} and not a.value.any() and not b.value.any()


class TestAdamOverTheStore:
    def test_matches_the_per_parameter_formula(self):
        rng = np.random.default_rng(5)
        params = make_params(rng)
        values = [p.value.copy() for p in params]
        ms = [np.zeros(p.shape) for p in params]
        vs = [np.zeros(p.shape) for p in params]
        state = AdamState(lr=1e-2)
        for step in range(1, 5):
            grads = random_grads(rng, params)
            for p, g in zip(params, grads):
                p.grad[...] = g
            adam_step(params, state)
            reference_adam(values, ms, vs, grads, step, state.lr)
            for p, value, m, v in zip(params, values, ms, vs):
                assert_bits(p.value, value, f"value of {p.name}, step {step}")
                assert_bits(state.m[p.name], m, f"m of {p.name}, step {step}")
                assert_bits(state.v[p.name], v, f"v of {p.name}, step {step}")
        sizes = [p.value.size for p in params]
        assert sizes[0] + sizes[1] == _CHUNK and sum(sizes[:3]) > 2 * _CHUNK

    def test_moments_are_views_of_the_flat_moments(self):
        params = make_params(np.random.default_rng(6))
        state = AdamState()
        adam_step(params, state)
        store, m, v = state.flat
        assert store is pack(params) and m.size == v.size == store.values.size
        for p in params:
            assert state.m[p.name].base is m and state.v[p.name].base is v
            assert state.m[p.name].shape == p.shape
        views = dict(state.m)
        adam_step(params, state)
        assert all(state.m[name] is view for name, view in views.items())

    def test_moments_kept_by_name_carry_over_to_a_new_store(self):
        rng = np.random.default_rng(7)
        params = make_params(rng)
        twin = [Parameter(p.name, p.value.copy()) for p in params]
        state, alone = AdamState(lr=1e-2), [AdamState(lr=1e-2) for _ in params]
        for step in range(3):
            grads = random_grads(rng, params)
            for p, q, g in zip(params, twin, grads):
                p.grad[...], q.grad[...] = g, g
            # each step lays the list out anew: a rotation of the last one
            adam_step(params[step:] + params[:step], state)
            for q, s in zip(twin, alone):
                adam_step([q], s)
        for p, q, s in zip(params, twin, alone):
            assert_bits(p.value, q.value, p.name)
            assert_bits(state.m[p.name], s.m[p.name], p.name)
            assert_bits(state.v[p.name], s.v[p.name], p.name)

    def test_non_finite_gradient_names_the_first_and_changes_nothing(self):
        rng = np.random.default_rng(8)
        params = make_params(rng)
        state = AdamState(lr=1e-2)
        for p, g in zip(params, random_grads(rng, params)):
            p.grad[...] = g
        adam_step(params, state)
        store = pack(params)
        before = store.values.copy(), state.flat[1].copy(), state.flat[2].copy()
        params[4].grad[-1] = np.nan  # "d", last in the list
        params[2].grad[1, 9999] = -np.inf  # "c", the first offender in list order
        with pytest.raises(NonFiniteGradient, match="parameter 'c' has a non-finite gradient"):
            adam_step(params, state)
        assert state.step == 1 and pack(params) is store
        for got, want in zip((store.values, state.flat[1], state.flat[2]), before):
            assert_bits(got, want)


THEORY = """
sort Row dim 5;
sort K card 3;
rel classify : Row out 3 mlp 6 act sigmoid;
data Train : Row x K from "mem";
axiom labels : forall (r, y): Train . pi[y](classify(r));
"""


def toy(seed=0, n=24):
    th = check_theory(parse_theory(THEORY))
    rng = np.random.default_rng(seed)
    rows, ys = rng.normal(size=(n, 5)), rng.integers(3, size=n)
    return th, bind_theory(th, data={"Train": (rows, ys)}, seed=seed), rows, ys


class TestPackedModels:
    def test_mlp_forward_after_packing(self):
        _, interp, rows, _ = toy()
        binding = interp.symbols["classify"]
        store = pack(interp.parameters)
        store.values += np.linspace(-0.5, 0.5, store.values.size)  # writes reach the model
        (w0, w1), (b0, b1) = [p.value for p in binding.weights], [p.value for p in binding.biases]
        want = (1.0 / (1.0 + np.exp(-(rows @ w0 + b0)))) @ w1 + b1
        np.testing.assert_allclose(binding([rows]).data, want, rtol=1e-12, atol=1e-12)

    def test_table_shared_by_two_embedding_domains_is_packed_once(self):
        table = bind_theory(check_theory(parse_theory("sort F card 5 dim 3;"))).domains["F"]
        th = check_theory(parse_theory(
            "sort E card 5 dim 3;\ndata A : E from \"mem\";\ndata B : E from \"mem\";"))
        interp = bind_theory(th, data={"A": table, "B": table})
        shared = table.columns[0].param
        value = shared.value.copy()
        store = pack(interp.parameters)
        assert [p.name for p in store.params] == ["sort.E", "sort.F"]
        assert store.values.size == 30
        assert shared.value.base is store.values
        assert_bits(shared.value, value)
        for name in ("A", "B"):
            assert interp.domains[name].columns[0].param is shared

    def test_a_table_named_like_the_theorys_own_is_typed(self):
        # a table bound from another theory's sort of the same name: two
        # parameters named sort.E, which would share Adam's moments by name
        table = bind_theory(check_theory(parse_theory("sort E card 5 dim 3;"))).domains["E"]
        th = check_theory(parse_theory("sort E card 5 dim 3;\ndata A : E from \"mem\";"))
        interp = bind_theory(th, data={"A": table})
        with pytest.raises(DuplicateParameter, match="'sort.E' names two parameters"):
            pack(interp.parameters)

    def test_training_packs_every_plan_parameter_once(self, tmp_path):
        th, interp, rows, ys = toy(1)
        plan = compile(th, interp, batch_size=8, seed=1)
        config = TrainConfig(iterations=5, batch_size=8, lr=1e-2, cadence=5,
                             out_dir=str(tmp_path), eval_symbol="classify")
        train(plan, config, test_set=(rows, ys))
        store = pack(plan.parameters)
        assert all(p.value.base is store.values and p.grad.base is store.grads
                   for p in plan.parameters)
        assert store.values.size == interp.parameter_count
        # loading the checkpoint into packed parameters, as `dasl eval` does
        _, fresh, _, _ = toy(1)
        again = pack(fresh.parameters)
        loaded = load_checkpoint(tmp_path / "final.ckpt")
        for p in fresh.parameters:
            p.value[...] = loaded[p.name]
        assert_bits(again.values, store.values)
        assert (evaluate_classifier(fresh.symbols["classify"], rows, ys)
                == evaluate_classifier(interp.symbols["classify"], rows, ys))

    def test_set_up_leaves_the_parameters_unpacked(self):
        # packing copies every value: binding, compiling and a run of no steps do not pay it
        th, interp, _, _ = toy(2)
        plan = compile(th, interp, batch_size=8)
        assert all(p.store is None for p in interp.parameters)
        train(plan, TrainConfig(iterations=0, batch_size=8))
        assert all(p.store is None for p in interp.parameters)


def test_dense_gradients_accumulate_into_the_store():
    # backward adds into p.grad in place, so a step's gradients land in the store
    params = [Parameter("w", np.ones((2, 2))), Parameter("s", np.array(3.0))]
    store = pack(params)
    with T.Tape():
        T.backward(T.reduce_sum(T.mul(T.matmul(np.ones((1, 2)), params[0]), params[1])))
    assert_bits(store.grads, [3.0, 3.0, 3.0, 3.0, 4.0])
