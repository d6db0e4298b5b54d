"""Autodiff core: forward values, adjoints, and the gradient checker."""

import inspect
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab import tensor as tensor_module
from seqlab.errors import ContractError, DimensionError, NumericError
from seqlab.tensor import (
    LOG_FLOOR,
    Tensor,
    add,
    attention,
    backward,
    concat,
    gather,
    getitem,
    gradient_check,
    log,
    lstm,
    matmul,
    minimum,
    multiply,
    no_grad,
    record_ties,
    reduce_sum,
    reshape,
    scale,
    scatter_add,
    sigmoid,
    softmax,
    subtract,
    tanh,
    tensor,
)


def fd_assert(build, params, step=1e-5, tol=1e-6):
    """Run the gradient checker and fail with its report on a miss."""
    report = gradient_check(build, params, step=step, tolerance=tol)
    assert report.passed, report.summary()
    return report


class TestForwardValues:
    def test_softmax_known_point(self):
        out = softmax(tensor([0.0, math.log(3.0)]))
        np.testing.assert_allclose(out.values, [0.25, 0.75], rtol=0, atol=1e-15)

    def test_softmax_overflow_guard(self):
        out = softmax(tensor([1000.0, 1000.0]))
        np.testing.assert_allclose(out.values, [0.5, 0.5], rtol=0, atol=0)

    def test_softmax_large_negative_mask_is_exact_zero(self):
        out = softmax(tensor([0.0, -1e9]))
        assert out.values[1] == 0.0
        assert out.values[0] == 1.0

    def test_sigmoid_at_zero(self):
        assert sigmoid(tensor(0.0)).item() == 0.5

    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = sigmoid(tensor([-1e4, 1e4]))
        assert np.all(np.isfinite(out.values))
        np.testing.assert_allclose(out.values, [0.0, 1.0], atol=1e-12)

    def test_minimum_elementwise(self):
        out = minimum(tensor([0.6, 0.4]), tensor([0.5, 1.0]))
        np.testing.assert_array_equal(out.values, [0.5, 0.4])

    def test_log_clamps_at_floor(self):
        out = log(tensor([0.0, 1.0]))
        assert out.values[0] == math.log(LOG_FLOOR)
        assert out.values[1] == 0.0

    def test_scatter_add_accumulates_duplicates(self):
        attn = tensor([0.6, 0.3, 0.1])
        out = scatter_add(attn, np.array([5, 2, 5]), size=8)
        expect = np.zeros(8)
        expect[5] = 0.7
        expect[2] = 0.3
        np.testing.assert_allclose(out.values, expect, atol=1e-16)

    def test_gather_selects_rows(self):
        table = tensor(np.arange(12.0).reshape(4, 3))
        out = gather(table, np.array([2, 0]))
        np.testing.assert_array_equal(out.values, [[6, 7, 8], [0, 1, 2]])

    def test_concat_last_axis(self):
        out = concat([tensor([[1.0, 2.0]]), tensor([[3.0]])])
        np.testing.assert_array_equal(out.values, [[1.0, 2.0, 3.0]])

    def test_matmul_matches_numpy(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(3, 5))
        np.testing.assert_allclose(matmul(tensor(a), tensor(b)).values, a @ b)


class TestShapeErrors:
    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError, match="add"):
            add(tensor(np.zeros((2, 3))), tensor(np.zeros((4,))))

    def test_matmul_inner_mismatch(self):
        with pytest.raises(DimensionError, match="matmul"):
            matmul(tensor(np.zeros((2, 3))), tensor(np.zeros((4, 2))))
        with pytest.raises(DimensionError, match="matmul"):
            matmul(tensor(np.zeros((5, 2, 3))), tensor(np.zeros((4, 2))))

    def test_error_message_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\)"):
            multiply(tensor(np.zeros((2, 3))), tensor(np.zeros((2, 4))))

    def test_concat_leading_mismatch(self):
        with pytest.raises(DimensionError, match="concat"):
            concat([tensor(np.zeros((2, 3))), tensor(np.zeros((3, 3)))])

    def test_reshape_size_mismatch(self):
        with pytest.raises(DimensionError, match="reshape"):
            reshape(tensor(np.zeros(6)), (4, 2))

    def test_gather_out_of_range(self):
        with pytest.raises(ContractError, match="gather"):
            gather(tensor(np.zeros((3, 2))), np.array([0, 3]))

    def test_getitem_out_of_range(self):
        with pytest.raises(DimensionError, match="getitem"):
            getitem(tensor(np.zeros((2, 3))), (slice(None), 3))

    @pytest.mark.parametrize("key", [np.array([0, 1]), [0, 1], True, None])
    def test_getitem_rejects_advanced_indexing(self, key):
        with pytest.raises(ContractError, match="getitem"):
            getitem(tensor(np.zeros((2, 3))), key)

    def test_scatter_add_bucket_out_of_range(self):
        with pytest.raises(ContractError, match="scatter_add"):
            scatter_add(tensor(np.ones(3)), np.array([0, 1, 5]), size=4)

    def test_attention_shape_mismatch(self):
        z = lambda *shape: tensor(np.zeros(shape))
        memory = (z(2, 3, 4), z(2, 1, 4), z(2, 3, 5), z(4), z(4))
        with pytest.raises(DimensionError, match="attention"):
            attention(*memory, z(2, 4))  # penalty wider than the source
        with pytest.raises(DimensionError, match="attention"):
            attention(*memory, z(2, 3), z(2, 4))  # so is the coverage

    def test_lstm_two_directions_take_both_start_states(self):
        z = lambda *shape: tensor(np.zeros(shape))
        x, cell, h0 = z(2, 3, 4), (z(4, 12), z(3, 12), z(12)), z(2, 3)
        lstm(x, *cell, h0, h0)
        with pytest.raises(DimensionError, match="lstm"):
            lstm(x, *cell, h0, h0, back=cell)

    def test_backward_requires_scalar_root(self):
        x = tensor([1.0, 2.0])
        with pytest.raises(ContractError, match="scalar"):
            backward(add(x, x), wrt=[x])


# Every op that builds a tape node: its name -> a builder that, given a
# source of random leaves, returns the op's Tensor inputs and a call on them.
RECORDING_OPS = {
    "add": lambda t: ((t(3, 4), t(4)), add),
    "subtract": lambda t: ((t(3, 4), t(3, 1)), subtract),
    "multiply": lambda t: ((t(3, 4), t(4)), multiply),
    "scale": lambda t: ((t(3, 4),), lambda a: scale(a, -2.5)),
    "matmul": lambda t: ((t(2, 3, 4), t(4, 5)), matmul),
    "concat": lambda t: ((t(3, 2), t(3, 4), t(3, 1)), lambda *parts: concat(parts)),
    "reshape": lambda t: ((t(3, 4),), lambda a: reshape(a, (2, -1))),
    "getitem": lambda t: ((t(3, 4),), lambda a: getitem(a, (slice(1, None), 2))),
    "sigmoid": lambda t: ((t(3, 4),), sigmoid),
    "tanh": lambda t: ((t(3, 4),), tanh),
    "softmax": lambda t: ((t(3, 4),), softmax),
    "log": lambda t: ((t(3, 4),), log),
    "minimum": lambda t: ((t(3, 4), t(4)), minimum),
    "reduce_sum": lambda t: ((t(3, 4),), lambda a: reduce_sum(a, axis=1)),
    "gather": lambda t: ((t(5, 3),), lambda a: gather(a, np.array([4, 0, 4]))),
    "scatter_add": lambda t: (
        (t(2, 4),),
        lambda a: scatter_add(a, np.array([[0, 2, 2, 1], [3, 3, 0, 1]]), 5),
    ),
    "lstm": lambda t: (
        (t(2, 3, 4), t(4, 12), t(3, 12), t(12), t(2, 3), t(2, 3)),
        lambda *args: lstm(*args, keep=np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])),
    ),
    "attention": lambda t: (
        (t(2, 3, 4), t(2, 2, 4), t(2, 3, 5), t(4), t(4), t(2, 3), t(2, 3)),
        attention,
    ),
}


def random_leaves(seed=11):
    rng = np.random.default_rng(seed)
    return lambda *shape: tensor(rng.uniform(0.1, 2.0, size=shape))


def test_recording_ops_cover_every_op():
    recorded = re.findall(r'_record\(out, "(\w+)"', inspect.getsource(tensor_module))
    assert sorted(recorded) == sorted(RECORDING_OPS)


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        x = tensor(np.arange(6.0).reshape(2, 3))
        grads = backward(reduce_sum(x), wrt=[x])
        np.testing.assert_array_equal(grads[x], np.ones((2, 3)))

    def test_linearity_of_adjoints(self):
        a, b = tensor(2.0), tensor(3.0)
        grads = backward(add(a, b), wrt=[a, b])
        assert grads[a] == 1.0 and grads[b] == 1.0

    def test_reuse_accumulates(self):
        x = tensor([1.5])
        grads = backward(reduce_sum(add(x, x)), wrt=[x])
        np.testing.assert_array_equal(grads[x], [2.0])

    def test_quadratic_gradient_exact(self):
        v = np.array([1.0, -2.0, 0.5])
        x = tensor(v)
        grads = backward(reduce_sum(multiply(x, x)), wrt=[x])
        np.testing.assert_allclose(grads[x], 2 * v, rtol=0, atol=0)

    def test_minimum_routes_to_smaller_argument(self):
        a = tensor([0.6, 0.4])
        b = tensor([0.5, 1.0])
        grads = backward(reduce_sum(minimum(a, b)), wrt=[a, b])
        np.testing.assert_array_equal(grads[a], [0.0, 1.0])
        np.testing.assert_array_equal(grads[b], [1.0, 0.0])

    def test_minimum_tie_routes_to_first_argument(self):
        a = tensor([1.0])
        b = tensor([1.0])
        grads = backward(reduce_sum(minimum(a, b)), wrt=[a, b])
        np.testing.assert_array_equal(grads[a], [1.0])
        np.testing.assert_array_equal(grads[b], [0.0])

    def test_log_softmax_gather_gradient_closed_form(self):
        # d/dz_i log softmax(z)_k == (i == k) - softmax(z)_i
        z = np.array([0.3, -1.2, 2.0, 0.7])
        k = 2
        zt = tensor(z)
        probs = softmax(zt)
        picked = multiply(log(probs), tensor(np.eye(4)[k]))
        grads = backward(reduce_sum(picked), wrt=[zt])
        expect = np.eye(4)[k] - np.exp(z) / np.exp(z).sum()
        np.testing.assert_allclose(grads[zt], expect, atol=1e-12)

    def test_log_gradient_zero_below_floor(self):
        x = tensor([0.5, 0.0])
        grads = backward(reduce_sum(log(x)), wrt=[x])
        np.testing.assert_allclose(grads[x], [2.0, 0.0])

    def test_unreachable_wrt_leaf_gets_zeros(self):
        x = tensor([1.0, 2.0])
        unused = tensor(np.zeros((3, 3)))
        grads = backward(reduce_sum(x), wrt=[x, unused])
        np.testing.assert_array_equal(grads[unused], np.zeros((3, 3)))

    def test_backward_does_not_accumulate_across_calls(self):
        x = tensor([1.0, 2.0])
        backward(reduce_sum(x), wrt=[x])
        grads = backward(reduce_sum(multiply(x, x)), wrt=[x])
        np.testing.assert_array_equal(grads[x], [2.0, 4.0])
        assert not hasattr(x, "grad")

    def test_gather_gradient_accumulates_repeats(self):
        table = tensor(np.ones((3, 2)))
        grads = backward(reduce_sum(gather(table, np.array([0, 0, 1]))), wrt=[table])
        np.testing.assert_array_equal(grads[table], [[2, 2], [1, 1], [0, 0]])

    def test_broadcast_add_sums_adjoint(self):
        bias = tensor(np.zeros(3))
        x = tensor(np.ones((4, 3)))
        grads = backward(reduce_sum(add(x, bias)), wrt=[bias])
        np.testing.assert_array_equal(grads[bias], [4.0, 4.0, 4.0])

    def test_into_sums_in_place_and_zero_fills(self):
        x = tensor([1.5, -2.0])
        unused = tensor(np.zeros(2))
        const = tensor([3.0, 4.0])

        def root():  # each backward consumes its graph, so each gets its own
            return reduce_sum(add(multiply(x, const), multiply(x, x)))

        want = backward(root(), wrt=[x, unused])
        into = [np.full(2, np.nan), np.full(2, np.nan)]
        got = backward(root(), wrt=[x, unused], into=into)
        assert list(got) == [x, unused] and got[x] is into[0] and got[unused] is into[1]
        np.testing.assert_array_equal(into[0], want[x])
        np.testing.assert_array_equal(into[1], [0.0, 0.0])

    def test_into_needs_one_array_per_wrt_leaf(self):
        x = tensor([1.0])
        with pytest.raises(ContractError, match="2 arrays"):
            backward(reduce_sum(x), wrt=[x], into=[np.zeros(1), np.zeros(1)])

    def test_leaf_listed_twice_is_rejected(self):
        # two arrays for one leaf: only the first would ever be written
        x = tensor([1.0, 2.0])
        into = [np.full(2, np.nan), np.zeros(2)]
        with pytest.raises(ContractError, match=r"wrt\[1\] repeats the leaf of wrt\[0\]"):
            backward(reduce_sum(multiply(x, x)), wrt=[x, x], into=into)

    def test_into_array_of_another_shape_is_rejected(self):
        # a (1,) adjoint would broadcast into a (3,) array without a word
        x, y = tensor([2.0, 3.0]), tensor([4.0])
        into = [np.zeros(2), np.zeros(3)]
        with pytest.raises(ContractError, match=r"into\[1\] has shape \(3,\), its leaf \(1,\)"):
            backward(reduce_sum(multiply(x, y)), wrt=[x, y], into=into)

    def test_root_leaf_gets_ones(self):
        x, other = tensor([[2.5]]), tensor([1.0])
        grads = backward(x, wrt=[x, other])
        np.testing.assert_array_equal(grads[x], [[1.0]])
        np.testing.assert_array_equal(grads[other], [0.0])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_returned_arrays_are_fresh_and_writable(self, dtype):
        # a reduce_sum adjoint is a read-only broadcast view; the map holds a copy
        x = tensor(np.arange(6.0, dtype=dtype).reshape(2, 3))
        grads = backward(reduce_sum(x), wrt=[x])
        assert grads[x].flags.owndata and grads[x].dtype == dtype
        grads[x] *= 2.0  # raises on a read-only view
        np.testing.assert_array_equal(grads[x], np.full((2, 3), 2.0))

    def test_interior_wrt_entry_is_rejected(self):
        # its adjoint lives in the tape's own map: it would read as zeros
        x = tensor([1.0, 2.0])
        y = multiply(x, x)
        with pytest.raises(ContractError, match=r"wrt\[0\] is a multiply node, not a leaf"):
            backward(reduce_sum(y), wrt=[y, x])

    def test_second_backward_through_a_consumed_graph_raises(self):
        x = tensor([1.0, 2.0])
        y = multiply(x, x)
        first = reduce_sum(y)
        backward(first, wrt=[x])
        assert first.parents == () and y.parents == ()
        np.testing.assert_array_equal(y.values, [1.0, 4.0])  # values stay readable
        assert first.item() == 5.0
        for root in (first, reduce_sum(y)):
            with pytest.raises(ContractError, match="consumed by an earlier backward"):
                backward(root, wrt=[x])

    def test_each_vjp_runs_after_the_nodes_above_it_are_freed(self):
        # the arrays a consumed node holds, saved for its VJP, are gone
        # before the VJP below it runs, though the caller holds the root
        x = tensor(np.linspace(-1.0, 1.0, 5))
        seen = []

        def probe_vjp(g):
            seen.append(saved())
            return (g,)

        probe = Tensor(x.values * 1.0, op="probe", parents=(x,), vjp=probe_vjp)
        top = tanh(probe)  # tanh's VJP reads its own output
        saved = weakref.ref(top.values)
        root = reduce_sum(top)
        del top
        backward(root, wrt=[x])
        assert seen == [None]

    @pytest.mark.parametrize("name", sorted(RECORDING_OPS))
    def test_no_grad_produces_leaves(self, name):
        inputs, op = RECORDING_OPS[name](random_leaves())
        recorded = op(*inputs)
        assert recorded.op == name
        assert len(recorded.parents) == len(inputs)
        assert all(p is x for p, x in zip(recorded.parents, inputs))
        with no_grad():
            silent = op(*inputs)
        assert silent.is_leaf and silent.parents == ()
        assert silent.values.dtype == recorded.values.dtype
        assert silent.values.shape == recorded.values.shape
        assert silent.values.tobytes() == recorded.values.tobytes()


class TestAttentionMemory:
    """Peak memory of `attention` at a summarisation-length shape (B 4, T
    100, S 400, a 64), where one [B, T, S, a] float64 array is 82 MB.
    tracemalloc counts numpy's allocations exactly, so the bounds are
    deterministic; the inputs exist before counting starts."""

    BSZ, STEPS, SRC, DIM = 4, 100, 400, 64
    VOLUME = BSZ * STEPS * SRC * DIM * 8  # bytes of one [B, T, S, a] array

    def leaves(self, coverage):
        rng = np.random.default_rng(0)
        b, t, s, a = self.BSZ, self.STEPS, self.SRC, self.DIM
        arrays = [
            rng.normal(size=(b, s, a)) * 0.1, rng.normal(size=(b, t, a)) * 0.1,
            rng.normal(size=(b, s, 2 * a)), rng.normal(size=a), rng.normal(size=a),
            np.zeros((b, s)),
        ]
        return [tensor(x) for x in arrays] + ([tensor(np.zeros((b, s)))] if coverage else [])

    @staticmethod
    def peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("coverage", [False, True], ids=["plain", "coverage"])
    def test_forward_and_backward_keep_one_feature_array(self, coverage):
        leaves = self.leaves(coverage)
        wrt = [t for i, t in enumerate(leaves) if i != 5]  # all but the penalty

        def run():
            backward(reduce_sum(attention(*leaves)), wrt=wrt)

        assert self.peak(run) < 1.5 * self.VOLUME

    @pytest.mark.parametrize("coverage", [False, True], ids=["plain", "coverage"])
    def test_no_grad_forward_works_in_runs_of_steps(self, coverage):
        leaves = self.leaves(coverage)
        cols = 2 * self.SRC + 2 * self.DIM if coverage else self.SRC + 2 * self.DIM
        out_bytes = self.BSZ * self.STEPS * cols * 8

        def run():
            with no_grad():
                attention(*leaves)

        assert self.peak(run) < out_bytes + 3 * tensor_module.ATTENTION_BLOCK * 8


class TestFiniteDifferences:
    """Every operator's adjoint against central differences."""

    rng = np.random.default_rng(42)

    def weighted(self, op):
        """Reduce an op output to a scalar against a fixed random direction."""

        def build(leaves):
            out = op(leaves)
            w = tensor(np.random.default_rng(7).normal(size=out.shape))
            return reduce_sum(multiply(out, w))

        return build

    def test_add_broadcast(self):
        p = {"a": self.rng.normal(size=(3, 4)), "b": self.rng.normal(size=(4,))}
        fd_assert(self.weighted(lambda l: add(l["a"], l["b"])), p)

    def test_subtract_broadcast(self):
        p = {"a": self.rng.normal(size=(2, 1, 4)), "b": self.rng.normal(size=(3, 1))}
        fd_assert(self.weighted(lambda l: subtract(l["a"], l["b"])), p)

    def test_multiply_broadcast(self):
        p = {"a": self.rng.normal(size=(3, 4)), "b": self.rng.normal(size=(3, 1))}
        fd_assert(self.weighted(lambda l: multiply(l["a"], l["b"])), p)

    def test_scale(self):
        p = {"a": self.rng.normal(size=(5,))}
        fd_assert(self.weighted(lambda l: scale(l["a"], -1.7)), p)

    @pytest.mark.parametrize(
        "sa,sb",
        [
            ((4, 3), (3, 5)),
            ((2, 4, 3), (3, 5)),
            ((2, 4, 3), (2, 3, 5)),
            ((4, 3), (3,)),
            ((3,), (3, 5)),
            ((2, 4, 3), (3,)),
            ((3,), (3,)),
            ((2, 2, 4, 3), (3, 5)),
        ],
    )
    def test_matmul_variants(self, sa, sb):
        p = {"a": self.rng.normal(size=sa), "b": self.rng.normal(size=sb)}
        fd_assert(self.weighted(lambda l: matmul(l["a"], l["b"])), p)

    def test_concat(self):
        p = {"a": self.rng.normal(size=(2, 3)), "b": self.rng.normal(size=(2, 5))}
        fd_assert(self.weighted(lambda l: concat([l["a"], l["b"]])), p)

    def test_reshape(self):
        p = {"a": self.rng.normal(size=(2, 6))}
        fd_assert(self.weighted(lambda l: reshape(l["a"], (3, 4))), p)

    @pytest.mark.parametrize(
        "key",
        [
            (slice(None), 1, slice(None, 3)),
            (..., slice(2, None)),
            (-1, slice(None, None, 2)),
            2,
        ],
    )
    def test_getitem(self, key):
        p = {"a": self.rng.normal(size=(3, 4, 5))}
        fd_assert(self.weighted(lambda l: getitem(l["a"], key)), p)

    def test_getitem_adjoint_is_zero_off_the_slice(self):
        a = tensor(np.arange(24.0).reshape(2, 3, 4))
        grads = backward(reduce_sum(getitem(a, (slice(None), 1, slice(None, 2)))), wrt=[a])
        expected = np.zeros((2, 3, 4))
        expected[:, 1, :2] = 1.0
        np.testing.assert_array_equal(grads[a], expected)

    def test_sigmoid(self):
        p = {"a": self.rng.normal(size=(7,))}
        fd_assert(self.weighted(lambda l: sigmoid(l["a"])), p)

    def test_tanh(self):
        p = {"a": self.rng.normal(size=(7,))}
        fd_assert(self.weighted(lambda l: tanh(l["a"])), p)

    def test_softmax(self):
        p = {"a": self.rng.normal(size=(3, 6))}
        fd_assert(self.weighted(lambda l: softmax(l["a"])), p)

    def test_log_above_floor(self):
        p = {"a": self.rng.uniform(0.5, 2.0, size=(6,))}
        fd_assert(self.weighted(lambda l: log(l["a"])), p)

    def test_minimum_away_from_ties(self):
        p = {"a": np.array([0.1, 3.0, -1.0]), "b": np.array([2.0, 1.0, 4.0])}
        fd_assert(self.weighted(lambda l: minimum(l["a"], l["b"])), p)

    @pytest.mark.parametrize("axis", [None, 0, 1, -1])
    def test_reduce_sum_axes(self, axis):
        p = {"a": self.rng.normal(size=(3, 4))}
        fd_assert(self.weighted(lambda l: reduce_sum(l["a"], axis=axis)), p)

    def test_gather(self):
        idx = np.array([[0, 2], [2, 1]])
        p = {"a": self.rng.normal(size=(3, 4))}
        fd_assert(self.weighted(lambda l: gather(l["a"], idx)), p)

    def test_scatter_add(self):
        idx = self.rng.integers(0, 6, size=(3, 5))
        p = {"a": self.rng.normal(size=(3, 5))}
        fd_assert(self.weighted(lambda l: scatter_add(l["a"], idx, size=6)), p)

    def test_log_softmax_pick_matches_fd(self):
        onehot = np.eye(5)[3]

        def build(leaves):
            probs = softmax(leaves["z"])
            return scale(reduce_sum(multiply(log(probs), tensor(onehot))), -1.0)

        fd_assert(build, {"z": self.rng.normal(size=(5,))})

    def test_composite_chain(self):
        def build(leaves):
            h = tanh(matmul(leaves["x"], leaves["w"]))
            return reduce_sum(multiply(softmax(h), h))

        p = {"x": self.rng.normal(size=(4, 3)), "w": self.rng.normal(size=(3, 6))}
        fd_assert(build, p)


class TestSoftmaxProperties:
    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=16),
    )
    @settings(max_examples=200, deadline=None)
    def test_simplex(self, xs):
        out = softmax(tensor(np.array(xs))).values
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) < 1e-12

    @given(
        st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=8),
        st.floats(min_value=-100, max_value=100),
    )
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, xs, c):
        x = np.array(xs)
        a = softmax(tensor(x)).values
        b = softmax(tensor(x + c)).values
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestGradientChecker:
    def test_quadratic_is_clean(self):
        report = fd_assert(
            lambda l: reduce_sum(multiply(l["x"], l["x"])),
            {"x": np.array([1.0, -2.0, 0.5])},
        )
        assert report.max_rel_error < 1e-8

    def test_step_validation(self):
        build = lambda l: reduce_sum(l["x"])
        with pytest.raises(ContractError, match="step"):
            gradient_check(build, {"x": np.ones(2)}, step=0.0)
        with pytest.raises(ContractError, match="step"):
            gradient_check(build, {"x": np.ones(2)}, step=0.1)

    def test_exact_tie_is_flagged_and_excluded(self):
        params = {"a": np.array([2.0, 5.0]), "b": np.array([2.0, 7.0])}
        report = gradient_check(
            lambda l: reduce_sum(minimum(l["a"], l["b"])), params
        )
        assert report.ties, "tie should be reported"
        assert report.excluded["a"] == (0,)
        assert report.excluded["b"] == (0,)
        assert report.passed

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_loss_raises(self):
        def build(leaves):
            big = multiply(leaves["x"], leaves["x"])
            return reduce_sum(multiply(big, big))

        with pytest.raises(NumericError):
            gradient_check(build, {"x": np.array([1e200])})

    def test_report_summary_mentions_groups(self):
        report = gradient_check(
            lambda l: reduce_sum(multiply(l["w"], l["w"])), {"w": np.ones(3)}
        )
        text = report.summary()
        assert "w" in text and "PASS" in text

    def test_tie_recording_context(self):
        with record_ties() as events:
            minimum(tensor([1.0, 2.0]), tensor([1.0, 3.0]))
        assert len(events) == 1
        np.testing.assert_array_equal(events[0].mask, [True, False])
