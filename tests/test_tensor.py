"""Autodiff core: forward values, adjoints, and the gradient checker."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab.errors import ContractError, DimensionError, NumericError
from seqlab.tensor import (
    LOG_FLOOR,
    Tensor,
    add,
    backward,
    concat,
    gather,
    getitem,
    gradient_check,
    log,
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

    def test_backward_requires_scalar_root(self):
        x = tensor([1.0, 2.0])
        with pytest.raises(ContractError, match="scalar"):
            backward(add(x, x))


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        x = tensor(np.arange(6.0).reshape(2, 3))
        grads = backward(reduce_sum(x))
        np.testing.assert_array_equal(grads[x], np.ones((2, 3)))

    def test_linearity_of_adjoints(self):
        a, b = tensor(2.0), tensor(3.0)
        grads = backward(add(a, b))
        assert grads[a] == 1.0 and grads[b] == 1.0

    def test_reuse_accumulates(self):
        x = tensor([1.5])
        grads = backward(reduce_sum(add(x, x)))
        np.testing.assert_array_equal(grads[x], [2.0])

    def test_quadratic_gradient_exact(self):
        v = np.array([1.0, -2.0, 0.5])
        x = tensor(v)
        grads = backward(reduce_sum(multiply(x, x)))
        np.testing.assert_allclose(grads[x], 2 * v, rtol=0, atol=0)

    def test_minimum_routes_to_smaller_argument(self):
        a = tensor([0.6, 0.4])
        b = tensor([0.5, 1.0])
        grads = backward(reduce_sum(minimum(a, b)))
        np.testing.assert_array_equal(grads[a], [0.0, 1.0])
        np.testing.assert_array_equal(grads[b], [1.0, 0.0])

    def test_minimum_tie_routes_to_first_argument(self):
        a = tensor([1.0])
        b = tensor([1.0])
        grads = backward(reduce_sum(minimum(a, b)))
        np.testing.assert_array_equal(grads[a], [1.0])
        np.testing.assert_array_equal(grads[b], [0.0])

    def test_log_softmax_gather_gradient_closed_form(self):
        # d/dz_i log softmax(z)_k == (i == k) - softmax(z)_i
        z = np.array([0.3, -1.2, 2.0, 0.7])
        k = 2
        zt = tensor(z)
        probs = softmax(zt)
        picked = multiply(log(probs), tensor(np.eye(4)[k]))
        grads = backward(reduce_sum(picked))
        expect = np.eye(4)[k] - np.exp(z) / np.exp(z).sum()
        np.testing.assert_allclose(grads[zt], expect, atol=1e-12)

    def test_log_gradient_zero_below_floor(self):
        x = tensor([0.5, 0.0])
        grads = backward(reduce_sum(log(x)))
        np.testing.assert_allclose(grads[x], [2.0, 0.0])

    def test_unreachable_wrt_leaf_gets_zeros(self):
        x = tensor([1.0, 2.0])
        unused = tensor(np.zeros((3, 3)))
        grads = backward(reduce_sum(x), wrt=[x, unused])
        np.testing.assert_array_equal(grads[unused], np.zeros((3, 3)))

    def test_backward_does_not_accumulate_across_calls(self):
        x = tensor([1.0, 2.0])
        backward(reduce_sum(x))
        grads = backward(reduce_sum(multiply(x, x)))
        np.testing.assert_array_equal(grads[x], [2.0, 4.0])
        assert not hasattr(x, "grad")

    def test_gather_gradient_accumulates_repeats(self):
        table = tensor(np.ones((3, 2)))
        grads = backward(reduce_sum(gather(table, np.array([0, 0, 1]))))
        np.testing.assert_array_equal(grads[table], [[2, 2], [1, 1], [0, 0]])

    def test_broadcast_add_sums_adjoint(self):
        bias = tensor(np.zeros(3))
        x = tensor(np.ones((4, 3)))
        grads = backward(reduce_sum(add(x, bias)))
        np.testing.assert_array_equal(grads[bias], [4.0, 4.0, 4.0])

    def test_no_grad_produces_leaves(self):
        x = tensor([1.0, 2.0])
        with no_grad():
            y = add(x, x)
        assert y.is_leaf and y.parents == ()


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
        grads = backward(reduce_sum(getitem(a, (slice(None), 1, slice(None, 2)))))
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
