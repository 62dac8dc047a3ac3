"""Tensor core: forward semantics, tape bookkeeping, gradient correctness."""

import math

import numpy as np
import pytest

from cxrgen.errors import ContractError, DimensionError
from cxrgen.tensor import (GradientTape, Tensor, add, batched_matmul, concat, dense,
                           embedding_lookup, layer_norm, log_softmax, matmul, mul,
                           neg, reduce_sum, relu, reshape, softmax, swap_axes,
                           take_per_row)

from helpers import check_gradients, numeric_grad, rel_err


def t(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


class TestForwardSemantics:
    def test_matmul_identity(self):
        a = t([[1.0, 2.0], [3.0, 4.0]])
        eye = t(np.eye(2))
        np.testing.assert_allclose(matmul(a, eye).data, a.data)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(DimensionError):
            matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))

    def test_softmax_known_values(self):
        # logits [ln 1, ln 3] -> probabilities [0.25, 0.75]
        s = softmax(t([[math.log(1.0), math.log(3.0)]]))
        np.testing.assert_allclose(s.data, [[0.25, 0.75]], atol=1e-12)

    def test_softmax_shift_invariance(self):
        x = np.array([[0.5, -1.2, 3.3, 0.0]])
        a = softmax(t(x)).data
        b = softmax(t(x + 1000.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)
        assert np.isfinite(b).all()

    def test_softmax_rows_sum_to_one(self):
        x = t(np.random.default_rng(0).standard_normal((5, 7)))
        s = softmax(x).data
        np.testing.assert_allclose(s.sum(axis=1), np.ones(5), atol=1e-12)

    def test_log_softmax_matches_log_of_softmax(self):
        x = t(np.random.default_rng(1).standard_normal((3, 4)))
        np.testing.assert_allclose(log_softmax(x).data, np.log(softmax(x).data), atol=1e-12)

    def test_layer_norm_known_values(self):
        # [1, 3] with unit gamma, zero beta -> [-1, 1] (up to epsilon)
        out = layer_norm(t([[1.0, 3.0]]), t(np.ones(2)), t(np.zeros(2)))
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-5)

    def test_layer_norm_rows_standardized(self):
        x = t(np.random.default_rng(2).standard_normal((4, 8)) * 3 + 1)
        out = layer_norm(x, t(np.ones(8)), t(np.zeros(8))).data
        np.testing.assert_allclose(out.mean(axis=1), np.zeros(4), atol=1e-9)
        np.testing.assert_allclose(out.var(axis=1), np.ones(4), atol=1e-4)

    def test_concat_round_trip(self):
        a, b = t(np.arange(6).reshape(2, 3)), t(np.arange(6, 14).reshape(2, 4))
        joined = concat([a, b])
        assert joined.shape == (2, 7)
        np.testing.assert_allclose(joined.data[:, :3], a.data)
        np.testing.assert_allclose(joined.data[:, 3:], b.data)

    def test_batched_matmul_is_matmul_per_leading_index(self):
        rng = np.random.default_rng(5)
        a, b = t(rng.standard_normal((2, 3, 4, 5))), t(rng.standard_normal((2, 3, 5, 2)))
        out = batched_matmul(a, b)
        assert out.shape == (2, 3, 4, 2)
        for i in range(2):
            for j in range(3):
                np.testing.assert_allclose(out.data[i, j], a.data[i, j] @ b.data[i, j],
                                           atol=1e-12)
        two_d = batched_matmul(t(a.data[0, 0]), t(b.data[0, 0]))
        np.testing.assert_allclose(two_d.data, a.data[0, 0] @ b.data[0, 0], atol=1e-12)

    def test_batched_matmul_shape_mismatch(self):
        with pytest.raises(DimensionError):
            batched_matmul(t(np.ones((2, 3, 4))), t(np.ones((3, 4, 2))))
        with pytest.raises(DimensionError):
            batched_matmul(t(np.ones((2, 3, 4))), t(np.ones((2, 3, 2))))
        with pytest.raises(DimensionError):
            batched_matmul(t(np.ones((2, 3, 4))), t(np.ones((4, 2))))

    def test_swap_axes_matches_numpy(self):
        x = t(np.arange(24.0).reshape(2, 3, 4))
        np.testing.assert_array_equal(swap_axes(x, 0, 2).data, np.swapaxes(x.data, 0, 2))
        np.testing.assert_array_equal(swap_axes(x, -1, -2).data, np.swapaxes(x.data, 1, 2))
        with pytest.raises(DimensionError):
            swap_axes(x, 0, 3)

    def test_concat_shape_mismatch(self):
        with pytest.raises(DimensionError):
            concat([t(np.ones((2, 3))), t(np.ones((3, 3)))])

    def test_embedding_lookup_range_check(self):
        table = t(np.random.default_rng(3).standard_normal((5, 4)))
        with pytest.raises(ContractError):
            embedding_lookup(table, [0, 5])

    def test_reshape_size_mismatch(self):
        with pytest.raises(DimensionError):
            reshape(t(np.ones((2, 3))), (4, 2))

    def test_dense_relu(self):
        x = t([[-1.0, 2.0]])
        w = t(np.eye(2))
        b = t(np.zeros(2))
        np.testing.assert_allclose(relu(dense(x, w, b)).data, [[0.0, 2.0]])

    def test_only_the_shapes_the_model_uses(self):
        # no 0-d operand for add and mul, no 1-d input for layer_norm
        x = t(np.ones((2, 3)))
        with pytest.raises(DimensionError):
            add(x, Tensor(2.5))
        with pytest.raises(DimensionError):
            mul(x, Tensor(2.5))
        with pytest.raises(DimensionError):
            layer_norm(t([1.0, 3.0]), t(np.ones(2)), t(np.zeros(2)))

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(4)
        x = t(rng.standard_normal((3, 5)) * 50)
        for out in (softmax(x), log_softmax(x), relu(x),
                    layer_norm(x, t(np.ones(5)), t(np.zeros(5)))):
            assert np.isfinite(out.data).all()


class TestTapeBookkeeping:
    def test_backward_requires_scalar_root(self):
        x = t(np.ones((2, 2)))
        with GradientTape() as tape:
            y = mul(x, 2.0)
        with pytest.raises(ContractError):
            tape.backward(y)

    def test_grad_before_backward_rejected(self):
        tape = GradientTape()
        with pytest.raises(ContractError):
            tape.grad(t([1.0]))

    def test_constant_root_gives_zero_gradients(self):
        x = t(np.ones(3))
        with GradientTape() as tape:
            _ = reduce_sum(mul(x, 3.0))
        const = Tensor(np.asarray(5.0))
        tape.backward(const)
        np.testing.assert_allclose(tape.grad(x), np.zeros(3))

    def test_untracked_tensor_gets_zeros(self):
        x, unused = t(np.ones(3)), t(np.ones(4))
        with GradientTape() as tape:
            loss = reduce_sum(x)
        tape.backward(loss)
        np.testing.assert_allclose(tape.grad(unused), np.zeros(4))

    def test_no_tape_records_nothing(self):
        x = t(np.ones(3))
        y = mul(x, 2.0)
        assert y.node_id is None

    def test_accumulation_through_shared_input(self):
        # d/dx sum(x * x) = 2x via two uses of the same tensor
        x = t([1.0, 2.0, 3.0])
        with GradientTape() as tape:
            loss = reduce_sum(mul(x, x))
        tape.backward(loss)
        np.testing.assert_allclose(tape.grad(x), [2.0, 4.0, 6.0])

    def test_residual_gradient_sums_both_paths(self):
        # y = x + f(x): gradient accumulates from the skip and the branch
        x = t([1.0, -2.0])
        with GradientTape() as tape:
            loss = reduce_sum(add(x, mul(x, 3.0)))
        tape.backward(loss)
        np.testing.assert_allclose(tape.grad(x), [4.0, 4.0])

    def test_fresh_tape_reuses_parameters(self):
        x = t([2.0])
        for expected in (2.0, 2.0):
            with GradientTape() as tape:
                loss = reduce_sum(mul(x, 2.0))
            tape.backward(loss)
            np.testing.assert_allclose(tape.grad(x), [expected])

    def test_matmul_gradient_example(self):
        # loss = sum(A @ B): dA = ones @ B.T = [[5, 6], [5, 6]] for B rows summing 5, 6
        a = t(np.ones((2, 2)))
        b = t([[2.0, 3.0], [4.0, 2.0]])
        with GradientTape() as tape:
            loss = reduce_sum(matmul(a, b))
        tape.backward(loss)
        np.testing.assert_allclose(tape.grad(a), [[5.0, 6.0], [5.0, 6.0]])
        np.testing.assert_allclose(tape.grad(b), [[2.0, 2.0], [2.0, 2.0]])


class TestGradientsAgainstFiniteDifferences:
    """Every differentiable op checked entry-by-entry against central FD."""

    rng = np.random.default_rng(42)

    def test_matmul(self):
        a = t(self.rng.standard_normal((3, 4)))
        b = t(self.rng.standard_normal((4, 2)))
        check_gradients(lambda: reduce_sum(mul(matmul(a, b), matmul(a, b))), [a, b])

    def test_add_same_shape_and_bias(self):
        x = t(self.rng.standard_normal((3, 4)))
        b = t(self.rng.standard_normal(4))
        check_gradients(lambda: reduce_sum(mul(add(x, b), add(x, b))), [x, b])

    def test_neg(self):
        a = t(self.rng.standard_normal(5))
        b = t(self.rng.standard_normal(5))
        check_gradients(lambda: reduce_sum(mul(neg(a), b)), [a, b])

    def test_mul_elementwise_and_scalar(self):
        a = t(self.rng.standard_normal((2, 3)))
        b = t(self.rng.standard_normal((2, 3)))
        check_gradients(lambda: reduce_sum(mul(mul(a, b), 1.7)), [a, b])

    def test_relu(self):
        # keep values away from the kink where FD is ill-defined
        x = t(self.rng.standard_normal(20) + np.where(self.rng.uniform(size=20) > 0.5, 2, -2))
        check_gradients(lambda: reduce_sum(mul(relu(x), relu(x))), [x])

    def test_softmax(self):
        x = t(self.rng.standard_normal((3, 5)))
        w = Tensor(self.rng.standard_normal((3, 5)))
        check_gradients(lambda: reduce_sum(mul(softmax(x), w)), [x])

    def test_log_softmax(self):
        x = t(self.rng.standard_normal((3, 5)))
        w = Tensor(self.rng.standard_normal((3, 5)))
        check_gradients(lambda: reduce_sum(mul(log_softmax(x), w)), [x])

    def test_layer_norm(self):
        x = t(self.rng.standard_normal((4, 6)))
        gamma = t(self.rng.standard_normal(6))
        beta = t(self.rng.standard_normal(6))
        w = Tensor(self.rng.standard_normal((4, 6)))
        check_gradients(lambda: reduce_sum(mul(layer_norm(x, gamma, beta), w)),
                        [x, gamma, beta])

    def test_dense(self):
        x = t(self.rng.standard_normal((3, 4)))
        w = t(self.rng.standard_normal((4, 2)))
        b = t(self.rng.standard_normal(2))
        check_gradients(lambda: reduce_sum(mul(dense(x, w, b), dense(x, w, b))), [x, w, b])

    def test_concat(self):
        a = t(self.rng.standard_normal((2, 3)))
        b = t(self.rng.standard_normal((2, 2)))
        w = Tensor(self.rng.standard_normal((2, 5)))

        def loss():
            joined = concat([a, b])
            return reduce_sum(mul(mul(joined, joined), w))

        check_gradients(loss, [a, b])

    def test_batched_matmul(self):
        a = t(self.rng.standard_normal((2, 3, 4)))
        b = t(self.rng.standard_normal((2, 4, 2)))
        w = Tensor(self.rng.standard_normal((2, 3, 2)))
        check_gradients(lambda: reduce_sum(mul(batched_matmul(a, b), w)), [a, b])

    def test_swap_axes(self):
        x = t(self.rng.standard_normal((2, 3, 4)))
        w = Tensor(self.rng.standard_normal((4, 3, 2)))
        check_gradients(lambda: reduce_sum(mul(swap_axes(x, 0, 2), w)), [x])

    def test_reshape_transpose(self):
        x = t(self.rng.standard_normal((3, 4)))

        def loss():
            y = swap_axes(reshape(x, (4, 3)), 0, 1)
            return reduce_sum(mul(y, y))

        check_gradients(loss, [x])

    def test_embedding_lookup_with_repeats(self):
        table = t(self.rng.standard_normal((6, 3)))
        ids = [0, 2, 2, 5]  # repeated id must accumulate
        w = Tensor(self.rng.standard_normal((4, 3)))
        check_gradients(lambda: reduce_sum(mul(embedding_lookup(table, ids), w)), [table])

    def test_take_per_row(self):
        x = t(self.rng.standard_normal((4, 5)))
        cols = [0, 3, 3, 1]
        check_gradients(lambda: reduce_sum(mul(take_per_row(x, cols),
                                               take_per_row(x, cols))), [x])

    def test_numeric_grad_helper_self_check(self):
        # d/dx sum(x*x) at [1,2,3] is [2,4,6]
        x = t([1.0, 2.0, 3.0])
        g = numeric_grad(lambda: float((x.data ** 2).sum()), x)
        np.testing.assert_allclose(g, [2.0, 4.0, 6.0], atol=1e-6)
        assert rel_err(2.0, g[0]) < 1e-6
