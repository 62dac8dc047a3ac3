"""Tensor core: forward semantics, tape bookkeeping, gradient correctness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cxrgen.errors import ContractError, DimensionError
from cxrgen.attention import MASKED_LOGIT
from cxrgen.tensor import (GradientTape, Tensor, _heads, add, attention, concat,
                           cross_entropy, dense, embedding_lookup, layer_norm, matmul, mul,
                           reduce_sum, relu, reshape)

from helpers import (attention_reference, check_gradients, cross_entropy_reference,
                     numeric_grad, rel_err)


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

    # the softmax lives inside ``attention``: for a zero query the logits are
    # ``bias`` itself, so the weights are its softmax

    def test_softmax_known_values(self):
        # logits [ln 1, ln 3] -> weights [0.25, 0.75] -> 0.25 * 10 + 0.75 * 20
        q, k, v = t([[0.0]]), t([[1.0], [2.0]]), t([[10.0], [20.0]])
        out, w = attention(q, k, v, 1, 1, np.array([[math.log(1.0), math.log(3.0)]]))
        np.testing.assert_allclose(w, [[[[0.25, 0.75]]]], atol=1e-12, strict=True)
        np.testing.assert_allclose(out.data, [[17.5]], atol=1e-12)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(6)
        q, k, v = (t(rng.standard_normal(shape)) for shape in ((2, 3), (4, 3), (4, 2)))
        bias = np.array([[0.5, -1.2, 3.3, 0.0], [0.5, -1.2, 3.3, 0.0]])
        a_out, a = attention(q, k, v, 1, 1, bias)
        b_out, b = attention(q, k, v, 1, 1, bias + 1000.0)
        np.testing.assert_allclose(b, a, atol=1e-12)
        np.testing.assert_allclose(b_out.data, a_out.data, atol=1e-12)
        assert np.isfinite(b).all()

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        q, k, v = (t(rng.standard_normal(shape) * 5) for shape in ((5, 3), (7, 3), (7, 2)))
        for bias in (None, np.where(rng.uniform(size=(5, 7)) > 0.4, 0.0, MASKED_LOGIT)):
            _, w = attention(q, k, v, 1, 1, bias)
            np.testing.assert_allclose(w.sum(axis=-1), np.ones((1, 1, 5)), atol=1e-12,
                                       strict=True)

    def test_cross_entropy_matches_log_of_softmax(self):
        x = t(np.random.default_rng(1).standard_normal((3, 4)))
        labels = [2, 0, 3]
        probs = np.exp(x.data) / np.exp(x.data).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(cross_entropy(x, labels).data,
                                   -np.log(probs[[0, 1, 2], labels]), atol=1e-12)

    def test_cross_entropy_shape_checks(self):
        with pytest.raises(DimensionError):
            cross_entropy(t(np.zeros((2, 3, 4))), [0, 1])
        with pytest.raises(DimensionError):
            cross_entropy(t(np.zeros((2, 4))), [0, 1, 2])
        with pytest.raises(ContractError):
            cross_entropy(t(np.zeros((2, 4))), [0, -1])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), logits=arrays(np.float64, st.tuples(st.integers(1, 5),
                                                               st.integers(2, 7)),
                                         elements=st.floats(-1e3, 1e3)))
    def test_cross_entropy_matches_the_reference(self, data, logits):
        n, v = logits.shape
        labels = np.array(data.draw(st.lists(st.integers(0, v - 1), min_size=n, max_size=n)))
        g = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
        x = t(logits)
        with GradientTape() as tape:
            loss = cross_entropy(x, labels)
            root = reduce_sum(mul(loss, Tensor(g)))
        tape.backward(root)
        ref_loss, ref_grad = cross_entropy_reference(logits, labels, g)
        assert np.isfinite(loss.data).all() and np.isfinite(tape.grad(x)).all()
        np.testing.assert_allclose(loss.data, ref_loss, rtol=1e-12, atol=1e-9)
        np.testing.assert_allclose(tape.grad(x), ref_grad, rtol=1e-9, atol=1e-9)

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

    def test_heads_are_column_blocks_of_each_record(self):
        x = np.arange(2 * 4 * 3 * 5.0).reshape(2 * 4, 3 * 5)  # 2 records, 3 heads
        heads = _heads(x, 2, 3)
        assert heads.shape == (2, 3, 4, 5)
        for b in range(2):
            for i in range(3):
                np.testing.assert_array_equal(heads[b, i], x[4 * b:4 * b + 4, 5 * i:5 * i + 5])

    def test_attention_is_per_leading_index(self):
        # a record b and head j of the [B, h, n, w] layout attend on their own:
        # 2 records of 4 queries and 6 keys, 3 heads of width 5 (values 2)
        rng = np.random.default_rng(5)
        q, k = t(rng.standard_normal((2 * 4, 3 * 5))), t(rng.standard_normal((2 * 6, 3 * 5)))
        v = t(rng.standard_normal((2 * 6, 3 * 2)))
        bias = np.where(np.tri(4, 6, 1, dtype=bool), 0.0, MASKED_LOGIT)
        out, w = attention(q, k, v, 3, 2, bias)
        assert out.shape == (2 * 4, 3 * 2) and w.shape == (2, 3, 4, 6)
        for b in range(2):
            for j in range(3):
                o, wbj = attention(t(q.data[4 * b:4 * b + 4, 5 * j:5 * j + 5]),
                                   t(k.data[6 * b:6 * b + 6, 5 * j:5 * j + 5]),
                                   t(v.data[6 * b:6 * b + 6, 2 * j:2 * j + 2]), 1, 1, bias)
                np.testing.assert_allclose(out.data[4 * b:4 * b + 4, 2 * j:2 * j + 2], o.data,
                                           atol=1e-12)
                np.testing.assert_allclose(w[b, j], wbj[0, 0], atol=1e-12)

    def test_attention_shape_mismatch(self):
        # 2 records of 3 queries and 5 keys, 2 heads of width 4 (values 2)
        q, k, v = t(np.ones((6, 8))), t(np.ones((10, 8))), t(np.ones((10, 4)))
        attention(q, k, v, 2, 2)  # the shapes that fit
        for bad, heads, batch in (
                ((t(np.ones((5, 8))), k, v), 2, 2),                 # queries split no batch
                ((q, t(np.ones((9, 8))), t(np.ones((9, 4)))), 2, 2),  # keys split no batch
                ((q, k, t(np.ones((8, 4)))), 2, 2),                 # key and value counts differ
                ((q, t(np.ones((10, 6))), v), 2, 2),                # query and key widths differ
                ((q, k, t(np.ones((10, 3)))), 2, 2),                # values split into no heads
                ((q, k, v), 3, 2),                                  # widths split into no heads
                ((q, k, v), 0, 2), ((q, k, v), 2, 0),               # no heads, no records
                ((t(np.ones((2, 3, 8))), k, v), 2, 2)):             # not rows
            with pytest.raises(DimensionError):
                attention(*bad, heads, batch)

    @pytest.mark.parametrize("shape", [(1, 5), (3, 6), (6, 5), (5,)],
                             ids=["one_query_row", "extra_key", "rows_of_every_record", "1d"])
    def test_attention_bias_shape_mismatch(self, shape):
        # the bias is one record's [n_q, n_k] logits, shared by every record and head
        q, k, v = t(np.ones((6, 8))), t(np.ones((10, 8))), t(np.ones((10, 4)))
        attention(q, k, v, 2, 2, np.zeros((3, 5)))  # the shape that fits
        with pytest.raises(DimensionError, match=r"bias shape .* logits shape \(3, 5\)"):
            attention(q, k, v, 2, 2, np.zeros(shape))

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("batch,heads", [(1, 1), (2, 3)], ids=["2d", "4d"])
    def test_attention_matches_the_six_op_reference(self, masked, batch, heads):
        # "2d": one record of one head; "4d": the [B, h, n, w] layout of 2 records
        # of 3 heads; 4 queries and 6 keys of width 5 per head, values 3
        rng = np.random.default_rng(7)
        q = t(rng.standard_normal((batch * 4, heads * 5)))
        k = t(rng.standard_normal((batch * 6, heads * 5)))
        v = t(rng.standard_normal((batch * 6, heads * 3)))
        g = rng.standard_normal((batch * 4, heads * 3))
        bias = np.where(rng.uniform(size=(4, 6)) > 0.3, 0.0, MASKED_LOGIT) if masked else None
        with GradientTape() as tape:
            out, w = attention(q, k, v, heads, batch, bias)
            root = reduce_sum(mul(out, Tensor(g)))
        tape.backward(root)
        for got, want in zip((out.data, w, tape.grad(q), tape.grad(k), tape.grad(v)),
                             attention_reference(q.data, k.data, v.data, heads, batch,
                                                 bias, g)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, strict=True)

    def test_attention_is_one_tape_node(self):
        q, k, v = t(np.ones((2, 4))), t(np.ones((4, 4))), t(np.ones((4, 2)))
        with GradientTape() as tape:
            attention(q, k, v, 2, 1, np.zeros((2, 4)))
        assert [node.op for node in tape._nodes] == ["leaf"] * 3 + ["attention"]

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
        # no 0-d operand for add and mul, no bias row for add (dense adds
        # biases), no 1-d input for layer_norm
        x = t(np.ones((2, 3)))
        with pytest.raises(DimensionError):
            add(x, Tensor(2.5))
        with pytest.raises(DimensionError):
            add(x, t(np.ones(3)))
        with pytest.raises(DimensionError):
            mul(x, Tensor(2.5))
        with pytest.raises(DimensionError):
            layer_norm(t([1.0, 3.0]), t(np.ones(2)), t(np.zeros(2)))

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(4)
        x = t(rng.standard_normal((3, 5)) * 50)
        for out in (attention(x, x, x, 1, 1)[0], cross_entropy(x, [0, 4, 2]), relu(x),
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
        # a bias row is added by dense, whose backward sums it over the rows
        x = t(self.rng.standard_normal((3, 4)))
        b = t(self.rng.standard_normal(4))
        w = t(np.eye(4))
        check_gradients(lambda: reduce_sum(mul(add(x, dense(x, w, b)), dense(x, w, b))), [x, b])

    def test_mul_elementwise_and_scalar(self):
        a = t(self.rng.standard_normal((2, 3)))
        b = t(self.rng.standard_normal((2, 3)))
        check_gradients(lambda: reduce_sum(mul(mul(a, b), 1.7)), [a, b])

    def test_relu(self):
        # keep values away from the kink where FD is ill-defined
        x = t(self.rng.standard_normal(20) + np.where(self.rng.uniform(size=20) > 0.5, 2, -2))
        check_gradients(lambda: reduce_sum(mul(relu(x), relu(x))), [x])

    def test_attention_masked(self):
        q, k = t(self.rng.standard_normal((3, 4))), t(self.rng.standard_normal((5, 4)))
        v = t(self.rng.standard_normal((5, 2)))
        bias = np.where(self.rng.uniform(size=(3, 5)) > 0.3, 0.0, MASKED_LOGIT)
        w = Tensor(self.rng.standard_normal((3, 2)))
        check_gradients(lambda: reduce_sum(mul(attention(q, k, v, 1, 1, bias)[0], w)),
                        [q, k, v])

    def test_cross_entropy(self):
        x = t(self.rng.standard_normal((4, 5)))
        labels = [0, 3, 3, 1]  # a repeated label, each row's own pick
        w = Tensor(self.rng.standard_normal(4))
        check_gradients(lambda: reduce_sum(mul(cross_entropy(x, labels), w)), [x])

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

    def test_attention_leading_axes(self):
        # 2 records of 3 queries and 5 keys, 3 heads of width 4 (values 2)
        q, k, v = (t(self.rng.standard_normal(shape))
                   for shape in ((2 * 3, 3 * 4), (2 * 5, 3 * 4), (2 * 5, 3 * 2)))
        w = Tensor(self.rng.standard_normal((2 * 3, 3 * 2)))
        check_gradients(lambda: reduce_sum(mul(attention(q, k, v, 3, 2)[0], w)), [q, k, v])

    def test_reshape(self):
        x = t(self.rng.standard_normal((3, 4)))
        w = Tensor(self.rng.standard_normal((4, 3)))

        def loss():
            y = reshape(x, (4, 3))
            return reduce_sum(mul(mul(y, y), w))

        check_gradients(loss, [x])

    def test_embedding_lookup_with_repeats(self):
        table = t(self.rng.standard_normal((6, 3)))
        ids = [0, 2, 2, 5]  # repeated id must accumulate
        w = Tensor(self.rng.standard_normal((4, 3)))
        check_gradients(lambda: reduce_sum(mul(embedding_lookup(table, ids), w)), [table])

    def test_numeric_grad_helper_self_check(self):
        # d/dx sum(x*x) at [1,2,3] is [2,4,6]
        x = t([1.0, 2.0, 3.0])
        g = numeric_grad(lambda: float((x.data ** 2).sum()), x)
        np.testing.assert_allclose(g, [2.0, 4.0, 6.0], atol=1e-6)
        assert rel_err(2.0, g[0]) < 1e-6
