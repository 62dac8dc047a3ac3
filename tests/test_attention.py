"""Attention: known values, logit bias, invariants, and gradient checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxrgen.attention import MASKED_LOGIT, AttentionProjections, multi_head_attention
from cxrgen.errors import ConfigurationError, DimensionError
from cxrgen.params import ParameterStore
from cxrgen.tensor import Tensor, attention, reduce_sum, mul

from helpers import check_gradients


def t(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def as_bias(mask):
    """The logit bias of a boolean [n_q, n_k] mask, True marking a permitted key."""
    return None if mask is None else np.where(mask, 0.0, MASKED_LOGIT)


def one_head(q, k, v, mask=None):
    """Output rows and [n_q, n_k] weights of one record of one head."""
    out, w = attention(q, k, v, 1, 1, as_bias(mask))
    assert w.shape[:2] == (1, 1)
    return out, w[0, 0]


class TestScaledDotProduct:
    def test_known_weights_and_output(self):
        # d_k=1, logits [0, ln 9] -> weights [0.1, 0.9] -> 0.1*10 + 0.9*20 = 19
        q = Tensor([[1.0]])
        k = Tensor([[0.0], [math.log(9.0)]])
        v = Tensor([[10.0], [20.0]])
        out, w = one_head(q, k, v)
        np.testing.assert_allclose(w, [[0.1, 0.9]], atol=1e-12)
        np.testing.assert_allclose(out.data, [[19.0]], atol=1e-12)

    def test_equal_logits_give_uniform_weights(self):
        q = Tensor(np.zeros((2, 3)))
        k = Tensor(np.random.default_rng(0).standard_normal((4, 3)))
        v = Tensor(np.eye(4))
        _, w = one_head(q, k, v)
        np.testing.assert_allclose(w, np.full((2, 4), 0.25), atol=1e-12)

    def test_single_key_gets_full_weight(self):
        q = Tensor(np.random.default_rng(1).standard_normal((3, 4)))
        k = Tensor(np.random.default_rng(2).standard_normal((1, 4)))
        v = Tensor([[7.0, 8.0]])
        out, w = one_head(q, k, v)
        np.testing.assert_allclose(w, np.ones((3, 1)), atol=0)
        np.testing.assert_allclose(out.data, np.tile([7.0, 8.0], (3, 1)))

    def test_scaling_uses_sqrt_dk(self):
        d_k = 16
        q = Tensor(np.ones((1, d_k)))
        k = Tensor(np.vstack([np.ones(d_k), np.zeros(d_k)]))
        v = Tensor([[1.0], [0.0]])
        _, w = one_head(q, k, v)
        # logit gap is d_k / sqrt(d_k) = 4
        expected = 1.0 / (1.0 + math.exp(-d_k / math.sqrt(d_k)))
        np.testing.assert_allclose(w[0, 0], expected, atol=1e-12)

    def test_masked_positions_get_zero_weight(self):
        rng = np.random.default_rng(3)
        q, k = Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((5, 4)))
        v = Tensor(rng.standard_normal((5, 2)))
        mask = np.ones((3, 5), dtype=bool)
        mask[0, 2] = mask[2, 4] = mask[2, 0] = False
        _, w = one_head(q, k, v, mask)
        assert w[0, 2] == 0.0 and w[2, 4] == 0.0 and w[2, 0] == 0.0
        np.testing.assert_allclose(w.sum(axis=1), np.ones(3), atol=1e-12)

    def test_shape_mismatches_rejected(self):
        rng = np.random.default_rng(5)
        q = Tensor(rng.standard_normal((2, 3)))
        k = Tensor(rng.standard_normal((4, 5)))
        v = Tensor(rng.standard_normal((4, 3)))
        with pytest.raises(DimensionError):
            attention(q, k, v, 1, 1)
        k_ok = Tensor(rng.standard_normal((4, 3)))
        v_bad = Tensor(rng.standard_normal((3, 3)))
        with pytest.raises(DimensionError):
            attention(q, k_ok, v_bad, 1, 1)
        with pytest.raises(DimensionError):
            attention(q, k_ok, Tensor(rng.standard_normal((4, 2))), 1, 1, np.zeros((3, 4)))

    def test_key_permutation_permutes_weights(self):
        rng = np.random.default_rng(6)
        q, k = Tensor(rng.standard_normal((2, 3))), Tensor(rng.standard_normal((5, 3)))
        v = Tensor(rng.standard_normal((5, 4)))
        perm = np.array([3, 0, 4, 1, 2])
        out1, w1 = one_head(q, k, v)
        out2, w2 = one_head(q, Tensor(k.data[perm]), Tensor(v.data[perm]))
        np.testing.assert_allclose(w2, w1[:, perm], atol=1e-12)
        np.testing.assert_allclose(out2.data, out1.data, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6), st.integers(1, 6),
           st.integers(1, 5), st.booleans())
    def test_weight_invariants_randomized(self, seed, n_q, n_k, d_k, use_mask):
        rng = np.random.default_rng(seed)
        q = Tensor(rng.standard_normal((n_q, d_k)) * 10)
        k = Tensor(rng.standard_normal((n_k, d_k)) * 10)
        v = Tensor(rng.standard_normal((n_k, 3)))
        mask = None
        if use_mask:
            mask = rng.uniform(size=(n_q, n_k)) > 0.3
            mask[:, 0] = True  # keep every row satisfiable
        _, w = one_head(q, k, v, mask)
        assert (w >= 0).all()
        np.testing.assert_allclose(w.sum(axis=1), np.ones(n_q), atol=1e-12)
        if mask is not None:
            assert (w[~mask] == 0.0).all()

    def test_leading_axes_attend_independently(self):
        # each record and head of the rows attends on its own: 2 records of 4
        # queries and 6 keys, 3 heads of width 5 (values 2)
        rng = np.random.default_rng(12)
        q, k = rng.standard_normal((2 * 4, 3 * 5)), rng.standard_normal((2 * 6, 3 * 5))
        v = rng.standard_normal((2 * 6, 3 * 2))
        mask = rng.uniform(size=(4, 6)) > 0.3
        mask[:, 0] = True
        out, w = attention(Tensor(q), Tensor(k), Tensor(v), 3, 2, as_bias(mask))
        assert w.shape == (2, 3, 4, 6)
        for b in range(2):
            for j in range(3):
                o, wbj = attention(Tensor(q[4 * b:4 * b + 4, 5 * j:5 * j + 5]),
                                   Tensor(k[6 * b:6 * b + 6, 5 * j:5 * j + 5]),
                                   Tensor(v[6 * b:6 * b + 6, 2 * j:2 * j + 2]), 1, 1,
                                   as_bias(mask))
                np.testing.assert_allclose(out.data[4 * b:4 * b + 4, 2 * j:2 * j + 2], o.data,
                                           atol=1e-12)
                np.testing.assert_allclose(w[b, j], wbj[0, 0], atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(7)
        q, k = t(rng.standard_normal((2, 3))), t(rng.standard_normal((4, 3)))
        v = t(rng.standard_normal((4, 2)))
        probe = Tensor(rng.standard_normal((2, 2)))
        mask = np.ones((2, 4), dtype=bool)
        mask[0, 1] = False

        def loss():
            out, _ = attention(q, k, v, 1, 1, as_bias(mask))
            return reduce_sum(mul(out, probe))

        check_gradients(loss, [q, k, v])


class TestMultiHeadAttention:
    def test_single_identity_head_matches_sdpa(self):
        d = 4
        store = ParameterStore(0)
        proj = AttentionProjections.create(store, "attn", d, 1)
        for w in (proj.w_q, proj.w_k, proj.w_v, proj.w_o):
            w.data = np.eye(d)
        rng = np.random.default_rng(8)
        q, k = Tensor(rng.standard_normal((2, d))), Tensor(rng.standard_normal((3, d)))
        v = Tensor(rng.standard_normal((3, d)))
        direct, _ = attention(q, k, v, 1, 1)
        fused = multi_head_attention(q, k, v, proj)
        np.testing.assert_allclose(fused.output.data, direct.data, atol=1e-12)

    def test_output_shape_and_head_count(self):
        store = ParameterStore(1)
        proj = AttentionProjections.create(store, "attn", 10, 3)  # head dim 3, concat 9
        assert proj.w_o.shape == (9, 10)
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((5, 10)))
        result = multi_head_attention(x, x, x, proj)
        assert result.output.shape == (5, 10)
        assert isinstance(result.weights, np.ndarray) and result.weights.shape == (1, 3, 5, 5)
        np.testing.assert_allclose(result.weights.sum(axis=-1), np.ones((1, 3, 5)),
                                   atol=1e-12)

    def test_parameter_paths(self):
        store = ParameterStore(2)
        AttentionProjections.create(store, "enc.self_attn", 6, 2)
        assert sorted(store.parameters) == ["enc.self_attn.wk", "enc.self_attn.wo",
                                            "enc.self_attn.wq", "enc.self_attn.wv"]
        assert store["enc.self_attn.wq"].shape == (6, 6)

    def test_width_mismatch_rejected(self):
        store = ParameterStore(3)
        proj = AttentionProjections.create(store, "attn", 6, 2)
        bad = Tensor(np.ones((2, 5)))
        good = Tensor(np.ones((2, 6)))
        with pytest.raises(DimensionError):
            multi_head_attention(bad, good, good, proj)

    def test_gradients_through_all_projections(self):
        store = ParameterStore(4)
        proj = AttentionProjections.create(store, "attn", 6, 2)
        rng = np.random.default_rng(10)
        x = t(rng.standard_normal((3, 6)))
        kv = t(rng.standard_normal((4, 6)))
        probe = Tensor(rng.standard_normal((3, 6)))

        def loss():
            return reduce_sum(mul(multi_head_attention(x, kv, kv, proj).output, probe))

        check_gradients(loss, [x, kv, proj.w_q, proj.w_k, proj.w_v, proj.w_o])

    def test_fused_init_is_per_head_draws_side_by_side(self):
        proj = AttentionProjections.create(ParameterStore(5), "attn", 6, 3)
        rng = np.random.default_rng(5)
        bound = 1.0 / math.sqrt(6)
        for fused in (proj.w_q, proj.w_k, proj.w_v):
            heads = [rng.uniform(-bound, bound, size=(6, 2)) for _ in range(3)]
            np.testing.assert_array_equal(fused.data, np.concatenate(heads, axis=1))
        np.testing.assert_array_equal(proj.w_o.data, rng.uniform(-bound, bound, size=(6, 6)))

    def test_batch_matches_records_one_at_a_time(self):
        store = ParameterStore(6)
        proj = AttentionProjections.create(store, "attn", 6, 2)
        rng = np.random.default_rng(11)
        q, kv = rng.standard_normal((3 * 4, 6)), rng.standard_normal((3 * 5, 6))
        mask = np.tril(np.ones((4, 5), dtype=bool))
        batched = multi_head_attention(Tensor(q), Tensor(kv), Tensor(kv), proj, 3,
                                       as_bias(mask))
        assert batched.weights.shape == (3, 2, 4, 5)
        for b in range(3):
            one = multi_head_attention(Tensor(q[4 * b:4 * b + 4]), Tensor(kv[5 * b:5 * b + 5]),
                                       Tensor(kv[5 * b:5 * b + 5]), proj, 1, as_bias(mask))
            np.testing.assert_allclose(batched.output.data[4 * b:4 * b + 4], one.output.data,
                                       atol=1e-12)
            np.testing.assert_allclose(batched.weights[b], one.weights[0], atol=1e-12)

    @pytest.mark.parametrize("heads", [0, 7])
    def test_head_count_must_fit_the_width(self, heads):
        with pytest.raises(ConfigurationError):
            AttentionProjections.create(ParameterStore(8), "attn", 6, heads)

    def test_rows_must_split_into_the_batch(self):
        proj = AttentionProjections.create(ParameterStore(7), "attn", 6, 2)
        x = Tensor(np.ones((5, 6)))
        with pytest.raises(DimensionError):
            multi_head_attention(x, x, x, proj, 2)

