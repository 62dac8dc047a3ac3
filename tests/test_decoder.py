"""Decoder: causality, losses, greedy decoding, position encodings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxrgen import decoder
from cxrgen.attention import MASKED_LOGIT, multi_head_attention
from cxrgen.decoder import ReportDecoder, report_loss, sinusoidal_positions, token_accuracy
from cxrgen.errors import ContractError, DimensionError
from cxrgen.model import ModelConfig
from cxrgen.params import ParameterStore
from cxrgen.tensor import GradientTape, Tensor, cross_entropy
from cxrgen.vocab import END_ID, PAD_ID, START_ID

from helpers import check_cached_decoding, check_gradients, greedy_full_prefix


def tiny_decoder(seed=0, **overrides):
    base = dict(model_dim=8, num_heads=2, ffn_dim=8, report_len=9, decoder_layers=1)
    base.update(overrides)
    store = ParameterStore(seed)
    return ReportDecoder(store, ModelConfig(**base), vocab_size=12), store


def encoder_rows(seed=1, n=3, d=8):
    return Tensor(np.random.default_rng(seed).standard_normal((n, d)))


def set_end_bias(store, value):
    bias = store["decoder.output.b"]
    tuned = bias.data.copy()
    tuned[END_ID] = value
    bias.data = tuned


class TestSinusoidalPositions:
    def test_shape_and_range(self):
        table = sinusoidal_positions(43, 512)
        assert table.shape == (43, 512)
        assert np.abs(table).max() <= 1.0

    def test_first_row_alternates_zero_one(self):
        table = sinusoidal_positions(4, 6)
        np.testing.assert_allclose(table[0], [0, 1, 0, 1, 0, 1], atol=1e-12)

    def test_known_entry(self):
        table = sinusoidal_positions(3, 4)
        assert table[1, 0] == pytest.approx(np.sin(1.0))
        assert table[1, 1] == pytest.approx(np.cos(1.0))
        assert table[1, 2] == pytest.approx(np.sin(1.0 / 100.0))

    def test_distinct_positions(self):
        table = sinusoidal_positions(43, 16)
        for i in range(42):
            assert np.abs(table[i] - table[i + 1]).max() > 1e-6


class TestCausalBias:
    def test_shape_and_values(self):
        dec, _ = tiny_decoder()
        bias = dec.causal_bias
        assert bias.shape == (9, 9) and bias.dtype == np.float64
        below = np.tril(np.ones((9, 9), dtype=bool))
        assert (bias[below] == 0.0).all() and not np.signbit(bias[below]).any()
        assert (bias[~below] == MASKED_LOGIT).all()

    def test_forwards_of_different_lengths_slice_the_one_array(self, monkeypatch):
        dec, _ = tiny_decoder(decoder_layers=2)
        seen = []

        def spy(q_in, k_in, v_in, projections, batch_size=1, bias=None):
            seen.append(bias)
            return multi_head_attention(q_in, k_in, v_in, projections, batch_size, bias)

        monkeypatch.setattr(decoder, "multi_head_attention", spy)
        for length in (3, 9):
            seen.clear()
            dec.teacher_forced_forward(encoder_rows(), [START_ID] + [5] * (length - 1))
            self_biases = seen[::2]  # each layer's self-attention; its cross-attention has none
            assert len(self_biases) == 2 and seen[1::2] == [None, None]
            for bias in self_biases:
                assert bias.base is dec.causal_bias and bias.shape == (length, length)
                np.testing.assert_array_equal(bias, dec.causal_bias[:length, :length])


class TestTeacherForcedForward:
    def test_logit_shape(self):
        dec, _ = tiny_decoder()
        logits = dec.teacher_forced_forward(encoder_rows(), [START_ID, 5, 6])
        assert logits.shape == (3, 12)

    def test_causality_future_tokens_do_not_leak(self):
        dec, _ = tiny_decoder()
        enc = encoder_rows()
        a = dec.teacher_forced_forward(enc, [START_ID, 5, 6, 7]).data
        b = dec.teacher_forced_forward(enc, [START_ID, 5, 6, 9]).data
        # positions 0..2 see identical prefixes; only position 3 may differ
        np.testing.assert_allclose(a[:3], b[:3], atol=1e-12)
        assert np.abs(a[3] - b[3]).max() > 1e-9

    def test_prefix_consistency_with_generation(self):
        dec, _ = tiny_decoder()
        enc = encoder_rows()
        full = dec.teacher_forced_forward(enc, [START_ID, 4, 5]).data
        prefix = dec.teacher_forced_forward(enc, [START_ID, 4]).data
        np.testing.assert_allclose(full[:2], prefix, atol=1e-12)

    def test_must_start_with_start_token(self):
        dec, _ = tiny_decoder()
        with pytest.raises(ContractError):
            dec.teacher_forced_forward(encoder_rows(), [5, 6])

    def test_overlong_target_rejected(self):
        dec, _ = tiny_decoder(report_len=4)
        with pytest.raises(ContractError):
            dec.teacher_forced_forward(encoder_rows(), [START_ID, 4, 5, 6, 7])

    def test_encoder_width_mismatch_rejected(self):
        dec, _ = tiny_decoder()
        with pytest.raises(DimensionError):
            dec.teacher_forced_forward(Tensor(np.zeros((3, 7))), [START_ID, 4])

    def test_encoder_content_changes_logits(self):
        dec, _ = tiny_decoder()
        a = dec.teacher_forced_forward(encoder_rows(seed=2), [START_ID, 4]).data
        b = dec.teacher_forced_forward(encoder_rows(seed=3), [START_ID, 4]).data
        assert np.abs(a - b).max() > 1e-9

    def test_batch_matches_records_one_at_a_time(self):
        dec, _ = tiny_decoder()
        ids = np.array([[START_ID, 4, 5, 6], [START_ID, 7, PAD_ID, PAD_ID]])
        enc = encoder_rows(n=2 * 3)
        logits = dec.teacher_forced_forward(enc, ids)
        assert logits.shape == (2 * 4, 12)
        for b in range(2):
            one = dec.teacher_forced_forward(Tensor(enc.data[3 * b:3 * b + 3]), ids[b])
            np.testing.assert_allclose(logits.data[4 * b:4 * b + 4], one.data, atol=1e-12)

    def test_batch_checks_every_start_and_the_row_split(self):
        dec, _ = tiny_decoder()
        with pytest.raises(ContractError):
            dec.teacher_forced_forward(encoder_rows(n=6), [[START_ID, 4], [4, START_ID]])
        with pytest.raises(DimensionError):
            dec.teacher_forced_forward(encoder_rows(n=5), [[START_ID, 4], [START_ID, 5]])


class TestSparseCeLoss:
    """The token loss: ``cross_entropy`` per position, ``report_loss`` over a batch."""

    def test_perfect_prediction_near_zero_loss(self):
        logits = Tensor(np.full((2, 5), -30.0) + np.eye(5)[[2, 3]] * 60.0)
        np.testing.assert_allclose(cross_entropy(logits, [2, 3]).data, [0.0, 0.0], atol=1e-10)
        assert report_loss(logits, [[2, 3]], [[True, True]]).item() == pytest.approx(0.0, abs=1e-10)

    def test_uniform_logits_give_log_vocab(self):
        logits = Tensor(np.zeros((3, 8)))
        np.testing.assert_allclose(cross_entropy(logits, [0, 1, 2]).data,
                                   np.full(3, np.log(8.0)), atol=1e-12)
        assert report_loss(logits, [[0, 1, 2]], [[True] * 3]).item() == pytest.approx(np.log(8.0))

    def test_pad_positions_are_exactly_zero(self):
        # labels that differ only at PAD positions give the same loss bits, and
        # the logits of a PAD position get exactly zero gradient
        logits = Tensor(np.random.default_rng(0).standard_normal((4, 6)), requires_grad=True)
        mask = [[True, True, False, False]]
        losses, grads = [], []
        for labels in ([[1, 2, PAD_ID, PAD_ID]], [[1, 2, 5, 3]]):
            with GradientTape() as tape:
                losses.append(report_loss(logits, labels, mask))
            tape.backward(losses[-1])
            grads.append(tape.grad(logits))
        assert losses[0].item() == losses[1].item() > 0
        assert not grads[0][2:].any() and not grads[1][2:].any()
        assert grads[0][:2].any()

    def test_unreduced_shape(self):
        assert cross_entropy(Tensor(np.zeros((5, 4))), [0] * 5).shape == (5,)

    def test_label_out_of_range(self):
        with pytest.raises(ContractError):
            cross_entropy(Tensor(np.zeros((2, 4))), [0, 4])
        with pytest.raises(ContractError):
            report_loss(Tensor(np.zeros((2, 4))), [[0, -1]], [[True, False]])

    def test_masked_mean(self):
        logits = Tensor(np.random.default_rng(2).standard_normal((4, 5)))
        labels = [[1, 2, 0, 0]]
        ce = cross_entropy(logits, labels[0]).data
        loss = report_loss(logits, labels, [[True, True, False, False]])
        assert loss.item() == pytest.approx(ce[:2].mean())
        with pytest.raises(ContractError):  # an all-PAD record
            report_loss(logits, labels, [[False] * 4])
        with pytest.raises(DimensionError):  # one record's mask is [1, T], not [T]
            report_loss(logits, labels[0], [True, True, False, False])

    def test_masked_mean_of_a_batch_is_the_mean_of_record_means(self):
        logits = Tensor(np.random.default_rng(3).standard_normal((6, 5)))
        labels = [[1, 4, 0], [3, 0, 0]]
        mask = np.array([[True, True, False], [True, False, False]])
        ce = cross_entropy(logits, np.ravel(labels)).data.reshape(2, 3)
        record_means = [ce[0, :2].mean(), ce[1, 0]]
        loss = report_loss(logits, labels, mask).item()
        assert loss == pytest.approx(np.mean(record_means))
        assert loss != pytest.approx(ce[mask].mean())  # not the pooled token mean
        with pytest.raises(ContractError):
            report_loss(logits, labels, [[True, True, False], [False, False, False]])

    def test_loss_gradients(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        labels = [1, 5, 0, 3]
        mask = [True, True, False, True]
        check_gradients(lambda: report_loss(logits, [labels], [mask]), [logits])

    def test_token_accuracy(self):
        logits = Tensor(np.eye(4)[[1, 2, 0, 3]] * 10.0)
        correct, total = token_accuracy(logits, [1, 2, 3, 3], [True, True, True, False])
        assert (correct, total) == (2, 3)


class TestGreedyGeneration:
    def test_starts_with_start_and_caps_length(self):
        dec, _ = tiny_decoder()
        ids = dec.generate_batch(encoder_rows(), 1)[0]
        assert ids[0] == START_ID
        assert len(ids) <= dec.config.report_len

    def test_deterministic(self):
        dec, _ = tiny_decoder()
        enc = encoder_rows()
        assert dec.generate_batch(enc, 1) == dec.generate_batch(enc, 1)

    def test_stops_at_end_token(self):
        dec, store = tiny_decoder()
        set_end_bias(store, 50.0)  # END always wins
        ids = dec.generate_batch(encoder_rows(), 1)[0]
        assert ids == [START_ID, END_ID]

    def test_matches_stepwise_argmax(self):
        dec, _ = tiny_decoder(seed=5)
        enc = encoder_rows(seed=6)
        assert dec.generate_batch(enc, 1)[0] == greedy_full_prefix(dec, enc)

    def test_records_stop_at_different_steps(self):
        dec, store = tiny_decoder(seed=1)
        set_end_bias(store, 1.5)  # END wins for some records early, for others never
        enc = Tensor(np.random.default_rng(2).standard_normal((6 * 3, 8)) * 2)
        batch = dec.generate_batch(enc, 6)
        cap = dec.config.report_len
        lengths = [len(ids) for ids in batch]
        assert min(lengths) < cap and max(lengths) == cap
        assert len({n for n in lengths if n < cap}) > 1
        for b, ids in enumerate(batch):
            assert ids == greedy_full_prefix(dec, Tensor(enc.data[3 * b:3 * b + 3]))
            assert END_ID not in ids[:-1]
            if len(ids) < cap:
                assert ids[-1] == END_ID

    def test_each_step_runs_every_decoder_layer(self, monkeypatch):
        """Cached decoding runs the decoder's own block, not a copy of it: each
        step calls every layer's forward once, in order."""
        dec, store = tiny_decoder(seed=1, decoder_layers=2)
        set_end_bias(store, 1.5)
        calls, forward = [], decoder._DecoderLayer.forward

        def spy(layer, *args):
            calls.append(layer)
            return forward(layer, *args)

        monkeypatch.setattr(decoder._DecoderLayer, "forward", spy)
        batch = dec.generate_batch(encoder_rows(seed=2, n=4 * 3), 4)
        steps = max(map(len, batch)) - 1
        assert steps > 0 and calls == dec.layers * steps

    def test_max_len_one_is_start_only(self):
        # the cap is report_len: at 1 only START fits
        dec, _ = tiny_decoder(report_len=1)
        assert dec.generate_batch(encoder_rows(n=9), 3) == [[START_ID]] * 3

    def test_rows_must_split_into_the_batch(self):
        dec, _ = tiny_decoder()
        with pytest.raises(DimensionError):
            dec.generate_batch(encoder_rows(n=5), 2)
        with pytest.raises(DimensionError):
            dec.generate_batch(Tensor(np.zeros((3, 7))), 1)

    def test_records_nothing_on_an_active_tape(self):
        dec, _ = tiny_decoder()
        with GradientTape() as tape:
            dec.teacher_forced_forward(encoder_rows(), [START_ID, 4])
            before = len(tape)
            dec.generate_batch(encoder_rows(n=6), 2)
            assert len(tape) == before > 0

    @settings(max_examples=25, deadline=None)
    @given(batch=st.integers(1, 6), seed=st.integers(0, 2**16),
           layers=st.integers(1, 2), heads=st.sampled_from([1, 2, 3]),
           end_bias=st.floats(0.0, 2.0))
    def test_cached_steps_match_the_full_prefix(self, batch, seed, layers, heads, end_bias):
        dec, store = tiny_decoder(seed=seed, decoder_layers=layers, num_heads=heads)
        set_end_bias(store, end_bias)  # larger values end records earlier, at varied steps
        check_cached_decoding(dec, encoder_rows(seed=seed + 1, n=3 * batch), batch)


class TestDecoderGradients:
    def test_full_decoder_gradcheck(self):
        dec, store = tiny_decoder(seed=7)
        enc = Tensor(np.random.default_rng(8).standard_normal((3, 8)),
                     requires_grad=True)
        target = [START_ID, 4, 5, 6]
        labels = [4, 5, 6, END_ID]
        mask = [True, True, True, True]

        def loss():
            logits = dec.teacher_forced_forward(enc, target)
            return report_loss(logits, [labels], [mask])

        params = list(store.parameters.values()) + [enc]
        worst = check_gradients(loss, params, max_entries=4)
        assert worst < 1e-5

    def test_no_gradient_flows_from_masked_positions(self):
        dec, store = tiny_decoder(seed=9)
        enc = encoder_rows(seed=10)
        target = [START_ID, 4, 5]
        labels_a, labels_b = [4, 5, 6], [4, 5, 7]  # differ only at a PAD-masked slot
        mask = [True, True, False]
        grads = []
        for labels in (labels_a, labels_b):
            with GradientTape() as tape:
                loss = report_loss(dec.teacher_forced_forward(enc, target), [labels],
                                   [mask])
            tape.backward(loss)
            grads.append(tape.gradients(store.parameters))
        for path in grads[0]:
            np.testing.assert_allclose(grads[0][path], grads[1][path], atol=0,
                                       err_msg=path)
