"""Autoregressive transformer decoder over report tokens.

Post-layer-norm blocks: masked self-attention, cross-attention over the
encoder rows, then a position-wise feed-forward, each wrapped in a residual
add followed by layer norm. Token embeddings are scaled by sqrt(d_model)
and summed with fixed sinusoidal position encodings. The forward is written
once and takes each block's two attentions from its caller. Teacher forcing
runs a batch of records as [B·T, d] rows under the causal bias. Greedy
decoding runs it on each record's newest position, attending over a
key/value cache, until every record has emitted END.
"""

from __future__ import annotations

import math
from functools import partial
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .attention import MASKED_LOGIT, AttentionProjections, multi_head_attention
from .errors import ContractError, DimensionError
from .params import ParameterStore
from .tensor import (Tensor, _attention, _heads, add, cross_entropy, dense, embedding_lookup,
                     layer_norm, mul, no_tape, reduce_sum, relu)
from .vocab import END_ID, START_ID

if TYPE_CHECKING:
    from .model import ModelConfig

Attend = Callable[[Tensor, AttentionProjections], Tensor]  # query rows -> attended rows


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Fixed sin/cos position table of shape [length, dim]."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(dim, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / dim)
    table = np.where(idx % 2 == 0, np.sin(angles), np.cos(angles))
    return table


class _DecoderLayer:
    def __init__(self, store: ParameterStore, cfg: "ModelConfig", prefix: str):
        d, h = cfg.model_dim, cfg.num_heads
        self.self_attn = AttentionProjections.create(store, f"{prefix}.self_attn", d, h)
        self.ln1_gamma = store.ones(f"{prefix}.ln1.gamma", (d,))
        self.ln1_beta = store.zeros(f"{prefix}.ln1.beta", (d,))
        self.cross_attn = AttentionProjections.create(store, f"{prefix}.cross_attn", d, h)
        self.ln2_gamma = store.ones(f"{prefix}.ln2.gamma", (d,))
        self.ln2_beta = store.zeros(f"{prefix}.ln2.beta", (d,))
        self.ffn_w1 = store.dense(f"{prefix}.ffn.w1", (d, cfg.ffn_dim))
        self.ffn_b1 = store.zeros(f"{prefix}.ffn.b1", (cfg.ffn_dim,))
        self.ffn_w2 = store.dense(f"{prefix}.ffn.w2", (cfg.ffn_dim, d))
        self.ffn_b2 = store.zeros(f"{prefix}.ffn.b2", (d,))
        self.ln3_gamma = store.ones(f"{prefix}.ln3.gamma", (d,))
        self.ln3_beta = store.zeros(f"{prefix}.ln3.beta", (d,))
        self._eps = cfg.layer_norm_eps

    def forward(self, x: Tensor, self_attend: Attend, cross_attend: Attend) -> Tensor:
        """The block over rows ``x``, with its self- and cross-attention given."""
        x = layer_norm(add(x, self_attend(x, self.self_attn)), self.ln1_gamma, self.ln1_beta,
                       self._eps)
        x = layer_norm(add(x, cross_attend(x, self.cross_attn)), self.ln2_gamma,
                       self.ln2_beta, self._eps)
        ffn = dense(relu(dense(x, self.ffn_w1, self.ffn_b1)), self.ffn_w2, self.ffn_b2)
        return layer_norm(add(x, ffn), self.ln3_gamma, self.ln3_beta, self._eps)


class ReportDecoder:
    """Token embedding, decoder layers, and the output projection."""

    def __init__(self, store: ParameterStore, config: "ModelConfig", vocab_size: int):
        self.config = config
        d = config.model_dim
        self.token_embedding = store.embedding("decoder.token_embedding", (vocab_size, d))
        self.positions = sinusoidal_positions(config.report_len, d)
        # position i may see j <= i: 0.0 on and below the diagonal
        self.causal_bias = np.triu(np.full((config.report_len, config.report_len),
                                           MASKED_LOGIT), 1)
        self.layers = [_DecoderLayer(store, config, f"decoder.layer{i}")
                       for i in range(config.decoder_layers)]
        self.output_w = store.dense("decoder.output.w", (d, vocab_size))
        self.output_b = store.zeros("decoder.output.b", (vocab_size,))

    def _forward(self, ids: np.ndarray, positions: np.ndarray,
                 attends: Sequence[tuple[Attend, Attend]]) -> Tensor:
        """Logits [N, V] of N token ``ids`` at the given ``positions`` rows
        [N, d], each layer attending with its (self, cross) pair of ``attends``."""
        x = add(mul(embedding_lookup(self.token_embedding, ids),
                    math.sqrt(self.config.model_dim)), Tensor(positions))
        for layer, (self_attend, cross_attend) in zip(self.layers, attends):
            x = layer.forward(x, self_attend, cross_attend)
        return dense(x, self.output_w, self.output_b)

    def teacher_forced_forward(self, encoder_rows: Tensor, target_ids) -> Tensor:
        """Per-position logits for START-led target prefixes.

        ``target_ids`` is [T] for one record or [B, T] for a batch whose
        ``encoder_rows`` hold each record's rows one after another. Returns
        [B·T, V] logits, record after record.
        """
        ids = np.atleast_2d(np.asarray(target_ids, dtype=np.int64))
        if ids.ndim != 2 or ids.size < 1:
            raise ContractError(f"target ids must be a non-empty [T] or [B, T] array, "
                                f"got {ids.shape}")
        batch, length = ids.shape
        if length > self.config.report_len:
            raise ContractError(f"target length {length} exceeds the maximum "
                                f"{self.config.report_len}")
        if (ids[:, 0] != START_ID).any():
            raise ContractError(f"every target must begin with the START id, got "
                                f"{ids[:, 0].tolist()}")
        d = self.config.model_dim
        if encoder_rows.ndim != 2 or encoder_rows.shape[1] != d:
            raise DimensionError(f"encoder rows shape {encoder_rows.shape} does not match "
                                 f"model width {d}")
        bias = self.causal_bias[:length, :length]
        attends = (lambda x, p: multi_head_attention(x, x, x, p, batch, bias).output,
                   lambda x, p: multi_head_attention(x, encoder_rows, encoder_rows, p,
                                                     batch).output)
        return self._forward(ids.reshape(-1), np.tile(self.positions[:length], (batch, 1)),
                             [attends] * len(self.layers))

    def step(self, cache: "_KVCache", tokens: np.ndarray) -> Tensor:
        """Logits [B, V] at the cache's next position ``t``, given each
        record's token at position t - 1."""
        positions = np.tile(self.positions[cache.t], (len(tokens), 1))
        logits = self._forward(tokens, positions, cache.attends())
        cache.t += 1
        return logits

    def generate_batch(self, encoder_rows: Tensor, batch_size: int) -> list[list[int]]:
        """Greedy ids for ``batch_size`` records whose ``encoder_rows`` lie one
        after another: START first, then the argmax until END or ``report_len``.
        Each ``step`` runs under ``no_tape`` on every record's newest position.
        All records step until each has emitted END; each is then cut after
        its first END."""
        cache = _KVCache(self, encoder_rows, batch_size, self.config.report_len)
        tokens = np.full(batch_size, START_ID)
        steps, ended = [tokens], np.zeros(batch_size, dtype=bool)
        with no_tape():
            while len(steps) < self.config.report_len and not ended.all():
                tokens = np.argmax(self.step(cache, tokens).data, axis=1)
                steps.append(tokens)
                ended |= tokens == END_ID
        return [ids[:ids.index(END_ID) + 1] if END_ID in ids else ids
                for ids in np.stack(steps, axis=1).tolist()]


class _KVCache:
    """Keys and values for incremental decoding of a batch.

    Each layer's cross-attention K/V are projected once from the encoder
    rows; its self-attention K/V [B, h, length, d // h] fill one position per
    step, ``t`` being the next. Both are held in the head layout ``_heads``,
    and ``attends`` runs the attention kernel ``_attention`` over them. No
    causal bias is needed: the cache holds only positions <= t.
    """

    def __init__(self, decoder: ReportDecoder, encoder_rows: Tensor, batch_size: int,
                 length: int):
        cfg = decoder.config
        d, self.heads = cfg.model_dim, cfg.num_heads
        if encoder_rows.ndim != 2 or encoder_rows.shape[1] != d:
            raise DimensionError(f"encoder rows shape {encoder_rows.shape} does not match "
                                 f"model width {d}")
        if batch_size < 1 or encoder_rows.shape[0] % batch_size:
            raise DimensionError(f"{encoder_rows.shape[0]} encoder rows do not split into "
                                 f"{batch_size} records")
        self.t = 0
        enc = encoder_rows.data
        self.cross = [(_heads(enc @ layer.cross_attn.w_k.data, batch_size, self.heads),
                       _heads(enc @ layer.cross_attn.w_v.data, batch_size, self.heads))
                      for layer in decoder.layers]
        shape = (batch_size, self.heads, length, d // self.heads)
        self.self_kv = [(np.empty(shape), np.empty(shape)) for _ in decoder.layers]

    def _attend(self, keys: np.ndarray, values: np.ndarray, x: Tensor,
                projections: AttentionProjections) -> Tensor:
        q = _heads(x.data @ projections.w_q.data, x.shape[0], self.heads)
        return Tensor(_attention(q, np.swapaxes(keys, -1, -2), values, None)[0]
                      @ projections.w_o.data)

    def _attend_new(self, keys: np.ndarray, values: np.ndarray, x: Tensor,
                    projections: AttentionProjections) -> Tensor:
        """Store position ``t``'s keys and values, then attend over 0..t."""
        t, batch = self.t, x.shape[0]
        keys[:, :, t] = _heads(x.data @ projections.w_k.data, batch, self.heads)[:, :, 0]
        values[:, :, t] = _heads(x.data @ projections.w_v.data, batch, self.heads)[:, :, 0]
        return self._attend(keys[:, :, :t + 1], values[:, :, :t + 1], x, projections)

    def attends(self) -> list[tuple[Attend, Attend]]:
        """Per layer, the (self, cross) attention of position ``t``."""
        return [(partial(self._attend_new, *kv), partial(self._attend, *cross))
                for kv, cross in zip(self.self_kv, self.cross)]


def report_loss(logits: Tensor, labels, pad_mask) -> Tensor:
    """The training objective: the mean over records of each record's mean
    token cross-entropy over its unmasked positions (not a mean pooled over
    all tokens).

    ``labels`` and ``pad_mask`` are [B, T], True marking a counted position;
    ``logits`` are [B·T, V], record after record. The 0/1 mask is folded into
    the per-position weights, so a PAD position adds exactly 0 and passes no
    gradient.
    """
    ids = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(pad_mask, dtype=bool)
    if mask.ndim != 2 or ids.shape != mask.shape:
        raise DimensionError(f"report_loss needs [B, T] labels and mask, got "
                             f"{ids.shape} / {mask.shape}")
    if not mask.any(axis=1).all():
        raise ContractError("report_loss needs at least one unmasked position per record")
    weights = mask / (mask.sum(axis=1)[:, None] * mask.shape[0])
    return reduce_sum(mul(cross_entropy(logits, ids.reshape(-1)),
                          Tensor(weights.reshape(-1))))


def token_accuracy(logits: Tensor, true_ids: Sequence[int], pad_mask) -> tuple[int, int]:
    """(correct, total) greedy-argmax agreement over unmasked positions."""
    ids = np.asarray(true_ids, dtype=np.int64)
    mask = np.asarray(pad_mask, dtype=bool)
    pred = np.argmax(logits.data, axis=1)
    return int(((pred == ids) & mask).sum()), int(mask.sum())
