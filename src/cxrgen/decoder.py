"""Autoregressive transformer decoder over report tokens.

Post-layer-norm blocks: masked self-attention, cross-attention over the
encoder rows, then a position-wise feed-forward, each wrapped in a residual
add followed by layer norm. Token embeddings are scaled by sqrt(d_model)
and summed with fixed sinusoidal position encodings. Teacher forcing runs a
batch of records as [B·T, d] rows. Greedy decoding also runs a batch: it
caches each layer's keys and values and computes only the newest position
per step, dropping each record from the batch once it emits END.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .attention import MASKED_LOGIT, AttentionProjections, multi_head_attention
from .errors import ContractError, DimensionError
from .params import ParameterStore
from .tensor import (Tensor, _attention, _heads, _layer_norm, add, cross_entropy, dense,
                     embedding_lookup, layer_norm, matmul, mul, reduce_sum, relu)
from .vocab import END_ID, START_ID

if TYPE_CHECKING:
    from .model import ModelConfig


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

    def forward(self, x: Tensor, encoder_rows: Tensor, bias: np.ndarray,
                batch_size: int) -> Tensor:
        attended = multi_head_attention(x, x, x, self.self_attn, batch_size, bias).output
        x = layer_norm(add(x, attended), self.ln1_gamma, self.ln1_beta, self._eps)
        crossed = multi_head_attention(x, encoder_rows, encoder_rows, self.cross_attn,
                                       batch_size).output
        x = layer_norm(add(x, crossed), self.ln2_gamma, self.ln2_beta, self._eps)
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
        x = add(mul(embedding_lookup(self.token_embedding, ids.reshape(-1)), math.sqrt(d)),
                Tensor(np.tile(self.positions[:length], (batch, 1))))
        bias = self.causal_bias[:length, :length]
        for layer in self.layers:
            x = layer.forward(x, encoder_rows, bias, batch)
        return add(matmul(x, self.output_w), self.output_b)

    def generate_batch(self, encoder_rows: Tensor, batch_size: int) -> list[list[int]]:
        """Greedy ids for ``batch_size`` records whose ``encoder_rows`` lie one
        after another: START first, then the argmax until END or ``report_len``.

        Incremental decoding in plain numpy, so no tape records it: each step
        runs only the newest position of every unfinished record against the
        cached keys and values, and a record leaves the batch at its END.
        """
        cap = self.config.report_len
        cache = _KVCache(self, encoder_rows, batch_size, cap)
        ids = [[START_ID] for _ in range(batch_size)]
        active = np.arange(batch_size)
        tokens = np.full(batch_size, START_ID)
        for _ in range(cap - 1):
            tokens = np.argmax(cache.step(tokens), axis=1)
            for row, token in zip(active, tokens.tolist()):
                ids[row].append(token)
            going = tokens != END_ID
            if not going.all():
                active, tokens = active[going], tokens[going]
                if not active.size:
                    break
                cache.keep(going)
        return ids


class _KVCache:
    """Keys and values for incremental decoding of a batch.

    Each layer's cross-attention K/V are projected once from the encoder
    rows; its self-attention K/V [B, h, length, d // h] fill one position per
    step. Both are held in the attention op's head layout ``_heads``. ``step``
    runs the layer's fused projections in the taped ops' order on numpy arrays
    through the ops' own kernels ``_attention``, given a transposed view of
    the cached keys, and ``_layer_norm``. No causal bias is needed: the cache holds
    only positions <= t.
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
        self.decoder, self.t = decoder, 0
        enc = encoder_rows.data
        self.cross = [(_heads(enc @ layer.cross_attn.w_k.data, batch_size, self.heads),
                       _heads(enc @ layer.cross_attn.w_v.data, batch_size, self.heads))
                      for layer in decoder.layers]
        shape = (batch_size, self.heads, length, d // self.heads)
        self.self_kv = [(np.empty(shape), np.empty(shape)) for _ in decoder.layers]

    def _attend(self, x: np.ndarray, keys: np.ndarray, values: np.ndarray,
                projections) -> np.ndarray:
        q = _heads(x @ projections.w_q.data, x.shape[0], self.heads)
        return _attention(q, np.swapaxes(keys, -1, -2), values, None)[0] @ projections.w_o.data

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the batch rows selected by the boolean ``rows``."""
        self.cross = [(k[rows], v[rows]) for k, v in self.cross]
        self.self_kv = [(k[rows], v[rows]) for k, v in self.self_kv]

    def step(self, tokens: np.ndarray) -> np.ndarray:
        """Logits [B, V] at the next position, given each record's last token."""
        dec, t = self.decoder, self.t
        d = dec.config.model_dim
        x = dec.token_embedding.data[tokens] * math.sqrt(d) + dec.positions[t]
        for layer, (keys, values), (cross_k, cross_v) in zip(dec.layers, self.self_kv,
                                                            self.cross):
            attn = layer.self_attn
            keys[:, :, t] = _heads(x @ attn.w_k.data, x.shape[0], self.heads)[:, :, 0]
            values[:, :, t] = _heads(x @ attn.w_v.data, x.shape[0], self.heads)[:, :, 0]
            attended = self._attend(x, keys[:, :, :t + 1], values[:, :, :t + 1], attn)
            x = _layer_norm(x + attended, layer.ln1_gamma.data, layer.ln1_beta.data,
                            layer._eps)[0]
            crossed = self._attend(x, cross_k, cross_v, layer.cross_attn)
            x = _layer_norm(x + crossed, layer.ln2_gamma.data, layer.ln2_beta.data,
                            layer._eps)[0]
            hidden = x @ layer.ffn_w1.data + layer.ffn_b1.data
            ffn = np.where(hidden > 0, hidden, 0.0) @ layer.ffn_w2.data + layer.ffn_b2.data
            x = _layer_norm(x + ffn, layer.ln3_gamma.data, layer.ln3_beta.data,
                            layer._eps)[0]
        self.t += 1
        return x @ dec.output_w.data + dec.output_b.data


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
