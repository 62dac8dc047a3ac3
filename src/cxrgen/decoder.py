"""Autoregressive transformer decoder over report tokens.

Post-layer-norm blocks: masked self-attention, cross-attention over the
encoder rows, then a position-wise feed-forward, each wrapped in a residual
add followed by layer norm. Token embeddings are scaled by sqrt(d_model)
and summed with fixed sinusoidal position encodings. Teacher forcing runs a
batch of records as [B·T, d] rows; greedy decoding runs one record.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .attention import AttentionProjections, causal_mask, multi_head_attention
from .errors import ConfigurationError, ContractError, DimensionError
from .params import ParameterStore
from .tensor import (Tensor, add, dense, embedding_lookup, layer_norm, log_softmax,
                     matmul, mul, neg, reduce_sum, sqrt_scale, take_per_row)
from .vocab import END_ID, PAD_ID, START_ID

if TYPE_CHECKING:
    from .model import ModelConfig


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Fixed sin/cos position table of shape [length, dim]."""
    if length < 1 or dim < 1:
        raise ConfigurationError(f"positions need length, dim >= 1; got {length}, {dim}")
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

    def forward(self, x: Tensor, encoder_rows: Tensor, mask: np.ndarray,
                batch_size: int) -> Tensor:
        attended = multi_head_attention(x, x, x, self.self_attn, batch_size, mask).output
        x = layer_norm(add(x, attended), self.ln1_gamma, self.ln1_beta, self._eps)
        crossed = multi_head_attention(x, encoder_rows, encoder_rows, self.cross_attn,
                                       batch_size).output
        x = layer_norm(add(x, crossed), self.ln2_gamma, self.ln2_beta, self._eps)
        ffn = dense(dense(x, self.ffn_w1, self.ffn_b1, activation="relu"),
                    self.ffn_w2, self.ffn_b2)
        return layer_norm(add(x, ffn), self.ln3_gamma, self.ln3_beta, self._eps)


class ReportDecoder:
    """Token embedding, decoder layers, and the output projection."""

    def __init__(self, store: ParameterStore, config: "ModelConfig", vocab_size: int):
        self.config = config
        d = config.model_dim
        self.token_embedding = store.embedding("decoder.token_embedding", (vocab_size, d))
        self.positions = sinusoidal_positions(config.report_len, d)
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
        x = add(sqrt_scale(embedding_lookup(self.token_embedding, ids.reshape(-1)), d),
                Tensor(np.tile(self.positions[:length], (batch, 1))))
        mask = causal_mask(length)
        for layer in self.layers:
            x = layer.forward(x, encoder_rows, mask, batch)
        return add(matmul(x, self.output_w), self.output_b)

    def generate_greedy(self, encoder_rows: Tensor, max_len: Optional[int] = None) -> list[int]:
        """Argmax decoding from START until END or the length cap."""
        cap = self.config.report_len if max_len is None else max_len
        if not 1 <= cap <= self.config.report_len:
            raise ContractError(f"max_len must be in 1..{self.config.report_len}, got {cap}")
        ids = [START_ID]
        while len(ids) < cap:
            logits = self.teacher_forced_forward(encoder_rows, ids)
            nxt = int(np.argmax(logits.data[-1]))
            ids.append(nxt)
            if nxt == END_ID:
                break
        return ids


def sparse_ce_loss(logits: Tensor, true_ids: Sequence[int], pad_mask) -> Tensor:
    """Unreduced per-position cross-entropy; PAD positions contribute 0.

    ``pad_mask`` is boolean with True marking real (counted) positions.
    """
    if logits.ndim != 2:
        raise DimensionError(f"logits must be [T, V], got shape {logits.shape}")
    ids = np.asarray(true_ids, dtype=np.int64)
    mask = np.asarray(pad_mask, dtype=bool)
    n, v = logits.shape
    if ids.shape != (n,) or mask.shape != (n,):
        raise DimensionError(f"expected {n} labels and mask entries, got "
                             f"{ids.shape} / {mask.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= v):
        raise ContractError(f"label id out of range [0, {v})")
    nll = neg(take_per_row(log_softmax(logits, axis=1), ids))
    return mul(nll, Tensor(mask.astype(np.float64)))


def masked_mean(losses: Tensor, pad_mask) -> Tensor:
    """The training objective: the mean over records of each record's mean
    over its unmasked positions (not a mean pooled over all tokens).

    ``pad_mask`` is [T] for one record or [B, T] for a batch whose
    ``losses`` are flattened record after record.
    """
    mask = np.atleast_2d(np.asarray(pad_mask, dtype=bool))
    counts = mask.sum(axis=1)
    if mask.ndim != 2 or (counts == 0).any():
        raise ContractError("masked_mean needs at least one unmasked position per record")
    weights = mask / (counts[:, None] * mask.shape[0])
    return reduce_sum(mul(losses, Tensor(weights.reshape(-1))))


def token_accuracy(logits: Tensor, true_ids: Sequence[int], pad_mask) -> tuple[int, int]:
    """(correct, total) greedy-argmax agreement over unmasked positions."""
    ids = np.asarray(true_ids, dtype=np.int64)
    mask = np.asarray(pad_mask, dtype=bool)
    pred = np.argmax(logits.data, axis=1)
    return int(((pred == ids) & mask).sum()), int(mask.sum())
