"""Scaled dot-product attention, multi-head attention, and masking.

Multi-head attention runs a whole batch at once: inputs are [B·n, d] rows,
each of Q/K/V is one fused [d, h·d_k] projection (Megatron-LM style), and
the heads become an axis of a [B, h, n, d_k] array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError, ContractError, DimensionError
from .params import ParameterStore
from .tensor import (Tensor, add, batched_matmul, matmul, mul, reshape, softmax,
                     swap_axes)

# Additive pre-softmax fill for forbidden positions; at float64 this is
# indistinguishable from -inf after exponentiation but never produces nan.
MASKED_LOGIT = -1e30


@dataclass(frozen=True)
class MultiHeadConfig:
    """Head count and per-head widths for multi-head attention.

    ``key_dim``/``value_dim`` default to ``model_dim // num_heads``. The
    output projection maps ``num_heads * value_dim`` back to ``model_dim``,
    so the head width does not have to divide the model width: 512 with 3
    heads gives 170 per head and a 510 -> 512 output projection.
    """

    num_heads: int = 3
    model_dim: int = 512
    key_dim: Optional[int] = None
    value_dim: Optional[int] = None

    def __post_init__(self):
        if self.num_heads < 1:
            raise ConfigurationError(f"num_heads must be >= 1, got {self.num_heads}")
        if self.model_dim < 1:
            raise ConfigurationError(f"model_dim must be >= 1, got {self.model_dim}")
        if self.key_dim is None and self.model_dim // self.num_heads < 1:
            raise ConfigurationError(
                f"model_dim {self.model_dim} too small for {self.num_heads} heads; pass key_dim")
        for name in ("key_dim", "value_dim"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {v}")

    @property
    def head_key_dim(self) -> int:
        return self.key_dim if self.key_dim is not None else self.model_dim // self.num_heads

    @property
    def head_value_dim(self) -> int:
        return self.value_dim if self.value_dim is not None else self.head_key_dim

    @property
    def concat_dim(self) -> int:
        return self.num_heads * self.head_value_dim


class AttentionResult(NamedTuple):
    """``output`` [..., n_q, d_v]; ``weights`` [..., n_q, n_k], each row
    summing to one. Multi-head attention returns output rows [B·n_q, d] and
    weights [B, h, n_q, n_k]."""

    output: Tensor
    weights: Tensor


def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor,
                                 mask: Optional[np.ndarray] = None) -> AttentionResult:
    """softmax(q kT / sqrt(d_k)) v over the last two axes of q, k, v.

    Leading axes (batch, heads) must match. ``mask`` is a boolean
    [n_q, n_k] array, shared by every leading index, where True marks a
    permitted position; forbidden logits get an additive -1e30 before the
    softmax so their weights underflow to exactly zero. A query row with
    every key forbidden is rejected.
    """
    if q.ndim < 2 or not q.ndim == k.ndim == v.ndim or \
            not q.shape[:-2] == k.shape[:-2] == v.shape[:-2]:
        raise DimensionError(f"attention expects q/k/v with matching leading axes, "
                             f"got {q.shape}, {k.shape}, {v.shape}")
    if q.shape[-1] != k.shape[-1]:
        raise DimensionError(f"query width {q.shape} does not match key width {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise DimensionError(f"key count {k.shape} does not match value count {v.shape}")
    (n_q, d_k), n_k = q.shape[-2:], k.shape[-2]
    logits = mul(batched_matmul(q, swap_axes(k, -1, -2)), 1.0 / math.sqrt(d_k))
    if mask is not None:
        m = np.asarray(mask, dtype=bool)
        if m.shape != (n_q, n_k):
            raise DimensionError(f"mask shape {m.shape} does not match logits shape {(n_q, n_k)}")
        if not m.any(axis=1).all():
            raise ContractError("attention mask leaves a query row with no permitted keys")
        logits = add(logits, Tensor(np.broadcast_to(np.where(m, 0.0, MASKED_LOGIT),
                                                    logits.shape)))
    weights = softmax(logits, axis=-1)
    return AttentionResult(batched_matmul(weights, v), weights)


class AttentionProjections:
    """Fused W_q/W_k/W_v projections ([d, h·d_k], head i in column block i)
    plus the output projection W_o ([h·d_v, d])."""

    def __init__(self, w_q: Tensor, w_k: Tensor, w_v: Tensor, w_o: Tensor,
                 config: MultiHeadConfig):
        d, h = config.model_dim, config.num_heads
        for m, shape, name in ((w_q, (d, h * config.head_key_dim), "w_q"),
                               (w_k, (d, h * config.head_key_dim), "w_k"),
                               (w_v, (d, config.concat_dim), "w_v"),
                               (w_o, (config.concat_dim, d), "w_o")):
            if m.shape != shape:
                raise DimensionError(f"{name} shape {m.shape}, expected {shape}")
            if not np.isfinite(m.data).all():
                raise ContractError("attention projections must be finite")
        self.w_q, self.w_k, self.w_v, self.w_o = w_q, w_k, w_v, w_o
        self.config = config

    @classmethod
    def create(cls, store: ParameterStore, prefix: str,
               config: MultiHeadConfig) -> "AttentionProjections":
        d, h = config.model_dim, config.num_heads
        return cls(store.dense(f"{prefix}.wq", (d, h * config.head_key_dim), blocks=h),
                   store.dense(f"{prefix}.wk", (d, h * config.head_key_dim), blocks=h),
                   store.dense(f"{prefix}.wv", (d, config.concat_dim), blocks=h),
                   store.dense(f"{prefix}.wo", (config.concat_dim, d)), config)


def multi_head_attention(q_in: Tensor, k_in: Tensor, v_in: Tensor,
                         projections: AttentionProjections, batch_size: int = 1,
                         mask: Optional[np.ndarray] = None) -> AttentionResult:
    """Concat(head_1..head_h) W_o for ``batch_size`` records at once.

    ``q_in`` holds [B·n_q, d] rows and ``k_in``/``v_in`` [B·n_k, d] rows,
    record after record; ``mask`` ([n_q, n_k]) applies to every record.
    Returns output rows [B·n_q, d] and weights [B, h, n_q, n_k].
    """
    cfg = projections.config
    d, h = cfg.model_dim, cfg.num_heads
    for t, name in ((q_in, "queries"), (k_in, "keys"), (v_in, "values")):
        if t.ndim != 2 or t.shape[1] != d:
            raise DimensionError(f"{name} shape {t.shape} does not match model width {d}")
        if batch_size < 1 or t.shape[0] % batch_size:
            raise DimensionError(f"{name}: {t.shape[0]} rows do not split into "
                                 f"{batch_size} records")

    def heads(x: Tensor, w: Tensor, width: int) -> Tensor:
        # [B·n, d] -> [B·n, h·width] -> [B, h, n, width]
        n = x.shape[0] // batch_size
        return swap_axes(reshape(matmul(x, w), (batch_size, n, h, width)), 1, 2)

    attn = scaled_dot_product_attention(heads(q_in, projections.w_q, cfg.head_key_dim),
                                        heads(k_in, projections.w_k, cfg.head_key_dim),
                                        heads(v_in, projections.w_v, cfg.head_value_dim),
                                        mask)
    combined = reshape(swap_axes(attn.output, 1, 2), (q_in.shape[0], cfg.concat_dim))
    return AttentionResult(matmul(combined, projections.w_o), attn.weights)


def causal_mask(n: int) -> np.ndarray:
    """Boolean [n, n] lower-triangular mask: position i may see j <= i."""
    if n < 1:
        raise ContractError(f"causal_mask needs n >= 1, got {n}")
    return np.tril(np.ones((n, n), dtype=bool))
