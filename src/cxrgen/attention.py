"""Scaled dot-product attention, multi-head attention, and masking.

Multi-head attention runs a whole batch at once: inputs are [B·n, d] rows,
each of Q/K/V is one fused [d, h·d_k] projection (Megatron-LM style), and
the heads become an axis of a [B, h, n, d_k] array.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError, ContractError, DimensionError
from .params import ParameterStore
from .tensor import (Tensor, add, batched_matmul, matmul, mul, reshape, softmax,
                     swap_axes)

# Additive pre-softmax fill for forbidden positions; at float64 this is
# indistinguishable from -inf after exponentiation but never produces nan.
MASKED_LOGIT = -1e30


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
    weights = softmax(logits)
    return AttentionResult(batched_matmul(weights, v), weights)


class AttentionProjections:
    """Fused W_q/W_k/W_v projections ([d, h·w], head i in column block i)
    plus the output projection W_o ([h·w, d]), where the head width w is
    d // h."""

    def __init__(self, w_q: Tensor, w_k: Tensor, w_v: Tensor, w_o: Tensor, num_heads: int):
        d = w_q.shape[0]
        qkv = (d, num_heads * (d // num_heads))
        for m, shape, name in ((w_q, qkv, "w_q"), (w_k, qkv, "w_k"), (w_v, qkv, "w_v"),
                               (w_o, qkv[::-1], "w_o")):
            if m.shape != shape:
                raise DimensionError(f"{name} shape {m.shape}, expected {shape}")
            if not np.isfinite(m.data).all():
                raise ContractError("attention projections must be finite")
        self.w_q, self.w_k, self.w_v, self.w_o = w_q, w_k, w_v, w_o
        self.num_heads = num_heads

    @classmethod
    def create(cls, store: ParameterStore, prefix: str, model_dim: int,
               num_heads: int) -> "AttentionProjections":
        if not 1 <= num_heads <= model_dim:
            raise ConfigurationError(f"{num_heads} heads do not fit model width {model_dim}")
        concat = num_heads * (model_dim // num_heads)
        return cls(store.dense(f"{prefix}.wq", (model_dim, concat), blocks=num_heads),
                   store.dense(f"{prefix}.wk", (model_dim, concat), blocks=num_heads),
                   store.dense(f"{prefix}.wv", (model_dim, concat), blocks=num_heads),
                   store.dense(f"{prefix}.wo", (concat, model_dim)), num_heads)


def multi_head_attention(q_in: Tensor, k_in: Tensor, v_in: Tensor,
                         projections: AttentionProjections, batch_size: int = 1,
                         mask: Optional[np.ndarray] = None) -> AttentionResult:
    """Concat(head_1..head_h) W_o for ``batch_size`` records at once.

    ``q_in`` holds [B·n_q, d] rows and ``k_in``/``v_in`` [B·n_k, d] rows,
    record after record; ``mask`` ([n_q, n_k]) applies to every record.
    Returns output rows [B·n_q, d] and weights [B, h, n_q, n_k].
    """
    d, h = projections.w_q.shape[0], projections.num_heads
    width = d // h
    for t, name in ((q_in, "queries"), (k_in, "keys"), (v_in, "values")):
        if t.ndim != 2 or t.shape[1] != d:
            raise DimensionError(f"{name} shape {t.shape} does not match model width {d}")
        if batch_size < 1 or t.shape[0] % batch_size:
            raise DimensionError(f"{name}: {t.shape[0]} rows do not split into "
                                 f"{batch_size} records")

    def heads(x: Tensor, w: Tensor) -> Tensor:
        # [B·n, d] -> [B·n, h·width] -> [B, h, n, width]
        n = x.shape[0] // batch_size
        return swap_axes(reshape(matmul(x, w), (batch_size, n, h, width)), 1, 2)

    attn = scaled_dot_product_attention(heads(q_in, projections.w_q),
                                        heads(k_in, projections.w_k),
                                        heads(v_in, projections.w_v), mask)
    combined = reshape(swap_axes(attn.output, 1, 2), (q_in.shape[0], h * width))
    return AttentionResult(matmul(combined, projections.w_o), attn.weights)


def causal_mask(n: int) -> np.ndarray:
    """Boolean [n, n] lower-triangular mask: position i may see j <= i."""
    if n < 1:
        raise ContractError(f"causal_mask needs n >= 1, got {n}")
    return np.tril(np.ones((n, n), dtype=bool))
