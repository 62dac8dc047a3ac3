"""Scaled dot-product attention, multi-head attention, and masking.

Multi-head attention runs a whole batch at once: inputs are [B·n, d] rows,
and each of Q/K/V is one fused [d, h·d_k] projection (Megatron-LM style)
whose column block i is head i. The projected rows go straight to the one
taped op ``tensor.attention``, which splits and merges the heads; this
module adds the projections and the mask.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError, ContractError, DimensionError
from .params import ParameterStore
from .tensor import Tensor, attention, matmul

# Additive pre-softmax fill for forbidden positions; at float64 this is
# indistinguishable from -inf after exponentiation but never produces nan.
MASKED_LOGIT = -1e30


class AttentionResult(NamedTuple):
    """``output`` rows [B·n_q, d_v] and the ``weights`` array [B, h, n_q, n_k],
    each row summing to one."""

    output: Tensor
    weights: np.ndarray


def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor,
                                 mask: Optional[np.ndarray] = None, heads: int = 1,
                                 batch: int = 1) -> AttentionResult:
    """softmax(q kT / sqrt(d_k)) v per record and head.

    q holds [B·n_q, h·d_k] rows and k, v [B·n_k, h·d_k] and [B·n_k, h·d_v]
    rows of ``batch`` records, one after another; head i is column block i.
    ``mask`` is a boolean [n_q, n_k] array, shared by every record and head,
    where True marks a permitted position; forbidden logits get an additive
    -1e30 before the softmax so their weights underflow to exactly zero. A
    query row with every key forbidden is rejected.
    """
    bias = None
    if mask is not None:
        m = np.asarray(mask, dtype=bool)
        logits_shape = (q.shape[0] // batch, k.shape[0] // batch)
        if m.shape != logits_shape:
            raise DimensionError(f"mask shape {m.shape} does not match logits shape {logits_shape}")
        if not m.any(axis=1).all():
            raise ContractError("attention mask leaves a query row with no permitted keys")
        bias = np.where(m, 0.0, MASKED_LOGIT)
    return AttentionResult(*attention(q, k, v, heads, batch, bias))


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
    attn = scaled_dot_product_attention(matmul(q_in, projections.w_q),
                                        matmul(k_in, projections.w_k),
                                        matmul(v_in, projections.w_v), mask,
                                        projections.num_heads, batch_size)
    return AttentionResult(matmul(attn.output, projections.w_o), attn.weights)


def causal_mask(n: int) -> np.ndarray:
    """Boolean [n, n] lower-triangular mask: position i may see j <= i."""
    if n < 1:
        raise ContractError(f"causal_mask needs n >= 1, got {n}")
    return np.tril(np.ones((n, n), dtype=bool))
