"""Multi-head attention: the fused projections around the attention op.

Multi-head attention runs a whole batch at once: inputs are [B·n, d] rows,
and each of Q/K/V is one fused [d, h·d_k] projection (Megatron-LM style)
whose column block i is head i. The projected rows go straight to the one
taped op ``tensor.attention``, which splits and merges the heads and adds
the caller's logit bias; this module adds the projections.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError
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


class AttentionProjections(NamedTuple):
    """Fused W_q/W_k/W_v projections ([d, h·w], head i in column block i)
    plus the output projection W_o ([h·w, d]), where the head width w is
    d // h."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    num_heads: int

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
                         bias: Optional[np.ndarray] = None) -> AttentionResult:
    """Concat(head_1..head_h) W_o for ``batch_size`` records at once.

    ``q_in`` holds [B·n_q, d] rows and ``k_in``/``v_in`` [B·n_k, d] rows,
    record after record; the logit ``bias`` ([n_q, n_k], ``MASKED_LOGIT``
    where a key is forbidden) applies to every record and head.
    Returns output rows [B·n_q, d] and weights [B, h, n_q, n_k].
    """
    out, weights = attention(matmul(q_in, projections.w_q), matmul(k_in, projections.w_k),
                             matmul(v_in, projections.w_v), projections.num_heads,
                             batch_size, bias)
    return AttentionResult(matmul(out, projections.w_o), weights)
