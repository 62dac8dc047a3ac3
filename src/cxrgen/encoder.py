"""Fusion encoder: scalar, ethnicity, and text pathways merged with image
features through cross multi-head attention.

Every pathway runs on a batch of records at once. Each patient source
(scalars, ethnicity, chief complaint, ICD title) projects to its own row,
so a record contributes one key/value row per source and cross-attention
can weight the sources separately.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .attention import AttentionProjections, AttentionResult, multi_head_attention
from .errors import ContractError, DimensionError
from .params import ParameterStore
from .records import ScalarFeatures
from .tensor import (Tensor, add, concat, dense, embedding_lookup, layer_norm,
                     reshape)

if TYPE_CHECKING:
    from .model import ModelConfig, PackedRecords

NUM_ETHNICITY_GROUPS = 9


def one_hot_ethnicity(groups) -> Tensor:
    """One-hot rows [B, 9] over the nine 1-indexed ethnicity groups."""
    groups = np.asarray(groups)
    if groups.dtype.kind not in "iu" or ((groups < 1) | (groups > NUM_ETHNICITY_GROUPS)).any():
        raise ContractError(f"ethnicity group must be an integer in 1..9, got {groups}")
    return Tensor(np.eye(NUM_ETHNICITY_GROUPS)[groups - 1])


class FusionResult(NamedTuple):
    """Fused rows [B·image_tokens, d_model] and the cross-attention over the
    patient rows (weights [B, h, image_tokens, patient rows per record])."""

    output: Tensor
    attention: AttentionResult


class FusionEncoder:
    """Owns all encoder parameters and the patient/image/fusion pathways."""

    def __init__(self, store: ParameterStore, config: "ModelConfig", chief_vocab_size: int,
                 icd_vocab_size: int):
        self.config = config
        d, h = config.model_dim, config.num_heads

        self.scalar_w = store.dense("encoder.scalars.w",
                                    (len(ScalarFeatures.ORDER), config.scalar_out_dim))
        self.scalar_b = store.zeros("encoder.scalars.b", (config.scalar_out_dim,))
        self.chief_table = store.embedding("encoder.chief_embedding",
                                           (chief_vocab_size, config.embed_dim))
        self.icd_table = store.embedding("encoder.icd_embedding",
                                         (icd_vocab_size, config.embed_dim))

        widths = {
            "scalars": config.scalar_out_dim,
            "ethnicity": NUM_ETHNICITY_GROUPS,
            "chief": config.chief_len * config.embed_dim,
            "icd": config.icd_len * config.embed_dim,
        }
        self.row_w = {}
        self.row_b = {}
        for name, width in widths.items():
            self.row_w[name] = store.dense(f"encoder.patient.{name}.w", (width, d))
            self.row_b[name] = store.zeros(f"encoder.patient.{name}.b", (d,))

        self.image_ln1_gamma = store.ones("encoder.image.ln_in.gamma",
                                          (config.image_feature_dim,))
        self.image_ln1_beta = store.zeros("encoder.image.ln_in.beta",
                                          (config.image_feature_dim,))
        self.image_w = store.dense("encoder.image.proj.w",
                                   (config.image_feature_dim, config.image_tokens * d))
        self.image_b = store.zeros("encoder.image.proj.b", (config.image_tokens * d,))
        self.image_self_attn = AttentionProjections.create(store, "encoder.image.self_attn", d, h)
        self.image_ln2_gamma = store.ones("encoder.image.ln_out.gamma", (d,))
        self.image_ln2_beta = store.zeros("encoder.image.ln_out.beta", (d,))

        self.cross_attn = AttentionProjections.create(store, "encoder.fusion.cross_attn", d, h)
        self.fusion_ln_gamma = store.ones("encoder.fusion.ln.gamma", (d,))
        self.fusion_ln_beta = store.zeros("encoder.fusion.ln.beta", (d,))

    # -- patient pathway -----------------------------------------------------
    def build_patient_representation(self, scalars: np.ndarray, ethnicity: np.ndarray,
                                     chief: np.ndarray, icd: np.ndarray) -> Tensor:
        """Patient key/value rows [B·4, d_model] for B records: per record
        the scalars, ethnicity, chief-complaint and ICD rows, in that order.
        Takes packed arrays: scalars [B, 8], ethnicity [B], id grids [B, len]."""
        cfg = self.config
        batch = len(scalars)
        sources = {
            "scalars": dense(Tensor(scalars), self.scalar_w, self.scalar_b),
            "ethnicity": one_hot_ethnicity(ethnicity),
            "chief": reshape(embedding_lookup(self.chief_table, chief.reshape(-1)),
                             (batch, cfg.chief_len * cfg.embed_dim)),
            "icd": reshape(embedding_lookup(self.icd_table, icd.reshape(-1)),
                           (batch, cfg.icd_len * cfg.embed_dim)),
        }
        rows = concat([dense(x, self.row_w[name], self.row_b[name])
                       for name, x in sources.items()])
        return reshape(rows, (batch * len(sources), cfg.model_dim))

    # -- image pathway ---------------------------------------------------------
    def image_pathway(self, features: np.ndarray) -> Tensor:
        """Global image-feature vectors [B, F] -> [B·image_tokens, d_model] rows."""
        cfg = self.config
        batch = len(features)
        normed = layer_norm(Tensor(features), self.image_ln1_gamma, self.image_ln1_beta,
                            cfg.layer_norm_eps)
        tokens = reshape(dense(normed, self.image_w, self.image_b),
                         (batch * cfg.image_tokens, cfg.model_dim))
        attended = multi_head_attention(tokens, tokens, tokens, self.image_self_attn,
                                        batch).output
        return layer_norm(add(tokens, attended), self.image_ln2_gamma, self.image_ln2_beta,
                          cfg.layer_norm_eps)

    # -- fusion ---------------------------------------------------------------
    def cross_attention_fusion(self, image_rows: Tensor, patient_rows: Tensor) -> FusionResult:
        """Image rows query each record's patient rows; residual add + layer norm."""
        cfg = self.config
        if image_rows.ndim != 2 or image_rows.shape[1] != cfg.model_dim or \
                image_rows.shape[0] % cfg.image_tokens:
            raise DimensionError(f"image rows shape {image_rows.shape} is not "
                                 f"[B·{cfg.image_tokens}, {cfg.model_dim}]")
        batch = image_rows.shape[0] // cfg.image_tokens
        attn = multi_head_attention(image_rows, patient_rows, patient_rows, self.cross_attn,
                                    batch)
        fused = layer_norm(add(image_rows, attn.output), self.fusion_ln_gamma,
                           self.fusion_ln_beta, cfg.layer_norm_eps)
        return FusionResult(output=fused, attention=attn)

    def encode(self, batch: "PackedRecords") -> FusionResult:
        """Fused rows of packed records, used as ``ReportGenerator.pack`` checked them."""
        patient_rows = self.build_patient_representation(batch.scalars, batch.ethnicity,
                                                         batch.chief, batch.icd)
        return self.cross_attention_fusion(self.image_pathway(batch.image), patient_rows)
