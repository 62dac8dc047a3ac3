"""Fusion encoder: scalar, ethnicity, and text pathways merged with image
features through cross multi-head attention.

Every pathway runs on a batch of records at once. Each patient source
(scalars, ethnicity, chief complaint, ICD title) projects to its own row,
so a record contributes one key/value row per source and cross-attention
can weight the sources separately.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .attention import AttentionProjections, AttentionResult, multi_head_attention
from .errors import ContractError, DataError, DimensionError
from .params import ParameterStore
from .records import ScalarFeatures
from .tensor import (Tensor, add, concat, dense, embedding_lookup, layer_norm,
                     reshape)

if TYPE_CHECKING:
    from .model import ModelConfig

NUM_ETHNICITY_GROUPS = 9


def one_hot_ethnicity(group: int) -> Tensor:
    """One-hot vector over the nine 1-indexed ethnicity groups."""
    if not isinstance(group, (int, np.integer)) or not 1 <= int(group) <= NUM_ETHNICITY_GROUPS:
        raise ContractError(f"ethnicity group must be an integer in 1..9, got {group!r}")
    v = np.zeros(NUM_ETHNICITY_GROUPS)
    v[int(group) - 1] = 1.0
    return Tensor(v)


def encode_scalars(scalars: Sequence[ScalarFeatures], w: Tensor, b: Tensor) -> Tensor:
    """Dense projection of each record's eight normalized scalars -> [B, M]."""
    for record_scalars in scalars:
        record_scalars.validate()
    x = Tensor(np.stack([record_scalars.as_array() for record_scalars in scalars]))
    if w.shape[0] != x.shape[1]:
        raise DimensionError(f"scalar projection expects width {x.shape[1]}, got {w.shape}")
    return dense(x, w, b)


def embed_text(token_ids, table: Tensor) -> Tensor:
    """Look up fixed-length id sequences ([L], or [B, L] for a batch) -> [B·L, E]."""
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim not in (1, 2) or ids.size < 1:
        raise DimensionError(f"token ids must be a non-empty [L] or [B, L] array, "
                             f"got shape {ids.shape}")
    return embedding_lookup(table, ids.reshape(-1))


class FusionResult(NamedTuple):
    """Fused rows [B·image_tokens, d_model] and the cross-attention over the
    patient rows (weights [B, h, image_tokens, patient rows per record])."""

    output: Tensor
    attention: AttentionResult


def _id_grid(ids: Sequence[Sequence[int]], length: int, what: str) -> np.ndarray:
    """Stack per-record id lists into [B, length], rejecting any other length."""
    for row in ids:
        if len(row) != length:
            raise DimensionError(f"expected {length} {what} ids, got {len(row)}")
    return np.asarray(ids, dtype=np.int64).reshape(len(ids), length)


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
    def build_patient_representation(self, scalars: Sequence[ScalarFeatures],
                                     ethnicity: Sequence[int],
                                     chief_ids: Sequence[Sequence[int]],
                                     icd_ids: Sequence[Sequence[int]]) -> Tensor:
        """Patient key/value rows [B·4, d_model] for B records: per record
        the scalars, ethnicity, chief-complaint and ICD rows, in that order."""
        cfg = self.config
        batch = len(scalars)
        chief = _id_grid(chief_ids, cfg.chief_len, "chief-complaint")
        icd = _id_grid(icd_ids, cfg.icd_len, "ICD")
        sources = {
            "scalars": encode_scalars(scalars, self.scalar_w, self.scalar_b),
            "ethnicity": Tensor(np.stack([one_hot_ethnicity(g).data for g in ethnicity])),
            "chief": reshape(embed_text(chief, self.chief_table),
                             (batch, cfg.chief_len * cfg.embed_dim)),
            "icd": reshape(embed_text(icd, self.icd_table), (batch, cfg.icd_len * cfg.embed_dim)),
        }
        rows = concat([dense(x, self.row_w[name], self.row_b[name])
                       for name, x in sources.items()], axis=1)
        return reshape(rows, (batch * len(sources), cfg.model_dim))

    # -- image pathway ---------------------------------------------------------
    def image_pathway(self, features) -> Tensor:
        """Global image-feature vectors [B, F] (or one [F] vector) ->
        [B·image_tokens, d_model] rows."""
        cfg = self.config
        feats = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if feats.ndim != 2 or feats.shape[1] != cfg.image_feature_dim:
            raise DimensionError(f"expected {cfg.image_feature_dim} image features per record, "
                                 f"got shape {feats.shape}")
        if not np.isfinite(feats).all():
            raise DataError("image features must be finite")
        batch = feats.shape[0]
        normed = layer_norm(Tensor(feats), self.image_ln1_gamma, self.image_ln1_beta,
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

    def encode(self, scalars: Sequence[ScalarFeatures], ethnicity: Sequence[int],
               chief_ids: Sequence[Sequence[int]], icd_ids: Sequence[Sequence[int]],
               image_features) -> FusionResult:
        """Fuse a batch: per-record patient sources and [B, F] image features."""
        patient_rows = self.build_patient_representation(scalars, ethnicity, chief_ids, icd_ids)
        image_rows = self.image_pathway(image_features)
        return self.cross_attention_fusion(image_rows, patient_rows)
