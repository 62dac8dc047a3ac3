"""Fusion encoder: patient representation, image pathway, cross-attention."""

import numpy as np
import pytest

from cxrgen.encoder import FusionEncoder, one_hot_ethnicity
from cxrgen.errors import ContractError, DimensionError
from cxrgen.model import ModelConfig, PackedRecords
from cxrgen.params import ParameterStore
from cxrgen.records import ScalarFeatures
from cxrgen.tensor import Tensor, reduce_sum, mul

from helpers import check_gradients


def make_scalars(**overrides) -> ScalarFeatures:
    base = dict(heart_rate=0.5, o2sat=0.9, resp_rate=0.3, sbp=0.6, dbp=0.4,
                temperature=0.7, acuity=0.25, gender=1.0)
    base.update(overrides)
    return ScalarFeatures(**base)


def tiny_config(**overrides) -> ModelConfig:
    base = dict(model_dim=8, num_heads=2, embed_dim=4, scalar_out_dim=8, chief_len=2,
                icd_len=6, image_feature_dim=10, image_tokens=3)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_encoder(seed, cfg=None) -> FusionEncoder:
    return FusionEncoder(ParameterStore(seed), cfg or tiny_config(), chief_vocab_size=7,
                         icd_vocab_size=9)


def patient_rows(enc, scalars=None, ethnicity=2, chief=(1, 2), icd=(0, 1, 2, 3, 4, 5)):
    """Patient rows for a batch of one record."""
    return enc.build_patient_representation((scalars or make_scalars()).as_array()[None],
                                            np.array([ethnicity]), np.array([chief]),
                                            np.array([icd]))


class TestOneHotEthnicity:
    def test_valid_groups(self):
        np.testing.assert_array_equal(one_hot_ethnicity(list(range(1, 10))).data, np.eye(9))
        np.testing.assert_array_equal(one_hot_ethnicity([4, 4, np.int64(9)]).data,
                                      np.eye(9)[[3, 3, 8]])

    @pytest.mark.parametrize("bad", [0, 10, -1, 1.5, "White"])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ContractError, match="1..9"):
            one_hot_ethnicity([1, bad])


class TestEmbedText:
    """The text sources of the patient rows: each record's ids gathered from
    its table and laid out one token after another."""

    def test_gathers_rows(self):
        enc = tiny_encoder(1)
        rows = enc.build_patient_representation(np.stack([make_scalars().as_array()] * 2),
                                                np.array([1, 2]), np.array([[0, 3], [3, 6]]),
                                                np.array([[0, 1, 2, 3, 4, 5],
                                                          [8, 8, 0, 0, 0, 0]]))
        chief_w, chief_b = enc.row_w["chief"].data, enc.row_b["chief"].data
        for b, ids in enumerate(([0, 3], [3, 6])):
            np.testing.assert_allclose(rows.data[4 * b + 2],
                                       enc.chief_table.data[ids].reshape(-1) @ chief_w +
                                       chief_b, atol=1e-12)

    def test_out_of_range_token(self):
        enc = tiny_encoder(1)
        with pytest.raises(ContractError):
            patient_rows(enc, chief=(1, 7))
        with pytest.raises(ContractError):
            patient_rows(enc, icd=(0, 1, 2, 3, 4, 9))


class TestPreProjectionWidth:
    """Width and order of the patient sources before their row projections."""

    def test_default_width_is_4113(self):
        enc = FusionEncoder(ParameterStore(0), ModelConfig(), chief_vocab_size=100,
                            icd_vocab_size=100)
        # 8 scalars-out + 9 ethnicity + (2 + 6) * 512 embedded text, over the row projections
        assert sum(w.shape[0] for w in enc.row_w.values()) == 4113

    def test_pre_projection_tensor_matches_config(self):
        cfg = tiny_config()
        enc = tiny_encoder(2, cfg)
        assert {name: w.shape for name, w in enc.row_w.items()} == {
            "scalars": (8, cfg.model_dim), "ethnicity": (9, cfg.model_dim),
            "chief": (2 * 4, cfg.model_dim), "icd": (6 * 4, cfg.model_dim)}
        assert patient_rows(enc, ethnicity=3).shape == (4, cfg.model_dim)

    def test_pre_projection_layout(self):
        # per record: scalar row, then ethnicity, then chief, then icd
        cfg = tiny_config()
        enc = tiny_encoder(3, cfg)
        rows = patient_rows(enc, ethnicity=5).data
        expected = {
            "scalars": make_scalars().as_array() @ enc.scalar_w.data + enc.scalar_b.data,
            "ethnicity": one_hot_ethnicity([5]).data[0],
            "chief": enc.chief_table.data[[1, 2]].reshape(-1),
            "icd": enc.icd_table.data[[0, 1, 2, 3, 4, 5]].reshape(-1),
        }
        for i, (name, x) in enumerate(expected.items()):
            np.testing.assert_allclose(rows[i], x @ enc.row_w[name].data + enc.row_b[name].data,
                                       atol=1e-12)


class TestPatientRows:
    def test_typed_rows_shape(self):
        cfg = tiny_config()
        enc = tiny_encoder(4, cfg)
        assert patient_rows(enc, ethnicity=1).shape == (4, cfg.model_dim)

    def test_batch_rows_are_records_one_after_another(self):
        cfg = tiny_config()
        enc = tiny_encoder(5, cfg)
        a = (make_scalars(o2sat=0.2), 1, [1, 2], [0, 1, 2, 3, 4, 5])
        b = (make_scalars(), 7, [3, 4], [6, 5, 4, 3, 2, 1])
        batch = enc.build_patient_representation(
            np.stack([a[0].as_array(), b[0].as_array()]), np.array([a[1], b[1]]),
            np.array([a[2], b[2]]), np.array([a[3], b[3]]))
        assert batch.shape == (2 * 4, cfg.model_dim)
        np.testing.assert_allclose(batch.data[:4], patient_rows(enc, *a).data, atol=1e-12)
        np.testing.assert_allclose(batch.data[4:], patient_rows(enc, *b).data, atol=1e-12)

    def test_wrong_text_lengths_rejected(self):
        enc = tiny_encoder(6)
        with pytest.raises(DimensionError):
            patient_rows(enc, ethnicity=1, chief=[1])
        with pytest.raises(DimensionError):
            patient_rows(enc, ethnicity=1, icd=[0, 1])
        with pytest.raises(DimensionError):
            enc.build_patient_representation(np.stack([make_scalars().as_array()] * 2),
                                             np.array([1]), np.array([[1, 2]] * 2),
                                             np.array([[0, 1, 2, 3, 4, 5]] * 2))


class TestImagePathway:
    def test_output_shape(self):
        cfg = tiny_config()
        enc = tiny_encoder(7, cfg)
        rows = enc.image_pathway(np.random.default_rng(0).standard_normal((1, 10)))
        assert rows.shape == (cfg.image_tokens, cfg.model_dim)
        feats = np.random.default_rng(1).standard_normal((3, 10))
        batch = enc.image_pathway(feats)
        assert batch.shape == (3 * cfg.image_tokens, cfg.model_dim)
        np.testing.assert_allclose(batch.data[cfg.image_tokens:2 * cfg.image_tokens],
                                   enc.image_pathway(feats[1:2]).data, atol=1e-12)

    def test_wrong_width_rejected(self):
        enc = tiny_encoder(8)
        with pytest.raises(DimensionError):
            enc.image_pathway(np.zeros((1, 11)))
        with pytest.raises(DimensionError):  # one record's features are [1, F], not [F]
            enc.image_pathway(np.zeros(10))

    def test_zeroed_self_attention_reduces_to_layernormed_tokens(self):
        # with W_o = 0 the residual branch vanishes: output = LN(tokens)
        from cxrgen.tensor import layer_norm, dense, reshape
        cfg = tiny_config()
        enc = tiny_encoder(10, cfg)
        enc.image_self_attn.w_o.data = np.zeros_like(enc.image_self_attn.w_o.data)
        feats = np.random.default_rng(1).standard_normal((1, 10))
        out = enc.image_pathway(feats)
        normed = layer_norm(Tensor(feats), enc.image_ln1_gamma,
                            enc.image_ln1_beta, cfg.layer_norm_eps)
        tokens = reshape(dense(normed, enc.image_w, enc.image_b),
                         (cfg.image_tokens, cfg.model_dim))
        expected = layer_norm(tokens, enc.image_ln2_gamma, enc.image_ln2_beta,
                              cfg.layer_norm_eps)
        np.testing.assert_allclose(out.data, expected.data, atol=1e-12)


class TestCrossAttentionFusion:
    def test_single_patient_row_gets_weight_one(self):
        cfg = tiny_config()
        enc = tiny_encoder(11, cfg)
        one_row = Tensor(np.random.default_rng(1).standard_normal((2, cfg.model_dim)))
        image_rows = enc.image_pathway(np.random.default_rng(2).standard_normal((2, 10)))
        result = enc.cross_attention_fusion(image_rows, one_row)
        np.testing.assert_allclose(result.attention.weights,
                                   np.ones((2, cfg.num_heads, cfg.image_tokens, 1)), atol=0)

    def test_weights_rows_sum_to_one(self):
        cfg = tiny_config()
        enc = tiny_encoder(12, cfg)
        rep = patient_rows(enc)
        image_rows = enc.image_pathway(np.random.default_rng(3).standard_normal((1, 10)))
        result = enc.cross_attention_fusion(image_rows, rep)
        assert result.output.shape == (cfg.image_tokens, cfg.model_dim)
        weights = result.attention.weights
        assert weights.shape == (1, cfg.num_heads, cfg.image_tokens, 4)
        np.testing.assert_allclose(weights.sum(axis=-1),
                                   np.ones((1, cfg.num_heads, cfg.image_tokens)), atol=1e-12)

    def test_zeroed_cross_attention_is_layernorm_of_image(self):
        from cxrgen.tensor import layer_norm
        cfg = tiny_config()
        enc = tiny_encoder(13, cfg)
        enc.cross_attn.w_o.data = np.zeros_like(enc.cross_attn.w_o.data)
        rep = patient_rows(enc)
        image_rows = enc.image_pathway(np.random.default_rng(4).standard_normal((1, 10)))
        result = enc.cross_attention_fusion(image_rows, rep)
        expected = layer_norm(image_rows, enc.fusion_ln_gamma, enc.fusion_ln_beta,
                              cfg.layer_norm_eps)
        np.testing.assert_allclose(result.output.data, expected.data, atol=1e-12)

    def test_patient_data_changes_fused_output(self):
        cfg = tiny_config()
        enc = tiny_encoder(14, cfg)
        image_rows = enc.image_pathway(np.random.default_rng(5).standard_normal((1, 10)))
        rep_a = patient_rows(enc, make_scalars(o2sat=0.1))
        rep_b = patient_rows(enc, make_scalars(o2sat=0.9))
        out_a = enc.cross_attention_fusion(image_rows, rep_a).output
        out_b = enc.cross_attention_fusion(image_rows, rep_b).output
        assert np.abs(out_a.data - out_b.data).max() > 1e-9


class TestEncoderGradients:
    def test_full_encoder_gradcheck(self):
        cfg = tiny_config()
        store = ParameterStore(15)
        enc = FusionEncoder(store, cfg, chief_vocab_size=7, icd_vocab_size=9)
        feats = np.random.default_rng(6).standard_normal((1, 10))
        probe = Tensor(np.random.default_rng(7).standard_normal((cfg.image_tokens,
                                                                 cfg.model_dim)))
        batch = PackedRecords(image=feats, scalars=make_scalars().as_array()[None],
                              ethnicity=np.array([3]), chief=np.array([[1, 2]]),
                              icd=np.array([[0, 1, 2, 3, 4, 5]]),
                              report=np.array([[1, 4, 2]]), sample_ids=np.array(["r"]))

        def loss():
            fused = enc.encode(batch)
            return reduce_sum(mul(fused.output, probe))

        worst = check_gradients(loss, list(store.parameters.values()), max_entries=4)
        assert worst < 1e-5
