"""End-to-end model wrapper: input presets, config, loss, generation, checkpoints."""

import dataclasses
import gc
import json
import re
import tracemalloc
import weakref
import zipfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxrgen.attention import AttentionProjections
from cxrgen.errors import ConfigurationError, ContractError, DataError, DimensionError
from cxrgen.model import INPUT_PRESETS, SCALAR_NAMES, ModelConfig, ReportGenerator
from cxrgen.params import ParameterStore
from cxrgen.pipeline import ABLATION_MODEL
from cxrgen.preprocess import ETHNICITY_UNKNOWN
from cxrgen.records import PatientRecord, ScalarFeatures
from cxrgen.tensor import GradientTape
from cxrgen.training import TrainConfig, evaluate_split, fit
from cxrgen.vocab import END_ID, PAD_ID, START_ID

from helpers import check_cached_decoding, input_mask_apply, per_sample_loss


def _scalars(**overrides):
    base = dict(temperature=0.5, heart_rate=0.4, resp_rate=0.3, o2sat=0.9,
                sbp=0.6, dbp=0.5, acuity=0.25, gender=1.0)
    base.update(overrides)
    return ScalarFeatures(**base)


def _record(vocab_size=30, seed=0):
    rng = np.random.default_rng(seed)
    report = [START_ID, 5, 6, 7, 8, END_ID, PAD_ID, PAD_ID]
    return PatientRecord(
        sample_id=f"rec-{seed}",
        scalars=_scalars(),
        ethnicity=3,
        chief_ids=[5, 6],
        icd_ids=[7, 8, 9, PAD_ID, PAD_ID, PAD_ID],
        image_features=rng.standard_normal(24).tolist(),
        report_ids=report,
        report_text="some findings here",
    )


def _tiny_config(**overrides):
    base = dict(model_dim=16, num_heads=2, ffn_dim=16, embed_dim=16,
                report_len=8, chief_len=2, icd_len=6, decoder_layers=1,
                scalar_out_dim=8, image_feature_dim=24, image_tokens=2)
    base.update(overrides)
    return ModelConfig(**base)


def _tiny_model(seed=0, inputs="all"):
    return ReportGenerator(_tiny_config(), vocab_size=30, chief_vocab_size=12,
                           icd_vocab_size=12, seed=seed, inputs=inputs)


def _masked(preset, rec):
    """One record's packed scalars, ethnicity, chief and ICD ids under ``preset``."""
    packed = _tiny_model(inputs=preset).pack([rec])
    return (packed.scalars[0], packed.ethnicity[0], packed.chief[0].tolist(),
            packed.icd[0].tolist())


class TestInputMask:
    def test_preset_names(self):
        assert set(INPUT_PRESETS) == {"all", "image_only", "scalars", "text", "o2sat"}

    def test_ablation_labels(self):
        labels = {name: preset.label for name, preset in INPUT_PRESETS.items()}
        assert labels == {"all": "AllDataFusion", "image_only": "Baseline",
                          "scalars": "ScalarFusion", "text": "TextFusion",
                          "o2sat": "SingularO2Sat"}

    def test_all_inputs_passthrough(self):
        rec = _record()
        scalars, eth, chief, icd = _masked("all", rec)
        assert scalars.tolist() == rec.scalars.as_array().tolist()
        assert eth == rec.ethnicity
        assert chief == rec.chief_ids
        assert icd == rec.icd_ids

    def test_image_only_blanks_everything(self):
        rec = _record()
        scalars, eth, chief, icd = _masked("image_only", rec)
        assert scalars.tolist() == [0.0] * 8
        assert eth == ETHNICITY_UNKNOWN
        assert chief == [PAD_ID] * len(rec.chief_ids)
        assert icd == [PAD_ID] * len(rec.icd_ids)

    def test_scalars_only_keeps_vitals_blanks_rest(self):
        # scalar fusion = continuous features only; categorical/text are masked
        rec = _record()
        scalars, eth, chief, icd = _masked("scalars", rec)
        assert scalars.tolist() == rec.scalars.as_array().tolist()
        assert eth == ETHNICITY_UNKNOWN
        assert chief == [PAD_ID] * len(rec.chief_ids)
        assert icd == [PAD_ID] * len(rec.icd_ids)

    def test_text_only_keeps_text_blanks_scalars(self):
        rec = _record()
        scalars, eth, chief, icd = _masked("text", rec)
        assert scalars.tolist() == [0.0] * 8
        assert eth == ETHNICITY_UNKNOWN
        assert chief == rec.chief_ids
        assert icd == rec.icd_ids

    def test_o2sat_only_keeps_single_vital(self):
        rec = _record()
        scalars, eth, chief, icd = _masked("o2sat", rec)
        for i, name in enumerate(ScalarFeatures.ORDER):
            expected = rec.scalars.o2sat if name == "o2sat" else 0.0
            assert scalars[i] == expected
        assert eth == ETHNICITY_UNKNOWN
        assert chief == [PAD_ID] * len(rec.chief_ids)
        assert icd == [PAD_ID] * len(rec.icd_ids)

    @pytest.mark.parametrize("preset", sorted(INPUT_PRESETS))
    def test_pack_equals_the_per_record_oracle(self, preset):
        """Packed, masked arrays hold exactly what masking each record on its
        own gives; the unmasked image and report rows are the records' own."""
        records = [PatientRecord(
            sample_id=f"r{i}", scalars=_scalars(o2sat=i / 7, heart_rate=1.0 - i / 9,
                                                gender=float(i % 2)),
            ethnicity=1 + (2 * i) % 9, chief_ids=[i % 12, (5 * i) % 12],
            icd_ids=[(i + k) % 12 for k in range(6)], image_features=_record(seed=i).image_features,
            report_ids=_report(i % 5, 8 - i % 2), report_text="t") for i in range(7)]
        packed = _tiny_model(inputs=preset).pack(records)
        oracle = [input_mask_apply(INPUT_PRESETS[preset], rec) for rec in records]
        assert packed.scalars.tobytes() == np.stack([o[0].as_array() for o in oracle]).tobytes()
        assert packed.ethnicity.tolist() == [o[1] for o in oracle]
        assert packed.chief.tolist() == [o[2] for o in oracle]
        assert packed.icd.tolist() == [o[3] for o in oracle]
        assert packed.image.tobytes() == np.array([r.image_features for r in records]).tobytes()
        assert packed.report.tolist() == [r.report_ids + [PAD_ID] * (8 - len(r.report_ids))
                                          for r in records]
        assert packed.sample_ids.tolist() == [r.sample_id for r in records]

    def test_preset_lookup_rejects_unknown(self):
        for name in ("vision_only", "ALL", INPUT_PRESETS["all"]):
            with pytest.raises(ConfigurationError, match=re.escape(
                    f"unknown input preset {name!r}; choose from {sorted(INPUT_PRESETS)}")):
                _tiny_model(inputs=name)

    def test_preset_lookup_round_trip(self):
        for name in INPUT_PRESETS:
            assert _tiny_model(inputs=name).inputs == name

    def test_every_preset_keeps_known_scalars(self):
        for preset in INPUT_PRESETS.values():
            assert preset.scalars <= set(SCALAR_NAMES), preset


class TestModelConfig:
    def test_published_defaults(self):
        cfg = ModelConfig()
        assert cfg.model_dim == 512
        assert cfg.num_heads == 3
        assert cfg.embed_dim == 512
        assert cfg.report_len == 43
        assert cfg.chief_len == 2
        assert cfg.icd_len == 6
        assert cfg.decoder_layers == 1
        assert cfg.image_feature_dim == 1280

    def test_round_trip(self):
        cfg = _tiny_config()
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            ModelConfig.from_dict({"model_dim": 16, "hidden_layers": 3})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(model_dim=0)
        # the retired image and patient-row modes are unknown keys now
        with pytest.raises(ConfigurationError):
            ModelConfig.from_dict({"image_mode": "toy_extractor"})
        with pytest.raises(ConfigurationError):
            ModelConfig.from_dict({"patient_kv_mode": "single_row"})

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
    def test_layer_norm_eps_must_be_positive_and_finite(self, eps):
        with pytest.raises(ConfigurationError, match="layer_norm_eps"):
            ModelConfig(layer_norm_eps=eps)

    def test_defaults_with_non_divisible_heads(self):
        cfg = ModelConfig()
        proj = AttentionProjections.create(ParameterStore(0), "attn", cfg.model_dim,
                                           cfg.num_heads)
        assert cfg.model_dim // cfg.num_heads == 170
        assert proj.w_q.shape == proj.w_k.shape == proj.w_v.shape == (512, 510)
        assert proj.w_o.shape == (510, 512)  # output projection is 510 -> 512

    def test_invalid_head_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(num_heads=0)
        with pytest.raises(ConfigurationError):
            ModelConfig(num_heads=5, model_dim=3)  # head dim would be 0

    @pytest.mark.parametrize("sizes", [(END_ID, 12, 12), (30, 0, 12), (30, 12, 0)])
    def test_degenerate_vocabularies_rejected(self, sizes):
        with pytest.raises(ConfigurationError):
            ReportGenerator(_tiny_config(), *sizes)


class TestLossForRecord:
    def test_returns_scalar_loss_and_counts(self):
        model = _tiny_model()
        rec = _record()
        loss, correct, total = model.loss_for_record(rec)
        assert loss.data.shape == ()
        assert np.isfinite(loss.data)
        assert loss.data > 0
        # report has 5 non-pad label positions: 5,6,7,8,END
        assert total == 5
        assert 0 <= correct <= total

    def test_loss_differentiable_end_to_end(self):
        model = _tiny_model()
        rec = _record()
        with GradientTape() as tape:
            loss, _, _ = model.loss_for_record(rec)
        tape.backward(loss)
        grads = tape.gradients(model.parameters())
        nonzero = sum(float(np.abs(g).sum()) > 0 for g in grads.values())
        # nearly all parameters participate; at minimum most of them
        assert nonzero >= 0.8 * len(grads)

    def test_mask_changes_loss(self):
        full = _tiny_model(seed=0)
        masked = _tiny_model(seed=0, inputs="image_only")
        rec = _record()
        loss_a, _, _ = full.loss_for_record(rec)
        loss_b, _, _ = masked.loss_for_record(rec)
        assert loss_a.data != pytest.approx(float(loss_b.data), abs=1e-12)


def _report(n_real, width):
    """START, ``n_real`` tokens, END, then PAD up to ``width`` ids."""
    ids = [START_ID] + [4 + (7 * i) % 25 for i in range(n_real)] + [END_ID]
    return ids + [PAD_ID] * (width - len(ids))


class TestLossForBatch:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), preset=st.sampled_from(sorted(INPUT_PRESETS)))
    def test_matches_the_per_sample_reference(self, data, preset):
        """Loss and every parameter gradient equal the per-sample path."""
        model = _tiny_model(seed=data.draw(st.integers(0, 3)), inputs=preset)
        records = []
        for i in range(data.draw(st.integers(1, 6), label="batch size")):
            n_real = data.draw(st.integers(0, 6))
            width = data.draw(st.integers(n_real + 2, 8))
            base = _record(seed=data.draw(st.integers(0, 50)))
            records.append(PatientRecord(
                sample_id=f"r{i}", scalars=base.scalars, ethnicity=1 + i % 9,
                chief_ids=[5 + i % 3, 6], icd_ids=[7, 8, 9 - i % 2, PAD_ID, PAD_ID, PAD_ID],
                image_features=base.image_features, report_ids=_report(n_real, width),
                report_text="t"))
        params = model.parameters()
        with GradientTape() as tape:
            batched, correct, total = model.loss_for_batch(model.pack(records))
        tape.backward(batched)
        got = tape.gradients(params)
        with GradientTape() as tape:
            reference = per_sample_loss(model, records)
        tape.backward(reference)
        want = tape.gradients(params)
        assert abs(batched.item() - reference.item()) <= 1e-10
        for path in params:
            np.testing.assert_allclose(got[path], want[path], rtol=0, atol=1e-10,
                                       err_msg=path)
        assert total == sum(sum(t != PAD_ID for t in r.report_ids[1:]) for r in records)
        assert 0 <= correct <= total

    def test_a_step_tape_is_freed_without_the_cycle_collector(self):
        """Backward closures hold arrays, never tensors: a recorded tensor
        points at its tape, so a closure holding one would make a cycle that
        keeps each step's activations alive until the cycle collector runs."""
        model = _tiny_model()
        batch = model.pack([_record(seed=0), _record(seed=1)])
        gc.disable()
        try:
            with GradientTape() as tape:
                loss = model.loss_for_batch(batch)[0]
            tape.backward(loss)
            first = weakref.ref(tape)
            with GradientTape() as tape:  # re-registers every parameter
                loss = model.loss_for_batch(batch)[0]
            assert first() is None
        finally:
            gc.enable()

    def test_a_desk_step_records_these_nodes(self):
        """The tape of one training step of the desk model at batch 32, op by
        op: the attention op splits and merges the heads itself, so the only
        reshapes left are the encoder's, and each dense layer is one node."""
        model = ReportGenerator(ModelConfig(**ABLATION_MODEL), vocab_size=30,
                                chief_vocab_size=12, icd_vocab_size=12)
        report = [START_ID, 5, 6, 7, 8, END_ID] + [PAD_ID] * 37
        batch = model.pack([dataclasses.replace(
            _record(seed=seed), report_ids=report,
            image_features=np.random.default_rng(seed).standard_normal(64).tolist())
            for seed in range(32)])
        with GradientTape() as tape:
            model.loss_for_batch(batch)
        assert len(tape) == 103
        assert Counter(node.op for node in tape._nodes) == {
            "leaf": 49, "matmul": 16, "dense": 9, "add": 6, "layer_norm": 6, "attention": 4,
            "reshape": 4, "embedding_lookup": 3, "concat": 1, "cross_entropy": 1,
            "mul": 1, "scale": 1, "relu": 1, "sum": 1}

    def test_a_finished_tape_is_freed_while_its_tensors_live(self):
        """A recorded tensor, parameter or not, holds its tape only weakly: the
        caller that holds the tape can read the gradient of an intermediate, and
        dropping the tape frees its closures and gradients."""
        model = _tiny_model()
        batch = model.pack([_record(seed=0), _record(seed=1)])
        gc.disable()
        try:
            with GradientTape() as tape:
                rows = model.encoder.encode(batch).output
                loss = model.loss_for_batch(batch)[0]
            tape.backward(loss)
            assert tape.grad(loss) == 1.0 and tape.grad(rows).shape == rows.shape
            finished = weakref.ref(tape)
            del tape
            assert finished() is None
        finally:
            gc.enable()

    def test_batch_is_cut_after_the_last_real_label(self, monkeypatch):
        model = _tiny_model()
        seen = []
        original = model.decoder.teacher_forced_forward

        def spy(rows, ids):
            seen.append(np.asarray(ids).shape)
            return original(rows, ids)

        monkeypatch.setattr(model.decoder, "teacher_forced_forward", spy)
        # [START, w, END, PAD x 5]: labels w and END need inputs START and w only
        short = dataclasses.replace(_record(), report_ids=_report(1, 8))
        model.loss_for_batch(model.pack([short, short]))
        assert seen == [(2, 2)]

    def test_bad_records_are_named(self):
        model = _tiny_model()
        padded = dataclasses.replace(_record(), sample_id="all-pad",
                                     report_ids=[START_ID] + [PAD_ID] * 7)
        with pytest.raises(ContractError, match="all-pad"):
            model.pack([_record(), padded])
        with pytest.raises(ContractError):
            model.loss_for_batch(model.pack([]))

    @pytest.mark.parametrize("error, fault", [
        (DataError, {"image_features": [0.0] * 5 + [np.nan] + [0.0] * 18}),
        (ContractError, {"scalars": _scalars(o2sat=1.5)}),
        (ContractError, {"ethnicity": 10}),
        (DimensionError, {"icd_ids": [7, 8, 9]}),
    ], ids=["non_finite_image", "scalar_out_of_range", "ethnicity_out_of_range",
            "icd_wrong_length"])
    def test_input_errors_name_the_record(self, error, fault):
        """fit and evaluate_split stop at a faulty record, naming it, before
        any parameter moves."""
        records = [_record(seed=i) for i in range(3)]
        records[1] = dataclasses.replace(records[1], **fault)
        model = _tiny_model()
        before = model.state_dict()
        with pytest.raises(error, match="rec-1"):
            fit(model, records, [_record()], TrainConfig(max_epochs=1))
        with pytest.raises(error, match="rec-1"):
            evaluate_split(model, records)
        for name, param in model.parameters().items():
            np.testing.assert_array_equal(param.data, before[name])


class TestPack:
    @pytest.mark.parametrize("error, fault", [
        (DataError, {"image_features": [0.0] * 7}),
        (DataError, {"image_features": [0.0] * 5 + [np.inf] + [0.0] * 18}),
        (ContractError, {"scalars": _scalars(o2sat=1.5)}),
        (ContractError, {"scalars": _scalars(heart_rate=np.nan)}),
        (ContractError, {"scalars": _scalars(gender=0.5)}),
        (ContractError, {"ethnicity": 0}),
        (ContractError, {"ethnicity": 10}),
        (ContractError, {"ethnicity": 1.5}),
        (DimensionError, {"chief_ids": [5]}),
        (DimensionError, {"icd_ids": [7, 8, 9, PAD_ID, PAD_ID, PAD_ID, PAD_ID]}),
        (ContractError, {"chief_ids": [5, 12]}),
        (ContractError, {"icd_ids": [7, 8, 9, PAD_ID, PAD_ID, -1]}),
        (ContractError, {"report_ids": [START_ID, 30, END_ID]}),
        (ContractError, {"report_ids": [START_ID] + [5] * 7 + [END_ID]}),
        (ContractError, {"report_ids": [5, 6, END_ID]}),
        (ContractError, {"report_ids": []}),
        (ContractError, {"report_ids": [START_ID] + [PAD_ID] * 7}),
    ], ids=["image_width", "image_non_finite", "scalar_out_of_range",
            "scalar_non_finite", "gender_not_binary", "ethnicity_zero", "ethnicity_ten",
            "ethnicity_not_integer", "chief_wrong_length", "icd_wrong_length",
            "chief_outside_vocabulary", "icd_outside_vocabulary", "report_outside_vocabulary",
            "report_longer_than_report_len", "report_not_start_led", "report_empty",
            "report_without_label"])
    def test_invalid_input_is_rejected_naming_the_record(self, error, fault):
        records = [_record(seed=i) for i in range(3)]
        records[1] = dataclasses.replace(records[1], **fault)
        with pytest.raises(error, match="^record rec-1: "):
            _tiny_model().pack(records)

    def test_masked_values_are_not_checked(self):
        # the encoder never sees a masked source, so its values may be anything
        rec = dataclasses.replace(_record(), scalars=_scalars(o2sat=1.5, gender=0.5),
                                  ethnicity=0, chief_ids=[99, 99], icd_ids=[-1] * 6)
        packed = _tiny_model(inputs="image_only").pack([rec])
        assert packed.scalars.tolist() == [[0.0] * 8]
        with pytest.raises(ContractError, match="rec-0"):
            _tiny_model().pack([rec])

    def test_indexing_selects_records(self):
        model = _tiny_model()
        records = [_record(seed=i) for i in range(4)]
        packed = model.pack(records)
        for index, picked in ((slice(1, 3), [1, 2]), (np.array([3, 0]), [3, 0])):
            part, want = packed[index], model.pack([records[i] for i in picked])
            assert len(part) == len(picked)
            for field in dataclasses.fields(part):
                np.testing.assert_array_equal(getattr(part, field.name),
                                              getattr(want, field.name))
        with pytest.raises(TypeError):
            packed[1]

    def test_empty_split_packs_to_empty_arrays(self):
        packed = _tiny_model().pack([])
        cfg = _tiny_config()
        assert len(packed) == 0
        assert packed.image.shape == (0, cfg.image_feature_dim)
        assert packed.scalars.shape == (0, 8)
        assert packed.chief.shape == (0, cfg.chief_len)
        assert packed.icd.shape == (0, cfg.icd_len)
        assert packed.report.shape == (0, cfg.report_len)


class TestGenerate:
    def test_tokens_in_range_and_terminated(self):
        model = _tiny_model()
        ids = model.generate(_record())
        assert all(0 <= t < 30 for t in ids)
        assert len(ids) <= model.config.report_len
        if END_ID in ids:
            assert ids[-1] == END_ID

    def test_deterministic(self):
        model = _tiny_model(seed=3)
        rec = _record(seed=5)
        assert model.generate(rec) == model.generate(rec)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), preset=st.sampled_from(sorted(INPUT_PRESETS)))
    def test_batch_matches_the_full_prefix_reference(self, data, preset):
        """Cached batch decoding gives every record the full-prefix ids, and
        each step's logits match the full-prefix forward."""
        model = _tiny_model(seed=data.draw(st.integers(0, 2**16)), inputs=preset)
        bias = model.store["decoder.output.b"]
        tuned = bias.data.copy()
        tuned[END_ID] = data.draw(st.floats(0.0, 2.0))  # records end at varied steps
        bias.data = tuned
        records = [dataclasses.replace(_record(seed=data.draw(st.integers(0, 1000))),
                                       sample_id=f"r{i}", ethnicity=1 + i % 9,
                                       chief_ids=[5 + i % 3, 6])
                   for i in range(data.draw(st.integers(1, 6), label="batch size"))]
        packed = model.pack(records)
        ids = check_cached_decoding(model.decoder, model.encoder.encode(packed).output,
                                    len(records))
        assert model.generate_batch(packed) == ids
        assert [model.generate(rec) for rec in records] == ids

    def test_max_len_bounds(self):
        # ids stop at report_len, so a model with report_len 2 emits START and
        # one more id, whether or not that id is END
        model = ReportGenerator(_tiny_config(report_len=2), vocab_size=30,
                                chief_vocab_size=12, icd_vocab_size=12)
        records = [dataclasses.replace(_record(seed=i), report_ids=[START_ID, END_ID])
                   for i in range(3)]
        ids = model.generate_batch(model.pack(records))
        assert [len(row) for row in ids] == [2] * 3
        assert all(row[0] == START_ID and 0 <= row[1] < 30 for row in ids)
        with pytest.raises(ContractError):
            model.generate_batch(model.pack([]))

    def test_records_nothing_on_an_active_tape(self):
        model = _tiny_model()
        with GradientTape() as tape:
            model.loss_for_batch(model.pack([_record()]))
            before = len(tape)
            model.generate_batch(model.pack([_record(seed=1), _record(seed=2)]))
            model.generate(_record(seed=3))
            assert len(tape) == before > 0


class TestCheckpointRoundTrip:
    def test_save_load_preserves_parameters(self, tmp_path):
        model = _tiny_model(seed=7)
        path = tmp_path / "ckpt.npz"
        model.save(path)
        again = ReportGenerator.load(path)
        assert again.config == model.config
        for name, p in model.parameters().items():
            np.testing.assert_array_equal(again.parameters()[name].data, p.data)

    def test_loaded_model_generates_identically(self, tmp_path):
        model = _tiny_model(seed=11)
        rec = _record(seed=2)
        path = tmp_path / "ckpt.npz"
        model.save(path, extra_metadata={"inputs": "all"})
        again = ReportGenerator.load(path)
        assert again.generate(rec) == model.generate(rec)

    def test_extra_metadata_round_trips(self, tmp_path):
        from cxrgen.params import load_checkpoint
        model = _tiny_model(inputs="o2sat")
        path = tmp_path / "ckpt.npz"
        model.save(path, extra_metadata={"note": "x", "best_epoch": 3})
        _, metadata = load_checkpoint(path)
        assert metadata["inputs"] == "o2sat"
        assert (metadata["note"], metadata["best_epoch"]) == ("x", 3)
        assert metadata["model_config"] == model.config.to_dict()

    def test_extra_metadata_cannot_replace_what_the_model_records(self, tmp_path):
        from cxrgen.params import load_checkpoint
        model = _tiny_model(seed=1)
        path = tmp_path / "ckpt.npz"
        model.save(path, extra_metadata={
            "inputs": "image_only", "vocab_sizes": {"report": 99, "chief": 1, "icd": 1},
            "model_config": {"model_dim": 8}, "note": "x"})
        _, metadata = load_checkpoint(path)
        assert (metadata["inputs"], metadata["note"]) == ("all", "x")
        assert metadata["vocab_sizes"] == {"report": 30, "chief": 12, "icd": 12}
        assert metadata["model_config"] == model.config.to_dict()
        again = ReportGenerator.load(path)
        assert again.inputs == "all"
        rec = _record()
        assert again.loss_for_record(rec)[0].item() == model.loss_for_record(rec)[0].item()

    def test_load_respects_mask_argument(self, tmp_path):
        model = _tiny_model(seed=1)
        path = tmp_path / "ckpt.npz"
        model.save(path)
        masked = ReportGenerator.load(path, inputs="image_only")
        rec = _record()
        # the mask must actually take effect on the loaded model
        loss_a, _, _ = model.loss_for_record(rec)
        loss_b, _, _ = masked.loss_for_record(rec)
        assert float(loss_a.data) != pytest.approx(float(loss_b.data), abs=1e-12)

    def test_save_records_the_models_own_preset(self, tmp_path):
        from cxrgen.params import load_checkpoint
        path = tmp_path / "ckpt.npz"
        _tiny_model(seed=1, inputs="image_only").save(path)
        assert load_checkpoint(path)[1]["inputs"] == "image_only"
        assert ReportGenerator.load(path).inputs == "image_only"

    def test_load_names_the_checkpoint_for_an_unknown_preset(self, tmp_path):
        from cxrgen.params import load_checkpoint, save_checkpoint
        good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
        _tiny_model().save(good)
        state, meta = load_checkpoint(good)
        save_checkpoint(bad, state, {**meta, "inputs": "vision_only"})
        with pytest.raises(ConfigurationError, match=re.escape(
                f"checkpoint {bad}: unknown input preset 'vision_only'; choose from "
                f"{sorted(INPUT_PRESETS)}")):
            ReportGenerator.load(bad)

    def test_load_rejects_an_unknown_inputs_argument_before_reading(self, tmp_path):
        good, missing = tmp_path / "good.npz", tmp_path / "missing.npz"
        _tiny_model().save(good)
        message = re.escape(f"inputs='vision_only' is not an input preset; choose from "
                            f"{sorted(INPUT_PRESETS)}")
        for path in (good, missing):
            with pytest.raises(ConfigurationError, match=f"^{message}$"):
                ReportGenerator.load(path, inputs="vision_only")

    def test_load_draws_nothing_and_restores_every_array_bit_for_bit(self, tmp_path,
                                                                    monkeypatch):
        model = _tiny_model(seed=4)
        path = tmp_path / "ckpt.npz"
        model.save(path)

        def no_draws(*args, **kwargs):
            raise AssertionError("load drew from a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        again = ReportGenerator.load(path)
        saved = model.state_dict()
        assert list(again.state_dict()) == list(saved)
        for name, array in saved.items():
            loaded = again.parameters()[name].data
            assert loaded.dtype == array.dtype and loaded.tobytes() == array.tobytes()

    def test_load_applies_recorded_input_preset(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        _tiny_model(seed=1, inputs="image_only").save(path)
        assert ReportGenerator.load(path).inputs == "image_only"
        assert ReportGenerator.load(path, inputs="all").inputs == "all"


class TestParametersOwnTheirArrays:
    """Adam updates parameters in place, so no parameter may share its array
    with a caller, except a freshly read checkpoint's."""

    def test_load_state_dict_copies(self):
        model = _tiny_model(seed=1)
        state = _tiny_model(seed=2).state_dict()
        model.load_state_dict(state)
        kept = {k: a.copy() for k, a in state.items()}
        for a in state.values():
            a += 1.0
        for k, p in model.parameters().items():
            np.testing.assert_array_equal(p.data, kept[k])

    def test_load_state_dict_rejects_mismatches_without_loading(self):
        model = _tiny_model(seed=1)
        before = model.state_dict()
        state = _tiny_model(seed=2).state_dict()
        with pytest.raises(DataError, match=r"missing=\['decoder.output.b'\]"):
            model.load_state_dict({k: a for k, a in state.items() if k != "decoder.output.b"})
        with pytest.raises(DataError, match=r"unexpected=\['extra'\]"):
            model.load_state_dict({**state, "extra": np.zeros(2)})
        with pytest.raises(DataError, match="'decoder.output.w'"):
            model.load_state_dict({**state, "decoder.output.w": np.zeros((2, 2))})
        for k, p in model.parameters().items():
            np.testing.assert_array_equal(p.data, before[k])

    def test_load_hands_parameters_the_checkpoint_arrays(self, tmp_path, monkeypatch):
        import cxrgen.model as model_module
        path = tmp_path / "ckpt.npz"
        _tiny_model(seed=3).save(path)
        original, read = model_module.load_checkpoint, {}

        def spy(p):
            read["state"], meta = original(p)
            return read["state"], meta

        monkeypatch.setattr(model_module, "load_checkpoint", spy)
        again = ReportGenerator.load(path)
        for k, p in again.parameters().items():
            assert p.data is read["state"][k]

    @pytest.mark.parametrize("edit, names", [
        (lambda s: s.pop("decoder.output.b"), "missing parameter 'decoder.output.b'"),
        (lambda s: s.update(extra=np.zeros(2)), r"unexpected parameters \['extra'\]"),
        (lambda s: s.update({"decoder.output.w": np.zeros((3, 3))}),
         "shape mismatch for 'decoder.output.w'"),
    ], ids=["missing", "unexpected", "shape"])
    def test_load_names_file_and_parameter(self, tmp_path, edit, names):
        from cxrgen.params import load_checkpoint, save_checkpoint
        good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
        _tiny_model(seed=3).save(good)
        state, meta = load_checkpoint(good)
        edit(state)
        save_checkpoint(bad, state, meta)
        with pytest.raises(DataError, match=names) as info:
            ReportGenerator.load(bad)
        assert str(bad) in str(info.value)

    @pytest.mark.parametrize("edit, names", [
        (lambda c: c.update(model_dimm=64), "unknown key 'model_dimm'"),
        (lambda c: c.update(layer_norm_eps=-1.0), "layer_norm_eps must be positive"),
        (lambda c: c.update(ffn_dim=8.5), "'ffn_dim' must be an integer"),
    ], ids=["unknown", "range", "type"])
    def test_load_names_file_in_model_config_errors(self, tmp_path, edit, names):
        from cxrgen.params import load_checkpoint, save_checkpoint
        good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
        _tiny_model(seed=3).save(good)
        state, meta = load_checkpoint(good)
        edit(meta["model_config"])
        save_checkpoint(bad, state, meta)
        with pytest.raises(ConfigurationError, match=names) as info:
            ReportGenerator.load(bad)
        assert str(info.value).startswith(f"checkpoint {bad}: ")

    def test_fresh_forward_after_update_equals_loaded_model(self, tmp_path):
        """Forward, backward and Adam, then a fresh forward on the same (now
        updated in place) parameters: loss and gradients equal those of a
        model loaded from the updated values."""
        from cxrgen.training import OptimizerState, adam_step
        model = _tiny_model(seed=3)
        records = [_record(seed=i) for i in range(3)]
        params = model.parameters()
        state = OptimizerState.for_parameters(params)
        for _ in range(2):
            with GradientTape() as tape:
                loss, _, _ = model.loss_for_batch(model.pack(records))
            tape.backward(loss)
            adam_step(params, tape.gradients(params), state, 1e-2)
        model.save(tmp_path / "ckpt.npz")
        results = []
        for m in (model, ReportGenerator.load(tmp_path / "ckpt.npz")):
            with GradientTape() as tape:
                loss, _, _ = m.loss_for_batch(m.pack(records))
            tape.backward(loss)
            results.append((loss.item(), tape.gradients(m.parameters())))
        assert results[0][0] == results[1][0]
        for k, g in results[0][1].items():
            np.testing.assert_array_equal(g, results[1][1][k])

    def test_loaded_model_takes_an_adam_step(self, tmp_path):
        from cxrgen.training import OptimizerState, adam_step
        path = tmp_path / "ckpt.npz"
        _tiny_model(seed=4).save(path)
        model = ReportGenerator.load(path)
        params = model.parameters()
        before = model.state_dict()
        with GradientTape() as tape:
            loss, _, _ = model.loss_for_batch(model.pack([_record(seed=1), _record(seed=2)]))
        tape.backward(loss)
        adam_step(params, tape.gradients(params), OptimizerState.for_parameters(params), 0.1)
        moved = [k for k, p in params.items() if not np.array_equal(p.data, before[k])]
        assert "decoder.output.w" in moved


def _traced_peak_over_parameters(model, action):
    """(the peak bytes ``action()`` allocates beyond what was live before it,
    as a multiple of ``model``'s parameter bytes; what ``action()`` returned)"""
    param_bytes = sum(t.data.nbytes for t in model.parameters().values())
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        value = action()
        return (tracemalloc.get_traced_memory()[1] - before) / param_bytes, value
    finally:
        if started:
            tracemalloc.stop()


class TestMemoryBudget:
    """fit and save hold no parameter-sized array they do not need. The model
    is wide enough that its parameters, not the activations, set the peaks."""

    @staticmethod
    def _wide_model():
        return ReportGenerator(_tiny_config(model_dim=256, ffn_dim=256, embed_dim=256),
                               vocab_size=30, chief_vocab_size=12, icd_vocab_size=12)

    def test_fit_holds_moments_snapshot_and_one_steps_gradients(self):
        """Two Adam moments, the best snapshot and one step's gradients make
        4x the parameter bytes above the model; a second step's gradients or a
        second snapshot would make 5x."""
        model = self._wide_model()
        records = [_record(seed=i) for i in range(6)]
        cfg = TrainConfig(base_lr=1e-3, warmup_steps=1, batch_size=2, max_epochs=3,
                          early_stop_patience=5)
        ratio, result = _traced_peak_over_parameters(
            model, lambda: fit(model, records[:4], records[4:], cfg))
        assert result.best_epoch >= 2  # a later epoch re-took the snapshot
        assert ratio < 4.75

    def test_save_writes_the_parameters_own_arrays(self, tmp_path):
        model = self._wide_model()
        ratio, _ = _traced_peak_over_parameters(model, lambda: model.save(tmp_path / "c.npz"))
        assert ratio < 0.5


class TestCheckpointFile:
    """The v2 container: one npz file, written atomically, checked on read."""

    def test_single_npz_at_the_given_path(self, tmp_path):
        path = tmp_path / "checkpoint.json"   # any name; nothing is appended
        _tiny_model().save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]
        assert zipfile.is_zipfile(path)
        with np.load(path, allow_pickle=False) as npz:
            meta = json.loads(str(npz["__meta__"]))
            assert meta["format"] == "cxrgen-checkpoint-v3"
            assert npz["decoder.output.w"].dtype == np.float64

    @pytest.mark.parametrize("keep", [0.0, 0.5, 0.99])
    def test_truncated_file_names_path(self, tmp_path, keep):
        path = tmp_path / "ckpt.npz"
        _tiny_model().save(path)
        assert zipfile.is_zipfile(path)
        data = path.read_bytes()
        path.write_bytes(data[:int(keep * len(data))])
        with pytest.raises(DataError, match="ckpt.npz"):
            ReportGenerator.load(path)

    def test_missing_and_foreign_files_rejected(self, tmp_path):
        with pytest.raises(DataError, match="absent.npz"):
            ReportGenerator.load(tmp_path / "absent.npz")
        (tmp_path / "notes.npz").write_text("not a checkpoint")
        with pytest.raises(DataError, match="not an npz"):
            ReportGenerator.load(tmp_path / "notes.npz")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, tmp_path, bad):
        from cxrgen.params import load_checkpoint, save_checkpoint
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, {"w": np.array([1.0, bad, 2.0])})
        with pytest.raises(DataError, match=r"'w'.*non-finite"):
            load_checkpoint(path)

    def test_non_float64_and_untagged_rejected(self, tmp_path):
        from cxrgen.params import load_checkpoint
        tag = np.array(json.dumps({"format": "cxrgen-checkpoint-v3", "metadata": {}}))
        with open(tmp_path / "ints.npz", "wb") as fh:
            np.savez(fh, w=np.arange(3), __meta__=tag)
        with pytest.raises(DataError, match=r"'w'.*float64"):
            load_checkpoint(tmp_path / "ints.npz")
        with open(tmp_path / "untagged.npz", "wb") as fh:
            np.savez(fh, w=np.zeros(3))
        with pytest.raises(DataError, match="format tag"):
            load_checkpoint(tmp_path / "untagged.npz")
        with open(tmp_path / "v3.npz", "wb") as fh:
            np.savez(fh, w=np.zeros(3), __meta__=np.array(json.dumps({"format": "v3"})))
        with pytest.raises(DataError, match="format tag"):
            load_checkpoint(tmp_path / "v3.npz")

    @pytest.mark.parametrize("metadata", [3, [["inputs", "all"]], None])
    def test_metadata_that_is_no_object_names_the_file(self, tmp_path, metadata):
        path = tmp_path / "ckpt.npz"
        tag = {"format": "cxrgen-checkpoint-v3", "metadata": metadata}
        with open(path, "wb") as fh:
            np.savez(fh, w=np.zeros(3), __meta__=np.array(json.dumps(tag)))
        where = re.escape(f"checkpoint {path}: field 'metadata' must be an object, got ")
        with pytest.raises(DataError, match=f"^{where}"):
            ReportGenerator.load(path)

    def test_v2_checkpoint_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "old.npz"
        tag = {"format": "cxrgen-checkpoint-v2", "metadata": {}}
        with open(path, "wb") as fh:
            np.savez(fh, **{"attn.head0.wq": np.zeros((2, 2))},
                     __meta__=np.array(json.dumps(tag)))
        with pytest.raises(DataError, match="cxrgen-checkpoint-v2") as info:
            ReportGenerator.load(path)
        assert str(path) in str(info.value)

    def test_v1_json_checkpoint_no_longer_read(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps({
            "format": "cxrgen-checkpoint-v1", "metadata": {},
            "parameters": {"w": {"shape": [2], "data": [0.5, 1.5]}}}) + "\n")
        with pytest.raises(DataError, match="v1 is no longer read") as info:
            ReportGenerator.load(path)
        assert str(path) in str(info.value)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.npz"
        _tiny_model(seed=1).save(path)
        before = path.read_bytes()

        def half_written(fh, **arrays):
            fh.write(b"PK\x03\x04 partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", half_written)
        with pytest.raises(OSError, match="disk full"):
            _tiny_model(seed=2).save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]


class TestSeeding:
    def test_same_seed_same_parameters(self):
        a = _tiny_model(seed=5)
        b = _tiny_model(seed=5)
        for name, p in a.parameters().items():
            np.testing.assert_array_equal(b.parameters()[name].data, p.data)

    def test_different_seed_different_parameters(self):
        a = _tiny_model(seed=5)
        b = _tiny_model(seed=6)
        diffs = sum(not np.array_equal(p.data, b.parameters()[n].data)
                    for n, p in a.parameters().items())
        assert diffs > 0
