"""End-to-end model wrapper: masking presets, config, loss, generation, checkpoints."""

import dataclasses
import json
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxrgen.attention import AttentionProjections
from cxrgen.errors import ConfigurationError, ContractError, DataError, DimensionError
from cxrgen.model import (ABLATION_LABELS, INPUT_PRESETS, InputMask,
                          ModelConfig, ReportGenerator)
from cxrgen.params import ParameterStore
from cxrgen.preprocess import ETHNICITY_UNKNOWN
from cxrgen.records import PatientRecord, ScalarFeatures
from cxrgen.tensor import GradientTape
from cxrgen.vocab import END_ID, PAD_ID, START_ID

from helpers import check_cached_decoding, per_sample_loss


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


def _tiny_model(seed=0, input_mask=None):
    return ReportGenerator(_tiny_config(), vocab_size=30, chief_vocab_size=12,
                           icd_vocab_size=12, seed=seed, input_mask=input_mask)


class TestInputMask:
    def test_preset_names(self):
        assert set(INPUT_PRESETS) == {"all", "image_only", "scalars", "text", "o2sat"}

    def test_ablation_labels(self):
        assert ABLATION_LABELS["all"] == "AllDataFusion"
        assert ABLATION_LABELS["image_only"] == "Baseline"
        assert ABLATION_LABELS["scalars"] == "ScalarFusion"
        assert ABLATION_LABELS["text"] == "TextFusion"
        assert ABLATION_LABELS["o2sat"] == "SingularO2Sat"

    def test_all_inputs_passthrough(self):
        rec = _record()
        scalars, eth, chief, icd = INPUT_PRESETS["all"].apply(rec)
        assert scalars == rec.scalars
        assert eth == rec.ethnicity
        assert chief == rec.chief_ids
        assert icd == rec.icd_ids

    def test_image_only_blanks_everything(self):
        rec = _record()
        scalars, eth, chief, icd = INPUT_PRESETS["image_only"].apply(rec)
        assert scalars.as_array().tolist() == [0.0] * 8
        assert eth == ETHNICITY_UNKNOWN
        assert chief == [PAD_ID] * len(rec.chief_ids)
        assert icd == [PAD_ID] * len(rec.icd_ids)

    def test_scalars_only_keeps_vitals_blanks_rest(self):
        # scalar fusion = continuous features only; categorical/text are masked
        rec = _record()
        scalars, eth, chief, icd = INPUT_PRESETS["scalars"].apply(rec)
        assert scalars == rec.scalars
        assert eth == ETHNICITY_UNKNOWN
        assert chief == [PAD_ID] * len(rec.chief_ids)
        assert icd == [PAD_ID] * len(rec.icd_ids)

    def test_text_only_keeps_text_blanks_scalars(self):
        rec = _record()
        scalars, eth, chief, icd = INPUT_PRESETS["text"].apply(rec)
        assert scalars.as_array().tolist() == [0.0] * 8
        assert eth == ETHNICITY_UNKNOWN
        assert chief == rec.chief_ids
        assert icd == rec.icd_ids

    def test_o2sat_only_keeps_single_vital(self):
        rec = _record()
        scalars, eth, chief, icd = INPUT_PRESETS["o2sat"].apply(rec)
        arr = scalars.as_array()
        order = ScalarFeatures.ORDER
        for i, name in enumerate(order):
            expected = rec.scalars.o2sat if name == "o2sat" else 0.0
            assert arr[i] == expected
        assert eth == ETHNICITY_UNKNOWN
        assert chief == [PAD_ID] * len(rec.chief_ids)
        assert icd == [PAD_ID] * len(rec.icd_ids)

    def test_preset_lookup_rejects_unknown(self):
        from cxrgen.pipeline import resolve_input_mask
        with pytest.raises(ConfigurationError):
            resolve_input_mask("vision_only")

    def test_preset_lookup_round_trip(self):
        from cxrgen.pipeline import resolve_input_mask
        for name in INPUT_PRESETS:
            assert resolve_input_mask(name) == INPUT_PRESETS[name]

    def test_unknown_scalar_name_rejected(self):
        with pytest.raises(ConfigurationError):
            InputMask(scalars=frozenset(["pulse_ox"]))


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
        masked = _tiny_model(seed=0, input_mask=INPUT_PRESETS["image_only"])
        rec = _record()
        loss_a, _, _ = full.loss_for_record(rec)
        loss_b, _, _ = masked.loss_for_record(rec)
        assert loss_a.data != pytest.approx(float(loss_b.data), abs=1e-12)

    def test_wrong_image_width_rejected(self):
        model = _tiny_model()
        rec = _record()
        bad = PatientRecord(sample_id=rec.sample_id, scalars=rec.scalars,
                            ethnicity=rec.ethnicity, chief_ids=rec.chief_ids,
                            icd_ids=rec.icd_ids, image_features=[0.0] * 7,
                            report_ids=rec.report_ids, report_text=rec.report_text)
        with pytest.raises(DataError, match=rec.sample_id):
            model.loss_for_record(bad)


def _report(n_real, width):
    """START, ``n_real`` tokens, END, then PAD up to ``width`` ids."""
    ids = [START_ID] + [4 + (7 * i) % 25 for i in range(n_real)] + [END_ID]
    return ids + [PAD_ID] * (width - len(ids))


class TestLossForBatch:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), preset=st.sampled_from(sorted(INPUT_PRESETS)))
    def test_matches_the_per_sample_reference(self, data, preset):
        """Loss and every parameter gradient equal the per-sample path."""
        model = _tiny_model(seed=data.draw(st.integers(0, 3)),
                            input_mask=INPUT_PRESETS[preset])
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
            batched, correct, total = model.loss_for_batch(records)
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
        model.loss_for_batch([short, short])
        assert seen == [(2, 2)]

    def test_bad_records_are_named(self):
        model = _tiny_model()
        padded = dataclasses.replace(_record(), sample_id="all-pad",
                                     report_ids=[START_ID] + [PAD_ID] * 7)
        with pytest.raises(ContractError, match="all-pad"):
            model.loss_for_batch([_record(), padded])
        with pytest.raises(ContractError):
            model.loss_for_batch([])

    @pytest.mark.parametrize("error, fault", [
        (DataError, {"image_features": [0.0] * 5 + [np.nan] + [0.0] * 18}),
        (ContractError, {"scalars": _scalars(o2sat=1.5)}),
        (ContractError, {"ethnicity": 10}),
        (DimensionError, {"icd_ids": [7, 8, 9]}),
    ], ids=["non_finite_image", "scalar_out_of_range", "ethnicity_out_of_range",
            "icd_wrong_length"])
    def test_input_errors_name_the_record(self, error, fault):
        records = [_record(seed=i) for i in range(3)]
        records[1] = dataclasses.replace(records[1], **fault)
        with pytest.raises(error, match="rec-1"):
            _tiny_model().loss_for_batch(records)


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
        model = _tiny_model(seed=data.draw(st.integers(0, 2**16)),
                            input_mask=INPUT_PRESETS[preset])
        bias = model.store["decoder.output.b"]
        tuned = bias.data.copy()
        tuned[END_ID] = data.draw(st.floats(0.0, 2.0))  # records end at varied steps
        bias.data = tuned
        records = [dataclasses.replace(_record(seed=data.draw(st.integers(0, 1000))),
                                       sample_id=f"r{i}", ethnicity=1 + i % 9,
                                       chief_ids=[5 + i % 3, 6])
                   for i in range(data.draw(st.integers(1, 6), label="batch size"))]
        ids = check_cached_decoding(model.decoder, model.encode_batch(records).output,
                                    len(records))
        assert model.generate_batch(records) == ids
        assert [model.generate(rec) for rec in records] == ids

    def test_max_len_bounds(self):
        # ids stop at report_len, so a model with report_len 1 emits only START
        model = ReportGenerator(_tiny_config(report_len=1), vocab_size=30,
                                chief_vocab_size=12, icd_vocab_size=12)
        records = [_record(seed=i) for i in range(3)]
        assert model.generate_batch(records) == [[START_ID]] * 3
        with pytest.raises(ContractError):
            model.generate_batch([])

    def test_records_nothing_on_an_active_tape(self):
        model = _tiny_model()
        with GradientTape() as tape:
            model.loss_for_batch([_record()])
            before = len(tape)
            model.generate_batch([_record(seed=1), _record(seed=2)])
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
        model = _tiny_model()
        path = tmp_path / "ckpt.npz"
        model.save(path, extra_metadata={"inputs": "o2sat", "note": "x"})
        _, metadata = load_checkpoint(path)
        assert metadata["inputs"] == "o2sat"
        assert metadata["note"] == "x"
        assert "model_config" in metadata

    def test_load_respects_mask_argument(self, tmp_path):
        model = _tiny_model(seed=1)
        path = tmp_path / "ckpt.npz"
        model.save(path)
        masked = ReportGenerator.load(path, input_mask=INPUT_PRESETS["image_only"])
        rec = _record()
        # the mask must actually take effect on the loaded model
        loss_a, _, _ = model.loss_for_record(rec)
        loss_b, _, _ = masked.loss_for_record(rec)
        assert float(loss_a.data) != pytest.approx(float(loss_b.data), abs=1e-12)

    def test_save_records_the_models_own_preset(self, tmp_path):
        from cxrgen.params import load_checkpoint
        path = tmp_path / "ckpt.npz"
        _tiny_model(seed=1, input_mask=INPUT_PRESETS["image_only"]).save(path)
        assert load_checkpoint(path)[1]["inputs"] == "image_only"
        assert ReportGenerator.load(path).input_mask == INPUT_PRESETS["image_only"]

    def test_save_rejects_masks_no_checkpoint_can_name(self, tmp_path):
        custom = InputMask(scalars=frozenset(["o2sat", "sbp"]), ethnicity=False,
                           chief=False, icd=False)
        with pytest.raises(ConfigurationError, match="no preset"):
            _tiny_model(input_mask=custom).save(tmp_path / "a.npz")
        assert list(tmp_path.iterdir()) == []

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
        _tiny_model(seed=1).save(path, extra_metadata={"inputs": "image_only"})
        assert ReportGenerator.load(path).input_mask == INPUT_PRESETS["image_only"]
        override = ReportGenerator.load(path, input_mask=INPUT_PRESETS["all"])
        assert override.input_mask == INPUT_PRESETS["all"]


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
                loss, _, _ = model.loss_for_batch(records)
            tape.backward(loss)
            adam_step(params, tape.gradients(params), state, 1e-2)
        model.save(tmp_path / "ckpt.npz")
        results = []
        for m in (model, ReportGenerator.load(tmp_path / "ckpt.npz")):
            with GradientTape() as tape:
                loss, _, _ = m.loss_for_batch(records)
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
            loss, _, _ = model.loss_for_batch([_record(seed=1), _record(seed=2)])
        tape.backward(loss)
        adam_step(params, tape.gradients(params), OptimizerState.for_parameters(params), 0.1)
        moved = [k for k, p in params.items() if not np.array_equal(p.data, before[k])]
        assert "decoder.output.w" in moved


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
