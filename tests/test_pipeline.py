"""File-level pipeline stages and the CLI wiring, end to end at toy scale."""

import csv
import json
import os
import shutil

import numpy as np
import pytest

from cxrgen.cli import main as cli_main
from cxrgen.errors import ConfigurationError, DataError
from cxrgen.metrics import corpus_evaluate
from cxrgen.model import ModelConfig
from cxrgen.pipeline import (SplitPlan, load_preprocessed,
                             planted_phrase_accuracy, run_evaluation,
                             run_generation, run_preprocess, run_synth,
                             run_training)
from cxrgen.preprocess import NormalizationStats, PreprocessConfig, standardize_text
from cxrgen.records import read_jsonl, read_raw_records, write_jsonl
from cxrgen.synth import DatasetManifest, SyntheticConfig
from cxrgen.training import TrainConfig
from cxrgen.vocab import UNK_ID, Vocabulary

TOY_SYNTH = SyntheticConfig(num_samples=80, seed=7, feature_dim=16)
TOY_PREP = PreprocessConfig(report_len=43, image_feature_dim=16)
TOY_PLAN = SplitPlan(subset_fraction=0.7, test_size=10, seed=0)
TOY_MODEL = ModelConfig(model_dim=16, num_heads=2, ffn_dim=16, embed_dim=16,
                        image_feature_dim=16, image_tokens=2)
TOY_TRAIN = TrainConfig(base_lr=2e-3, warmup_steps=10, batch_size=16,
                        max_epochs=2, early_stop_patience=5, seed=0)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth -> preprocess -> train -> generate run shared by the module."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    prep = root / "prep"
    run = root / "run"
    run_synth(data, TOY_SYNTH)
    summary = run_preprocess(data, prep, TOY_PREP, TOY_PLAN)
    result = run_training(prep, run, TOY_MODEL, TOY_TRAIN, inputs="all")
    gen = run / "generated.jsonl"
    n = run_generation(prep, run / "checkpoint.npz", gen, split="test")
    return {"root": root, "data": data, "prep": prep, "run": run,
            "summary": summary, "fit": result, "generated": gen, "n_generated": n}


class TestPreprocessStage:
    def test_emits_all_artifacts(self, workspace):
        prep = workspace["prep"]
        for name in ("train.jsonl", "val.jsonl", "test.jsonl", "report_vocab.json",
                     "chief_vocab.json", "icd_vocab.json", "norm_stats.json",
                     "manifest.json"):
            assert (prep / name).exists(), name

    def test_summary_accounts_for_every_record(self, workspace):
        s = workspace["summary"]
        assert s["records_in"] == 80
        assert s["records_cleaned"] == 80  # no outliers injected
        assert s["subset_size"] == 56      # round(0.7 * 80)
        assert s["splits"]["train"] + s["splits"]["val"] == 56
        assert s["splits"]["test"] == 10   # capped holdout

    def test_split_sizes_follow_plan_math(self, workspace):
        s = workspace["summary"]["splits"]
        # floor(0.7*56)=39, floor(0.3*56)=16, remainder 1 -> train
        assert s["train"] == 40
        assert s["val"] == 16

    def test_loaded_splits_are_disjoint(self, workspace):
        data = load_preprocessed(workspace["prep"])
        ids = [rec.sample_id for split in ("train", "val", "test")
               for rec in data[split]]
        assert len(ids) == len(set(ids))

    def test_vocab_covers_heldout_reports(self, workspace):
        # vocabularies are fitted on the full cleaned corpus, so even held-out
        # test reports must encode without unknowns
        data = load_preprocessed(workspace["prep"])
        for rec in data["test"]:
            assert UNK_ID not in rec.report_ids

    def test_norm_stats_round_trip(self, workspace):
        payload = json.loads((workspace["prep"] / "norm_stats.json").read_text())
        stats = NormalizationStats.from_dict(payload)
        assert set(payload) >= {"o2sat", "heart_rate"}
        for rec in load_preprocessed(workspace["prep"])["train"]:
            arr = rec.scalars.as_array()
            assert np.all(arr >= 0.0) and np.all(arr <= 1.0)

    def test_references_are_standardized_reports(self, workspace):
        raw = {r.sample_id: r for r in read_raw_records(workspace["data"] / "records.jsonl")}
        data = load_preprocessed(workspace["prep"])
        for rec in data["test"]:
            assert rec.report_text == standardize_text(raw[rec.sample_id].report)

    def test_too_few_records_rejected(self, tmp_path):
        run_synth(tmp_path / "d", SyntheticConfig(num_samples=5, seed=1, feature_dim=8))
        with pytest.raises(DataError):
            run_preprocess(tmp_path / "d", tmp_path / "p",
                           PreprocessConfig(image_feature_dim=8), SplitPlan())

    @pytest.mark.parametrize("field,value", [("report", None), ("icd_title", ["pneumonia"]),
                                             ("chief_complaint", 3), ("sample_id", 17)])
    def test_jsonl_text_field_that_is_no_string_rejected(self, workspace, tmp_path, field,
                                                         value):
        rows = read_jsonl(workspace["data"] / "records.jsonl")[:3]
        rows[1][field] = value
        write_jsonl(tmp_path / "records.jsonl", rows)
        with pytest.raises(DataError) as caught:
            read_raw_records(tmp_path / "records.jsonl")
        message = str(caught.value)
        assert f"record {rows[1]['sample_id']}:" in message and repr(field) in message

    def test_csv_row_missing_its_last_column_rejected(self, workspace, tmp_path):
        # csv.DictReader fills a missing column with None, which is no report text
        records = read_raw_records(workspace["data"] / "records.jsonl")[:3]
        path = tmp_path / "records.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(records[0].to_dict())  # the header
            for i, rec in enumerate(records):
                values = list(rec.to_dict().values())
                writer.writerow(values[:-1] if i == 2 else values)
        with pytest.raises(DataError, match=f"record {records[2].sample_id}: field 'report'"):
            read_raw_records(path)

    def test_plan_validation(self):
        with pytest.raises(ConfigurationError):
            SplitPlan(subset_fraction=1.5)
        with pytest.raises(ConfigurationError):
            SplitPlan(train_fraction=0.6, val_fraction=0.3)
        with pytest.raises(ConfigurationError):
            SplitPlan(test_size=0)


class TestTrainingStage:
    def test_writes_checkpoint_and_history(self, workspace):
        run = workspace["run"]
        assert (run / "checkpoint.npz").exists()
        history = (run / "history.csv").read_text().strip().splitlines()
        assert history[0] == "epoch,train_loss,train_acc,val_loss,val_acc,lr"
        assert len(history) - 1 == workspace["fit"].epochs_run

    def test_checkpoint_records_run_metadata(self, workspace):
        from cxrgen.params import load_checkpoint
        _, meta = load_checkpoint(workspace["run"] / "checkpoint.npz")
        assert meta["inputs"] == "all"
        assert meta["train_config"]["max_epochs"] == 2
        assert "model_config" in meta

    def test_loss_is_finite_and_decreasing_or_flat(self, workspace):
        history = workspace["fit"].history
        assert all(np.isfinite(row["train_loss"]) for row in history)
        assert history[-1]["train_loss"] <= history[0]["train_loss"]


class TestGenerationStage:
    def test_one_row_per_test_record(self, workspace):
        rows = read_jsonl(workspace["generated"])
        assert len(rows) == workspace["n_generated"] == 10
        assert set(rows[0]) == {"sample_id", "generated", "reference"}

    def test_unknown_split_rejected(self, workspace):
        with pytest.raises(ConfigurationError):
            run_generation(workspace["prep"], workspace["run"] / "checkpoint.npz",
                           workspace["root"] / "x.jsonl", split="dev")

    def test_inputs_override_changes_conditioning(self, workspace):
        out = workspace["root"] / "gen_masked.jsonl"
        run_generation(workspace["prep"], workspace["run"] / "checkpoint.npz",
                       out, split="test", inputs="image_only")
        rows = read_jsonl(out)
        assert len(rows) == 10  # runs end to end under a different mask

    def test_reads_checkpoint_once(self, workspace, monkeypatch):
        import cxrgen.model
        import cxrgen.params
        calls = []
        original = cxrgen.params.load_checkpoint

        def counted(path):
            calls.append(path)
            return original(path)

        monkeypatch.setattr(cxrgen.params, "load_checkpoint", counted)
        monkeypatch.setattr(cxrgen.model, "load_checkpoint", counted)
        run_generation(workspace["prep"], workspace["run"] / "checkpoint.npz",
                       workspace["root"] / "gen_once.jsonl")
        assert len(calls) == 1

    def test_reads_only_decoded_split_and_report_vocab(self, workspace, tmp_path):
        for name in ("test.jsonl", "report_vocab.json"):
            shutil.copy(workspace["prep"] / name, tmp_path / name)
        out = tmp_path / "generated.jsonl"
        run_generation(tmp_path, workspace["run"] / "checkpoint.npz", out)
        assert out.read_bytes() == workspace["generated"].read_bytes()

    def test_decodes_in_chunks_of_eval_chunk(self, workspace, tmp_path, monkeypatch):
        import cxrgen.model
        import cxrgen.pipeline
        sizes = []
        original = cxrgen.model.ReportGenerator.generate_batch

        def counted(self, records):
            sizes.append(len(records))
            return original(self, records)

        monkeypatch.setattr(cxrgen.model.ReportGenerator, "generate_batch", counted)
        monkeypatch.setattr(cxrgen.pipeline, "EVAL_CHUNK", 3)
        out = tmp_path / "generated.jsonl"
        assert run_generation(workspace["prep"], workspace["run"] / "checkpoint.npz",
                              out) == 10
        assert sizes == [3, 3, 3, 1]
        assert out.read_bytes() == workspace["generated"].read_bytes()

    def test_empty_split_writes_an_empty_file(self, workspace, tmp_path, monkeypatch):
        import cxrgen.model

        def refuse(self, records):
            raise AssertionError(f"encode_batch called with {len(records)} records")

        monkeypatch.setattr(cxrgen.model.ReportGenerator, "encode_batch", refuse)
        (tmp_path / "test.jsonl").write_text("")
        shutil.copy(workspace["prep"] / "report_vocab.json", tmp_path / "report_vocab.json")
        out = tmp_path / "generated.jsonl"
        assert run_generation(tmp_path, workspace["run"] / "checkpoint.npz", out) == 0
        assert out.read_bytes() == b""


class TestEvaluationStage:
    def test_report_written_and_deterministic(self, workspace):
        a = workspace["root"] / "eval_a.json"
        b = workspace["root"] / "eval_b.json"
        run_evaluation(workspace["generated"], a)
        run_evaluation(workspace["generated"], b)
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["num_samples"] == 10
        for key in ("bleu_1", "bleu_4", "rouge_l", "embedding_f1"):
            assert 0.0 <= payload["corpus"][key] <= 1.0

    def test_per_sample_csv(self, workspace):
        csv_path = workspace["root"] / "per_sample.csv"
        run_evaluation(workspace["generated"], per_sample_csv=csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 11  # header + 10 samples

    def test_missing_field_rejected(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"sample_id": "x", "generated": "a"}) + "\n")
        with pytest.raises(DataError):
            run_evaluation(bad)

    @pytest.mark.parametrize("row,complaint", [
        (["x", "a", "a"], "list, not a JSON object"),
        ("x a a", "str, not a JSON object"),
        ({"sample_id": "x", "generated": None, "reference": "a"}, "'generated' must be a string"),
        ({"sample_id": "x", "generated": "a", "reference": 3}, "'reference' must be a string"),
    ], ids=["list", "string", "null-generated", "number-reference"])
    def test_malformed_row_names_file_and_row(self, tmp_path, row, complaint):
        bad = tmp_path / "bad.jsonl"
        good = {"sample_id": "ok", "generated": "a", "reference": "a"}
        bad.write_text(json.dumps(good) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(DataError, match=f"bad.jsonl: generation row 2 .*{complaint}"):
            run_evaluation(bad)


def _report(tag):
    return corpus_evaluate([(tag, ["x", "y"], ["x", "y"]), ("b", ["z"], ["x", "y"])])


# file name -> writer of a small artifact at a path, with ``tag`` varying its content
ARTIFACT_WRITERS = {
    "generated.jsonl": lambda path, tag: write_jsonl(path, [{"tag": tag}, {"row": 2}]),
    "eval.json": lambda path, tag: _report(tag).save(path),
    "per_sample.csv": lambda path, tag: _report(tag).save_per_sample_csv(path),
    "report_vocab.json": lambda path, tag: Vocabulary([tag, "w"]).save(path),
    "manifest.json": lambda path, tag: DatasetManifest({}, {}, {"tag": tag}).save(path.parent),
}


class TestAtomicWrites:
    """A write that fails midway leaves the previous file and no temp file."""

    @pytest.mark.parametrize("name", sorted(ARTIFACT_WRITERS))
    def test_crash_before_rename_keeps_previous_file(self, tmp_path, monkeypatch, name):
        path = tmp_path / name
        ARTIFACT_WRITERS[name](path, "old")
        before = path.read_bytes()

        def crash(fd):
            raise OSError("power cut")

        monkeypatch.setattr(os, "fsync", crash)
        with pytest.raises(OSError, match="power cut"):
            ARTIFACT_WRITERS[name](path, "new")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_row_error_midway_keeps_previous_jsonl(self, tmp_path):
        path = tmp_path / "generated.jsonl"
        write_jsonl(path, [{"row": 1}])
        before = path.read_bytes()

        def rows():
            yield {"row": 2}
            raise ValueError("bad row")

        with pytest.raises(ValueError, match="bad row"):
            write_jsonl(path, rows())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["generated.jsonl"]


class TestPlantedPhraseAccuracy:
    PLANTED = {"s1": ["alpha beta", "gamma"], "s2": ["delta"]}

    def test_full_match(self):
        rows = [{"sample_id": "s1", "generated": "x alpha beta y gamma"},
                {"sample_id": "s2", "generated": "delta z"}]
        assert planted_phrase_accuracy(rows, self.PLANTED) == 1.0

    def test_token_weighted_partial(self):
        rows = [{"sample_id": "s1", "generated": "alpha beta only"},
                {"sample_id": "s2", "generated": "nothing here"}]
        # matched tokens: 2 of 4 total planted tokens
        assert planted_phrase_accuracy(rows, self.PLANTED) == pytest.approx(0.5)

    def test_requires_contiguous_run(self):
        rows = [{"sample_id": "s1", "generated": "alpha x beta gamma"},
                {"sample_id": "s2", "generated": "delta"}]
        # "alpha beta" broken up -> only "gamma" (1) + "delta" (1) of 4
        assert planted_phrase_accuracy(rows, self.PLANTED) == pytest.approx(0.5)

    def test_unknown_sample_rejected(self):
        with pytest.raises(DataError):
            planted_phrase_accuracy([{"sample_id": "zz", "generated": "a"}],
                                    self.PLANTED)

    def test_empty_rows_rejected(self):
        with pytest.raises(DataError):
            planted_phrase_accuracy([], self.PLANTED)


class TestCli:
    def test_synth_and_preprocess_commands(self, tmp_path, capsys):
        data = tmp_path / "data"
        prep = tmp_path / "prep"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "synth": {"feature_dim": 16},
            "preprocess": {"image_feature_dim": 16},
            "split": {"test_size": 5},
        }))
        assert cli_main(["synth", "--out", str(data), "--n", "60", "--seed", "3",
                         "--config", str(cfg)]) == 0
        assert "60 samples" in capsys.readouterr().out
        assert cli_main(["preprocess", "--data", str(data), "--out", str(prep),
                         "--config", str(cfg)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["splits"]["test"] == 5

    def test_train_generate_evaluate_commands(self, tmp_path, capsys):
        data = tmp_path / "data"
        prep = tmp_path / "prep"
        run = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "synth": {"feature_dim": 16},
            "preprocess": {"image_feature_dim": 16},
            "split": {"test_size": 4},
            "model": {"model_dim": 16, "num_heads": 2, "ffn_dim": 16,
                      "embed_dim": 16, "image_feature_dim": 16, "image_tokens": 2},
            "train": {"max_epochs": 1, "batch_size": 16, "warmup_steps": 5},
        }))
        assert cli_main(["synth", "--out", str(data), "--n", "40", "--seed", "1",
                         "--config", str(cfg)]) == 0
        assert cli_main(["preprocess", "--data", str(data), "--out", str(prep),
                         "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert cli_main(["train", "--data", str(prep), "--out", str(run),
                         "--inputs", "all", "--config", str(cfg)]) == 0
        assert "best val loss" in capsys.readouterr().out
        gen = tmp_path / "gen.jsonl"
        assert cli_main(["generate", "--data", str(prep), "--checkpoint",
                         str(run / "checkpoint.npz"), "--out", str(gen)]) == 0
        report = tmp_path / "eval.json"
        assert cli_main(["evaluate", "--generated", str(gen),
                         "--out", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["num_samples"] == 4

    def test_csv_format_round_trips(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "synth": {"feature_dim": 16},
            "preprocess": {"image_feature_dim": 16},
            "split": {"test_size": 5},
        }))
        outputs = {}
        for fmt in ("jsonl", "csv"):
            data = tmp_path / f"data_{fmt}"
            prep = tmp_path / f"prep_{fmt}"
            assert cli_main(["synth", "--out", str(data), "--n", "60", "--seed",
                             "3", "--format", fmt, "--config", str(cfg)]) == 0
            assert (data / f"records.{fmt}").exists()
            DatasetManifest.load(data).verify(data)
            assert cli_main(["preprocess", "--data", str(data), "--out",
                             str(prep), "--config", str(cfg)]) == 0
            outputs[fmt] = (prep / "train.jsonl").read_bytes()
        assert not (tmp_path / "data_csv" / "records.jsonl").exists()
        # CSV stores floats as repr strings, which round-trip exactly
        assert outputs["jsonl"] == outputs["csv"]
        capsys.readouterr()

    def test_cxrgen_error_exits_one(self, tmp_path, capsys):
        rc = cli_main(["evaluate", "--generated", str(tmp_path / "missing.jsonl"),
                       "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command,body,key", [
        ("synth", {"synth": {"num_sample": 10}}, "num_sample"),
        ("synth", {"synth": {"image_noise": "0.1"}}, "image_noise"),
        ("preprocess", {"preprocess": {"report_length": 9}}, "report_length"),
        ("preprocess", {"preprocess": {"report_len": 9.0}}, "report_len"),
        ("preprocess", {"split": {"test_sizes": 5}}, "test_sizes"),
        ("preprocess", {"split": {"test_size": True}}, "test_size"),
        ("train", {"model": {"model_dimm": 64}}, "model_dimm"),
        ("train", {"model": {"layer_norm_eps": None}}, "layer_norm_eps"),
        ("train", {"train": {"batch_size": "32"}}, "batch_size"),
        ("train", {"train": {"grad_clip": 1.0}}, "grad_clip"),
        ("ablate", {"model": {"model_dimm": 64}}, "model_dimm"),
        ("ablate", {"train": {"base_lr": [0.1]}}, "base_lr"),
        ("ablate", {"synth": {"seed": 1.5}}, "seed"),
    ])
    def test_bad_config_key_or_type_names_file_section_and_key(self, tmp_path, capsys,
                                                              command, body, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(body))
        data, out = str(tmp_path / "data"), str(tmp_path / "out")
        args = {"synth": ["--out", out], "preprocess": ["--data", data, "--out", out],
                "train": ["--data", data, "--out", out], "ablate": ["--out", out]}[command]
        assert cli_main([command, *args, "--config", str(cfg)]) == 1
        (section,) = body
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg}, section {section!r}: ")
        assert repr(key) in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_config_takes_an_integer_for_a_number_and_null_where_optional(self, tmp_path,
                                                                         capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"feature_dim": 8, "image_noise": 0},
                                   "preprocess": {"image_feature_dim": 8},
                                   "split": {"test_size": None}}))
        data = tmp_path / "data"
        assert cli_main(["synth", "--out", str(data), "--n", "20", "--config", str(cfg)]) == 0
        assert cli_main(["preprocess", "--data", str(data), "--out", str(tmp_path / "prep"),
                         "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out.split("\n", 1)[1])["splits"]["test"] == 6

    def test_ablate_takes_a_seed_from_the_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"model_dim": 8, "num_heads": 2, "ffn_dim": 8, "embed_dim": 8,
                      "image_feature_dim": 8},
            "train": {"seed": 3}, "synth": {"seed": 4, "feature_dim": 8}}))
        assert cli_main(["ablate", "--out", str(tmp_path / "abl"), "--seed", "1", "--n", "30",
                         "--epochs", "1", "--configurations", "all",
                         "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "abl" / "ablation_report.json").read_text())
        assert (report["seed"], report["train_config"]["seed"]) == (1, 3)
        assert "AllDataFusion" in capsys.readouterr().out

    def test_unknown_preset_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["train", "--data", "x", "--out", "y", "--inputs", "everything"])
