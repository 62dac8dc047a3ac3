"""End-to-end orchestration: synth -> preprocess -> train -> generate -> evaluate.

Each stage reads and writes plain files (JSONL / JSON / CSV, and an ``.npz``
checkpoint) so any stage can be re-run or inspected in isolation; the CLI
maps one subcommand onto each function here.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .errors import ConfigurationError, DataError, check_fields
from .metrics import EvalReport, FileEmbeddings, HashedEmbeddings, corpus_evaluate
from .model import INPUT_PRESETS, ModelConfig, ReportGenerator
from .preprocess import (NormalizationStats, PreprocessConfig, build_patient_record,
                         remove_outliers, tokenize_and_fit_vocab, standardize_text)
from .records import (PatientRecord, RawRecord, atomic_open, check_row,
                      load_image_features, read_patient_records, read_raw_records, read_rows,
                      write_json, write_jsonl, write_patient_records)
from .synth import (DatasetManifest, SyntheticConfig, balance_by_unique_reports,
                    generate_synthetic, load_planted_phrases, write_synthetic_dataset)
from .training import EVAL_CHUNK, FitResult, TrainConfig, fit, split_dataset
from .vocab import Vocabulary

PathLike = Union[str, Path]

SPLIT_FILES = {"train": "train.jsonl", "val": "val.jsonl", "test": "test.jsonl"}


def run_synth(out_dir: PathLike, config: Optional[SyntheticConfig] = None,
              record_format: str = "jsonl") -> DatasetManifest:
    dataset = generate_synthetic(config or SyntheticConfig())
    return write_synthetic_dataset(dataset, out_dir, record_format=record_format)


@dataclass(frozen=True)
class SplitPlan:
    """How the cleaned corpus is carved into train/val/test."""

    subset_fraction: float = 0.7   # share of cleaned records kept for train+val
    train_fraction: float = 0.7    # share of those for train; val takes the rest
    test_size: Optional[int] = None  # cap on the held-out test set; None = all
    seed: int = 0

    def __post_init__(self):
        check_fields(type(self), vars(self))
        for name in ("subset_fraction", "train_fraction"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ConfigurationError(f"{name} must be in (0, 1), got {getattr(self, name)}")


def run_preprocess(data_dir: PathLike, out_dir: PathLike,
                   preprocess_config: Optional[PreprocessConfig] = None,
                   plan: Optional[SplitPlan] = None) -> dict:
    """Clean, curate, split, fit vocabularies/stats, and emit model-ready files.

    Reads ``records.jsonl`` (or ``records.csv``) and ``features.jsonl`` from
    ``data_dir``. Vocabularies are fitted on every cleaned record; the
    balanced subset feeds the train/val split and the remainder is held out
    as the test set. Normalization stats come from the training split only.
    Each distinct report, chief complaint and ICD title is standardized once
    per call, and encoded once per vocabulary; the vocabulary fits and every
    split's records reuse the results.
    """
    cfg = preprocess_config or PreprocessConfig()
    plan = plan or SplitPlan()
    data_dir = Path(data_dir)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    records_path = data_dir / "records.jsonl"
    if not records_path.exists():
        records_path = data_dir / "records.csv"
    raw = read_raw_records(records_path)
    features = load_image_features(data_dir / "features.jsonl")
    if not raw:
        raise DataError(f"no records found in {records_path}")

    cleaned = remove_outliers(raw)
    if len(cleaned) < 10:
        raise DataError(f"only {len(cleaned)} records survive outlier removal")

    # each distinct text standardized once and encoded once per vocabulary
    clean = {text: standardize_text(text) for text in
             {text for r in cleaned for text in (r.report, r.chief_complaint, r.icd_title)}}
    encoded: dict[tuple[str, Vocabulary], tuple[str, list[int]]] = {}

    def encode(text: str, vocab: Vocabulary) -> tuple[str, list[int]]:
        if (text, vocab) not in encoded:
            encoded[text, vocab] = clean[text], vocab.encode(clean[text])
        return encoded[text, vocab]

    # vocabularies come from the complete cleaned corpus, not the subset
    report_vocab = tokenize_and_fit_vocab(clean[r.report] for r in cleaned)
    chief_vocab = tokenize_and_fit_vocab(clean[r.chief_complaint] for r in cleaned)
    icd_vocab = tokenize_and_fit_vocab(clean[r.icd_title] for r in cleaned)

    subset_size = max(2, int(round(plan.subset_fraction * len(cleaned))))
    curated = balance_by_unique_reports(cleaned, subset_size)
    curated_ids = {r.sample_id for r in curated}
    holdout = [r for r in cleaned if r.sample_id not in curated_ids]

    train_raw, val_raw = split_dataset(curated, plan.train_fraction, plan.seed)
    test_order = np.random.default_rng(plan.seed + 1).permutation(len(holdout))
    test_raw = [holdout[i] for i in test_order]
    if plan.test_size is not None:
        test_raw = test_raw[:plan.test_size]

    stats = NormalizationStats.fit(train_raw)

    def build_split(records: Sequence[RawRecord]) -> list[PatientRecord]:
        out_records = []
        for rec in records:
            feats = features.get(rec.sample_id)
            if feats is None:
                raise DataError(f"no image features for record {rec.sample_id}")
            out_records.append(build_patient_record(rec, stats, report_vocab, chief_vocab,
                                                    icd_vocab, feats, cfg, encode))
        return out_records

    splits = {"train": build_split(train_raw), "val": build_split(val_raw),
              "test": build_split(test_raw)}
    for name, records in splits.items():
        write_patient_records(out / SPLIT_FILES[name], records)
    report_vocab.save(out / "report_vocab.json")
    chief_vocab.save(out / "chief_vocab.json")
    icd_vocab.save(out / "icd_vocab.json")
    write_json(out / "norm_stats.json", stats.to_dict())

    summary = {
        "records_in": len(raw),
        "records_cleaned": len(cleaned),
        "dropped_outliers": len(raw) - len(cleaned),
        "subset_size": len(curated),
        "splits": {name: len(records) for name, records in splits.items()},
        "vocab_sizes": {"report": report_vocab.size, "chief": chief_vocab.size,
                        "icd": icd_vocab.size},
        "preprocess_config": asdict(cfg),
        "split_plan": asdict(plan),
    }
    files = {name: SPLIT_FILES[name] for name in splits}
    files.update({"report_vocab": "report_vocab.json", "chief_vocab": "chief_vocab.json",
                  "icd_vocab": "icd_vocab.json", "norm_stats": "norm_stats.json"})
    manifest = DatasetManifest.for_files(out, files, meta=summary)
    manifest.save(out)
    return summary


def load_preprocessed(data_dir: PathLike) -> dict:
    """Splits plus vocabularies from a run_preprocess output directory."""
    data_dir = Path(data_dir)
    out = {name: read_patient_records(data_dir / filename)
           for name, filename in SPLIT_FILES.items()}
    out["report_vocab"] = Vocabulary.load(data_dir / "report_vocab.json")
    out["chief_vocab"] = Vocabulary.load(data_dir / "chief_vocab.json")
    out["icd_vocab"] = Vocabulary.load(data_dir / "icd_vocab.json")
    return out


def run_training(data_dir: PathLike, out_dir: PathLike, model_config: ModelConfig,
                 train_config: TrainConfig, inputs: str = "all") -> FitResult:
    """Train on a preprocessed directory; write checkpoint.npz + history.csv."""
    data = load_preprocessed(data_dir)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model = ReportGenerator(
        model_config,
        vocab_size=data["report_vocab"].size,
        chief_vocab_size=data["chief_vocab"].size,
        icd_vocab_size=data["icd_vocab"].size,
        seed=train_config.seed,
        inputs=inputs,
    )
    result = fit(model, data["train"], data["val"], train_config)
    model.save(out / "checkpoint.npz", extra_metadata={
        "train_config": asdict(train_config),
        "best_epoch": result.best_epoch,
        "best_val_loss": result.best_val_loss,
        "diverged": result.diverged,
    })
    with atomic_open(out / "history.csv", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["epoch", "train_loss", "train_acc",
                                                "val_loss", "val_acc", "lr"])
        writer.writeheader()
        writer.writerows(result.history)
    return result


def run_generation(data_dir: PathLike, checkpoint: PathLike, out_path: PathLike,
                   split: str = "test", inputs: Optional[str] = None) -> int:
    """Greedy-decode one split, packed once, in batches of ``EVAL_CHUNK``
    records; write {sample_id, generated, reference} JSONL.

    ``inputs`` overrides the input preset the checkpoint records. Only the
    decoded split and the report vocabulary are read from ``data_dir``.
    """
    if split not in SPLIT_FILES:
        raise ConfigurationError(f"split must be one of {sorted(SPLIT_FILES)}, got {split!r}")
    data_dir = Path(data_dir)
    records = read_patient_records(data_dir / SPLIT_FILES[split])
    vocab = Vocabulary.load(data_dir / "report_vocab.json")
    model = ReportGenerator.load(checkpoint, inputs=inputs)
    packed = model.pack(records)
    generated = []
    for start in range(0, len(packed), EVAL_CHUNK):
        generated += model.generate_batch(packed[start:start + EVAL_CHUNK])
    rows = [{"sample_id": rec.sample_id, "generated": vocab.text(ids),
             "reference": rec.report_text} for rec, ids in zip(records, generated)]
    write_jsonl(out_path, rows)
    return len(rows)


_GENERATION_ROW = {"sample_id": str, "generated": str, "reference": str}


def read_generations(path: PathLike) -> list[dict]:
    """The {sample_id, generated, reference} rows of a generation file."""
    return read_rows(path, lambda row: check_row(row, _GENERATION_ROW))


def run_evaluation(generated_path: PathLike, out_path: Optional[PathLike] = None,
                   embeddings_path: Optional[PathLike] = None,
                   per_sample_csv: Optional[PathLike] = None,
                   smooth: bool = False) -> EvalReport:
    """Score a generation file and optionally persist the JSON report."""
    pairs = [(row["sample_id"], row["generated"].split(), row["reference"].split())
             for row in read_generations(generated_path)]
    provider = FileEmbeddings.load(embeddings_path) if embeddings_path else HashedEmbeddings()
    report = corpus_evaluate(pairs, provider=provider, smooth=smooth)
    if out_path is not None:
        report.save(out_path)
    if per_sample_csv is not None:
        report.save_per_sample_csv(per_sample_csv)
    return report


def planted_phrase_accuracy(generated_rows: Sequence[Mapping],
                            planted: Mapping[str, Sequence[str]]) -> float:
    """Token-weighted fraction of planted phrases reproduced verbatim.

    A phrase counts only if it appears as a contiguous token run in the
    generated text; credit is weighted by phrase length so long phrases
    matter proportionally.
    """
    matched = 0
    total = 0
    for row in generated_rows:
        phrases = planted.get(row["sample_id"])
        if phrases is None:
            raise DataError(f"no planted phrases for sample {row['sample_id']!r}")
        tokens = row["generated"].split()
        for phrase in phrases:
            ptoks = phrase.split()
            total += len(ptoks)
            if _contains_run(tokens, ptoks):
                matched += len(ptoks)
    if total == 0:
        raise DataError("no planted phrases to score")
    return matched / total


def _contains_run(tokens: Sequence[str], run: Sequence[str]) -> bool:
    n, m = len(tokens), len(run)
    if m == 0 or m > n:
        return False
    return any(tokens[i:i + m] == list(run) for i in range(n - m + 1))


# Desk-scale defaults for the fusion experiment: small widths keep a full
# baseline-vs-fusion comparison in the minutes range on one CPU.
ABLATION_MODEL = dict(model_dim=64, num_heads=3, ffn_dim=64, embed_dim=64,
                      image_feature_dim=64, image_tokens=4, report_len=43)
ABLATION_TRAIN = dict(base_lr=2e-3, warmup_steps=100, batch_size=32,
                      max_epochs=10, early_stop_patience=5)
ABLATION_SYNTH = dict(num_samples=2000, feature_dim=64)
ABLATION_PLAN = dict(subset_fraction=0.7, test_size=300)


def run_ablation(work_dir: PathLike, seed: int = 0,
                 configurations: Sequence[str] = ("image_only", "all"),
                 model_overrides: Optional[Mapping] = None,
                 train_overrides: Optional[Mapping] = None,
                 synth_overrides: Optional[Mapping] = None) -> dict:
    """Train one model per input preset on one synthetic dataset and
    compare them on the held-out test split.

    Returns one row per configuration with corpus BLEU/ROUGE-L/embedding-F1
    and planted-phrase accuracy. A ``seed`` in ``synth_overrides`` or
    ``train_overrides`` replaces ``seed`` for that stage only.
    """
    work = Path(work_dir)
    synth_cfg = SyntheticConfig(**{**ABLATION_SYNTH, "seed": seed, **(synth_overrides or {})})
    data_dir = work / "data"
    run_synth(data_dir, synth_cfg)

    prep_dir = work / "prep"
    model_kwargs = {**ABLATION_MODEL, **(model_overrides or {})}
    plan = SplitPlan(seed=seed, **ABLATION_PLAN)
    prep_cfg = PreprocessConfig(report_len=model_kwargs["report_len"],
                                image_feature_dim=model_kwargs["image_feature_dim"])
    run_preprocess(data_dir, prep_dir, prep_cfg, plan)

    planted = load_planted_phrases(data_dir / "planted.jsonl")
    model_cfg = ModelConfig(**model_kwargs)
    train_cfg = TrainConfig(**{**ABLATION_TRAIN, "seed": seed, **(train_overrides or {})})

    rows = {}
    for name in configurations:
        run_dir = work / f"run_{name}"
        result = run_training(prep_dir, run_dir, model_cfg, train_cfg, inputs=name)
        gen_path = run_dir / "generated.jsonl"
        run_generation(prep_dir, run_dir / "checkpoint.npz", gen_path,
                       split="test", inputs=name)
        report = run_evaluation(gen_path, run_dir / "eval_report.json")
        accuracy = planted_phrase_accuracy(read_generations(gen_path), planted)
        rows[name] = {
            "label": INPUT_PRESETS[name].label,
            "bleu_1": report.corpus["bleu_1"],
            "bleu_4": report.corpus["bleu_4"],
            "rouge_l": report.corpus["rouge_l"],
            "embedding_f1": report.corpus["embedding_f1"],
            "planted_accuracy": accuracy,
            "epochs_run": result.epochs_run,
            "best_val_loss": result.best_val_loss,
        }
    summary = {"seed": seed, "rows": rows,
               "model_config": model_cfg.to_dict(),
               "train_config": asdict(train_cfg)}
    write_json(work / "ablation_report.json", summary)
    return summary
