"""Synthetic triage encounters with a planted, recoverable signal.

Each record's report is assembled from five sentences: one driven by a
latent image class (recoverable from the image-feature vector alone) and
four driven by non-image inputs (o2sat bucket, heart-rate bucket, chief
complaint, ICD title). A model that fuses the non-image sources can emit
the right planted sentences; an image-only model can at best guess them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .errors import ConfigurationError, DataError, check_fields, field_types
from .preprocess import ETHNICITY_GROUPS
from .records import (RawRecord, file_sha256, read_json, read_table, write_image_features,
                      write_json, write_jsonl, write_raw_records, write_raw_records_csv)

PathLike = Union[str, Path]

IMAGE_FINDINGS = (
    "the lungs are clear without focal consolidation",
    "there is focal consolidation in the right lower lobe",
    "a small left pleural effusion is present",
    "the cardiac silhouette is enlarged",
)

# (bucket range on the raw value, sentence planted for that bucket)
O2SAT_BUCKETS = (
    ((85.0, 90.0), "oxygen saturation shows marked hypoxemia"),
    ((90.0, 95.0), "oxygen saturation shows borderline desaturation"),
    ((95.0, 100.0), "oxygen saturation appears entirely normal"),
)
HEART_RATE_BUCKETS = (
    ((40.0, 60.0), "bradycardia noted during triage"),
    ((60.0, 100.0), "heart rate remains regular throughout"),
    ((100.0, 140.0), "tachycardia noted during triage"),
)

# canonical complaint -> raw spellings sampled into the chief_complaint field
CHIEF_COMPLAINTS = (
    ("chest pain", ("cp", "CP", "chest pain", "Chest Pain")),
    ("dyspnea", ("sob", "SOB", "shortness of breath", "dyspnea")),
    ("fever", ("fevers", "Fevers", "fever")),
    ("cough", ("cough", "Cough")),
)
ICD_TITLES = ("pneumonia", "congestive heart failure",
              "acute asthma exacerbation", "viral illness")

DATASET_FILES = ("records", "features", "planted")


@dataclass(frozen=True)
class SyntheticConfig:
    num_samples: int = 2000
    seed: int = 7
    feature_dim: int = 1280
    image_noise: float = 0.25
    outlier_fraction: float = 0.0

    def __post_init__(self):
        check_fields(type(self), vars(self))
        if self.image_noise < 0:
            raise ConfigurationError(f"image_noise must be >= 0, got {self.image_noise}")
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise ConfigurationError("outlier_fraction must be in [0, 1)")


@dataclass
class SyntheticDataset:
    records: list
    image_features: dict
    planted_phrases: dict
    config: SyntheticConfig


def _pick_bucket(rng: np.random.Generator, buckets) -> tuple[float, str]:
    idx = int(rng.integers(len(buckets)))
    (lo, hi), phrase = buckets[idx]
    # round inside the draw so the stored value cannot cross the bucket edge
    value = round(float(rng.uniform(lo, hi)), 2)
    value = min(max(value, lo), round(hi - 0.01, 2))
    return value, phrase


def generate_synthetic(config: SyntheticConfig) -> SyntheticDataset:
    """Draw a dataset; identical configs give bitwise-identical output."""
    rng = np.random.default_rng(config.seed)
    num_classes = len(IMAGE_FINDINGS)
    # fixed per-seed class directions; noise keeps classes linearly separable
    basis = rng.standard_normal((num_classes, config.feature_dim))
    basis /= np.linalg.norm(basis, axis=1, keepdims=True)

    records: list[RawRecord] = []
    features: dict[str, list[float]] = {}
    planted: dict[str, list[str]] = {}
    for i in range(config.num_samples):
        sample_id = f"synth-{i:05d}"
        image_class = int(rng.integers(num_classes))
        noise = rng.standard_normal(config.feature_dim) * config.image_noise
        vec = basis[image_class] + noise
        o2sat, o2_phrase = _pick_bucket(rng, O2SAT_BUCKETS)
        heart_rate, hr_phrase = _pick_bucket(rng, HEART_RATE_BUCKETS)
        chief_canon, variants = CHIEF_COMPLAINTS[int(rng.integers(len(CHIEF_COMPLAINTS)))]
        chief_raw = variants[int(rng.integers(len(variants)))]
        icd = ICD_TITLES[int(rng.integers(len(ICD_TITLES)))]
        chief_phrase = f"patient reports {chief_canon}"
        icd_phrase = f"clinical concern for {icd}"
        report = " ".join((IMAGE_FINDINGS[image_class], o2_phrase, hr_phrase,
                           chief_phrase, icd_phrase))

        rec = RawRecord(
            sample_id=sample_id,
            acuity=float(rng.integers(1, 6)),
            o2sat=o2sat,
            heart_rate=heart_rate,
            resp_rate=round(float(rng.uniform(8.0, 40.0)), 2),
            sbp=round(float(rng.uniform(90.0, 200.0)), 2),
            dbp=round(float(rng.uniform(50.0, 120.0)), 2),
            temperature_celsius=round(float(rng.uniform(35.5, 40.5)), 2),
            gender="Male" if rng.integers(2) == 0 else "Female",
            ethnicity=ETHNICITY_GROUPS[int(rng.integers(len(ETHNICITY_GROUPS)))],
            chief_complaint=chief_raw,
            icd_title=icd,
            report=report,
        )
        if config.outlier_fraction > 0.0 and rng.uniform() < config.outlier_fraction:
            rec.heart_rate = 999.0  # outside any plausible range; cleaning drops it
        records.append(rec)
        features[sample_id] = [round(float(x), 6) for x in vec]
        planted[sample_id] = [o2_phrase, hr_phrase, chief_phrase, icd_phrase]
    return SyntheticDataset(records, features, planted, config)


def balance_by_unique_reports(records: Sequence[RawRecord],
                              target_size: int) -> list[RawRecord]:
    """Round-robin subsample so per-report-text counts differ by at most one
    (where group sizes allow); groups go in report-text order, for determinism."""
    if not 1 <= target_size <= len(records):
        raise ConfigurationError(f"target_size must be in 1..{len(records)}, "
                                 f"got {target_size}")
    groups: dict[str, list[RawRecord]] = {}
    for rec in records:
        groups.setdefault(rec.report, []).append(rec)
    ordered = [groups[k] for k in sorted(groups)]
    subset: list[RawRecord] = []
    depth = 0
    while len(subset) < target_size:
        took_any = False
        for group in ordered:
            if depth < len(group):
                subset.append(group[depth])
                took_any = True
                if len(subset) == target_size:
                    return subset
        if not took_any:  # pragma: no cover - impossible while target <= total
            raise ConfigurationError("ran out of records while balancing")
        depth += 1
    return subset


@dataclass
class DatasetManifest:
    """File names, content hashes, and provenance for one emitted dataset."""

    files: dict[str, str]
    sha256: dict[str, str]
    meta: dict = field(default_factory=dict)

    MANIFEST_NAME = "manifest.json"

    def to_dict(self) -> dict:
        return {"files": self.files, "sha256": self.sha256, "meta": self.meta}

    def save(self, directory: PathLike) -> Path:
        path = Path(directory) / self.MANIFEST_NAME
        write_json(path, self.to_dict())
        return path

    @classmethod
    def load(cls, directory: PathLike) -> "DatasetManifest":
        path = Path(directory) / cls.MANIFEST_NAME
        manifest = cls(**read_json(path, "manifest", DataError, field_types(cls), {"meta": {}}))
        if manifest.files.keys() != manifest.sha256.keys():
            raise DataError(f"manifest {path}: 'files' and 'sha256' must name the same entries")
        return manifest

    def verify(self, directory: PathLike) -> None:
        """Recompute every hash; raise DataError on any mismatch."""
        directory = Path(directory)
        for name, filename in self.files.items():
            path = directory / filename
            if not path.exists():
                raise DataError(f"manifest entry {name!r} missing: {path}")
            actual = file_sha256(path)
            if actual != self.sha256[name]:
                raise DataError(f"hash mismatch for {name!r} ({path}): "
                                f"manifest {self.sha256[name]}, actual {actual}")

    @classmethod
    def for_files(cls, directory: PathLike, files: Mapping[str, str],
                  meta: Optional[Mapping] = None) -> "DatasetManifest":
        directory = Path(directory)
        hashes = {name: file_sha256(directory / filename)
                  for name, filename in files.items()}
        return cls(files=dict(files), sha256=hashes, meta=dict(meta or {}))


def write_synthetic_dataset(dataset: SyntheticDataset, out_dir: PathLike,
                            record_format: str = "jsonl") -> DatasetManifest:
    """Emit records/features/planted files plus a hashed manifest.

    ``record_format`` selects ``records.jsonl`` or ``records.csv`` (the raw
    fields are flat, so both round-trip); features and planted phrases hold
    nested lists and are always JSONL.
    """
    if record_format not in ("jsonl", "csv"):
        raise ConfigurationError(f"record_format must be 'jsonl' or 'csv', "
                                 f"got {record_format!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records_name = f"records.{record_format}"
    if record_format == "csv":
        write_raw_records_csv(out / records_name, dataset.records)
    else:
        write_raw_records(out / records_name, dataset.records)
    write_image_features(out / "features.jsonl", dataset.image_features)
    write_jsonl(out / "planted.jsonl",
                ({"sample_id": sid, "phrases": phrases}
                 for sid, phrases in dataset.planted_phrases.items()))
    manifest = DatasetManifest.for_files(
        out,
        {"records": records_name, "features": "features.jsonl",
         "planted": "planted.jsonl"},
        meta={"generator": "synthetic", **asdict(dataset.config)},
    )
    manifest.save(out)
    return manifest


def load_planted_phrases(path: PathLike) -> dict[str, list[str]]:
    """{sample_id: planted phrases} from a {sample_id, phrases} JSONL file."""
    return read_table(path, "phrases", list[str])
