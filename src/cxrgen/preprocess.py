"""Raw-record cleaning: text standardization, unit conversion, scaling.

The text rules are deliberately idempotent: running ``standardize_text``
over its own output is a no-op, so already-clean corpora pass through
unchanged.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .errors import ConfigurationError, ContractError, DataError, check_fields
from .records import PatientRecord, RawRecord, ScalarFeatures
from .vocab import END_ID, PAD_ID, START_ID, Vocabulary

logger = logging.getLogger(__name__)

# Clinically plausible ranges; anything outside drops the whole record.
# Temperature bounds are in Celsius because they are applied pre-conversion.
PLAUSIBLE_RANGES: dict[str, tuple[float, float]] = {
    "heart_rate": (20.0, 300.0),
    "o2sat": (50.0, 100.0),
    "resp_rate": (4.0, 80.0),
    "sbp": (50.0, 300.0),
    "dbp": (20.0, 200.0),
    "temperature_celsius": (30.0, 43.5),
    "acuity": (1.0, 5.0),
}

# Vitals that get min-max scaling fitted on the training split. Acuity and
# gender use fixed encodings instead (see encode_acuity / encode_gender).
VITAL_FEATURES = ("heart_rate", "o2sat", "resp_rate", "sbp", "dbp", "temperature")

ETHNICITY_GROUPS = ("White", "African American", "Hispanic/Latino", "Black",
                    "Asian", "White/European", "Russian", "Other", "Unknown")
ETHNICITY_UNKNOWN = 9
_ETHNICITY_INDEX = {name.lower(): i + 1 for i, name in enumerate(ETHNICITY_GROUPS)}


def celsius_to_fahrenheit(t: float) -> float:
    return t * 9.0 / 5.0 + 32.0


# Clinical shorthand, expanded in this order as whole words of lowercased text.
# The rules must stay idempotent: no replacement may contain another rule's
# pattern as a whole word. The first four are pinned by the golden tests.
ABBREVIATIONS = (
    ("shortness of breath", "dyspnea"),
    ("sob", "dyspnea"),
    ("cp", "chest pain"),
    ("fevers", "fever"),
    ("n/v", "nausea and vomiting"),
    ("abd", "abdominal"),
    ("uti", "urinary tract infection"),
    ("etoh", "alcohol"),
    ("hx", "history"),
)
_ABBREVIATION_RULES = [(re.compile(rf"\b{re.escape(pat)}\b"), repl)
                       for pat, repl in ABBREVIATIONS]

_COMMA_JOIN = re.compile(r"(\w)\s*,\s*(?=\w)")
_PERIOD_RUN = re.compile(r"\.{2,}")
_PUNCT = re.compile(r"[.,]")
_WS = re.compile(r"\s+")


def standardize_text(text: str) -> str:
    """Lowercase, strip layout noise, join comma lists with 'and', expand
    clinical shorthand, and collapse whitespace. Idempotent."""
    if not text:
        return ""
    t = text.lower().replace("\r", " ").replace("\n", " ")
    t = _PERIOD_RUN.sub(" ", t)
    t = _COMMA_JOIN.sub(r"\1 and ", t)
    t = _PUNCT.sub(" ", t)
    for pattern, repl in _ABBREVIATION_RULES:
        t = pattern.sub(repl, t)
    return _WS.sub(" ", t).strip()


def encode_gender(gender: str, sample_id: Optional[str] = None) -> float:
    v = gender.strip().lower()
    if v == "male":
        return 0.0
    if v == "female":
        return 1.0
    where = f" in record {sample_id}" if sample_id else ""
    raise DataError(f"unrecognized gender {gender!r}{where}")


def encode_acuity(acuity: float) -> float:
    """Map triage acuity 1..5 onto [0, 1] as (a - 1) / 4."""
    if not 1.0 <= acuity <= 5.0:
        raise ContractError(f"acuity out of range [1, 5]: {acuity}")
    return (acuity - 1.0) / 4.0


def map_ethnicity(ethnicity: str) -> int:
    """1-indexed group id; any unlisted value maps to Unknown (9)."""
    return _ETHNICITY_INDEX.get(ethnicity.strip().lower(), ETHNICITY_UNKNOWN)


def record_vitals(rec: RawRecord) -> dict[str, float]:
    """The six min-max scaled vitals, temperature already in Fahrenheit."""
    return {
        "heart_rate": rec.heart_rate,
        "o2sat": rec.o2sat,
        "resp_rate": rec.resp_rate,
        "sbp": rec.sbp,
        "dbp": rec.dbp,
        "temperature": celsius_to_fahrenheit(rec.temperature_celsius),
    }


@dataclass(frozen=True)
class FeatureStats:
    minimum: float
    maximum: float


@dataclass
class NormalizationStats:
    """Per-vital min/max fitted on the training split only."""

    features: dict[str, FeatureStats]

    @classmethod
    def fit(cls, records: Sequence[RawRecord]) -> "NormalizationStats":
        if not records:
            raise ConfigurationError("cannot fit normalization stats on an empty split")
        columns: dict[str, list[float]] = {name: [] for name in VITAL_FEATURES}
        for rec in records:
            for name, value in record_vitals(rec).items():
                columns[name].append(value)
        stats = {}
        for name, values in columns.items():
            lo, hi = min(values), max(values)
            if hi <= lo:
                raise ConfigurationError(
                    f"degenerate normalization stats for {name!r}: min == max == {lo}")
            stats[name] = FeatureStats(lo, hi)
        return cls(stats)

    def normalize(self, name: str, value: float) -> float:
        return minmax_normalize(value, self.features[name])

    def to_dict(self) -> dict:
        return {name: {"min": s.minimum, "max": s.maximum}
                for name, s in self.features.items()}


def minmax_normalize(value: float, stats: FeatureStats) -> float:
    """(x - min) / (max - min), clamped to [0, 1] for out-of-range inputs."""
    span = stats.maximum - stats.minimum
    if span <= 0:
        raise ConfigurationError(f"degenerate normalization stats: min == max == {stats.minimum}")
    return min(max((value - stats.minimum) / span, 0.0), 1.0)


def within_plausible_ranges(rec: RawRecord) -> bool:
    for name, (lo, hi) in PLAUSIBLE_RANGES.items():
        v = getattr(rec, name)
        if not (math.isfinite(v) and lo <= v <= hi):
            return False
    return True


def remove_outliers(records: Sequence[RawRecord]) -> list[RawRecord]:
    """Drop records with any vital outside its plausible range; log the count."""
    kept = [rec for rec in records if within_plausible_ranges(rec)]
    dropped = len(records) - len(kept)
    if dropped:
        logger.info("dropped %d of %d records with implausible vitals", dropped, len(records))
    return kept


def pad_truncate(ids: Sequence[int], length: int) -> list[int]:
    """Right-pad with PAD or truncate to exactly ``length`` ids."""
    if length < 1:
        raise ContractError(f"pad_truncate needs length >= 1, got {length}")
    out = list(ids)[:length]
    out.extend([PAD_ID] * (length - len(out)))
    return out


def tokenize_and_fit_vocab(corpus: Iterable[str]) -> Vocabulary:
    """Fit a vocabulary over standardized texts (see Vocabulary.fit)."""
    return Vocabulary.fit(corpus)


def encode_text(text: str, vocab: Vocabulary) -> tuple[str, list[int]]:
    """``text`` standardized, and the ids of its tokens in ``vocab``."""
    clean = standardize_text(text)
    return clean, vocab.encode(clean)


def encode_report(body: Sequence[int], length: int) -> list[int]:
    """[START] + body + [END], body truncated to fit, padded to ``length`` >= 3."""
    return pad_truncate([START_ID, *body[: length - 2], END_ID], length)


@dataclass(frozen=True)
class PreprocessConfig:
    report_len: int = 43
    chief_len: int = 2
    icd_len: int = 6
    image_feature_dim: int = 1280

    def __post_init__(self):
        check_fields(type(self), vars(self))
        if self.report_len < 3:
            raise ConfigurationError("report_len must be >= 3 to fit START and END")


def build_patient_record(rec: RawRecord, stats: NormalizationStats,
                         report_vocab: Vocabulary, chief_vocab: Vocabulary,
                         icd_vocab: Vocabulary, image_features: Sequence[float],
                         cfg: PreprocessConfig,
                         encode: Optional[Callable[[str, Vocabulary], tuple[str, list[int]]]] = None
                         ) -> PatientRecord:
    """Assemble one model-ready record from a cleaned raw record.

    ``encode`` (default ``encode_text``) standardizes each text and encodes it
    in its vocabulary; ``run_preprocess`` passes one that keeps each distinct
    result for the call, so the ids it returns are only read, never changed."""
    encode = encode or encode_text
    feats = list(map(float, image_features))
    if len(feats) != cfg.image_feature_dim:
        raise DataError(f"record {rec.sample_id}: expected {cfg.image_feature_dim} "
                        f"image features, got {len(feats)}")
    vitals = record_vitals(rec)
    scalars = ScalarFeatures(
        heart_rate=stats.normalize("heart_rate", vitals["heart_rate"]),
        o2sat=stats.normalize("o2sat", vitals["o2sat"]),
        resp_rate=stats.normalize("resp_rate", vitals["resp_rate"]),
        sbp=stats.normalize("sbp", vitals["sbp"]),
        dbp=stats.normalize("dbp", vitals["dbp"]),
        temperature=stats.normalize("temperature", vitals["temperature"]),
        acuity=encode_acuity(rec.acuity),
        gender=encode_gender(rec.gender, rec.sample_id),
    )
    report_text, report_body = encode(rec.report, report_vocab)
    return PatientRecord(
        sample_id=rec.sample_id,
        scalars=scalars,
        ethnicity=map_ethnicity(rec.ethnicity),
        chief_ids=pad_truncate(encode(rec.chief_complaint, chief_vocab)[1], cfg.chief_len),
        icd_ids=pad_truncate(encode(rec.icd_title, icd_vocab)[1], cfg.icd_len),
        image_features=feats,
        report_ids=encode_report(report_body, cfg.report_len),
        report_text=report_text,
    )
