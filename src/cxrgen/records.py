"""Shared record types, JSONL/CSV ingestion, and atomic file writes."""

from __future__ import annotations

import contextlib
import csv
import json
import os
import secrets
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import ContractError, DataError

PathLike = Union[str, Path]


@dataclass(frozen=True)
class ScalarFeatures:
    """The eight normalized scalar inputs, every value in [0, 1]."""

    heart_rate: float
    o2sat: float
    resp_rate: float
    sbp: float
    dbp: float
    temperature: float
    acuity: float
    gender: float

    ORDER = ("heart_rate", "o2sat", "resp_rate", "sbp", "dbp",
             "temperature", "acuity", "gender")

    def validate(self) -> None:
        for name in self.ORDER:
            v = getattr(self, name)
            if not (np.isfinite(v) and 0.0 <= v <= 1.0):
                raise ContractError(f"scalar feature {name!r} out of [0, 1]: {v}")
        if self.gender not in (0.0, 1.0):
            raise ContractError(f"gender must be 0.0 or 1.0, got {self.gender}")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in self.ORDER], dtype=np.float64)


_RAW_FLOAT_FIELDS = ("acuity", "o2sat", "heart_rate", "resp_rate",
                     "sbp", "dbp", "temperature_celsius")
_RAW_STR_FIELDS = ("sample_id", "gender", "ethnicity", "chief_complaint",
                   "icd_title", "report")


@dataclass
class RawRecord:
    """One triage encounter as ingested, before any cleaning."""

    sample_id: str
    acuity: float
    o2sat: float
    heart_rate: float
    resp_rate: float
    sbp: float
    dbp: float
    temperature_celsius: float
    gender: str
    ethnicity: str
    chief_complaint: str
    icd_title: str
    report: str

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, row: Mapping) -> "RawRecord":
        sample_id = str(row.get("sample_id", "<missing sample_id>"))
        kwargs = {}
        for name in _RAW_STR_FIELDS:
            if name not in row:
                raise DataError(f"record {sample_id}: missing field {name!r}")
            if not isinstance(row[name], str):
                raise DataError(f"record {sample_id}: field {name!r} must be text, got "
                                f"{type(row[name]).__name__} {row[name]!r}")
            kwargs[name] = row[name]
        for name in _RAW_FLOAT_FIELDS:
            if name not in row:
                raise DataError(f"record {sample_id}: missing field {name!r}")
            try:
                kwargs[name] = float(row[name])
            except (TypeError, ValueError) as exc:
                raise DataError(f"record {sample_id}: field {name!r} is not numeric: "
                                f"{row[name]!r}") from exc
        return cls(**kwargs)


@dataclass
class PatientRecord:
    """A fully preprocessed sample, ready for the model."""

    sample_id: str
    scalars: ScalarFeatures
    ethnicity: int
    chief_ids: list[int]
    icd_ids: list[int]
    image_features: list[float]
    report_ids: list[int]
    report_text: str

    def to_dict(self) -> dict:
        d = asdict(self)
        d["scalars"] = asdict(self.scalars)
        return d

    @classmethod
    def from_dict(cls, row: Mapping) -> "PatientRecord":
        try:
            scalars = ScalarFeatures(**{k: float(v) for k, v in row["scalars"].items()})
            return cls(
                sample_id=str(row["sample_id"]),
                scalars=scalars,
                ethnicity=int(row["ethnicity"]),
                chief_ids=[int(i) for i in row["chief_ids"]],
                icd_ids=[int(i) for i in row["icd_ids"]],
                image_features=[float(x) for x in row["image_features"]],
                report_ids=[int(i) for i in row["report_ids"]],
                report_text=str(row["report_text"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed patient record: {exc}") from exc


@contextlib.contextmanager
def atomic_open(path: PathLike, mode: str = "w", **kwargs) -> Iterator[IO]:
    """Write ``path`` all at once: through a temp file beside it, fsynced and
    then renamed over it. If the block raises, the temp file is removed and
    any previous ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: PathLike, text: str) -> None:
    with atomic_open(path, encoding="utf-8") as fh:
        fh.write(text)


def write_jsonl(path: PathLike, rows: Iterable[Mapping]) -> None:
    with atomic_open(path, encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def read_jsonl(path: PathLike) -> list[dict]:
    rows = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rows.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise DataError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return rows


def read_raw_records(path: PathLike) -> list[RawRecord]:
    """Load raw records from .jsonl or .csv (by extension)."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                return [RawRecord.from_dict(row) for row in csv.DictReader(fh)]
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc
    return [RawRecord.from_dict(row) for row in read_jsonl(path)]


def write_raw_records(path: PathLike, records: Sequence[RawRecord]) -> None:
    write_jsonl(path, (r.to_dict() for r in records))


def write_raw_records_csv(path: PathLike, records: Sequence[RawRecord]) -> None:
    names = [f.name for f in fields(RawRecord)]
    with atomic_open(path, newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=names)
        writer.writeheader()
        for record in records:
            writer.writerow(record.to_dict())


def read_patient_records(path: PathLike) -> list[PatientRecord]:
    return [PatientRecord.from_dict(row) for row in read_jsonl(path)]


def write_patient_records(path: PathLike, records: Sequence[PatientRecord]) -> None:
    write_jsonl(path, (r.to_dict() for r in records))


def load_image_features(path: PathLike) -> dict[str, list[float]]:
    """Read a {sample_id, features} JSONL file into a lookup table."""
    table: dict[str, list[float]] = {}
    for row in read_jsonl(path):
        try:
            table[str(row["sample_id"])] = [float(x) for x in row["features"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed image-feature row in {path}: {exc}") from exc
    return table


def write_image_features(path: PathLike, table: Mapping[str, Sequence[float]]) -> None:
    write_jsonl(path, ({"sample_id": sid, "features": list(map(float, feats))}
                       for sid, feats in table.items()))
