"""Record types, the one reader of every input file, and atomic writes.

``read_rows`` reads a JSONL file, numbering each row by its line, and applies
a caller's field parser to each; ``read_json`` reads a file holding one JSON
object. A bad file raises one error naming the file, and for a row its number
and sample id: ``{path}: row N (sample 'id'): ...``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import secrets
from dataclasses import dataclass, fields
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar, Union

import numpy as np

from .errors import DataError

PathLike = Union[str, Path]
T = TypeVar("T")


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
        return {"sample_id": self.sample_id, "acuity": self.acuity, "o2sat": self.o2sat,
                "heart_rate": self.heart_rate, "resp_rate": self.resp_rate,
                "sbp": self.sbp, "dbp": self.dbp,
                "temperature_celsius": self.temperature_celsius, "gender": self.gender,
                "ethnicity": self.ethnicity, "chief_complaint": self.chief_complaint,
                "icd_title": self.icd_title, "report": self.report}

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
            if isinstance(row[name], bool):  # float(True) would pass as 1.0
                raise DataError(f"record {sample_id}: field {name!r} must be a number, "
                                f"got bool {row[name]!r}")
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
        s = self.scalars
        return {"sample_id": self.sample_id,
                "scalars": {"heart_rate": s.heart_rate, "o2sat": s.o2sat,
                            "resp_rate": s.resp_rate, "sbp": s.sbp, "dbp": s.dbp,
                            "temperature": s.temperature, "acuity": s.acuity,
                            "gender": s.gender},
                "ethnicity": self.ethnicity, "chief_ids": list(self.chief_ids),
                "icd_ids": list(self.icd_ids), "image_features": list(self.image_features),
                "report_ids": list(self.report_ids), "report_text": self.report_text}

    @classmethod
    def from_dict(cls, row: Mapping) -> "PatientRecord":
        try:
            numeric = {"scalars": row["scalars"].values(), "ethnicity": [row["ethnicity"]],
                       **{name: row[name] for name in ("chief_ids", "icd_ids",
                                                       "image_features", "report_ids")}}
            for name, values in numeric.items():
                if bool in map(type, values):  # int(True) and float(True) would pass as 1
                    raise DataError(f"field {name!r} must hold numbers, got a bool")
            return cls(
                sample_id=str(row["sample_id"]),
                scalars=ScalarFeatures(**{k: float(v) for k, v in row["scalars"].items()}),
                ethnicity=int(row["ethnicity"]),
                chief_ids=[int(i) for i in row["chief_ids"]],
                icd_ids=[int(i) for i in row["icd_ids"]],
                image_features=[float(x) for x in row["image_features"]],
                report_ids=[int(i) for i in row["report_ids"]],
                report_text=str(row["report_text"]),
            )
        except KeyError as exc:
            raise DataError(f"malformed patient record: missing field {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
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


def write_json(path: PathLike, payload: Mapping) -> None:
    """``payload`` as sorted JSON indented by two spaces, ending in a newline."""
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _json_rows(path: PathLike, fh: IO[bytes]) -> Iterator[tuple[int, object]]:
    """(line number, value) for each non-blank line of a JSONL file."""
    for number, raw in enumerate(fh, start=1):
        try:
            line = raw.decode("utf-8")
            if not line.strip():
                continue
            yield number, json.loads(line)
        except ValueError as exc:  # UnicodeDecodeError or json.JSONDecodeError
            raise DataError(f"{path}: row {number} is not UTF-8 JSON: {exc}") from exc


def _csv_rows(path: PathLike, fh: IO[bytes]) -> Iterator[tuple[int, dict]]:
    """(line number, row) for each record of a CSV file with a header line."""
    reader = csv.DictReader(raw.decode("utf-8") for raw in fh)
    try:
        for row in reader:
            yield reader.line_num, row
    except UnicodeDecodeError as exc:  # raised while the next line was read
        raise DataError(f"{path}: row {reader.line_num + 1} is not UTF-8 text: "
                        f"{exc}") from exc


def _parse_rows(path: PathLike, rows: Callable[[PathLike, IO[bytes]], Iterator],
                parse: Callable[[dict], T]) -> list[T]:
    out = []
    try:
        with open(path, "rb") as fh:
            # decode all rows before parsing any: freed together, not between
            # long-lived records, they leave the desk workload's peak RSS 3 MB lower
            for number, row in list(rows(path, fh)):
                if not isinstance(row, dict):
                    raise DataError(f"{path}: row {number} is a {type(row).__name__}, "
                                    f"not a JSON object")
                try:
                    out.append(parse(row))
                except (DataError, KeyError, TypeError, ValueError) as exc:
                    reason = f"missing field {exc}" if isinstance(exc, KeyError) else exc
                    raise DataError(f"{path}: row {number} (sample "
                                    f"{row.get('sample_id')!r}): {reason}") from exc
    except (OSError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return out


def read_rows(path: PathLike, parse: Callable[[dict], T]) -> list[T]:
    """``parse`` applied to every row of the JSONL file at ``path``. Blank
    lines are skipped but counted. A line that is not UTF-8 JSON or not an
    object raises a DataError naming the file and the row; so does a
    DataError, KeyError, TypeError or ValueError from ``parse``, with the
    row's sample id."""
    return _parse_rows(path, _json_rows, parse)


def read_jsonl(path: PathLike) -> list[dict]:
    """Every row of the JSONL file at ``path``, each a JSON object."""
    return read_rows(path, lambda row: row)


def read_json(path: PathLike, what: str, error: type[Exception] = DataError) -> dict:
    """The JSON object the UTF-8 file at ``path`` holds. Anything else raises
    ``error`` naming ``what`` the file is and its path."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # UnicodeDecodeError and JSONDecodeError too
        raise error(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise error(f"{what} {path} must hold a JSON object, got {type(payload).__name__}")
    return payload


def file_sha256(path: PathLike) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read_raw_records(path: PathLike) -> list[RawRecord]:
    """Load raw records from .jsonl or .csv (by extension), each row
    numbered by its line in the file."""
    if Path(path).suffix.lower() == ".csv":
        return _parse_rows(path, _csv_rows, RawRecord.from_dict)
    return read_rows(path, RawRecord.from_dict)


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
    """Load a preprocessed split; a malformed row raises a DataError naming
    the file, the row number and the row's sample id."""
    return read_rows(path, PatientRecord.from_dict)


def write_patient_records(path: PathLike, records: Sequence[PatientRecord]) -> None:
    write_jsonl(path, (r.to_dict() for r in records))


def _image_feature_row(row: Mapping) -> tuple[str, list[float]]:
    try:
        if bool in map(type, row["features"]):  # float(True) would pass as 1.0
            raise DataError("field 'features' must hold numbers, got a bool")
        return str(row["sample_id"]), [float(x) for x in row["features"]]
    except (DataError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed image-feature row: {exc}") from exc


def load_image_features(path: PathLike) -> dict[str, list[float]]:
    """Read a {sample_id, features} JSONL file into a lookup table; a malformed
    row raises a DataError naming the file, the row number and the sample id."""
    return dict(read_rows(path, _image_feature_row))


def write_image_features(path: PathLike, table: Mapping[str, Sequence[float]]) -> None:
    write_jsonl(path, ({"sample_id": sid, "features": list(map(float, feats))}
                       for sid, feats in table.items()))
