"""Record types, the one reader of every input file, and atomic writes.

``read_rows`` reads a JSONL file, numbering each row by its line, and applies
a caller's field parser to each; ``read_json`` reads a file holding one JSON
object and checks it against its caller's field map. ``check_row`` is the one
check of the fields of a row or document: a record type declares them by its
annotations, any other a small field map. A bad file raises one error naming
the file, and for a row its number and sample id: ``{path}: row N (sample
'id'): field 'x' must be ..., got ...``; for a document, what it is.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import reprlib
import secrets
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import (IO, Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar,
                    Union, get_args, get_origin)

import numpy as np

from .errors import DataError, field_types

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
        return dict(vars(self))  # the fields in declaration order, each immutable

    @classmethod
    def from_dict(cls, row: Mapping) -> "RawRecord":
        return cls(**check_row(row, field_types(cls)))


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
        return {"sample_id": self.sample_id, "scalars": vars(self.scalars).copy(),
                "ethnicity": self.ethnicity, "chief_ids": list(self.chief_ids),
                "icd_ids": list(self.icd_ids), "image_features": list(self.image_features),
                "report_ids": list(self.report_ids), "report_text": self.report_text}

    @classmethod
    def from_dict(cls, row: Mapping) -> "PatientRecord":
        return cls(**check_row(row, field_types(cls)))


# the types of the elements of a JSON list of each kind: type(True) is bool, not int
_ELEMENT_TYPES = {list[str]: {str}, list[int]: {int}, list[float]: {float}}
_NUMBERS, _NUMBER_TYPES = list[float], {int, float}
_WANTED = {str: "text", int: "an integer", float: "a number", list[str]: "a list of strings",
           list[int]: "a list of integers", list[float]: "a list of numbers", dict: "an object"}


def check_row(row: Mapping, kinds: Mapping[str, type], within: str = "") -> dict:
    """The fields ``kinds`` names, checked; other keys are ignored. ``str`` takes
    a JSON string, ``int`` an integer, ``float`` an integer or float as a float,
    neither a bool; ``list[X]`` a list of X; ``dict`` any object, ``dict[str, X]``
    an object whose every value is an X; a dataclass an object of exactly its
    fields. A DataError names a missing or rejected field, prefixed by ``within``."""
    out = {}
    for name, kind in kinds.items():
        value = row.get(name)  # None, when missing, is no field's value
        t = type(value)
        if t is kind:
            pass
        elif kind is float and t is int:
            value = float(value)
        elif t is list and kind in _ELEMENT_TYPES \
                and _ELEMENT_TYPES[kind].issuperset(map(type, value)):
            pass
        elif t is list and kind == _NUMBERS and _NUMBER_TYPES.issuperset(map(type, value)):
            value = list(map(float, value))
        elif t is dict and is_dataclass(kind) and value.keys() == field_types(kind).keys():
            value = kind(**check_row(value, field_types(kind), f"{within}{name}."))
        elif t is dict and get_origin(kind) is dict:
            value = check_row(value, dict.fromkeys(value, get_args(kind)[1]), f"{within}{name}.")
        elif name not in row:
            raise DataError(f"missing field {within + name!r}")
        else:
            wanted = _WANTED.get(kind) or _WANTED.get(get_origin(kind)) \
                or f"an object of {', '.join(field_types(kind))}"
            raise DataError(f"field {within + name!r} must be {wanted}, "
                            f"got {reprlib.repr(value)}")
        out[name] = value
    return out


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
                parse: Callable[[dict], T]) -> tuple[list[int], list[T]]:
    """The line number of every row of the file, and ``parse`` of the row."""
    numbers, out = [], []
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
                    numbers.append(number)
                except (DataError, KeyError, TypeError, ValueError, OverflowError) as exc:
                    reason = f"missing field {exc}" if isinstance(exc, KeyError) else exc
                    raise DataError(f"{path}: row {number} (sample "
                                    f"{row.get('sample_id')!r}): {reason}") from exc
    except (OSError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return numbers, out


def read_rows(path: PathLike, parse: Callable[[dict], T]) -> list[T]:
    """``parse`` applied to every row of the JSONL file at ``path``. Blank
    lines are skipped but counted. A line that is not UTF-8 JSON or not an
    object raises a DataError naming the file and the row; so does a
    DataError, KeyError, TypeError, ValueError or OverflowError from
    ``parse``, with the row's sample id."""
    return _parse_rows(path, _json_rows, parse)[1]


def read_table(path: PathLike, field: str, kind: type) -> dict[str, object]:
    """{sample_id: ``field`` of type ``kind``} over the rows of a JSONL file;
    a sample id on two rows raises a DataError naming the file and both rows."""
    kinds, table, first_row = {"sample_id": str, field: kind}, {}, {}
    for number, row in zip(*_parse_rows(path, _json_rows, lambda row: check_row(row, kinds))):
        sample_id = row["sample_id"]
        if sample_id in table:
            raise DataError(f"{path}: rows {first_row[sample_id]} and {number} both hold "
                            f"sample {sample_id!r}")
        table[sample_id], first_row[sample_id] = row[field], number
    return table


def read_jsonl(path: PathLike) -> list[dict]:
    """Every row of the JSONL file at ``path``, each a JSON object."""
    return read_rows(path, lambda row: row)


def read_json(path: PathLike, what: str, error: type[Exception] = DataError, kinds=None,
              defaults: Optional[Mapping] = None) -> dict:
    """The JSON object the UTF-8 file at ``path`` holds; with ``kinds`` (a field
    map, or ``dict[str, X]`` for an object of X values), its fields checked by
    ``check_row``, a field left out taking its value in ``defaults``. Anything
    else raises ``error`` naming ``what`` the file is, its path and the field."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # UnicodeDecodeError and JSONDecodeError too
        raise error(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise error(f"{what} {path} must hold a JSON object, got {type(payload).__name__}")
    if kinds is None:
        return payload
    if get_origin(kinds) is dict:
        kinds = dict.fromkeys(payload, get_args(kinds)[1])
    try:
        return check_row({**(defaults or {}), **payload}, kinds)
    except DataError as exc:
        raise error(f"{what} {path}: {exc}") from exc


def file_sha256(path: PathLike) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _csv_record(row: dict) -> RawRecord:
    """CSV has no number type: the float fields' cells become floats, and a
    cell that is no number stays text for ``check_row`` to reject."""
    for name, kind in field_types(RawRecord).items():
        if kind is float:
            with contextlib.suppress(KeyError, TypeError, ValueError):
                row[name] = float(row[name])
    return RawRecord.from_dict(row)


def read_raw_records(path: PathLike) -> list[RawRecord]:
    """Load raw records from .jsonl or .csv (by extension), each row
    numbered by its line in the file."""
    if Path(path).suffix.lower() == ".csv":
        return _parse_rows(path, _csv_rows, _csv_record)[1]
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


def load_image_features(path: PathLike) -> dict[str, list[float]]:
    """Read a {sample_id, features} JSONL file into a lookup table; a malformed
    row or a repeated sample id raises a DataError naming the file and row."""
    return read_table(path, "features", list[float])


def write_image_features(path: PathLike, table: Mapping[str, Sequence[float]]) -> None:
    write_jsonl(path, ({"sample_id": sid, "features": list(map(float, feats))}
                       for sid, feats in table.items()))
