"""Record types: direct serialization, ingestion checks, and one error shape
for every input file the package reads."""

import json
import re
from dataclasses import fields
from typing import get_type_hints
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cxrgen.cli import _load_config_file
from cxrgen.errors import ConfigurationError, DataError, EvaluationError
from cxrgen.metrics import FileEmbeddings
from cxrgen.model import ReportGenerator
from cxrgen.params import save_checkpoint
from cxrgen.pipeline import read_generations, run_evaluation
from cxrgen.records import (PatientRecord, RawRecord, ScalarFeatures, load_image_features,
                            read_patient_records, read_raw_records, write_image_features,
                            write_jsonl, write_patient_records, write_raw_records_csv)
from cxrgen.synth import (DatasetManifest, SyntheticConfig, SyntheticDataset,
                          load_planted_phrases, write_synthetic_dataset)
from cxrgen.vocab import Vocabulary

from helpers import patient_record_dict_reference, raw_record_dict_reference

_floats = st.floats(allow_nan=False)
_ids = st.lists(st.integers(min_value=0, max_value=10_000), max_size=12)

raw_records = st.builds(
    RawRecord, sample_id=st.text(), acuity=_floats, o2sat=_floats, heart_rate=_floats,
    resp_rate=_floats, sbp=_floats, dbp=_floats, temperature_celsius=_floats,
    gender=st.text(), ethnicity=st.text(), chief_complaint=st.text(),
    icd_title=st.text(), report=st.text())

patient_records = st.builds(
    PatientRecord, sample_id=st.text(),
    scalars=st.builds(ScalarFeatures, *[st.floats(0.0, 1.0)] * 8),
    ethnicity=st.integers(1, 9), chief_ids=_ids, icd_ids=_ids,
    image_features=st.lists(_floats, max_size=70), report_ids=_ids, report_text=st.text())


def _names(cls) -> list[str]:
    return [f.name for f in fields(cls)]


class TestToDict:
    @settings(max_examples=100, deadline=None)
    @given(raw_records)
    def test_raw_record_matches_asdict_in_field_order(self, rec):
        d = rec.to_dict()
        assert d == raw_record_dict_reference(rec)
        assert list(d) == _names(RawRecord)

    @settings(max_examples=100, deadline=None)
    @given(patient_records)
    def test_patient_record_matches_asdict_in_field_order(self, rec):
        d = rec.to_dict()
        assert d == patient_record_dict_reference(rec)
        assert list(d) == _names(PatientRecord)
        assert list(d["scalars"]) == _names(ScalarFeatures) == list(ScalarFeatures.ORDER)
        assert json.dumps(d, sort_keys=True) == \
            json.dumps(patient_record_dict_reference(rec), sort_keys=True)

    @settings(max_examples=50, deadline=None)
    @given(patient_records)
    def test_mutating_the_dict_leaves_the_record_unchanged(self, rec):
        before = patient_record_dict_reference(rec)
        d = rec.to_dict()
        for name in ("chief_ids", "icd_ids", "image_features", "report_ids"):
            assert d[name] is not getattr(rec, name)
            d[name].append(-1)
            d[name][0] = -2
        d["scalars"]["o2sat"] = -3.0
        assert patient_record_dict_reference(rec) == before


class TestRawRecordFromDict:
    ROW = dict(sample_id="s1", acuity=2.0, o2sat=97.0, heart_rate=80.0, resp_rate=16.0,
               sbp=120.0, dbp=80.0, temperature_celsius=37.0, gender="Male",
               ethnicity="White", chief_complaint="cp", icd_title="pneumonia",
               report="the lungs are clear")

    def test_round_trip(self):
        assert RawRecord.from_dict(self.ROW).to_dict() == self.ROW

    @pytest.mark.parametrize("field", ["acuity", "o2sat", "temperature_celsius"])
    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_in_a_numeric_field_rejected(self, field, value):
        with pytest.raises(DataError, match=f"^field {field!r} must be a number, "
                                            f"got {value}$"):
            RawRecord.from_dict({**self.ROW, field: value})

    def test_json_integers_accepted(self):
        rec = RawRecord.from_dict({**self.ROW, "acuity": 3, "o2sat": 98})
        assert (rec.acuity, rec.o2sat) == (3.0, 98.0)
        assert type(rec.acuity) is float and type(rec.o2sat) is float

    def test_numeric_text_in_a_csv_accepted(self, tmp_path):
        path = tmp_path / "records.csv"
        write_raw_records_csv(path, [RawRecord.from_dict(self.ROW)])
        path.write_text(path.read_text(encoding="utf-8").replace(",97.0,", ",98.5,"),
                        encoding="utf-8")
        (rec,) = read_raw_records(path)
        assert rec.o2sat == 98.5 and type(rec.o2sat) is float

    def test_numeric_text_in_json_rejected(self, tmp_path):
        with pytest.raises(DataError, match="^field 'o2sat' must be a number, got '98.5'$"):
            RawRecord.from_dict({**self.ROW, "o2sat": "98.5"})
        path = tmp_path / "records.jsonl"
        write_jsonl(path, [self.ROW, {**self.ROW, "sample_id": "s2", "o2sat": "98.5"}])
        where = re.escape(f"{path}: row 2 (sample 's2'): field 'o2sat' must be a number, "
                          f"got '98.5'")
        with pytest.raises(DataError, match=f"^{where}$"):
            read_raw_records(path)


class TestReadPatientRecords:
    def _split(self, tmp_path, rows):
        path = tmp_path / "train.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        return path

    def _rows(self, tmp_path):
        recs = [PatientRecord(f"p{i}", ScalarFeatures(*[0.5] * 7, 1.0), 2, [4, 5], [6],
                              [0.1, 0.2], [1, 7, 2], "clear") for i in range(3)]
        path = tmp_path / "good.jsonl"
        write_patient_records(path, recs)
        assert read_patient_records(path) == recs
        return [json.loads(line) for line in path.read_text().splitlines()]

    @pytest.mark.parametrize("field", ["scalars", "report_ids", "sample_id"])
    def test_missing_field_names_file_row_and_sample(self, tmp_path, field):
        rows = self._rows(tmp_path)
        del rows[1][field]
        path = self._split(tmp_path, rows)
        sample = None if field == "sample_id" else "p1"
        with pytest.raises(DataError) as caught:
            read_patient_records(path)
        assert str(caught.value) == f"{path}: row 2 (sample {sample!r}): missing field {field!r}"

    @pytest.mark.parametrize("field,value,wanted", [
        ("scalars", [0.5] * 8, "an object of heart_rate, o2sat, resp_rate, sbp, dbp, "
                               "temperature, acuity, gender"),
        ("chief_ids", ["a"], "a list of integers"),
        ("scalars", {"o2sat": 0.5}, "an object of heart_rate,"),
    ], ids=["scalars-value0", "chief_ids-value1", "scalars-value2"])
    def test_malformed_value_names_file_row_and_sample(self, tmp_path, field, value, wanted):
        rows = self._rows(tmp_path)
        rows[2][field] = value
        path = self._split(tmp_path, rows)
        where = re.escape(f"{path}: row 3 (sample 'p2'): field {field!r} must be {wanted}")
        with pytest.raises(DataError, match=f"^{where}"):
            read_patient_records(path)

    @pytest.mark.parametrize("field, edit", [
        ("scalars.heart_rate", lambda row: row["scalars"].update(heart_rate=True)),
        ("ethnicity", lambda row: row.update(ethnicity=True)),
        ("chief_ids", lambda row: row["chief_ids"].__setitem__(0, True)),
        ("icd_ids", lambda row: row["icd_ids"].__setitem__(0, False)),
        ("report_ids", lambda row: row["report_ids"].__setitem__(1, True)),
        ("image_features", lambda row: row["image_features"].__setitem__(1, False)),
    ], ids=["scalars", "ethnicity", "chief_ids", "icd_ids", "report_ids", "image_features"])
    def test_boolean_in_a_numeric_field_rejected(self, tmp_path, field, edit):
        # int(True) and float(True) are 1: a JSON true would be read as an id or value
        rows = self._rows(tmp_path)
        edit(rows[1])
        path = self._split(tmp_path, rows)
        where = re.escape(f"{path}: row 2 (sample 'p1'): field {field!r} must be ")
        with pytest.raises(DataError, match=f"^{where}.*(True|False)"):
            read_patient_records(path)

    def test_row_that_is_no_object_named(self, tmp_path):
        rows = self._rows(tmp_path)
        path = self._split(tmp_path, [rows[0], [1, 2]])
        where = re.escape(f"{path}: row 2 is a list, not a JSON object")
        with pytest.raises(DataError, match=f"^{where}$"):
            read_patient_records(path)


class TestLoadImageFeatures:
    def _rows(self, tmp_path):
        path = tmp_path / "good.jsonl"
        write_image_features(path, {f"s{i}": [0.5, 0.25] for i in range(3)})
        assert load_image_features(path) == {f"s{i}": [0.5, 0.25] for i in range(3)}
        return [json.loads(line) for line in path.read_text().splitlines()]

    @pytest.mark.parametrize("edit, message", [
        (lambda row: row["features"].__setitem__(0, True),
         "field 'features' must be a list of numbers, got [True, 0.25]"),
        (lambda row: row.pop("features"), "missing field 'features'"),
        (lambda row: row.update(features=["a", 0.5]),
         "field 'features' must be a list of numbers, got ['a', 0.5]"),
    ], ids=["bool", "missing", "text"])
    def test_malformed_row_names_file_row_and_sample(self, tmp_path, edit, message):
        # float(True) is 1.0: a JSON true would be read as a feature value
        rows = self._rows(tmp_path)
        edit(rows[1])
        path = tmp_path / "features.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        where = re.escape(f"{path}: row 2 (sample 's1'): {message}")
        with pytest.raises(DataError, match=f"^{where}$"):
            load_image_features(path)

    def test_row_that_is_no_object_named(self, tmp_path):
        path = tmp_path / "features.jsonl"
        path.write_text("[1, 2]\n", encoding="utf-8")
        where = re.escape(f"{path}: row 1 is a list, not a JSON object")
        with pytest.raises(DataError, match=f"^{where}$"):
            load_image_features(path)


RAW_ROW = TestRawRecordFromDict.ROW
PATIENT_ROW = PatientRecord("p0", ScalarFeatures(*[0.5] * 8), 2, [4], [6], [0.1], [1, 2],
                            "clear").to_dict()

# reader -> (file name, how it reads the path, error class, a good first row or
# None for a file that holds one JSON document)
READERS = {
    "raw-jsonl": ("records.jsonl", read_raw_records, DataError, RAW_ROW),
    "patient-split": ("train.jsonl", read_patient_records, DataError, PATIENT_ROW),
    "features": ("features.jsonl", load_image_features, DataError,
                 {"sample_id": "s0", "features": [0.5]}),
    "generations": ("generated.jsonl", run_evaluation, DataError,
                    {"sample_id": "s0", "generated": "a", "reference": "a"}),
    "planted": ("planted.jsonl", load_planted_phrases, DataError,
                {"sample_id": "s0", "phrases": ["a b"]}),
    "vocabulary": ("vocab.json", Vocabulary.load, DataError, None),
    "manifest": ("manifest.json", lambda path: DatasetManifest.load(path.parent),
                 DataError, None),
    "config": ("cfg.json", lambda path: _load_config_file(str(path)), ConfigurationError,
               None),
    "embeddings": ("emb.json", FileEmbeddings.load, EvaluationError, None),
}

# input -> the bytes of line 3, after a good row on line 1 and a blank line 2
ROW_INPUTS = {
    "non-utf8": b'{"sample_id": "s\xff"}\n',
    "invalid-json": b'{"sample_id": \n',
    "not-an-object": b'["s9", 1]\n',
    "missing-fields": b'{"sample_id": "s9"}\n',
}

# input -> the whole file
DOCUMENT_INPUTS = {
    "non-utf8": b'{"tokens": ["\xff"]}\n',
    "invalid-json": b'{"tokens": \n',
    "not-an-object": b'[["a", 1.0]]\n',
}


def _read_error(tmp_path, reader, content):
    name, read, error, _ = READERS[reader]
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(error) as caught:
        read(path)
    return path, str(caught.value)


@pytest.mark.parametrize("case", sorted(ROW_INPUTS))
@pytest.mark.parametrize("reader", [r for r in READERS if READERS[r][3] is not None])
def test_a_bad_row_is_named_by_file_and_line(tmp_path, reader, case):
    good = json.dumps(READERS[reader][3]).encode()
    path, message = _read_error(tmp_path, reader, good + b"\n\n" + ROW_INPUTS[case])
    assert message.startswith(f"{path}: row 3 "), message
    if case == "missing-fields":
        assert message.startswith(f"{path}: row 3 (sample 's9'): "), message


@pytest.mark.parametrize("case", ["non-utf8", "missing-fields"])
def test_a_bad_csv_row_is_named_by_file_and_line(tmp_path, case):
    header = ",".join(RAW_ROW).encode()
    line = {"non-utf8": b"s\xff,1\n", "missing-fields": b"s9\n"}[case]
    path = tmp_path / "records.csv"
    path.write_bytes(header + b"\n\n" + line)
    with pytest.raises(DataError) as caught:
        read_raw_records(path)
    assert str(caught.value).startswith(f"{path}: row 3 "), str(caught.value)


@pytest.mark.parametrize("case", sorted(DOCUMENT_INPUTS))
@pytest.mark.parametrize("reader", [r for r in READERS if READERS[r][3] is None])
def test_a_bad_document_is_named_by_file(tmp_path, reader, case):
    path, message = _read_error(tmp_path, reader, DOCUMENT_INPUTS[case])
    assert str(path) in message
    if case == "not-an-object":
        assert message.endswith("must hold a JSON object, got list"), message


@pytest.mark.parametrize("phrases", ["low oxygen", None, 3, [None, 3]],
                         ids=["string", "null", "number", "non-strings"])
def test_planted_phrases_must_be_a_list_of_strings(tmp_path, phrases):
    rows = [{"sample_id": "s0", "phrases": ["a b"]}, {"sample_id": "s1", "phrases": phrases}]
    path = tmp_path / "planted.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    where = re.escape(f"{path}: row 2 (sample 's1'): field 'phrases' must be a list of "
                      f"strings, got {phrases!r}")
    with pytest.raises(DataError, match=f"^{where}$"):
        load_planted_phrases(path)


def test_a_vocabulary_token_must_be_text(tmp_path):
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps({"tokens": ["a", 1]}), encoding="utf-8")
    where = re.escape(f"vocabulary {path}: field 'tokens' must be a list of strings, "
                      f"got ['a', 1]")
    with pytest.raises(DataError, match=f"^{where}$"):
        Vocabulary.load(path)


def test_a_vocabulary_without_tokens_names_its_file(tmp_path):
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps({"words": ["a"]}), encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(f'vocabulary {path}: ')}"):
        Vocabulary.load(path)


def test_a_vocabulary_is_a_list_of_tokens_not_a_string(tmp_path):
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps({"tokens": "abc"}), encoding="utf-8")
    where = re.escape(f"vocabulary {path}: field 'tokens' must be a list of strings, "
                      f"got 'abc'")
    with pytest.raises(DataError, match=f"^{where}$"):
        Vocabulary.load(path)


@pytest.mark.parametrize("files, sha256", [
    ({"a": "x"}, {}),
    ({}, {"a": "h"}),
    ({"a": "x"}, {"b": "h"}),
    ({"a": 1}, {"a": "h"}),
    ({"a": "x"}, {"a": None}),
], ids=["hash-missing", "file-missing", "names-differ", "file-not-text", "hash-not-text"])
def test_a_manifest_hashes_each_file_by_name(tmp_path, files, sha256):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"files": {"a": "x"}, "sha256": {"a": "h"}}), encoding="utf-8")
    assert DatasetManifest.load(tmp_path).sha256 == {"a": "h"}
    path.write_text(json.dumps({"files": files, "sha256": sha256}), encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(f'manifest {path}: ')}"):
        DatasetManifest.load(tmp_path)


def _split_row_2(path):
    rec = read_patient_records(path)[1]
    return {**vars(rec), **{f"scalars.{name}": value for name, value in vars(rec.scalars).items()}}


def _table_row_2(load, field):
    return lambda path: dict(zip(("sample_id", field), list(load(path).items())[1]))


# row type -> (its reader in READERS, the declared kind of each field, and the
# fields of row 2 as the reader returns them)
ROW_TYPES = {
    "raw-jsonl": ("raw-jsonl", get_type_hints(RawRecord),
                  lambda path: vars(read_raw_records(path)[1])),
    "split": ("patient-split",
              {**get_type_hints(PatientRecord),
               **{f"scalars.{name}": kind
                  for name, kind in get_type_hints(ScalarFeatures).items()}},
              _split_row_2),
    "features": ("features", {"sample_id": str, "features": list[float]},
                 _table_row_2(load_image_features, "features")),
    "planted": ("planted", {"sample_id": str, "phrases": list[str]},
                _table_row_2(load_planted_phrases, "phrases")),
    "generations": ("generations", {"sample_id": str, "generated": str, "reference": str},
                    lambda path: read_generations(path)[1]),
}

# one value of each JSON type, and the values a coercing parser turns into another
JSON_VALUES = [None, True, False, 0, 7, -3, 2.7, 1e308, "", "123", [], [1, 2], ["a"], {}]


def _read_as(kind, value):
    """The value a reader returns for a JSON ``value`` that ``kind`` takes, or
    None if ``kind`` rejects it: a float field takes a JSON int as a float, and
    no number field takes a bool."""
    if kind is float and type(value) in (int, float):
        return float(value)
    if kind in (str, int, float):
        return value if type(value) is kind else None
    if getattr(kind, "__origin__", None) is list:
        if type(value) is not list:
            return None
        items = [_read_as(kind.__args__[0], x) for x in value]
        return None if None in items else items
    if kind is dict or getattr(kind, "__origin__", None) is dict:
        return value if value == {} else None  # the one object among JSON_VALUES
    return None  # the nested scalars: none of JSON_VALUES is an object of its eight fields


def _write_rows(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def _replaced(document, field, value):
    """A copy of ``document`` whose ``field`` (``outer.name`` for a nested one)
    is ``value``."""
    copy = json.loads(json.dumps(document))
    *outer, name = field.split(".")
    (copy[outer[0]] if outer else copy)[name] = value
    return copy


def _with_value(row_type, field, value):
    """The good row of ``row_type``, then a copy whose ``field`` is ``value``."""
    good = READERS[ROW_TYPES[row_type][0]][3]
    return [good, _replaced({**good, "sample_id": "s1"}, field, value)]


class _Built(Exception):
    """Stops ``ReportGenerator.load`` once it has checked the metadata."""


def _checkpoint_fields(path):
    """The vocabulary sizes and the preset name ``ReportGenerator.load`` hands to
    the model's build, which stops there: the test checkpoint holds no parameters."""
    built = {}

    def build(self, config, sizes, inputs, store):
        built.update({f"vocab_sizes.{name}": size for name, size in vars(sizes).items()},
                     inputs=inputs)
        raise _Built

    with mock.patch.object(ReportGenerator, "_build", build), pytest.raises(_Built):
        ReportGenerator.load(path)
    return built


def _tokens(vocab):
    """The tokens after the reserved ones, as a vocabulary file lists them."""
    return vocab.decode(range(len(vocab)))


def _write_json(path, document):
    path.write_text(json.dumps(document), encoding="utf-8")


def _unit(vector):
    return (np.asarray(vector, dtype=np.float64) / float(np.linalg.norm(vector))).tolist()


# document type, as its errors name the file -> (file name, how a document is
# written, the declared kind of each field, a good document, its fields as the
# loader returns them, what a kept value becomes, and the error class)
DOCUMENT_TYPES = {
    "vocabulary": ("vocab.json", _write_json, {"tokens": list[str]}, {"tokens": ["a"]},
                   lambda path: {"tokens": _tokens(Vocabulary.load(path))},
                   None, DataError),
    "manifest": ("manifest.json", _write_json,
                 {"files": dict[str, str], "sha256": dict[str, str], "meta": dict},
                 {"files": {"a": "x"}, "sha256": {"a": "h"}, "meta": {}},
                 lambda path: vars(DatasetManifest.load(path.parent)),
                 None, DataError),
    "embeddings": ("emb.json", _write_json, {"b": list[float]},
                   {"a": [0.6, 0.8], "b": [0.0, 1.0]},
                   lambda path: {"b": FileEmbeddings.load(path).vector("b").tolist()},
                   _unit, EvaluationError),
    "checkpoint": ("checkpoint.npz", lambda path, meta: save_checkpoint(path, {}, meta),
                   {"vocab_sizes.report": int, "vocab_sizes.chief": int,
                    "vocab_sizes.icd": int, "inputs": str},
                   {"model_config": {}, "vocab_sizes": {"report": 9, "chief": 5, "icd": 6},
                    "inputs": "all"},
                   _checkpoint_fields, None, DataError),
}


def _document_field_kept_or_named(tmp_path, document_type, field, value):
    """A document loader keeps ``value`` as ``field``'s declared kind, or raises
    its error class naming the file and the field. A value of the declared kind
    may still fail a check no schema states (one width for every embedding,
    one name set for files and hashes); that error names the file and field too."""
    name, write, kinds, good, read, keep, error = DOCUMENT_TYPES[document_type]
    path = tmp_path / name
    write(path, _replaced(good, field, value))
    expected = _read_as(kinds[field], value)
    prefix = f"{document_type} {path}: "
    if expected is None:
        with pytest.raises(error) as caught:
            read(path)
        assert str(caught.value).startswith(f"{prefix}field {field!r} must be "), \
            str(caught.value)
        return
    try:
        kept = read(path)[field]
    except error as exc:
        message = str(exc)
        assert message.startswith(prefix) and repr(field) in message, message
        assert not message.startswith(f"{prefix}field {field!r} must be "), message
    else:
        assert repr(kept) == repr(keep(expected) if keep else expected)


@pytest.mark.parametrize("row_type, field", [(t, f) for t, (_, kinds, _) in ROW_TYPES.items()
                                             for f in kinds]
                         + [(t, f) for t, (_, _, kinds, *_) in DOCUMENT_TYPES.items()
                            for f in kinds])
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(value=st.sampled_from(JSON_VALUES))
def test_a_field_keeps_its_declared_type_or_is_rejected_by_name(tmp_path, row_type, field,
                                                                value):
    if row_type in DOCUMENT_TYPES:
        _document_field_kept_or_named(tmp_path, row_type, field, value)
        return
    reader, kinds, read_row_2 = ROW_TYPES[row_type]
    rows = _with_value(row_type, field, value)
    path = tmp_path / READERS[reader][0]
    _write_rows(path, rows)
    expected = _read_as(kinds[field], value)
    if expected is None:
        with pytest.raises(DataError) as caught:
            read_row_2(path)
        assert str(caught.value).startswith(
            f"{path}: row 2 (sample {rows[1]['sample_id']!r}): field {field!r} must be "), \
            str(caught.value)
    else:
        # repr tells 7 from 7.0, so the kept value has its declared type too
        assert repr(read_row_2(path)[field]) == repr(expected)


@pytest.mark.parametrize("row_type, field, value", [
    ("split", "image_features", "123"),
    ("split", "chief_ids", "50"),
    ("split", "ethnicity", 2.7),
    ("split", "icd_ids", [5.9]),
    ("split", "report_text", None),
    ("split", "sample_id", 7),
    ("features", "sample_id", 7),
    ("planted", "sample_id", 7),
    ("generations", "sample_id", 7),
    ("checkpoint", "vocab_sizes.report", 10.9),
    ("checkpoint", "vocab_sizes.report", "10"),
    ("checkpoint", "inputs", ["all"]),
    ("checkpoint", "inputs", 3),
    ("manifest", "files", [["a", "x"]]),
    ("manifest", "sha256", [["a", "h"]]),
    ("manifest", "meta", [["generator", "synthetic"]]),
])
def test_a_value_no_longer_coerced_is_rejected(tmp_path, row_type, field, value):
    if row_type in DOCUMENT_TYPES:
        name, write, _, good, read, _, error = DOCUMENT_TYPES[row_type]
        path = tmp_path / name
        write(path, _replaced(good, field, value))
        with pytest.raises(error, match=f"^{re.escape(f'{row_type} {path}: field {field!r}')}"):
            read(path)
        return
    reader, _, read_row_2 = ROW_TYPES[row_type]
    path = tmp_path / READERS[reader][0]
    rows = _with_value(row_type, field, value)
    _write_rows(path, rows)
    where = re.escape(f"{path}: row 2 (sample {rows[1]['sample_id']!r}): field {field!r} "
                      f"must be ")
    with pytest.raises(DataError, match=f"^{where}"):
        read_row_2(path)


@pytest.mark.parametrize("reader, load", [("features", load_image_features),
                                          ("planted", load_planted_phrases)])
def test_a_repeated_sample_id_names_both_rows(tmp_path, reader, load):
    name, _, _, good = READERS[reader]
    path = tmp_path / name
    other = {**good, "sample_id": "s1"}
    _write_rows(path, [good, other])
    assert list(load(path)) == ["s0", "s1"]
    # a second row for the first id, which a dict would let win silently
    _write_rows(path, [good, other, {**good, "phrases": [], "features": []}])
    where = re.escape(f"{path}: rows 1 and 3 both hold sample 's0'")
    with pytest.raises(DataError, match=f"^{where}$"):
        load(path)


_sample_ids = st.lists(st.text(), min_size=1, max_size=6, unique=True)


class TestEveryWrittenFileReadsBack:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(raw_records, max_size=6, unique_by=lambda rec: rec.sample_id),
           st.lists(st.lists(_floats, max_size=5), min_size=6, max_size=6),
           st.lists(st.lists(st.text(), max_size=4), min_size=6, max_size=6),
           st.sampled_from(["jsonl", "csv"]))
    def test_a_synthetic_dataset(self, tmp_path, records, features, phrases, record_format):
        ids = [rec.sample_id for rec in records]
        dataset = SyntheticDataset(records, dict(zip(ids, features)), dict(zip(ids, phrases)),
                                   SyntheticConfig())
        write_synthetic_dataset(dataset, tmp_path, record_format=record_format)
        assert read_raw_records(tmp_path / f"records.{record_format}") == records
        assert load_image_features(tmp_path / "features.jsonl") == dataset.image_features
        assert load_planted_phrases(tmp_path / "planted.jsonl") == dataset.planted_phrases

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(patient_records, max_size=4))
    def test_a_split(self, tmp_path, records):
        path = tmp_path / "train.jsonl"
        write_patient_records(path, records)
        assert read_patient_records(path) == records
