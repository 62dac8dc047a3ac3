"""Record types: direct serialization, ingestion checks, named read errors."""

import json
import re
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxrgen.errors import DataError
from cxrgen.records import (PatientRecord, RawRecord, ScalarFeatures, load_image_features,
                            read_patient_records, write_image_features, write_patient_records)

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
        with pytest.raises(DataError, match=f"record s1: field {field!r} must be a number, "
                                            f"got bool {value}"):
            RawRecord.from_dict({**self.ROW, field: value})

    def test_numeric_strings_and_integers_accepted(self):
        rec = RawRecord.from_dict({**self.ROW, "acuity": 3, "o2sat": "98.5"})
        assert (rec.acuity, rec.o2sat) == (3.0, 98.5)


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
        assert str(caught.value) == (f"{path}: row 2 (sample {sample!r}): malformed patient "
                                     f"record: missing field {field!r}")

    @pytest.mark.parametrize("field,value", [("scalars", [0.5] * 8), ("chief_ids", ["a"]),
                                             ("scalars", {"o2sat": 0.5})])
    def test_malformed_value_names_file_row_and_sample(self, tmp_path, field, value):
        rows = self._rows(tmp_path)
        rows[2][field] = value
        path = self._split(tmp_path, rows)
        where = re.escape(f"{path}: row 3 (sample 'p2'): malformed")
        with pytest.raises(DataError, match=f"^{where}"):
            read_patient_records(path)

    @pytest.mark.parametrize("field, edit", [
        ("scalars", lambda row: row["scalars"].update(heart_rate=True)),
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
        where = re.escape(f"{path}: row 2 (sample 'p1'): field {field!r} must hold numbers, "
                          f"got a bool")
        with pytest.raises(DataError, match=f"^{where}$"):
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
         "field 'features' must hold numbers, got a bool"),
        (lambda row: row.pop("features"), "'features'"),
        (lambda row: row.update(features=["a", 0.5]), "could not convert"),
    ], ids=["bool", "missing", "text"])
    def test_malformed_row_names_file_row_and_sample(self, tmp_path, edit, message):
        # float(True) is 1.0: a JSON true would be read as a feature value
        rows = self._rows(tmp_path)
        edit(rows[1])
        path = tmp_path / "features.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        where = re.escape(f"{path}: row 2 (sample 's1'): malformed image-feature row: ")
        with pytest.raises(DataError, match=f"^{where}.*{re.escape(message)}"):
            load_image_features(path)

    def test_row_that_is_no_object_named(self, tmp_path):
        path = tmp_path / "features.jsonl"
        path.write_text("[1, 2]\n", encoding="utf-8")
        where = re.escape(f"{path}: row 1 is a list, not a JSON object")
        with pytest.raises(DataError, match=f"^{where}$"):
            load_image_features(path)
