"""Preprocessing: golden text rules, encodings, normalization, outliers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxrgen.errors import ConfigurationError, ContractError, DataError
from cxrgen.preprocess import (ABBREVIATIONS, ETHNICITY_GROUPS, FeatureStats,
                               NormalizationStats, PLAUSIBLE_RANGES, PreprocessConfig,
                               build_patient_record, celsius_to_fahrenheit,
                               encode_acuity, encode_gender, encode_report,
                               map_ethnicity, minmax_normalize, pad_truncate,
                               remove_outliers, standardize_text,
                               tokenize_and_fit_vocab, within_plausible_ranges)
from cxrgen.records import RawRecord
from cxrgen.vocab import (END_ID, PAD_ID, START_ID, UNK_ID, Vocabulary)


def make_raw(**overrides) -> RawRecord:
    base = dict(sample_id="r1", acuity=2.0, o2sat=97.0, heart_rate=80.0,
                resp_rate=16.0, sbp=120.0, dbp=80.0, temperature_celsius=37.0,
                gender="Male", ethnicity="White", chief_complaint="cp",
                icd_title="pneumonia", report="the lungs are clear")
    base.update(overrides)
    return RawRecord(**base)


class TestStandardizeText:
    # The golden rules: exact expected strings.
    GOLDEN = [
        ("CP", "chest pain"),
        ("cp", "chest pain"),
        ("SOB", "dyspnea"),
        ("shortness of breath", "dyspnea"),
        ("chest pain, dyspnea", "chest pain and dyspnea"),
        ("Fevers", "fever"),
        ("Chest   pain.\nSOB..", "chest pain dyspnea"),
        ("", ""),
    ]

    @pytest.mark.parametrize("raw,expected", GOLDEN)
    def test_golden_rules(self, raw, expected):
        assert standardize_text(raw) == expected

    def test_lowercases_and_collapses_whitespace(self):
        assert standardize_text("  The   LUNGS\n are\tclear ") == "the lungs are clear"

    def test_comma_join_inserts_and(self):
        assert standardize_text("nausea, vomiting, diarrhea") == \
            "nausea and vomiting and diarrhea"

    def test_periods_removed(self):
        assert standardize_text("clear. no effusion.") == "clear no effusion"

    def test_whole_word_only(self):
        # 'cp' must not fire inside larger words
        assert standardize_text("bcpx cpx xcp") == "bcpx cpx xcp"

    @pytest.mark.parametrize("raw,_", GOLDEN)
    def test_golden_outputs_are_fixed_points(self, raw, _):
        once = standardize_text(raw)
        assert standardize_text(once) == once

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=st.sampled_from(list("abcdefghijklmnopqrstuvwxyz"
                                                 "ABCDEFGHIJ ,.\n\t0123456789")),
                   max_size=80))
    def test_idempotent_on_arbitrary_text(self, raw):
        once = standardize_text(raw)
        assert standardize_text(once) == once

    def test_core_rules_present_in_default(self):
        assert ABBREVIATIONS[:4] == (("shortness of breath", "dyspnea"), ("sob", "dyspnea"),
                                     ("cp", "chest pain"), ("fevers", "fever"))
        for pat, repl in ABBREVIATIONS:
            assert standardize_text(f"x {pat.upper()} y") == f"x {repl} y"


class TestScalarEncodings:
    def test_celsius_to_fahrenheit(self):
        assert celsius_to_fahrenheit(0.0) == 32.0
        assert celsius_to_fahrenheit(37.0) == pytest.approx(98.6)
        assert celsius_to_fahrenheit(100.0) == 212.0

    def test_gender_mapping(self):
        assert encode_gender("Male") == 0.0
        assert encode_gender("male") == 0.0
        assert encode_gender("FEMALE") == 1.0
        assert encode_gender(" Female ") == 1.0

    def test_gender_unknown_rejected_with_record(self):
        with pytest.raises(DataError, match="r77"):
            encode_gender("other", sample_id="r77")

    def test_acuity_rescaled(self):
        assert encode_acuity(1.0) == 0.0
        assert encode_acuity(3.0) == 0.5
        assert encode_acuity(5.0) == 1.0
        with pytest.raises(ContractError):
            encode_acuity(0.5)

    def test_ethnicity_order_and_fallback(self):
        expected = {"White": 1, "African American": 2, "Hispanic/Latino": 3,
                    "Black": 4, "Asian": 5, "White/European": 6, "Russian": 7,
                    "Other": 8, "Unknown": 9}
        for name, idx in expected.items():
            assert map_ethnicity(name) == idx
        assert map_ethnicity("white") == 1  # case-insensitive
        assert map_ethnicity("zzz-unlisted") == 9
        assert map_ethnicity("") == 9
        assert len(ETHNICITY_GROUPS) == 9


class TestNormalization:
    def test_minmax_basic_and_clamped(self):
        stats = FeatureStats(10.0, 20.0)
        assert minmax_normalize(10.0, stats) == 0.0
        assert minmax_normalize(20.0, stats) == 1.0
        assert minmax_normalize(15.0, stats) == 0.5
        assert minmax_normalize(5.0, stats) == 0.0    # clamped below
        assert minmax_normalize(25.0, stats) == 1.0   # clamped above

    def test_degenerate_stats_rejected(self):
        with pytest.raises(ConfigurationError):
            minmax_normalize(1.0, FeatureStats(5.0, 5.0))
        records = [make_raw(sample_id=f"r{i}") for i in range(3)]
        with pytest.raises(ConfigurationError):
            NormalizationStats.fit(records)  # identical rows -> min == max

    def test_fit_uses_fahrenheit_for_temperature(self):
        records = [make_raw(sample_id="a", temperature_celsius=36.0, heart_rate=60,
                            o2sat=90, resp_rate=10, sbp=100, dbp=60),
                   make_raw(sample_id="b", temperature_celsius=40.0, heart_rate=120,
                            o2sat=100, resp_rate=30, sbp=180, dbp=100)]
        stats = NormalizationStats.fit(records)
        assert stats.features["temperature"].minimum == pytest.approx(96.8)
        assert stats.features["temperature"].maximum == pytest.approx(104.0)


class TestOutlierRemoval:
    @pytest.mark.parametrize("field,bad_value", [
        ("heart_rate", 10.0), ("heart_rate", 350.0),
        ("o2sat", 40.0), ("o2sat", 101.0),
        ("resp_rate", 2.0), ("resp_rate", 90.0),
        ("sbp", 40.0), ("sbp", 301.0),
        ("dbp", 10.0), ("dbp", 250.0),
        ("temperature_celsius", 25.0), ("temperature_celsius", 44.0),
        ("acuity", 0.0), ("acuity", 6.0),
    ])
    def test_out_of_range_dropped(self, field, bad_value):
        rec = make_raw(**{field: bad_value})
        assert not within_plausible_ranges(rec)
        assert remove_outliers([rec, make_raw(sample_id="ok")]) == [make_raw(sample_id="ok")]

    def test_boundaries_kept(self):
        for field, (lo, hi) in PLAUSIBLE_RANGES.items():
            assert within_plausible_ranges(make_raw(**{field: lo}))
            assert within_plausible_ranges(make_raw(**{field: hi}))

    def test_non_finite_dropped(self):
        assert not within_plausible_ranges(make_raw(heart_rate=float("nan")))

    def test_logs_dropped_count(self, caplog):
        import logging
        with caplog.at_level(logging.INFO, logger="cxrgen.preprocess"):
            remove_outliers([make_raw(heart_rate=999.0), make_raw(sample_id="ok")])
        assert any("dropped 1 of 2" in m for m in caplog.messages)


class TestVocabulary:
    def test_reserved_ids(self):
        v = Vocabulary.fit(["alpha beta", "beta"])
        assert (PAD_ID, START_ID, END_ID, UNK_ID) == (0, 1, 2, 3)
        assert v.token_of(0) == "<pad>"
        assert v.token_of(1) == "<start>"
        assert v.token_of(2) == "<end>"
        assert v.token_of(3) == "<unk>"

    def test_frequency_then_lexicographic(self):
        v = Vocabulary.fit(["c b b a a", "a"])
        # a:3, b:2, c:1 -> ids 4, 5, 6
        assert v.id_of("a") == 4
        assert v.id_of("b") == 5
        assert v.id_of("c") == 6

    def test_ties_break_lexicographically(self):
        v = Vocabulary.fit(["zebra apple", "zebra apple"])
        assert v.id_of("apple") == 4
        assert v.id_of("zebra") == 5

    def test_unknown_maps_to_unk(self):
        v = Vocabulary.fit(["a b"])
        assert v.id_of("missing") == UNK_ID
        assert v.encode("a missing b") == [4, UNK_ID, 5]

    def test_round_trip_ids(self):
        v = Vocabulary.fit(["the lungs are clear", "the heart is big"])
        ids = v.encode("the lungs are clear")
        assert v.decode(ids) == ["the", "lungs", "are", "clear"]

    def test_decode_skips_specials(self):
        v = Vocabulary.fit(["a b"])
        ids = [START_ID] + v.encode("a b") + [END_ID, PAD_ID]
        assert v.text(ids) == "a b"

    def test_out_of_range_id_rejected(self):
        v = Vocabulary.fit(["a"])
        with pytest.raises(ContractError):
            v.token_of(len(v))

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigurationError):
            tokenize_and_fit_vocab([])

    def test_save_load(self, tmp_path):
        v = Vocabulary.fit(["alpha beta gamma", "beta"])
        v.save(tmp_path / "v.json")
        again = Vocabulary.load(tmp_path / "v.json")
        assert again.size == v.size
        assert again.id_of("beta") == v.id_of("beta")


class TestPadTruncateAndReport:
    def test_pad(self):
        assert pad_truncate([5, 6], 4) == [5, 6, PAD_ID, PAD_ID]

    def test_truncate(self):
        assert pad_truncate([5, 6, 7, 8], 2) == [5, 6]

    def test_exact(self):
        assert pad_truncate([5, 6], 2) == [5, 6]

    def test_encode_report_frames_and_pads(self):
        v = Vocabulary.fit(["a b c"])
        ids = encode_report(v.encode("a b"), 6)
        assert ids[0] == START_ID
        assert END_ID in ids
        assert len(ids) == 6
        assert ids == [START_ID, v.id_of("a"), v.id_of("b"), END_ID, PAD_ID, PAD_ID]

    def test_encode_report_truncates_long_body(self):
        v = Vocabulary.fit(["a b c d e f"])
        ids = encode_report(v.encode("a b c d e f"), 5)
        assert len(ids) == 5
        assert ids[0] == START_ID and ids[-1] == END_ID


class TestBuildPatientRecord:
    def test_full_assembly(self):
        lo = make_raw(sample_id="lo", heart_rate=60, o2sat=90, resp_rate=10,
                      sbp=100, dbp=60, temperature_celsius=36.0)
        hi = make_raw(sample_id="hi", heart_rate=120, o2sat=100, resp_rate=30,
                      sbp=180, dbp=100, temperature_celsius=40.0, gender="Female",
                      ethnicity="Russian", acuity=5.0)
        stats = NormalizationStats.fit([lo, hi])
        rv = Vocabulary.fit(["the lungs are clear"])
        cv = Vocabulary.fit(["chest pain", "dyspnea"])
        iv = Vocabulary.fit(["pneumonia"])
        cfg = PreprocessConfig(report_len=10, chief_len=2, icd_len=6, image_feature_dim=4)
        rec = build_patient_record(hi, stats, rv, cv, iv, [0.1, 0.2, 0.3, 0.4], cfg)
        assert rec.scalars.heart_rate == 1.0
        assert rec.scalars.gender == 1.0
        assert rec.scalars.acuity == 1.0
        assert rec.ethnicity == 7
        assert len(rec.chief_ids) == 2
        assert len(rec.icd_ids) == 6
        assert len(rec.report_ids) == 10
        assert rec.report_text == "the lungs are clear"
        # chief complaint 'cp' standardizes to 'chest pain' before encoding
        assert rec.chief_ids == [cv.id_of("chest"), cv.id_of("pain")]

    def test_feature_dim_mismatch_rejected(self):
        lo = make_raw(sample_id="lo", heart_rate=60, o2sat=90, resp_rate=10,
                      sbp=100, dbp=60, temperature_celsius=36.0)
        hi = make_raw(sample_id="hi", heart_rate=120, o2sat=100, resp_rate=30,
                      sbp=180, dbp=100, temperature_celsius=40.0)
        stats = NormalizationStats.fit([lo, hi])
        v = Vocabulary.fit(["a"])
        cfg = PreprocessConfig(report_len=5, image_feature_dim=4)
        with pytest.raises(DataError, match="image features"):
            build_patient_record(hi, stats, v, v, v, [0.1, 0.2], cfg)
