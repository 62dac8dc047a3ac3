"""Synthetic corpus generator: determinism, planted signals, balancing, manifests."""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxrgen.errors import ConfigurationError, DataError
from cxrgen.preprocess import standardize_text, within_plausible_ranges
from cxrgen.synth import (CHIEF_COMPLAINTS, HEART_RATE_BUCKETS, ICD_TITLES,
                          IMAGE_FINDINGS, O2SAT_BUCKETS, DatasetManifest,
                          SyntheticConfig, balance_by_unique_reports,
                          file_sha256, generate_synthetic,
                          load_planted_phrases, write_synthetic_dataset)
from cxrgen.vocab import Vocabulary, tokenize


def _dataset(n=200, seed=7, **overrides):
    return generate_synthetic(SyntheticConfig(num_samples=n, seed=seed, **overrides))


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        a = _dataset(50, seed=3)
        b = _dataset(50, seed=3)
        assert a.records == b.records
        assert a.planted_phrases == b.planted_phrases
        for sid in a.image_features:
            assert a.image_features[sid] == b.image_features[sid]

    def test_different_seeds_differ(self):
        a = _dataset(50, seed=3)
        b = _dataset(50, seed=4)
        assert a.records != b.records

    def test_written_files_hash_identically_across_runs(self, tmp_path):
        m1 = write_synthetic_dataset(_dataset(40, seed=9), tmp_path / "a")
        m2 = write_synthetic_dataset(_dataset(40, seed=9), tmp_path / "b")
        assert m1.sha256 == m2.sha256


class TestPlantedSignals:
    def test_every_record_has_four_planted_phrases(self):
        ds = _dataset(100)
        for rec in ds.records:
            phrases = ds.planted_phrases[rec.sample_id]
            assert len(phrases) == 4
            for phrase in phrases:
                assert phrase in rec.report

    def test_o2_phrase_matches_bucket(self):
        ds = _dataset(300)
        for rec in ds.records:
            phrase = ds.planted_phrases[rec.sample_id][0]
            (lo, hi), expected = next(b for b in O2SAT_BUCKETS
                                      if b[0][0] <= rec.o2sat < b[0][1])
            assert phrase == expected

    def test_heart_rate_phrase_matches_bucket(self):
        ds = _dataset(300)
        for rec in ds.records:
            phrase = ds.planted_phrases[rec.sample_id][1]
            (lo, hi), expected = next(b for b in HEART_RATE_BUCKETS
                                      if b[0][0] <= rec.heart_rate < b[0][1])
            assert phrase == expected

    def test_chief_phrase_names_canonical_complaint(self):
        ds = _dataset(300)
        canon_by_variant = {standardize_text(v): canon
                           for canon, variants in CHIEF_COMPLAINTS
                           for v in variants}
        for rec in ds.records:
            cleaned = standardize_text(rec.chief_complaint)
            assert ds.planted_phrases[rec.sample_id][2] == \
                f"patient reports {canon_by_variant[cleaned]}"

    def test_raw_chief_variants_standardize_into_report(self):
        # the raw spelling may be an abbreviation; cleaning must map it to the
        # canonical form that the report states verbatim
        ds = _dataset(300)
        for rec in ds.records:
            assert standardize_text(rec.chief_complaint) in rec.report

    def test_icd_phrase_matches_record(self):
        ds = _dataset(200)
        for rec in ds.records:
            assert ds.planted_phrases[rec.sample_id][3] == \
                f"clinical concern for {rec.icd_title}"

    def test_image_finding_opens_report(self):
        ds = _dataset(200)
        for rec in ds.records:
            assert any(rec.report.startswith(s) for s in IMAGE_FINDINGS)


class TestSyntheticConfig:
    @pytest.mark.parametrize("noise", [-0.1, float("nan"), float("inf")])
    def test_image_noise_must_be_non_negative_and_finite(self, noise):
        with pytest.raises(ConfigurationError, match="image_noise"):
            SyntheticConfig(image_noise=noise)


class TestDistributions:
    def test_marginals_roughly_uniform(self):
        ds = _dataset(2000, seed=11)
        findings = Counter(next(s for s in IMAGE_FINDINGS if rec.report.startswith(s))
                           for rec in ds.records)
        assert set(findings) == set(IMAGE_FINDINGS)
        for count in findings.values():
            assert abs(count / 2000 - 0.25) < 0.05
        o2 = Counter(ds.planted_phrases[r.sample_id][0] for r in ds.records)
        for count in o2.values():
            assert abs(count / 2000 - 1 / 3) < 0.05
        icd = Counter(r.icd_title for r in ds.records)
        assert set(icd) == set(ICD_TITLES)

    def test_vitals_within_plausible_ranges_without_outliers(self):
        ds = _dataset(500, seed=2)
        assert all(within_plausible_ranges(rec) for rec in ds.records)

    def test_outlier_fraction_injects_implausible_vitals(self):
        ds = _dataset(500, seed=2, outlier_fraction=0.1)
        bad = [rec for rec in ds.records if not within_plausible_ranges(rec)]
        assert 20 <= len(bad) <= 90
        assert all(rec.heart_rate == 999.0 for rec in bad)

    def test_image_features_cluster_by_finding(self):
        ds = _dataset(400, seed=5)
        by_class: dict[str, list] = {}
        for rec in ds.records:
            finding = next(s for s in IMAGE_FINDINGS if rec.report.startswith(s))
            by_class.setdefault(finding, []).append(ds.image_features[rec.sample_id])
        means = {k: np.mean(v, axis=0) for k, v in by_class.items()}
        keys = list(means)
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                a, b = means[keys[i]], means[keys[j]]
                cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
                assert cos < 0.5  # distinct directions


class TestReportShape:
    def test_reports_fit_decoder_budget(self):
        # every report, wrapped in start/end markers, must fit in 43 positions
        ds = _dataset(500, seed=13)
        vocab = Vocabulary.fit(rec.report for rec in ds.records)
        for rec in ds.records:
            assert len(tokenize(rec.report)) + 2 <= 43

    def test_closed_vocabulary_is_small(self):
        ds = _dataset(1000, seed=13)
        vocab = Vocabulary.fit(rec.report for rec in ds.records)
        assert len(vocab) < 200

    def test_reports_already_standardized(self):
        ds = _dataset(200, seed=13)
        for rec in ds.records:
            assert standardize_text(rec.report) == rec.report


class TestBalancing:
    def test_ninety_ten_becomes_even(self):
        import dataclasses
        base = _dataset(1, seed=1).records[0]
        # construct a 90/10 skew across two report strings
        pool = [dataclasses.replace(base, sample_id=f"a-{i}", report="report alpha")
                for i in range(90)]
        pool += [dataclasses.replace(base, sample_id=f"b-{i}", report="report beta")
                 for i in range(10)]
        balanced = balance_by_unique_reports(pool, 20)
        counts = Counter(rec.report for rec in balanced)
        assert counts["report alpha"] == 10
        assert counts["report beta"] == 10

    def test_output_is_subset_of_input(self):
        ds = _dataset(100, seed=6)
        balanced = balance_by_unique_reports(ds.records, 40)
        ids = {rec.sample_id for rec in ds.records}
        assert len(balanced) == 40
        assert all(rec.sample_id in ids for rec in balanced)
        assert len({rec.sample_id for rec in balanced}) == 40

    @settings(max_examples=50, deadline=None)
    @given(sizes=st.lists(st.integers(1, 30), min_size=2, max_size=6),
           data=st.data())
    def test_spread_at_most_one(self, sizes, data):
        class Rec:
            def __init__(self, sid, report):
                self.sample_id = sid
                self.report = report

        pool = [Rec(f"r{g}-{i}", f"report {g}") for g, n in enumerate(sizes)
                for i in range(n)]
        target = data.draw(st.integers(1, len(pool)))
        out = balance_by_unique_reports(pool, target)
        assert len(out) == target
        counts = Counter(r.report for r in out)
        # groups that ran out of members may fall short; among groups that
        # still had members, representation differs by at most one
        full = [min(counts.get(f"report {g}", 0), n) for g, n in enumerate(sizes)]
        not_exhausted = [c for c, n in zip(full, sizes) if c < n]
        if len(not_exhausted) > 1:
            assert max(not_exhausted) - min(not_exhausted) <= 1

    def test_target_larger_than_pool_rejected(self):
        ds = _dataset(10, seed=1)
        with pytest.raises(ConfigurationError):
            balance_by_unique_reports(ds.records, 11)

    def test_deterministic(self):
        ds = _dataset(60, seed=5)
        a = balance_by_unique_reports(ds.records, 30)
        b = balance_by_unique_reports(ds.records, 30)
        assert [r.sample_id for r in a] == [r.sample_id for r in b]


class TestManifest:
    def test_write_and_verify(self, tmp_path):
        manifest = write_synthetic_dataset(_dataset(30, seed=4), tmp_path)
        assert (tmp_path / "records.jsonl").exists()
        assert (tmp_path / "features.jsonl").exists()
        assert (tmp_path / "planted.jsonl").exists()
        assert (tmp_path / "manifest.json").exists()
        loaded = DatasetManifest.load(tmp_path)
        loaded.verify(tmp_path)  # should not raise

    def test_tampering_detected(self, tmp_path):
        write_synthetic_dataset(_dataset(30, seed=4), tmp_path)
        path = tmp_path / "records.jsonl"
        path.write_text(path.read_text().replace("synth-00000", "synth-99999"))
        manifest = DatasetManifest.load(tmp_path)
        with pytest.raises(DataError, match="records.jsonl"):
            manifest.verify(tmp_path)

    def test_missing_file_detected(self, tmp_path):
        write_synthetic_dataset(_dataset(10, seed=4), tmp_path)
        (tmp_path / "planted.jsonl").unlink()
        manifest = DatasetManifest.load(tmp_path)
        with pytest.raises(DataError):
            manifest.verify(tmp_path)

    def test_file_sha256_matches_hashlib(self, tmp_path):
        import hashlib
        p = tmp_path / "x.bin"
        p.write_bytes(b"abc123")
        assert file_sha256(p) == hashlib.sha256(b"abc123").hexdigest()

    def test_planted_round_trip(self, tmp_path):
        ds = _dataset(25, seed=8)
        write_synthetic_dataset(ds, tmp_path)
        loaded = load_planted_phrases(tmp_path / "planted.jsonl")
        assert loaded == ds.planted_phrases

    def test_manifest_records_config(self, tmp_path):
        ds = _dataset(12, seed=3)
        manifest = write_synthetic_dataset(ds, tmp_path)
        payload = json.loads((tmp_path / "manifest.json").read_text())
        assert payload["meta"]["seed"] == 3
        assert payload["meta"]["num_samples"] == 12
