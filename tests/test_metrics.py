"""Metrics vs independent oracles: naive BLEU, exhaustive LCS, hand values."""

import itertools
import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cxrgen.errors import ConfigurationError, EvaluationError
from cxrgen.metrics import (BLEU_BUCKET_LABELS, FileEmbeddings, HashedEmbeddings,
                            bleu, bleu1_bucket, corpus_evaluate, embedding_f1,
                            lcs_length, rouge_l)
from helpers import (bleu_reference, corpus_reference, embedding_f1_reference,
                     lcs_reference, rouge_l_reference)


# -- independent oracles (deliberately different implementations) -------------

def oracle_bleu(candidate, reference, max_n=4):
    """Naive BLEU: explicit n-gram lists, dict counting, direct product."""
    c, r = len(candidate), len(reference)
    if c == 0:
        return [0.0] * max_n
    precisions = []
    for n in range(1, max_n + 1):
        cand_ngrams = [tuple(candidate[i:i + n]) for i in range(c - n + 1)]
        ref_ngrams = [tuple(reference[i:i + n]) for i in range(r - n + 1)]
        if not cand_ngrams:
            precisions.append(0.0)
            continue
        ref_counts = {}
        for g in ref_ngrams:
            ref_counts[g] = ref_counts.get(g, 0) + 1
        hits = 0
        for g in set(cand_ngrams):
            hits += min(cand_ngrams.count(g), ref_counts.get(g, 0))
        precisions.append(hits / len(cand_ngrams))
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    scores = []
    for n in range(1, max_n + 1):
        ps = precisions[:n]
        if 0.0 in ps:
            scores.append(0.0)
        else:
            product = 1.0
            for p in ps:
                product *= p
            scores.append(bp * product ** (1.0 / n))
    return scores


def oracle_lcs(a, b):
    """Exhaustive LCS: enumerate all subsequences of the shorter sequence."""
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    best = 0
    for k in range(len(short), 0, -1):
        for combo in itertools.combinations(range(len(short)), k):
            sub = [short[i] for i in combo]
            # check sub is a subsequence of long_
            it = iter(long_)
            if all(tok in it for tok in sub):
                best = k
                break
        if best:
            break
    return best


class TestBleuKnownValues:
    def test_identical_sentences(self):
        result = bleu("the lungs are clear".split(), "the lungs are clear".split())
        assert result.scores == (1.0, 1.0, 1.0, 1.0)
        assert result.brevity_penalty == 1.0

    def test_brevity_penalty_short_candidate(self):
        # candidate 3 tokens matching into a 4-token reference: BP = exp(1 - 4/3)
        result = bleu("a b c".split(), "a b c d".split())
        assert result.brevity_penalty == pytest.approx(math.exp(1.0 - 4.0 / 3.0))
        assert result.scores[0] == pytest.approx(math.exp(1.0 - 4.0 / 3.0))

    def test_longer_candidate_no_penalty(self):
        result = bleu("a b c d e".split(), "a b c".split())
        assert result.brevity_penalty == 1.0

    def test_clipping(self):
        # 'the' appears twice in the reference, 7 times in the candidate
        result = bleu(["the"] * 7, "the cat the".split())
        assert result.precisions[0] == pytest.approx(2.0 / 7.0)

    def test_zero_ngram_zeroes_score(self):
        result = bleu("x y".split(), "a b".split())
        assert result.scores == (0.0, 0.0, 0.0, 0.0)

    def test_short_candidate_zero_higher_orders(self):
        result = bleu("a b".split(), "a b".split())
        assert result.scores[0] == 1.0 and result.scores[1] == 1.0
        # no trigrams or 4-grams exist -> those orders are zero
        assert result.scores[2] == 0.0 and result.scores[3] == 0.0

    def test_empty_candidate_flagged(self):
        result = bleu([], "a b".split())
        assert result.empty_candidate
        assert result.scores == (0.0, 0.0, 0.0, 0.0)

    def test_smoothing_only_on_higher_orders(self):
        plain = bleu("a b x".split(), "a b c".split())
        smoothed = bleu("a b x".split(), "a b c".split(), smooth=True)
        assert smoothed.precisions[0] == plain.precisions[0]
        assert smoothed.precisions[1] == pytest.approx((1 + 1) / (2 + 1))
        assert smoothed.scores[1] > 0.0 and plain.scores[1] > 0.0


class TestBleuAgainstOracle:
    def test_100_random_pairs(self):
        rng = np.random.default_rng(123)
        vocab = [f"w{i}" for i in range(10)]
        for _ in range(100):
            cand = [vocab[i] for i in rng.integers(0, 10, size=rng.integers(1, 13))]
            ref = [vocab[i] for i in rng.integers(0, 10, size=rng.integers(1, 13))]
            ours = bleu(cand, ref).scores
            oracle = oracle_bleu(cand, ref)
            for n in range(4):
                assert abs(ours[n] - oracle[n]) < 1e-12, (cand, ref, n)


class TestRougeL:
    def test_identical(self):
        result = rouge_l("a b c".split(), "a b c".split())
        assert result.f_score == pytest.approx(1.0)
        assert result.lcs_length == 3

    def test_disjoint(self):
        assert rouge_l("a b".split(), "x y".split()).f_score == 0.0

    def test_known_value_with_beta(self):
        # cand 'a b d', ref 'a b c': LCS=2, P=2/3, R=2/3 -> F = 2/3 for any beta
        result = rouge_l("a b d".split(), "a b c".split())
        assert result.f_score == pytest.approx(2.0 / 3.0)
        # P=1, R=1/2: beta 1.2 weights recall more heavily
        b2 = 1.2 ** 2
        expected = (1 + b2) * 1.0 * 0.5 / (0.5 + b2 * 1.0)
        assert rouge_l("a b".split(), "a b c d".split()).f_score == pytest.approx(expected)

    def test_empty_sides(self):
        assert rouge_l([], "a".split()).f_score == 0.0
        assert rouge_l("a".split(), []).f_score == 0.0

    def test_subsequence_not_substring(self):
        # LCS respects order but not contiguity
        assert rouge_l("a x b y c".split(), "a b c".split()).lcs_length == 3

    def test_lcs_against_exhaustive_enumeration(self):
        rng = np.random.default_rng(321)
        vocab = list("abcde")
        for _ in range(200):
            a = [vocab[i] for i in rng.integers(0, 5, size=rng.integers(0, 9))]
            b = [vocab[i] for i in rng.integers(0, 5, size=rng.integers(0, 9))]
            assert lcs_length(a, b) == oracle_lcs(a, b), (a, b)


class TestEmbeddingF1:
    def test_identical_tokens_score_one(self):
        assert embedding_f1("a b c".split(), "a b c".split()) == pytest.approx(1.0)

    def test_order_invariance_of_perfect_match(self):
        assert embedding_f1("c a b".split(), "a b c".split()) == pytest.approx(1.0)

    def test_disjoint_tokens_score_below_half(self):
        score = embedding_f1("aaa bbb".split(), "xxx yyy".split())
        assert score < 0.5

    def test_empty_sides_zero(self):
        assert embedding_f1([], ["a"]) == 0.0
        assert embedding_f1(["a"], []) == 0.0

    def test_hashed_embeddings_are_unit_norm_and_stable(self):
        provider = HashedEmbeddings()
        v1 = provider.vector("token")
        v2 = HashedEmbeddings().vector("token")
        np.testing.assert_allclose(v1, v2, atol=0)
        assert v1.shape == (64,)
        assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-9)

    def test_file_embeddings(self, tmp_path):
        import json
        path = tmp_path / "emb.json"
        path.write_text(json.dumps({"a": [2.0, 0.0], "b": [0.0, 3.0]}))
        provider = FileEmbeddings.load(path)
        np.testing.assert_allclose(provider.vector("a"), [1.0, 0.0])
        with pytest.raises(EvaluationError, match="missing"):
            provider.vector("missing")

    def test_file_embeddings_give_exact_f1(self):
        provider = FileEmbeddings({"a": [1.0, 0.0], "b": [0.0, 1.0],
                                   "c": [1.0, 1.0]})
        # cand=[a], ref=[b]: similarity 0 -> P=R=0 -> F1=0
        assert embedding_f1(["a"], ["b"], provider) == 0.0
        # cand=[a], ref=[c]: sim = 1/sqrt(2) -> F1 = 1/sqrt(2)
        assert embedding_f1(["a"], ["c"], provider) == pytest.approx(1 / math.sqrt(2))


class TestBuckets:
    @pytest.mark.parametrize("score,label", [
        (0.0, "[0.0,0.1)"), (0.099, "[0.0,0.1)"),
        (0.1, "[0.1,0.3)"), (0.299, "[0.1,0.3)"),
        (0.3, "[0.3,0.5)"), (0.5, "[0.5,0.7)"),
        (0.7, "[0.7,1.0]"), (1.0, "[0.7,1.0]"),
    ])
    def test_bucket_assignment(self, score, label):
        assert bleu1_bucket(score) == label

    def test_out_of_range_rejected(self):
        with pytest.raises(EvaluationError):
            bleu1_bucket(1.5)


class TestCorpusEvaluate:
    def pairs(self):
        return [
            ("s1", "the lungs are clear".split(), "the lungs are clear".split()),
            ("s2", "mild effusion seen".split(), "no effusion seen today".split()),
            ("s3", [], "something".split()),
        ]

    def test_report_structure(self):
        report = corpus_evaluate(self.pairs())
        assert report.num_samples == 3
        assert set(report.bleu1_histogram) == set(BLEU_BUCKET_LABELS)
        assert report.corpus["empty_candidates"] == 1
        assert len(report.samples) == 3

    def test_histogram_sums_to_one(self):
        report = corpus_evaluate(self.pairs())
        assert abs(sum(report.bleu1_histogram.values()) - 1.0) < 1e-12

    def test_corpus_means_match_samples(self):
        report = corpus_evaluate(self.pairs())
        mean_b1 = sum(s.bleu_1 for s in report.samples) / 3
        assert report.corpus["bleu_1"] == pytest.approx(mean_b1, abs=1e-15)

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigurationError):
            corpus_evaluate([])

    def test_json_deterministic(self):
        a = corpus_evaluate(self.pairs()).to_json()
        b = corpus_evaluate(self.pairs()).to_json()
        assert a == b

    def test_save_and_csv(self, tmp_path):
        report = corpus_evaluate(self.pairs())
        report.save(tmp_path / "report.json")
        report.save_per_sample_csv(tmp_path / "per_sample.csv")
        import json
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["num_samples"] == 3
        lines = (tmp_path / "per_sample.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 rows


# -- corpus-at-once scoring vs the per-pair references -------------------------

ALPHABET = "abcdef"
# a few tokens, so n-grams repeat; long sides reach past one 64-bit word
TOKEN_LISTS = st.one_of(st.lists(st.sampled_from(ALPHABET), max_size=8),
                        st.lists(st.sampled_from(ALPHABET), min_size=60, max_size=100))
FILE_PROVIDER = FileEmbeddings({t: np.random.default_rng(i).standard_normal(5)
                                for i, t in enumerate(ALPHABET)})


def providers(use_file: bool):
    return FILE_PROVIDER if use_file else HashedEmbeddings()


class TestCorpusMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(pairs=st.lists(st.tuples(TOKEN_LISTS, TOKEN_LISTS), min_size=1, max_size=6),
           smooth=st.booleans(), use_file=st.booleans())
    # bigrams "b c" across candidates 0|1 and "d x" across the last candidate
    # and the first reference exist only if windows span pairs
    @example(pairs=[(["a", "b"], ["x", "b", "c", "d", "x"]), (["c", "d"], ["d", "x"])],
             smooth=False, use_file=False)
    @example(pairs=[([], ["a"] * 70), (["a"] * 70, []), ([], [])],
             smooth=True, use_file=True)
    def test_every_field_equals_the_reference(self, pairs, smooth, use_file):
        triples = [(f"s{i}", cand, ref) for i, (cand, ref) in enumerate(pairs)]
        ours = corpus_evaluate(triples, providers(use_file), smooth=smooth)
        expected = corpus_reference(triples, providers(use_file), smooth=smooth)
        assert ours.to_dict() == expected.to_dict()

    @settings(max_examples=60, deadline=None)
    @given(cand=TOKEN_LISTS, ref=TOKEN_LISTS, smooth=st.booleans(), use_file=st.booleans())
    def test_per_pair_functions_equal_the_reference(self, cand, ref, smooth, use_file):
        assert bleu(cand, ref, smooth) == bleu_reference(cand, ref, smooth)
        assert lcs_length(cand, ref) == lcs_reference(cand, ref)
        assert rouge_l(cand, ref) == rouge_l_reference(cand, ref)
        assert (embedding_f1(cand, ref, providers(use_file))
                == embedding_f1_reference(cand, ref, providers(use_file)))


class CountingProvider:
    def __init__(self):
        self.calls = Counter()
        self.inner = HashedEmbeddings()

    def vector(self, token):
        self.calls[token] += 1
        return self.inner.vector(token)


class TestCorpusEmbeddingLookups:
    def test_one_vector_call_per_distinct_token(self):
        pairs = [("s0", "a b a c".split(), "b b d".split()),
                 ("s1", "a d".split(), "c a a".split()),
                 ("s2", [], "e".split())]
        provider = CountingProvider()
        report = corpus_evaluate(pairs, provider)
        # "e" sits only in a pair with an empty side, which scores 0 unasked
        assert provider.calls == Counter("abcd")
        assert report.to_dict() == corpus_reference(pairs, HashedEmbeddings()).to_dict()

    def test_provider_failure_names_the_token(self):
        class Broken:
            def vector(self, token):
                raise RuntimeError("lookup service down")

        with pytest.raises(EvaluationError, match="'lungs'.*lookup service down"):
            corpus_evaluate([("s", ["lungs"], ["clear"])], Broken())

    def test_vectors_of_two_widths_name_the_token(self):
        class Ragged:
            def vector(self, token):
                return np.ones(3 if token == "clear" else 2)

        with pytest.raises(EvaluationError, match="'clear'"):
            corpus_evaluate([("s", ["lungs"], ["clear"])], Ragged())


class TestFileEmbeddingsValidation:
    @pytest.mark.parametrize("text,token", [
        ('{"a": [1, 0], "b": [NaN, 1]}', "b"),
        ('{"a": [1e400, 1]}', "a"),
        ('{"a": [1, 0], "b": [1, 0, 0]}', "b"),
        ('{"a": ["x", 1]}', "a"),
        ('{"a": [null, 1]}', "a"),
        ('{"a": [1, 0], "b": [true, 1]}', "b"),
        ('{"a": [[1], [2, 3]]}', "a"),
        ('{"a": [0, 0]}', "a"),
    ], ids=["nan", "overflow", "widths", "string", "null", "boolean", "ragged", "zero"])
    def test_bad_vector_names_file_and_token(self, tmp_path, text, token):
        path = tmp_path / "emb.json"
        path.write_text(text)
        with pytest.raises(EvaluationError, match=f"{re.escape(str(path))}.*'{token}'"):
            FileEmbeddings.load(path)

    def test_payload_must_be_an_object(self, tmp_path):
        path = tmp_path / "emb.json"
        path.write_text(json.dumps([[1.0, 0.0]]))
        with pytest.raises(EvaluationError, match=re.escape(str(path))):
            FileEmbeddings.load(path)
