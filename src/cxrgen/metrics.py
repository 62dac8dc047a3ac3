"""Text-overlap and embedding-similarity metrics for generated reports.

BLEU follows the classic clipped-precision definition with the geometric
mean over orders 1..n and the short-candidate brevity penalty; there is no
smoothing unless explicitly requested, so any zero precision zeroes the
score. ROUGE-L is the LCS-based F-measure with a recall-weighted beta.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Protocol, Sequence, Union

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .records import atomic_open, atomic_write_text

Tokens = Sequence[str]

# BLEU-1 histogram buckets; the last one includes its upper edge.
BLEU_BUCKET_EDGES = (0.0, 0.1, 0.3, 0.5, 0.7, 1.0)
BLEU_BUCKET_LABELS = ("[0.0,0.1)", "[0.1,0.3)", "[0.3,0.5)", "[0.5,0.7)", "[0.7,1.0]")


@dataclass(frozen=True)
class BleuResult:
    """Modified n-gram precisions, brevity penalty, and BLEU-1..n scores."""

    precisions: tuple
    brevity_penalty: float
    scores: tuple
    candidate_length: int
    reference_length: int
    empty_candidate: bool = False


def _ngram_counts(tokens: Tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(candidate: Tokens, reference: Tokens, max_n: int = 4,
         smooth: bool = False) -> BleuResult:
    """Sentence BLEU of ``candidate`` against a single reference.

    ``smooth`` applies add-one smoothing to orders >= 2 (corpus reporting
    convenience); the default is the strict unsmoothed definition.
    An empty candidate scores zero everywhere and is flagged.
    """
    if not 1 <= max_n <= 4:
        raise ConfigurationError(f"max_n must be in 1..4, got {max_n}")
    cand = list(candidate)
    ref = list(reference)
    c, r = len(cand), len(ref)
    if c == 0:
        zeros = (0.0,) * max_n
        return BleuResult(zeros, 0.0, zeros, 0, r, empty_candidate=True)

    precisions = []
    for n in range(1, max_n + 1):
        total = max(0, c - n + 1)
        if total == 0:
            precisions.append(0.0)
            continue
        ref_counts = _ngram_counts(ref, n)
        matches = sum(min(count, ref_counts[gram])
                      for gram, count in _ngram_counts(cand, n).items())
        if smooth and n >= 2:
            precisions.append((matches + 1) / (total + 1))
        else:
            precisions.append(matches / total)

    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    scores = []
    for n in range(1, max_n + 1):
        ps = precisions[:n]
        if any(p == 0.0 for p in ps):
            scores.append(0.0)
        else:
            scores.append(bp * math.exp(sum(math.log(p) for p in ps) / n))
    return BleuResult(tuple(precisions), bp, tuple(scores), c, r)


@dataclass(frozen=True)
class RougeLResult:
    lcs_length: int
    precision: float
    recall: float
    f_score: float


def lcs_length(a: Tokens, b: Tokens) -> int:
    """Longest common subsequence length by dynamic programming."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l(candidate: Tokens, reference: Tokens, beta: float = 1.2) -> RougeLResult:
    """LCS-based F-measure; ``beta`` > 1 weights recall more heavily."""
    if beta <= 0:
        raise ConfigurationError(f"beta must be positive, got {beta}")
    cand = list(candidate)
    ref = list(reference)
    if not cand or not ref:
        return RougeLResult(0, 0.0, 0.0, 0.0)
    lcs = lcs_length(cand, ref)
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    if precision + recall == 0.0:
        return RougeLResult(lcs, precision, recall, 0.0)
    b2 = beta * beta
    f = (1 + b2) * precision * recall / (recall + b2 * precision)
    return RougeLResult(lcs, precision, recall, f)


class EmbeddingProvider(Protocol):
    def vector(self, token: str) -> np.ndarray: ...


class HashedEmbeddings:
    """Deterministic pseudo-random unit vector per token (sha256-seeded).

    Identical tokens get identical vectors on every platform and run, which
    is all the greedy-matching F1 needs to behave like a similarity score.
    """

    def __init__(self, dim: int = 64):
        if dim < 1:
            raise ConfigurationError(f"embedding dim must be positive, got {dim}")
        self.dim = dim
        self._cache: dict[str, np.ndarray] = {}

    def vector(self, token: str) -> np.ndarray:
        cached = self._cache.get(token)
        if cached is not None:
            return cached
        seed = int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "big")
        v = np.random.default_rng(seed).standard_normal(self.dim)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:  # pragma: no cover - measure-zero event
            v[0] = 1.0
            norm = 1.0
        v = v / norm
        self._cache[token] = v
        return v


class FileEmbeddings:
    """Unit-normalized embeddings loaded from a {token: [floats]} JSON file."""

    def __init__(self, vectors: Mapping[str, Sequence[float]]):
        self._vectors: dict[str, np.ndarray] = {}
        for token, vec in vectors.items():
            arr = np.asarray(vec, dtype=np.float64)
            norm = float(np.linalg.norm(arr))
            if arr.ndim != 1 or norm == 0.0:
                raise ConfigurationError(f"embedding for token {token!r} must be a "
                                         f"nonzero 1-d vector")
            self._vectors[token] = arr / norm

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FileEmbeddings":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise EvaluationError(f"cannot read embeddings {path}: {exc}") from exc
        return cls(payload)

    def vector(self, token: str) -> np.ndarray:
        try:
            return self._vectors[token]
        except KeyError:
            raise EvaluationError(f"no embedding available for token {token!r}") from None


def _token_matrix(tokens: Tokens, provider: EmbeddingProvider) -> np.ndarray:
    rows = []
    for token in tokens:
        try:
            rows.append(np.asarray(provider.vector(token), dtype=np.float64))
        except EvaluationError:
            raise
        except Exception as exc:
            raise EvaluationError(f"embedding provider failed for token {token!r}: "
                                  f"{exc}") from exc
    return np.stack(rows)


def embedding_f1(candidate: Tokens, reference: Tokens,
                 provider: Optional[EmbeddingProvider] = None) -> float:
    """Greedy-matching cosine F1 between token embedding sets.

    Precision greedily matches each candidate token to its most similar
    reference token and vice versa for recall; either side empty gives 0.
    """
    cand = list(candidate)
    ref = list(reference)
    if not cand or not ref:
        return 0.0
    provider = provider or HashedEmbeddings()
    sim = _token_matrix(cand, provider) @ _token_matrix(ref, provider).T
    precision = float(sim.max(axis=1).mean())
    recall = float(sim.max(axis=0).mean())
    denom = precision + recall
    if abs(denom) < 1e-12:
        return 0.0
    return 2.0 * precision * recall / denom


def bleu1_bucket(score: float) -> str:
    """Histogram bucket label for a BLEU-1 value in [0, 1]."""
    if not 0.0 <= score <= 1.0:
        raise EvaluationError(f"BLEU-1 must lie in [0, 1], got {score}")
    for label, hi in zip(BLEU_BUCKET_LABELS[:-1], BLEU_BUCKET_EDGES[1:-1]):
        if score < hi:
            return label
    return BLEU_BUCKET_LABELS[-1]


@dataclass
class SampleScores:
    sample_id: str
    bleu_1: float
    bleu_2: float
    bleu_3: float
    bleu_4: float
    rouge_l: float
    embedding_f1: float
    empty_candidate: bool

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class EvalReport:
    """Corpus means, per-sample scores, and the BLEU-1 histogram."""

    num_samples: int
    corpus: dict
    bleu1_histogram: dict
    samples: list

    def to_dict(self) -> dict:
        return {
            "num_samples": self.num_samples,
            "corpus": self.corpus,
            "bleu1_histogram": self.bleu1_histogram,
            "samples": [s.to_dict() for s in self.samples],
        }

    def to_json(self) -> str:
        # sort_keys + fixed separators keep identical runs byte-identical
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def save(self, path: Union[str, Path]) -> None:
        atomic_write_text(path, self.to_json())

    def save_per_sample_csv(self, path: Union[str, Path]) -> None:
        names = ["sample_id", "bleu_1", "bleu_2", "bleu_3", "bleu_4",
                 "rouge_l", "embedding_f1", "empty_candidate"]
        with atomic_open(path, newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=names)
            writer.writeheader()
            for s in self.samples:
                writer.writerow(s.to_dict())


def corpus_evaluate(pairs: Iterable[tuple[str, Tokens, Tokens]],
                    provider: Optional[EmbeddingProvider] = None,
                    beta: float = 1.2, smooth: bool = False) -> EvalReport:
    """Score (sample_id, candidate_tokens, reference_tokens) triples.

    Corpus numbers are the arithmetic means of the per-sample scores.
    """
    provider = provider or HashedEmbeddings()
    samples: list[SampleScores] = []
    counts = {label: 0 for label in BLEU_BUCKET_LABELS}
    for sample_id, cand, ref in pairs:
        b = bleu(cand, ref, max_n=4, smooth=smooth)
        r = rouge_l(cand, ref, beta=beta)
        f1 = embedding_f1(cand, ref, provider)
        samples.append(SampleScores(str(sample_id), b.scores[0], b.scores[1],
                                    b.scores[2], b.scores[3], r.f_score, f1,
                                    b.empty_candidate))
        counts[bleu1_bucket(b.scores[0])] += 1
    if not samples:
        raise ConfigurationError("corpus_evaluate needs at least one pair")
    n = len(samples)
    corpus = {
        "bleu_1": sum(s.bleu_1 for s in samples) / n,
        "bleu_2": sum(s.bleu_2 for s in samples) / n,
        "bleu_3": sum(s.bleu_3 for s in samples) / n,
        "bleu_4": sum(s.bleu_4 for s in samples) / n,
        "rouge_l": sum(s.rouge_l for s in samples) / n,
        "embedding_f1": sum(s.embedding_f1 for s in samples) / n,
        "empty_candidates": sum(1 for s in samples if s.empty_candidate),
    }
    histogram = {label: counts[label] / n for label in BLEU_BUCKET_LABELS}
    return EvalReport(num_samples=n, corpus=corpus, bleu1_histogram=histogram,
                      samples=samples)
