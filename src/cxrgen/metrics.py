"""Text-overlap and embedding-similarity metrics for generated reports.

BLEU follows the classic clipped-precision definition with the geometric
mean over orders 1..n and the short-candidate brevity penalty; there is no
smoothing unless explicitly requested, so any zero precision zeroes the
score. ROUGE-L is the LCS-based F-measure with a recall-weighted beta.
Embedding F1 greedily matches token vectors by cosine similarity.

``corpus_evaluate`` scores a whole corpus at once from one corpus-local
``{token: id}`` encoding. The clipped n-gram matches of every pair come
from integer n-gram codes counted with numpy, the LCS is the bit-parallel
recurrence on Python ints, and the embedding provider is asked once per
distinct token. ``bleu``, ``rouge_l`` and ``embedding_f1`` run the same
kernels on one pair, so a pair scores the same bit for bit either way.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Optional, Protocol, Sequence, Union

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .records import atomic_open, atomic_write_text, read_json

Tokens = Sequence[str]

# BLEU-1 histogram buckets; the last one includes its upper edge.
BLEU_BUCKET_EDGES = (0.0, 0.1, 0.3, 0.5, 0.7, 1.0)
BLEU_BUCKET_LABELS = ("[0.0,0.1)", "[0.1,0.3)", "[0.3,0.5)", "[0.5,0.7)", "[0.7,1.0]")
MAX_BLEU_ORDER = 4
# ROUGE-L's recall weight: beta > 1 weights recall more heavily
ROUGE_L_BETA = 1.2
# width of a HashedEmbeddings vector
EMBEDDING_DIM = 64


def _encode(seqs: Sequence[Tokens]) -> tuple[list, np.ndarray, list]:
    """Corpus-local ids: the distinct tokens in first-seen order, the id of
    every token of every sequence in one flat array, and each sequence's
    start offset in it (``len(seqs) + 1`` entries)."""
    flat = list(chain.from_iterable(seqs))
    vocab = list(dict.fromkeys(flat))
    index = dict(zip(vocab, range(len(vocab))))
    ids = np.fromiter(map(index.__getitem__, flat), dtype=np.int64, count=len(flat))
    offsets = [0]
    for seq in seqs:
        offsets.append(offsets[-1] + len(seq))
    return vocab, ids, offsets


def _clipped_matches(ids: np.ndarray, offsets: Sequence[int], pairs: int) -> np.ndarray:
    """[pairs, MAX_BLEU_ORDER] clipped n-gram matches of candidate ``p`` (sequence ``p``
    of the encoding) against reference ``p`` (sequence ``pairs + p``).

    Each window of ``n`` tokens gets a key: the rank of (the key of the
    window of ``n - 1`` tokens that starts where it does, its last token id),
    where the keys of single tokens rank (pair, token id). So a key names a
    pair and an n-gram, stays below the token count, and is shared by the
    candidate and the reference of that pair. Windows that cross a sequence
    boundary get keys too but are never counted."""
    lengths = np.diff(offsets)
    seq = np.repeat(np.arange(lengths.size), lengths)
    pair, is_ref = seq % pairs, seq >= pairs
    width = len(ids) + 1
    matches = np.zeros((pairs, MAX_BLEU_ORDER), dtype=np.int64)
    key = pair * width + ids
    for n in range(1, MAX_BLEU_ORDER + 1):
        if n > 1:
            key = key[:-1] * width + ids[n - 1:]
        if key.size == 0:
            break
        distinct, key = np.unique(key, return_inverse=True)
        inside = seq[:key.size] == seq[n - 1:]
        ref = is_ref[:key.size]
        cand_counts = np.bincount(key[inside & ~ref], minlength=distinct.size)
        ref_counts = np.bincount(key[inside & ref], minlength=distinct.size)
        key_pair = np.empty(distinct.size, dtype=np.int64)
        key_pair[key] = pair[:key.size]
        matches[:, n - 1] = np.bincount(key_pair, weights=np.minimum(cand_counts, ref_counts),
                                        minlength=pairs)
    return matches


@dataclass(frozen=True)
class BleuResult:
    """Modified n-gram precisions, brevity penalty, and BLEU-1..n scores."""

    precisions: tuple
    brevity_penalty: float
    scores: tuple
    candidate_length: int
    reference_length: int
    empty_candidate: bool = False


def _bleu_result(matches: Sequence[int], c: int, r: int, smooth: bool) -> BleuResult:
    """BLEU-1..``MAX_BLEU_ORDER`` of a length-``c`` candidate against a
    length-``r`` reference, from its clipped n-gram ``matches`` per order."""
    if c == 0:
        zeros = (0.0,) * MAX_BLEU_ORDER
        return BleuResult(zeros, 0.0, zeros, 0, r, empty_candidate=True)

    precisions = []
    for n, hits in enumerate(matches, start=1):
        total = max(0, c - n + 1)
        if total == 0:
            precisions.append(0.0)
        elif smooth and n >= 2:
            precisions.append((hits + 1) / (total + 1))
        else:
            precisions.append(hits / total)

    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    scores = []
    for n in range(1, MAX_BLEU_ORDER + 1):
        ps = precisions[:n]
        if any(p == 0.0 for p in ps):
            scores.append(0.0)
        else:
            scores.append(bp * math.exp(sum(math.log(p) for p in ps) / n))
    return BleuResult(tuple(precisions), bp, tuple(scores), c, r)


def bleu(candidate: Tokens, reference: Tokens, smooth: bool = False) -> BleuResult:
    """Sentence BLEU-1..``MAX_BLEU_ORDER`` of ``candidate`` against a single
    reference.

    ``smooth`` applies add-one smoothing to orders >= 2 (corpus reporting
    convenience); the default is the strict unsmoothed definition.
    An empty candidate scores zero everywhere and is flagged.
    """
    cand = list(candidate)
    ref = list(reference)
    _, ids, offsets = _encode([cand, ref])
    matches = _clipped_matches(ids, offsets, 1)[0].tolist()
    return _bleu_result(matches, len(cand), len(ref), smooth)


@dataclass(frozen=True)
class RougeLResult:
    lcs_length: int
    precision: float
    recall: float
    f_score: float


def lcs_length(a: Tokens, b: Tokens) -> int:
    """Longest common subsequence length, bit-parallel (Allison & Dix 1986,
    in the form of Hyyrö 2004): bit ``i`` of a Python int stands for
    ``a[i]``, so one reference token costs a few big-int operations and
    either side may have any length."""
    if not a or not b:
        return 0
    masks: dict = {}
    for i, token in enumerate(a):
        masks[token] = masks.get(token, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for token in b:
        u = v & masks.get(token, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def _rouge_result(lcs: int, c: int, r: int) -> RougeLResult:
    """ROUGE-L of a length-``c`` candidate against a length-``r`` reference
    that share a longest common subsequence of ``lcs`` tokens."""
    if not c or not r:
        return RougeLResult(0, 0.0, 0.0, 0.0)
    precision = lcs / c
    recall = lcs / r
    if precision + recall == 0.0:
        return RougeLResult(lcs, precision, recall, 0.0)
    b2 = ROUGE_L_BETA * ROUGE_L_BETA
    f = (1 + b2) * precision * recall / (recall + b2 * precision)
    return RougeLResult(lcs, precision, recall, f)


def rouge_l(candidate: Tokens, reference: Tokens) -> RougeLResult:
    """LCS-based F-measure, weighted toward recall by ``ROUGE_L_BETA``."""
    cand = list(candidate)
    ref = list(reference)
    return _rouge_result(lcs_length(cand, ref), len(cand), len(ref))


class EmbeddingProvider(Protocol):
    def vector(self, token: str) -> np.ndarray: ...


class HashedEmbeddings:
    """Deterministic pseudo-random unit vector of ``EMBEDDING_DIM`` entries per
    token (sha256-seeded).

    Identical tokens get identical vectors on every platform and run, which
    is all the greedy-matching F1 needs to behave like a similarity score.
    """

    def __init__(self):
        self._cache: dict[str, np.ndarray] = {}

    def vector(self, token: str) -> np.ndarray:
        cached = self._cache.get(token)
        if cached is not None:
            return cached
        seed = int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "big")
        v = np.random.default_rng(seed).standard_normal(EMBEDDING_DIM)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:  # pragma: no cover - measure-zero event
            v[0] = 1.0
            norm = 1.0
        v = v / norm
        self._cache[token] = v
        return v


class FileEmbeddings:
    """Unit-normalized embeddings loaded from a {token: [floats]} JSON file.

    Every vector, in a file a list of numbers, must be finite with a nonzero,
    finite norm, and all must have one width; otherwise an ``EvaluationError``
    names the token (and, from ``load``, the file).
    """

    def __init__(self, vectors: Mapping[str, Sequence[float]]):
        self._vectors: dict[str, np.ndarray] = {}
        width = None
        for token, vec in vectors.items():
            arr = np.asarray(vec, dtype=np.float64)
            if width is None:
                width = arr.size
            if arr.size != width:
                raise EvaluationError(f"embedding for token {token!r} has {arr.size} "
                                      f"entries, the first vector has {width}")
            norm = float(np.linalg.norm(arr))
            if not np.isfinite(arr).all() or not math.isfinite(norm) or norm == 0.0:
                raise EvaluationError(f"embedding for token {token!r} must be finite "
                                      f"with a nonzero, finite norm")
            self._vectors[token] = arr / norm

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FileEmbeddings":
        vectors = read_json(path, "embeddings", EvaluationError, dict[str, list[float]])
        try:
            return cls(vectors)
        except EvaluationError as exc:
            raise EvaluationError(f"embeddings {path}: {exc}") from exc

    def vector(self, token: str) -> np.ndarray:
        try:
            return self._vectors[token]
        except KeyError:
            raise EvaluationError(f"no embedding available for token {token!r}") from None


def _embedding_rows(tokens: Sequence[str], provider: EmbeddingProvider) -> np.ndarray:
    """[len(tokens), dim] float64 rows, from one ``provider.vector`` call each."""
    rows = []
    for token in tokens:
        try:
            row = np.asarray(provider.vector(token), dtype=np.float64)
        except EvaluationError:
            raise
        except Exception as exc:
            raise EvaluationError(f"embedding provider failed for token {token!r}: "
                                  f"{exc}") from exc
        if row.ndim != 1 or (rows and row.shape != rows[0].shape):
            raise EvaluationError(f"embedding for token {token!r} has shape {row.shape}; "
                                  f"expected one width for every token")
        rows.append(row)
    return np.stack(rows) if rows else np.zeros((0, 0))


def _greedy_f1(cand: np.ndarray, ref: np.ndarray) -> float:
    """Greedy-matching cosine F1 between candidate and reference rows."""
    sim = cand @ ref.T
    precision = float(sim.max(axis=1).mean())
    recall = float(sim.max(axis=0).mean())
    denom = precision + recall
    if abs(denom) < 1e-12:
        return 0.0
    return 2.0 * precision * recall / denom


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
    vocab, ids, _ = _encode([cand, ref])
    matrix = _embedding_rows(vocab, provider or HashedEmbeddings())
    return _greedy_f1(matrix[ids[:len(cand)]], matrix[ids[len(cand):]])


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
                    smooth: bool = False) -> EvalReport:
    """Score (sample_id, candidate_tokens, reference_tokens) triples.

    Every pair is scored from one encoding of the whole corpus, and the
    provider is asked once per distinct token of the pairs whose two sides
    are both nonempty. Corpus numbers are the arithmetic means of the
    per-sample scores.
    """
    pairs = [(str(sid), list(cand), list(ref)) for sid, cand, ref in pairs]
    if not pairs:
        raise ConfigurationError("corpus_evaluate needs at least one pair")
    n = len(pairs)
    cands = [cand for _, cand, _ in pairs]
    refs = [ref for _, _, ref in pairs]
    vocab, ids, offsets = _encode(cands + refs)
    matches = _clipped_matches(ids, offsets, n).tolist()
    lengths = np.diff(offsets)
    scored = (lengths[:n] > 0) & (lengths[n:] > 0)
    wanted = np.unique(ids[np.repeat(np.tile(scored, 2), lengths)])
    rows = _embedding_rows([vocab[i] for i in wanted.tolist()], provider or HashedEmbeddings())
    matrix = np.zeros((len(vocab), rows.shape[1]))
    matrix[wanted] = rows

    samples: list[SampleScores] = []
    counts = {label: 0 for label in BLEU_BUCKET_LABELS}
    for p, (sample_id, cand, ref) in enumerate(pairs):
        c, r = len(cand), len(ref)
        b = _bleu_result(matches[p], c, r, smooth)
        rouge = _rouge_result(lcs_length(cand, ref), c, r)
        f1 = 0.0
        if c and r:
            f1 = _greedy_f1(matrix[ids[offsets[p]:offsets[p + 1]]],
                            matrix[ids[offsets[n + p]:offsets[n + p + 1]]])
        samples.append(SampleScores(sample_id, b.scores[0], b.scores[1],
                                    b.scores[2], b.scores[3], rouge.f_score, f1,
                                    b.empty_candidate))
        counts[bleu1_bucket(b.scores[0])] += 1
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
