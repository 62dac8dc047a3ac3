"""Shared test utilities: finite-difference gradient checking, the
plain-numpy token cross-entropy that ``cross_entropy`` is checked against,
the plain-numpy six-op attention chain that ``attention`` is checked against,
the per-sample reference loss, the per-record input masking that packing is
checked against, the full-prefix greedy decoder that cached
decoding is checked against, the out-of-place Adam update that the
in-place one is checked against, the per-pair metrics (Counter
n-grams, dynamic-programming LCS, one provider call per token) that
corpus-at-once scoring is checked against, and the ``dataclasses.asdict``
record serializers that the direct ``to_dict`` methods are checked
against. ``CONFIGS`` lists the config dataclasses whose fields the field
tests and the source guard both go over."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict
from typing import Callable, Sequence

import numpy as np

from cxrgen.decoder import _KVCache, report_loss
from cxrgen.errors import EvaluationError
from cxrgen.metrics import (BLEU_BUCKET_LABELS, BleuResult, EvalReport, HashedEmbeddings,
                            RougeLResult, SampleScores, bleu1_bucket)
from cxrgen.model import ModelConfig
from cxrgen.pipeline import SplitPlan
from cxrgen.preprocess import ETHNICITY_UNKNOWN, PreprocessConfig
from cxrgen.records import PatientRecord, RawRecord, ScalarFeatures
from cxrgen.synth import SyntheticConfig
from cxrgen.tensor import GradientTape, Tensor, add, mul
from cxrgen.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, TrainConfig
from cxrgen.vocab import END_ID, PAD_ID, START_ID

CONFIGS = (ModelConfig, TrainConfig, PreprocessConfig, SplitPlan, SyntheticConfig)

FD_STEP = 1e-5
GRAD_RTOL = 1e-5


def rel_err(analytic: float, numeric: float) -> float:
    """|a - n| / max(1, |a|, |n|), the tolerance used across gradient checks."""
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


def numeric_grad(f: Callable[[], float], param: Tensor, step: float = FD_STEP) -> np.ndarray:
    """Central finite differences of a scalar-valued closure w.r.t. ``param``.

    ``f`` must recompute the forward pass from ``param.data`` on every call.
    """
    base = param.data.copy()
    grad = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        perturbed = base.copy()
        perturbed[idx] = base[idx] + step
        param.data = perturbed
        f_plus = f()
        perturbed[idx] = base[idx] - step
        param.data = perturbed
        f_minus = f()
        grad[idx] = (f_plus - f_minus) / (2.0 * step)
        it.iternext()
    param.data = base
    return grad


def check_gradients(build_loss: Callable[[], Tensor], params: Sequence[Tensor],
                    step: float = FD_STEP, rtol: float = GRAD_RTOL,
                    max_entries: int | None = None, seed: int = 0) -> float:
    """Compare tape gradients against central differences for every entry.

    ``build_loss`` runs a full forward pass and returns the scalar loss
    tensor. Returns the worst relative error seen. ``max_entries`` limits
    the checked entries per parameter to a seeded random subset.
    """
    with GradientTape() as tape:
        loss = build_loss()
    tape.backward(loss)
    analytic = [tape.grad(p).copy() for p in params]

    def scalar_loss() -> float:
        return build_loss().item()

    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, a in zip(params, analytic):
        base = p.data.copy()
        flat_indices = np.arange(base.size)
        if max_entries is not None and base.size > max_entries:
            flat_indices = rng.choice(base.size, size=max_entries, replace=False)
        for flat in flat_indices:
            idx = np.unravel_index(flat, base.shape)
            perturbed = base.copy()
            perturbed[idx] = base[idx] + step
            p.data = perturbed
            f_plus = scalar_loss()
            perturbed[idx] = base[idx] - step
            p.data = perturbed
            f_minus = scalar_loss()
            p.data = base
            numeric = (f_plus - f_minus) / (2.0 * step)
            err = rel_err(float(a[idx]), numeric)
            worst = max(worst, err)
            assert err < rtol, (
                f"gradient mismatch at entry {idx}: analytic {a[idx]:.10g}, "
                f"numeric {numeric:.10g}, rel err {err:.3g}")
    return worst


def cross_entropy_reference(logits: np.ndarray, labels: np.ndarray,
                            g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference for ``tensor.cross_entropy``: the per-row loss as
    log-sum-exp minus the label's logit, and the gradient of ``sum(g * loss)``
    w.r.t. the logits as ``g * (softmax - one_hot)``."""
    rows = np.arange(len(labels))
    top = logits.max(axis=1)
    lse = top + np.log(np.exp(logits - top[:, None]).sum(axis=1))
    one_hot = np.zeros_like(logits)
    one_hot[rows, labels] = 1.0
    grad = g[:, None] * (np.exp(logits - lse[:, None]) - one_hot)
    return lse - logits[rows, labels], grad


def attention_reference(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int,
                        batch: int, bias, g: np.ndarray) -> tuple[np.ndarray, ...]:
    """Reference for ``tensor.attention``: cut the rows of ``batch`` records
    into [B, h, n, w] heads (head i is column block i), run the six-op chain
    (transpose the keys, q·kT, scale by 1/sqrt(w), add ``bias`` unless None,
    softmax, weights·v) forward, then each op's backward in reverse for the
    output-row gradient ``g``, and join the heads back into rows. Returns
    (output, weights, dq, dk, dv)."""
    def split(x):
        return x.reshape(batch, x.shape[0] // batch, heads, -1).transpose(0, 2, 1, 3)

    def join(x):
        return x.transpose(0, 2, 1, 3).reshape(-1, heads * x.shape[3])

    q, k, v, g = split(q), split(k), split(v), split(g)
    kt = k.transpose(0, 1, 3, 2)
    scale = 1.0 / math.sqrt(q.shape[-1])
    logits = (q @ kt) * scale
    if bias is not None:
        logits = logits + bias
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    dweights = g @ v.transpose(0, 1, 3, 2)
    dv = weights.transpose(0, 1, 3, 2) @ g
    dlogits = weights * (dweights - (dweights * weights).sum(axis=-1, keepdims=True))
    dscores = dlogits * scale
    dq = dscores @ k
    dk = dscores.transpose(0, 1, 3, 2) @ q
    return join(weights @ v), weights, join(dq), join(dk), join(dv)


def per_sample_loss(model, records) -> Tensor:
    """Reference objective for ``ReportGenerator.loss_for_batch``.

    Each record runs its own forward over its whole (untrimmed) report, its
    masked token mean is taken, and the per-record losses are averaged by a
    chain of adds and one scale.
    """
    total = None
    for rec in records:
        ids = np.asarray(rec.report_ids, dtype=np.int64)
        labels = ids[1:]
        pad_mask = labels != PAD_ID
        logits = model.decoder.teacher_forced_forward(model.encode_record(rec).output, ids[:-1])
        loss = report_loss(logits, labels[None], pad_mask[None])
        total = loss if total is None else add(total, loss)
    return mul(total, 1.0 / len(records))


def input_mask_apply(mask, rec: PatientRecord) -> tuple[ScalarFeatures, int, list[int], list[int]]:
    """Reference for the masking in ``ReportGenerator.pack``: one record's
    masked scalars, ethnicity, chief-complaint ids and ICD ids."""
    values = {name: (getattr(rec.scalars, name) if name in mask.scalars else 0.0)
              for name in ScalarFeatures.ORDER}
    ethnicity = rec.ethnicity if mask.ethnicity else ETHNICITY_UNKNOWN
    chief = list(rec.chief_ids) if mask.chief else [PAD_ID] * len(rec.chief_ids)
    icd = list(rec.icd_ids) if mask.icd else [PAD_ID] * len(rec.icd_ids)
    return ScalarFeatures(**values), ethnicity, chief, icd


def adam_reference(theta: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray,
                   step: int, lr: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference for ``adam_step`` on one parameter: the bias-corrected update
    written out of place. ``step`` is the counter after the increment, as in
    ``adam_step``. Returns new (theta, m, v) arrays."""
    bc1 = 1.0 - ADAM_BETA1 ** step
    bc2 = 1.0 - ADAM_BETA2 ** step
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
    return theta - lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS), m, v


def greedy_full_prefix(decoder, encoder_rows: Tensor) -> list[int]:
    """Reference for ``ReportDecoder.generate_batch`` on one record: argmax
    decoding from START that re-runs ``teacher_forced_forward`` on the whole
    prefix for every token, until END or ``report_len`` ids."""
    ids = [START_ID]
    while len(ids) < decoder.config.report_len:
        logits = decoder.teacher_forced_forward(encoder_rows, ids)
        nxt = int(np.argmax(logits.data[-1]))
        ids.append(nxt)
        if nxt == END_ID:
            break
    return ids


def check_cached_decoding(decoder, encoder_rows: Tensor, batch_size: int) -> list[list[int]]:
    """Assert that ``generate_batch`` gives every record the ids of
    ``greedy_full_prefix``, and that each cached step's logits are within
    1e-9 of the last row of ``teacher_forced_forward`` on that prefix.
    Returns the ids."""
    n = encoder_rows.shape[0] // batch_size
    per_record = [Tensor(encoder_rows.data[n * b:n * (b + 1)]) for b in range(batch_size)]
    expected = [greedy_full_prefix(decoder, rows) for rows in per_record]
    assert decoder.generate_batch(encoder_rows, batch_size) == expected
    # step the whole batch along the greedy ids; a record that has ended feeds END
    cache = _KVCache(decoder, encoder_rows, batch_size, decoder.config.report_len)
    for t in range(max(map(len, expected)) - 1):
        tokens = np.array([ids[t] if t < len(ids) else END_ID for ids in expected])
        logits = decoder.step(cache, tokens).data
        for b, ids in enumerate(expected):
            if t + 1 < len(ids):
                full = decoder.teacher_forced_forward(per_record[b], ids[:t + 1])
                np.testing.assert_allclose(logits[b], full.data[-1], rtol=0, atol=1e-9)
    return expected


# -- per-pair reference metrics ------------------------------------------------

def _ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu_reference(candidate, reference, smooth: bool = False) -> BleuResult:
    """Reference for ``metrics.bleu``: Counter-of-tuples n-gram clipping,
    BLEU-1..4."""
    max_n = 4
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


def lcs_reference(a, b) -> int:
    """Reference for ``metrics.lcs_length``: dynamic programming."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l_reference(candidate, reference) -> RougeLResult:
    """Reference for ``metrics.rouge_l`` on ``lcs_reference``, at beta 1.2."""
    cand = list(candidate)
    ref = list(reference)
    if not cand or not ref:
        return RougeLResult(0, 0.0, 0.0, 0.0)
    lcs = lcs_reference(cand, ref)
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    if precision + recall == 0.0:
        return RougeLResult(lcs, precision, recall, 0.0)
    b2 = 1.2 * 1.2
    f = (1 + b2) * precision * recall / (recall + b2 * precision)
    return RougeLResult(lcs, precision, recall, f)


def _token_matrix(tokens, provider) -> np.ndarray:
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


def embedding_f1_reference(candidate, reference, provider=None) -> float:
    """Reference for ``metrics.embedding_f1``: one provider call per token
    occurrence."""
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


def corpus_reference(pairs, provider=None, smooth: bool = False) -> EvalReport:
    """Reference for ``metrics.corpus_evaluate``: the per-pair references,
    one pair at a time."""
    provider = provider or HashedEmbeddings()
    samples = []
    counts = {label: 0 for label in BLEU_BUCKET_LABELS}
    for sample_id, cand, ref in pairs:
        b = bleu_reference(cand, ref, smooth=smooth)
        r = rouge_l_reference(cand, ref)
        f1 = embedding_f1_reference(cand, ref, provider)
        samples.append(SampleScores(str(sample_id), b.scores[0], b.scores[1],
                                    b.scores[2], b.scores[3], r.f_score, f1,
                                    b.empty_candidate))
        counts[bleu1_bucket(b.scores[0])] += 1
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


def raw_record_dict_reference(rec: RawRecord) -> dict:
    """``RawRecord.to_dict`` through ``dataclasses.asdict``."""
    return asdict(rec)


def patient_record_dict_reference(rec: PatientRecord) -> dict:
    """``PatientRecord.to_dict`` through ``dataclasses.asdict``."""
    d = asdict(rec)
    d["scalars"] = asdict(rec.scalars)
    return d
