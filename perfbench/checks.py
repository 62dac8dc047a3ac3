"""Correctness checks for every benchmark stage.

Each check returns a list of failure messages (empty when the output is
correct). Expected values come from implementations written here, apart
from cxrgen (bit-parallel LCS, clipped unigram counts, contiguous phrase
search, sha256 of the written files), or from properties the method must
have (greedy argmax, bit-identical reload, best-parameter restore).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

TOL = 1e-12
PAD, START, END = 0, 1, 2
RESERVED = ("<pad>", "<start>", "<end>", "<unk>")


# -- reference metrics ---------------------------------------------------------------

def lcs_length(a, b) -> int:
    """LCS length by the bit-vector recurrence of Hyyro (2004), one word per row."""
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
    return len(a) - bin(v).count("1")


def rouge_l(candidate, reference, beta: float = 1.2) -> float:
    if not candidate or not reference:
        return 0.0
    lcs = lcs_length(candidate, reference)
    if lcs == 0:
        return 0.0
    p = lcs / len(candidate)
    r = lcs / len(reference)
    b2 = beta * beta
    return (1 + b2) * p * r / (r + b2 * p)


def bleu_1(candidate, reference) -> float:
    """Clipped unigram precision times the brevity penalty."""
    c, r = len(candidate), len(reference)
    if c == 0:
        return 0.0
    ref_counts = Counter(reference)
    matches = sum(min(n, ref_counts[tok]) for tok, n in Counter(candidate).items())
    if matches == 0:
        return 0.0
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return bp * matches / c


def contains_run(tokens, phrase) -> bool:
    m = len(phrase)
    return m > 0 and any(tokens[i:i + m] == phrase for i in range(len(tokens) - m + 1))


def planted_accuracy(rows, planted) -> float:
    """Share of planted-phrase tokens whose phrase appears verbatim in the row."""
    matched = total = 0
    for row in rows:
        tokens = row["generated"].split()
        for phrase in planted[row["sample_id"]]:
            words = phrase.split()
            total += len(words)
            matched += len(words) if contains_run(tokens, words) else 0
    return matched / total


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# -- checks ------------------------------------------------------------------------------

def check_preprocess(out_dir: Path, data: dict, report_len: int,
                     expected_sizes: dict) -> list[str]:
    """Manifest hashes, disjoint splits, scalar ranges, report-id layout."""
    fails = []
    manifest = json.loads((Path(out_dir) / "manifest.json").read_text(encoding="utf-8"))
    for name, filename in manifest["files"].items():
        if sha256(Path(out_dir) / filename) != manifest["sha256"][name]:
            fails.append(f"preprocess: manifest hash mismatch for {filename}")
    ids = {name: [r.sample_id for r in data[name]] for name in ("train", "val", "test")}
    for name, size in expected_sizes.items():
        if len(ids[name]) != size:
            fails.append(f"preprocess: {name} split has {len(ids[name])} records, "
                         f"expected {size}")
    seen = set()
    for name, split_ids in ids.items():
        if len(set(split_ids)) != len(split_ids) or seen & set(split_ids):
            fails.append(f"preprocess: {name} split repeats or shares sample ids")
        seen |= set(split_ids)
    for rec in data["train"]:
        values = [getattr(rec.scalars, f) for f in rec.scalars.ORDER]
        if not all(0.0 <= v <= 1.0 for v in values):
            fails.append(f"preprocess: train record {rec.sample_id} scalar outside [0, 1]")
            break
    for name in ("train", "val", "test"):
        for rec in data[name]:
            r = rec.report_ids
            body = r[:r.index(PAD)] if PAD in r else r
            if len(r) != report_len or r[0] != START or any(t != PAD for t in r[len(body):]):
                fails.append(f"preprocess: bad report ids for {rec.sample_id}")
                break
    return fails


def check_fit(pre_loss: float, result, post_loss: float) -> list[str]:
    """fit leaves the best parameters in place, and training lowered the loss."""
    fails = []
    if result.diverged:
        fails.append("fit: training diverged")
    if post_loss != result.best_val_loss:
        fails.append(f"fit: model holds val loss {post_loss!r}, fit reported "
                     f"{result.best_val_loss!r}")
    if not result.best_val_loss < pre_loss:
        fails.append(f"fit: val loss {result.best_val_loss} not below the untrained "
                     f"{pre_loss}")
    return fails


def check_checkpoint(expected: dict, loaded: dict) -> list[str]:
    """A reloaded checkpoint equals the in-memory parameters bit for bit."""
    if set(expected) != set(loaded):
        return ["checkpoint: parameter names differ after reload"]
    for path, array in expected.items():
        got = np.asarray(loaded[path])
        if got.dtype != array.dtype or got.shape != array.shape or \
                got.tobytes() != array.tobytes():
            return [f"checkpoint: parameter {path} differs after reload"]
    return []


def check_generation(rows: list, test: list, vocab_tokens: set, report_len: int) -> list[str]:
    """Every row belongs to its test record and decodes to in-vocabulary text."""
    if [r["sample_id"] for r in rows] != [t.sample_id for t in test]:
        return ["generate: rows do not follow the test split"]
    for row, rec in zip(rows, test):
        tokens = row["generated"].split()
        if row["reference"] != rec.report_text:
            return [f"generate: wrong reference for {rec.sample_id}"]
        if len(tokens) > report_len - 1 or not set(tokens) <= vocab_tokens:
            return [f"generate: row {rec.sample_id} leaves the vocabulary or report_len"]
    return []


def greedy_reference(model, rec, report_len: int) -> list[int]:
    """Greedy ids by re-running teacher_forced_forward on each decoded prefix."""
    encoded = model.encode_record(rec).output
    ids = [START]
    while len(ids) < report_len:
        logits = model.decoder.teacher_forced_forward(encoded, ids)
        ids.append(int(np.argmax(logits.data[-1])))
        if ids[-1] == END:
            break
    return ids


def check_greedy(model, sample: list, rows_by_id: dict, vocab, report_len: int) -> list[str]:
    """On sampled records the model's ids start with START, stay in the vocabulary
    and report_len, stop at their first END, follow the argmax of every prefix,
    and spell the row that was written."""
    fails = []
    for rec in sample:
        ids = model.generate(rec)
        if not (ids and ids[0] == START and len(ids) <= report_len and
                all(0 <= i < vocab.size for i in ids) and END not in ids[:-1] and
                (ids[-1] == END or len(ids) == report_len)):
            fails.append(f"greedy: bad id layout for {rec.sample_id}")
        elif ids != greedy_reference(model, rec, report_len):
            fails.append(f"greedy: {rec.sample_id} does not follow the prefix argmax")
        elif vocab.text(ids) != rows_by_id[rec.sample_id]["generated"]:
            fails.append(f"greedy: row {rec.sample_id} is not the decoded text")
    return fails


def check_evaluation(pairs: list, report, csv_path: Path) -> list[str]:
    """Per-sample ROUGE-L and BLEU-1 and their corpus means match the reference
    implementations; identical pairs score 1 and empty candidates 0."""
    fails = []
    if report.num_samples != len(pairs):
        return [f"evaluate: scored {report.num_samples} of {len(pairs)} pairs"]
    rouge_sum = bleu_sum = 0.0
    empties = 0
    for (sid, cand, ref), s in zip(pairs, report.samples):
        r, b = rouge_l(cand, ref), bleu_1(cand, ref)
        rouge_sum += r
        bleu_sum += b
        if s.sample_id != sid or abs(s.rouge_l - r) > TOL or abs(s.bleu_1 - b) > TOL:
            fails.append(f"evaluate: per-sample score mismatch for {sid}")
            break
        if cand == ref and cand and (s.rouge_l != 1.0 or abs(s.bleu_1 - 1.0) > TOL):
            fails.append(f"evaluate: identical pair {sid} does not score 1")
            break
        if not cand:
            empties += 1
            if not s.empty_candidate or any(v != 0.0 for v in (
                    s.bleu_1, s.bleu_2, s.bleu_3, s.bleu_4, s.rouge_l, s.embedding_f1)):
                fails.append(f"evaluate: empty candidate {sid} does not score 0")
                break
    n = len(pairs)
    if abs(report.corpus["rouge_l"] - rouge_sum / n) > TOL:
        fails.append("evaluate: corpus ROUGE-L differs from the reference mean")
    if abs(report.corpus["bleu_1"] - bleu_sum / n) > TOL:
        fails.append("evaluate: corpus BLEU-1 differs from the reference mean")
    if report.corpus["empty_candidates"] != empties:
        fails.append("evaluate: wrong empty-candidate count")
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != n or any(row["sample_id"] != s.sample_id or
                             float(row["rouge_l"]) != s.rouge_l
                             for row, s in zip(rows, report.samples)):
        fails.append("evaluate: per-sample CSV does not match the report")
    return fails


def check_planted(rows: list, planted: dict, reported: float, require_signal: bool) -> list[str]:
    fails = []
    expected = planted_accuracy(rows, planted)
    if abs(reported - expected) > TOL:
        fails.append(f"planted: accuracy {reported} differs from reference {expected}")
    if require_signal and expected <= 0.0:
        fails.append("planted: the fusion model reproduces no planted phrase")
    return fails
