"""Acceptance gate: one test per numbered criterion, one verdict line each.

Run `pytest tests/test_acceptance.py -v` for the per-criterion pass/fail
lines; add `-s` to see the measured values behind each verdict. The whole
gate runs in well under ten minutes on one CPU core.
"""

import json
import time
from itertools import combinations

import numpy as np
import pytest

from helpers import FD_STEP, GRAD_RTOL, check_gradients
from cxrgen.attention import (AttentionProjections, multi_head_attention,
                              scaled_dot_product_attention)
from cxrgen.metrics import BLEU_BUCKET_LABELS, bleu, corpus_evaluate, rouge_l
from cxrgen.model import ModelConfig, ReportGenerator
from cxrgen.params import ParameterStore
from cxrgen.pipeline import (SplitPlan, run_ablation, run_evaluation,
                             run_generation, run_preprocess, run_synth,
                             run_training)
from cxrgen.preprocess import (FeatureStats, NormalizationStats,
                               PreprocessConfig, build_patient_record,
                               celsius_to_fahrenheit, encode_gender,
                               minmax_normalize, standardize_text,
                               tokenize_and_fit_vocab)
from cxrgen.records import PatientRecord, ScalarFeatures
from cxrgen.synth import SyntheticConfig, generate_synthetic
from cxrgen.tensor import (Tensor, add, batched_matmul, concat, dense,
                           embedding_lookup, layer_norm, log_softmax, matmul,
                           mul, neg, reduce_sum, relu, reshape, softmax,
                           swap_axes, take_per_row)
from cxrgen.training import TrainConfig, fit
from cxrgen.vocab import END_ID, PAD_ID, START_ID


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def _rand(store: ParameterStore, name, shape, rng, keep_away_from=None):
    t = store.zeros(name, shape)
    data = rng.standard_normal(shape)
    if keep_away_from is not None:
        data = np.where(np.abs(data - keep_away_from) < 0.25,
                        data + np.sign(data - keep_away_from + 1e-12) * 0.5, data)
    t.data = data
    return t


def _tiny_record(rng, feature_dim=12, report=(START_ID, 5, 9, 13, 7, 4, END_ID,
                                              PAD_ID, PAD_ID, PAD_ID)):
    return PatientRecord(
        sample_id="t", scalars=ScalarFeatures(0.5, 0.4, 0.3, 0.9, 0.6, 0.5, 0.25, 1.0),
        ethnicity=3, chief_ids=[4, 5], icd_ids=[6, 7, 8],
        image_features=rng.standard_normal(feature_dim).tolist(),
        report_ids=list(report), report_text="t")


def test_criterion_1_gradient_correctness():
    """Every op plus the full encoder+decoder matches finite differences."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    n_ops = 0

    def scenario(make):
        # ``make`` registers parameters once and returns a re-runnable loss
        # closure over them, as finite differencing calls it repeatedly
        nonlocal worst, n_ops
        store = ParameterStore(0)
        loss_fn = make(store)
        params = list(store.parameters.values())
        assert params, "scenario registered no parameters"
        checked = sum(p.data.size for p in params)
        worst = max(worst, check_gradients(loss_fn, params, FD_STEP, GRAD_RTOL))
        n_ops += 1
        return checked

    w1t = rng.standard_normal((3, 4))
    w2 = rng.standard_normal((3, 4))

    def weighted(x, w):  # reduce to a scalar with fixed non-uniform weights
        return reduce_sum(mul(x, Tensor(np.asarray(w, dtype=np.float64))))

    def op_matmul(s):
        a, b = _rand(s, "a", (3, 4), rng), _rand(s, "b", (4, 3), rng)
        return lambda: weighted(matmul(a, b), np.eye(3) + 1)

    def op_add_same(s):
        a, b = _rand(s, "a", (3, 4), rng), _rand(s, "b", (3, 4), rng)
        return lambda: weighted(add(a, b), w1t)

    def op_add_bias_row(s):
        a, b = _rand(s, "a", (3, 4), rng), _rand(s, "b", (4,), rng)
        return lambda: weighted(add(a, b), w1t)

    def op_neg(s):
        a = _rand(s, "a", (3, 4), rng)
        return lambda: weighted(neg(a), w1t)

    def op_mul_elem(s):
        a, b = _rand(s, "a", (3, 4), rng), _rand(s, "b", (3, 4), rng)
        return lambda: weighted(mul(a, b), w1t)

    def op_mul_scalar(s):
        a = _rand(s, "a", (3, 4), rng)
        return lambda: weighted(mul(a, -1.7), w1t)

    def op_relu(s):
        a = _rand(s, "a", (3, 4), rng, keep_away_from=0.0)
        return lambda: weighted(relu(a), w1t)

    def op_softmax(s):
        a = _rand(s, "a", (3, 4), rng)
        return lambda: weighted(softmax(a), w1t)

    def op_log_softmax(s):
        a = _rand(s, "a", (3, 4), rng)
        return lambda: weighted(log_softmax(a), w1t)

    def op_layer_norm(s):
        x = _rand(s, "x", (3, 4), rng)
        g, b = _rand(s, "g", (4,), rng), _rand(s, "b", (4,), rng)
        return lambda: weighted(layer_norm(x, g, b, 1e-6), w1t)

    def op_dense(s):
        x = _rand(s, "x", (3, 4), rng)
        w, b = _rand(s, "w", (4, 3), rng), _rand(s, "b", (3,), rng)
        wd = rng.standard_normal((3, 3))
        return lambda: weighted(dense(x, w, b), wd)

    def op_concat(s):
        a, b = _rand(s, "a", (2, 3), rng), _rand(s, "b", (2, 4), rng)
        wc = rng.standard_normal((2, 7))
        return lambda: weighted(concat([a, b]), wc)

    def op_batched_matmul(s):
        a, b = _rand(s, "a", (2, 3, 4), rng), _rand(s, "b", (2, 4, 3), rng)
        wb = rng.standard_normal((2, 3, 3))
        return lambda: weighted(batched_matmul(a, b), wb)

    def op_swap_axes(s):
        a = _rand(s, "a", (2, 3, 4), rng)
        ws = rng.standard_normal((4, 3, 2))
        return lambda: weighted(swap_axes(a, 0, 2), ws)

    def op_reshape(s):
        a = _rand(s, "a", (3, 4), rng)
        return lambda: weighted(reshape(a, (4, 3)), w2.T)

    def op_reduce_sum(s):
        a = _rand(s, "a", (3, 4), rng)
        return lambda: reduce_sum(mul(a, a))

    def op_embedding_lookup(s):
        table = _rand(s, "table", (7, 4), rng)
        ids = np.array([0, 3, 3, 6])
        we = rng.standard_normal((4, 4))
        return lambda: weighted(embedding_lookup(table, ids), we)

    def op_take_per_row(s):
        a = _rand(s, "a", (4, 5), rng)
        cols = np.array([1, 0, 4, 2])
        return lambda: weighted(take_per_row(log_softmax(a), cols),
                                np.arange(1.0, 5.0))

    def op_multi_head_attention(s):
        proj = AttentionProjections.create(s, "mha", 6, 2)
        q = _rand(s, "q", (2 * 3, 6), rng)
        kv = _rand(s, "kv", (2 * 4, 6), rng)
        wm = rng.standard_normal((2 * 3, 6))
        mask = np.array([[1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]], dtype=bool)
        return lambda: weighted(multi_head_attention(q, kv, kv, proj, 2, mask).output, wm)

    for make in (op_matmul, op_batched_matmul, op_add_same, op_add_bias_row,
                 op_neg, op_mul_elem, op_mul_scalar, op_relu,
                 op_softmax, op_log_softmax, op_layer_norm, op_dense, op_concat,
                 op_reshape, op_swap_axes, op_reduce_sum,
                 op_embedding_lookup, op_take_per_row, op_multi_head_attention):
        scenario(make)

    config = ModelConfig(model_dim=8, num_heads=2, ffn_dim=8, embed_dim=8,
                         report_len=12, chief_len=2, icd_len=3, decoder_layers=1,
                         scalar_out_dim=8, image_feature_dim=12, image_tokens=2)
    model = ReportGenerator(config, vocab_size=20, chief_vocab_size=10,
                            icd_vocab_size=10, seed=3)
    rec = _tiny_record(np.random.default_rng(1))
    n_params = sum(p.data.size for p in model.parameters().values())
    worst = max(worst, check_gradients(
        lambda: model.loss_for_record(rec)[0], list(model.parameters().values()),
        FD_STEP, GRAD_RTOL))
    # the batched objective on three reports of different lengths
    batch = [_tiny_record(np.random.default_rng(seed), report=report) for seed, report in (
        (2, (START_ID, 5, END_ID) + (PAD_ID,) * 7),
        (3, (START_ID, 9, 13, 7, 4, 11, 6, 8, END_ID, PAD_ID)),
        (4, (START_ID, 4, 4, 12, END_ID, PAD_ID, PAD_ID)))]
    worst = max(worst, check_gradients(
        lambda: model.loss_for_batch(batch)[0], list(model.parameters().values()),
        FD_STEP, GRAD_RTOL))

    elapsed = time.perf_counter() - start
    _verdict(1, worst < GRAD_RTOL and elapsed < 120.0,
             f"max rel err {worst:.2e} over {n_ops} ops + full model, one record and "
             f"a batch of 3 ({n_params} parameter entries), {elapsed:.0f}s")


def test_criterion_2_attention_invariants():
    """Attention rows are stochastic and masked positions carry zero weight."""
    rng = np.random.default_rng(42)
    rows_checked = 0
    worst_sum_err = 0.0
    for i in range(1000):
        nq = int(rng.integers(1, 7))
        nk = int(rng.integers(1, 7))
        dk = int(rng.integers(1, 6))
        dv = int(rng.integers(1, 6))
        q = Tensor(rng.standard_normal((nq, dk)) * rng.uniform(0.5, 4.0))
        k = Tensor(rng.standard_normal((nk, dk)) * rng.uniform(0.5, 4.0))
        v = Tensor(rng.standard_normal((nk, dv)))
        mask = None
        if i % 2 == 0:
            mask = rng.uniform(size=(nq, nk)) < 0.6
            mask[np.arange(nq), rng.integers(0, nk, size=nq)] = True  # keep rows viable
        w = scaled_dot_product_attention(q, k, v, mask).weights.data
        assert np.all(w >= 0.0)
        worst_sum_err = max(worst_sum_err, float(np.abs(w.sum(axis=1) - 1.0).max()))
        if mask is not None:
            assert np.all(w[~mask] == 0.0)
        rows_checked += nq
    _verdict(2, worst_sum_err <= 1e-12,
             f"{rows_checked} weight rows over 1000 inputs, "
             f"worst row-sum error {worst_sum_err:.2e}")


def test_criterion_3_architecture_conformance():
    """Full-size hyperparameters are the defaults, verified by introspection."""
    m = ModelConfig()
    t = TrainConfig()
    checks = {
        "embed_dim=512": m.embed_dim == 512,
        "model_dim=512": m.model_dim == 512,
        "heads=3": m.num_heads == 3,
        "ffn=512": m.ffn_dim == 512,
        "report_len=43": m.report_len == 43,
        "chief_len=2": m.chief_len == 2,
        "icd_len=6": m.icd_len == 6,
        "batch=64": t.batch_size == 64,
        "lr=3e-4": t.base_lr == 3e-4,
        "warmup=500": t.warmup_steps == 500,
        "max_epochs=100": t.max_epochs == 100,
        "patience=5": t.early_stop_patience == 5,
    }
    bad = [name for name, ok in checks.items() if not ok]
    _verdict(3, not bad, "all 12 defaults conform" if not bad
             else f"nonconforming: {bad}")


def test_criterion_4_overfit_sanity():
    """A tiny model memorizes 16 samples and reproduces them greedily."""
    start = time.perf_counter()
    ds = generate_synthetic(SyntheticConfig(num_samples=16, seed=5, feature_dim=32))
    stats = NormalizationStats.fit(ds.records)
    report_vocab = tokenize_and_fit_vocab(standardize_text(r.report) for r in ds.records)
    chief_vocab = tokenize_and_fit_vocab(standardize_text(r.chief_complaint)
                                         for r in ds.records)
    icd_vocab = tokenize_and_fit_vocab(standardize_text(r.icd_title) for r in ds.records)
    prep = PreprocessConfig(report_len=43, image_feature_dim=32)
    records = [build_patient_record(r, stats, report_vocab, chief_vocab, icd_vocab,
                                    ds.image_features[r.sample_id], prep)
               for r in ds.records]

    model = ReportGenerator(
        ModelConfig(model_dim=32, num_heads=2, ffn_dim=32, embed_dim=32,
                    image_feature_dim=32, image_tokens=2),
        report_vocab.size, chief_vocab.size, icd_vocab.size, seed=0)
    fit(model, records, records,
        TrainConfig(base_lr=2e-3, warmup_steps=50, batch_size=4, max_epochs=300,
                    early_stop_patience=300, seed=0))

    correct = total = 0
    for rec in records:
        _, c, t = model.loss_for_record(rec)
        correct += c
        total += t
    accuracy = correct / total
    verbatim = sum(report_vocab.text(model.generate(rec)) == rec.report_text
                   for rec in records)
    elapsed = time.perf_counter() - start
    _verdict(4, accuracy >= 0.95 and verbatim >= 14 and elapsed < 300.0,
             f"masked accuracy {accuracy:.3f} (>=0.95), verbatim {verbatim}/16 "
             f"(>=14), {elapsed:.0f}s (<300)")


# -- criterion 5 oracles: deliberately naive, list-based implementations ------

def _oracle_ngram_counts(seq, n):
    grams = [tuple(seq[i:i + n]) for i in range(len(seq) - n + 1)]
    return grams


def _oracle_bleu(candidate, reference, max_n=4):
    scores = []
    c, r = len(candidate), len(reference)
    bp = 1.0 if c > r else (0.0 if c == 0 else float(np.exp(1.0 - r / c)))
    for ceiling in range(1, max_n + 1):
        precisions = []
        for n in range(1, ceiling + 1):
            cand = _oracle_ngram_counts(candidate, n)
            ref = _oracle_ngram_counts(reference, n)
            clipped = sum(min(cand.count(g), ref.count(g)) for g in set(cand))
            precisions.append(clipped / len(cand) if cand else 0.0)
        if any(p == 0.0 for p in precisions):
            scores.append(0.0)
        else:
            geo = float(np.exp(sum(np.log(p) for p in precisions) / ceiling))
            scores.append(bp * geo)
    return scores


def _oracle_lcs_exhaustive(a, b):
    best = 0
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    for size in range(len(short), 0, -1):
        for idx in combinations(range(len(short)), size):
            sub = [short[i] for i in idx]
            it = iter(long_)
            if all(tok in it for tok in sub):
                return size
    return best


def _oracle_rouge_l(candidate, reference, beta=1.2):
    if not candidate or not reference:
        return 0.0
    lcs = _oracle_lcs_exhaustive(candidate, reference)
    if lcs == 0:
        return 0.0
    p = lcs / len(candidate)
    r = lcs / len(reference)
    return (1 + beta ** 2) * p * r / (r + beta ** 2 * p)


def test_criterion_5_metric_oracle_equivalence():
    """BLEU and ROUGE-L agree with brute-force oracles to 1e-12."""
    rng = np.random.default_rng(99)
    vocab = [f"w{i}" for i in range(10)]
    worst = 0.0
    for _ in range(100):
        cand = [vocab[i] for i in rng.integers(0, 10, size=rng.integers(1, 13))]
        ref = [vocab[i] for i in rng.integers(0, 10, size=rng.integers(1, 13))]
        ours = bleu(cand, ref).scores
        oracle = _oracle_bleu(cand, ref)
        worst = max(worst, max(abs(a - b) for a, b in zip(ours, oracle)))
    lcs_worst = 0.0
    for _ in range(100):
        cand = [vocab[i] for i in rng.integers(0, 10, size=rng.integers(0, 9))]
        ref = [vocab[i] for i in rng.integers(0, 10, size=rng.integers(0, 9))]
        ours = rouge_l(cand, ref).f_score
        lcs_worst = max(lcs_worst, abs(ours - _oracle_rouge_l(cand, ref)))
    ok = worst <= 1e-12 and lcs_worst <= 1e-12
    _verdict(5, ok, f"BLEU max |diff| {worst:.1e}, ROUGE-L (exhaustive LCS) "
                    f"max |diff| {lcs_worst:.1e} over 100 pairs each")


def test_criterion_6_preprocessing_golden():
    """The documented cleaning rules hold verbatim."""
    checks = {
        'cp -> "chest pain"': standardize_text("cp") == "chest pain",
        'sob -> "dyspnea"': standardize_text("sob") == "dyspnea",
        "comma join": standardize_text("chest pain, dyspnea") == "chest pain and dyspnea",
        "fevers -> fever": standardize_text("fevers") == "fever",
        "Male -> 0": encode_gender("Male") == 0.0,
        "Female -> 1": encode_gender("Female") == 1.0,
        "37C -> 98.6F": celsius_to_fahrenheit(37.0) == pytest.approx(98.6),
        "min -> 0": minmax_normalize(12.0, FeatureStats(12.0, 30.0)) == 0.0,
        "max -> 1": minmax_normalize(30.0, FeatureStats(12.0, 30.0)) == 1.0,
    }
    bad = [name for name, ok in checks.items() if not ok]
    _verdict(6, not bad, "all golden rules hold" if not bad
             else f"violated: {bad}")


def test_criterion_7_fusion_ablation_ordering(tmp_path):
    """Fusion beats the image-only baseline on planted-signal data, 3/3 seeds."""
    start = time.perf_counter()
    details = []
    all_ok = True
    for seed in (0, 1, 2):
        summary = run_ablation(tmp_path / f"seed{seed}", seed=seed)
        base = summary["rows"]["image_only"]
        fused = summary["rows"]["all"]
        d_bleu = fused["bleu_1"] - base["bleu_1"]
        d_rouge = fused["rouge_l"] - base["rouge_l"]
        ok = (d_bleu >= 0.05 and d_rouge >= 0.05
              and fused["planted_accuracy"] >= 0.9
              and base["planted_accuracy"] < 0.6)
        all_ok &= ok
        details.append(f"seed {seed}: dB1 {d_bleu:+.3f}, dRL {d_rouge:+.3f}, "
                       f"planted {fused['planted_accuracy']:.2f} vs "
                       f"{base['planted_accuracy']:.2f} [{'ok' if ok else 'FAIL'}]")
    elapsed = time.perf_counter() - start
    _verdict(7, all_ok and elapsed < 1800.0,
             "; ".join(details) + f"; {elapsed:.0f}s (<1800)")


def test_criterion_8_determinism(tmp_path):
    """Identical seeds give byte-identical evaluation reports end to end."""
    synth_cfg = SyntheticConfig(num_samples=60, seed=3, feature_dim=16)
    prep_cfg = PreprocessConfig(report_len=43, image_feature_dim=16)
    plan = SplitPlan(subset_fraction=0.7, test_size=8, seed=0)
    model_cfg = ModelConfig(model_dim=16, num_heads=2, ffn_dim=16, embed_dim=16,
                            image_feature_dim=16, image_tokens=2)
    train_cfg = TrainConfig(base_lr=2e-3, warmup_steps=10, batch_size=16,
                            max_epochs=2, early_stop_patience=5, seed=0)
    reports = []
    for run in ("a", "b"):
        root = tmp_path / run
        run_synth(root / "data", synth_cfg)
        run_preprocess(root / "data", root / "prep", prep_cfg, plan)
        run_training(root / "prep", root / "run", model_cfg, train_cfg)
        run_generation(root / "prep", root / "run" / "checkpoint.npz",
                       root / "gen.jsonl")
        run_evaluation(root / "gen.jsonl", root / "eval.json")
        reports.append((root / "eval.json").read_bytes())
    _verdict(8, reports[0] == reports[1],
             f"two pipeline runs, report bytes equal={reports[0] == reports[1]} "
             f"({len(reports[0])} bytes)")


def test_criterion_9_score_bucket_reporting():
    """Corpus reports carry the named BLEU-1 buckets, fractions summing to 1."""
    rng = np.random.default_rng(17)
    vocab = [f"w{i}" for i in range(30)]
    pairs = []
    for i in range(50):  # overlaps spread scores across buckets
        ref = [vocab[j] for j in rng.integers(0, 30, size=10)]
        keep = int(rng.integers(0, 11))
        cand = ref[:keep] + [vocab[j] for j in rng.integers(0, 30, size=10 - keep)]
        pairs.append((f"s{i}", cand, ref))
    report = corpus_evaluate(pairs)
    labels_ok = tuple(report.bleu1_histogram) == BLEU_BUCKET_LABELS
    total = sum(report.bleu1_histogram.values())
    sum_ok = abs(total - 1.0) <= 1e-12
    payload = json.loads(report.to_json())
    _verdict(9, labels_ok and sum_ok and "bleu1_histogram" in payload,
             f"buckets {list(report.bleu1_histogram)}, fraction sum err "
             f"{abs(total - 1.0):.1e}")
