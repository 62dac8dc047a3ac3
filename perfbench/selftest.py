"""Self-test of the benchmark's correctness checks at toy sizes.

    python3 perfbench/selftest.py

Runs every stage once on a tiny model and dataset, shows that each check
passes on the real outputs, then corrupts each output in turn and shows that
the check reports it. Exits 1 if any check misses a corruption or rejects a
correct output.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
from run import WORK, perturbed_pairs  # noqa: E402

TOY_MODEL = dict(model_dim=16, num_heads=2, ffn_dim=16, embed_dim=8,
                 image_feature_dim=16, image_tokens=2, report_len=43)

failures: list[str] = []


def expect(name: str, fails: list, should_fail: bool) -> None:
    if bool(fails) != should_fail:
        failures.append(f"{name}: expected {'a failure' if should_fail else 'a pass'}, "
                        f"got {fails or 'a pass'}")
        print(f"MISSED {name}")
    else:
        print(f"ok     {name}")


def reference_lcs(a, b) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            table[i + 1][j + 1] = table[i][j] + 1 if x == y else max(table[i][j + 1],
                                                                      table[i + 1][j])
    return table[-1][-1]


def main() -> int:
    from cxrgen import pipeline, synth, training
    from cxrgen.model import ModelConfig, ReportGenerator
    from cxrgen.preprocess import PreprocessConfig
    from cxrgen.records import read_jsonl

    rng = np.random.default_rng(0)
    lcs_ok = all(checks.lcs_length(a, b) == reference_lcs(a, b)
                 for a, b in ([list(rng.integers(0, 4, rng.integers(0, 70))),
                               list(rng.integers(0, 4, rng.integers(0, 70)))]
                              for _ in range(300)))
    expect("bit-parallel LCS equals the dynamic program", [] if lcs_ok else ["lcs"], False)

    work = WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    dataset = synth.generate_synthetic(synth.SyntheticConfig(num_samples=120, seed=3,
                                                             feature_dim=16))
    synth.write_synthetic_dataset(dataset, work / "data")
    pipeline.run_preprocess(work / "data", work / "prep",
                            PreprocessConfig(report_len=43, image_feature_dim=16),
                            pipeline.SplitPlan(seed=3, test_size=6))
    data = pipeline.load_preprocessed(work / "prep")
    sizes = {"test": 6}
    expect("preprocess", checks.check_preprocess(work / "prep", data, 43, sizes), False)

    bad = copy.copy(data)
    bad["train"] = list(data["train"])
    rec = copy.copy(bad["train"][0])
    rec.scalars = dataclasses.replace(rec.scalars, o2sat=1.25)
    bad["train"][0] = rec
    expect("train scalar outside [0, 1]", checks.check_preprocess(
        work / "prep", bad, 43, sizes), True)
    bad = dict(data, test=[data["train"][0]] + data["test"][1:])
    expect("record in two splits", checks.check_preprocess(work / "prep", bad, 43, sizes),
           True)
    bad = dict(data, val=list(data["val"]))
    rec = copy.copy(bad["val"][0])
    rec.report_ids = [1, 5, 0, 6] + [0] * 39
    bad["val"][0] = rec
    expect("PAD inside a report", checks.check_preprocess(work / "prep", bad, 43, sizes),
           True)
    shutil.copytree(work / "prep", work / "prep_bad")
    with open(work / "prep_bad" / "train.jsonl", "a", encoding="utf-8") as fh:
        fh.write("\n")
    expect("split file changed after the manifest", checks.check_preprocess(
        work / "prep_bad", data, 43, sizes), True)

    vocab = data["report_vocab"]
    model = ReportGenerator(ModelConfig(**TOY_MODEL), vocab.size, data["chief_vocab"].size,
                            data["icd_vocab"].size, seed=3)
    train, val = data["train"][:24], data["val"][:8]
    pre = training.evaluate_split(model, val)[0]
    initial = model.state_dict()
    result = training.fit(model, train, val, training.TrainConfig(
        base_lr=3e-3, warmup_steps=2, batch_size=8, max_epochs=2, seed=3))
    expect("fit", checks.check_fit(pre, result, training.evaluate_split(model, val)[0]),
           False)
    state = model.state_dict()
    nudged = {p: a.copy() for p, a in state.items()}
    first = sorted(nudged)[0]
    nudged[first].flat[0] = np.nextafter(nudged[first].flat[0], np.inf)
    model.load_state_dict(initial)
    expect("model left holding its initial parameters", checks.check_fit(
        pre, result, training.evaluate_split(model, val)[0]), True)
    model.load_state_dict(state)
    expect("loss not lowered by training", checks.check_fit(
        result.best_val_loss, result, result.best_val_loss), True)

    model.save(work / "checkpoint.json", extra_metadata={"inputs": "all"})
    loaded = ReportGenerator.load(work / "checkpoint.json").state_dict()
    expect("checkpoint", checks.check_checkpoint(state, loaded), False)
    expect("checkpoint with one parameter changed by one ulp",
           checks.check_checkpoint(state, nudged), True)

    pipeline.run_generation(work / "prep", work / "checkpoint.json", work / "gen.jsonl")
    rows = read_jsonl(work / "gen.jsonl")
    tokens = {vocab.token_of(i) for i in range(vocab.size)} - set(checks.RESERVED)
    expect("generation", checks.check_generation(rows, data["test"], tokens, 43), False)
    expect("rows out of order", checks.check_generation(
        rows[::-1], data["test"], tokens, 43), True)
    bad_rows = copy.deepcopy(rows)
    bad_rows[0]["generated"] += " notaword"
    expect("token outside the vocabulary", checks.check_generation(
        bad_rows, data["test"], tokens, 43), True)

    by_id = {r["sample_id"]: r for r in rows}
    expect("greedy property", checks.check_greedy(model, data["test"], by_id, vocab, 43),
           False)
    bad_rows = copy.deepcopy(by_id)
    row = bad_rows[data["test"][0].sample_id]
    words = row["generated"].split() or ["the"]
    words[0] = next(t for t in sorted(tokens) if t != words[0])
    row["generated"] = " ".join(words)
    expect("swapped token in a decoded row", checks.check_greedy(
        model, data["test"][:1], bad_rows, vocab, 43), True)

    pairs = perturbed_pairs(dataset.records, 3)
    with open(work / "scored.jsonl", "w", encoding="utf-8") as fh:
        for sid, cand, ref in pairs:
            fh.write(json.dumps({"sample_id": sid, "generated": " ".join(cand),
                                 "reference": " ".join(ref)}) + "\n")
    report = pipeline.run_evaluation(work / "scored.jsonl", work / "eval.json",
                                     per_sample_csv=work / "eval.csv")
    expect("evaluation", checks.check_evaluation(pairs, report, work / "eval.csv"), False)
    bad = copy.deepcopy(report)
    bad.corpus["rouge_l"] += 1e-9
    expect("perturbed corpus ROUGE-L", checks.check_evaluation(pairs, bad, work / "eval.csv"),
           True)
    bad = copy.deepcopy(report)
    bad.samples[1].bleu_1 += 1e-9
    expect("perturbed per-sample BLEU-1", checks.check_evaluation(
        pairs, bad, work / "eval.csv"), True)
    empty = next(i for i, (_, cand, _) in enumerate(pairs) if not cand)
    bad = copy.deepcopy(report)
    bad.samples[empty].embedding_f1 = 0.5
    expect("empty candidate scoring above 0", checks.check_evaluation(
        pairs, bad, work / "eval.csv"), True)
    same = next(i for i, (_, cand, ref) in enumerate(pairs) if cand == ref)
    bad_pairs = list(pairs)
    sid, cand, ref = bad_pairs[same]
    bad_pairs[same] = (sid, cand, ref + ["extra"])
    expect("identical pair not scoring 1", checks.check_evaluation(
        bad_pairs, report, work / "eval.csv"), True)
    text = (work / "eval.csv").read_text(encoding="utf-8").splitlines()
    text[2] = text[2].replace(pairs[1][0], "synth-x")
    (work / "eval_bad.csv").write_text("\n".join(text) + "\n", encoding="utf-8")
    expect("per-sample CSV differing from the report", checks.check_evaluation(
        pairs, report, work / "eval_bad.csv"), True)

    planted = dataset.planted_phrases
    scored_rows = [{"sample_id": sid, "generated": " ".join(cand)} for sid, cand, _ in pairs]
    accuracy = pipeline.planted_phrase_accuracy(scored_rows, planted)
    expect("planted accuracy", checks.check_planted(scored_rows, planted, accuracy, True),
           False)
    expect("misreported planted accuracy", checks.check_planted(
        scored_rows, planted, accuracy + 1e-9, False), True)
    silent = [{"sample_id": r["sample_id"], "generated": ""} for r in scored_rows]
    expect("no planted phrase reproduced", checks.check_planted(silent, planted, 0.0, True),
           True)

    shutil.rmtree(work)
    print("self-test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
