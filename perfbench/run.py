"""Benchmark of the cxrgen report generator, one workload per process.

    python3 perfbench/run.py --workload desk-fusion --seed 0 --seconds 15 --trace 0

Every workload runs the user-facing stages in order: synthesis (set-up),
``run_preprocess``, ``fit``, ``ReportGenerator.save``/``load``,
``run_generation`` and ``run_evaluation``. The workloads differ in input size
and model width, so a different stage dominates each one. Every stage's
output is checked. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 1`` the
metrics are per-layer self times from a traced run instead of end-to-end
figures. ``--workload all`` runs every workload, each in a fresh process.
"""

from __future__ import annotations

import os

# BLAS must be pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench-work"

DESK_MODEL = dict(model_dim=64, num_heads=3, ffn_dim=64, embed_dim=64,
                  image_feature_dim=64, image_tokens=4, report_len=43)
FULL_MODEL = dict(image_feature_dim=64)  # every other field at its full-size default
FEATURE_DIM = 64


@dataclass(frozen=True)
class Workload:
    samples: int                   # raw records synthesized, preprocessed and scored
    test_size: int                 # records decoded by run_generation
    model: dict
    train_records: Optional[int]   # slice of the train split fit uses; None = all
    val_records: Optional[int]
    batch_size: int
    epochs: int
    base_lr: float
    warmup_steps: int
    reps: dict                     # samples of each stage (set-up and short ones: at least)
    greedy_sample: int             # decoded records re-checked for the greedy property
    require_planted: bool


WORKLOADS = {
    # the paper's all-inputs model at the ablation's desk sizes: per-sample tape
    # overhead in fit and the full-prefix greedy decoder dominate
    "desk-fusion": Workload(
        samples=2000, test_size=300, model=DESK_MODEL, train_records=None,
        val_records=None, batch_size=32, epochs=2, base_lr=2e-3, warmup_steps=10,
        reps=dict(setup=3, construct=3, preprocess=5, save=9, load=9, evaluate=5,
                  generate=2, fit=2),
        greedy_sample=8, require_planted=True),
    # the full-size 7.0M-parameter model: matmuls, Adam and the 156 MB JSON
    # checkpoint, read three times per run_generation, dominate
    "full-model": Workload(
        samples=1000, test_size=6, model=FULL_MODEL, train_records=32, val_records=8,
        batch_size=4, epochs=1, base_lr=3e-4, warmup_steps=4,
        reps=dict(setup=3, construct=3, preprocess=7, save=2, load=2, evaluate=7,
                  generate=2, fit=1),
        greedy_sample=2, require_planted=False),
}

END_TO_END = {
    "setup_s": "s", "train_records_per_s": "records/s", "generate_records_per_s": "records/s",
    "checkpoint_save_s": "s", "checkpoint_load_s": "s", "checkpoint_mb": "MB",
    "preprocess_records_per_s": "records/s", "evaluate_pairs_per_s": "pairs/s",
    "peak_rss_mb": "MB", "val_loss": "nats",
}

# decoded-split quality, reported with the per-layer metrics of a traced run
QUALITY = ("quality.rouge_l", "quality.planted_accuracy")


def layer_unit(name: str) -> str:
    if name.startswith("quality."):
        return "score"
    for suffix, unit in (("_per_record", "count/record"), ("_pct", "%"), ("_us", "us"),
                         ("_ratio", "ratio"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def environment() -> dict:
    import numpy as np
    blas = {}
    with contextlib.suppress(AttributeError, KeyError, TypeError, ValueError):
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    sha, dirty = None, None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30).stdout.strip()
            dirty = bool(subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                        capture_output=True, text=True,
                                        timeout=30).stdout.strip())
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "git_sha": sha or None, "git_dirty": dirty,
    }


def perturbed_pairs(records, seed: int) -> list:
    """Seeded candidates for scoring: 5% empty, 10% identical to the reference,
    the rest with one to five token drops, swaps or substitutions."""
    import numpy as np
    rng = np.random.default_rng([seed, 1])
    words = sorted({w for r in records for w in r.report.split()})
    pairs = []
    for rec in records:
        ref = rec.report.split()
        cand = list(ref)
        u = rng.random()
        if u < 0.05:
            cand = []
        elif u >= 0.15:
            for _ in range(int(rng.integers(1, 6))):
                i = int(rng.integers(len(cand)))
                op = int(rng.integers(3))
                if op == 0 and len(cand) > 1:
                    del cand[i]
                elif op == 1:
                    j = int(rng.integers(len(cand)))
                    cand[i], cand[j] = cand[j], cand[i]
                else:
                    cand[i] = words[int(rng.integers(len(words)))]
        pairs.append((rec.sample_id, cand, ref))
    return pairs


class Run:
    """One workload in this process: stages, their timings, and the checks."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        from tracing import Tracer
        self.w = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.times: dict[str, list[float]] = {}
        self.fails: list[str] = []
        self.attempted = 0
        self.report_len = self.w.model.get("report_len", 43)
        self.dir = WORK / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        if self.tracer:
            self.tracer.install()

    def timed(self, stage: str, fn):
        gc.collect()
        ctx = self.tracer.stage(stage) if self.tracer else contextlib.nullcontext()
        with ctx:
            start = time.perf_counter()
            out = fn()
            elapsed = time.perf_counter() - start
        self.times.setdefault(stage, []).append(elapsed)
        return out

    def median(self, stage: str) -> float:
        return statistics.median(self.times[stage])

    def measured(self) -> float:
        return sum(sum(v) for k, v in self.times.items() if k not in ("setup", "construct"))

    # -- stages ------------------------------------------------------------------
    def setup(self):
        from cxrgen import synth
        cfg = synth.SyntheticConfig(num_samples=self.w.samples, seed=self.seed,
                                    feature_dim=FEATURE_DIM)
        data = synth.generate_synthetic(cfg)
        synth.write_synthetic_dataset(data, self.dir / "data")
        pairs = perturbed_pairs(data.records, self.seed)
        with open(self.dir / "scored.jsonl", "w", encoding="utf-8") as fh:
            for sid, cand, ref in pairs:
                fh.write(json.dumps({"sample_id": sid, "generated": " ".join(cand),
                                     "reference": " ".join(ref)}) + "\n")
        return data, pairs

    def preprocess(self) -> str:
        from cxrgen import pipeline
        from cxrgen.preprocess import PreprocessConfig
        cfg = PreprocessConfig(report_len=self.report_len, image_feature_dim=FEATURE_DIM)
        plan = pipeline.SplitPlan(seed=self.seed, test_size=self.w.test_size)
        pipeline.run_preprocess(self.dir / "data", self.dir / "prep", cfg, plan)
        self.attempted += self.w.samples
        return (self.dir / "prep" / "manifest.json").read_text(encoding="utf-8")

    def construct(self, vocab_sizes):
        from cxrgen.model import ModelConfig, ReportGenerator
        return ReportGenerator(ModelConfig(**self.w.model), *vocab_sizes, seed=self.seed)

    def save(self, model) -> None:
        model.save(self.dir / "checkpoint.json", extra_metadata={"inputs": "all"})

    def load(self):
        from cxrgen.model import ReportGenerator
        return ReportGenerator.load(self.dir / "checkpoint.json")

    def evaluate(self):
        from cxrgen import pipeline
        report = pipeline.run_evaluation(self.dir / "scored.jsonl", self.dir / "eval.json",
                                         per_sample_csv=self.dir / "eval.csv")
        self.attempted += report.num_samples
        return report

    # -- the workload ----------------------------------------------------------------
    def execute(self) -> dict:
        import numpy as np
        import checks
        from cxrgen import pipeline, training
        from cxrgen.records import read_jsonl
        w = self.w

        for _ in range(w.reps["setup"]):
            dataset, pairs = self.timed("setup", self.setup)

        self.manifest = self.timed("preprocess", self.preprocess)
        data = pipeline.load_preprocessed(self.dir / "prep")
        subset = max(2, round(0.7 * w.samples))
        self.fails += checks.check_preprocess(
            self.dir / "prep", data, self.report_len,
            {"test": min(w.test_size, w.samples - subset)})
        if len(data["train"]) + len(data["val"]) != subset or \
                abs(len(data["train"]) - 0.7 * subset) > 2:
            self.fails.append("preprocess: train/val split sizes are not 70/30 of the subset")

        sizes = (data["report_vocab"].size, data["chief_vocab"].size, data["icd_vocab"].size)
        for _ in range(w.reps["construct"]):
            model = self.timed("construct", lambda: self.construct(sizes))
        train = data["train"][:w.train_records]
        val = data["val"][:w.val_records]
        config = training.TrainConfig(base_lr=w.base_lr, warmup_steps=w.warmup_steps,
                                      batch_size=w.batch_size, max_epochs=w.epochs,
                                      seed=self.seed)
        # A checkpoint stage timed once waits for the trained model; others start
        # on the untrained one, so their samples span the whole run.
        self.round(model, early=True)
        pre_loss = training.evaluate_split(model, val)[0]
        result = self.timed("fit", lambda: training.fit(model, train, val, config))
        trained = len(train) * result.epochs_run
        self.attempted += trained
        self.fails += checks.check_fit(pre_loss, result, training.evaluate_split(model, val)[0])

        self.round(model)
        gen_path = self.dir / "generated.jsonl"

        def generate():
            count = pipeline.run_generation(self.dir / "prep", self.dir / "checkpoint.json",
                                            gen_path)
            self.attempted += count
            return count

        generated = self.timed("generate", generate)
        written = gen_path.read_bytes()
        rows = read_jsonl(gen_path)
        vocab = data["report_vocab"]
        tokens = {vocab.token_of(i) for i in range(vocab.size)} - set(checks.RESERVED)
        self.fails += checks.check_generation(rows, data["test"], tokens, self.report_len)
        pick = np.random.default_rng([self.seed, 2]).choice(
            len(data["test"]), size=min(w.greedy_sample, len(data["test"])), replace=False)
        self.fails += checks.check_greedy(model, [data["test"][i] for i in sorted(pick)],
                                          {r["sample_id"]: r for r in rows}, vocab,
                                          self.report_len)
        quality = self.decoded_quality(rows, dataset.planted_phrases)

        # Short stages run in rounds spread over the run, so their medians do not
        # all fall in one busy moment of a shared machine; --seconds adds rounds.
        while self.round(model):
            pass
        while self.measured() < self.seconds:
            self.round(model, extra=True)
        # more samples of the long stages, at the far end of the run from the first
        for _ in range(w.reps["generate"] - 1):
            self.timed("generate", generate)
            if gen_path.read_bytes() != written:
                self.fails.append("generate: a repeated run_generation wrote different rows")
        for _ in range(w.reps["fit"] - 1):
            again = self.construct(sizes)
            self.timed("fit", lambda: training.fit(again, train, val, config))
            self.attempted += trained
            if checks.check_checkpoint(model.state_dict(), again.state_dict()):
                self.fails.append("fit: a repeated fit from the same seed ended elsewhere")
        self.fails += checks.check_evaluation(pairs, self.report, self.dir / "eval.csv")

        if self.tracer:
            self.tracer.uninstall()
            self.tracer.write(self.dir / "spans.jsonl")
            return {**self.tracer.layer_metrics(trained * len(self.times["fit"]),
                                                generated * len(self.times["generate"])),
                    **quality}
        ckpt_bytes = (self.dir / "checkpoint.json").stat().st_size
        return {
            "setup_s": self.median("setup") + self.median("construct"),
            "train_records_per_s": trained / self.median("fit"),
            "generate_records_per_s": generated / self.median("generate"),
            "checkpoint_save_s": self.median("save"),
            "checkpoint_load_s": self.median("load"),
            "checkpoint_mb": ckpt_bytes / 1e6,
            "preprocess_records_per_s": w.samples / self.median("preprocess"),
            "evaluate_pairs_per_s": len(pairs) / self.median("evaluate"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "val_loss": result.best_val_loss,
        }

    def round(self, model, early: bool = False, extra: bool = False) -> bool:
        """Save and load while they lack samples, then whichever of evaluate and
        preprocess lacks more; False if nothing ran. ``extra`` runs all four."""
        import checks
        missing = {stage: self.w.reps[stage] - len(self.times.get(stage, ()))
                   for stage in ("save", "load", "evaluate", "preprocess")}
        todo = [s for s in ("save", "load") if missing[s] > 0 and
                not (early and self.w.reps[s] == 1)]
        longer = max(("evaluate", "preprocess"), key=missing.get)
        if missing[longer] > 0:
            todo.append(longer)
        if extra:
            todo = list(missing)
        for stage in todo:
            if stage == "save":
                self.expected = model.state_dict()
                self.timed("save", lambda: self.save(model))
            elif stage == "load":
                loaded = self.timed("load", self.load)
                self.fails += checks.check_checkpoint(self.expected, loaded.state_dict())
                del loaded
            elif stage == "evaluate":
                self.report = self.timed("evaluate", self.evaluate)
            elif self.timed("preprocess", self.preprocess) != self.manifest:
                self.fails.append("preprocess: a repeated run wrote different files")
        return bool(todo)

    def decoded_quality(self, rows: list, planted: dict) -> dict:
        """ROUGE-L and planted-phrase accuracy of the decoded split, cross-checked."""
        import checks
        from cxrgen import metrics, pipeline
        pairs = [(r["sample_id"], r["generated"].split(), r["reference"].split())
                 for r in rows]
        report = metrics.corpus_evaluate(pairs)
        report.save_per_sample_csv(self.dir / "generated_scores.csv")
        self.fails += checks.check_evaluation(pairs, report,
                                              self.dir / "generated_scores.csv")
        accuracy = pipeline.planted_phrase_accuracy(rows, planted)
        self.fails += checks.check_planted(rows, planted, accuracy, self.w.require_planted)
        return {"quality.rouge_l": report.corpus["rouge_l"],
                "quality.planted_accuracy": accuracy}

    def finish(self) -> None:
        """Keep the result and the trace; drop data and checkpoints."""
        for child in self.dir.iterdir():
            if child.name not in ("spans.jsonl", "result.json"):
                if child.is_dir():
                    shutil.rmtree(child)
                else:
                    child.unlink()


def run_one(args) -> int:
    if not (ROOT / "src" / "cxrgen").is_dir():
        print(f"cxrgen sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import cxrgen
    if Path(cxrgen.__file__).resolve().parent != ROOT / "src" / "cxrgen":
        print(f"imported cxrgen from {cxrgen.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    from tracing import PER_LAYER_METRICS

    env = environment()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    values = run.execute()
    names = PER_LAYER_METRICS + QUALITY if args.trace else tuple(END_TO_END)
    unit = layer_unit if args.trace else END_TO_END.__getitem__
    result = {
        "correct": not run.fails,
        "attempted": run.attempted,
        "failed": 0,
        "metrics": {n: {"value": values[n], "unit": unit(n)} for n in names},
    }
    for message in run.fails:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    stamp = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
             "stage_seconds": run.times}
    (run.dir / "result.json").write_text(json.dumps({**stamp, "result": result}, indent=2),
                                         encoding="utf-8")
    run.finish()
    print("env " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            print(f"{name}: {line}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="least stage time to measure; short stages repeat until then")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
