"""Command-line entry points: synth, preprocess, train, generate, evaluate, ablate."""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigurationError, CxrgenError, check_fields
from .model import INPUT_PRESETS, ModelConfig
from .pipeline import (SplitPlan, run_ablation, run_evaluation, run_generation,
                       run_preprocess, run_synth, run_training)
from .preprocess import PreprocessConfig
from .records import read_json
from .synth import SyntheticConfig
from .training import TrainConfig


# the config class of each section a config file may hold
SECTIONS = {"synth": SyntheticConfig, "preprocess": PreprocessConfig, "split": SplitPlan,
            "model": ModelConfig, "train": TrainConfig}


def _load_config_file(path: str | None) -> dict:
    """Every section of the config file at ``path``, {} where it has none, each
    checked by ``check_fields`` against its config class. A key that names no
    section is rejected; an error names the file, and the section."""
    config = read_json(path, "config file", ConfigurationError) if path else {}
    unknown = sorted(set(config) - set(SECTIONS))
    if unknown:
        raise ConfigurationError(f"config file {path}: unknown section {unknown[0]!r}; "
                                 f"sections are {sorted(SECTIONS)}")
    for name, cls in SECTIONS.items():
        try:
            check_fields(cls, config.get(name, {}))
        except ConfigurationError as exc:
            raise ConfigurationError(f"config file {path}, section {name!r}: {exc}") from exc
    return {name: dict(config.get(name, {})) for name in SECTIONS}


def _given(**flags) -> dict:
    """The flags the user gave. They override the config file; a flag left
    out (None) lets the config value, then the stage's default, apply."""
    return {key: value for key, value in flags.items() if value is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cxrgen",
        description="Chest X-ray report generation with multi-modal fusion.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset with planted signal")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n", type=int, help="number of samples (default: config, then 2000)")
    p.add_argument("--seed", type=int, help="default: config, then 7")
    p.add_argument("--format", default="jsonl", choices=("jsonl", "csv"),
                   help="raw-record file format (features stay JSONL)")
    p.add_argument("--config", help="JSON config file (section: synth)")

    p = sub.add_parser("preprocess", help="clean, curate, split and encode a dataset")
    p.add_argument("--data", required=True, help="directory with records.jsonl/csv + features.jsonl")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="default: config, then 0")
    p.add_argument("--config", help="JSON config file (sections: preprocess, split)")

    p = sub.add_parser("train", help="train the report generator")
    p.add_argument("--data", required=True, help="preprocessed directory")
    p.add_argument("--out", required=True, help="output directory for checkpoint/history")
    p.add_argument("--inputs", default="all", choices=sorted(INPUT_PRESETS),
                   help="input-ablation preset")
    p.add_argument("--seed", type=int, help="default: config, then 0")
    p.add_argument("--config", help="JSON config file (sections: model, train)")

    p = sub.add_parser("generate", help="greedy-decode reports for one split")
    p.add_argument("--data", required=True, help="preprocessed directory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--inputs", choices=sorted(INPUT_PRESETS),
                   help="override the checkpoint's input preset")

    p = sub.add_parser("evaluate", help="score a generation file")
    p.add_argument("--generated", required=True, help="JSONL from the generate step")
    p.add_argument("--out", required=True, help="output JSON report path")
    p.add_argument("--per-sample", help="optional per-sample CSV path")
    p.add_argument("--embeddings", help="optional {token: vector} JSON file")
    p.add_argument("--smooth", action="store_true", help="add-one BLEU smoothing")

    p = sub.add_parser("ablate", help="run the baseline-vs-fusion experiment")
    p.add_argument("--out", required=True, help="working directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, help="synthetic samples (default: config, then 2000)")
    p.add_argument("--epochs", type=int, help="default: config, then 10")
    p.add_argument("--configurations", nargs="+", default=["image_only", "all"],
                   choices=sorted(INPUT_PRESETS))
    p.add_argument("--config", help="JSON config file (sections: model, train, synth)")
    return parser


def _cmd_synth(args) -> int:
    overrides = _load_config_file(args.config)["synth"]
    overrides.update(_given(num_samples=args.n, seed=args.seed))
    manifest = run_synth(args.out, SyntheticConfig(**overrides),
                         record_format=args.format)
    print(f"wrote {manifest.meta['num_samples']} samples to {args.out}")
    return 0


def _cmd_preprocess(args) -> int:
    config = _load_config_file(args.config)
    prep = PreprocessConfig(**config["preprocess"])
    plan = SplitPlan(**{**config["split"], **_given(seed=args.seed)})
    summary = run_preprocess(args.data, args.out, prep, plan)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_train(args) -> int:
    config = _load_config_file(args.config)
    model_cfg = ModelConfig(**config["model"])
    train_cfg = TrainConfig(**{**config["train"], **_given(seed=args.seed)})
    result = run_training(args.data, args.out, model_cfg, train_cfg, inputs=args.inputs)
    status = "diverged" if result.diverged else "finished"
    print(f"training {status} after {result.epochs_run} epochs; "
          f"best val loss {result.best_val_loss:.4f} at epoch {result.best_epoch}")
    return 0


def _cmd_generate(args) -> int:
    n = run_generation(args.data, args.checkpoint, args.out, split=args.split,
                       inputs=args.inputs)
    print(f"generated {n} reports to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    report = run_evaluation(args.generated, args.out, embeddings_path=args.embeddings,
                            per_sample_csv=args.per_sample, smooth=args.smooth)
    print(json.dumps({"num_samples": report.num_samples, "corpus": report.corpus},
                     indent=2, sort_keys=True))
    return 0


def _cmd_ablate(args) -> int:
    config = _load_config_file(args.config)
    summary = run_ablation(
        args.out, seed=args.seed, configurations=args.configurations,
        model_overrides=config["model"],
        train_overrides={**config["train"], **_given(max_epochs=args.epochs)},
        synth_overrides={**config["synth"], **_given(num_samples=args.n)},
    )
    header = f"{'configuration':<16} {'BLEU-1':>8} {'ROUGE-L':>8} {'emb-F1':>8} {'planted':>8}"
    print(header)
    print("-" * len(header))
    for name, row in summary["rows"].items():
        print(f"{row['label']:<16} {row['bleu_1']:>8.3f} {row['rouge_l']:>8.3f} "
              f"{row['embedding_f1']:>8.3f} {row['planted_accuracy']:>8.3f}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "preprocess": _cmd_preprocess,
    "train": _cmd_train,
    "generate": _cmd_generate,
    "evaluate": _cmd_evaluate,
    "ablate": _cmd_ablate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CxrgenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
