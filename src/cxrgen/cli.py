"""Command-line entry points: synth, preprocess, train, generate, evaluate, ablate."""

from __future__ import annotations

import argparse
import json
import sys
import typing
from pathlib import Path

from .errors import ConfigurationError, CxrgenError
from .model import INPUT_PRESETS, ModelConfig
from .pipeline import (SplitPlan, run_ablation, run_evaluation, run_generation,
                       run_preprocess, run_synth, run_training)
from .preprocess import PreprocessConfig
from .synth import SyntheticConfig
from .training import TrainConfig


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    return payload


# the JSON values a config field of each type takes; true and false are no numbers
_JSON_TYPES = {int: ("an integer", (int,)), float: ("a number", (int, float)),
               type(None): ("null", (type(None),))}


def _section(config: dict, path: str | None, name: str, cls) -> dict:
    """Section ``name`` of the config file at ``path``, checked against the
    fields of the dataclass ``cls``. A key that is no field, or a value of
    another type than its field's, raises a ConfigurationError naming the
    file, the section and the key."""
    section = config.get(name, {})
    where = f"config file {path}, section {name!r}"
    if not isinstance(section, dict):
        raise ConfigurationError(f"{where} must be a JSON object")
    kinds = typing.get_type_hints(cls)
    for key, value in section.items():
        if key not in kinds:
            raise ConfigurationError(f"{where}: unknown key {key!r}; known keys are "
                                     f"{sorted(kinds)}")
        options = typing.get_args(kinds[key]) or (kinds[key],)  # Optional[X]: X, None
        if isinstance(value, bool) or \
                not any(isinstance(value, _JSON_TYPES[kind][1]) for kind in options):
            wanted = " or ".join(_JSON_TYPES[kind][0] for kind in options)
            raise ConfigurationError(f"{where}: key {key!r} must be {wanted}, "
                                     f"got {json.dumps(value)}")
    return dict(section)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cxrgen",
        description="Chest X-ray report generation with multi-modal fusion.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset with planted signal")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n", type=int, default=2000, help="number of samples")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--format", default="jsonl", choices=("jsonl", "csv"),
                   help="raw-record file format (features stay JSONL)")
    p.add_argument("--config", help="JSON config file (section: synth)")

    p = sub.add_parser("preprocess", help="clean, curate, split and encode a dataset")
    p.add_argument("--data", required=True, help="directory with records.jsonl/csv + features.jsonl")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="JSON config file (sections: preprocess, split)")

    p = sub.add_parser("train", help="train the report generator")
    p.add_argument("--data", required=True, help="preprocessed directory")
    p.add_argument("--out", required=True, help="output directory for checkpoint/history")
    p.add_argument("--inputs", default="all", choices=sorted(INPUT_PRESETS),
                   help="input-ablation preset")
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--n", type=int, default=2000, help="synthetic samples")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--configurations", nargs="+", default=["image_only", "all"],
                   choices=sorted(INPUT_PRESETS))
    p.add_argument("--config", help="JSON config file (sections: model, train, synth)")
    return parser


def _cmd_synth(args) -> int:
    overrides = _section(_load_config_file(args.config), args.config, "synth",
                         SyntheticConfig)
    overrides.update({"num_samples": args.n, "seed": args.seed})
    manifest = run_synth(args.out, SyntheticConfig(**overrides),
                         record_format=args.format)
    print(f"wrote {manifest.meta['num_samples']} samples to {args.out}")
    return 0


def _cmd_preprocess(args) -> int:
    config = _load_config_file(args.config)
    prep = PreprocessConfig(**_section(config, args.config, "preprocess", PreprocessConfig))
    plan_kwargs = _section(config, args.config, "split", SplitPlan)
    plan_kwargs.setdefault("seed", args.seed)
    summary = run_preprocess(args.data, args.out, prep, SplitPlan(**plan_kwargs))
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_train(args) -> int:
    config = _load_config_file(args.config)
    model_cfg = ModelConfig(**_section(config, args.config, "model", ModelConfig))
    train_kwargs = _section(config, args.config, "train", TrainConfig)
    train_kwargs.setdefault("seed", args.seed)
    result = run_training(args.data, args.out, model_cfg, TrainConfig(**train_kwargs),
                          inputs=args.inputs)
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
        model_overrides=_section(config, args.config, "model", ModelConfig),
        train_overrides={**_section(config, args.config, "train", TrainConfig),
                         "max_epochs": args.epochs},
        synth_overrides={**_section(config, args.config, "synth", SyntheticConfig),
                         "num_samples": args.n},
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
