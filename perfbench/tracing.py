"""Span tracing of cxrgen layers from outside the package.

``Tracer.install`` replaces the layer-boundary functions and methods listed in
``SPANNED`` with wrappers that record one span (name, start, end, parent) per
call. A module-level function is replaced in every cxrgen module namespace that
binds it, because callers look up names imported with ``from .x import y`` in
their own module. Hot helpers that run per token, per tensor op or per record
field are not spanned: their time stays in the self time of the spanned caller.

Spans are recorded only while a stage is open (``Tracer.stage``), so the
benchmark's own correctness checks never appear in the trace.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from pathlib import Path

# module -> functions and Class.method names whose calls become spans
SPANNED = {
    "pipeline": ["run_preprocess", "run_generation", "run_evaluation",
                 "load_preprocessed"],
    "training": ["fit", "evaluate_split", "adam_step", "split_dataset"],
    "tensor": ["GradientTape.backward", "GradientTape.gradients"],
    "attention": ["multi_head_attention"],
    "encoder": ["FusionEncoder.build_patient_representation",
                "FusionEncoder.image_pathway", "FusionEncoder.cross_attention_fusion"],
    "decoder": ["ReportDecoder.teacher_forced_forward"],
    "model": ["ReportGenerator.__init__", "ReportGenerator.encode_record",
              "ReportGenerator.loss_for_record", "ReportGenerator.generate",
              "ReportGenerator.save", "ReportGenerator.load"],
    "params": ["save_checkpoint", "load_checkpoint", "ParameterStore.state_dict",
               "ParameterStore.load_state_dict"],
    "metrics": ["corpus_evaluate", "bleu", "rouge_l", "embedding_f1",
                "EvalReport.save", "EvalReport.save_per_sample_csv"],
    "records": ["read_jsonl", "write_jsonl", "read_raw_records", "write_raw_records",
                "read_patient_records", "write_patient_records",
                "load_image_features", "write_image_features"],
    "preprocess": ["remove_outliers", "tokenize_and_fit_vocab", "build_patient_record",
                   "NormalizationStats.fit"],
    "synth": ["generate_synthetic", "write_synthetic_dataset",
              "balance_by_unique_reports", "DatasetManifest.for_files",
              "DatasetManifest.save"],
    "vocab": ["Vocabulary.text", "Vocabulary.save", "Vocabulary.load"],
}

# per-layer metric -> spans whose self times it sums
SELF_TIME_METRICS = {
    "tensor.backward_s": ["tensor.GradientTape.backward"],
    "tensor.gradients_s": ["tensor.GradientTape.gradients"],
    "attention.mha_s": ["attention.multi_head_attention"],
    "encoder.patient_s": ["encoder.FusionEncoder.build_patient_representation"],
    "encoder.image_s": ["encoder.FusionEncoder.image_pathway"],
    "encoder.fusion_s": ["encoder.FusionEncoder.cross_attention_fusion"],
    "decoder.forward_s": ["decoder.ReportDecoder.teacher_forced_forward"],
    "model.loss_s": ["model.ReportGenerator.loss_for_record"],
    "model.generate_s": ["model.ReportGenerator.generate"],
    "model.encode_s": ["model.ReportGenerator.encode_record"],
    "model.init_s": ["model.ReportGenerator.__init__"],
    "model.persist_s": ["model.ReportGenerator.save", "model.ReportGenerator.load"],
    "training.loop_s": ["training.fit"],
    "training.adam_s": ["training.adam_step"],
    "training.split_s": ["training.split_dataset"],
    "params.save_s": ["params.save_checkpoint"],
    "params.load_s": ["params.load_checkpoint"],
    "params.state_copy_s": ["params.ParameterStore.state_dict",
                            "params.ParameterStore.load_state_dict"],
    "metrics.corpus_s": ["metrics.corpus_evaluate"],
    "metrics.bleu_s": ["metrics.bleu"],
    "metrics.rouge_l_s": ["metrics.rouge_l"],
    "metrics.embedding_f1_s": ["metrics.embedding_f1"],
    "metrics.report_write_s": ["metrics.EvalReport.save",
                               "metrics.EvalReport.save_per_sample_csv"],
    "records.read_s": ["records.read_jsonl", "records.read_raw_records",
                       "records.read_patient_records", "records.load_image_features"],
    "records.write_s": ["records.write_jsonl", "records.write_raw_records",
                        "records.write_patient_records", "records.write_image_features"],
    "preprocess.clean_s": ["preprocess.remove_outliers"],
    "preprocess.vocab_s": ["preprocess.tokenize_and_fit_vocab"],
    "preprocess.stats_s": ["preprocess.NormalizationStats.fit"],
    "preprocess.build_s": ["preprocess.build_patient_record"],
    "synth.generate_s": ["synth.generate_synthetic"],
    "synth.write_s": ["synth.write_synthetic_dataset"],
    "synth.balance_s": ["synth.balance_by_unique_reports"],
    "synth.manifest_s": ["synth.DatasetManifest.for_files", "synth.DatasetManifest.save"],
    "vocab.text_s": ["vocab.Vocabulary.text"],
    "vocab.io_s": ["vocab.Vocabulary.save", "vocab.Vocabulary.load"],
}

# Orchestration whose self time no named layer explains.
OTHER_SPANS = ("pipeline.run_preprocess", "pipeline.run_generation",
               "pipeline.run_evaluation", "pipeline.load_preprocessed")

COUNT_METRICS = ("tensor.tape_nodes_per_record", "attention.mha_calls_per_record",
                 "decoder.forward_calls_per_record", "decoder.tokens_per_record",
                 "training.validate_s", "training.steps", "params.loads_per_generate",
                 "metrics.embedding_lookups", "metrics.embedding_cache_hit_ratio",
                 "pipeline.other_s", "pipeline.coverage_min_pct", "trace.spans",
                 "trace.stage_s", "trace.span_cost_us", "trace.overhead_est_pct")

PER_LAYER_METRICS = tuple(SELF_TIME_METRICS) + COUNT_METRICS


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent_index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._depth = 0          # open stages; calls outside a stage are not traced
        self._undo: list = []

    # -- recording -------------------------------------------------------------
    @contextlib.contextmanager
    def stage(self, name: str):
        """Root span for one timed benchmark stage."""
        self._depth += 1
        idx = self._open("stage." + name)
        try:
            yield
        finally:
            self._close(idx)
            self._depth -= 1

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        if self._depth:
            self.counts[key] = self.counts.get(key, 0.0) + amount

    def _wrap(self, name: str, fn, on_call=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._depth:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_call is not None:
                on_call(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    # -- installation ------------------------------------------------------------
    def install(self) -> None:
        """Wrap every boundary in SPANNED plus the counting hooks."""
        modules = {m: importlib.import_module(f"cxrgen.{m}") for m in
                   ("attention", "decoder", "encoder", "metrics", "model", "params",
                    "pipeline", "preprocess", "records", "synth", "tensor", "training",
                    "vocab")}
        hooks = {
            "tensor.GradientTape.backward": _count_tape_nodes,
            "model.ReportGenerator.generate": _count_tokens,
        }
        for module_name, names in SPANNED.items():
            module = modules[module_name]
            for qualname in names:
                span = f"{module_name}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    self._patch_method(getattr(module, cls_name), attr, span,
                                       hooks.get(span))
                else:
                    original = getattr(module, qualname)
                    wrapper = self._wrap(span, original, hooks.get(span))
                    for other in modules.values():
                        for key, value in list(vars(other).items()):
                            if value is original:
                                self._set(other, key, wrapper)
        self._patch_embedding_cache(modules["metrics"].HashedEmbeddings)

    def _patch_method(self, cls, attr: str, span: str, hook) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self._wrap(span, raw.__func__, hook)))
        else:
            self._set(cls, attr, self._wrap(span, raw, hook))

    def _patch_embedding_cache(self, cls) -> None:
        """Count embedding lookups and cache hits; one call per token, so no span."""
        original = cls.__dict__["vector"]
        tracer = self

        def vector(provider, token):
            if tracer._depth:
                tracer.count("embedding_lookups")
                if token in provider._cache:
                    tracer.count("embedding_hits")
            return original(provider, token)

        self._set(cls, "vector", vector)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- analysis ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")

    def layer_metrics(self, trained: int, generated: int) -> dict:
        """Per-layer metrics from the recorded spans and counters.

        ``trained`` (records through ``fit``'s training batches, epochs
        included) and ``generated`` (records decoded by ``run_generation``)
        are the record counts the per-record ratios divide by.
        """
        own = self.self_times()
        stage_of = self._stage_of()
        totals: dict[str, float] = {}
        calls: dict[tuple, int] = {}
        inclusive: dict[tuple, float] = {}
        other = {i: own[i] for i in set(stage_of) if i >= 0}
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + own[i]
            stage = self.spans[stage_of[i]][0] if stage_of[i] >= 0 else ""
            key = (stage, name)
            calls[key] = calls.get(key, 0) + 1
            inclusive[key] = inclusive.get(key, 0.0) + (end - start)
            if name in OTHER_SPANS and stage_of[i] >= 0:
                other[stage_of[i]] += own[i]

        out = {metric: sum(totals.get(s, 0.0) for s in spans)
               for metric, spans in SELF_TIME_METRICS.items()}

        forwards = calls.get(("stage.fit", "model.ReportGenerator.loss_for_record"), 0)
        out["tensor.tape_nodes_per_record"] = _ratio(self.counts.get("tape_nodes", 0.0),
                                                     trained)
        out["attention.mha_calls_per_record"] = _ratio(
            calls.get(("stage.fit", "attention.multi_head_attention"), 0), forwards)
        out["decoder.forward_calls_per_record"] = _ratio(
            calls.get(("stage.generate", "decoder.ReportDecoder.teacher_forced_forward"), 0),
            generated)
        out["decoder.tokens_per_record"] = _ratio(self.counts.get("generated_tokens", 0.0),
                                                  generated)
        # validation is reported inclusive: its own loop does almost nothing
        out["training.validate_s"] = inclusive.get(("stage.fit", "training.evaluate_split"),
                                                   0.0)
        out["training.steps"] = float(calls.get(("stage.fit", "training.adam_step"), 0))
        out["params.loads_per_generate"] = _ratio(
            calls.get(("stage.generate", "params.load_checkpoint"), 0),
            calls.get(("stage.generate", "pipeline.run_generation"), 0))
        lookups = self.counts.get("embedding_lookups", 0.0)
        out["metrics.embedding_lookups"] = lookups
        out["metrics.embedding_cache_hit_ratio"] = _ratio(
            self.counts.get("embedding_hits", 0.0), lookups)

        timed = {i: self.spans[i][2] - self.spans[i][1] for i in other
                 if self.spans[i][0] != "stage.setup"}
        coverage = [1.0 - other[i] / max(duration, 1e-12) for i, duration in timed.items()]
        out["pipeline.other_s"] = sum(other[i] for i in timed)
        out["pipeline.coverage_min_pct"] = 100.0 * min(coverage) if coverage else 0.0
        out["trace.spans"] = float(len(self.spans))
        out["trace.stage_s"] = stage_total = sum(timed.values())
        cost = span_cost_seconds()
        out["trace.span_cost_us"] = cost * 1e6
        out["trace.overhead_est_pct"] = 100.0 * cost * len(self.spans) / max(stage_total,
                                                                             1e-12)
        return out

    def _stage_of(self) -> list[int]:
        """Index of the enclosing stage span for every span (-1 for none)."""
        stage_of = []
        for i, (name, _, _, parent) in enumerate(self.spans):
            if name.startswith("stage."):
                stage_of.append(i)
            else:
                stage_of.append(stage_of[parent] if parent >= 0 else -1)
        return stage_of


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def _count_tape_nodes(tracer: Tracer, args, result) -> None:
    tracer.count("tape_nodes", len(args[0]))


def _count_tokens(tracer: Tracer, args, result) -> None:
    tracer.count("generated_tokens", len(result) - 1)


def span_cost_seconds(calls: int = 20000) -> float:
    """Added cost of one traced call over an untraced one, measured here."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer._wrap("noop", noop)
    best = float("inf")
    for _ in range(3):
        tracer.spans.clear()
        with tracer.stage("calibrate"):
            t0 = time.perf_counter()
            for _ in range(calls):
                traced()
            t1 = time.perf_counter()
            for _ in range(calls):
                noop()
            t2 = time.perf_counter()
        best = min(best, ((t1 - t0) - (t2 - t1)) / calls)
    return max(best, 0.0)
