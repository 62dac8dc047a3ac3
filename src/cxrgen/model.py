"""The end-to-end report generator and its input-ablation machinery.

Ablations are input masks, not separate architectures: a masked source is
replaced by its neutral value (0.0 scalars, Unknown ethnicity, all-PAD
text) so every configuration trains the identical parameter set.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .decoder import ReportDecoder, masked_mean, sparse_ce_loss, token_accuracy
from .encoder import FusionEncoder, FusionResult
from .errors import ConfigurationError, ContractError, DataError, DimensionError
from .params import ParameterStore, load_checkpoint, save_checkpoint
from .records import PatientRecord, ScalarFeatures
from .tensor import Tensor, no_tape
from .vocab import END_ID, PAD_ID

from .preprocess import ETHNICITY_UNKNOWN

SCALAR_NAMES = ScalarFeatures.ORDER


@dataclass(frozen=True)
class InputMask:
    """Which non-image sources the encoder is allowed to see."""

    scalars: frozenset = frozenset(SCALAR_NAMES)
    ethnicity: bool = True
    chief: bool = True
    icd: bool = True

    def __post_init__(self):
        unknown = set(self.scalars) - set(SCALAR_NAMES)
        if unknown:
            raise ConfigurationError(f"unknown scalar features in mask: {sorted(unknown)}")

    @classmethod
    def all_inputs(cls) -> "InputMask":
        return cls()

    @classmethod
    def image_only(cls) -> "InputMask":
        return cls(scalars=frozenset(), ethnicity=False, chief=False, icd=False)

    @classmethod
    def scalars_only(cls) -> "InputMask":
        return cls(ethnicity=False, chief=False, icd=False)

    @classmethod
    def text_only(cls) -> "InputMask":
        return cls(scalars=frozenset(), ethnicity=False)

    @classmethod
    def o2sat_only(cls) -> "InputMask":
        return cls(scalars=frozenset(["o2sat"]), ethnicity=False, chief=False, icd=False)

    def apply(self, rec: PatientRecord) -> tuple[ScalarFeatures, int, list[int], list[int]]:
        """Masked view of one record's non-image inputs."""
        values = {name: (getattr(rec.scalars, name) if name in self.scalars else 0.0)
                  for name in SCALAR_NAMES}
        scalars = ScalarFeatures(**values)
        ethnicity = rec.ethnicity if self.ethnicity else ETHNICITY_UNKNOWN
        chief = list(rec.chief_ids) if self.chief else [PAD_ID] * len(rec.chief_ids)
        icd = list(rec.icd_ids) if self.icd else [PAD_ID] * len(rec.icd_ids)
        return scalars, ethnicity, chief, icd


# Named ablation rows used by the CLI and the fusion experiment.
INPUT_PRESETS: dict[str, InputMask] = {
    "all": InputMask.all_inputs(),
    "image_only": InputMask.image_only(),
    "scalars": InputMask.scalars_only(),
    "text": InputMask.text_only(),
    "o2sat": InputMask.o2sat_only(),
}


def resolve_input_mask(name: str) -> InputMask:
    try:
        return INPUT_PRESETS[name]
    except KeyError:
        raise ConfigurationError(f"unknown input preset {name!r}; choose from "
                                 f"{sorted(INPUT_PRESETS)}") from None


ABLATION_LABELS = {
    "image_only": "Baseline",
    "o2sat": "SingularO2Sat",
    "text": "TextFusion",
    "scalars": "ScalarFusion",
    "all": "AllDataFusion",
}


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters of the whole generator: the encoder, the
    decoder and every attention layer read them from here. Defaults mirror
    the full-size model.

    Each attention head is ``model_dim // num_heads`` wide, and the output
    projection maps ``num_heads`` heads back to ``model_dim``, so the head
    count does not have to divide the model width: 512 with 3 heads gives
    170 per head and a 510 -> 512 output projection.
    """

    model_dim: int = 512
    num_heads: int = 3
    ffn_dim: int = 512
    embed_dim: int = 512
    report_len: int = 43
    chief_len: int = 2
    icd_len: int = 6
    decoder_layers: int = 1
    scalar_out_dim: int = 8
    image_feature_dim: int = 1280
    image_tokens: int = 4
    layer_norm_eps: float = 1e-6

    def __post_init__(self):
        for name in ("model_dim", "num_heads", "ffn_dim", "embed_dim", "report_len",
                     "chief_len", "icd_len", "decoder_layers", "scalar_out_dim",
                     "image_feature_dim", "image_tokens"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive, got {getattr(self, name)}")
        if self.num_heads > self.model_dim:
            raise ConfigurationError(f"model_dim {self.model_dim} is too narrow for "
                                     f"{self.num_heads} heads")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ModelConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(f"unknown model config keys: {sorted(unknown)}")
        return cls(**payload)


class ReportGenerator:
    """Fusion encoder + transformer decoder over whole patient records."""

    def __init__(self, config: ModelConfig, vocab_size: int, chief_vocab_size: int,
                 icd_vocab_size: int, seed: int = 0,
                 input_mask: Optional[InputMask] = None):
        self._build(config, (vocab_size, chief_vocab_size, icd_vocab_size), input_mask,
                    ParameterStore(np.random.default_rng(seed)))

    def _build(self, config: ModelConfig, vocab_sizes: Sequence[int],
               input_mask: Optional[InputMask], store: ParameterStore) -> None:
        vocab_size, chief_vocab_size, icd_vocab_size = vocab_sizes
        if vocab_size <= END_ID:
            raise ConfigurationError(f"report vocabulary must cover the reserved ids, "
                                     f"got {vocab_size}")
        if chief_vocab_size < 1 or icd_vocab_size < 1:
            raise ConfigurationError(f"chief and ICD vocabularies must be non-empty, got "
                                     f"{chief_vocab_size} and {icd_vocab_size}")
        self.config = config
        self.input_mask = input_mask or InputMask.all_inputs()
        self.store = store
        self.encoder = FusionEncoder(store, config, chief_vocab_size, icd_vocab_size)
        self.decoder = ReportDecoder(store, config, vocab_size)
        self._vocab_sizes = (vocab_size, chief_vocab_size, icd_vocab_size)

    # -- forward --------------------------------------------------------------
    def encode_batch(self, records: Sequence[PatientRecord]) -> FusionResult:
        """Fused encoder rows [B·image_tokens, d] for the masked records.

        An input error names the record that caused it: when a batch fails,
        its records are encoded one at a time until the faulty one raises.
        """
        dim = self.config.image_feature_dim
        features = []
        for rec in records:
            feats = np.asarray(rec.image_features, dtype=np.float64)
            if feats.shape != (dim,):
                raise DataError(f"record {rec.sample_id}: expected {dim} image features, "
                                f"got shape {feats.shape}")
            features.append(feats)
        scalars, ethnicity, chief_ids, icd_ids = zip(*(self.input_mask.apply(rec)
                                                       for rec in records))
        try:
            return self.encoder.encode(scalars, ethnicity, chief_ids, icd_ids,
                                       np.stack(features))
        except (ContractError, DataError, DimensionError) as exc:
            if len(records) == 1:
                raise type(exc)(f"record {records[0].sample_id}: {exc}") from exc
            for rec in records:
                self.encode_batch([rec])
            raise

    def encode_record(self, rec: PatientRecord) -> FusionResult:
        return self.encode_batch([rec])

    def loss_for_batch(self, records: Sequence[PatientRecord]) -> tuple[Tensor, int, int]:
        """(loss, correct tokens, counted tokens) from one batched forward.

        The loss is the mean over records of each record's masked token
        mean, the same objective as averaging ``loss_for_record``.
        """
        if not records:
            raise ContractError("loss_for_batch needs at least one record")
        decoder_in, labels = _teacher_forcing(records)
        logits = self.decoder.teacher_forced_forward(self.encode_batch(records).output,
                                                     decoder_in)
        pad_mask = labels != PAD_ID
        flat = (labels.reshape(-1), pad_mask.reshape(-1))
        correct, total = token_accuracy(logits, *flat)
        return masked_mean(sparse_ce_loss(logits, *flat), pad_mask), correct, total

    def loss_for_record(self, rec: PatientRecord) -> tuple[Tensor, int, int]:
        """(scalar loss, correct tokens, counted tokens) for one sample."""
        return self.loss_for_batch([rec])

    def generate_batch(self, records: Sequence[PatientRecord],
                       max_len: Optional[int] = None) -> list[list[int]]:
        """Greedy token ids per record, START included, END if reached. Records
        nothing on an active tape."""
        if not records:
            raise ContractError("generate_batch needs at least one record")
        with no_tape():
            rows = self.encode_batch(records).output
        return self.decoder.generate_batch(rows, len(records), max_len)

    def generate(self, rec: PatientRecord, max_len: Optional[int] = None) -> list[int]:
        """Greedy token ids for one record, START included, END if reached."""
        return self.generate_batch([rec], max_len)[0]

    # -- parameters / persistence ----------------------------------------------
    def parameters(self) -> dict[str, Tensor]:
        return self.store.parameters

    def state_dict(self):
        return self.store.state_dict()

    def load_state_dict(self, state) -> None:
        self.store.load_state_dict(state)

    def save(self, path, extra_metadata: Optional[Mapping] = None) -> None:
        """Write a checkpoint that records the model's own input preset (unless
        ``extra_metadata`` names one), so ``load`` conditions on the same
        inputs. A mask that is no preset is rejected."""
        inputs = next((name for name, mask in INPUT_PRESETS.items()
                       if mask == self.input_mask), None)
        if inputs is None:
            raise ConfigurationError(f"input mask {self.input_mask} matches no preset in "
                                     f"{sorted(INPUT_PRESETS)}, so a checkpoint cannot "
                                     f"record it")
        meta = {
            "model_config": self.config.to_dict(),
            "vocab_sizes": {"report": self._vocab_sizes[0],
                            "chief": self._vocab_sizes[1],
                            "icd": self._vocab_sizes[2]},
            "inputs": inputs,
        }
        meta.update(extra_metadata or {})
        save_checkpoint(path, self.state_dict(), meta)

    @classmethod
    def load(cls, path, input_mask: Optional[InputMask] = None) -> "ReportGenerator":
        """Rebuild a saved model. Without ``input_mask`` it conditions on the
        input preset the checkpoint records (all inputs if none is recorded).
        Each parameter takes the checkpoint's array itself; no initializer
        draws or allocates."""
        state, meta = load_checkpoint(path)
        if input_mask is None and "inputs" in meta:
            input_mask = resolve_input_mask(meta["inputs"])
        try:
            config = ModelConfig.from_dict(meta["model_config"])
            sizes = meta["vocab_sizes"]
            model = cls.__new__(cls)
            model._build(config, (int(sizes["report"]), int(sizes["chief"]), int(sizes["icd"])),
                         input_mask, ParameterStore.for_loading(state))
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(f"checkpoint {path} lacks model metadata: {exc}") from exc
        except DataError as exc:
            raise DataError(f"checkpoint {path}: {exc}") from exc
        unexpected = sorted(set(state) - set(model.store.parameters))
        if unexpected:
            raise DataError(f"checkpoint {path}: unexpected parameters {unexpected}")
        return model


def _teacher_forcing(records: Sequence[PatientRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Decoder inputs and labels [B, T], PAD-filled and cut after the batch's
    last real label. PAD only trails a report and the decoder is causal, so
    the cut changes no logit at a counted position."""
    grid = np.full((len(records), max(len(rec.report_ids) for rec in records)), PAD_ID,
                   dtype=np.int64)
    for row, rec in zip(grid, records):
        row[:len(rec.report_ids)] = rec.report_ids
        if not (row[1:] != PAD_ID).any():
            raise ContractError(f"record {rec.sample_id}: report has no unpadded label "
                                f"to teacher-force")
    length = int(np.flatnonzero((grid[:, 1:] != PAD_ID).any(axis=0))[-1]) + 1
    return grid[:, :length], grid[:, 1:length + 1]
