"""The end-to-end report generator and its input-ablation presets.

Ablations are input presets, not separate architectures: a source a preset
leaves out is replaced by its neutral value (0.0 scalars, Unknown ethnicity,
all-PAD text) so every configuration trains the identical parameter set.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .decoder import ReportDecoder, report_loss, token_accuracy
from .encoder import NUM_ETHNICITY_GROUPS, FusionEncoder, FusionResult
from .errors import (ConfigurationError, ContractError, DataError, DimensionError,
                     check_fields)
from .params import ParameterStore, load_checkpoint, save_checkpoint
from .records import PatientRecord, ScalarFeatures, check_row
from .tensor import Tensor, no_tape
from .vocab import END_ID, PAD_ID, START_ID

from .preprocess import ETHNICITY_UNKNOWN

SCALAR_NAMES = ScalarFeatures.ORDER


@dataclass(frozen=True)
class InputMask:
    """One input preset: its ablation label and the non-image sources it keeps."""

    label: str
    scalars: frozenset = frozenset(SCALAR_NAMES)
    ethnicity: bool = True
    chief: bool = True
    icd: bool = True


# The ablation rows of the fusion experiment, by the name the CLI, the pipeline
# and a checkpoint use for each.
INPUT_PRESETS: dict[str, InputMask] = {
    "all": InputMask("AllDataFusion"),
    "image_only": InputMask("Baseline", scalars=frozenset(), ethnicity=False, chief=False,
                            icd=False),
    "scalars": InputMask("ScalarFusion", ethnicity=False, chief=False, icd=False),
    "text": InputMask("TextFusion", scalars=frozenset(), ethnicity=False),
    "o2sat": InputMask("SingularO2Sat", scalars=frozenset(["o2sat"]), ethnicity=False,
                       chief=False, icd=False),
}


@dataclass(frozen=True)
class VocabSizes:
    """The report, chief-complaint and ICD vocabulary sizes a checkpoint records."""

    report: int
    chief: int
    icd: int


@dataclass(frozen=True)
class PackedRecords:
    """Masked, checked arrays of N records, made by ``ReportGenerator.pack``:
    ``image`` [N, F], ``scalars`` [N, 8], ``ethnicity`` [N], ``chief``, ``icd`` and
    PAD-filled ``report`` ids [N, length], ``sample_ids``. Index with a slice or array."""

    image: np.ndarray
    scalars: np.ndarray
    ethnicity: np.ndarray
    chief: np.ndarray
    icd: np.ndarray
    report: np.ndarray
    sample_ids: np.ndarray

    def __len__(self) -> int:
        return len(self.sample_ids)

    def __getitem__(self, index) -> "PackedRecords":
        if not isinstance(index, slice) and np.ndim(index) != 1:
            raise TypeError(f"select records with a slice or an index array, not {index!r}")
        return PackedRecords(*(getattr(self, f.name)[index] for f in dataclasses.fields(self)))


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
        check_fields(type(self), vars(self))
        if self.num_heads > self.model_dim:
            raise ConfigurationError(f"model_dim {self.model_dim} is too narrow for "
                                     f"{self.num_heads} heads")
        if self.layer_norm_eps <= 0:
            raise ConfigurationError(f"layer_norm_eps must be positive, got "
                                     f"{self.layer_norm_eps}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ModelConfig":
        check_fields(cls, payload)
        return cls(**payload)


class ReportGenerator:
    """Fusion encoder + transformer decoder over whole patient records,
    conditioned on the sources of the input preset ``inputs`` names (a key of
    ``INPUT_PRESETS``)."""

    def __init__(self, config: ModelConfig, vocab_size: int, chief_vocab_size: int,
                 icd_vocab_size: int, seed: int = 0, inputs: str = "all"):
        self._build(config, VocabSizes(vocab_size, chief_vocab_size, icd_vocab_size),
                    inputs, ParameterStore(seed))

    def _build(self, config: ModelConfig, sizes: VocabSizes, inputs: str,
               store: ParameterStore) -> None:
        if inputs not in INPUT_PRESETS:
            raise ConfigurationError(f"unknown input preset {inputs!r}; choose from "
                                     f"{sorted(INPUT_PRESETS)}")
        if sizes.report <= END_ID:
            raise ConfigurationError(f"report vocabulary must cover the reserved ids, "
                                     f"got {sizes.report}")
        if sizes.chief < 1 or sizes.icd < 1:
            raise ConfigurationError(f"chief and ICD vocabularies must be non-empty, got "
                                     f"{sizes.chief} and {sizes.icd}")
        self.config = config
        self.inputs = inputs
        self.store = store
        self.encoder = FusionEncoder(store, config, sizes.chief, sizes.icd)
        self.decoder = ReportDecoder(store, config, sizes.report)
        self._vocab_sizes = sizes

    # -- inputs -----------------------------------------------------------------
    def pack(self, records: Sequence[PatientRecord]) -> PackedRecords:
        """The model inputs of ``records`` under the model's input preset, as
        arrays, one row per record. The one place inputs are checked, in array
        form; an error names the first faulty record. A source the preset leaves
        out is replaced before the checks."""
        cfg, mask, n = self.config, INPUT_PRESETS[self.inputs], len(records)
        ids = np.array([rec.sample_id for rec in records], dtype=str)
        image = _rows(ids, [rec.image_features for rec in records], cfg.image_feature_dim,
                      np.float64, DataError, "image features")
        scalars = _rows(ids, [rec.scalars.as_array() for rec in records], len(SCALAR_NAMES),
                        np.float64, ContractError, "scalar features")
        scalars = np.where(np.isin(SCALAR_NAMES, list(mask.scalars)), scalars, 0.0)
        ethnicity = np.array([rec.ethnicity if mask.ethnicity else ETHNICITY_UNKNOWN
                              for rec in records], dtype=np.float64)
        chief, icd = (_rows(ids, [getattr(rec, f"{name}_ids") for rec in records], length,
                            np.int64, DimensionError, f"{name} ids")
                      if seen else np.full((n, length), PAD_ID, dtype=np.int64)
                      for name, length, seen in (("chief", cfg.chief_len, mask.chief),
                                                 ("icd", cfg.icd_len, mask.icd)))
        padded = [list(rec.report_ids) + [PAD_ID] * (cfg.report_len - len(rec.report_ids))
                  for rec in records]
        report = _rows(ids, padded, cfg.report_len, np.int64, ContractError,
                       "report ids or fewer")

        bad = ~((scalars >= 0.0) & (scalars <= 1.0))
        if bad.any():
            row, col = np.argwhere(bad)[0]
            raise ContractError(f"record {ids[row]}: scalar feature {SCALAR_NAMES[col]!r} "
                                f"out of [0, 1]: {scalars[row, col]}")
        for bad, error, message in (
                (~np.isfinite(image).all(axis=1), DataError, "image features must be finite"),
                (~np.isin(scalars[:, SCALAR_NAMES.index("gender")], (0.0, 1.0)), ContractError,
                 "gender must be 0.0 or 1.0"),
                (~np.isin(ethnicity, np.arange(1, NUM_ETHNICITY_GROUPS + 1)), ContractError,
                 f"ethnicity group must be an integer in 1..{NUM_ETHNICITY_GROUPS}"),
                *((((grid < 0) | (grid >= size)).any(axis=1), ContractError,
                   f"{name} id outside the vocabulary of {size}") for (name, size), grid in
                  zip(vars(self._vocab_sizes).items(), (report, chief, icd))),
                (report[:, 0] != START_ID, ContractError, "report must begin with the START id"),
                (~(report[:, 1:] != PAD_ID).any(axis=1), ContractError,
                 "report has no unpadded label to teacher-force")):
            _reject(ids, bad, error, message)
        return PackedRecords(image, scalars, ethnicity.astype(np.int64), chief, icd, report, ids)

    # -- forward --------------------------------------------------------------
    def encode_record(self, rec: PatientRecord) -> FusionResult:
        return self.encoder.encode(self.pack([rec]))

    def loss_for_batch(self, batch: PackedRecords) -> tuple[Tensor, int, int]:
        """(loss, correct tokens, counted tokens) from one forward over packed records.

        The loss is the mean over records of each record's masked token
        mean, the same objective as averaging ``loss_for_record``.
        """
        if not len(batch):
            raise ContractError("loss_for_batch needs at least one record")
        # cut after the batch's last real label: PAD only trails a report and the
        # decoder is causal, so the cut changes no logit at a counted position
        length = int(np.flatnonzero((batch.report[:, 1:] != PAD_ID).any(axis=0))[-1]) + 1
        decoder_in, labels = batch.report[:, :length], batch.report[:, 1:length + 1]
        logits = self.decoder.teacher_forced_forward(self.encoder.encode(batch).output,
                                                     decoder_in)
        pad_mask = labels != PAD_ID
        correct, total = token_accuracy(logits, labels.reshape(-1), pad_mask.reshape(-1))
        return report_loss(logits, labels, pad_mask), correct, total

    def loss_for_record(self, rec: PatientRecord) -> tuple[Tensor, int, int]:
        """(scalar loss, correct tokens, counted tokens) for one sample."""
        return self.loss_for_batch(self.pack([rec]))

    def generate_batch(self, batch: PackedRecords) -> list[list[int]]:
        """Greedy token ids per packed record, START included, END if reached.
        Records nothing on an active tape."""
        if not len(batch):
            raise ContractError("generate_batch needs at least one record")
        with no_tape():
            rows = self.encoder.encode(batch).output
        return self.decoder.generate_batch(rows, len(batch))

    def generate(self, rec: PatientRecord) -> list[int]:
        """Greedy token ids for one record, START included, END if reached."""
        return self.generate_batch(self.pack([rec]))[0]

    # -- parameters / persistence ----------------------------------------------
    def parameters(self) -> dict[str, Tensor]:
        return self.store.parameters

    def state_dict(self):
        return self.store.state_dict()

    def load_state_dict(self, state) -> None:
        self.store.load_state_dict(state)

    def save(self, path, extra_metadata: Optional[Mapping] = None) -> None:
        """Write a checkpoint that records the model's config, vocabulary sizes
        and input preset, so ``load`` rebuilds the same model. ``extra_metadata``
        adds run facts; it cannot replace those three. The parameters' own
        arrays are written, not copies."""
        save_checkpoint(path, {p: t.data for p, t in self.parameters().items()}, {
            **(extra_metadata or {}),
            "model_config": self.config.to_dict(),
            "vocab_sizes": dataclasses.asdict(self._vocab_sizes),
            "inputs": self.inputs,
        })

    @classmethod
    def load(cls, path, inputs: Optional[str] = None) -> "ReportGenerator":
        """Rebuild a saved model. Without ``inputs`` it conditions on the input
        preset the checkpoint records (all inputs if none is recorded). An
        unknown ``inputs`` is rejected before the checkpoint is read; every
        other error names the checkpoint. Each parameter takes the checkpoint's
        array itself; no initializer draws or allocates."""
        if inputs is not None and inputs not in INPUT_PRESETS:
            raise ConfigurationError(f"inputs={inputs!r} is not an input preset; choose "
                                     f"from {sorted(INPUT_PRESETS)}")
        state, meta = load_checkpoint(path)
        try:
            meta = check_row({"inputs": "all", **meta}, {
                "model_config": dict, "vocab_sizes": VocabSizes, "inputs": str})
            model = cls.__new__(cls)
            model._build(ModelConfig.from_dict(meta["model_config"]), meta["vocab_sizes"],
                         meta["inputs"] if inputs is None else inputs,
                         ParameterStore.for_loading(state))
        except (ConfigurationError, DataError) as exc:
            raise type(exc)(f"checkpoint {path}: {exc}") from exc
        unexpected = sorted(set(state) - set(model.store.parameters))
        if unexpected:
            raise DataError(f"checkpoint {path}: unexpected parameters {unexpected}")
        return model


def _rows(sample_ids: np.ndarray, rows: Sequence, width: int, dtype, error: type,
          what: str) -> np.ndarray:
    """``rows`` as one [N, width] array; a row of another length raises ``error``."""
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    _reject(sample_ids, lengths != width, error, f"expected {width} {what}")
    return np.array(rows, dtype=dtype).reshape(len(rows), width)


def _reject(sample_ids: np.ndarray, bad: np.ndarray, error: type, message: str) -> None:
    """Raise ``error`` naming the first record ``bad`` marks."""
    if bad.any():
        raise error(f"record {sample_ids[np.flatnonzero(bad)[0]]}: {message}")
