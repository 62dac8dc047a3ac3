"""Named parameter storage, seeded initialization, and checkpoint files."""

from __future__ import annotations

import contextlib
import json
import zipfile
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import ConfigurationError, DataError
from .records import atomic_open, check_row
from .tensor import Array, Tensor

CHECKPOINT_FORMAT = "cxrgen-checkpoint-v3"
# per-head attention matrices ({prefix}.head{i}.wq); never migrated
RETIRED_FORMAT = "cxrgen-checkpoint-v2"
META_KEY = "__meta__"
ZIP_MAGIC = b"PK\x03\x04"


class ParameterStore:
    """Learnable tensors addressable by stable dotted paths.

    Parameters are created in a deterministic order, so a fixed RNG seed
    reproduces the exact same initialization run to run.
    """

    def __init__(self, seed: int):
        self._rng: Optional[np.random.Generator] = np.random.default_rng(seed)
        self._source: Optional[Mapping[str, Array]] = None
        self._params: dict[str, Tensor] = {}

    @classmethod
    def for_loading(cls, state: Mapping[str, Array]) -> "ParameterStore":
        """A store whose initializers draw and allocate nothing: each hands its
        path the array ``state`` holds for it, as is, for a model whose every
        value comes from a checkpoint. A path ``state`` lacks or holds in
        another shape raises a DataError naming it."""
        store = cls.__new__(cls)
        store._rng, store._source, store._params = None, state, {}
        return store

    def _register(self, path: str, shape: Sequence[int],
                  init: Callable[[tuple], Array]) -> Tensor:
        if path in self._params:
            raise ConfigurationError(f"duplicate parameter path: {path!r}")
        shape = tuple(int(s) for s in shape)
        data = init(shape) if self._source is None else self._take(path, shape)
        t = Tensor(data, requires_grad=True)
        self._params[path] = t
        return t

    def _take(self, path: str, shape: tuple) -> Array:
        if path not in self._source:
            raise DataError(f"missing parameter {path!r}")
        # adam_step updates parameters in place: C order, writeable
        arr = np.require(self._source[path], np.float64, ["C", "W"])
        if arr.shape != shape:
            raise DataError(f"shape mismatch for {path!r}: checkpoint {arr.shape}, "
                            f"model {shape}")
        return arr

    def dense(self, path: str, shape: Sequence[int], blocks: int = 1) -> Tensor:
        """Fan-in scaled uniform init for dense / attention projections.

        ``blocks`` draws the columns as that many equal blocks, one after
        another, so a fused per-head projection equals the per-head draws
        placed side by side.
        """
        def draw(shape):
            rows, cols = shape
            bound = 1.0 / np.sqrt(max(1, rows))
            parts = [self._rng.uniform(-bound, bound, size=(rows, cols // blocks))
                     for _ in range(blocks)]
            return parts[0] if blocks == 1 else np.concatenate(parts, axis=1)
        return self._register(path, shape, draw)

    def embedding(self, path: str, shape: Sequence[int]) -> Tensor:
        """N(0, 0.02) init for embedding tables."""
        return self._register(path, shape,
                              lambda shape: self._rng.normal(0.0, 0.02, size=shape))

    def zeros(self, path: str, shape: Sequence[int]) -> Tensor:
        return self._register(path, shape, np.zeros)

    def ones(self, path: str, shape: Sequence[int]) -> Tensor:
        return self._register(path, shape, np.ones)

    @property
    def parameters(self) -> dict[str, Tensor]:
        return dict(self._params)

    def __getitem__(self, path: str) -> Tensor:
        try:
            return self._params[path]
        except KeyError:
            raise ConfigurationError(f"unknown parameter path: {path!r}") from None

    def state_dict(self) -> dict[str, Array]:
        """Snapshot of every parameter value (copies, safe to stash)."""
        return {path: t.data.copy() for path, t in self._params.items()}

    def load_state_dict(self, state: Mapping[str, Array]) -> None:
        """Copy ``state`` into each parameter's own array; key sets and shapes
        must match exactly, and nothing is copied unless all do. No parameter
        takes a ``state`` array, so a later in-place update cannot reach it."""
        missing = sorted(set(self._params) - set(state))
        extra = sorted(set(state) - set(self._params))
        if missing or extra:
            raise DataError(f"state dict mismatch; missing={missing} unexpected={extra}")
        arrays = {path: np.asarray(state[path], dtype=np.float64) for path in self._params}
        for path, t in self._params.items():
            if arrays[path].shape != t.data.shape:
                raise DataError(f"shape mismatch for {path!r}: checkpoint "
                                f"{arrays[path].shape}, model {t.data.shape}")
        for path, t in self._params.items():
            np.copyto(t.data, arrays[path])


def save_checkpoint(path: Union[str, Path], state: Mapping[str, Array],
                    metadata: Optional[Mapping] = None) -> None:
    """Write parameters and metadata as one uncompressed ``.npz`` container.

    Each parameter is a float64 array named by its path; ``__meta__`` is a 0-d
    string array holding ``{"format", "metadata"}`` as JSON. The container is
    written to ``path`` as given (no ``.npz`` is appended), whole or not at all.
    """
    arrays = {p: np.asarray(a, dtype=np.float64) for p, a in sorted(state.items())}
    arrays[META_KEY] = np.array(json.dumps(
        {"format": CHECKPOINT_FORMAT, "metadata": dict(metadata or {})}, sort_keys=True))
    with atomic_open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path: Union[str, Path]) -> tuple[dict[str, Array], dict]:
    """Read a checkpoint; returns (parameter arrays, metadata).

    A missing, truncated or foreign file, a v1 JSON or v2 checkpoint, a
    wrong format tag, metadata that is no object, and any array that is not
    finite float64 raise a DataError naming the file (and the parameter,
    where there is one).
    """
    entries = _read_npz(path)
    meta = entries.pop(META_KEY, None)
    payload = None
    if isinstance(meta, np.ndarray) and meta.shape == () and meta.dtype.kind == "U":
        with contextlib.suppress(json.JSONDecodeError):
            payload = json.loads(str(meta))
    if isinstance(payload, dict) and payload.get("format") == RETIRED_FORMAT:
        raise DataError(f"checkpoint {path} is a {RETIRED_FORMAT} file, whose per-head "
                        f"attention parameters are no longer read; retrain to write a "
                        f"{CHECKPOINT_FORMAT} file")
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise DataError(f"checkpoint {path} lacks the {CHECKPOINT_FORMAT} format tag")
    state: dict[str, Array] = {}
    for p, arr in entries.items():
        if not isinstance(arr, np.ndarray) or arr.dtype != np.float64:
            raise DataError(f"checkpoint {path}: parameter {p!r} is not a float64 array")
        if not np.isfinite(arr).all():
            raise DataError(f"checkpoint {path}: parameter {p!r} holds non-finite values")
        state[p] = arr
    try:
        return state, check_row({"metadata": {}, **payload}, {"metadata": dict})["metadata"]
    except DataError as exc:
        raise DataError(f"checkpoint {path}: {exc}") from exc


def _read_npz(path: Union[str, Path]) -> dict:
    """Every entry of an ``.npz`` file, read without unpickling anything."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(ZIP_MAGIC))
            if head == ZIP_MAGIC:
                fh.seek(0)
                with np.load(fh, allow_pickle=False) as npz:
                    return {name: npz[name] for name in npz.files}
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if head.lstrip()[:1] == b"{":
        raise DataError(f"checkpoint {path} is a v1 JSON checkpoint; v1 is no longer "
                        f"read, so retrain to write a {CHECKPOINT_FORMAT} file")
    raise DataError(f"checkpoint {path} is not an npz (zip) file")
