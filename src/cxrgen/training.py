"""Adam with linear warmup, early stopping, and the training loop."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (ConfigurationError, ContractError, NonFiniteGradientError,
                     TrainingError, check_fields)
from .tensor import Array, GradientTape, Tensor

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# elements of a parameter adam_step updates at once; its two scratch arrays
# are this long, so a chunk's operands stay in cache between operations
ADAM_CHUNK = 32768
# records per batched forward in evaluate_split; bounds its peak memory
EVAL_CHUNK = 64


@dataclass(frozen=True)
class TrainConfig:
    base_lr: float = 3e-4
    warmup_steps: int = 500
    batch_size: int = 64
    max_epochs: int = 100
    early_stop_patience: int = 5
    seed: int = 0

    def __post_init__(self):
        check_fields(type(self), vars(self))
        if self.base_lr <= 0:
            raise ConfigurationError(f"base_lr must be positive, got {self.base_lr}")


def lr_at_step(step: int, config: TrainConfig) -> float:
    """Linear ramp from ~0 to base_lr over the warmup, constant after."""
    if step < 1:
        raise ContractError(f"step counter starts at 1, got {step}")
    if step <= config.warmup_steps:
        return config.base_lr * step / config.warmup_steps
    return config.base_lr


@dataclass
class OptimizerState:
    """First/second moment accumulators, the shared step counter, and the two
    scratch arrays every ``adam_step`` computes in, allocated once here."""

    m: dict
    v: dict
    step: int = 0
    scratch: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        size = min(ADAM_CHUNK, max((a.size for a in self.m.values()), default=0))
        self.scratch = (np.empty(size), np.empty(size))

    @classmethod
    def for_parameters(cls, parameters: Mapping[str, Tensor]) -> "OptimizerState":
        return cls(m={p: np.zeros(t.data.shape) for p, t in parameters.items()},
                   v={p: np.zeros(t.data.shape) for p, t in parameters.items()})


def adam_step(parameters: Mapping[str, Tensor], grads: Mapping[str, Array],
              state: OptimizerState, lr: float) -> None:
    """One bias-corrected Adam update (Kingma & Ba, arXiv 1412.6980) in place.

    Each parameter's ``data`` and both its moments are updated where they lie,
    walked as flat views ``ADAM_CHUNK`` elements at a time through the state's
    scratch arrays, so a step allocates nothing parameter-sized. The operations
    run in the order of ``theta - lr * (m / bc1) / (sqrt(v / bc2) + eps)``, so
    the values are bit-identical to that expression's. Writing ``data`` in place
    is safe because a tape serves one step: its closures have run by now.

    Every parameter must be a C-contiguous, writeable float64 array, and every
    gradient is checked for shape and finiteness, before any state moves, so a
    rejected update leaves parameters, moments and the step counter exactly as
    they were.
    """
    flat = []
    for path, param in parameters.items():
        data = param.data
        if data.dtype != np.float64 or not (data.flags.c_contiguous and data.flags.writeable):
            raise ContractError(f"parameter {path!r} is not a C-contiguous, writeable "
                                f"float64 array, so it cannot be updated in place")
        g = np.asarray(grads[path], dtype=np.float64)
        if g.shape != data.shape:
            raise TrainingError(f"gradient shape {g.shape} does not match parameter "
                                f"{path!r} shape {data.shape}")
        if not np.isfinite(g).all():
            raise NonFiniteGradientError(f"non-finite gradient for parameter {path!r}")
        flat.append((data.reshape(-1), state.m[path].reshape(-1),
                     state.v[path].reshape(-1), g.reshape(-1)))
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for theta, m_all, v_all, g_all in flat:
        for start in range(0, theta.size, ADAM_CHUNK):
            chunk = slice(start, start + ADAM_CHUNK)
            p, m, v, g = theta[chunk], m_all[chunk], v_all[chunk], g_all[chunk]
            a, b = (s[:g.size] for s in state.scratch)
            # m = beta1 * m + (1 - beta1) * g
            np.multiply(m, ADAM_BETA1, out=m)
            np.multiply(g, 1.0 - ADAM_BETA1, out=a)
            np.add(m, a, out=m)
            # v = beta2 * v + (1 - beta2) * (g * g)
            np.multiply(v, ADAM_BETA2, out=v)
            np.multiply(g, g, out=a)
            np.multiply(a, 1.0 - ADAM_BETA2, out=a)
            np.add(v, a, out=v)
            # theta = theta - lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(m, bc1, out=a)
            np.multiply(a, lr, out=a)
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            np.add(b, ADAM_EPS, out=b)
            np.divide(a, b, out=a)
            np.subtract(p, a, out=p)


def split_dataset(records: Sequence, train_fraction: float,
                  seed: int) -> tuple[list, list]:
    """Seeded shuffle, then a contiguous train/val split: train takes
    ``train_fraction`` of the records and val ``1 - train_fraction``, each
    rounded down; a record left over by the floors goes to train first, then
    val.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ConfigurationError(f"train fraction must be finite and in (0, 1), got "
                                 f"{train_fraction}")
    if len(records) < 2:
        raise ConfigurationError(f"cannot split {len(records)} records into 2 non-empty parts")
    order = np.random.default_rng(seed).permutation(len(records))
    counts = [int(math.floor(f * len(records))) for f in (train_fraction, 1.0 - train_fraction)]
    for i in range(len(records) - sum(counts)):
        counts[i % 2] += 1
    return ([records[i] for i in order[:counts[0]]],
            [records[i] for i in order[counts[0]:]])


@dataclass
class FitResult:
    history: list
    best_val_loss: float
    best_epoch: int
    epochs_run: int
    diverged: bool = False


def evaluate_split(model, records: Sequence) -> tuple[float, float]:
    """(mean per-sample loss, pooled token accuracy) without recording. The
    records are packed once, then scored in batches of ``EVAL_CHUNK``."""
    if not records:
        raise ConfigurationError("cannot evaluate an empty split")
    packed = model.pack(records)
    loss_sum = 0.0
    correct = 0
    total = 0
    for start in range(0, len(packed), EVAL_CHUNK):
        chunk = packed[start:start + EVAL_CHUNK]
        loss, c, t = model.loss_for_batch(chunk)
        loss_sum += loss.item() * len(chunk)
        correct += c
        total += t
    return loss_sum / len(packed), correct / max(1, total)


def fit(model, train_set: Sequence, val_set: Sequence, config: TrainConfig) -> FitResult:
    """Mini-batch Adam training with warmup and early stopping.

    Each mini-batch is an index array into the training split, packed once,
    and one ``model.loss_for_batch`` forward and backward. Training stops
    once ``early_stop_patience`` epochs in a row bring no strict improvement
    of the best validation loss. A non-finite batch loss, gradient or
    validation loss aborts the run (``diverged=True``) and restores the best
    checkpoint seen so far; the model is always left holding the
    best-validation parameters when fit returns.

    Beside the model, fit holds four parameter-sized sets of arrays: the two
    Adam moments, the best-state snapshot, which each improving epoch copies
    into in place, and one step's gradients, dropped once ``adam_step`` has
    applied or rejected them.
    """
    if not train_set or not val_set:
        raise ConfigurationError("fit needs non-empty train and validation sets")
    train = model.pack(train_set)
    parameters = model.parameters()
    state = OptimizerState.for_parameters(parameters)
    rng = np.random.default_rng(config.seed)

    best_state = model.state_dict()
    best_val_loss = math.inf
    best_epoch = 0
    history: list[dict] = []
    step = 0

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train))
        loss_weighted = 0.0
        correct = 0
        total = 0
        last_lr = lr_at_step(max(1, step), config) if step else 0.0
        diverged = False
        for start in range(0, len(order), config.batch_size):
            batch = train[order[start:start + config.batch_size]]
            with GradientTape() as tape:
                batch_loss, c, t = model.loss_for_batch(batch)
            correct += c
            total += t
            value = batch_loss.item()
            if not math.isfinite(value):
                diverged = True
                break
            loss_weighted += value * len(batch)
            tape.backward(batch_loss)
            grads = tape.gradients(parameters)
            del tape  # frees the step's closures and node gradients before the update
            step += 1
            last_lr = lr_at_step(step, config)
            try:
                adam_step(parameters, grads, state, last_lr)
            except NonFiniteGradientError:
                diverged = True
            del grads  # applied or rejected, no gradient outlives its step
            if diverged:
                break
        if not diverged:
            val_loss, val_acc = evaluate_split(model, val_set)
            history.append({
                "epoch": epoch,
                "train_loss": loss_weighted / len(train),
                "train_acc": correct / max(1, total),
                "val_loss": val_loss,
                "val_acc": val_acc,
                "lr": last_lr,
            })
            diverged = not math.isfinite(val_loss)
        if diverged:
            model.load_state_dict(best_state)
            return FitResult(history, best_val_loss, best_epoch, epoch, diverged=True)
        if val_loss < best_val_loss:
            best_val_loss = val_loss
            for path, t in parameters.items():
                np.copyto(best_state[path], t.data)
            best_epoch = epoch
        if epoch - best_epoch >= config.early_stop_patience:
            break

    model.load_state_dict(best_state)
    return FitResult(history, best_val_loss, best_epoch, epoch)
