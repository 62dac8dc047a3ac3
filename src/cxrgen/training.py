"""Adam with linear warmup, early stopping, and the training loop."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import (ConfigurationError, ContractError, NonFiniteGradientError,
                     TrainingError)
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
    grad_clip_norm: Optional[float] = None

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ConfigurationError(f"base_lr must be positive, got {self.base_lr}")
        for name in ("warmup_steps", "batch_size", "max_epochs", "early_stop_patience"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.grad_clip_norm is not None and self.grad_clip_norm <= 0:
            raise ConfigurationError("grad_clip_norm must be positive when set")


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


def clip_gradients(grads: Mapping[str, Array], max_norm: float) -> dict[str, Array]:
    """Scale all gradients down if their joint L2 norm exceeds ``max_norm``."""
    total = math.sqrt(sum(float((np.asarray(g) ** 2).sum()) for g in grads.values()))
    if total <= max_norm or total == 0.0:
        return dict(grads)
    scale = max_norm / total
    return {p: np.asarray(g) * scale for p, g in grads.items()}


def split_dataset(records: Sequence, fractions: Sequence[float],
                  seed: int) -> tuple[list, list]:
    """Seeded shuffle, then a contiguous train/val split by the two
    ``fractions``, which sum to 1; a record left over by the floors goes to
    train first, then val.
    """
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 2:
        raise ConfigurationError(f"need 2 split fractions, got {len(fractions)}")
    if any(f <= 0 for f in fractions):
        raise ConfigurationError(f"split fractions must be positive: {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigurationError(f"split fractions must sum to 1, got {sum(fractions)}")
    if len(records) < 2:
        raise ConfigurationError(f"cannot split {len(records)} records into 2 non-empty parts")
    order = np.random.default_rng(seed).permutation(len(records))
    counts = [int(math.floor(f * len(records))) for f in fractions]
    for i in range(len(records) - sum(counts)):
        counts[i % 2] += 1
    return ([records[i] for i in order[:counts[0]]],
            [records[i] for i in order[counts[0]:]])


class EarlyStopper:
    """Stop after ``patience`` consecutive epochs without a strict
    validation-loss improvement."""

    def __init__(self, patience: int):
        if patience < 1:
            raise ConfigurationError(f"patience must be >= 1, got {patience}")
        self.patience = patience
        self.best = math.inf
        self.bad_epochs = 0

    def update(self, val_loss: float) -> bool:
        """Record one epoch's validation loss; True means stop now."""
        if val_loss < self.best:
            self.best = val_loss
            self.bad_epochs = 0
            return False
        self.bad_epochs += 1
        return self.bad_epochs >= self.patience


@dataclass
class FitResult:
    history: list
    best_state: dict
    best_val_loss: float
    best_epoch: int
    epochs_run: int
    diverged: bool = False


def evaluate_split(model, records: Sequence) -> tuple[float, float]:
    """(mean per-sample loss, pooled token accuracy) without recording,
    scored in batches of ``EVAL_CHUNK`` records."""
    if not records:
        raise ConfigurationError("cannot evaluate an empty split")
    loss_sum = 0.0
    correct = 0
    total = 0
    for start in range(0, len(records), EVAL_CHUNK):
        chunk = records[start:start + EVAL_CHUNK]
        loss, c, t = model.loss_for_batch(chunk)
        loss_sum += loss.item() * len(chunk)
        correct += c
        total += t
    return loss_sum / len(records), correct / max(1, total)


def fit(model, train_set: Sequence, val_set: Sequence, config: TrainConfig) -> FitResult:
    """Mini-batch Adam training with warmup and early stopping.

    Each mini-batch is one ``model.loss_for_batch`` forward and backward. A
    non-finite batch loss, gradient or validation loss aborts the run
    (``diverged=True``) and restores the best checkpoint seen so far; the
    model is always left holding the best-validation parameters when fit
    returns.
    """
    if not train_set or not val_set:
        raise ConfigurationError("fit needs non-empty train and validation sets")
    parameters = model.parameters()
    state = OptimizerState.for_parameters(parameters)
    stopper = EarlyStopper(config.early_stop_patience)
    rng = np.random.default_rng(config.seed)

    best_state = model.state_dict()
    best_val_loss = math.inf
    best_epoch = 0
    history: list[dict] = []
    step = 0
    epochs_run = 0

    for epoch in range(1, config.max_epochs + 1):
        epochs_run = epoch
        order = rng.permutation(len(train_set))
        loss_weighted = 0.0
        correct = 0
        total = 0
        last_lr = lr_at_step(max(1, step), config) if step else 0.0
        diverged = False
        for start in range(0, len(order), config.batch_size):
            batch = [train_set[i] for i in order[start:start + config.batch_size]]
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
            if config.grad_clip_norm is not None:
                grads = clip_gradients(grads, config.grad_clip_norm)
            step += 1
            last_lr = lr_at_step(step, config)
            try:
                adam_step(parameters, grads, state, last_lr)
            except NonFiniteGradientError:
                diverged = True
                break
        if not diverged:
            val_loss, val_acc = evaluate_split(model, val_set)
            history.append({
                "epoch": epoch,
                "train_loss": loss_weighted / len(train_set),
                "train_acc": correct / max(1, total),
                "val_loss": val_loss,
                "val_acc": val_acc,
                "lr": last_lr,
            })
            diverged = not math.isfinite(val_loss)
        if diverged:
            model.load_state_dict(best_state)
            return FitResult(history, best_state, best_val_loss,
                             best_epoch, epochs_run, diverged=True)
        if val_loss < best_val_loss:
            best_val_loss = val_loss
            best_state = model.state_dict()
            best_epoch = epoch
        if stopper.update(val_loss):
            break

    model.load_state_dict(best_state)
    return FitResult(history, best_state, best_val_loss, best_epoch, epochs_run)
