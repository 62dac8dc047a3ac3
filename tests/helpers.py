"""Shared test utilities: finite-difference gradient checking and the
per-sample reference loss."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from cxrgen.decoder import masked_mean, sparse_ce_loss
from cxrgen.tensor import GradientTape, Tensor, add, mul
from cxrgen.vocab import PAD_ID

FD_STEP = 1e-5
GRAD_RTOL = 1e-5


def rel_err(analytic: float, numeric: float) -> float:
    """|a - n| / max(1, |a|, |n|), the tolerance used across gradient checks."""
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


def numeric_grad(f: Callable[[], float], param: Tensor, step: float = FD_STEP) -> np.ndarray:
    """Central finite differences of a scalar-valued closure w.r.t. ``param``.

    ``f`` must recompute the forward pass from ``param.data`` on every call.
    """
    base = param.data.copy()
    grad = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        perturbed = base.copy()
        perturbed[idx] = base[idx] + step
        param.data = perturbed
        f_plus = f()
        perturbed[idx] = base[idx] - step
        param.data = perturbed
        f_minus = f()
        grad[idx] = (f_plus - f_minus) / (2.0 * step)
        it.iternext()
    param.data = base
    return grad


def check_gradients(build_loss: Callable[[], Tensor], params: Sequence[Tensor],
                    step: float = FD_STEP, rtol: float = GRAD_RTOL,
                    max_entries: int | None = None, seed: int = 0) -> float:
    """Compare tape gradients against central differences for every entry.

    ``build_loss`` runs a full forward pass and returns the scalar loss
    tensor. Returns the worst relative error seen. ``max_entries`` limits
    the checked entries per parameter to a seeded random subset.
    """
    with GradientTape() as tape:
        loss = build_loss()
    tape.backward(loss)
    analytic = [tape.grad(p).copy() for p in params]

    def scalar_loss() -> float:
        return build_loss().item()

    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, a in zip(params, analytic):
        base = p.data.copy()
        flat_indices = np.arange(base.size)
        if max_entries is not None and base.size > max_entries:
            flat_indices = rng.choice(base.size, size=max_entries, replace=False)
        for flat in flat_indices:
            idx = np.unravel_index(flat, base.shape)
            perturbed = base.copy()
            perturbed[idx] = base[idx] + step
            p.data = perturbed
            f_plus = scalar_loss()
            perturbed[idx] = base[idx] - step
            p.data = perturbed
            f_minus = scalar_loss()
            p.data = base
            numeric = (f_plus - f_minus) / (2.0 * step)
            err = rel_err(float(a[idx]), numeric)
            worst = max(worst, err)
            assert err < rtol, (
                f"gradient mismatch at entry {idx}: analytic {a[idx]:.10g}, "
                f"numeric {numeric:.10g}, rel err {err:.3g}")
    return worst


def per_sample_loss(model, records) -> Tensor:
    """Reference objective for ``ReportGenerator.loss_for_batch``.

    Each record runs its own forward over its whole (untrimmed) report, its
    masked token mean is taken, and the per-record losses are averaged by a
    chain of adds and one scale.
    """
    total = None
    for rec in records:
        ids = np.asarray(rec.report_ids, dtype=np.int64)
        labels = ids[1:]
        pad_mask = labels != PAD_ID
        logits = model.decoder.teacher_forced_forward(model.encode_record(rec).output, ids[:-1])
        loss = masked_mean(sparse_ce_loss(logits, labels, pad_mask), pad_mask)
        total = loss if total is None else add(total, loss)
    return mul(total, 1.0 / len(records))
