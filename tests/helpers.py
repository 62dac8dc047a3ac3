"""Shared test utilities: finite-difference gradient checking, the
per-sample reference loss, the full-prefix greedy decoder that cached
decoding is checked against, and the out-of-place Adam update that the
in-place one is checked against."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from cxrgen.decoder import _KVCache, masked_mean, sparse_ce_loss
from cxrgen.tensor import GradientTape, Tensor, add, mul
from cxrgen.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS
from cxrgen.vocab import END_ID, PAD_ID, START_ID

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


def adam_reference(theta: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray,
                   step: int, lr: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference for ``adam_step`` on one parameter: the bias-corrected update
    written out of place. ``step`` is the counter after the increment, as in
    ``adam_step``. Returns new (theta, m, v) arrays."""
    bc1 = 1.0 - ADAM_BETA1 ** step
    bc2 = 1.0 - ADAM_BETA2 ** step
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
    return theta - lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS), m, v


def greedy_full_prefix(decoder, encoder_rows: Tensor) -> list[int]:
    """Reference for ``ReportDecoder.generate_batch`` on one record: argmax
    decoding from START that re-runs ``teacher_forced_forward`` on the whole
    prefix for every token, until END or ``report_len`` ids."""
    ids = [START_ID]
    while len(ids) < decoder.config.report_len:
        logits = decoder.teacher_forced_forward(encoder_rows, ids)
        nxt = int(np.argmax(logits.data[-1]))
        ids.append(nxt)
        if nxt == END_ID:
            break
    return ids


def check_cached_decoding(decoder, encoder_rows: Tensor, batch_size: int) -> list[list[int]]:
    """Assert that ``generate_batch`` gives every record the ids of
    ``greedy_full_prefix``, and that each cached step's logits are within
    1e-9 of the last row of ``teacher_forced_forward`` on that prefix.
    Returns the ids."""
    n = encoder_rows.shape[0] // batch_size
    per_record = [Tensor(encoder_rows.data[n * b:n * (b + 1)]) for b in range(batch_size)]
    expected = [greedy_full_prefix(decoder, rows) for rows in per_record]
    assert decoder.generate_batch(encoder_rows, batch_size) == expected
    # step the cache along the greedy ids, dropping records after their END
    cache = _KVCache(decoder, encoder_rows, batch_size, decoder.config.report_len)
    active = list(range(batch_size))
    for t in range(decoder.config.report_len - 1):
        logits = cache.step(np.array([expected[b][t] for b in active]))
        for row, b in enumerate(active):
            full = decoder.teacher_forced_forward(per_record[b], expected[b][:t + 1])
            np.testing.assert_allclose(logits[row], full.data[-1], rtol=0, atol=1e-9)
        going = np.array([len(expected[b]) > t + 2 for b in active])
        active = [b for b, g in zip(active, going) if g]
        if not active:
            break
        cache.keep(going)
    return expected
