"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

The op set is deliberately small: only what the model runs. Position-wise
ops work on 2-D rows, and softmax and concat act on the last axis; attention
runs batched over leading axes through ``batched_matmul`` and ``swap_axes``.
Forward passes run as plain numpy; when a ``GradientTape`` is active and not
paused by ``no_tape``, each op also appends a node holding a backward
closure. Nodes are appended after their inputs, so a single reverse
sweep over the tape is a valid topological order.

Ops never write into a tensor's ``data``. The optimizer does: ``adam_step``
updates each parameter's array in place between steps. That is safe because a
tape serves one step: its backward closures, which read the old values, have
all run before the update, and the next step records a fresh tape.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import ContractError, DimensionError

Array = np.ndarray

_STATE = threading.local()


def _tape_stack() -> list[Optional["GradientTape"]]:
    stack = getattr(_STATE, "tapes", None)
    if stack is None:
        stack = []
        _STATE.tapes = stack
    return stack


def active_tape() -> Optional["GradientTape"]:
    """The innermost tape currently recording on this thread, if any."""
    stack = _tape_stack()
    return stack[-1] if stack else None


@contextmanager
def no_tape() -> Iterator[None]:
    """Run ops inside without recording them on any tape (inference)."""
    stack = _tape_stack()
    stack.append(None)
    try:
        yield
    finally:
        stack.pop()


class Tensor:
    """Dense row-major float64 array with optional tape tracking.

    ``node_id`` is the handle assigned by the tape that most recently
    recorded this tensor; constants no tape has seen keep ``node_id=None``.
    Parameters (``requires_grad=True``) are (re-)registered lazily as leaves
    on whichever tape first consumes them.
    """

    __slots__ = ("data", "requires_grad", "node_id", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data: Array = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.node_id: Optional[int] = None
        self._tape: Optional["GradientTape"] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return int(self.data.size)

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


# Backward closures take the output gradient and return one gradient per
# recorded input (aligned positionally; None for inputs that are untracked).
BackwardFn = Callable[[Array], tuple]


class _Node:
    __slots__ = ("op", "inputs", "backward")

    def __init__(self, op: str, inputs: tuple, backward: Optional[BackwardFn]):
        self.op = op
        self.inputs = inputs
        self.backward = backward


class GradientTape:
    """Append-only operation record for one reverse-mode sweep.

    Intended use is one tape per training step, entered as a context
    manager. The tape is single-writer: ops append nodes only from the
    thread that entered it.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._grads: Optional[list[Optional[Array]]] = None

    def __enter__(self) -> "GradientTape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _tape_stack().pop()
        if popped is not self:  # pragma: no cover - misuse guard
            raise ContractError("GradientTape contexts must nest properly")
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def _tracked_id(self, tensor: Tensor) -> Optional[int]:
        """``tensor``'s node on this tape; a parameter this tape has not seen
        yet becomes a new leaf, and an untracked constant gets None."""
        if tensor._tape is self and tensor.node_id is not None:
            return tensor.node_id
        if not tensor.requires_grad:
            return None
        tensor._tape, tensor.node_id = self, len(self._nodes)
        self._nodes.append(_Node("leaf", (), None))
        return tensor.node_id

    def _record(self, op: str, input_ids: Sequence[Optional[int]],
                backward: BackwardFn, out: Tensor) -> None:
        node_id = len(self._nodes)
        self._nodes.append(_Node(op, tuple(input_ids), backward))
        out._tape = self
        out.node_id = node_id

    def backward(self, root: Tensor) -> None:
        """Accumulate gradients of the scalar ``root`` w.r.t. every node.

        A root the tape never recorded (a constant) is legal and yields zero
        gradients everywhere. Accumulation is out-of-place so closures may
        return views or shared arrays safely.
        """
        if root.data.size != 1:
            raise ContractError(f"backward() needs a scalar root, got shape {root.shape}")
        grads: list[Optional[Array]] = [None] * len(self._nodes)
        if root._tape is self and root.node_id is not None:
            grads[root.node_id] = np.ones_like(root.data)
            for node_id in range(root.node_id, -1, -1):
                gout = grads[node_id]
                node = self._nodes[node_id]
                if gout is None or node.backward is None:
                    continue
                for input_id, gin in zip(node.inputs, node.backward(gout)):
                    if input_id is None or gin is None:
                        continue
                    if grads[input_id] is None:
                        grads[input_id] = gin
                    else:
                        grads[input_id] = grads[input_id] + gin
        self._grads = grads

    def grad(self, tensor: Tensor) -> Array:
        """Gradient of the last backward() root w.r.t. ``tensor``.

        Tensors the root does not depend on get exact zeros.
        """
        if self._grads is None:
            raise ContractError("grad() called before backward()")
        if tensor._tape is self and tensor.node_id is not None:
            g = self._grads[tensor.node_id]
            if g is not None:
                return np.asarray(g, dtype=np.float64).reshape(tensor.data.shape)
        return np.zeros_like(tensor.data)

    def gradients(self, parameters: Mapping[str, Tensor]) -> dict[str, Array]:
        """Gradient arrays for a named parameter map (zeros if unreachable)."""
        return {path: self.grad(p) for path, p in parameters.items()}


def _emit(op: str, out_data: Array, inputs: Sequence[Tensor], backward: BackwardFn) -> Tensor:
    out = Tensor(out_data)
    tape = active_tape()
    if tape is not None:
        ids = [tape._tracked_id(t) for t in inputs]
        if any(i is not None for i in ids):
            tape._record(op, ids, backward, out)
    return out


def _normalize_axis(ndim: int, axis: int, op: str) -> int:
    if not -ndim <= axis < ndim:
        raise DimensionError(f"{op}: axis {axis} out of range for {ndim}-d tensor")
    return axis % ndim


# --------------------------------------------------------------------------
# ops
# --------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    ad, bd = a.data, b.data

    def backward(g: Array) -> tuple:
        return g @ bd.T, ad.T @ g

    return _emit("matmul", ad @ bd, (a, b), backward)


def batched_matmul(a: Tensor, b: Tensor) -> Tensor:
    """``np.matmul`` over matching leading axes: [..., n, k] x [..., k, m]."""
    if a.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2] \
            or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"batched_matmul: incompatible shapes {a.shape} x {b.shape}")
    ad, bd = a.data, b.data

    def backward(g: Array) -> tuple:
        return g @ np.swapaxes(bd, -1, -2), np.swapaxes(ad, -1, -2) @ g

    return _emit("batched_matmul", ad @ bd, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.shape == bd.shape:
        def backward(g: Array) -> tuple:
            return g, g
    elif ad.ndim == 2 and bd.ndim == 1 and ad.shape[1] == bd.shape[0]:
        # row-broadcast bias add
        def backward(g: Array) -> tuple:
            return g, g.sum(axis=0)
    else:
        raise DimensionError(f"add: incompatible shapes {ad.shape} + {bd.shape}")
    return _emit("add", ad + bd, (a, b), backward)


def neg(x: Tensor) -> Tensor:
    def backward(g: Array) -> tuple:
        return (-g,)

    return _emit("neg", -x.data, (x,), backward)


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product with a python scalar or a same-shape Tensor."""
    if not isinstance(b, Tensor):
        s = float(b)

        def backward_scalar(g: Array) -> tuple:
            return (g * s,)

        return _emit("scale", a.data * s, (a,), backward_scalar)

    ad, bd = a.data, b.data
    if ad.shape != bd.shape:
        raise DimensionError(f"mul: incompatible shapes {ad.shape} * {bd.shape}")

    def backward(g: Array) -> tuple:
        return g * bd, g * ad

    return _emit("mul", ad * bd, (a, b), backward)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def backward(g: Array) -> tuple:
        return (g * mask,)

    return _emit("relu", np.where(mask, x.data, 0.0), (x,), backward)


def softmax(x: Tensor) -> Tensor:
    """Numerically stable softmax along the last axis (max-shifted)."""
    shifted = x.data - np.max(x.data, axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(g: Array) -> tuple:
        return (out * (g - (g * out).sum(axis=-1, keepdims=True)),)

    return _emit("softmax", out, (x,), backward)


def log_softmax(x: Tensor) -> Tensor:
    """Log of the softmax along the last axis."""
    shifted = x.data - np.max(x.data, axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    probs = np.exp(out)

    def backward(g: Array) -> tuple:
        return (g - probs * g.sum(axis=-1, keepdims=True),)

    return _emit("log_softmax", out, (x,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, epsilon: float = 1e-6) -> Tensor:
    """Normalize each row of a 2-d input to zero mean / unit variance, then
    scale-shift. Uses the biased variance; ``epsilon`` sits inside the root.
    """
    if x.ndim != 2:
        raise DimensionError(f"layer_norm: expected a 2-d input, got shape {x.shape}")
    width = x.shape[-1]
    if gamma.shape != (width,) or beta.shape != (width,):
        raise DimensionError(
            f"layer_norm: gamma/beta shapes {gamma.shape}/{beta.shape} do not match width {width}")
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + epsilon)
    xhat = (x.data - mean) * inv
    out = gamma.data * xhat + beta.data

    def backward(g: Array) -> tuple:
        gy = g * gamma.data
        m1 = gy.mean(axis=-1, keepdims=True)
        m2 = (gy * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (gy - m1 - xhat * m2)
        dgamma = (g * xhat).sum(axis=0)
        dbeta = g.sum(axis=0)
        return dx, dgamma, dbeta

    return _emit("layer_norm", out, (x, gamma, beta), backward)


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b``."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise DimensionError(f"dense: incompatible shapes {x.shape} x {w.shape}")
    if b.shape != (w.shape[1],):
        raise DimensionError(f"dense: bias shape {b.shape} does not match output width {w.shape[1]}")
    return add(matmul(x, w), b)


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Join tensors along the last axis; every other axis must match."""
    if not tensors:
        raise ContractError("concat: need at least one tensor")
    first = tensors[0]
    for t in tensors[1:]:
        if t.shape[:-1] != first.shape[:-1]:
            raise DimensionError(f"concat: shape mismatch {first.shape} vs {t.shape}")
    out = np.concatenate([t.data for t in tensors], axis=-1)
    boundaries = np.cumsum([t.shape[-1] for t in tensors])[:-1]

    def backward(g: Array) -> tuple:
        return tuple(np.split(g, boundaries, axis=-1))

    return _emit("concat", out, tuple(tensors), backward)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise DimensionError(f"reshape: cannot view {x.shape} as {shape}")
    old_shape = x.shape

    def backward(g: Array) -> tuple:
        return (g.reshape(old_shape),)

    return _emit("reshape", x.data.reshape(shape), (x,), backward)


def swap_axes(x: Tensor, axis1: int, axis2: int) -> Tensor:
    """Exchange two axes (a contiguous copy, like ``np.swapaxes``)."""
    a1 = _normalize_axis(x.ndim, axis1, "swap_axes")
    a2 = _normalize_axis(x.ndim, axis2, "swap_axes")

    def backward(g: Array) -> tuple:
        return (np.swapaxes(g, a1, a2),)

    return _emit("swap_axes", np.ascontiguousarray(np.swapaxes(x.data, a1, a2)), (x,),
                 backward)


def reduce_sum(x: Tensor) -> Tensor:
    """Sum of every entry, as a 0-d tensor."""
    shape = x.shape

    def backward(g: Array) -> tuple:
        return (np.full(shape, float(g)),)

    return _emit("sum", np.asarray(x.data.sum()), (x,), backward)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table`` (shape [V, E]) at integer ``ids`` (1-d)."""
    idx = np.asarray(ids, dtype=np.int64)
    if table.ndim != 2:
        raise DimensionError(f"embedding_lookup: table must be 2-d, got shape {table.shape}")
    if idx.ndim != 1:
        raise DimensionError(f"embedding_lookup: ids must be 1-d, got shape {idx.shape}")
    vocab_size, _ = table.shape
    if idx.size and (idx.min() < 0 or idx.max() >= vocab_size):
        raise ContractError(f"embedding_lookup: id out of range [0, {vocab_size})")
    table_shape = table.shape

    def backward(g: Array) -> tuple:
        grad = np.zeros(table_shape)
        np.add.at(grad, idx, g)
        return (grad,)

    return _emit("embedding_lookup", table.data[idx].copy(), (table,), backward)


def take_per_row(x: Tensor, cols) -> Tensor:
    """Pick one column per row: ``out[i] = x[i, cols[i]]``."""
    if x.ndim != 2:
        raise DimensionError(f"take_per_row: expected a 2-d tensor, got shape {x.shape}")
    idx = np.asarray(cols, dtype=np.int64)
    n, m = x.shape
    if idx.shape != (n,):
        raise DimensionError(f"take_per_row: need {n} column indices, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= m):
        raise ContractError(f"take_per_row: column index out of range [0, {m})")
    rows = np.arange(n)
    shape = x.shape

    def backward(g: Array) -> tuple:
        grad = np.zeros(shape)
        grad[rows, idx] = g
        return (grad,)

    return _emit("take_per_row", x.data[rows, idx].copy(), (x,), backward)
