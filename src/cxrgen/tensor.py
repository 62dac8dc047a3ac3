"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

The op set is deliberately small: only what the model runs. Products:
``matmul``, ``dense``. Elementwise: ``add``, ``mul``, ``relu``. Rows:
``layer_norm``, ``cross_entropy`` (the token loss). Attention: ``attention``,
which takes query, key and value rows of a batch of records and a head count.
Shapes: ``concat``, ``reshape``. Gather and reduce: ``embedding_lookup``,
``reduce_sum``. Position-wise ops work on 2-D rows, and concat acts on the
last axis.

Forward passes run as plain numpy; when a ``GradientTape`` is active and not
paused by ``no_tape``, each op also appends a node holding a backward
closure. Nodes are appended after their inputs, so a single reverse
sweep over the tape is a valid topological order. The attention formula
lives once, in the numpy kernel ``_attention``: the taped op and the
decoder's key/value cache both call it, and no other module calls
``np.exp``, ``np.log`` or ``.var``. The head layout lives once, in
``_heads``: head i of a row is its column block i.

Ops never write into a tensor's ``data``. The optimizer does: ``adam_step``
updates each parameter's array in place between steps. That is safe because a
tape serves one step: its backward closures, which read the old values, have
all run before the update, and the next step records a fresh tape.
"""

from __future__ import annotations

import math
import threading
import weakref
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
    recorded this tensor, and ``_tape`` a weak reference to that tape, so a
    parameter keeps no finished step's tape alive; constants no tape has seen
    keep ``node_id=None``. Parameters (``requires_grad=True``) are
    (re-)registered lazily as leaves on whichever tape first consumes them.
    """

    __slots__ = ("data", "requires_grad", "node_id", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data: Array = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.node_id: Optional[int] = None
        self._tape: Optional[weakref.ref] = None

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
    thread that entered it. Recorded tensors refer to it only weakly, so it
    and its closures live exactly as long as the caller holds it.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._grads: Optional[list[Optional[Array]]] = None
        self._ref = weakref.ref(self)

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
        if tensor._tape is self._ref and tensor.node_id is not None:
            return tensor.node_id
        if not tensor.requires_grad:
            return None
        tensor._tape, tensor.node_id = self._ref, len(self._nodes)
        self._nodes.append(_Node("leaf", (), None))
        return tensor.node_id

    def _record(self, op: str, input_ids: Sequence[Optional[int]],
                backward: BackwardFn, out: Tensor) -> None:
        node_id = len(self._nodes)
        self._nodes.append(_Node(op, tuple(input_ids), backward))
        out._tape = self._ref
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
        if root._tape is self._ref and root.node_id is not None:
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
        if tensor._tape is self._ref and tensor.node_id is not None:
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


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    ad, bd = a.data, b.data
    if ad.shape != bd.shape:
        raise DimensionError(f"add: incompatible shapes {ad.shape} + {bd.shape}")

    def backward(g: Array) -> tuple:
        return g, g

    return _emit("add", ad + bd, (a, b), backward)


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


def _heads(x: Array, batch: int, heads: int) -> Array:
    """Rows [B·n, h·w] of ``batch`` records, one after another, as a
    [B, h, n, w] view: head i is column block i."""
    return np.swapaxes(x.reshape(batch, x.shape[0] // batch, heads, -1), 1, 2)


def _merge(x: Array) -> Array:
    """[B, h, n, w] back to rows [B·n, h·w], the inverse of ``_heads``."""
    return np.swapaxes(x, 1, 2).reshape(-1, x.shape[1] * x.shape[3])


def _attention(q: Array, kt: Array, v: Array, bias: Optional[Array]) -> tuple[Array, Array]:
    """(output rows, weights) of ``softmax(q kt / sqrt(w) + bias) v`` for heads
    q [B, h, n_q, w], keys given transposed as kt [B, h, w, n_k] and v
    [B, h, n_k, w_v]; max-shifted softmax. The output is merged back to rows
    [B·n_q, h·w_v]; the weights are [B, h, n_q, n_k]."""
    logits = (q @ kt) * (1.0 / math.sqrt(q.shape[-1]))
    if bias is not None:
        logits = logits + bias
    e = np.exp(logits - np.max(logits, axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    return _merge(weights @ v), weights


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, batch: int,
              bias: Optional[Array] = None) -> tuple[Tensor, Array]:
    """``_attention`` of ``batch`` records split into ``heads`` heads: query
    rows q [B·n_q, h·w], key rows k [B·n_k, h·w] and value rows v [B·n_k,
    h·w_v], record after record, plus an optional constant logit ``bias``
    [n_q, n_k] shared by every record and head; a bias of another shape is a
    DimensionError. Returns (output rows [B·n_q, h·w_v], weights [B, h, n_q,
    n_k] as an array). One tape node, whose backward runs the chain q·kT,
    scale, bias add, softmax, weights·v in reverse and merges each gradient to
    rows."""
    if not q.ndim == k.ndim == v.ndim == 2 or heads < 1 or batch < 1 \
            or q.shape[0] % batch or k.shape[0] % batch or k.shape[0] != v.shape[0] \
            or q.shape[1] != k.shape[1] or q.shape[1] % heads or v.shape[1] % heads:
        raise DimensionError(f"attention: shapes {q.shape}, {k.shape}, {v.shape} do not "
                             f"split into {batch} records of {heads} heads")
    logits_shape = (q.shape[0] // batch, k.shape[0] // batch)
    if bias is not None and bias.shape != logits_shape:
        raise DimensionError(f"attention: bias shape {bias.shape} does not match logits "
                             f"shape {logits_shape}")
    qd = np.ascontiguousarray(_heads(q.data, batch, heads))
    vd = np.ascontiguousarray(_heads(v.data, batch, heads))
    kt = np.ascontiguousarray(np.swapaxes(_heads(k.data, batch, heads), -1, -2))
    out, weights = _attention(qd, kt, vd, bias)
    scale = 1.0 / math.sqrt(qd.shape[-1])

    def backward(g: Array) -> tuple:
        g = _heads(g, batch, heads)
        gw = g @ np.swapaxes(vd, -1, -2)
        gl = weights * (gw - (gw * weights).sum(axis=-1, keepdims=True)) * scale
        return (_merge(gl @ np.swapaxes(kt, -1, -2)),
                _merge(np.swapaxes(np.swapaxes(qd, -1, -2) @ gl, -1, -2)),
                _merge(np.swapaxes(weights, -1, -2) @ g))

    return _emit("attention", out, (q, k, v), backward), weights


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Per-row token loss ``-log softmax(logits)[i, labels[i]]`` of logits
    [N, V] and integer labels [N]; returns [N]."""
    if logits.ndim != 2:
        raise DimensionError(f"cross_entropy: expected 2-d logits, got shape {logits.shape}")
    idx = np.asarray(labels, dtype=np.int64)
    n, v = logits.shape
    if idx.shape != (n,):
        raise DimensionError(f"cross_entropy: need {n} labels, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= v):
        raise ContractError(f"cross_entropy: label out of range [0, {v})")
    shifted = logits.data - np.max(logits.data, axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    rows = np.arange(n)

    def backward(g: Array) -> tuple:
        picked = np.zeros((n, v))
        picked[rows, idx] = -g
        return (picked - np.exp(logp) * picked.sum(axis=-1, keepdims=True),)

    return _emit("cross_entropy", -logp[rows, idx], (logits,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, epsilon: float = 1e-6) -> Tensor:
    """Normalize each row of a 2-d input to zero mean / unit variance, then
    scale-shift. Uses the biased variance; ``epsilon`` sits inside the root."""
    if x.ndim != 2:
        raise DimensionError(f"layer_norm: expected a 2-d input, got shape {x.shape}")
    width = x.shape[-1]
    if gamma.shape != (width,) or beta.shape != (width,):
        raise DimensionError(
            f"layer_norm: gamma/beta shapes {gamma.shape}/{beta.shape} do not match width {width}")
    mean = x.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.data.var(axis=-1, keepdims=True) + epsilon)
    xhat = (x.data - mean) * inv

    def backward(g: Array) -> tuple:
        gy = g * gamma.data
        m1 = gy.mean(axis=-1, keepdims=True)
        m2 = (gy * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (gy - m1 - xhat * m2)
        dgamma = (g * xhat).sum(axis=0)
        dbeta = g.sum(axis=0)
        return dx, dgamma, dbeta

    return _emit("layer_norm", gamma.data * xhat + beta.data, (x, gamma, beta), backward)


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b``."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise DimensionError(f"dense: incompatible shapes {x.shape} x {w.shape}")
    if b.shape != (w.shape[1],):
        raise DimensionError(f"dense: bias shape {b.shape} does not match output width {w.shape[1]}")
    xd, wd = x.data, w.data

    def backward(g: Array) -> tuple:
        return g @ wd.T, xd.T @ g, g.sum(axis=0)

    return _emit("dense", xd @ wd + b.data, (x, w, b), backward)


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

    # integer-array indexing already returns a new array
    return _emit("embedding_lookup", table.data[idx], (table,), backward)
