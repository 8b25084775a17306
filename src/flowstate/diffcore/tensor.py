"""Reverse-mode automatic differentiation on a dynamically recorded tape.

All values are 64-bit floats held in numpy arrays.  Operations executed
inside a ``with Tape():`` block are recorded in execution order, which is
already a valid topological order, so the backward pass is a single reverse
sweep over the op list.  Outside of any tape the very same functions run as
plain numpy evaluation with nothing recorded, which is the fast path used
for inference.

Broadcasting follows numpy's trailing-axis alignment; gradients of
broadcast operands are summed back onto the original shape.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np


class DiffcoreError(Exception):
    """Base class for engine errors."""


class ShapeMismatchError(DiffcoreError):
    pass


class DomainError(DiffcoreError):
    pass


class InvalidAxisError(DiffcoreError):
    pass


class FullyMaskedRowError(DiffcoreError):
    pass


class NonScalarLossError(DiffcoreError):
    pass


_TLS = threading.local()


def _active_tape() -> "Tape | None":
    return getattr(_TLS, "tape", None)


class Tensor:
    """Dense float64 array participating in tape-recorded computation.

    ``grad`` is populated by :func:`backward` for tensors created with
    ``requires_grad=True`` and accumulates across repeated backward calls
    until reset to ``None``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_tape", "_node_id")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._tape: Tape | None = None
        self._node_id: int = -1

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def node_id(self) -> int:
        return self._node_id

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Arithmetic sugar; scalars are wrapped as constants.
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return reduce("sum", self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce("mean", self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims=False):
        return reduce("max", self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self, axes=None):
        return transpose(self, axes)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


class _Op:
    __slots__ = ("out_id", "in_ids", "backward_fn")

    def __init__(self, out_id: int, in_ids: tuple[int, ...], backward_fn: Callable):
        self.out_id = out_id
        self.in_ids = in_ids
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of operations; entering activates recording.

    Ops are appended in execution order so inputs always precede their
    consumers.  Tapes do not nest and are single-threaded; distinct tapes
    may be active on distinct threads.
    """

    def __init__(self):
        self._ops: list[_Op] = []
        self._n_nodes = 0
        self._watched: list[Tensor] = []

    def __enter__(self) -> "Tape":
        if _active_tape() is not None:
            raise DiffcoreError("tapes do not nest")
        _TLS.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TLS.tape = None

    def _enroll(self, t: Tensor) -> int:
        if t._tape is self:
            return t._node_id
        t._tape = self
        t._node_id = self._n_nodes
        self._n_nodes += 1
        if t.requires_grad:
            self._watched.append(t)
        return t._node_id

    @property
    def n_ops(self) -> int:
        return len(self._ops)


def _record(out_data: np.ndarray, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None:
        in_ids = tuple(tape._enroll(t) for t in inputs)
        out_id = tape._enroll(out)
        tape._ops.append(_Op(out_id, in_ids, backward_fn))
    return out


def backward(loss: Tensor, params: Iterable[Tensor] = ()) -> None:
    """Populate ``grad`` on every watched tensor reachable from ``loss``.

    ``params`` may list extra tensors that should receive zero gradients
    when they never reached the loss (e.g. unused parameters).  Gradients
    accumulate across calls until reset.
    """
    if loss.data.size != 1:
        raise NonScalarLossError(f"loss must be scalar, got shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        raise DiffcoreError("loss was not recorded on a tape")

    buffers: list[np.ndarray | None] = [None] * tape._n_nodes
    buffers[loss._node_id] = np.ones_like(loss.data)
    for op in reversed(tape._ops):
        g = buffers[op.out_id]
        if g is None:
            continue
        grads = op.backward_fn(g)
        for iid, ig in zip(op.in_ids, grads):
            if ig is None:
                continue
            if buffers[iid] is None:
                buffers[iid] = ig
            else:
                buffers[iid] = buffers[iid] + ig

    for t in tape._watched:
        g = buffers[t._node_id]
        if g is None:
            g = np.zeros_like(t.data)
        t.grad = np.array(g, dtype=np.float64) if t.grad is None else t.grad + g
    for p in params:
        if p._tape is not tape and p.requires_grad and p.grad is None:
            p.grad = np.zeros_like(p.data)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down onto ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _broadcast_shape(a: Tensor, b: Tensor, kind: str) -> tuple[int, ...]:
    try:
        return np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeMismatchError(
            f"{kind}: shapes {a.shape} and {b.shape} do not broadcast"
        ) from None


_SIGMOID = lambda x: 1.0 / (1.0 + np.exp(-x))

_ZOH_SERIES_CUTOFF = 1e-6


def _expm1x_value(u: np.ndarray) -> np.ndarray:
    small = np.abs(u) < _ZOH_SERIES_CUTOFF
    safe = np.where(small, 1.0, u)
    exact = np.expm1(safe) / safe
    series = 1.0 + u / 2.0 + u * u / 6.0
    return np.where(small, series, exact)


def _expm1x_grad(u: np.ndarray) -> np.ndarray:
    small = np.abs(u) < _ZOH_SERIES_CUTOFF
    safe = np.where(small, 1.0, u)
    exact = (np.exp(safe) * (safe - 1.0) + 1.0) / (safe * safe)
    series = 0.5 + u / 3.0 + u * u / 8.0
    return np.where(small, series, exact)


def elementwise(op_kind: str, a: Tensor, b: Tensor | None = None, *, const: float | None = None) -> Tensor:
    """Apply an elementwise primitive, recording its analytic backward rule.

    Binary kinds (add/sub/mul/div) broadcast with numpy's trailing-axis
    rules.  ``scale`` multiplies by the python constant ``const``.  Beyond
    the basic set this engine also supplies sigmoid, softplus, sqrt and
    expm1x ((e^u - 1)/u with a series branch near 0), which the models
    need as primitives.
    """
    a = _as_tensor(a)
    if op_kind in ("add", "sub", "mul", "div"):
        if b is None:
            raise DiffcoreError(f"{op_kind} requires two operands")
        b = _as_tensor(b)
        _broadcast_shape(a, b, op_kind)
        ash, bsh = a.shape, b.shape
        if op_kind == "add":
            out = a.data + b.data
            bw = lambda g: (_unbroadcast(g, ash), _unbroadcast(g, bsh))
        elif op_kind == "sub":
            out = a.data - b.data
            bw = lambda g: (_unbroadcast(g, ash), _unbroadcast(-g, bsh))
        elif op_kind == "mul":
            out = a.data * b.data
            ad, bd = a.data, b.data
            bw = lambda g: (_unbroadcast(g * bd, ash), _unbroadcast(g * ad, bsh))
        else:
            if np.any(b.data == 0.0):
                raise DomainError("div: zero divisor")
            out = a.data / b.data
            ad, bd = a.data, b.data
            bw = lambda g: (
                _unbroadcast(g / bd, ash),
                _unbroadcast(-g * ad / (bd * bd), bsh),
            )
        return _record(out, (a, b), bw)

    if b is not None:
        raise DiffcoreError(f"{op_kind} is unary")

    if op_kind == "exp":
        out = np.exp(a.data)
        bw = lambda g: (g * out,)
    elif op_kind == "log":
        if np.any(a.data <= 0.0):
            raise DomainError("log: non-positive entry")
        ad = a.data
        out = np.log(ad)
        bw = lambda g: (g / ad,)
    elif op_kind == "tanh":
        out = np.tanh(a.data)
        bw = lambda g: (g * (1.0 - out * out),)
    elif op_kind == "silu":
        s = _SIGMOID(a.data)
        ad = a.data
        out = ad * s
        bw = lambda g: (g * (s * (1.0 + ad * (1.0 - s))),)
    elif op_kind == "sigmoid":
        out = _SIGMOID(a.data)
        bw = lambda g: (g * out * (1.0 - out),)
    elif op_kind == "softplus":
        # log(1 + e^x), evaluated stably for large |x|.
        ad = a.data
        out = np.logaddexp(0.0, ad)
        bw = lambda g: (g * _SIGMOID(ad),)
    elif op_kind == "sqrt":
        if np.any(a.data < 0.0):
            raise DomainError("sqrt: negative entry")
        out = np.sqrt(a.data)
        # Subgradient 0 at exactly 0 so norms of identical points stay finite.
        bw = lambda g: (np.where(out > 0.0, g * 0.5 / np.where(out > 0.0, out, 1.0), 0.0),)
    elif op_kind == "neg":
        out = -a.data
        bw = lambda g: (-g,)
    elif op_kind == "expm1x":
        ad = a.data
        out = _expm1x_value(ad)
        bw = lambda g: (g * _expm1x_grad(ad),)
    elif op_kind == "scale":
        if const is None:
            raise DiffcoreError("scale requires const")
        c = float(const)
        out = a.data * c
        bw = lambda g: (g * c,)
    else:
        raise DiffcoreError(f"unknown elementwise kind: {op_kind!r}")
    return _record(out, (a,), bw)


def add(a, b) -> Tensor:
    return elementwise("add", a, b)


def sub(a, b) -> Tensor:
    return elementwise("sub", a, b)


def mul(a, b) -> Tensor:
    return elementwise("mul", a, b)


def div(a, b) -> Tensor:
    return elementwise("div", a, b)


def exp(a) -> Tensor:
    return elementwise("exp", a)


def log(a) -> Tensor:
    return elementwise("log", a)


def tanh(a) -> Tensor:
    return elementwise("tanh", a)


def silu(a) -> Tensor:
    return elementwise("silu", a)


def sigmoid(a) -> Tensor:
    return elementwise("sigmoid", a)


def softplus(a) -> Tensor:
    return elementwise("softplus", a)


def sqrt(a) -> Tensor:
    return elementwise("sqrt", a)


def neg(a) -> Tensor:
    return elementwise("neg", a)


def expm1x(a) -> Tensor:
    return elementwise("expm1x", a)


def scale(a, c: float) -> Tensor:
    return elementwise("scale", a, const=c)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes through inside the closed interval."""
    a = _as_tensor(a)
    ad = a.data
    out = np.clip(ad, lo, hi)
    inside = (ad >= lo) & (ad <= hi)
    return _record(out, (a,), lambda g: (g * inside,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Rank-2 matrix product with the standard transpose backward rules."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeMismatchError(
            f"matmul expects rank-2 operands, got {a.shape} and {b.shape}"
        )
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(
            f"matmul inner extents disagree: {a.shape} x {b.shape}"
        )
    ad, bd = a.data, b.data
    out = ad @ bd
    return _record(out, (a, b), lambda g: (g @ bd.T, ad.T @ g))


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matmul over leading axes; batch extents must match exactly."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 3 or a.data.ndim != b.data.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ShapeMismatchError(f"bmm: incompatible shapes {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError(f"bmm inner extents disagree: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    out = ad @ bd
    return _record(
        out,
        (a, b),
        lambda g: (g @ np.swapaxes(bd, -1, -2), np.swapaxes(ad, -1, -2) @ g),
    )


def reduce(op_kind: str, a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """Reduce with sum, mean or max.

    Mean distributes 1/n in the backward pass; max routes the gradient to
    the first (lowest-index) argmax only.
    """
    a = _as_tensor(a)
    if axis is not None and not -a.data.ndim <= axis < a.data.ndim:
        raise InvalidAxisError(f"axis {axis} invalid for shape {a.shape}")
    ad = a.data
    ash = ad.shape

    def _expand(g):
        if axis is None or keepdims:
            return g
        return np.expand_dims(g, axis)

    if op_kind == "sum":
        out = ad.sum(axis=axis, keepdims=keepdims)
        bw = lambda g: (np.broadcast_to(_expand(g), ash),)
    elif op_kind == "mean":
        n = ad.size if axis is None else ash[axis]
        out = ad.mean(axis=axis, keepdims=keepdims)
        bw = lambda g: (np.broadcast_to(_expand(g), ash) / n,)
    elif op_kind == "max":
        out = ad.max(axis=axis, keepdims=keepdims)
        if axis is None:
            flat_idx = int(np.argmax(ad))

            def bw(g):
                buf = np.zeros_like(ad)
                buf.flat[flat_idx] = np.asarray(g).reshape(())
                return (buf,)
        else:
            idx = np.argmax(ad, axis=axis)

            def bw(g):
                buf = np.zeros_like(ad)
                np.put_along_axis(
                    buf, np.expand_dims(idx, axis), _expand(np.asarray(g)), axis
                )
                return (buf,)
    else:
        raise DiffcoreError(f"unknown reduce kind: {op_kind!r}")
    return _record(out, (a,), bw)


def softmax_masked(logits: Tensor, mask) -> Tensor:
    """Row softmax over a rank-2 array with masked entries forced to zero.

    ``mask`` is boolean with True marking admissible entries.  Computed via
    max-subtraction over the unmasked entries for stability.
    """
    logits = _as_tensor(logits)
    m = mask.data if isinstance(mask, Tensor) else np.asarray(mask)
    m = m.astype(bool)
    if logits.data.ndim != 2 or m.shape != logits.shape:
        raise ShapeMismatchError(
            f"softmax_masked: logits {logits.shape} vs mask {m.shape} (rank-2 required)"
        )
    if not m.any(axis=1).all():
        bad = int(np.flatnonzero(~m.any(axis=1))[0])
        raise FullyMaskedRowError(f"row {bad} is fully masked")
    x = logits.data
    shifted = np.where(m, x, -np.inf)
    rowmax = shifted.max(axis=1, keepdims=True)
    e = np.where(m, np.exp(x - rowmax), 0.0)
    y = e / e.sum(axis=1, keepdims=True)

    def bw(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        return (y * (g - dot),)

    return _record(y, (logits,), bw)


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    ash = a.shape
    out = a.data.reshape(shape)
    return _record(out, (a,), lambda g: (g.reshape(ash),))


def transpose(a: Tensor, axes=None) -> Tensor:
    a = _as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.data.ndim)))
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = a.data.transpose(axes)
    return _record(out, (a,), lambda g: (g.transpose(inv),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    bw = lambda g: tuple(np.split(g, splits, axis=axis))
    return _record(out, tuple(tensors), bw)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` entries along ``axis``."""
    a = _as_tensor(a)
    if not 0 <= axis < a.data.ndim:
        raise InvalidAxisError(f"axis {axis} invalid for shape {a.shape}")
    if start < 0 or start + length > a.shape[axis]:
        raise ShapeMismatchError(
            f"narrow [{start}:{start + length}] out of range on axis {axis} of {a.shape}"
        )
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    ad = a.data

    def bw(g):
        buf = np.zeros_like(ad)
        buf[sl] = g
        return (buf,)

    return _record(ad[sl], (a,), bw)
