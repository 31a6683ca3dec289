"""Dense numeric arrays with reverse-mode automatic differentiation.

Values are stored as numpy arrays (float64 by default; float32 is available
as a speed mode, but gradient verification is only meaningful in float64).
Each operation returns a fresh :class:`Tensor`; when autograd is enabled and
an input participates in differentiation, the result records its parents and
a backward rule, so the chain of results forms the tape that
:func:`gradients` replays in reverse topological order.  :func:`gradients`
is the only way to backpropagate: it returns the adjoints of a scalar loss
for named parameters and stores nothing on the tensors.

Tensors are treated as immutable values: no operation writes into an
existing array, which makes them safe to share between model instances.
The recording switch lives in thread-local state, so independent models may
run on separate threads without interference.
"""
from __future__ import annotations

import threading
import warnings
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import NumericError, ShapeError

DEFAULT_DTYPE = np.float64
_FLOAT_DTYPES = (np.float32, np.float64)


class _State(threading.local):
    def __init__(self):
        self.grad_enabled = True
        self.finite_checks = False


_STATE = _State()


class no_grad:
    """Context manager that disables tape recording (inference mode)."""

    def __enter__(self):
        self._prev = _STATE.grad_enabled
        _STATE.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _STATE.grad_enabled = self._prev
        return False


def set_finite_checks(enabled: bool) -> None:
    """Validate every op result for NaN/Inf (slow; meant for tests)."""
    _STATE.finite_checks = bool(enabled)


class Tensor:
    """A dense multi-dimensional array, optionally tracked on the tape.

    `data` is row-major; `shape` and element count always agree because the
    storage is the numpy array itself.  Gradients computed by
    :func:`gradients` have exactly the parameter's shape.
    """

    __slots__ = ("data", "requires_grad", "_parents", "_bwd")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._bwd: Callable | None = None

    # -- introspection -----------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


# -- tape plumbing ----------------------------------------------------------

def _as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _tracked(*tensors: Tensor) -> bool:
    if not _STATE.grad_enabled:
        return False
    return any(t.requires_grad or t._parents or t._bwd is not None for t in tensors)


def _result(data: np.ndarray, parents: tuple[Tensor, ...], bwd: Callable | None) -> Tensor:
    if _STATE.finite_checks and not np.all(np.isfinite(data)):
        raise NumericError("operation produced non-finite values")
    out = Tensor(data)
    if bwd is not None and _tracked(*parents):
        out._parents = parents
        out._bwd = bwd
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to `shape`."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    squeeze = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if squeeze:
        grad = grad.sum(axis=squeeze, keepdims=True)
    return grad


def _topo_order(root: Tensor) -> list[Tensor]:
    """Post-order over the tape (parents before dependents)."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _run_backward(loss: Tensor) -> dict[int, np.ndarray]:
    if loss.shape != ():
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    order = _topo_order(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.data.dtype)}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None or node._bwd is None:
            continue
        parent_grads = node._bwd(g)
        for parent, pg in zip(node._parents, parent_grads):
            if pg is None:
                continue
            cur = grads.get(id(parent))
            grads[id(parent)] = pg if cur is None else cur + pg
        if node is not loss:
            del grads[id(node)]  # free interior grads as soon as they are consumed
    return grads


def gradients(loss: Tensor, params: Mapping[str, Tensor]) -> dict[str, np.ndarray]:
    """Exact adjoints of `loss` for every named parameter.

    Parameters that the loss does not reach get a zero gradient and a
    warning, since that usually indicates a wiring mistake.
    """
    grads = _run_backward(loss)
    out: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = grads.get(id(p))
        if g is None:
            warnings.warn(f"parameter {name!r} is not reached by the loss; gradient is zero")
            g = np.zeros_like(p.data)
        out[name] = np.asarray(g, dtype=p.data.dtype)
    return out


# -- elementwise primitives --------------------------------------------------

def _broadcast_op(a, b, fwd, bwd_a, bwd_b, opname):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    try:
        data = fwd(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{opname}: shapes {a.shape} and {b.shape} do not broadcast") from None

    def bwd(g):
        return (_unbroadcast(bwd_a(g, a.data, b.data), a.shape),
                _unbroadcast(bwd_b(g, a.data, b.data), b.shape))

    return _result(data, (a, b), bwd)


def add(a, b) -> Tensor:
    return _broadcast_op(a, b, np.add,
                         lambda g, x, y: g,
                         lambda g, x, y: g, "add")


def sub(a, b) -> Tensor:
    return _broadcast_op(a, b, np.subtract,
                         lambda g, x, y: g,
                         lambda g, x, y: -g, "sub")


def mul(a, b) -> Tensor:
    return _broadcast_op(a, b, np.multiply,
                         lambda g, x, y: g * y,
                         lambda g, x, y: g * x, "mul")


def div(a, b) -> Tensor:
    return _broadcast_op(a, b, np.divide,
                         lambda g, x, y: g / y,
                         lambda g, x, y: -g * x / (y * y), "div")


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _result(-a.data, (a,), lambda g: (-g,))


def square(a) -> Tensor:
    a = _as_tensor(a)
    return _result(a.data * a.data, (a,), lambda g: (2.0 * a.data * g,))


def log(a) -> Tensor:
    a = _as_tensor(a)
    return _result(np.log(a.data), (a,), lambda g: (g / a.data,))


def exp(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.exp(a.data)
    return _result(out_data, (a,), lambda g: (g * out_data,))


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0
    return _result(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    # evaluate on the safe side of the exponential to avoid overflow
    s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                 np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return _result(s, (a,), lambda g: (g * s * (1.0 - s),))


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes only strictly inside the interval."""
    a = _as_tensor(a)
    inside = (a.data > lo) & (a.data < hi)
    return _result(np.clip(a.data, lo, hi), (a,), lambda g: (g * inside,))


# -- reductions ---------------------------------------------------------------

def _restore_reduced(g, shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(g, shape)
    if not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(a % len(shape) for a in axes)
        g = np.expand_dims(g, axes)
    return np.broadcast_to(g, shape)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        return (_restore_reduced(g, a.shape, axis, keepdims).copy(),)

    return _result(data, (a,), bwd)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else np.prod(
        [a.shape[ax % a.ndim] for ax in (axis if isinstance(axis, tuple) else (axis,))])

    def bwd(g):
        return (_restore_reduced(g, a.shape, axis, keepdims) / count,)

    return _result(data, (a,), bwd)


def norm(a, axis: int = -1, keepdims: bool = False) -> Tensor:
    """L2 norm over one axis; gradient at the zero vector is zero."""
    a = _as_tensor(a)
    n_keep = np.sqrt(np.sum(a.data * a.data, axis=axis, keepdims=True))
    data = n_keep if keepdims else np.squeeze(n_keep, axis=axis)

    def bwd(g):
        gk = g if keepdims else np.expand_dims(g, axis)
        safe = np.where(n_keep == 0.0, 1.0, n_keep)
        return (gk * a.data / safe,)

    return _result(data, (a,), bwd)


def softmax(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - inner),)

    return _result(s, (a,), bwd)


# -- shape movement ------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(shape)
    if np.prod(shape, dtype=np.int64) != a.size and -1 not in shape:
        raise ShapeError(f"reshape: cannot view {a.shape} ({a.size} values) as {shape}")
    data = a.data.reshape(shape)
    return _result(data, (a,), lambda g: (g.reshape(a.shape),))


def transpose(a, axes: Sequence[int]) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _result(a.data.transpose(axes), (a,), lambda g: (g.transpose(inverse),))


def unsqueeze(a, axis: int) -> Tensor:
    a = _as_tensor(a)
    data = np.expand_dims(a.data, axis)
    return _result(data, (a,), lambda g: (np.squeeze(g, axis=axis),))


def concat(tensors: Iterable, axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat of an empty sequence")
    try:
        data = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError:
        raise ShapeError(
            f"concat: shapes {[t.shape for t in ts]} do not align on axis {axis}") from None
    sizes = [t.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _result(data, tuple(ts), bwd)


def pad(a, pad_width: Sequence[tuple[int, int]]) -> Tensor:
    """Zero-pad each axis by (before, after)."""
    a = _as_tensor(a)
    pw = tuple((int(b), int(e)) for b, e in pad_width)
    if len(pw) != a.ndim:
        raise ShapeError(f"pad: got {len(pw)} axis pads for a {a.ndim}-d tensor")
    data = np.pad(a.data, pw)
    slices = tuple(slice(b, b + s) for (b, _), s in zip(pw, a.shape))

    def bwd(g):
        return (g[slices],)

    return _result(data, (a,), bwd)


# -- linear algebra -------------------------------------------------------------

def matmul(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul requires 2-d or higher operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} vs {b.shape}")
    try:
        data = np.matmul(a.data, b.data)
    except ValueError:
        raise ShapeError(f"matmul: batch dimensions of {a.shape} and {b.shape} do not broadcast") from None

    def bwd(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _result(data, (a, b), bwd)


def conv2d(x, kernels, bias=None) -> Tensor:
    """2-D valid convolution (cross-correlation), stride 1.

    x: (C_in, H, W); kernels: (C_out, C_in, kh, kw); bias: (C_out,) or None.
    Result: (C_out, H - kh + 1, W - kw + 1).
    """
    x = _as_tensor(x)
    k = _as_tensor(kernels, like=x)
    if x.ndim != 3 or k.ndim != 4:
        raise ShapeError(f"conv2d expects x (C,H,W) and kernels (O,C,kh,kw), got {x.shape}, {k.shape}")
    c_in, h, w = x.shape
    c_out, kc, kh, kw = k.shape
    if kc != c_in:
        raise ShapeError(f"conv2d: kernel channels {kc} != input channels {c_in}")
    if kh > h or kw > w:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} larger than input {h}x{w}")
    b = _as_tensor(bias, like=x) if bias is not None else None
    if b is not None and b.shape != (c_out,):
        raise ShapeError(f"conv2d: bias shape {b.shape} != ({c_out},)")

    oh, ow = h - kh + 1, w - kw + 1
    win = np.lib.stride_tricks.sliding_window_view(x.data, (kh, kw), axis=(1, 2))
    cols = win.transpose(1, 2, 0, 3, 4).reshape(oh * ow, c_in * kh * kw)
    kmat = k.data.reshape(c_out, c_in * kh * kw)
    out = (cols @ kmat.T).T.reshape(c_out, oh, ow)
    if b is not None:
        out = out + b.data[:, None, None]

    def bwd(g):
        gm = g.reshape(c_out, oh * ow)
        gk = (gm @ cols).reshape(k.shape)
        gcols = gm.T @ kmat  # (oh*ow, c_in*kh*kw)
        gview = gcols.reshape(oh, ow, c_in, kh, kw)
        gx = np.zeros((c_in, h, w), dtype=g.dtype)
        for di in range(kh):
            for dj in range(kw):
                gx[:, di:di + oh, dj:dj + ow] += gview[:, :, :, di, dj].transpose(2, 0, 1)
        if b is None:
            return gx, gk
        return gx, gk, gm.sum(axis=1)

    parents = (x, k) if b is None else (x, k, b)
    return _result(out, parents, bwd)


def maxpool_last(x, pool: int) -> Tensor:
    """Non-overlapping max pooling over the last axis (the frequency axis)."""
    x = _as_tensor(x)
    p = int(pool)
    f = x.shape[-1]
    if p < 1 or f % p != 0:
        raise ShapeError(f"maxpool_last: pool {p} does not divide axis size {f}")
    blocks = x.data.reshape(x.shape[:-1] + (f // p, p))
    idx = blocks.argmax(axis=-1)
    data = np.take_along_axis(blocks, idx[..., None], axis=-1)[..., 0]

    def bwd(g):
        gb = np.zeros_like(blocks)
        np.put_along_axis(gb, idx[..., None], g[..., None], axis=-1)
        return (gb.reshape(x.shape),)

    return _result(data, (x,), bwd)
