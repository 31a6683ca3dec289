"""Dense numeric arrays with reverse-mode automatic differentiation.

Values are stored as numpy arrays (float64 by default; float32 is available
as a speed mode, but gradient verification is only meaningful in float64).
Each operation returns a fresh :class:`Tensor`; when autograd is enabled and
an input participates in differentiation, the result gets a tape node that
records its parents' nodes and a backward rule, so the nodes form the tape
that :func:`gradients` replays in reverse topological order.  :func:`gradients`
is the only way to backpropagate: it returns the adjoints of a scalar loss
for named parameters, and consumes the tape as it goes: each node's rule
is dropped once it has run, so a loss can be backpropagated once.  It
computes no adjoint for an untracked input, one that neither requires a
gradient nor was produced on the tape (a target, a loss mask, the input
window): it has no node, and `conv2d` skips the GEMM.

The tape keeps only what backward reads.  A node holds no tensor, so an
op result lives only as long as the caller holds it or a backward rule
reads its array: a rule keeps arrays and shapes, and only those its
gradients need (``tsum`` keeps a shape, ``mul`` by an untracked operand
keeps that operand, ``dropout`` one byte per entry, ``maxpool_last`` a
one-byte position per block).

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

# Largest im2col column matrix `conv2d` unfolds in one piece: half of
# glibc's 32 MB ceiling for its dynamic mmap threshold, so the blocks are
# served from the heap instead of being mapped and page-faulted per call.
COLUMN_BLOCK_BYTES = 16 << 20


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


class _Node:
    """One entry of the tape: the parents' nodes (``None`` for an untracked
    parent) and the backward rule, which maps the result's gradient to one
    gradient (or ``None``) per parent."""

    __slots__ = ("_parents", "_bwd")

    def __init__(self, parents: tuple[_Node | None, ...] = (), bwd: Callable | None = None):
        self._parents = parents
        self._bwd = bwd


class Tensor:
    """A dense multi-dimensional array, optionally tracked on the tape.

    `data` is row-major; `shape` and element count always agree because the
    storage is the numpy array itself.  Gradients computed by
    :func:`gradients` have exactly the parameter's shape.  A leaf that
    requires a gradient, or a result recorded on the tape, has a node;
    any other tensor has none.
    """

    __slots__ = ("data", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._node: _Node | None = _Node() if requires_grad else None

    @property
    def _parents(self) -> tuple[_Node | None, ...]:
        return () if self._node is None else self._node._parents

    @property
    def _bwd(self) -> Callable | None:
        return None if self._node is None else self._node._bwd

    @_bwd.setter
    def _bwd(self, bwd: Callable) -> None:
        self._node._bwd = bwd

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


def _needs_grad(t: Tensor) -> bool:
    """True if `t` requires a gradient or was produced on the tape."""
    return t._node is not None


def _tracked(*tensors: Tensor) -> bool:
    if not _STATE.grad_enabled:
        return False
    return any(_needs_grad(t) for t in tensors)


def _result(data: np.ndarray, parents: tuple[Tensor, ...], bwd: Callable | None) -> Tensor:
    if _STATE.finite_checks and not np.all(np.isfinite(data)):
        raise NumericError("operation produced non-finite values")
    out = Tensor(data)
    if bwd is not None and _tracked(*parents):
        out._node = _Node(tuple(p._node for p in parents), bwd)
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


def _topo_order(root: Tensor) -> list[_Node]:
    """Post-order over the tape's nodes (parents before dependents)."""
    order: list[_Node] = []
    if root._node is None:
        return order
    seen: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root._node, False)]
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
            if p is not None and id(p) not in seen:
                stack.append((p, False))
    return order


def _consumed(g):
    raise RuntimeError("tape already consumed by gradients()")


def _run_backward(loss: Tensor) -> dict[int, np.ndarray]:
    """Adjoints of `loss`, keyed by the id of each reached leaf's node."""
    if loss.shape != ():
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    order = _topo_order(loss)
    if not order:
        return {}
    root = loss._node
    grads: dict[int, np.ndarray] = {id(root): np.ones((), dtype=loss.data.dtype)}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None or node._bwd is None:
            continue
        parent_grads = node._bwd(g)
        node._bwd = _consumed  # frees the arrays the rule read
        for parent, pg in zip(node._parents, parent_grads):
            if pg is None or parent is None:
                continue
            cur = grads.get(id(parent))
            grads[id(parent)] = pg if cur is None else cur + pg
        if node is not root:
            del grads[id(node)]  # free interior grads as soon as they are consumed
    return grads


def gradients(loss: Tensor, params: Mapping[str, Tensor]) -> dict[str, np.ndarray]:
    """Exact adjoints of `loss` for every named parameter.

    Parameters that the loss does not reach get a zero gradient and a
    warning, since that usually indicates a wiring mistake.  Once a node's
    backward rule has run it is replaced by one that raises, so the arrays
    it read are freed while backward goes on, even though the caller still
    holds `loss`; a second call on the same loss raises ``RuntimeError``.
    Leaves keep no rule, so the parameters serve the next graph.
    """
    grads = _run_backward(loss)
    out: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = None if p._node is None else grads.get(id(p._node))
        if g is None:
            warnings.warn(f"parameter {name!r} is not reached by the loss; gradient is zero")
            g = np.zeros_like(p.data)
        out[name] = np.asarray(g, dtype=p.data.dtype)
    return out


# -- elementwise primitives --------------------------------------------------

def _broadcast_op(a, b, fwd, bwd_a, bwd_b, opname, reads=("", "")):
    """Elementwise `fwd` with broadcasting.  ``reads`` names the operand
    arrays (``"x"``, ``"y"``) that the rules ``bwd_a(g, x, y)`` and
    ``bwd_b(g, x, y)`` read; the tape keeps those a tracked operand's reads."""
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    try:
        data = fwd(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{opname}: shapes {a.shape} and {b.shape} do not broadcast") from None
    track_a, track_b = _needs_grad(a), _needs_grad(b)
    kept = (reads[0] if track_a else "") + (reads[1] if track_b else "")
    x = a.data if "x" in kept else None
    y = b.data if "y" in kept else None
    a_shape, b_shape = a.shape, b.shape

    def bwd(g):
        return (_unbroadcast(bwd_a(g, x, y), a_shape) if track_a else None,
                _unbroadcast(bwd_b(g, x, y), b_shape) if track_b else None)

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
                         lambda g, x, y: g * x, "mul", reads=("y", "x"))


def div(a, b) -> Tensor:
    return _broadcast_op(a, b, np.divide,
                         lambda g, x, y: g / y,
                         lambda g, x, y: -g * x / (y * y), "div", reads=("y", "xy"))


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _result(-a.data, (a,), lambda g: (-g,))


def square(a) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    return _result(x * x, (a,), lambda g: (2.0 * x * g,))


def log(a) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    return _result(np.log(x), (a,), lambda g: (g / x,))


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


def dropout(a, keep: np.ndarray, scale: float) -> Tensor:
    """``a`` times the mask ``keep / scale`` for a boolean `keep` of `a`'s
    shape.  The tape keeps `keep` (one byte per entry) and rebuilds the
    mask in backward, so both passes have the bits of ``mul`` by the mask."""
    a = _as_tensor(a)
    if keep.shape != a.shape:
        raise ShapeError(f"dropout: keep shape {keep.shape} != input shape {a.shape}")
    dtype = a.dtype
    return _result(a.data * (keep.astype(dtype) / scale), (a,),
                   lambda g: (g * (keep.astype(dtype) / scale),))


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
    shape = a.shape

    def bwd(g):
        return (_restore_reduced(g, shape, axis, keepdims).copy(),)

    return _result(data, (a,), bwd)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else np.prod(
        [a.shape[ax % a.ndim] for ax in (axis if isinstance(axis, tuple) else (axis,))])
    shape = a.shape

    def bwd(g):
        return (_restore_reduced(g, shape, axis, keepdims) / count,)

    return _result(data, (a,), bwd)


def norm(a, axis: int = -1, keepdims: bool = False) -> Tensor:
    """L2 norm over one axis; gradient at the zero vector is zero."""
    a = _as_tensor(a)
    x = a.data
    n_keep = np.sqrt(np.sum(x * x, axis=axis, keepdims=True))
    data = n_keep if keepdims else np.squeeze(n_keep, axis=axis)

    def bwd(g):
        gk = g if keepdims else np.expand_dims(g, axis)
        safe = np.where(n_keep == 0.0, 1.0, n_keep)
        return (gk * x / safe,)

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
    source_shape = a.shape
    return _result(data, (a,), lambda g: (g.reshape(source_shape),))


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

    track_a, track_b = _needs_grad(a), _needs_grad(b)
    x = a.data if track_b else None
    y = b.data if track_a else None
    a_shape, b_shape = a.shape, b.shape

    def bwd(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(y, -1, -2)), a_shape) if track_a else None
        gb = _unbroadcast(np.matmul(np.swapaxes(x, -1, -2), g), b_shape) if track_b else None
        return ga, gb

    return _result(data, (a, b), bwd)


def _blocks(size: int, n: int, cols: int):
    """``(start, stop)`` of at most `n` near-equal parts of ``range(size)``,
    where each index spans `cols` GEMM columns.  Each part starts at a
    multiple of 8 columns: OpenBLAS (0.3.31, AVX-512) computes the columns
    of a product past its last multiple of 8 with an edge kernel that sums
    in another order, so a block edge elsewhere changes their bits."""
    step = 8 // int(np.gcd(cols, 8))
    units = -(-size // step)
    for part in np.array_split(np.arange(units), min(n, units)):
        yield int(part[0]) * step, min((int(part[-1]) + 1) * step, size)


def conv2d(x, kernels, bias=None) -> Tensor:
    """2-D valid convolution (cross-correlation), stride 1.

    x: (C_in, H, W); kernels: (C_out, C_in, kh, kw); bias: (C_out,) or None.
    Result: (C_out, H - kh + 1, W - kw + 1).

    The input is unfolded channel-major (im2col): row ``(c, di, dj)`` of the
    ``(C_in*kh*kw, oh*ow)`` column matrix holds the tap ``x[c, i+di, j+dj]``
    for every output position ``(i, j)``.  Forward and the kernel gradient
    are then GEMMs whose results already have the layout their consumer
    needs.  The columns are ``kh*kw`` times the size of ``x``, so they are
    not kept on the tape: backward unfolds ``x`` again, and only the arrays
    of ``x`` and the kernels stay alive until then.  Columns over
    :data:`COLUMN_BLOCK_BYTES` are unfolded in ``ceil(bytes /
    COLUMN_BLOCK_BYTES)`` blocks: forward in blocks of output rows, the
    kernel gradient in blocks of input channels, each starting on a
    multiple of 8 GEMM columns.  Every entry is still one dot product over
    all of its terms, with the bits of one GEMM.

    The input gradient is gathered on the flattened input, where tap
    ``(di, dj)`` of output ``(i, j)`` is ``x.flat[(i+di)*w + j+dj]``: with
    the output gradient laid on rows of width ``w`` (zero past ``ow``),
    each kernel row ``di`` is one GEMM and each tap one contiguous slice
    add, and the column gradient is built one kernel row (``1/kh`` of it)
    at a time, into one buffer reused for every row.  It is skipped when
    ``x`` is not tracked.
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

    xd, kd = x.data, k.data
    oh, ow = h - kh + 1, w - kw + 1
    n_blocks = -(-c_in * kh * kw * oh * ow * xd.itemsize // COLUMN_BLOCK_BYTES)

    def unfold(xs):
        win = np.lib.stride_tricks.sliding_window_view(xs, (kh, kw), axis=(1, 2))
        return win.transpose(0, 3, 4, 1, 2).reshape(xs.shape[0] * kh * kw, -1)

    kmat = kd.reshape(c_out, c_in * kh * kw)
    out = np.empty((c_out, oh * ow), dtype=np.result_type(kd, xd))
    for i0, i1 in _blocks(oh, n_blocks, ow):
        np.matmul(kmat, unfold(xd[:, i0:i1 + kh - 1]), out=out[:, i0 * ow:i1 * ow])
    out = out.reshape(c_out, oh, ow)
    if b is not None:
        out += b.data[:, None, None]  # the GEMM result is fresh and unshared
    x_tracked = _needs_grad(x)

    def bwd(g):
        gm = g.reshape(c_out, oh * ow)
        gk = np.empty((c_out, c_in * kh * kw), dtype=np.result_type(gm, xd))
        for c0, c1 in _blocks(c_in, n_blocks, kh * kw):
            np.matmul(gm, unfold(xd[c0:c1]).T, out=gk[:, c0 * kh * kw:c1 * kh * kw])
        gk = gk.reshape(kd.shape)
        gx = None
        if x_tracked:
            # g on rows of width w, zero past ow, so tap (di, dj) of every
            # output lands at flat offset di*w + dj of a contiguous slice
            ge = np.zeros((c_out, oh, w), dtype=g.dtype)
            ge[:, :, :ow] = g
            ge = ge.reshape(c_out, oh * w)
            flat = np.zeros((c_in, h * w + kw - 1), dtype=g.dtype)
            buf = np.empty((c_in * kw, oh * w), dtype=np.result_type(kd, g))
            gview = buf.reshape(c_in, kw, -1)
            for di in range(kh):
                np.matmul(kd[:, :, di].reshape(c_out, c_in * kw).T, ge, out=buf)
                for dj in range(kw):
                    flat[:, di * w + dj:di * w + dj + oh * w] += gview[:, dj]
            gx = flat[:, :h * w].reshape(c_in, h, w)
        if b is None:
            return gx, gk
        return gx, gk, gm.sum(axis=1)

    parents = (x, k) if b is None else (x, k, b)
    return _result(out, parents, bwd)


def maxpool_last(x, pool: int) -> Tensor:
    """Non-overlapping max pooling over the last axis (the frequency axis).

    Forward is a running ``np.maximum`` over the ``pool`` strided slices of
    each block, so a NaN anywhere in a block pools to NaN.  Backward sends
    the gradient to each block's first maximum, as ``argmax`` would.  When
    the call is tracked, forward counts that position as the number of
    leading entries that differ from the pooled value, in the smallest
    unsigned dtype that holds ``pool - 1`` (one byte for any model pool),
    and the tape keeps only that count: neither ``x`` nor the output.  A
    block of ``+0.0`` and ``-0.0`` may pool to a later zero's sign (they
    compare equal, so the routing holds, and ReLU maps both to ``+0.0``).
    A NaN block routes to its last entry, not its first NaN; the ReLU after
    each pool in the model passes a zero gradient there, so nothing changes.
    """
    x = _as_tensor(x)
    p = int(pool)
    f = x.shape[-1]
    if p < 1 or f % p != 0:
        raise ShapeError(f"maxpool_last: pool {p} does not divide axis size {f}")
    blocks = x.data.reshape(x.shape[:-1] + (f // p, p))
    data = blocks[..., 0].copy()
    for j in range(1, p):
        np.maximum(data, blocks[..., j], out=data)

    bwd = None
    if _tracked(x):
        position = np.zeros(data.shape, dtype=np.min_scalar_type(p - 1))
        before = np.ones(data.shape, dtype=bool)
        for j in range(p - 1):
            before &= blocks[..., j] != data
            position += before
        x_shape, x_size, dtype = x.shape, x.size, x.dtype

        def bwd(g):
            first = np.arange(0, x_size, p).reshape(position.shape)
            first += position
            gb = np.zeros(x_size, dtype=dtype)
            gb[first.ravel()] = g.ravel()
            return (gb.reshape(x_shape),)

    return _result(data, (x,), bwd)
