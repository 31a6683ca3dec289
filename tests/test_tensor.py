import ast
import inspect
import weakref
from pathlib import Path

import numpy as np
import pytest

from helpers import (conv2d_one_gemm, conv2d_strided_col2im, finite_diff_grad, max_rel_err,
                     maxpool_oracle, traced_memory)

from polysed import tensor as T
from polysed.errors import NumericError, ShapeError
from polysed.optim import AdaDeltaState, adadelta_step
from polysed.rng import derive_seed, stream
from polysed.tensor import Tensor, gradients


def _gradcheck(build_loss, x0, tol=1e-4, h=1e-5):
    """Compare tape gradients against central differences at x0."""
    p = Tensor(np.array(x0, dtype=np.float64), requires_grad=True)
    analytic = gradients(build_loss(p), {"p": p})["p"]

    def f(x):
        return build_loss(Tensor(x)).item()

    numeric = finite_diff_grad(f, np.array(x0, dtype=np.float64), h=h)
    err = max_rel_err(analytic, numeric)
    assert err < tol, f"gradient mismatch: {err}"


def test_matmul_shape():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(2, 3)))
    b = Tensor(rng.normal(size=(3, 4)))
    assert T.matmul(a, b).shape == (2, 4)


def test_matmul_mismatch_raises():
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


def test_conv2d_valid_shape():
    x = Tensor(np.zeros((1, 8, 8)))
    k = Tensor(np.zeros((1, 1, 3, 3)))
    assert T.conv2d(x, k).shape == (1, 6, 6)


def test_softmax_uniform_on_zeros():
    s = T.softmax(Tensor(np.zeros(3)), axis=-1)
    np.testing.assert_allclose(s.numpy(), np.full(3, 1.0 / 3.0), atol=1e-15)


def test_softmax_sums_to_one():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(4, 5)) * 10)
    s = T.softmax(x, axis=1).numpy()
    np.testing.assert_allclose(s.sum(axis=1), np.ones(4), atol=1e-12)


def test_backward_sigmoid_at_zero():
    p = Tensor(np.array(0.0), requires_grad=True)
    loss = T.sigmoid(p)
    g = gradients(loss, {"p": p})["p"]
    np.testing.assert_allclose(g, 0.25, atol=1e-15)


def test_backward_requires_scalar():
    p = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        gradients(T.square(p), {"p": p})


def test_detached_parameter_warns_and_zeroes():
    p = Tensor(np.ones(3), requires_grad=True)
    q = Tensor(np.ones(3), requires_grad=True)
    loss = T.tsum(T.square(p))
    with pytest.warns(UserWarning, match="not reached"):
        g = gradients(loss, {"p": p, "q": q})
    np.testing.assert_allclose(g["q"], np.zeros(3))


@pytest.mark.parametrize("name,build", [
    ("add", lambda p: T.tsum(T.add(p, Tensor(np.linspace(-1, 1, 12).reshape(3, 4))))),
    ("add_broadcast", lambda p: T.tsum(T.square(T.add(p, Tensor(np.linspace(0.5, 2, 4)))))),
    ("sub", lambda p: T.tsum(T.square(T.sub(p, 0.25)))),
    ("mul", lambda p: T.tsum(T.mul(p, Tensor(np.linspace(1, 2, 12).reshape(3, 4))))),
    ("div", lambda p: T.tsum(T.div(p, Tensor(np.linspace(1, 2, 12).reshape(3, 4))))),
    ("div_denom", lambda p: T.tsum(T.div(Tensor(np.ones((3, 4))), T.add(T.square(p), 1.0)))),
    ("neg", lambda p: T.tsum(T.mul(T.neg(p), Tensor(np.linspace(1, 2, 12).reshape(3, 4))))),
    ("square", lambda p: T.tsum(T.square(p))),
    ("log", lambda p: T.tsum(T.log(T.add(T.square(p), 1.5)))),
    ("exp", lambda p: T.tsum(T.exp(p))),
    ("relu", lambda p: T.tsum(T.relu(p))),
    ("sigmoid", lambda p: T.tsum(T.square(T.sigmoid(p)))),
    ("softmax", lambda p: T.tsum(T.square(T.softmax(p, axis=-1)))),
    ("sum_axis", lambda p: T.tsum(T.square(T.tsum(p, axis=0)))),
    ("mean", lambda p: T.square(T.tmean(p))),
    ("mean_axis", lambda p: T.tsum(T.square(T.tmean(p, axis=1, keepdims=True)))),
    ("norm", lambda p: T.tsum(T.norm(p, axis=-1))),
    ("norm_keepdims", lambda p: T.tsum(T.square(T.norm(p, axis=0, keepdims=True)))),
    ("reshape", lambda p: T.tsum(T.square(T.reshape(p, (4, 3))))),
    ("transpose", lambda p: T.tsum(T.square(T.transpose(p, (1, 0))))),
    ("pad", lambda p: T.tsum(T.square(T.pad(p, ((1, 2), (0, 1)))))),
    ("unsqueeze", lambda p: T.tsum(T.square(T.unsqueeze(p, 1)))),
    ("clip", lambda p: T.tsum(T.clip(p, -0.9, 0.9))),
    ("dropout", lambda p: T.tsum(T.square(T.dropout(p, np.arange(12).reshape(3, 4) % 3 != 0,
                                                    0.6)))),
])
def test_gradcheck_elementwise(name, build):
    rng = np.random.default_rng(hash(name) % (2 ** 32))
    x0 = rng.normal(size=(3, 4)) * 0.7
    _gradcheck(build, x0)


def test_every_public_op_has_a_gradient_check():
    """Each public op of polysed.tensor is called in a test_gradcheck_* test
    of this file, in its body or in its parametrized cases."""
    ops = {name for name, fn in vars(T).items()
           if inspect.isfunction(fn) and fn.__module__ == T.__name__
           and not name.startswith("_") and fn.__annotations__.get("return") == "Tensor"}
    checked = set()
    for node in ast.parse(Path(__file__).read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_gradcheck"):
            checked |= {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
                        and isinstance(sub.value, ast.Name) and sub.value.id == "T"}
    assert {"add", "neg", "dropout", "conv2d", "maxpool_last"} <= ops
    assert sorted(ops - checked) == []


def test_gradcheck_matmul():
    rng = np.random.default_rng(11)
    b = Tensor(rng.normal(size=(4, 2)))
    _gradcheck(lambda p: T.tsum(T.square(T.matmul(p, b))), rng.normal(size=(3, 4)))


def test_gradcheck_matmul_batched_broadcast():
    rng = np.random.default_rng(12)
    w = Tensor(rng.normal(size=(2, 3, 4, 2)))  # broadcast against (5, 2, 3, 1, 4)

    def build(p):
        u = T.reshape(p, (5, 2, 3, 1, 4))
        return T.tsum(T.square(T.matmul(u, w)))

    _gradcheck(build, rng.normal(size=(5, 2, 3, 4)))


def test_gradcheck_matmul_weights():
    rng = np.random.default_rng(13)
    a = Tensor(rng.normal(size=(3, 4)))
    _gradcheck(lambda p: T.tsum(T.square(T.matmul(a, p))), rng.normal(size=(4, 2)))


def test_gradcheck_conv2d_input():
    rng = np.random.default_rng(14)
    k = Tensor(rng.normal(size=(2, 2, 3, 3)))
    b = Tensor(rng.normal(size=(2,)))
    _gradcheck(lambda p: T.tsum(T.square(T.conv2d(p, k, b))), rng.normal(size=(2, 6, 7)))


def test_gradcheck_conv2d_kernel_and_bias():
    rng = np.random.default_rng(15)
    x = Tensor(rng.normal(size=(2, 6, 7)))

    def build_k(p):
        return T.tsum(T.square(T.conv2d(x, p, Tensor(np.zeros(2)))))

    _gradcheck(build_k, rng.normal(size=(2, 2, 3, 3)))

    kf = Tensor(rng.normal(size=(2, 2, 3, 3)))

    def build_b(p):
        return T.tsum(T.square(T.conv2d(x, kf, p)))

    _gradcheck(build_b, rng.normal(size=(2,)))


def test_gradcheck_maxpool():
    rng = np.random.default_rng(16)
    _gradcheck(lambda p: T.tsum(T.square(T.maxpool_last(p, 2))), rng.normal(size=(2, 3, 8)))


def _conv2d_per_tap(x, k, b, g):
    """Direct loop over the kernel taps: forward and the gradients of
    sum(g * conv2d(x, k, b)) with respect to x, k and b."""
    c_out, _, kh, kw = k.shape
    oh, ow = x.shape[1] - kh + 1, x.shape[2] - kw + 1
    out = np.broadcast_to(b[:, None, None], (c_out, oh, ow)).copy()
    gx = np.zeros_like(x)
    gk = np.zeros_like(k)
    for di in range(kh):
        for dj in range(kw):
            patch = x[:, di:di + oh, dj:dj + ow]
            out += np.tensordot(k[:, :, di, dj], patch, axes=(1, 0))
            gk[:, :, di, dj] = np.tensordot(g, patch, axes=([1, 2], [1, 2]))
            gx[:, di:di + oh, dj:dj + ow] += np.tensordot(k[:, :, di, dj], g, axes=(0, 0))
    return out, gx, gk, g.sum(axis=(1, 2))


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("kernel,h,w", [(3, 11, 9), (6, 13, 10)])
@pytest.mark.parametrize("c_in", [1, 2, 8])
def test_conv2d_matches_per_tap_loop(c_in, kernel, h, w, dtype, tol):
    rng = np.random.default_rng(100 * c_in + kernel)
    c_out = 3
    x0 = rng.normal(size=(c_in, h, w)).astype(dtype)
    k0 = rng.normal(size=(c_out, c_in, kernel, kernel)).astype(dtype)
    b0 = rng.normal(size=(c_out,)).astype(dtype)
    g0 = rng.normal(size=(c_out, h - kernel + 1, w - kernel + 1)).astype(dtype)
    x, k, b = (Tensor(a, requires_grad=True) for a in (x0, k0, b0))
    out = T.conv2d(x, k, b)
    grads = gradients(T.tsum(T.mul(out, Tensor(g0))), {"x": x, "k": k, "b": b})
    expected = _conv2d_per_tap(*(a.astype(np.float64) for a in (x0, k0, b0, g0)))
    for got, ref in zip((out.numpy(), grads["x"], grads["k"], grads["b"]), expected):
        assert got.dtype == dtype and got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=tol, atol=tol * np.abs(ref).max())


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_conv2d_parameter_gradients_do_not_depend_on_input_tracking(dtype):
    """An untracked input gets no gradient (its GEMM and col2im are skipped),
    and the kernel and bias gradients keep their bits."""
    rng = np.random.default_rng(23)
    x0, k0, b0, g0 = (rng.normal(size=s).astype(dtype)
                      for s in ((2, 9, 8), (3, 2, 3, 3), (3,), (3, 7, 6)))
    grads = {}
    for x_tracked in (True, False):
        x = Tensor(x0, requires_grad=x_tracked)
        k, b = Tensor(k0, requires_grad=True), Tensor(b0, requires_grad=True)
        out = T.conv2d(x, k, b)
        assert (out._bwd(g0)[0] is None) == (not x_tracked)
        grads[x_tracked] = gradients(T.tsum(T.mul(out, Tensor(g0))), {"k": k, "b": b})
    for name in ("k", "b"):
        np.testing.assert_array_equal(grads[True][name], grads[False][name])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kernel", [1, 3, 6])
@pytest.mark.parametrize("c_in", [1, 2, 8])
def test_conv2d_gather_matches_strided_col2im(c_in, kernel, dtype):
    """Backward against the full-column reference, on inputs with oh == 1
    and with a kernel as wide as the input among them.  The kernel gradient
    keeps its bits.  The input gradient's per-row GEMMs have another extent
    than the reference's one GEMM, and BLAS may then sum their c_out-term
    dot products in another order, so it is held to the rounding bound of
    the two summations (both gather the taps in the same order)."""
    rng = np.random.default_rng(10 * c_in + kernel)
    c_out, eps = 4, np.finfo(dtype).eps
    for h, w in ((7, 9), (kernel, 9), (7, kernel), (kernel, kernel)):
        x0 = rng.normal(size=(c_in, h, w)).astype(dtype)
        k0 = rng.normal(size=(c_out, c_in, kernel, kernel)).astype(dtype)
        out = T.conv2d(Tensor(x0, requires_grad=True), Tensor(k0, requires_grad=True))
        g0 = rng.normal(size=out.shape).astype(dtype)
        gx, gk = out._bwd(g0)
        ref_gx, ref_gk = conv2d_strided_col2im(x0, k0, g0)
        assert gk.tobytes() == ref_gk.tobytes()
        assert gx.dtype == dtype and gx.shape == x0.shape
        scale = conv2d_strided_col2im(*(np.abs(a).astype(np.float64) for a in (x0, k0, g0)))[0]
        bound = 2 * (c_out + kernel * kernel) * eps * scale
        assert (np.abs(gx.astype(np.float64) - ref_gx) <= bound).all()


def test_conv2d_backward_peak_memory_at_paper_layer_1():
    """Backward of home_config's second conv (f64): the kernel gradient's
    56.6 MB of columns are freed before the input gradient is gathered, one
    kernel row of column gradients (11.4 MB) at a time."""
    rng = np.random.default_rng(29)
    out = T.conv2d(Tensor(rng.normal(size=(32, 261, 29)), requires_grad=True),
                   Tensor(rng.normal(size=(32, 32, 6, 6)), requires_grad=True))
    g = rng.normal(size=out.shape)
    grads, _, peak = traced_memory(lambda: out._bwd(g))
    assert grads[0].shape == (32, 261, 29)
    assert peak < 70e6


@pytest.mark.parametrize("x_shape, k_shape", [
    ((32, 261, 29), (32, 32, 6, 6)),      # home_config layer 1, 96 bins: 4 blocks
    ((32, 261, 65), (32, 32, 6, 6)),      # 240 bins: 9 blocks of 28 or 30 rows
    ((2, 261, 245), (32, 2, 6, 6)),       # 240 bins, layer 0: more blocks than channels
])
def test_conv2d_blocks_keep_the_one_gemm_bits(x_shape, k_shape):
    """Columns unfolded in blocks of output rows (forward) and of input
    channels (kernel gradient) give the one-GEMM output and kernel gradient
    byte for byte, block edges that are not a multiple of 8 GEMM columns
    (a 60-wide output row) included."""
    rng = np.random.default_rng(43)
    x0, k0 = rng.normal(size=x_shape), rng.normal(size=k_shape)
    out = T.conv2d(Tensor(x0), Tensor(k0, requires_grad=True))
    g0 = rng.normal(size=out.shape)
    ref_out, ref_gk = conv2d_one_gemm(x0, k0, g0)
    assert out.numpy().tobytes() == ref_out.tobytes()
    assert out._bwd(g0)[1].tobytes() == ref_gk.tobytes()


def test_conv2d_blocks_keep_paper_layer_1_memory_small():
    """home_config's second conv (f64) unfolds 56.6 MB of columns, so
    forward runs in 4 blocks of output rows and the kernel gradient in 4
    blocks of input channels: each pass stays far below the full columns.
    The input gradient reuses one 11.4 MB buffer for every kernel row."""
    rng = np.random.default_rng(37)
    x = Tensor(rng.normal(size=(32, 261, 29)), requires_grad=True)
    k = Tensor(rng.normal(size=(32, 32, 6, 6)), requires_grad=True)
    g = rng.normal(size=(32, 256, 24))
    out, _, forward_peak = traced_memory(lambda: T.conv2d(x, k))
    _, _, backward_peak = traced_memory(lambda: out._bwd(g))
    assert forward_peak < 20e6
    assert backward_peak < 20e6


@pytest.mark.parametrize("x_shape, k_shape, dtype, blocks", [
    ((2, 258, 66), (8, 2, 3, 3), np.float32, 1),       # desk logmel_64, layer 0
    ((8, 258, 34), (8, 8, 3, 3), np.float32, 1),       # desk logmel_128, layer 1
    ((32, 261, 29), (32, 32, 6, 6), np.float64, 4),    # home_config layer 1
])
def test_conv2d_unfolds_once_per_column_block(monkeypatch, x_shape, k_shape, dtype, blocks):
    """Columns under COLUMN_BLOCK_BYTES are unfolded once, for one GEMM, in
    forward and again in backward; larger ones once per block."""
    calls = []
    view = np.lib.stride_tricks.sliding_window_view

    def counting(*args, **kwargs):
        calls.append(None)
        return view(*args, **kwargs)

    monkeypatch.setattr(np.lib.stride_tricks, "sliding_window_view", counting)
    rng = np.random.default_rng(41)
    out = T.conv2d(Tensor(rng.normal(size=x_shape).astype(dtype)),
                   Tensor(rng.normal(size=k_shape).astype(dtype), requires_grad=True))
    assert len(calls) == blocks
    out._bwd(np.ones(out.shape, dtype=dtype))
    assert len(calls) == 2 * blocks


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_relu_commutes_with_maxpool(dtype):
    """relu(maxpool(x)) and maxpool(relu(x)) agree on values and input
    gradients, blocks with ties, only negatives and exact zeros included
    (a zero gradient may differ in sign, which compares equal)."""
    blocks = np.array([[0.5, 0.5, -1.0], [2.0, -3.0, 2.0], [-1.0, -2.0, -0.5],
                       [-0.5, -0.5, -4.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.0],
                       [-1.0, 0.0, 0.0], [0.25, 1.5, 0.75]])
    rng = np.random.default_rng(19)
    x0 = np.concatenate([blocks.ravel(), rng.normal(size=24)]).reshape(2, 2, 12).astype(dtype)
    g0 = rng.normal(size=(2, 2, 4)).astype(dtype)
    results = []
    for build in (lambda p: T.relu(T.maxpool_last(p, 3)),
                  lambda p: T.maxpool_last(T.relu(p), 3)):
        p = Tensor(x0, requires_grad=True)
        out = build(p)
        grad = gradients(T.tsum(T.mul(out, Tensor(g0))), {"p": p})["p"]
        results.append((out.numpy(), grad))
    (v1, g1), (v2, g2) = results
    np.testing.assert_array_equal(v1, v2)
    np.testing.assert_array_equal(g1, g2)


def test_gradcheck_concat():
    rng = np.random.default_rng(17)
    other = Tensor(rng.normal(size=(2, 4)))

    def build(p):
        return T.tsum(T.square(T.concat([p, other], axis=0)))

    _gradcheck(build, rng.normal(size=(3, 4)))


def test_gradcheck_composed_net():
    rng = np.random.default_rng(18)
    k = Tensor(rng.normal(size=(3, 1, 3, 3)) * 0.5)
    w = Tensor(rng.normal(size=(12, 5)) * 0.5)

    def build(p):
        h = T.relu(T.conv2d(p, k))
        h = T.maxpool_last(h, 3)
        h = T.reshape(h, (h.shape[0] * h.shape[1] * h.shape[2] // 12, 12))
        h = T.sigmoid(T.matmul(h, w))
        return T.tmean(T.square(h))

    _gradcheck(build, rng.normal(size=(1, 6, 8)))


def test_maxpool_requires_divisible():
    with pytest.raises(ShapeError):
        T.maxpool_last(Tensor(np.zeros((2, 3, 7))), 2)


def _tie_heavy_blocks(rng, pool, n_blocks):
    """(4, n_blocks * pool) rows of blocks that tie: small random integers,
    all-equal blocks, mixed +0.0/-0.0 blocks and all-negative blocks."""
    size = (n_blocks, pool)
    rows = [rng.integers(-2, 3, size=size),
            np.repeat(rng.integers(-3, 4, size=(n_blocks, 1)), pool, axis=1),
            rng.choice(np.array([0.0, -0.0]), size=size),
            -rng.integers(1, 4, size=size)]
    return np.stack([r.astype(np.float64).ravel() for r in rows])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("pool", [1, 2, 3, 4, 12])
def test_maxpool_matches_argmax_definition_on_ties(pool, dtype):
    """Values and input gradients equal the argmax definition's bit for bit,
    with the gradient on the first maximum of every tied block; pool 12 is
    the whole axis."""
    rng = np.random.default_rng(pool)
    x0 = np.stack([_tie_heavy_blocks(rng, pool, 12 // pool),
                   np.round(rng.normal(size=(4, 12)) * 2)]).astype(dtype)
    g0 = rng.normal(size=(2, 4, 12 // pool)).astype(dtype)
    x = Tensor(x0, requires_grad=True)
    out = T.maxpool_last(x, pool)
    grad = gradients(T.tsum(T.mul(out, Tensor(g0))), {"x": x})["x"]
    ref_out, ref_grad = maxpool_oracle(x0, pool, g0)
    assert out.dtype == grad.dtype == dtype
    np.testing.assert_array_equal(out.numpy(), ref_out)
    np.testing.assert_array_equal(grad, ref_grad)


@pytest.mark.parametrize("position", range(4))
def test_maxpool_propagates_nan(position):
    """A NaN anywhere in a block pools to NaN, which the finite checks report.
    Its gradient goes to the block's last entry rather than to the first NaN,
    but through the ReLU that follows the pool in the model it is zero, so
    the input gradient equals the argmax definition's."""
    x0 = np.array([[1.0, 3.0, 2.0, 3.0, -1.0, -2.0, -1.0, -4.0, 0.5, 2.0, 1.0, 2.0]])
    x0[0, position] = np.nan
    g0 = np.array([[5.0, 7.0, 3.0]])
    with pytest.raises(NumericError):
        T.maxpool_last(Tensor(x0), 4)
    T.set_finite_checks(False)
    x = Tensor(x0, requires_grad=True)
    out = T.maxpool_last(x, 4)
    np.testing.assert_array_equal(out.numpy(), [[np.nan, -1.0, 2.0]])
    np.testing.assert_array_equal(out._bwd(g0)[0], [[0, 0, 0, 5, 7, 0, 0, 0, 0, 3, 0, 0]])
    pooled = T.relu(T.maxpool_last(x, 4))
    grad = gradients(T.tsum(T.mul(pooled, Tensor(g0))), {"x": x})["x"]
    ref_out = maxpool_oracle(x0, 4, g0)[0]
    np.testing.assert_array_equal(grad, maxpool_oracle(x0, 4, g0 * (ref_out > 0))[1])


def test_maxpool_tape_holds_one_byte_positions():
    """Backward keeps neither the input nor a tensor: the one array its
    closure holds is each block's first-maximum position, one byte per
    pooled value."""
    x = Tensor(np.random.default_rng(3).normal(size=(2, 3, 12)), requires_grad=True)
    out = T.maxpool_last(x, 4)
    held = [cell.cell_contents for cell in out._bwd.__closure__]
    assert not any(isinstance(v, Tensor) for v in held)
    arrays = [v for v in held if isinstance(v, np.ndarray)]
    assert len(arrays) == 1
    (position,) = arrays
    assert not np.shares_memory(position, x.data)
    assert position.dtype.kind == "u" and position.itemsize == 1
    assert position.size == out.size


def _product_under_tsum(p):
    h = T.mul(p, T.square(p))
    return h, T.tsum(h), 3.0 * p.data ** 2


def _reshape_source(p):
    h = T.mul(p, 3.0)
    return h, T.tsum(T.reshape(h, (-1,))), np.full(p.shape, 3.0)


def _operand_of_a_masked_mul(p):
    mask = (np.arange(p.size).reshape(p.shape) % 3 != 0).astype(p.dtype)
    h = T.square(p)
    return h, T.tsum(T.mul(h, Tensor(mask))), 2.0 * p.data * mask


@pytest.mark.parametrize("build", [_product_under_tsum, _reshape_source,
                                   _operand_of_a_masked_mul])
def test_tape_frees_what_no_rule_reads(build):
    """An intermediate whose array no backward rule reads dies as soon as
    the caller drops it, and the gradients are still right."""
    p = Tensor(np.random.default_rng(31).normal(size=(3, 4)), requires_grad=True)
    h, loss, expected = build(p)
    dropped = weakref.ref(h.data)
    del h
    assert dropped() is None
    np.testing.assert_allclose(gradients(loss, {"p": p})["p"], expected, rtol=1e-14)


def _constant_of_a_mul(p):
    c = np.random.default_rng(32).normal(size=p.shape)
    return c, T.tsum(T.mul(p, Tensor(c)))


def _input_of_a_conv(p):
    x = np.random.default_rng(33).normal(size=(p.shape[1], 6, 5))
    return x, T.tsum(T.conv2d(Tensor(x), p))


@pytest.mark.parametrize("build, shape", [(_constant_of_a_mul, (3, 4)),
                                          (_input_of_a_conv, (3, 2, 3, 3))])
def test_gradients_frees_what_rules_read_while_the_loss_is_held(build, shape):
    """An array that only a backward rule reads dies once that rule has run,
    though the caller still holds the loss."""
    p = Tensor(np.random.default_rng(34).normal(size=shape), requires_grad=True)
    read, loss = build(p)
    freed = weakref.ref(read)
    del read
    assert freed() is not None
    gradients(loss, {"p": p})
    assert freed() is None
    assert loss.shape == ()


def test_second_gradients_on_one_loss_raises():
    p = Tensor(np.arange(3.0), requires_grad=True)
    loss = T.tsum(T.square(p))
    gradients(loss, {"p": p})
    with pytest.raises(RuntimeError, match="consumed"):
        gradients(loss, {"p": p})


def test_parameter_serves_successive_graphs():
    """Leaves keep no rule, so consuming one graph leaves a parameter
    ready for the next, with the same gradient."""
    rng = np.random.default_rng(35)
    p = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    c = Tensor(rng.normal(size=(4, 2)))
    first, second = (gradients(T.tsum(T.square(T.matmul(p, c))), {"p": p})["p"]
                     for _ in range(2))
    assert first.tobytes() == second.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_dropout_has_the_bits_of_mul_by_its_mask(dtype):
    """Forward and backward equal ``mul`` by ``keep / scale`` byte for byte,
    the signs of the zeros at dropped entries included."""
    rng = np.random.default_rng(36)
    x0, g0 = (rng.normal(size=(4, 6, 5)).astype(dtype) for _ in range(2))
    keep = rng.uniform(size=x0.shape) >= 0.3
    assert ((x0 < 0) & ~keep).any() and ((g0 < 0) & ~keep).any()
    x, ref_x = Tensor(x0, requires_grad=True), Tensor(x0, requires_grad=True)
    out = T.dropout(x, keep, 0.7)
    ref = T.mul(ref_x, Tensor(keep.astype(dtype) / 0.7))
    assert out.dtype == dtype
    assert out.numpy().tobytes() == ref.numpy().tobytes()
    got = gradients(T.tsum(T.mul(out, Tensor(g0))), {"x": x})["x"]
    want = gradients(T.tsum(T.mul(ref, Tensor(g0))), {"x": ref_x})["x"]
    assert got.tobytes() == want.tobytes()


def test_dropout_tape_holds_one_byte_per_entry():
    """Backward keeps neither the input nor a tensor, only the boolean
    keep array: one byte per entry instead of a float mask."""
    rng = np.random.default_rng(38)
    x = Tensor(rng.normal(size=(2, 3, 12)), requires_grad=True)
    keep = rng.uniform(size=x.shape) >= 0.2
    out = T.dropout(x, keep, 0.8)
    held = [cell.cell_contents for cell in out._bwd.__closure__]
    assert not any(isinstance(v, Tensor) for v in held)
    arrays = [v for v in held if isinstance(v, np.ndarray)]
    assert len(arrays) == 1
    (mask,) = arrays
    assert mask.dtype == bool and mask.nbytes == x.size
    with pytest.raises(ShapeError, match="keep shape"):
        T.dropout(x, keep[0], 0.8)


def test_no_grad_suppresses_tape():
    p = Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        out = T.tsum(T.square(p))
    assert out._parents == ()


def test_finite_check_flags_nan():
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError):
            T.log(Tensor(np.array([-1.0])))


# -- AdaDelta -----------------------------------------------------------------

def test_adadelta_zero_gradient_is_fixed_point():
    p = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
    state = AdaDeltaState()
    out = adadelta_step(p, {"w": np.zeros(2)}, state)
    np.testing.assert_array_equal(out["w"].numpy(), p["w"].numpy())
    assert np.all(state.acc_grad_sq["w"] >= 0)


def test_adadelta_first_step_value():
    p = {"w": Tensor(np.array(0.0), requires_grad=True)}
    state = AdaDeltaState()
    out = adadelta_step(p, {"w": np.array(1.0)}, state)
    expected = -np.sqrt(1e-6) / np.sqrt(0.05 + 1e-6)
    np.testing.assert_allclose(out["w"].item(), expected, rtol=0, atol=1e-15)
    assert abs(expected - (-0.004472)) < 5e-7


def test_adadelta_second_step_grows():
    p = {"w": Tensor(np.array(0.0), requires_grad=True)}
    state = AdaDeltaState()
    p1 = adadelta_step(p, {"w": np.array(1.0)}, state)
    d1 = abs(p1["w"].item() - p["w"].item())
    p2 = adadelta_step(p1, {"w": np.array(1.0)}, state)
    d2 = abs(p2["w"].item() - p1["w"].item())
    assert d2 > d1


def test_adadelta_rejects_nonfinite():
    p = {"w": Tensor(np.array(0.0), requires_grad=True)}
    with pytest.raises(NumericError):
        adadelta_step(p, {"w": np.array(np.nan)}, AdaDeltaState())


# -- rng ------------------------------------------------------------------------

def test_seeded_rng_repeatable():
    a = stream(42).uniform(size=16)
    b = stream(42).uniform(size=16)
    np.testing.assert_array_equal(a, b)


def test_seeded_rng_children_independent():
    a = stream(42, "stage-a").uniform(size=8)
    b = stream(42, "stage-b").uniform(size=8)
    assert not np.array_equal(a, b)
    np.testing.assert_array_equal(a, stream(42, "stage-a").uniform(size=8))


def test_seed_rules_are_pinned():
    # Raw PCG64 output, not distribution draws: numpy keeps bit-generator
    # streams stable across releases but not its distribution algorithms.
    # Changing either value re-seeds every corpus, model and shuffle.
    assert stream(42, "stage-a").bit_generator.random_raw(3).tolist() == [
        3767634412324514185, 2668482163625400770, 761571062680409920]
    assert derive_seed(7, "eval-corpus") == 1229915633
