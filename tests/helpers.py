"""Shared test oracles, kept deliberately independent of the library code,
and a memory probe."""
from __future__ import annotations

import tracemalloc

import numpy as np


def traced_memory(fn):
    """Run ``fn()`` under tracemalloc: its result, the bytes it left
    allocated, and the peak bytes allocated while it ran."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept - before, peak - before


def finite_diff_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f at x, one element at a time."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def max_rel_err(ga: np.ndarray, gf: np.ndarray) -> float:
    """max_i |ga - gf| / (|ga| + |gf| + 1e-8)."""
    ga = np.asarray(ga, dtype=np.float64)
    gf = np.asarray(gf, dtype=np.float64)
    return float(np.max(np.abs(ga - gf) / (np.abs(ga) + np.abs(gf) + 1e-8)))


def dft_oracle(frame: np.ndarray) -> np.ndarray:
    """Direct O(n^2) DFT of a real frame."""
    n = len(frame)
    k = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return w @ frame.astype(np.float64)


def maxpool_oracle(x: np.ndarray, pool: int, g: np.ndarray):
    """Max pooling over the last axis by its argmax definition: the pooled
    values, and the input gradient of sum(g * pooled), which goes to the
    first maximum of each block."""
    blocks = x.reshape(x.shape[:-1] + (x.shape[-1] // pool, pool))
    idx = blocks.argmax(axis=-1)[..., None]
    gx = np.zeros_like(blocks)
    np.put_along_axis(gx, idx, g[..., None], axis=-1)
    return np.take_along_axis(blocks, idx, axis=-1)[..., 0], gx.reshape(x.shape)


def _unfold(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """The whole channel-major im2col column matrix of x."""
    c_in, h, w = x.shape
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    return win.transpose(0, 3, 4, 1, 2).reshape(c_in * kh * kw, (h - kh + 1) * (w - kw + 1))


def conv2d_one_gemm(x: np.ndarray, k: np.ndarray, g: np.ndarray):
    """conv2d(x, k) and the kernel gradient of sum(g * conv2d(x, k)), each
    one GEMM over the whole column matrix."""
    c_out, _, kh, kw = k.shape
    cols = _unfold(x, kh, kw)
    out = (k.reshape(c_out, -1) @ cols).reshape(g.shape)
    return out, (g.reshape(c_out, -1) @ cols.T).reshape(k.shape)


def conv2d_strided_col2im(x: np.ndarray, k: np.ndarray, g: np.ndarray):
    """Input and kernel gradients of sum(g * conv2d(x, k)) through the full
    column matrix: ``gk`` from the unfolded input, ``gx`` gathered from the
    column gradient by ``kh*kw`` strided slice adds."""
    c_in, h, w = x.shape
    c_out, _, kh, kw = k.shape
    oh, ow = h - kh + 1, w - kw + 1
    gm = g.reshape(c_out, oh * ow)
    gk = (gm @ _unfold(x, kh, kw).T).reshape(k.shape)
    gview = (k.reshape(c_out, -1).T @ gm).reshape(c_in, kh, kw, oh, ow)
    gx = np.zeros((c_in, h, w), dtype=g.dtype)
    for di in range(kh):
        for dj in range(kw):
            gx[:, di:di + oh, dj:dj + ow] += gview[:, di, dj]
    return gx, gk


def routing_oracle(u_hat, iters: int):
    """Routing by agreement with a logit update at the end of every
    iteration, the last one's included although nothing reads it: the
    output capsules and each iteration's couplings."""
    from polysed import tensor as T
    from polysed.capsnet import squash

    logits = T.Tensor(np.zeros(u_hat.shape[:-1], dtype=u_hat.dtype.type))
    couplings = []
    for _ in range(iters):
        c = T.softmax(logits, axis=-1)
        couplings.append(c.numpy().copy())
        s = T.tsum(T.mul(T.unsqueeze(c, -1), u_hat), axis=-3)
        v = squash(s)
        agreement = T.tsum(T.mul(u_hat, T.unsqueeze(v, -3)), axis=-1)
        logits = T.add(logits, agreement)
    return v, couplings


def segment_counts_oracle(ref: np.ndarray, pred: np.ndarray, frames_per_seg: int):
    """Brute-force per-segment S/D/I/N by enumerating every (segment, event)."""
    t_total, n_events = ref.shape
    n_seg = (t_total + frames_per_seg - 1) // frames_per_seg
    s_list, d_list, i_list, n_list = [], [], [], []
    for seg in range(n_seg):
        lo = seg * frames_per_seg
        hi = min(lo + frames_per_seg, t_total)
        fn = 0
        fp = 0
        n_ref = 0
        for e in range(n_events):
            r_active = False
            p_active = False
            for t in range(lo, hi):
                if ref[t, e]:
                    r_active = True
                if pred[t, e]:
                    p_active = True
            if r_active:
                n_ref += 1
            if r_active and not p_active:
                fn += 1
            if p_active and not r_active:
                fp += 1
        s = min(fn, fp)
        s_list.append(s)
        d_list.append(fn - s)
        i_list.append(fp - s)
        n_list.append(n_ref)
    return s_list, d_list, i_list, n_list


def reference_fit_fusion(preds, bias_grid=None, threshold_grid=None):
    """Brute-force fusion fit: the coordinate search of ``fit_fusion`` with
    every trial scored by re-fusing and re-counting the whole split through
    ``fitted_error_rate``.  Returns the parameters and their fitted ER."""
    import warnings

    from polysed import fusion

    bias_grid = fusion.BIAS_GRID if bias_grid is None else bias_grid
    threshold_grid = fusion.THRESHOLD_GRID if threshold_grid is None else threshold_grid
    m, n = preds.n_models, preds.n_events
    weights = fusion.mse_weights(preds)
    biases = np.full(m, fusion.DEFAULT_BIAS)
    thresholds = np.full(n, fusion.DEFAULT_THRESHOLD)

    if preds.truth.sum() == 0:
        warnings.warn("ground truth has no active events; returning default fusion parameters")
        return fusion.FusionParams(weights, biases, thresholds), None

    def score(b, eta):
        return fusion.fitted_error_rate(preds, fusion.FusionParams(weights, b, eta))

    current = score(biases, thresholds)
    for _ in range(fusion.MAX_SWEEP_ROUNDS):
        changed = False
        for k in range(m):
            for candidate in bias_grid:
                if candidate == biases[k]:
                    continue
                trial = biases.copy()
                trial[k] = candidate
                er = score(trial, thresholds)
                if er < current:
                    biases, current, changed = trial, er, True
        for e in range(n):
            for candidate in threshold_grid:
                if candidate == thresholds[e]:
                    continue
                trial = thresholds.copy()
                trial[e] = candidate
                er = score(biases, trial)
                if er < current:
                    thresholds, current, changed = trial, er, True
        if not changed:
            break
    return fusion.FusionParams(weights, biases, thresholds), current
