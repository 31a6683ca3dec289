"""Per-frame event detection with a capsule network.

The model maps one 256-frame feature window (frames, bins, channels) to a
(256, n_events) activity matrix, or a stack of N windows to (N, 256,
n_events).  Three stages:

1. a stack of 2-D conv blocks (ReLU, frequency-only max pooling, dropout
   while training).  Convolutions are zero-padded so both the time and the
   frequency extent are preserved; pooling therefore reduces exactly the
   configured frequency factors and the full 256-frame resolution survives
   to the output;
2. a primary-capsule layer: at every time index the conv features are
   linearly projected and regrouped into capsule vectors, then squashed;
3. a detection layer: routing-by-agreement between the primary capsules and
   one output capsule per event, applied with the same weights at every
   time index.  An event's activation is the length of its output capsule,
   which the squash nonlinearity keeps inside [0, 1).

The conv stack runs once per window; from the primary capsules on, the
frames of a whole stack are one set of rows, so a stack costs one pass
through the head.  Training uses AdaDelta on a masked multi-label
cross-entropy with an L2 penalty, one forward, loss and backward pass per
batch, validating after each epoch with the segment-based error rate and
keeping the parameters of the best epoch (early stop after `patience`
epochs without improvement).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .dsp import WINDOW_FRAMES
from .errors import ConfigError, DataError, NumericError, ShapeError
from .fusion import DEFAULT_THRESHOLD
from .metrics import EventRoll, error_rate, is_binary, segment_counts
from .optim import AdaDeltaState, adadelta_step
from .rng import stream
from .tensor import Tensor, gradients, no_grad

LOSS_CLAMP = 1e-7


@dataclass(frozen=True)
class CapsNetConfig:
    cnn_kernels: tuple[int, ...]
    cnn_kernel_dim: int
    pool_dims: tuple[int, ...]
    n_primary_caps: int
    primary_cap_dim: int
    output_cap_dim: int
    routing_iters: int
    n_events: int
    dropout_rate: float = 0.2
    l2_weight: float = 1e-4

    def __post_init__(self):
        object.__setattr__(self, "cnn_kernels", tuple(int(k) for k in self.cnn_kernels))
        object.__setattr__(self, "pool_dims", tuple(int(p) for p in self.pool_dims))
        for key in ("cnn_kernels", "cnn_kernel_dim", "pool_dims", "n_primary_caps",
                    "primary_cap_dim", "output_cap_dim", "routing_iters", "n_events"):
            value = getattr(self, key)
            if min(value if isinstance(value, tuple) else (value,), default=0) < 1:
                raise ConfigError(f"{key} must be at least 1, got {value}")
        if len(self.cnn_kernels) != len(self.pool_dims):
            raise ConfigError(
                f"{len(self.cnn_kernels)} conv layers but {len(self.pool_dims)} pooling factors")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout rate {self.dropout_rate} outside [0, 1)")
        if not self.l2_weight >= 0.0:
            raise ConfigError(f"l2_weight must be nonnegative, got {self.l2_weight}")

    @property
    def pool_product(self) -> int:
        return int(np.prod(self.pool_dims))


def home_config(n_events: int) -> CapsNetConfig:
    """Published hyperparameters for the indoor-scene detector."""
    return CapsNetConfig(cnn_kernels=(32, 32, 8), cnn_kernel_dim=6, pool_dims=(4, 3, 2),
                         n_primary_caps=8, primary_cap_dim=9, output_cap_dim=11,
                         routing_iters=3, n_events=n_events)


def residential_config(n_events: int) -> CapsNetConfig:
    """Published hyperparameters for the outdoor-scene detector."""
    return CapsNetConfig(cnn_kernels=(4, 16, 32, 4), cnn_kernel_dim=4, pool_dims=(2, 2, 2, 2),
                         n_primary_caps=7, primary_cap_dim=16, output_cap_dim=8,
                         routing_iters=4, n_events=n_events)


@dataclass
class ActivityMatrix:
    """Per-frame, per-event activation strengths in [0, 1], for one window
    (256, n_events) or a stack of them (N, 256, n_events)."""

    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim not in (2, 3) or self.values.shape[-2] != WINDOW_FRAMES:
            raise ShapeError(f"activity matrix must be ([N,] {WINDOW_FRAMES}, n_events), "
                             f"got {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise NumericError("activation strengths are not finite")
        if self.values.min() < 0.0 or self.values.max() > 1.0:
            raise NumericError("activation strengths left [0, 1]")


def squash(s: Tensor) -> Tensor:
    """Length-limiting nonlinearity over the last axis: s * |s| / (1 + |s|^2).

    Keeps the direction of s, maps the zero vector to itself, and bounds the
    result's norm strictly below 1.
    """
    n = T.norm(s, axis=-1, keepdims=True)
    return T.mul(s, T.div(n, T.add(T.square(n), 1.0)))


def dynamic_routing(u_hat: Tensor, iters: int, return_couplings: bool = False):
    """Routing by agreement over prediction vectors.

    u_hat holds one predicted vector per (input capsule, output capsule)
    pair, shaped (..., n_in, n_out, dim).  Logits start at zero, so the
    first pass weighs every input uniformly; each later one first adds the
    scalar agreement between prediction and previous output to the logits
    (r iterations make r - 1 logit updates).  Each iteration re-normalizes
    the logits over output capsules, forms the weighted sum and squashes
    it.  Returns the final output capsules (..., n_out, dim).
    """
    if iters < 1:
        raise ConfigError("routing needs at least one iteration")
    if u_hat.ndim < 3:
        raise ShapeError(f"routing input must be (..., n_in, n_out, dim), got {u_hat.shape}")
    logits = Tensor(np.zeros(u_hat.shape[:-1], dtype=u_hat.dtype.type))
    couplings = []
    for i in range(iters):
        if i:
            logits = T.add(logits, T.tsum(T.mul(u_hat, T.unsqueeze(v, -3)), axis=-1))
        c = T.softmax(logits, axis=-1)
        if return_couplings:
            couplings.append(c.numpy().copy())
        v = squash(T.tsum(T.mul(T.unsqueeze(c, -1), u_hat), axis=-3))
    if return_couplings:
        return v, couplings
    return v


class CapsNetModel:
    """Layer stack plus named parameters for one detector configuration."""

    def __init__(self, config: CapsNetConfig, freq_bins: int, channels: int,
                 parameters: dict[str, Tensor], dtype=np.float64):
        self.config = config
        self.freq_bins = freq_bins
        self.channels = channels
        self.parameters = parameters
        self.dtype = np.dtype(dtype)

    @classmethod
    def build(cls, config: CapsNetConfig, freq_bins: int, channels: int,
              rng: np.random.Generator, dtype=np.float64) -> "CapsNetModel":
        """Initialize parameters for the given input geometry.

        Rejects geometries whose frequency size is not divisible by the
        combined pooling factor, since pooling could not tile the axis.
        """
        if channels not in (1, 2):
            raise ConfigError(f"expected 1 or 2 input channels, got {channels}")
        if freq_bins % config.pool_product != 0:
            raise ShapeError(
                f"frequency size {freq_bins} is not divisible by the pooling product {config.pool_product}")
        dtype = np.dtype(dtype)

        def glorot(fan_in, fan_out, shape):
            lim = math.sqrt(6.0 / (fan_in + fan_out))
            return Tensor(rng.uniform(-lim, lim, shape).astype(dtype), requires_grad=True)

        def zeros(shape):
            return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)

        params: dict[str, Tensor] = {}
        k = config.cnn_kernel_dim
        c_in = channels
        for i, c_out in enumerate(config.cnn_kernels):
            params[f"conv{i}_kernel"] = glorot(c_in * k * k, c_out * k * k, (c_out, c_in, k, k))
            params[f"conv{i}_bias"] = zeros((c_out,))
            c_in = c_out
        feat_dim = config.cnn_kernels[-1] * (freq_bins // config.pool_product)
        pc_dim = config.n_primary_caps * config.primary_cap_dim
        params["primary_weight"] = glorot(feat_dim, pc_dim, (feat_dim, pc_dim))
        params["primary_bias"] = zeros((pc_dim,))
        params["routing_weight"] = glorot(
            config.primary_cap_dim, config.output_cap_dim,
            (config.n_primary_caps, config.n_events,
             config.primary_cap_dim, config.output_cap_dim))
        return cls(config, freq_bins, channels, params, dtype)

    # -- forward -----------------------------------------------------------

    def _conv_stack(self, x: Tensor, train_mode: bool, rng: np.random.Generator | None) -> Tensor:
        cfg = self.config
        k = cfg.cnn_kernel_dim
        pad_before = (k - 1) // 2
        pad_after = k - 1 - pad_before
        for i, pool in enumerate(cfg.pool_dims):
            x = T.pad(x, ((0, 0), (pad_before, pad_after), (pad_before, pad_after)))
            x = T.conv2d(x, self.parameters[f"conv{i}_kernel"], self.parameters[f"conv{i}_bias"])
            # max commutes with the monotone ReLU (ties still go to the first
            # index), so pooling first gives the same values and gradients
            # while the ReLU touches 1/pool of the elements
            x = T.relu(T.maxpool_last(x, pool))
            if train_mode and cfg.dropout_rate > 0.0:
                x = T.dropout(x, rng.uniform(size=x.shape) >= cfg.dropout_rate,
                              1.0 - cfg.dropout_rate)
        return x

    def forward(self, window_values: np.ndarray, train_mode: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        """Activity tensor (frames, n_events) for one feature window, or
        (N, frames, n_events) for a stack of N windows.

        Each window runs through the conv stack on its own, in stack order
        (so dropout masks are drawn as for N single-window calls); their
        features are then joined along time, and the primary capsules,
        routing and output norms run once over all N*256 frames.
        """
        w = np.asarray(window_values, dtype=self.dtype)
        if w.ndim not in (3, 4) or w.shape[-3] != WINDOW_FRAMES:
            raise ShapeError(f"window must be ([N,] {WINDOW_FRAMES}, bins, channels), got {w.shape}")
        if w.shape[-2:] != (self.freq_bins, self.channels):
            raise ShapeError(
                f"window geometry {w.shape[-2:]} does not match the model's "
                f"({self.freq_bins}, {self.channels})")
        if train_mode and self.config.dropout_rate > 0.0 and rng is None:
            raise ConfigError("training-mode forward needs an rng for dropout")
        cfg = self.config
        caps, dim = cfg.n_primary_caps, cfg.primary_cap_dim
        events, out = cfg.n_events, cfg.output_cap_dim

        x = T.concat([self._conv_stack(Tensor(win.transpose(2, 0, 1)), train_mode, rng)
                      for win in w.reshape((-1,) + w.shape[-3:])], axis=1)  # (C_last, N*T, F_red)
        rows = x.shape[1]
        feat = T.reshape(T.transpose(x, (1, 0, 2)), (rows, -1))
        u = T.add(T.matmul(feat, self.parameters["primary_weight"]),
                  self.parameters["primary_bias"])
        u = squash(T.reshape(u, (rows, caps, dim)))
        # one GEMM per primary capsule: (rows, dim) @ (dim, events*out)
        weight = T.reshape(T.transpose(self.parameters["routing_weight"], (0, 2, 1, 3)),
                           (caps, dim, events * out))
        u_hat = T.matmul(T.transpose(u, (1, 0, 2)), weight)
        u_hat = T.transpose(T.reshape(u_hat, (caps, rows, events, out)), (1, 0, 2, 3))
        v = dynamic_routing(u_hat, cfg.routing_iters)
        return T.reshape(T.norm(v, axis=-1), w.shape[:-2] + (events,))

    def predict(self, window_values: np.ndarray) -> ActivityMatrix:
        """Inference-mode activities of one window or a stack of windows."""
        with no_grad():
            act = self.forward(window_values, train_mode=False)
        return ActivityMatrix(values=act.numpy())


def predict_frames(model: CapsNetModel, windows: list, batch_size: int) -> list[np.ndarray]:
    """Scores of each window's valid frames, in window order; the model
    predicts stacks of at most `batch_size` windows."""
    parts = []
    for start in range(0, len(windows), batch_size):
        stack = windows[start:start + batch_size]
        act = model.predict(np.stack([w.values for w in stack])).values
        parts += [a[:w.valid] for a, w in zip(act, stack)]
    return parts


def detection_loss(pred: Tensor, target: np.ndarray, mask: np.ndarray | None = None,
                   params: dict[str, Tensor] | None = None, l2_weight: float = 0.0) -> Tensor:
    """Masked multi-label cross-entropy (mean per unmasked cell) plus L2.

    `pred` is one window (frames, n_events) with a mask of (frames,), or a
    stack (N, frames, n_events) with a mask of (N, frames); a stack scores
    the mean over windows of each window's masked mean; no mask counts
    every frame.  Predictions are clamped to (1e-7, 1 - 1e-7) before the
    logs, so a perfect prediction scores ~1e-7 per cell rather than 0.
    """
    target = np.asarray(target)
    if target.shape != pred.shape:
        raise ShapeError(f"target shape {target.shape} != prediction shape {pred.shape}")
    if not is_binary(target):
        raise DataError("targets must be binary")
    y = target.astype(pred.dtype.type)
    p = T.clip(pred, LOSS_CLAMP, 1.0 - LOSS_CLAMP)
    nll = T.neg(T.add(T.mul(Tensor(y), T.log(p)),
                      T.mul(Tensor(1.0 - y), T.log(T.sub(1.0, p)))))
    mask = (np.ones(pred.shape[:-1]) if mask is None else np.asarray(mask)).astype(pred.dtype)
    if mask.shape != pred.shape[:-1]:
        raise ShapeError(f"mask shape {mask.shape} != {pred.shape[:-1]}")
    denom = mask.sum(axis=-1) * pred.shape[-1]
    if not denom.all():
        raise DataError("mask excludes every frame" + (" of a window" if denom.ndim else ""))
    nll = T.mul(nll, Tensor(mask[..., None]))
    loss = T.div(T.tsum(T.div(T.tsum(nll, axis=(-2, -1)), denom)), float(denom.size))
    if l2_weight and params:
        loss = T.add(loss, T.mul(_l2_term(params), l2_weight))
    return loss


class EarlyStopping:
    """Halt after `patience` consecutive epochs without a strictly lower ER."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best_er = math.inf
        self.best_epoch = 0
        self.stale = 0

    def update(self, epoch: int, er: float) -> bool:
        """Record one epoch's validation ER; True means stop now."""
        if er < self.best_er:
            self.best_er = er
            self.best_epoch = epoch
            self.stale = 0
        else:
            self.stale += 1
        return self.stale >= self.patience


@dataclass
class WindowExample:
    """One model input window: frame targets, valid frames, first frame in its clip."""

    values: np.ndarray           # (WINDOW_FRAMES, bins, channels)
    target: np.ndarray           # (WINDOW_FRAMES, n_events) binary
    valid: int = WINDOW_FRAMES
    start_frame: int = 0

    @property
    def mask(self) -> np.ndarray:
        m = np.zeros(WINDOW_FRAMES)
        m[:self.valid] = 1.0
        return m


@dataclass
class TrainResult:
    parameters: dict[str, Tensor]
    history: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_er: float = math.inf
    stopped_epoch: int = 0


def _validation_error_rate(model: CapsNetModel, windows: list[WindowExample],
                           hop_seconds: float, labels: list[str], batch_size: int = 1) -> float:
    act = np.concatenate(predict_frames(model, windows, batch_size))
    truth = np.concatenate([w.target[:w.valid] for w in windows])
    pred = (act >= DEFAULT_THRESHOLD).astype(np.uint8)
    clip_starts = [i for i, w in enumerate(windows) if w.start_frame == 0]
    return error_rate(segment_counts(EventRoll(truth, hop_seconds, labels),
                                     EventRoll(pred, hop_seconds, labels),
                                     lengths=np.add.reduceat([w.valid for w in windows],
                                                             clip_starts)))


def train(model: CapsNetModel, train_windows: list[WindowExample],
          val_windows: list[WindowExample], *, hop_seconds: float,
          epochs: int, patience: int, batch_size: int, seed: int) -> TrainResult:
    """AdaDelta training with per-epoch validation ER and early stopping.

    The best-ER parameters are returned (and installed on the model), not
    the final ones.  All shuffling and dropout derives from `seed`, so a
    fixed seed reproduces the history exactly.
    """
    if not train_windows or not val_windows:
        raise DataError("need at least one training and one validation window")
    labels = [f"event_{i}" for i in range(model.config.n_events)]  # names only; ER ignores them
    shuffle_rng = stream(seed, "shuffle")
    dropout_rng = stream(seed, "dropout")
    state = AdaDeltaState()
    stopper = EarlyStopping(patience)
    result = TrainResult(parameters=dict(model.parameters))

    for epoch in range(1, epochs + 1):
        order = shuffle_rng.permutation(len(train_windows))
        epoch_loss = 0.0
        for batch_no, start in enumerate(range(0, len(order), batch_size)):
            batch = [train_windows[i] for i in order[start:start + batch_size]]
            pred = model.forward(np.stack([w.values for w in batch]), train_mode=True,
                                 rng=dropout_rng)
            loss = detection_loss(pred, np.stack([w.target for w in batch]),
                                  mask=np.stack([w.mask for w in batch]),
                                  params=model.parameters, l2_weight=model.config.l2_weight)
            loss_value = loss.item()
            if not math.isfinite(loss_value):
                raise NumericError(f"non-finite loss at epoch {epoch}, batch {batch_no}")
            grads = gradients(loss, model.parameters)
            del pred, loss  # the step's tape; it would live on through the next forward
            model.parameters = adadelta_step(model.parameters, grads, state)
            epoch_loss += loss_value
        n_batches = (len(order) + batch_size - 1) // batch_size
        val_er = _validation_error_rate(model, val_windows, hop_seconds, labels, batch_size)
        result.history.append({"epoch": epoch, "train_loss": epoch_loss / n_batches,
                               "val_er": val_er})
        stop = stopper.update(epoch, val_er)
        if stopper.best_epoch == epoch:
            result.parameters = dict(model.parameters)
        result.stopped_epoch = epoch
        if stop:
            break
    result.best_epoch = stopper.best_epoch
    result.best_er = stopper.best_er
    model.parameters = result.parameters
    return result


def _l2_term(params: dict[str, Tensor]) -> Tensor:
    reg = None
    for p in params.values():
        term = T.tsum(T.square(p))
        reg = term if reg is None else T.add(reg, term)
    return reg
