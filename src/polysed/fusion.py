"""Late fusion of per-feature detector outputs.

Each of the m detectors contributes a frame-level score matrix.  Aggregation
is a weighted mean of bias-corrected scores,

    fused = sum_k w_k * (y_k - b_k) / sum_k w_k,

with w_k the reciprocal of detector k's mean squared error against the
ground truth, so more accurate detectors dominate.  The fused scores are
binarized with one threshold per event (>= activates).

Bias and threshold values are fitted by deterministic coordinate descent
over fixed grids, scored block-by-block with the segment-based error rate.
The search starts from the neutral point (all biases 0, all thresholds 0.5)
and only ever moves on strict improvement, so the fitted parameters can
never be worse on the fitting data than that default.

The search scores every trial on cached per-segment maxima instead of
re-thresholding and re-counting the whole split.  An event is active in a
segment iff some frame there reaches its threshold, that is iff the
segment's maximum fused score does; and per segment S + D + I = max(FN, FP).
So the maxima of the fused scores over the segments of the block layout are
enough to count the errors of any threshold exactly, in integers.  Only a
bias trial changes the fused scores and recomputes the maxima; a threshold
trial compares one event column of them against the candidate.
``fitted_error_rate`` and ``blockwise_counts`` remain the reference
definition of the fitted error rate that the search reproduces.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericError, ShapeError
from .metrics import (EventRoll, SegmentCounts, error_rate, frames_per_segment,
                      segment_counts)

MSE_CLAMP = 1e-12
BIAS_GRID = tuple(round(-0.2 + 0.05 * i, 2) for i in range(9))        # -0.2 .. 0.2
THRESHOLD_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))      # 0.05 .. 0.95
GRID_NOTE = "bias -0.2..0.2/0.05, threshold 0.05..0.95/0.05"           # stored with fitted params
DEFAULT_BIAS = 0.0
DEFAULT_THRESHOLD = 0.5
MAX_SWEEP_ROUNDS = 10
DEFAULT_BLOCK_LEN = 256


@dataclass
class PredictionSet:
    """Aligned frame-level scores from m detectors plus the ground truth."""

    predictions: list[np.ndarray]     # m matrices (frames, events), scores in [0, 1]
    truth: np.ndarray                 # (frames, events) binary
    hop: float
    labels: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.predictions:
            raise DataError("need at least one prediction matrix")
        self.truth = np.asarray(self.truth)
        shape = self.truth.shape
        if len(shape) != 2:
            raise ShapeError(f"truth must be 2-d, got {shape}")
        if not self.hop > 0:
            raise DataError(f"hop must be positive, got {self.hop}")
        cleaned = []
        for k, p in enumerate(self.predictions):
            p = np.asarray(p, dtype=np.float64)
            if p.shape != shape:
                raise ShapeError(f"prediction {k} has shape {p.shape}, truth has {shape}")
            if not np.isfinite(p).all():
                raise NumericError(f"prediction {k} holds non-finite scores")
            cleaned.append(p)
        self.predictions = cleaned
        if not np.isin(self.truth, (0, 1)).all():
            raise DataError("ground truth must be binary")
        if not self.labels:
            self.labels = [f"event_{i}" for i in range(shape[1])]

    @property
    def n_models(self) -> int:
        return len(self.predictions)

    @property
    def n_events(self) -> int:
        return self.truth.shape[1]


@dataclass
class FusionParams:
    """Weights, per-detector biases, and per-event activation thresholds."""

    weights: np.ndarray
    biases: np.ndarray
    thresholds: np.ndarray
    block_len: int = DEFAULT_BLOCK_LEN

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        self.thresholds = np.asarray(self.thresholds, dtype=np.float64)
        if np.any(self.weights <= 0):
            raise DataError("fusion weights must be positive")
        _check_ranges(self.biases, self.thresholds)


def _check_ranges(biases: np.ndarray, thresholds: np.ndarray) -> None:
    if np.any((biases < -1) | (biases > 1)):
        raise DataError("biases must lie in [-1, 1]")
    if np.any((thresholds < 0) | (thresholds > 1)):
        raise DataError("thresholds must lie in [0, 1]")


def mse_weights(preds: PredictionSet) -> np.ndarray:
    """Reciprocal mean squared error per detector, clamped away from 1/0."""
    truth = preds.truth.astype(np.float64)
    out = np.empty(preds.n_models)
    for k, p in enumerate(preds.predictions):
        mse = float(np.mean((p - truth) ** 2))
        out[k] = 1.0 / max(mse, MSE_CLAMP)
    return out


def fuse(preds: PredictionSet, params: FusionParams) -> np.ndarray:
    """Weighted mean of bias-corrected scores, clamped to [0, 1]."""
    w = params.weights
    if len(w) != preds.n_models:
        raise ShapeError(f"{len(w)} weights for {preds.n_models} prediction matrices")
    if np.any(w <= 0):
        raise DataError("fusion weights must be positive")
    wn = w / w.sum()  # normalizing first keeps m=1 an exact identity
    acc = np.zeros_like(preds.predictions[0])
    for k, p in enumerate(preds.predictions):
        acc += wn[k] * (p - params.biases[k])
    return np.clip(acc, 0.0, 1.0)


def apply_threshold(fused: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Binary activation per event; a score equal to the threshold activates."""
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if thresholds.shape != (fused.shape[1],):
        raise ShapeError(f"{thresholds.shape} thresholds for {fused.shape[1]} events")
    return (fused >= thresholds[None, :]).astype(np.uint8)


def blockwise_counts(pred_roll: np.ndarray, truth: np.ndarray, hop: float,
                     block_len: int, labels: list[str]) -> SegmentCounts:
    """Segment counts accumulated over contiguous blocks of block_len frames."""
    t_total = truth.shape[0]
    parts = []
    for start in range(0, t_total, block_len):
        stop = min(start + block_len, t_total)
        parts.append(segment_counts(
            EventRoll(truth[start:stop], hop, labels),
            EventRoll(pred_roll[start:stop], hop, labels)))
    return SegmentCounts.merge(parts)


def fitted_error_rate(preds: PredictionSet, params: FusionParams) -> float:
    fused = fuse(preds, params)
    roll = apply_threshold(fused, params.thresholds)
    counts = blockwise_counts(roll, preds.truth, preds.hop, params.block_len, preds.labels)
    return error_rate(counts)


def _segment_starts(n_frames: int, block_len: int, frames_per_seg: int) -> np.ndarray:
    """First frame of every segment when blocks of block_len frames are each
    cut into segments of frames_per_seg frames, as blockwise_counts does
    (short last segment per block, short last block)."""
    blocks = np.arange(0, n_frames, block_len)
    offsets = np.arange(0, min(block_len, n_frames), frames_per_seg)
    starts = (blocks[:, None] + offsets[None, :]).ravel()
    return starts[starts < n_frames]


def _segment_errors(ref: np.ndarray, active: np.ndarray) -> int:
    """Sum over segments of S + D + I, which is max(FN, FP) per segment."""
    fn = (ref & ~active).sum(axis=1)
    fp = (active & ~ref).sum(axis=1)
    return int(np.maximum(fn, fp).sum())


def fit_fusion(preds: PredictionSet, block_len: int = DEFAULT_BLOCK_LEN,
               bias_grid: tuple = BIAS_GRID,
               threshold_grid: tuple = THRESHOLD_GRID) -> FusionParams:
    """Fix weights from reciprocal MSE, then coordinate-search biases and
    thresholds on their grids.

    Sweeps run in a fixed order (each detector's bias, then each event's
    threshold), move only on strict error-rate improvement with ties going
    to the smaller grid value, and stop when a full round changes nothing
    or after MAX_SWEEP_ROUNDS rounds.

    Every trial is scored on the per-segment maxima of the fused scores over
    the segments ``fitted_error_rate`` counts: thresholding the maxima gives
    exactly the segment activity of the thresholded frames, so the integer
    error count sum(max(FN, FP)) over N orders the trials exactly as
    ``fitted_error_rate`` does, and the result is the same.  A bias trial
    fuses the split once and takes the maxima; a threshold trial reuses the
    maxima of the current biases.
    """
    threshold_values = np.asarray(threshold_grid, dtype=np.float64)
    _check_ranges(np.asarray(bias_grid, dtype=np.float64), threshold_values)
    if block_len < 1:
        raise DataError(f"block_len must be positive, got {block_len}")
    m, n = preds.n_models, preds.n_events
    weights = mse_weights(preds)
    biases = np.full(m, DEFAULT_BIAS)
    thresholds = np.full(n, DEFAULT_THRESHOLD)

    if preds.truth.sum() == 0:
        warnings.warn("ground truth has no active events; returning default fusion parameters")
        return FusionParams(weights, biases, thresholds, block_len)

    starts = _segment_starts(preds.truth.shape[0], block_len, frames_per_segment(preds.hop))
    ref = np.logical_or.reduceat(preds.truth != 0, starts, axis=0)

    def segment_maxima(b):
        return np.maximum.reduceat(fuse(preds, FusionParams(weights, b, thresholds, block_len)),
                                   starts, axis=0)

    maxima = segment_maxima(biases)
    active = maxima >= thresholds
    current = _segment_errors(ref, active)
    for _ in range(MAX_SWEEP_ROUNDS):
        changed = False
        for k in range(m):
            for candidate in bias_grid:
                if candidate == biases[k]:
                    continue
                trial = biases.copy()
                trial[k] = candidate
                trial_maxima = segment_maxima(trial)
                trial_active = trial_maxima >= thresholds
                errors = _segment_errors(ref, trial_active)
                if errors < current:
                    biases, current, changed = trial, errors, True
                    maxima, active = trial_maxima, trial_active
        for e in range(n):
            # Errors of every candidate for event e, the other events held
            # fixed: per-segment FN/FP of the others plus this column's.
            col_ref, col_active = ref[:, e, None], active[:, e, None]
            rest_fn = (ref & ~active).sum(axis=1)[:, None] - (col_ref & ~col_active)
            rest_fp = (active & ~ref).sum(axis=1)[:, None] - (col_active & ~col_ref)
            column = maxima[:, e, None] >= threshold_values
            candidate_errors = np.maximum(rest_fn + (col_ref & ~column),
                                          rest_fp + (column & ~col_ref)).sum(axis=0)
            for j, candidate in enumerate(threshold_grid):
                if candidate == thresholds[e]:
                    continue
                if candidate_errors[j] < current:
                    thresholds[e] = candidate
                    current, changed = int(candidate_errors[j]), True
            active[:, e] = maxima[:, e] >= thresholds[e]
        if not changed:
            break
    return FusionParams(weights, biases, thresholds, block_len)
