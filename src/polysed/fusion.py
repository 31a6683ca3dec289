"""Late fusion of per-feature detector outputs.

Each of the m detectors contributes a frame-level score matrix.  Aggregation
is a weighted mean of bias-corrected scores,

    fused = sum_k w_k * (y_k - b_k) / sum_k w_k,

with w_k the reciprocal of detector k's mean squared error against the
ground truth, so more accurate detectors dominate.  The fused scores are
binarized with one threshold per event (>= activates).

``fuse`` computes this as one weighted base minus one offset: with
wn = w / sum(w), fused = clip(base - c, 0, 1), where base = sum_k wn_k y_k
(``weighted_base``) and c = sum_k wn_k b_k (``bias_offset``).  The biases
enter the fused scores only through their weighted sum c, so the m
per-detector biases are identifiable only through it; the grid search and
the stored parameters keep the per-detector form of the method.

Bias and threshold values are fitted by deterministic coordinate descent
over fixed grids, scored with the segment-based error rate on the clip grid
that evaluation uses: the prediction set carries its clips' frame counts.
The search starts from the neutral point (all biases 0, all thresholds 0.5)
and only ever moves on strict improvement, so the fitted parameters can
never be worse on the fitting data than that default.

The search scores every trial on cached per-segment maxima instead of
re-thresholding and re-counting the whole split.  An event is active in a
segment iff some frame there reaches its threshold, that is iff the
segment's maximum fused score does; and per segment S + D + I = max(FN, FP).
So the maxima of the fused scores over the segments of the clips
(``metrics.segment_starts`` of the clip lengths) are enough to count the
errors of any threshold exactly, in integers.  The base and its segment
maxima are computed once per fit.  Subtracting a constant and clipping are
both monotone in floating point, so they commute with a maximum bit for
bit: a bias trial is one scalar shift of the cached maxima,
clip(max(base) - c, 0, 1), and a threshold trial compares one event column
of them against the candidate.
``fitted_error_rate`` and ``blockwise_counts`` remain the reference
definition of the fitted error rate that the search reproduces.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericError, ShapeError
from .metrics import (EventRoll, SegmentCounts, error_rate, frames_per_segment, is_binary,
                      piece_lengths, segment_counts, segment_starts)

MSE_CLAMP = 1e-12
BIAS_GRID = tuple(round(-0.2 + 0.05 * i, 2) for i in range(9))        # -0.2 .. 0.2
THRESHOLD_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))      # 0.05 .. 0.95
GRID_NOTE = "bias -0.2..0.2/0.05, threshold 0.05..0.95/0.05"           # stored with fitted params
DEFAULT_BIAS = 0.0
DEFAULT_THRESHOLD = 0.5
MAX_SWEEP_ROUNDS = 10


@dataclass
class PredictionSet:
    """Aligned frame-level scores from m detectors plus the ground truth."""

    predictions: list[np.ndarray]     # m matrices (frames, events), scores in [0, 1]
    truth: np.ndarray                 # (frames, events) binary
    hop: float
    labels: list[str] = field(default_factory=list)
    lengths: np.ndarray | None = None  # frame counts of its consecutive clips; None: one

    def __post_init__(self):
        if not self.predictions:
            raise DataError("need at least one prediction matrix")
        self.truth = np.asarray(self.truth)
        shape = self.truth.shape
        if len(shape) != 2:
            raise ShapeError(f"truth must be 2-d, got {shape}")
        if not self.hop > 0:
            raise DataError(f"hop must be positive, got {self.hop}")
        self.lengths = piece_lengths(self.lengths, shape[0])
        cleaned = []
        for k, p in enumerate(self.predictions):
            p = np.asarray(p, dtype=np.float64)
            if p.shape != shape:
                raise ShapeError(f"prediction {k} has shape {p.shape}, truth has {shape}")
            if not np.isfinite(p).all():
                raise NumericError(f"prediction {k} holds non-finite scores")
            cleaned.append(p)
        self.predictions = cleaned
        if not is_binary(self.truth):
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

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        self.thresholds = np.asarray(self.thresholds, dtype=np.float64)
        if not np.all(np.isfinite(self.weights) & (self.weights > 0)):
            raise DataError("fusion weights must be positive and finite")
        _check_ranges(self.biases, self.thresholds)


def _check_ranges(biases: np.ndarray, thresholds: np.ndarray) -> None:
    if not np.all((biases >= -1) & (biases <= 1)):
        raise DataError("biases must lie in [-1, 1]")
    if not np.all((thresholds >= 0) & (thresholds <= 1)):
        raise DataError("thresholds must lie in [0, 1]")


def mse_weights(preds: PredictionSet) -> np.ndarray:
    """Reciprocal mean squared error per detector, clamped away from 1/0."""
    out = np.empty(preds.n_models)
    err = np.empty_like(preds.predictions[0])  # f64 scratch, reused for every detector
    for k, p in enumerate(preds.predictions):
        np.subtract(p, preds.truth, out=err)
        mse = float(np.mean(np.square(err, out=err)))
        out[k] = 1.0 / max(mse, MSE_CLAMP)
    return out


def _normalized(weights: np.ndarray, m: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (m,):
        raise ShapeError(f"{w.size} weights for {m} prediction matrices")
    return w / w.sum()  # normalizing first keeps m=1 an exact identity


def weighted_base(preds: PredictionSet, weights: np.ndarray) -> np.ndarray:
    """sum_k wn_k * y_k with normalized weights: the fused scores before the
    bias offset and the clamp."""
    wn = _normalized(weights, preds.n_models)
    base = np.multiply(wn[0], preds.predictions[0])
    term = np.empty_like(base)  # one scratch buffer, reused for every detector
    for w, p in zip(wn[1:], preds.predictions[1:]):
        np.multiply(w, p, out=term)
        base += term
    return base


def bias_offset(weights: np.ndarray, biases: np.ndarray) -> float:
    """c = sum_k wn_k * b_k, the one scalar through which the biases enter
    the fused scores."""
    biases = np.asarray(biases, dtype=np.float64)
    if biases.shape != np.shape(weights):
        raise ShapeError(f"{biases.size} biases for {np.size(weights)} weights")
    return math.fsum(_normalized(weights, biases.size) * biases)


def fuse(preds: PredictionSet, params: FusionParams) -> np.ndarray:
    """Weighted mean of bias-corrected scores, clamped to [0, 1]:
    clip(weighted_base - bias_offset, 0, 1)."""
    base = weighted_base(preds, params.weights)
    np.subtract(base, bias_offset(params.weights, params.biases), out=base)
    return np.clip(base, 0.0, 1.0, out=base)


def apply_threshold(fused: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Binary activation per event; a score equal to the threshold activates."""
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if thresholds.shape != (fused.shape[1],):
        raise ShapeError(f"{thresholds.shape} thresholds for {fused.shape[1]} events")
    return (fused >= thresholds[None, :]).astype(np.uint8)


def blockwise_counts(preds: PredictionSet, pred_roll: np.ndarray) -> SegmentCounts:
    """Segment counts of a thresholded roll against the truth, per clip."""
    return segment_counts(EventRoll(preds.truth, preds.hop, preds.labels),
                          EventRoll(pred_roll, preds.hop, preds.labels), lengths=preds.lengths)


def fitted_error_rate(preds: PredictionSet, params: FusionParams) -> float:
    fused = fuse(preds, params)
    return error_rate(blockwise_counts(preds, apply_threshold(fused, params.thresholds)))


def _segment_errors(ref: np.ndarray, active: np.ndarray) -> int:
    """Sum over segments of S + D + I, which is max(FN, FP) per segment."""
    fn = (ref & ~active).sum(axis=1)
    fp = (active & ~ref).sum(axis=1)
    return int(np.maximum(fn, fp).sum())


def fit_fusion(preds: PredictionSet, bias_grid: tuple = BIAS_GRID,
               threshold_grid: tuple = THRESHOLD_GRID) -> FusionParams:
    """Fix weights from reciprocal MSE, then coordinate-search biases and
    thresholds on their grids.

    Sweeps run in a fixed order (each detector's bias, then each event's
    threshold), move only on strict error-rate improvement with ties going
    to the smaller grid value, and stop when a full round changes nothing
    or after MAX_SWEEP_ROUNDS rounds.

    Every trial is scored on the per-segment maxima of the fused scores over
    the segments ``fitted_error_rate`` counts, which start where
    ``metrics.segment_starts`` of the clip lengths says: thresholding the
    maxima gives exactly the segment activity of the thresholded frames, so
    the integer error count sum(max(FN, FP)) over N orders the trials exactly
    as ``fitted_error_rate`` does, and the result is the same.  The weighted
    base and its maxima are computed once; a bias trial shifts them by its
    ``bias_offset`` and clamps, which equals the maxima of ``fuse`` bit for
    bit; a threshold trial reuses the maxima of the current biases.
    """
    threshold_values = np.asarray(threshold_grid, dtype=np.float64)
    _check_ranges(np.asarray(bias_grid, dtype=np.float64), threshold_values)
    m, n = preds.n_models, preds.n_events
    weights = mse_weights(preds)
    biases = np.full(m, DEFAULT_BIAS)
    thresholds = np.full(n, DEFAULT_THRESHOLD)

    if preds.truth.sum() == 0:
        warnings.warn("ground truth has no active events; returning default fusion parameters")
        return FusionParams(weights, biases, thresholds)

    starts = segment_starts(preds.lengths, frames_per_segment(preds.hop))
    ref = np.logical_or.reduceat(preds.truth != 0, starts, axis=0)

    base_maxima = np.maximum.reduceat(weighted_base(preds, weights), starts, axis=0)

    def segment_maxima(b):
        return np.clip(base_maxima - bias_offset(weights, b), 0.0, 1.0)

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
    return FusionParams(weights, biases, thresholds)
