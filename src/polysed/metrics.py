"""Segment-based error rate over one-second windows.

Prediction and reference event rolls are compared segment by segment: an
event counts as active in a segment when any of its frames there is active.
A roll may be the concatenation of consecutive pieces, the clips of a
split; each piece is cut into segments from its own first frame, so no
segment straddles two pieces.  Evaluation, fusion fitting and early
stopping all count on this one per-clip grid.
Per segment, with FN false negatives and FP false positives across events,

    substitutions S = min(FN, FP)
    deletions     D = FN - S
    insertions    I = FP - S

and the error rate is (sum S + sum D + sum I) / (sum N), N being the number
of reference-active events per segment.  These are the standard DCASE-style
segment counts: substitutions pair up FN/FP inside a segment, and deletions
and insertions are what remains after that pairing.  The rate can exceed 1
when spurious detections outnumber the reference events.  The final partial
segment of each piece is evaluated like any other.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ShapeError


def is_binary(values: np.ndarray) -> bool:
    """Whether every entry equals 0 or 1 (-0.0 does, NaN does not)."""
    v = np.asarray(values)
    return bool(((v == 0) | (v == 1)).all())


@dataclass
class EventRoll:
    """Binary activity matrix (frames x events) on a fixed frame hop."""

    values: np.ndarray
    hop: float
    labels: list[str]

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2:
            raise ShapeError(f"event roll must be 2-d, got shape {v.shape}")
        if not is_binary(v):
            raise DataError("event roll entries must be 0 or 1")
        if self.hop <= 0:
            raise DataError(f"hop must be positive, got {self.hop}")
        if len(self.labels) != v.shape[1]:
            raise DataError(f"{len(self.labels)} labels for {v.shape[1]} event columns")
        self.values = v.astype(np.uint8)

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_events(self) -> int:
        return self.values.shape[1]


@dataclass
class SegmentCounts:
    """Per-segment substitution/deletion/insertion/reference counts."""

    s: np.ndarray
    d: np.ndarray
    i: np.ndarray
    n: np.ndarray

    @property
    def total_s(self) -> int:
        return int(self.s.sum())

    @property
    def total_d(self) -> int:
        return int(self.d.sum())

    @property
    def total_i(self) -> int:
        return int(self.i.sum())

    @property
    def total_n(self) -> int:
        return int(self.n.sum())

    @staticmethod
    def merge(parts: list["SegmentCounts"]) -> "SegmentCounts":
        if not parts:
            return SegmentCounts(*(np.zeros(0, dtype=np.int64) for _ in range(4)))
        return SegmentCounts(
            s=np.concatenate([p.s for p in parts]),
            d=np.concatenate([p.d for p in parts]),
            i=np.concatenate([p.i for p in parts]),
            n=np.concatenate([p.n for p in parts]),
        )


def frames_per_segment(hop: float) -> int:
    return max(1, int(round(1.0 / hop)))


def piece_lengths(lengths, n_frames: int) -> np.ndarray:
    """Frame counts of the pieces of an n_frames roll (None: one) that tile it."""
    lengths = np.asarray([n_frames] if lengths is None else lengths, dtype=np.int64)
    if lengths.ndim != 1 or lengths.sum() != n_frames or (lengths < 0).any():
        raise ShapeError(f"piece lengths {lengths.tolist()} do not tile {n_frames} frames")
    return lengths


def segment_starts(lengths, frames_per_seg: int) -> np.ndarray:
    """First frame of every segment of a roll made of consecutive pieces of
    the given frame counts; segments restart at each piece, whose last one
    may be short."""
    lengths = np.asarray(lengths, dtype=np.int64)
    n_seg = -(-lengths // frames_per_seg)
    first_seg = np.cumsum(n_seg) - n_seg
    within = np.arange(n_seg.sum()) - np.repeat(first_seg, n_seg)
    return np.repeat(np.cumsum(lengths) - lengths, n_seg) + within * frames_per_seg


def segment_counts(ref: EventRoll, pred: EventRoll, lengths=None) -> SegmentCounts:
    """Count S/D/I/N per one-second segment of a roll made of consecutive
    pieces of the given frame counts (default: one piece, a single clip)."""
    if ref.values.shape != pred.values.shape:
        raise ShapeError(f"roll shapes differ: {ref.values.shape} vs {pred.values.shape}")
    if ref.hop != pred.hop:
        raise DataError(f"hop mismatch: {ref.hop} vs {pred.hop}")
    if ref.labels != pred.labels:
        raise DataError(f"label mismatch: {ref.labels} vs {pred.labels}")

    starts = segment_starts(piece_lengths(lengths, ref.n_frames), frames_per_segment(ref.hop))
    r = np.logical_or.reduceat(ref.values, starts, axis=0)
    p = np.logical_or.reduceat(pred.values, starts, axis=0)
    fn = (r & ~p).sum(axis=1)
    fp = (~r & p).sum(axis=1)
    s = np.minimum(fn, fp)
    return SegmentCounts(s=s, d=fn - s, i=fp - s, n=r.sum(axis=1))


def error_rate(counts: SegmentCounts) -> float:
    """(sum S + sum D + sum I) / sum N; undefined without reference events."""
    total_n = counts.total_n
    if total_n == 0:
        raise DataError("error rate undefined: no reference events in any segment")
    return (counts.total_s + counts.total_d + counts.total_i) / total_n
