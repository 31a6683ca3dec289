"""Segment-based error rate over one-second windows.

Prediction and reference event rolls are compared segment by segment: an
event counts as active in a segment when any of its frames there is active.
Per segment, with FN false negatives and FP false positives across events,

    substitutions S = min(FN, FP)
    deletions     D = FN - S
    insertions    I = FP - S

and the error rate is (sum S + sum D + sum I) / (sum N), N being the number
of reference-active events per segment.  These are the standard DCASE-style
segment counts: substitutions pair up FN/FP inside a segment, and deletions
and insertions are what remains after that pairing.  The rate can exceed 1
when spurious detections outnumber the reference events.  A final partial
segment is evaluated like any other.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ShapeError


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
        if not np.isin(v, (0, 1)).all():
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


def frames_per_segment(hop: float, segment_sec: float = 1.0) -> int:
    return max(1, int(round(segment_sec / hop)))


def segment_counts(ref: EventRoll, pred: EventRoll, segment_sec: float = 1.0) -> SegmentCounts:
    """Count S/D/I/N per one-second segment of a single clip."""
    if ref.values.shape != pred.values.shape:
        raise ShapeError(f"roll shapes differ: {ref.values.shape} vs {pred.values.shape}")
    if ref.hop != pred.hop:
        raise DataError(f"hop mismatch: {ref.hop} vs {pred.hop}")
    if ref.labels != pred.labels:
        raise DataError(f"label mismatch: {ref.labels} vs {pred.labels}")

    fps = frames_per_segment(ref.hop, segment_sec)
    t = ref.n_frames
    n_seg = (t + fps - 1) // fps
    pad = n_seg * fps - t

    def seg_active(roll):
        padded = np.pad(roll.values, ((0, pad), (0, 0)))
        return padded.reshape(n_seg, fps, roll.n_events).any(axis=1)

    r = seg_active(ref)
    p = seg_active(pred)
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
