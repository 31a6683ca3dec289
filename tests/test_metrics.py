import numpy as np
import pytest

from helpers import segment_counts_oracle

from polysed.capsnet import detection_loss
from polysed.errors import DataError, ShapeError
from polysed.fusion import PredictionSet
from polysed.metrics import (EventRoll, SegmentCounts, error_rate, frames_per_segment,
                             is_binary, segment_counts, segment_starts)
from polysed.tensor import Tensor

LABELS3 = ["a", "b", "c"]


def _roll(matrix, hop=1.0, labels=None):
    matrix = np.asarray(matrix)
    labels = labels or [chr(ord("a") + i) for i in range(matrix.shape[1])]
    return EventRoll(values=matrix, hop=hop, labels=labels)


def test_substitution_hand_case():
    # one 1-second segment: reference {a, b}, prediction {a, c}
    ref = _roll([[1, 1, 0]])
    pred = _roll([[1, 0, 1]])
    c = segment_counts(ref, pred)
    assert (c.total_s, c.total_d, c.total_i, c.total_n) == (1, 0, 0, 2)
    assert error_rate(c) == 0.5


def test_deletion_hand_case():
    ref = _roll([[1]])
    pred = _roll([[0]])
    c = segment_counts(ref, pred)
    assert (c.total_s, c.total_d, c.total_i, c.total_n) == (0, 1, 0, 1)


def test_error_rate_can_exceed_one():
    ref = _roll([[1, 0, 0, 0]])
    pred = _roll([[0, 1, 1, 1]])
    c = segment_counts(ref, pred)
    assert (c.total_s, c.total_d, c.total_i, c.total_n) == (1, 0, 2, 1)
    assert error_rate(c) == 3.0


def test_perfect_prediction_zero_counts():
    rng = np.random.default_rng(0)
    m = (rng.uniform(size=(120, 4)) < 0.3).astype(int)
    m[0, 0] = 1
    ref = _roll(m, hop=0.02)
    c = segment_counts(ref, ref)
    assert c.total_s == c.total_d == c.total_i == 0
    assert error_rate(c) == 0.0


def test_segment_grouping_one_second():
    assert frames_per_segment(0.02) == 50
    assert frames_per_segment(1.0) == 1
    # event active for frames 0..49 -> exactly segment 0
    m = np.zeros((100, 1), dtype=int)
    m[:50, 0] = 1
    ref = _roll(m, hop=0.02)
    pred = _roll(np.zeros((100, 1), dtype=int), hop=0.02)
    c = segment_counts(ref, pred)
    assert list(c.n) == [1, 0]


def test_partial_final_segment_counted():
    m = np.ones((60, 1), dtype=int)
    ref = _roll(m, hop=0.02)
    pred = _roll(np.zeros_like(m), hop=0.02)
    c = segment_counts(ref, pred)
    assert len(c.n) == 2  # 50 frames + 10-frame partial
    assert c.total_d == 2


def test_hop_mismatch_raises():
    ref = _roll([[1]], hop=1.0)
    pred = _roll([[1]], hop=0.5)
    with pytest.raises(DataError):
        segment_counts(ref, pred)


def test_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        segment_counts(_roll([[1, 0]]), _roll([[1]]))


def test_zero_reference_error():
    c = segment_counts(_roll([[0]]), _roll([[1]]))
    with pytest.raises(DataError):
        error_rate(c)


def test_invalid_roll_values():
    with pytest.raises(DataError):
        _roll([[2]])


@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.bool_, np.float32, np.float64])
def test_is_binary_agrees_with_isin(dtype):
    rng = np.random.default_rng(5)
    specials = [2, -1, 0.5, -0.0, np.nan]
    for _ in range(200):
        v = rng.integers(0, 2, size=(int(rng.integers(0, 6)), 3)).astype(float)
        if v.size and rng.uniform() < 0.7:
            v.flat[int(rng.integers(v.size))] = specials[int(rng.integers(len(specials)))]
        with np.errstate(invalid="ignore"):  # NaN and -1 cast to ints and uint8
            v = v.astype(dtype)
        assert is_binary(v) == np.isin(v, (0, 1)).all(), v


@pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
def test_every_binary_check_rejects_non_binary_input(bad):
    values = np.zeros((4, 2))
    values[1, 1] = bad
    with pytest.raises(DataError, match="0 or 1"):
        _roll(values)
    with pytest.raises(DataError, match="binary"):
        PredictionSet([np.full((4, 2), 0.5)], values, hop=0.02)
    with pytest.raises(DataError, match="binary"):
        detection_loss(Tensor(np.full((4, 2), 0.5)), values)


def _oracle_per_piece(ref_m, pred_m, lengths, frames_per_seg):
    """The brute-force oracle applied to each piece, lists concatenated."""
    out = ([], [], [], [])
    start = 0
    for length in lengths:
        piece = segment_counts_oracle(ref_m[start:start + length],
                                      pred_m[start:start + length], frames_per_seg)
        for acc, part in zip(out, piece):
            acc.extend(part)
        start += length
    return out


def test_matches_bruteforce_oracle():
    rng = np.random.default_rng(1234)
    for _ in range(150):
        t = int(rng.integers(1, 500))
        n = int(rng.integers(1, 6))
        hop = float(rng.choice([0.02, 0.05, 0.1, 1.0]))
        density = rng.uniform(0.05, 0.5)
        ref_m = (rng.uniform(size=(t, n)) < density).astype(int)
        pred_m = (rng.uniform(size=(t, n)) < density).astype(int)
        fps = frames_per_segment(hop)
        cuts = np.sort(rng.integers(0, t + 1, size=int(rng.integers(0, 6))))
        lengths = np.diff(np.concatenate(([0], cuts, [t]))).tolist()  # zero lengths too
        for pieces, expected in [(None, segment_counts_oracle(ref_m, pred_m, fps)),
                                 (lengths, _oracle_per_piece(ref_m, pred_m, lengths, fps))]:
            c = segment_counts(_roll(ref_m, hop=hop), _roll(pred_m, hop=hop), lengths=pieces)
            assert (list(c.s), list(c.d), list(c.i), list(c.n)) == tuple(expected)


@pytest.mark.parametrize("lengths", [[50], [60, 1], [30, 40, -10], []])
def test_lengths_that_do_not_tile_the_roll_raise(lengths):
    m = np.ones((60, 1), dtype=int)
    with pytest.raises(ShapeError):
        segment_counts(_roll(m, hop=0.02), _roll(m, hop=0.02), lengths=lengths)


def test_segment_starts_restart_at_each_piece():
    assert segment_starts([120, 0, 30, 50], 50).tolist() == [0, 50, 100, 120, 150]
    assert segment_starts([], 50).tolist() == []


def test_label_permutation_invariance():
    rng = np.random.default_rng(5)
    ref_m = (rng.uniform(size=(80, 4)) < 0.3).astype(int)
    pred_m = (rng.uniform(size=(80, 4)) < 0.3).astype(int)
    ref_m[0, 0] = 1
    base = error_rate(segment_counts(_roll(ref_m, 0.02, LABELS3 + ["d"]),
                                     _roll(pred_m, 0.02, LABELS3 + ["d"])))
    perm = rng.permutation(4)
    labels_p = [(LABELS3 + ["d"])[j] for j in perm]
    permuted = error_rate(segment_counts(_roll(ref_m[:, perm], 0.02, labels_p),
                                         _roll(pred_m[:, perm], 0.02, labels_p)))
    assert base == permuted


def test_monotonicity_of_corrections():
    rng = np.random.default_rng(6)
    ref_m = (rng.uniform(size=(100, 3)) < 0.4).astype(int)
    ref_m[0, 0] = 1
    pred_m = (rng.uniform(size=(100, 3)) < 0.4).astype(int)
    base = error_rate(segment_counts(_roll(ref_m, 0.02), _roll(pred_m, 0.02)))

    # adding a correct activation never increases ER
    missing = np.argwhere((ref_m == 1) & (pred_m == 0))
    if len(missing):
        t, e = missing[0]
        fixed = pred_m.copy()
        fixed[t, e] = 1
        assert error_rate(segment_counts(_roll(ref_m, 0.02), _roll(fixed, 0.02))) <= base

    # adding a spurious activation never decreases ER
    spurious_at = np.argwhere((ref_m == 0) & (pred_m == 0))
    if len(spurious_at):
        t, e = spurious_at[0]
        worse = pred_m.copy()
        worse[t, e] = 1
        assert error_rate(segment_counts(_roll(ref_m, 0.02), _roll(worse, 0.02))) >= base


def test_merge_and_report():
    a = segment_counts(_roll([[1, 0]]), _roll([[1, 0]]))
    b = segment_counts(_roll([[1, 1]]), _roll([[0, 1]]))
    merged = SegmentCounts.merge([a, b])
    assert merged.total_n == 3
