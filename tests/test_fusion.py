from dataclasses import replace

import numpy as np
import pytest

from helpers import reference_fit_fusion

from polysed import fusion
from polysed.errors import DataError, NumericError, ShapeError
from polysed.fusion import (BIAS_GRID, THRESHOLD_GRID, FusionParams, PredictionSet,
                            apply_threshold, bias_offset, fit_fusion, fitted_error_rate, fuse,
                            mse_weights, weighted_base)
from polysed.metrics import frames_per_segment, segment_starts


def _pset(preds, truth, hop=0.02, lengths=None):
    return PredictionSet(predictions=[np.asarray(p, dtype=float) for p in preds],
                         truth=np.asarray(truth), hop=hop, lengths=lengths)


def _blocks(t, block_len):
    """Clip lengths cutting t frames into blocks of block_len, the last one short."""
    return [min(block_len, t - start) for start in range(0, t, block_len)]


def _params(w, b, eta):
    return FusionParams(np.asarray(w, float), np.asarray(b, float), np.asarray(eta, float))


# -- weights -------------------------------------------------------------------

def test_mse_weights_constant_error():
    truth = np.zeros((10, 2), dtype=int)
    pred = np.full((10, 2), 0.1)
    w = mse_weights(_pset([pred], truth))
    np.testing.assert_allclose(w, [100.0])


def test_mse_weights_perfect_model_clamped():
    truth = np.ones((5, 1), dtype=int)
    w = mse_weights(_pset([truth.astype(float)], truth))
    np.testing.assert_allclose(w, [1e12])


def test_mse_weights_ratio():
    truth = np.zeros((100, 1), dtype=int)
    a = np.full((100, 1), 0.1)   # mse 0.01
    b = np.full((100, 1), 0.2)   # mse 0.04
    w = mse_weights(_pset([a, b], truth))
    np.testing.assert_allclose(w[0] / w[1], 4.0)


@pytest.mark.parametrize("truth_dtype", [np.uint8, bool, int, float])
def test_mse_weights_equal_the_plain_formula(truth_dtype):
    """The in-place scratch buffer computes the same doubles as the formula."""
    rng = np.random.default_rng(12)
    truth = (rng.uniform(size=(3000, 4)) < 0.3).astype(truth_dtype)
    preds = [rng.uniform(size=truth.shape) for _ in range(3)]
    expected = [1.0 / max(float(np.mean((p - truth.astype(np.float64)) ** 2)), 1e-12)
                for p in preds]
    np.testing.assert_array_equal(mse_weights(_pset(preds, truth)), expected)


# -- fuse ----------------------------------------------------------------------

def test_fuse_single_model_identity():
    rng = np.random.default_rng(0)
    p = rng.uniform(size=(30, 2))
    truth = (p > 0.5).astype(int)
    fused = fuse(_pset([p], truth), _params([3.0], [0.0], [0.5, 0.5]))
    np.testing.assert_array_equal(fused, p)


def test_fuse_worked_example():
    truth = np.zeros((1, 1), dtype=int)
    fused = fuse(_pset([[[0.9]], [[0.5]]], truth), _params([2.0, 1.0], [0.1, 0.2], [0.5]))
    np.testing.assert_allclose(fused[0, 0], (2 * 0.8 + 1 * 0.3) / 3.0, atol=1e-15)
    assert abs(fused[0, 0] - 0.6333333333333333) < 1e-12


def test_fuse_scale_invariance():
    rng = np.random.default_rng(1)
    preds = [rng.uniform(size=(40, 3)) for _ in range(3)]
    truth = np.zeros((40, 3), dtype=int)
    pset = _pset(preds, truth)
    base = fuse(pset, _params([1.0, 2.0, 0.5], [0.05, -0.1, 0.0], [0.5] * 3))
    scaled = fuse(pset, _params([7.0, 14.0, 3.5], [0.05, -0.1, 0.0], [0.5] * 3))
    np.testing.assert_allclose(base, scaled, atol=1e-12)


def test_fuse_identical_models_any_weights():
    rng = np.random.default_rng(2)
    p = rng.uniform(size=(20, 2))
    truth = np.zeros((20, 2), dtype=int)
    fused = fuse(_pset([p, p.copy()], truth), _params([0.3, 9.0], [0.0, 0.0], [0.5, 0.5]))
    np.testing.assert_allclose(fused, p, atol=1e-15)


def test_fuse_weighted_mean_bounds():
    rng = np.random.default_rng(3)
    preds = [rng.uniform(size=(50, 2)) for _ in range(3)]
    b = np.array([0.1, -0.2, 0.0])
    w = np.array([1.0, 2.5, 0.7])
    truth = np.zeros((50, 2), dtype=int)
    corrected = np.stack([p - bi for p, bi in zip(preds, b)])
    fused = fuse(_pset(preds, truth), _params(w, b, [0.5, 0.5]))
    lo = np.clip(corrected.min(axis=0), 0, 1)
    hi = np.clip(corrected.max(axis=0), 0, 1)
    assert np.all(fused >= lo - 1e-12)
    assert np.all(fused <= hi + 1e-12)


def test_fuse_monotone_in_each_input():
    rng = np.random.default_rng(4)
    preds = [rng.uniform(0.1, 0.9, size=(10, 2)) for _ in range(2)]
    truth = np.zeros((10, 2), dtype=int)
    params = _params([1.0, 3.0], [0.0, 0.0], [0.5, 0.5])
    base = fuse(_pset(preds, truth), params)
    bumped = [preds[0].copy(), preds[1].copy()]
    bumped[1][4, 1] += 0.05
    after = fuse(_pset(bumped, truth), params)
    assert after[4, 1] >= base[4, 1]
    mask = np.ones((10, 2), bool)
    mask[4, 1] = False
    np.testing.assert_array_equal(after[mask], base[mask])


def test_segment_maxima_of_fuse_are_shifted_maxima_of_the_base():
    """max over a segment of fuse(...) equals clip(max(base) - c, 0, 1) bit
    for bit, for any weights, biases and clip layout, the clamps included."""
    rng = np.random.default_rng(99)
    for _ in range(40):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        hop = float(rng.choice([0.02, 0.05, 0.1]))
        lengths = [int(x) for x in rng.integers(0, 120, size=int(rng.integers(1, 5)))]
        lengths[0] += 1
        t = sum(lengths)
        preds = [rng.uniform(-0.3, 1.3, size=(t, n)).clip(0, 1) for _ in range(m)]
        pset = _pset(preds, np.zeros((t, n), dtype=int), hop=hop, lengths=lengths)
        weights = rng.uniform(0.01, 100.0, size=m)
        starts = segment_starts(pset.lengths, frames_per_segment(hop))
        base_maxima = np.maximum.reduceat(weighted_base(pset, weights), starts, axis=0)
        for biases in (rng.choice(BIAS_GRID, size=m), rng.uniform(-1, 1, size=m),
                       np.full(m, -1.0), np.full(m, 1.0)):
            params = FusionParams(weights, biases, np.full(n, 0.5))
            fused_maxima = np.maximum.reduceat(fuse(pset, params), starts, axis=0)
            shifted = np.clip(base_maxima - bias_offset(weights, biases), 0.0, 1.0)
            np.testing.assert_array_equal(fused_maxima, shifted)


def test_fuse_rejects_nonpositive_weight():
    with pytest.raises(DataError):
        _params([0.0], [0.0], [0.5])


def test_fuse_weight_count_mismatch():
    truth = np.zeros((5, 1), dtype=int)
    with pytest.raises(ShapeError):
        fuse(_pset([np.zeros((5, 1))], truth), _params([1.0, 1.0], [0.0, 0.0], [0.5]))


@pytest.mark.parametrize("biases", [[0.0], [0.0, 0.1, 0.2]])
def test_fuse_bias_count_mismatch(biases):
    truth = np.zeros((5, 1), dtype=int)
    pset = _pset([np.zeros((5, 1)), np.ones((5, 1))], truth)
    with pytest.raises(ShapeError, match="biases for 2 weights"):
        fuse(pset, _params([1.0, 2.0], biases, [0.5]))


# -- threshold -------------------------------------------------------------------

def test_threshold_zero_everything_active():
    fused = np.array([[0.0, 0.2], [0.9, 0.4]])
    roll = apply_threshold(fused, np.zeros(2))
    assert roll.all()


def test_threshold_one_with_sub_one_scores():
    fused = np.full((4, 2), 0.999)
    roll = apply_threshold(fused, np.ones(2))
    assert not roll.any()


def test_threshold_tie_activates():
    fused = np.array([[0.5]])
    assert apply_threshold(fused, np.array([0.5]))[0, 0] == 1


# -- fitting ----------------------------------------------------------------------

def _near_binary_case(seed=0, t=512, n=2):
    rng = np.random.default_rng(seed)
    truth = (rng.uniform(size=(t, n)) < 0.3).astype(int)
    truth[0, 0] = 1
    pred = np.where(truth == 1, 0.9, 0.1)
    return _pset([pred], truth, lengths=_blocks(t, 256))


def test_fit_fusion_separable_returns_zero_error():
    pset = _near_binary_case()
    params = fit_fusion(pset)
    assert np.all(params.thresholds > 0.1)
    assert np.all(params.thresholds <= 0.9)
    assert fitted_error_rate(pset, params) == 0.0


def test_fit_fusion_never_worse_than_default():
    rng = np.random.default_rng(7)
    truth = (rng.uniform(size=(700, 3)) < 0.25).astype(int)
    truth[0, 0] = 1
    preds = [np.clip(truth + rng.normal(0, 0.45, truth.shape), 0, 1) for _ in range(2)]
    pset = _pset(preds, truth, lengths=_blocks(700, 256))
    params = fit_fusion(pset)
    default = FusionParams(mse_weights(pset), np.zeros(2), np.full(3, 0.5))
    assert fitted_error_rate(pset, params) <= fitted_error_rate(pset, default)


def test_fit_fusion_returns_grid_values():
    pset = _near_binary_case(seed=3)
    params = fit_fusion(pset)
    assert all(b in BIAS_GRID for b in params.biases)
    assert all(t in THRESHOLD_GRID for t in params.thresholds)


def test_fit_fusion_all_silent_truth_warns_defaults():
    truth = np.zeros((300, 2), dtype=int)
    pred = np.random.default_rng(0).uniform(size=(300, 2))
    with pytest.warns(UserWarning, match="no active events"):
        params = fit_fusion(_pset([pred], truth))
    np.testing.assert_array_equal(params.biases, [0.0])
    np.testing.assert_array_equal(params.thresholds, [0.5, 0.5])


def _complementary_pair(seed=11, t=1024):
    """Two detectors, each sharp on its own event and uninformative on the other."""
    rng = np.random.default_rng(seed)
    truth = (rng.uniform(size=(t, 2)) < 0.3).astype(int)
    truth[0] = [1, 1]
    sharp = np.where(truth == 1, 0.9, 0.1)
    noise = rng.uniform(0.3, 0.7, size=(t, 2))
    p1 = np.column_stack([sharp[:, 0], noise[:, 0]])
    p2 = np.column_stack([noise[:, 1], sharp[:, 1]])
    return _pset([p1, p2], truth, lengths=_blocks(t, 256))


def test_fit_fusion_complementary_models_beat_individuals():
    pset = _complementary_pair()
    fused_params = fit_fusion(pset)
    fused_er = fitted_error_rate(pset, fused_params)
    individual = []
    for k in range(2):
        single = _pset([pset.predictions[k]], pset.truth, lengths=pset.lengths)
        p = fit_fusion(single)
        individual.append(fitted_error_rate(single, p))
    assert fused_er <= min(individual)
    assert min(individual) > 0  # each alone really is impaired


def test_fit_fusion_is_coordinatewise_minimal():
    """No single grid move improves on the returned parameters."""
    pset = _complementary_pair(seed=31)
    params = fit_fusion(pset)
    best = fitted_error_rate(pset, params)
    for k in range(pset.n_models):
        for candidate in BIAS_GRID:
            trial = params.biases.copy()
            trial[k] = candidate
            er = fitted_error_rate(pset, FusionParams(params.weights, trial, params.thresholds))
            assert er >= best
    for e in range(pset.n_events):
        for candidate in THRESHOLD_GRID:
            trial = params.thresholds.copy()
            trial[e] = candidate
            er = fitted_error_rate(pset, FusionParams(params.weights, params.biases, trial))
            assert er >= best


def test_fit_fusion_deterministic():
    pset = _complementary_pair(seed=21)
    a = fit_fusion(pset)
    b = fit_fusion(pset)
    np.testing.assert_array_equal(a.biases, b.biases)
    np.testing.assert_array_equal(a.thresholds, b.thresholds)
    np.testing.assert_array_equal(a.weights, b.weights)


# -- fast fit against the brute-force oracle ---------------------------------------

def _random_case(rng, m, n, t, hop, lengths=None):
    """Event runs as truth, m detectors with their own offset, lag and noise.
    A single detector's scores are rounded to multiples of 0.05, so its
    segment maxima tie with grid thresholds, which activate on equality."""
    truth = np.zeros((t, n), dtype=np.uint8)
    for _ in range(max(1, t // 40)):
        length = int(rng.integers(3, 60))
        start = int(rng.integers(0, t))
        truth[start:start + length, int(rng.integers(n))] = 1
    truth[0, 0] = 1
    preds = []
    for _ in range(m):
        lag = int(rng.integers(0, 4))
        shifted = np.roll(truth, lag, axis=0).astype(float)
        raw = 0.55 * shifted + rng.uniform(0.1, 0.35) + rng.normal(0, 0.2, truth.shape)
        if m == 1:
            raw = np.round(raw * 20) / 20
        preds.append(np.clip(raw, 0.0, 1.0))
    return _pset(preds, truth, hop=hop, lengths=lengths)


# (m, events, frames, hop, clips, custom grids): an int for clips cuts the
# frames into blocks of that many frames.  Hop 0.02 makes 50-frame
# segments, 0.05 20-frame and 0.1 10-frame ones.
FIT_CASES = [
    (1, 2, 400, 0.02, 256, False),    # short final block
    (2, 3, 530, 0.02, 77, False),     # block length not a multiple of the segment
    (3, 2, 220, 0.02, 7, True),       # every block shorter than one segment
    (4, 3, 610, 0.05, 90, True),      # other hop, 4.5 segments per block
    (2, 2, 333, 0.1, 333, True),      # one block, short last segment
    (3, 2, 1043, 0.02, [500, 317, 0, 226], True),  # unequal clips, one empty
]


def _fit_case_id(case):
    clips = case[4]
    layout = f"block{clips}" if isinstance(clips, int) else "clips" + "-".join(map(str, clips))
    return f"m{case[0]}-hop{case[3]}-{layout}"


def _custom_grids(rng):
    biases = tuple(sorted(rng.choice(np.round(np.linspace(-0.3, 0.3, 13), 2),
                                     size=4, replace=False)))
    thresholds = tuple(sorted(rng.choice(np.round(np.linspace(0.05, 0.95, 37), 3),
                                         size=8, replace=False)))
    return {"bias_grid": biases, "threshold_grid": thresholds}


def _assert_matches_reference(pset, **kwargs):
    fast = fit_fusion(pset, **kwargs)
    ref, ref_er = reference_fit_fusion(pset, **kwargs)
    np.testing.assert_array_equal(fast.weights, ref.weights)
    np.testing.assert_array_equal(fast.biases, ref.biases)
    np.testing.assert_array_equal(fast.thresholds, ref.thresholds)
    assert fitted_error_rate(pset, fast) == ref_er


@pytest.mark.parametrize("case", FIT_CASES, ids=_fit_case_id)
def test_fit_fusion_matches_reference(case):
    m, n, t, hop, clips, custom = case
    if isinstance(clips, int):
        rng = np.random.default_rng(1000 + m * 31 + clips)
        clips = _blocks(t, clips)
    else:
        rng = np.random.default_rng(1000 + m * 31 + len(clips))
    pset = _random_case(rng, m, n, t, hop, lengths=clips)
    grids = _custom_grids(rng) if custom else {}
    _assert_matches_reference(pset, **grids)


def test_fit_fusion_matches_reference_random_geometries():
    rng = np.random.default_rng(2024)
    for _ in range(6):
        m = int(rng.integers(1, 5))
        hop = float(rng.choice([0.02, 0.04, 0.05, 0.1]))
        n, t = int(rng.integers(1, 4)), int(rng.integers(60, 400))
        pset = _random_case(rng, m, n, t, hop)
        pset = replace(pset, lengths=_blocks(t, int(rng.integers(5, 300))))
        _assert_matches_reference(pset, **_custom_grids(rng))


@pytest.mark.parametrize("bias_grid", [(0.0,), BIAS_GRID,
                                       tuple(np.round(np.linspace(-1, 1, 81), 3))])
def test_fit_fusion_computes_the_weighted_base_once(monkeypatch, bias_grid):
    calls = []

    def counting(*args):
        calls.append(1)
        return weighted_base(*args)

    monkeypatch.setattr(fusion, "weighted_base", counting)
    fit_fusion(_complementary_pair(seed=5), bias_grid=bias_grid)
    assert len(calls) == 1


@pytest.mark.parametrize("grids", [{"bias_grid": (0.0, 1.5)},
                                   {"threshold_grid": (-0.1, 0.5)},
                                   {"threshold_grid": (0.5, 1.01)}])
def test_fit_fusion_rejects_out_of_range_grid(grids):
    with pytest.raises(DataError, match="must lie in"):
        fit_fusion(_near_binary_case(), **grids)
    # The grid is checked before any other work, silent truth included.
    silent = _pset([np.full((60, 1), 0.3)], np.zeros((60, 1), dtype=int))
    with pytest.raises(DataError, match="must lie in"):
        fit_fusion(silent, **grids)


@pytest.mark.parametrize("lengths", [[21], [10, 5], [30, -10], [], [[10, 10]]])
def test_prediction_set_rejects_lengths_that_do_not_tile_its_frames(lengths):
    with pytest.raises(ShapeError, match="do not tile 20 frames"):
        _pset([np.full((20, 1), 0.4)], np.zeros((20, 1), dtype=int), lengths=lengths)


def test_prediction_set_defaults_to_one_clip():
    assert _pset([np.full((20, 1), 0.4)], np.zeros((20, 1), dtype=int)).lengths.tolist() == [20]


# -- non-finite scores --------------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_prediction_set_rejects_non_finite_scores(bad):
    pred = np.full((20, 2), 0.4)
    pred[7, 1] = bad
    with pytest.raises(NumericError, match="prediction 1"):
        _pset([np.full((20, 2), 0.4), pred], np.zeros((20, 2), dtype=int))


@pytest.mark.parametrize("hop", [0.0, -0.02, float("nan")])
def test_prediction_set_rejects_bad_hop(hop):
    with pytest.raises(DataError, match="hop must be positive"):
        _pset([np.full((20, 1), 0.4)], np.zeros((20, 1), dtype=int), hop=hop)
