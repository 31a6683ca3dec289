import numpy as np
import pytest

from helpers import dft_oracle

from polysed import dsp
from polysed.dsp import (AudioClip, build_mel_filterbank, ensure_binaural,
                         hann_window, hz_to_mel, logmel, logmel_config, normalize,
                         parse_tfr_name, stft_config, stft_magnitude, window_tfr)
from polysed.errors import DataError


def _tone(freq, seconds=1.0, sr=16000, channels=2, amp=0.8):
    t = np.arange(int(seconds * sr)) / sr
    x = amp * np.sin(2 * np.pi * freq * t)
    return AudioClip(np.tile(x, (channels, 1)), sr)


def _noise_clip(seconds=0.5, sr=16000, seed=0):
    rng = np.random.default_rng(seed)
    return AudioClip(rng.uniform(-0.5, 0.5, size=(2, int(seconds * sr))), sr)


# -- normalize ------------------------------------------------------------------

def test_normalize_peak_scaling():
    clip = AudioClip(np.array([[0.5, -0.25]]))
    out = normalize(clip)
    np.testing.assert_allclose(out.samples, [[1.0, -0.5]])


def test_normalize_silence_unchanged():
    clip = AudioClip(np.zeros((2, 100)))
    out = normalize(clip)
    np.testing.assert_array_equal(out.samples, np.zeros((2, 100)))


def test_normalize_shared_factor_across_channels():
    clip = AudioClip(np.array([[0.5, 0.0], [0.25, 0.0]]))
    out = normalize(clip)
    np.testing.assert_allclose(out.samples, [[1.0, 0.0], [0.5, 0.0]])


def test_normalize_empty_raises():
    with pytest.raises(DataError):
        normalize(AudioClip(np.zeros((1, 0))))


# -- stft -------------------------------------------------------------------------

@pytest.mark.parametrize("n_fft,expected_bins", [(1024, 513), (2048, 1025)])
def test_stft_bin_count(n_fft, expected_bins):
    tfr = stft_magnitude(_noise_clip(), stft_config(n_fft))
    assert tfr.freq_bins == expected_bins
    assert tfr.channels == 2


def test_stft_frame_geometry():
    clip = _noise_clip(seconds=1.0)
    tfr = stft_magnitude(clip, stft_config(1024))
    # 40 ms frames (640 samples) with a 20 ms hop (320 samples)
    assert tfr.n_frames == 1 + (16000 - 640) // 320


def test_stft_zero_clip_zero_magnitudes():
    tfr = stft_magnitude(AudioClip(np.zeros((2, 16000))), stft_config(1024))
    np.testing.assert_array_equal(tfr.values, 0.0)


def test_stft_tone_peak_bin():
    tfr = stft_magnitude(_tone(1000.0), stft_config(1024))
    peaks = tfr.values[:, :, 0].argmax(axis=1)
    assert np.all(peaks == 64)  # 1000 / (16000 / 1024)


def test_stft_short_clip_raises():
    with pytest.raises(DataError):
        stft_magnitude(AudioClip(np.zeros((1, 100))), stft_config(1024))


def test_stft_wrong_rate_raises():
    with pytest.raises(DataError):
        stft_magnitude(AudioClip(np.zeros((1, 44100)), 44100), stft_config(1024))


def test_stft_matches_direct_dft():
    clip = _noise_clip(seconds=0.2, seed=3)
    cfg = stft_config(1024)
    tfr = stft_magnitude(clip, cfg)
    frame_len, hop = dsp.FRAME_LEN, dsp.HOP
    window = hann_window(frame_len)
    for t in (0, 3):
        for ch in (0, 1):
            frame = clip.samples[ch, t * hop:t * hop + frame_len] * window
            padded = np.zeros(cfg.n_fft)
            padded[:frame_len] = frame
            full = np.abs(dft_oracle(padded))
            np.testing.assert_allclose(tfr.values[t, :, ch], full[:513], rtol=1e-9, atol=1e-9)


def test_stft_parseval_energy():
    clip = _noise_clip(seconds=0.2, seed=4)
    cfg = stft_config(1024)
    tfr = stft_magnitude(clip, cfg)
    frame_len, hop = dsp.FRAME_LEN, dsp.HOP
    window = hann_window(frame_len)
    for t in (0, 2, 5):
        frame = clip.samples[0, t * hop:t * hop + frame_len] * window
        energy = np.sum(frame ** 2)
        half = tfr.values[t, :, 0] ** 2
        # reassemble the full-spectrum sum from the one-sided magnitudes
        total = half[0] + half[-1] + 2 * half[1:-1].sum()
        assert abs(total - cfg.n_fft * energy) <= 1e-6 * cfg.n_fft * energy


# -- mel filterbank ---------------------------------------------------------------

def test_mel_scale_values():
    assert hz_to_mel(0.0) == 0.0
    np.testing.assert_allclose(hz_to_mel(700.0), 2595.0 * np.log10(2.0))
    assert abs(hz_to_mel(700.0) - 781.17) < 0.01


def test_filterbank_rows_unimodal_nonnegative():
    fb = build_mel_filterbank(40, 1024)
    assert fb.shape == (40, 513)
    assert np.all(fb >= 0)
    for row in fb:
        support = np.flatnonzero(row)
        if len(support) == 0:
            continue
        peak = row.argmax()
        assert np.all(np.diff(row[support[0]:peak + 1]) >= 0)
        assert np.all(np.diff(row[peak:support[-1] + 1]) <= 0)


def test_filterbank_centers_increasing():
    fb = build_mel_filterbank(64, 1024)
    assert np.all(np.diff(fb.argmax(axis=1)) > 0)


@pytest.mark.parametrize("n", [40, 64, 128])
def test_filterbank_covers_every_bin(n):
    fb = build_mel_filterbank(n, 1024)
    interior = slice(1, 512)  # bins strictly inside (0, sr/2)
    coverage = fb[:, interior].max(axis=0)
    assert np.all(coverage > 0)


def test_filterbank_too_many_filters_raises():
    with pytest.raises(DataError):
        build_mel_filterbank(514, 1024)


# -- logmel -------------------------------------------------------------------------

@pytest.mark.parametrize("n", [64, 256])
def test_logmel_band_count(n):
    tfr = logmel(_noise_clip(), logmel_config(n))
    assert tfr.freq_bins == n


def test_logmel_silence_is_log_floor():
    cfg = logmel_config(40)
    tfr = logmel(AudioClip(np.zeros((2, 16000))), cfg)
    np.testing.assert_allclose(tfr.values, np.log(dsp.LOG_FLOOR))


def test_logmel_matches_filterbank_times_stft():
    clip = _noise_clip(seconds=0.3, seed=9)
    cfg = logmel_config(64)
    lm = logmel(clip, cfg)
    mag = stft_magnitude(clip, stft_config(cfg.n_fft))
    fb = build_mel_filterbank(64, cfg.n_fft)
    expected = np.log(np.matmul(fb, mag.values) + dsp.LOG_FLOOR)
    np.testing.assert_array_equal(lm.values, expected)
    # independent of the projection's BLAS path: the plain per-frame sum
    independent = np.log(np.einsum("tfc,nf->tnc", mag.values, fb) + dsp.LOG_FLOOR)
    np.testing.assert_allclose(lm.values, independent, rtol=1e-12, atol=0)
    assert lm.n_frames == mag.n_frames


# frame counts on both sides of the projection's block edges, and a full clip
@pytest.mark.parametrize("frames", [dsp.LOGMEL_BLOCK - 1, dsp.LOGMEL_BLOCK, dsp.LOGMEL_BLOCK + 1,
                                    2 * dsp.LOGMEL_BLOCK + 13, 499])
@pytest.mark.parametrize("channels", [1, 2])
def test_blockwise_logmel_is_the_whole_clip_projection_bit_for_bit(frames, channels):
    n = dsp.FRAME_LEN + (frames - 1) * dsp.HOP + dsp.HOP // 2  # a partial hop at the end
    rng = np.random.default_rng(frames + channels)
    clip = AudioClip(rng.uniform(-0.5, 0.5, size=(channels, n)))
    cfg = logmel_config(64)
    mag = stft_magnitude(clip, stft_config(cfg.n_fft))
    whole = np.log(np.matmul(build_mel_filterbank(64, cfg.n_fft), mag.values) + dsp.LOG_FLOOR)
    lm = logmel(clip, cfg)
    assert lm.values.shape == whole.shape == (frames, 64, channels)
    assert lm.values.tobytes() == whole.tobytes()


def test_logmel_short_clip_raises():
    with pytest.raises(DataError):
        logmel(AudioClip(np.zeros((2, dsp.FRAME_LEN - 1))), logmel_config(64))


def test_logmel_monotone_in_amplitude():
    clip = _noise_clip(seconds=0.3, seed=10)
    louder = AudioClip(clip.samples * 2.0, clip.sample_rate)
    cfg = logmel_config(64)
    a = logmel(clip, cfg).values
    b = logmel(louder, cfg).values
    assert np.all(b > a)


# -- windowing ---------------------------------------------------------------------

def _fake_tfr(n_frames, bins=8):
    rng = np.random.default_rng(n_frames)
    return dsp.Tfr(values=rng.normal(size=(n_frames, bins, 2)), config=logmel_config(bins))


def test_window_exact_division():
    wins = window_tfr(_fake_tfr(512))
    assert len(wins) == 2
    assert all(w.valid == 256 for w in wins)


def test_window_padding():
    wins = window_tfr(_fake_tfr(300))
    assert len(wins) == 2
    assert wins[1].valid == 44
    assert np.all(wins[1].values[44:] == 0)


def test_window_partition_roundtrip():
    tfr = _fake_tfr(700)
    wins = window_tfr(tfr)
    rebuilt = np.concatenate([w.values[:w.valid] for w in wins], axis=0)
    np.testing.assert_array_equal(rebuilt, tfr.values)


# -- misc ---------------------------------------------------------------------------

def test_ensure_binaural_duplicates_mono():
    clip = ensure_binaural(AudioClip(np.ones((1, 10))))
    assert clip.channels == 2
    np.testing.assert_array_equal(clip.samples[0], clip.samples[1])


def test_parse_tfr_name():
    assert parse_tfr_name("logmel_64").freq_bins == 64
    assert parse_tfr_name("stft_2048").freq_bins == 1025
    with pytest.raises(DataError):
        parse_tfr_name("cepstrum_12")


def test_config_name_roundtrip():
    for name in ("logmel_40", "logmel_512", "stft_1024", "stft_2048"):
        assert parse_tfr_name(name).name == name
