"""Time-frequency feature extraction.

Audio enters as peak-normalized PCM at 16 kHz and leaves as one of two
representations, both framed with the method's fixed 40 ms Hann window and
20 ms hop (``FRAME_MS``/``HOP_MS``; ``FRAME_LEN``/``HOP`` samples):

* magnitude spectrograms: Hann-windowed frames zero-padded to ``n_fft``
  points (1024 or 2048), giving ``1 + n_fft/2`` frequency bins;
* log-mel spectrograms: the 1024-point magnitude spectrogram mapped through
  a bank of ``n`` triangular mel filters, then log-compressed with the
  floor ``LOG_FLOOR``.

Features keep one slice per audio channel, shaped (frames, bins, channels),
and are cut into fixed windows of 256 frames for model input; a short final
window is zero-padded and carries the count of valid frames.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ShapeError

PIPELINE_SAMPLE_RATE = 16000
WINDOW_FRAMES = 256

# The method's analysis frame: 40 ms Hann windows every 20 ms.
FRAME_MS = 40.0
HOP_MS = 20.0
FRAME_LEN = int(round(FRAME_MS * PIPELINE_SAMPLE_RATE / 1000.0))  # samples per frame
HOP = int(round(HOP_MS * PIPELINE_SAMPLE_RATE / 1000.0))          # samples per hop
HOP_SECONDS = HOP_MS / 1000.0
LOG_FLOOR = 1e-10  # added to the mel energies before the log

#: FFT length backing every log-mel extraction, independent of band count.
LOGMEL_FFT = 1024
#: Frames per block of the log-mel projection (bounds its working memory).
LOGMEL_BLOCK = 64


@dataclass
class AudioClip:
    """Per-channel samples in [-1, 1]; samples has shape (channels, length)."""

    samples: np.ndarray
    sample_rate: int = PIPELINE_SAMPLE_RATE

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim == 1:
            s = s[None, :]
        if s.ndim != 2 or s.shape[0] not in (1, 2):
            raise DataError(f"audio must be 1 or 2 channels of equal length, got shape {s.shape}")
        self.samples = s

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class TfrConfig:
    """One feature recipe: kind plus its scale parameter."""

    kind: str                     # "stft" or "logmel"
    n_fft: int = LOGMEL_FFT
    n_mels: int | None = None

    def __post_init__(self):
        if self.kind not in ("stft", "logmel"):
            raise DataError(f"unknown TFR kind {self.kind!r}")
        if self.kind == "logmel" and (self.n_mels is None or self.n_mels < 1):
            raise DataError("logmel requires n_mels >= 1")
        if self.n_fft < 2 or self.n_fft & (self.n_fft - 1):
            raise DataError(f"n_fft must be a power of two, got {self.n_fft}")
        if self.n_fft < FRAME_LEN:
            raise DataError(f"n_fft={self.n_fft} is shorter than the {FRAME_LEN}-sample frame")
        if self.kind == "logmel" and self.n_mels > 1 + self.n_fft // 2:
            raise DataError(f"{self.n_mels} mel filters exceed the {1 + self.n_fft // 2} FFT bins")

    @property
    def freq_bins(self) -> int:
        if self.kind == "stft":
            return 1 + self.n_fft // 2
        return int(self.n_mels)

    @property
    def name(self) -> str:
        if self.kind == "stft":
            return f"stft_{self.n_fft}"
        return f"logmel_{self.n_mels}"


def stft_config(n_fft: int) -> TfrConfig:
    return TfrConfig(kind="stft", n_fft=n_fft)


def logmel_config(n_mels: int) -> TfrConfig:
    return TfrConfig(kind="logmel", n_fft=LOGMEL_FFT, n_mels=n_mels)


def parse_tfr_name(name: str) -> TfrConfig:
    """Build a config from a feature name like ``logmel_64`` or ``stft_2048``."""
    try:
        kind, scale = name.rsplit("_", 1)
        scale = int(scale)
    except ValueError:
        raise DataError(f"cannot parse TFR name {name!r}; expected kind_scale") from None
    if kind == "stft":
        return stft_config(scale)
    if kind == "logmel":
        return logmel_config(scale)
    raise DataError(f"unknown TFR kind in {name!r}")


@dataclass
class Tfr:
    """Feature tensor shaped (frames, freq_bins, channels).

    Frame t covers the audio samples [t*HOP, t*HOP + FRAME_LEN).
    """

    values: np.ndarray
    config: TfrConfig

    def __post_init__(self):
        if self.values.ndim != 3:
            raise ShapeError(f"TFR values must be (frames, bins, channels), got {self.values.shape}")

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def freq_bins(self) -> int:
        return self.values.shape[1]

    @property
    def channels(self) -> int:
        return self.values.shape[2]


@dataclass
class TfrWindow:
    """A fixed 256-frame slice of a Tfr; the padded tail keeps a valid count."""

    values: np.ndarray           # (WINDOW_FRAMES, freq_bins, channels)
    start_frame: int
    valid: int

    def __post_init__(self):
        if self.values.shape[0] != WINDOW_FRAMES:
            raise ShapeError(f"window must hold {WINDOW_FRAMES} frames, got {self.values.shape[0]}")
        if not (0 < self.valid <= WINDOW_FRAMES):
            raise DataError(f"valid frame count {self.valid} out of range")


def hz_to_mel(f):
    """HTK mel scale: 2595 * log10(1 + f / 700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (np.power(10.0, np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def normalize(clip: AudioClip) -> AudioClip:
    """Peak-normalize to [-1, 1] with one shared factor for both channels.

    A shared factor preserves inter-channel level differences; silent clips
    are returned unchanged.
    """
    if clip.n_samples == 0:
        raise DataError("cannot normalize an empty clip")
    if not np.all(np.isfinite(clip.samples)):
        raise DataError("clip contains non-finite samples")
    peak = np.max(np.abs(clip.samples))
    if peak == 0.0:
        return AudioClip(clip.samples.copy(), clip.sample_rate)
    return AudioClip(clip.samples / peak, clip.sample_rate)


def ensure_binaural(clip: AudioClip) -> AudioClip:
    """Duplicate mono to two channels so every model sees C=2."""
    if clip.channels == 2:
        return clip
    return AudioClip(np.repeat(clip.samples, 2, axis=0), clip.sample_rate)


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft_magnitude(clip: AudioClip, cfg: TfrConfig) -> Tfr:
    """Per-channel magnitude spectrogram, shape (frames, 1 + n_fft/2, C)."""
    if clip.sample_rate != PIPELINE_SAMPLE_RATE:
        raise DataError(f"expected {PIPELINE_SAMPLE_RATE} Hz input, got {clip.sample_rate} Hz")
    if clip.n_samples < FRAME_LEN:
        raise DataError(f"clip of {clip.n_samples} samples is shorter than one {FRAME_LEN}-sample frame")
    window = hann_window(FRAME_LEN)
    mags = []
    for ch in clip.samples:
        frames = np.lib.stride_tricks.sliding_window_view(ch, FRAME_LEN)[::HOP] * window
        spec = np.fft.rfft(frames, n=cfg.n_fft, axis=1)
        mags.append(np.abs(spec))
    values = np.stack(mags, axis=-1)
    out_cfg = cfg if cfg.kind == "stft" else stft_config(cfg.n_fft)
    return Tfr(values=values, config=out_cfg)


def build_mel_filterbank(n: int, n_fft: int) -> np.ndarray:
    """(n, 1 + n_fft/2) matrix of unit-peak triangular filters, centers even in mel.

    Filter i rises over [edge_i, edge_{i+1}] and falls over
    [edge_{i+1}, edge_{i+2}], where the n+2 edges are uniform on the mel
    axis between 0 Hz and half the pipeline sample rate.  Weights are
    evaluated at the continuous FFT bin frequencies, so every bin strictly
    inside the band receives a nonzero weight from some filter.
    """
    fft_bins = 1 + n_fft // 2
    if n < 1:
        raise DataError("filterbank needs at least one filter")
    if n > fft_bins:
        raise DataError(f"{n} mel filters exceed the {fft_bins} FFT bins available")
    points_hz = mel_to_hz(np.linspace(0.0, hz_to_mel(PIPELINE_SAMPLE_RATE / 2.0), n + 2))
    bin_hz = np.arange(fft_bins) * PIPELINE_SAMPLE_RATE / n_fft
    matrix = np.zeros((n, fft_bins))
    for i in range(n):
        lo, center, hi = points_hz[i], points_hz[i + 1], points_hz[i + 2]
        rising = (bin_hz - lo) / (center - lo)
        falling = (hi - bin_hz) / (hi - center)
        matrix[i] = np.clip(np.minimum(rising, falling), 0.0, None)
    return matrix


def logmel(clip: AudioClip, cfg: TfrConfig) -> Tfr:
    """log(filterbank @ magnitude + floor), shape (frames, n_mels, C).

    The magnitudes are computed and projected `LOGMEL_BLOCK` frames at a
    time, so the (frames, 1 + n_fft/2, C) spectrogram never exists whole;
    every frame is its own transform and GEMM, so the values are those of
    the whole-clip projection bit for bit.
    """
    if cfg.kind != "logmel":
        raise DataError(f"logmel called with a {cfg.kind!r} config")
    fb = build_mel_filterbank(cfg.n_mels, cfg.n_fft)
    n_frames = max(1, 1 + (clip.n_samples - FRAME_LEN) // HOP)  # too short: stft_magnitude raises
    mel = np.empty((n_frames, cfg.n_mels, clip.channels))
    for t in range(0, n_frames, LOGMEL_BLOCK):
        part = AudioClip(clip.samples[:, t * HOP:(t + LOGMEL_BLOCK - 1) * HOP + FRAME_LEN],
                         clip.sample_rate)
        # (n, f) @ (t, f, c) -> (t, n, c), BLAS-backed
        mel[t:t + LOGMEL_BLOCK] = np.matmul(fb, stft_magnitude(part, cfg).values)
    return Tfr(values=np.log(mel + LOG_FLOOR), config=cfg)


def extract(clip: AudioClip, cfg: TfrConfig) -> Tfr:
    if cfg.kind == "stft":
        return stft_magnitude(clip, cfg)
    return logmel(clip, cfg)


def window_tfr(tfr: Tfr) -> list[TfrWindow]:
    """Cut into consecutive 256-frame windows; the last one is zero-padded."""
    t = tfr.n_frames
    windows = []
    for start in range(0, t, WINDOW_FRAMES):
        chunk = tfr.values[start:start + WINDOW_FRAMES]
        valid = chunk.shape[0]
        if valid < WINDOW_FRAMES:
            padded = np.zeros((WINDOW_FRAMES,) + chunk.shape[1:], dtype=chunk.dtype)
            padded[:valid] = chunk
            chunk = padded
        windows.append(TfrWindow(values=chunk, start_frame=start, valid=valid))
    return windows
