"""Time-frequency feature extraction.

Audio enters as peak-normalized PCM at 16 kHz and leaves as one of two
representations, both framed with a 40 ms window and a 20 ms hop:

* magnitude spectrograms: Hann-windowed frames zero-padded to ``n_fft``
  points (1024 or 2048), giving ``1 + n_fft/2`` frequency bins;
* log-mel spectrograms: the 1024-point magnitude spectrogram mapped through
  a bank of ``n`` triangular mel filters, then log-compressed with a small
  floor.

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

#: FFT length backing every log-mel extraction, independent of band count.
LOGMEL_FFT = 1024


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

    @property
    def duration(self) -> float:
        return self.n_samples / self.sample_rate


@dataclass(frozen=True)
class TfrConfig:
    """One feature recipe: kind plus its scale parameter."""

    kind: str                     # "stft" or "logmel"
    n_fft: int = LOGMEL_FFT
    n_mels: int | None = None
    frame_len_ms: float = 40.0
    hop_ms: float = 20.0
    log_floor: float = 1e-10

    def __post_init__(self):
        if self.kind not in ("stft", "logmel"):
            raise DataError(f"unknown TFR kind {self.kind!r}")
        if self.kind == "logmel" and (self.n_mels is None or self.n_mels < 1):
            raise DataError("logmel requires n_mels >= 1")
        if self.n_fft < 2 or self.n_fft & (self.n_fft - 1):
            raise DataError(f"n_fft must be a power of two, got {self.n_fft}")

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

    def frame_len(self, sample_rate: int) -> int:
        return int(round(self.frame_len_ms * sample_rate / 1000.0))

    def hop(self, sample_rate: int) -> int:
        return int(round(self.hop_ms * sample_rate / 1000.0))


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

    Frame t covers the audio interval [t*hop, t*hop + frame_len).
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

    @property
    def hop_seconds(self) -> float:
        return self.config.hop_ms / 1000.0


@dataclass
class TfrWindow:
    """A fixed 256-frame slice of a Tfr; the padded tail keeps a valid count."""

    values: np.ndarray           # (WINDOW_FRAMES, freq_bins, channels)
    clip_id: str
    start_frame: int
    valid: int

    def __post_init__(self):
        if self.values.shape[0] != WINDOW_FRAMES:
            raise ShapeError(f"window must hold {WINDOW_FRAMES} frames, got {self.values.shape[0]}")
        if not (0 < self.valid <= WINDOW_FRAMES):
            raise DataError(f"valid frame count {self.valid} out of range")


@dataclass
class MelFilterbank:
    """Triangular mel filters: matrix (n_filters, fft_bins) plus band edges."""

    matrix: np.ndarray
    edges_hz: np.ndarray         # (n_filters, 3): lower, center, upper


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


def _frame_channel(x: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    n_frames = 1 + (len(x) - frame_len) // hop
    frames = np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop]
    return frames[:n_frames]


def stft_magnitude(clip: AudioClip, cfg: TfrConfig) -> Tfr:
    """Per-channel magnitude spectrogram, shape (frames, 1 + n_fft/2, C)."""
    if clip.sample_rate != PIPELINE_SAMPLE_RATE:
        raise DataError(f"expected {PIPELINE_SAMPLE_RATE} Hz input, got {clip.sample_rate} Hz")
    frame_len = cfg.frame_len(clip.sample_rate)
    hop = cfg.hop(clip.sample_rate)
    if clip.n_samples < frame_len:
        raise DataError(f"clip of {clip.n_samples} samples is shorter than one {frame_len}-sample frame")
    if frame_len > cfg.n_fft:
        raise DataError(f"frame of {frame_len} samples does not fit in n_fft={cfg.n_fft}")
    window = hann_window(frame_len)
    mags = []
    for ch in clip.samples:
        frames = _frame_channel(ch, frame_len, hop) * window
        spec = np.fft.rfft(frames, n=cfg.n_fft, axis=1)
        mags.append(np.abs(spec))
    values = np.stack(mags, axis=-1)
    out_cfg = cfg if cfg.kind == "stft" else stft_config(cfg.n_fft)
    return Tfr(values=values, config=out_cfg)


def build_mel_filterbank(n: int, n_fft: int, sample_rate: int = PIPELINE_SAMPLE_RATE) -> MelFilterbank:
    """`n` unit-peak triangular filters with centers evenly spaced in mel.

    Filter i rises over [edge_i, edge_{i+1}] and falls over
    [edge_{i+1}, edge_{i+2}], where the n+2 edges are uniform on the mel
    axis between 0 Hz and sample_rate/2.  Weights are evaluated at the
    continuous FFT bin frequencies, so every bin strictly inside the band
    receives a nonzero weight from some filter.
    """
    fft_bins = 1 + n_fft // 2
    if n < 1:
        raise DataError("filterbank needs at least one filter")
    if n > fft_bins:
        raise DataError(f"{n} mel filters exceed the {fft_bins} FFT bins available")
    points_hz = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate / 2.0), n + 2))
    bin_hz = np.arange(fft_bins) * sample_rate / n_fft
    matrix = np.zeros((n, fft_bins))
    for i in range(n):
        lo, center, hi = points_hz[i], points_hz[i + 1], points_hz[i + 2]
        rising = (bin_hz - lo) / (center - lo)
        falling = (hi - bin_hz) / (hi - center)
        matrix[i] = np.clip(np.minimum(rising, falling), 0.0, None)
    return MelFilterbank(matrix=matrix, edges_hz=np.column_stack(
        [points_hz[:-2], points_hz[1:-1], points_hz[2:]]))


def logmel(clip: AudioClip, cfg: TfrConfig) -> Tfr:
    """log(filterbank @ magnitude + floor), shape (frames, n_mels, C)."""
    if cfg.kind != "logmel":
        raise DataError(f"logmel called with a {cfg.kind!r} config")
    mag = stft_magnitude(clip, cfg)
    fb = build_mel_filterbank(cfg.n_mels, cfg.n_fft, clip.sample_rate)
    mel = np.einsum("tfc,nf->tnc", mag.values, fb.matrix)
    return Tfr(values=np.log(mel + cfg.log_floor), config=cfg)


def extract(clip: AudioClip, cfg: TfrConfig) -> Tfr:
    if cfg.kind == "stft":
        return stft_magnitude(clip, cfg)
    return logmel(clip, cfg)


def window_tfr(tfr: Tfr, clip_id: str = "") -> list[TfrWindow]:
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
        windows.append(TfrWindow(values=chunk, clip_id=clip_id, start_frame=start, valid=valid))
    return windows
