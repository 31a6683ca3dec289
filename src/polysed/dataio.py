"""File formats, training targets, and the synthetic corpus generator.

Formats (all little-endian, all round-trip exactly as documented):

* WAV: RIFF/WAVE, 16-bit PCM only, 1 or 2 channels.  Reading scales by
  1/32768; writing scales by 32768 with clipping to the int16 range, so a
  write/read trip moves any sample by at most 1/32768.
* Annotations: tab-separated ``onset<TAB>offset<TAB>label`` lines, seconds
  with 3 decimals, sorted by onset on write.
* Feature archive (.tfr): magic ``PSTF``, version u32, kind u8, channels
  u8, freq bins u32, frame count u32, n_fft u32, n_mels u32, hop ms f64,
  frame length ms f64, log floor f64, then float32 frames in row-major
  (frame, bin, channel) order.
* Checkpoint (.ckpt): magic ``PSCK``, version u32, JSON header length u64,
  JSON header (model config, geometry, history, provenance, parameter
  manifest with offsets), then raw float64/float32 parameter blobs.
* Prediction matrix (.pred): magic ``PSPR``, version u32, frames u32,
  events u32, hop f64, JSON label block, then float32 scores row-major.
* Fusion parameters: JSON text; floats serialize via ``repr`` so parsing
  returns the identical doubles.
"""
from __future__ import annotations

import json
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .capsnet import CapsNetConfig, CapsNetModel
from .dsp import AudioClip, Tfr, TfrConfig
from .errors import DataError
from .fusion import FusionParams
from .metrics import EventRoll
from .rng import SeededRng
from .tensor import Tensor

PCM16_SCALE = 32768.0


# ---------------------------------------------------------------------------
# WAV
# ---------------------------------------------------------------------------

def read_wav(path, expected_rate: int | None = 16000) -> AudioClip:
    """Read a 16-bit PCM RIFF/WAVE file into [-1, 1] samples."""
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise DataError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(raw):
        chunk_id = raw[pos:pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8:pos + 8 + size]
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or data is None:
        raise DataError(f"{path}: missing fmt or data chunk")
    audio_format, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if audio_format != 1:
        raise DataError(f"{path}: unsupported codec {audio_format}; only 16-bit PCM is handled")
    if bits != 16:
        raise DataError(f"{path}: unsupported sample width {bits} bits; only 16-bit PCM is handled")
    if channels not in (1, 2):
        raise DataError(f"{path}: {channels} channels; only mono and stereo are handled")
    if expected_rate is not None and rate != expected_rate:
        raise DataError(f"{path}: sample rate {rate} Hz, expected {expected_rate} Hz")
    frames = np.frombuffer(data, dtype="<i2")
    if channels == 2:
        frames = frames.reshape(-1, 2).T
    else:
        frames = frames[None, :]
    return AudioClip(frames.astype(np.float64) / PCM16_SCALE, rate)


def write_wav(clip: AudioClip, path) -> None:
    """Write 16-bit PCM; samples are clipped to [-1, 1] first."""
    samples = np.clip(clip.samples, -1.0, 1.0)
    quantized = np.clip(np.round(samples * PCM16_SCALE), -32768, 32767).astype("<i2")
    interleaved = quantized.T.reshape(-1)
    payload = interleaved.tobytes()
    channels = clip.channels
    byte_rate = clip.sample_rate * channels * 2
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, channels, clip.sample_rate,
                                    byte_rate, channels * 2, 16)
    header += b"data" + struct.pack("<I", len(payload))
    Path(path).write_bytes(header + payload)


# ---------------------------------------------------------------------------
# Annotations and event rolls
# ---------------------------------------------------------------------------

@dataclass
class Annotation:
    """Onset/offset/label triples; overlapping events are expected."""

    events: list[tuple[float, float, str]] = field(default_factory=list)

    def __post_init__(self):
        for onset, offset, label in self.events:
            if onset >= offset:
                raise DataError(f"event {label!r}: onset {onset} is not before offset {offset}")


def read_annotations(path, vocabulary: list[str] | None = None) -> Annotation:
    events = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected onset<TAB>offset<TAB>label")
        try:
            onset, offset = float(parts[0]), float(parts[1])
        except ValueError:
            raise DataError(f"{path}:{lineno}: onset/offset are not numbers") from None
        label = parts[2]
        if onset >= offset:
            raise DataError(f"{path}:{lineno}: onset {onset} is not before offset {offset}")
        if vocabulary is not None and label not in vocabulary:
            raise DataError(f"{path}:{lineno}: unknown label {label!r}")
        events.append((onset, offset, label))
    return Annotation(events=events)


def write_annotations(ann: Annotation, path) -> None:
    lines = [f"{onset:.3f}\t{offset:.3f}\t{label}"
             for onset, offset, label in sorted(ann.events)]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def annotation_to_roll(ann: Annotation, hop: float, n_frames: int,
                       vocabulary: list[str]) -> EventRoll:
    """Frame targets: frame t is active for an event iff the event covers at
    least half of the frame interval [t*hop, (t+1)*hop)."""
    if hop <= 0:
        raise DataError("hop must be positive")
    values = np.zeros((n_frames, len(vocabulary)), dtype=np.uint8)
    clip_end = n_frames * hop
    starts = np.arange(n_frames) * hop
    for onset, offset, label in ann.events:
        if label not in vocabulary:
            raise DataError(f"label {label!r} not in vocabulary {vocabulary}")
        if onset >= clip_end or offset <= 0.0:
            warnings.warn(f"event {label!r} ({onset:.3f}-{offset:.3f}s) lies outside the clip; skipped")
            continue
        overlap = np.minimum(offset, starts + hop) - np.maximum(onset, starts)
        values[overlap >= 0.5 * hop, vocabulary.index(label)] = 1
    return EventRoll(values=values, hop=hop, labels=list(vocabulary))


# ---------------------------------------------------------------------------
# Synthetic corpus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassSpec:
    """Per-class sound generator: tone, chirp, or band-passed noise burst."""

    label: str
    kind: str                    # "tone" | "chirp" | "noise"
    freq_lo: float
    freq_hi: float

    def __post_init__(self):
        if self.kind not in ("tone", "chirp", "noise"):
            raise DataError(f"unknown generator kind {self.kind!r}")
        if not 0 < self.freq_lo < self.freq_hi:
            raise DataError(f"bad frequency band [{self.freq_lo}, {self.freq_hi}]")


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a seeded polyphonic corpus."""

    classes: tuple[ClassSpec, ...]
    clip_seconds: float = 10.0
    polyphony: int = 2
    events_per_clip: tuple[int, int] = (3, 6)
    event_seconds: tuple[float, float] = (0.6, 2.0)
    snr_db: tuple[float, float] = (6.0, 20.0)
    sample_rate: int = 16000
    overlap_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if len(self.classes) < 1:
            raise DataError("need at least one event class")
        if self.polyphony < 1:
            raise DataError("polyphony must be at least 1")
        if self.events_per_clip[0] > self.events_per_clip[1]:
            raise DataError("events_per_clip range is inverted")
        if self.event_seconds[1] >= self.clip_seconds:
            raise DataError("event_seconds must stay below clip_seconds")

    @property
    def vocabulary(self) -> list[str]:
        return [c.label for c in self.classes]


def _event_wave(cls: ClassSpec, duration: float, sr: int, rng: SeededRng) -> np.ndarray:
    n = int(round(duration * sr))
    t = np.arange(n) / sr
    if cls.kind == "tone":
        f = rng.uniform(cls.freq_lo, cls.freq_hi)
        x = np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    elif cls.kind == "chirp":
        f0 = rng.uniform(cls.freq_lo, (cls.freq_lo + cls.freq_hi) / 2)
        f1 = rng.uniform((cls.freq_lo + cls.freq_hi) / 2, cls.freq_hi)
        x = np.sin(2 * np.pi * (f0 * t + (f1 - f0) / (2 * duration) * t * t))
    else:  # band-passed noise burst
        white = rng.normal(size=n)
        spec = np.fft.rfft(white)
        freqs = np.fft.rfftfreq(n, 1.0 / sr)
        spec[(freqs < cls.freq_lo) | (freqs > cls.freq_hi)] = 0.0
        x = np.fft.irfft(spec, n)
        peak = np.max(np.abs(x))
        if peak > 0:
            x = x / peak
    ramp = max(1, int(0.01 * sr))  # 10 ms fades to avoid clicks
    env = np.ones(n)
    env[:ramp] = np.linspace(0, 1, ramp)
    env[-ramp:] = np.linspace(1, 0, ramp)
    return x * env


def _concurrency_ok(intervals, candidate, polyphony):
    on, off = candidate
    points = sorted({on, off, *(o for o, _ in intervals), *(f for _, f in intervals)})
    for lo, hi in zip(points[:-1], points[1:]):
        mid = (lo + hi) / 2
        active = sum(1 for o, f in intervals if o <= mid < f)
        if on <= mid < off:
            active += 1
        if active > polyphony:
            return False
    return True


def generate_clip(spec: SynthSpec, rng: SeededRng) -> tuple[AudioClip, Annotation]:
    """One seeded polyphonic clip with exactly known annotations.

    Event onsets land on the millisecond grid so the annotation file's three
    decimals are lossless.  At least `overlap_fraction` of the events are
    placed to overlap an event of another class, within the polyphony cap.
    """
    sr = spec.sample_rate
    n_samples = int(round(spec.clip_seconds * sr))
    n_events = int(rng.integers(spec.events_per_clip[0], spec.events_per_clip[1] + 1))
    want_overlaps = int(np.ceil(spec.overlap_fraction * n_events))

    placed: list[tuple[float, float, str]] = []
    intervals: list[tuple[float, float]] = []
    for idx in range(n_events):
        force_overlap = idx < want_overlaps and placed
        for _ in range(200):
            label = spec.vocabulary[int(rng.integers(0, len(spec.classes)))]
            duration = round(float(rng.uniform(*spec.event_seconds)), 3)
            if force_overlap:
                other = placed[int(rng.integers(0, len(placed)))]
                if other[2] == label and len(spec.classes) > 1:
                    continue
                lo = max(0.0, other[0] - duration / 2)
                hi = min(other[1], spec.clip_seconds - duration)
                if hi <= lo:
                    continue
                onset = round(float(rng.uniform(lo, hi)), 3)
            else:
                onset = round(float(rng.uniform(0.0, spec.clip_seconds - duration)), 3)
            if onset < 0:
                continue
            cand = (onset, round(onset + duration, 3))
            if _concurrency_ok(intervals, cand, spec.polyphony):
                placed.append((cand[0], cand[1], label))
                intervals.append(cand)
                break
        else:
            raise DataError(
                f"cannot place {n_events} events at polyphony {spec.polyphony} "
                f"in a {spec.clip_seconds}s clip")

    mix = np.zeros((2, n_samples))
    class_by_label = {c.label: c for c in spec.classes}
    for onset, offset, label in placed:
        wave = _event_wave(class_by_label[label], offset - onset, sr, rng)
        gain = rng.uniform(0.4, 0.9)
        pan = rng.uniform(0.2, 0.8)
        start = int(round(onset * sr))
        stop = min(start + len(wave), n_samples)
        seg = wave[:stop - start] * gain
        mix[0, start:stop] += seg * np.cos(pan * np.pi / 2)
        mix[1, start:stop] += seg * np.sin(pan * np.pi / 2)

    event_rms = np.sqrt(np.mean(mix ** 2)) or 1e-3
    snr = rng.uniform(*spec.snr_db)
    noise_rms = event_rms / (10.0 ** (snr / 20.0))
    mix += rng.normal(0.0, noise_rms, size=mix.shape)

    peak = np.max(np.abs(mix))
    if peak > 0:
        mix *= 0.9 / peak
    return AudioClip(mix, sr), Annotation(events=sorted(placed))


def synthesize_dataset(spec: SynthSpec, n_clips: int,
                       name_prefix: str = "clip") -> list[tuple[str, AudioClip, Annotation]]:
    """Seeded corpus as (clip_id, audio, annotation) triples.

    Each clip draws from its own child stream, so clip i is identical no
    matter how many clips are requested.
    """
    root = SeededRng(spec.seed)
    out = []
    for i in range(n_clips):
        clip_id = f"{name_prefix}_{i:04d}"
        clip, ann = generate_clip(spec, root.child(clip_id))
        out.append((clip_id, clip, ann))
    return out


# ---------------------------------------------------------------------------
# Feature archive
# ---------------------------------------------------------------------------

_TFR_MAGIC = b"PSTF"
_TFR_KINDS = {"stft": 0, "logmel": 1}
_TFR_KIND_NAMES = {v: k for k, v in _TFR_KINDS.items()}


def write_tfr(tfr: Tfr, path) -> None:
    cfg = tfr.config
    header = _TFR_MAGIC + struct.pack(
        "<IBBIIIIddd", 1, _TFR_KINDS[cfg.kind], tfr.channels, tfr.freq_bins,
        tfr.n_frames, cfg.n_fft, cfg.n_mels or 0, cfg.hop_ms, cfg.frame_len_ms,
        cfg.log_floor)
    body = tfr.values.astype("<f4").tobytes()
    Path(path).write_bytes(header + body)


def read_tfr(path) -> Tfr:
    raw = Path(path).read_bytes()
    if raw[:4] != _TFR_MAGIC:
        raise DataError(f"{path}: not a feature archive")
    fields = struct.unpack_from("<IBBIIIIddd", raw, 4)
    version, kind, channels, bins, frames, n_fft, n_mels, hop_ms, frame_ms, floor = fields
    if version != 1:
        raise DataError(f"{path}: unsupported archive version {version}")
    offset = 4 + struct.calcsize("<IBBIIIIddd")
    values = np.frombuffer(raw, dtype="<f4", offset=offset)
    if values.size != frames * bins * channels:
        raise DataError(f"{path}: payload size does not match header")
    cfg = TfrConfig(kind=_TFR_KIND_NAMES[kind], n_fft=n_fft,
                    n_mels=n_mels or None, hop_ms=hop_ms, frame_len_ms=frame_ms,
                    log_floor=floor)
    return Tfr(values=values.reshape(frames, bins, channels).astype(np.float32),
               config=cfg)


# ---------------------------------------------------------------------------
# Model checkpoint
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"PSCK"


def write_checkpoint(model: CapsNetModel, path, history: list | None = None,
                     provenance: dict | None = None) -> None:
    names = sorted(model.parameters)
    blobs = []
    manifest = []
    offset = 0
    for name in names:
        arr = model.parameters[name].numpy()
        blob = arr.astype(arr.dtype.newbyteorder("<")).tobytes()
        manifest.append({"name": name, "shape": list(arr.shape),
                         "dtype": str(arr.dtype), "offset": offset, "nbytes": len(blob)})
        blobs.append(blob)
        offset += len(blob)
    header = {
        "format_version": 1,
        "config": {
            "cnn_kernels": list(model.config.cnn_kernels),
            "cnn_kernel_dim": model.config.cnn_kernel_dim,
            "pool_dims": list(model.config.pool_dims),
            "n_primary_caps": model.config.n_primary_caps,
            "primary_cap_dim": model.config.primary_cap_dim,
            "output_cap_dim": model.config.output_cap_dim,
            "routing_iters": model.config.routing_iters,
            "n_events": model.config.n_events,
            "dropout_rate": model.config.dropout_rate,
            "l2_weight": model.config.l2_weight,
        },
        "freq_bins": model.freq_bins,
        "channels": model.channels,
        "dtype": str(model.dtype),
        "history": history or [],
        "provenance": provenance or {},
        "params": manifest,
    }
    head = json.dumps(header).encode("utf-8")
    Path(path).write_bytes(_CKPT_MAGIC + struct.pack("<IQ", 1, len(head))
                           + head + b"".join(blobs))


def read_checkpoint(path) -> tuple[CapsNetModel, dict]:
    raw = Path(path).read_bytes()
    if raw[:4] != _CKPT_MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    version, head_len = struct.unpack_from("<IQ", raw, 4)
    if version != 1:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    base = 4 + struct.calcsize("<IQ")
    header = json.loads(raw[base:base + head_len].decode("utf-8"))
    blob_base = base + head_len
    params = {}
    for entry in header["params"]:
        start = blob_base + entry["offset"]
        arr = np.frombuffer(raw, dtype=np.dtype(entry["dtype"]),
                            count=int(np.prod(entry["shape"])) if entry["shape"] else 1,
                            offset=start)
        params[entry["name"]] = Tensor(arr.reshape(entry["shape"]).copy(), requires_grad=True)
    config = CapsNetConfig(**header["config"])
    model = CapsNetModel(config, header["freq_bins"], header["channels"], params,
                         dtype=np.dtype(header["dtype"]))
    return model, header


# ---------------------------------------------------------------------------
# Prediction matrices and fusion parameters
# ---------------------------------------------------------------------------

_PRED_MAGIC = b"PSPR"


def write_predictions(scores: np.ndarray, hop: float, labels: list[str], path) -> None:
    scores = np.asarray(scores, dtype=np.float32)
    if scores.ndim != 2:
        raise DataError(f"prediction matrix must be 2-d, got shape {scores.shape}")
    label_block = json.dumps(labels).encode("utf-8")
    header = _PRED_MAGIC + struct.pack("<IIId", 1, scores.shape[0], scores.shape[1], hop)
    header += struct.pack("<I", len(label_block)) + label_block
    Path(path).write_bytes(header + scores.astype("<f4").tobytes())


def read_predictions(path) -> tuple[np.ndarray, float, list[str]]:
    raw = Path(path).read_bytes()
    if raw[:4] != _PRED_MAGIC:
        raise DataError(f"{path}: not a prediction file")
    version, frames, events, hop = struct.unpack_from("<IIId", raw, 4)
    if version != 1:
        raise DataError(f"{path}: unsupported prediction version {version}")
    pos = 4 + struct.calcsize("<IIId")
    (label_len,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    labels = json.loads(raw[pos:pos + label_len].decode("utf-8"))
    pos += label_len
    scores = np.frombuffer(raw, dtype="<f4", offset=pos, count=frames * events)
    return scores.reshape(frames, events).copy(), hop, labels


def write_fusion_params(params: FusionParams, path, grid_note: str = "") -> None:
    doc = {
        "weights": [repr(float(w)) for w in params.weights],
        "biases": [repr(float(b)) for b in params.biases],
        "thresholds": [repr(float(t)) for t in params.thresholds],
        "block_len": params.block_len,
        "grid": grid_note,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_fusion_params(path) -> FusionParams:
    doc = json.loads(Path(path).read_text())
    return FusionParams(
        weights=np.array([float(w) for w in doc["weights"]]),
        biases=np.array([float(b) for b in doc["biases"]]),
        thresholds=np.array([float(t) for t in doc["thresholds"]]),
        block_len=int(doc["block_len"]),
    )
