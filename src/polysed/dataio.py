"""File formats, training targets, and the synthetic corpus generator.

Formats (all little-endian, all round-trip exactly as documented):

* WAV: RIFF/WAVE, 16-bit PCM only, 1 or 2 channels.  Reading scales by
  1/32768; writing scales by 32768 with clipping to the int16 range, so a
  write/read trip moves any sample by at most 1/32768.
* Annotations: tab-separated ``onset<TAB>offset<TAB>label`` lines, seconds
  with 3 decimals, sorted by onset on write.
* Binary container (.tfr feature archives, .ckpt checkpoints, .pred
  prediction matrices): a magic (``PSTF``, ``PSCK``, ``PSPR``), version u32
  (``CONTAINER_VERSION``; reading refuses any other, such as the version-1
  layouts of earlier releases), JSON header length u64, the JSON header,
  then the raw arrays back to back as its ``arrays`` manifest lists them
  (``name``, ``shape``, ``dtype``, ``offset``, ``nbytes``).  Header keys:
  .tfr ``tfr`` (the feature name) and the framing ``hop_ms``, ``frame_ms``,
  ``log_floor`` (always the method's; reading rejects others), array
  ``values`` <f4 (frame, bin, channel); .ckpt ``config``, ``freq_bins``,
  ``channels``, ``dtype``, ``history``, ``provenance``, one array per
  parameter, each as ``CapsNetModel.build`` makes it for the header's
  config, geometry and dtype; .pred ``hop`` and ``labels``, array ``scores``
  <f4.
* Fusion parameters: JSON text; floats serialize via ``repr`` so parsing
  returns the identical doubles.

Every reader goes through :func:`read_file` and checks each size and offset
against its header, so a missing, truncated or corrupt artifact raises
:class:`DataError` naming the path.  So do NaN or Inf in a .tfr or .ckpt, a
.pred score outside [0, 1] (a NaN score reads; fusion calls it a numeric
error) and a fusion weight that is not positive and finite.  Every writer
goes through :func:`write_file`, so a killed process never leaves a
half-written file.
"""
from __future__ import annotations

import contextlib
import glob
import json
import math
import os
import struct
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .capsnet import CapsNetConfig, CapsNetModel
from .dsp import (FRAME_MS, HOP_MS, LOG_FLOOR, PIPELINE_SAMPLE_RATE, AudioClip, Tfr,
                  parse_tfr_name)
from .errors import DataError, PolysedError
from .fusion import FusionParams
from .metrics import EventRoll
from .rng import stream
from .tensor import Tensor

PCM16_SCALE = 32768.0
FADE_SECONDS = 0.01  # each synthetic event fades in and out over this long


def read_file(path) -> bytes:
    """The whole file; a missing or unreadable file is a DataError naming it."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror or exc})") from None


def process_gone(pid: str) -> bool:
    """True only if the decimal text `pid` names a process that no longer exists."""
    try:
        if int(pid) > 0:
            os.kill(int(pid), 0)  # signal 0 checks that the process exists
    except ProcessLookupError:
        return True
    except (OSError, ValueError, OverflowError):
        pass  # not a pid, or a process we may not signal
    return False


def write_file(path, data: bytes | str) -> None:
    """Replace the file with `data` (str as UTF-8) through a sibling temp
    file and os.replace, creating the parent directory, then remove the
    temp siblings of dead writers; a failed write leaves the old file and
    is a DataError naming the path."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise DataError(f"{path}: cannot write ({exc.strerror or exc})") from None
    for stale in path.parent.glob(glob.escape(f".{path.name}.") + "*.tmp"):
        if process_gone(stale.name[len(path.name) + 2:-len(".tmp")]):
            with contextlib.suppress(OSError):
                stale.unlink()


def read_text(path) -> str:
    raw = read_file(path)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None


def read_json(path):
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: malformed JSON ({exc.msg} at byte {exc.pos})") from None


def _unpack(fmt: str, raw: bytes, pos: int, path) -> tuple:
    """struct.unpack_from that reports a short buffer as a truncated file."""
    if len(raw) < pos + struct.calcsize(fmt):
        raise DataError(f"{path}: truncated header")
    return struct.unpack_from(fmt, raw, pos)


# ---------------------------------------------------------------------------
# WAV
# ---------------------------------------------------------------------------

def read_wav(path) -> AudioClip:
    """Read a 16-bit PCM RIFF/WAVE file at 16 kHz into [-1, 1] samples."""
    raw = read_file(path)
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise DataError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(raw):
        chunk_id = raw[pos:pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise DataError(f"{path}: truncated {chunk_id.decode('latin-1')!r} chunk")
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or data is None:
        raise DataError(f"{path}: missing fmt or data chunk")
    audio_format, channels, rate, _, _, bits = _unpack("<HHIIHH", fmt, 0, path)
    if audio_format != 1:
        raise DataError(f"{path}: unsupported codec {audio_format}; only 16-bit PCM is handled")
    if bits != 16:
        raise DataError(f"{path}: unsupported sample width {bits} bits; only 16-bit PCM is handled")
    if channels not in (1, 2):
        raise DataError(f"{path}: {channels} channels; only mono and stereo are handled")
    if rate != PIPELINE_SAMPLE_RATE:
        raise DataError(f"{path}: sample rate {rate} Hz, expected {PIPELINE_SAMPLE_RATE} Hz")
    if len(data) % (2 * channels):
        raise DataError(f"{path}: data chunk is not a whole number of {channels}-channel frames")
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
    write_file(path, header + payload)


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
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
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
    write_file(path, "\n".join(lines) + ("\n" if lines else ""))


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
        if self.freq_hi > PIPELINE_SAMPLE_RATE / 2:
            raise DataError(f"band of {self.label!r} reaches {self.freq_hi} Hz, above the "
                            f"{PIPELINE_SAMPLE_RATE // 2} Hz Nyquist limit")


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a seeded polyphonic corpus."""

    classes: tuple[ClassSpec, ...]
    clip_seconds: float = 10.0
    polyphony: int = 2
    events_per_clip: tuple[int, int] = (3, 6)
    event_seconds: tuple[float, float] = (0.6, 2.0)
    snr_db: tuple[float, float] = (6.0, 20.0)
    overlap_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if len(self.classes) < 1:
            raise DataError("need at least one event class")
        if self.polyphony < 1:
            raise DataError("polyphony must be at least 1")
        lo, hi = self.events_per_clip
        if not 0 <= lo <= hi or hi < 1:
            raise DataError(f"events_per_clip {self.events_per_clip} is not a range lo, hi "
                            "with 0 <= lo <= hi and hi >= 1")
        if not 0.0 <= self.overlap_fraction <= 1.0:
            raise DataError(f"overlap_fraction {self.overlap_fraction} outside [0, 1]")
        if not self.event_seconds[0] >= FADE_SECONDS:
            raise DataError(f"event_seconds must be at least {FADE_SECONDS}, the fade length")
        if self.event_seconds[0] > self.event_seconds[1]:
            raise DataError("event_seconds range is inverted")
        if self.snr_db[0] > self.snr_db[1]:
            raise DataError("snr_db range is inverted")
        if self.event_seconds[1] >= self.clip_seconds:
            raise DataError("event_seconds must stay below clip_seconds")

    @property
    def vocabulary(self) -> list[str]:
        return [c.label for c in self.classes]


def _event_wave(cls: ClassSpec, duration: float, sr: int, rng: np.random.Generator) -> np.ndarray:
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
    ramp = max(1, int(FADE_SECONDS * sr))  # fades avoid clicks
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


def generate_clip(spec: SynthSpec, rng: np.random.Generator) -> tuple[AudioClip, Annotation]:
    """One seeded polyphonic clip with exactly known annotations.

    Event onsets land on the millisecond grid so the annotation file's three
    decimals are lossless.  At least `overlap_fraction` of the events are
    placed to overlap an event of another class, within the polyphony cap.
    """
    sr = PIPELINE_SAMPLE_RATE
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
    out = []
    for i in range(n_clips):
        clip_id = f"{name_prefix}_{i:04d}"
        clip, ann = generate_clip(spec, stream(spec.seed, clip_id))
        out.append((clip_id, clip, ann))
    return out


# ---------------------------------------------------------------------------
# Binary container: feature archives, checkpoints, prediction matrices
# ---------------------------------------------------------------------------

CONTAINER_VERSION = 2
_PREFIX = "<IQ"  # container version, JSON header length; follows the 4-byte magic
_TFR_MAGIC = b"PSTF"
_CKPT_MAGIC = b"PSCK"
_PRED_MAGIC = b"PSPR"


def _write_container(path, magic: bytes, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write `header` plus the manifest of `arrays`, then the arrays little-endian."""
    manifest, blobs, offset = [], [], 0
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype=arr.dtype.newbyteorder("<"))
        blobs.append(arr.tobytes())
        manifest.append({"name": name, "shape": list(arr.shape), "dtype": arr.dtype.str,
                         "offset": offset, "nbytes": len(blobs[-1])})
        offset += len(blobs[-1])
    head = json.dumps({**header, "arrays": manifest}).encode("utf-8")
    write_file(path, magic + struct.pack(_PREFIX, CONTAINER_VERSION, len(head)) + head
               + b"".join(blobs))


def _read_container(path, magic: bytes, what: str, dtypes: tuple[str, ...], decode):
    """decode(header, arrays) of the container at `path`, whose manifest must
    tile the payload exactly with arrays of `dtypes`; whatever this or
    `decode` rejects is a DataError naming the path."""
    raw = read_file(path)
    if raw[:4] != magic:
        raise DataError(f"{path}: not a {what}")
    version, head_len = _unpack(_PREFIX, raw, 4, path)
    if version != CONTAINER_VERSION:
        raise DataError(f"{path}: unsupported {what} version {version}")
    pos = 4 + struct.calcsize(_PREFIX)
    if pos + head_len > len(raw):
        raise DataError(f"{path}: truncated header")
    try:
        header = json.loads(raw[pos:pos + head_len].decode("utf-8"))
        base = pos = pos + head_len
        arrays = {}
        for entry in header["arrays"]:
            name, shape = entry["name"], entry["shape"]
            if entry["dtype"] not in dtypes:
                raise DataError(f"array {name!r} has dtype {entry['dtype']!r}, expected "
                                + " or ".join(dtypes))
            if any(not isinstance(n, int) or n < 0 for n in shape):
                raise DataError(f"array {name!r} has shape {shape}")
            dtype, count = np.dtype(entry["dtype"]), math.prod(shape)
            nbytes = count * dtype.itemsize
            if (entry["offset"], entry["nbytes"]) != (pos - base, nbytes):
                raise DataError(f"array {name!r} spans {entry['nbytes']} bytes at offset "
                                f"{entry['offset']}, expected {nbytes} at {pos - base}")
            if pos + nbytes > len(raw):
                raise DataError(f"array {name!r} runs past the end of the file")
            arr = np.frombuffer(raw, dtype, count, pos).reshape(shape)
            arrays[name] = arr.astype(dtype.newbyteorder("="))
            pos += nbytes
        if pos != len(raw):
            raise DataError("payload size does not match header")
        return decode(header, arrays)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    except (KeyError, TypeError, ValueError, PolysedError) as exc:
        raise DataError(f"{path}: corrupt {what} header ({exc})") from None


def write_tfr(tfr: Tfr, path) -> None:
    header = {"tfr": tfr.config.name, "hop_ms": HOP_MS, "frame_ms": FRAME_MS,
              "log_floor": LOG_FLOOR}
    _write_container(path, _TFR_MAGIC, header, {"values": tfr.values.astype("<f4")})


def _tfr_from(header: dict, arrays: dict) -> Tfr:
    framing = header["hop_ms"], header["frame_ms"], header["log_floor"]
    if framing != (HOP_MS, FRAME_MS, LOG_FLOOR):
        raise DataError("framing hop {} ms, frame {} ms, floor {}; expected {} ms, {} ms, {}"
                        .format(*framing, HOP_MS, FRAME_MS, LOG_FLOOR))
    name = header["tfr"]
    if not isinstance(name, str):
        raise DataError(f"feature name {name!r} is not a string")
    tfr = Tfr(values=arrays["values"], config=parse_tfr_name(name))
    if tfr.n_frames == 0:
        raise DataError("no frames")
    if tfr.freq_bins != tfr.config.freq_bins:
        raise DataError(f"{tfr.freq_bins} frequency bins, but {name} has {tfr.config.freq_bins}")
    if not np.isfinite(tfr.values).all():
        raise DataError("feature values are not all finite")
    return tfr


def read_tfr(path) -> Tfr:
    return _read_container(path, _TFR_MAGIC, "feature archive", ("<f4",), _tfr_from)


def write_checkpoint(model: CapsNetModel, path, history: list | None = None,
                     provenance: dict | None = None) -> None:
    header = {"config": asdict(model.config), "freq_bins": model.freq_bins,
              "channels": model.channels, "dtype": str(model.dtype),
              "history": history or [], "provenance": provenance or {}}
    _write_container(path, _CKPT_MAGIC, header,
                     {name: model.parameters[name].numpy() for name in sorted(model.parameters)})


def _checkpoint_from(header: dict, arrays: dict) -> tuple[CapsNetModel, dict]:
    config, dtype = CapsNetConfig(**header["config"]), np.dtype(header["dtype"])
    geometry = header["freq_bins"], header["channels"]
    built = CapsNetModel.build(config, *geometry, np.random.default_rng(0), dtype).parameters
    want, got = ({name: f"{a.dtype} {a.shape}" for name, a in d.items()} for d in (built, arrays))
    for name in sorted(want.keys() | got.keys()):
        if want.get(name) != got.get(name):
            raise DataError(f"parameter {name!r} is {got.get(name, 'missing')}, but the header "
                            f"builds {want.get(name, 'no such parameter')}")
        if not np.isfinite(arrays[name]).all():
            raise DataError(f"parameter {name!r} is not all finite")
    params = {name: Tensor(arr, requires_grad=True) for name, arr in arrays.items()}
    return CapsNetModel(config, *geometry, params, dtype=dtype), header


def read_checkpoint(path) -> tuple[CapsNetModel, dict]:
    return _read_container(path, _CKPT_MAGIC, "checkpoint", ("<f4", "<f8"), _checkpoint_from)


def write_predictions(scores: np.ndarray, hop: float, labels: list[str], path) -> None:
    scores = np.asarray(scores, dtype="<f4")
    if scores.ndim != 2 or scores.shape[1] != len(labels):
        raise DataError(f"prediction matrix of shape {scores.shape} does not fit {len(labels)} labels")
    _write_container(path, _PRED_MAGIC, {"hop": float(hop), "labels": list(labels)},
                     {"scores": scores})


def _predictions_from(header: dict, arrays: dict) -> tuple[np.ndarray, float, list[str]]:
    scores, hop, labels = arrays["scores"], header["hop"], header["labels"]
    if not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
        raise DataError("labels are not a list of strings")
    if scores.ndim != 2 or scores.shape[1] != len(labels):
        raise DataError(f"prediction matrix of shape {scores.shape} does not fit {len(labels)} labels")
    if np.any((scores < 0) | (scores > 1)):  # a NaN passes here; PredictionSet refuses it
        raise DataError("scores outside [0, 1]")
    return scores, hop, labels


def read_predictions(path) -> tuple[np.ndarray, float, list[str]]:
    return _read_container(path, _PRED_MAGIC, "prediction file", ("<f4",), _predictions_from)


# ---------------------------------------------------------------------------
# Fusion parameters
# ---------------------------------------------------------------------------

def write_fusion_params(params: FusionParams, path, grid_note: str = "") -> None:
    doc = {
        "weights": [repr(float(w)) for w in params.weights],
        "biases": [repr(float(b)) for b in params.biases],
        "thresholds": [repr(float(t)) for t in params.thresholds],
        "grid": grid_note,
    }
    write_file(path, json.dumps(doc, indent=2) + "\n")


def read_fusion_params(path) -> FusionParams:
    doc = read_json(path)
    try:
        return FusionParams(
            weights=np.array([float(w) for w in doc["weights"]]),
            biases=np.array([float(b) for b in doc["biases"]]),
            thresholds=np.array([float(t) for t in doc["thresholds"]]),
        )
    except (KeyError, TypeError, ValueError, PolysedError) as exc:
        raise DataError(f"{path}: corrupt fusion parameters ({exc})") from None
