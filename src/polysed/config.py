"""Experiment configuration files.

Plain ``key = value`` lines grouped under bracketed sections; ``#`` starts a
comment.  Errors carry the file name and line number.  Sections:

[dataset]            synthetic corpus recipe and split sizes
[model <tfr_name>]   detector hyperparameters for one feature (the section
                     name, e.g. ``logmel_64`` or ``stft_2048``, defines the
                     feature itself)
[train]              epochs, patience, batch size, numeric precision
[fusion]             which features to fuse (fitting counts errors per clip)
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .capsnet import CapsNetConfig
from .dataio import ClassSpec, SynthSpec, read_text
from .dsp import parse_tfr_name
from .errors import ConfigError, DataError


@dataclass
class DatasetConfig:
    synth: SynthSpec
    train_clips: int = 60
    eval_clips: int = 20
    val_fraction: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction {self.val_fraction} outside [0, 1)")
        if self.n_val >= self.train_clips:
            raise ConfigError(f"val_fraction {self.val_fraction} of train_clips "
                              f"{self.train_clips} leaves no training clips")

    @property
    def n_val(self) -> int:
        """Validation clips, taken from the tail of the training clips; at least one."""
        return max(1, int(round(self.val_fraction * self.train_clips)))

    @property
    def vocabulary(self) -> list[str]:
        return self.synth.vocabulary


@dataclass
class TrainConfig:
    epochs: int = 100
    patience: int = 20
    batch_size: int = 8
    precision: str = "f64"


@dataclass
class FusionConfig:
    tfrs: list[str] = field(default_factory=list)


@dataclass
class ExperimentConfig:
    dataset: DatasetConfig
    models: dict[str, CapsNetConfig]
    train: TrainConfig
    fusion: FusionConfig

    @property
    def seed(self) -> int:
        return self.dataset.synth.seed

    @property
    def vocabulary(self) -> list[str]:
        return self.dataset.vocabulary


def _parse_sections(path: Path, text: str) -> list[tuple[str, int, dict[str, tuple[int, str]]]]:
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"{path}:{lineno}: unterminated section header")
            current = (" ".join(line[1:-1].split()), lineno, {})
            if any(current[0] == section[0] for section in sections):
                raise ConfigError(f"{path}:{lineno}: repeated section [{current[0]}]")
            sections.append(current)
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in current[2]:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        current[2][key] = (lineno, value)
    return sections


class _Section:
    def __init__(self, path, name, lineno, entries):
        self.path = path
        self.name = name
        self.lineno = lineno
        self.entries = dict(entries)
        self.lines = {key: line for key, (line, _) in self.entries.items()}

    def error(self, key, message):
        raise ConfigError(f"{self.path}:{self.lines.get(key, self.lineno)}: {message}")

    def take(self, key, convert):
        if key not in self.entries:
            raise ConfigError(
                f"{self.path}:{self.lineno}: section [{self.name}] is missing key {key!r}")
        lineno, value = self.entries.pop(key)
        try:
            return convert(value)
        except (ValueError, TypeError):
            raise ConfigError(f"{self.path}:{lineno}: cannot parse {key!r} from {value!r}") from None
        except (ConfigError, DataError) as exc:
            raise ConfigError(f"{self.path}:{lineno}: {key}: {exc}") from None

    def given(self, **converters) -> dict:
        """The keys this section sets, converted; the rest keep their
        dataclass defaults."""
        return {key: self.take(key, convert) for key, convert in converters.items()
                if key in self.entries}

    def build(self, cls, **values):
        """``cls(**values)``; a rejected value is reported at the line of the
        first key its message names, else at the section header."""
        try:
            return cls(**values)
        except (ConfigError, DataError) as exc:
            message = str(exc)
            named = [(message.find(key), key) for key in self.lines if key in message]
            self.error(min(named)[1] if named else None, message)

    def finish(self):
        if self.entries:
            key = next(iter(self.entries))
            lineno = self.entries[key][0]
            raise ConfigError(
                f"{self.path}:{lineno}: unknown key {key!r} in section [{self.name}]")


def _count(value: str) -> int:
    n = int(value)
    if n < 1:
        raise ConfigError(f"must be at least 1, got {n}")
    return n


def _finite(value: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ConfigError(f"must be finite, got {value!r}")
    return x


def _precision(value: str) -> str:
    if value not in ("f64", "f32"):
        raise ConfigError(f"must be f64 or f32, got {value!r}")
    return value


def _int_list(value: str) -> tuple[int, ...]:
    return tuple(int(v.strip()) for v in value.split(",") if v.strip())


def _pair(convert):
    """Parser of exactly two comma-separated values."""
    def parse(value: str) -> tuple:
        first, second = (convert(v) for v in value.split(","))  # else ValueError
        return first, second
    return parse


def _classes(value: str) -> tuple[ClassSpec, ...]:
    """``label:kind:lo-hi`` entries, comma separated."""
    out = []
    for item in value.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) != 3 or "-" not in parts[2]:
            raise ValueError(item)
        lo, hi = parts[2].split("-", 1)
        out.append(ClassSpec(parts[0].strip(), parts[1].strip(), _finite(lo), _finite(hi)))
    if not out:
        raise ValueError(value)
    return tuple(out)


def _names(value: str) -> list[str]:
    names = [v.strip() for v in value.split(",") if v.strip()]
    if len(set(names)) != len(names):
        raise ConfigError(f"names a feature twice in {value!r}")
    return names


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = read_text(path)
    except DataError as exc:  # missing, unreadable, a directory, not UTF-8
        raise ConfigError(str(exc)) from None
    dataset = None
    train = None
    fusion = None
    models: dict[str, CapsNetConfig] = {}
    model_order: list[str] = []

    for name, lineno, entries in _parse_sections(path, text):
        sec = _Section(path, name, lineno, entries)
        if name == "dataset":
            synth = sec.build(SynthSpec, classes=sec.take("classes", _classes), **sec.given(
                clip_seconds=_finite, polyphony=int, events_per_clip=_pair(int),
                event_seconds=_pair(_finite), snr_db=_pair(_finite), overlap_fraction=_finite,
                seed=int))
            dataset = sec.build(DatasetConfig, synth=synth, **sec.given(
                train_clips=_count, eval_clips=_count, val_fraction=_finite))
            sec.finish()
        elif name.startswith("model "):
            tfr_name = name[len("model "):].strip()
            try:
                parse_tfr_name(tfr_name)
            except Exception:
                sec.error(None, f"section [model {tfr_name}] does not name a feature like logmel_64")
            if dataset is None:
                raise ConfigError(f"{path}:{lineno}: [dataset] must come before model sections")
            models[tfr_name] = sec.build(
                CapsNetConfig,
                cnn_kernels=sec.take("cnn_kernels", _int_list),
                cnn_kernel_dim=sec.take("cnn_kernel_dim", int),
                pool_dims=sec.take("pool_dims", _int_list),
                n_primary_caps=sec.take("n_primary_caps", int),
                primary_cap_dim=sec.take("primary_cap_dim", int),
                output_cap_dim=sec.take("output_cap_dim", int),
                routing_iters=sec.take("routing_iters", int),
                n_events=len(dataset.vocabulary),
                **sec.given(dropout_rate=_finite, l2_weight=_finite),
            )
            model_order.append(tfr_name)
            sec.finish()
        elif name == "train":
            train = TrainConfig(**sec.given(
                epochs=_count, patience=_count, batch_size=_count, precision=_precision))
            sec.finish()
        elif name == "fusion":
            sec.entries.pop("block_len", None)  # retired: fitting counts per clip
            fusion = FusionConfig(**sec.given(tfrs=_names))
            sec.finish()
        else:
            raise ConfigError(f"{path}:{lineno}: unknown section [{name}]")

    if dataset is None:
        raise ConfigError(f"{path}: missing [dataset] section")
    if not models:
        raise ConfigError(f"{path}: at least one [model <tfr>] section is required")
    train = train or TrainConfig()
    fusion = fusion or FusionConfig()
    if not fusion.tfrs:
        fusion.tfrs = list(model_order)
    for tfr in fusion.tfrs:
        if tfr not in models:
            raise ConfigError(f"{path}: fusion references {tfr!r} but no [model {tfr}] section exists")
    return ExperimentConfig(dataset=dataset, models=models, train=train, fusion=fusion)
