"""Experiment configuration files.

Plain ``key = value`` lines grouped under bracketed sections; ``#`` starts a
comment.  Errors carry the file name and line number.  Sections:

[dataset]            synthetic corpus recipe and split sizes
[model <tfr_name>]   detector hyperparameters for one feature (the section
                     name, e.g. ``logmel_64`` or ``stft_2048``, defines the
                     feature itself)
[train]              epochs, patience, batch size, numeric precision
[fusion]             which features to fuse and the fitting block length
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .capsnet import CapsNetConfig
from .dataio import ClassSpec, SynthSpec
from .dsp import parse_tfr_name
from .errors import ConfigError, DataError
from .fusion import DEFAULT_BLOCK_LEN


@dataclass
class DatasetConfig:
    synth: SynthSpec
    train_clips: int = 60
    eval_clips: int = 20
    val_fraction: float = 0.2

    @property
    def vocabulary(self) -> list[str]:
        return self.synth.vocabulary


@dataclass
class TrainConfig:
    epochs: int = 100
    patience: int = 20
    batch_size: int = 8
    precision: str = "f64"
    lr: float = 1.0
    rho: float = 0.95
    epsilon: float = 1e-6


@dataclass
class FusionConfig:
    tfrs: list[str] = field(default_factory=list)
    block_len: int = DEFAULT_BLOCK_LEN


@dataclass
class ExperimentConfig:
    dataset: DatasetConfig
    models: dict[str, CapsNetConfig]
    train: TrainConfig
    fusion: FusionConfig
    seed: int

    @property
    def vocabulary(self) -> list[str]:
        return self.dataset.vocabulary


def _parse_sections(path: Path) -> list[tuple[str, int, dict[str, tuple[int, str]]]]:
    sections = []
    current = None
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"{path}:{lineno}: unterminated section header")
            current = (line[1:-1].strip(), lineno, {})
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


def _precision(value: str) -> str:
    if value not in ("f64", "f32"):
        raise ConfigError(f"must be f64 or f32, got {value!r}")
    return value


def _int_list(value: str) -> tuple[int, ...]:
    return tuple(int(v.strip()) for v in value.split(",") if v.strip())


def _float_pair(value: str) -> tuple[float, float]:
    parts = [float(v.strip()) for v in value.split(",")]
    if len(parts) != 2:
        raise ValueError(value)
    return parts[0], parts[1]


def _int_pair(value: str) -> tuple[int, int]:
    parts = [int(v.strip()) for v in value.split(",")]
    if len(parts) != 2:
        raise ValueError(value)
    return parts[0], parts[1]


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
        out.append(ClassSpec(parts[0].strip(), parts[1].strip(), float(lo), float(hi)))
    if not out:
        raise ValueError(value)
    return tuple(out)


def _str_list(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    dataset = None
    train = None
    fusion = None
    models: dict[str, CapsNetConfig] = {}
    model_order: list[str] = []

    for name, lineno, entries in _parse_sections(path):
        sec = _Section(path, name, lineno, entries)
        if name == "dataset":
            synth = sec.build(SynthSpec, classes=sec.take("classes", _classes), **sec.given(
                clip_seconds=float, polyphony=int, events_per_clip=_int_pair,
                event_seconds=_float_pair, snr_db=_float_pair, overlap_fraction=float,
                seed=int))
            dataset = DatasetConfig(synth=synth, **sec.given(
                train_clips=int, eval_clips=int, val_fraction=float))
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
                **sec.given(dropout_rate=float, l2_weight=float),
            )
            model_order.append(tfr_name)
            sec.finish()
        elif name == "train":
            train = TrainConfig(**sec.given(
                epochs=_count, patience=_count, batch_size=_count, precision=_precision,
                lr=float, rho=float, epsilon=float))
            sec.finish()
        elif name == "fusion":
            fusion = FusionConfig(**sec.given(tfrs=_str_list, block_len=_count))
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
    return ExperimentConfig(dataset=dataset, models=models, train=train,
                            fusion=fusion, seed=dataset.synth.seed)
