"""Experiment configuration files.

INI-style sections ([dataset], [partition], [labels], [federation],
[fedsem], [output]) with strict validation: unknown sections or keys are
hard errors, so a typo can never silently fall back to a default.
``_SCHEMA`` is the one table of keys, in file order, with the cast that
reads each. An omitted key takes its config class's default; only the
defaults the classes lack (the iid scheme over 20 clients, 5 clients per
round, 10 local epochs, learning rate 0.0001) live in ``build_config``.
Every stage seed defaults from the single federation master_seed, and
float values must be finite.
"""

from __future__ import annotations

import configparser
import math
from collections.abc import Callable
from dataclasses import dataclass

from .data import MASK_MODES, PartitionSpec
from .errors import ConfigError
from .federation import FederationConfig
from .metrics import HISTORY_FORMATS
from .protocol import FedSemConfig

DATASET_SOURCES = ("synthetic", "csv")


def _cast_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _cast_finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("expected a finite number")
    return value


def _cast_int_tuple(raw: str) -> tuple[int, ...]:
    text = raw.strip()
    if not text:
        return ()
    return tuple(int(part.strip()) for part in text.split(","))


def _cast_str_tuple(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


_SCHEMA: dict[str, dict[str, Callable[[str], object]]] = {
    "dataset": {
        "source": str,
        "samples": int,
        "classes": int,
        "dim": int,
        "separation": _cast_finite_float,
        "seed": int,
        "path": str,
        "has_header": _cast_bool,
    },
    "partition": {
        "scheme": str,
        "num_clients": int,
        "shards_per_client": int,
        "alpha": _cast_finite_float,
        "seed": int,
    },
    "labels": {"labeled_fraction": _cast_finite_float, "mask_mode": str, "mask_seed": int},
    "federation": {
        "clients_per_round": int,
        "rounds": int,
        "local_epochs": int,
        "learning_rate": _cast_finite_float,
        "batch_size": int,
        "solver": str,
        "aggregation": str,
        "master_seed": int,
        "hidden_dims": _cast_int_tuple,
    },
    "fedsem": {
        "phase_switch": str,
        "convergence_window": int,
        "convergence_epsilon": _cast_finite_float,
        "pseudo_label_threshold": _cast_finite_float,
    },
    "output": {"directory": str, "formats": _cast_str_tuple},
}


@dataclass(frozen=True)
class DatasetConfig:
    source: str = "synthetic"
    samples: int = 4000
    classes: int = 10
    dim: int = 16
    separation: float = 2.0
    seed: int = 0
    path: str | None = None
    has_header: bool = False

    def __post_init__(self):
        if self.source not in DATASET_SOURCES:
            raise ConfigError(f"dataset.source must be one of {DATASET_SOURCES}, got {self.source!r}")
        if self.source == "csv" and not self.path:
            raise ConfigError("dataset.path is required when dataset.source = csv")
        if self.source == "synthetic":
            if self.classes < 2:
                raise ConfigError(f"dataset.classes must be >= 2, got {self.classes}")
            if self.samples < self.classes:
                raise ConfigError("dataset.samples must be >= dataset.classes")
            if self.dim < 2:
                raise ConfigError(f"dataset.dim must be >= 2, got {self.dim}")
            if self.separation <= 0:
                raise ConfigError(f"dataset.separation must be positive, got {self.separation}")
        if self.seed < 0:
            raise ConfigError("dataset.seed must be non-negative")


@dataclass(frozen=True)
class LabelConfig:
    labeled_fraction: float = 1.0
    mask_mode: str = "per_client"
    mask_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.labeled_fraction <= 1.0:
            raise ConfigError(
                f"labels.labeled_fraction must be in (0, 1], got {self.labeled_fraction}"
            )
        if self.mask_mode not in MASK_MODES:
            raise ConfigError(f"unknown labels.mask_mode {self.mask_mode!r}")
        if self.mask_seed < 0:
            raise ConfigError("labels.mask_seed must be non-negative")


@dataclass(frozen=True)
class OutputConfig:
    directory: str | None = None
    formats: tuple[str, ...] = ("csv", "json")

    def __post_init__(self):
        if not self.formats:
            raise ConfigError("output.formats must list at least one format")
        for fmt in self.formats:
            if fmt not in HISTORY_FORMATS:
                raise ConfigError(f"unknown output format {fmt!r}, expected {HISTORY_FORMATS}")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig
    partition: PartitionSpec
    labels: LabelConfig
    federation: FederationConfig
    fedsem: FedSemConfig | None
    output: OutputConfig


def _section(raw: dict[str, dict[str, str]], section: str, **file_defaults) -> dict:
    """The keys the file sets in ``section``, cast, over ``file_defaults``."""
    values = dict(file_defaults)
    entries = raw.get(section, {})
    for key, cast in _SCHEMA[section].items():
        if key in entries:
            try:
                values[key] = cast(entries[key])
            except (ValueError, TypeError) as exc:
                raise ConfigError(
                    f"invalid value for {section}.{key}: {entries[key]!r} ({exc})"
                ) from exc
    return values


def _check_key(section: str, key: str | None = None) -> None:
    if section not in _SCHEMA:
        raise ConfigError(f"unknown config section [{section}]")
    if key is not None and key not in _SCHEMA[section]:
        raise ConfigError(f"unknown key {section}.{key}")


def parse_config_text(text: str) -> dict[str, dict[str, str]]:
    """Parse INI text into {section: {key: raw value}}, strictly validated."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    raw = {section: dict(parser.items(section)) for section in parser.sections()}
    for section, entries in raw.items():
        _check_key(section)
        for key in entries:
            _check_key(section, key)
    return raw


def apply_overrides(raw: dict[str, dict[str, str]], overrides) -> dict[str, dict[str, str]]:
    """Apply ``section.key=value`` strings on top of parsed raw config."""
    out = {section: dict(entries) for section, entries in raw.items()}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        dotted, value = item.split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"override key must look like section.key, got {dotted!r}")
        section, key = dotted.split(".", 1)
        section, key = section.strip(), key.strip()
        _check_key(section, key)
        out.setdefault(section, {})[key] = value.strip()
    return out


def build_config(raw: dict[str, dict[str, str]]) -> ExperimentConfig:
    """Turn raw section/key strings into a validated ExperimentConfig.

    Omitted keys take the config class's default; the arguments here are the
    defaults the classes lack, and the stage seeds follow master_seed.
    """
    fed_keys = _section(
        raw, "federation", clients_per_round=5, local_epochs=10, learning_rate=0.0001
    )
    if "rounds" not in fed_keys:
        raise ConfigError("missing required key federation.rounds")
    seed = fed_keys.get("master_seed", FederationConfig.master_seed)
    dataset = DatasetConfig(**_section(raw, "dataset", seed=seed))
    partition = PartitionSpec(**_section(raw, "partition", scheme="iid", num_clients=20, seed=seed))
    labels = LabelConfig(**_section(raw, "labels", mask_seed=seed))
    federation = FederationConfig(num_clients=partition.num_clients, **fed_keys)
    fedsem = FedSemConfig(federation, **_section(raw, "fedsem")) if "fedsem" in raw else None
    output = OutputConfig(**_section(raw, "output"))
    return ExperimentConfig(dataset, partition, labels, federation, fedsem, output)


def load_config(path, overrides=(), seed: int | None = None, out_dir: str | None = None) -> ExperimentConfig:
    """Read, override, and validate an experiment file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    seeded = [] if seed is None else [f"federation.master_seed={seed}"]
    placed = [] if out_dir is None else [f"output.directory={out_dir}"]
    return build_config(apply_overrides(parse_config_text(text), [*seeded, *overrides, *placed]))

