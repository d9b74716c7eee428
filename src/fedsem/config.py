"""Experiment configuration files.

INI-style sections ([dataset], [partition], [labels], [federation],
[fedsem], [output]) with strict validation: unknown sections or keys are
hard errors, so a typo can never silently fall back to a default. Every
stage seed defaults from the single federation master_seed when omitted.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

from .data import MASK_MODES, PartitionSpec
from .errors import ConfigError
from .federation import FederationConfig
from .metrics import HISTORY_FORMATS
from .protocol import FedSemConfig

_REQUIRED = object()

DATASET_SOURCES = ("synthetic", "csv")

_SCHEMA: dict[str, tuple[str, ...]] = {
    "dataset": ("source", "samples", "classes", "dim", "separation", "seed", "path", "has_header"),
    "partition": ("scheme", "num_clients", "shards_per_client", "alpha", "seed"),
    "labels": ("labeled_fraction", "mask_mode", "mask_seed"),
    "federation": (
        "clients_per_round",
        "rounds",
        "local_epochs",
        "learning_rate",
        "batch_size",
        "solver",
        "aggregation",
        "master_seed",
        "hidden_dims",
    ),
    "fedsem": (
        "phase_switch",
        "convergence_window",
        "convergence_epsilon",
        "pseudo_label_threshold",
    ),
    "output": ("directory", "formats"),
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


def _cast_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _cast_int_tuple(raw: str) -> tuple[int, ...]:
    text = raw.strip()
    if not text:
        return ()
    return tuple(int(part.strip()) for part in text.split(","))


def _cast_str_tuple(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _get(raw: dict[str, dict[str, str]], section: str, key: str, cast, default):
    entries = raw.get(section, {})
    if key not in entries:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {section}.{key}")
        return default
    value = entries[key]
    try:
        return cast(value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid value for {section}.{key}: {value!r} ({exc})") from exc


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
    """Turn raw section/key strings into a validated ExperimentConfig."""
    master_seed = _get(raw, "federation", "master_seed", int, 0)

    dataset = DatasetConfig(
        source=_get(raw, "dataset", "source", str, "synthetic"),
        samples=_get(raw, "dataset", "samples", int, 4000),
        classes=_get(raw, "dataset", "classes", int, 10),
        dim=_get(raw, "dataset", "dim", int, 16),
        separation=_get(raw, "dataset", "separation", float, 2.0),
        seed=_get(raw, "dataset", "seed", int, master_seed),
        path=_get(raw, "dataset", "path", str, None),
        has_header=_get(raw, "dataset", "has_header", _cast_bool, False),
    )
    partition = PartitionSpec(
        scheme=_get(raw, "partition", "scheme", str, "iid"),
        num_clients=_get(raw, "partition", "num_clients", int, 20),
        shards_per_client=_get(raw, "partition", "shards_per_client", int, None),
        alpha=_get(raw, "partition", "alpha", float, None),
        seed=_get(raw, "partition", "seed", int, master_seed),
    )
    labels = LabelConfig(
        labeled_fraction=_get(raw, "labels", "labeled_fraction", float, 1.0),
        mask_mode=_get(raw, "labels", "mask_mode", str, "per_client"),
        mask_seed=_get(raw, "labels", "mask_seed", int, master_seed),
    )
    federation = FederationConfig(
        num_clients=partition.num_clients,
        clients_per_round=_get(raw, "federation", "clients_per_round", int, 5),
        rounds=_get(raw, "federation", "rounds", int, _REQUIRED),
        local_epochs=_get(raw, "federation", "local_epochs", int, 10),
        learning_rate=_get(raw, "federation", "learning_rate", float, 0.0001),
        batch_size=_get(raw, "federation", "batch_size", int, 32),
        solver=_get(raw, "federation", "solver", str, "adam"),
        aggregation=_get(raw, "federation", "aggregation", str, "sample_weighted"),
        master_seed=master_seed,
        hidden_dims=_get(raw, "federation", "hidden_dims", _cast_int_tuple, (32,)),
    )
    fedsem = None
    if "fedsem" in raw:
        fedsem = FedSemConfig(
            federation=federation,
            phase_switch=_get(raw, "fedsem", "phase_switch", str, "at_half_rounds"),
            convergence_window=_get(raw, "fedsem", "convergence_window", int, 5),
            convergence_epsilon=_get(raw, "fedsem", "convergence_epsilon", float, 0.005),
            pseudo_label_threshold=_get(raw, "fedsem", "pseudo_label_threshold", float, 0.0
            ),
        )
    output = OutputConfig(
        directory=_get(raw, "output", "directory", str, None),
        formats=_get(raw, "output", "formats", _cast_str_tuple, ("csv", "json")),
    )
    return ExperimentConfig(
        dataset=dataset,
        partition=partition,
        labels=labels,
        federation=federation,
        fedsem=fedsem,
        output=output,
    )


def load_config(path, overrides=(), seed: int | None = None, out_dir: str | None = None) -> ExperimentConfig:
    """Read, override, and validate an experiment file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    raw = parse_config_text(text)
    if seed is not None:
        raw = apply_overrides(raw, [f"federation.master_seed={seed}"])
    raw = apply_overrides(raw, overrides)
    if out_dir is not None:
        raw = apply_overrides(raw, [f"output.directory={out_dir}"])
    return build_config(raw)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def serialize_config(config: ExperimentConfig) -> str:
    """Render a config back to INI text in _SCHEMA order; parse(serialize(c)) == c.

    Keys whose value is None, and an absent [fedsem] section, are omitted.
    """
    blocks = []
    for section, keys in _SCHEMA.items():
        values = getattr(config, section)
        if values is None:
            continue
        lines = [f"[{section}]"]
        for key in keys:
            value = getattr(values, key)
            if value is not None:
                lines.append(f"{key} = {_format_value(value)}")
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)
