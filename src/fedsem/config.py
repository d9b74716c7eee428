"""Experiment configuration files.

INI-style sections ([dataset], [partition], [labels], [federation],
[fedsem], [output]) with strict validation: unknown sections or keys are
hard errors, so a typo can never silently fall back to a default.
``_SCHEMA`` is read from the config classes: a section's keys are its
class's fields, each read by the cast its annotation names. An omitted
key takes its class's default; only the defaults the classes lack (the
iid scheme over 20 clients, 5 clients per round, 10 local epochs,
learning rate 0.0001) live in ``build_config``. Every stage seed
defaults from the single federation master_seed, and every float key is
checked as a finite number in its interval, whether or not the run reads it.
"""

from __future__ import annotations

import configparser
from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import partial

from .data import MASK_MODES, PartitionSpec
from .errors import ConfigError, _choice, _integer, _real
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


def _cast_tuple(item: Callable[[str], object], raw: str) -> tuple:
    """A comma list: an empty value is ``()``, else every part goes through ``item``."""
    text = raw.strip()
    return tuple(item(part.strip()) for part in text.split(",")) if text else ()


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
        _choice("dataset.source", self.source, DATASET_SOURCES)
        if self.source == "csv" and not self.path:
            raise ConfigError("dataset.path is required when dataset.source = csv")
        _integer("dataset.classes", self.classes, 2)
        _real("dataset.separation", self.separation, "(0, inf)")
        _integer("dataset.samples", self.samples, 0)
        if self.source == "synthetic" and self.samples < self.classes:
            raise ConfigError("dataset.samples must be >= dataset.classes")
        _integer("dataset.dim", self.dim, 2)
        _integer("dataset.seed", self.seed, 0)


@dataclass(frozen=True)
class LabelConfig:
    labeled_fraction: float = 1.0
    mask_mode: str = "per_client"
    mask_seed: int = 0

    def __post_init__(self):
        _real("labels.labeled_fraction", self.labeled_fraction, "(0, 1]")
        _choice("labels.mask_mode", self.mask_mode, MASK_MODES)
        _integer("labels.mask_seed", self.mask_seed, 0)


@dataclass(frozen=True)
class OutputConfig:
    directory: str | None = None
    formats: tuple[str, ...] = ("csv", "json")

    def __post_init__(self):
        if not self.formats:
            raise ConfigError("output.formats must list at least one format")
        for fmt in self.formats:
            _choice("output.formats", fmt, HISTORY_FORMATS)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig
    partition: PartitionSpec
    labels: LabelConfig
    federation: FederationConfig
    fedsem: FedSemConfig | None
    output: OutputConfig


_CASTS: dict[str, Callable[[str], object]] = {
    "int": int,
    "float": float,
    "bool": _cast_bool,
    "str": str,
    "tuple[int, ...]": partial(_cast_tuple, int),
    "tuple[str, ...]": partial(_cast_tuple, str),
}
# Not keys: [partition] sets the client count; [federation] is FedSemConfig's.
_NOT_KEYS = ("federation.num_clients", "fedsem.federation")
# A section's annotation in ExperimentConfig names the class whose fields are its keys.
_SCHEMA: dict[str, dict[str, Callable[[str], object]]] = {
    section.name: {
        key.name: _CASTS[key.type.removesuffix(" | None")]
        for key in fields(globals()[section.type.removesuffix(" | None")])
        if f"{section.name}.{key.name}" not in _NOT_KEYS
    }
    for section in fields(ExperimentConfig)
}


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
    _integer("federation.master_seed", seed, 0)
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
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    seeded = [] if seed is None else [f"federation.master_seed={seed}"]
    placed = [] if out_dir is None else [f"output.directory={out_dir}"]
    return build_config(apply_overrides(parse_config_text(text), [*seeded, *overrides, *placed]))

