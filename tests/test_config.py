"""Experiment-file parsing: strict keys, defaults, overrides, exact parsed configs."""

import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from fedsem.config import (
    _SCHEMA,
    DatasetConfig,
    ExperimentConfig,
    LabelConfig,
    OutputConfig,
    apply_overrides,
    build_config,
    load_config,
    parse_config_text,
)
from fedsem.data import PartitionSpec
from fedsem.federation import FederationConfig
from fedsem.protocol import FedSemConfig
from fedsem.errors import ConfigError

from conftest import canonical_federation

MINIMAL = """
[federation]
rounds = 8
"""

FULL = """
[dataset]
source = synthetic
samples = 400
classes = 4
dim = 8
separation = 3.0
seed = 7

[partition]
scheme = shards
num_clients = 8
shards_per_client = 2
seed = 9

[labels]
labeled_fraction = 0.25
mask_mode = global
mask_seed = 11

[federation]
clients_per_round = 4
rounds = 12
local_epochs = 3
learning_rate = 0.002
batch_size = 16
solver = sgd
aggregation = uniform
master_seed = 5
hidden_dims = 16,8

[fedsem]
phase_switch = on_convergence
convergence_window = 4
convergence_epsilon = 0.01
pseudo_label_threshold = 0.5

[output]
directory = out/run1
formats = csv
"""


REPO_ROOT = Path(__file__).resolve().parents[1]

CSV_SOURCE = (
    "[dataset]\nsource = csv\npath = data/things.csv\nclasses = 5\n"
    "has_header = true\n\n[federation]\nrounds = 3\n"
)
DIRICHLET = "[partition]\nscheme = dirichlet\nalpha = 0.5\n\n[federation]\nrounds = 3\n"

# Every field spelled out: this pins each default an omitted key takes.
MINIMAL_CONFIG = ExperimentConfig(
    dataset=DatasetConfig(
        source="synthetic", samples=4000, classes=10, dim=16, separation=2.0, seed=0,
        path=None, has_header=False,
    ),
    partition=PartitionSpec(
        scheme="iid", num_clients=20, shards_per_client=None, alpha=None, seed=0
    ),
    labels=LabelConfig(labeled_fraction=1.0, mask_mode="per_client", mask_seed=0),
    federation=FederationConfig(
        num_clients=20, clients_per_round=5, rounds=8, local_epochs=10, learning_rate=0.0001,
        batch_size=32, solver="adam", aggregation="sample_weighted", master_seed=0,
        hidden_dims=(32,),
    ),
    fedsem=None,
    output=OutputConfig(directory=None, formats=("csv", "json")),
)

FULL_FEDERATION = FederationConfig(
    num_clients=8, clients_per_round=4, rounds=12, local_epochs=3, learning_rate=0.002,
    batch_size=16, solver="sgd", aggregation="uniform", master_seed=5, hidden_dims=(16, 8),
)

EXPECTED = {
    "minimal": MINIMAL_CONFIG,
    "full": ExperimentConfig(
        dataset=DatasetConfig(
            source="synthetic", samples=400, classes=4, dim=8, separation=3.0, seed=7,
            path=None, has_header=False,
        ),
        partition=PartitionSpec(
            scheme="shards", num_clients=8, shards_per_client=2, alpha=None, seed=9
        ),
        labels=LabelConfig(labeled_fraction=0.25, mask_mode="global", mask_seed=11),
        federation=FULL_FEDERATION,
        fedsem=FedSemConfig(
            FULL_FEDERATION, phase_switch="on_convergence", convergence_window=4,
            convergence_epsilon=0.01, pseudo_label_threshold=0.5,
        ),
        output=OutputConfig(directory="out/run1", formats=("csv",)),
    ),
    "csv": replace(
        MINIMAL_CONFIG,
        dataset=replace(
            MINIMAL_CONFIG.dataset, source="csv", classes=5, path="data/things.csv",
            has_header=True,
        ),
        federation=replace(MINIMAL_CONFIG.federation, rounds=3),
    ),
    "dirichlet": replace(
        MINIMAL_CONFIG,
        partition=replace(MINIMAL_CONFIG.partition, scheme="dirichlet", alpha=0.5),
        federation=replace(MINIMAL_CONFIG.federation, rounds=3),
    ),
}


def config_from(text: str, overrides=()) -> ExperimentConfig:
    return build_config(apply_overrides(parse_config_text(text), overrides))


class TestParsing:
    def test_minimal_defaults(self):
        cfg = config_from(MINIMAL)
        assert cfg.federation.rounds == 8
        assert cfg.federation.learning_rate == 0.0001
        assert cfg.federation.batch_size == 32
        assert cfg.federation.num_clients == 20
        assert cfg.federation.clients_per_round == 5
        assert cfg.federation.local_epochs == 10
        assert cfg.federation.solver == "adam"
        assert cfg.labels.labeled_fraction == 1.0
        assert cfg.fedsem is None
        assert cfg.output.formats == ("csv", "json")

    def test_full_config(self):
        cfg = config_from(FULL)
        assert cfg.dataset.samples == 400
        assert cfg.partition.scheme == "shards"
        assert cfg.federation.hidden_dims == (16, 8)
        assert cfg.fedsem is not None
        assert cfg.fedsem.phase_switch == "on_convergence"
        assert cfg.output.directory == "out/run1"
        assert cfg.output.formats == ("csv",)

    def test_missing_rounds_named(self):
        with pytest.raises(ConfigError, match="federation.rounds"):
            config_from("[federation]\nlocal_epochs = 2\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="privacy"):
            config_from(MINIMAL + "\n[privacy]\nepsilon = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="federation.round"):
            config_from("[federation]\nround = 8\n")

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="federation.rounds"):
            config_from("[federation]\nrounds = soon\n")
        # Non-finite floats would slip past range checks written as x <= 0.
        for dotted in (
            "dataset.separation",
            "partition.alpha",
            "labels.labeled_fraction",
            "federation.learning_rate",
            "fedsem.convergence_epsilon",
            "fedsem.pseudo_label_threshold",
        ):
            for value in ("nan", "inf", "-inf", "1e400"):
                pattern = re.escape(f"invalid value for {dotted}: {value!r} (")
                with pytest.raises(ConfigError, match=pattern):
                    config_from(MINIMAL, overrides=[f"{dotted}={value}"])

    def test_invalid_enum_rejected(self):
        with pytest.raises(ConfigError):
            config_from("[federation]\nrounds = 2\nsolver = lbfgs\n")

    def test_num_clients_lives_in_partition(self):
        with pytest.raises(ConfigError, match="federation.num_clients"):
            config_from("[federation]\nrounds = 2\nnum_clients = 4\n")
        cfg = config_from("[partition]\nnum_clients = 7\n\n[federation]\nrounds = 2\n")
        assert cfg.federation.num_clients == 7

    def test_fedsem_section_presence_toggles_mode(self):
        assert config_from(MINIMAL).fedsem is None
        cfg = config_from(MINIMAL + "\n[fedsem]\n")
        assert cfg.fedsem is not None
        assert cfg.fedsem.phase_switch == "at_half_rounds"
        assert cfg.fedsem.pseudo_label_threshold == 0.0


class TestSeedCascade:
    def test_stage_seeds_default_from_master(self):
        cfg = config_from("[federation]\nrounds = 2\nmaster_seed = 77\n")
        assert cfg.dataset.seed == 77
        assert cfg.partition.seed == 77
        assert cfg.labels.mask_seed == 77

    def test_explicit_stage_seed_wins(self):
        cfg = config_from(
            "[dataset]\nseed = 3\n\n[federation]\nrounds = 2\nmaster_seed = 77\n"
        )
        assert cfg.dataset.seed == 3
        assert cfg.partition.seed == 77


class TestOverrides:
    def test_override_beats_file(self):
        cfg = config_from(FULL, overrides=["federation.rounds=4"])
        assert cfg.federation.rounds == 4

    def test_override_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="federation.roundz"):
            config_from(FULL, overrides=["federation.roundz=4"])

    def test_override_requires_key_value_shape(self):
        with pytest.raises(ConfigError):
            config_from(FULL, overrides=["federation.rounds"])
        with pytest.raises(ConfigError):
            config_from(FULL, overrides=["rounds=4"])

    def test_seed_flag_sets_master_and_cascades(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(MINIMAL)
        cfg = load_config(path, seed=123)
        assert cfg.federation.master_seed == 123
        assert cfg.dataset.seed == 123

    def test_out_dir_flag(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(MINIMAL)
        cfg = load_config(path, out_dir="elsewhere")
        assert cfg.output.directory == "elsewhere"

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.ini")


class TestParsedConfig:
    @pytest.mark.parametrize("name", list(EXPECTED))
    def test_equals_explicit_config(self, name):
        text = {"minimal": MINIMAL, "full": FULL, "csv": CSV_SOURCE, "dirichlet": DIRICHLET}[name]
        cfg = config_from(text)
        assert cfg == EXPECTED[name]
        # The reprs also pin each value's type: 2.0 == 2, but "2.0" != "2".
        assert repr(cfg) == repr(EXPECTED[name])


class TestSchema:
    def test_section_keys_are_config_fields(self):
        classes = {
            "dataset": DatasetConfig,
            "partition": PartitionSpec,
            "labels": LabelConfig,
            "federation": FederationConfig,
            "fedsem": FedSemConfig,
            "output": OutputConfig,
        }
        assert list(_SCHEMA) == [f.name for f in fields(ExperimentConfig)]
        for section, keys in _SCHEMA.items():
            assert set(keys) <= {f.name for f in fields(classes[section])}, section


class TestShippedCanonicalConfig:
    def test_matches_acceptance_experiment(self):
        # The shipped config must stay the exact experiment the acceptance
        # suite freezes regression values for.
        path = REPO_ROOT / "configs" / "canonical.ini"
        cfg = load_config(path)
        assert cfg.federation == canonical_federation()
        assert cfg.dataset.samples == 4000
        assert cfg.dataset.classes == 10
        assert cfg.dataset.dim == 16
        assert cfg.dataset.separation == 2.0
        assert cfg.dataset.seed == 42
        assert cfg.partition.scheme == "shards"
        assert cfg.partition.shards_per_client == 2
        assert cfg.partition.seed == 42
        assert cfg.labels.labeled_fraction == 0.2
        assert cfg.labels.mask_mode == "per_client"
        assert cfg.labels.mask_seed == 42
        assert cfg.fedsem is not None
        assert cfg.fedsem.phase_switch == "at_half_rounds"
        assert cfg.fedsem.pseudo_label_threshold == 0.0


class TestReadmeExample:
    def test_ini_example_names_every_schema_key(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        documented: dict[str, list[str]] = {}
        section = None
        for line in block.splitlines():
            header = re.match(r"\[(\w+)\]", line)
            entry = re.match(r";?\s*(\w+)\s*=", line)
            if header:
                section = header.group(1)
                documented[section] = []
            elif entry:
                documented[section].append(entry.group(1))
        assert documented == {name: list(keys) for name, keys in _SCHEMA.items()}
