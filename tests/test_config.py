"""Experiment-file parsing: strict keys, defaults, overrides, exact parsed configs."""

import functools
import math
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import fedsem as fs
from fedsem.config import (
    _SCHEMA,
    DATASET_SOURCES,
    DatasetConfig,
    ExperimentConfig,
    LabelConfig,
    OutputConfig,
    apply_overrides,
    build_config,
    load_config,
    parse_config_text,
)
from fedsem.data import MASK_MODES, PARTITION_SCHEMES, PartitionSpec, generate_synthetic
from fedsem.federation import FederationConfig
from fedsem.metrics import HISTORY_FORMATS
from fedsem.protocol import PHASE_SWITCH_MODES, FedSemConfig
from fedsem.errors import ConfigError
from fedsem.seeding import derive_seed

from conftest import canonical_federation, make_records

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
        # Every float key is checked, even where the run does not read it (alpha under iid).
        for dotted, field, interval in (
            ("dataset.separation", "dataset.separation", "(0, inf)"),
            ("partition.alpha", "alpha", "(0, inf)"),
            ("labels.labeled_fraction", "labels.labeled_fraction", "(0, 1]"),
            ("federation.learning_rate", "learning_rate", "(0, inf)"),
            ("fedsem.convergence_epsilon", "convergence_epsilon", "[0, inf)"),
            ("fedsem.pseudo_label_threshold", "pseudo_label_threshold", "[0, 1]"),
        ):
            for value in ("nan", "inf", "-inf", "1e400"):
                message = f"{field} must be a finite number in {interval}, got {float(value)!r}"
                with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
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

    def test_byte_order_mark_skipped(self, tmp_path):
        plain = REPO_ROOT / "configs" / "canonical.ini"
        marked = tmp_path / "marked.ini"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_config(marked) == load_config(plain)

    def test_non_utf8_file_is_config_error(self, tmp_path):
        path = tmp_path / "latin1.ini"
        path.write_bytes(b"# caf\xe9\n" + MINIMAL.encode())
        with pytest.raises(ConfigError, match="^cannot read config file: 'utf-8' codec"):
            load_config(path)


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

    # The schema is read from the config classes; these are the two fields
    # it skips, so neither may be set as a key.
    @pytest.mark.parametrize("dotted", ["federation.num_clients", "fedsem.federation"])
    def test_field_that_is_not_a_key_is_rejected(self, dotted):
        with pytest.raises(ConfigError, match=f"^{re.escape(f'unknown key {dotted}')}$"):
            config_from(MINIMAL, overrides=[f"{dotted}=3"])


TINY_MODEL = fs.init_params((2, 2), 0)
# Two rows; the second row's label is hidden.
TINY_DATASET = fs.Dataset(np.zeros((2, 2)), [0, 1], [True, False], 2)


def train_tiny(*args, **kwargs):
    """train_local of TINY_MODEL on two rows; the rest of the arguments follow the batch."""
    return fs.train_local(TINY_MODEL, fs.Batch(np.zeros((2, 2)), np.eye(2)), *args, **kwargs)


# Each integer setting a library caller passes, as (test id, field, call that sets it to v).
INTEGER_SETTINGS = [
    ("num_clients", "num_clients", lambda v: canonical_federation(num_clients=v)),
    ("clients_per_round", "clients_per_round", lambda v: canonical_federation(clients_per_round=v)),
    ("rounds", "rounds", lambda v: canonical_federation(rounds=v)),
    ("local_epochs", "local_epochs", lambda v: canonical_federation(local_epochs=v)),
    ("batch_size", "batch_size", lambda v: canonical_federation(batch_size=v)),
    ("master_seed", "master_seed", lambda v: canonical_federation(master_seed=v)),
    ("num_samples", "num_samples", lambda v: fs.ClientUpdate(0, fs.init_params((2, 2), 0), v)),
    ("fedavg_run-rounds", "rounds", lambda v: next(
        fs.fedavg_run(canonical_federation(), [], None, rounds=v)
    )),
    ("partition-num_clients", "num_clients", lambda v: PartitionSpec("iid", v)),
    ("partition-seed", "partition seed", lambda v: PartitionSpec("iid", 3, seed=v)),
    ("shards_per_client", "shards_per_client", lambda v: PartitionSpec(
        "shards", 3, shards_per_client=v
    )),
    ("shards_per_client-iid", "shards_per_client", lambda v: PartitionSpec(
        "iid", 3, shards_per_client=v
    )),
    ("Dataset-num_classes", "num_classes", lambda v: fs.Dataset(
        np.zeros((2, 2)), [0, 1], [True, True], v
    )),
    ("client_id", "client_id", lambda v: fs.ClientShard(v, [0, 1])),
    ("generate-num_classes", "num_classes", lambda v: generate_synthetic(60, v, 4, 2.0, seed=1)),
    ("generate-n_samples", "n_samples", lambda v: generate_synthetic(v, 2, 4, 2.0, seed=1)),
    ("generate-dim", "dim", lambda v: generate_synthetic(60, 3, v, 2.0, seed=1)),
    ("generate-seed", "seed", lambda v: generate_synthetic(60, 3, 4, 2.0, seed=v)),
    ("dataset.samples", "dataset.samples", lambda v: DatasetConfig(samples=v, classes=2)),
    ("dataset.samples-csv", "dataset.samples", lambda v: DatasetConfig(
        source="csv", path="data.csv", samples=v
    )),
    ("dataset.classes", "dataset.classes", lambda v: DatasetConfig(classes=v)),
    ("dataset.dim", "dataset.dim", lambda v: DatasetConfig(dim=v)),
    ("dataset.dim-csv", "dataset.dim", lambda v: DatasetConfig(
        source="csv", path="data.csv", dim=v
    )),
    ("dataset.seed", "dataset.seed", lambda v: DatasetConfig(seed=v)),
    ("labels.mask_seed", "labels.mask_seed", lambda v: LabelConfig(mask_seed=v)),
    ("federation.master_seed", "federation.master_seed", lambda v: config_from(
        MINIMAL, overrides=[f"federation.master_seed={v}"]
    )),
    ("convergence_window", "convergence_window", lambda v: FedSemConfig(
        canonical_federation(), convergence_window=v
    )),
    ("converged-window", "window", lambda v: fs.converged([], window=v, epsilon=0.1)),
    ("train_local-epochs", "epochs", lambda v: train_tiny(v, 1, 0.1)),
    ("train_local-batch_size", "batch_size", lambda v: train_tiny(1, v, 0.1)),
    ("train_local-sizes", "sizes", lambda v: train_tiny(1, 1, 0.1, rng_seed=[0], sizes=[v])),
    ("train_local-rng_seed", "rng_seed", lambda v: train_tiny(1, 1, 0.1, rng_seed=v)),
    ("train_local-cohort-rng_seed", "rng_seed", lambda v: train_tiny(
        1, 1, 0.1, rng_seed=[v, 2], sizes=[1, 1]
    )),
    ("init_params-seed", "seed", lambda v: fs.init_params((2, 2), seed=v)),
    ("update-client_id", "client_id", lambda v: fs.ClientUpdate(v, TINY_MODEL, 1)),
    ("participant_ids", "participant_ids", lambda v: fs.RoundRecord(
        0, "phase1", 0.5, 1.0, (v,)
    )),
    ("one_hot-num_classes", "num_classes", lambda v: fs.one_hot([0, 1], v)),
    ("step_count", "step_count", lambda v: fs.OptimizerState("sgd", step_count=v)),
    ("round", "round", lambda v: fs.RoundRecord(v, "phase1", 0.5, 1.0, (0,))),
    ("derive_seed", "seed part", lambda v: derive_seed(v, 0)),
    # Over no shards no stage seed is derived, so the seed is checked where it enters.
    ("split_train_test-seed", "seed", lambda v: fs.split_train_test([], seed=v)),
    ("mask_labels-seed", "seed", lambda v: fs.mask_labels(
        fs.Dataset(np.zeros((2, 2)), [0, 1], [True, True], 2), [], 0.5, seed=v
    )),
]

# Each real setting, as (test id, field, interval, call that sets it to v, values outside).
REAL_SETTINGS = [
    ("learning_rate", "learning_rate", "(0, inf)", lambda v: canonical_federation(
        learning_rate=v
    ), (0.0, -1.0)),
    ("optimizer_step-lr", "lr", "(0, inf)", lambda v: fs.optimizer_step(
        TINY_MODEL, TINY_MODEL, fs.init_optimizer("sgd", TINY_MODEL), v
    ), (0.0,)),
    ("train_local-lr", "lr", "(0, inf)", lambda v: train_tiny(1, 1, v), (0.0, -1.0)),
    ("train_local-cohort-lr", "lr", "(0, inf)", lambda v: train_tiny(
        1, 1, v, rng_seed=[1, 2], sizes=[1, 1]
    ), (0.0,)),
    ("convergence_epsilon", "convergence_epsilon", "[0, inf)", lambda v: FedSemConfig(
        canonical_federation(), convergence_epsilon=v
    ), (-0.01,)),
    ("pseudo_label_threshold", "pseudo_label_threshold", "[0, 1]", lambda v: FedSemConfig(
        canonical_federation(), pseudo_label_threshold=v
    ), (-0.1, 1.5)),
    ("pseudo_label-threshold", "threshold", "[0, 1]", lambda v: fs.pseudo_label(
        TINY_MODEL, TINY_DATASET, v
    ), (-0.1, 1.5)),
    ("alpha", "alpha", "(0, inf)", lambda v: PartitionSpec("dirichlet", 3, alpha=v), (0.0, None)),
    ("alpha-shards", "alpha", "(0, inf)", lambda v: PartitionSpec(
        "shards", 3, shards_per_client=1, alpha=v
    ), (0.0, -1.0)),
    ("dataset.separation", "dataset.separation", "(0, inf)", lambda v: DatasetConfig(
        separation=v
    ), (0.0,)),
    ("dataset.separation-csv", "dataset.separation", "(0, inf)", lambda v: DatasetConfig(
        source="csv", path="data.csv", separation=v
    ), (0.0,)),
    ("class_separation", "class_separation", "(0, inf)", lambda v: generate_synthetic(
        60, 3, 4, v, seed=1
    ), (0.0,)),
    ("labels.labeled_fraction", "labels.labeled_fraction", "(0, 1]", lambda v: LabelConfig(
        labeled_fraction=v
    ), (0.0, 1.5)),
    ("mask_labels-labeled_fraction", "labeled_fraction", "(0, 1]", lambda v: fs.mask_labels(
        TINY_DATASET, [], v
    ), (0.0, 1.5)),
    ("split-ratio", "ratio", "(0, 1)", lambda v: fs.split_train_test([], ratio=v), (0.0, 1.0)),
    ("converged-epsilon", "epsilon", "[0, inf)", lambda v: fs.converged(
        make_records([0.5, 0.5]), 2, v
    ), (-1.0,)),
]

# Each named-option setting, as (test id, field, options, call that sets it to v).
CHOICE_SETTINGS = [
    ("solver", "solver", fs.SOLVERS, lambda v: canonical_federation(solver=v)),
    ("aggregation", "aggregation", fs.AGGREGATIONS, lambda v: canonical_federation(
        aggregation=v
    )),
    ("OptimizerState-solver", "solver", fs.SOLVERS, lambda v: fs.OptimizerState(v)),
    ("train_local-solver", "solver", fs.SOLVERS, lambda v: train_tiny(1, 1, 0.1, solver=v)),
    ("aggregate-scheme", "aggregation", fs.AGGREGATIONS, lambda v: fs.aggregate(
        [fs.ClientUpdate(0, TINY_MODEL, 1)], v
    )),
    ("partition-scheme", "partition scheme", PARTITION_SCHEMES, lambda v: PartitionSpec(v, 3)),
    ("mask_labels-mode", "mask mode", MASK_MODES, lambda v: fs.mask_labels(
        TINY_DATASET, [], 0.5, mode=v
    )),
    ("labels.mask_mode", "labels.mask_mode", MASK_MODES, lambda v: LabelConfig(mask_mode=v)),
    ("dataset.source", "dataset.source", DATASET_SOURCES, lambda v: DatasetConfig(source=v)),
    ("phase_switch", "phase_switch", PHASE_SWITCH_MODES, lambda v: FedSemConfig(
        canonical_federation(), phase_switch=v
    )),
    ("output.formats", "output.formats", HISTORY_FORMATS, lambda v: OutputConfig(
        formats=("csv", v)
    )),
    ("export_history-format", "history format", HISTORY_FORMATS, lambda v: fs.export_history(
        [], "never-written.csv", v
    )),
]


class TestLibraryConstructors:
    # Library callers skip the experiment file's casts, so each constructor
    # must itself reject a non-finite or non-integral setting and name it.
    @pytest.mark.parametrize(
        "field, build",
        [
            ("alpha", lambda: PartitionSpec("dirichlet", 3, alpha=math.nan)),
            ("alpha", lambda: PartitionSpec("dirichlet", 3, alpha=math.inf)),
            ("convergence_epsilon", lambda: FedSemConfig(
                canonical_federation(), phase_switch="on_convergence", convergence_window=2,
                convergence_epsilon=math.nan,
            )),
            ("learning_rate", lambda: canonical_federation(learning_rate=math.nan)),
            ("learning_rate", lambda: canonical_federation(learning_rate=math.inf)),
            ("hidden_dims", lambda: canonical_federation(hidden_dims=(2.7,))),
            ("dataset.separation", lambda: DatasetConfig(separation=math.nan)),
            ("dataset.separation", lambda: DatasetConfig(separation=math.inf)),
            ("class_separation", lambda: generate_synthetic(60, 3, 4, math.nan, seed=1)),
            ("class_separation", lambda: generate_synthetic(60, 3, 4, math.inf, seed=1)),
            ("layer_dims", lambda: fs.init_params((5, 2.5, 4), 0)),
            ("layer_dims", lambda: fs.ModelParams.unflatten((5, 2.5, 4), np.zeros(24))),
            # A scalar integer setting rejects every float, 2.0 included.
            *[
                (field, functools.partial(build, v))
                for _, field, build in INTEGER_SETTINGS
                for v in (2.5, 2.0)
            ],
        ],
        ids=[
            "alpha-nan", "alpha-inf", "convergence_epsilon-nan", "learning_rate-nan",
            "learning_rate-inf", "hidden_dims-2.7", "separation-nan", "separation-inf",
            "class_separation-nan", "class_separation-inf", "init_params-layer_dims-2.5",
            "unflatten-layer_dims-2.5",
            *[f"{name}-{v}" for name, _, _ in INTEGER_SETTINGS for v in (2.5, 2.0)],
        ],
    )
    def test_non_finite_or_non_integral_setting_rejected(self, field, build):
        with pytest.raises(ConfigError, match=re.escape(field)):
            build()

    @pytest.mark.parametrize(
        "field, interval, build, value",
        [
            (field, interval, build, v)
            for _, field, interval, build, outside in REAL_SETTINGS
            for v in (math.nan, math.inf, *outside)
        ],
        ids=[
            f"{name}-{v}"
            for name, _, _, _, outside in REAL_SETTINGS
            for v in (math.nan, math.inf, *outside)
        ],
    )
    def test_real_setting_outside_its_interval_rejected(self, field, interval, build, value):
        message = f"{field} must be a finite number in {interval}, got {value!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build(value)

    @pytest.mark.parametrize(
        "field, options, build",
        [(field, options, build) for _, field, options, build in CHOICE_SETTINGS],
        ids=[name for name, _, _, _ in CHOICE_SETTINGS],
    )
    def test_unknown_option_rejected(self, field, options, build):
        message = f"{field} must be one of {options}, got 'rmsprop'"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build("rmsprop")

    def test_real_settings_take_their_closed_bounds_and_any_real_type(self):
        fedsem = FedSemConfig(
            canonical_federation(learning_rate=np.float32(0.5)), convergence_epsilon=0,
            pseudo_label_threshold=1,
        )
        assert (fedsem.convergence_epsilon, fedsem.pseudo_label_threshold) == (0, 1)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                ["dataset.source=csv", "dataset.path=x.csv", "dataset.samples=-5"],
                "dataset.samples must be non-negative, got -5",
            ),
            (
                ["dataset.source=csv", "dataset.path=x.csv", "dataset.dim=0"],
                "dataset.dim must be >= 2, got 0",
            ),
            (
                ["partition.scheme=iid", "partition.shards_per_client=0"],
                "shards_per_client must be >= 1, got 0",
            ),
            (
                ["partition.scheme=dirichlet", "partition.alpha=0.5",
                 "partition.shards_per_client=-3"],
                "shards_per_client must be >= 1, got -3",
            ),
        ],
        ids=["csv-samples", "csv-dim", "iid-shards_per_client", "dirichlet-shards_per_client"],
    )
    def test_count_below_its_bound_rejected_where_unread(self, overrides, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from(MINIMAL, overrides=overrides)

    def test_layer_width_below_one_rejected(self):
        with pytest.raises(ConfigError, match=r"^hidden_dims must be >= 1, got 0$"):
            canonical_federation(hidden_dims=(4, 0))

    def test_integer_like_settings_accepted(self):
        # Anything with __index__ is an integer; a sequence keeps exact float values.
        fed = canonical_federation(
            rounds=np.int64(3), clients_per_round=True, master_seed=np.int64(7),
            hidden_dims=(2.0,),
        )
        assert (fed.rounds, fed.clients_per_round, fed.hidden_dims) == (3, 1, (2,))
        assert derive_seed(np.int64(3), True) == derive_seed(3, 1)
        assert PartitionSpec("shards", np.int64(4), shards_per_client=True).shards_per_client
        assert fs.init_params((np.int64(5), 2.0, 4), 0).layer_dims == (5, 2, 4)
        assert fs.converged(make_records([0.5]), window=True, epsilon=0.0)


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

    def test_ini_example_builds_the_canonical_config(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        assert build_config(parse_config_text(block)) == load_config(
            REPO_ROOT / "configs" / "canonical.ini"
        )

    def test_python_examples_run(self):
        # The library examples build on one another, so they run in order
        # in one namespace.
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        namespace: dict = {}
        for block in re.findall(r"```python\n(.*?)```", readme, re.S):
            exec(compile(block, "README.md", "exec"), namespace)
        assert namespace["result_a"].accuracy_phase2 == namespace["result"].accuracy_phase2
