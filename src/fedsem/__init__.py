"""Deterministic simulator for two-phase semi-supervised federated learning.

A population of simulated clients holds non-IID, partially labeled
shards of one dataset. Phase 1 federates a classifier over the visible
labels only; the resulting model pseudo-labels the hidden samples, and
phase 2 federates over the completed data. The package reports per-round
accuracy/loss and the relative accuracy gain from exploiting unlabeled
data.
"""

# First: it decides how many threads numpy's OpenBLAS starts with.
from . import _blas  # noqa: F401
from .data import (
    ClientShard,
    Dataset,
    PartitionSpec,
    generate_synthetic,
    load_csv,
    mask_labels,
    one_hot,
    partition,
    save_csv,
    split_train_test,
)
from .errors import ConfigError, CsvParseError, RoundFailure, ShapeError, TrainingDivergence
from .federation import (
    AGGREGATIONS,
    ClientUpdate,
    Cohort,
    FederationConfig,
    ServerState,
    aggregate,
    client_round,
    evaluation_batch,
    fedavg_run,
    initial_params,
    run_fedavg,
    run_lockstep,
    run_round,
    training_view,
)
from .metrics import RoundRecord, export_history, gain, render_summary
from .model import (
    Batch,
    ModelParams,
    OptimizerState,
    SOLVERS,
    backward,
    evaluate,
    forward,
    init_optimizer,
    init_params,
    loss,
    optimizer_step,
    predict,
    train_local,
)
from .protocol import (
    ExperimentResult,
    FedSemConfig,
    converged,
    fedsem_run,
    pseudo_label,
    run_fedsem,
    run_phase1,
    run_phase2,
)

__version__ = "0.1.0"

__all__ = [
    "AGGREGATIONS",
    "Batch",
    "ClientShard",
    "ClientUpdate",
    "Cohort",
    "ConfigError",
    "CsvParseError",
    "Dataset",
    "ExperimentResult",
    "FedSemConfig",
    "FederationConfig",
    "ModelParams",
    "OptimizerState",
    "PartitionSpec",
    "RoundFailure",
    "RoundRecord",
    "SOLVERS",
    "ServerState",
    "ShapeError",
    "TrainingDivergence",
    "aggregate",
    "backward",
    "client_round",
    "converged",
    "evaluate",
    "evaluation_batch",
    "export_history",
    "fedavg_run",
    "fedsem_run",
    "forward",
    "gain",
    "generate_synthetic",
    "init_optimizer",
    "init_params",
    "initial_params",
    "load_csv",
    "loss",
    "mask_labels",
    "one_hot",
    "optimizer_step",
    "partition",
    "predict",
    "pseudo_label",
    "render_summary",
    "run_fedavg",
    "run_fedsem",
    "run_lockstep",
    "run_phase1",
    "run_phase2",
    "run_round",
    "save_csv",
    "split_train_test",
    "train_local",
    "training_view",
]
