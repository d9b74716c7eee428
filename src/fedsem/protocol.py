"""Two-phase semi-supervised federated training.

Phase 1 federates over each client's visibly labeled samples only. The
resulting model then fills every hidden training label with its own
prediction (pseudo-labeling, optionally gated by a confidence
threshold), and phase 2 continues federated training over the completed
data, warm-started from the phase-1 model. The headline metric is the
relative accuracy gain of phase 2 over phase 1.

Each phase, and the whole experiment (:func:`fedsem_run`), is a run for
:func:`~fedsem.federation.run_lockstep`; the blocking functions drive one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, _freeze
from .errors import ConfigError, ShapeError
from .federation import FederationConfig, ServerState, fedavg_run, run_lockstep
from .metrics import RoundRecord, gain
from .model import ModelParams, _check_inputs, _each_block

PHASE_SWITCH_MODES = ("at_half_rounds", "on_convergence")


@dataclass(frozen=True)
class FedSemConfig:
    """Two-phase settings on top of a federation configuration."""

    federation: FederationConfig
    phase_switch: str = "at_half_rounds"
    convergence_window: int = 5
    convergence_epsilon: float = 0.005
    pseudo_label_threshold: float = 0.0

    def __post_init__(self):
        if self.federation.rounds < 2:
            raise ConfigError("a two-phase run needs rounds >= 2")
        if self.phase_switch not in PHASE_SWITCH_MODES:
            raise ConfigError(
                f"unknown phase_switch {self.phase_switch!r}, "
                f"expected one of {PHASE_SWITCH_MODES}"
            )
        if self.phase_switch == "on_convergence" and self.convergence_window < 2:
            raise ConfigError("convergence_window must be >= 2 for on_convergence")
        if not 0 <= self.convergence_epsilon < math.inf:
            raise ConfigError("convergence_epsilon must be finite and >= 0")
        if not 0.0 <= self.pseudo_label_threshold <= 1.0:
            raise ConfigError("pseudo_label_threshold must be in [0, 1]")


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Everything a two-phase run produces.

    ``accuracy_phase1``, ``accuracy_phase2`` and ``gain`` are derived from
    ``history`` on construction: each phase's best test accuracy, and
    :func:`~fedsem.metrics.gain` of the two. ``pseudo_label_accuracy``
    compares the assigned pseudo-labels against the oracle ground truth
    and is None when no pseudo-labels were assigned.
    """

    model_phase1: ModelParams
    model_phase2: ModelParams
    history: tuple[RoundRecord, ...]
    pseudo_label_accuracy: float | None
    accuracy_phase1: float = field(init=False)
    accuracy_phase2: float = field(init=False)
    gain: float = field(init=False)

    def __post_init__(self):
        if self.pseudo_label_accuracy is not None and not 0.0 <= self.pseudo_label_accuracy <= 1.0:
            raise ValueError(f"pseudo_label_accuracy out of [0, 1]: {self.pseudo_label_accuracy}")
        for phase in ("phase1", "phase2"):
            accuracies = [r.test_accuracy for r in self.history if r.phase == phase]
            if not accuracies:
                raise ValueError(f"history has no {phase} record")
            object.__setattr__(self, f"accuracy_{phase}", max(accuracies))
        object.__setattr__(self, "gain", gain(self.accuracy_phase1, self.accuracy_phase2))


def converged(history, window: int, epsilon: float) -> bool:
    """True once the last ``window`` test accuracies span at most ``epsilon``."""
    records = list(history)
    if len(records) < window:
        return False
    tail = [r.test_accuracy for r in records[-window:]]
    return max(tail) - min(tail) <= epsilon


def _stop_rule(config: FedSemConfig):
    """The early-stop test a phase's rounds apply after each round."""
    if config.phase_switch == "at_half_rounds":
        return None
    return lambda history: converged(
        history, config.convergence_window, config.convergence_epsilon
    )


def run_phase1(
    config: FedSemConfig,
    shards,
    dataset: Dataset,
) -> tuple[ModelParams, tuple[RoundRecord, ...]]:
    """Federated training on observed labels up to the configured switch point.

    Model-filled labels (``pseudo_mask``) are hidden first, so they never
    train phase 1. ``at_half_rounds`` trains ``rounds // 2`` rounds.
    ``on_convergence`` trains until :func:`converged` holds, within
    ``rounds - 1`` rounds so that phase 2 keeps at least one.
    """
    state = run_lockstep([_phase1(config, shards, dataset)])[0]
    return state.global_params, state.history


def _phase1(config: FedSemConfig, shards, dataset: Dataset):
    """:func:`run_phase1` as a run; returns the federation's :class:`ServerState`."""
    fed = config.federation
    budget = fed.rounds // 2 if config.phase_switch == "at_half_rounds" else fed.rounds - 1
    return (yield from fedavg_run(
        fed,
        shards,
        replace(dataset, label_visible=_freeze(dataset.label_visible & ~dataset.pseudo_mask)),
        rounds=budget,
        phase="phase1",
        stop=_stop_rule(config),
    ))


def pseudo_label(
    model_phase1: ModelParams,
    dataset: Dataset,
    threshold: float = 0.0,
) -> Dataset:
    """Fill hidden labels with the model's confident predictions.

    Hidden samples whose top predicted probability reaches ``threshold``
    get that prediction as a visible working label, flagged in
    ``pseudo_mask``; the rest stay hidden and excluded from training.
    The input dataset (the ground-truth oracle) is never modified.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"threshold must be in [0, 1], got {threshold}")
    if dataset.num_classes != model_phase1.layer_dims[-1]:
        raise ShapeError(
            f"dataset has {dataset.num_classes} classes but the model outputs "
            f"{model_phase1.layer_dims[-1]}"
        )
    hidden = np.flatnonzero(~dataset.label_visible)
    # Each hidden row keeps its top probability and its argmax, block by block.
    confidence, predicted = np.empty(hidden.size), np.empty(hidden.size, dtype=np.int64)
    features = _check_inputs(model_phase1, dataset.features)

    def keep(block, probs):
        np.maximum.reduce(probs, axis=1, out=confidence[block])
        np.argmax(probs, axis=1, out=predicted[block])

    _each_block(model_phase1, features, hidden, keep)
    confident = confidence >= threshold
    filled = hidden[confident]

    labels = np.array(dataset.labels, copy=True)
    labels[filled] = predicted[confident]
    visible = np.array(dataset.label_visible, copy=True)
    visible[filled] = True
    pseudo = np.array(dataset.pseudo_mask, copy=True)
    pseudo[filled] = True
    return replace(
        dataset, labels=_freeze(labels), label_visible=_freeze(visible), pseudo_mask=_freeze(pseudo)
    )


def run_phase2(
    model_phase1: ModelParams,
    dataset: Dataset,
    config: FedSemConfig,
    shards,
    start_round: int,
) -> tuple[ModelParams, tuple[RoundRecord, ...]]:
    """Federated training over the pseudo-completed data, warm-started.

    Round indices continue from ``start_round``. Runs for the remaining
    budget (total rounds minus ``start_round``); in on_convergence mode
    it stops earlier once :func:`converged` holds over phase 2's own
    history.
    """
    start = ServerState(model_phase1, round=start_round)
    state = run_lockstep([_phase2(start, dataset, config, shards)])[0]
    return state.global_params, state.history


def _phase2(start: ServerState, dataset: Dataset, config: FedSemConfig, shards):
    """:func:`run_phase2` as a run continuing ``start``; returns the final state."""
    fed = config.federation
    budget = fed.rounds - start.round
    if budget < 1:
        raise ConfigError(f"no phase-2 round budget left after {start.round} rounds")
    return (yield from fedavg_run(
        fed, shards, dataset, rounds=budget, start=start, phase="phase2",
        stop=_stop_rule(config),
    ))


def run_fedsem(config: FedSemConfig, shards, dataset: Dataset) -> ExperimentResult:
    """Full two-phase experiment: phase 1, pseudo-labeling, phase 2."""
    return run_lockstep([fedsem_run(config, shards, dataset)])[0]


def fedsem_run(config: FedSemConfig, shards, dataset: Dataset):
    """:func:`run_fedsem` as a run for :func:`~fedsem.federation.run_lockstep`.

    Phase 2 continues the federation state phase 1 leaves: its model,
    its next round index and its history.
    """
    phase1 = yield from _phase1(config, shards, dataset)
    labeled = pseudo_label(phase1.global_params, dataset, config.pseudo_label_threshold)

    new_pseudo = labeled.pseudo_mask & ~dataset.pseudo_mask
    if new_pseudo.any():
        pseudo_accuracy = float(
            np.mean(labeled.labels[new_pseudo] == dataset.labels[new_pseudo])
        )
    else:
        pseudo_accuracy = None

    phase2 = yield from _phase2(phase1, labeled, config, shards)
    return ExperimentResult(
        phase1.global_params, phase2.global_params, phase2.history, pseudo_accuracy
    )
