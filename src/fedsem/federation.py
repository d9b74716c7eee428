"""Federated-averaging round engine.

One round: sample a client subset, broadcast the global parameters, let
each sampled client train locally on its visible-labeled samples, then
average the returned parameters and evaluate the new global model on the
union of all client test indices. The sampled clients train together, in
one lockstep :func:`~fedsem.model.train_local` call per round.

A run is a generator over its rounds; :func:`fedavg_run` is the one round
loop, and the phase runs of :mod:`fedsem.protocol` wrap it. :func:`run_lockstep`
drives one or many runs; stacked runs share each round's :func:`client_round`
call, and every blocking entry point here is the one-run case.
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Sequence
from dataclasses import dataclass

import numpy as np

from .data import ClientShard, Dataset, _freeze, _frozen, one_hot
from .errors import ConfigError, RoundFailure, ShapeError, TrainingDivergence
from .errors import _choice, _integer, _real
from .metrics import RoundRecord
from .model import (
    Batch,
    ModelParams,
    SOLVERS,
    evaluate,
    init_params,
    train_local,
)
from .seeding import derive_seed

AGGREGATIONS = ("uniform", "sample_weighted")


@dataclass(frozen=True)
class FederationConfig:
    """Knobs of the federated loop; hidden_dims sizes the shared classifier."""

    num_clients: int
    clients_per_round: int
    rounds: int
    local_epochs: int
    learning_rate: float
    batch_size: int = 32
    solver: str = "adam"
    aggregation: str = "sample_weighted"
    master_seed: int = 0
    hidden_dims: tuple[int, ...] = (32,)

    def __post_init__(self):
        dims = _frozen(self.hidden_dims, np.int64, "hidden_dims")
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in dims))
        _integer("num_clients", self.num_clients, 1)
        _integer("clients_per_round", self.clients_per_round, 1, self.num_clients)
        _integer("rounds", self.rounds, 0)
        _integer("local_epochs", self.local_epochs, 1)
        _real("learning_rate", self.learning_rate, "(0, inf)")
        _integer("batch_size", self.batch_size, 1)
        _choice("solver", self.solver, SOLVERS)
        _choice("aggregation", self.aggregation, AGGREGATIONS)
        _integer("master_seed", self.master_seed, 0)
        for width in self.hidden_dims:
            _integer("hidden_dims", width, 1)


@dataclass(frozen=True, eq=False)
class ClientUpdate:
    """A client's post-training parameters and the sample count behind them."""

    client_id: int
    params: ModelParams
    num_samples: int

    def __post_init__(self):
        _integer("client_id", self.client_id, 0)
        _integer("num_samples", self.num_samples, 1)


@dataclass(frozen=True, eq=False)
class ServerState:
    """A federation's state: global parameters, next round index, completed-round history."""

    global_params: ModelParams
    round: int
    history: tuple[RoundRecord, ...] = ()


def training_view(shard: ClientShard, dataset: Dataset) -> np.ndarray:
    """Indices this client may train on: its training samples with a visible label."""
    return shard.train_indices[dataset.label_visible[shard.train_indices]]


@dataclass(frozen=True, eq=False)
class Cohort:
    """The clients one run trains in one round, as the run yields them.

    ``clients`` lists ``(shard, view)`` pairs, ``view`` being the client's
    :func:`training_view` of ``dataset``. Every client starts from
    ``global_params`` and trains with ``config``'s solver settings and a
    seed of ``round_index``; ``phase`` names the round in errors.
    """

    global_params: ModelParams
    clients: tuple[tuple[ClientShard, np.ndarray], ...]
    dataset: Dataset
    config: FederationConfig
    round_index: int
    phase: str = "phase1"


def client_round(cohorts: Sequence[Cohort]) -> list[list[ClientUpdate]]:
    """Local training of one round's cohorts; pure in all inputs.

    The cohorts are grouped by training setting: layer dims, local epochs,
    batch size, learning rate and solver. Each group's clients are gathered
    into one batch and trained by one lockstep :func:`train_local` call,
    each client from its cohort's global parameters and with the seed
    ``derive_seed(master_seed, round_index, client_id)`` of its cohort's
    config and round. The updates come back per cohort, in cohort and client
    order. A divergence re-raises as :class:`TrainingDivergence` naming the
    client id, the cohort's index in ``cohorts``, and its phase and round.
    """
    groups: dict[tuple, list[int]] = {}
    for j, c in enumerate(cohorts):
        f = c.config
        key = (c.global_params.layer_dims, f.local_epochs, f.batch_size, f.learning_rate, f.solver)
        groups.setdefault(key, []).append(j)
    updates = [[] for _ in cohorts]
    for members in groups.values():
        group = [cohorts[j] for j in members]
        clients = [(j, shard, view) for j in members for shard, view in cohorts[j].clients]
        rows = [np.concatenate([view for _, view in c.clients]) for c in group]
        fed, classes = group[0].config, group[0].global_params.layer_dims[-1]
        batch = Batch(
            inputs=_freeze(np.concatenate([c.dataset.features[r] for c, r in zip(group, rows)])),
            targets=_freeze(one_hot(
                np.concatenate([c.dataset.labels[r] for c, r in zip(group, rows)]), classes
            )),
        )
        try:
            trained = train_local(
                [cohorts[j].global_params for j, _, _ in clients],
                batch,
                epochs=fed.local_epochs,
                batch_size=fed.batch_size,
                lr=fed.learning_rate,
                solver=fed.solver,
                rng_seed=[
                    derive_seed(cohorts[j].config.master_seed, cohorts[j].round_index, s.client_id)
                    for j, s, _ in clients
                ],
                sizes=[v.size for _, _, v in clients],
            )
        except TrainingDivergence as exc:
            j, s, _ = clients[exc.client]
            where = f"{cohorts[j].phase}, round {cohorts[j].round_index}, client {s.client_id}: "
            raise TrainingDivergence(exc.step, s.client_id, j, where) from None
        for (j, s, v), p in zip(clients, trained):
            updates[j].append(ClientUpdate(s.client_id, p, int(v.size)))
    return updates


def run_lockstep(runs: Sequence[Generator]) -> list:
    """Drive ``runs`` to their ends; returns what each run returns, in run order.

    A run is a generator that yields the :class:`Cohort` of each round it
    trains and is sent back that cohort's updates. Each tick trains every
    pending cohort in one :func:`client_round` call, so runs stack while
    they last and a finished run leaves the stack. Each run's result is
    bit-identical to driving it alone. A divergence is raised inside the
    run whose cohort diverged, at its ``yield``. The first failure that
    leaves a run ends every run and propagates, its attribute ``run`` set
    to that run's index.
    """
    results = [None] * len(runs)
    pending: dict[int, Cohort] = {}

    def advance(i: int, step: Callable, value) -> None:
        pending.pop(i, None)
        try:
            pending[i] = step(value)
        except StopIteration as done:
            results[i] = done.value
        except Exception as exc:
            exc.run = i
            raise

    for i in range(len(runs)):
        advance(i, runs[i].send, None)
    while pending:
        ticking = list(pending)
        try:
            updates = client_round([pending[i] for i in ticking])
        except TrainingDivergence as exc:
            i = ticking[exc.cohort]
            advance(i, runs[i].throw, exc)
            continue
        for i, run_updates in zip(ticking, updates):
            advance(i, runs[i].send, run_updates)
    return results


def aggregate(updates, scheme: str = "sample_weighted") -> ModelParams:
    """Average client parameters; reduction runs in client-id order.

    ``uniform`` takes the unweighted mean over the received
    updates; ``sample_weighted`` weights each by its share of the
    round's training samples. The mean is accumulated as offsets from
    the lowest-id update, which makes aggregation of identical updates
    exactly idempotent and the result independent of list order.
    """
    updates = list(updates)
    if not updates:
        raise ValueError("cannot aggregate zero updates")
    _choice("aggregation", scheme, AGGREGATIONS)
    ordered = sorted(updates, key=lambda u: u.client_id)
    for prev, u in zip(ordered, ordered[1:]):
        if prev.client_id == u.client_id:
            raise ValueError(f"two updates from client {u.client_id}")
    dims = ordered[0].params.layer_dims
    for u in ordered:
        if u.params.layer_dims != dims:
            raise ShapeError(f"client {u.client_id} update dims {u.params.layer_dims} != {dims}")
    if scheme == "uniform":
        coeffs = [1.0 / len(ordered)] * len(ordered)
    else:
        total = float(sum(u.num_samples for u in ordered))
        coeffs = [u.num_samples / total for u in ordered]

    base = ordered[0].params.vector
    delta = np.zeros_like(base)
    for coeff, update in zip(coeffs, ordered):
        delta += coeff * (update.params.vector - base)
    return ModelParams.unflatten(dims, _freeze(base + delta))


def _evaluation_rows(shards) -> np.ndarray:
    """The sorted union of all client test indices."""
    parts = [s.test_indices for s in shards]
    if not any(p.size for p in parts):
        raise ValueError("no test indices; split shards before running rounds")
    return np.sort(np.concatenate(parts))


def evaluation_batch(shards, dataset: Dataset) -> Batch:
    """Union of all client test indices, as one evaluation batch."""
    indices = _evaluation_rows(shards)
    return Batch(
        inputs=_freeze(dataset.features[indices]),
        targets=_freeze(one_hot(dataset.labels[indices], dataset.num_classes)),
    )


def initial_params(config: FederationConfig, dataset: Dataset) -> ModelParams:
    """Seeded global model sized to the dataset and configured hidden layers."""
    layer_dims = (dataset.dim, *config.hidden_dims, dataset.num_classes)
    return init_params(layer_dims, seed=config.master_seed)


def fedavg_run(
    config: FederationConfig,
    shards,
    dataset: Dataset,
    *,
    rounds: int | None = None,
    start: ServerState | None = None,
    phase: str = "phase1",
    stop: Callable[[tuple[RoundRecord, ...]], bool] | None = None,
):
    """:func:`run_fedavg` as a run for :func:`run_lockstep`; returns the final state.

    Continues ``start`` (default: the seeded initial model at round 0).
    Each round yields a :class:`Cohort` in the round's seeded order, a
    permutation of the shards sorted by client id, replacing each client
    whose :func:`training_view` is empty by the next one
    (:class:`RoundFailure` when every view is empty), then averages the
    updates it is sent and scores the new model on the test rows of
    ``dataset`` in place. A shard count other than ``config.num_clients``,
    or two shards with one client id, is a :class:`ConfigError`.
    """
    n_rounds = config.rounds if rounds is None else rounds
    _integer("rounds", n_rounds, 0)
    if start is None:
        start = ServerState(initial_params(config, dataset), round=0)
    shards = sorted(shards, key=lambda s: s.client_id)
    if len(shards) != config.num_clients:
        raise ConfigError(f"{len(shards)} shards for num_clients = {config.num_clients}")
    for prev, shard in zip(shards, shards[1:]):
        if prev.client_id == shard.client_id:
            raise ConfigError(f"two shards with client id {shard.client_id}")
    if not n_rounds:
        return start
    params, new = start.global_params, []
    test_rows = _evaluation_rows(shards)
    for index in range(start.round, start.round + n_rounds):
        cohort = []
        rng = np.random.default_rng(derive_seed(config.master_seed, index))
        for i in rng.permutation(len(shards)):
            if len(cohort) == config.clients_per_round:
                break
            view = training_view(shards[i], dataset)
            if view.size:
                cohort.append((shards[i], view))
        if not cohort:
            raise RoundFailure(f"round {index} ({phase}): every eligible client skipped")
        updates = yield Cohort(params, tuple(cohort), dataset, config, index, phase)
        params = aggregate(updates, config.aggregation)
        participants = tuple(sorted(u.client_id for u in updates))
        # The driver holds this list until the run yields again; free the client models now.
        updates.clear()
        accuracy, mean_loss = evaluate(params, dataset, test_rows)
        new.append(RoundRecord(index, phase, accuracy, mean_loss, participants))
        if stop is not None and stop(tuple(new)):
            break
    return ServerState(params, start.round + len(new), start.history + tuple(new))


def run_fedavg(config: FederationConfig, shards, dataset: Dataset, **options) -> ServerState:
    """Run up to ``rounds`` federated rounds (default: config.rounds).

    Takes :func:`fedavg_run`'s options: continues the :class:`ServerState`
    ``start`` (default: the seeded initial model at round 0) and returns
    the state after its rounds; ``stop``, if given, sees this call's
    records after each round, and a true result ends the loop early.
    """
    return run_lockstep([fedavg_run(config, shards, dataset, **options)])[0]


def run_round(
    state: ServerState,
    shards,
    dataset: Dataset,
    config: FederationConfig,
    phase: str = "phase1",
) -> ServerState:
    """The one-round case of :func:`run_fedavg`, continuing ``state`` and its history."""
    return run_fedavg(config, shards, dataset, rounds=1, start=state, phase=phase)
