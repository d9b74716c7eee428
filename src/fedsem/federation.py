"""Federated-averaging round engine.

One round: sample a client subset, broadcast the global parameters, let
each sampled client train locally on its visible-labeled samples, then
average the returned parameters and evaluate the new global model on the
union of all client test indices. The sampled clients train together, in
one lockstep :func:`~fedsem.model.train_local` call per round.

A run is a generator over its rounds; :func:`fedavg_run` is the one round
loop, and the phase runs of :mod:`fedsem.protocol` wrap it. :func:`run_lockstep`
drives one or many runs; stacked runs share each round's ``train_local``
call, and every blocking entry point here is the one-run case.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Generator, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .data import ClientShard, Dataset, _freeze, one_hot
from .errors import ConfigError, RoundFailure, ShapeError, TrainingDivergence
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
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        if self.num_clients < 1:
            raise ConfigError(f"num_clients must be >= 1, got {self.num_clients}")
        if not 1 <= self.clients_per_round <= self.num_clients:
            raise ConfigError(
                f"clients_per_round must be in [1, {self.num_clients}], "
                f"got {self.clients_per_round}"
            )
        if self.rounds < 0:
            raise ConfigError(f"rounds must be non-negative, got {self.rounds}")
        if self.local_epochs < 1:
            raise ConfigError(f"local_epochs must be >= 1, got {self.local_epochs}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.solver not in SOLVERS:
            raise ConfigError(f"unknown solver {self.solver!r}, expected one of {SOLVERS}")
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError(
                f"unknown aggregation {self.aggregation!r}, expected one of {AGGREGATIONS}"
            )
        if self.master_seed < 0:
            raise ConfigError("master_seed must be non-negative")
        if any(d < 1 for d in self.hidden_dims):
            raise ConfigError(f"hidden_dims must all be >= 1, got {self.hidden_dims}")


@dataclass(frozen=True, eq=False)
class ClientUpdate:
    """A client's post-training parameters and the sample count behind them."""

    client_id: int
    params: ModelParams
    num_samples: int

    def __post_init__(self):
        if self.num_samples < 1:
            raise ConfigError(f"num_samples must be >= 1, got {self.num_samples}")


@dataclass(frozen=True, eq=False)
class ServerState:
    """Global parameters plus the completed-round history."""

    global_params: ModelParams
    round: int
    history: tuple[RoundRecord, ...] = ()


def _round_order(master_seed: int, round_index: int, eligible) -> list[int]:
    """Seeded permutation of eligible client ids for one round."""
    ids = sorted(int(c) for c in set(eligible))
    rng = np.random.default_rng(derive_seed(master_seed, round_index))
    return [ids[i] for i in rng.permutation(len(ids))]


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


def _setting(cohort: Cohort) -> tuple:
    """What cohorts must share to train in one :func:`train_local` call."""
    fed = cohort.config
    return (
        cohort.global_params.layer_dims, fed.local_epochs, fed.batch_size, fed.learning_rate,
        fed.solver,
    )


def client_round(cohorts: Sequence[Cohort]) -> list[list[ClientUpdate]]:
    """Local training of one round's cohorts; pure in all inputs.

    The cohorts must share a :func:`_setting`. All their clients' rows are
    gathered into one batch and trained by one lockstep :func:`train_local`
    call, each client from its cohort's global parameters and with the seed
    ``derive_seed(master_seed, round_index, client_id)`` of its cohort's
    config and round. The updates come back per cohort, in client order. A
    divergence re-raises as :class:`TrainingDivergence` naming the client
    id, the cohort's index, and its phase and round.
    """
    clients = [(j, shard, view) for j, c in enumerate(cohorts) for shard, view in c.clients]
    rows = [np.concatenate([view for _, view in c.clients]) for c in cohorts]
    fed, classes = cohorts[0].config, cohorts[0].global_params.layer_dims[-1]
    batch = Batch(
        inputs=_freeze(np.concatenate([c.dataset.features[r] for c, r in zip(cohorts, rows)])),
        targets=_freeze(one_hot(
            np.concatenate([c.dataset.labels[r] for c, r in zip(cohorts, rows)]), classes
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
        j, shard, _ = clients[exc.client]
        where = f"{cohorts[j].phase}, round {cohorts[j].round_index}, client {shard.client_id}: "
        raise TrainingDivergence(exc.step, shard.client_id, j, where) from None
    updates = iter(
        ClientUpdate(client_id=s.client_id, params=p, num_samples=int(v.size))
        for (_, s, v), p in zip(clients, trained)
    )
    return [list(itertools.islice(updates, len(c.clients))) for c in cohorts]


def run_lockstep(runs: Sequence[Generator]) -> list:
    """Drive ``runs`` to their ends; returns what each run returns, in run order.

    A run is a generator that yields the :class:`Cohort` of each round it
    trains and is sent back that cohort's updates. Each tick trains every
    pending cohort, one :func:`client_round` call per :func:`_setting`, so
    runs stack while they last and a finished run leaves the stack. Each
    run's result is bit-identical to driving it alone. The first failure
    ends every run and propagates; when it came from one run, raised by the
    run itself or a divergence of its clients, its attribute ``run`` is
    that run's index.
    """
    results = [None] * len(runs)
    pending: dict[int, Cohort] = {}

    def advance(i: int, updates) -> None:
        try:
            pending[i] = runs[i].send(updates)
        except StopIteration as done:
            results[i] = done.value
        except Exception as exc:
            exc.run = i
            raise

    for i in range(len(runs)):
        advance(i, None)
    while pending:
        groups: dict[tuple, list[int]] = {}
        for i, cohort in pending.items():
            groups.setdefault(_setting(cohort), []).append(i)
        for members in groups.values():
            try:
                updates = client_round([pending.pop(i) for i in members])
            except TrainingDivergence as exc:
                exc.run = members[exc.cohort]
                raise
            for i, run_updates in zip(members, updates):
                advance(i, run_updates)
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
    if scheme not in AGGREGATIONS:
        raise ConfigError(f"unknown aggregation {scheme!r}, expected one of {AGGREGATIONS}")
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
    indices = np.sort(np.concatenate([s.test_indices for s in shards]))
    if indices.size == 0:
        raise ValueError("no test indices; split shards before running rounds")
    return indices


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
    start_params: ModelParams | None = None,
    start_round: int = 0,
    phase: str = "phase1",
    stop: Callable[[tuple[RoundRecord, ...]], bool] | None = None,
):
    """:func:`run_fedavg` as a run for :func:`run_lockstep`; returns the final state.

    Each round yields a :class:`Cohort` in the round's seeded client order,
    replacing each client whose :func:`training_view` is empty by the next id
    (:class:`RoundFailure` when every view is empty), then averages the
    updates it is sent and scores the new model on the test rows of
    ``dataset`` in place.
    """
    n_rounds = config.rounds if rounds is None else rounds
    if n_rounds < 0:
        raise ConfigError(f"rounds must be non-negative, got {n_rounds}")
    params = initial_params(config, dataset) if start_params is None else start_params
    state = ServerState(global_params=params, round=start_round, history=())
    if not n_rounds:
        return state
    test_rows = _evaluation_rows(shards)
    by_id = {s.client_id: s for s in shards}
    for _ in range(n_rounds):
        cohort = []
        for cid in _round_order(config.master_seed, state.round, by_id.keys()):
            if len(cohort) == config.clients_per_round:
                break
            view = training_view(by_id[cid], dataset)
            if view.size:
                cohort.append((by_id[cid], view))
        if not cohort:
            raise RoundFailure(f"round {state.round} ({phase}): every eligible client skipped")
        updates = yield Cohort(
            state.global_params, tuple(cohort), dataset, config, state.round, phase
        )
        new_params = aggregate(updates, config.aggregation)
        participants = tuple(sorted(u.client_id for u in updates))
        # The driver holds this list until the run yields again; free the client models now.
        updates.clear()
        accuracy, mean_loss = evaluate(new_params, dataset, test_rows)
        record = RoundRecord(
            round=state.round,
            phase=phase,
            test_accuracy=accuracy,
            test_loss=mean_loss,
            participant_ids=participants,
        )
        state = ServerState(
            global_params=new_params,
            round=state.round + 1,
            history=state.history + (record,),
        )
        if stop is not None and stop(state.history):
            break
    return state


def run_fedavg(config: FederationConfig, shards, dataset: Dataset, **options) -> ServerState:
    """Run up to ``rounds`` federated rounds (default: config.rounds).

    Takes :func:`fedavg_run`'s options: starts from ``start_params``
    (default: the seeded initial model) at round index ``start_round``;
    ``stop``, if given, sees this call's history after each round, and a
    true result ends the loop early.
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
    new = run_fedavg(
        config, shards, dataset, rounds=1, start_params=state.global_params,
        start_round=state.round, phase=phase,
    )
    return replace(new, history=state.history + new.history)
