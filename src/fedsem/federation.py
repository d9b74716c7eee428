"""Federated-averaging round engine.

One round: sample a client subset, broadcast the global parameters, let
each sampled client train locally on its visible-labeled samples, then
average the returned parameters and evaluate the new global model on the
union of all client test indices. The sampled clients train together, in
one lockstep :func:`~fedsem.model.train_local` call per round.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .data import ClientShard, Dataset, _freeze, one_hot
from .errors import ConfigError, RoundFailure, ShapeError
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


def _view_batch(dataset: Dataset, indices: np.ndarray) -> Batch:
    """The samples at ``indices``, gathered once into arrays the batch keeps."""
    return Batch(
        inputs=_freeze(dataset.features[indices]),
        targets=_freeze(one_hot(dataset.labels[indices], dataset.num_classes)),
    )


def client_round(
    global_params: ModelParams,
    cohort: Sequence[tuple[ClientShard, np.ndarray]],
    dataset: Dataset,
    config: FederationConfig,
    round_index: int,
) -> list[ClientUpdate]:
    """Local training of one round's cohort; pure in all inputs.

    ``cohort`` lists ``(shard, view)`` pairs, ``view`` being the client's
    :func:`training_view`. The clients' rows are gathered into one batch and
    trained by one lockstep :func:`train_local` call, each client with its
    own seed; the updates come back in cohort order.
    """
    shards, views = zip(*cohort)
    trained = train_local(
        global_params,
        _view_batch(dataset, np.concatenate(views)),
        epochs=config.local_epochs,
        batch_size=config.batch_size,
        lr=config.learning_rate,
        solver=config.solver,
        rng_seed=[derive_seed(config.master_seed, round_index, s.client_id) for s in shards],
        sizes=[v.size for v in views],
    )
    return [
        ClientUpdate(client_id=s.client_id, params=p, num_samples=int(v.size))
        for s, p, v in zip(shards, trained, views)
    ]


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
    return ModelParams.unflatten(dims, base + delta)


def evaluation_batch(shards, dataset: Dataset) -> Batch:
    """Union of all client test indices, as one evaluation batch."""
    indices = np.sort(np.concatenate([s.test_indices for s in shards]))
    if indices.size == 0:
        raise ValueError("no test indices; split shards before running rounds")
    return _view_batch(dataset, indices)


def run_round(
    state: ServerState,
    shards,
    dataset: Dataset,
    config: FederationConfig,
    phase: str = "phase1",
    *,
    eval_batch: Batch,
) -> ServerState:
    """One full federated round; returns the advanced server state.

    Clients whose :func:`training_view` is empty are skipped and replaced
    by the next eligible id in this round's seeded order, keeping the
    participant count whenever enough trainable clients exist, and raising
    :class:`RoundFailure` if none is. ``eval_batch`` scores the new model.
    """
    by_id = {s.client_id: s for s in shards}
    cohort = []
    for cid in _round_order(config.master_seed, state.round, by_id.keys()):
        if len(cohort) == config.clients_per_round:
            break
        view = training_view(by_id[cid], dataset)
        if view.size:
            cohort.append((by_id[cid], view))
    if not cohort:
        raise RoundFailure(f"round {state.round} ({phase}): every eligible client skipped")
    updates = client_round(state.global_params, cohort, dataset, config, state.round)
    new_params = aggregate(updates, config.aggregation)
    accuracy, mean_loss = evaluate(new_params, eval_batch)
    record = RoundRecord(
        round=state.round,
        phase=phase,
        test_accuracy=accuracy,
        test_loss=mean_loss,
        participant_ids=tuple(sorted(u.client_id for u in updates)),
    )
    return ServerState(
        global_params=new_params,
        round=state.round + 1,
        history=state.history + (record,),
    )


def initial_params(config: FederationConfig, dataset: Dataset) -> ModelParams:
    """Seeded global model sized to the dataset and configured hidden layers."""
    layer_dims = (dataset.dim, *config.hidden_dims, dataset.num_classes)
    return init_params(layer_dims, seed=config.master_seed)


def run_fedavg(
    config: FederationConfig,
    shards,
    dataset: Dataset,
    *,
    rounds: int | None = None,
    start_params: ModelParams | None = None,
    start_round: int = 0,
    phase: str = "phase1",
    stop: Callable[[tuple[RoundRecord, ...]], bool] | None = None,
) -> ServerState:
    """Run up to ``rounds`` federated rounds (default: config.rounds).

    Starts from ``start_params`` (default: the seeded initial model) at
    round index ``start_round``. ``stop``, if given, sees this call's
    history after each round; a true result ends the loop early.
    """
    n_rounds = config.rounds if rounds is None else rounds
    if n_rounds < 0:
        raise ConfigError(f"rounds must be non-negative, got {n_rounds}")
    params = initial_params(config, dataset) if start_params is None else start_params
    state = ServerState(global_params=params, round=start_round, history=())
    eval_batch = evaluation_batch(shards, dataset) if n_rounds else None
    for _ in range(n_rounds):
        state = run_round(state, shards, dataset, config, phase, eval_batch=eval_batch)
        if stop is not None and stop(state.history):
            break
    return state
