"""Round engine: sampling, client rounds, aggregation, the federated loop."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import fedsem as fs
from fedsem.errors import ConfigError, RoundFailure, ShapeError
from fedsem.seeding import derive_seed

from conftest import (
    CANONICAL_SEED,
    build_pipeline,
    easy_federation,
    params_equal,
)

# Frozen from the seeded easy-task run (oracle ceiling there is 0.961).
EASY_FEDAVG_FINAL_ACCURACY = 0.955
EASY_FEDAVG_BEST_ACCURACY = 0.975


def tiny_pipeline(labeled_fraction=1.0, n=120, num_clients=6, seed=0):
    dataset = fs.generate_synthetic(n, 3, 4, 3.0, seed=seed)
    spec = fs.PartitionSpec("iid", num_clients=num_clients, seed=seed)
    return build_pipeline(dataset, spec, labeled_fraction=labeled_fraction)


def tiny_federation(**overrides):
    base = dict(
        num_clients=6,
        clients_per_round=3,
        rounds=4,
        local_epochs=2,
        learning_rate=0.05,
        batch_size=8,
        solver="sgd",
        aggregation="sample_weighted",
        master_seed=5,
        hidden_dims=(6,),
    )
    base.update(overrides)
    return fs.FederationConfig(**base)


class TestFederationConfig:
    def test_validates_bounds(self):
        with pytest.raises(ConfigError):
            tiny_federation(clients_per_round=7)
        with pytest.raises(ConfigError):
            tiny_federation(local_epochs=0)
        with pytest.raises(ConfigError):
            tiny_federation(learning_rate=0.0)
        with pytest.raises(ConfigError):
            tiny_federation(solver="newton")
        with pytest.raises(ConfigError):
            tiny_federation(aggregation="median")

    def test_zero_rounds_allowed(self):
        assert tiny_federation(rounds=0).rounds == 0


def round_participants(config, dataset, shards, rounds):
    """Participant ids run_round records for each of ``rounds`` rounds."""
    history = fs.run_fedavg(config, shards, dataset, rounds=rounds).history
    return [record.participant_ids for record in history]


class TestSampleClients:
    """Client sampling as run_round performs it, read from the round records."""

    def test_exhaustive_when_s_equals_pool(self):
        masked, shards = tiny_pipeline()
        config = tiny_federation(clients_per_round=6)
        assert round_participants(config, masked, shards, rounds=1) == [(0, 1, 2, 3, 4, 5)]

    def test_deterministic(self):
        masked, shards = tiny_pipeline()
        config = tiny_federation()
        a = round_participants(config, masked, shards, rounds=3)
        b = round_participants(config, masked, shards, rounds=3)
        assert a == b

    def test_sorted_subset_of_eligible(self):
        masked, shards = tiny_pipeline()
        visible = np.array(masked.label_visible, copy=True)
        for cid in (1, 3, 5):
            visible[shards[cid].train_indices] = False
        partial = dataclasses.replace(masked, label_visible=visible)
        config = tiny_federation(clients_per_round=2)
        for chosen in round_participants(config, partial, shards, rounds=4):
            assert list(chosen) == sorted(chosen)
            assert set(chosen) <= {0, 2, 4}

    def test_every_client_selected_over_many_rounds(self):
        masked, shards = tiny_pipeline()
        config = tiny_federation(clients_per_round=2, local_epochs=1)
        seen = set()
        for chosen in round_participants(config, masked, shards, rounds=12):
            seen.update(chosen)
        assert seen == set(range(6))

    def test_rounds_differ(self):
        masked, shards = tiny_pipeline()
        config = tiny_federation(local_epochs=1)
        assert len(set(round_participants(config, masked, shards, rounds=6))) > 1


def cohort_of(shards, dataset, params, config=None, round_index=0):
    clients = tuple((s, fs.training_view(s, dataset)) for s in shards)
    return fs.Cohort(params, clients, dataset, config or tiny_federation(), round_index)


class TestClientRound:
    def test_epoch_compositionality_sgd(self):
        # One E-epoch call equals E single-epoch calls with matching per-epoch seeds.
        masked, shards = tiny_pipeline()
        view = fs.training_view(shards[0], masked)
        batch = fs.Batch(masked.features[view], fs.one_hot(masked.labels[view], 3))
        params = fs.init_params((4, 6, 3), seed=1)
        base_seed = 91
        whole = fs.train_local(params, batch, epochs=3, batch_size=4, lr=0.1,
                               solver="sgd", rng_seed=base_seed)
        stepped = params
        for epoch in range(3):
            stepped = fs.train_local(stepped, batch, epochs=1, batch_size=4, lr=0.1,
                                     solver="sgd", rng_seed=base_seed ^ epoch)
        assert params_equal(whole, stepped)

    def test_global_params_untouched(self):
        masked, shards = tiny_pipeline()
        params = fs.init_params((4, 6, 3), seed=2)
        before = params.flatten().tobytes()
        fs.client_round([cohort_of(shards[1:2], masked, params)])
        assert params.flatten().tobytes() == before

    def test_skip_when_no_visible_labels(self):
        masked, shards = tiny_pipeline()
        hidden = np.array(masked.label_visible, copy=True)
        hidden[shards[0].train_indices] = False
        blind = dataclasses.replace(masked, label_visible=hidden)
        with pytest.raises(ValueError, match="at least one training sample"):
            fs.client_round([cohort_of(shards[:1], blind, fs.init_params((4, 6, 3), seed=0))])

    def test_uses_only_visible_samples(self):
        masked, shards = tiny_pipeline(labeled_fraction=0.5)
        params = fs.init_params((4, 6, 3), seed=0)
        ((update,),) = fs.client_round([cohort_of(shards[:1], masked, params)])
        visible = int(masked.label_visible[shards[0].train_indices].sum())
        assert update.num_samples == visible

    def test_cohort_equals_one_client_at_a_time(self):
        masked, shards = tiny_pipeline(labeled_fraction=0.5, n=150)
        params = fs.init_params((4, 6, 3), seed=3)
        config = tiny_federation(solver="adam", batch_size=3)
        order = [shards[4], shards[1], shards[5], shards[0]]
        (together,) = fs.client_round([cohort_of(order, masked, params, config, 2)])
        assert [u.client_id for u in together] == [4, 1, 5, 0]
        for update, shard in zip(together, order):
            ((alone,),) = fs.client_round([cohort_of([shard], masked, params, config, 2)])
            assert update.num_samples == alone.num_samples
            assert params_equal(update.params, alone.params)

    def test_divergence_names_client_and_cohort(self):
        masked, shards = tiny_pipeline()
        config = tiny_federation(learning_rate=1e3, local_epochs=30, batch_size=2)
        cohorts = [
            cohort_of(shards[3:], masked, fs.init_params((4, 6, 3), seed=1), config, 3),
            cohort_of(shards[:3], masked, fs.init_params((4, 6, 3), seed=0), config, 0),
        ]
        alone = []
        for cohort in cohorts:
            with pytest.raises(fs.TrainingDivergence) as caught:
                fs.client_round([cohort])
            alone.append(caught.value)
        with pytest.raises(fs.TrainingDivergence) as caught:
            fs.client_round(cohorts)
        # The earliest step wins (here the second cohort's); on a tie, the client stacked first.
        first = 0 if alone[0].step <= alone[1].step else 1
        assert first == 1
        err = caught.value
        assert (err.step, err.client, err.cohort) == (alone[first].step, alone[first].client, first)
        round_index = cohorts[first].round_index
        assert str(err) == (
            f"phase1, round {round_index}, client {err.client}: "
            f"step {err.step}: non-finite parameter values"
        )
        assert err.client in [s.client_id for s, _ in cohorts[first].clients]

    def test_cohorts_of_different_settings_each_train_with_their_own(self):
        masked, shards = tiny_pipeline(labeled_fraction=0.5)
        params = fs.init_params((4, 6, 3), seed=4)
        cohorts = [
            cohort_of(shards[:3], masked, params, tiny_federation(local_epochs=1), 1),
            cohort_of(shards[3:], masked, params, tiny_federation(local_epochs=5), 1),
        ]
        together = fs.client_round(cohorts)
        for cohort, updates in zip(cohorts, together):
            (alone,) = fs.client_round([cohort])
            assert [u.client_id for u in updates] == [s.client_id for s, _ in cohort.clients]
            for update, solo in zip(updates, alone):
                assert update.num_samples == solo.num_samples
                assert params_equal(update.params, solo.params)


def recording(run, caught):
    """``run``, noting each exception raised into or out of it before re-raising it."""
    try:
        return (yield from run)
    except Exception as exc:
        caught.append(exc)
        raise


class TestRunLockstep:
    def test_divergence_is_raised_inside_its_own_run(self):
        masked, shards = tiny_pipeline()
        healthy = tiny_federation()
        diverging = tiny_federation(learning_rate=1e3, local_epochs=30, batch_size=2)
        caught = [[], []]
        runs = [
            recording(fs.fedavg_run(config, shards, masked), seen)
            for config, seen in zip([healthy, diverging], caught)
        ]
        with pytest.raises(fs.TrainingDivergence) as err:
            fs.run_lockstep(runs)
        assert err.value.run == 1
        assert caught == [[], [err.value]]

    def test_round_failure_names_its_run(self):
        masked, shards = tiny_pipeline()
        nothing = dataclasses.replace(
            masked, label_visible=np.zeros(masked.n_samples, dtype=bool)
        )
        config = tiny_federation()
        runs = [fs.fedavg_run(config, shards, masked), fs.fedavg_run(config, shards, nothing)]
        with pytest.raises(RoundFailure) as err:
            fs.run_lockstep(runs)
        assert err.value.run == 1


def scalar_update(client_id, value, num_samples):
    params = fs.ModelParams((1, 1), (np.array([[value]]),), (np.array([value]),))
    return fs.ClientUpdate(client_id=client_id, params=params, num_samples=num_samples)


class TestAggregate:
    def test_uniform_mean(self):
        merged = fs.aggregate([scalar_update(0, 1.0, 1), scalar_update(1, 3.0, 1)], "uniform")
        assert merged.weights[0][0, 0] == 2.0

    def test_weighted_mean_hand_values(self):
        merged = fs.aggregate(
            [scalar_update(0, 1.0, 1), scalar_update(1, 3.0, 3)], "sample_weighted"
        )
        assert merged.weights[0][0, 0] == 2.5
        assert merged.biases[0][0] == 2.5

    @pytest.mark.parametrize("scheme", fs.AGGREGATIONS)
    def test_idempotent_on_identical_updates(self, scheme):
        params = fs.init_params((3, 2), seed=4)
        updates = [fs.ClientUpdate(i, params, 7) for i in range(4)]
        np.testing.assert_allclose(
            fs.aggregate(updates, scheme).flatten(), params.flatten(), atol=1e-15
        )

    @pytest.mark.parametrize("scheme", fs.AGGREGATIONS)
    def test_permutation_invariance_bit_exact(self, scheme):
        rng = np.random.default_rng(0)
        updates = [
            fs.ClientUpdate(i, fs.init_params((3, 2), seed=i), int(rng.integers(1, 9)))
            for i in range(5)
        ]
        forward_order = fs.aggregate(updates, scheme)
        shuffled = fs.aggregate(updates[::-1], scheme)
        assert forward_order.flatten().tobytes() == shuffled.flatten().tobytes()

    def test_uniform_equals_weighted_for_equal_counts(self):
        updates = [fs.ClientUpdate(i, fs.init_params((3, 2), seed=i), 5) for i in range(3)]
        a = fs.aggregate(updates, "uniform")
        b = fs.aggregate(updates, "sample_weighted")
        np.testing.assert_allclose(a.flatten(), b.flatten(), atol=1e-15)

    @pytest.mark.parametrize("scheme", fs.AGGREGATIONS)
    def test_linearity_under_scaling(self, scheme):
        updates = [fs.ClientUpdate(i, fs.init_params((3, 2), seed=i), i + 1) for i in range(3)]
        scaled = [
            fs.ClientUpdate(
                u.client_id,
                fs.ModelParams.unflatten(u.params.layer_dims, 3.0 * u.params.flatten()),
                u.num_samples,
            )
            for u in updates
        ]
        np.testing.assert_allclose(
            fs.aggregate(scaled, scheme).flatten(),
            3.0 * fs.aggregate(updates, scheme).flatten(),
            rtol=1e-12,
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fs.aggregate([])

    def test_duplicate_client_rejected(self):
        a, b, c = scalar_update(1, 0.1, 3), scalar_update(1, 0.3, 5), scalar_update(2, 0.7, 2)
        for updates in ([a, b, c], [b, a, c]):
            with pytest.raises(ValueError, match="two updates from client 1"):
                fs.aggregate(updates)

    def test_shape_mismatch_rejected(self):
        updates = [
            fs.ClientUpdate(0, fs.init_params((3, 2), seed=0), 1),
            fs.ClientUpdate(1, fs.init_params((3, 4), seed=0), 1),
        ]
        with pytest.raises(ShapeError):
            fs.aggregate(updates)


class TestRunRound:
    def test_singleton_round_equals_local_training(self):
        masked, shards = tiny_pipeline(num_clients=1, n=40)
        config = tiny_federation(num_clients=1, clients_per_round=1)
        state = fs.ServerState(fs.initial_params(config, masked), round=0)
        advanced = fs.run_round(state, shards, masked, config)
        view = fs.training_view(shards[0], masked)
        batch = fs.Batch(masked.features[view], fs.one_hot(masked.labels[view], 3))
        expected = fs.train_local(
            state.global_params,
            batch,
            epochs=config.local_epochs,
            batch_size=config.batch_size,
            lr=config.learning_rate,
            solver=config.solver,
            rng_seed=derive_seed(config.master_seed, 0, 0),
        )
        assert params_equal(advanced.global_params, expected)

    def test_history_grows_by_one(self):
        masked, shards = tiny_pipeline()
        config = tiny_federation()
        state = fs.ServerState(fs.initial_params(config, masked), round=0)
        for expected_len in range(1, 4):
            state = fs.run_round(state, shards, masked, config)
            assert len(state.history) == expected_len
            assert state.round == expected_len

    def test_participant_count_and_record_fields(self):
        masked, shards = tiny_pipeline()
        config = tiny_federation()
        state = fs.run_round(
            fs.ServerState(fs.initial_params(config, masked), round=0), shards, masked, config
        )
        record = state.history[0]
        assert len(record.participant_ids) == config.clients_per_round
        assert record.participant_ids == tuple(sorted(record.participant_ids))
        assert record.phase == "phase1"

    def test_skip_and_replace_preserves_count(self):
        masked, shards = tiny_pipeline()
        hidden = np.array(masked.label_visible, copy=True)
        config = tiny_federation()
        starved = round_participants(config, masked, shards, rounds=1)[0][0]
        hidden[shards[starved].train_indices] = False
        blind = dataclasses.replace(masked, label_visible=hidden)
        state = fs.run_round(
            fs.ServerState(fs.initial_params(config, blind), round=0),
            shards, blind, config,
        )
        record = state.history[0]
        assert len(record.participant_ids) == config.clients_per_round
        assert starved not in record.participant_ids

    def test_one_training_view_per_candidate(self, monkeypatch):
        masked, shards = tiny_pipeline()
        hidden = np.array(masked.label_visible, copy=True)
        config = tiny_federation()
        starved = round_participants(config, masked, shards, rounds=1)[0][0]
        hidden[shards[starved].train_indices] = False
        blind = dataclasses.replace(masked, label_visible=hidden)
        calls = []
        view = fs.federation.training_view

        def counted(shard, *args, **kwargs):
            calls.append(shard)
            return view(shard, *args, **kwargs)

        monkeypatch.setattr(fs.federation, "training_view", counted)
        fs.run_round(
            fs.ServerState(fs.initial_params(config, blind), round=0),
            shards, blind, config,
        )
        # The starved client is one candidate more; nobody is viewed twice.
        assert len(calls) == config.clients_per_round + 1
        assert len({shard.client_id for shard in calls}) == len(calls)

    def test_all_skip_raises_round_failure(self):
        masked, shards = tiny_pipeline()
        nothing = dataclasses.replace(
            masked, label_visible=np.zeros(masked.n_samples, dtype=bool)
        )
        config = tiny_federation()
        with pytest.raises(RoundFailure):
            fs.run_round(
                fs.ServerState(fs.initial_params(config, nothing), round=0),
                shards, nothing, config,
            )

    def test_shard_order_changes_nothing(self):
        masked, shards = tiny_pipeline()
        config = tiny_federation()
        init = fs.initial_params(config, masked)
        reordered = list(reversed(shards))
        a = fs.run_round(fs.ServerState(init, round=0), shards, masked, config)
        b = fs.run_round(fs.ServerState(init, round=0), reordered, masked, config)
        assert a.global_params.flatten().tobytes() == b.global_params.flatten().tobytes()
        assert a.history == b.history

    def test_evaluation_batch_of_no_shards_names_the_missing_test_rows(self):
        masked, _ = tiny_pipeline()
        with pytest.raises(ValueError, match=r"^no test indices; split shards before running"):
            fs.evaluation_batch([], masked)

    def test_record_scores_the_evaluation_batch(self):
        masked, shards = tiny_pipeline(labeled_fraction=0.5)
        config = tiny_federation()
        state = fs.run_round(
            fs.ServerState(fs.initial_params(config, masked), round=0), shards, masked, config
        )
        record = state.history[0]
        copied = fs.evaluate(state.global_params, fs.evaluation_batch(shards, masked))
        assert np.array([record.test_accuracy, record.test_loss]).tobytes() == (
            np.array(copied).tobytes()
        )

    def test_rounds_equal_run_fedavg(self):
        masked, shards = tiny_pipeline(labeled_fraction=0.5)
        config = tiny_federation()
        state = fs.ServerState(fs.initial_params(config, masked), round=0)
        for _ in range(2):
            state = fs.run_round(state, shards, masked, config)
        whole = fs.run_fedavg(config, shards, masked, rounds=2)
        assert state.round == whole.round == 2
        assert state.history == whole.history
        assert state.global_params.flatten().tobytes() == whole.global_params.flatten().tobytes()


class TestRunFedavg:
    def test_zero_rounds(self):
        masked, shards = tiny_pipeline()
        config = tiny_federation(rounds=0)
        state = fs.run_fedavg(config, shards, masked)
        assert state.history == ()
        assert params_equal(state.global_params, fs.initial_params(config, masked))

    def test_zero_rounds_need_no_test_rows(self):
        dataset = fs.generate_synthetic(120, 3, 4, 3.0, seed=0)
        unsplit = fs.partition(dataset, fs.PartitionSpec("iid", num_clients=6, seed=0))
        config = tiny_federation()
        start = fs.ServerState(fs.init_params((4, 6, 3), seed=9), round=3)
        state = fs.run_fedavg(config, unsplit, dataset, rounds=0, start=start)
        assert (state.global_params, state.round, state.history) == (start.global_params, 3, ())
        with pytest.raises(TypeError, match="start_round"):
            fs.run_fedavg(config, unsplit, dataset, rounds=0, start_round=3)
        with pytest.raises(ValueError, match="no test indices"):
            fs.run_fedavg(config, unsplit, dataset, rounds=1)

    @pytest.mark.parametrize("rounds", [None, 0], ids=["configured", "zero"])
    def test_shards_sharing_a_client_id_rejected(self, rounds):
        # Keeping one shard per id would silently never train the other's rows.
        masked, shards = tiny_pipeline(num_clients=4)
        shards[1] = dataclasses.replace(shards[1], client_id=0)
        config = tiny_federation(num_clients=4, clients_per_round=4)
        with pytest.raises(ConfigError, match="^two shards with client id 0$"):
            fs.run_fedavg(config, shards, masked, rounds=rounds)

    @pytest.mark.parametrize("rounds", [None, 0], ids=["configured", "zero"])
    @pytest.mark.parametrize("count, num_clients", [(4, 6), (6, 4)], ids=["fewer", "more"])
    def test_shard_count_other_than_num_clients_rejected(self, count, num_clients, rounds):
        # Every round would otherwise draw from the shards it has, not the clients it names.
        masked, shards = tiny_pipeline(num_clients=count)
        config = tiny_federation(num_clients=num_clients, clients_per_round=3)
        message = f"^{count} shards for num_clients = {num_clients}$"
        with pytest.raises(ConfigError, match=message):
            fs.run_fedavg(config, shards, masked, rounds=rounds)

    def test_bit_identical_reruns(self):
        masked, shards = tiny_pipeline()
        config = tiny_federation()
        a = fs.run_fedavg(config, shards, masked)
        b = fs.run_fedavg(config, shards, masked)
        assert a.history == b.history
        assert a.global_params.flatten().tobytes() == b.global_params.flatten().tobytes()

    def test_rounds_score_the_test_rows_in_place(self):
        # 16k test rows of 80k x 32: a copied evaluation batch holds 5.4 MB of
        # features and one-hot targets through the whole run.
        dataset = fs.generate_synthetic(80_000, 10, 32, 4.0, seed=0)
        spec = fs.PartitionSpec("iid", num_clients=10, seed=0)
        masked, shards = build_pipeline(dataset, spec, labeled_fraction=0.05)
        config = tiny_federation(num_clients=10, clients_per_round=1, rounds=1, batch_size=64,
                                 hidden_dims=(128, 64))
        fs.run_fedavg(config, shards, masked)  # numpy's lazy imports happen outside the trace
        tracemalloc.start()
        try:
            state = fs.run_fedavg(config, shards, masked)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10.5 * 2**20
        record = state.history[0]
        copied = fs.evaluate(state.global_params, fs.evaluation_batch(shards, masked))
        assert np.array([record.test_accuracy, record.test_loss]).tobytes() == (
            np.array(copied).tobytes()
        )

    def test_canonical_task_reaches_regression_accuracy(self, easy_pipeline):
        _, masked, shards = easy_pipeline
        state = fs.run_fedavg(easy_federation(), shards, masked)
        final = state.history[-1].test_accuracy
        best = max(r.test_accuracy for r in state.history)
        assert final >= 0.90
        assert final == pytest.approx(EASY_FEDAVG_FINAL_ACCURACY, abs=1e-9)
        assert best == pytest.approx(EASY_FEDAVG_BEST_ACCURACY, abs=1e-9)


class TestDataFencing:
    def test_poisoned_hidden_labels_change_nothing(self):
        masked, shards = tiny_pipeline(labeled_fraction=0.5)
        poisoned_labels = np.array(masked.labels, copy=True)
        poisoned_labels[~masked.label_visible] = masked.num_classes + 77
        poisoned = dataclasses.replace(masked, labels=poisoned_labels)
        config = tiny_federation()
        clean_state = fs.run_fedavg(config, shards, masked)
        poisoned_state = fs.run_fedavg(config, shards, poisoned)
        assert clean_state.history == poisoned_state.history
        assert (
            clean_state.global_params.flatten().tobytes()
            == poisoned_state.global_params.flatten().tobytes()
        )
