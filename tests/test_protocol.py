"""Two-phase orchestration: convergence gate, pseudo-labeling, phase runs."""

import dataclasses
import inspect

import numpy as np
import pytest

import fedsem as fs
from fedsem.errors import ConfigError, RoundFailure, ShapeError

from conftest import (
    build_pipeline,
    canonical_federation,
    easy_federation,
    make_records,
    params_equal,
)

# Frozen from the seeded easy task with all labels visible.
EASY_FEDSEM_FULL_LABELS_GAIN = 0.0
EASY_FEDSEM_FULL_LABELS_ACC = 0.975


def small_pipeline(labeled_fraction=0.5, seed=3):
    dataset = fs.generate_synthetic(120, 3, 4, 3.0, seed=seed)
    spec = fs.PartitionSpec("iid", num_clients=4, seed=seed)
    return build_pipeline(dataset, spec, labeled_fraction=labeled_fraction)


def small_config(**fed_overrides):
    defaults = dict(
        num_clients=4,
        clients_per_round=2,
        rounds=6,
        local_epochs=1,
        learning_rate=0.05,
        batch_size=8,
        solver="sgd",
        master_seed=3,
        hidden_dims=(6,),
    )
    defaults.update(fed_overrides)
    return fs.FedSemConfig(federation=fs.FederationConfig(**defaults))


class TestConverged:
    def test_insufficient_history(self):
        assert not fs.converged(make_records([0.5, 0.5]), window=3, epsilon=1.0)

    def test_equal_accuracies_converge_at_zero_epsilon(self):
        assert fs.converged(make_records([0.7, 0.7, 0.7]), window=3, epsilon=0.0)

    def test_range_just_over_epsilon(self):
        records = make_records([0.70, 0.74, 0.71])
        assert not fs.converged(records, window=3, epsilon=0.03)

    def test_window_looks_at_tail_only(self):
        records = make_records([0.1, 0.9, 0.70, 0.71, 0.70])
        assert fs.converged(records, window=3, epsilon=0.02)


class TestFedSemConfig:
    def test_validates(self):
        with pytest.raises(ConfigError):
            small_config().__class__(
                federation=easy_federation(), phase_switch="sometimes"
            )
        with pytest.raises(ConfigError):
            fs.FedSemConfig(federation=easy_federation(), pseudo_label_threshold=1.5)
        with pytest.raises(ConfigError):
            fs.FedSemConfig(
                federation=easy_federation(),
                phase_switch="on_convergence",
                convergence_window=1,
            )


class TestRunPhase1:
    def test_half_rounds_record_count(self):
        masked, shards = small_pipeline()
        config = small_config(rounds=50)
        _, history = fs.run_phase1(config, shards, masked)
        assert len(history) == 25
        assert all(r.phase == "phase1" for r in history)

    def test_full_labels_is_plain_fedavg(self):
        masked, shards = small_pipeline(labeled_fraction=1.0)
        config = small_config()
        model, history = fs.run_phase1(config, shards, masked)
        state = fs.run_fedavg(config.federation, shards, masked, rounds=3)
        assert params_equal(model, state.global_params)
        assert history == state.history

    def test_on_convergence_with_huge_epsilon_stops_at_window(self):
        masked, shards = small_pipeline()
        config = dataclasses.replace(
            small_config(rounds=20),
            phase_switch="on_convergence",
            convergence_window=3,
            convergence_epsilon=1.0,
        )
        _, history = fs.run_phase1(config, shards, masked)
        assert len(history) == 3

    def test_no_visible_labels_cannot_train(self):
        masked, shards = small_pipeline()
        blind = dataclasses.replace(
            masked, label_visible=np.zeros(masked.n_samples, dtype=bool)
        )
        with pytest.raises(RoundFailure):
            fs.run_phase1(small_config(), shards, blind)

    def test_model_filled_labels_are_not_training_data(self):
        dataset = fs.generate_synthetic(600, 4, 8, 2.0, seed=5)
        spec = fs.PartitionSpec("iid", num_clients=6, seed=5)
        masked, shards = build_pipeline(dataset, spec, labeled_fraction=0.3)
        config = small_config(num_clients=6, rounds=4)
        model, history = fs.run_phase1(config, shards, masked)
        labeled = fs.pseudo_label(model, masked, threshold=0.0)
        assert int(labeled.pseudo_mask.sum()) == 336
        fenced_model, fenced_history = fs.run_phase1(config, shards, labeled)
        assert fenced_model.flatten().tobytes() == model.flatten().tobytes()
        assert fenced_history == history

    def test_single_round_budget_rejected(self):
        masked, shards = small_pipeline()
        with pytest.raises(ConfigError):
            fs.run_phase1(small_config(rounds=1), shards, masked)


class TestPseudoLabel:
    def trained_model(self, masked, shards, config):
        model, _ = fs.run_phase1(config, shards, masked)
        return model

    def test_zero_threshold_labels_everything(self):
        masked, shards = small_pipeline(labeled_fraction=0.3)
        model = self.trained_model(masked, shards, small_config())
        labeled = fs.pseudo_label(model, masked, threshold=0.0)
        assert labeled.label_visible.all()
        assert np.array_equal(labeled.pseudo_mask, ~masked.label_visible)

    def test_unreachable_threshold_labels_nothing(self):
        masked, shards = small_pipeline(labeled_fraction=0.3)
        model = self.trained_model(masked, shards, small_config())
        labeled = fs.pseudo_label(model, masked, threshold=1.0)
        assert np.array_equal(labeled.label_visible, masked.label_visible)
        assert not labeled.pseudo_mask.any()

    def test_labels_match_predict_exactly(self):
        masked, shards = small_pipeline(labeled_fraction=0.3)
        model = self.trained_model(masked, shards, small_config())
        labeled = fs.pseudo_label(model, masked, threshold=0.0)
        hidden = np.flatnonzero(~masked.label_visible)
        predictions = fs.predict(model, masked.features[hidden])
        for position, prediction in zip(hidden, predictions):
            assert labeled.labels[position] == prediction

    def test_ground_truth_untouched(self):
        masked, shards = small_pipeline(labeled_fraction=0.3)
        before = masked.labels.tobytes()
        model = self.trained_model(masked, shards, small_config())
        fs.pseudo_label(model, masked, threshold=0.0)
        assert masked.labels.tobytes() == before

    def test_intermediate_threshold_partitions_hidden(self):
        masked, shards = small_pipeline(labeled_fraction=0.3)
        model = self.trained_model(masked, shards, small_config())
        labeled = fs.pseudo_label(model, masked, threshold=0.6)
        hidden = np.flatnonzero(~masked.label_visible)
        confidence = fs.forward(model, masked.features[hidden]).max(axis=1)
        expected_filled = hidden[confidence >= 0.6]
        np.testing.assert_array_equal(np.flatnonzero(labeled.pseudo_mask), expected_filled)

    def test_dimension_mismatch_rejected(self):
        masked, _ = small_pipeline()
        with pytest.raises(ShapeError):
            fs.pseudo_label(fs.init_params((9, 3), seed=0), masked, threshold=0.0)


class TestRunPhase2:
    def setup_phases(self, rounds=6):
        masked, shards = small_pipeline(labeled_fraction=0.4)
        config = small_config(rounds=rounds)
        model1, history1 = fs.run_phase1(config, shards, masked)
        labeled = fs.pseudo_label(model1, masked, config.pseudo_label_threshold)
        return masked, shards, config, model1, history1, labeled

    def test_round_budget_split(self):
        _, shards, config, model1, history1, labeled = self.setup_phases(rounds=7)
        _, history2 = fs.run_phase2(model1, labeled, config, shards, start_round=len(history1))
        assert len(history1) + len(history2) == 7
        assert [r.round for r in history2] == [3, 4, 5, 6]
        assert all(r.phase == "phase2" for r in history2)

    def test_warm_start_from_phase1_model(self):
        _, shards, config, model1, history1, labeled = self.setup_phases()
        _, history2 = fs.run_phase2(model1, labeled, config, shards, start_round=len(history1))
        expected_first = fs.run_round(
            fs.ServerState(model1, round=len(history1)),
            shards, labeled, config.federation, phase="phase2",
        )
        assert history2[0] == expected_first.history[0]

    def test_no_duplicate_of_phase1_final_record(self):
        _, _, _, _, history1, _ = self.setup_phases()
        masked, shards, config, model1, history1, labeled = self.setup_phases()
        _, history2 = fs.run_phase2(model1, labeled, config, shards, start_round=len(history1))
        assert history2[0].round == history1[-1].round + 1

    def test_exhausted_budget_rejected(self):
        masked, shards, config, model1, history1, labeled = self.setup_phases()
        with pytest.raises(ConfigError):
            fs.run_phase2(model1, labeled, config, shards, start_round=config.federation.rounds)

    def test_zero_pseudo_labels_continue_phase1_dynamics(self):
        # With nothing injected, phase 2 is round-for-round the same run a
        # single uninterrupted labeled-only federation would have produced.
        masked, shards = small_pipeline(labeled_fraction=0.4)
        config = small_config()
        continuous = fs.run_fedavg(config.federation, shards, masked)
        # Nothing passes a 1.0 threshold, unless a softmax maximum rounds to exactly 1.0 ...
        result = fs.run_fedsem(
            dataclasses.replace(config, pseudo_label_threshold=1.0), shards, masked
        )
        # ... so the control also continues phase 1 on its own data, which has no pseudo-labels.
        model1, history1 = fs.run_phase1(config, shards, masked)
        model2, history2 = fs.run_phase2(model1, masked, config, shards, start_round=len(history1))
        for history, model in ((result.history, result.model_phase2), (history1 + history2, model2)):
            assert len(history) == len(continuous.history)
            for two_phase, straight in zip(history, continuous.history):
                assert two_phase.round == straight.round
                assert two_phase.test_accuracy == straight.test_accuracy
                assert two_phase.test_loss == straight.test_loss
                assert two_phase.participant_ids == straight.participant_ids
            assert model.flatten().tobytes() == continuous.global_params.flatten().tobytes()


    def test_on_convergence_stops_each_phase_at_window(self):
        masked, shards = small_pipeline(labeled_fraction=0.4)
        config = dataclasses.replace(
            small_config(rounds=20),
            phase_switch="on_convergence",
            convergence_window=3,
            convergence_epsilon=1.0,
        )
        result = fs.run_fedsem(config, shards, masked)
        assert [r.phase for r in result.history] == ["phase1"] * 3 + ["phase2"] * 3
        assert [r.round for r in result.history] == list(range(6))


class TestRunFedsem:
    def test_deterministic_end_to_end(self):
        masked, shards = small_pipeline(labeled_fraction=0.4)
        config = small_config()
        a = fs.run_fedsem(config, shards, masked)
        b = fs.run_fedsem(config, shards, masked)
        assert a.history == b.history
        assert a.model_phase2.flatten().tobytes() == b.model_phase2.flatten().tobytes()
        assert a.gain == b.gain
        assert a.pseudo_label_accuracy == b.pseudo_label_accuracy

    def test_phase_tags_are_monotone(self):
        masked, shards = small_pipeline(labeled_fraction=0.4)
        result = fs.run_fedsem(small_config(), shards, masked)
        phases = [r.phase for r in result.history]
        assert phases == sorted(phases)
        assert [r.round for r in result.history] == list(range(len(phases)))

    def test_full_labels_small_gain_regression(self, easy_pipeline):
        _, masked, shards = easy_pipeline
        result = fs.run_fedsem(fs.FedSemConfig(federation=easy_federation()), shards, masked)
        assert abs(result.gain) <= 0.02
        assert result.gain == pytest.approx(EASY_FEDSEM_FULL_LABELS_GAIN, abs=1e-9)
        assert result.accuracy_phase1 == pytest.approx(EASY_FEDSEM_FULL_LABELS_ACC, abs=1e-9)
        assert result.pseudo_label_accuracy is None

    def test_unreachable_threshold_keeps_phase1_views(self):
        masked, shards = small_pipeline(labeled_fraction=0.4)
        config = dataclasses.replace(small_config(), pseudo_label_threshold=1.0)
        result = fs.run_fedsem(config, shards, masked)
        labeled = fs.pseudo_label(result.model_phase1, masked, threshold=1.0)
        for shard in shards:
            phase1_view = fs.training_view(shard, masked)
            phase2_view = fs.training_view(shard, labeled)
            assert phase1_view.size == phase2_view.size
        assert result.pseudo_label_accuracy is None

    def test_pseudo_label_accuracy_matches_oracle_recount(self):
        masked, shards = small_pipeline(labeled_fraction=0.4)
        result = fs.run_fedsem(small_config(), shards, masked)
        hidden = np.flatnonzero(~masked.label_visible)
        predictions = fs.predict(result.model_phase1, masked.features[hidden])
        expected = float(np.mean(predictions == masked.labels[hidden]))
        assert result.pseudo_label_accuracy == expected

    def test_gain_consistent_with_accuracies(self):
        masked, shards = small_pipeline(labeled_fraction=0.4)
        result = fs.run_fedsem(small_config(), shards, masked)
        assert result.gain == pytest.approx(
            fs.gain(result.accuracy_phase1, result.accuracy_phase2), abs=1e-15
        )


class TestExperimentResult:
    params = fs.init_params((4, 3), seed=0)

    def test_figures_derive_from_history(self):
        history = make_records([0.4, 0.5, 0.45]) + make_records([0.55, 0.6], "phase2", 3)
        result = fs.ExperimentResult(self.params, self.params, tuple(history), None)
        assert (result.accuracy_phase1, result.accuracy_phase2) == (0.5, 0.6)
        assert result.gain == fs.gain(0.5, 0.6)

    def test_history_without_a_phase_rejected(self):
        history = tuple(make_records([0.4, 0.5]))
        with pytest.raises(ValueError, match="phase2"):
            fs.ExperimentResult(self.params, self.params, history, None)


class TestTrainingCallContract:
    """A benchmark counts sample-epochs by wrapping ``fedsem.federation.train_local``."""

    def test_wrapped_train_local_sees_every_sample_epoch(
        self, canonical_pipeline, canonical_result, monkeypatch
    ):
        original = fs.federation.train_local
        signature = inspect.signature(original)
        counted = []

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            if bound.get("lr", 1.0) > 0:
                counted.append(bound["epochs"] * len(bound["samples"]))
            return original(*args, **kwargs)

        monkeypatch.setattr(fs.federation, "train_local", traced)
        _, masked, shards = canonical_pipeline
        config = fs.FedSemConfig(federation=canonical_federation())
        result = fs.run_fedsem(config, shards, masked)
        # 20 rounds x 5 clients x 10 epochs over 32 visible rows, then over 160 rows.
        assert sum(counted) == 192_000
        assert len(counted) == config.federation.rounds
        expected, _ = canonical_result
        assert result.model_phase1.vector.tobytes() == expected.model_phase1.vector.tobytes()
        assert result.model_phase2.vector.tobytes() == expected.model_phase2.vector.tobytes()
