"""Gain metric, round records, history export and run summaries."""

import json
import math

import numpy as np
import pytest

import fedsem as fs

from conftest import make_records


class TestGain:
    def test_table_row_one_inputs(self):
        assert fs.gain(0.73, 0.78) == pytest.approx(0.064103, abs=1e-6)

    def test_table_row_where_print_matches_formula(self):
        assert fs.gain(0.81, 0.847) == pytest.approx(0.043684, abs=1e-6)

    @pytest.mark.parametrize("x", [0.1, 0.5, 0.99, 1.0])
    def test_equal_accuracies_zero(self, x):
        assert fs.gain(x, x) == 0.0

    def test_negative_when_phase2_worse(self):
        assert fs.gain(0.8, 0.6) < 0.0

    def test_sign_matches_difference(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = rng.uniform(0.01, 1.0, size=2)
            assert np.sign(fs.gain(a, b)) == np.sign(b - a)

    def test_always_below_one(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, b = rng.uniform(0.01, 1.0, size=2)
            assert fs.gain(a, b) < 1.0

    def test_zero_phase2_rejected(self):
        with pytest.raises(ValueError):
            fs.gain(0.5, 0.0)

    def test_nonpositive_phase1_rejected(self):
        with pytest.raises(ValueError):
            fs.gain(0.0, 0.5)

    @pytest.mark.parametrize("pair", [(math.nan, 0.5), (0.5, math.nan), (math.nan, math.nan)])
    def test_nan_rejected(self, pair):
        with pytest.raises(ValueError):
            fs.gain(*pair)


class TestRoundRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            fs.RoundRecord(0, "phase3", 0.5, 1.0, (0,))
        with pytest.raises(ValueError):
            fs.RoundRecord(0, "phase1", 1.5, 1.0, (0,))
        with pytest.raises(ValueError):
            fs.RoundRecord(0, "phase1", 0.5, -1.0, (0,))
        with pytest.raises(ValueError):
            fs.RoundRecord(0, "phase1", 0.5, 1.0, ())


class TestExportHistory:
    def sample_history(self):
        return [
            fs.RoundRecord(0, "phase1", 0.5, 1.25, (1, 3, 5)),
            fs.RoundRecord(1, "phase2", 0.8125, 0.5, (0, 2)),
        ]

    def test_empty_csv_is_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        fs.export_history([], path, "csv")
        assert path.read_text() == "round,phase,test_accuracy,test_loss,participants\n"

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "h.csv"
        fs.export_history(self.sample_history(), path, "csv")
        lines = path.read_text().splitlines()
        assert lines[1] == "0,phase1,0.500000,1.250000,1;3;5"
        assert lines[2] == "1,phase2,0.812500,0.500000,0;2"

    def test_json_round_trip_equal_records(self, tmp_path):
        path = tmp_path / "h.json"
        fs.export_history(self.sample_history(), path, "json")
        assert json.loads(path.read_text()) == [
            {"round": 0, "phase": "phase1", "test_accuracy": 0.5, "test_loss": 1.25,
             "participants": [1, 3, 5]},
            {"round": 1, "phase": "phase2", "test_accuracy": 0.8125, "test_loss": 0.5,
             "participants": [0, 2]},
        ]

    def test_json_layout(self, tmp_path):
        # Keys in HISTORY_HEADER's order, two-space indent, one trailing newline.
        path = tmp_path / "h.json"
        fs.export_history(self.sample_history(), path, "json")
        records = [
            '    "round": 0,\n    "phase": "phase1",\n    "test_accuracy": 0.5,\n'
            '    "test_loss": 1.25,\n    "participants": [\n      1,\n      3,\n      5\n    ]\n',
            '    "round": 1,\n    "phase": "phase2",\n    "test_accuracy": 0.8125,\n'
            '    "test_loss": 0.5,\n    "participants": [\n      0,\n      2\n    ]\n',
        ]
        expected = f"[\n  {{\n{records[0]}  }},\n  {{\n{records[1]}  }}\n]\n"
        assert path.read_bytes() == expected.encode()

    def test_csv_round_trip_at_printed_precision(self, tmp_path):
        path = tmp_path / "h.csv"
        history = [
            fs.RoundRecord(0, "phase1", 1 / 3, 2 / 3, (4,)),
            fs.RoundRecord(1, "phase2", 0.1234567, 10.0, (0, 2, 11)),
        ]
        fs.export_history(history, path, "csv")
        assert path.read_text() == (
            "round,phase,test_accuracy,test_loss,participants\n"
            "0,phase1,0.333333,0.666667,4\n"
            "1,phase2,0.123457,10.000000,0;2;11\n"
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_byte_deterministic(self, tmp_path, fmt):
        a, b = tmp_path / "a", tmp_path / "b"
        fs.export_history(self.sample_history(), a, fmt)
        fs.export_history(self.sample_history(), b, fmt)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            fs.export_history([], tmp_path / "x", "yaml")

    def test_io_error_carries_path(self, tmp_path):
        missing_dir = tmp_path / "nope" / "h.csv"
        with pytest.raises(OSError):
            fs.export_history([], missing_dir, "csv")


def fedsem_payload(acc1, acc2, **fields):
    """The summary fields of a fedsem result payload."""
    payload = dict(
        mode="fedsem", labeled_percent=20.0, rounds=50, local_epochs=20,
        accuracy_phase1=acc1, accuracy_phase2=acc2, gain=fs.gain(acc1, acc2),
    )
    return dict(payload, **fields)


class TestRenderSummary:
    def test_states_rounding_mode_and_percent(self):
        text = fs.render_summary(fedsem_payload(0.73, 0.78))
        assert "half-up" in text
        assert "6.4" in text  # 6.410...% rounded to one decimal
        assert "0.730000" in text and "0.780000" in text

    def test_half_up_rounding(self):
        # gain = 4.5722...% -> 4.6
        assert "4.6" in fs.render_summary(fedsem_payload(0.7305, 0.7655))

    def test_fields_copied(self):
        text = fs.render_summary(fedsem_payload(0.73, 0.78, labeled_percent=12.5, rounds=30))
        assert text.splitlines()[3].split() == ["12.5", "30", "20", "0.730000", "0.780000", "6.4"]

    def test_equal_accuracies_give_zero_gain(self):
        assert fs.render_summary(fedsem_payload(0.6, 0.6)).splitlines()[3].endswith(" 0.0")

    def test_inconsistent_gain_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            fs.render_summary(fedsem_payload(0.73, 0.78, gain=0.5))

    def test_null_gain_only_beside_a_zero_accuracy(self):
        payload = dict(fedsem_payload(0.73, 0.78), gain=None)
        with pytest.raises(ValueError, match="inconsistent"):
            fs.render_summary(payload)
        assert fs.render_summary(dict(payload, accuracy_phase1=0.0)).endswith(" n/a\n")

    def test_zero_round_fedavg_is_not_available(self):
        payload = {"mode": "fedavg", "rounds": 0, "best_accuracy": None}
        text = fs.render_summary(payload)
        assert text == "single-phase federated run\nrounds: 0\nbest test accuracy: n/a\n"
        assert "0.812500" in fs.render_summary(dict(payload, rounds=3, best_accuracy=0.8125))


class TestHistoryFromRuns:
    def test_engine_records_round_trip(self, tmp_path):
        dataset = fs.generate_synthetic(60, 3, 4, 3.0, seed=2)
        shards = fs.split_train_test(
            fs.partition(dataset, fs.PartitionSpec("iid", num_clients=3, seed=2)), seed=2
        )
        config = fs.FederationConfig(
            num_clients=3, clients_per_round=2, rounds=3, local_epochs=1,
            learning_rate=0.05, solver="sgd", master_seed=2, hidden_dims=(4,),
        )
        state = fs.run_fedavg(config, shards, dataset)
        path = tmp_path / "h.json"
        fs.export_history(state.history, path, "json")
        assert json.loads(path.read_text()) == [
            {"round": r.round, "phase": r.phase, "test_accuracy": r.test_accuracy,
             "test_loss": r.test_loss, "participants": list(r.participant_ids)}
            for r in state.history
        ]
