"""Command-line workflows: generate, run, sweep, report, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedsem as fs
from fedsem import cli
from fedsem.cli import main

CANONICAL_INI = Path(__file__).resolve().parents[1] / "configs" / "canonical.ini"
# Twenty samples over ten clients leave two test rows. With seeds 3, 5 and 6
# neither phase's model ever labels one right: both best accuracies are 0.
ZERO_ACCURACY = [
    "--config", str(CANONICAL_INI),
    "--override", "dataset.samples=20", "--override", "partition.num_clients=10",
    "--override", "partition.scheme=iid", "--override", "federation.clients_per_round=2",
    "--override", "federation.rounds=2", "--override", "federation.learning_rate=0.0001",
]

BASE_CONFIG = """
[dataset]
source = synthetic
samples = 120
classes = 3
dim = 4
separation = 3.0

[partition]
scheme = iid
num_clients = 6

[labels]
labeled_fraction = 0.5

[federation]
clients_per_round = 3
rounds = 4
local_epochs = 1
learning_rate = 0.05
batch_size = 8
solver = sgd
master_seed = 9
hidden_dims = 8

[fedsem]

[output]
directory = {out}
formats = csv,json
"""


@pytest.fixture
def write_config(tmp_path):
    def _write(out_dir="run-out", extra="", name="exp.ini"):
        path = tmp_path / name
        path.write_text(BASE_CONFIG.format(out=tmp_path / out_dir) + extra)
        return path

    return _write


class TestGenerate:
    def test_writes_csv_and_metadata(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        code = main([
            "generate", "--classes", "4", "--samples", "400", "--dim", "8",
            "--sep", "3.0", "--seed", "42", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        meta = json.loads((tmp_path / "data.csv.meta.json").read_text())
        assert meta["n"] == 400 and meta["num_classes"] == 4 and meta["seed"] == 42
        assert len(out.read_text().splitlines()) == 400

    def test_rerun_byte_identical(self, tmp_path):
        args = ["generate", "--classes", "3", "--samples", "60", "--dim", "4",
                "--sep", "2.0", "--seed", "1", "--quiet", "--out"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + [str(a)]) == 0
        assert main(args + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.meta.json").read_text().replace("a.csv", "") == (
            tmp_path / "b.csv.meta.json"
        ).read_text().replace("b.csv", "")

    def test_metadata_matches_distinct_labels(self, tmp_path):
        out = tmp_path / "d.csv"
        main(["generate", "--classes", "5", "--samples", "100", "--dim", "4",
              "--sep", "2.0", "--seed", "3", "--quiet", "--out", str(out)])
        meta = json.loads((tmp_path / "d.csv.meta.json").read_text())
        labels = {int(line.rsplit(",", 1)[1]) for line in out.read_text().splitlines()}
        assert len(labels) == meta["num_classes"]

    def test_bad_parameters_exit_2(self, tmp_path, capsys):
        code = main(["generate", "--classes", "1", "--samples", "10", "--dim", "4",
                     "--sep", "2.0", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err
        code = main(["generate", "--seed", "-1", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_unwritable_out_exit_1(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["generate", "--samples", "60", "--dim", "4", "--quiet",
                     "--out", str(blocker / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error writing dataset:")


class TestRun:
    def test_successful_run_writes_outputs(self, write_config, tmp_path, capsys):
        config = write_config()
        assert main(["run", "--config", str(config)]) == 0
        out = tmp_path / "run-out"
        for name in ("history.csv", "history.json", "summary.txt", "result.json"):
            assert (out / name).exists()
        payload = json.loads((out / "result.json").read_text())
        assert payload["mode"] == "fedsem"
        assert payload["phase1_rounds"] == 2 and payload["phase2_rounds"] == 2
        assert "half-up" in (out / "summary.txt").read_text()
        assert "outputs in" in capsys.readouterr().out

    def test_missing_required_key_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.ini"
        path.write_text("[federation]\nlocal_epochs = 2\n")
        assert main(["run", "--config", str(path)]) == 2
        assert "federation.rounds" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "seed=1,2"]])
    def test_non_utf8_config_exit_2(self, write_config, tmp_path, capsys, command):
        path = write_config()
        path.write_bytes(b"# caf\xe9\n" + path.read_bytes())
        assert main([*command, "--config", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot read config file: 'utf-8' codec ")
        assert "byte 0xe9" in err and err.count("\n") == 1
        assert not (tmp_path / "run-out").exists()

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        path = tmp_path / "typo.ini"
        path.write_text("[federation]\nrounds = 4\nlearning_rte = 0.1\n")
        assert main(["run", "--config", str(path)]) == 2
        assert "learning_rte" in capsys.readouterr().err

    def test_non_finite_float_exit_2(self, write_config, capsys):
        code = main(["run", "--config", str(write_config()), "--quiet",
                     "--override", "fedsem.convergence_epsilon=nan"])
        assert code == 2
        assert capsys.readouterr().err == (
            "configuration error: convergence_epsilon must be a finite number in [0, inf), "
            "got nan\n"
        )

    @pytest.mark.parametrize(
        "command, message",
        [
            (["run", "--seed", "-1"], "federation.master_seed must be non-negative, got -1"),
            (["sweep", "--axis", "seed=-1"], "federation.master_seed must be non-negative, got -1"),
            (["run", "--override", "dataset.seed=-1"], "dataset.seed must be non-negative, got -1"),
        ],
        ids=["run-seed", "sweep-seed", "dataset-seed"],
    )
    def test_negative_seed_names_its_key_exit_2(self, tmp_path, capsys, command, message):
        out = tmp_path / "o"
        code = main([*command, "--config", str(CANONICAL_INI), "--out", str(out), "--quiet"])
        assert code == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "override, outcome",
        [
            # An empty list gives a linear softmax model: input width to class count.
            ("federation.hidden_dims=", (16, 10)),
            ("dataset.has_header=no", (16, 48, 10)),
            (
                "dataset.has_header=maybe",
                "invalid value for dataset.has_header: 'maybe' (expected a boolean, got 'maybe')",
            ),
            ("output.formats=", "output.formats must list at least one format"),
            ("output.formats=xml", "output.formats must be one of ('csv', 'json'), got 'xml'"),
            # Every part of a comma list is cast, an empty one too.
            ("output.formats=csv,", "output.formats must be one of ('csv', 'json'), got ''"),
            (
                "federation.hidden_dims=48,",
                "invalid value for federation.hidden_dims: '48,' "
                "(invalid literal for int() with base 10: '')",
            ),
            (
                "labels.mask_mode=none",
                "labels.mask_mode must be one of ('per_client', 'global'), got 'none'",
            ),
            (
                "dataset.source=parquet",
                "dataset.source must be one of ('synthetic', 'csv'), got 'parquet'",
            ),
            ("dataset.source=csv", "dataset.path is required when dataset.source = csv"),
        ],
        ids=[
            "hidden_dims-empty", "has_header-no", "has_header-maybe", "formats-empty",
            "formats-xml", "formats-trailing-comma", "hidden_dims-trailing-comma",
            "mask_mode-none", "source-parquet", "source-csv-without-path",
        ],
    )
    def test_setting_trains_its_model_or_exits_2(
        self, tmp_path, capsys, monkeypatch, override, outcome
    ):
        # outcome: the layer sizes the run trains, or the configuration error it prints.
        trained = []

        def run_fedsem(*args):
            trained.append(fs.run_fedsem(*args))
            return trained[-1]

        monkeypatch.setattr(cli, "run_fedsem", run_fedsem)
        out = tmp_path / "o"
        code = main([
            "run", "--config", str(CANONICAL_INI), "--out", str(out), "--quiet",
            "--override", "federation.rounds=2", "--override", override,
        ])
        err = capsys.readouterr().err
        if isinstance(outcome, tuple):
            assert (code, err) == (0, "")
            assert [r.model_phase2.layer_dims for r in trained] == [outcome]
        else:
            assert (code, err) == (2, f"configuration error: {outcome}\n")
            assert not out.exists()

    def test_zero_best_accuracy_has_no_gain(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run", *ZERO_ACCURACY, "--seed", "3", "--out", str(out), "--quiet"]) == 0
        payload = json.loads((out / "result.json").read_text())
        assert (payload["accuracy_phase1"], payload["accuracy_phase2"]) == (0.0, 0.0)
        assert payload["gain"] is None
        summary = (out / "summary.txt").read_bytes()
        assert summary.decode().splitlines()[3].split()[-1] == "n/a"
        # report renders the same summary from result.json alone.
        (out / "summary.txt").unlink()
        assert main(["report", "--result", str(out), "--quiet"]) == 0
        assert (out / "summary.txt").read_bytes() == summary

    def test_override_beats_file(self, write_config, tmp_path):
        config = write_config()
        assert main([
            "run", "--config", str(config), "--quiet",
            "--override", "federation.rounds=6",
        ]) == 0
        history = (tmp_path / "run-out" / "history.csv").read_text().splitlines()
        assert len(history) == 1 + 6

    def test_reruns_byte_identical(self, write_config, tmp_path):
        config = write_config()
        main(["run", "--config", str(config), "--quiet"])
        first_result = (tmp_path / "run-out" / "result.json").read_bytes()
        first_history = (tmp_path / "run-out" / "history.csv").read_bytes()
        main(["run", "--config", str(config), "--quiet"])
        assert (tmp_path / "run-out" / "result.json").read_bytes() == first_result
        assert (tmp_path / "run-out" / "history.csv").read_bytes() == first_history

    def test_parallel_clients_change_nothing(self, write_config, tmp_path, capsys):
        config = write_config()
        main(["run", "--config", str(config), "--quiet"])
        serial = (tmp_path / "run-out" / "result.json").read_bytes()
        # The removed thread-pool key is rejected like any typo, before
        # anything is written over the previous run's outputs.
        assert main(["run", "--config", str(config), "--quiet",
                     "--override", "federation.parallel_clients=4"]) == 2
        assert "federation.parallel_clients" in capsys.readouterr().err
        assert (tmp_path / "run-out" / "result.json").read_bytes() == serial

    def test_runtime_error_exit_1(self, tmp_path, capsys):
        path = tmp_path / "csvless.ini"
        path.write_text(
            "[dataset]\nsource = csv\npath = does-not-exist.csv\nclasses = 3\n"
            "\n[federation]\nrounds = 4\n"
            f"\n[output]\ndirectory = {tmp_path / 'o'}\n"
        )
        assert main(["run", "--config", str(path)]) == 1
        assert "data setup" in capsys.readouterr().err

    def test_csv_source_checks_its_class_count_exit_2(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        assert main(["generate", "--classes", "3", "--samples", "60", "--dim", "4",
                     "--out", str(data), "--quiet"]) == 0
        path = tmp_path / "csv.ini"
        path.write_text(
            f"[dataset]\nsource = csv\npath = {data}\nclasses = 3\n\n[federation]\nrounds = 2\n"
        )
        out = tmp_path / "o"
        code = main(["run", "--config", str(path), "--out", str(out), "--quiet",
                     "--override", "dataset.classes=1"])
        assert code == 2
        assert capsys.readouterr().err == (
            "configuration error: dataset.classes must be >= 2, got 1\n"
        )
        assert not out.exists()

    def test_divergence_exit_1(self, tmp_path, capsys):
        code = main([
            "run", "--config", str(CANONICAL_INI), "--out", str(tmp_path / "o"), "--quiet",
            "--override", "federation.learning_rate=50",
            "--override", "federation.solver=sgd",
        ])
        assert code == 1
        # The phase, round and client of the earliest step at which any client diverges.
        assert capsys.readouterr().err == (
            "error during training: phase1, round 5, client 10: "
            "step 17: non-finite parameter values\n"
        )

    def test_outputs_confined_to_directory(self, write_config, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = write_config(out_dir="nested/run")
        main(["run", "--config", str(config), "--quiet"])
        written = {p.relative_to(tmp_path).parts[0] for p in tmp_path.rglob("*") if p.is_file()}
        assert written == {"exp.ini", "nested"}

    def test_fedsem_out_env_roots_relative_dirs(self, write_config, tmp_path, monkeypatch):
        root = tmp_path / "envroot"
        monkeypatch.setenv("FEDSEM_OUT", str(root))
        path = tmp_path / "rel.ini"
        path.write_text(BASE_CONFIG.format(out="relative-dir"))
        assert main(["run", "--config", str(path), "--quiet"]) == 0
        assert (root / "relative-dir" / "result.json").exists()

    def test_out_flag_overrides_directory(self, write_config, tmp_path):
        config = write_config()
        target = tmp_path / "elsewhere"
        main(["run", "--config", str(config), "--quiet", "--out", str(target)])
        assert (target / "result.json").exists()

    def test_default_directory_when_output_section_absent(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("FEDSEM_OUT", raising=False)
        path = tmp_path / "noout.ini"
        text = BASE_CONFIG.format(out="ignored")
        text = text[: text.index("[output]")]
        path.write_text(text)
        assert main(["run", "--config", str(path), "--quiet"]) == 0
        assert (tmp_path / "fedsem-out" / "result.json").exists()

    def test_seed_flag_changes_results(self, write_config, tmp_path):
        config = write_config()
        main(["run", "--config", str(config), "--quiet"])
        base = json.loads((tmp_path / "run-out" / "result.json").read_text())
        main(["run", "--config", str(config), "--quiet", "--seed", "123"])
        reseeded = json.loads((tmp_path / "run-out" / "result.json").read_text())
        assert reseeded["model_phase2_sha256"] != base["model_phase2_sha256"]

    def test_plain_fedavg_without_fedsem_section(self, tmp_path):
        path = tmp_path / "avg.ini"
        text = BASE_CONFIG.format(out=tmp_path / "avg-out").replace("[fedsem]\n", "")
        path.write_text(text)
        assert main(["run", "--config", str(path), "--quiet"]) == 0
        payload = json.loads((tmp_path / "avg-out" / "result.json").read_text())
        assert payload["mode"] == "fedavg"
        assert "best_accuracy" in payload

    @pytest.mark.parametrize(
        "fedsem, rounds, mode_keys",
        [
            (True, 4, [
                "accuracy_phase1", "accuracy_phase2", "gain", "labeled_percent",
                "model_phase1_sha256", "model_phase2_sha256", "phase1_rounds", "phase2_rounds",
                "pseudo_label_accuracy",
            ]),
            (False, 4, ["best_accuracy", "model_sha256"]),
            (False, 0, ["best_accuracy", "model_sha256"]),
        ],
        ids=["fedsem", "fedavg", "fedavg-zero-rounds"],
    )
    def test_result_keys(self, tmp_path, fedsem, rounds, mode_keys):
        text = BASE_CONFIG.format(out=tmp_path / "o")
        path = tmp_path / "c.ini"
        path.write_text(text if fedsem else text.replace("[fedsem]\n", ""))
        args = ["run", "--config", str(path), "--quiet", "--override", f"federation.rounds={rounds}"]
        assert main(args) == 0
        payload = json.loads((tmp_path / "o" / "result.json").read_text())
        common = [
            "clients", "clients_per_round", "final_test_accuracy", "final_test_loss",
            "labeled_fraction", "local_epochs", "mode", "rounds",
        ]
        assert sorted(payload) == sorted(common + mode_keys)
        finals = [payload["final_test_accuracy"], payload["final_test_loss"]]
        assert (finals == [None, None]) == (rounds == 0)

    def test_zero_round_fedavg_writes_strict_json(self, tmp_path, capsys):
        path = tmp_path / "avg.ini"
        path.write_text(BASE_CONFIG.format(out=tmp_path / "avg-out").replace("[fedsem]\n", ""))
        args = ["run", "--config", str(path), "--quiet", "--override", "federation.rounds=0"]
        assert main(args) == 0

        def reject(constant):
            raise ValueError(f"result.json holds {constant}, which is not JSON")

        out = tmp_path / "avg-out"
        payload = json.loads((out / "result.json").read_text(), parse_constant=reject)
        assert payload["best_accuracy"] is None
        assert main(["report", "--result", str(out)]) == 0
        assert "best test accuracy: n/a" in capsys.readouterr().out


class TestSweep:
    def test_two_by_one_grid(self, write_config, tmp_path):
        config = write_config(out_dir="sweep-out")
        code = main([
            "sweep", "--config", str(config), "--quiet",
            "--axis", "labeled_fraction=0.2,0.3", "--axis", "epochs=1",
        ])
        assert code == 0
        lines = (tmp_path / "sweep-out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "labeled_percent,rounds,epochs,seed,accuracy_phase1,accuracy_phase2,gain"
        assert len(lines) == 3
        assert lines[1].startswith("20,") and lines[2].startswith("30,")

    def test_cell_matches_individual_run(self, write_config, tmp_path):
        config = write_config(out_dir="sweep-out")
        main(["sweep", "--config", str(config), "--quiet", "--axis", "labeled_fraction=0.3"])
        row = (tmp_path / "sweep-out" / "sweep.csv").read_text().splitlines()[1].split(",")
        main(["run", "--config", str(config), "--quiet",
              "--override", "labels.labeled_fraction=0.3",
              "--out", str(tmp_path / "single")])
        payload = json.loads((tmp_path / "single" / "result.json").read_text())
        assert float(row[4]) == pytest.approx(payload["accuracy_phase1"], abs=5e-7)
        assert float(row[5]) == pytest.approx(payload["accuracy_phase2"], abs=5e-7)
        assert float(row[6]) == pytest.approx(payload["gain"], abs=5e-7)

    def test_cell_outputs_live_in_cell_directories(self, write_config, tmp_path):
        config = write_config(out_dir="sweep-out")
        main(["sweep", "--config", str(config), "--quiet", "--axis", "epochs=1,2"])
        cells = tmp_path / "sweep-out" / "cells"
        assert (cells / "epochs-1" / "result.json").exists()
        assert (cells / "epochs-2" / "result.json").exists()

    def test_relative_fedsem_out_keeps_cells_beside_table(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("FEDSEM_OUT", "outs")
        path = tmp_path / "rel.ini"
        path.write_text(BASE_CONFIG.format(out="sweep-out"))
        assert main(["sweep", "--config", str(path), "--quiet", "--axis", "epochs=1"]) == 0
        table = tmp_path / "outs" / "sweep-out"
        assert (table / "sweep.csv").exists()
        assert (table / "cells" / "epochs-1" / "result.json").exists()
        assert sorted(p.name for p in (tmp_path / "outs").iterdir()) == ["sweep-out"]

    def test_rerun_byte_identical(self, write_config, tmp_path):
        config = write_config(out_dir="sweep-out")
        args = ["sweep", "--config", str(config), "--quiet", "--axis", "rounds=4,6"]
        main(args)
        first = (tmp_path / "sweep-out" / "sweep.csv").read_bytes()
        main(args)
        assert (tmp_path / "sweep-out" / "sweep.csv").read_bytes() == first

    def test_failing_cell_writes_no_cell_of_its_group(self, tmp_path, capsys):
        # Canonical clients train five per round, so cells train in lockstep pairs:
        # (seed-42, seed-2), then (seed-4, seed-3). Only seed-3 diverges.
        overrides = [
            "--override", "federation.learning_rate=20", "--override", "federation.solver=sgd",
            "--override", "federation.rounds=4",
        ]
        out = tmp_path / "sweep-out"
        code = main([
            "sweep", "--config", str(CANONICAL_INI), "--out", str(out), "--quiet", *overrides,
            "--axis", "seed=42,2,4,3",
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error during cell seed-3: phase2, round 3, client 5: "
            "step 82: non-finite parameter values\n"
        )
        assert sorted(p.name for p in (out / "cells").iterdir()) == ["seed-2", "seed-42"]
        assert not (out / "sweep.csv").exists()
        alone = ["run", "--config", str(CANONICAL_INI), "--quiet", *overrides, "--seed", "4"]
        assert main([*alone, "--out", str(tmp_path / "seed-4")]) == 0

    def test_cell_finished_before_a_group_mate_fails_keeps_its_files(self, tmp_path, capsys):
        # One lockstep pair: rounds-2 finishes two ticks before rounds-4 diverges.
        overrides = [
            "--override", "federation.learning_rate=20", "--override", "federation.solver=sgd",
        ]
        out = tmp_path / "sweep-out"
        code = main([
            "sweep", "--config", str(CANONICAL_INI), "--out", str(out), "--quiet", *overrides,
            "--axis", "seed=3", "--axis", "rounds=2,4",
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error during cell seed-3_rounds-4: phase2, round 3, client 5: "
            "step 82: non-finite parameter values\n"
        )
        assert [p.name for p in (out / "cells").iterdir()] == ["seed-3_rounds-2"]
        assert not (out / "sweep.csv").exists()
        alone = tmp_path / "alone"
        assert main([
            "run", "--config", str(CANONICAL_INI), "--out", str(alone), "--quiet", *overrides,
            "--seed", "3", "--override", "federation.rounds=2",
        ]) == 0
        for name in ("result.json", "history.csv"):
            kept = (out / "cells" / "seed-3_rounds-2" / name).read_bytes()
            assert kept == (alone / name).read_bytes()

    def test_cell_without_gain_leaves_field_empty(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["sweep", *ZERO_ACCURACY, "--axis", "seed=3,4", "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert rows[0] == "20,2,10,3,0.000000,0.000000,"
        assert rows[1].startswith("20,2,10,4,") and not rows[1].endswith(",")
        assert json.loads((out / "cells" / "seed-3" / "result.json").read_text())["gain"] is None
        assert "cell seed-3: gain n/a\n" in capsys.readouterr().out

    def test_no_axes_exit_2(self, write_config, capsys):
        assert main(["sweep", "--config", str(write_config()), "--quiet"]) == 2
        assert "--axis" in capsys.readouterr().err

    def test_progress_lines_without_quiet(self, write_config, tmp_path, capsys):
        config = write_config(out_dir="sweep-out")
        assert main(["sweep", "--config", str(config), "--axis", "epochs=1,2"]) == 0
        cells = tmp_path / "sweep-out" / "cells"
        gains = [json.loads((cells / f"epochs-{e}" / "result.json").read_text())["gain"]
                 for e in (1, 2)]
        assert capsys.readouterr().out.splitlines() == [
            f"cell epochs-1: gain {gains[0]:.6f}",
            f"cell epochs-2: gain {gains[1]:.6f}",
            f"sweep table in {tmp_path / 'sweep-out' / 'sweep.csv'} (2 cells)",
        ]

    def test_axis_without_values_exit_2(self, write_config, tmp_path, capsys):
        config = write_config(out_dir="sweep-out")
        code = main(["sweep", "--config", str(config), "--quiet", "--axis", "labeled_fraction"])
        assert code == 2
        assert "axis must look like key=v1,v2" in capsys.readouterr().err
        assert not (tmp_path / "sweep-out").exists()

    def test_empty_axis_exit_2(self, write_config, capsys):
        code = main(["sweep", "--config", str(write_config()), "--quiet", "--axis", "epochs="])
        assert code == 2

    @pytest.mark.parametrize("axis", ["seed=1,,2", "labeled_fraction=0.1,"])
    def test_empty_axis_part_exit_2(self, write_config, tmp_path, capsys, axis):
        config = write_config(out_dir="sweep-out")
        assert main(["sweep", "--config", str(config), "--quiet", "--axis", axis]) == 2
        key, raw = axis.split("=")
        assert capsys.readouterr().err == (
            f"configuration error: axis {key} has an empty value in {raw!r}\n"
        )
        assert not (tmp_path / "sweep-out").exists()

    @pytest.mark.parametrize(
        "axes",
        [
            ["labeled_fraction=0.2,0.2"],
            ["epochs=1", "epochs=2"],
            ["seed=1,01"],
            ["labeled_fraction=0.1,0.10"],
        ],
    )
    def test_repeated_axis_value_or_key_exit_2(self, write_config, tmp_path, capsys, axes):
        config = write_config(out_dir="sweep-out")
        args = ["sweep", "--config", str(config), "--quiet"]
        for axis in axes:
            args += ["--axis", axis]
        assert main(args) == 2
        assert "repeated" in capsys.readouterr().err
        assert not (tmp_path / "sweep-out").exists()

    @pytest.mark.parametrize("axis", ["seed=1,abc", "rounds=4,1"])
    def test_bad_later_value_exit_2_before_any_cell(self, write_config, tmp_path, axis):
        config = write_config(out_dir="sweep-out")
        assert main(["sweep", "--config", str(config), "--quiet", "--axis", axis]) == 2
        assert not (tmp_path / "sweep-out").exists()

    def test_unknown_axis_exit_2(self, write_config, capsys):
        code = main([
            "sweep", "--config", str(write_config()), "--quiet", "--axis", "batch=4,8",
        ])
        assert code == 2

    def test_sweep_without_fedsem_exit_2(self, tmp_path, capsys):
        path = tmp_path / "plain.ini"
        path.write_text(BASE_CONFIG.format(out=tmp_path / "o").replace("[fedsem]\n", ""))
        assert main(["sweep", "--config", str(path), "--quiet", "--axis", "epochs=1"]) == 2


class TestReport:
    def test_rerenders_summary(self, write_config, tmp_path, capsys):
        config = write_config()
        main(["run", "--config", str(config), "--quiet"])
        out = tmp_path / "run-out"
        original = (out / "summary.txt").read_bytes()
        (out / "summary.txt").unlink()
        assert main(["report", "--result", str(out)]) == 0
        assert (out / "summary.txt").read_bytes() == original
        assert "half-up" in capsys.readouterr().out

    def test_missing_result_exit_1(self, tmp_path, capsys):
        assert main(["report", "--result", str(tmp_path / "nope")]) == 1

    def test_malformed_payload_exit_1(self, write_config, tmp_path, capsys):
        main(["run", "--config", str(write_config()), "--quiet"])
        payload = json.loads((tmp_path / "run-out" / "result.json").read_text())
        bad_phase1 = dict(payload, accuracy_phase1="0.25")
        bad_gain = dict(payload, gain=payload["gain"] + 0.01)
        # json.dumps writes NaN as a bare token, which strict JSON does not allow.
        nan = dict(payload, accuracy_phase1=math.nan, accuracy_phase2=math.nan, gain=math.nan)
        # A fedavg payload whose mode is misspelt or missing must not render as fedavg.
        fedavg = {"rounds": 4, "best_accuracy": 0.5}
        for name, bad in (("list.json", []), ("string.json", bad_phase1), ("gain.json", bad_gain),
                          ("nan.json", nan), ("misspelt-mode.json", dict(fedavg, mode="fedsam")),
                          ("no-mode.json", fedavg)):
            path = tmp_path / name
            path.write_text(json.dumps(bad))
            capsys.readouterr()
            assert main(["report", "--result", str(path), "--quiet"]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"malformed result file {path}")
            assert len(err.splitlines()) == 1

    def test_unwritable_summary_exit_1(self, write_config, tmp_path, capsys):
        main(["run", "--config", str(write_config()), "--quiet"])
        out = tmp_path / "run-out"
        (out / "summary.txt").unlink()
        (out / "summary.txt").mkdir()
        capsys.readouterr()
        assert main(["report", "--result", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error during writing summary.txt:")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err


class TestDatasetFileWorkflow:
    def test_generated_csv_feeds_a_run(self, tmp_path):
        data = tmp_path / "blob.csv"
        main(["generate", "--classes", "3", "--samples", "120", "--dim", "4",
              "--sep", "3.0", "--seed", "9", "--quiet", "--out", str(data)])
        config = tmp_path / "csvrun.ini"
        config.write_text(
            f"[dataset]\nsource = csv\npath = {data}\nclasses = 3\n\n"
            "[partition]\nscheme = iid\nnum_clients = 6\n\n"
            "[federation]\nclients_per_round = 3\nrounds = 2\nlocal_epochs = 1\n"
            "learning_rate = 0.05\nsolver = sgd\nmaster_seed = 9\nhidden_dims = 8\n\n"
            f"[output]\ndirectory = {tmp_path / 'csv-out'}\n"
        )
        assert main(["run", "--config", str(config), "--quiet"]) == 0
        assert (tmp_path / "csv-out" / "result.json").exists()


class TestImports:
    def test_run_and_sweep_never_load_numpy_ma(self, write_config, tmp_path):
        # pytest itself loads numpy.ma, so the commands run in a fresh interpreter.
        run = ["run", "--config", str(CANONICAL_INI), "--override", "federation.rounds=4",
               "--out", str(tmp_path / "run"), "--quiet"]
        sweep = ["sweep", "--config", str(write_config()), "--axis", "epochs=1,2",
                 "--out", str(tmp_path / "sweep"), "--quiet"]
        script = (
            "import json, sys\n"
            "from fedsem.cli import main\n"
            "codes = [main(args) for args in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, 'numpy.ma' in sys.modules]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run([sys.executable, "-c", script, json.dumps([run, sweep])],
                              env=env, capture_output=True, text=True, check=True)
        assert json.loads(done.stdout) == [[0, 0], False]
