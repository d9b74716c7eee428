"""Benchmark of the fedsem CLI: end-to-end runs, set-up, and a traced run.

    python3 perfbench/run.py --workload canonical --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all       # every workload, untraced and traced

Workloads, and why each is here:
  canonical  configs/canonical.ini as shipped (20 clients, Adam, batch 16).
             Almost all time is per-step overhead in model.train_local, so a
             training-kernel change shows here and a data or evaluation
             change should not.
  scaled     1,000 Dirichlet clients over 100k samples, SGD with batch 64 on a
             32-128-64-10 network and a 0.5 pseudo-label threshold. Time is
             split over evaluation, training and data preparation, and it is
             the only workload on the dirichlet and threshold code paths.
  sweep      `fedsem sweep` over canonical at 10 rounds, 2 labeled fractions x
             2 seeds. The only workload on the sweep orchestration, which
             prepares data and writes outputs once per cell.

The workload seed becomes the master seed of the experiment (the sweep
uses seeds 2s and 2s+1); the program sees only the config and overrides.

--trace 0 times untraced `fedsem` processes for --seconds and prints
run_s (spawn to exit, median), setup_s (median of processes that only
import fedsem, load the config and prepare the data), samples_per_s
(sample-epochs of one run over run_s) and peak_rss_mb (child's own
rusage). --trace 1 alternates untraced and traced runs and prints
per-module span totals, exact counts, isolated layer calls and
trace.overhead_s. Every run's model digests must match the references in
references.json at seed 42, and must agree with each other at any seed;
a run that does not counts as failed. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CANONICAL = "configs/canonical.ini"
REFERENCE_SEED = 42
MIN_RUNS = 3
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 150.0

SCALED_INI = """\
[dataset]
source = synthetic
samples = 100000
classes = 10
dim = 32
separation = 4.0

[partition]
scheme = dirichlet
num_clients = 1000
alpha = 0.5

[labels]
labeled_fraction = 0.2
mask_mode = per_client

[federation]
clients_per_round = 50
rounds = 30
local_epochs = 2
learning_rate = 0.05
batch_size = 64
solver = sgd
aggregation = uniform
master_seed = {seed}
hidden_dims = 128,64

[fedsem]
phase_switch = at_half_rounds
pseudo_label_threshold = 0.5

[output]
formats = csv,json
"""

WORKLOADS = ("canonical", "scaled", "sweep")


def workload_args(name: str, seed: int, work: Path) -> tuple[list[str], list[str]]:
    """(fedsem CLI arguments without --out, arguments naming one experiment)."""
    if name == "canonical":
        experiment = ["--config", CANONICAL, "--seed", str(seed)]
        return ["run", *experiment, "--quiet"], experiment
    if name == "scaled":
        config = work / "scaled.ini"
        config.write_text(SCALED_INI.format(seed=seed), encoding="utf-8")
        experiment = ["--config", str(config)]
        return ["run", *experiment, "--quiet"], experiment
    base = ["--config", CANONICAL, "--override", "federation.rounds=10"]
    command = [
        "sweep", *base, "--axis", "labeled_fraction=0.1,0.3",
        "--axis", f"seed={2 * seed},{2 * seed + 1}", "--quiet",
    ]
    experiment = [*base, "--override", "labels.labeled_fraction=0.1", "--seed", str(2 * seed)]
    return command, experiment


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_outputs(out: Path) -> dict:
    """Digests that identify a run's models, plus its accuracy and gain."""
    if (out / "sweep.csv").exists():
        digests = {"sweep.csv": _sha256(out / "sweep.csv")}
        for result in sorted(out.glob("cells/*/result.json")):
            payload = json.loads(result.read_text(encoding="utf-8"))
            for key in ("model_phase1_sha256", "model_phase2_sha256"):
                digests[f"{result.parent.name}/{key}"] = payload[key]
        with open(out / "sweep.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        accuracy = statistics.fmean(float(r["accuracy_phase2"]) for r in rows)
        gain = statistics.fmean(float(r["gain"]) for r in rows)
    else:
        payload = json.loads((out / "result.json").read_text(encoding="utf-8"))
        digests = {k: payload[k] for k in ("model_phase1_sha256", "model_phase2_sha256")}
        accuracy, gain = payload["accuracy_phase2"], payload["gain"]
    return {"digests": digests, "accuracy_phase2": accuracy, "gain": gain}


class Session:
    """Starts the children of one benchmark run and checks what they produce."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.work = work
        self.command, self.experiment = workload_args(workload, seed, work)
        references = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
        self.expected = references[workload] if seed == REFERENCE_SEED else None
        self.env = {k: v for k, v in os.environ.items() if k != "FEDSEM_OUT"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p
        )
        self.attempted = 0
        self.failed = 0
        self.outputs: dict | None = None

    def spawn(self, argv: list[str]) -> tuple[bool, float, float, str]:
        """Run one child to exit: (ok, wall seconds, peak RSS in MB, stdout)."""
        self.attempted += 1
        stdout_path = self.work / f"child{self.attempted}.out"
        stderr_path = self.work / f"child{self.attempted}.err"
        with open(stdout_path, "w") as out, open(stderr_path, "w") as err:
            started = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                    stdout=out, stderr=err)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            elapsed = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok = proc.returncode == 0
        if not ok:
            self.failed += 1
            tail = stderr_path.read_text(errors="replace")[-2000:]
            print(f"child exited {proc.returncode}: {' '.join(argv)}\n{tail}", file=sys.stderr)
        return ok, elapsed, usage.ru_maxrss / 1024.0, stdout_path.read_text()

    def check(self, out: Path) -> None:
        """Compare a finished run's outputs with the references or earlier runs."""
        try:
            outputs = read_outputs(out)
        except (OSError, KeyError, ValueError) as exc:
            self.failed += 1
            print(f"unreadable outputs in {out}: {exc}", file=sys.stderr)
            return
        shutil.rmtree(out)
        if self.outputs is None:
            self.outputs = outputs
        expected = self.expected if self.expected is not None else self.outputs["digests"]
        if outputs["digests"] != expected:
            self.failed += 1
            print(f"digest mismatch: {outputs['digests']} != {expected}", file=sys.stderr)

    def cli_run(self, traced: bool) -> tuple[bool, float, float, dict]:
        """One `fedsem` run, plain or under the tracer: (exited 0, wall s, RSS MB, trace).

        Its outputs are checked; a digest mismatch counts as a failure but
        the run's time still counts, since the program did run.
        """
        out = self.work / f"out{self.attempted + 1}"
        prefix = [str(HERE / "child.py"), "trace"] if traced else ["-m", "fedsem.cli"]
        ok, elapsed, rss, stdout = self.spawn([*prefix, *self.command, "--out", str(out)])
        if not ok:
            return False, elapsed, rss, {}
        self.check(out)
        report = json.loads(stdout.splitlines()[-1])["metrics"] if traced else {}
        return True, elapsed, rss, report

    def child(self, mode: str) -> tuple[bool, float, dict]:
        ok, elapsed, _, stdout = self.spawn([str(HERE / "child.py"), mode, *self.experiment])
        report = json.loads(stdout.splitlines()[-1])["metrics"] if ok and stdout else {}
        return ok, elapsed, report


def summary(values: list[float]) -> dict:
    return {"n": len(values), "median": statistics.median(values), "min": min(values),
            "max": max(values)}


def measure_untraced(session: Session, seconds: float) -> tuple[dict, dict]:
    _, _, _, counts = session.cli_run(traced=True)  # sample-epochs, and warms caches
    sample_epochs = counts.get("model.sample_epochs", 0)
    setups = [elapsed for ok, elapsed, _ in (session.child("setup") for _ in range(SETUP_RUNS))
              if ok]
    walls, rss = [], []
    started = time.perf_counter()
    while len(walls) < MIN_RUNS or (
        time.perf_counter() - started + statistics.median(walls) <= seconds
    ):
        ok, elapsed, peak, _ = session.cli_run(traced=False)
        if not ok:
            break
        walls.append(elapsed)
        rss.append(peak)
    if not (walls and setups and session.outputs):
        raise RuntimeError("no run exited 0 with readable outputs")
    run_s = statistics.median(walls)
    values = {
        "run_s": run_s,
        "setup_s": statistics.median(setups),
        "samples_per_s": sample_epochs / run_s,
        "peak_rss_mb": statistics.median(rss),
    }
    detail = {"run_s": summary(walls), "setup_s": summary(setups),
              "peak_rss_mb": summary(rss), "sample_epochs": sample_epochs}
    return values, detail


def measure_traced(session: Session, seconds: float) -> tuple[dict, dict]:
    ok, _, values = session.child("layers")
    plain, traced, reports = [], [], []
    started = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - started + plain[-1] + traced[-1] <= seconds:
        ok_plain, wall_plain, _, _ = session.cli_run(traced=False)
        ok_traced, wall_traced, _, report = session.cli_run(traced=True)
        if not (ok_plain and ok_traced):
            break
        plain.append(wall_plain)
        traced.append(wall_traced)
        reports.append(report)
    if not (ok and reports and session.outputs):
        raise RuntimeError("no run exited 0 with readable outputs")
    counts = {k: v for k, v in reports[0].items() if not k.endswith(("_s", "_us"))}
    for report in reports[1:]:
        if any(report[k] != v for k, v in counts.items()):
            session.failed += 1
            print(f"counts differ between traced runs: {report} vs {counts}", file=sys.stderr)
    for key in reports[0]:
        values[key] = statistics.median(r[key] for r in reports)
    values["protocol.accuracy_phase2"] = session.outputs["accuracy_phase2"]
    values["protocol.gain"] = session.outputs["gain"]
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return values, {"untraced_s": summary(plain), "traced_s": summary(traced)}


def units(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def environment() -> dict:
    """Machine and code facts recorded next to every result."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            blas_lib = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(blas_lib, symbol, None)
            if getter is not None:
                threads = getter()
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        commit = git.stdout.strip() or None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src" / "fedsem").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "git_commit": commit,
        "src_fedsem_lines": src_lines,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run: (result object, detail record)."""
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        session = Session(workload, seed, work)
        if trace:
            values, detail = measure_traced(session, seconds)
        else:
            values, detail = measure_untraced(session, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    detail.update(workload=workload, seed=seed, trace=int(trace),
                  accuracy_phase2=session.outputs["accuracy_phase2"],
                  gain=session.outputs["gain"], digests=session.outputs["digests"])
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units("per_layer" if trace else "end_to_end").items()
        },
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the fedsem CLI.")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    missing = [p for p in ("src/fedsem/cli.py", CANONICAL) if not (ROOT / p).is_file()]
    if missing:
        print(f"not a fedsem checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment()}), flush=True)
    if args.workload == "all":
        runs = [(workload, trace) for workload in WORKLOADS for trace in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    results = {}
    for workload, trace in runs:
        try:
            result, detail = measure(workload, args.seed, args.seconds, trace)
        except RuntimeError as exc:
            print(f"benchmark failed on {workload}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({"detail": detail}), flush=True)
        results[f"{workload}/trace{int(trace)}"] = result
        if args.workload == "all":
            for name, metric in result["metrics"].items():
                print(f"{workload:<10} {name:<32} {metric['value']:>14.6g} {metric['unit']}")
            print(f"{workload:<10} accuracy_phase2 {detail['accuracy_phase2']:.6f} "
                  f"gain {detail['gain']:.6f} correct={result['correct']}", flush=True)
    print(json.dumps(results if args.workload == "all" else result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
