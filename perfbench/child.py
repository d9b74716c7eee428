"""Processes the benchmark starts besides the plain ``fedsem`` CLI.

    python3 perfbench/child.py setup  --config C [--seed S] [--override K=V ...]
    python3 perfbench/child.py layers --config C [--seed S] [--override K=V ...]
    python3 perfbench/child.py trace  <fedsem CLI arguments>

``setup`` does what a run pays before its first round: import fedsem, load
the config and prepare the data. ``trace`` wraps fedsem's public functions
in spans, runs the real CLI in this process and prints span totals and
exact counts. ``layers`` times isolated calls of the model and federation
functions on one mini-batch and one round in the experiment's shapes. Both
print one JSON object on stdout. Run with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

import fedsem
from fedsem.config import load_config
from fedsem.cli import TRAIN_RATIO

# Span name -> "module:function" of the public function it wraps. Every
# binding of the function inside the fedsem package is replaced, so a call
# is caught whichever module makes it.
SPANS = {
    "config.load": "fedsem.config:load_config",
    "data.generate": "fedsem.data:generate_synthetic",
    "data.partition": "fedsem.data:partition",
    "data.split": "fedsem.data:split_train_test",
    "data.mask": "fedsem.data:mask_labels",
    "seeding.derive_seed": "fedsem.seeding:derive_seed",
    "model.train_local": "fedsem.model:train_local",
    "model.evaluate": "fedsem.model:evaluate",
    "federation.training_view": "fedsem.federation:training_view",
    "federation.client_round": "fedsem.federation:client_round",
    "federation.aggregate": "fedsem.federation:aggregate",
    "federation.evaluation_batch": "fedsem.federation:evaluation_batch",
    "federation.run_round": "fedsem.federation:run_round",
    "protocol.run_fedsem": "fedsem.protocol:run_fedsem",
    "protocol.phase1": "fedsem.protocol:run_phase1",
    "protocol.phase2": "fedsem.protocol:run_phase2",
    "protocol.pseudo_label": "fedsem.protocol:pseudo_label",
    "metrics.export_history": "fedsem.metrics:export_history",
}


class Tracer:
    """Per-name span totals and self times, plus exact counts taken at span ends.

    A span's self time is its duration minus the time of its direct child
    spans. One stack of open spans assumes calls do not overlap, which holds
    for every workload (``parallel_clients = 1``).
    """

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._open: list[list[float]] = []

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            frame = [0.0]  # time covered by direct children
            self._open.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._open.pop()
                self.total[name] += duration
                self.self_time[name] += duration - frame[0]
                self.calls[name] += 1
                if parent is not None:
                    parent[0] += duration
            if count is not None:
                count(self.counts, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self) -> None:
        for name, target in SPANS.items():
            module_name, attr = target.split(":")
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(name, original)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("fedsem"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


def _count_training(counts, args, result) -> None:
    """Optimizer steps and sample-epochs of one train_local call."""
    n = len(args["samples"])
    epochs = args["epochs"]
    if args.get("lr", 1.0) > 0:
        counts["model.steps"] += epochs * -(-n // args["batch_size"])
        counts["model.sample_epochs"] += epochs * n


def _count_pseudo_labels(counts, args, result) -> None:
    """Labels assigned and how many of them match the hidden ground truth."""
    before = args["dataset"]
    assigned = result.pseudo_mask & ~before.pseudo_mask
    counts["protocol.pseudo_labels"] += int(assigned.sum())
    counts["protocol.pseudo_labels_correct"] += int(
        (result.labels[assigned] == before.labels[assigned]).sum()
    )


COUNTERS = {
    "model.train_local": _count_training,
    "protocol.pseudo_label": _count_pseudo_labels,
}


def trace_metrics(tracer: Tracer, cli_s: float) -> dict:
    """Per-layer figures of one traced CLI run."""
    total, calls, counts = tracer.total, tracer.calls, tracer.counts
    cells = max(calls["protocol.run_fedsem"], 1)
    steps = counts["model.steps"]
    assigned = counts["protocol.pseudo_labels"]
    return {
        "config.load_s": total["config.load"],
        "data.generate_s": total["data.generate"],
        "data.partition_s": total["data.partition"],
        "data.split_s": total["data.split"],
        "data.mask_s": total["data.mask"],
        "seeding.derive_seed_calls": calls["seeding.derive_seed"],
        "seeding.derive_seed_s": total["seeding.derive_seed"],
        "model.train_local_s": total["model.train_local"],
        "model.train_local_calls": calls["model.train_local"],
        "model.steps": steps,
        "model.sample_epochs": counts["model.sample_epochs"],
        "model.step_us": 1e6 * total["model.train_local"] / steps if steps else 0.0,
        "model.evaluate_s": total["model.evaluate"],
        "federation.evaluation_batch_s": total["federation.evaluation_batch"],
        "federation.aggregate_s": total["federation.aggregate"],
        "federation.client_prep_s": total["federation.client_round"] - total["model.train_local"],
        "federation.round_self_s": tracer.self_time["federation.run_round"],
        "federation.training_view_calls": calls["federation.training_view"],
        "protocol.phase1_s": total["protocol.phase1"],
        "protocol.phase2_s": total["protocol.phase2"],
        "protocol.pseudo_label_s": total["protocol.pseudo_label"],
        "protocol.pseudo_labels": assigned,
        "protocol.pseudo_label_accuracy": (
            counts["protocol.pseudo_labels_correct"] / assigned if assigned else 0.0
        ),
        "metrics.export_history_s": total["metrics.export_history"],
        "cli.sweep_cell_s": cli_s / cells,
        "cli.cells": cells,
    }


def prepare(config):
    """The data preparation of ``fedsem run``, from the public functions."""
    ds = config.dataset
    dataset = fedsem.generate_synthetic(ds.samples, ds.classes, ds.dim, ds.separation, ds.seed)
    shards = fedsem.partition(dataset, config.partition)
    shards = fedsem.split_train_test(shards, ratio=TRAIN_RATIO, seed=config.partition.seed)
    masked = fedsem.mask_labels(
        dataset, shards, config.labels.labeled_fraction, config.labels.mask_mode,
        config.labels.mask_seed,
    )
    return masked, shards


def per_call(fn, budget_s: float = 0.3) -> float:
    """Median seconds per call, over blocks of calls that each last about 2 ms."""
    fn()
    start = time.perf_counter()
    fn()
    block = max(1, int(0.002 / max(time.perf_counter() - start, 1e-7)))
    means = []
    deadline = time.perf_counter() + budget_s
    while len(means) < 9 or time.perf_counter() < deadline:
        start = time.perf_counter()
        for _ in range(block):
            fn()
        means.append((time.perf_counter() - start) / block)
    return statistics.median(means)


def layer_metrics(config) -> dict:
    """Isolated calls on one mini-batch and one round in the workload's shapes."""
    dataset, shards = prepare(config)
    fed = config.federation
    params = fedsem.initial_params(fed, dataset)
    rows = np.flatnonzero(dataset.label_visible)[: fed.batch_size]
    batch = fedsem.Batch(
        dataset.features[rows], fedsem.one_hot(dataset.labels[rows], dataset.num_classes)
    )
    grad = fedsem.backward(params, batch)
    state = fedsem.init_optimizer(fed.solver, params)
    rng = np.random.default_rng(0)
    updates = [
        fedsem.ClientUpdate(
            shard.client_id,
            fedsem.ModelParams.unflatten(
                params.layer_dims, params.flatten() + 0.01 * rng.standard_normal(params.num_params)
            ),
            int(shard.train_indices.size),
        )
        for shard in shards[: fed.clients_per_round]
    ]
    eval_batch = fedsem.evaluation_batch(shards, dataset)
    return {
        "model.forward_us": 1e6 * per_call(lambda: fedsem.forward(params, batch.inputs)),
        "model.backward_us": 1e6 * per_call(lambda: fedsem.backward(params, batch)),
        "model.optimizer_step_us": 1e6 * per_call(
            lambda: fedsem.optimizer_step(params, grad, state, fed.learning_rate)
        ),
        "federation.aggregate_call_ms": 1e3 * per_call(
            lambda: fedsem.aggregate(updates, fed.aggregation)
        ),
        "model.evaluate_call_ms": 1e3 * per_call(lambda: fedsem.evaluate(params, eval_batch)),
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["trace"]:
        tracer = Tracer()
        tracer.install()
        start = time.perf_counter()
        code = fedsem.cli.main(argv[1:])
        print(json.dumps({"metrics": trace_metrics(tracer, time.perf_counter() - start)}))
        return code
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "layers"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--override", action="append", default=[])
    args = parser.parse_args(argv)
    config = load_config(args.config, overrides=args.override, seed=args.seed)
    if args.mode == "setup":
        prepare(config)
    else:
        print(json.dumps({"metrics": layer_metrics(config)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
