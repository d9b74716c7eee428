"""Command-line front end: dataset generation, single runs, grid sweeps.

Subcommands:
  generate  write a synthetic CSV dataset plus a JSON metadata sidecar
  run       execute one experiment from a config file
  sweep     run the Cartesian product of axis values over a base config
  report    re-render summary.txt from an existing result.json

Exit codes: 0 success, 1 runtime failure, 2 configuration failure. With
the FEDSEM_OUT environment variable set, relative output directories are
resolved under it.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
import time
from pathlib import Path

from .config import ExperimentConfig, _cast_tuple, load_config
from .data import generate_synthetic, load_csv, mask_labels, partition, save_csv
from .data import split_train_test, write_text
from .errors import ConfigError
from .federation import run_fedavg, run_lockstep
from .metrics import export_history, render_summary
from .model import STACK_CLIENTS
from .protocol import fedsem_run, run_fedsem

TRAIN_RATIO = 0.8
SWEEP_AXES = {
    "labeled_fraction": ("labels", "labeled_fraction"),
    "epochs": ("federation", "local_epochs"),
    "rounds": ("federation", "rounds"),
    "seed": ("federation", "master_seed"),
}
SWEEP_HEADER = "labeled_percent,rounds,epochs,seed,accuracy_phase1,accuracy_phase2,gain"


def resolve_output_dir(configured: str | None) -> Path:
    """Configured (or default) directory, rooted at $FEDSEM_OUT if relative."""
    base = Path(configured) if configured else Path("fedsem-out")
    root = os.environ.get("FEDSEM_OUT", "")
    if not base.is_absolute() and root:
        base = Path(root) / base
    return base


def _params_digest(params) -> str:
    return hashlib.sha256(params.flatten().tobytes()).hexdigest()


def _prepare_data(config: ExperimentConfig):
    ds_cfg = config.dataset
    if ds_cfg.source == "synthetic":
        dataset = generate_synthetic(
            ds_cfg.samples, ds_cfg.classes, ds_cfg.dim, ds_cfg.separation, ds_cfg.seed
        )
    else:
        dataset = load_csv(ds_cfg.path, ds_cfg.classes, ds_cfg.has_header)
    shards = partition(dataset, config.partition)
    shards = split_train_test(shards, ratio=TRAIN_RATIO, seed=config.partition.seed)
    masked = mask_labels(
        dataset,
        shards,
        config.labels.labeled_fraction,
        config.labels.mask_mode,
        config.labels.mask_seed,
    )
    return masked, shards


def _payload(config: ExperimentConfig, result) -> dict:
    """The result payload of a fedsem ``ExperimentResult`` or a fedavg ``ServerState``."""
    fed = config.federation
    common = {
        "clients": fed.num_clients,
        "clients_per_round": fed.clients_per_round,
        "labeled_fraction": config.labels.labeled_fraction,
        "local_epochs": fed.local_epochs,
        "rounds": fed.rounds,
    }
    history = result.history
    if config.fedsem is not None:
        payload = dict(
            common,
            mode="fedsem",
            labeled_percent=config.labels.labeled_fraction * 100.0,
            phase1_rounds=sum(1 for r in history if r.phase == "phase1"),
            phase2_rounds=sum(1 for r in history if r.phase == "phase2"),
            accuracy_phase1=result.accuracy_phase1,
            accuracy_phase2=result.accuracy_phase2,
            gain=result.gain,
            pseudo_label_accuracy=result.pseudo_label_accuracy,
            final_test_accuracy=history[-1].test_accuracy,
            final_test_loss=history[-1].test_loss,
            model_phase1_sha256=_params_digest(result.model_phase1),
            model_phase2_sha256=_params_digest(result.model_phase2),
        )
    else:
        payload = dict(
            common,
            mode="fedavg",
            best_accuracy=max(r.test_accuracy for r in history) if history else None,
            final_test_accuracy=history[-1].test_accuracy if history else None,
            final_test_loss=history[-1].test_loss if history else None,
            model_sha256=_params_digest(result.global_params),
        )
    return payload


def _write_outputs(out_dir: Path, config: ExperimentConfig, result) -> tuple[dict, str]:
    """Write every artifact of one run, result.json last; returns (payload, summary text)."""
    payload = _payload(config, result)
    out_dir.mkdir(parents=True, exist_ok=True)
    for fmt in config.output.formats:
        export_history(result.history, out_dir / f"history.{fmt}", fmt)
    summary_text = render_summary(payload)
    write_text(out_dir / "summary.txt", summary_text)
    result_text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    write_text(out_dir / "result.json", result_text + "\n")
    return payload, summary_text


def cmd_generate(args) -> int:
    dataset = generate_synthetic(args.samples, args.classes, args.dim, args.sep, args.seed)
    try:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        save_csv(dataset, out)
        meta = {
            "d": args.dim,
            "generator": "unit-direction-gaussian-blobs-v1",
            "n": args.samples,
            "num_classes": args.classes,
            "seed": args.seed,
            "separation": float(args.sep),
        }
        write_text(f"{out}.meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        print(f"error writing dataset: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(f"wrote {args.samples} samples to {out} (+ {out}.meta.json)")
    return 0


def _failure(stage: str, exc: Exception) -> int:
    """Report ``exc`` raised during ``stage``; returns the exit code, 2 for a config error."""
    kind, code = ("configuration error", 2) if isinstance(exc, ConfigError) else ("error", 1)
    print(f"{kind} during {stage}: {exc}", file=sys.stderr)
    return code


def cmd_run(args) -> int:
    config = load_config(args.config, overrides=args.override, seed=args.seed, out_dir=args.out)
    out_dir = resolve_output_dir(config.output.directory)
    stage = "data setup"
    try:
        started = time.perf_counter()
        dataset, shards = _prepare_data(config)
        stage = "training"
        if config.fedsem is not None:
            result = run_fedsem(config.fedsem, shards, dataset)
        else:
            result = run_fedavg(config.federation, shards, dataset)
        stage = "writing outputs"
        _, summary_text = _write_outputs(out_dir, config, result)
        elapsed = time.perf_counter() - started
    except Exception as exc:
        return _failure(stage, exc)
    if not args.quiet:
        print(summary_text, end="")
        print(f"outputs in {out_dir} ({elapsed:.1f}s)")
    return 0


def _parse_axes(axis_args) -> list[tuple[str, tuple[str, ...]]]:
    if not axis_args:
        raise ConfigError("sweep needs at least one --axis key=v1,v2,...")
    axes = {}
    for item in axis_args:
        if "=" not in item:
            raise ConfigError(f"axis must look like key=v1,v2, got {item!r}")
        key, raw_values = item.split("=", 1)
        key = key.strip()
        if key not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {key!r}, expected one of {sorted(SWEEP_AXES)}")
        if key in axes:
            raise ConfigError(f"sweep axis {key} repeated")
        values = _cast_tuple(str, raw_values)
        if not values:
            raise ConfigError(f"axis {key} has no values")
        if "" in values:
            raise ConfigError(f"axis {key} has an empty value in {raw_values!r}")
        axes[key] = values
    return list(axes.items())


def cmd_sweep(args) -> int:
    axes = _parse_axes(args.axis)
    base = load_config(args.config, overrides=args.override, seed=args.seed, out_dir=args.out)
    if base.fedsem is None:
        raise ConfigError("sweep requires a [fedsem] section in the config")
    out_root = resolve_output_dir(base.output.directory)
    # A bad or repeated cell must fail before any cell writes output.
    cells: dict[str, ExperimentConfig] = {}
    for cell in itertools.product(*[[(key, v) for v in values] for key, values in axes]):
        slug = "_".join(f"{key}-{value}" for key, value in cell)
        cell_overrides = list(args.override) + [
            f"{SWEEP_AXES[key][0]}.{SWEEP_AXES[key][1]}={value}" for key, value in cell
        ]
        config = load_config(args.config, overrides=cell_overrides, seed=args.seed)
        if config in cells.values():
            raise ConfigError(f"sweep cell {slug} repeated: same experiment as an earlier cell")
        cells[slug] = config
    # Consecutive cells train in lockstep, about STACK_CLIENTS clients per round.
    size = -(-STACK_CLIENTS // base.federation.clients_per_round)
    slugs = list(cells)
    rows: list[str] = []
    try:
        for start in range(0, len(slugs), size):
            group, runs = slugs[start : start + size], []
            for slug in group:
                stage = f"cell {slug}"
                dataset, shards = _prepare_data(cells[slug])
                runs.append(fedsem_run(cells[slug].fedsem, shards, dataset))
            stage = f"cells {', '.join(group)}"
            try:
                results = run_lockstep(runs)
            except Exception as exc:
                if hasattr(exc, "run"):
                    stage = f"cell {group[exc.run]}"
                raise
            for slug, result in zip(group, results):
                stage, config = f"cell {slug}", cells[slug]
                payload, _ = _write_outputs(out_root / "cells" / slug, config, result)
                gain = "" if payload["gain"] is None else f"{payload['gain']:.6f}"
                rows.append(
                    f"{payload['labeled_percent']:g},{payload['rounds']},{payload['local_epochs']},"
                    f"{config.federation.master_seed},{payload['accuracy_phase1']:.6f},"
                    f"{payload['accuracy_phase2']:.6f},{gain}"
                )
                if not args.quiet:
                    print(f"cell {slug}: gain {gain or 'n/a'}")
        stage = "writing sweep.csv"
        write_text(out_root / "sweep.csv", "\n".join([SWEEP_HEADER] + rows) + "\n")
    except Exception as exc:
        return _failure(stage, exc)
    if not args.quiet:
        print(f"sweep table in {out_root / 'sweep.csv'} ({len(rows)} cells)")
    return 0


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def cmd_report(args) -> int:
    path = Path(args.result)
    if path.is_dir():
        path = path / "result.json"
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read result file: {exc}", file=sys.stderr)
        return 1
    try:
        payload = json.loads(text, parse_constant=_reject_constant)
        if not isinstance(payload, dict):
            raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
        summary_text = render_summary(payload)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"malformed result file {path}: {exc}", file=sys.stderr)
        return 1
    try:
        write_text(path.parent / "summary.txt", summary_text)
    except OSError as exc:
        return _failure("writing summary.txt", exc)
    if not args.quiet:
        print(summary_text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsem",
        description="Deterministic two-phase semi-supervised federated learning simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic CSV dataset")
    gen.add_argument("--classes", type=int, default=10)
    gen.add_argument("--samples", type=int, default=4000)
    gen.add_argument("--dim", type=int, default=16)
    gen.add_argument("--sep", type=float, default=2.0, help="class separation")
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.add_argument("--quiet", action="store_true")
    gen.set_defaults(handler=cmd_generate)

    experiment = argparse.ArgumentParser(add_help=False)
    experiment.add_argument("--config", required=True)
    experiment.add_argument("--override", action="append", default=[], metavar="KEY=VALUE")
    experiment.add_argument("--out", default=None, help="output directory")
    experiment.add_argument("--seed", type=int, default=None, help="override the master seed")
    experiment.add_argument("--quiet", action="store_true")
    run = sub.add_parser("run", parents=[experiment], help="run one experiment from a config file")
    run.set_defaults(handler=cmd_run)
    sweep = sub.add_parser("sweep", parents=[experiment], help="run a grid of experiments")
    sweep.add_argument("--axis", action="append", default=[], metavar="KEY=V1,V2")
    sweep.set_defaults(handler=cmd_sweep)

    report = sub.add_parser("report", help="re-render summary.txt from result.json")
    report.add_argument("--result", required=True, help="result.json path or run directory")
    report.add_argument("--quiet", action="store_true")
    report.set_defaults(handler=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
