"""Round history records, the relative-gain metric, history export and run summaries."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

from .data import write_text

PHASES = ("phase1", "phase2")
HISTORY_HEADER = "round,phase,test_accuracy,test_loss,participants"
HISTORY_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class RoundRecord:
    """One per-round evaluation snapshot of the global model."""

    round: int
    phase: str
    test_accuracy: float
    test_loss: float
    participant_ids: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "participant_ids", tuple(int(i) for i in self.participant_ids))
        if self.phase not in PHASES:
            raise ValueError(f"unknown phase {self.phase!r}, expected one of {PHASES}")
        if not 0.0 <= self.test_accuracy <= 1.0:
            raise ValueError(f"test_accuracy out of [0, 1]: {self.test_accuracy}")
        if not (math.isfinite(self.test_loss) and self.test_loss >= 0.0):
            raise ValueError(f"test_loss must be finite and non-negative: {self.test_loss}")
        if self.round < 0:
            raise ValueError("round must be non-negative")
        if not self.participant_ids:
            raise ValueError("a round must have at least one participant")


def gain(acc_phase1: float, acc_phase2: float) -> float:
    """Relative accuracy improvement: (acc2 - acc1) / acc2.

    Negative when the second phase underperforms; always < 1 because
    both accuracies must lie in (0, 1], which NaN does not.
    """
    if not 0.0 < acc_phase2 <= 1.0:
        raise ValueError(f"phase-2 accuracy must be in (0, 1], got {acc_phase2}")
    if not 0.0 < acc_phase1 <= 1.0:
        raise ValueError(f"phase-1 accuracy must be in (0, 1], got {acc_phase1}")
    return (acc_phase2 - acc_phase1) / acc_phase2


def _record_row(r: RoundRecord) -> dict:
    return {
        "round": r.round,
        "phase": r.phase,
        "test_accuracy": r.test_accuracy,
        "test_loss": r.test_loss,
        "participants": list(r.participant_ids),
    }


def export_history(history, path, fmt: str = "csv") -> None:
    """Write round records as CSV or JSON; byte-identical per history."""
    if fmt not in HISTORY_FORMATS:
        raise ValueError(f"unknown history format {fmt!r}, expected one of {HISTORY_FORMATS}")
    rows = [_record_row(r) for r in history]
    if fmt == "csv":
        lines = [HISTORY_HEADER] + [
            f"{row['round']},{row['phase']},{row['test_accuracy']:.6f},"
            f"{row['test_loss']:.6f},{';'.join(map(str, row['participants']))}"
            for row in rows
        ]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(rows, indent=2) + "\n"
    write_text(path, text)


def render_summary(payload: dict) -> str:
    """The summary.txt text of one run, rendered from its result payload.

    A fedsem run is one table row with the gain as a percent, half-up to
    0.1; its gain must match its accuracies, since ``fedsem report`` reads
    the payload back from disk. A fedavg run is its rounds and best accuracy.
    """
    if payload.get("mode") != "fedsem":
        best = payload["best_accuracy"]
        return (
            "single-phase federated run\n"
            f"rounds: {payload['rounds']}\n"
            f"best test accuracy: {'n/a' if best is None else format(best, '.6f')}\n"
        )
    acc1, acc2, stated = payload["accuracy_phase1"], payload["accuracy_phase2"], payload["gain"]
    if abs(stated - gain(acc1, acc2)) > 1e-12:
        raise ValueError(f"gain {stated} inconsistent with accuracies ({acc1}, {acc2})")
    percent = Decimal(repr(stated * 100.0)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)
    return (
        "two-phase run summary (gain rendered as percent, rounded half-up to one decimal)\n\n"
        f"{'labeled_percent':>15}  {'rounds':>6}  {'epochs':>6}  "
        f"{'accuracy_phase1':>15}  {'accuracy_phase2':>15}  {'gain_percent':>12}\n"
        f"{payload['labeled_percent']:>15.1f}  {payload['rounds']:>6d}  "
        f"{payload['local_epochs']:>6d}  {acc1:>15.6f}  {acc2:>15.6f}  {str(percent):>12}\n"
    )
