"""Round history records, the relative-gain metric, and history export."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

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


@dataclass(frozen=True)
class SummaryRow:
    """One experiment condensed to the result-table schema."""

    labeled_percent: float
    rounds: int
    epochs: int
    accuracy_phase1: float
    accuracy_phase2: float
    gain: float

    def __post_init__(self):
        expected = gain(self.accuracy_phase1, self.accuracy_phase2)
        if abs(self.gain - expected) > 1e-12:
            raise ValueError(
                f"gain {self.gain} inconsistent with accuracies "
                f"({self.accuracy_phase1}, {self.accuracy_phase2})"
            )


def gain(acc_phase1: float, acc_phase2: float) -> float:
    """Relative accuracy improvement: (acc2 - acc1) / acc2.

    Negative when the second phase underperforms; always < 1 because
    both accuracies must be positive.
    """
    if acc_phase2 <= 0.0:
        raise ValueError(f"phase-2 accuracy must be positive, got {acc_phase2}")
    if acc_phase1 <= 0.0:
        raise ValueError(f"phase-1 accuracy must be positive, got {acc_phase1}")
    if acc_phase1 > 1.0 or acc_phase2 > 1.0:
        raise ValueError("accuracies cannot exceed 1")
    return (acc_phase2 - acc_phase1) / acc_phase2


def _record_row(r: RoundRecord) -> dict:
    return {
        "round": r.round,
        "phase": r.phase,
        "test_accuracy": r.test_accuracy,
        "test_loss": r.test_loss,
        "participants": list(r.participant_ids),
    }


def _row_record(row: dict) -> RoundRecord:
    return RoundRecord(
        round=int(row["round"]),
        phase=row["phase"],
        test_accuracy=float(row["test_accuracy"]),
        test_loss=float(row["test_loss"]),
        participant_ids=tuple(int(i) for i in row["participants"]),
    )


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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def load_history(path, fmt: str = "csv") -> list[RoundRecord]:
    """Read back a history file written by :func:`export_history`; extra columns are ignored."""
    if fmt not in HISTORY_FORMATS:
        raise ValueError(f"unknown history format {fmt!r}, expected one of {HISTORY_FORMATS}")
    with open(path, newline="", encoding="utf-8") as fh:
        if fmt == "csv":
            rows = [
                dict(row, participants=row["participants"].split(";"))
                for row in csv.DictReader(fh)
            ]
        else:
            rows = json.load(fh)
    return [_row_record(row) for row in rows]


def summarize(result, *, labeled_fraction: float, rounds: int, epochs: int) -> SummaryRow:
    """Condense an experiment result plus its governing settings to one row."""
    return SummaryRow(
        labeled_percent=labeled_fraction * 100.0,
        rounds=rounds,
        epochs=epochs,
        accuracy_phase1=result.accuracy_phase1,
        accuracy_phase2=result.accuracy_phase2,
        gain=result.gain,
    )


def _gain_percent(fraction: float) -> str:
    return str(Decimal(repr(fraction * 100.0)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def render_summary(rows) -> str:
    """Aligned plain-text table; gain shown as a percent, half-up to 0.1."""
    lines = [
        "two-phase run summary (gain rendered as percent, rounded half-up to one decimal)",
        "",
        f"{'labeled_percent':>15}  {'rounds':>6}  {'epochs':>6}  "
        f"{'accuracy_phase1':>15}  {'accuracy_phase2':>15}  {'gain_percent':>12}",
    ]
    for row in rows:
        lines.append(
            f"{row.labeled_percent:>15.1f}  {row.rounds:>6d}  {row.epochs:>6d}  "
            f"{row.accuracy_phase1:>15.6f}  {row.accuracy_phase2:>15.6f}  "
            f"{_gain_percent(row.gain):>12}"
        )
    return "\n".join(lines) + "\n"
