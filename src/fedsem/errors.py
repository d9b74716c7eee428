"""Exception types, and the one rule per kind of setting; imports nothing from the package."""

from __future__ import annotations

import math
import numbers
import operator


class ConfigError(ValueError):
    """Invalid configuration: bad parameter values, unknown or missing keys."""


def _integer(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an ``int``, if it has ``__index__`` (no float does) and is in [low, high]."""
    try:
        operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if high is not None and not low <= value <= high:
        raise ConfigError(f"{name} must be in [{low}, {high}], got {value}")
    if value < low:
        bound = "non-negative" if low == 0 else f">= {low}"
        raise ConfigError(f"{name} must be {bound}, got {value}")
    return int(value)


def _choice(name: str, value, options) -> None:
    """Reject ``value`` unless it is one of ``options``."""
    if value not in options:
        raise ConfigError(f"{name} must be one of {options}, got {value!r}")


def _real(name: str, value, interval: str) -> None:
    """Reject ``value`` unless it is a finite real number in ``interval``, such as ``"(0, 1]"``."""
    low, high = map(float, interval[1:-1].split(","))
    if not (
        isinstance(value, numbers.Real)
        and math.isfinite(value)
        and (low < value or (interval[0] == "[" and low == value))
        and (value < high or (interval[-1] == "]" and value == high))
    ):
        raise ConfigError(f"{name} must be a finite number in {interval}, got {value!r}")


class ShapeError(ValueError):
    """Array shapes incompatible with the model, batch, or aggregation."""


class CsvParseError(ValueError):
    """Malformed dataset CSV; carries the 1-based line number of the bad row."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class TrainingDivergence(ValueError):
    """Local training left non-finite parameters at ``step``, first for ``client``.

    :func:`~fedsem.model.train_local` names the client by its position in
    the cohort. :func:`~fedsem.federation.client_round` re-raises with the
    client id, the index of the ``cohort`` it trained in, and a message
    prefix naming the phase, round and client.
    """

    def __init__(self, step: int, client: int, cohort: int = 0, where: str = ""):
        super().__init__(f"{where}step {step}: non-finite parameter values")
        self.step = step
        self.client = client
        self.cohort = cohort


class RoundFailure(RuntimeError):
    """A federated round (or phase) could not produce any client update."""
