"""Exception types shared across the simulator."""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid configuration: bad parameter values, unknown or missing keys."""


class ShapeError(ValueError):
    """Array shapes incompatible with the model, batch, or aggregation."""


class CsvParseError(ValueError):
    """Malformed dataset CSV; carries the 1-based line number of the bad row."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class RoundFailure(RuntimeError):
    """A federated round (or phase) could not produce any client update."""
