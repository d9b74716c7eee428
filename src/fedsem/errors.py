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
