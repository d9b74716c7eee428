"""Deterministic seed derivation for nested experiment stages.

Every source of randomness in the simulator is keyed by a tuple such as
(master_seed, round_index, client_id). Collapsing the tuple through
numpy's SeedSequence gives statistically independent streams for nearby
tuples, and the result depends only on the tuple, never on scheduling.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import ConfigError


def derive_seed(*parts: int) -> int:
    """Collapse non-negative integer parts into one stable 64-bit seed."""
    try:
        entropy = [operator.index(p) for p in parts]
    except TypeError:
        raise ConfigError(f"seed parts must be integers, got {parts}") from None
    if any(p < 0 for p in entropy):
        raise ConfigError(f"seed parts must be non-negative, got {entropy}")
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])
