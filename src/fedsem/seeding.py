"""Deterministic seed derivation for nested experiment stages.

Every source of randomness in the simulator is keyed by a tuple such as
(master_seed, round_index, client_id). Collapsing the tuple through
numpy's SeedSequence gives statistically independent streams for nearby
tuples, and the result depends only on the tuple, never on scheduling.
"""

from __future__ import annotations

import numpy as np

from .errors import _integer


def derive_seed(*parts: int) -> int:
    """Collapse non-negative integer parts, each checked as ``seed part``, into one 64-bit seed."""
    entropy = [_integer("seed part", p, 0) for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])
