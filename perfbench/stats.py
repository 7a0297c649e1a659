"""The benchmark's own arithmetic: percentiles and failure accounting.

Kept free of any program import so the tests can pin it in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; with fewer, its value is one or two unlucky jobs, not a tail.
MIN_SAMPLES_BEYOND = 10


def nearest_rank(values: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``quantile`` of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < quantile <= 1.0:
        raise ValueError("quantile must be in (0, 1]")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(quantile * len(ordered)) - 1)]


def samples_beyond(count: int, quantile: float) -> int:
    """How many of ``count`` samples lie strictly above the nearest rank."""
    return count - max(1, math.ceil(quantile * count)) if count else 0


def tail_supported(count: int, quantile: float) -> bool:
    """True when ``count`` samples leave ten beyond the ``quantile`` rank."""
    return samples_beyond(count, quantile) >= MIN_SAMPLES_BEYOND


@dataclass
class JobTally:
    """Outcome counts of one timed window.

    Every job the load generator started counts as attempted.  A job that
    raised (lost), returned a wrong answer (incorrect) or was refused by
    the server after the client's retries ran out (refused) counts as
    failed; refusals the client retried to success are not failures.
    """

    attempted: int = 0
    ok: int = 0
    lost: int = 0
    incorrect: int = 0
    refused: int = 0

    @property
    def failed(self) -> int:
        return self.lost + self.incorrect + self.refused

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def check(self) -> None:
        """Every attempted job must end in exactly one outcome."""
        if self.ok + self.failed != self.attempted:
            raise ValueError(
                f"{self.attempted} jobs attempted but {self.ok} ok + "
                f"{self.failed} failed"
            )

