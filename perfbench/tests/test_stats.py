"""The benchmark's own arithmetic: percentiles, failure accounting."""

import pytest

from stats import JobTally, nearest_rank, samples_beyond, tail_supported


def test_nearest_rank_picks_a_sample():
    values = [float(v) for v in range(10, 0, -1)]  # order must not matter
    assert nearest_rank(values, 0.50) == 5.0
    assert nearest_rank(values, 0.95) == 10.0
    assert nearest_rank(values, 0.10) == 1.0
    assert nearest_rank(values, 1.0) == 10.0
    assert nearest_rank([3.5], 0.5) == 3.5


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0.0)


def test_ten_beyond_rule():
    # p95 of n samples has n - ceil(0.95 n) samples above it.
    assert samples_beyond(199, 0.95) == 9
    assert not tail_supported(199, 0.95)
    assert samples_beyond(200, 0.95) == 10
    assert tail_supported(200, 0.95)
    # The median needs only 20 samples, p99 needs 1000.
    assert tail_supported(20, 0.50) and not tail_supported(19, 0.50)
    assert tail_supported(1000, 0.99) and not tail_supported(999, 0.99)
    assert samples_beyond(0, 0.95) == 0


def test_failed_ratio_counts_every_kind_of_failure():
    tally = JobTally(attempted=10, ok=7, lost=1, incorrect=1, refused=1)
    tally.check()
    assert tally.failed == 3
    assert tally.failed_ratio == pytest.approx(0.3)
    assert JobTally().failed_ratio == 0.0


def test_tally_rejects_unaccounted_jobs():
    with pytest.raises(ValueError):
        JobTally(attempted=3, ok=1, lost=1).check()

