"""How served jobs turn into attempted / failed counts."""

from types import SimpleNamespace

import run
from workloads import Job, Served


class MarkEveryThird:
    """A stand-in workload whose check fails every third job."""

    def verify(self, served):
        for index, job in enumerate(served):
            job.problem = "wrong" if index % 3 == 2 else ""


def job(name):
    return Served(job=Job(contract_id=name, tables={}, predicate=None,
                          algorithm="algorithm7"))


def test_every_outcome_is_counted_once():
    warm = job("w")
    timed = [job(f"j{i}") for i in range(5)]
    timed[0].error, timed[0].refused = "busy", True
    timed[1].error = "connection reset"
    outcome = run.Outcome("x")
    ok = run._account(outcome, MarkEveryThird(), [warm],
                      [SimpleNamespace(runs=timed)])
    # verify() sees warm, j2, j3, j4 (the two errors are skipped): j3 is
    # the third and is marked wrong.
    tally = outcome.tally
    assert (tally.attempted, tally.ok, tally.lost, tally.incorrect,
            tally.refused) == (5, 2, 1, 1, 1)
    assert tally.failed_ratio == 3 / 5
    assert [s.job.contract_id for s in ok] == ["j2", "j4"]
    assert not outcome.correct


def test_a_failed_warm_up_makes_the_run_incorrect():
    warm = job("w")
    warm.error = "lost"
    outcome = run.Outcome("x")
    run._account(outcome, MarkEveryThird(), [warm], [])
    assert outcome.tally.attempted == 0
    assert not outcome.correct
