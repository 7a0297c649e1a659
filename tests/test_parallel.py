"""Tests for the parallel variants (Sections 4.4.4 and 5.3.5)."""

import random

import pytest

from tests.conftest import KEY

from repro.core.base import JoinContext
from repro.core.parallel import (
    parallel_algorithm2,
    parallel_algorithm3,
    parallel_algorithm4,
    parallel_algorithm5,
)
from repro.crypto.provider import FastProvider
from repro.hardware.cluster import Cluster
from repro.relational.generate import equijoin_workload
from repro.relational.joins import nested_loop_join
from repro.relational.predicates import BinaryAsMulti, Equality


def rig(processors: int):
    provider = FastProvider(KEY)
    context = JoinContext.fresh(provider=provider)
    cluster = Cluster(context.host, provider, count=processors)
    return context, cluster


def workload(seed=50, left=8, right=10, results=6):
    wl = equijoin_workload(left, right, results, rng=random.Random(seed))
    reference = nested_loop_join(wl.left, wl.right, Equality("key"))
    return wl, reference


class TestParallelAlgorithm2:
    @pytest.mark.parametrize("processors", [1, 2, 4])
    def test_correct(self, processors):
        wl, reference = workload()
        context, cluster = rig(processors)
        out = parallel_algorithm2(context, cluster, wl.left, wl.right,
                                  Equality("key"), wl.max_matches, memory=2)
        assert out.result.same_multiset(reference)

    def test_linear_speedup(self):
        """Section 4.4.4: "easy to parallelize with a linear speed-up"."""
        wl, _ = workload(left=8, right=10)
        context, cluster = rig(4)
        out = parallel_algorithm2(context, cluster, wl.left, wl.right,
                                  Equality("key"), wl.max_matches, memory=2)
        assert out.speedup == pytest.approx(4.0, rel=0.05)


class TestParallelAlgorithm3:
    @pytest.mark.parametrize("processors", [1, 2, 4])
    @pytest.mark.parametrize("presorted", [False, True])
    def test_correct(self, processors, presorted):
        wl, reference = workload(seed=51)
        context, cluster = rig(processors)
        out = parallel_algorithm3(context, cluster, wl.left, wl.right, "key",
                                  wl.max_matches, presorted=presorted)
        assert out.result.same_multiset(reference)
        assert out.meta["output_slots"] == wl.max_matches * len(wl.left)
        assert out.total_transfers == cluster.total_transfers()
        assert out.makespan_transfers == cluster.makespan_transfers()
        assert out.total_transfers >= out.makespan_transfers
        assert out.total_transfers <= processors * out.makespan_transfers

    def test_scan_splits_across_the_cluster(self):
        """The serial sort of B lands on T0; the 3·|A|·|B| scan splits P
        ways, so the presorted run is perfectly balanced."""
        wl, _ = workload(seed=51, left=8, right=10)
        context, cluster = rig(4)
        out = parallel_algorithm3(context, cluster, wl.left, wl.right, "key",
                                  wl.max_matches, presorted=True)
        assert out.speedup == pytest.approx(4.0)
        context, cluster = rig(4)
        sorted_out = parallel_algorithm3(context, cluster, wl.left, wl.right,
                                         "key", wl.max_matches)
        assert sorted_out.makespan_transfers == \
            sorted_out.per_coprocessor[0].total > out.makespan_transfers


class TestParallelAlgorithm4:
    @pytest.mark.parametrize("processors", [1, 2, 3])
    def test_correct(self, processors):
        wl, reference = workload(seed=51)
        context, cluster = rig(processors)
        out = parallel_algorithm4(context, cluster, [wl.left, wl.right],
                                  BinaryAsMulti(Equality("key")))
        assert out.result.same_multiset(reference)
        assert out.meta["S"] == len(reference)

    def test_scan_phase_balanced(self):
        wl, _ = workload(seed=52, left=8, right=8)
        context, cluster = rig(4)
        out = parallel_algorithm4(context, cluster, [wl.left, wl.right],
                                  BinaryAsMulti(Equality("key")))
        scan_totals = [s.total for s in out.per_coprocessor]
        assert max(scan_totals) - min(scan_totals) <= 3  # near-equal shares


class TestParallelAlgorithm5:
    @pytest.mark.parametrize("processors", [1, 2, 3])
    def test_correct(self, processors):
        wl, reference = workload(seed=53)
        context, cluster = rig(processors)
        out = parallel_algorithm5(context, cluster, [wl.left, wl.right],
                                  BinaryAsMulti(Equality("key")), memory=2)
        assert out.result.same_multiset(reference)

    def test_output_ranges_disjoint_and_complete(self):
        wl, reference = workload(seed=54, results=9)
        context, cluster = rig(3)
        out = parallel_algorithm5(context, cluster, [wl.left, wl.right],
                                  BinaryAsMulti(Equality("key")), memory=2)
        assert len(out.result) == len(reference)
        assert out.meta["share"] == 3

    def test_empty_result(self):
        from tests.conftest import keyed

        a, b = keyed("A", [(1, 0)]), keyed("B", [(2, 0)])
        context, cluster = rig(2)
        out = parallel_algorithm5(context, cluster, [a, b],
                                  BinaryAsMulti(Equality("key")), memory=2)
        assert len(out.result) == 0
