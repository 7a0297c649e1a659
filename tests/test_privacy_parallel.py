"""Privacy of the parallel variants: per-coprocessor traces must also be
data-independent — an adversarial host observes *every* device's accesses."""

import random

from tests.conftest import KEY

from repro.core.base import JoinContext
from repro.core.parallel import (
    parallel_algorithm2,
    parallel_algorithm3,
    parallel_algorithm4,
    parallel_algorithm5,
    parallel_algorithm6,
)
from repro.crypto.provider import FastProvider
from repro.hardware.cluster import Cluster
from repro.relational.generate import equijoin_workload
from repro.relational.predicates import BinaryAsMulti, Equality


def rig(processors=2):
    provider = FastProvider(KEY)
    context = JoinContext.fresh(provider=provider)
    cluster = Cluster(context.host, provider, count=processors)
    return context, cluster


def families(results=5):
    """Two workloads agreeing on sizes and S, with unrelated contents."""
    out = []
    for seed in (101, 202):
        out.append(equijoin_workload(8, 9, results, rng=random.Random(seed)))
    return out


def traces_of(cluster):
    return [list(t.trace.events) for t in cluster]


class TestParallelTraceIndependence:
    def test_parallel_algorithm2(self):
        observed = []
        for wl in families():
            context, cluster = rig()
            parallel_algorithm2(context, cluster, wl.left, wl.right,
                                Equality("key"), n_max=2, memory=2)
            observed.append(traces_of(cluster))
        assert observed[0] == observed[1]

    def test_parallel_algorithm3(self):
        observed = []
        for wl in families():
            context, cluster = rig()
            # N fixed across the families: a public shape parameter.
            parallel_algorithm3(context, cluster, wl.left, wl.right, "key",
                                n_max=4)
            observed.append(traces_of(cluster))
        assert observed[0] == observed[1]

    def test_parallel_algorithm4(self):
        observed = []
        for wl in families():
            context, cluster = rig()
            parallel_algorithm4(context, cluster, [wl.left, wl.right],
                                BinaryAsMulti(Equality("key")))
            observed.append(traces_of(cluster))
        assert observed[0] == observed[1]

    def test_parallel_algorithm5(self):
        observed = []
        for wl in families():
            context, cluster = rig()
            parallel_algorithm5(context, cluster, [wl.left, wl.right],
                                BinaryAsMulti(Equality("key")), memory=2)
            observed.append(traces_of(cluster))
        assert observed[0] == observed[1]

    def test_parallel_algorithm6(self):
        observed = []
        for wl in families():
            context, cluster = rig()
            parallel_algorithm6(context, cluster, [wl.left, wl.right],
                                BinaryAsMulti(Equality("key")), memory=3,
                                epsilon=0.0, seed=7)
            observed.append(traces_of(cluster))
        assert observed[0] == observed[1]

    def test_different_s_changes_traces_as_expected(self):
        """S is a public parameter: families with different S may (and do)
        produce different traces — the definitions only quantify over equal
        output sizes."""
        observed = []
        for results in (2, 7):
            wl = equijoin_workload(8, 9, results, rng=random.Random(5))
            context, cluster = rig()
            parallel_algorithm5(context, cluster, [wl.left, wl.right],
                                BinaryAsMulti(Equality("key")), memory=2)
            observed.append(traces_of(cluster))
        assert observed[0] != observed[1]
