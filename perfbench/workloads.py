"""The three served-join workloads: their inputs and their checks.

Every input is generated here from the workload seed; the server only ever
receives the generated, client-encrypted relations.  Each workload also
says how a served result is verified.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping
from dataclasses import dataclass

from repro.core.service import Contract, JoinService, Party
from repro.costs.chapter5 import exact_algorithm4
from repro.costs.filter_opt import optimal_delta
from repro.costs.oblivious_join import exact_algorithm7
from repro.net.server import result_fingerprint
from repro.net.wire import PredicateSpec, StatusReply, encode_relation
from repro.relational.generate import equijoin_workload
from repro.relational.joins import multiway_nested_loop_join, sort_merge_join
from repro.relational.relation import Relation
from repro.workloads import list_scenarios

RECIPIENT = "analyst"


@dataclass(frozen=True)
class Job:
    """One join request as the load generator submits it."""

    contract_id: str
    tables: Mapping[str, Relation]
    predicate: PredicateSpec
    algorithm: str
    recipient: str = RECIPIENT
    epsilon: float = 1e-20
    #: Jobs with the same key have the same inputs (catalog repeats).
    key: str = ""


@dataclass
class Served:
    """One job as the client saw it come back."""

    job: Job
    job_id: str = ""
    status: StatusReply | None = None
    delivered: Relation | None = None
    pages_fingerprint: str = ""
    submitted: float = 0.0
    waited: float = 0.0        # when wait() returned
    finished: float = 0.0      # when the last page arrived
    error: str = ""            # set when the job raised
    refused: bool = False      # the server refused it after every retry
    problem: str = ""          # set by verification

    @property
    def latency(self) -> float:
        return self.finished - self.submitted


def _common_checks(served: Served, reference: Relation) -> str:
    status = served.status
    if served.pages_fingerprint != status.result_fingerprint:
        return "pages do not reassemble to the fingerprinted result"
    if not served.delivered.same_multiset(reference):
        return "result differs from the plaintext reference join"
    return ""


def _check_fixed_shape(runs: list[Served], references: list[Relation],
                       transfers: int) -> None:
    """Fixed public parameters: one exact transfer count, one fingerprint.

    The first job (the warm-up) sets the run's fingerprint; every job must
    repeat it, because Definition 3 makes the trace a function of the
    public sizes alone.
    """
    shared = runs[0].status.trace_fingerprint if runs else ""
    for served, reference in zip(runs, references):
        problem = _common_checks(served, reference)
        if not problem and served.status.transfers != transfers:
            problem = (f"{served.status.transfers} transfers, the closed-form "
                       f"model says {transfers}")
        if not problem and served.status.trace_fingerprint != shared:
            problem = "trace fingerprint differs from the run's shared one"
        served.problem = problem


@dataclass
class Workload:
    """A named traffic mix and how to check what it gets back."""

    name: str
    clients: int
    why: str
    #: ``--seconds`` times this is the fixed number of jobs one timed
    #: window serves; about the rate a 2-CPU host serves (see NOTES.md).
    reference_rate: float

    def window_jobs(self, seconds: float) -> int:
        """Jobs in a window meant to last ``seconds`` on the reference host,
        a whole number per client."""
        per_client = math.ceil(seconds * self.reference_rate / self.clients)
        return max(1, per_client) * self.clients

    def warmup(self, seed: int) -> list[Job]:
        raise NotImplementedError

    def timed(self, seed: int, count: int) -> list[Job]:
        """The first ``count`` jobs of the timed stream for ``seed``."""
        raise NotImplementedError

    def verify(self, runs: list[Served]) -> None:
        """Set ``problem`` on every served job that fails a check."""
        raise NotImplementedError


@dataclass
class Equijoin(Workload):
    """Algorithm 7 over two n-row tables with exactly S result pairs."""

    rows: int = 1024
    results: int = 1024

    def _job(self, tag: str, seed: int) -> Job:
        data = equijoin_workload(self.rows, self.rows, self.results,
                                 random.Random(f"equijoin:{seed}:{tag}"))
        job = Job(contract_id=f"eq-{tag}",
                  tables={"owner_a": data.left, "owner_b": data.right},
                  predicate=PredicateSpec.equality("key"),
                  algorithm="algorithm7")
        return job

    def warmup(self, seed: int) -> list[Job]:
        return [self._job("w", seed)]

    def timed(self, seed: int, count: int) -> list[Job]:
        return [self._job(str(k), seed) for k in range(count)]

    def verify(self, runs: list[Served]) -> None:
        references = [
            sort_merge_join(s.job.tables["owner_a"], s.job.tables["owner_b"],
                            "key")
            for s in runs
        ]
        _check_fixed_shape(runs, references, exact_algorithm7(
            self.rows, self.rows, self.results).total)


@dataclass
class BandCartesian(Workload):
    """Algorithm 4 band join: |a.key - b.key| <= threshold, exactly S pairs.

    Keys are laid out ten apart, and each planted right key sits within the
    threshold of exactly one left key, so S is exact by construction while
    the key values still change with the seed.
    """

    rows: int = 48
    results: int = 48
    threshold: int = 2

    def _job(self, tag: str, seed: int) -> Job:
        rng = random.Random(f"band:{seed}:{tag}")
        data = equijoin_workload(self.rows, self.rows, self.results, rng)
        # equijoin_workload plants matching keys on odd numbers and gives
        # every other tuple a unique even key.
        left = Relation.from_values(data.left.schema, [
            (10 * r["key"], r["payload"]) for r in data.left])
        right = Relation.from_values(data.right.schema, [
            (10 * r["key"] + (rng.randint(-self.threshold, self.threshold)
                              if r["key"] % 2 else 5), r["payload"])
            for r in data.right])
        return Job(contract_id=f"band-{tag}",
                   tables={"owner_a": left, "owner_b": right},
                   predicate=PredicateSpec("band", ("key",),
                                           threshold=float(self.threshold)),
                   algorithm="algorithm4")

    def warmup(self, seed: int) -> list[Job]:
        return [self._job("w", seed)]

    def timed(self, seed: int, count: int) -> list[Job]:
        return [self._job(str(k), seed) for k in range(count)]

    def verify(self, runs: list[Served]) -> None:
        total = self.rows * self.rows
        references = [
            multiway_nested_loop_join(list(s.job.tables.values()),
                                      s.job.predicate.build())
            for s in runs
        ]
        _check_fixed_shape(runs, references, exact_algorithm4(
            total, self.results, tables=2,
            delta=optimal_delta(self.results, total)).total)


@dataclass
class CatalogMix(Workload):
    """The shipped scenarios' request plans, interleaved round robin."""

    def warmup(self, seed: int) -> list[Job]:
        jobs = []
        for spec in list_scenarios():
            tables = spec.build_tables(f"warmup:{seed}")
            for i, query in enumerate(spec.queries):
                jobs.append(Job(
                    contract_id=f"w-{spec.code}-{i}", tables=tables,
                    predicate=query.predicate, algorithm=query.algorithm,
                    recipient=spec.recipient, epsilon=query.epsilon,
                    key=f"warmup:{spec.code}:{query.name}"))
        return jobs

    def timed(self, seed: int, count: int) -> list[Job]:
        specs = list_scenarios()
        per_scenario = -(-count // len(specs))
        plans = [spec.plan(seed, per_scenario) for spec in specs]
        jobs = []
        for requests in zip(*plans):
            for spec, request in zip(specs, requests):
                jobs.append(Job(contract_id=request.contract_id,
                                tables=request.tables,
                                predicate=request.query.predicate,
                                algorithm=request.query.algorithm,
                                recipient=spec.recipient,
                                epsilon=request.query.epsilon,
                                key=request.instance_key))
        return jobs[:count]

    def verify(self, runs: list[Served]) -> None:
        """Check each job against an in-process ``execute()`` reference.

        The reference service is built like the server's (program
        defaults), so fingerprints and transfer counts must match exactly.
        """
        expected: dict[str, tuple[str, str, int, Relation]] = {}
        with JoinService(pool_size=1) as service:
            for served in runs:
                job = served.job
                if job.key in expected:
                    continue
                predicate = job.predicate.build()
                service.register_contract(Contract(
                    contract_id=job.contract_id,
                    data_owners=tuple(job.tables), recipient=job.recipient,
                    permitted_predicate=predicate.description))
                for owner, relation in job.tables.items():
                    service.ingest(Party(owner), job.contract_id, relation)
                result = service.execute(job.contract_id, predicate,
                                         algorithm=job.algorithm,
                                         epsilon=job.epsilon)
                delivered = service.deliver(result, Party(job.recipient),
                                            job.contract_id)
                service.release_contract(job.contract_id)
                _, rows = encode_relation(delivered)
                expected[job.key] = (
                    result_fingerprint(rows), result.trace.fingerprint(),
                    result.stats.total,
                    multiway_nested_loop_join(list(job.tables.values()),
                                              predicate))
        for served in runs:
            fingerprint, trace, transfers, plain = expected[served.job.key]
            status = served.status
            problem = _common_checks(served, plain)
            if not problem and (status.result_fingerprint, status.trace_fingerprint,
                                status.transfers) != (fingerprint, trace, transfers):
                problem = "differs from the in-process execute() reference"
            served.problem = problem


def build(tiny: bool = False) -> dict[str, Workload]:
    """The benchmark's workloads; ``tiny`` shrinks them for smoke tests."""
    return {w.name: w for w in (
        Equijoin(
            name="equijoin_1k", clients=1,
            why="Algorithm 7, 1024 x 1024 rows, S = 1024, 1 client, fresh "
                "data per job from --seed: the trace ledger and sort networks "
                "do the work",
            **({"rows": 32, "results": 32, "reference_rate": 15.0} if tiny
               else {"reference_rate": 0.3})),
        BandCartesian(
            name="band_cartesian", clients=2,
            why="Algorithm 4 band join, 2 x 48 rows (L = 2304), S = 48, "
                "2 clients, data from --seed: scalar slot I/O, OCB and the "
                "decoy filter",
            **({"rows": 8, "results": 8, "reference_rate": 30.0} if tiny
               else {"reference_rate": 0.8})),
        CatalogMix(
            name="catalog_mix", clients=2,
            why="the 8 shipped scenarios' plans for --seed interleaved, "
                "sizes as shipped, 2 clients: per-job costs outside the join "
                "dominate",
            reference_rate=80.0),
    )}
