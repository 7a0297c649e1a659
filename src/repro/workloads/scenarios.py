"""Seeded production scenario definitions for the workload suite.

Each :class:`ScenarioSpec` is a declarative config in the pyrqg
workload-generator idiom: it names the data owners, how each owner's table
is generated (size, key skew, cross-owner correlation), the query mix over
the join predicates the paper supports (equality, theta, band, Jaccard,
L1), the traffic shape (request count, concurrency, arrival rate, and the
repeated-query fraction motivating the series-of-queries literature), and
the latency SLO the deployment promises.

Everything is seeded and deterministic: ``build_tables(instance_seed)``
returns byte-identical relations for the same seed — including across
process boundaries, which load generators running in their own process
depend on — so scenario inputs can be regression-locked exactly like the
safe algorithms' traces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Mapping

from repro.errors import ConfigurationError
from repro.net.wire import PredicateSpec
from repro.relational.generate import (
    _require,
    correlated_keyed,
    genome_schema,
    uniform_keyed,
    zipf_keyed,
)
from repro.relational.joins import multiway_nested_loop_join
from repro.relational.relation import Relation
from repro.relational.schema import AttrType


@dataclass(frozen=True)
class SLO:
    """Per-scenario latency promise, enforced by the closed-loop harness.

    Bounds are on end-to-end request latency (submit through last result
    page) in seconds.  Lost or incorrect requests are *never* budgeted —
    the harness requires zero of both unconditionally; the SLO only governs
    how fast the correct answers arrive.
    """

    p50_seconds: float
    p95_seconds: float

    def __post_init__(self) -> None:
        _require(self.p50_seconds > 0 and self.p95_seconds > 0,
                 "SLO latency bounds must be positive")
        _require(self.p95_seconds >= self.p50_seconds,
                 "the p95 bound cannot be tighter than the p50 bound")


@dataclass(frozen=True)
class TableSpec:
    """How one data owner's relation is generated.

    ``generator`` picks the family: ``uniform`` / ``zipf`` keys over
    ``[0, key_range)``, ``correlated`` keys copied from the *previous*
    owner's table with probability ``correlation`` (reconciliation traffic),
    or ``genome`` set-valued marker records for similarity joins.
    """

    owner: str
    generator: str = "uniform"
    size: int = 8
    key_range: int = 16
    exponent: float = 1.5          # zipf skew
    correlation: float = 0.8       # correlated-key copy probability
    payload_range: int = 1 << 30
    universe: int = 48             # genome marker universe
    markers: int = 5               # genome markers per subject
    max_markers: int = 16

    _GENERATORS = ("uniform", "zipf", "correlated", "genome")

    def __post_init__(self) -> None:
        _require(self.generator in self._GENERATORS,
                 f"unknown table generator {self.generator!r} "
                 f"(choose from {self._GENERATORS})")
        _require(self.size >= 0, "table size cannot be negative")

    def build(self, rng: random.Random, base: Relation | None) -> Relation:
        if self.generator == "uniform":
            return uniform_keyed(self.size, self.key_range, rng,
                                 name=self.owner,
                                 payload_range=self.payload_range)
        if self.generator == "zipf":
            return zipf_keyed(self.size, self.key_range, rng,
                              exponent=self.exponent, name=self.owner,
                              payload_range=self.payload_range)
        if self.generator == "correlated":
            if base is None:
                raise ConfigurationError(
                    f"table {self.owner!r} correlates against the previous "
                    "owner's table, but it is the first table in the scenario"
                )
            return correlated_keyed(self.size, self.key_range, rng, base,
                                    correlation=self.correlation,
                                    name=self.owner,
                                    payload_range=self.payload_range)
        # genome
        schema = genome_schema(self.owner, self.max_markers)
        population = range(self.universe)
        rows = [
            (i, frozenset(rng.sample(population, self.markers)))
            for i in range(self.size)
        ]
        return Relation.from_values(schema, rows)


@dataclass(frozen=True)
class QueryTemplate:
    """One entry of a scenario's query mix: predicate, algorithm, weight."""

    name: str
    predicate: PredicateSpec
    algorithm: str = "algorithm5"
    weight: float = 1.0
    epsilon: float = 1e-20

    def __post_init__(self) -> None:
        _require(self.weight > 0, "query weights must be positive")
        _require(self.algorithm in ("algorithm4", "algorithm5", "algorithm6",
                                    "algorithm7", "algorithm8"),
                 f"unknown algorithm {self.algorithm!r}")


@dataclass(frozen=True)
class PlannedRequest:
    """One request of a deterministic workload plan.

    Repeated requests share their ``contract_id``, ``instance_key``, tables,
    and query with the earlier request they re-issue — the traffic shape of
    series-of-queries deployments, where the same owner pair joins again and
    again.
    """

    index: int
    contract_id: str
    instance_key: str
    query: QueryTemplate
    tables: Mapping[str, Relation]
    repeated: bool


@dataclass(frozen=True)
class ScenarioSpec:
    """A full production scenario: schema, data shape, query mix, traffic, SLO."""

    name: str
    code: str                      # short tag for contract IDs (<= 6 chars)
    description: str
    recipient: str
    tables: tuple[TableSpec, ...]
    queries: tuple[QueryTemplate, ...]
    slo: SLO
    requests: int = 18             # full-mode request count
    smoke_requests: int = 6        # CI smoke request count
    concurrency: int = 3           # closed-loop worker count
    arrival_rate: float | None = 25.0   # target requests/second (None: unpaced)
    repeat_fraction: float = 0.25  # probability a request re-issues a prior one
    memory: int = 16               # coprocessor memory M for this scenario

    def __post_init__(self) -> None:
        _require(bool(self.tables), "a scenario needs at least one table")
        _require(bool(self.queries), "a scenario needs at least one query")
        _require(len(self.code) <= 6, "scenario codes must fit contract IDs")
        _require(0.0 <= self.repeat_fraction <= 1.0,
                 "repeat_fraction must be in [0, 1]")
        _require(self.requests >= 1 and self.smoke_requests >= 1,
                 "request counts must be at least 1")
        _require(self.concurrency >= 1, "concurrency must be at least 1")
        _require(self.arrival_rate is None or self.arrival_rate > 0,
                 "arrival_rate must be positive when given")
        owners = [table.owner for table in self.tables]
        _require(len(set(owners)) == len(owners), "owner names must be unique")

    @property
    def owners(self) -> tuple[str, ...]:
        return tuple(table.owner for table in self.tables)

    def build_tables(self, instance_seed: int | str = 0) -> dict[str, Relation]:
        """Generate every owner's relation for one scenario instance.

        Deterministic: the same ``(scenario, instance_seed)`` yields
        byte-identical relations (string seeding hashes with SHA-512, so the
        draw is stable across processes and interpreter runs).
        """
        rng = random.Random(f"{self.name}:tables:{instance_seed}")
        tables: dict[str, Relation] = {}
        previous: Relation | None = None
        for spec in self.tables:
            relation = spec.build(rng, previous)
            tables[spec.owner] = relation
            previous = relation
        return tables

    def sample_query(self, rng: random.Random) -> QueryTemplate:
        weights = [query.weight for query in self.queries]
        return rng.choices(self.queries, weights=weights, k=1)[0]

    def plan(self, seed: int = 0, requests: int | None = None) -> list[PlannedRequest]:
        """The deterministic request sequence one workload run executes.

        Each request is either *fresh* (new tables from a derived seed, a new
        contract, a query sampled from the mix by weight) or — with
        probability ``repeat_fraction`` — a *repeat* of a uniformly chosen
        earlier request, sharing its contract, tables, and query.
        """
        count = self.requests if requests is None else requests
        _require(count >= 1, "a plan needs at least one request")
        rng = random.Random(f"{self.name}:plan:{seed}")
        planned: list[PlannedRequest] = []
        issued: list[PlannedRequest] = []
        fresh = 0
        for index in range(count):
            if issued and rng.random() < self.repeat_fraction:
                original = issued[rng.randrange(len(issued))]
                planned.append(replace(original, index=index, repeated=True))
                continue
            tables = self.build_tables(f"{seed}:{fresh}")
            query = self.sample_query(rng)
            contract_id = f"c-{self.code}-{fresh:04d}"
            request = PlannedRequest(
                index=index,
                contract_id=contract_id,
                instance_key=f"{contract_id}:{query.name}",
                query=query,
                tables=tables,
                repeated=False,
            )
            planned.append(request)
            issued.append(request)
            fresh += 1
        return planned


def plaintext_reference(tables: Mapping[str, Relation],
                        query: QueryTemplate) -> Relation:
    """The ground-truth join of one scenario query, via the reference operators."""
    return multiway_nested_loop_join(list(tables.values()),
                                     query.predicate.build())


# ---------------------------------------------------------------------------
# content perturbation for privacy checks
# ---------------------------------------------------------------------------

def _fresh_values(rng: random.Random, count: int, *, ordered: bool) -> list[int]:
    values = rng.sample(range(1 << 20), count)
    return sorted(values) if ordered else values


def perturbed_tables(tables: Mapping[str, Relation], query: QueryTemplate,
                     rng: random.Random) -> dict[str, Relation]:
    """New tables with different content but identical public parameters.

    Builds a Definition-3 sibling of a scenario instance: sizes and the join
    result size S are preserved *by construction*, while every attribute
    value changes — so a safe algorithm must produce an event-for-event
    identical access trace on the perturbed instance.  The transformation
    depends on the predicate family:

    * ``equality`` — a random bijection on the join keys (equalities are
      exactly preserved);
    * ``theta`` — a strictly monotone remapping (every comparison outcome is
      preserved);
    * ``band`` / ``l1`` — a common additive offset per attribute (absolute
      differences are preserved);
    * ``jaccard`` — a random bijection on the marker universe (intersection
      and union cardinalities are preserved).

    Non-predicate integer attributes are re-randomized and every table's row
    order is shuffled.
    """
    kind = query.predicate.kind
    spec_attrs = set(query.predicate.attrs) or {"key"}

    # Collect every value the predicate can observe, across all tables.
    observed: set[int] = set()
    if kind in ("equality", "theta"):
        for relation in tables.values():
            for record in relation:
                for attr in spec_attrs:
                    observed.add(record[attr])
        fresh = _fresh_values(rng, len(observed), ordered=(kind == "theta"))
        mapping = dict(zip(sorted(observed), fresh))
        remap = lambda value, attr: mapping[value]
    elif kind in ("band", "l1"):
        offsets = {attr: rng.randrange(1, 1 << 10) for attr in spec_attrs}
        remap = lambda value, attr: value + offsets[attr]
    elif kind == "jaccard":
        for relation in tables.values():
            for record in relation:
                for attr in spec_attrs:
                    observed.update(record[attr])
        fresh = _fresh_values(rng, len(observed), ordered=False)
        marker_map = dict(zip(sorted(observed), fresh))
        remap = lambda value, attr: frozenset(marker_map[m] for m in value)
    else:  # pragma: no cover - PredicateSpec already validates kinds
        raise ConfigurationError(f"unknown predicate kind {kind!r}")

    out: dict[str, Relation] = {}
    for owner, relation in tables.items():
        schema = relation.schema
        rows = []
        for record in relation:
            values = []
            for attr in schema.attributes:
                value = record[attr.name]
                if attr.name in spec_attrs:
                    values.append(remap(value, attr.name))
                elif attr.type is AttrType.INT:
                    values.append(rng.randrange(1 << 30))
                else:
                    values.append(value)
            rows.append(tuple(values))
        rng.shuffle(rows)
        out[owner] = Relation.from_values(schema, rows)
    return out


# ---------------------------------------------------------------------------
# the scenario catalog
# ---------------------------------------------------------------------------

def _catalog() -> tuple[ScenarioSpec, ...]:
    return (
        ScenarioSpec(
            name="watchlist_screening",
            code="watch",
            description=(
                "Do-not-fly screening: a government agency's watchlist is "
                "equijoined against an airline's passenger manifest; an "
                "exhaustive audit pass re-runs the join under Algorithm 4."
            ),
            recipient="agency_analyst",
            tables=(
                TableSpec(owner="agency", generator="uniform", size=8,
                          key_range=12),
                TableSpec(owner="airline", generator="uniform", size=10,
                          key_range=12),
            ),
            queries=(
                QueryTemplate("screen", PredicateSpec.equality("key"),
                              algorithm="algorithm5", weight=0.75),
                QueryTemplate("audit", PredicateSpec.equality("key"),
                              algorithm="algorithm4", weight=0.25),
            ),
            slo=SLO(p50_seconds=1.5, p95_seconds=4.0),
            requests=18, smoke_requests=6, concurrency=3,
            arrival_rate=25.0, repeat_fraction=0.2, memory=16,
        ),
        ScenarioSpec(
            name="patient_genomic",
            code="genome",
            description=(
                "Epidemiology matching: a gene bank's marker sets are "
                "similarity-joined (Jaccard) against a hospital's patient "
                "markers, at a looser and a stricter threshold."
            ),
            recipient="epidemiologist",
            tables=(
                TableSpec(owner="gene_bank", generator="genome", size=6,
                          universe=10, markers=5),
                TableSpec(owner="hospital", generator="genome", size=6,
                          universe=10, markers=5),
            ),
            queries=(
                QueryTemplate("match", PredicateSpec("jaccard", ("markers",),
                                                     threshold=0.5),
                              algorithm="algorithm5", weight=0.7),
                QueryTemplate("strict",
                              PredicateSpec("jaccard", ("markers",),
                                            threshold=0.8),
                              algorithm="algorithm5", weight=0.3),
            ),
            slo=SLO(p50_seconds=1.5, p95_seconds=4.0),
            requests=16, smoke_requests=6, concurrency=3,
            arrival_rate=25.0, repeat_fraction=0.25, memory=16,
        ),
        ScenarioSpec(
            name="banking_reconciliation",
            code="bank",
            description=(
                "Interbank reconciliation: two banks hold largely "
                "overlapping transaction populations (correlated keys) and "
                "re-run the same equijoin contract over and over — the "
                "series-of-queries traffic shape."
            ),
            recipient="auditor",
            tables=(
                TableSpec(owner="bank_a", generator="uniform", size=10,
                          key_range=64),
                TableSpec(owner="bank_b", generator="correlated", size=10,
                          key_range=64, correlation=0.85),
            ),
            queries=(
                QueryTemplate("reconcile", PredicateSpec.equality("key"),
                              algorithm="algorithm5"),
            ),
            slo=SLO(p50_seconds=1.5, p95_seconds=4.0),
            requests=20, smoke_requests=6, concurrency=3,
            arrival_rate=25.0, repeat_fraction=0.6, memory=16,
        ),
        ScenarioSpec(
            name="iot_telemetry",
            code="iot",
            description=(
                "IoT telemetry correlation: Zipf-skewed device readings "
                "(hot devices dominate) are band-joined against gateway "
                "events within a timestamp window, plus an ordering audit."
            ),
            recipient="operations",
            tables=(
                TableSpec(owner="sensors", generator="zipf", size=10,
                          key_range=8, exponent=1.6, payload_range=64),
                TableSpec(owner="gateway", generator="zipf", size=8,
                          key_range=8, exponent=1.6, payload_range=64),
            ),
            queries=(
                QueryTemplate("window", PredicateSpec("band", ("key",),
                                                      threshold=1.0),
                              algorithm="algorithm5", weight=0.7),
                QueryTemplate("ordering", PredicateSpec("theta", ("key",),
                                                        op="<"),
                              algorithm="algorithm5", weight=0.3),
            ),
            slo=SLO(p50_seconds=1.5, p95_seconds=4.0),
            requests=18, smoke_requests=6, concurrency=3,
            arrival_rate=25.0, repeat_fraction=0.25, memory=24,
        ),
        ScenarioSpec(
            name="trading_surveillance",
            code="trade",
            description=(
                "Market surveillance: trade timestamps are theta-joined "
                "(strictly-before) against settlement timestamps under the "
                "probabilistic Algorithm 6."
            ),
            recipient="regulator",
            tables=(
                TableSpec(owner="trades", generator="uniform", size=9,
                          key_range=40),
                TableSpec(owner="settlements", generator="uniform", size=9,
                          key_range=40),
            ),
            queries=(
                QueryTemplate("before", PredicateSpec("theta", ("key",),
                                                      op="<"),
                              algorithm="algorithm6"),
            ),
            slo=SLO(p50_seconds=1.5, p95_seconds=4.0),
            requests=16, smoke_requests=6, concurrency=3,
            arrival_rate=25.0, repeat_fraction=0.3, memory=96,
        ),
        ScenarioSpec(
            name="census_fuzzy_match",
            code="census",
            description=(
                "Census record linkage: two household registries are "
                "fuzzy-matched with the custom L1-proximity predicate over "
                "(district, size) attributes — the SFE comparison circuit "
                "of Section 4.6.5."
            ),
            recipient="statistician",
            tables=(
                TableSpec(owner="registry_a", generator="uniform", size=8,
                          key_range=20, payload_range=20),
                TableSpec(owner="registry_b", generator="uniform", size=8,
                          key_range=20, payload_range=20),
            ),
            queries=(
                QueryTemplate("linkage",
                              PredicateSpec("l1", ("key", "payload"),
                                            threshold=6.0),
                              algorithm="algorithm5"),
            ),
            slo=SLO(p50_seconds=1.5, p95_seconds=4.0),
            requests=16, smoke_requests=6, concurrency=3,
            arrival_rate=25.0, repeat_fraction=0.25, memory=16,
        ),
        ScenarioSpec(
            name="supply_chain_tracking",
            code="supply",
            description=(
                "Three-party shipment tracking: supplier, carrier, and "
                "retailer ledgers are chain-equijoined on shipment ID — the "
                "m-way join of Definition 3 over correlated inventories."
            ),
            recipient="logistics",
            tables=(
                TableSpec(owner="supplier", generator="uniform", size=5,
                          key_range=8),
                TableSpec(owner="carrier", generator="correlated", size=5,
                          key_range=8, correlation=0.7),
                TableSpec(owner="retailer", generator="correlated", size=5,
                          key_range=8, correlation=0.7),
            ),
            queries=(
                QueryTemplate("track",
                              PredicateSpec("equality", ("key",),
                                            mode="chain"),
                              algorithm="algorithm5"),
            ),
            slo=SLO(p50_seconds=1.5, p95_seconds=4.0),
            requests=14, smoke_requests=5, concurrency=3,
            arrival_rate=25.0, repeat_fraction=0.25, memory=24,
        ),
        ScenarioSpec(
            name="ad_conversion_attribution",
            code="adtech",
            description=(
                "Conversion attribution: an ad network's click log is "
                "equijoined against a merchant's purchase log — a skewed "
                "many-to-many mix served by the oblivious sort-merge "
                "Algorithm 7, the O(n log^2 n) equi-join path."
            ),
            recipient="advertiser",
            tables=(
                TableSpec(owner="adnetwork", generator="uniform", size=9,
                          key_range=6),
                TableSpec(owner="merchant", generator="uniform", size=9,
                          key_range=6),
            ),
            queries=(
                QueryTemplate("attribute", PredicateSpec.equality("key"),
                              algorithm="algorithm7"),
            ),
            slo=SLO(p50_seconds=1.5, p95_seconds=4.0),
            requests=14, smoke_requests=5, concurrency=3,
            arrival_rate=25.0, repeat_fraction=0.25, memory=16,
        ),
    )


SCENARIOS: dict[str, ScenarioSpec] = {spec.name: spec for spec in _catalog()}


def list_scenarios() -> tuple[ScenarioSpec, ...]:
    """Every shipped scenario, in catalog order."""
    return tuple(SCENARIOS.values())


def get_scenario(name: str) -> ScenarioSpec:
    if name not in SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {name!r} (choose from {sorted(SCENARIOS)})"
        )
    return SCENARIOS[name]
