"""Tests for the synthetic workload generators."""

import random
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.net.wire import encode_relation
from repro.relational.generate import (
    correlated_keyed,
    equijoin_workload,
    genome_pair,
    multiway_workload,
    similarity_workload,
    theta_workload,
    uniform_keyed,
    zipf_keyed,
)
from repro.relational.joins import nested_loop_join
from repro.relational.predicates import Equality, JaccardSimilarity, Theta


class TestKeyedGenerators:
    def test_uniform_size_and_range(self):
        rel = uniform_keyed(50, key_range=10, rng=random.Random(1))
        assert len(rel) == 50
        assert all(0 <= r["key"] < 10 for r in rel)

    def test_zipf_is_skewed(self):
        rel = zipf_keyed(500, key_range=50, rng=random.Random(2))
        counts = {}
        for r in rel:
            counts[r["key"]] = counts.get(r["key"], 0) + 1
        top = max(counts.values())
        assert top > 3 * (500 / 50)  # far above the uniform expectation


class TestThetaWorkload:
    @settings(max_examples=30)
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_result_size_is_exact(self, left, right, selectivity, seed):
        wl = theta_workload(left, right, random.Random(seed), selectivity)
        reference = nested_loop_join(wl.left, wl.right, Theta("key", "<"))
        assert len(reference) == wl.result_size
        assert len(wl.left) == left and len(wl.right) == right

    def test_selectivity_extremes(self):
        rng = random.Random(3)
        full = theta_workload(5, 5, rng, selectivity=1.0)
        empty = theta_workload(5, 5, rng, selectivity=0.0)
        assert full.result_size == 25
        assert empty.result_size == 0

    def test_selectivity_is_monotone(self):
        sizes = [
            theta_workload(6, 6, random.Random(4), s).result_size
            for s in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert sizes == sorted(sizes)

    def test_invalid_selectivity(self):
        with pytest.raises(ConfigurationError):
            theta_workload(3, 3, random.Random(0), selectivity=1.5)


class TestSimilarityWorkload:
    @pytest.mark.parametrize("planted", [0, 1, 4])
    def test_planted_pairs_are_the_only_matches(self, planted):
        left, right, result = similarity_workload(
            6, 6, planted, rng=random.Random(5), threshold=0.5
        )
        reference = nested_loop_join(left, right, JaccardSimilarity("markers", 0.5))
        assert len(reference) == result == planted

    def test_too_many_pairs_rejected(self):
        with pytest.raises(ConfigurationError):
            similarity_workload(3, 3, 4, rng=random.Random(0))

    def test_universe_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            similarity_workload(8, 8, 1, rng=random.Random(0), universe=32)


class TestGenomePair:
    def test_sizes_and_marker_cardinality(self):
        bank, patients = genome_pair(10, 7, rng=random.Random(6),
                                     markers_per_subject=5)
        assert len(bank) == 10 and len(patients) == 7
        assert all(len(r["markers"]) == 5 for r in bank)


class TestEquijoinEdgeCases:
    def test_single_row_tables(self):
        wl = equijoin_workload(1, 1, 1, rng=random.Random(7))
        assert len(nested_loop_join(wl.left, wl.right, Equality("key"))) == 1

    def test_left_heavier_than_right_rejected_when_overfull(self):
        with pytest.raises(ConfigurationError):
            equijoin_workload(2, 1, 2, rng=random.Random(8), max_matches=1)


class TestCorrelatedKeyed:
    def test_full_correlation_only_reuses_base_keys(self):
        base = uniform_keyed(10, key_range=1 << 20, rng=random.Random(1))
        rel = correlated_keyed(30, 1 << 20, random.Random(2), base,
                               correlation=1.0)
        base_keys = {r["key"] for r in base}
        assert len(rel) == 30
        assert all(r["key"] in base_keys for r in rel)

    def test_zero_correlation_allows_empty_base(self):
        from repro.relational.relation import Relation
        from repro.relational.generate import keyed_schema

        empty = Relation(keyed_schema("empty"))
        rel = correlated_keyed(5, 16, random.Random(3), empty, correlation=0.0)
        assert len(rel) == 5

    def test_overlap_grows_with_correlation(self):
        base = uniform_keyed(20, key_range=1 << 20, rng=random.Random(4))
        base_keys = {r["key"] for r in base}

        def overlap(correlation):
            rel = correlated_keyed(200, 1 << 20, random.Random(5), base,
                                   correlation=correlation)
            return sum(1 for r in rel if r["key"] in base_keys)

        assert overlap(0.1) < overlap(0.5) < overlap(0.95)


class TestUniformValidation:
    """Satellite regression: every boundary raises ConfigurationError,
    never ValueError or silent misbehavior."""

    def test_negative_size(self):
        with pytest.raises(ConfigurationError):
            uniform_keyed(-1, 10, random.Random(0))

    def test_zero_key_range(self):
        with pytest.raises(ConfigurationError):
            uniform_keyed(5, 0, random.Random(0))

    def test_zero_payload_range(self):
        with pytest.raises(ConfigurationError):
            uniform_keyed(5, 10, random.Random(0), payload_range=0)

    def test_empty_relation_is_fine(self):
        assert len(uniform_keyed(0, 1, random.Random(0))) == 0


class TestZipfValidation:
    @pytest.mark.parametrize("exponent",
                             [0.0, -1.0, float("inf"), float("nan")])
    def test_degenerate_exponents(self, exponent):
        with pytest.raises(ConfigurationError):
            zipf_keyed(5, 10, random.Random(0), exponent=exponent)

    def test_negative_size(self):
        with pytest.raises(ConfigurationError):
            zipf_keyed(-3, 10, random.Random(0))

    def test_zero_key_range(self):
        with pytest.raises(ConfigurationError):
            zipf_keyed(5, 0, random.Random(0))


class TestCorrelatedValidation:
    def test_out_of_range_correlation(self):
        base = uniform_keyed(3, 8, random.Random(0))
        for correlation in (-0.1, 1.1):
            with pytest.raises(ConfigurationError):
                correlated_keyed(3, 8, random.Random(0), base,
                                 correlation=correlation)

    def test_empty_base_with_positive_correlation(self):
        from repro.relational.relation import Relation
        from repro.relational.generate import keyed_schema

        empty = Relation(keyed_schema("empty"))
        with pytest.raises(ConfigurationError):
            correlated_keyed(3, 8, random.Random(0), empty, correlation=0.5)

    def test_negative_size(self):
        base = uniform_keyed(3, 8, random.Random(0))
        with pytest.raises(ConfigurationError):
            correlated_keyed(-1, 8, random.Random(0), base)


class TestWorkloadValidation:
    def test_equijoin_negative_sizes(self):
        with pytest.raises(ConfigurationError):
            equijoin_workload(-1, 5, 0, rng=random.Random(0))
        with pytest.raises(ConfigurationError):
            equijoin_workload(5, -1, 0, rng=random.Random(0))

    def test_equijoin_negative_result_size(self):
        with pytest.raises(ConfigurationError):
            equijoin_workload(5, 5, -1, rng=random.Random(0))

    def test_equijoin_zero_max_matches(self):
        with pytest.raises(ConfigurationError):
            equijoin_workload(5, 5, 2, rng=random.Random(0), max_matches=0)

    def test_multiway_negative_result_size(self):
        with pytest.raises(ConfigurationError):
            multiway_workload([3, 3], -1, rng=random.Random(0))

    def test_theta_negative_sizes(self):
        with pytest.raises(ConfigurationError):
            theta_workload(-1, 3, random.Random(0))

    def test_similarity_bad_threshold(self):
        for threshold in (-0.5, 1.5):
            with pytest.raises(ConfigurationError):
                similarity_workload(3, 3, 1, rng=random.Random(0),
                                    threshold=threshold)

    def test_similarity_negative_pairs(self):
        with pytest.raises(ConfigurationError):
            similarity_workload(3, 3, -1, rng=random.Random(0))

    def test_similarity_set_size_bounds(self):
        with pytest.raises(ConfigurationError):
            similarity_workload(3, 3, 1, rng=random.Random(0), set_size=0)
        with pytest.raises(ConfigurationError):
            similarity_workload(3, 3, 1, rng=random.Random(0),
                                set_size=20, max_markers=16, universe=4096)

    def test_genome_pair_bounds(self):
        with pytest.raises(ConfigurationError):
            genome_pair(-1, 3, rng=random.Random(0))
        with pytest.raises(ConfigurationError):
            genome_pair(3, 3, rng=random.Random(0), markers_per_subject=0)
        with pytest.raises(ConfigurationError):
            genome_pair(3, 3, rng=random.Random(0), universe=4,
                        markers_per_subject=8)
        with pytest.raises(ConfigurationError):
            genome_pair(3, 3, rng=random.Random(0), markers_per_subject=20,
                        max_markers=16, universe=64)


def _generator_digest(kind: str, seed: int) -> bytes:
    """Byte encoding of one generated relation — top level so a
    ProcessPoolExecutor worker can import and run it."""
    rng = random.Random(seed)
    if kind == "uniform":
        rel = uniform_keyed(12, 32, rng)
    elif kind == "zipf":
        rel = zipf_keyed(12, 16, rng, exponent=1.4)
    elif kind == "correlated":
        base = uniform_keyed(8, 32, rng)
        rel = correlated_keyed(12, 32, rng, base, correlation=0.7)
    else:
        raise ValueError(kind)
    schema, rows = encode_relation(rel)
    return schema.name.encode() + b"|" + b"".join(rows)


class TestGeneratorDeterminism:
    """Same seed ⇒ byte-identical relations.  Benchmark clients re-generate
    inputs in their own process, so the guarantee must hold across process
    boundaries, not just across calls."""

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(["uniform", "zipf", "correlated"]),
           st.integers(min_value=0, max_value=2**31))
    def test_same_seed_same_bytes(self, kind, seed):
        assert _generator_digest(kind, seed) == _generator_digest(kind, seed)

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(["uniform", "zipf", "correlated"]),
           st.integers(min_value=0, max_value=2**31))
    def test_different_seeds_differ(self, kind, seed):
        # Not a law of nature, but with 12 records over 2^30 payloads a
        # collision means the seed is being ignored.
        assert _generator_digest(kind, seed) != _generator_digest(kind, seed + 1)

    def test_identical_across_process_boundary(self):
        with ProcessPoolExecutor(max_workers=1) as pool:
            for kind in ("uniform", "zipf", "correlated"):
                remote = pool.submit(_generator_digest, kind, 99).result(timeout=60)
                assert remote == _generator_digest(kind, 99), kind


class TestStatisticalProperties:
    """Documented statistical properties on fixed-seed instances."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=10),
        st.data(),
    )
    def test_equijoin_s_and_n_are_exact(self, left, right, data):
        result_size = data.draw(
            st.integers(min_value=0, max_value=min(left * right, right))
        )
        wl = equijoin_workload(left, right, result_size,
                               rng=random.Random(42))
        reference = nested_loop_join(wl.left, wl.right, Equality("key"))
        assert len(reference) == wl.result_size == result_size
        matches = {}
        for record in reference:
            matches[record["key"]] = matches.get(record["key"], 0) + 1
        assert (max(matches.values()) if matches else 0) == wl.max_matches

    def test_zipf_mass_concentrates_with_exponent(self):
        def top_key_share(exponent):
            rel = zipf_keyed(2000, 20, random.Random(7), exponent=exponent)
            counts = {}
            for r in rel:
                counts[r["key"]] = counts.get(r["key"], 0) + 1
            return max(counts.values()) / len(rel)

        shares = [top_key_share(e) for e in (0.5, 1.2, 2.5)]
        assert shares == sorted(shares)

    def test_multiway_s_is_exact(self):
        wl = multiway_workload([4, 5, 6], 3, rng=random.Random(9))
        from repro.relational.joins import multiway_nested_loop_join
        from repro.relational.predicates import PairwiseAll

        joined = multiway_nested_loop_join(
            list(wl.relations), PairwiseAll(Equality("key"))
        )
        assert len(joined) == wl.result_size == 3
