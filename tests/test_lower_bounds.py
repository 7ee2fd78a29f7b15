"""Admissibility tests for the registered lower bounds.

Every bound in :mod:`repro.distances.lower_bounds` must never exceed the
exact distance it applies to -- that is what makes prefilter pruning safe --
and the batched form must agree with the scalar form.
"""

import numpy as np
import pytest

from repro import DTW, EDR, ERP, DiscreteFrechet, Euclidean, Hamming, Levenshtein
from repro.distances import (
    WeightedLevenshtein,
    bounds_for,
    combined_batch_bound,
    combined_bound,
    registered_lower_bounds,
)
from repro.distances.base import ElementMetric, as_array

RNG = np.random.default_rng(99)

SERIES_DISTANCES = [
    DTW(),
    DTW(element_metric=ElementMetric("manhattan")),
    DTW(band=5),
    ERP(),
    ERP(gap=2.0),
    DiscreteFrechet(),
    EDR(epsilon=0.3),
]
STRING_DISTANCES = [
    Levenshtein(),
    WeightedLevenshtein(insertion_cost=0.5, deletion_cost=2.0),
]


def _random_series_pairs(count=40):
    pairs = []
    for _ in range(count):
        a = RNG.normal(size=int(RNG.integers(5, 30))) * RNG.uniform(0.5, 4.0)
        b = RNG.normal(size=int(RNG.integers(5, 30))) * RNG.uniform(0.5, 4.0)
        pairs.append((a, b))
    return pairs


def _random_trajectory_pairs(count=30):
    pairs = []
    for _ in range(count):
        a = RNG.normal(size=(int(RNG.integers(5, 20)), 2)) * 3.0
        b = RNG.normal(size=(int(RNG.integers(5, 20)), 2)) * 3.0
        pairs.append((a, b))
    return pairs


def _random_string_pairs(count=40):
    pairs = []
    for _ in range(count):
        a = RNG.integers(0, 5, size=int(RNG.integers(4, 25)))
        b = RNG.integers(0, 5, size=int(RNG.integers(4, 25)))
        pairs.append((a, b))
    return pairs


class TestAdmissibility:
    @pytest.mark.parametrize("distance", SERIES_DISTANCES, ids=lambda d: repr(d))
    def test_series_bounds_never_exceed_exact(self, distance):
        band = distance.band if isinstance(distance, DTW) else None
        for a, b in _random_series_pairs():
            if band is not None and abs(len(a) - len(b)) > band:
                continue  # infeasible band: compute() raises by design
            exact = distance(a, b)
            for bound in bounds_for(distance):
                value = bound.pair(distance, as_array(a), as_array(b))
                assert value <= exact + 1e-9, (bound.name, value, exact)

    @pytest.mark.parametrize(
        "distance",
        [DTW(), ERP(gap=[0.0, 0.0]), DiscreteFrechet()],
        ids=lambda d: d.name,
    )
    def test_trajectory_bounds_never_exceed_exact(self, distance):
        for a, b in _random_trajectory_pairs():
            exact = distance(a, b)
            assert combined_bound(distance, a, b) <= exact + 1e-9

    @pytest.mark.parametrize("distance", STRING_DISTANCES, ids=lambda d: d.name)
    def test_string_bounds_never_exceed_exact(self, distance):
        for a, b in _random_string_pairs():
            exact = distance(a, b)
            assert combined_bound(distance, a, b) <= exact + 1e-9

    def test_euclidean_norm_bound(self):
        distance = Euclidean()
        for _ in range(30):
            a = RNG.normal(size=15)
            b = RNG.normal(size=15)
            assert combined_bound(distance, a, b) <= distance(a, b) + 1e-9

    def test_kim_bound_admissible_for_single_element_pairs(self):
        # Both endpoints of a 1x1 pair are the same coupling: summing them
        # would double-count and exceed the exact DTW distance.
        distance = DTW()
        for _ in range(20):
            a = RNG.normal(size=1)
            b = RNG.normal(size=1)
            exact = distance(a, b)
            assert combined_bound(distance, a, b) <= exact + 1e-9
        batched = combined_batch_bound(
            distance, as_array(RNG.normal(size=1)), np.stack([as_array(RNG.normal(size=1))])
        )
        assert batched.shape == (1,)

    def test_tiny_window_matcher_results_unchanged_by_prefilter(self):
        # End-to-end guard for the 1x1 case: window_length 1 (min_length 2).
        from repro import (
            MatcherConfig,
            RangeQuery,
            Sequence,
            SequenceDatabase,
            SequenceKind,
            SubsequenceMatcher,
        )

        db = SequenceDatabase(SequenceKind.TIME_SERIES)
        db.add(Sequence.from_values(RNG.normal(size=12), seq_id="a"))
        db.add(Sequence.from_values(RNG.normal(size=12), seq_id="b"))
        query = Sequence.from_values(RNG.normal(size=6), seq_id="q")
        spec = RangeQuery(radius=1.5, exhaustive=True)
        results = {}
        for prefilter in (True, False):
            config = MatcherConfig(
                min_length=2, max_shift=0, index="linear-scan", prefilter=prefilter
            )
            matcher = SubsequenceMatcher(db, DTW(), config)
            found = matcher.execute(spec.bind(query)).matches
            results[prefilter] = sorted(
                (m.source_id, m.query_start, m.query_stop, m.db_start, m.db_stop)
                for m in found
            )
        assert results[True] == results[False]

    def test_every_registered_bound_applies_somewhere(self):
        distances = SERIES_DISTANCES + STRING_DISTANCES + [Euclidean()]
        for bound in registered_lower_bounds():
            assert any(bound.applies_to(distance) for distance in distances), bound.name


class TestBatchAgreesWithScalar:
    @pytest.mark.parametrize(
        "distance",
        [DTW(), ERP(), DiscreteFrechet(), Levenshtein(), EDR(), Euclidean()],
        ids=lambda d: d.name,
    )
    def test_batch_bound_matches_pairwise(self, distance):
        query = as_array(RNG.normal(size=12))
        items = np.stack([RNG.normal(size=(12, 1)) for _ in range(10)])
        batched = combined_batch_bound(distance, query, items)
        for index in range(items.shape[0]):
            scalar = combined_bound(distance, query, items[index])
            assert batched[index] == pytest.approx(scalar, abs=1e-9)

    def test_batch_bound_on_trajectories(self):
        distance = DTW()
        query = as_array(RNG.normal(size=(10, 2)))
        items = np.stack([RNG.normal(size=(14, 2)) for _ in range(8)])
        batched = combined_batch_bound(distance, query, items)
        for index in range(items.shape[0]):
            assert batched[index] == pytest.approx(
                combined_bound(distance, query, items[index]), abs=1e-9
            )


class TestNoBoundsCases:
    def test_unbounded_distance_gets_zero(self):
        assert combined_bound(Hamming(), RNG.integers(0, 3, 8), RNG.integers(0, 3, 8)) == 0.0

    def test_batch_zero_for_unbounded_distance(self):
        items = np.stack([RNG.normal(size=(8, 1)) for _ in range(4)])
        values = combined_batch_bound(Hamming(), as_array(RNG.normal(size=8)), items)
        assert np.all(values == 0.0)
