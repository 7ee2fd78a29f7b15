"""Tests for the :class:`~repro.distances.cache.DistanceCache`."""

import pytest

from repro import (
    CountingDistance,
    DistanceCache,
    Euclidean,
    Levenshtein,
    Sequence,
)


def _seq(values, seq_id=None):
    return Sequence.from_values(values, seq_id=seq_id)


class TestLookupStore:
    def test_miss_then_hit(self):
        cache = DistanceCache()
        a, b = _seq([1.0, 2.0]), _seq([1.0, 3.0])
        assert cache.lookup(a, b) is None
        cache.store(a, b, 1.0)
        assert cache.lookup(a, b) == 1.0
        assert cache.hits == 1
        assert cache.misses == 1
        assert len(cache) == 1

    def test_content_keys_unify_equal_sequences(self):
        cache = DistanceCache()
        cache.store(_seq([1.0, 2.0], "x"), _seq([3.0, 4.0], "y"), 2.5)
        # Same content cut from elsewhere hits the same entry.
        assert cache.lookup(_seq([1.0, 2.0], "z"), _seq([3.0, 4.0], "w")) == 2.5

    def test_ordered_keys(self):
        cache = DistanceCache()
        a, b = _seq([1.0]), _seq([2.0])
        cache.store(a, b, 1.0)
        # No symmetry is assumed (distances may be asymmetric).
        assert cache.lookup(b, a) is None

    def test_exact_entry_answers_any_cutoff(self):
        cache = DistanceCache()
        a, b = _seq([0.0]), _seq([5.0])
        cache.store(a, b, 5.0)
        assert cache.lookup(a, b, cutoff=1.0) == 5.0
        assert cache.lookup(a, b, cutoff=100.0) == 5.0


class TestLowerBounds:
    def test_abandoned_result_recorded_as_bound(self):
        cache = DistanceCache()
        a, b = _seq([0.0]), _seq([9.0])
        # Kernel abandoned at cutoff 2: only "distance > 2" is known.
        cache.store(a, b, float("inf"), cutoff=2.0)
        # Any query within the proven bound is answered with inf...
        assert cache.lookup(a, b, cutoff=1.5) == float("inf")
        assert cache.lookup(a, b, cutoff=2.0) == float("inf")
        # ...but a larger cutoff (or an exact request) must recompute.
        assert cache.lookup(a, b, cutoff=3.0) is None
        assert cache.lookup(a, b) is None

    def test_bound_upgraded_to_exact(self):
        cache = DistanceCache()
        a, b = _seq([0.0]), _seq([9.0])
        cache.store(a, b, float("inf"), cutoff=2.0)
        cache.store(a, b, 9.0)
        assert cache.lookup(a, b) == 9.0

    def test_exact_never_downgraded(self):
        cache = DistanceCache()
        a, b = _seq([0.0]), _seq([9.0])
        cache.store(a, b, 9.0)
        cache.store(a, b, float("inf"), cutoff=2.0)
        assert cache.lookup(a, b) == 9.0

    def test_bound_never_weakened(self):
        cache = DistanceCache()
        a, b = _seq([0.0]), _seq([9.0])
        cache.store(a, b, float("inf"), cutoff=4.0)
        cache.store(a, b, float("inf"), cutoff=2.0)
        assert cache.lookup(a, b, cutoff=4.0) == float("inf")


class TestCapacity:
    def test_eviction_drops_oldest(self):
        cache = DistanceCache(max_entries=2)
        pairs = [(_seq([float(i)]), _seq([float(i + 10)])) for i in range(3)]
        for first, second in pairs:
            cache.store(first, second, 1.0)
        assert len(cache) == 2
        assert cache.lookup(*pairs[0]) is None
        assert cache.lookup(*pairs[2]) == 1.0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            DistanceCache(max_entries=0)

    def test_clear_resets_everything(self):
        cache = DistanceCache()
        a, b = _seq([1.0]), _seq([2.0])
        cache.store(a, b, 1.0)
        cache.lookup(a, b)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0
        assert cache.misses == 0


class TestMatcherIntegration:
    def test_matcher_cache_respects_configured_bound(self):
        import numpy as np

        from repro import (
            DiscreteFrechet,
            MatcherConfig,
            RangeQuery,
            SequenceDatabase,
            SequenceKind,
            SubsequenceMatcher,
        )

        rng = np.random.default_rng(0)
        db = SequenceDatabase(SequenceKind.TIME_SERIES)
        for i in range(3):
            db.add(Sequence.from_values(rng.normal(size=40), seq_id=f"s{i}"))
        config = MatcherConfig(min_length=10, max_shift=1, cache_max_entries=50)
        matcher = SubsequenceMatcher(db, DiscreteFrechet(), config)
        query = Sequence.from_values(rng.normal(size=20), seq_id="q")
        matcher.execute(RangeQuery(radius=5.0).bind(query))
        assert matcher.distance_cache.max_entries == 50
        assert len(matcher.distance_cache) <= 50


class TestCountingDistanceIntegration:
    def test_hits_counted_separately_from_fresh(self):
        counting = CountingDistance(Euclidean(), cache=DistanceCache())
        a, b = _seq([0.0, 0.0]), _seq([3.0, 4.0])
        assert counting(a, b) == 5.0
        assert counting(a, b) == 5.0
        assert counting.counter.total == 1
        assert counting.counter.cache_hits == 1

    def test_bounded_hits_and_bounds(self):
        counting = CountingDistance(Levenshtein(), cache=DistanceCache())
        a = Sequence.from_values([1.0, 2.0, 3.0, 4.0])
        b = Sequence.from_values([5.0, 6.0, 7.0, 8.0])
        value = counting.bounded(a, b, 1.0)
        assert value > 1.0
        # The bound answers a smaller-or-equal cutoff without recomputation.
        assert counting.bounded(a, b, 1.0) > 1.0
        assert counting.counter.total == 1
        assert counting.counter.cache_hits == 1
        # A wider cutoff recomputes and records the exact value.
        assert counting.bounded(a, b, 10.0) == 4.0
        assert counting.counter.total == 2
        assert counting(a, b) == 4.0
        assert counting.counter.total == 2
        assert counting.counter.cache_hits == 2

    def test_uncacheable_payloads_bypass_cache(self):
        counting = CountingDistance(Euclidean(), cache=DistanceCache())
        assert counting([0.0], [3.0]) == 3.0
        assert counting([0.0], [3.0]) == 3.0
        assert counting.counter.total == 2
        assert counting.counter.cache_hits == 0

    def test_checkpoint_tracks_cache_hits(self):
        counting = CountingDistance(Euclidean(), cache=DistanceCache())
        a, b = _seq([0.0]), _seq([1.0])
        counting(a, b)
        counting.counter.checkpoint()
        counting(a, b)
        counting(a, b)
        assert counting.counter.since_checkpoint() == 0
        assert counting.counter.cache_hits_since_checkpoint() == 2


class TestThreadSafety:
    """The cache is shared between concurrently querying matchers and the
    thread executor's work units, so its table, eviction loop, and
    statistics must survive a genuine multi-threaded hammering."""

    def test_eight_thread_hammer_via_shared_cache(self):
        import threading

        from repro.distances import shared_cache

        cache = shared_cache("hammer-test", max_entries=64)
        sequences = [_seq([float(i), float(i + 1)], seq_id=f"h{i}") for i in range(40)]
        lookups_done = [0] * 8
        errors = []
        barrier = threading.Barrier(8, timeout=10)

        def hammer(worker):
            try:
                import numpy as np

                generator = np.random.default_rng(worker)
                barrier.wait()
                for step in range(600):
                    first = sequences[int(generator.integers(len(sequences)))]
                    second = sequences[int(generator.integers(len(sequences)))]
                    op = step % 5
                    if op == 0:
                        cache.store(first, second, 1.0)
                    elif op == 1:
                        cache.store(first, second, 5.0, cutoff=2.0)
                    elif op == 2:
                        cache.seed(first, second, 3.0, exact=True)
                    elif op == 3:
                        for entry in cache.iter_entries():
                            assert len(entry) == 4
                            break
                    else:
                        cache.lookup(first, second, cutoff=2.0)
                        lookups_done[worker] += 1
                    cache.peek(first, second)
                    assert len(cache) <= 64
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        hits_before, misses_before = cache.hits, cache.misses
        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert all(not thread.is_alive() for thread in threads)
        # Capacity held under concurrent insertion and eviction.
        assert len(cache) <= 64
        # Statistics stayed consistent: every counted lookup is either a
        # hit or a miss, and peek never touched the tallies.
        total_lookups = sum(lookups_done)
        assert (cache.hits - hits_before) + (cache.misses - misses_before) == total_lookups
        # The surviving entries are well-formed (value, exact) pairs.
        for first, second, value, exact in cache.iter_entries():
            assert isinstance(value, float)
            assert isinstance(exact, bool)

    def test_concurrent_matchers_share_one_cache(self, tmp_path):
        """Two matchers over one shared cache, queried from two threads."""
        import threading

        import numpy as np

        from repro import DiscreteFrechet, LongestSubsequenceQuery, MatcherConfig
        from repro import SequenceDatabase, SequenceKind, SubsequenceMatcher
        from repro.distances import shared_cache

        generator = np.random.default_rng(5)
        pattern = np.cumsum(generator.normal(size=24))
        database = SequenceDatabase(SequenceKind.TIME_SERIES)
        database.add(
            Sequence.from_values(
                np.concatenate([generator.uniform(30, 40, 8), pattern]), seq_id="a"
            )
        )
        database.add(
            Sequence.from_values(
                np.concatenate([pattern + 0.05, generator.uniform(30, 40, 8)]),
                seq_id="b",
            )
        )
        query = Sequence(
            np.asarray(database["a"].values[8:32]) + 0.01,
            SequenceKind.TIME_SERIES,
            "q",
        )
        cache = shared_cache("hammer-matchers")
        config = MatcherConfig(min_length=12, max_shift=1)
        matchers = [
            SubsequenceMatcher(database, DiscreteFrechet(), config, cache=cache)
            for _ in range(2)
        ]
        results = [None, None]
        errors = []

        def run(position):
            try:
                spec = LongestSubsequenceQuery(radius=0.5).bind(query)
                results[position] = matchers[position].execute(spec).best
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert results[0] is not None and results[1] is not None
        assert results[0].length == results[1].length
        assert results[0].distance == pytest.approx(results[1].distance, abs=1e-12)
