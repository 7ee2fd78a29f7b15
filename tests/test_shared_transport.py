"""Shared-memory payload transport: equivalence and lifecycle.

The process executor can ship window tensors to its workers as
``multiprocessing.shared_memory`` row references instead of pickled arrays
(see :mod:`repro.sequences.packed` and ``MatcherConfig.transport``).  Two
guarantees matter:

* **Equivalence** -- the transport moves bytes, nothing else: results and
  work counters are identical across ``pickle``/``auto``/``shared`` and
  identical to the serial matcher.
* **Lifecycle** -- segments are reference-counted OS resources: closing a
  matcher (or the store mutating) releases them, and nothing is left for
  the ``resource_tracker`` to complain about at interpreter exit.
"""

import pickle

import numpy as np
import pytest

from repro import (
    DiscreteFrechet,
    MatcherConfig,
    NearestSubsequenceQuery,
    RangeQuery,
    Sequence,
    SequenceDatabase,
    SequenceKind,
    SubsequenceMatcher,
)
from repro.core.sharded import ShardedMatcher
from repro.core.service import SearchService
from repro.exceptions import ConfigurationError
from repro.sequences import packed as packed_module
from repro.sequences.packed import (
    PackedWindowStore,
    SharedRows,
    StoreGather,
    live_shared_segments,
    release_all_shared_exports,
    resolve_remote_tensor,
)

pytestmark = pytest.mark.skipif(
    packed_module.shared_memory is None,
    reason="multiprocessing.shared_memory unavailable on this platform",
)


@pytest.fixture(autouse=True)
def _clean_exports():
    yield
    release_all_shared_exports()


def _store_with(generator, count=8, length=6, dim=1):
    store = PackedWindowStore()
    for position in range(count):
        store.add(position, generator.normal(size=(length, dim)).squeeze())
    return store


class TestSharedWindowExport:
    def test_rows_resolve_to_gather_values(self):
        generator = np.random.default_rng(0)
        store = _store_with(generator)
        gather = StoreGather(store, list(range(len(store))))
        positions = [0, 3, 5]
        payload = gather.remote_payload(positions)
        assert isinstance(payload, SharedRows)
        np.testing.assert_array_equal(payload.resolve(), gather.gather(positions))

    def test_rows_survive_pickling(self):
        # The descriptor is what a process-pool chunk actually ships: it
        # must round-trip through pickle and resolve to the same tensor.
        generator = np.random.default_rng(1)
        store = _store_with(generator)
        gather = StoreGather(store, list(range(len(store))))
        payload = gather.remote_payload([1, 2, 6])
        clone = pickle.loads(pickle.dumps(payload))
        np.testing.assert_array_equal(clone.resolve(), gather.gather([1, 2, 6]))
        assert resolve_remote_tensor(clone).shape == gather.gather([1, 2, 6]).shape

    def test_full_group_in_order_is_a_view(self):
        generator = np.random.default_rng(2)
        store = _store_with(generator)
        gather = StoreGather(store, list(range(len(store))))
        payload = gather.remote_payload(list(range(len(store))))
        resolved = payload.resolve()
        np.testing.assert_array_equal(resolved, gather.gather(list(range(len(store)))))

    def test_export_is_cached_per_epoch_and_dropped_on_mutation(self):
        generator = np.random.default_rng(3)
        store = _store_with(generator)
        export = store.export_shared()
        assert export is not None
        assert store.export_shared() is export
        assert live_shared_segments()
        store.add(99, generator.normal(size=6))
        # The mutation bumped the epoch and eagerly released the segment.
        assert not live_shared_segments()
        fresh = store.export_shared()
        assert fresh is not None and fresh is not export

    def test_empty_store_has_no_export(self):
        assert PackedWindowStore().export_shared() is None

    def test_release_is_idempotent(self):
        generator = np.random.default_rng(4)
        store = _store_with(generator)
        assert store.export_shared() is not None
        store.release_shared()
        store.release_shared()
        assert not live_shared_segments()

    def test_require_shared_without_export_raises(self, monkeypatch):
        generator = np.random.default_rng(5)
        store = _store_with(generator)
        monkeypatch.setattr(packed_module, "shared_memory", None)
        gather = StoreGather(store, list(range(len(store))))
        with pytest.raises(RuntimeError, match="shared-memory export"):
            gather.remote_payload([0, 1], require=True)
        # Without the requirement the gather falls back to materializing.
        fallback = gather.remote_payload([0, 1])
        assert isinstance(fallback, np.ndarray)


@pytest.fixture(scope="module")
def planted():
    generator = np.random.default_rng(42)
    pattern = np.cumsum(generator.normal(size=24))
    db = SequenceDatabase(SequenceKind.TIME_SERIES, name="planted-shared")
    first = np.concatenate(
        [generator.uniform(30, 40, 8), pattern, generator.uniform(30, 40, 8)]
    )
    second = np.concatenate(
        [generator.uniform(-40, -30, 14), pattern + 0.05, generator.uniform(-40, -30, 2)]
    )
    db.add(Sequence.from_values(first, seq_id="p1"))
    db.add(Sequence.from_values(second, seq_id="p2"))
    db.add(Sequence.from_values(generator.uniform(60, 70, size=40), seq_id="bg"))
    query = Sequence(np.asarray(first[8:32]) + 0.01, SequenceKind.TIME_SERIES, "query")
    return db, query


def _matcher(db, transport, executor="process"):
    return SubsequenceMatcher(
        db,
        DiscreteFrechet(),
        MatcherConfig(
            min_length=12,
            max_shift=1,
            index="linear-scan",
            executor=executor,
            workers=2,
            transport=transport,
        ),
    )


WORK_COUNTERS = (
    "segments_extracted",
    "segment_matches",
    "candidate_chains",
    "index_distance_computations",
    "index_cache_hits",
    "verification_distance_computations",
    "verification_cache_hits",
    "prefilter_evaluations",
    "prefilter_pruned",
)


def _fingerprint(stats):
    return {name: getattr(stats, name) for name in WORK_COUNTERS}


def _match_key(match):
    return (
        match.source_id,
        match.query_start,
        match.query_stop,
        match.db_start,
        match.db_stop,
        match.distance,
    )


class TestTransportEquivalence:
    @pytest.mark.parametrize("transport", ["pickle", "auto", "shared"])
    def test_process_matcher_matches_serial(self, planted, transport):
        db, query = planted
        serial = _matcher(db, "auto", executor="serial")
        subject = _matcher(db, transport)
        try:
            serial_matches = serial.execute(RangeQuery(radius=0.5).bind(query)).matches
            subject_matches = subject.execute(RangeQuery(radius=0.5).bind(query)).matches
            assert list(map(_match_key, subject_matches)) == list(
                map(_match_key, serial_matches)
            )
            assert _fingerprint(subject.last_query_stats) == _fingerprint(
                serial.last_query_stats
            )
            assert subject.last_query_stats.transport == transport

            spec = NearestSubsequenceQuery(max_radius=10.0)
            serial_nearest = serial.execute(spec.bind(query)).best
            subject_nearest = subject.execute(spec.bind(query)).best
            assert (subject_nearest is None) == (serial_nearest is None)
            if subject_nearest is not None:
                assert _match_key(subject_nearest) == _match_key(serial_nearest)
            assert _fingerprint(subject.last_query_stats) == _fingerprint(
                serial.last_query_stats
            )
        finally:
            serial.close()
            subject.close()

    def test_unknown_transport_rejected(self):
        with pytest.raises(ConfigurationError, match="transport"):
            MatcherConfig(min_length=12, transport="carrier-pigeon")

    def test_transport_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "pickle")
        assert MatcherConfig(min_length=12).transport == "pickle"
        monkeypatch.delenv("REPRO_TRANSPORT")
        assert MatcherConfig(min_length=12).transport == "auto"


class TestLifecycle:
    def test_matcher_close_releases_segments(self, planted):
        db, query = planted
        matcher = _matcher(db, "shared")
        matcher.execute(RangeQuery(radius=0.5).bind(query))
        assert live_shared_segments()
        matcher.close()
        assert not live_shared_segments()
        # Closing is not a shutdown: the store re-exports on demand (a
        # repeated query would be answered from the distance cache without
        # ever needing a payload, so ask the store directly).
        assert matcher.index._packed.export_shared() is not None
        assert live_shared_segments()
        matcher.close()
        assert not live_shared_segments()

    def test_sharded_matcher_close_releases_segments(self, planted):
        db, query = planted
        config = MatcherConfig(
            min_length=12,
            max_shift=1,
            index="linear-scan",
            executor="thread",
            workers=2,
            shards=2,
        )
        sharded = ShardedMatcher(db, DiscreteFrechet(), config)
        for shard in sharded.shards:
            shard.index.prepare_queries()
            shard.index._packed.export_shared()
        assert live_shared_segments()
        sharded.close()
        assert not live_shared_segments()

    def test_service_close_releases_segments(self, planted):
        db, query = planted
        service = SearchService(_matcher(db, "shared"))
        service.execute(RangeQuery(radius=0.5).bind(query))
        assert live_shared_segments()
        service.close()
        assert not live_shared_segments()

    def test_unqueried_service_close_does_not_load(self, tmp_path):
        service = SearchService(tmp_path / "missing-snapshot.json")
        service.close()
        assert not service.loaded

    def test_release_all_shared_exports_sweeps_everything(self):
        generator = np.random.default_rng(6)
        stores = [_store_with(generator) for _ in range(3)]
        for store in stores:
            assert store.export_shared() is not None
        assert len(live_shared_segments()) == 3
        release_all_shared_exports()
        assert not live_shared_segments()
