"""Matcher snapshots: save/load round-trips must be byte-identical.

The acceptance bar: a snapshot saved, reloaded, and incrementally updated
returns byte-identical query results -- all query types, all five index
classes -- to the matcher it was saved from, without ``refresh()`` on load.
"Byte-identical" here includes the :class:`~repro.core.queries.QueryStats`
work counters, which only holds because the snapshot persists the built
index structure *and* the distance-cache contents.
"""

import numpy as np
import pytest

from repro import (
    DiscreteFrechet,
    Levenshtein,
    LongestSubsequenceQuery,
    MatcherConfig,
    NearestSubsequenceQuery,
    PROTEIN_ALPHABET,
    RangeQuery,
    Sequence,
    SequenceDatabase,
    SequenceKind,
    StorageError,
    SubsequenceMatcher,
    load_matcher,
    save_database,
    save_matcher,
)

INDEX_NAMES = ["reference-net", "cover-tree", "reference-based", "vp-tree", "linear-scan"]

WORK_COUNTERS = (
    "segments_extracted",
    "segment_matches",
    "candidate_chains",
    "naive_distance_computations",
    "index_distance_computations",
    "verification_distance_computations",
    "index_cache_hits",
    "verification_cache_hits",
    "prefilter_evaluations",
    "prefilter_pruned",
)


def assert_same_stats(first, second, context=""):
    for name in WORK_COUNTERS:
        assert getattr(first, name) == getattr(second, name), (context, name)


def run_all_query_types(matcher, query):
    """Run Type I, II, and III; return (results repr, stats list)."""
    outputs = []
    stats = []
    outputs.append(repr(matcher.execute(RangeQuery(radius=0.5).bind(query)).matches))
    stats.append(matcher.last_query_stats)
    outputs.append(repr(matcher.execute(LongestSubsequenceQuery(radius=0.5).bind(query)).best))
    stats.append(matcher.last_query_stats)
    outputs.append(
        repr(matcher.execute(NearestSubsequenceQuery(max_radius=10.0).bind(query)).best)
    )
    stats.append(matcher.last_query_stats)
    return outputs, stats


@pytest.fixture
def planted_db():
    generator = np.random.default_rng(11)
    pattern = np.cumsum(generator.normal(size=24))
    db = SequenceDatabase(SequenceKind.TIME_SERIES, name="planted")
    first = np.concatenate([generator.uniform(30, 40, 8), pattern, generator.uniform(30, 40, 8)])
    second = np.concatenate([generator.uniform(-40, -30, 14), pattern, generator.uniform(-40, -30, 2)])
    db.add(Sequence.from_values(first, seq_id="with-pattern-1"))
    db.add(Sequence.from_values(second, seq_id="with-pattern-2"))
    db.add(Sequence.from_values(generator.uniform(80, 90, size=40), seq_id="background"))
    return db


@pytest.fixture
def pattern_query(planted_db):
    source = planted_db["with-pattern-1"]
    return Sequence(np.asarray(source.values[8:32]) + 0.01, SequenceKind.TIME_SERIES, "query")


class TestSnapshotRoundtrip:
    @pytest.mark.parametrize("index_name", INDEX_NAMES)
    def test_loaded_matcher_is_byte_identical(
        self, planted_db, pattern_query, tmp_path, index_name
    ):
        config = MatcherConfig(min_length=12, max_shift=1, index=index_name)
        original = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        path = tmp_path / "matcher.npz"
        save_matcher(original, path)

        loaded = load_matcher(path)
        assert not loaded.index.is_stale
        assert loaded.config == original.config
        assert len(loaded.windows) == len(original.windows)
        assert len(loaded.distance_cache) == len(original.distance_cache)

        original_out, original_stats = run_all_query_types(original, pattern_query)
        loaded_out, loaded_stats = run_all_query_types(loaded, pattern_query)
        assert loaded_out == original_out
        for first, second, label in zip(
            original_stats, loaded_stats, ("type-I", "type-II", "type-III")
        ):
            assert_same_stats(first, second, context=f"{index_name}/{label}")

    @pytest.mark.parametrize("index_name", INDEX_NAMES)
    def test_interleaved_add_sequence_stays_identical(
        self, planted_db, pattern_query, tmp_path, index_name
    ):
        config = MatcherConfig(min_length=12, max_shift=1, index=index_name)
        original = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        path = tmp_path / "matcher.npz"
        save_matcher(original, path)
        loaded = load_matcher(path)

        new_values = np.cumsum(np.random.default_rng(23).normal(size=36))
        original.add_sequence(Sequence.from_values(new_values, seq_id="late"))
        loaded.add_sequence(Sequence.from_values(new_values, seq_id="late"))

        original_out, original_stats = run_all_query_types(original, pattern_query)
        loaded_out, loaded_stats = run_all_query_types(loaded, pattern_query)
        assert loaded_out == original_out
        for first, second in zip(original_stats, loaded_stats):
            assert_same_stats(first, second, context=index_name)

        # Re-snapshot the incrementally-updated matcher and load it again:
        # the update history (stats, staleness counters) must survive too.
        second_path = tmp_path / "matcher-2.npz"
        save_matcher(loaded, second_path)
        reloaded = load_matcher(second_path)
        assert reloaded.index.update_stats.inserts == loaded.index.update_stats.inserts
        reloaded_out, _ = run_all_query_types(reloaded, pattern_query)
        assert reloaded_out == loaded_out

    def test_snapshot_after_deleting_a_reference_window(
        self, planted_db, pattern_query, tmp_path
    ):
        """Regression: a deleted reference left stale election state behind,
        and exporting it crashed with a raw KeyError."""
        config = MatcherConfig(min_length=12, max_shift=1, index="reference-based")
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        matcher.execute(RangeQuery(radius=0.5).bind(pattern_query))  # elect references
        reference_source = matcher.index._reference_keys[0][0]
        matcher.remove_sequence(reference_source)
        assert matcher.index.is_stale
        path = tmp_path / "stale.npz"
        save_matcher(matcher, path)
        loaded = load_matcher(path)
        assert loaded.index.is_stale  # staleness persisted faithfully
        spec = RangeQuery(radius=0.5).bind(pattern_query)
        assert repr(loaded.execute(spec).matches) == repr(matcher.execute(spec).matches)

    def test_string_database_snapshot(self, string_database, tmp_path):
        config = MatcherConfig(min_length=8, max_shift=1)
        original = SubsequenceMatcher(string_database, Levenshtein(), config)
        path = tmp_path / "strings.npz"
        save_matcher(original, path)
        loaded = load_matcher(path)
        query = Sequence.from_string("ACDEFGHIKL", PROTEIN_ALPHABET)
        spec = LongestSubsequenceQuery(radius=2.0).bind(query)
        assert repr(loaded.execute(spec).best) == repr(original.execute(spec).best)
        assert_same_stats(original.last_query_stats, loaded.last_query_stats)

    def test_trajectory_database_snapshot(self, tmp_path):
        generator = np.random.default_rng(4)
        db = SequenceDatabase(SequenceKind.TRAJECTORY, name="trajs")
        pattern = np.cumsum(generator.normal(size=(30, 2)), axis=0)
        db.add(Sequence.from_points(pattern, seq_id="a"))
        db.add(Sequence.from_points(pattern[::-1] + 0.05, seq_id="b"))
        config = MatcherConfig(min_length=10, max_shift=1)
        original = SubsequenceMatcher(db, DiscreteFrechet(), config)
        path = tmp_path / "trajs.npz"
        save_matcher(original, path)
        loaded = load_matcher(path)
        query = Sequence.from_points(pattern[5:25] + 0.01, seq_id="q")
        spec = RangeQuery(radius=0.5).bind(query)
        assert repr(loaded.execute(spec).matches) == repr(original.execute(spec).matches)
        assert_same_stats(original.last_query_stats, loaded.last_query_stats)


class TestSnapshotErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            load_matcher(tmp_path / "absent.npz")

    def test_plain_database_is_not_a_snapshot(self, planted_db, tmp_path):
        path = tmp_path / "db.npz"
        save_database(planted_db, path)
        with pytest.raises(StorageError, match="snapshot"):
            load_matcher(path)

    def test_distance_mismatch_rejected(self, planted_db, tmp_path):
        config = MatcherConfig(min_length=12, max_shift=1)
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        path = tmp_path / "matcher.npz"
        save_matcher(matcher, path)
        from repro import ERP

        with pytest.raises(StorageError, match="distance"):
            load_matcher(path, distance=ERP())

    def test_explicit_distance_accepted(self, planted_db, tmp_path):
        config = MatcherConfig(min_length=12, max_shift=1)
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        path = tmp_path / "matcher.npz"
        save_matcher(matcher, path)
        loaded = load_matcher(path, distance=DiscreteFrechet())
        assert loaded.distance.name == "frechet"

    def test_external_cache_is_seeded_not_owned(self, planted_db, tmp_path):
        from repro import DistanceCache

        config = MatcherConfig(min_length=12, max_shift=1)
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        path = tmp_path / "matcher.npz"
        save_matcher(matcher, path)
        external = DistanceCache()
        loaded = load_matcher(path, cache=external)
        assert loaded.distance_cache is external
        assert len(external) == len(matcher.distance_cache)
        # refresh() must not clear a cache the matcher does not own
        loaded.refresh()
        assert len(external) > 0


def _rewrite_metadata(path, edit):
    """Re-save the archive at ``path`` with ``edit`` applied to its metadata."""
    import json

    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    metadata = json.loads(bytes(arrays["metadata"]).decode("utf-8"))
    edit(metadata)
    arrays["metadata"] = np.frombuffer(json.dumps(metadata).encode("utf-8"), dtype=np.uint8)
    np.savez_compressed(path, **arrays)


class TestRetiredConfigKeys:
    """Snapshots from builds that had ``MatcherConfig.log_format`` still load."""

    @staticmethod
    def _add_log_format(metadata):
        metadata["config"]["log_format"] = "columnar"
        for shard in metadata.get("shards", []):
            shard["config"]["log_format"] = "columnar"

    @pytest.mark.parametrize("shards", [1, 2])
    def test_log_format_key_is_dropped_on_load(
        self, planted_db, pattern_query, tmp_path, shards
    ):
        from repro import ShardedMatcher

        config = MatcherConfig(min_length=12, max_shift=1, shards=shards)
        if shards == 1:
            original = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        else:
            original = ShardedMatcher(planted_db, DiscreteFrechet(), config)
        original.execute(RangeQuery(radius=0.5).bind(pattern_query))  # warm the cache
        current, retired = tmp_path / "current.npz", tmp_path / "retired.npz"
        save_matcher(original, current)
        save_matcher(original, retired)
        _rewrite_metadata(retired, self._add_log_format)

        expected = load_matcher(current)
        loaded = load_matcher(retired)
        assert loaded.config == expected.config
        expected_out, expected_stats = run_all_query_types(expected, pattern_query)
        loaded_out, loaded_stats = run_all_query_types(loaded, pattern_query)
        assert loaded_out == expected_out
        for first, second in zip(expected_stats, loaded_stats):
            assert_same_stats(first, second)

    def test_unknown_config_keys_still_fail(self, planted_db, tmp_path):
        matcher = SubsequenceMatcher(
            planted_db, DiscreteFrechet(), MatcherConfig(min_length=12, max_shift=1)
        )
        path = tmp_path / "matcher.npz"
        save_matcher(matcher, path)
        _rewrite_metadata(path, lambda metadata: metadata["config"].update(bogus=1))
        with pytest.raises(StorageError, match="bogus"):
            load_matcher(path)


class TestAtomicWrites:
    @pytest.fixture
    def matcher(self, planted_db):
        return SubsequenceMatcher(
            planted_db, DiscreteFrechet(), MatcherConfig(min_length=12, max_shift=1)
        )

    def test_failed_write_keeps_previous_snapshot(
        self, matcher, pattern_query, tmp_path, monkeypatch
    ):
        from repro.storage import persistence

        path = tmp_path / "matcher.npz"
        save_matcher(matcher, path)
        before = path.read_bytes()

        def disk_full(file, **arrays):
            file.write(b"PK\x03\x04 partial archive")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(persistence.np, "savez_compressed", disk_full)
        with pytest.raises(StorageError, match="No space left"):
            save_matcher(matcher, path)
        monkeypatch.undo()

        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["matcher.npz"]  # no temp left
        loaded = load_matcher(path)
        spec = RangeQuery(radius=0.5).bind(pattern_query)
        assert repr(loaded.execute(spec).matches) == repr(matcher.execute(spec).matches)

    def test_npz_suffix_is_appended_like_numpy(self, matcher, tmp_path):
        save_matcher(matcher, tmp_path / "snapshot")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["snapshot.npz"]
        assert load_matcher(tmp_path / "snapshot").config == matcher.config

    @pytest.mark.parametrize("keep", [0.0, 0.5, 0.9])
    def test_truncated_snapshot_raises_storage_error(self, matcher, tmp_path, keep):
        path = tmp_path / "matcher.npz"
        save_matcher(matcher, path)
        data = path.read_bytes()
        path.write_bytes(data[: int(len(data) * keep)])
        with pytest.raises(StorageError, match="truncated or corrupt"):
            load_matcher(path)

    def test_truncated_database_raises_storage_error(self, planted_db, tmp_path):
        from repro import load_database

        path = tmp_path / "db.npz"
        save_database(planted_db, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(StorageError, match="truncated or corrupt"):
            load_database(path)
