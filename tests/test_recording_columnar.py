"""Record/replay against the serial oracle.

The parallel executors record each work unit's distance requests and
replay the logs, in unit order, into the live cache and counters (see
:mod:`repro.distances.recording`).  The reference semantics is the serial
path itself, so these tests drive every random request stream -- plain
calls, bounded calls, batched probes, verification lookup/store sequences
-- twice over identical starting caches:

* serially, through :class:`~repro.indexing.stats.CountingDistance` and the
  verification step's ``_measure`` helper;
* as record+replay units, each unit recorded against the cache as the
  earlier units' replays left it, then replayed.

and assert identical returned values, counter tallies, cache statistics,
and cache content in insertion order.  The one inexactness the recording
module documents -- a bounded cache evicting mid-unit, which a unit's
private overlay cannot see -- is kept out of scope by construction: on
bounded caches every unit holds exactly one request.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DiscreteFrechet, Sequence
from repro.core.verification import _measure, _VerificationCounter
from repro.distances.cache import DistanceCache
from repro.distances.recording import RecordingCounting, RecordingVerifyCache
from repro.indexing.stats import CountingDistance, DistanceCounter

#: A small operand pool: repeats across requests are what make cache hits,
#: no-downgrade upgrades, and evictions actually happen in the streams.
_POOL_SIZE = 6


def _make_pool():
    generator = np.random.default_rng(7)
    pool = [
        Sequence.from_values(generator.normal(size=5), seq_id=f"s{i}")
        for i in range(_POOL_SIZE)
    ]
    # One raw array: not cacheable, exercises the uncacheable log rows.
    raw = generator.normal(size=5)
    return pool, raw


_SEQUENCES, _RAW = _make_pool()

#: One probe request: ("call", i, j) | ("bounded", i, j, cutoff) |
#: ("batch", i, [j...], cutoff_or_None).  Indexes < 0 pick the raw array.
_request = st.one_of(
    st.tuples(
        st.just("call"),
        st.integers(-1, _POOL_SIZE - 1),
        st.integers(-1, _POOL_SIZE - 1),
    ),
    st.tuples(
        st.just("bounded"),
        st.integers(-1, _POOL_SIZE - 1),
        st.integers(-1, _POOL_SIZE - 1),
        st.floats(0.1, 5.0),
    ),
    st.tuples(
        st.just("batch"),
        st.integers(0, _POOL_SIZE - 1),
        st.lists(st.integers(0, _POOL_SIZE - 1), min_size=1, max_size=5),
        st.one_of(st.none(), st.floats(0.1, 5.0)),
    ),
)

#: One verification request: (first, second, radius).
_verify_request = st.tuples(
    st.integers(0, _POOL_SIZE - 1),
    st.integers(0, _POOL_SIZE - 1),
    st.floats(0.1, 5.0),
)


def _operand(index):
    return _RAW if index < 0 else _SEQUENCES[index]


def _cache_fingerprint(cache):
    entries = [
        (first.seq_id, second.seq_id, value, exact)
        for first, second, value, exact in cache.iter_entries()
    ]
    return entries, cache.hits, cache.misses


def _counter_fingerprint(counter):
    return (
        counter.total,
        counter.cache_hits,
        counter.prefilter_evaluations,
        counter.prefilter_pruned,
    )


def _new_cache(max_entries, warm):
    cache = DistanceCache(max_entries=max_entries)
    if warm:
        cache.seed(_SEQUENCES[0], _SEQUENCES[1], 0.25)
        cache.seed(_SEQUENCES[2], _SEQUENCES[3], 0.5, exact=False)
    return cache


def _issue(counting, request):
    """Send one probe request through ``counting``; return its values."""
    if request[0] == "call":
        return [counting(_operand(request[1]), _operand(request[2]))]
    if request[0] == "bounded":
        return [counting.bounded(_operand(request[1]), _operand(request[2]), request[3])]
    _kind, query_index, item_indexes, cutoff = request
    values = counting.batch(
        _operand(query_index), [_operand(i) for i in item_indexes], cutoff=cutoff
    )
    return [float(value) for value in values]


def _probe_serial(units, prefilter, max_entries, warm):
    cache = _new_cache(max_entries, warm)
    live = CountingDistance(DiscreteFrechet(), DistanceCounter(), cache=cache, prefilter=prefilter)
    returned = [value for unit in units for request in unit for value in _issue(live, request)]
    return returned, _counter_fingerprint(live.counter), _cache_fingerprint(cache)


def _probe_replayed(units, prefilter, max_entries, warm):
    cache = _new_cache(max_entries, warm)
    live = CountingDistance(DiscreteFrechet(), DistanceCounter(), cache=cache, prefilter=prefilter)
    returned = []
    for unit in units:
        recorder = RecordingCounting(DiscreteFrechet(), cache, prefilter=prefilter)
        for request in unit:
            returned.extend(_issue(recorder, request))
        recorder.replay_into(live)
    return returned, _counter_fingerprint(live.counter), _cache_fingerprint(cache)


def _assert_probe_matches_serial(units, prefilter, max_entries, warm):
    serial = _probe_serial(units, prefilter, max_entries, warm)
    replayed = _probe_replayed(units, prefilter, max_entries, warm)
    assert replayed[0] == serial[0]  # returned values
    assert replayed[1] == serial[1]  # counter tallies
    assert replayed[2] == serial[2]  # cache content + order, cache stats


class TestProbeReplayMatchesSerial:
    @settings(max_examples=80, deadline=None)
    @given(
        units=st.lists(st.lists(_request, min_size=1, max_size=6), max_size=8),
        prefilter=st.booleans(),
        warm=st.booleans(),
    )
    def test_unbounded_cache(self, units, prefilter, warm):
        _assert_probe_matches_serial(units, prefilter, None, warm)

    @settings(max_examples=120, deadline=None)
    @given(
        requests=st.lists(_request, max_size=25),
        prefilter=st.booleans(),
        max_entries=st.integers(1, 10),
        warm=st.booleans(),
    )
    def test_bounded_cache_one_request_per_unit(self, requests, prefilter, max_entries, warm):
        units = [[request] for request in requests]
        _assert_probe_matches_serial(units, prefilter, max_entries, warm)

    def test_batch_stores_in_item_order(self):
        # batch(s2, [s0, s1, s2], 1.0): the prefilter prunes s1 (its lower
        # bound exceeds the cutoff) and s0, s2 are computed.  The stores
        # land in item order, so a capacity-2 cache keeps (s2, s1) and
        # (s2, s2), and the second unit's (s2, s0) is a fresh computation
        # -- serially and replayed alike.  Storing the pruned item before
        # the survivors kept (s2, s0) serially and turned it into a hit.
        units = [[("batch", 2, [0, 1, 2], 1.0)], [("batch", 2, [0], 1.0)]]
        serial = _probe_serial(units, True, 2, False)
        assert serial[1] == (3, 0, 4, 1)  # fresh, hits, prefilter evaluated/pruned
        entries = [(first, second) for first, second, _value, _exact in serial[2][0]]
        assert entries == [("s2", "s2"), ("s2", "s0")]
        for prefilter in (False, True):
            _assert_probe_matches_serial(units, prefilter, 2, False)

    def test_replay_is_idempotent_per_recorder(self):
        # One recorder, one replay: the counter sees exactly the recorded
        # work, and a second independent recorder over the now-warm cache
        # classifies everything as hits.
        base = DistanceCache()
        first = RecordingCounting(DiscreteFrechet(), base)
        first(_SEQUENCES[0], _SEQUENCES[1])
        first.bounded(_SEQUENCES[0], _SEQUENCES[2], 2.0)
        live = CountingDistance(DiscreteFrechet(), DistanceCounter(), cache=base)
        first.replay_into(live)
        assert live.counter.total == 2
        assert live.counter.cache_hits == 0
        second = RecordingCounting(DiscreteFrechet(), base)
        second(_SEQUENCES[0], _SEQUENCES[1])
        second.bounded(_SEQUENCES[0], _SEQUENCES[2], 2.0)
        second.replay_into(live)
        assert live.counter.total == 2
        assert live.counter.cache_hits == 2


def _verify_serial(units, max_entries, warm):
    cache = _new_cache(max_entries, warm)
    counter = _VerificationCounter()
    distance = DiscreteFrechet()
    returned = [
        _measure(distance, _SEQUENCES[first], _SEQUENCES[second], radius, counter, cache)
        for unit in units
        for first, second, radius in unit
    ]
    return returned, (counter.count, counter.cache_hits), _cache_fingerprint(cache)


def _verify_replayed(units, max_entries, warm):
    cache = _new_cache(max_entries, warm)
    counter = _VerificationCounter()
    distance = DiscreteFrechet()
    returned = []
    for unit in units:
        recorder = RecordingVerifyCache(cache)
        scratch = _VerificationCounter()
        for first, second, radius in unit:
            returned.append(
                _measure(distance, _SEQUENCES[first], _SEQUENCES[second], radius, scratch, recorder)
            )
        recorder.replay_into(cache, counter)
    return returned, (counter.count, counter.cache_hits), _cache_fingerprint(cache)


class TestVerifyReplayMatchesSerial:
    @settings(max_examples=80, deadline=None)
    @given(
        units=st.lists(st.lists(_verify_request, min_size=1, max_size=6), max_size=8),
        warm=st.booleans(),
    )
    def test_unbounded_cache(self, units, warm):
        assert _verify_replayed(units, None, warm) == _verify_serial(units, None, warm)

    @settings(max_examples=80, deadline=None)
    @given(
        requests=st.lists(_verify_request, max_size=30),
        max_entries=st.integers(1, 8),
        warm=st.booleans(),
    )
    def test_bounded_cache_one_request_per_unit(self, requests, max_entries, warm):
        units = [[request] for request in requests]
        assert _verify_replayed(units, max_entries, warm) == _verify_serial(
            units, max_entries, warm
        )
