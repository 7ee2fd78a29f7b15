"""Recorded distance evaluation for parallel work units.

The parallel executors (:mod:`repro.core.executor`) run index probes and
chain verifications concurrently, but the framework's contract is strict:
whatever the execution substrate, a query must return *byte-identical
results and identical work counters* to the serial path.  Results are easy
-- every distance value is a pure function of its operands -- but the
counters are not: whether a distance request is a *fresh computation* or a
*cache hit* depends on the order in which earlier requests populated the
shared :class:`~repro.distances.cache.DistanceCache`, and concurrent units
racing on one cache would make that order (and therefore the accounting)
nondeterministic.

The resolution rests on one observation: the *request stream* of a work
unit -- which pairs it measures, with which cutoffs, in which order -- is a
pure function of the distance values, never of the cache state (a hit and a
fresh computation return the same number).  So each unit runs against a
**private overlay** over a read-only snapshot of the shared cache and keeps
a **log** of its requests; when the executor is done, the logs are replayed
serially, in unit order, against the real cache and counters.  The replay
performs no kernels -- every value is in the log -- it only re-derives the
hit/fresh/prefilter classification each request *would* have received under
serial execution, and applies the stores in serial order (which also
reproduces the serial cache content and eviction order).

Two recording front-ends exist, matching the two distance entry points of
the query pipeline:

* :class:`RecordingCounting` duck-types the index layer's
  :class:`~repro.indexing.stats.CountingDistance` (``__call__`` /
  ``bounded`` / ``batch``) for probe work units;
* :class:`RecordingVerifyCache` duck-types :class:`DistanceCache` for the
  verification step's ``_measure`` helper.

Logs are columnar: preallocated NumPy columns -- request-kind codes, pair
references, a ``(value, cutoff, bound)`` float block -- appended with array
writes and replayed in bulk.  The replay converts whole columns to Python
scalars once, classifies under a single cache lock
(:meth:`DistanceCache.replay_view`), and applies counter tallies in one
batched update per log instead of three method calls per request.  Batched
probes log one O(1) descriptor per batch, not one record per window.  The
reference semantics is the serial path itself: the equivalence suite drives
random request streams through :class:`~repro.indexing.stats.CountingDistance`
(and the verification lookup/store protocol) and through record+replay, and
asserts identical values, counters, cache content, and insertion order.

One documented inexactness remains: if the shared cache evicts entries
*mid-stage* (capacity reached while a query is executing), a unit may have
answered a request from an entry the serial run would already have evicted.
The replay then counts that request as a fresh computation with the
recorded value -- results stay exact, the counters may differ by the
handful of requests involved.  The matcher-sized default capacities make
this unreachable in practice.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional, Sequence as TypingSequence, Tuple

import numpy as np

from repro.distances.base import (
    Distance,
    as_array,
    group_batch_operands,
    validate_group_shape,
)
from repro.distances.cache import DistanceCache
from repro.distances.lower_bounds import combined_batch_bound, combined_bound
from repro.sequences.packed import resolve_remote_tensor
from repro.sequences.sequence import Sequence

_INF = float("inf")
_NAN = float("nan")

#: Request-kind bit flags of the probe log.
_K_CACHEABLE = 1  # pair is a valid cache key
_K_BOUNDED = 2  # bounded request (cutoff column is set); unset: plain call
_K_HAS_BOUND = 4  # the prefilter evaluated a lower bound (bound column set)
_K_BATCH = 8  # placeholder row for the next entry of ``batches``

class _Overlay:
    """A unit-private write layer over a read-only base cache snapshot.

    ``lookup`` consults the overlay first (it holds the unit's most recent
    knowledge) and falls back to :meth:`DistanceCache.peek` on the base,
    which never mutates the base statistics.  ``store`` only ever writes the
    overlay.  Entry semantics (exact values vs ``distance > cutoff`` lower
    bounds, no downgrades) mirror :class:`DistanceCache`.
    """

    __slots__ = ("base", "entries")

    def __init__(self, base: Optional[DistanceCache]) -> None:
        self.base = base
        self.entries: dict = {}

    def lookup(
        self, first: Sequence, second: Sequence, cutoff: Optional[float] = None
    ) -> Optional[float]:
        entry = self.entries.get((first, second))
        if entry is not None:
            value, exact = entry
            if exact:
                return value
            if cutoff is not None and value >= cutoff:
                return _INF
        if self.base is not None:
            return self.base.peek(first, second, cutoff=cutoff)
        return None

    def store(
        self, first: Sequence, second: Sequence, value: float, cutoff: Optional[float] = None
    ) -> None:
        key = (first, second)
        if cutoff is None or value <= cutoff:
            self.entries[key] = (value, True)
            return
        existing = self.entries.get(key)
        if existing is not None and (existing[1] or existing[0] >= cutoff):
            return
        self.entries[key] = (float(cutoff), False)


class _ProbeColumns:
    """Preallocated columnar storage for a probe unit's request stream.

    One row per scalar request: a kind byte, the two pair references, and a
    ``(value, cutoff, bound)`` float triple (``nan`` where a field does not
    apply -- the kind flags, not the ``nan``, decide what is meaningful).
    Batched probes append one ``_K_BATCH`` placeholder row plus an O(1)
    descriptor on :attr:`batches`; the replay walks rows in order and pulls
    the next descriptor whenever it meets a placeholder, so the serial
    request order is preserved exactly.
    """

    __slots__ = ("kinds", "pairs", "floats", "size", "batches")

    _INITIAL = 128

    def __init__(self) -> None:
        self.kinds = np.zeros(self._INITIAL, dtype=np.uint8)
        self.pairs = np.empty((self._INITIAL, 2), dtype=object)
        self.floats = np.zeros((self._INITIAL, 3), dtype=np.float64)
        self.size = 0
        self.batches: List[tuple] = []

    def _grow(self) -> None:
        capacity = len(self.kinds) * 2
        size = self.size
        kinds = np.zeros(capacity, dtype=np.uint8)
        kinds[:size] = self.kinds[:size]
        self.kinds = kinds
        pairs = np.empty((capacity, 2), dtype=object)
        pairs[:size] = self.pairs[:size]
        self.pairs = pairs
        floats = np.zeros((capacity, 3), dtype=np.float64)
        floats[:size] = self.floats[:size]
        self.floats = floats

    def append(
        self, kind: int, first, second, value: float, cutoff: float, bound: float
    ) -> None:
        row = self.size
        if row == len(self.kinds):
            self._grow()
        self.kinds[row] = kind
        self.pairs[row, 0] = first
        self.pairs[row, 1] = second
        floats = self.floats[row]
        floats[0] = value
        floats[1] = cutoff
        floats[2] = bound
        self.size = row + 1

    def append_batch(self, record: tuple) -> None:
        row = self.size
        if row == len(self.kinds):
            self._grow()
        self.kinds[row] = _K_BATCH
        self.size = row + 1
        self.batches.append(record)


class _VerifyColumns:
    """Columnar storage for a verification unit's request stream.

    One row per request: a flag byte (bit 0: a cutoff applies), the pair
    references, and a ``(cutoff, value)`` float pair.  Hit/store rows are
    not distinguished -- the replay re-derives the classification against
    the real cache either way.
    """

    __slots__ = ("flags", "pairs", "floats", "size")

    _INITIAL = 128

    def __init__(self) -> None:
        self.flags = np.zeros(self._INITIAL, dtype=np.uint8)
        self.pairs = np.empty((self._INITIAL, 2), dtype=object)
        self.floats = np.zeros((self._INITIAL, 2), dtype=np.float64)
        self.size = 0

    def _grow(self) -> None:
        capacity = len(self.flags) * 2
        size = self.size
        flags = np.zeros(capacity, dtype=np.uint8)
        flags[:size] = self.flags[:size]
        self.flags = flags
        pairs = np.empty((capacity, 2), dtype=object)
        pairs[:size] = self.pairs[:size]
        self.pairs = pairs
        floats = np.zeros((capacity, 2), dtype=np.float64)
        floats[:size] = self.floats[:size]
        self.floats = floats

    def append(self, first, second, cutoff: Optional[float], value: float) -> None:
        row = self.size
        if row == len(self.flags):
            self._grow()
        floats = self.floats[row]
        if cutoff is None:
            floats[0] = _NAN
        else:
            self.flags[row] = 1
            floats[0] = cutoff
        floats[1] = value
        self.pairs[row, 0] = first
        self.pairs[row, 1] = second
        self.size = row + 1


class _NullReplayView:
    """Replay view over "no cache": every lookup misses, stores are dropped.

    Lets the replay loops stay branch-free on ``cache is None``: every
    request classifies as fresh, as it does serially without a cache.
    """

    __slots__ = ()

    def lookup(self, first, second, cutoff):
        return None

    def store(self, first, second, value, cutoff):
        return None


_NULL_VIEW = _NullReplayView()


@contextmanager
def _replay_view(cache: Optional[DistanceCache]):
    if cache is None:
        yield _NULL_VIEW
    else:
        with cache.replay_view() as view:
            yield view


class RecordingCounting:
    """A per-unit stand-in for :class:`~repro.indexing.stats.CountingDistance`.

    Index ``_range_search`` implementations receive one of these when they
    execute inside a parallel work unit: same call surface (``__call__``,
    ``bounded``, ``batch``, plus the ``inner``/``name``/``is_metric``
    attributes the indexes read), but all cache traffic goes through a
    private overlay and every request is logged for the serial replay.

    The prefilter bounds are evaluated exactly where the serial
    ``CountingDistance`` would evaluate them -- on cache misses only -- and
    their outcomes ride along in the log so the replay can reconstruct the
    prefilter tallies without recomputing anything.
    """

    def __init__(
        self,
        inner: Distance,
        base: Optional[DistanceCache],
        prefilter: bool = False,
    ) -> None:
        self.inner = inner
        self.prefilter = bool(prefilter)
        self._overlay = _Overlay(base)
        self._columns = _ProbeColumns()
        #: Batch stores not yet applied to the overlay, as
        #: ``(query, items, cutoff, values, group_indexes)``.  A unit's
        #: *last* batch never needs its overlay stores (nothing reads them
        #: before the unit ends; the replay works from the columns), so
        #: :meth:`batch_finish` defers materialization until the next overlay
        #: read (:meth:`_flush_overlay`).  Every read path flushes first,
        #: so the overlay state observable at any read is identical to
        #: eager stores.
        self._unapplied: List[tuple] = []

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def is_metric(self) -> bool:
        return self.inner.is_metric

    @property
    def cache(self) -> Optional[DistanceCache]:
        """The base cache the overlay snapshots (read-only during the unit)."""
        return self._overlay.base

    def __call__(self, first, second) -> float:
        columns = self._columns
        if not DistanceCache.cacheable(first, second):
            value = self.inner(first, second)
            columns.append(0, first, second, value, _NAN, _NAN)
            return value
        if self._unapplied:
            self._flush_overlay()
        cached = self._overlay.lookup(first, second)
        if cached is not None:
            columns.append(_K_CACHEABLE, first, second, cached, _NAN, _NAN)
            return cached
        value = self.inner(first, second)
        self._overlay.store(first, second, value)
        columns.append(_K_CACHEABLE, first, second, value, _NAN, _NAN)
        return value

    def bounded(self, first, second, cutoff: float) -> float:
        columns = self._columns
        cacheable = DistanceCache.cacheable(first, second)
        kind = _K_BOUNDED | (_K_CACHEABLE if cacheable else 0)
        if cacheable:
            if self._unapplied:
                self._flush_overlay()
            cached = self._overlay.lookup(first, second, cutoff=cutoff)
            if cached is not None:
                columns.append(kind, first, second, cached, cutoff, _NAN)
                return cached
        bound = None
        if self.prefilter:
            bound = combined_bound(self.inner, first, second)
            kind |= _K_HAS_BOUND
            if bound > cutoff:
                if cacheable:
                    self._overlay.store(first, second, _INF, cutoff=cutoff)
                columns.append(kind, first, second, _INF, cutoff, bound)
                return _INF
        value = self.inner.bounded(first, second, cutoff)
        if cacheable:
            self._overlay.store(first, second, value, cutoff=cutoff)
        columns.append(kind, first, second, value, cutoff, _NAN if bound is None else bound)
        return value

    def batch(
        self,
        query,
        items: TypingSequence,
        cutoff: Optional[float] = None,
        packed=None,
    ) -> np.ndarray:
        """Recorded analogue of :meth:`CountingDistance.batch`.

        Structured as prepare / compute / finish so a process-pool work
        unit can run the pure compute phase in a child process (see
        :meth:`batch_prepare`); calling :meth:`batch` runs all three phases
        in this process, which is what thread-pool units do.
        """
        context = self.batch_prepare(query, items, cutoff, packed=packed)
        computed = compute_batch_groups(context.payload())
        return self.batch_finish(context, computed)

    def batch_prepare(self, query, items, cutoff, packed=None, remote=False) -> "_BatchContext":
        """Cache lookups + shape grouping; returns the pure-compute payload.

        ``packed`` optionally serves the operand tensors from a packed
        window layout (see :meth:`CountingDistance.batch`); the payload the
        remote phase receives is value-identical either way.  With
        ``remote`` set (``"auto"`` or ``"shared"``) a packed layout may
        hand out shared-memory row references instead of materialized
        tensors (see :meth:`~repro.sequences.packed.StoreGather.remote_payload`),
        which is what keeps process-pool chunk payloads O(metadata) instead
        of O(windows); ``"shared"`` makes an unexportable store an error
        rather than a silent pickle fallback.
        """
        values = np.empty(len(items), dtype=np.float64)
        query_array = as_array(query)
        pending: List[int] = []
        # The overlay/base lookups are inlined (the classification loop is
        # the hottest record-side path): overlay entry first, base-cache
        # entry second, each with the full exact/bound-entry semantics of
        # ``_Overlay.lookup``.  The base read is the same lock-free
        # ``dict.get`` that ``DistanceCache.peek`` documents.
        if isinstance(query, Sequence):
            if self._unapplied:
                self._flush_overlay()
            append = pending.append
            overlay_entries = self._overlay.entries
            overlay_get = overlay_entries.get
            base = self._overlay.base
            # An empty base table cannot answer any probe, so skip the
            # per-item chained get.  The emptiness check is the same
            # benign race as the lock-free reads themselves: a store that
            # lands mid-batch is equivalent to every chained get missing.
            base_get = (
                base._entries.get if base is not None and base._entries else None
            )
            if not overlay_entries and base_get is None:
                # Cold unit (nothing recorded yet, base empty): every
                # lookup would miss, so the classification is just "all
                # pending" -- the common first-probe case.
                pending = list(range(len(items)))
                return self._prepare_groups(
                    query, items, cutoff, values, query_array, pending, packed, remote
                )
            has_cutoff = cutoff is not None
            for index, item in enumerate(items):
                if isinstance(item, Sequence):
                    key = (query, item)
                    cached = None
                    entry = overlay_get(key)
                    if entry is not None:
                        value, exact = entry
                        if exact:
                            cached = value
                        elif has_cutoff and value >= cutoff:
                            cached = _INF
                    if cached is None and base_get is not None:
                        entry = base_get(key)
                        if entry is not None:
                            value, exact = entry
                            if exact:
                                cached = value
                            elif has_cutoff and value >= cutoff:
                                cached = _INF
                    if cached is not None:
                        values[index] = cached
                        continue
                append(index)
        else:
            pending = list(range(len(items)))
        return self._prepare_groups(
            query, items, cutoff, values, query_array, pending, packed, remote
        )

    def _prepare_groups(
        self, query, items, cutoff, values, query_array, pending, packed, remote
    ) -> "_BatchContext":
        """Shape-group the pending items and assemble the batch context."""
        grouped: List[Tuple[List[int], object]] = []
        if packed is None:
            arrays, groups = group_batch_operands(self.inner, query_array, items, pending)
            for indexes in groups.values():
                grouped.append((indexes, np.stack([arrays[i] for i in indexes])))
        else:
            group_positions = getattr(packed, "group_positions", None)
            if group_positions is not None:
                shape_groups = group_positions(pending)
            else:
                groups = {}
                for index in pending:
                    groups.setdefault(packed.shape_of(index), []).append(index)
                shape_groups = list(groups.items())
            if remote:
                require = remote == "shared"

                def gather(indexes, _packed=packed, _require=require):
                    return _packed.remote_payload(indexes, require=_require)
            else:
                gather = packed.gather
            for shape, indexes in shape_groups:
                validate_group_shape(self.inner, query_array, shape)
                grouped.append((indexes, gather(indexes)))
        return _BatchContext(self, query, items, cutoff, values, query_array, grouped)

    def batch_finish(
        self, context: "_BatchContext", computed: List[Tuple[np.ndarray, Optional[np.ndarray]]]
    ) -> np.ndarray:
        """Fold the computed group values/bounds back in; log the batch.

        The log gets one O(1) descriptor that keeps the result array *by
        reference* (callers treat batch results as read-only, which every
        index does); the values and bounds are scattered with array writes.
        """
        values = context.values
        items = context.items
        query = context.query
        cutoff = context.cutoff
        bounds_array: Optional[np.ndarray] = None
        bound_known: Optional[np.ndarray] = None
        for (indexes, _tensor), (group_values, group_bounds) in zip(context.grouped, computed):
            index_array = np.asarray(indexes, dtype=np.intp)
            values[index_array] = group_values
            if group_bounds is not None:
                if bounds_array is None:
                    bounds_array = np.zeros(len(items), dtype=np.float64)
                    bound_known = np.zeros(len(items), dtype=bool)
                bounds_array[index_array] = group_bounds
                bound_known[index_array] = True
        if isinstance(query, Sequence):
            # Defer the per-item overlay stores (see ``_unapplied``): the
            # group index lists are all the flush needs, and for the last
            # batch of the unit the stores never happen at all.
            self._unapplied.append(
                (query, items, cutoff, values, [indexes for indexes, _t in context.grouped])
            )
        self._columns.append_batch((query, items, cutoff, values, bounds_array, bound_known))
        return values

    def _flush_overlay(self) -> None:
        """Apply deferred batch stores to the overlay, in order.

        ``_Overlay.store`` inlined against the overlay dict (exact entry
        vs bound entry, the no-downgrade rule; the overlay never evicts);
        the store order -- batches in finish order, groups in order,
        positions in order -- is exactly the eager order.
        """
        unapplied = self._unapplied
        self._unapplied = []
        entries = self._overlay.entries
        get = entries.get
        for query, items, cutoff, values, groups in unapplied:
            has_cutoff = cutoff is not None
            bound_entry = (float(cutoff), False) if has_cutoff else None
            value_list = values.tolist()
            for indexes in groups:
                for index in indexes:
                    item = items[index]
                    if isinstance(item, Sequence):
                        value = value_list[index]
                        key = (query, item)
                        if not has_cutoff or value <= cutoff:
                            entries[key] = (value, True)
                        else:
                            existing = get(key)
                            if existing is not None and (
                                existing[1] or existing[0] >= cutoff
                            ):
                                continue
                            entries[key] = bound_entry

    def replay_into(self, counting) -> None:
        """Replay this unit's log into the live ``CountingDistance``."""
        _replay_probe_columns(self._columns, counting)


class _BatchContext:
    """State carried between :meth:`RecordingCounting.batch_prepare` and finish."""

    __slots__ = ("owner", "query", "items", "cutoff", "values", "query_array", "grouped")

    def __init__(self, owner, query, items, cutoff, values, query_array, grouped) -> None:
        self.owner = owner
        self.query = query
        self.items = list(items)
        self.cutoff = cutoff
        self.values = values
        self.query_array = query_array
        self.grouped = grouped

    def payload(self) -> tuple:
        """The picklable pure-compute input for :func:`compute_batch_groups`."""
        return (
            self.owner.inner,
            self.query_array,
            [tensor for _indexes, tensor in self.grouped],
            self.cutoff,
            self.owner.prefilter,
        )


def compute_batch_groups(
    payload: tuple,
) -> List[Tuple[np.ndarray, Optional[np.ndarray]]]:
    """Pure kernel phase of a batched probe: bounds + grouped DP sweeps.

    ``payload`` is ``(distance, query_array, tensors, cutoff, prefilter)``
    -- everything picklable, no cache, no counters -- so this function can
    run in a process-pool child exactly as it runs inline.  A "tensor" is
    either a materialized ``(rows, length, dim)`` array or a shared-memory
    row reference (:class:`~repro.sequences.packed.SharedRows`), resolved
    here so the child attaches to the exported segment instead of
    unpickling the windows.  Returns one ``(values, bounds)`` pair per
    tensor; ``bounds`` is ``None`` when the prefilter did not run.  Pairs
    pruned by a bound get ``inf`` values, the same early-abandon contract
    as :meth:`Distance.batch`.
    """
    distance, query_array, tensors, cutoff, prefilter = payload
    results: List[Tuple[np.ndarray, Optional[np.ndarray]]] = []
    for tensor in tensors:
        tensor = resolve_remote_tensor(tensor)
        bounds: Optional[np.ndarray] = None
        values = np.empty(tensor.shape[0], dtype=np.float64)
        survivors = np.arange(tensor.shape[0])
        if prefilter and cutoff is not None:
            bounds = combined_batch_bound(distance, query_array, tensor)
            pruned_mask = bounds > cutoff
            values[pruned_mask] = _INF
            survivors = np.nonzero(~pruned_mask)[0]
        if len(survivors):
            fresh = distance.compute_batch(
                query_array,
                tensor[survivors],
                None if cutoff is None else float(cutoff),
            )
            values[survivors] = fresh
        results.append((values, bounds))
    return results


class RecordingVerifyCache:
    """A per-unit stand-in for the cache handed to chain verification.

    Verification's ``_measure`` helper drives the cache through exactly two
    operations -- ``lookup(first, second, cutoff)`` then, on a miss,
    ``store(first, second, value, cutoff)`` -- and counts hits and fresh
    kernels itself.  This duck-type routes both through the unit overlay
    and logs the requests for :meth:`replay_into`.
    """

    def __init__(self, base: Optional[DistanceCache]) -> None:
        self._overlay = _Overlay(base)
        self._columns = _VerifyColumns()

    def lookup(
        self, first: Sequence, second: Sequence, cutoff: Optional[float] = None
    ) -> Optional[float]:
        value = self._overlay.lookup(first, second, cutoff=cutoff)
        if value is not None:
            self._columns.append(first, second, cutoff, value)
        return value

    def store(
        self, first: Sequence, second: Sequence, value: float, cutoff: Optional[float] = None
    ) -> None:
        self._overlay.store(first, second, value, cutoff=cutoff)
        self._columns.append(first, second, cutoff, value)

    def replay_into(self, cache: Optional[DistanceCache], counter) -> None:
        """Replay this unit's log into the real cache + verification counter."""
        _replay_verify_columns(self._columns, cache, counter)


def _replay_probe_columns(columns: _ProbeColumns, counting) -> None:
    """Re-run a probe unit's request stream against the real cache/counter.

    ``counting`` is the index's live
    :class:`~repro.indexing.stats.CountingDistance`.  For every logged
    request the replay decides hit vs fresh vs prefilter-pruned exactly as
    the serial path would have -- using the *real* cache state, which at
    this point includes the stores of every earlier unit -- and applies the
    stores in serial order.  No kernels run here.  Whole columns are
    converted to Python scalars up front, all cache traffic of the log runs
    under one lock acquisition (:meth:`DistanceCache.replay_view`), and the
    counter receives one batched update per tally instead of a method call
    per request.
    """
    cache, counter, prefilter = counting.cache, counting.counter, counting.prefilter
    size = columns.size
    fresh = hits = pre_evaluated = pre_pruned = 0
    with _replay_view(cache) as view:
        kinds = columns.kinds[:size].tolist()
        pair_rows = columns.pairs[:size].tolist()
        float_rows = columns.floats[:size].tolist()
        batches = iter(columns.batches)
        # The row loop runs once per recorded request, so the view's
        # ``lookup``/``store`` are inlined against its raw entry dict
        # (identical semantics: bound entries, the no-downgrade rule,
        # insertion-order eviction; a no-downgrade store skips eviction).
        # The view's own hit/miss tallies are folded in once at the end.
        # ``entries is None`` is the null view of a cache-less replay:
        # every lookup misses and every store is a no-op, so both are
        # skipped outright.  On ``_K_BOUNDED`` rows the cutoff column is
        # always a real float, which makes ``cutoff is not None`` checks
        # unnecessary.
        entries = getattr(view, "entries", None)
        row_hits = row_misses = 0
        if entries is not None:
            get = entries.get
            max_entries = view.max_entries
        for row in range(size):
            kind = kinds[row]
            if kind & _K_BATCH:
                tallies = _replay_batch_record(next(batches), view, prefilter)
                fresh += tallies[0]
                hits += tallies[1]
                pre_evaluated += tallies[2]
                pre_pruned += tallies[3]
                continue
            first, second = pair_rows[row]
            value, cutoff, bound = float_rows[row]
            if kind & _K_BOUNDED:
                if kind & _K_CACHEABLE and entries is not None:
                    entry = get((first, second))
                    if entry is not None:
                        entry_value, exact = entry
                        if exact or entry_value >= cutoff:
                            row_hits += 1
                            hits += 1
                            continue
                    row_misses += 1
                if prefilter and kind & _K_HAS_BOUND:
                    pre_evaluated += 1
                    if bound > cutoff:
                        pre_pruned += 1
                        # store(first, second, inf, cutoff): always the
                        # bound-entry branch of the store rule.
                        if kind & _K_CACHEABLE and entries is not None:
                            key = (first, second)
                            existing = get(key)
                            if existing is None or not (
                                existing[1] or existing[0] >= cutoff
                            ):
                                entries[key] = (cutoff, False)
                                if max_entries is not None:
                                    while len(entries) > max_entries:
                                        entries.pop(next(iter(entries)))
                        continue
                fresh += 1
                if kind & _K_CACHEABLE and entries is not None:
                    key = (first, second)
                    if value <= cutoff:
                        entries[key] = (value, True)
                    else:
                        existing = get(key)
                        if existing is not None and (
                            existing[1] or existing[0] >= cutoff
                        ):
                            # No-downgrade early return: skips eviction.
                            continue
                        entries[key] = (cutoff, False)
                    if max_entries is not None:
                        while len(entries) > max_entries:
                            entries.pop(next(iter(entries)))
            elif kind & _K_CACHEABLE:
                if entries is not None:
                    key = (first, second)
                    entry = get(key)
                    # lookup with no cutoff: only exact entries can hit.
                    if entry is not None and entry[1]:
                        row_hits += 1
                        hits += 1
                        continue
                    row_misses += 1
                    fresh += 1
                    # store with no cutoff: always an exact entry.
                    entries[key] = (value, True)
                    if max_entries is not None:
                        while len(entries) > max_entries:
                            entries.pop(next(iter(entries)))
                else:
                    fresh += 1
            else:
                fresh += 1
        if entries is not None:
            view.hits += row_hits
            view.misses += row_misses
    if fresh:
        counter.increment(fresh)
    if hits:
        counter.record_cache_hit(hits)
    if pre_evaluated:
        counter.record_prefilter(pre_evaluated, pre_pruned)


def _replay_batch_record(record: tuple, view, prefilter: bool) -> Tuple[int, int, int, int]:
    """Replay one batch descriptor; returns (fresh, hits, evaluated, pruned).

    Two phases, mirroring the serial ``CountingDistance.batch``: first
    every item is classified hit/pending against the real cache, then the
    pending items apply their prefilter outcomes and stores in item order
    -- the serial store order, so the same eviction order.
    """
    query, items, cutoff, values, bounds_array, bound_known = record
    fresh = hits = pre_evaluated = pre_pruned = 0
    query_cacheable = isinstance(query, Sequence)
    # The classification loop runs once per window of every batched probe
    # -- the single hottest replay path -- so the view's ``lookup`` is
    # inlined against its raw entry dict (semantics identical; the view's
    # own hit/miss tallies are updated in bulk below).  A null view (no
    # cache) or an uncacheable query classifies everything as pending
    # without any lookups, exactly as per-item ``lookup`` calls would.
    entries = getattr(view, "entries", None)
    if entries is None or not query_cacheable:
        pending = list(range(len(items)))
        pending_keys: Optional[List[Optional[tuple]]] = None
    else:
        pending = []
        # The key tuples survive into the store phase (``None`` marks an
        # uncacheable item), so each pending item is keyed exactly once.
        pending_keys = []
        append = pending.append
        key_append = pending_keys.append
        get = entries.get
        misses = 0
        for index, item in enumerate(items):
            if isinstance(item, Sequence):
                key = (query, item)
                entry = get(key)
                if entry is not None:
                    entry_value, exact = entry
                    if exact or (cutoff is not None and entry_value >= cutoff):
                        hits += 1
                        continue
                misses += 1
                append(index)
                key_append(key)
            else:
                append(index)
                key_append(None)
        view.hits += hits
        view.misses += misses
    if pending:
        value_list = values.tolist()
        use_prefilter = prefilter and cutoff is not None and bounds_array is not None
        if use_prefilter:
            # One classification code per item -- 0: no bound evaluated,
            # 1: evaluated but not pruned, 2: evaluated and pruned --
            # built with two vectorized ops instead of two list reads and
            # a float compare per item.
            code_list = (
                bound_known.astype(np.int8) + (bound_known & (bounds_array > cutoff))
            ).tolist()
        if pending_keys is None:
            # Null view or uncacheable query: no lookups hit and every
            # store is a no-op, so only the tallies remain.
            if use_prefilter:
                for index in pending:
                    code = code_list[index]
                    if code:
                        pre_evaluated += 1
                        if code == 2:
                            pre_pruned += 1
                            continue
                    fresh += 1
            else:
                fresh += len(pending)
        else:
            # ``store`` inlined against the raw dict: the no-downgrade
            # rule and the insertion-order eviction are preserved, and a
            # no-downgrade early return skips eviction, exactly as
            # ``_ReplayView.store`` does.
            get = entries.get
            max_entries = view.max_entries
            bound_entry = (float(cutoff), False) if cutoff is not None else None
            if use_prefilter:
                for index, key in zip(pending, pending_keys):
                    code = code_list[index]
                    if code:
                        pre_evaluated += 1
                        if code == 2:
                            pre_pruned += 1
                            # store(query, item, inf, cutoff): always the
                            # bound-entry branch of the store rule.
                            if key is not None:
                                existing = get(key)
                                if existing is None or not (
                                    existing[1] or existing[0] >= cutoff
                                ):
                                    entries[key] = bound_entry
                                    if max_entries is not None:
                                        while len(entries) > max_entries:
                                            entries.pop(next(iter(entries)))
                            continue
                    fresh += 1
                    if key is not None:
                        value = value_list[index]
                        if value <= cutoff:
                            entries[key] = (value, True)
                        else:
                            existing = get(key)
                            if existing is not None and (
                                existing[1] or existing[0] >= cutoff
                            ):
                                continue
                            entries[key] = bound_entry
                        if max_entries is not None:
                            while len(entries) > max_entries:
                                entries.pop(next(iter(entries)))
            else:
                for index, key in zip(pending, pending_keys):
                    fresh += 1
                    if key is None:
                        continue
                    value = value_list[index]
                    if cutoff is None or value <= cutoff:
                        entries[key] = (value, True)
                    else:
                        existing = get(key)
                        if existing is not None and (
                            existing[1] or existing[0] >= cutoff
                        ):
                            continue
                        entries[key] = bound_entry
                    if max_entries is not None:
                        while len(entries) > max_entries:
                            entries.pop(next(iter(entries)))
    return fresh, hits, pre_evaluated, pre_pruned


def _replay_verify_columns(
    columns: _VerifyColumns, cache: Optional[DistanceCache], counter
) -> None:
    """Re-run a verification unit's request stream; see :func:`_replay_probe_columns`.

    ``counter`` follows the verification counter protocol (``count`` /
    ``cache_hits`` attributes).
    """
    size = columns.size
    fresh = hits = 0
    with _replay_view(cache) as view:
        flags = columns.flags[:size].tolist()
        pair_rows = columns.pairs[:size].tolist()
        float_rows = columns.floats[:size].tolist()
        # Same inlining as :func:`_replay_probe_columns`: the view's
        # ``lookup``/``store`` run against the raw entry dict with
        # identical semantics, and since nothing mutates ``key`` between
        # the two, the lookup's entry doubles as the store's no-downgrade
        # check.  A cache-less replay (null view) classifies every row as
        # fresh with no stores, exactly as the per-row calls would.
        entries = getattr(view, "entries", None)
        if entries is None:
            fresh = size
        else:
            get = entries.get
            max_entries = view.max_entries
            for row in range(size):
                first, second = pair_rows[row]
                cutoff, value = float_rows[row]
                has_cutoff = flags[row]
                key = (first, second)
                entry = get(key)
                if entry is not None:
                    entry_value, exact = entry
                    if exact or (has_cutoff and entry_value >= cutoff):
                        hits += 1
                        continue
                fresh += 1
                if not has_cutoff or value <= cutoff:
                    entries[key] = (value, True)
                else:
                    if entry is not None and (entry[1] or entry[0] >= cutoff):
                        # No-downgrade early return: skips eviction.
                        continue
                    entries[key] = (cutoff, False)
                if max_entries is not None:
                    while len(entries) > max_entries:
                        entries.pop(next(iter(entries)))
            view.hits += hits
            view.misses += fresh
    counter.count += fresh
    counter.cache_hits += hits
