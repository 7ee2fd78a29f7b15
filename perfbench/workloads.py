"""The benchmark's workloads, driven only through the library's public API.

Every workload follows the same life cycle, which :mod:`harness` times:

``setup``
    From generated data in memory to the end of warm-up: windowing, index
    build, warm-up queries (and, for serve-mixed, the snapshot save, the
    server start and the lazy snapshot load).  ``setup_s`` measures it.
``measure``
    The measured phase.  In process: the read-only closed loop of queries
    on the reader service, with a fixed number of add/remove pairs on a
    separate writer service spread evenly over the phase.  serve-mixed:
    reads and writes mixed by concurrent HTTP clients.  ``measure`` can
    also replay the exact operations of an earlier pass (the traced run).
``check``
    Outside the timed phase: answers against an oracle.

The corpus of each workload is fixed (generated from a constant), so runs
with different seeds measure the same index; ``--seed`` draws everything
else: the planted queries and their noise, the sequences written, and the
HTTP clients' operation scripts.  (range-cold visits the corpus sequences
in a fixed order; the seed draws where in each one its items are cut.)
"""

from __future__ import annotations

import http.client
import json
import math
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import MatcherConfig
from repro.core.matcher import SubsequenceMatcher
from repro.core.queries import LongestSubsequenceQuery, RangeQuery, TopKQuery, match_identity
from repro.core.service import SearchService
from repro.core.wire import sequence_to_wire, spec_to_wire
from repro.datasets.loaders import load_dataset
from repro.datasets.proteins import generate_protein_database, generate_protein_query
from repro.datasets.songs import generate_song_database, generate_song_query
from repro.datasets.trajectories import generate_trajectory_query
from repro.distances.erp import ERP
from repro.distances.frechet import DiscreteFrechet
from repro.distances.levenshtein import Levenshtein
from repro.sequences.database import SequenceDatabase
from repro.sequences.sequence import Sequence
from repro.server import BackgroundServer, SearchApp
from repro.storage import persistence

#: Seed of every workload's fixed corpus.
CORPUS_SEED = 20120801

#: Add/remove pairs timed in each in-process measured phase.  The count is
#: a sampling choice, not a traffic mix: the writes run on a service of
#: their own and outside the query wall, so it shapes no query figure.
#: 200 inserts put the tail (rank n - 11) at the 95th percentile.  They are
#: paced evenly over the phase, between queries, so they meet the same host
#: conditions as the queries; a burst would sample one moment of the host.
WRITE_PAIRS = 200


def paper_config(**overrides) -> MatcherConfig:
    """The paper's parameters: window 20 (lambda = 40) and lambda0 = 1.

    Every other field keeps its default -- in particular executor, kernel,
    transport and log format are never passed.
    """
    return MatcherConfig(min_length=40, max_shift=1, **overrides)


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator for one named stream of one seed."""
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def answer_of(matches) -> tuple:
    """A result's answer: every match's identity and distance, in order."""
    return tuple((match_identity(match), match.distance) for match in matches)


def answer_of_envelope(envelope: dict) -> tuple:
    """The same answer, read off a wire envelope."""
    return tuple(
        (
            (m["source_id"], m["query_start"], m["query_stop"], m["db_start"], m["db_stop"]),
            m["distance"],
        )
        for m in envelope["matches"]
    )


#: The workload whose oracle answers forked check workers compute.
_ORACLE_WORKLOAD = None


def _oracle_for_key(key: int):
    workload = _ORACLE_WORKLOAD
    return key, workload.oracle_answer(workload.read_spec(key))


def renamed(sequence: Sequence, seq_id: str) -> Sequence:
    return Sequence(sequence.values, sequence.kind, seq_id=seq_id, alphabet=sequence.alphabet)


@dataclass
class Op:
    """One measured operation."""

    kind: str  # topk | range | longest | insert | delete
    key: int  # pool entry / stream position / write number
    seconds: float
    request_id: str
    answer: Optional[tuple] = None
    #: QueryStats (in-process) or the envelope's stats block (HTTP).
    stats: object = None
    #: Distance-cache hit and miss deltas of the operation (in-process reads).
    cache_hits: int = 0
    cache_misses: int = 0
    ok: bool = True
    response_bytes: int = 0


@dataclass
class Measured:
    """Everything one measured phase produced."""

    reads: List[Op] = field(default_factory=list)
    writes: List[Op] = field(default_factory=list)
    #: Wall time the searches ran in: the read loop in process, the whole
    #: mixed phase over HTTP (reads and writes share it there).
    wall: float = 0.0
    failures: List[str] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    cache_entries: int = 0
    rebuilds: int = 0
    #: What a later pass needs to replay this one: the writes done after
    #: each query (in process) or the operation count per client (HTTP).
    plan: object = None
    #: Extra per-workload facts (server counters, snapshot size, ...).
    notes: Dict[str, object] = field(default_factory=dict)


# --------------------------------------------------------------------- #
# In-process workloads
# --------------------------------------------------------------------- #
class InProcessWorkload:
    """One closed-loop client calling ``SearchService`` in-process.

    The queries run read-only on the reader service.  The write metrics come
    from a second service over the same corpus (the writer), so writes never
    touch the reader's index or distance cache and are timed apart from the
    query wall.
    """

    name = ""
    #: Full setups per run; setup_s is their median.
    setups = 3
    #: Operations the write metrics cover.  In process a delete costs ~1 %
    #: of an insert, so mixing both would make the median jump between two
    #: clusters; deletes are reported on their own.
    write_kinds = ("insert",)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.database = self.corpus()
        self._additions: Dict[int, Sequence] = {}

    # -- inputs -------------------------------------------------------- #
    def corpus(self) -> SequenceDatabase:
        raise NotImplementedError

    def distance(self):
        raise NotImplementedError

    def read_spec(self, position: int):
        """The bound spec of the ``position``-th read of the stream."""
        raise NotImplementedError

    def key_of(self, position: int) -> int:
        """The smallest position asking the same query (its oracle key)."""
        return position

    def new_sequence(self, number: int) -> Sequence:
        raise NotImplementedError

    def addition(self, number: int) -> Sequence:
        if number not in self._additions:
            self._additions[number] = renamed(
                self.new_sequence(number), f"bench-add-{number}"
            )
        return self._additions[number]

    # -- life cycle ---------------------------------------------------- #
    def setup(self, tracer=None):
        matcher = SubsequenceMatcher(self.database, self.distance(), paper_config())
        writer = SubsequenceMatcher(self.database, self.distance(), paper_config())
        state = {"matcher": matcher, "service": SearchService(matcher),
                 "writer_matcher": writer, "writer": SearchService(writer), "next": 0}
        self.warm_up(state)
        return state

    def warm_up(self, state) -> None:
        raise NotImplementedError

    def close(self, state) -> None:
        state["service"].close()
        state["writer"].close()

    def distance_of(self, state):
        return state["matcher"].distance

    def execute(self, state, position: int, tracer=None) -> Op:
        service = state["service"]
        cache = state["matcher"].distance_cache
        spec = self.read_spec(position)
        request_id = f"q{position}"
        if tracer is not None:
            tracer.request_id = request_id
        hits, misses = cache.hits, cache.misses
        started = time.perf_counter()
        result = service.execute(spec)
        seconds = time.perf_counter() - started
        if tracer is not None:
            tracer.request_id = None
        return Op(
            kind=spec.kind,
            key=self.key_of(position),
            seconds=seconds,
            request_id=request_id,
            answer=answer_of(result.matches),
            stats=result.stats,
            cache_hits=cache.hits - hits,
            cache_misses=cache.misses - misses,
        )

    def write_pair(self, service, number: int, tracer=None) -> List[Op]:
        """``add_sequence`` of a new sequence, then ``remove_sequence`` of it."""
        request_id = f"w{number}"
        sequence = self.addition(number)
        if tracer is not None:
            tracer.request_id = request_id
        started = time.perf_counter()
        seq_id = service.add_sequence(sequence)
        added = time.perf_counter()
        service.remove_sequence(seq_id)
        removed = time.perf_counter()
        if tracer is not None:
            tracer.request_id = None
        return [Op("insert", number, added - started, request_id),
                Op("delete", number, removed - added, request_id)]

    def measure(self, state, seconds: float, plan=None, tracer=None) -> Measured:
        """Read-only closed loop for ``seconds``, ``WRITE_PAIRS`` writes paced in.

        After each query, the writer service catches up to its share of
        ``WRITE_PAIRS`` for the time elapsed; each pair leaves the writer's
        corpus as it started, and the reader's index and cache see queries
        only.  The query wall (``wall``) is the phase minus the writes.
        With ``plan`` (the writes done after each query in an earlier pass)
        the same operations run again, whatever the time they take.
        """
        out = Measured()
        matcher, writer = state["matcher"], state["writer_matcher"]
        rebuilds = writer.index.update_stats.rebuilds
        start = state["next"]
        phase = time.perf_counter()
        deadline = phase + seconds
        write_seconds = 0.0
        pacing: List[int] = []

        def write_until(target: int) -> None:
            nonlocal write_seconds
            started = time.perf_counter()
            for number in range(len(out.writes) // 2, target):
                out.writes.extend(self.write_pair(state["writer"], number, tracer))
            write_seconds += time.perf_counter() - started

        count = 0
        while (plan is None and (count == 0 or time.perf_counter() < deadline)) or (
            plan is not None and count < len(plan)
        ):
            out.reads.append(self.execute(state, start + count, tracer))
            if plan is None:
                elapsed = (time.perf_counter() - phase) / seconds
                pacing.append(min(WRITE_PAIRS, math.ceil(WRITE_PAIRS * elapsed)))
            else:
                pacing.append(plan[count])
            write_until(pacing[-1])
            count += 1
        write_until(WRITE_PAIRS)
        out.wall = time.perf_counter() - phase - write_seconds
        state["next"] = start + count
        out.cache_hits = sum(op.cache_hits for op in out.reads)
        out.cache_misses = sum(op.cache_misses for op in out.reads)
        out.cache_entries = len(matcher.distance_cache)
        out.rebuilds = writer.index.update_stats.rebuilds - rebuilds
        out.plan = pacing
        return out

    # -- correctness --------------------------------------------------- #
    def oracle_answer(self, spec) -> tuple:
        """The answer of a fresh linear-scan matcher over the same data.

        Fresh per query: a long-lived oracle would fill its own bounded
        distance cache and pay the same eviction cost as the workload.
        """
        oracle = SubsequenceMatcher(
            self.database, self.distance(), paper_config(index="linear-scan")
        )
        try:
            return answer_of(oracle.execute(spec).matches)
        finally:
            oracle.close()

    def oracle_answers(self, keys) -> Dict[int, tuple]:
        """Oracle answers for ``keys``, one forked worker per core.

        The linear scans are most of a run's check time; they are
        independent, so they are spread over the cores.  Every worker has
        ended when this returns.
        """
        global _ORACLE_WORKLOAD
        _ORACLE_WORKLOAD = self
        pool = multiprocessing.get_context("fork").Pool(max(1, os.cpu_count() or 1))
        try:
            return dict(pool.map(_oracle_for_key, sorted(set(keys))))
        finally:
            pool.close()
            pool.join()
            _ORACLE_WORKLOAD = None

    def check(self, state, measured: Measured) -> List[str]:
        """Compare every answer with the oracle; ask the writer too.

        The writes left the writer's corpus as it started, so the writer --
        whose index went through every insert and delete -- must still
        answer like the oracle.
        """
        expected = self.oracle_answers(op.key for op in measured.reads)
        problems: List[str] = []
        for op in measured.reads:
            if op.answer != expected[op.key]:
                problems.append(f"{self.name} {op.request_id}: answer differs from the oracle")
        if measured.reads:
            op = measured.reads[0]
            spec = self.read_spec(op.key)
            if answer_of(state["writer"].execute(spec).matches) != expected[op.key]:
                problems.append(
                    f"{self.name} {op.request_id}: writer's answer after add/remove "
                    "differs from the oracle"
                )
        return problems


class TopKWarm(InProcessWorkload):
    """Warm-cache top-k: every measured query is answered from the cache."""

    name = "topk-warm"
    num_sequences = 12
    sequence_length = 60
    pool_size = 12
    query_length = 48

    def corpus(self) -> SequenceDatabase:
        return generate_song_database(
            num_sequences=self.num_sequences,
            sequence_length=self.sequence_length,
            seed=CORPUS_SEED,
        )

    def distance(self):
        return DiscreteFrechet()

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.pool = [
            generate_song_query(
                self.database, length=self.query_length, seed=rng_for(seed, 1, i)
            )[0]
            for i in range(self.pool_size)
        ]

    def read_spec(self, position: int):
        return TopKQuery(k=3, max_radius=8.0).bind(self.pool[position % self.pool_size])

    def key_of(self, position: int) -> int:
        return position % self.pool_size

    def warm_up(self, state) -> None:
        service = state["service"]
        for position in range(self.pool_size):
            service.execute(self.read_spec(position))
        state["next"] = self.pool_size

    def new_sequence(self, number: int) -> Sequence:
        return generate_song_database(
            num_sequences=1,
            sequence_length=self.sequence_length,
            seed=rng_for(self.seed, 2, number),
        )["song-0"]


class RangeCold(InProcessWorkload):
    """Never-repeating range/longest queries against a full, evicting cache."""

    name = "range-cold"
    num_windows = 300
    query_length = 44
    radius = 60.0

    def corpus(self) -> SequenceDatabase:
        return load_dataset("traj", self.num_windows, seed=CORPUS_SEED)

    def distance(self):
        return ERP()

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.sources = []
        for seq_id in self.database.ids():
            single = SequenceDatabase(self.database.kind, name=seq_id)
            single.add(self.database[seq_id])
            self.sources.append(single)

    def source(self, position: int) -> SequenceDatabase:
        """The corpus sequence item ``position`` of a stream is cut from.

        A query's cost (and an insert's) depends mostly on which corpus
        sequence it comes from: the variance of a query's fresh distance
        count across sequences is about 3.4 times that within one.  So every
        stream visits the sequences round-robin in corpus order, the same in
        every run, and the seed draws where each item is cut and its noise:
        a run's medians do not hinge on which sequences a partial round drew.
        """
        return self.sources[position % len(self.sources)]

    def read_spec(self, position: int):
        query = generate_trajectory_query(
            self.source(position), length=self.query_length,
            seed=rng_for(self.seed, 1, position),
        )[0]
        if position % 2 == 0:
            return RangeQuery(radius=self.radius).bind(query)
        return LongestSubsequenceQuery(radius=self.radius).bind(query)

    def warm_up(self, state) -> None:
        """Run the query stream until the distance cache is at capacity."""
        service, cache = state["service"], state["matcher"].distance_cache
        position = 0
        while len(cache) < cache.max_entries:
            service.execute(self.read_spec(position))
            position += 1
        state["next"] = position

    def new_sequence(self, number: int) -> Sequence:
        """A jittered copy of a whole corpus trajectory: a new trip on a known route."""
        source = self.source(number)
        length = len(source[source.ids()[0]])
        return generate_trajectory_query(
            source, length=length, seed=rng_for(self.seed, 2, number)
        )[0]



# --------------------------------------------------------------------- #
# serve-mixed: HTTP clients against a snapshot-backed server
# --------------------------------------------------------------------- #
def http_call(port: int, method: str, path: str, payload, request_id: str):
    """One request on its own connection; returns (status, raw body, seconds)."""
    body = None if payload is None else json.dumps(payload).encode("utf-8")
    headers = {"X-Request-Id": request_id}
    if body is not None:
        headers["Content-Type"] = "application/json"
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        started = time.perf_counter()
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        seconds = time.perf_counter() - started
        return response.status, raw, seconds
    finally:
        connection.close()


class ServeMixed:
    """``nproc`` HTTP clients: Zipf-skewed searches plus add/delete writes."""

    name = "serve-mixed"
    setups = 3
    num_windows = 200
    pool_size = 16
    query_length = 40
    radius = 8.0
    zipf_s = 1.1
    write_share = 0.2
    #: Over HTTP both writes wait for the service lock behind the other
    #: client's search, so inserts and deletes form one distribution.
    write_kinds = ("insert", "delete")

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.database = load_dataset("proteins", self.num_windows, seed=CORPUS_SEED)
        self.clients = max(1, os.cpu_count() or 1)
        self.pool = []
        for i in range(self.pool_size):
            query = generate_protein_query(
                self.database, length=self.query_length, seed=rng_for(seed, 1, i)
            )[0]
            kind = RangeQuery if i % 2 == 0 else LongestSubsequenceQuery
            self.pool.append(kind(radius=self.radius).bind(query))
        weights = 1.0 / np.arange(1, self.pool_size + 1) ** self.zipf_s
        self.weights = weights / weights.sum()
        self.snapshot = workdir / f"serve-mixed-{seed}.npz"

    def body(self, entry: int, request_id: str) -> dict:
        spec = self.pool[entry]
        return {
            "query": spec_to_wire(spec),
            "sequence": sequence_to_wire(spec.bound_query()),
            "request_id": request_id,
            "include_timings": False,
        }

    def script(self, client: int):
        """Client ``client``'s endless, seeded operation stream."""
        rng = rng_for(self.seed, 4, client)
        added = 0
        outstanding: Optional[str] = None
        while True:
            if rng.random() < self.write_share:
                if outstanding is None:
                    seq_id = f"bench-c{client}-{added}"
                    sequence = generate_protein_database(
                        num_sequences=1, sequence_length=200, domain_length=60,
                        seed=rng_for(self.seed, 5, client, added),
                    )["protein-0"]
                    added += 1
                    outstanding = seq_id
                    yield ("insert", renamed(sequence, seq_id))
                else:
                    yield ("delete", outstanding)
                    outstanding = None
            else:
                yield ("search", int(rng.choice(self.pool_size, p=self.weights)))

    # -- life cycle ---------------------------------------------------- #
    def setup(self, tracer=None):
        """Build, save the snapshot, serve it lazily, warm every pool entry."""
        matcher = SubsequenceMatcher(self.database, Levenshtein(), paper_config())
        if tracer is not None:
            tracer.active = True
        persistence.save_matcher(matcher, self.snapshot)
        if tracer is not None:
            tracer.active = False
        windows = len(matcher.windows)
        matcher.close()
        distance = Levenshtein()
        service = SearchService(self.snapshot, distance=distance)
        app = SearchApp(service)
        server = BackgroundServer(app)
        server.__enter__()
        state = {"service": service, "app": app, "server": server, "distance": distance,
                 "windows": windows, "bytes": self.snapshot.stat().st_size}
        for entry in range(self.pool_size):
            if tracer is not None and entry == 0:
                tracer.active = True  # the first search performs the lazy load
            status, raw, _ = http_call(server.port, "POST", "/search",
                                       self.body(entry, f"warm-{entry}"), f"warm-{entry}")
            if tracer is not None:
                tracer.active = False
            if status != 200:
                raise RuntimeError(f"warm-up search {entry} failed with HTTP {status}")
        return state

    def distance_of(self, state):
        return state["distance"]

    def close(self, state) -> None:
        state["server"].__exit__(None, None, None)
        state["service"].close()
        try:
            self.snapshot.unlink()
        except FileNotFoundError:
            pass

    def _client_op(self, port: int, kind: str, item, request_id: str, number: int):
        """One scripted operation over HTTP; returns (Op, HTTP status)."""
        if kind == "search":
            status, raw, took = http_call(
                port, "POST", "/search", self.body(item, request_id), request_id
            )
            op = Op(kind=self.pool[item].kind, key=item, seconds=took,
                    request_id=request_id, response_bytes=len(raw))
            envelope = json.loads(raw) if raw else {}
            if status == 200 and envelope.get("schema_version") == 2:
                op.answer = answer_of_envelope(envelope)
                op.stats = envelope["stats"]
            else:
                op.ok = False
            return op, status
        if kind == "insert":
            status, _, took = http_call(
                port, "POST", "/sequences", {"sequence": sequence_to_wire(item)}, request_id
            )
        else:
            status, _, took = http_call(port, "DELETE", f"/sequences/{item}", None, request_id)
        return Op(kind, number, took, request_id, ok=status == 200), status

    def measure(self, state, seconds: float, plan=None, tracer=None) -> Measured:
        out = Measured()
        port = state["server"].port
        backend = state["service"].backend
        cache = backend.distance_cache
        hits, misses = cache.hits, cache.misses
        rebuilds = backend.index.update_stats.rebuilds
        per_client: List[List[Op]] = [[] for _ in range(self.clients)]
        leftovers: List[Optional[str]] = [None] * self.clients
        failures: List[str] = []
        lock = threading.Lock()
        barrier = threading.Barrier(self.clients + 1)
        deadline_box = [0.0]

        def client(number: int) -> None:
            ops = per_client[number]
            script = self.script(number)
            outstanding = None
            barrier.wait()
            while (plan is None and time.perf_counter() < deadline_box[0]) or (
                plan is not None and len(ops) < plan[number]
            ):
                kind, item = next(script)
                request_id = f"c{number}-{len(ops)}"
                try:
                    op, status = self._client_op(port, kind, item, request_id, len(ops))
                except (OSError, http.client.HTTPException, ValueError) as error:
                    op_kind = self.pool[item].kind if kind == "search" else kind
                    op = Op(op_kind, len(ops), 0.0, request_id, ok=False)
                    status = f"{type(error).__name__}: {error}"
                if kind == "insert":
                    outstanding = item.seq_id
                elif kind == "delete":
                    outstanding = None
                if not op.ok:
                    with lock:
                        failures.append(f"serve-mixed {request_id}: {kind} failed ({status})")
                ops.append(op)
            leftovers[number] = outstanding

        threads = [threading.Thread(target=client, args=(n,)) for n in range(self.clients)]
        for thread in threads:
            thread.start()
        started = time.perf_counter()
        deadline_box[0] = started + seconds
        barrier.wait()
        for thread in threads:
            thread.join()
        out.wall = time.perf_counter() - started
        out.cache_hits = cache.hits - hits
        out.cache_misses = cache.misses - misses
        out.cache_entries = len(cache)
        out.rebuilds = backend.index.update_stats.rebuilds - rebuilds
        out.plan = [len(ops) for ops in per_client]
        out.failures = failures
        for ops in per_client:
            for op in ops:
                (out.reads if op.kind in ("range", "longest") else out.writes).append(op)
        # Put the corpus back where it started (not timed).
        for number, seq_id in enumerate(leftovers):
            if seq_id is not None:
                status, _, _ = http_call(port, "DELETE", f"/sequences/{seq_id}", None,
                                         f"c{number}-cleanup")
                if status != 200:
                    out.failures.append(f"serve-mixed cleanup delete of {seq_id}: HTTP {status}")
        metrics_status, raw, _ = http_call(port, "GET", "/metrics", None, "metrics")
        if metrics_status == 200:
            snapshot = json.loads(raw)
            out.notes["rejected"] = snapshot["rejected"]
            out.notes["timeouts"] = snapshot["timeouts"]
        out.notes["windows"] = state["windows"]
        out.notes["snapshot_bytes"] = state["bytes"]
        return out

    def final_answers(self, state) -> Dict[int, tuple]:
        """Every pool entry asked again over HTTP, with the corpus at its start."""
        answers = {}
        for entry in range(self.pool_size):
            status, raw, _ = http_call(state["server"].port, "POST", "/search",
                                       self.body(entry, f"final-{entry}"), f"final-{entry}")
            envelope = json.loads(raw) if raw else {}
            answers[entry] = (
                answer_of_envelope(envelope)
                if status == 200 and envelope.get("schema_version") == 2
                else ("HTTP", status)
            )
        return answers

    def check(self, state, measured: Measured) -> List[str]:
        """Compare the final answers with a freshly built matcher.

        The rule of ``check_incremental_invariants``: after a history of
        incremental adds and deletes, the served matcher answers every
        query exactly like a rebuild over the same corpus.  The rebuild
        uses the linear scan, so a fault in the reference net shows too.
        """
        served = self.final_answers(state)
        state["final_answers"] = served
        fresh = SubsequenceMatcher(
            self.database, Levenshtein(), paper_config(index="linear-scan")
        )
        problems = []
        for entry, spec in enumerate(self.pool):
            if served[entry] != answer_of(fresh.execute(spec).matches):
                problems.append(
                    f"serve-mixed pool entry {entry}: served answer differs from a fresh rebuild"
                )
        fresh.close()
        return problems


WORKLOADS = {
    TopKWarm.name: TopKWarm,
    RangeCold.name: RangeCold,
    ServeMixed.name: ServeMixed,
}
