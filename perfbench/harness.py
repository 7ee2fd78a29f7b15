"""Run one workload and turn what it did into the benchmark's metrics.

``run_workload`` is the whole command for one ``--workload``: it times the
setups, runs the measured phase, checks every answer it is meant to check,
and returns the end-to-end metrics (``--trace 0``) or, for the traced run,
the per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro.core.pipeline as pipeline_module
import repro.server.app as app_module
from repro.core.matcher import SubsequenceMatcher
from repro.core.pipeline import QueryPipeline
from repro.core.service import SearchService
from repro.distances.backend import active_kernel_name
from repro.indexing.base import MetricIndex
from repro.server import SearchApp
from repro.storage import persistence

from tracing import Tracer, check_nesting, descendants
from workloads import WORKLOADS, Measured, ServeMixed

#: Kernel entry points of the matcher's distance instance.
KERNEL_CALLS = ("__call__", "bounded", "compute_batch")


# --------------------------------------------------------------------- #
# Small statistics helpers
# --------------------------------------------------------------------- #
def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> Tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile with 10 beyond.

    With ``n`` ascending samples the value at rank ``n - 11`` has exactly
    ten samples above it; it sits at percentile ``100 * (n - 10) / n``.
    Runs with ten samples or fewer report their maximum (percentile 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return float(ordered[-1]), 100.0, n
    return float(ordered[n - 11]), 100.0 * (n - 10) / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------- #
# Running
# --------------------------------------------------------------------- #
def make_workload(name: str, seed: int, workdir: Path):
    cls = WORKLOADS[name]
    if cls is ServeMixed:
        return cls(seed, workdir)
    return cls(seed)


def environment(measured: Optional[Measured]) -> Dict[str, object]:
    """What the numbers were measured on, recorded next to every result."""
    backend = executor = None
    if measured is not None and measured.reads:
        stats = measured.reads[0].stats
        if isinstance(stats, dict):
            backend, executor = stats.get("kernel_backend"), stats.get("executor")
        elif stats is not None:
            backend, executor = stats.kernel_backend, stats.executor
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "kernel_backend": backend or active_kernel_name(),
        "executor": executor,
    }


def run_untraced(workload, seconds: float) -> dict:
    """setup x N (median), one measured phase, then the checks."""
    setups: List[float] = []
    state = None
    for _ in range(workload.setups):
        if state is not None:
            workload.close(state)
            state = None
            gc.collect()
        started = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - started)
    try:
        measured = workload.measure(state, seconds)
        # Before the checks: their oracles are not the workload's memory.
        peak_rss = peak_rss_mb()
        mismatches = workload.check(state, measured)
    finally:
        workload.close(state)
    problems = list(measured.failures)
    reads = [op.seconds for op in measured.reads]
    writes = [op.seconds for op in measured.writes if op.kind in workload.write_kinds]
    deletes = [op.seconds for op in measured.writes if op.kind == "delete"]
    query_tail, query_pct, query_n = tail(reads)
    write_tail, write_pct, write_n = tail(writes)
    metrics = {
        "setup_s": (median(setups), "s"),
        "query_p50_ms": (1e3 * median(reads), "ms"),
        "query_tail_ms": (1e3 * query_tail, "ms"),
        "query_qps": (len(reads) / measured.wall if measured.wall else 0.0, "1/s"),
        "write_p50_ms": (1e3 * median(writes), "ms"),
        "write_tail_ms": (1e3 * write_tail, "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    attempted = len(measured.reads) + len(measured.writes)
    failed = len(problems) + len(mismatches)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems + mismatches,
        "details": {
            "setups_s": setups,
            "query_tail_percentile": query_pct,
            "query_samples": query_n,
            "write_tail_percentile": write_pct,
            "write_samples": write_n,
            "delete_p50_ms": 1e3 * median(deletes),
            "failed_ratio": failed / attempted if attempted else 0.0,
        },
        "environment": environment(measured),
    }


def install_tracer(tracer: Tracer) -> None:
    """Wrap each layer's public calls but the kernels (see README: layers)."""
    for attr in ("execute", "add_sequence", "remove_sequence"):
        tracer.wrap_method(SearchService, attr, "service")
    tracer.wrap_method(
        SearchService, "execute_many", "service",
        request_of=lambda args: tracer.spec_requests.get(id(args[0][0])) if args[0] else None,
    )
    tracer.wrap_method(SubsequenceMatcher, "execute", "pipeline")
    for attr in ("run_range", "run_longest", "run_scored_pass"):
        tracer.wrap_method(QueryPipeline, attr, "pipeline")
    tracer.wrap_method(QueryPipeline, "segments_for", "segmentation",
                       info=lambda result, args: len(result))
    tracer.wrap_method(QueryPipeline, "chain", "candidates",
                       info=lambda result, args: len(result))
    tracer.wrap_method(MetricIndex, "batch_range_query", "index")
    tracer.wrap_method(MetricIndex, "insert", "index")
    tracer.wrap_method(MetricIndex, "delete", "index")
    tracer.wrap_function(pipeline_module, "verify_chain", "verification",
                         info=lambda result, args: 0 if result is None else 1)
    tracer.wrap_function(pipeline_module, "enumerate_matches", "verification",
                         info=lambda result, args: len(result))

    def remember_request(result, args):
        tracer.spec_requests[id(result.spec)] = result.request_id
        return 0

    tracer.wrap_function(app_module, "parse_search_request", "wire", detached=True,
                         info=remember_request,
                         request_of=lambda args, kwargs: (args[0] or {}).get("request_id")
                         if isinstance(args[0], dict) else None)
    tracer.wrap_function(app_module, "result_envelope", "wire", detached=True,
                         request_of=lambda args, kwargs: kwargs.get("request_id"))
    tracer.wrap_asgi_app(SearchApp)
    tracer.wrap_function(persistence, "save_matcher", "storage")
    tracer.wrap_function(persistence, "load_matcher", "storage")


def run_traced(workload, seconds: float, trace_path: Path) -> dict:
    """The same operations twice from identical setups: plain, then traced.

    The plain pass fixes the operation counts (half the time budget); the
    traced pass replays exactly those operations, so wall times compare
    (tracing overhead) and answers must agree one for one.
    """
    state = workload.setup()
    try:
        plain = workload.measure(state, seconds / 2.0)
        plain_answers = _answers_for_comparison(workload, state, plain)
    finally:
        workload.close(state)
    gc.collect()

    tracer = Tracer()
    # Wrap before the setup so serve-mixed records its snapshot save and
    # lazy load; kernels are wrapped on the distance instance setup made.
    install_tracer(tracer)
    state = workload.setup(tracer=tracer)
    tracer.wrap_instance_kernels(workload.distance_of(state), KERNEL_CALLS)
    try:
        tracer.active = True
        traced = workload.measure(state, seconds / 2.0, plan=plain.plan, tracer=tracer)
        tracer.active = False
        problems = list(plain.failures) + list(traced.failures)
        problems.extend(workload.check(state, traced))
        traced_answers = _answers_for_comparison(workload, state, traced)
    finally:
        tracer.active = False
        workload.close(state)
        tracer.uninstall()

    if plain_answers != traced_answers:
        problems.append(f"{workload.name}: traced answers differ from untraced answers")
    problems.extend(check_nesting(tracer.spans))
    layers, invariant_problems = layer_metrics(tracer, traced, isinstance(workload, ServeMixed))
    problems.extend(invariant_problems)
    layers["trace.overhead_ratio"] = (
        traced.wall / plain.wall if plain.wall else 0.0, "ratio"
    )
    tracer.dump(trace_path, {
        "workload": workload.name,
        "seed": workload.seed,
        "environment": environment(traced),
        "plain_wall_s": plain.wall,
        "traced_wall_s": traced.wall,
    })
    attempted = sum(len(m.reads) + len(m.writes) for m in (plain, traced))
    return {
        "metrics": layers,
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems,
        "details": {"trace_file": os.path.relpath(trace_path), "spans": len(tracer.spans)},
        "environment": environment(traced),
    }


def _answers_for_comparison(workload, state, measured: Measured):
    if isinstance(workload, ServeMixed):
        # Interleavings differ between passes, so compare what the server
        # answers once the corpus is back at its start.
        return state.get("final_answers") or workload.final_answers(state)
    return [(op.answer, _counters(op.stats)) for op in measured.reads]


def _counters(stats) -> tuple:
    return (
        stats.index_distance_computations,
        stats.index_cache_hits,
        stats.verification_distance_computations,
        stats.verification_cache_hits,
    )


# --------------------------------------------------------------------- #
# Per-layer metrics
# --------------------------------------------------------------------- #
def _stat(stats, name: str) -> int:
    return stats[name] if isinstance(stats, dict) else getattr(stats, name)


def _segment_matches(stats) -> int:
    if isinstance(stats, dict):
        return stats["segment_matches"]
    if stats.passes:
        return sum(p.segment_matches for p in stats.passes)
    return stats.segment_matches


def layer_metrics(tracer: Tracer, measured: Measured, over_http: bool):
    """Per-query medians of every layer, plus the trace invariants."""
    roots = {}
    app_spans, parse_spans, encode_spans = {}, {}, {}
    write_roots = {"add_sequence": [], "remove_sequence": []}
    storage = {"save_matcher": [], "load_matcher": []}
    for span in tracer.spans:
        if span.layer == "storage":
            storage[span.name].append(span)
        if span.parent is not None:
            continue
        if span.layer == "service":
            short = span.name.split(".", 1)[1]
            if short in write_roots:
                write_roots[short].append(span)
            elif span.request_id is not None:
                roots[span.request_id] = span
        elif span.layer == "server":
            app_spans[span.request_id] = span
        elif span.name == "parse_search_request":
            parse_spans[span.request_id] = span
        elif span.name == "result_envelope":
            encode_spans[span.request_id] = span

    problems: List[str] = []
    per_query: Dict[str, List[float]] = {}
    totals = {"query": 0.0, "index": 0.0, "kernel": 0.0, "verification": 0.0,
              "kernel_calls": 0, "verified": 0, "chains": 0}

    def add(name: str, value: float) -> None:
        per_query.setdefault(name, []).append(value)

    for op in measured.reads:
        root = roots.get(op.request_id)
        if root is None:
            problems.append(f"no service span for {op.request_id}")
            continue
        spans = descendants(root)
        by_layer: Dict[str, list] = {}
        for span in spans:
            by_layer.setdefault(span.layer, []).append(span)
        index_spans = [s for s in by_layer.get("index", ()) if s.name.endswith("batch_range_query")]
        kernel_spans = by_layer.get("kernel", [])
        verify_spans = by_layer.get("verification", [])
        pipeline_spans = by_layer.get("pipeline", [])
        chain_spans = by_layer.get("candidates", [])
        segment_spans = by_layer.get("segmentation", [])
        stats = op.stats

        index_self = sum(s.self_time() for s in index_spans)
        verify_self = sum(s.self_time() for s in verify_spans)
        kernel_time = sum(s.duration for s in kernel_spans)
        index_fresh = sum(k.info for k in kernel_spans if k.parent.layer == "index")
        verify_fresh = sum(k.info for k in kernel_spans if k.parent.layer == "verification")
        if index_fresh != _stat(stats, "index_distance_computations"):
            problems.append(
                f"{op.request_id}: index kernel pairs {index_fresh} != QueryStats "
                f"{_stat(stats, 'index_distance_computations')}"
            )
        if verify_fresh != _stat(stats, "verification_distance_computations"):
            problems.append(
                f"{op.request_id}: verification kernel pairs {verify_fresh} != QueryStats "
                f"{_stat(stats, 'verification_distance_computations')}"
            )
        hits = _stat(stats, "index_cache_hits") + _stat(stats, "verification_cache_hits")
        if not over_http and op.cache_hits != hits:
            problems.append(f"{op.request_id}: cache hits {op.cache_hits} != QueryStats {hits}")

        fresh = _stat(stats, "index_distance_computations")
        requests = fresh + _stat(stats, "index_cache_hits")
        naive = _stat(stats, "naive_distance_computations") * max(1, len(index_spans))
        add("index.self_ms", 1e3 * index_self)
        add("index.requests", requests)
        add("index.fresh", fresh)
        add("index.pruning_ratio", fresh / naive if naive else 0.0)
        add("index.touch_ratio", requests / naive if naive else 0.0)
        add("index.match_yield", _segment_matches(stats) / requests if requests else 0.0)
        add("pipeline.sweep_passes", len(index_spans))
        add("pipeline.self_ms", 1e3 * sum(s.self_time() for s in pipeline_spans))
        add("kernel.ms", 1e3 * kernel_time)
        add("kernel.calls", len(kernel_spans))
        add("verification.self_ms", 1e3 * verify_self)
        add("verification.fresh", _stat(stats, "verification_distance_computations"))
        add("verification.hits", _stat(stats, "verification_cache_hits"))
        add("candidates.ms", 1e3 * sum(s.duration for s in chain_spans))
        add("candidates.chains", sum(s.info for s in chain_spans))
        add("segmentation.ms", 1e3 * sum(s.duration for s in segment_spans))
        add("segmentation.segments", _stat(stats, "segments_extracted"))
        first_pipeline = min((s.start for s in pipeline_spans), default=root.start)
        add("service.lock_wait_ms", 1e3 * (first_pipeline - root.start))
        totals["query"] += root.duration
        totals["index"] += index_self
        totals["kernel"] += kernel_time
        totals["verification"] += verify_self
        totals["kernel_calls"] += len(kernel_spans)
        totals["verified"] += sum(s.info for s in verify_spans)
        totals["chains"] += sum(s.info for s in chain_spans)

        if over_http:
            app = app_spans.get(op.request_id)
            if app is not None:
                add("server.overhead_ms", 1e3 * (op.seconds - app.duration))
            if op.request_id in parse_spans:
                add("wire.parse_ms", 1e3 * parse_spans[op.request_id].duration)
            if op.request_id in encode_spans:
                add("wire.encode_ms", 1e3 * encode_spans[op.request_id].duration)
            add("wire.response_bytes", op.response_bytes)

    def write_ms(kind: str, index_call: str) -> float:
        return 1e3 * median(
            sum(s.duration for s in descendants(root) if s.name.endswith(index_call))
            for root in write_roots[kind]
        )

    layers: Dict[str, Tuple[float, str]] = {}
    units = {
        "index.self_ms": "ms", "index.requests": "count", "index.fresh": "count",
        "index.pruning_ratio": "ratio", "index.touch_ratio": "ratio",
        "index.match_yield": "ratio", "pipeline.sweep_passes": "count",
        "pipeline.self_ms": "ms", "kernel.ms": "ms", "kernel.calls": "count",
        "verification.self_ms": "ms", "verification.fresh": "count",
        "verification.hits": "count", "candidates.ms": "ms", "candidates.chains": "count",
        "segmentation.ms": "ms", "segmentation.segments": "count",
        "service.lock_wait_ms": "ms", "server.overhead_ms": "ms", "wire.parse_ms": "ms",
        "wire.encode_ms": "ms", "wire.response_bytes": "bytes",
    }
    for name, unit in units.items():
        layers[name] = (median(per_query.get(name, [])), unit)
    lookups = measured.cache_hits + measured.cache_misses
    layers["cache.hit_ratio"] = (measured.cache_hits / lookups if lookups else 0.0, "ratio")
    layers["cache.entries"] = (measured.cache_entries, "count")
    layers["kernel.us_per_call"] = (
        1e6 * totals["kernel"] / totals["kernel_calls"] if totals["kernel_calls"] else 0.0, "us"
    )
    layers["verification.yield"] = (
        totals["verified"] / totals["chains"] if totals["chains"] else 0.0, "ratio"
    )
    for layer in ("index", "kernel", "verification"):
        layers[f"{layer}.share"] = (
            totals[layer] / totals["query"] if totals["query"] else 0.0, "fraction"
        )
    layers["server.rejected"] = (measured.notes.get("rejected", 0), "count")
    layers["server.timeouts"] = (measured.notes.get("timeouts", 0), "count")
    layers["index.insert_ms"] = (write_ms("add_sequence", "MetricIndex.insert"), "ms")
    layers["index.delete_ms"] = (write_ms("remove_sequence", "MetricIndex.delete"), "ms")
    layers["index.rebuilds"] = (measured.rebuilds, "count")
    layers["storage.save_s"] = (median(s.duration for s in storage["save_matcher"]), "s")
    layers["storage.load_s"] = (median(s.duration for s in storage["load_matcher"]), "s")
    windows = measured.notes.get("windows")
    layers["storage.bytes_per_window"] = (
        measured.notes["snapshot_bytes"] / windows if windows else 0.0, "bytes"
    )
    return layers, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, build_dir: Path) -> dict:
    workdir = build_dir / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = make_workload(name, seed, workdir)
    if trace:
        traces = build_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        return run_traced(workload, seconds, traces / f"{name}-seed{seed}.jsonl.gz")
    return run_untraced(workload, seconds)
