"""Span tracing for the benchmark's traced run (``--trace 1``).

The tracer wraps public calls of each layer from the outside: nothing in
``src/`` knows it exists.  Every wrapped call records one span -- name,
layer, start, end, parent span, request id, plus a small integer ``info``
(pairs computed, chains built, matches verified) -- into an in-memory list
that :meth:`Tracer.dump` writes out when the run ends.

Parents come from a per-thread stack, so a layer's *self time* is its span
duration minus the durations of its direct children.  The ``server`` and
``wire`` spans run on the event-loop thread, where coroutines of different
requests interleave; they are recorded *detached* (no parent, never pushed)
and matched to their request through the request id instead.

Wrappers only record while :attr:`Tracer.active` is set, so the oracle
matchers built for the correctness checks leave no spans behind.
"""

from __future__ import annotations

import gzip
import json
import threading
import time
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter


class Span:
    """One wrapped call."""

    __slots__ = ("index", "name", "layer", "start", "end", "parent", "request_id", "info",
                 "children")

    def __init__(self, index, name, layer, start, parent, request_id):
        self.index = index
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.request_id = request_id
        self.info = 0
        self.children: Optional[List["Span"]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        return self.duration - sum(child.duration for child in self.children or ())


class Tracer:
    """Records spans for wrapped calls; install once, toggle with ``active``."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []
        #: ``id(spec) -> request id`` for specs parsed off the wire, so the
        #: service span on the worker thread can name its request.
        self.spec_requests: Dict[int, str] = {}

    # ------------------------------------------------------------------ #
    # Span bookkeeping
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request_id(self) -> Optional[str]:
        return getattr(self._local, "request_id", None)

    @request_id.setter
    def request_id(self, value: Optional[str]) -> None:
        self._local.request_id = value

    def _open(self, name: str, layer: str, detached: bool = False,
              request_id: Optional[str] = None) -> Span:
        stack = self._stack()
        parent = None if detached or not stack else stack[-1]
        if request_id is None:
            request_id = parent.request_id if parent is not None else self.request_id
        with self._lock:
            span = Span(len(self.spans), name, layer, _clock(), parent, request_id)
            self.spans.append(span)
        if parent is not None:
            if parent.children is None:
                parent.children = [span]
            else:
                parent.children.append(span)
        if not detached:
            stack.append(span)
        return span

    def _close(self, span: Span, detached: bool = False) -> None:
        span.end = _clock()
        if not detached:
            self._stack().pop()

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #
    def wrap_method(self, cls, attr: str, layer: str,
                    info: Optional[Callable] = None,
                    request_of: Optional[Callable] = None) -> None:
        """Wrap ``cls.attr`` (a function or any descriptor) with a span.

        ``info(result, args)`` fills the span's integer; ``request_of(args)``
        names the request when the calling thread does not know it.
        """
        original = cls.__dict__[attr]
        tracer = self
        name = f"{cls.__name__}.{attr}"

        def traced(self_, *args, **kwargs):
            bound = original.__get__(self_, type(self_))
            if not tracer.active:
                return bound(*args, **kwargs)
            request_id = request_of(args) if request_of is not None else None
            span = tracer._open(name, layer, request_id=request_id)
            try:
                result = bound(*args, **kwargs)
                if info is not None:
                    span.info = info(result, args)
                return result
            finally:
                tracer._close(span)

        traced.__name__ = attr
        setattr(cls, attr, traced)
        self._patches.append((cls, attr, original))

    def wrap_function(self, module, attr: str, layer: str,
                      info: Optional[Callable] = None, detached: bool = False,
                      request_of: Optional[Callable] = None) -> None:
        """Wrap the module-level name ``module.attr`` with a span."""
        original = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            request_id = request_of(args, kwargs) if request_of is not None else None
            span = tracer._open(attr, layer, detached=detached, request_id=request_id)
            try:
                result = original(*args, **kwargs)
                if info is not None:
                    span.info = info(result, args)
                return result
            finally:
                tracer._close(span, detached=detached)

        traced.__name__ = attr
        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def wrap_asgi_app(self, cls) -> None:
        """Wrap an ASGI app's ``__call__``; the request id comes from headers."""
        original = cls.__dict__["__call__"]
        tracer = self

        async def traced(self_, scope, receive, send):
            if not tracer.active or scope.get("type") != "http":
                return await original(self_, scope, receive, send)
            request_id = None
            for key, value in scope.get("headers", ()):
                if key == b"x-request-id":
                    request_id = value.decode("latin-1")
            span = tracer._open(f"{cls.__name__}.__call__", "server", detached=True,
                                request_id=request_id)
            try:
                return await original(self_, scope, receive, send)
            finally:
                tracer._close(span, detached=True)

        setattr(cls, "__call__", traced)
        self._patches.append((cls, "__call__", original))

    def wrap_instance_kernels(self, distance, attrs, layer: str = "kernel") -> None:
        """Trace kernel entry points of one distance *instance*.

        ``__call__`` is looked up on the type, so the instance is moved to
        a traced subclass of its own class; the original class is restored
        by :meth:`uninstall`.
        """
        base = type(distance)
        tracer = self
        namespace = {}
        for attr in attrs:
            original = getattr(base, attr)

            def traced(self_, *args, _original=original, _attr=attr, **kwargs):
                if not tracer.active:
                    return _original(self_, *args, **kwargs)
                span = tracer._open(f"{base.__name__}.{_attr}", layer)
                try:
                    return _original(self_, *args, **kwargs)
                finally:
                    # compute_batch(query, items, cutoff): one span, many pairs.
                    span.info = len(args[1]) if _attr == "compute_batch" else 1
                    tracer._close(span)

            namespace[attr] = traced
        distance.__class__ = type(f"Traced{base.__name__}", (base,), namespace)
        self._patches.append((distance, "__class__", base))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #
    def dump(self, path, header: dict) -> None:
        """Write the header and every span (one JSON object per line, gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                handle.write(json.dumps([
                    span.index, span.name, span.layer, round(span.start, 7),
                    round(span.end, 7), None if span.parent is None else span.parent.index,
                    span.request_id, span.info,
                ]) + "\n")


def check_nesting(spans: List[Span]) -> List[str]:
    """Violations of "child spans never exceed their parent"."""
    problems = []
    for span in spans:
        if span.end < span.start:
            problems.append(f"span {span.index} {span.name} ends before it starts")
        if span.children:
            covered = sum(child.duration for child in span.children)
            if covered > span.duration + 1e-9:
                problems.append(
                    f"children of span {span.index} {span.name} cover {covered:.6f}s "
                    f"> parent {span.duration:.6f}s"
                )
            for child in span.children:
                if child.start < span.start or child.end > span.end:
                    problems.append(
                        f"span {child.index} {child.name} lies outside its parent "
                        f"{span.index} {span.name}"
                    )
    return problems


def descendants(span: Span) -> List[Span]:
    """Every span below ``span``, depth first."""
    out: List[Span] = []
    pending = list(span.children or ())
    while pending:
        child = pending.pop()
        out.append(child)
        pending.extend(child.children or ())
    return out
