"""In-memory span tracer wrapped around the public functions of each layer.

The benchmark never edits the program: :func:`install` replaces a
function or method named in :data:`LAYERS` with a wrapper that records a
span (name, start, end, self time) whenever tracing is enabled, and
:func:`uninstall` puts the originals back.  Untraced runs never install
the wrappers, so they pay nothing.  Spans stay in memory until the run
ends, when the driver aggregates them.

A span's *self time* is its duration minus the durations of the spans it
directly caused on the same thread (its children), so self times of all
layers add up to the traced busy time without double counting.
Coroutine spans (the serve tier's ``handle_request``) interleave on the
event-loop thread, so they are recorded as independent top-level spans
that neither nest nor subtract children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time

#: (span name, module, attribute path) of every wrapped public function.
#: Span names follow the module names: ``layer.operation``.
LAYERS = (
    ("graph.load", "repro.graph.io", "load_graph"),
    ("slicing.build", "repro.core.slicing", "SlicedMatrix.from_graph"),
    ("plan.compile", "repro.core.plan", "build_join_plan"),
    ("plan.patch", "repro.core.plan", "patch_join_plan"),
    ("plan.merge_edges", "repro.core.plan", "merge_oriented_edges"),
    ("incremental.delta_join", "repro.core.incremental", "symmetric_delta"),
    ("incremental.splice", "repro.core.incremental", "set_bits"),
    ("incremental.splice", "repro.core.incremental", "clear_bits"),
    ("kernels.sweep", "repro.core.kernels", "execute_workload"),
    ("accelerator.run", "repro.core.accelerator", "TCIMAccelerator.run"),
    ("perf.evaluate", "repro.arch.perf", "PimPerformanceModel.evaluate"),
    ("truss.peel", "repro.analysis.truss", "truss_decomposition"),
    ("storage.read", "repro.storage.snapshot", "read_snapshot"),
    ("storage.write", "repro.storage.snapshot", "write_snapshot"),
    ("api.count", "repro.api", "TCIMSession.count"),
    ("api.apply", "repro.api", "TCIMSession.apply"),
    ("api.simulate", "repro.api", "TCIMSession.simulate"),
    ("api.support", "repro.api", "TCIMSession.support"),
    ("api.truss", "repro.api", "TCIMSession.truss"),
    ("api.clustering", "repro.api", "TCIMSession.clustering"),
    ("api.common_neighbors_many", "repro.api", "TCIMSession.common_neighbors_many"),
    ("serve.acquire", "repro.serve.pool", "SessionPool.acquire"),
    ("serve.acquire", "repro.serve.pool", "SessionPool.acquire_hit"),
    ("serve.handle", "repro.serve.protocol", "handle_request"),
)


class Tracer:
    """Collects spans from the wrapped layers while :attr:`enabled`."""

    def __init__(self) -> None:
        self.enabled = False
        #: ``(name, start_ns, end_ns, self_ns)`` per finished span; plain
        #: tuples of atoms, which the garbage collector stops tracking.
        self.spans: list[tuple] = []
        #: Called as ``on_request_start(request, start_ns)`` and
        #: ``on_request_end(reply, end_ns)`` around each traced
        #: ``handle_request``; the serve workload uses them to split a
        #: reply's latency into wait, execute and encode.
        self.on_request_start = None
        self.on_request_end = None
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, func):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            stack = tracer._stack()
            children = [0]
            stack.append(children)
            start = time.perf_counter_ns()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                tracer.spans.append((name, start, end, duration - children[0]))

        return traced

    def wrap_async(self, name: str, func):
        tracer = self

        @functools.wraps(func)
        async def traced(service, request, *args, **kwargs):
            if not tracer.enabled:
                return await func(service, request, *args, **kwargs)
            start = time.perf_counter_ns()
            if tracer.on_request_start is not None:
                tracer.on_request_start(request, start)
            reply = await func(service, request, *args, **kwargs)
            end = time.perf_counter_ns()
            tracer.spans.append((name, start, end, end - start))
            if tracer.on_request_end is not None:
                tracer.on_request_end(reply, end)
            return reply

        return traced

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> list[str]:
        """Wrap every function in :data:`LAYERS` that exists.

        Returns the targets it could not find (renamed or removed by a
        later change); their layers read 0 instead of failing the run.
        """
        missing: list[str] = []
        for name, module_name, path in LAYERS:
            *parents, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for parent in parents:
                    owner = getattr(owner, parent)
                original = (
                    owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                )
            except (ImportError, AttributeError, KeyError):
                missing.append(f"{module_name}.{path}")
                continue
            if isinstance(original, classmethod):
                replacement = classmethod(self.wrap(name, original.__func__))
            elif inspect.iscoroutinefunction(original):
                replacement = self.wrap_async(name, original)
            else:
                replacement = self.wrap(name, original)
            setattr(owner, attr, replacement)
            self._patched.append((owner, attr, original))
        return missing

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def totals(self, start_ns: int = 0, end_ns: int | None = None) -> dict:
        """``name -> [calls, self seconds]`` of the spans that started
        inside ``[start_ns, end_ns)``."""
        out: dict[str, list] = {}
        for name, start, _, self_ns in self.spans:
            if start < start_ns or (end_ns is not None and start >= end_ns):
                continue
            row = out.setdefault(name, [0, 0.0])
            row[0] += 1
            row[1] += self_ns / 1e9
        return out

    def coverage(self, start_ns: int, end_ns: int) -> float:
        """Share of ``[start_ns, end_ns)`` inside at least one span."""
        intervals = sorted(
            (max(start, start_ns), min(end, end_ns))
            for _, start, end, _ in self.spans
            if end > start_ns and start < end_ns
        )
        covered = 0
        reach = start_ns
        for begin, finish in intervals:
            if finish <= reach:
                continue
            covered += finish - max(begin, reach)
            reach = finish
        return covered / (end_ns - start_ns) if end_ns > start_ns else 0.0
