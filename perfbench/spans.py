"""Span tracing for the benchmark, recorded from outside the program.

:func:`instrument` wraps the public entry point of each layer (see
``LAYERS``) for the duration of a ``with`` block and restores the
originals afterwards; nothing in ``src/`` knows it is being traced.
Every wrapped call becomes one span (name, start, end, parent).  Spans
stay in memory; :meth:`Tracer.self_times` subtracts child spans from
their parent, and :meth:`Tracer.chrome_trace` exports the Chrome
trace-event format (load it in ``chrome://tracing`` or Perfetto).
"""

from __future__ import annotations

import contextlib
import functools
import time
from unittest import mock

#: Span name -> (self-time metric, call-count metric or None).
LAYERS = {
    "uarch.trace": ("uarch.trace.self_s", None),
    "perf.fastpath": ("perf.fastpath.self_s", None),
    "perf.session": ("perf.session.self_s", None),
    "core.simcache.sim_key": ("core.simcache.sim_key_s", None),
    "core.simcache.sim_store": ("core.simcache.sim_store_s", None),
    "core.simcache.sim_load": ("core.simcache.sim_load_s", None),
    "workloads.datagen": ("workloads.datagen.self_s", "workloads.datagen.calls"),
    "workloads.run": ("workloads.run.self_s", "workloads.run.calls"),
    "mapreduce.execute": ("mapreduce.execute.self_s", "mapreduce.execute.calls"),
    "hive.execute": ("hive.execute.self_s", "hive.execute.calls"),
    "cluster.run_job": ("cluster.run_job.self_s", "cluster.run_job.calls"),
    "cluster.scheduler.submit": (
        "cluster.scheduler.submit_s",
        "cluster.scheduler.submit_calls",
    ),
    "cluster.scheduler.report": (
        "cluster.scheduler.report_s",
        "cluster.scheduler.report_calls",
    ),
    "perf.clusterpath.run": ("perf.clusterpath.run_s", None),
    "core.simcache.mix_key": ("core.simcache.mix_key_s", None),
    "core.simcache.mix_store": ("core.simcache.mix_store_s", None),
    "core.simcache.mix_load": ("core.simcache.mix_load_s", None),
    "cluster.tenancy": ("cluster.tenancy.self_s", None),
    "recipes.generate": ("recipes.generate_s", None),
}

#: The span around a whole mix: its self time is what no inner layer claims.
CATCH_ALL = "cluster.tenancy"


class Tracer:
    """In-memory span recorder with counters taken at the same boundaries."""

    def __init__(self) -> None:
        #: one ``[name, start_ns, end_ns, parent_index]`` row per span
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """*fn* with every call recorded as a span; ``after(args, result)``
        runs outside the span to take counts from the result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn, on_item=None):
        """*fn* returns a generator: each resumption becomes one span, so
        lazily produced work is charged to the layer that produces it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                index = self.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.close(index)
                if on_item is not None:
                    on_item(item)
                yield item

        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus the spans nested in it."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _parent), inner in zip(self.spans, child_ns):
            totals[name] = totals.get(name, 0.0) + (end - start - inner) / 1e9
        return totals

    def calls(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for name, *_rest in self.spans:
            totals[name] = totals.get(name, 0) + 1
        return totals

    def chrome_trace(self) -> list[dict]:
        """Complete ("X") trace events, timestamps in microseconds."""
        return [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": start / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
            }
            for name, start, end, _parent in self.spans
        ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Record every layer's entry points into *tracer* inside the block.

    Each entry point is replaced on the module or class that callers look
    it up on at call time, so calls made anywhere in the program go
    through the wrapper.
    """
    from repro.cluster import tenancy
    from repro.cluster.cluster import HadoopCluster
    from repro.cluster.scheduler import MixOutcome, MultiJobCluster
    from repro.core import simcache
    from repro.core.metrics import Metrics
    from repro.hive.engine import HiveSession
    from repro.mapreduce.engine import LocalEngine
    from repro.perf import fastpath
    from repro.perf.clusterpath import FastMultiJobCluster
    from repro.perf.session import PerfSession
    from repro.uarch.trace import SyntheticTrace
    from repro.workloads import all_workloads, datagen

    count = tracer.count
    patches = contextlib.ExitStack()

    def patch(owner, attr, value):
        patches.enter_context(mock.patch.object(owner, attr, value))

    def method(owner, attr, name, after=None):
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr), after))

    def after_execute(_args, result):
        count("mapreduce.map_input_records", result.counters.map_input_records)
        count("mapreduce.shuffle_bytes", result.counters.shuffle_bytes)

    def after_query(_args, execution):
        count("hive.cached", 1 if execution.cached else 0)

    def after_dispatch(_args, outcome):
        count("perf.clusterpath.tasks", len(outcome.task_intervals))
        count("perf.clusterpath.sim_makespan_s", outcome.end_s)

    def after_mix(args, _result):
        count("cluster.tenancy.trace_jobs", len(args[0].jobs))

    with patches:
        patch(
            SyntheticTrace,
            "iter_batches",
            tracer.wrap_generator(
                "uarch.trace",
                SyntheticTrace.iter_batches,
                lambda batch: count("uarch.trace.uops", len(batch)),
            ),
        )
        method(fastpath, "run_fast", "perf.fastpath")
        method(PerfSession, "measure_result", "perf.session")
        from_result = vars(Metrics)["from_result"].__func__
        patch(
            Metrics,
            "from_result",
            classmethod(tracer.wrap("perf.session", from_result)),
        )
        for attr, name in (
            ("sim_cache_key", "core.simcache.sim_key"),
            ("store_result", "core.simcache.sim_store"),
            ("load_result", "core.simcache.sim_load"),
            ("mix_cache_key", "core.simcache.mix_key"),
            ("store_mix", "core.simcache.mix_store"),
            ("load_mix", "core.simcache.mix_load"),
        ):
            method(simcache, attr, name)
        for attr in sorted(vars(datagen)):
            if attr.startswith("generate_"):
                method(datagen, attr, "workloads.datagen")
        # Patch `run` where it is defined, once, so an inherited `run`
        # is neither missed nor traced twice.
        owners = {
            next(k for k in type(w).__mro__ if "run" in vars(k))
            for w in all_workloads()
        }
        for owner in sorted(owners, key=lambda k: k.__qualname__):
            method(owner, "run", "workloads.run")
        method(LocalEngine, "execute", "mapreduce.execute", after_execute)
        method(HiveSession, "execute", "hive.execute", after_query)
        method(HadoopCluster, "run_job", "cluster.run_job")
        method(MultiJobCluster, "submit", "cluster.scheduler.submit")
        method(MixOutcome, "report", "cluster.scheduler.report")
        method(FastMultiJobCluster, "run", "perf.clusterpath.run", after_dispatch)
        method(tenancy, "run_mix", "cluster.tenancy", after_mix)
        yield tracer
