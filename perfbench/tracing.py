"""Per-layer spans recorded from the benchmark's side of each layer boundary.

``install`` replaces public methods of each layer's classes with wrappers
that open a span around the original call.  Nothing under ``src/`` changes:
the wrappers live only in the traced benchmark process.  A span's self time
is its duration minus the time its child spans cover, so the self times of
one request add up to its wall time.

Span names follow the program's ``SPAN_CATALOGUE`` where a layer already
has a span (``async.window``, ``gateway.query``, ``serving.query``,
``fpsps.query``); the kernel stages are ``kernel.heuristic``,
``kernel.enumerate`` and ``kernel.score``.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

perf = time.perf_counter


class Tracer:
    """In-memory span stack with per-name count, total and self time."""

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()
        self.samples: dict[str, list] = defaultdict(list)
        self.roles: dict[int, str] = {}
        #: spans are recorded only while on (the timed phase)
        self.on = False
        #: seconds spent in index builds, recorded even while off
        self.build_s = 0.0

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.samples.clear()

    def enter(self, name: str) -> None:
        self.stack.append([name, perf(), 0.0])

    def exit(self) -> float:
        now = perf()
        name, start, child = self.stack.pop()
        dur = now - start
        if self.stack:
            parent = self.stack[-1]
            parent[2] += dur
            if parent[0] == "async.window":
                self.counts["async_engine_s"] += dur
        entry = self.spans[name]
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - child
        return dur

    def parent(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    # -- aggregates -----------------------------------------------------
    def count(self, name: str) -> int:
        return self.spans[name][0] if name in self.spans else 0

    def total(self, name: str) -> float:
        return self.spans[name][1] if name in self.spans else 0.0

    def self_time(self, name: str) -> float:
        return self.spans[name][2] if name in self.spans else 0.0


def _span(tracer: Tracer, name: str, fn, on_result=None):
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        if not tracer.on:
            return fn(self, *args, **kwargs)
        tracer.enter(name)
        try:
            result = fn(self, *args, **kwargs)
        finally:
            dur = tracer.exit()
        if on_result is not None:
            on_result(self, args, result, dur)
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points for this process."""
    from repro.core.fahl import FAHLIndex
    from repro.core.flatq import FlatQueryKernel
    from repro.core.fpsps import FlowAwareEngine
    from repro.core.overlay import DeltaOverlay, OverlayOracle
    from repro.labeling.hierarchy import HierarchyIndex
    from repro.scale.gateway import ShardedGateway
    from repro.serving.async_gateway import AsyncGateway
    from repro.serving.engine import ResilientEngine

    counts = tracer.counts
    samples = tracer.samples

    # -- serving.async_gateway ------------------------------------------
    dispatch = AsyncGateway._dispatch_window

    @functools.wraps(dispatch)
    def dispatch_window(self):
        if not tracer.on:
            return dispatch(self)
        window = self._pending[: self.max_window]
        now = perf()
        for item in window:
            samples["async.queue_wait"].append(now - item.submitted_perf)
        if window:
            samples["async.window_requests"].append(len(window))
        tracer.enter("async.window")
        try:
            return dispatch(self)
        finally:
            tracer.exit()

    AsyncGateway._dispatch_window = dispatch_window

    # -- scale ----------------------------------------------------------
    def gateway_batch(self, args, result, dur):
        counts["gateway_routes"] += len(args[0])

    def gateway_query(self, args, result, dur):
        counts["gateway_routes"] += 1

    ShardedGateway.query = _span(
        tracer, "gateway.query", ShardedGateway.query, gateway_query
    )
    ShardedGateway.batch = _span(
        tracer, "gateway.query", ShardedGateway.batch, gateway_batch
    )
    ShardedGateway.distance = _span(
        tracer, "gateway.distance", ShardedGateway.distance
    )
    ShardedGateway.submit = _span(tracer, "gateway.update", ShardedGateway.submit)

    # -- serving.engine ---------------------------------------------------
    def serving_batch(self, args, result, dur):
        counts["serving_routes"] += len(args[0])

    def serving_query(self, args, result, dur):
        counts["serving_routes"] += 1

    def consolidated(self, args, result, dur):
        if result is not None:
            counts["consolidations"] += 1
            samples["serving.consolidation"].append(dur)

    ResilientEngine.query = _span(
        tracer, "serving.query", ResilientEngine.query, serving_query
    )
    ResilientEngine.batch = _span(
        tracer, "serving.query", ResilientEngine.batch, serving_batch
    )
    ResilientEngine.distance = _span(
        tracer, "serving.distance", ResilientEngine.distance
    )
    ResilientEngine.submit = _span(tracer, "serving.update", ResilientEngine.submit)
    ResilientEngine.consolidate = _span(
        tracer, "serving.consolidate", ResilientEngine.consolidate, consolidated
    )

    # -- core.overlay ---------------------------------------------------
    DeltaOverlay.table_to = _span(tracer, "overlay.table", DeltaOverlay.table_to)

    # -- core.fpsps -------------------------------------------------------
    def fpsps_result(self, args, result, dur):
        role = tracer.roles.get(id(self), "engine")
        samples[f"route.{role}"].append(dur)
        counts["fpsps_queries"] += 1
        counts["candidates"] += result.num_candidates
        counts["pruned"] += result.num_pruned
        counts["truncated"] += bool(result.truncated)
        counts["early_stopped"] += bool(result.early_stopped)

    FlowAwareEngine.query = _span(
        tracer, "fpsps.query", FlowAwareEngine.query, fpsps_result
    )

    # -- core.flatq -------------------------------------------------------
    h_to = FlatQueryKernel.h_to

    @functools.wraps(h_to)
    def heuristic(self, target):
        if not tracer.on:
            return h_to(self, target)
        before = self.stats["heuristic_builds"]
        tracer.enter("kernel.heuristic")
        try:
            return h_to(self, target)
        finally:
            tracer.exit()
            counts["heuristic_builds"] += self.stats["heuristic_builds"] - before

    FlatQueryKernel.h_to = heuristic

    iter_paths = FlatQueryKernel.iter_paths

    @functools.wraps(iter_paths)
    def enumerate_paths(self, *args, **kwargs):
        inner = iter_paths(self, *args, **kwargs)
        if not tracer.on:
            return inner
        counts["enumerations"] += 1

        def stream():
            while True:
                tracer.enter("kernel.enumerate")
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                counts["paths_enumerated"] += 1
                yield item

        return stream()

    FlatQueryKernel.iter_paths = enumerate_paths

    def collector(fn):
        @functools.wraps(fn)
        def collect(self, *args, **kwargs):
            if not tracer.on:
                return fn(self, *args, **kwargs)
            before = self.stats["astar_runs"]
            tracer.enter("kernel.score")
            try:
                return fn(self, *args, **kwargs)
            finally:
                tracer.exit()
                counts["astar_runs"] += self.stats["astar_runs"] - before

        return collect

    FlatQueryKernel.collect_eager = collector(FlatQueryKernel.collect_eager)
    FlatQueryKernel.collect_lazy = collector(FlatQueryKernel.collect_lazy)

    # -- labeling ---------------------------------------------------------
    HierarchyIndex.distances_to = _span(
        tracer, "labels.one_to_all", HierarchyIndex.distances_to
    )
    HierarchyIndex.distance = _span(
        tracer, "labels.distance", HierarchyIndex.distance
    )

    def vectorised(fn):
        @functools.wraps(fn)
        def distance_many(self, sources, targets):
            if tracer.on and tracer.parent() == "async.window":
                counts["async_vectorised"] += len(sources)
            return fn(self, sources, targets)

        return distance_many

    HierarchyIndex.distance_many = vectorised(HierarchyIndex.distance_many)
    OverlayOracle.distance_many = vectorised(OverlayOracle.distance_many)

    build = FAHLIndex.__init__

    @functools.wraps(build)
    def build_index(self, *args, **kwargs):
        start = perf()
        try:
            return build(self, *args, **kwargs)
        finally:
            tracer.build_s += perf() - start

    FAHLIndex.__init__ = build_index


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: (name, unit) of every per-layer metric, in waterfall order
PER_LAYER = (
    ("async.front_door_us", "us"),
    ("async.queue_wait_us", "us"),
    ("async.window_requests", "count"),
    ("async.vectorised_share", "ratio"),
    ("gateway.cache_hit_ratio", "ratio"),
    ("gateway.boundary_share", "ratio"),
    ("gateway.boundary_route_ms", "ms"),
    ("gateway.shard_route_ms", "ms"),
    ("gateway.eta_us", "us"),
    ("gateway.self_us", "us"),
    ("gateway.update_ms", "ms"),
    ("serving.self_us", "us"),
    ("serving.update_us", "us"),
    ("serving.consolidation_ms", "ms"),
    ("serving.consolidations", "count"),
    ("overlay.table_ms", "ms"),
    ("overlay.pending_edges", "count"),
    ("fpsps.self_ms", "ms"),
    ("fpsps.candidates", "count"),
    ("fpsps.pruned", "count"),
    ("fpsps.truncated_share", "ratio"),
    ("fpsps.early_stop_share", "ratio"),
    ("kernel.heuristic_ms", "ms"),
    ("kernel.heuristic_builds", "count"),
    ("kernel.enumerate_ms", "ms"),
    ("kernel.spur_searches", "count"),
    ("kernel.paths_per_spur", "count"),
    ("kernel.score_ms", "ms"),
    ("labels.build_s", "s"),
    ("labels.one_to_all_ms", "ms"),
    ("labels.eta_us", "us"),
    ("labels.entries_per_vertex", "count"),
    ("labels.index_mb", "MB"),
)


def layer_metrics(tracer: Tracer, extra: dict) -> dict[str, float]:
    """Per-layer values from the timed phase's spans.

    ``extra`` carries what the workload measured itself: the async waves'
    wall time and request count, the gateway cache counters, overlay
    samples, the median index build time and the label store's size.
    A layer that does not run in a workload reports 0.
    """
    t, c, s = tracer, tracer.counts, tracer.samples
    routes = c["fpsps_queries"]
    flat = c["enumerations"]  # routes the flat kernel answered
    spurs = c["astar_runs"] - c["enumerations"]
    async_requests = extra.get("async_requests", 0)
    gateway_requests = c["gateway_routes"] + t.count("gateway.distance")
    boundary = s["route.boundary"]
    shard = s["route.shard"]
    lookups = extra.get("cache_hits", 0) + extra.get("cache_misses", 0)
    return {
        "async.front_door_us": 1e6 * _per(
            extra.get("async_wall_s", 0.0) - c["async_engine_s"], async_requests
        ),
        "async.queue_wait_us": 1e6 * _mean(s["async.queue_wait"]),
        "async.window_requests": _mean(s["async.window_requests"]),
        "async.vectorised_share": _per(c["async_vectorised"], extra.get("async_etas", 0)),
        "gateway.cache_hit_ratio": _per(extra.get("cache_hits", 0), lookups),
        "gateway.boundary_share": _per(len(boundary), len(boundary) + len(shard)),
        "gateway.boundary_route_ms": 1e3 * _mean(boundary),
        "gateway.shard_route_ms": 1e3 * _mean(shard),
        "gateway.eta_us": 1e6 * _per(t.total("gateway.distance"), t.count("gateway.distance")),
        "gateway.self_us": 1e6 * _per(
            t.self_time("gateway.query") + t.self_time("gateway.distance"),
            gateway_requests,
        ),
        "gateway.update_ms": 1e3 * _per(t.self_time("gateway.update"), t.count("gateway.update")),
        "serving.self_us": 1e6 * _per(t.self_time("serving.query"), c["serving_routes"]),
        "serving.update_us": 1e6 * _per(t.total("serving.update"), t.count("serving.update")),
        "serving.consolidation_ms": 1e3 * _mean(s["serving.consolidation"]),
        "serving.consolidations": float(c["consolidations"]),
        "overlay.table_ms": 1e3 * _per(t.total("overlay.table"), t.count("overlay.table")),
        "overlay.pending_edges": _mean(extra.get("pending_edges", [])),
        "fpsps.self_ms": 1e3 * _per(t.self_time("fpsps.query"), routes),
        "fpsps.candidates": _per(c["candidates"], routes),
        "fpsps.pruned": _per(c["pruned"], routes),
        "fpsps.truncated_share": _per(c["truncated"], routes),
        "fpsps.early_stop_share": _per(c["early_stopped"], routes),
        "kernel.heuristic_ms": 1e3 * _per(t.total("kernel.heuristic"), flat),
        "kernel.heuristic_builds": _per(c["heuristic_builds"], flat),
        "kernel.enumerate_ms": 1e3 * _per(t.self_time("kernel.enumerate"), flat),
        "kernel.spur_searches": _per(spurs, flat),
        "kernel.paths_per_spur": _per(c["paths_enumerated"], spurs),
        "kernel.score_ms": 1e3 * _per(t.self_time("kernel.score"), flat),
        "labels.build_s": extra.get("build_s", 0.0),
        "labels.one_to_all_ms": 1e3 * _per(t.total("labels.one_to_all"), t.count("labels.one_to_all")),
        "labels.eta_us": 1e6 * _per(t.total("labels.distance"), t.count("labels.distance")),
        "labels.entries_per_vertex": extra.get("entries_per_vertex", 0.0),
        "labels.index_mb": extra.get("index_mb", 0.0),
    }
