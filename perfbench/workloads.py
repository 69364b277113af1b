"""The three seeded workloads: inputs, set-up, timed closed-loop rounds.

Every workload runs whole *rounds* of the same shape:

    read phase A (base weights) -> set burst -> read phase B -> restore burst

The set burst raises a few edge weights (congestion) and the restore burst
puts them back, so every read phase sees one fixed graph state, and phase A
always sees the base graph.  On nyc-stack each burst is absorbed by the
shards' delta overlays and folded in by a consolidation just before the
next burst, so reads run against a non-empty overlay.  The benchmark keeps
its own copy of every weight it applied; the checks in :mod:`checks` use
that copy, never the program's.

The graphs come from the program's dataset generators with a fixed
generator seed, so set-up time and memory measure the code, not the input;
``--seed`` drives every query, ETA and update.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro import FSPQuery, FlowUpdate, ResilientEngine, ShardedGateway, WeightUpdate
from repro.core.fahl import FAHLIndex
from repro.serving.async_gateway import AsyncGateway
from repro.workloads.datasets import load_dataset

perf = time.perf_counter

#: generator seed of every graph (queries and updates use ``--seed``)
GRAPH_SEED = 0
#: hourly flow slices of one day; routes pick a slice uniformly
DAYS = 1
ETA_FACTOR = 3.0
ALPHA = 0.5
MAX_CANDIDATES = 64
#: dataset scales: "full" is the benchmark, "tiny" the smoke run
SCALES = {
    "full": {"NYC": 0.35, "COL": 3.6},
    "tiny": {"NYC": 0.15, "COL": 0.4},
}

#: the known ShardedGateway fault (shard routing decided on the shortest
#: path alone, while FSPQ candidates can leave the shard): fixed,
#: seed-independent same-shard queries on the base graph whose shard-routed
#: answer is not the Eq. 1 optimum.  ``selftest.py --find-faults`` finds them.
FAULT_QUERIES = {
    "full": ((40, 167, 3), (286, 426, 2)),
    "tiny": ((232, 204, 21), (144, 176, 0)),
}


@dataclass
class Spec:
    name: str
    dataset: str
    pruning: str
    #: per read phase: routes, and ETAs sent with each route
    routes: int
    etas_per_route: int
    #: per burst: weight and flow updates
    weight_updates: int
    flow_updates: int
    #: size of the fixed catalogue the congested edges come from
    edge_catalogue: int
    #: whole rounds per run at least; on nyc-stack this, not ``--seconds``,
    #: sets the run length (about 35 s), which its few, long updates need
    min_rounds: int
    #: tail percentile per operation type (>= 10 samples beyond it at
    #: ``min_rounds``)
    tails: dict
    #: Eq. 1 / prefix checks sampled per run
    optimal_samples: int
    #: set-ups per run; ``setup_s`` is their median.  The extra set-ups run
    #: in forked children; short ones are spread over the timed phase (off
    #: its clock), so their median does not hang on the machine's speed in
    #: the second the run started.
    setups: int
    interleave_setups: bool


SPECS = {
    "nyc-route": Spec(
        "nyc-route", "NYC", "none", routes=8, etas_per_route=3,
        weight_updates=1, flow_updates=0, edge_catalogue=16, min_rounds=120,
        tails={"route": 99, "eta": 99, "update": 95}, optimal_samples=4,
        setups=7, interleave_setups=True,
    ),
    "col-route": Spec(
        "col-route", "COL", "lemma4", routes=16, etas_per_route=6,
        weight_updates=3, flow_updates=0, edge_catalogue=3, min_rounds=7,
        tails={"route": 90, "eta": 99, "update": 75}, optimal_samples=2,
        setups=3, interleave_setups=False,
    ),
    "nyc-stack": Spec(
        "nyc-stack", "NYC", "none", routes=5, etas_per_route=0,
        weight_updates=2, flow_updates=1, edge_catalogue=2, min_rounds=20,
        tails={"route": 95, "eta": 90, "update": 75}, optimal_samples=3,
        setups=5, interleave_setups=True,
    ),
}

#: nyc-stack: concurrent ETA clients and ETA steps per read phase; the last
#: quarter of the steps repeats pairs of the earlier ones, so a quarter of
#: ETAs hit the cache.  The clients' requests of one step share a window and
#: so one latency, and a few same-shard pairs beside a pending overlay edge
#: cost 10x the rest, so a window's latency varies a lot: the ETA figures
#: need many windows per run to be steady.
STACK_CLIENTS = 16
STACK_ETA_STEPS = 16
#: nyc-stack's catalogue of cross-shard pairs: twelve rounds' worth, so the
#: boundary-route latencies are dense rather than a few steps
STACK_CROSS_PAIRS = 108
#: times each nyc-stack route is asked per phase: two of every three
#: seeded route requests are result-cache hits, which puts the route median
#: inside the tight cluster of cache hits instead of on the wide spread of
#: boundary-route costs
STACK_ASKS = 3


@dataclass
class Inputs:
    """The generated graph and flows, as the benchmark keeps them."""

    dataset: object
    num_vertices: int
    base: dict  # (lo, hi) -> weight
    edges: list  # [(lo, hi), ...] in generator order
    predicted: np.ndarray  # timesteps x vertices
    total_flow: np.ndarray
    digest: str

    @classmethod
    def generate(cls, dataset_name: str, scale: float) -> "Inputs":
        dataset = load_dataset(dataset_name, scale=scale, days=DAYS, seed=GRAPH_SEED)
        frn = dataset.frn
        base = {}
        for u, v, w in frn.graph.edges():
            base[(u, v) if u < v else (v, u)] = float(w)
        h = hashlib.sha256()
        for (u, v), w in sorted(base.items()):
            h.update(f"{u} {v} {w}\n".encode())
        return cls(
            dataset=dataset,
            num_vertices=frn.num_vertices,
            base=base,
            edges=list(base),
            predicted=np.array(frn.predicted_flow.matrix, dtype=np.float64),
            total_flow=np.array(frn.total_predicted_flow(), dtype=np.float64),
            digest=h.hexdigest()[:16],
        )


class Op(NamedTuple):
    """One operation as recorded.  The timed loop stores plain tuples of
    numbers and strings (see the ``*_op`` helpers), which the cyclic garbage
    collector stops tracking, so the record does not lengthen the program's
    collection pauses; the checks wrap them in this view afterwards."""

    kind: str  # "route" | "eta" | "update"
    state: int  # index into Run.states
    payload: tuple  # (s, t, timestep) | (u, v) | ("weight", u, v, w) | ("flow", v, f)
    answer: object  # Answer fields | distance | (applied, reason)
    latency: float
    tag: str = ""


class Answer(NamedTuple):
    """The fields of a route answer the checks read."""

    path: tuple
    distance: float
    flow: float
    score: float
    shortest_distance: float
    source: str


def route_op(state, query, served, latency, tag=""):
    r = served.result
    answer = (r.path, r.distance, r.flow, r.score, r.shortest_distance, served.source)
    return ("route", state, (query.source, query.target, query.timestep), answer, latency, tag)


def eta_op(state, u, v, served, latency):
    value = served if isinstance(served, float) else served.value
    return ("eta", state, (u, v), float(value), latency, "")


def update_op(state, update, outcome, latency):
    if isinstance(update, WeightUpdate):
        payload = ("weight", update.u, update.v, update.value)
    else:
        payload = ("flow", update.vertex, update.value)
    return ("update", state, payload, (outcome.applied, outcome.reason), latency, "")


@dataclass
class Run:
    """Everything a timed phase recorded, for the checks and the metrics."""

    ops: list = field(default_factory=list)
    #: per graph state: the weight overrides in force
    states: list = field(default_factory=list)
    rounds: int = 0
    seconds: float = 0.0
    peak_rss_mb: float = 0.0
    extra: dict = field(default_factory=dict)


def _random_pair(rng, n: int) -> tuple[int, int]:
    while True:
        s, t = (int(x) for x in rng.integers(0, n, 2))
        if s != t:
            return s, t


def _timesteps(inputs: Inputs) -> int:
    return inputs.predicted.shape[0]


class Workload:
    """Shared round logic; subclasses build the stack and send reads."""

    def __init__(self, spec: Spec, size: str, seed: int) -> None:
        self.spec = spec
        self.size = size
        self.seed = seed
        self.scale = SCALES[size][spec.dataset]
        self.timestamp = 0.0
        self.faults = FAULT_QUERIES[size] if spec.name == "nyc-stack" else ()
        # the tail percentiles need min_rounds; the smoke run only needs two
        self.min_rounds = spec.min_rounds if size == "full" else 2

    # -- inputs ---------------------------------------------------------
    def round_inputs(self, rng, inputs: Inputs):
        """The reads of both phases and the set burst of one round, drawn
        from the seeded stream (the restore burst undoes the set burst)."""
        phases = [self.reads(rng, inputs, phase) for phase in range(2)]
        n = inputs.num_vertices
        edges = [self._draw(rng, "edges") for _ in range(self.spec.weight_updates)]
        factors = rng.uniform(1.3, 2.0, len(edges))
        congested = {e: float(round(inputs.base[e] * f)) for e, f in zip(edges, factors)}
        vertices = [int(v) for v in rng.integers(0, n, self.spec.flow_updates)]
        flows = {
            v: float(inputs.total_flow[v] * f)
            for v, f in zip(vertices, rng.uniform(1.5, 3.0, len(vertices)))
        }
        return phases, congested, flows

    def reads(self, rng, inputs: Inputs, phase: int):
        """Uniform routes, each with ETAs from its origin."""
        n = inputs.num_vertices
        routes = []
        for _ in range(self.spec.routes):
            s, t = _random_pair(rng, n)
            etas = [(s, int(d)) for d in rng.integers(0, n, self.spec.etas_per_route)]
            routes.append((FSPQuery(s, t, int(rng.integers(_timesteps(inputs)))), etas))
        return routes

    def catalogues(self, inputs: Inputs) -> dict:
        """Fixed, seed-independent catalogues that rounds draw from.

        A weight repair costs 2-17 ms on NYC-S, 31-910 ms on COL and
        90-250 ms through the sharded gateway, depending on the edge; with
        tens to hundreds of updates per run, fresh edges per seed made
        ``update_p50_us`` follow the seed.  Congested edges therefore come
        from a fixed catalogue that every run covers evenly, in an order,
        and with factors, drawn from ``--seed``.
        """
        fixed = np.random.default_rng(GRAPH_SEED + 1)
        picks = fixed.choice(len(inputs.edges), self.spec.edge_catalogue, replace=False)
        return {"edges": [inputs.edges[int(i)] for i in picks]}

    def _draw(self, rng, catalogue: str):
        """The next item of a catalogue; each pass is a seeded permutation."""
        queue = self._queues.setdefault(catalogue, [])
        if not queue:
            items = self._catalogues[catalogue]
            queue.extend(items[int(i)] for i in rng.permutation(len(items)))
        return queue.pop()

    def _next_ts(self) -> float:
        self.timestamp += 1.0
        return self.timestamp

    # -- stack ------------------------------------------------------------
    async def setup(self):
        """Generate the inputs, build the stack and warm it up."""
        raise NotImplementedError

    async def close(self, stack) -> None:
        pass

    def register(self, tracer, stack) -> None:
        """Name the engines whose spans the per-layer metrics tell apart."""

    def label_indexes(self, stack) -> list:
        """The label indexes whose size the per-layer metrics report."""
        raise NotImplementedError

    async def run(self, inputs: Inputs, stack, clock: "Clock") -> Run:
        raise NotImplementedError


class Clock:
    """The timed phase: whole rounds until both ``min_rounds`` and
    ``seconds`` are reached.  Extra set-ups run between rounds at the given
    offsets and are left off the clock."""

    def __init__(self, seconds, min_rounds, extra_setup, offsets) -> None:
        self.seconds = seconds
        self.min_rounds = min_rounds
        self.extra_setup = extra_setup
        self.offsets = list(offsets)
        self.paused = 0.0
        self.start = perf()

    def elapsed(self) -> float:
        return perf() - self.start - self.paused

    def more(self, rounds: int) -> bool:
        return rounds < self.min_rounds or self.elapsed() < self.seconds

    async def between_rounds(self) -> None:
        while self.offsets and self.elapsed() >= self.offsets[0]:
            self.offsets.pop(0)
            pause = perf()
            await self.extra_setup()
            self.paused += perf() - pause


# ----------------------------------------------------------------------
# nyc-route / col-route: one ResilientEngine, one sequential client
# ----------------------------------------------------------------------
class RouteWorkload(Workload):
    """A closed loop of route requests with ETAs from the same origin."""

    async def setup(self):
        inputs = Inputs.generate(self.spec.dataset, self.scale)
        frn = inputs.dataset.frn
        index = FAHLIndex.from_frn(frn)
        engine = ResilientEngine(
            frn, index=index, alpha=ALPHA, eta_u=ETA_FACTOR,
            pruning=self.spec.pruning, max_retries=0, backoff=0.0,
        )
        warm = np.random.default_rng(GRAPH_SEED)
        for _ in range(4):
            s, t = _random_pair(warm, inputs.num_vertices)
            engine.query(FSPQuery(s, t, 0))
            engine.distance(t, s)
        return inputs, {"engine": engine, "index": index}

    async def run(self, inputs, stack, clock) -> Run:
        engine = stack["engine"]
        self._catalogues, self._queues = self.catalogues(inputs), {}
        rng = np.random.default_rng(self.seed)
        out = Run()
        overrides: dict = {}
        while clock.more(out.rounds):
            phases, congested, _ = self.round_inputs(rng, inputs)
            for phase, burst in ((0, congested), (1, {e: inputs.base[e] for e in congested})):
                state = len(out.states)
                out.states.append(dict(overrides))
                for query, etas in phases[phase]:
                    t0 = perf()
                    answer = engine.query(query)
                    out.ops.append(route_op(state, query, answer, perf() - t0))
                    for u, v in etas:
                        t0 = perf()
                        value = engine.distance(u, v)
                        out.ops.append(eta_op(state, u, v, value, perf() - t0))
                for (u, v), w in burst.items():
                    update = WeightUpdate(u, v, w, timestamp=self._next_ts())
                    t0 = perf()
                    outcome = engine.submit(update)
                    out.ops.append(update_op(state, update, outcome, perf() - t0))
                    overrides[(u, v)] = w
                overrides = {e: w for e, w in overrides.items() if w != inputs.base[e]}
            out.rounds += 1
            await clock.between_rounds()
        out.seconds = clock.elapsed()
        out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return out

    def label_indexes(self, stack) -> list:
        return [stack["index"]]


# ----------------------------------------------------------------------
# nyc-stack: AsyncGateway -> ShardedGateway -> ResilientEngine -> ...
# ----------------------------------------------------------------------
class StackWorkload(Workload):
    """Concurrent asyncio clients through the whole serving stack."""

    async def setup(self):
        inputs = Inputs.generate(self.spec.dataset, self.scale)
        frn = inputs.dataset.frn
        gateway = ShardedGateway(
            frn, num_shards=4, alpha=ALPHA, eta_u=ETA_FACTOR,
            pruning=self.spec.pruning, update_mode="overlay",
            max_retries=0, backoff=0.0,
        )
        # window 0: one event-loop tick coalesces whatever the closed-loop
        # clients have pending, instead of sleeping 1.5 ms per window
        front = AsyncGateway(gateway, window_seconds=0.0)
        warm = np.random.default_rng(GRAPH_SEED)
        for _ in range(4):
            s, t = _random_pair(warm, inputs.num_vertices)
            await front.aquery(FSPQuery(s, t, 0))
            await front.adistance(t, s)
        return inputs, {"gateway": gateway, "front": front}

    async def close(self, stack) -> None:
        await stack["front"].aclose()

    def label_indexes(self, stack) -> list:
        return [engine.index for engine in stack["gateway"].shards]

    def register(self, tracer, stack) -> None:
        gateway = stack["gateway"]
        tracer.roles[id(gateway.flow_engine)] = "boundary"
        for engine in gateway.shards:
            tracer.roles[id(engine.flow_engine)] = "shard"

    def reads(self, rng, inputs: Inputs, phase: int):
        """Phase A: 5 cross-shard routes; phase B: 1 same-shard and 4
        cross-shard routes; each phase then asks its routes twice more,
        answered by the result cache (popular pairs repeat).  Cross-shard
        pairs come from a fixed catalogue in a seeded order (see
        :meth:`catalogues`).  The ETAs are 16 steps of 16 concurrent
        lookups; the last four steps repeat pairs of the first twelve."""
        n = inputs.num_vertices
        steps = _timesteps(inputs)
        routes = []
        if phase == 1:
            while True:
                s, t = _random_pair(rng, n)
                if self._plan.shard(s) == self._plan.shard(t):
                    break
            routes.append(FSPQuery(s, t, int(rng.integers(steps))))
        while len(routes) < self.spec.routes:
            s, t = self._draw(rng, "cross")
            routes.append(FSPQuery(s, t, int(rng.integers(steps))))
        routes = routes * STACK_ASKS
        repeats = STACK_ETA_STEPS // 4
        etas = [
            [_random_pair(rng, n) for _ in range(STACK_CLIENTS)]
            for _ in range(STACK_ETA_STEPS - repeats)
        ]
        flat = [pair for step in etas for pair in step]
        for _ in range(repeats):
            repeat = rng.integers(0, len(flat), STACK_CLIENTS)
            etas.append([flat[int(i)] for i in repeat])
        return routes, etas

    def catalogues(self, inputs: Inputs) -> dict:
        # a boundary route costs 40-560 ms depending on the pair; with ~100
        # per run, fresh pairs per seed made route_p50_ms follow the seed
        out = super().catalogues(inputs)
        fixed = np.random.default_rng(GRAPH_SEED + 2)
        cross = []
        while len(cross) < STACK_CROSS_PAIRS:
            s, t = _random_pair(fixed, inputs.num_vertices)
            if self._plan.shard(s) != self._plan.shard(t):
                cross.append((s, t))
        out["cross"] = cross
        return out

    async def run(self, inputs, stack, clock) -> Run:
        gateway = stack["gateway"]
        front = stack["front"]
        self._plan = gateway.plan
        self._catalogues, self._queues = self.catalogues(inputs), {}
        rng = np.random.default_rng(self.seed)
        out = Run()
        overrides: dict = {}
        pending_edges = []
        async_wall = 0.0
        async_requests = async_etas = 0
        stats0 = gateway.cache.stats()

        async def eta_client(state, pairs):
            for u, v in pairs:
                t0 = perf()
                value = await front.adistance(u, v)
                out.ops.append(eta_op(state, u, v, value, perf() - t0))

        while clock.more(out.rounds):
            phases, congested, flows = self.round_inputs(rng, inputs)
            bursts = (
                (congested, flows),
                ({e: inputs.base[e] for e in congested},
                 {v: float(inputs.total_flow[v]) for v in flows}),
            )
            for phase, (weights, flow_burst) in enumerate(bursts):
                routes, etas = phases[phase]
                state = len(out.states)
                out.states.append(dict(overrides))
                wave = perf()
                columns = [[step[c] for step in etas] for c in range(STACK_CLIENTS)]
                await asyncio.gather(*(eta_client(state, col) for col in columns))
                tagged = [(q, "") for q in routes]
                if phase == 0:
                    tagged = [(FSPQuery(*f), "fault") for f in self.faults] + tagged
                for query, tag in tagged:
                    t0 = perf()
                    answer = await front.aquery(query)
                    out.ops.append(route_op(state, query, answer, perf() - t0, tag))
                async_wall += perf() - wave
                async_requests += sum(len(c) for c in columns) + len(tagged)
                async_etas += sum(len(c) for c in columns)
                # fold the overlay these reads used, then absorb the next
                # burst: the following read phase sees a non-empty overlay
                gateway.consolidate()
                for (u, v), w in weights.items():
                    update = WeightUpdate(u, v, w, timestamp=self._next_ts())
                    t0 = perf()
                    outcome = gateway.submit(update)
                    out.ops.append(update_op(state, update, outcome, perf() - t0))
                    overrides[(u, v)] = w
                for v, f in flow_burst.items():
                    update = FlowUpdate(v, f, timestamp=self._next_ts())
                    t0 = perf()
                    outcome = gateway.submit(update)
                    out.ops.append(update_op(state, update, outcome, perf() - t0))
                pending_edges.append(
                    sum(len(e.overlay) for e in gateway.shards if e.overlay is not None)
                )
                overrides = {e: w for e, w in overrides.items() if w != inputs.base[e]}
            out.rounds += 1
            await clock.between_rounds()
        out.seconds = clock.elapsed()
        out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        stats1 = gateway.cache.stats()
        out.extra.update(
            async_wall_s=async_wall,
            async_requests=async_requests,
            async_etas=async_etas,
            cache_hits=stats1.hits - stats0.hits,
            cache_misses=stats1.misses - stats0.misses,
            pending_edges=pending_edges,
        )
        return out


def make(name: str, size: str, seed: int) -> Workload:
    spec = SPECS[name]
    cls = StackWorkload if name == "nyc-stack" else RouteWorkload
    return cls(spec, size, seed)


def _forked(fn):
    """Run ``fn`` in a forked child and return its JSON-able result.

    Extra set-ups run this way, so the stack they build never shares the
    measured process's memory: ``peak_rss_mb`` counts one stack."""
    sys.stdout.flush()
    sys.stderr.flush()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        code = 1
        try:
            os.close(read)
            with os.fdopen(write, "w") as out:
                json.dump(fn(), out)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"extra set-up in child {pid} failed ({status})")
    return json.loads(data)


def run_workload(workload: Workload, seconds: float, tracer=None):
    """Set up ``spec.setups`` times (``setup_s`` is the median) and run the
    timed phase on the first stack."""
    spec = workload.spec
    setups, builds = [], []

    async def timed_setup():
        gc.collect()
        recording = tracer is not None and tracer.on
        if tracer is not None:
            tracer.on = False
            built = tracer.build_s
        start = perf()
        inputs, stack = await workload.setup()
        setups.append(perf() - start)
        if tracer is not None:
            builds.append(tracer.build_s - built)
            tracer.on = recording
        return inputs, stack

    def child_setup():
        asyncio.run(timed_setup())
        return setups[-1], builds[-1] if builds else None

    async def extra_setup():
        took, built = _forked(child_setup)
        setups.append(took)
        if built is not None:
            builds.append(built)

    async def main():
        inputs, stack = await timed_setup()
        # the label store's size after set-up and warm-up: later,
        # ``index_size_bytes`` counts the packed arena only while it is
        # current, which depends on the last update before the run ended
        indexes = workload.label_indexes(stack)
        label_store = {
            "entries_per_vertex": sum(i.index_size_entries() for i in indexes)
            / inputs.num_vertices,
            "index_mb": sum(i.index_size_bytes() for i in indexes) / 2**20,
        }
        between = spec.setups - 1 if spec.interleave_setups else 0
        offsets = [seconds * k / (between + 1) for k in range(1, between + 1)]
        if tracer is not None:
            tracer.reset()
            workload.register(tracer, stack)
            tracer.on = True
        run = await workload.run(
            inputs, stack, Clock(seconds, workload.min_rounds, extra_setup, offsets)
        )
        run.extra.update(label_store)
        if tracer is not None:
            tracer.on = False
        await workload.close(stack)
        del stack
        gc.collect()
        while len(setups) < spec.setups:
            await extra_setup()
        return inputs, run

    inputs, run = asyncio.run(main())
    run.extra["setup_s"] = statistics.median(setups)
    if builds:
        run.extra["build_s"] = statistics.median(builds)
    return inputs, run
