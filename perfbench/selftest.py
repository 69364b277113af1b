"""Self-test of the benchmark's checks, plus a tiny smoke run.

    python3 perfbench/selftest.py               # checker self-test + smoke run
    python3 perfbench/selftest.py --find-faults # regenerate FAULT_QUERIES

The self-test feeds the checks corrupted answers (a hop along a non-edge, a
distance off by one edge weight, an ETA one too large, an ETA from before an
update, a route that is not the best-scoring candidate, and a hop along a
non-edge on a route tagged as the named fault's) and fails unless every one
is caught.  The smoke run drives all three workloads at the tiny
size and fails unless the only failed operations are the named nyc-stack
fault's.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from repro import FSPQuery, ResilientEngine, ShardedGateway  # noqa: E402
from repro.core.fahl import FAHLIndex  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from run import verify  # noqa: E402


def _engine(inputs):
    frn = inputs.dataset.frn
    return ResilientEngine(
        frn, index=FAHLIndex.from_frn(frn), alpha=workloads.ALPHA,
        eta_u=workloads.ETA_FACTOR, pruning="none",
    )


def self_test() -> list[str]:
    """Each corruption must be reported; returns what slipped through."""
    inputs = workloads.Inputs.generate("NYC", workloads.SCALES["tiny"]["NYC"])
    engine = _engine(inputs)
    base = checks.GraphState(inputs.num_vertices, inputs.base, {})
    rng = np.random.default_rng(3)
    missed = []

    def expect(name, problem):
        if problem is None:
            missed.append(name)

    s, t = workloads._random_pair(rng, inputs.num_vertices)
    query = FSPQuery(s, t, 5)
    result = engine.query(query).result
    flows = inputs.predicted[query.timestep]
    args = (workloads.ETA_FACTOR,)
    assert checks.check_route(base, flows, s, t, result, *args) is None
    assert checks.check_optimal(
        base, flows, s, t, result, workloads.ETA_FACTOR, workloads.ALPHA,
        workloads.MAX_CANDIDATES,
    ) == (None, True)

    # a hop along a non-edge: splice a vertex that is not adjacent
    path = list(result.path)
    far = next(
        v for v in range(inputs.num_vertices)
        if v not in path and base.weight(path[0], v) is None
    )
    bad = dataclasses.replace(result, path=tuple([path[0], far] + path[1:]))
    expect("non-edge hop", checks.check_route(base, flows, s, t, bad, *args))

    # a distance off by one edge weight
    extra = base.weight(path[0], path[1])
    bad = dataclasses.replace(result, distance=result.distance + extra)
    expect("distance off by an edge", checks.check_route(base, flows, s, t, bad, *args))

    # an ETA that is 1 too large
    eta = engine.distance(s, t).value
    expect("eta + 1", checks.check_eta(base, s, t, eta + 1.0))

    # an ETA from before an update: raise an edge on the s-t shortest path
    u, v = path[0], path[1]
    raised = checks.GraphState(
        inputs.num_vertices, inputs.base,
        {(min(u, v), max(u, v)): inputs.base[(min(u, v), max(u, v))] * 10},
    )
    expect("stale eta", checks.check_eta(raised, s, t, eta))

    # a route that is not the best-scoring candidate: the second candidate,
    # reported with its own true distance, flow and score
    paths, _ = checks.first_paths(
        base, s, t, workloads.ETA_FACTOR * result.shortest_distance,
        workloads.MAX_CANDIDATES,
    )
    other = next(p for d, p in paths if p != tuple(result.path))
    length = checks.path_length(base, other)
    bad = dataclasses.replace(
        result, path=other, distance=length,
        flow=float(sum(flows[x] for x in other)),
    )
    assert checks.check_route(base, flows, s, t, bad, *args) is None
    problem, _ = checks.check_optimal(
        base, flows, s, t, bad, workloads.ETA_FACTOR, workloads.ALPHA,
        workloads.MAX_CANDIDATES,
    )
    expect("not the best candidate", problem)

    # a fault-tagged route is excused only a failed Eq. 1 check: a hop along
    # a non-edge on one must still be reported
    fault = FSPQuery(*workloads.FAULT_QUERIES["tiny"][0])
    record = workloads.route_op(0, fault, engine.query(fault), 0.0, "fault")
    answer = workloads.Answer(*record[3])
    path = list(answer.path)
    far = next(
        v for v in range(inputs.num_vertices)
        if v not in path and base.weight(path[0], v) is None
    )
    bad = answer._replace(path=tuple([path[0], far] + path[1:]))
    run = workloads.Run(ops=[record[:3] + (tuple(bad),) + record[4:]], states=[{}])
    _, failed, problems, _ = verify(workloads.make("nyc-stack", "tiny", 1), inputs, run)
    caught = problems[0] if problems and failed["route"] == 1 else None
    expect("non-edge hop on a fault query", caught)
    return missed


def find_faults(size: str) -> list[tuple[int, int, int]]:
    """As many same-shard queries as ``FAULT_QUERIES[size]`` holds whose
    shard-routed answer fails the Eq. 1 check."""
    count = len(workloads.FAULT_QUERIES[size])
    inputs = workloads.Inputs.generate("NYC", workloads.SCALES[size]["NYC"])
    gateway = ShardedGateway(
        inputs.dataset.frn, num_shards=4, alpha=workloads.ALPHA,
        eta_u=workloads.ETA_FACTOR, pruning="none", update_mode="overlay",
        max_retries=0, backoff=0.0,
    )
    base = checks.GraphState(inputs.num_vertices, inputs.base, {})
    rng = np.random.default_rng(2024)
    found = []
    tried = 0
    while len(found) < count and tried < 400:
        s, t = workloads._random_pair(rng, inputs.num_vertices)
        if gateway.plan.shard(s) != gateway.plan.shard(t):
            continue
        query = FSPQuery(s, t, int(rng.integers(inputs.predicted.shape[0])))
        answer = gateway.query(query)
        if answer.source != "shard":
            continue
        tried += 1
        flows = inputs.predicted[query.timestep]
        problem, resolved = checks.check_optimal(
            base, flows, s, t, answer.result, workloads.ETA_FACTOR,
            workloads.ALPHA, workloads.MAX_CANDIDATES,
        )
        if problem is not None:
            found.append((s, t, query.timestep))
            print(f"fault: {query} after {tried} shard-routed queries: {problem}")
    return found


def smoke() -> list[str]:
    """All three workloads at the tiny size; only the named fault may fail."""
    bad = []
    for name in sorted(workloads.SPECS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", "1", "--seconds", "1", "--size", "tiny"],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            bad.append(f"{name}: exit {proc.returncode}: {proc.stderr[-400:]}")
            continue
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        ops = json.loads(next(x for x in lines if x.startswith("ops "))[4:])
        faults = len(workloads.FAULT_QUERIES["tiny"]) if name == "nyc-stack" else 0
        rounds = int(next(x for x in lines if x.startswith("rounds ")).split()[1])
        print(f"{name}: {json.dumps(ops)} correct={result['correct']}")
        if not result["correct"]:
            bad.append(f"{name}: unexpected failures")
        if result["failed"] != faults * rounds:
            bad.append(f"{name}: {result['failed']} failed, expected {faults * rounds}")
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--find-faults", action="store_true")
    parser.add_argument("--size", default="full", choices=sorted(workloads.SCALES))
    args = parser.parse_args(argv)
    if args.find_faults:
        print(find_faults(args.size))
        return 0
    missed = self_test()
    print("checker self-test: " + ("ok" if not missed else f"MISSED {missed}"))
    bad = smoke()
    for line in bad:
        print("smoke: " + line)
    return 1 if missed or bad else 0


if __name__ == "__main__":
    sys.exit(main())
