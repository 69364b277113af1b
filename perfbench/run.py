"""Serving-stack benchmark: one seeded workload, timed, then checked.

Run from the repository root::

    python3 perfbench/run.py --workload nyc-route --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same
workload with per-layer spans and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from repro import FSPQuery  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

#: (name, unit) of every end-to-end metric
END_TO_END = (
    ("setup_s", "s"),
    ("route_p50_ms", "ms"),
    ("route_tail_ms", "ms"),
    ("eta_p50_us", "us"),
    ("eta_tail_us", "us"),
    ("update_p50_us", "us"),
    ("update_tail_us", "us"),
    ("throughput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
)
#: unit and scale of each operation type's latency metrics
LATENCY_UNITS = {"route": ("ms", 1e3), "eta": ("us", 1e6), "update": ("us", 1e6)}


def stamp(inputs, workload) -> dict:
    return {
        "workload": workload.spec.name,
        "seed": workload.seed,
        "size": workload.size,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "graph": {
            "dataset": workload.spec.dataset,
            "scale": workload.scale,
            "vertices": inputs.num_vertices,
            "edges": len(inputs.base),
            "digest": inputs.digest,
        },
    }


def verify(workload, inputs, run) -> tuple[Counter, Counter, list, dict]:
    """Check every operation; returns attempted/failed per type, the
    unexpected problems and counts of the sampled checks."""
    # imported here, after the timed phase has read its peak RSS: the
    # checker's libraries (scipy, networkx) are not the program's memory
    import checks

    spec = workload.spec
    ops = [workloads.Op(*record) for record in run.ops]
    attempted, failed = Counter(), Counter()
    problems: list[str] = []
    sampled = Counter()
    # the seeded sample of routes checked against the path enumeration;
    # on nyc-stack only boundary-routed answers, because shard-routed ones
    # are hit by the named fault on seed-dependent pairs
    eligible = [
        i for i, op in enumerate(ops)
        if op.kind == "route" and not op.tag
        and (spec.name != "nyc-stack" or op.answer[-1] == "boundary")
    ]
    pick = np.random.default_rng(workload.seed + 7919)
    sample = set(
        pick.choice(eligible, min(spec.optimal_samples, len(eligible)), replace=False)
        .tolist()
    ) if eligible else set()
    optimal_cache: dict = {}
    by_state = defaultdict(list)
    for i, op in enumerate(ops):
        by_state[op.state].append(i)
    for state_id, indices in sorted(by_state.items()):
        state = checks.GraphState(
            inputs.num_vertices, inputs.base, run.states[state_id]
        )
        state.prefetch(ops[i].payload[0] for i in indices if ops[i].kind != "update")
        for i in indices:
            op = ops[i]
            attempted[op.kind] += 1
            problem = None
            # the named fault: a fault-tagged route may fail the Eq. 1 check
            # and nothing else
            expected = False
            if op.kind == "eta":
                problem = checks.check_eta(state, *op.payload, op.answer)
            elif op.kind == "update":
                applied, reason = op.answer
                if not applied:
                    problem = f"update {op.payload} not applied: {reason}"
            else:
                query, result = FSPQuery(*op.payload), workloads.Answer(*op.answer)
                flows = inputs.predicted[query.timestep]
                problem = checks.check_route(
                    state, flows, query.source, query.target, result,
                    workloads.ETA_FACTOR,
                )
                if problem is None and (op.tag == "fault" or i in sample):
                    key = (query, result.path, result.score, state_id if not op.tag else -1)
                    if key not in optimal_cache:
                        if spec.pruning == "none":
                            optimal_cache[key] = checks.check_optimal(
                                state, flows, query.source, query.target, result,
                                workloads.ETA_FACTOR, workloads.ALPHA,
                                workloads.MAX_CANDIDATES,
                            )
                        else:
                            optimal_cache[key] = checks.check_in_prefix(
                                state, query.source, query.target, result,
                                workloads.MAX_CANDIDATES,
                            )
                    optimal, resolved = optimal_cache[key]
                    if op.tag == "fault":
                        expected = optimal is not None
                    else:
                        problem = optimal
                        sampled["checked" if resolved else "unresolved"] += 1
            if problem is not None:
                problems.append(problem)
            if problem is not None or expected:
                failed[op.kind] += 1
    return attempted, failed, problems, dict(sampled)


def percentile(values, p: float) -> float:
    return float(np.percentile(np.asarray(values), p))


def end_to_end(workload, run) -> dict:
    lat = defaultdict(list)
    for kind, _, _, _, latency, _ in run.ops:
        lat[kind].append(latency)
    metrics = {"setup_s": run.extra["setup_s"]}
    for kind, (unit, scale) in LATENCY_UNITS.items():
        values = lat[kind]
        tail = workload.spec.tails[kind]
        beyond = len(values) * (1 - tail / 100)
        if beyond < 10:
            print(
                f"warning: only {beyond:.1f} {kind} samples beyond p{tail}",
                file=sys.stderr,
            )
        metrics[f"{kind}_p50_{unit}"] = scale * percentile(values, 50)
        metrics[f"{kind}_tail_{unit}"] = scale * percentile(values, tail)
    metrics["throughput_rps"] = len(run.ops) / run.seconds
    metrics["peak_rss_mb"] = run.peak_rss_mb
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SCALES), default="full")
    args = parser.parse_args(argv)

    workload = workloads.make(args.workload, args.size, args.seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    started = time.perf_counter()
    inputs, run = workloads.run_workload(workload, args.seconds, tracer)
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, run.extra)
    checked = time.perf_counter()
    attempted, failed, problems, sampled = verify(workload, inputs, run)
    print(
        f"set-up and timed phase {checked - started:.1f} s, "
        f"checks {time.perf_counter() - checked:.1f} s",
        file=sys.stderr,
    )

    print("stamp " + json.dumps(stamp(inputs, workload)))
    print("ops " + json.dumps({
        kind: {"attempted": attempted[kind], "failed": failed[kind]}
        for kind in sorted(attempted)
    }))
    print(f"rounds {run.rounds}  timed {run.seconds:.2f} s  "
          f"enumeration checks {sampled}")
    for problem in problems[:10]:
        print("FAILED " + problem)
    values = end_to_end(workload, run)
    units = dict(END_TO_END)
    if tracer is not None:
        # the traced run's own end-to-end figures, against the untraced
        # run's, give the tracing overhead
        for name, value in values.items():
            print(f"  traced {name:21s} {value:14.4f} {units[name]}")
        values = layers
        units = dict(tracing.PER_LAYER)
    for name, value in values.items():
        print(f"  {name:28s} {value:14.4f} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": sum(attempted.values()),
        "failed": sum(failed.values()),
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
