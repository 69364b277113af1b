"""Steadiness: two interleaved sets of seeded runs, summarised per workload.

    python3 perfbench/steady.py --workloads nyc-route col-route nyc-stack \
        --seeds 1 2 3 4 5 6 7 8 9 10

Set A runs the given seeds, set B the same seeds plus 100.  The runs
alternate A and B run by run and across workloads, so a drift of the
machine's speed lands on both sets alike.  Every run's result is printed as
it ends (``run {...}``).  Then, per workload and set, each end-to-end metric's
median, quartiles (as ``statistics.quantiles(values, n=4)`` gives them), the
quartile distance as a share of the median and (max - min) / median; the
shift of set B's median against set A's in the metric's worse direction;
each against the metric's bound in BENCHMARK.json; and the attempted and
failed counts of each operation type.  The run length is ``run_seconds``
from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
#: set B's seeds are set A's plus this
SET_B_OFFSET = 100


def run_once(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
         "--trace", "0"],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["ops"] = json.loads(next(x for x in lines if x.startswith("ops "))[4:])
    return result


def summarise(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "iqr_share": (q3 - q1) / median,
            "range_share": (max(values) - min(values)) / median,
        }
    return summary


def report(workload: str, sets: dict[str, list[dict]]) -> bool:
    """Print one workload's summary; False if a spread or shift is out of
    its bound."""
    metrics = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    summaries = {key: summarise(runs) for key, runs in sets.items()}
    ok = True
    print(f"\n{workload}: sets of {len(sets['A'])} runs of {BENCHMARK['run_seconds']} s")
    print(f"{'metric':16s} {'set':3s} {'median':>13s} {'q1':>13s} {'q3':>13s} "
          f"{'iqr/med':>8s} {'range/med':>9s}")
    for name, spec in metrics.items():
        for key, summary in summaries.items():
            row = summary[name]
            mark = ""
            if name != "setup_s" and row["iqr_share"] > spec["bound"]:
                mark, ok = "  OVER BOUND", False
            elif name != "setup_s" and row["iqr_share"] > spec["bound"] / 3:
                mark = "  over bound/3"
            print(f"{name:16s} {key:3s} {row['median']:13.4f} {row['q1']:13.4f} "
                  f"{row['q3']:13.4f} {row['iqr_share']:8.3f} "
                  f"{row['range_share']:9.3f}  {spec['unit']}{mark}")
        a, b = summaries["A"][name]["median"], summaries["B"][name]["median"]
        worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
        mark = ""
        if worse > spec["bound"]:
            mark, ok = "  OVER BOUND", False
        print(f"{name:16s} B worse than A by {worse:+.3f} (bound {spec['bound']}){mark}")
    for key, runs in sets.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"set {key}: failed share per run {shares}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True,
                        choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    results: dict[str, dict[str, list]] = defaultdict(lambda: {"A": [], "B": []})
    for k, seed in enumerate(args.seeds):
        # alternate which set goes first
        order = ("A", "B") if k % 2 == 0 else ("B", "A")
        for workload in args.workloads:
            for key in order:
                run_seed = seed + (SET_B_OFFSET if key == "B" else 0)
                result = run_once(workload, run_seed)
                results[workload][key].append(result)
                print("run " + json.dumps({
                    "workload": workload, "set": key, "seed": run_seed,
                    "correct": result["correct"], "attempted": result["attempted"],
                    "failed": result["failed"], "ops": result["ops"],
                    "metrics": {n: m["value"] for n, m in result["metrics"].items()},
                }), flush=True)
    ok = all([report(w, results[w]) for w in args.workloads])
    correct = all(r["correct"] for w in results.values() for s in w.values() for r in s)
    print(f"\nall correct: {correct}; all within bounds: {ok}")
    return 0 if ok and correct else 1


if __name__ == "__main__":
    sys.exit(main())
