"""Before/after comparison of two parahn source trees with the benchmark.

    python3 tools/bench_pairs.py --before DIR --after DIR --out BENCH_<n>.json

Each tree is a checkout with its own `bench/` and `src/` (for example the
parent commit unpacked with `git archive` next to the working tree).  For
every workload and for seeds 1 and 7 the script runs `bench/run.py --trace 0`
alternately in the two trees, ten times each (the first run of a pair
alternates between the two sides), then one `--trace 1` run per side on
seed 1.  A run that reports a failed item (nonzero exit) stops the script.
It writes one JSON file with, per workload and seed:

* each end-to-end metric's median and quartiles on both sides, the ratio of
  the medians, the parent's quartile spread, and how many pairs the change
  won;
* the pass count and the failed-item count of every run;

and, from the traced runs, every per-layer metric of both sides with its
change, plus the names of any `*.calls` count that differs.  Runs go one at a
time: run the script on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("hn-ladder", "stratify-sweep", "cli-mix")
SEEDS = (1, 7)
PAIRS = 10
SECONDS = 24


def bench(tree: Path, workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    ctx = json.loads(lines[0])["context"]
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "passes": ctx.get("passes"),
        "source_sha256": ctx["source_sha256"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def quartiles(vals):
    if len(vals) < 2:
        return {"median": vals[0], "q1": vals[0], "q3": vals[0]}
    q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(runs_before, runs_after, better):
    out = {}
    for name in runs_before[0]["metrics"]:
        b = [r["metrics"][name] for r in runs_before]
        a = [r["metrics"][name] for r in runs_after]
        qb, qa = quartiles(b), quartiles(a)
        lower = better.get(name, "lower") == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, a))
        out[name] = {
            "before": qb,
            "after": qa,
            "after_over_before": qa["median"] / qb["median"] if qb["median"] else None,
            "before_iqr": qb["q3"] - qb["q1"],
            "median_gap_exceeds_before_iqr": abs(qa["median"] - qb["median"]) > qb["q3"] - qb["q1"],
            "after_wins": f"{wins}/{len(b)}",
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", type=Path, required=True)
    ap.add_argument("--after", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    spec = json.loads((args.after / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    doc = {
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count(),
                    "platform": platform.platform()},
        "method": f"{PAIRS} alternating before/after pairs of `bench/run.py "
                  f"--seconds {SECONDS} --trace 0` per workload and seed; one "
                  f"`--trace 1` run per side on seed {SEEDS[0]}",
        "workloads": {},
    }
    for workload in WORKLOADS:
        entry = doc["workloads"].setdefault(workload, {})
        for seed in SEEDS:
            before, after = [], []
            for i in range(PAIRS):
                order = ((before, args.before), (after, args.after))
                for runs, tree in order if i % 2 == 0 else order[::-1]:
                    runs.append(bench(tree, workload, seed, 0))
                print(f"{time.strftime('%H:%M:%S')} {workload} seed {seed} pair {i + 1}",
                      file=sys.stderr, flush=True)
            entry[f"seed_{seed}"] = {
                "correct": all(r["correct"] for r in before + after),
                "passes": {"before": [r["passes"] for r in before],
                           "after": [r["passes"] for r in after]},
                "failed": {"before": [r["failed"] for r in before],
                           "after": [r["failed"] for r in after]},
                "metrics": summarize(before, after, better),
            }
            doc["source_sha256"] = {"before": before[0]["source_sha256"],
                                    "after": after[0]["source_sha256"]}
        tb = bench(args.before, workload, SEEDS[0], 1)
        ta = bench(args.after, workload, SEEDS[0], 1)
        layers = {
            name: {"before": tb["metrics"][name], "after": ta["metrics"][name],
                   "delta": ta["metrics"][name] - tb["metrics"][name]}
            for name in tb["metrics"]
        }
        entry["traced"] = {
            "correct": tb["correct"] and ta["correct"],
            "failed": {"before": tb["failed"], "after": ta["failed"]},
            "calls_differ": [n for n, v in layers.items()
                             if n.endswith(".calls") and v["before"] != v["after"]],
            "per_layer": layers,
        }
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
