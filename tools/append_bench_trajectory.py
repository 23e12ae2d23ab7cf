#!/usr/bin/env python3
"""Appends one entry to the repo-root minebench perf trajectory.

A perf change is measured as alternating parent/change pairs of
`minebench/run.py` runs. Collect the last stdout line of each run (the
result object) into one file per side, in run order, then:

    python3 tools/append_bench_trajectory.py --pr N --workload fpm3-er \
        --seed 7 --parent parent.jsonl --change change.jsonl

Lines that are not JSON result objects are skipped, so raw run.py output
can be appended to the files as is. Run i of --parent pairs with run i of
--change. The entry records, per end-to-end metric, the median and
quartiles of both sides and how many pairs the change won (strictly better
in the direction BENCHMARK.json gives). --parent-commit defaults to HEAD,
the commit the change is measured against; --commit names the change's own
commit when it exists already.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

REPO_DIR = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_DIR / "BENCH_minebench.json"
SCHEMA = "gamma.bench_trajectory.v1"


def read_results(path):
    results = []
    for line in pathlib.Path(path).read_text().splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(doc, dict) and "metrics" in doc:
            results.append(doc)
    return results


def directions():
    """Metric name -> "lower" or "higher", from BENCHMARK.json."""
    spec = REPO_DIR / "BENCHMARK.json"
    if not spec.is_file():
        return {}
    doc = json.loads(spec.read_text())
    return {m["name"]: m["better"] for m in doc.get("end_to_end", [])}


def summary(values):
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def head_commit():
    proc = subprocess.run(["git", "-C", str(REPO_DIR), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--parent", required=True,
                        help="result lines of the parent's runs")
    parser.add_argument("--change", required=True,
                        help="result lines of the change's runs")
    parser.add_argument("--parent-commit", default=None)
    parser.add_argument("--commit", default=None)
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    args = parser.parse_args()

    parent = read_results(args.parent)
    change = read_results(args.change)
    pairs = min(len(parent), len(change))
    if pairs == 0:
        sys.exit("append_bench_trajectory: no result lines to pair")
    parent, change = parent[:pairs], change[:pairs]

    better = directions()
    metrics = {}
    for name in parent[0]["metrics"]:
        if not all(name in r["metrics"] for r in parent + change):
            continue
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        entry = {"unit": parent[0]["metrics"][name].get("unit"),
                 "parent": summary(p), "change": summary(c)}
        if name in better:
            sign = 1 if better[name] == "lower" else -1
            entry["better"] = better[name]
            entry["pairs_won"] = sum(
                1 for a, b in zip(p, c) if sign * (a - b) > 0)
        metrics[name] = entry

    out = pathlib.Path(args.out)
    doc = (json.loads(out.read_text()) if out.is_file()
           else {"schema": SCHEMA, "benchmark": "minebench", "entries": []})
    doc["entries"].append({
        "pr": args.pr,
        "commit": args.commit,
        "parent_commit": args.parent_commit or head_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "pairs": pairs,
        "all_correct": all(r.get("correct") for r in parent + change),
        "metrics": metrics,
    })
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"appended PR {args.pr} {args.workload} ({pairs} pairs) to {out}")


if __name__ == "__main__":
    main()
