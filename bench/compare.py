"""Compare benchmark result files by the rules of the choosing-metrics guide.

Usage::

    python3 bench/compare.py BASE_RUN...                     # medians, quartiles, spread
    python3 bench/compare.py BASE_RUN... --change CHANGE_RUN...

Each RUN is a file written by ``bench/run.py --out``.  For every workload
and end-to-end metric of ``BENCHMARK.json`` this prints the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread (inter-quartile
distance / median) against the metric's bound.

With ``--change``, base and change runs pair up in the order given (run
them alternately: base 1, change 1, base 2, ...), and each metric gets a
verdict:

* ``unresolved`` — the base spread is wider than the bound and not every
  change run reads better than every base run;
* ``worse`` — the change median is worse than the base median by more
  than the bound;
* ``better`` — the change wins at least 9 of every 10 pairs (ties count
  for neither side) and the medians differ by more than the base's
  inter-quartile distance;
* ``same`` — none of the above.

Output digests and failure counts must also agree between base and
change runs made with the same seed; any difference is reported.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List

import common


def _load(paths: List[str]) -> List[Dict]:
    runs = []
    for path in paths:
        with open(path) as handle:
            runs.append(json.load(handle))
    return runs


def _values(runs: List[Dict], workload: str, metric: str) -> List[float]:
    out = []
    for run in runs:
        entry = run["workloads"].get(workload, {}).get("metrics", {}).get(metric)
        if entry is not None:
            out.append(float(entry["value"] if isinstance(entry, dict) else entry))
    return out


def verdict(base: List[float], change: List[float], better: str, bound: float) -> str:
    """The guide's verdict for one (workload, metric) pairing."""
    sign = 1.0 if better == "higher" else -1.0
    q1, mid, q3 = common.quartiles(base)
    change_mid = common.median(change)
    all_better = min(sign * c for c in change) > max(sign * b for b in base)
    if common.spread(base) > bound and not all_better:
        return "unresolved"
    if sign * (change_mid - mid) < -bound * abs(mid):
        return "worse"
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(change_mid - mid) > q3 - q1 \
            and sign * (change_mid - mid) > 0:
        return "better"
    return "same"


def _determinism(base: List[Dict], change: List[Dict]) -> List[str]:
    problems = []
    for run in base + change:
        for name, result in run["workloads"].items():
            if result.get("failed"):
                problems.append(f"{name} seed {run['seed']}: {result['failed']} failed")
    by_seed: Dict = {}
    for run in base + change:
        for name, result in run["workloads"].items():
            digests = [rep["digest"] for rep in result.get("reps", [])]
            facts = [rep.get("facts", {}) for rep in result.get("reps", [])]
            key = (name, run["seed"])
            if key in by_seed:
                seen_digests, seen_facts = by_seed[key]
                k = min(len(seen_digests), len(digests))
                if digests[:k] != seen_digests[:k] or facts[:k] != seen_facts[:k]:
                    problems.append(f"{name} seed {run['seed']}: outputs differ between runs")
            else:
                by_seed[key] = (digests, facts)
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", nargs="+", help="result files of the base (parent)")
    parser.add_argument("--change", nargs="+", default=[], help="result files of the change")
    args = parser.parse_args()
    base, change = _load(args.base), _load(args.change)
    metrics = common.spec()["end_to_end"]
    workloads = [w for w in (m["name"] for m in common.spec()["workloads"])
                 if any(w in run["workloads"] for run in base)]

    header = f"{'workload':16s} {'metric':18s} {'n':>3s} {'median':>12s} {'q1':>12s} " \
             f"{'q3':>12s} {'spread':>7s} {'bound':>6s}"
    if change:
        header += f" {'change med':>12s} {'delta':>8s} {'wins':>6s}  verdict"
    print(header)
    for workload in workloads:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            values = _values(base, workload, name)
            if not values:
                continue
            q1, mid, q3 = common.quartiles(values)
            line = (f"{workload:16s} {name:18s} {len(values):3d} {mid:12.6g} {q1:12.6g} "
                    f"{q3:12.6g} {common.spread(values):7.3f} {bound:6.2f}")
            after = _values(change, workload, name)
            if after:
                sign = 1.0 if metric["better"] == "higher" else -1.0
                wins = sum(1 for b, c in zip(values, after) if sign * (c - b) > 0)
                delta = (common.median(after) - mid) / abs(mid) if mid else float("inf")
                line += (f" {common.median(after):12.6g} {delta:+8.3f} "
                         f"{wins:3d}/{min(len(values), len(after)):<2d}  "
                         f"{verdict(values, after, metric['better'], bound)}")
            elif name != "setup_s" and common.spread(values) > bound / 3:
                line += "  (spread above a third of the bound)"
            print(line)
    problems = _determinism(base, change)
    for problem in problems:
        print(f"DIFFERS: {problem}")
    print("outputs: identical across runs with the same seed, no failures"
          if not problems else f"outputs: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
