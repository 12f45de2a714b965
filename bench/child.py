"""Run one workload in this process and write its result as JSON.

Started by ``run.py`` (one process per workload), with ``src`` on
``PYTHONPATH`` and ``BENCH_SPAWNED_AT`` holding the wall-clock time the
runner started this process, so set-up time covers interpreter start and
imports.  Not meant to be run by hand; use ``run.py``.

Untraced (``--trace 0``): set up, then repeat the workload's fixed work
until ``--seconds`` of timed work is spent, and report the end-to-end
metrics.  ``--setup-only`` stops after set-up; the runner starts a few of
those so set-up time is a median over processes.

Traced (``--trace 1``): each repetition runs twice on the same inputs,
untraced then traced.  The pair must produce identical outputs, the ratio
of their wall times is the tracing overhead, and the traced half's spans
give the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import sys
import time
from typing import Dict, List

_SPAWNED_AT = float(os.environ.get("BENCH_SPAWNED_AT", time.time()))

import common  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

_IMPORTED_AT = time.time()

#: The fewest repetitions an untraced run makes, even when they outlast
#: ``--seconds``.
MIN_REPS = {"full": 3, "smoke": 1}


def wait_for_children(timeout_s: float = 60.0) -> bool:
    """Wait until every worker process this process started has exited.

    Pools are shut down without waiting; their workers flush spans at exit,
    so a repetition only counts as over once they are gone.
    """
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _keep_going(walls: List[float], seconds: float, minimum: int) -> bool:
    if len(walls) < minimum:
        return True
    return sum(walls) + common.median(walls) <= seconds


def _run_rep(workload, inputs, rep: int, tracer=None) -> workloads.Rep:
    gc.collect()
    result = workload.rep(inputs, rep, workloads.Client(tracer))
    if not wait_for_children():
        result.failures.append(f"rep {rep}: worker processes did not exit")
    return result


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(reps: List[workloads.Rep], setup: Dict) -> Dict[str, Dict]:
    """The end-to-end metrics of an untraced run, with sample counts."""
    walls = [rep.wall_s for rep in reps]
    latencies = [x for rep in reps for x in rep.latencies_s]
    metrics = {
        "setup_s": {"value": setup["setup_s"], "unit": "s",
                    "samples": 1, "stat": "process start to first timed call"},
        "wall_s": {"value": common.median(walls), "unit": "s",
                   "samples": len(walls), "stat": "p50 of reps"},
        "households_per_s": {
            "value": sum(rep.households for rep in reps) / sum(walls), "unit": "1/s",
            "samples": len(walls), "stat": "total household-days / total wall"},
        "latency_p50_ms": {"value": 1000.0 * common.median(latencies), "unit": "ms",
                           "samples": len(latencies), "stat": "p50 of client calls"},
        "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB",
                        "samples": 1, "stat": "self + largest child"},
    }
    if len(latencies) >= 100:
        # The highest percentile with at least ten samples beyond it.
        p90 = sorted(latencies)[int(0.9 * len(latencies))]
        metrics["latency_p90_ms"] = {"value": 1000.0 * p90, "unit": "ms",
                                     "samples": len(latencies), "stat": "p90 of client calls"}
    return metrics


def _merge(totals: Dict[int, Dict[str, Dict]], reps) -> Dict[str, Dict[str, float]]:
    merged: Dict[str, Dict[str, float]] = {}
    for rep in reps:
        for name, stats in totals.get(rep, {}).items():
            into = merged.setdefault(name, {})
            for key, value in stats.items():
                if key == "depth_max":
                    into[key] = max(into.get(key, 0), value)
                else:
                    into[key] = into.get(key, 0) + value
    return merged


def per_layer(totals, traced: List[workloads.Rep], overhead: float) -> Dict[str, float]:
    """The per-layer metrics, per traced repetition unless a rate or share."""
    n = len(traced)
    layers = _merge(totals, range(n))
    sampling = _merge(totals, [-1] + list(range(n))).get("profiles.sample", {})

    def get(name: str, key: str) -> float:
        return float(layers.get(name, {}).get(key, 0.0))

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    def signal(key: str) -> float:
        return sum(rep.signals.get(key, 0) for rep in traced) / n

    wall = sum(rep.wall_s for rep in traced)
    return {
        "greedy.solve_s": get("greedy.solve", "seconds") / n,
        "greedy.solve.calls": get("greedy.solve", "calls") / n,
        "arrays.compile_s": get("arrays.compile", "seconds") / n,
        "arrays.compile.calls": get("arrays.compile", "calls") / n,
        "profiles.sample_rows_per_s": rate(sampling.get("rows", 0), sampling.get("seconds", 0)),
        "placement.rows_per_s": rate(get("placement.place", "rows"),
                                     get("placement.place", "seconds")),
        "quarantine.rows_per_s": rate(get("quarantine.screen", "rows"),
                                      get("quarantine.screen", "seconds")),
        "quarantine.rows_flagged": get("quarantine.screen", "flagged") / n,
        "optimal.nodes": get("optimal.solve", "nodes") / n,
        "optimal.nodes_per_s": rate(get("optimal.solve", "nodes"), get("optimal.solve", "seconds")),
        "optimal.root_certified_days": get("optimal.solve", "root_certified") / n,
        "optimal.proven_fraction": rate(get("optimal.solve", "proven"), get("optimal.solve", "calls")),
        "relaxation.bound_calls": get("relaxation.bound", "calls") / n,
        "mechanism.settle_rows_per_s": rate(get("mechanism.settle", "rows"),
                                            get("mechanism.settle", "seconds")),
        "mechanism.consume_per_s": rate(get("mechanism.consume", "calls"),
                                        get("mechanism.consume", "seconds")),
        "parallel.busy_fraction": rate(get("parallel.task", "seconds"),
                                       get("parallel.map", "capacity_s")),
        "parallel.retries": max(0.0, get("parallel.task", "calls") - get("parallel.map", "tasks")) / n,
        "shm.bytes_packed": get("shm.pack", "bytes") / n,
        "queue.overload_rejections": signal("overload_rejections"),
        "queue.depth_max": get("queue.submit", "depth_max"),
        "service.pump_wait_fraction": rate(get("service.pump", "blocking_s"), wall),
        "supervisor.pool_replacements": signal("pool_replacements"),
        "service.degraded_shards": signal("degraded_shards"),
        "shard.households_per_s": rate(get("shard.settle", "rows"), get("shard.settle", "seconds")),
        "stream.rows_per_s": rate(get("stream.submit", "rows"), get("stream.submit", "seconds")),
        "stream.rows_late_or_dup": signal("rows_late_or_dup"),
        "checkpoint.bytes": signal("checkpoint_bytes"),
        "checkpoint.appends": get("checkpoint.append", "calls") / n,
        "trace.overhead_fraction": overhead,
    }


def _reference_failures(name: str, seed: int, reps: List[workloads.Rep]) -> List[str]:
    """Digests at the reference seed must match ``bench/reference.json``.

    A workload that draws fresh inputs per repetition has one reference
    digest per leading repetition; the others have one for every
    repetition.
    """
    with open(os.path.join(common.BENCH_DIR, "reference.json")) as handle:
        reference = json.load(handle)
    if seed != reference["seed"]:
        return []
    expected = reference["digests"][name]
    if not isinstance(expected, list):
        expected = [expected] * len(reps)
    return [
        f"rep {number}: digest differs from bench/reference.json"
        for number, (rep, want) in enumerate(zip(reps, expected))
        if rep.digest != want
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=tuple(workloads.SCALES), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="only import and build the inputs, then report set-up time")
    args = parser.parse_args()

    import numpy

    from repro.kernels import active_backend

    workload = workloads.make(args.workload, args.scale, common.WORKERS, args.workdir)
    tracer = tracing.Tracer(args.trace_dir) if args.trace else None

    if tracer is not None:
        tracer.install()
    started = time.perf_counter()
    inputs = workload.setup(args.seed)
    build_s = time.perf_counter() - started
    if tracer is not None:
        tracer.uninstall()
    setup = {
        "import_s": _IMPORTED_AT - _SPAWNED_AT,
        "build_s": build_s,
        "setup_s": time.time() - _SPAWNED_AT,
    }
    if args.setup_only:
        with open(args.result, "w") as handle:
            json.dump({"setup": setup}, handle)
        return 0

    failures: List[str] = []
    reps: List[workloads.Rep] = []
    traced: List[workloads.Rep] = []
    walls: List[float] = []
    while _keep_going(walls, args.seconds, MIN_REPS[args.scale] if not tracer else 1):
        number = len(reps)
        plain = _run_rep(workload, inputs, number)
        reps.append(plain)
        if tracer is None:
            walls.append(plain.wall_s)
            continue
        tracer.rep = number
        tracer.install()
        try:
            again = _run_rep(workload, inputs, number, tracer)
        finally:
            tracer.uninstall()
        traced.append(again)
        walls.append(plain.wall_s + again.wall_s)
        if (again.digest, again.facts) != (plain.digest, plain.facts):
            failures.append(f"rep {number}: traced outputs differ from untraced")

    everything = reps + traced
    for rep in everything:
        failures += rep.failures
    if not workload.rep_keyed and len({rep.digest for rep in everything}) > 1:
        failures.append("repetitions on identical inputs produced different outputs")
    if args.scale == "full":
        failures += _reference_failures(workload.name, args.seed, reps)
    if hasattr(workload, "oracle_checks"):
        failures += workload.oracle_checks(inputs, reps)

    attempted = sum(rep.units for rep in everything)
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "env": {"numpy": numpy.__version__, "kernel_backend": active_backend(),
                "workers": common.WORKERS},
        "setup": setup,
        "reps": [
            {"wall_s": rep.wall_s, "households": rep.households, "units": rep.units,
             "calls": len(rep.latencies_s), "digest": rep.digest,
             "facts": {k: v for k, v in rep.facts.items() if k != "shard_digests"},
             "signals": rep.signals}
            for rep in reps
        ],
        "attempted": attempted,
        "failed": min(len(failures), attempted) if failures else 0,
        "failures": failures[:50],
    }
    if tracer is None:
        result["metrics"] = end_to_end(reps, setup)
    else:
        tracer.flush()
        totals = tracing.layer_totals(tracing.load_spans(args.trace_dir))
        ratios = [t.wall_s / p.wall_s for p, t in zip(reps, traced)]
        overhead = common.median(ratios) - 1.0
        result["metrics"] = per_layer(totals, traced, overhead)
        result["traced_reps"] = [{"wall_s": rep.wall_s} for rep in traced]
        result["layers"] = {
            name: {key: value / len(traced) for key, value in stats.items()
                   if key in ("calls", "seconds", "self_s")}
            for name, stats in sorted(_merge(totals, range(len(traced))).items())
        }
        result["missing_hooks"] = tracer.missing
        if tracer.missing:
            print(f"bench: not traced (no longer in the program): {tracer.missing}",
                  file=sys.stderr)
    with open(args.result, "w") as handle:
        json.dump(result, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
