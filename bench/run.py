"""Run the Enki benchmark: one or all workloads, each in its own process.

Usage, from the repository root::

    python3 bench/run.py                                # all five workloads
    python3 bench/run.py --workload day_n100k --seed 7 --seconds 15 --trace 0
    python3 bench/run.py --trace 1 --trace-dir spans/   # traced run, keep spans
    python3 bench/run.py --smoke                        # harness check, tiny sizes
    python3 bench/run.py --seed 2017 --out run.json     # keep the full result

Each workload runs in a fresh child process (``bench/child.py``) with
``src`` on ``PYTHONPATH``.  The runner times nothing itself; it checks
what a child cannot see about itself: tracebacks on its stderr (counted
into ``shm.tracker_errors``), shared-memory segments it left in
``/dev/shm``, and that every process it started has ended.

Standard output ends with one JSON line ``{"correct", "attempted",
"failed", "metrics"}``; ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` the per-layer ones.  With several
workloads, ``metrics`` maps each workload to its own.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

import common

#: Every run must end within this many seconds.
RUN_LIMIT_S = 175.0

#: Extra processes per untraced run that only set up; ``setup_s`` is the
#: median over them and the measuring process.
SETUP_PROBES = 2

#: Shared-memory name prefixes the program uses (day transport, service).
SHM_PREFIXES = ("enki", "svc")

_PR_SET_CHILD_SUBREAPER = 36


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _become_subreaper() -> None:
    """Adopt orphaned descendants so every process started can be awaited."""
    try:
        libc = ctypes.CDLL(None)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _reap(deadline: float) -> bool:
    """Wait for every child and adopted descendant; False if some outlive ``deadline``."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid == 0:
            if time.monotonic() > deadline:
                return False
            time.sleep(0.02)


def _shm_segments() -> set:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith(SHM_PREFIXES)}
    except OSError:
        return set()


def _source_digest() -> str:
    sha = hashlib.sha256()
    src = os.path.join(common.ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                sha.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    sha.update(handle.read())
    return sha.hexdigest()[:16]


def _commit() -> Optional[str]:
    if not os.path.isdir(os.path.join(common.ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", common.ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _count_tracebacks(text: str) -> int:
    return text.count("Traceback (most recent call last):")


def _spawn(command: List[str], workdir: str, deadline: float):
    """Run one child process to completion and wait for all it started.

    Returns ``(result or None, stderr text, problems)``; the result is
    the JSON the child wrote to ``--result``.
    """
    result_path = command[command.index("--result") + 1]
    if os.path.exists(result_path):
        os.remove(result_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(common.ROOT, "src")
    env["TMPDIR"] = os.path.join(workdir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    env["BENCH_SPAWNED_AT"] = repr(time.time())
    child = subprocess.Popen(
        command, cwd=common.ROOT, env=env, stdout=sys.stderr.fileno(),
        stderr=subprocess.PIPE, start_new_session=True,
    )
    problems: List[str] = []
    try:
        _, err = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        _, err = child.communicate()
        problems.append("timed out")
    if not _reap(time.monotonic() + 10.0):
        # Descendants stay in the child's process group (pool workers,
        # the resource tracker); none may outlive the run.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        _reap(time.monotonic() + 10.0)
        problems.append("processes outlived the workload and were killed")
    stderr = err.decode(errors="replace")
    if stderr.strip():
        tracebacks = _count_tracebacks(stderr)
        sys.stderr.write(stderr if child.returncode else _fold_tracebacks(stderr, tracebacks))
    if child.returncode != 0 and not problems:
        problems.append(f"workload process exited with {child.returncode}")
    try:
        with open(result_path) as handle:
            result = json.load(handle)
    except (OSError, ValueError):
        result = None
        problems.append("no result written")
    return result, stderr, problems


def _run_child(name: str, args, workdir: str, trace_dir: str, deadline: float) -> Dict:
    """Run one workload; return its result plus the runner's own checks.

    An untraced full-scale run also starts ``SETUP_PROBES`` processes that
    only import and build inputs, so ``setup_s`` is the median of several
    complete set-ups, interpreter start included.
    """
    os.makedirs(trace_dir, exist_ok=True)
    for entry in os.listdir(trace_dir):
        if entry.startswith("spans-"):
            os.remove(os.path.join(trace_dir, entry))
    command = [
        sys.executable, os.path.join(common.BENCH_DIR, "child.py"),
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scale", "smoke" if args.smoke else "full",
        "--workdir", workdir, "--trace-dir", trace_dir,
        "--result", os.path.join(workdir, f"result-{name}.json"),
    ]
    problems: List[str] = []
    setups: List[float] = []
    if not (args.trace or args.smoke):
        for _ in range(SETUP_PROBES):
            probe, _, trouble = _spawn(command + ["--setup-only"], workdir, deadline)
            problems += [f"set-up probe: {p}" for p in trouble]
            if probe is not None:
                setups.append(probe["setup"]["setup_s"])
    before = _shm_segments()
    result, stderr, trouble = _spawn(command, workdir, deadline)
    problems += trouble
    leaked = sorted(_shm_segments() - before)
    if leaked:
        problems.append(f"left {len(leaked)} segment(s) in /dev/shm")
    if result is None:
        result = {"workload": name, "attempted": 0, "failed": 0, "failures": [], "metrics": {}}
    tracebacks = _count_tracebacks(stderr)
    result["tracebacks"] = tracebacks
    result["failures"] = result.get("failures", []) + problems
    result["failed"] = result.get("failed", 0) + len(problems)
    result["attempted"] = max(result.get("attempted", 0), result["failed"], 1)
    metrics = result.get("metrics", {})
    if "setup_s" in metrics and setups:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"].update(value=common.median(setups), samples=len(setups),
                                  stat="median of set-ups in separate processes")
        result["setup"]["probes_s"] = setups
    if args.trace and metrics:
        reps = 2 * len(result.get("traced_reps", [])) or 1
        metrics["shm.tracker_errors"] = tracebacks / reps
    return result


def _fold_tracebacks(stderr: str, tracebacks: int) -> str:
    """Stderr of a workload that succeeded, repeated tracebacks folded.

    The shard service's worker attach/detach makes the resource tracker
    print one ``KeyError`` traceback per segment; they are counted, and
    only the first is shown.
    """
    if tracebacks <= 1:
        return stderr if stderr.endswith("\n") else stderr + "\n"
    first = stderr.find("Traceback (most recent call last):")
    second = stderr.find("Traceback (most recent call last):", first + 1)
    return (
        stderr[:second]
        + f"[bench: {tracebacks - 1} more traceback(s) on this workload's stderr]\n"
    )


def _print_result(result: Dict, kind: str) -> None:
    name = result["workload"]
    wanted = common.units(kind)
    for metric, unit in wanted.items():
        entry = result.get("metrics", {}).get(metric)
        if entry is None:
            continue
        if isinstance(entry, dict):
            print(f"{name:16s} {metric:30s} {entry['value']:>16.6g} {unit:6s} "
                  f"{entry['stat']} (n={entry['samples']})")
        else:
            print(f"{name:16s} {metric:30s} {entry:>16.6g} {unit}")
    extra = result.get("metrics", {}).get("latency_p90_ms")
    if extra:
        print(f"{name:16s} {'latency_p90_ms':30s} {extra['value']:>16.6g} {'ms':6s} "
              f"{extra['stat']} (n={extra['samples']}, not a gated metric)")
    for failure in result.get("failures", []):
        print(f"{name:16s} FAILED: {failure}")


def _contract_metrics(result: Dict, kind: str) -> Dict[str, Dict]:
    out = {}
    for metric, unit in common.units(kind).items():
        entry = result.get("metrics", {}).get(metric)
        if entry is None:
            continue
        value = entry["value"] if isinstance(entry, dict) else entry
        out[metric] = {"value": value, "unit": unit}
    return out


def main() -> int:
    try:
        benchmark = common.spec()
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    workload_names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run the Enki benchmark.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__,
    )
    parser.add_argument("--workload", choices=workload_names,
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed work per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--trace-dir", default=None,
                        help="keep the traced run's spans here (one folder per workload)")
    parser.add_argument("--out", default=None, help="write the full result JSON here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one repetition: checks the harness; never recorded")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(common.ROOT, "src", "repro")):
        return _fail(f"no program to measure: {os.path.join(common.ROOT, 'src', 'repro')} is missing")
    cores = len(os.sched_getaffinity(0))
    if common.WORKERS > cores:
        return _fail(f"workloads use {common.WORKERS} workers but only {cores} core(s) are visible")
    if args.smoke and args.out:
        return _fail("--smoke results are never recorded; drop --out")
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(benchmark["run_seconds"])

    _become_subreaper()
    names = [args.workload] if args.workload else workload_names
    workdir = os.path.join(common.ROOT, ".bench_work", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    started = time.monotonic()
    env = {
        "visible_cores": cores,
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _commit(),
        "src_digest": _source_digest(),
    }
    results = []
    try:
        for name in names:
            trace_root = args.trace_dir or os.path.join(workdir, "spans")
            deadline = (started if len(names) == 1 else time.monotonic()) + RUN_LIMIT_S
            results.append(
                _run_child(name, args, workdir, os.path.join(trace_root, name), deadline)
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    env["loadavg_end"] = os.getloadavg()
    for result in results:
        result.setdefault("env", {}).update(env)

    kind = "per_layer" if args.trace else "end_to_end"
    print(f"# env: {json.dumps(env)}")
    for result in results:
        _print_result(result, kind)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                       "env": env, "workloads": {r["workload"]: r for r in results}},
                      handle, indent=1)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = _contract_metrics(results[0], kind)
    else:
        metrics = {r["workload"]: _contract_metrics(r, kind) for r in results}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
