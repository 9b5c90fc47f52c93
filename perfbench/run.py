"""cosetforge benchmark: one command, three workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload verify-all|code-queries|coset-sweeps --seed N --seconds S --trace 0|1

Each batch of a workload runs in a fresh interpreter (worker.py), so the
program's caches start empty as they do for a CLI user.  The load is one
client issuing queries one after another (closed loop); the only extra
threads are numpy's BLAS pool.  There are no queues or waits to report.
Batches repeat until the next one would end after ``--seconds``; at least
one always runs.  Metrics are medians over the batches of the run.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (one batch after
set-up, lazy tower and leader-map builds included), ``setup_s`` (interpreter
start to cosetforge imported and inputs generated; also measured by a few
set-up-only starts), ``peak_rss_mb`` (peak resident memory of the batch
process), ``ok_frac`` (ops with correct output over ops attempted, i.e.
1 - fail_frac) and ``exact_frac`` (points or queries answered exactly, not
skipped or bound-only, i.e. 1 - skip_frac on verify-all).

``--trace 1`` alternates untraced and traced batches, checks that their
outputs are identical, and prints the per-layer metrics of the traced
batches (see tracing.py and README.md) with the tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A record of the run with the machine and build
description is written to ``.perfbench-out/`` in the checkout.
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

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 10  # set-up-only starts per run, on top of one set-up per batch
BATCH_TIMEOUT_S = 170
OUT_DIR = ".perfbench-out"


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("COSETFORGE_BUDGET", None)  # the budget is passed explicitly
    return env


def _worker(args, trace: int, setup_only: bool = False, spans_out: str | None = None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload, "--seed", str(args.seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    cmd += ["--spawn-t", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True, timeout=BATCH_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_info() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = 0
    for dirpath, _, files in os.walk("src"):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
        "src_lines": src_lines,
    }


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_batches(args) -> tuple[list[dict], list[dict], list[float]]:
    """(untraced batches, traced batches, set-up samples) for one run."""
    setups = [_worker(args, 0, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    plain: list[dict] = []
    traced: list[dict] = []
    spans_out = os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl")
    start = time.monotonic()
    longest = 0.0
    while True:
        t0 = time.monotonic()
        plain.append(_worker(args, 0))
        if args.trace:
            traced.append(_worker(args, 1, spans_out=spans_out))
        longest = max(longest, time.monotonic() - t0)
        if time.monotonic() - start + longest > args.seconds:
            break
    setups += [b["setup_s"] for b in plain]
    return plain, traced, setups


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True, help="shuffles query order and draws deltas; verify-all ignores it")
    ap.add_argument("--seconds", type=float, required=True, help="measuring time; batches that would end later are not started")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "cosetforge", "__init__.py")):
        print("error: run from a cosetforge checkout (src/cosetforge is missing)", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    machine = machine_info()
    plain, traced, setups = run_batches(args)
    batches = plain + traced
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    problems = sorted({p for b in batches for p in b["problems"]})
    identical = all(b["output_sha256"] == plain[0]["output_sha256"] for b in batches)
    if not identical:
        problems.append("outputs differ between batches (traced vs untraced, or run to run)")

    def med(key, rows):
        return statistics.median(b[key] for b in rows)

    if args.trace:
        units = tracing.metric_units()
        layers = {name: statistics.median(b["layers"][name] for b in traced) for name in units}
        layers["trace.overhead_s"] = med("wall_s", traced) - med("wall_s", plain)
        units["trace.overhead_s"] = "s"
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}
    else:
        metrics = {
            "wall_s": {"value": med("wall_s", plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": med("peak_rss_mb", plain), "unit": "MB"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "fraction"},
            "exact_frac": {"value": sum(b["exact_units"] for b in batches) / sum(b["total_units"] for b in batches), "unit": "fraction"},
        }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "machine": machine, "setup_samples": setups, "batches": batches, "problems": problems}
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print("machine: " + json.dumps(machine, sort_keys=True))
    print(f"workload {args.workload}: {len(plain)} untraced and {len(traced)} traced batches, one client, closed loop, no queues or waits")
    for p in problems:
        print("problem: " + p)
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0 and identical, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
