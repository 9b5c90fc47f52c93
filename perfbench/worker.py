"""One batch of one workload in a fresh interpreter (started by run.py).

A fresh process per batch means the program's lru_cache tables (towers,
leader maps, I(delta) tables) start empty, as they do for a CLI user, and
fill naturally during the batch.  The worker imports cosetforge from the
checkout's ``src/``, generates the batch's inputs from the seed, runs them
one after another through ``cosetforge.cli.main`` (closed loop, one
client) and prints one JSON object on stdout.  Each output is checked right
after its op returns; ``wall_s`` sums the time spent inside the ops only.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --spawn-t T [--setup-only]

``--spawn-t`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start-up, the import and
input generation.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _import_program(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import cosetforge
    import cosetforge.cli

    if not os.path.abspath(cosetforge.__file__).startswith(src + os.sep):
        raise SystemExit(f"cosetforge imported from {cosetforge.__file__}, not from {src}")
    return cosetforge


def run_op(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        error = f"SystemExit({exc.code}): {err.getvalue().strip()[-200:]}"
    except Exception as exc:  # noqa: BLE001 - an op that raises counts as failed, the batch goes on
        error = repr(exc)[:300]
    return {"rc": rc, "error": error, "out": out.getvalue()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-t", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    root = os.getcwd()
    cosetforge = _import_program(root)
    import workloads

    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    ops = workloads.generate(args.workload, args.seed, ref)
    setup_s = time.monotonic() - args.spawn_t
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(cosetforge)
    cli = cosetforge.cli
    checker = workloads.Checker(args.workload, ref)
    wall_s = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        r = run_op(cli, op.argv)
        wall_s += time.perf_counter() - t0
        if tracer is not None:
            tracer.counts["cli.bytes_out"] += len(r["out"].encode())
        checker.add(op, r)  # outside the timed region
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    output_sha256 = checker.finish()
    verdicts = checker.verdicts
    doc = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": sum(1 for v in verdicts if not v[0]),
        "exact_units": sum(v[1] for v in verdicts),
        "total_units": sum(v[2] for v in verdicts),
        "problems": [f"{op.key}: {v[3]}" for op, v in zip(ops, verdicts) if not v[0]][:20],
        "output_sha256": output_sha256,
        "layers": layers,
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
