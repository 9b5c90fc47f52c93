"""Command-line front end: tables for humans, JSON/CSV for machines.

All reported quantities are integers or booleans; JSON output is canonical
(sorted keys, two-space indent), so re-parsing and re-serializing a report
reproduces it byte for byte.  Exit codes: 0 success, 1 domain error,
2 usage error, 3 at least one verification point failed, 141 stdout closed
before the report was written (the reader of a pipe went away; no
traceback).

`dually-bch --sweep` keeps its verdicts as the boolean vector from
`bch.dually_bch_sweep` up to output, and its rows are written as uint8
blocks of at most SWEEP_BLOCK rows, with no Python work per row and no
memory per delta beyond the vector itself (one byte); the header fields
still go through json.dumps, with the same bytes as dumping one dict per
delta.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

import numpy as np

from . import bch, cosets, distance, gf, verify
from .errors import SWEEP_GUARD, CosetForgeError, OrderTooLarge, UsageError

ELIDE_DEFAULT = 128
SWEEP_BLOCK = 1 << 16  # sweep rows per rendered piece


def _dump_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    return json.dumps(value, separators=(",", ":"), sort_keys=True)


def _rows_for(doc) -> list[list[str]]:
    if isinstance(doc, dict) and "claims" in doc and isinstance(doc["claims"], list):
        entries = doc["claims"]
        if entries and "points" not in entries[0]:  # registry listing
            return [["id", "kind", "statement"]] + [[c["id"], c["kind"], c["statement"]] for c in entries]
        rows = [["claim", "params", "expected", "observed", "status", "note"]]
        for rep in entries:
            for p in rep.get("points", []):
                params = ";".join(f"{k}={_cell(v)}" for k, v in p.get("params", {}).items())
                rows.append([rep["claim"], params, _cell(p.get("expected", "")), _cell(p.get("observed", "")), p["status"], p.get("note", "")])
        return rows
    if isinstance(doc, dict) and "points" in doc:
        return _rows_for({"claims": [doc]})
    rows = [["key", "value"]]

    def walk(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}.{k}" if prefix else str(k), value[k])
        else:
            rows.append([prefix, _cell(value)])

    walk("", doc)
    return rows


def _sweep_pieces(doc, fmt: str):
    """A sweep report in pieces, its rows written as byte blocks from the verdict vector.

    The deltas are cut into runs at verdict changes, at powers of ten and
    every SWEEP_BLOCK rows.  The rows of a run (separators included) differ
    only in their digits, so each run is one piece: its row template
    broadcast into a (rows, width) uint8 array, the digit columns filled
    from np.arange by base-10 arithmetic.  The last row drops its separator.
    The JSON header fields still go through _dump_json, with the rows
    spliced in where the empty list sits (a sweep is never empty: delta runs
    over [2, n], n >= 5).
    """
    n, verdicts = doc["n"], doc["sweep"]
    width = max(len("delta"), len(str(n)))
    row = {"json": '    {\n      "delta": %s,\n      "verdict": VERDICT\n    },\n', "csv": "%s,VERDICT\n", "table": f"%-{width}s  VERDICT\n"}[fmt]
    start = row.index("%")  # the first digit column
    if fmt == "json":
        head, _, tail = _dump_json({**doc, "sweep": []}).partition('"sweep": []')
        sep, opening, closing = ",\n", head + '"sweep": [\n', "\n  ]" + tail
    else:
        header = "delta,verdict" if fmt == "csv" else "delta".ljust(width) + "  verdict"
        sep, opening, closing = "\n", header + "\n", "\n"
    edges = {0, verdicts.size, *range(SWEEP_BLOCK, verdicts.size, SWEEP_BLOCK)}
    edges.update(10**k - 2 for k in range(1, len(str(n))))  # delta = 10^k gains a digit
    edges.update((np.flatnonzero(verdicts[1:] != verdicts[:-1]) + 1).tolist())  # verdict changes
    edges = sorted(edges)
    yield opening
    for lo, hi in zip(edges, edges[1:]):
        digits = len(str(lo + 2))
        text = row.replace("VERDICT", "true" if verdicts[lo] else "false") % ("0" * digits)
        block = np.empty((hi - lo, len(text)), dtype=np.uint8)
        block[:] = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        delta = np.arange(lo + 2, hi + 2, dtype=np.int32)  # n <= SWEEP_GUARD < 2^31
        for col in reversed(range(start, start + digits)):
            delta, block[:, col] = np.divmod(delta, 10)
        block[:, start : start + digits] += ord("0")
        flat = block.reshape(-1)
        yield str(flat[: flat.size - len(sep)] if hi == verdicts.size else flat, "ascii")  # decoded from the buffer, no bytes copy
    yield closing


def _render(doc, fmt: str):
    """The report as a sequence of text pieces; only a sweep has more than one."""
    if isinstance(doc, dict) and "sweep" in doc:
        return _sweep_pieces(doc, fmt)
    if fmt == "json":
        return [_dump_json(doc)]
    rows = _rows_for(doc)
    if fmt == "csv":
        return ["\n".join(",".join('"' + c.replace('"', '""') + '"' if ("," in c or '"' in c) else c for c in row) for row in rows) + "\n"]
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return ["\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in rows) + "\n"]


def _emit(doc, args) -> None:
    pieces = _render(doc, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()  # a closed pipe raises here, inside main, not at interpreter exit


def _witness_doc(witness) -> dict | None:
    if witness is None:
        return None
    return {"b": witness[0], "delta": witness[1]}


def _recognition_doc(tperp) -> dict:
    """Whether the dual defining set is BCH-shaped (an empty one counts), with its witness."""
    rec = bch.recognize_bch(tperp)
    return {"verdict": bool(rec.is_bch or rec.empty), "witness": _witness_doc(rec.witness)}


def _resolve_n(args) -> int:
    if args.n is not None:
        if args.m is not None or args.family is not None:
            raise UsageError("give --n, or --m with --family, not both")
        return args.n
    if args.family in cosets.FAMILIES and args.m is not None:
        return cosets.family_length(args.q, args.m, args.family)
    raise UsageError("need --n, or --m with --family plus/minus")


def _parse_grid(spec: str | None) -> dict | None:
    if not spec:
        return None
    grid: dict[str, list[int]] = {}
    for pair in spec.split(","):
        key, _, values = pair.partition("=")
        if key.strip() in grid:
            raise UsageError(f"--grid names {key.strip()!r} twice; give its values once, as k=v1|v2")
        try:
            grid[key.strip()] = [int(v) for v in values.split("|")]
        except ValueError:
            raise UsageError(f"bad --grid entry {pair!r}, expected k=v or k=v1|v2 with integer values") from None
    return grid


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_cosets(args) -> tuple[dict, int]:
    if args.top is not None and args.coset is not None:
        raise UsageError("need at most one of --top and --coset")
    n = _resolve_n(args)
    if args.top is not None:
        return {"q": args.q, "n": n, "top": cosets.top_k_leaders(args.q, n, args.top)}, 0
    if args.coset is not None:
        c = cosets.cyclotomic_coset(args.q, n, args.coset)
        doc = {"q": args.q, "n": n, "leader": c.leader, "size": c.size}
        if c.size <= args.max_elements:
            doc["elements"] = list(c.elements)
        return doc, 0
    doc = {"q": args.q, "n": n, "count": cosets.leader_count(args.q, n)}
    if doc["count"] <= args.max_elements:
        doc["leaders"] = list(cosets.coset_leaders(args.q, n))
    return doc, 0


def _code_summary(code) -> dict:
    return {
        "q": code.q,
        "m": code.m,
        "family": code.family,
        "n": code.n,
        "b": code.b,
        "delta": code.delta,
        "dim": code.dimension,
        "bch_bound": code.bch_bound,
        "genpoly_degree": code.genpoly.degree,
        "defining_set_size": code.defining.size,
    }


def _distance_doc(t, code, args, bounds: dict) -> dict:
    res = distance.min_distance_enumerate(t, code, budget=args.max_codewords, method=args.method)
    return {"d": res.d, "method": res.method, "enumerated": res.enumerated, "bounds": bounds}


def _cmd_code(args) -> tuple[dict, int]:
    t, code = bch.build_family_code(args.q, args.m, args.family, args.delta, b=args.b, n=args.n)
    doc = _code_summary(code)
    doc["dually_bch"] = _recognition_doc(bch.dual_defining_set(code.defining))
    if args.true_distance:
        doc["distance"] = _distance_doc(t, code, args, {"designed": code.delta, "bch_run": doc["bch_bound"]})
    return doc, 0


def _cmd_dual(args) -> tuple[dict, int]:
    t, code = bch.build_family_code(args.q, args.m, args.family, args.delta, b=args.b, n=args.n)
    dual = bch.dual_code(t, code)
    bounds = {"bch_run": bch.bch_bound(dual.defining)}
    if args.family == cosets.PLUS and args.b == 1 and args.m >= 4:  # where dual_bound_closed_form applies
        bounds["closed_form"] = distance.dual_bound_closed_form(args.q, args.m, args.delta)
    doc = {
        "primal": _code_summary(code),
        "dual": {
            "n": dual.n,
            "dim": dual.dimension,
            "defining_set_size": dual.defining.size,
            "genpoly_degree": dual.genpoly.degree,
            "recognized": _recognition_doc(dual.defining),
        },
        "bounds": bounds,
    }
    if args.true_distance:
        doc["distance"] = _distance_doc(t, dual, args, bounds)
    return doc, 0


def _cmd_dually_bch(args) -> tuple[dict, int]:
    if args.sweep == (args.delta is not None):
        raise UsageError("need exactly one of --delta and --sweep")
    n = bch.dually_bch_length(args.q, args.m, args.family)
    base = {"q": args.q, "m": args.m, "family": args.family, "n": n}
    if args.sweep:
        if n > SWEEP_GUARD:
            raise OrderTooLarge(f"n = {n} exceeds the sweep-output guard {SWEEP_GUARD}; use --delta for single points")
        verdicts = bch.dually_bch_sweep(args.q, n)
        base.update({"sweep": verdicts, "true_intervals": verify._intervals(verdicts, 2)})
        return base, 0
    res = bch.is_dually_bch(args.q, args.m, args.family, args.delta)
    base.update({"delta": args.delta, "verdict": res.verdict, "witness": _witness_doc(res.witness)})
    return base, 0


def _aggregate(reports) -> dict:
    agg = {"pass": 0, "fail": 0, "skip": 0, "flag": 0, "total": 0}
    for rep in reports:
        for k in agg:
            agg[k] += rep.summary[k]
    return agg


def _cmd_verify(args) -> tuple[dict, int]:
    if args.all == bool(args.claim):
        raise UsageError("need exactly one of --claim <id> and --all")
    grid = _parse_grid(args.grid)
    budget = args.max_codewords
    if args.all:
        reports = verify.verify_all(grid=grid, budget=budget)
        doc = {"claims": [r.to_dict() for r in reports], "summary": _aggregate(reports), "ok": all(r.ok() for r in reports)}
        return doc, 0 if doc["ok"] else 3
    rep = verify.verify_claim(args.claim, grid=grid, budget=budget)
    return rep.to_dict(), 0 if rep.ok() else 3


def _cmd_claims(args) -> tuple[dict, int]:
    doc = {
        "claims": [
            {"id": c.id, "statement": c.statement, "kind": c.kind, "default_pairs": [list(p) for p in c.default_pairs]}
            for c in verify.list_claims()
        ]
    }
    return doc, 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _add_common(sp, budget=False):
    sp.add_argument("--format", choices=("json", "csv", "table"), default="json")
    sp.add_argument("--out", default=None, help="write the report to a file instead of stdout")
    if budget:
        sp.add_argument("--max-codewords", type=int, default=None, help="enumeration budget (default 10^7, or COSETFORGE_BUDGET)")


def _add_code_args(sp):
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--family", choices=("plus", "minus", "raw"), required=True)
    sp.add_argument("--n", type=int, default=None, help="explicit length (family raw)")
    sp.add_argument("--delta", type=int, required=True)
    sp.add_argument("--b", type=int, default=1)
    sp.add_argument("--true-distance", action="store_true")
    sp.add_argument("--method", choices=("auto", "direct", "dual-macwilliams", "bound-only"), default="auto")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cosetforge", description="BCH codes of lengths (q^m-1)/(q+1) and (q^m-1)/(q-1): cosets, duals, bounds, claim checks.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("cosets", help="cyclotomic cosets and leaders modulo n")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--family", choices=("plus", "minus"), default=None)
    sp.add_argument("--top", type=int, default=None, help="report the k largest leaders")
    sp.add_argument("--coset", type=int, default=None, help="report the coset of one residue")
    sp.add_argument("--max-elements", type=int, default=ELIDE_DEFAULT, help="elide element lists above this size")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_cosets)

    sp = sub.add_parser("code", help="construct a BCH code and report its parameters")
    _add_code_args(sp)
    _add_common(sp, budget=True)
    sp.set_defaults(fn=_cmd_code)

    sp = sub.add_parser("dual", help="construct the dual code and report bounds")
    _add_code_args(sp)
    _add_common(sp, budget=True)
    sp.set_defaults(fn=_cmd_dual)

    sp = sub.add_parser("dually-bch", help="decide the dually-BCH property")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--family", choices=("plus", "minus"), required=True)
    sp.add_argument("--delta", type=int, default=None)
    sp.add_argument("--sweep", action="store_true", help="sweep every delta in [2, n]")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_dually_bch)

    sp = sub.add_parser("verify", help="run registered claims against brute-force oracles")
    sp.add_argument("--claim", default=None, help="claim id, e.g. CLM-D1P")
    sp.add_argument("--all", action="store_true")
    sp.add_argument("--grid", default=None, help="override grid domains, e.g. q=2|3,m=4")
    _add_common(sp, budget=True)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("claims", help="list the claim registry")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_claims)

    return ap


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    return build_parser()  # built once per process; parse_args leaves it unchanged


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        doc, rc = args.fn(args)
    except CosetForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1
    try:
        _emit(doc, args)
    except BrokenPipeError:
        # the reader went away (`| head`): send what is left of stdout to devnull, so the final flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, what a shell reports for a writer the signal killed
    return rc


if __name__ == "__main__":
    sys.exit(main())
