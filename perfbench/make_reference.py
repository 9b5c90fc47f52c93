"""Write reference.json: the expected outputs the benchmark checks against.

Run from the repository root, at the commit whose outputs are the
reference (the benchmark itself never runs this):

    python3 perfbench/make_reference.py

It also asserts that the pinned inputs in workloads.py still describe what
they claim: the verify grids equal the registry defaults, every delta
window of code-queries gives one defining set, and the scalar windows of
coset-sweeps lie inside one verdict stratum.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from cosetforge import bch, cli, cosets, verify  # noqa: E402

import workloads  # noqa: E402
from worker import run_op  # noqa: E402


def _doc(argv: list[str]) -> dict:
    r = run_op(cli, argv)
    assert r["error"] is None and r["rc"] == 0, (argv, r)
    return json.loads(r["out"])


def verify_reference() -> dict:
    registry = {c.id: (c.statement, tuple(c.default_pairs)) for c in verify.list_claims()}
    assert {claim: pairs for claim, pairs in workloads.VERIFY_GRID} == {k: v[1] for k, v in registry.items()}
    out = {}
    totals = {"pass": 0, "fail": 0, "skip": 0, "flag": 0, "total": 0}
    for op in workloads.generate("verify-all", 0, {}):
        doc = _doc(op.argv)
        executed = {}
        for p in doc["points"]:
            if p["status"] in ("pass", "flag"):
                key = json.dumps(p["params"], sort_keys=True)
                assert key not in executed, (op.key, key)
                executed[key] = workloads.point_digest(p)
        out[op.key] = {"statement": doc["statement"], "summary": doc["summary"], "executed": executed}
        for k in totals:
            totals[k] += doc["summary"][k]
    print("verify-all:", totals)
    return out


def code_reference() -> dict:
    out = {}
    for cmd, q, m, fam, n, (lo, hi) in (query for group in workloads.CODE_QUERY_GROUPS for query in group):
        length = n if n is not None else cosets.family_length(q, m, fam)
        sets = {bch.defining_set(q, length, d).exponents for d in range(lo, hi + 1)}
        assert len(sets) == 1, (cmd, q, m, fam, "window spans more than one defining set")
        expect = None
        for delta in range(lo, hi + 1):
            argv = workloads.cli_argv(cmd, "--q", q, "--m", m, "--family", fam, "--delta", delta, "--true-distance", "--max-codewords", workloads.BUDGET)
            if n is not None:
                argv += workloads.cli_argv("--n", n)
            doc = _doc(argv)
            dist = doc["distance"]
            got = {"d": dist["d"], "method": dist["method"], "dim": doc["dim"] if cmd == "code" else doc["dual"]["dim"], "enumerated": dist["enumerated"]}
            assert expect in (None, got), (cmd, q, m, fam, delta)
            expect = got
        out[f"{cmd} q={q} m={m} {fam} n={n}"] = expect
        print("code-queries:", cmd, q, m, fam, n, expect)
    return out


def sweeps_reference() -> dict:
    delta1, top = {}, {}
    for fam, q, m in workloads.SWEEP_POINTS:
        n = cosets.family_length(q, m, fam)
        d1 = cosets.delta1_closed_form(q, m, fam)
        assert d1 == cosets.top_k_leaders(q, n, 1)[0]
        assert 2 < d1 - workloads.SCALAR_WINDOW and d1 + workloads.SCALAR_WINDOW <= n
        verdicts = bch.dually_bch_sweep(q, n)
        w = workloads.SCALAR_WINDOW
        assert not verdicts[d1 - w - 2 : d1 - 2].any() and verdicts[d1 - 1 : d1 + w - 1].all()
        delta1[f"{fam} q={q} m={m}"] = d1
    for fam, q, m in workloads.TOP_POINTS:
        top[f"top {fam} q={q} m={m}"] = _doc(workloads.cli_argv("cosets", "--q", q, "--m", m, "--family", fam, "--top", 3))["top"]
    print("coset-sweeps:", delta1, top)
    return {"delta1": delta1, "top": top}


def main() -> int:
    ref = {"code-queries": code_reference(), "coset-sweeps": sweeps_reference(), "verify-all": verify_reference()}
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
