"""The three benchmark workloads: pinned inputs, seeded draws, output checks.

Every workload is a list of CLI invocations (``Op``) that the worker feeds,
one after another, to ``cosetforge.cli.main``.  The parameters are pinned
here rather than read from the program, so a later change to program
defaults cannot change the work.  Expected outputs live in
``reference.json`` (written by ``make_reference.py``).

The seed shuffles the query order and draws deltas only from windows that
give the same defining set (``code-queries``) or the same stratum of the
dually-BCH verdict (``coset-sweeps``), so the total work is the same for
every seed.  It shuffles within fixed groups of queries, so that the peak
memory does not depend on the seed either.  ``verify-all`` ignores the seed: it runs the registry's claims
in registry order, one (claim, pair) per invocation.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("verify-all", "code-queries", "coset-sweeps")
BUDGET = "10000000"  # --max-codewords, passed explicitly on every query that enumerates

# ---------------------------------------------------------------------------
# verify-all: every (claim, pair) of the default registry grids at the
# commit the reference was taken from (372 points: 365 pass, 2 flag, 5 skip)
# ---------------------------------------------------------------------------

PLUS_PAIRS = ((2, 4), (2, 6), (2, 8), (3, 4), (3, 6), (3, 8), (4, 4), (4, 6), (5, 4), (5, 6), (7, 4), (7, 6))
MINUS_PAIRS = ((3, 4), (3, 5), (3, 6), (4, 4), (4, 5), (4, 6), (5, 4), (5, 5), (7, 4), (7, 5), (8, 4), (8, 5), (9, 4), (9, 5))
QM1_PAIRS = tuple(sorted(set(PLUS_PAIRS) | set(MINUS_PAIRS)))
VERIFY_GRID = (
    ("CLM-QM1", QM1_PAIRS),
    ("CLM-LIFT", PLUS_PAIRS),
    ("CLM-D1P", PLUS_PAIRS),
    ("CLM-SZP", PLUS_PAIRS),
    ("CLM-T1", PLUS_PAIRS),
    ("CLM-FAM", PLUS_PAIRS),
    ("CLM-2ND4", ((2, 4), (3, 4), (4, 4), (5, 4), (7, 4))),
    ("CLM-IDP", PLUS_PAIRS),
    ("CLM-IDM", MINUS_PAIRS),
    ("CLM-B1002", ((2, 6), (3, 4))),
    ("CLM-LB1002", PLUS_PAIRS),
    ("CLM-T2", PLUS_PAIRS),
    ("CLM-T3", PLUS_PAIRS),
    ("CLM-RUP", MINUS_PAIRS),
    ("CLM-THETA", MINUS_PAIRS),
    ("CLM-SZM", MINUS_PAIRS),
    ("CLM-T5", MINUS_PAIRS),
)

# ---------------------------------------------------------------------------
# code-queries: (command, q, m, family, n, delta window).  Every delta in a
# window gives the same defining set, hence the same code and distance.
# The groups run in this order and the seed shuffles each group, so the peak
# memory (which depends on the caches already filled when the largest
# enumeration runs) is the same for every seed.
# ---------------------------------------------------------------------------

CODE_QUERY_GROUPS = (
    (  # high-rate codes whose distance routes to dual enumeration + MacWilliams
        ("code", 2, 10, "plus", None, (4, 5)),
        ("code", 3, 6, "minus", None, (3, 4)),
        ("code", 3, 6, "plus", None, (3, 4)),
        ("code", 5, 4, "minus", None, (3, 3)),
        ("code", 5, 4, "plus", None, (3, 3)),
    ),
    (  # low-rate duals that route to direct enumeration
        ("dual", 3, 8, "plus", None, (2, 2)),
        ("dual", 4, 6, "plus", None, (2, 2)),
        ("dual", 5, 6, "plus", None, (2, 2)),
    ),
    (  # big towers, both sides over budget: bound-only
        ("code", 2, 20, "raw", 1025, (4, 5)),
        ("dual", 3, 12, "raw", 730, (3, 4)),
        ("code", 3, 10, "plus", None, (3, 4)),
    ),
)

# ---------------------------------------------------------------------------
# coset-sweeps: no field tables.  Sweep points (family, q, m), n from 3.9k
# to 29.5k; cosets --top 3 points, n from 0.2M to 1.4M; scalar dually-bch
# queries on the sweep points, half drawn below delta1 and half above.
# ---------------------------------------------------------------------------

SWEEP_POINTS = (
    ("plus", 16, 4),  # n = 3855, the m = 4 case of T3
    ("plus", 2, 14),  # n = 5461
    ("minus", 9, 5),  # n = 7381
    ("minus", 3, 9),  # n = 9841
    ("plus", 4, 8),  # n = 13107
    ("plus", 7, 6),  # n = 14706
    ("minus", 11, 5),  # n = 16105
    ("plus", 2, 16),  # n = 21845
    ("minus", 3, 10),  # n = 29524
)
TOP_POINTS = (("plus", 4, 10), ("plus", 2, 20), ("minus", 3, 13), ("plus", 2, 22))
SCALAR_PER_SIDE = 10  # scalar queries per sweep point on each side of delta1
SCALAR_WINDOW = 64  # draw from [delta1 - W, delta1 - 1] and [delta1 + 1, delta1 + W]


@dataclass
class Op:
    key: str  # stable identity, independent of the seed's order
    argv: list[str]
    meta: dict = field(default_factory=dict)


def cli_argv(*parts) -> list[str]:
    return [str(p) for p in parts]


def family_length(q: int, m: int, family: str) -> int:
    return (q**m - 1) // (q + 1) if family == "plus" else (q**m - 1) // (q - 1)


def generate(workload: str, seed: int, ref: dict) -> list[Op]:
    """The ops of one batch, in the order the seed gives them."""
    rng = random.Random(seed)
    if workload == "verify-all":
        return [
            Op(f"{claim} q={q} m={m}", cli_argv("verify", "--claim", claim, "--grid", f"q={q},m={m}", "--max-codewords", BUDGET), {"claim": claim})
            for claim, pairs in VERIFY_GRID
            for q, m in pairs
        ]
    groups: list[list[Op]] = []
    if workload == "code-queries":
        for queries in CODE_QUERY_GROUPS:
            groups.append([])
            for cmd, q, m, fam, n, (lo, hi) in queries:
                delta = rng.randint(lo, hi)
                argv = cli_argv(cmd, "--q", q, "--m", m, "--family", fam, "--delta", delta, "--true-distance", "--max-codewords", BUDGET)
                if n is not None:
                    argv += cli_argv("--n", n)
                groups[-1].append(Op(f"{cmd} q={q} m={m} {fam} n={n}", argv, {"delta": delta}))
    elif workload == "coset-sweeps":
        groups.append([])  # sweeps and scalar queries, then the large cosets --top queries
        for fam, q, m in SWEEP_POINTS:
            point = f"{fam} q={q} m={m}"
            meta = {"point": point, "family": fam, "q": q, "m": m}
            groups[0].append(Op(f"sweep {point}", cli_argv("dually-bch", "--q", q, "--m", m, "--family", fam, "--sweep"), meta))
            d1 = ref["coset-sweeps"]["delta1"][point]
            for j in range(2 * SCALAR_PER_SIDE):
                delta = d1 - rng.randint(1, SCALAR_WINDOW) if j < SCALAR_PER_SIDE else d1 + rng.randint(1, SCALAR_WINDOW)
                argv = cli_argv("dually-bch", "--q", q, "--m", m, "--family", fam, "--delta", delta)
                groups[0].append(Op(f"scalar {point} #{j}", argv, {**meta, "delta": delta}))
        groups.append([Op(f"top {fam} q={q} m={m}", cli_argv("cosets", "--q", q, "--m", m, "--family", fam, "--top", 3)) for fam, q, m in TOP_POINTS])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    ops = []
    for group in groups:
        rng.shuffle(group)
        ops += group
    return ops


# ---------------------------------------------------------------------------
# checks: each gives (ok, exact_units, total_units, problem) for one op;
# "units" are verification points for verify-all and ops elsewhere
# ---------------------------------------------------------------------------


def _canonical(text: str):
    """Parsed document, or None when the text is not canonical CLI JSON."""
    try:
        doc = json.loads(text)
    except ValueError:
        return None
    return doc if json.dumps(doc, indent=2, sort_keys=True) + "\n" == text else None


def point_digest(point: dict) -> str:
    return hashlib.sha256(json.dumps(point, sort_keys=True).encode()).hexdigest()


def _check_verify(op: Op, doc: dict, ref: dict):
    want = ref["verify-all"][op.key]
    if doc.get("claim") != op.meta["claim"] or doc.get("statement") != want["statement"]:
        return False, 0, 0, "claim or statement differs"
    points = doc.get("points", [])
    executed = {json.dumps(p["params"], sort_keys=True): point_digest(p) for p in points if p["status"] in ("pass", "flag")}
    if any(p["status"] == "fail" for p in points):
        return False, 0, len(points), "fail point"
    for params, digest in want["executed"].items():
        if executed.get(params) != digest:
            return False, 0, len(points), f"executed point {params} differs from the reference"
    return True, len(executed), len(points), None


def _check_code(op: Op, doc: dict, ref: dict):
    want = ref["code-queries"][op.key]
    dim = doc["dim"] if op.argv[0] == "code" else doc["dual"]["dim"]
    dist = doc["distance"]
    got = {"d": dist["d"], "method": dist["method"], "dim": dim, "enumerated": dist["enumerated"]}
    if got != want:
        return False, 0, 1, f"got {got}, want {want}"
    if got["d"] is not None and got["d"] < op.meta["delta"]:
        return False, 0, 1, f"d = {got['d']} below delta = {op.meta['delta']}"
    return True, int(got["method"] != "bound-only"), 1, None


def sweep_predicate(family: str, q: int, m: int, delta1: int):
    """Closed-form dually-BCH verdict: CLM-T2 (q = 2), CLM-T3 (plus, q > 2), CLM-T5 (minus)."""
    if family == "plus" and q > 2 and m == 4:
        return lambda d: d == 2 or d >= delta1
    return lambda d: d >= delta1 + 1


def intervals(flags, first: int) -> list[list[int]]:
    out: list[list[int]] = []
    for j, v in enumerate(flags):
        d = first + j
        if not v:
            continue
        if out and out[-1][1] == d - 1:
            out[-1][1] = d
        else:
            out.append([d, d])
    return out


class Checker:
    """Checks each op's output as soon as it ran, keeping only small facts.

    Outputs are not kept for the end of the batch: holding megabytes of
    sweep JSON would add to the peak memory, by an amount that depends on
    the order of the ops.  Scalar dually-bch verdicts are compared with
    their sweep once the whole batch has run.
    """

    def __init__(self, workload: str, ref: dict):
        self.workload = workload
        self.ref = ref
        self.verdicts: list[tuple] = []
        self._digests: dict[str, str] = {}
        self._sweeps: dict[str, bytes] = {}  # point -> verdict per delta 2..n
        self._scalars: list[tuple[int, Op, bool]] = []  # (index in verdicts, op, verdict)

    def add(self, op: Op, r: dict) -> None:
        doc = _canonical(r["out"]) if r["error"] is None and r["rc"] == 0 else None
        text = r["out"]
        if op.argv[0] == "verify" and isinstance(doc, dict):  # wall_time_ms is the one field allowed to vary
            text = json.dumps({k: v for k, v in doc.items() if k != "wall_time_ms"}, sort_keys=True)
        self._digests[op.key] = hashlib.sha256(f"{r['rc']}\0{r['error']}\0{text}".encode()).hexdigest()
        if r["error"] is not None or r["rc"] != 0:
            self.verdicts.append((False, 0, 1, f"rc={r['rc']} error={r['error']}"))
        elif not isinstance(doc, dict):
            self.verdicts.append((False, 0, 1, "output is not canonical JSON"))
        else:
            try:
                self.verdicts.append(self._check(op, doc))
            except (KeyError, IndexError, TypeError) as exc:
                self.verdicts.append((False, 0, 1, f"malformed output: {exc!r}"))

    def _check(self, op: Op, doc: dict) -> tuple:
        if self.workload == "verify-all":
            return _check_verify(op, doc, self.ref)
        if self.workload == "code-queries":
            return _check_code(op, doc, self.ref)
        kind = op.key.split()[0]
        if kind == "top":
            want = self.ref["coset-sweeps"]["top"][op.key]
            return (True, 1, 1, None) if doc["top"] == want else (False, 0, 1, f"top {doc['top']}, want {want}")
        if kind == "scalar":
            self._scalars.append((len(self.verdicts), op, doc["verdict"]))
            return (True, 1, 1, None)  # settled in finish()
        fam, q, m = op.meta["family"], op.meta["q"], op.meta["m"]
        pred = sweep_predicate(fam, q, m, self.ref["coset-sweeps"]["delta1"][op.meta["point"]])
        n = family_length(q, m, fam)
        verdicts = [e["verdict"] for e in doc["sweep"]]
        if [e["delta"] for e in doc["sweep"]] != list(range(2, n + 1)):
            return False, 0, 1, "sweep deltas are not 2..n"
        if doc["true_intervals"] != intervals(verdicts, 2):
            return False, 0, 1, "true_intervals disagree with the sweep"
        if doc["true_intervals"] != intervals([pred(d) for d in range(2, n + 1)], 2):
            return False, 0, 1, "true_intervals disagree with the closed-form predicate"
        self._sweeps[op.meta["point"]] = bytes(verdicts)
        return True, 1, 1, None

    def finish(self) -> str:
        """Settle the scalar checks; returns the digest of all outputs, in key order."""
        for idx, op, verdict in self._scalars:
            sweep = self._sweeps.get(op.meta["point"])
            if sweep is None or verdict != bool(sweep[op.meta["delta"] - 2]):
                self.verdicts[idx] = (False, 0, 1, f"scalar verdict at delta = {op.meta['delta']} disagrees with the sweep")
        digest = hashlib.sha256()
        for key in sorted(self._digests):
            digest.update(f"{key}\0{self._digests[key]}\0".encode())
        return digest.hexdigest()
