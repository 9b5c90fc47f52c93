"""Registry of machine-checked claims, each paired with a brute-force oracle.

Every claim compares a closed form or an iff-characterization ("expected")
against a value produced by brute force over the actual coset/defining-set
structures ("observed"); the observed side never calls the closed form it
is checking.  Reports are deterministic: identical grids give identical
point lists, and the only varying field is the wall time.  A distance point
is skipped exactly when ``distance.route`` finds that neither q^k nor
q^(n-k) fits the enumeration budget; skips are reported, never passed.
A checker takes one (q, m) pair and the budget and returns that pair's
points (none for a q its statement excludes); ``_run`` is the one loop
over a claim's pairs.  A statement made for both families (largest
leader, its coset size) has one checker parametrised by the family.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

from . import bch, cosets, distance, gf
from .errors import ORDER_GUARD, GridTooLarge, NotPrime, UnknownClaim, UsageError, over_order_guard, show_int

# default parameter grids (pairs (q, m)); larger m only where sieves stay cheap
PLUS_PAIRS = ((2, 4), (2, 6), (2, 8), (3, 4), (3, 6), (3, 8), (4, 4), (4, 6), (5, 4), (5, 6), (7, 4), (7, 6))
MINUS_PAIRS = ((3, 4), (3, 5), (3, 6), (4, 4), (4, 5), (4, 6), (5, 4), (5, 5), (7, 4), (7, 5), (8, 4), (8, 5), (9, 4), (9, 5))
QM1_PAIRS = tuple(sorted(set(PLUS_PAIRS) | set(MINUS_PAIRS)))


@dataclass(frozen=True)
class Claim:
    id: str
    statement: str
    kind: str  # plus | minus | qm1 | q-only
    default_pairs: tuple
    checker: Callable  # (q, m, budget) -> the points of that pair


@dataclass
class ClaimReport:
    claim_id: str
    statement: str
    points: list[dict]
    summary: dict[str, int]
    wall_time_ms: int

    def ok(self) -> bool:
        return self.summary["fail"] == 0

    def to_dict(self) -> dict:
        return {
            "claim": self.claim_id,
            "statement": self.statement,
            "points": self.points,
            "summary": self.summary,
            "wall_time_ms": self.wall_time_ms,
        }


def _point(params: dict, expected, observed, **extra) -> dict:
    status = "pass" if expected == observed else "fail"
    out = {"params": params, "expected": expected, "observed": observed, "status": status}
    out.update(extra)
    return out


def _skip(params: dict, note: str) -> dict:
    return {"params": params, "status": "skip", "note": note}


def _flag(params: dict, expected, observed, note: str) -> dict:
    return {"params": params, "expected": expected, "observed": observed, "status": "flag", "note": note}


def _pair_ok(q: int, m: int, kind: str) -> bool:
    if kind == "plus":
        ok = m >= 4 and m % 2 == 0
    elif kind == "minus":
        ok = q >= 3 and m >= 4
    elif kind == "q-only":
        ok = m == 4
    else:
        ok = m >= 4  # qm1: the closed forms are stated for m >= 4 (at m = 3 the third one is wrong)
    if not ok or over_order_guard(q, m):
        return ok  # a pair over the guard is refused in _pairs_for, before any trial division of a huge q
    try:
        gf.prime_power(q)
    except NotPrime:
        return False
    return True


def _pairs_for(claim: Claim, grid: dict | None) -> tuple:
    if not grid:
        return claim.default_pairs
    unknown = sorted(set(grid) - {"q", "m"})
    if unknown:
        raise UsageError(f"unknown grid keys {unknown}, expected q and/or m")
    if not all(isinstance(v, int) for values in grid.values() for v in values):
        raise UsageError(f"grid values must be integers, got {grid}")
    if any(len(set(values)) < len(values) for values in grid.values()):
        raise UsageError(f"grid values must not repeat within a key, got {grid}")
    qs = grid.get("q")
    ms = grid.get("m")
    base = claim.default_pairs
    if qs is None:
        qs = tuple(sorted({q for q, _ in base}))
    if ms is None:
        ms = tuple(sorted({m for _, m in base}))
    pairs = tuple((q, m) for q in qs for m in ms if _pair_ok(q, m, claim.kind))
    for q, m in pairs:
        if over_order_guard(q, m):
            raise GridTooLarge(f"q^m = {show_int(q)}^{m} exceeds the table-size guard {ORDER_GUARD}")
    return pairs


def _intervals(flags, first_delta: int) -> list[list[int]]:
    """Compress a boolean vector indexed from first_delta into [lo, hi] runs.

    Runs start where the zero-padded vector steps up and end one before
    where it steps down; the bounds come back as plain ints.
    """
    edges = np.flatnonzero(np.diff(np.asarray(flags, dtype=np.int8), prepend=0, append=0)) + first_delta
    starts, stops = edges[0::2].tolist(), edges[1::2].tolist()
    return [[lo, hi - 1] for lo, hi in zip(starts, stops)]


def _true_distance(q: int, m: int, code, budget: int) -> int:
    t = gf.tower_for(q, m)
    res = distance.min_distance_enumerate(t, code, budget=budget)
    assert res.d is not None
    return res.d


# --------------------------------------------------------------------------
# checkers
# --------------------------------------------------------------------------


def _chk_qm1(q, m, budget) -> list[dict]:
    return [_point({"q": q, "m": m}, list(cosets.largest_leaders_qm1(q, m)), cosets.top_k_leaders(q, q**m - 1, 3))]


def _chk_lift(q, m, budget) -> list[dict]:
    n = cosets.family_length(q, m, cosets.PLUS)
    step = max(1, n // 128)
    samples = sorted(set(range(0, n, step)) | {n - 1})
    bad = [j for j in samples if not cosets.lift_correspondence_check(q, m, (q + 1) * j, q + 1)]
    return [_point({"q": q, "m": m, "samples": len(samples), "stride": step}, True, not bad, failed_h=[(q + 1) * j for j in bad])]


def _chk_delta1(family, q, m, budget) -> list[dict]:
    """CLM-D1P (plus) and CLM-THETA (minus): the largest leader against its closed form."""
    n = cosets.family_length(q, m, family)
    return [_point({"q": q, "m": m, "n": n}, cosets.delta1_closed_form(q, m, family), cosets.top_k_leaders(q, n, 1)[0])]


def _chk_delta1_size(family, q, m, budget) -> list[dict]:
    """CLM-SZP (plus) and CLM-SZM (minus): the size of the largest leader's coset."""
    n = cosets.family_length(q, m, family)
    d1 = cosets.top_k_leaders(q, n, 1)[0]
    return [_point({"q": q, "m": m}, cosets.delta1_coset_size_closed_form(q, m, family), cosets.cyclotomic_coset(q, n, d1).size)]


def _chk_t1(q, m, budget) -> list[dict]:
    n = cosets.family_length(q, m, cosets.PLUS)
    d1 = cosets.top_k_leaders(q, n, 1)[0]
    expected_dim = m + 1 if m % 4 == 0 else m // 2 + 1
    if d1 < 2:  # degenerate point: empty defining set, full code
        return [
            _point({"q": q, "m": m, "check": "dimension", "delta1": d1}, expected_dim, n),
            _point({"q": q, "m": m, "check": "distance", "delta1": d1}, True, 1 >= d1, note="full code, d = 1"),
        ]
    ds = bch.defining_set(q, n, d1, 1)
    k = n - ds.size
    pts = [_point({"q": q, "m": m, "check": "dimension", "delta1": d1}, expected_dim, k)]
    if distance.route(q, n, k, budget) is None:
        pts.append(_skip({"q": q, "m": m, "check": "distance", "delta1": d1}, f"q^k = {q}^{k} and q^(n-k) = {q}^{n - k} over budget"))
        return pts
    t = gf.tower_for(q, m)
    code = bch.bch_code(t, n, d1, family=cosets.PLUS, m=m)
    d = _true_distance(q, m, code, budget)
    pts.append(_point({"q": q, "m": m, "check": "distance", "delta1": d1}, True, d >= d1, true_d=d))
    return pts


def _chk_fam(q, m, budget) -> list[dict]:
    # exponent ranges follow the lemma's use sites: l odd up to m/2, t even up
    # to m-2 (larger l fail by brute force, e.g. l = 3 at q = 3, m = 4); the
    # geometric-sum values are residues mod n (they equal n exactly when q = 2)
    n = cosets.family_length(q, m, cosets.PLUS)
    values: list[tuple[str, int, int]] = []
    for l in range(1, m // 2 + 1, 2):
        values.append(("(q^l+1)/(q+1)", l, (q**l + 1) // (q + 1)))
    for t in range(2, m - 1, 2):
        values.append(("(q^t-1)/(q+1)", t, (q**t - 1) // (q + 1)))
    geom = (q**m - 1) // (q - 1)
    values.append(("sum(q^i)/(q+1)", 0, geom // (q + 1) % n))
    values.append(("(q-2)sum(q^i)/(q+1)", 0, (q - 2) * geom // (q + 1) % n))
    values.append(("(q^m-q^(m-1)-q^(m-2)-1)/(q+1)", 0, (q**m - q ** (m - 1) - q ** (m - 2) - 1) // (q + 1)))
    return [_point({"q": q, "m": m, "form": form, "exponent": par, "value": v}, True, cosets.is_coset_leader(q, n, v)) for form, par, v in values]


def _chk_2nd4(q, m, budget) -> list[dict]:
    n = (q**4 - 1) // (q + 1)
    observed = cosets.top_k_leaders(q, n, 2)[1]
    if q % 2 == 1:
        return [_point({"q": q, "m": 4}, cosets.second_largest_m4_plus(q), observed)]
    formula = ((q - 1) * q**3 - q**2 - q - 2) // (q + 1)
    return [_flag({"q": q, "m": 4}, formula, observed, "informational: formula asserted for odd q only")]


def _chk_idp(q, m, budget) -> list[dict]:
    n = cosets.family_length(q, m, cosets.PLUS)
    pts = []
    for t in range(2, m - 1, 2):
        lo = (q**t - 1) // (q + 1) + 1
        hi = min((q ** (t + 1) + 2 * q**t - 1) // (q + 1), n - 1)
        deltas = np.arange(max(2, lo), hi + 1)
        if deltas.size == 0:
            continue
        expected = (q ** (m - t) - 1) // (q + 1)
        vals = bch.i_of_delta_sweep(q, n, deltas)
        mism = deltas[vals != expected]
        params = {"q": q, "m": m, "t": t, "delta_lo": int(deltas[0]), "delta_hi": int(deltas[-1]), "count": int(deltas.size)}
        if mism.size == 0:
            pts.append(_point(params, expected, expected))
        else:
            d0 = int(mism[0])
            pts.append(_point(params, expected, int(vals[deltas == d0][0]), first_mismatch_delta=d0))
    return pts


def _chk_idm(q, m, budget) -> list[dict]:
    n = cosets.family_length(q, m, cosets.MINUS)
    endpoints = {(q**j - 1) // (q - 1) for j in range(2, m)}
    brackets = []
    for t in range(1, m - 1):
        lo = (q**t - 1) // (q - 1) + 1
        hi = (q ** (t + 1) - 1) // (q - 1)
        brackets.append((t, lo, hi, (q ** (m - t) - 1) // (q - 1)))
    brackets.append(("top", (q ** (m - 1) - 1) // (q - 1) + 1, n - 1, 1))
    pts = []
    for t, lo, hi, expected in brackets:
        deltas = np.arange(max(2, lo), min(hi, n - 1) + 1)
        if deltas.size == 0:
            continue
        vals = bch.i_of_delta_sweep(q, n, deltas)
        mism = deltas[vals != expected]
        hard = [int(d) for d in mism if int(d) not in endpoints]
        soft = [int(d) for d in mism if int(d) in endpoints]
        params = {"q": q, "m": m, "t": t if t != "top" else 0, "bracket": str(t), "delta_lo": int(deltas[0]), "delta_hi": int(deltas[-1]), "count": int(deltas.size)}
        if hard:
            d0 = hard[0]
            pts.append(_point(params, expected, int(vals[deltas == d0][0]), first_mismatch_delta=d0))
        elif soft:
            pts.append(_flag(params, expected, int(vals[deltas == soft[0]][0]), f"mismatch only at bracket endpoints {soft}"))
        else:
            pts.append(_point(params, expected, expected))
    return pts


def _dual_distance_sweep_points(q, m, budget, deltas, bound_fn, claim_tag) -> list[dict]:
    n = cosets.family_length(q, m, cosets.PLUS)
    pts = []
    skipped = 0
    t = None
    cache: dict[int, tuple[int, str]] = {}  # |T| -> (dual d, method); T(delta) nests, so equal size means equal set
    for delta in deltas:
        size_t = bch.defining_set(q, n, delta).size
        if distance.route(q, n, size_t, budget) is None:  # the dual has dimension |T|
            skipped += 1
            continue
        if size_t not in cache:
            if t is None:
                t = gf.tower_for(q, m)
            code = bch.bch_code(t, n, delta, family=cosets.PLUS, m=m)
            dual = bch.dual_code(t, code)
            res = distance.min_distance_enumerate(t, dual, budget=budget)
            cache[size_t] = (res.d, res.method)
        d, meth = cache[size_t]
        bound = bound_fn(q, m, delta)
        pts.append(_point({"q": q, "m": m, "delta": delta}, True, bound <= d, bound=bound, true_dual_d=d, method=meth))
    if skipped:
        pts.append(_skip({"q": q, "m": m}, f"{skipped} deltas over budget for {claim_tag}"))
    return pts


def _chk_b1002(q, m, budget) -> list[dict]:
    n = cosets.family_length(q, m, cosets.PLUS)
    return _dual_distance_sweep_points(q, m, budget, range(2, n + 1), distance.dual_bound_closed_form, "CLM-B1002")


def _chk_lb1002(q, m, budget) -> list[dict]:
    def bound(q, m, d):
        return (q ** (m - 1) + 2 * q ** (m - 2) - 1) // (q + 1)

    return _dual_distance_sweep_points(q, m, budget, range(2, q), bound, "CLM-LB1002")  # 2 <= delta <= q-1 (empty for q = 2)


def _sweep_claim(q, m, family: str, theorem3: bool = False) -> list[dict]:
    n = cosets.family_length(q, m, family)
    d1 = cosets.top_k_leaders(q, n, 1)[0]
    observed = _intervals(bch.dually_bch_sweep(q, n), 2)
    return [_point({"q": q, "m": m, "n": n, "delta1": d1}, _theorem_intervals(d1, n, theorem3 and m == 4), observed)]


def _theorem_intervals(d1: int, n: int, m4: bool) -> list[list[int]]:
    """The deltas in [2, n] at which Theorems 2, 3 and 5 call the code dually-BCH, as sweep intervals.

    Each says delta >= delta1 + 1; Theorem 3 at m = 4 (``m4``) adds delta = 2
    and delta = delta1, one run with the rest when delta1 <= 3.  delta1 is the
    largest coset leader, so 1 <= delta1 <= n - 1 and no run is empty.
    """
    if not m4:
        return [[d1 + 1, n]]
    return [[2, 2], [d1, n]] if d1 > 3 else [[2, n]]


def _chk_t2(q, m, budget) -> list[dict]:
    return _sweep_claim(q, m, cosets.PLUS) if q == 2 else []


def _chk_t3(q, m, budget) -> list[dict]:
    return _sweep_claim(q, m, cosets.PLUS, theorem3=True) if q > 2 else []


def _chk_t5(q, m, budget) -> list[dict]:
    return _sweep_claim(q, m, cosets.MINUS)


def _direct_theta_expansion(q: int, m: int) -> list[int]:
    total = 0
    for t in range(1, q):
        total += q ** math.ceil(Fraction(m * t, q - 1) - 1)
    digits = []
    for _ in range(m):
        digits.append(total % q)
        total //= q
    assert total == 0
    return list(reversed(digits))


def _chk_rup(q, m, budget) -> list[dict]:
    td = cosets.theta_digits(q, m)
    expansion = _direct_theta_expansion(q, m)
    return [
        _point({"q": q, "m": m, "t1": td.t1, "t2": td.t2, "check": "digits"}, list(td.digits), expansion),
        _point({"q": q, "m": m, "check": "digit-sum"}, q - 1, sum(expansion)),
    ]


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

_CLAIMS = (
    Claim("CLM-QM1", "the three largest coset leaders modulo q^m-1 are (q-1)q^(m-1)-1, minus q^floor((m-1)/2), minus q^floor((m+1)/2)", "qm1", QM1_PAIRS, _chk_qm1),
    Claim("CLM-LIFT", "h multiple of q+1 is a leader modulo q^m-1 iff h/(q+1) is a leader modulo (q^m-1)/(q+1)", "plus", PLUS_PAIRS, _chk_lift),
    Claim("CLM-D1P", "largest leader modulo (q^m-1)/(q+1) is ((q-1)q^(m-1)-q^(m/2 or (m-2)/2)-1)/(q+1) by m mod 4", "plus", PLUS_PAIRS, partial(_chk_delta1, cosets.PLUS)),
    Claim("CLM-SZP", "the largest leader's coset modulo (q^m-1)/(q+1) has size m (m=0 mod 4) or m/2 (m=2 mod 4)", "plus", PLUS_PAIRS, partial(_chk_delta1_size, cosets.PLUS)),
    Claim("CLM-T1", "the code at designed distance delta1 has dimension m+1 (m=0 mod 4) or m/2+1, and distance >= delta1", "plus", PLUS_PAIRS, _chk_t1),
    Claim("CLM-FAM", "five closed-form families of values (l odd <= m/2, t even <= m-2, two geometric sums, one corner value) are coset leaders modulo (q^m-1)/(q+1)", "plus", PLUS_PAIRS, _chk_fam),
    Claim("CLM-2ND4", "second largest leader modulo (q^4-1)/(q+1) is ((q-1)q^3-q^2-q-2)/(q+1) for odd q", "q-only", ((2, 4), (3, 4), (4, 4), (5, 4), (7, 4)), _chk_2nd4),
    Claim("CLM-IDP", "I(delta) = (q^(m-t)-1)/(q+1) on the bracket (q^t-1)/(q+1) < delta <= (q^(t+1)+2q^t-1)/(q+1), t even", "plus", PLUS_PAIRS, _chk_idp),
    Claim("CLM-IDM", "I(delta) = (q^(m-t)-1)/(q-1) on (q^t-1)/(q-1) < delta <= (q^(t+1)-1)/(q-1), and 1 on the top bracket", "minus", MINUS_PAIRS, _chk_idm),
    Claim("CLM-B1002", "the piecewise closed-form dual bound is <= the true dual distance", "plus", ((2, 6), (3, 4)), _chk_b1002),
    Claim("CLM-LB1002", "for 2 <= delta <= q-1 the dual distance is >= (q^(m-1)+2q^(m-2)-1)/(q+1)", "plus", PLUS_PAIRS, _chk_lb1002),
    Claim("CLM-T2", "for q = 2 the code is dually-BCH iff delta1+1 <= delta <= n", "plus", PLUS_PAIRS, _chk_t2),
    Claim("CLM-T3", "for q > 2 the code is dually-BCH iff delta >= delta1+1, plus delta = 2 and delta = delta1 when m = 4", "plus", PLUS_PAIRS, _chk_t3),
    Claim("CLM-RUP", "digit structure of sum(q^ceil(mt/(q-1)-1)): value ceil((q-1)/m) exactly on Upsilon, floor elsewhere, digit sum q-1", "minus", MINUS_PAIRS, _chk_rup),
    Claim("CLM-THETA", "largest leader modulo (q^m-1)/(q-1) is (q^m - sum(q^ceil(mt/(q-1)-1)) - 1)/(q-1)", "minus", MINUS_PAIRS, partial(_chk_delta1, cosets.MINUS)),
    Claim("CLM-SZM", "the largest leader's coset modulo (q^m-1)/(q-1) has size m/gcd(m, q-1)", "minus", MINUS_PAIRS, partial(_chk_delta1_size, cosets.MINUS)),
    Claim("CLM-T5", "for q >= 3 the minus-family code is dually-BCH iff delta1+1 <= delta <= n", "minus", MINUS_PAIRS, _chk_t5),
)

_BY_ID = {c.id: c for c in _CLAIMS}


def list_claims() -> tuple[Claim, ...]:
    return _CLAIMS


def _run(claim: Claim, pairs: tuple, budget: int) -> ClaimReport:
    start = time.monotonic()
    points = [p for q, m in pairs for p in claim.checker(q, m, budget)]
    elapsed = int((time.monotonic() - start) * 1000)
    summary = {"pass": 0, "fail": 0, "skip": 0, "flag": 0}
    for p in points:
        summary[p["status"]] += 1
    summary["total"] = len(points)
    return ClaimReport(claim_id=claim.id, statement=claim.statement, points=points, summary=summary, wall_time_ms=elapsed)


def verify_claim(claim_id: str, grid: dict | None = None, budget: int | None = None) -> ClaimReport:
    """Run one claim; UsageError if the grid selects no valid pair for it."""
    if claim_id not in _BY_ID:
        raise UnknownClaim(claim_id)
    claim = _BY_ID[claim_id]
    pairs = _pairs_for(claim, grid)
    if not pairs:
        raise UsageError(f"grid {grid} selects no valid (q, m) pair for {claim_id}")
    return _run(claim, pairs, distance.effective_budget(budget))


def verify_all(grid: dict | None = None, budget: int | None = None) -> list[ClaimReport]:
    """Run every claim; report order always follows the registry.

    A claim whose kind the grid excludes reports no points; UsageError if
    the grid selects no valid pair for any claim.
    """
    plan = [(c, _pairs_for(c, grid)) for c in _CLAIMS]
    if not any(pairs for _, pairs in plan):
        raise UsageError(f"grid {grid} selects no valid (q, m) pair for any claim")
    b = distance.effective_budget(budget)
    return [_run(c, pairs, b) for c, pairs in plan]
