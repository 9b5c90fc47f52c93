"""Claim registry behaviour: membership, oracle agreement, determinism."""

import json
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cosetforge import gf, verify
from cosetforge.errors import GridTooLarge, UnknownClaim, UsageError

ALL_IDS = [
    "CLM-QM1", "CLM-LIFT", "CLM-D1P", "CLM-SZP", "CLM-T1", "CLM-FAM", "CLM-2ND4",
    "CLM-IDP", "CLM-IDM", "CLM-B1002", "CLM-LB1002", "CLM-T2", "CLM-T3",
    "CLM-RUP", "CLM-THETA", "CLM-SZM", "CLM-T5",
]


def test_registry_contents():
    claims = verify.list_claims()
    assert len(claims) == 17
    ids = [c.id for c in claims]
    assert ids == ALL_IDS
    assert "CLM-D1P" in ids and "CLM-T5" in ids
    for c in claims:
        assert c.statement and c.default_pairs


def test_unknown_claim():
    with pytest.raises(UnknownClaim):
        verify.verify_claim("CLM-NOPE")


def test_grid_too_large():
    with pytest.raises(GridTooLarge):
        verify.verify_claim("CLM-D1P", grid={"q": [3], "m": [18]})


def test_d1p_small_grid():
    rep = verify.verify_claim("CLM-D1P", grid={"q": [3, 5], "m": [4]})
    assert rep.ok()
    by_q = {p["params"]["q"]: p for p in rep.points}
    assert by_q[5]["expected"] == 79 and by_q[5]["observed"] == 79
    assert by_q[3]["expected"] == 11


def test_theta_small_grid():
    rep = verify.verify_claim("CLM-THETA", grid={"q": [3], "m": [4]})
    assert rep.ok()
    assert rep.points[0]["expected"] == 25 and rep.points[0]["observed"] == 25


def test_t3_sweep_intervals():
    rep = verify.verify_claim("CLM-T3", grid={"q": [3], "m": [4]})
    assert rep.ok()
    point = rep.points[0]
    assert point["expected"] == [[2, 2], [11, 20]]
    assert point["observed"] == [[2, 2], [11, 20]]


def intervals_oracle(flags, first_delta):
    """The per-delta loop: extend the last run or open a new one."""
    out = []
    for j, v in enumerate(flags):
        if not v:
            continue
        d = first_delta + j
        if out and out[-1][1] == d - 1:
            out[-1][1] = d
        else:
            out.append([d, d])
    return out


def test_intervals_match_loop_oracle():
    rng = np.random.default_rng(7)
    cases = [rng.random(size) < density for size in (2, 3, 17, 300) for density in (0.1, 0.5, 0.9) for _ in range(5)]
    cases += [np.ones(40, dtype=bool), np.zeros(40, dtype=bool), np.array([True]), np.array([False]), np.array([], dtype=bool)]
    cases += [np.array([True, True, False, False, True]), np.array([True, False, True]), np.array([False, True, True, False])]
    cases += [[True, False, True, True], [False, True]]  # plain lists, as CLM-T2/T3/T5 pass their predictions
    for flags in cases:
        for first in (0, 2, 9):
            got = verify._intervals(flags, first)
            assert got == intervals_oracle(flags, first), (list(flags), first)
            assert all(type(x) is int for run in got for x in run)


def predicate_intervals(claim_id, m, d1, n):
    """The theorems' expected side as one predicate value per delta in [2, n], compressed by _intervals."""
    if claim_id == "CLM-T3" and m == 4:
        flags = [d == 2 or d >= d1 for d in range(2, n + 1)]
    else:
        flags = [d >= d1 + 1 for d in range(2, n + 1)]
    return verify._intervals(flags, 2)


SWEEP_CLAIM_FAMILY = {"CLM-T2": "plus", "CLM-T3": "plus", "CLM-T5": "minus"}
SWEEP_CLAIM_POINTS = {"CLM-T2": 5, "CLM-T3": 11, "CLM-T5": 17}  # default pairs and sweep points each claim takes
# the nine dually-bch --sweep points of perfbench's coset-sweeps workload
BENCH_SWEEP_POINTS = [("plus", 16, 4), ("plus", 2, 14), ("minus", 9, 5), ("minus", 3, 9), ("plus", 4, 8), ("plus", 7, 6), ("minus", 11, 5), ("plus", 2, 16), ("minus", 3, 10)]


@pytest.mark.parametrize("claim_id", sorted(SWEEP_CLAIM_FAMILY))
def test_sweep_claims_expect_the_predicate_intervals(claim_id):
    # the closed-form expected side of CLM-T2/T3/T5 against the per-delta predicate it replaced,
    # on every default pair and every coset-sweeps sweep point the claim takes (T2: q = 2, T3: q > 2)
    family = SWEEP_CLAIM_FAMILY[claim_id]
    claim = next(c for c in verify.list_claims() if c.id == claim_id)
    pairs = set(claim.default_pairs) | {(q, m) for fam, q, m in BENCH_SWEEP_POINTS if fam == family}
    checked = 0
    for q, m in sorted(pairs):
        for point in verify.verify_claim(claim_id, grid={"q": [q], "m": [m]}).points:
            params = point["params"]
            want = predicate_intervals(claim_id, m, params["delta1"], params["n"])
            assert point["expected"] == want, (claim_id, q, m)
            assert json.dumps(point["expected"]) == json.dumps(want)
            assert point["status"] == "pass"
            checked += 1
    assert checked == SWEEP_CLAIM_POINTS[claim_id]


@pytest.mark.parametrize("m4", [False, True])
def test_theorem_intervals_match_the_predicate_on_every_delta1(m4):
    m = 4 if m4 else 6
    for n in range(5, 70):
        for d1 in range(1, n):
            assert verify._theorem_intervals(d1, n, m4) == predicate_intervals("CLM-T3", m, d1, n), (n, d1, m4)


def test_t2_and_t5_small():
    assert verify.verify_claim("CLM-T2", grid={"q": [2], "m": [6]}).ok()
    rep = verify.verify_claim("CLM-T5", grid={"q": [3], "m": [4]})
    assert rep.ok()
    assert rep.points[0]["observed"] == [[26, 40]]


def test_2nd4_flags_even_q():
    rep = verify.verify_claim("CLM-2ND4", grid={"q": [2, 3, 4]})
    statuses = {p["params"]["q"]: p["status"] for p in rep.points}
    assert statuses == {2: "flag", 3: "pass", 4: "flag"}
    assert rep.ok()  # flagged points never fail a claim


def test_rup_points():
    rep = verify.verify_claim("CLM-RUP", grid={"q": [4], "m": [4]})
    assert rep.ok()
    digits = [p for p in rep.points if p["params"].get("check") == "digits"][0]
    assert digits["expected"] == [1, 1, 1, 0]


def test_idm_claim_small():
    rep = verify.verify_claim("CLM-IDM", grid={"q": [3], "m": [4]})
    assert rep.ok()
    brackets = {p["params"]["bracket"]: p["expected"] for p in rep.points}
    assert brackets == {"1": 13, "2": 4, "top": 1}


def test_b1002_points_record_both_sides():
    rep = verify.verify_claim("CLM-B1002", grid={"q": [3], "m": [4]})
    assert rep.ok()
    executed = [p for p in rep.points if p["status"] == "pass"]
    assert executed and all(p["bound"] <= p["true_dual_d"] for p in executed)
    d2 = [p for p in executed if p["params"]["delta"] == 2][0]
    assert d2["bound"] == 11 and d2["true_dual_d"] == 12


def test_t1_points():
    rep = verify.verify_claim("CLM-T1", grid={"q": [3], "m": [4]})
    assert rep.ok()
    dim = [p for p in rep.points if p["params"]["check"] == "dimension"][0]
    assert dim["expected"] == 5 and dim["observed"] == 5


def test_report_determinism():
    a = verify.verify_claim("CLM-FAM", grid={"q": [3], "m": [4, 6]}).to_dict()
    b = verify.verify_claim("CLM-FAM", grid={"q": [3], "m": [4, 6]}).to_dict()
    a.pop("wall_time_ms")
    b.pop("wall_time_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_dual_distance_sweep_beyond_n_256():
    # n = 341: every delta with q^|T| or q^(n-|T|) within the budget is enumerated
    rep = verify.verify_claim("CLM-B1002", grid={"q": [2], "m": [10]}, budget=10**5)
    assert rep.summary == {"pass": 218, "fail": 0, "skip": 1, "flag": 0, "total": 219}
    methods = {p["method"] for p in rep.points if p["status"] == "pass"}
    assert methods == {"direct-enum", "dual-macwilliams"}
    assert rep.points[-1]["note"] == "122 deltas over budget for CLM-B1002"


def test_q_only_claim_takes_m_4_only():
    rep = verify.verify_claim("CLM-2ND4", grid={"q": [3], "m": [4, 6]})
    assert [p["params"] for p in rep.points] == [{"q": 3, "m": 4}]
    with pytest.raises(UsageError):
        verify.verify_claim("CLM-2ND4", grid={"q": [3], "m": [6]})


def test_points_are_json_serializable():
    for cid in ("CLM-QM1", "CLM-LIFT", "CLM-IDP", "CLM-SZM"):
        rep = verify.verify_claim(cid, grid={"q": [3], "m": [4]})
        json.dumps(rep.to_dict())
        assert rep.ok()


def test_grid_validation():
    with pytest.raises(UsageError):
        verify.verify_claim("CLM-D1P", grid={"q": [3], "x": [4]})
    with pytest.raises(UsageError):
        verify.verify_claim("CLM-D1P", grid={"q": ["3"]})
    with pytest.raises(UsageError):
        verify.verify_claim("CLM-THETA", grid={"q": [2], "m": [4]})
    with pytest.raises(UsageError):
        verify.verify_all(grid={"q": [6]})


def test_tower_built_once_under_threads(monkeypatch):
    search = gf._smallest_primitive_modulus

    def slow_search(p, d):  # widen the window in which two threads can miss together
        time.sleep(0.2)
        return search(p, d)

    monkeypatch.setattr(gf, "_smallest_primitive_modulus", slow_search)
    # more threads than cores, all missing the same tower at once
    gf.tower_for.cache_clear()
    gf.build_tower.cache_clear()
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(gf.tower_for, 7, 4) for _ in range(8)]
        towers = [f.result(timeout=60) for f in futures]
    assert gf.build_tower.cache_info().misses == 1
    assert all(t is towers[0] for t in towers)
