"""Acceptance criteria, one test per criterion.

Each test prints a single `[acceptance] ...: PASS/FAIL` line (visible with
`pytest -s`) and then asserts.  All comparisons are exact integer equality;
the stated runtime limits are asserted with a monotonic clock.
"""

import math
import time

from cosetforge import bch, cosets, distance, gf, verify

PLUS_GRID = [(2, 4), (2, 6), (3, 4), (3, 6), (4, 4), (4, 6), (5, 4), (5, 6), (7, 4), (7, 6), (2, 8), (3, 8)]
MINUS_GRID = [(3, 4), (3, 5), (4, 4), (4, 5), (5, 4), (5, 5), (7, 4), (7, 5), (8, 4), (8, 5), (9, 4), (9, 5), (3, 6), (4, 6)]


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")
    assert ok, f"{criterion} failed: {detail}"


def test_criterion_01_largest_leader_plus():
    start = time.monotonic()
    spot = {(2, 6): 9, (3, 4): 11, (4, 4): 35, (5, 4): 79}
    bad = []
    for q, m in PLUS_GRID:
        n = cosets.family_length(q, m, "plus")
        closed = cosets.delta1_closed_form(q, m, "plus")
        brute = cosets.top_k_leaders(q, n, 1)[0]
        if closed != brute or (q, m) in spot and spot[(q, m)] != closed:
            bad.append((q, m, closed, brute))
    elapsed = time.monotonic() - start
    _report("C01 largest-leader plus", not bad and elapsed < 30, f"{len(PLUS_GRID)} points in {elapsed:.1f}s {bad}")


def test_criterion_02_largest_leader_minus():
    start = time.monotonic()
    bad = []
    for q, m in MINUS_GRID:
        n = cosets.family_length(q, m, "minus")
        closed = cosets.delta1_closed_form(q, m, "minus")
        brute = cosets.top_k_leaders(q, n, 1)[0]
        if closed != brute:
            bad.append((q, m, closed, brute))
    ok = not bad and cosets.delta1_closed_form(3, 4, "minus") == 25
    elapsed = time.monotonic() - start
    _report("C02 largest-leader minus", ok and elapsed < 60, f"{len(MINUS_GRID)} points in {elapsed:.1f}s {bad}")


def test_criterion_03_coset_sizes():
    bad = []
    for family, grid in (("plus", PLUS_GRID), ("minus", MINUS_GRID)):
        for q, m in grid:
            n = cosets.family_length(q, m, family)
            d1 = cosets.top_k_leaders(q, n, 1)[0]
            closed = cosets.delta1_coset_size_closed_form(q, m, family)
            if cosets.cyclotomic_coset(q, n, d1).size != closed:
                bad.append((family, q, m))
    # the [40, 3] code: |C_25| = 2 gives dimension 40 - 37 = 3
    ok = not bad and cosets.delta1_coset_size_closed_form(3, 4, "minus") == 2
    ok = ok and bch.defining_set(3, 40, 25, 1).size == 37
    _report("C03 coset sizes", ok, str(bad))


def test_criterion_04_code_parameters():
    cases = [
        (2, 6, "plus", 9, 21, 4),
        (3, 4, "plus", 11, 20, 5),
        (4, 4, "plus", 35, 51, 5),
        (5, 4, "plus", 79, 104, 5),
        (3, 4, "minus", 25, 40, 3),
    ]
    bad = []
    for q, m, family, delta, n, k in cases:
        _, code = bch.build_family_code(q, m, family, delta)
        if (code.n, code.dimension) != (n, k):
            bad.append((q, m, family, code.n, code.dimension))
    _report("C04 code parameters", not bad, str(bad))


def test_criterion_05_true_dual_distances():
    t20 = gf.tower_for(3, 4)
    start = time.monotonic()
    r1 = distance.min_distance_enumerate(t20, bch.dual_code(t20, bch.bch_code(t20, 20, 2)), method="direct")
    e1 = time.monotonic() - start
    t21 = gf.tower_for(2, 6)
    start = time.monotonic()
    r2 = distance.min_distance_enumerate(t21, bch.dual_code(t21, bch.bch_code(t21, 21, 2)), method="direct")
    e2 = time.monotonic() - start
    ok = r1.d == 12 and r2.d == 8 and e1 < 5 and e2 < 5
    _report("C05 true dual distances", ok, f"d(3,20,2)^perp={r1.d} in {e1:.2f}s, d(2,21,2)^perp={r2.d} in {e2:.2f}s")


def test_criterion_06_dual_bounds_vs_truth():
    ok = distance.dual_bound_closed_form(3, 4, 2) == 11 and distance.dual_bound_closed_form(2, 6, 2) == 6
    bad = []
    for q, m in [(2, 6), (3, 4)]:
        n = cosets.family_length(q, m, "plus")
        t = gf.tower_for(q, m)
        cache = {}
        for delta in range(2, n + 1):
            code = bch.bch_code(t, n, delta)
            dual = bch.dual_code(t, code)
            key = dual.defining.size
            if key not in cache:
                cache[key] = (bch.bch_bound(dual.defining), distance.min_distance_enumerate(t, dual).d)
            run_bound, true_d = cache[key]
            closed = distance.dual_bound_closed_form(q, m, delta)
            if not closed <= run_bound <= true_d:
                bad.append((q, m, delta, closed, run_bound, true_d))
    _report("C06 dual bounds vs truth", ok and not bad, str(bad))


def test_criterion_07_dually_bch_sweeps():
    start = time.monotonic()
    cases = [
        (2, 6, "plus", lambda d, d1, n: d >= d1 + 1),  # expected true set [10, 21]
        (3, 4, "plus", lambda d, d1, n: d == 2 or d >= d1),  # {2} union [11, 20]
        (3, 4, "minus", lambda d, d1, n: d >= d1 + 1),  # [26, 40]
        (2, 8, "plus", lambda d, d1, n: d >= d1 + 1),
        (3, 6, "plus", lambda d, d1, n: d >= d1 + 1),
        (4, 4, "minus", lambda d, d1, n: d >= d1 + 1),
    ]
    frozen = {(2, 6, "plus"): range(10, 22), (3, 4, "plus"): [2] + list(range(11, 21)), (3, 4, "minus"): range(26, 41)}
    bad = []
    for q, m, family, predicate in cases:
        n = cosets.family_length(q, m, family)
        d1 = cosets.top_k_leaders(q, n, 1)[0]
        observed = [d for d in range(2, n + 1) if bch.is_dually_bch(q, m, family, d).verdict]
        expected = [d for d in range(2, n + 1) if predicate(d, d1, n)]
        if observed != expected:
            bad.append((q, m, family))
        if (q, m, family) in frozen and observed != list(frozen[(q, m, family)]):
            bad.append((q, m, family, "frozen"))
    elapsed = time.monotonic() - start
    _report("C07 dually-BCH sweeps", not bad and elapsed < 300, f"6 sweeps in {elapsed:.1f}s {bad}")


def test_criterion_08_i_of_delta_formulas():
    bad = []
    for q, m in [(2, 6), (3, 4)]:  # plus family brackets, t even
        n = cosets.family_length(q, m, "plus")
        for t in range(2, m - 1, 2):
            lo = (q**t - 1) // (q + 1) + 1
            hi = min((q ** (t + 1) + 2 * q**t - 1) // (q + 1), n - 1)
            for delta in range(max(2, lo), hi + 1):
                if bch.i_of_delta(q, n, delta) != (q ** (m - t) - 1) // (q + 1):
                    bad.append(("plus", q, m, t, delta))
    q, m = 3, 4  # minus family brackets, including the top bracket with I = 1
    n = cosets.family_length(q, m, "minus")
    for t in range(1, m - 1):
        lo = (q**t - 1) // (q - 1) + 1
        hi = (q ** (t + 1) - 1) // (q - 1)
        for delta in range(max(2, lo), hi + 1):
            if bch.i_of_delta(q, n, delta) != (q ** (m - t) - 1) // (q - 1):
                bad.append(("minus", q, m, t, delta))
    for delta in range((q ** (m - 1) - 1) // (q - 1) + 1, n):
        if bch.i_of_delta(q, n, delta) != 1:
            bad.append(("minus-top", q, m, delta))
    _report("C08 I(delta) formulas", not bad, str(bad))


def test_criterion_09_property_suites():
    problems = []
    pairs = [("plus", q, m) for q, m in PLUS_GRID] + [("minus", q, m) for q, m in MINUS_GRID]

    # coset partition identity on every default grid point
    for family, q, m in pairs:
        n = cosets.family_length(q, m, family)
        lm = cosets.leader_map(q, n)
        leaders = cosets.coset_leaders(q, n)
        if sorted(set(int(x) for x in lm)) != list(leaders) or len(lm) != n:
            problems.append(("partition", family, q, m))

    # generator divides x^n - 1 (delta = 2 code on every point)
    for family, q, m in pairs:
        n = cosets.family_length(q, m, family)
        t = gf.tower_for(q, m)
        code = bch.bch_code(t, n, 2)
        _, rem = gf.poly_divmod(t, gf.xn_minus_one(t, n), code.genpoly)
        if not rem.is_zero() or code.genpoly.degree != code.defining.size:
            problems.append(("divides", family, q, m))

    # root-set duality on the points with modest length
    for family, q, m in pairs:
        n = cosets.family_length(q, m, family)
        if n > 420:
            continue
        t = gf.tower_for(q, m)
        code = bch.bch_code(t, n, 2)
        dg = bch.dual_generator(t, code)
        beta_exp = (t.order - 1) // n
        roots = {i for i in range(n) if gf.poly_eval(t, dg, t.pow(t.alpha, beta_exp * i)) == 0}
        if roots != set(bch.dual_defining_set(code.defining).exponents):
            problems.append(("root-duality", family, q, m))

    # MacWilliams involution on the flagship codes
    for q, m, family, delta in [(2, 6, "plus", 9), (3, 4, "plus", 11), (4, 4, "plus", 35), (5, 4, "plus", 79), (3, 4, "minus", 25)]:
        t, code = bch.build_family_code(q, m, family, delta)
        w = distance.weight_enumerator(t, code)
        back = distance.macwilliams_transform(
            distance.macwilliams_transform(w, q, k_dual=code.n - code.dimension), q, k_dual=code.dimension
        )
        if back.counts != w.counts:
            problems.append(("macwilliams", q, m, family))

    # monotonicity of T and T_perp under delta on the modest-length points
    for family, q, m in pairs:
        n = cosets.family_length(q, m, family)
        if n > 420:
            continue
        prev_t: frozenset = frozenset()
        prev_p = frozenset(range(n))
        for delta in range(2, n + 1):
            ds = bch.defining_set(q, n, delta, 1)
            dp = bch.dual_defining_set(ds)
            if not (prev_t <= ds.exponents and dp.exponents <= prev_p):
                problems.append(("monotonicity", family, q, m, delta))
                break
            prev_t, prev_p = ds.exponents, dp.exponents

    _report("C09 property suites", not problems, str(problems))


def test_criterion_10_theorem_distance_bounds():
    enumerable_cap = {2: 12, 3: 12, 4: 8, 5: 8}
    results = []
    skipped = []
    for family, grid in (("plus", PLUS_GRID), ("minus", MINUS_GRID)):
        for q, m in grid:
            n = cosets.family_length(q, m, family)
            d1 = cosets.top_k_leaders(q, n, 1)[0]
            if d1 < 2:
                skipped.append((family, q, m, "degenerate delta1 < 2"))
                continue
            k = n - bch.defining_set(q, n, d1, 1).size
            if q not in enumerable_cap or k > enumerable_cap[q]:
                skipped.append((family, q, m, f"k={k} over cap"))
                continue
            t, code = bch.build_family_code(q, m, family, d1)
            d = distance.min_distance_enumerate(t, code, method="direct").d
            results.append((family, q, m, d1, d, d >= d1))
    for entry in skipped:
        print(f"[acceptance] C10 skipped point: {entry}")
    ok = len(results) >= 5 and all(r[-1] for r in results)
    _report("C10 theorem distance bounds", ok, f"{len(results)} enumerated, {len(skipped)} skipped")
