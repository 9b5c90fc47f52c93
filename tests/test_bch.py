"""Defining sets, recognition, duals, and the dually-BCH decision."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetforge import bch, cosets, gf
from cosetforge.errors import DeltaOutOfRange, FamilyConstraint, NotPrime, OrderTooLarge, OutOfRange, TowerMismatch, UsageError


def closure(q, n, indices):
    out = set()
    for s in indices:
        x = s % n
        while x not in out:
            out.add(x)
            x = x * q % n
    return out


def naive_leader(q, n, x):
    return min(closure(q, n, [x]))


def mask(n, residues):
    """Boolean array over Z_n marking the residues (the form DefiningSet takes)."""
    out = np.zeros(n, dtype=bool)
    out[list(residues)] = True
    return out


def from_residues(q, n, residues):
    """A DefiningSet over the residues; the constructor takes their mask."""
    return bch.DefiningSet(q, n, mask(n, residues))


def test_defining_set_examples():
    ds = bch.defining_set(2, 21, 9, 1)
    assert ds.size == 17
    assert ds.source_cosets == (1, 3, 5, 7)
    assert ds.exponents == frozenset(closure(2, 21, range(1, 9)))

    ds2 = bch.defining_set(3, 20, 2, 1)
    assert ds2.exponents == frozenset({1, 3, 9, 7})  # C_1 exactly

    ds3 = bch.defining_set(3, 20, 11, 1)
    assert ds3.size == 15  # dimension will be 5


def test_defining_set_delta_range():
    with pytest.raises(DeltaOutOfRange):
        bch.defining_set(2, 21, 1, 1)
    with pytest.raises(DeltaOutOfRange):
        bch.defining_set(2, 21, 22, 1)


def test_dual_defining_set_examples():
    t = bch.defining_set(3, 20, 2, 1)
    dd = bch.dual_defining_set(t)
    assert dd.exponents == frozenset(range(20)) - {19, 17, 13, 11}
    assert dd.size == 16

    empty = from_residues(3, 20, frozenset())
    assert bch.dual_defining_set(empty).size == 20
    full = from_residues(3, 20, frozenset(range(20)))
    assert bch.dual_defining_set(full).size == 0


def test_defining_set_is_its_mask():
    # source cosets are read off the leader map, so two sets from one mask agree, leaders included
    t = gf.tower_for(2, 6)
    for q, n, delta in [(2, 21, 4), (3, 20, 6), (3, 40, 9), (4, 85, 3)]:
        bits = bch.defining_set(q, n, delta).mask
        a, b = bch.DefiningSet(q, n, bits), bch.DefiningSet(q, n, bits.copy())
        assert a == b and hash(a) == hash(b)
        assert a.source_cosets == tuple(sorted({naive_leader(q, n, x) for x in a.exponents}))
    ds = bch.DefiningSet(2, 21, bch.defining_set(2, 21, 4).mask)
    assert bch.recognize_bch(ds).witness == (1, 5)
    assert bch.generator_polynomial(t, ds).degree == ds.size == 9


def test_defining_set_rejects_a_mask_not_coset_closed():
    # {5} is not a union of 2-cyclotomic cosets modulo 21 (C_5 has six members); nor is a BCH set missing one member
    t = gf.tower_for(2, 6)
    broken = bch.defining_set(2, 21, 4).mask.copy()
    broken[2] = False
    for ds in (bch.DefiningSet(2, 21, mask(21, {5})), bch.DefiningSet(2, 21, broken)):
        with pytest.raises(OutOfRange):
            bch.recognize_bch(ds)
        with pytest.raises(OutOfRange):
            bch.generator_polynomial(t, ds)


def test_defining_set_rejects_mis_sized_mask():
    for bits in (np.zeros(19, dtype=bool), np.zeros(21, dtype=bool), np.zeros((4, 5), dtype=bool), frozenset({1, 3, 7, 9})):
        with pytest.raises(OutOfRange):
            bch.DefiningSet(3, 20, bits)


def recognized_dual(q, m, family, delta):
    """Reference decision: build T, then T_perp, and run the general recognition walk on T_perp."""
    n = bch.dually_bch_length(q, m, family)
    rec = bch.recognize_bch(bch.dual_defining_set(bch.defining_set(q, n, delta, 1)))
    return bch.DuallyBchResult(verdict=rec.is_bch, witness=rec.witness)


def test_defining_set_memory_per_residue():
    # the set, its dual and the recognition walk cost a few bytes per residue,
    # not a Python object per member; the decision read off the map keeps no
    # mask, only its two comparisons of the map (a byte per residue each, one
    # at a time)
    q, m, n = 2, 16, 21845
    cosets.leader_map(q, n)  # cached table, shared by every set modulo n
    for decide, bound in ((recognized_dual, 48 * n), (bch.is_dually_bch, 1.5 * n)):
        tracemalloc.start()
        try:
            res = decide(q, m, "plus", 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not res.verdict
        assert peak < bound, (decide.__name__, peak / n)


def test_dual_defining_set_coset_closed():
    for q, n, delta in [(2, 21, 5), (3, 40, 7), (4, 85, 9)]:
        dd = bch.dual_defining_set(bch.defining_set(q, n, delta, 1))
        assert dd.exponents == frozenset(closure(q, n, dd.exponents))


DUALITY_MODULI = [(2, 21), (3, 20), (3, 40), (4, 85), (5, 104), (2, 101), (7, 300), (3, 121)]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_dual_defining_set_duality_property(data):
    # T is any union of nonzero cosets, built here by orbit walks
    q, n = data.draw(st.sampled_from(DUALITY_MODULI))
    leaders = sorted({naive_leader(q, n, x) for x in range(1, n)})
    chosen = data.draw(st.lists(st.sampled_from(leaders), unique=True))
    t = from_residues(q, n, frozenset(closure(q, n, chosen)))
    tperp = bch.dual_defining_set(t)
    assert bch.dual_defining_set(tperp) == t
    assert tperp.size == n - t.size
    assert tperp.exponents == frozenset(closure(q, n, tperp.exponents))
    assert 0 in tperp.exponents
    assert not tperp.exponents & {(n - x) % n for x in t.exponents}


def longest_run(exps, n):
    """Reference: the longest cyclic run, walked forward from every run start."""
    if len(exps) == n:
        return n
    best = 0
    for x in exps:
        if (x - 1) % n not in exps:
            length = 1
            while (x + length) % n in exps:
                length += 1
            best = max(best, length)
    return best


def per_anchor_scan(ds):
    """Reference recognition: walk the run forward from every anchor and
    collect the leaders it covers (quadratic in the run length)."""
    exps, n = ds.exponents, ds.n
    if not exps:
        return bch.Recognition(is_bch=False, witness=None, empty=True)
    if len(exps) == n:
        candidates = [(x + 1) % n for x in range(n) if x * ds.q % n != x]
        if not candidates:
            return bch.Recognition(is_bch=False, witness=None)
        return bch.Recognition(is_bch=True, witness=(min(candidates), n))
    total = len(ds.source_cosets)
    best = None
    for b in sorted(set(ds.source_cosets) | ({0} if 0 in exps else set())):
        length = 0
        while length < n and (b + length) % n in exps:
            length += 1
        if len({naive_leader(ds.q, n, b + j) for j in range(length)}) == total:
            if best is None or length + 1 > best[1] or (length + 1 == best[1] and b < best[0]):
                best = (b, length + 1)
    if best is None:
        return bch.Recognition(is_bch=False, witness=None)
    return bch.Recognition(is_bch=True, witness=best)


def recognition_sets():
    """Every distinct T and T_perp over b in {0, 1, 3} and every delta, on small moduli.

    With q = 1 mod n every coset is a singleton, so windows wrap through n-1 -> 0.
    """
    moduli = SWEEP_MODULI[:4] + [qn for qn in family_moduli(200) if qn not in SWEEP_MODULI[:4]]
    moduli += [(5, 4), (7, 6), (9, 8)]
    seen = set()
    for q, n in moduli:
        for b in (0, 1, 3):
            for delta in range(2, n + 1):
                t = bch.defining_set(q, n, delta, b)
                for ds in (t, bch.dual_defining_set(t)):
                    if (q, n, ds.exponents) not in seen:
                        seen.add((q, n, ds.exponents))
                        yield ds


def test_bch_bound_examples():
    assert bch.bch_bound(bch.defining_set(2, 21, 9, 1)) >= 9
    run = from_residues(3, 20, frozenset(range(11)))
    assert bch.bch_bound(run) == 12
    single = from_residues(2, 21, frozenset({5}))
    assert bch.bch_bound(single) == 2
    assert bch.bch_bound(from_residues(2, 21, frozenset())) == 1
    # wrap-around run
    wrap = from_residues(3, 20, frozenset({19, 0, 1, 2, 7}))
    assert bch.bch_bound(wrap) == 5
    for ds in recognition_sets():
        assert bch.bch_bound(ds) == longest_run(ds.exponents, ds.n) + 1, (ds.q, ds.n, ds.source_cosets)


def test_recognize_bch_matches_per_anchor_scan():
    count = 0
    for ds in recognition_sets():
        assert bch.recognize_bch(ds) == per_anchor_scan(ds), (ds.q, ds.n, ds.source_cosets)
        count += 1
    assert count > 800


def test_recognize_bch_examples():
    tperp = bch.dual_defining_set(bch.defining_set(3, 20, 2, 1))
    rec = bch.recognize_bch(tperp)
    assert rec.is_bch and rec.witness == (0, 12)  # anchored at b = 0

    c5 = bch.DefiningSet(2, 21, mask(21, closure(2, 21, [5])))
    rec5 = bch.recognize_bch(c5)
    assert rec5.is_bch and rec5.witness == (5, 2)

    c1c5 = bch.DefiningSet(2, 21, mask(21, closure(2, 21, [1, 5])))
    assert not bch.recognize_bch(c1c5).is_bch

    assert bch.recognize_bch(from_residues(2, 21, frozenset())).empty


def test_recognize_bch_reconstructs_window():
    # every recognized witness must reproduce the set as a window closure
    for q, n, delta in [(2, 21, 4), (3, 20, 6), (3, 40, 9), (4, 85, 3)]:
        tperp = bch.dual_defining_set(bch.defining_set(q, n, delta, 1))
        rec = bch.recognize_bch(tperp)
        if rec.is_bch:
            b, d = rec.witness
            assert closure(q, n, [(b + j) % n for j in range(d - 1)]) == set(tperp.exponents)


def test_is_dually_bch_examples():
    r = bch.is_dually_bch(3, 4, "plus", 2)
    assert r.verdict and r.witness == (0, 12)
    assert not bch.is_dually_bch(3, 4, "plus", 5).verdict
    r = bch.is_dually_bch(2, 6, "plus", 10)
    assert r.verdict and r.witness == (0, 2)
    assert bch.dual_defining_set(bch.defining_set(2, 21, 10)).exponents == {0}
    with pytest.raises(FamilyConstraint):
        bch.is_dually_bch(3, 5, "plus", 2)
    with pytest.raises(DeltaOutOfRange):
        bch.is_dually_bch(3, 4, "plus", 21)


def test_i_of_delta_examples():
    assert bch.i_of_delta(2, 21, 4) == 5  # (2^4-1)/3
    assert bch.i_of_delta(3, 20, 2) == 11
    assert bch.i_of_delta(3, 40, 2) == 13  # (3^3-1)/2
    with pytest.raises(DeltaOutOfRange):
        bch.i_of_delta(3, 20, 20)


def test_defining_set_matches_orbit_walks():
    for q, n in [(2, 21), (3, 20), (3, 40), (4, 85), (2, 101)]:
        for b in (0, 1, 3):
            for delta in range(2, n + 1):
                ds = bch.defining_set(q, n, delta, b)
                want = closure(q, n, [b + j for j in range(delta - 1)])
                assert ds.exponents == frozenset(want), (q, n, b, delta)
                assert ds.source_cosets == tuple(sorted({naive_leader(q, n, x) for x in want})), (q, n, b, delta)


def family_points(max_n):
    """(q, m, family, n) of both families with m >= 4 and n <= max_n, q in {2, ..., 9} (q >= 11 gives n > 1200)."""
    out = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        for m in range(4, 13):
            for family in ("plus", "minus"):
                if (family == "plus" and m % 2 == 0) or (family == "minus" and q >= 3):
                    n = cosets.family_length(q, m, family)
                    if n <= max_n:
                        out.append((q, m, family, n))
    return out


def family_moduli(max_n):
    """Distinct (q, n) of the family points with n <= max_n."""
    return sorted({(q, n) for q, _, _, n in family_points(max_n)})


SWEEP_MODULI = [(2, 21), (3, 20), (3, 40), (4, 85)]  # the original grid keeps its test ids first
SWEEP_MODULI += [qn for qn in family_moduli(400) if qn not in SWEEP_MODULI]


@pytest.mark.parametrize("q,n", SWEEP_MODULI)
def test_sweeps_agree_with_scalar_ops(q, n):
    sweep = bch.dually_bch_sweep(q, n)
    for j, delta in enumerate(range(2, n + 1)):
        tperp = bch.dual_defining_set(bch.defining_set(q, n, delta, 1))
        assert bool(sweep[j]) == bch.recognize_bch(tperp).is_bch, (q, n, delta)
    ivals = bch.i_of_delta_sweep(q, n, list(range(2, n)))
    for j, delta in enumerate(range(2, n)):
        assert int(ivals[j]) == bch.i_of_delta(q, n, delta), (q, n, delta)


COPRIME_QS = (2, 3, 4, 5, 7, 8, 9)


@pytest.mark.parametrize("q", COPRIME_QS)
def test_i_of_delta_sweep_matches_scalar_on_every_modulus(q):
    # every coprime n below 200, family lengths or not
    for n in range(2, 200):
        if np.gcd(q, n) != 1:
            continue
        ivals = bch.i_of_delta_sweep(q, n, np.arange(2, n))
        assert [int(v) for v in ivals] == [bch.i_of_delta(q, n, delta) for delta in range(2, n)], (q, n)


@pytest.mark.parametrize("q", COPRIME_QS)
def test_dually_bch_sweep_matches_recognition_on_every_modulus(q):
    for n in range(2, 80):
        if np.gcd(q, n) != 1:
            continue
        want = []
        for delta in range(2, n + 1):
            rec = bch.recognize_bch(bch.dual_defining_set(bch.defining_set(q, n, delta)))
            want.append(rec.is_bch or rec.empty)
        assert bch.dually_bch_sweep(q, n).tolist() == want, (q, n)


def test_dually_bch_sweep_memory_per_residue():
    # the sweep reads I(delta) off the cached leader map: a few int32
    # temporaries per delta, no table of its own
    q, n = 2, 21845
    cosets.leader_map(q, n)
    tracemalloc.start()
    try:
        verdicts = bch.dually_bch_sweep(q, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdicts.size == n - 1
    assert peak <= 48 * n, peak / n


def test_dually_bch_sweep_counts_are_int32():
    # counts and their sums stay below n + 1 < 2^31, so they are int32 and
    # summed in place: the peak is np.bincount's own (its intp copy of the
    # map and its int64 counts, 16 bytes per residue), not int64 prefix sums
    # and gathers beside it (20 bytes per residue)
    q, n = 2, 349525
    cosets.leader_map(q, n)
    tracemalloc.start()
    try:
        verdicts = bch.dually_bch_sweep(q, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdicts.dtype == bool and verdicts.size == n - 1
    assert peak <= 17 * n, peak / n


@pytest.mark.parametrize("q,m,family,n", family_points(1100))
def test_is_dually_bch_matches_recognition_on_every_delta(q, m, family, n):
    # verdict and witness, for every delta of every small family point
    for delta in range(2, n + 1):
        assert bch.is_dually_bch(q, m, family, delta) == recognized_dual(q, m, family, delta), (q, m, family, delta)


BENCH_SWEEP_POINTS = [("plus", 16, 4), ("plus", 2, 14), ("minus", 9, 5), ("minus", 3, 9), ("plus", 4, 8), ("plus", 7, 6), ("minus", 11, 5), ("plus", 2, 16), ("minus", 3, 10)]


@pytest.mark.parametrize("family,q,m", BENCH_SWEEP_POINTS)
def test_is_dually_bch_matches_recognition_around_delta1(family, q, m):
    # delta1 +- 64 at the sweep points of perfbench's coset-sweeps, where the verdict changes
    d1 = cosets.delta1_closed_form(q, m, family)
    verdicts = set()
    for delta in range(d1 - 64, d1 + 65):
        res = bch.is_dually_bch(q, m, family, delta)
        assert res == recognized_dual(q, m, family, delta), (q, m, family, delta)
        verdicts.add(res.verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "q,m,family,delta,error",
    [
        (3, 4, "plus", 1, DeltaOutOfRange),  # below 2
        (3, 4, "plus", 21, DeltaOutOfRange),  # n + 1
        (2, 3, "plus", 2, FamilyConstraint),  # m < 4
        (6, 4, "plus", 2, NotPrime),  # n = 185, q not a prime power
        (2, 28, "plus", 2, OrderTooLarge),  # n = 89,478,485 over ORDER_GUARD
        (2, 28, "plus", 1, OrderTooLarge),  # the length is checked before delta
    ],
)
def test_is_dually_bch_raises_as_recognition_does(q, m, family, delta, error):
    for decide in (bch.is_dually_bch, recognized_dual):
        with pytest.raises(error):
            decide(q, m, family, delta)


def test_is_dually_bch_needs_no_defining_set_or_recognition(monkeypatch):
    # q = 2, m = 20: T_perp at delta = 3 has 349,505 members, one Python step each in the recognition walk
    assert bch.dual_defining_set(bch.defining_set(2, bch.dually_bch_length(2, 20, "plus"), 3)).size == 349505

    def refuse(*args, **kwargs):
        raise AssertionError("is_dually_bch reads the leader map alone")

    for name in ("defining_set", "dual_defining_set", "recognize_bch"):
        monkeypatch.setattr(bch, name, refuse)
    res = bch.is_dually_bch(2, 20, "plus", 3)
    assert res.verdict is False and res.witness is None  # a Python bool, as JSON needs
    d1 = cosets.delta1_closed_form(2, 20, "plus")  # CLM-T2: dually-BCH exactly from delta1 + 1 on
    assert not bch.is_dually_bch(2, 20, "plus", d1).verdict
    assert bch.is_dually_bch(2, 20, "plus", d1 + 1).verdict is True


def test_monotonicity_of_defining_sets():
    for q, n in [(2, 21), (3, 40), (5, 104)]:
        prev_t: frozenset = frozenset()
        prev_p = frozenset(range(n))
        for delta in range(2, n + 1):
            t = bch.defining_set(q, n, delta, 1)
            p = bch.dual_defining_set(t)
            assert prev_t <= t.exponents
            assert p.exponents <= prev_p
            prev_t, prev_p = t.exponents, p.exponents


def test_generator_polynomial_examples():
    t21 = gf.tower_for(2, 6)
    c0 = bch.DefiningSet(2, 21, mask(21, {0}))
    g0 = bch.generator_polynomial(t21, c0)
    assert g0.coeffs.tolist() == [1, 1]  # x - 1

    ds = bch.defining_set(2, 21, 9, 1)
    g = bch.generator_polynomial(t21, ds)
    assert g.degree == 17
    _, rem = gf.poly_divmod(t21, gf.xn_minus_one(t21, 21), g)
    assert rem.is_zero()

    full = bch.DefiningSet(2, 21, mask(21, set(range(21))))
    gfull = bch.generator_polynomial(t21, full)
    assert gfull == gf.xn_minus_one(t21, 21)


def test_generator_polynomial_complement_route_matches_direct():
    # same set computed via minpoly product and via division by the complement
    t = gf.tower_for(3, 4)
    ds = bch.defining_set(3, 20, 11, 1)  # |T| = 15 > k = 5, triggers division
    g = bch.generator_polynomial(t, ds)
    direct = bch._minpoly_product(t, 20, ds.source_cosets)
    assert g == direct


def test_dual_generator_and_root_set_duality():
    for q, m, n, delta in [(3, 4, 20, 2), (2, 6, 21, 9), (3, 4, 40, 5), (4, 4, 85, 3)]:
        t = gf.tower_for(q, m)
        code = bch.bch_code(t, n, delta)
        dg = bch.dual_generator(t, code)
        assert dg.degree == code.dimension
        dual_ds = bch.dual_defining_set(code.defining)
        beta_exp = (t.order - 1) // n
        roots = {i for i in range(n) if gf.poly_eval(t, dg, t.pow(t.alpha, beta_exp * i)) == 0}
        assert roots == set(dual_ds.exponents)


def reciprocal_dual_generator(t, code):
    """Reference: the monic reciprocal of the check polynomial h = (x^n - 1)/g,
    with h taken by division when |T| <= k and as the product of the
    complement's minimal polynomials otherwise."""
    if code.defining.size <= code.dimension:
        h, rem = gf.poly_divmod(t, gf.xn_minus_one(t, code.n), code.genpoly)
        assert rem.is_zero()
    else:
        complement = set(range(code.n)) - set(code.defining.exponents)
        leaders = sorted({naive_leader(code.q, code.n, x) for x in complement})
        h = gf.Polynomial((1,))
        for lead in leaders:
            h = gf.poly_mul(t, h, gf.minimal_polynomial(t, code.n, lead))
    rec = h.coeffs[::-1]
    inv = int(t.q_inv[rec[-1]])
    return tuple(int(t.q_mul[c, inv]) for c in rec)


@pytest.mark.parametrize("q,m,n", [(2, 6, 21), (3, 4, 20), (3, 4, 40), (4, 4, 51), (5, 4, 104)])
def test_dual_generator_matches_reciprocal_construction(q, m, n):
    t = gf.tower_for(q, m)
    branches = set()
    for b in (0, 1, 3):
        seen = set()
        for delta in range(2, n + 1):
            code = bch.bch_code(t, n, delta, b=b)
            if code.defining.exponents in seen:
                continue
            seen.add(code.defining.exponents)
            branches.add(code.defining.size <= code.dimension)
            dual = bch.dual_code(t, code)
            assert bch.dual_generator(t, code) == dual.genpoly
            assert tuple(dual.genpoly.coeffs.tolist()) == reciprocal_dual_generator(t, code)
    assert branches == {True, False}


def test_dual_generator_repetition_case():
    t = gf.tower_for(2, 6)
    c0 = bch.DefiningSet(2, 21, mask(21, {0}))
    code = bch.CyclicCode(defining=c0, genpoly=bch.generator_polynomial(t, c0))
    dg = bch.dual_generator(t, code)
    assert dg.degree == 20


def test_double_dual_is_identity():
    t = gf.tower_for(3, 4)
    code = bch.bch_code(t, 20, 5)
    dd = bch.dual_code(t, bch.dual_code(t, code))
    assert dd.genpoly == code.genpoly
    assert dd.defining.exponents == code.defining.exponents


def test_basis_orthogonality():
    # every basis word of the code is orthogonal to every basis word of the dual
    for q, m, n, delta in [(2, 6, 21, 9), (3, 4, 20, 2), (3, 4, 40, 25)]:
        t = gf.tower_for(q, m)
        code = bch.bch_code(t, n, delta)
        dual = bch.dual_code(t, code)
        for i in range(code.dimension):
            row = [0] * n
            for j, c in enumerate(code.genpoly.coeffs):
                row[(i + j) % n] = c
            for i2 in range(dual.dimension):
                row2 = [0] * n
                for j, c in enumerate(dual.genpoly.coeffs):
                    row2[(i2 + j) % n] = c
                acc = 0
                for a, b in zip(row, row2):
                    acc = int(t.q_add[acc, t.q_mul[a, b]])
                assert acc == 0


def test_exhaustive_orthogonality_tiny_code():
    # n = 5 keeps both sides small enough for a full codeword-by-codeword check
    t = gf.tower_for(2, 4)
    code = bch.bch_code(t, 5, 2)
    dual = bch.dual_code(t, code)

    def words(c):
        out = []
        for msg in range(2**c.dimension):
            word = [0] * c.n
            for i in range(c.dimension):
                if msg >> i & 1:
                    for j, coef in enumerate(c.genpoly.coeffs):
                        word[(i + j) % c.n] = int(t.q_add[word[(i + j) % c.n], coef])
            out.append(word)
        return out

    for u in words(code):
        for v in words(dual):
            acc = 0
            for a, b in zip(u, v):
                acc = int(t.q_add[acc, t.q_mul[a, b]])
            assert acc == 0


def test_tower_mismatch():
    t21 = gf.tower_for(2, 6)
    ds3 = bch.defining_set(3, 20, 2, 1)
    with pytest.raises(TowerMismatch):
        bch.generator_polynomial(t21, ds3)
    with pytest.raises(TowerMismatch):
        bch.bch_code(t21, 10, 2)  # 10 does not divide 63


@pytest.mark.parametrize("n", [0, -3])
def test_bch_code_rejects_n_below_one(n):
    # a typed error before any n-modulo, for a tower passed in directly
    with pytest.raises(OutOfRange):
        bch.bch_code(gf.tower_for(2, 4), n, 3)


def test_bch_code_dimensions():
    cases = [
        (2, 6, "plus", 9, 21, 4),
        (3, 4, "plus", 11, 20, 5),
        (4, 4, "plus", 35, 51, 5),
        (5, 4, "plus", 79, 104, 5),
        (3, 4, "minus", 25, 40, 3),
    ]
    for q, m, family, delta, n, k in cases:
        _, code = bch.build_family_code(q, m, family, delta)
        assert (code.n, code.dimension) == (n, k)
        assert code.bch_bound >= delta
        assert code.genpoly.degree == code.defining.size


def test_build_family_code_length_arguments():
    with pytest.raises(UsageError):
        bch.build_family_code(3, 4, "plus", 3, n=20)  # plus and minus derive n themselves
    with pytest.raises(UsageError):
        bch.build_family_code(3, 4, "minus", 3, n=40)
    with pytest.raises(UsageError):
        bch.build_family_code(3, 4, "raw", 3)
    with pytest.raises(FamilyConstraint):
        bch.build_family_code(3, 4, "other", 3)
    assert bch.build_family_code(3, 4, "raw", 3, n=20)[1].n == 20
