"""Defining sets, recognition, duals, and the dually-BCH decision."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetforge import bch, cosets, gf
from cosetforge.errors import DeltaOutOfRange, FamilyConstraint, OutOfRange, TowerMismatch, UsageError


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
    """Boolean array over Z_n marking the residues (the form _make_defining_set takes)."""
    out = np.zeros(n, dtype=bool)
    out[list(residues)] = True
    return out


def from_residues(q, n, residues, sources):
    """A DefiningSet over the residues; the constructor takes their mask."""
    return bch.DefiningSet(q, n, mask(n, residues), sources)


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

    empty = from_residues(3, 20, frozenset(), ())
    assert bch.dual_defining_set(empty).size == 20
    full = from_residues(3, 20, frozenset(range(20)), tuple(cosets.coset_leaders(3, 20)))
    assert bch.dual_defining_set(full).size == 0


def test_defining_set_rejects_mis_sized_mask():
    for bits in (np.zeros(19, dtype=bool), np.zeros(21, dtype=bool), np.zeros((4, 5), dtype=bool), frozenset({1, 3, 7, 9})):
        with pytest.raises(OutOfRange):
            bch.DefiningSet(3, 20, bits, (1,))


def test_defining_set_memory_per_residue():
    # the set, its dual and the recognition walk cost a few bytes per residue,
    # not a Python object per member
    q, m, n = 2, 16, 21845
    cosets.leader_map(q, n)  # cached table, shared by every set modulo n
    tracemalloc.start()
    try:
        res = bch.is_dually_bch(q, m, "plus", 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.tperp.n == n and not res.verdict
    assert peak < 48 * n, peak / n


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
    t = from_residues(q, n, frozenset(closure(q, n, chosen)), tuple(sorted(chosen)))
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
        return bch.Recognition(is_bch=True, witness=(min(candidates), n), c0_anchored=(n - 1) * ds.q % n != n - 1)
    total = len(ds.source_cosets)
    best, c0 = None, False
    for b in sorted(set(ds.source_cosets) | ({0} if 0 in exps else set())):
        length = 0
        while length < n and (b + length) % n in exps:
            length += 1
        if len({naive_leader(ds.q, n, b + j) for j in range(length)}) == total:
            c0 = c0 or b == 0
            if best is None or length + 1 > best[1] or (length + 1 == best[1] and b < best[0]):
                best = (b, length + 1)
    if best is None:
        return bch.Recognition(is_bch=False, witness=None)
    return bch.Recognition(is_bch=True, witness=best, c0_anchored=c0)


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
    run = from_residues(3, 20, frozenset(range(11)), (0, 1, 2, 4, 5, 10))
    assert bch.bch_bound(run) == 12
    single = from_residues(2, 21, frozenset({5}), (5,))
    assert bch.bch_bound(single) == 2
    assert bch.bch_bound(from_residues(2, 21, frozenset(), ())) == 1
    # wrap-around run
    wrap = from_residues(3, 20, frozenset({19, 0, 1, 2, 7}), ())
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
    assert rec.is_bch and rec.witness == (0, 12) and rec.c0_anchored

    c5 = bch._make_defining_set(2, 21, mask(21, closure(2, 21, [5])))
    rec5 = bch.recognize_bch(c5)
    assert rec5.is_bch and rec5.witness == (5, 2)

    c1c5 = bch._make_defining_set(2, 21, mask(21, closure(2, 21, [1, 5])))
    assert not bch.recognize_bch(c1c5).is_bch

    assert bch.recognize_bch(from_residues(2, 21, frozenset(), ())).empty


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
    assert r.verdict and set(r.tperp.exponents) == {0}
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


def family_moduli(max_n):
    """Distinct (q, n) of both families with m >= 4 and n <= max_n (q >= 11 gives n > 1200)."""
    out = set()
    for q in (2, 3, 4, 5, 7, 8, 9):
        for m in range(4, 13):
            for family in ("plus", "minus"):
                if (family == "plus" and m % 2 == 0) or (family == "minus" and q >= 3):
                    n = cosets.family_length(q, m, family)
                    if n <= max_n:
                        out.add((q, n))
    return sorted(out)


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
    c0 = bch._make_defining_set(2, 21, mask(21, {0}))
    g0 = bch.generator_polynomial(t21, c0)
    assert g0.coeffs == (1, 1)  # x - 1

    ds = bch.defining_set(2, 21, 9, 1)
    g = bch.generator_polynomial(t21, ds)
    assert g.degree == 17
    _, rem = gf.poly_divmod(t21, gf.xn_minus_one(t21, 21), g)
    assert rem.is_zero()

    full = bch._make_defining_set(2, 21, mask(21, set(range(21))))
    gfull = bch.generator_polynomial(t21, full)
    assert gfull.coeffs == gf.xn_minus_one(t21, 21).coeffs


def test_generator_polynomial_complement_route_matches_direct():
    # same set computed via minpoly product and via division by the complement
    t = gf.tower_for(3, 4)
    ds = bch.defining_set(3, 20, 11, 1)  # |T| = 15 > k = 5, triggers division
    g = bch.generator_polynomial(t, ds)
    direct = bch._minpoly_product(t, 20, ds.source_cosets)
    assert g.coeffs == direct.coeffs


def test_dual_generator_and_root_set_duality():
    for q, m, n, delta in [(3, 4, 20, 2), (2, 6, 21, 9), (3, 4, 40, 5), (4, 4, 85, 3)]:
        t = gf.tower_for(q, m)
        code = bch.bch_code(t, n, delta)
        dg = bch.dual_generator(t, code)
        assert dg.degree == code.dimension
        dual_ds = bch.dual_defining_set(code.defining)
        lifted = gf.lift_to_tower(t, dg)
        beta_exp = (t.order - 1) // n
        roots = {i for i in range(n) if gf.poly_eval(t, lifted, t.pow(t.alpha, beta_exp * i)) == 0}
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
        h = gf.Polynomial(gf.Level.GFQ, (1,))
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
            assert bch.dual_generator(t, code).coeffs == dual.genpoly.coeffs == reciprocal_dual_generator(t, code)
    assert branches == {True, False}


def test_dual_generator_repetition_case():
    t = gf.tower_for(2, 6)
    c0 = bch._make_defining_set(2, 21, mask(21, {0}))
    code = bch.CyclicCode(q=2, n=21, genpoly=bch.generator_polynomial(t, c0), defining=c0, dimension=20)
    dg = bch.dual_generator(t, code)
    assert dg.degree == 20


def test_double_dual_is_identity():
    t = gf.tower_for(3, 4)
    code = bch.bch_code(t, 20, 5)
    dd = bch.dual_code(t, bch.dual_code(t, code))
    assert dd.genpoly.coeffs == code.genpoly.coeffs
    assert dd.defining.exponents == code.defining.exponents


def test_basis_orthogonality():
    # every basis word of the code is orthogonal to every basis word of the dual
    for q, m, n, delta in [(2, 6, 21, 9), (3, 4, 20, 2), (3, 4, 40, 25)]:
        t = gf.tower_for(q, m)
        code = bch.bch_code(t, n, delta)
        dual = bch.dual_code(t, code)
        F = t.arith(gf.Level.GFQ)
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
                    acc = F.add(acc, F.mul(a, b))
                assert acc == 0


def test_exhaustive_orthogonality_tiny_code():
    # n = 5 keeps both sides small enough for a full codeword-by-codeword check
    t = gf.tower_for(2, 4)
    code = bch.bch_code(t, 5, 2)
    dual = bch.dual_code(t, code)
    F = t.arith(gf.Level.GFQ)

    def words(c):
        out = []
        for msg in range(2**c.dimension):
            word = [0] * c.n
            for i in range(c.dimension):
                if msg >> i & 1:
                    for j, coef in enumerate(c.genpoly.coeffs):
                        word[(i + j) % c.n] = F.add(word[(i + j) % c.n], coef)
            out.append(word)
        return out

    for u in words(code):
        for v in words(dual):
            acc = 0
            for a, b in zip(u, v):
                acc = F.add(acc, F.mul(a, b))
            assert acc == 0


def test_tower_mismatch():
    t21 = gf.tower_for(2, 6)
    ds3 = bch.defining_set(3, 20, 2, 1)
    with pytest.raises(TowerMismatch):
        bch.generator_polynomial(t21, ds3)
    with pytest.raises(TowerMismatch):
        bch.bch_code(t21, 10, 2)  # 10 does not divide 63


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
