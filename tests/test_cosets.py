"""Coset machinery and closed-form leader values.

Brute-force expectations are recomputed inline (orbit walks, sieves) so the
frozen values are anchored to an oracle other than the functions under test.
"""

import math
import tracemalloc

import numpy as np
import pytest

from cosetforge import cosets
from cosetforge.errors import FamilyConstraint, NotCoprime, NotDivisible, OutOfRange


def naive_orbit(q, n, s):
    out = {s}
    x = s * q % n
    while x != s:
        out.add(x)
        x = x * q % n
    return out


def test_cyclotomic_coset_examples():
    c = cosets.cyclotomic_coset(2, 21, 5)
    assert c.elements == (5, 10, 13, 17, 19, 20)
    assert c.leader == 5 and c.size == 6
    assert cosets.cyclotomic_coset(7, 300, 0).elements == (0,)
    assert cosets.cyclotomic_coset(3, 20, 11).elements == (11, 13, 17, 19)


def test_coset_leaders_examples():
    assert cosets.coset_leaders(2, 21) == (0, 1, 3, 5, 7, 9)
    assert cosets.coset_leaders(5, 1) == (0,)
    assert cosets.coset_leaders(3, 20) == (0, 1, 2, 4, 5, 10, 11)


@pytest.mark.parametrize("q,n", [(2, 21), (3, 20), (3, 40), (4, 85), (5, 104), (2, 63)])
def test_partition_identity(q, n):
    total = 0
    seen = set()
    for lead in cosets.coset_leaders(q, n):
        orbit = naive_orbit(q, n, lead)
        assert min(orbit) == lead
        assert not (orbit & seen)
        seen |= orbit
        total += len(orbit)
    assert total == n and seen == set(range(n))


def test_leader_map_matches_leaders():
    lm = cosets.leader_map(3, 40)
    for x in range(40):
        assert lm[x] == min(naive_orbit(3, 40, x))


def naive_leader_map(q, n):
    return [min(naive_orbit(q, n, x)) for x in range(n)]


def is_prime_power(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


def family_moduli(max_n, min_m):
    """Sorted distinct (q, n) over both families with m >= min_m and n <= max_n."""
    out = set()
    for q in filter(is_prime_power, range(2, max_n + 2)):
        m = min_m
        while (q**m - 1) // (q + 1) <= max_n:
            for family in ("plus", "minus"):
                if (family == "plus" and m % 2 == 0) or (family == "minus" and q >= 3):
                    n = cosets.family_length(q, m, family)
                    if n <= max_n:
                        out.add((q, n))
            m += 1
    return sorted(out)


# n = 1; q = 2 has order n - 1 modulo the prime 101, so the doubling needs all 8 rounds
SMALL_MODULI = [(5, 1), (2, 1), (2, 101), (2, 21), (3, 20), (3, 40), (4, 85), (5, 104), (7, 300), (3, 121)]


def check_against_orbit_walks(q, n):
    want = naive_leader_map(q, n)
    lm = cosets.leader_map(q, n)
    assert lm.dtype == np.int32 and lm.shape == (n,)
    assert lm.tolist() == want, (q, n)
    assert cosets.coset_leaders(q, n) == tuple(sorted(set(want))), (q, n)
    assert cosets.leader_count(q, n) == len(set(want)), (q, n)
    for k in (1, 3, 7):
        assert cosets.top_k_leaders(q, n, k) == sorted(set(want), reverse=True)[:k], (q, n, k)


@pytest.mark.parametrize("block", [None, 1, 7])
def test_leader_map_matches_orbit_walks(block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(cosets, "_BLOCK", block)
    cosets.leader_map.cache_clear()
    try:
        for q, n in SMALL_MODULI:
            check_against_orbit_walks(q, n)
    finally:
        cosets.leader_map.cache_clear()


def test_leaders_are_read_off_the_cached_map(monkeypatch):
    q, n = 2, 255
    cosets.leader_map(q, n)
    before = cosets.leader_map.cache_info()

    def no_rebuild(*args):
        raise AssertionError("window doubling ran again")

    monkeypatch.setattr(cosets, "_check_coprime", no_rebuild)  # the first step of a map build
    assert cosets.coset_leaders(q, n) == tuple(sorted({min(naive_orbit(q, n, x)) for x in range(n)}))
    after = cosets.leader_map.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def map_top(q, n, k):
    """The k largest x with L[x] = x on the leader map, descending."""
    lead = cosets.leader_map(q, n)
    return np.flatnonzero(lead == np.arange(n))[::-1][:k].tolist()


def test_top_k_leaders_leaves_the_leader_map_alone():
    for q, n in [(2, 255), (3, 2**16 + 3)]:  # one block, and two with the second ragged
        before = cosets.leader_map.cache_info()
        got = cosets.top_k_leaders(q, n, 3)
        assert cosets.leader_map.cache_info() == before  # no build, no cached read
        assert got == map_top(q, n, 3)


def ceiling(q, n):
    """n - (n-1)//q: top_k_leaders starts its scan below this residue."""
    return n - (n - 1) // q


def test_top_k_leaders_match_the_map_on_every_small_modulus():
    # each map also checks the ceiling the scan starts under: no x >= n - (n-1)//q has L[x] = x
    checked = 0
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        for n in range(1, 3000):
            if math.gcd(q, n) != 1:
                continue
            want = map_top(q, n, 7)
            top = ceiling(q, n)
            assert not (cosets.leader_map(q, n)[top:] == np.arange(top, n)).any(), (q, n)
            cosets.leader_map.cache_clear()
            for k in (1, 3, 7):
                assert cosets.top_k_leaders(q, n, k) == want[:k], (q, n, k)
            checked += 1
    assert checked == 20467


# (q, n, ord_n(q)): orbits of 2^18 and 1000002 powers, several pages of 65,536, one of 61,680, and n = 1;
# 2 is primitive modulo the prime 1000003, whose only leaders are 1 and 0, so every block is scanned
@pytest.mark.parametrize("q,n,order", [(3, 2**20, 2**18), (2, 1000003, 1000002), (5, 2**20 + 1, 61680), (2, 1, 1)])
def test_top_k_leaders_match_the_map_on_long_orbits(q, n, order):
    assert len(cosets.cyclotomic_coset(q, n, 1 % n).elements) == order
    try:
        for k in (1, 3, 7):
            assert cosets.top_k_leaders(q, n, k) == map_top(q, n, k), (q, n, k)
    finally:
        cosets.leader_map.cache_clear()


def test_no_leader_lies_at_or_above_the_ceiling_at_the_edges():
    # n = 1 (only 0), n = 2 under odd q (0 and 1 both lead), and q > n: the ceiling is n itself, so the
    # scan still starts at n - 1, a leader in every case here but (11, 7)
    for q, n, want in [(2, 1, [0]), (7, 1, [0]), (3, 2, [1, 0]), (5, 2, [1, 0]), (11, 7, [3, 1, 0]), (101, 10, [9, 8, 7])]:
        assert ceiling(q, n) == n
        assert cosets.top_k_leaders(q, n, 3) == want == sorted(set(naive_leader_map(q, n)), reverse=True)[:3], (q, n)


@pytest.mark.parametrize("block", [4, 16])
def test_top_k_leaders_across_tiny_blocks(block, monkeypatch):
    # first blocks of one residue doubling to `block` (and pages of `block` powers) cross the ceiling,
    # every block edge and the lowest, ragged block; the oracle is the orbit walks, not the patched map
    monkeypatch.setattr(cosets, "_BLOCK", block)
    checked = 0
    for q in (2, 3, 4, 5, 7):
        for n in range(1, 120):
            if math.gcd(q, n) != 1:
                continue
            want = sorted(set(naive_leader_map(q, n)), reverse=True)
            for k in (1, 3, 7):
                assert cosets.top_k_leaders(q, n, k) == want[:k], (block, q, n, k)
            checked += 1
    assert checked == 398


def test_top_k_leaders_memory_at_the_benchmark_points():
    # the four cosets --top 3 points of perfbench's coset-sweeps (n = 0.2M to 1.4M): the scan starts a
    # few hundred residues above delta1 in a block of _BLOCK >> 6, so it peaks well under 1 MiB traced;
    # starting from n - 1 in full blocks peaked at 1.7-2.5 MiB
    for q, m, family in [(4, 10, "plus"), (2, 20, "plus"), (3, 13, "minus"), (2, 22, "plus")]:
        n = cosets.family_length(q, m, family)
        tracemalloc.start()
        try:
            got = cosets.top_k_leaders(q, n, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got[0] == cosets.delta1_closed_form(q, m, family)
        assert peak < 2**20, (q, m, family, peak)


def test_top_k_leaders_memory_is_a_block_not_the_modulus():
    # 1.5M residues scanned in 28 blocks (from the ceiling 2,796,203 down), with orbits of up to 2^20:
    # the peak stays under one byte per residue, so no array over the n residues (the leader map would
    # take 4 n bytes)
    q, n = 3, 2**22
    tracemalloc.start()
    try:
        got = cosets.top_k_leaders(q, n, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [2621440, 2097152, 1310720]
    assert peak < n, peak / n


def test_leader_map_matches_orbit_walks_on_family_points():
    moduli = family_moduli(2000, 2)
    assert len(moduli) > 600 and (3, 1640) in moduli and (4, 1365) in moduli
    for q, n in moduli:
        check_against_orbit_walks(q, n)


def test_not_coprime():
    with pytest.raises(NotCoprime):
        cosets.coset_leaders(3, 21)
    with pytest.raises(NotCoprime):
        cosets.cyclotomic_coset(2, 10, 1)


def test_is_coset_leader():
    assert cosets.is_coset_leader(3, 20, 11)
    assert not cosets.is_coset_leader(3, 20, 19)  # 19*3 mod 20 = 17 < 19
    assert cosets.is_coset_leader(5, 104, 0)
    with pytest.raises(OutOfRange):
        cosets.is_coset_leader(3, 20, 20)


def test_top_k_leaders_examples():
    assert cosets.top_k_leaders(2, 63, 3) == [31, 27, 23]
    assert cosets.top_k_leaders(3, 20, 1) == [11]
    assert cosets.top_k_leaders(5, 104, 1) == [79]
    assert cosets.top_k_leaders(5, 1, 3) == [0]  # fewer leaders than k


def test_family_length():
    assert cosets.family_length(3, 4, "plus") == 20
    assert cosets.family_length(3, 4, "minus") == 40
    with pytest.raises(FamilyConstraint):
        cosets.family_length(3, 5, "plus")
    with pytest.raises(FamilyConstraint):
        cosets.family_length(2, 4, "minus")


def test_delta1_closed_form_examples():
    assert cosets.delta1_closed_form(3, 4, "plus") == 11
    assert cosets.delta1_closed_form(4, 4, "plus") == 35
    assert cosets.delta1_closed_form(2, 6, "plus") == 9
    assert cosets.delta1_closed_form(5, 4, "plus") == 79
    assert cosets.delta1_closed_form(3, 4, "minus") == 25
    with pytest.raises(FamilyConstraint):
        cosets.delta1_closed_form(3, 5, "plus")
    with pytest.raises(FamilyConstraint):
        cosets.delta1_closed_form(2, 4, "minus")


@pytest.mark.parametrize("q,m", [(2, 6), (3, 4), (4, 4), (5, 4), (3, 6)])
def test_delta1_plus_matches_sieve(q, m):
    n = cosets.family_length(q, m, "plus")
    assert cosets.delta1_closed_form(q, m, "plus") == cosets.top_k_leaders(q, n, 1)[0]


@pytest.mark.parametrize("q,m", [(3, 4), (4, 4), (5, 4), (3, 5), (4, 5)])
def test_delta1_minus_matches_sieve(q, m):
    n = cosets.family_length(q, m, "minus")
    assert cosets.delta1_closed_form(q, m, "minus") == cosets.top_k_leaders(q, n, 1)[0]


def test_delta1_coset_size():
    assert cosets.delta1_coset_size_closed_form(3, 4, "plus") == 4
    assert cosets.delta1_coset_size_closed_form(2, 6, "plus") == 3
    assert cosets.delta1_coset_size_closed_form(3, 4, "minus") == 2
    # cross-check against the orbit of the brute-force largest leader
    for q, m, family in [(3, 4, "plus"), (2, 6, "plus"), (3, 4, "minus"), (5, 4, "minus")]:
        n = cosets.family_length(q, m, family)
        d1 = cosets.top_k_leaders(q, n, 1)[0]
        assert len(naive_orbit(q, n, d1)) == cosets.delta1_coset_size_closed_form(q, m, family)


def test_second_largest_m4_plus():
    assert cosets.second_largest_m4_plus(3) == 10
    assert cosets.second_largest_m4_plus(5) == 78
    assert cosets.second_largest_m4_plus(7) == 250  # equals top_k_leaders(7, 300, 2)[1]
    assert cosets.top_k_leaders(7, 300, 2)[1] == 250
    assert cosets.top_k_leaders(3, 20, 2) == [11, 10]
    with pytest.raises(FamilyConstraint):
        cosets.second_largest_m4_plus(4)


def test_largest_leaders_qm1():
    assert cosets.largest_leaders_qm1(2, 6) == (31, 27, 23)
    assert cosets.top_k_leaders(3, 80, 3) == list(cosets.largest_leaders_qm1(3, 4))


def test_theta_digits_examples():
    td = cosets.theta_digits(5, 4)
    assert td.t2 == 0 and td.digits == (1, 1, 1, 1) and td.upsilon == frozenset()
    td = cosets.theta_digits(4, 4)
    assert (td.t1, td.t2) == (0, 3)
    assert td.upsilon == frozenset({1, 2, 3})
    assert td.digits == (1, 1, 1, 0) and sum(td.digits) == 3
    td = cosets.theta_digits(3, 4)
    assert td.digits == (1, 0, 1, 0) and td.upsilon == frozenset({1, 3})
    with pytest.raises(FamilyConstraint):
        cosets.theta_digits(2, 4)


@pytest.mark.parametrize("q,m", [(3, 4), (4, 4), (5, 4), (7, 5), (9, 5), (8, 4), (5, 6)])
def test_theta_digits_match_direct_expansion(q, m):
    td = cosets.theta_digits(q, m)
    total = sum(q ** (math.ceil(m * t / (q - 1)) - 1) for t in range(1, q))
    digits = []
    for _ in range(m):
        digits.append(total % q)
        total //= q
    assert tuple(reversed(digits)) == td.digits
    assert sum(td.digits) == q - 1


def test_lift_correspondence():
    assert cosets.lift_correspondence_check(2, 6, 27, 3)
    assert cosets.lift_correspondence_check(3, 4, 44, 4)
    assert cosets.lift_correspondence_check(3, 4, 0, 4)
    # minus-family divisor
    assert cosets.lift_correspondence_check(3, 4, 50, 2)
    with pytest.raises(NotDivisible):
        cosets.lift_correspondence_check(2, 6, 28, 3)
    with pytest.raises(OutOfRange):
        cosets.lift_correspondence_check(2, 6, 27, 4)


@pytest.mark.parametrize("q,m,divisor", [(2, 6, 3), (3, 4, 4), (3, 4, 2), (4, 4, 5)])
def test_lift_correspondence_full_range(q, m, divisor):
    for h in range(0, q**m - 1, divisor):
        assert cosets.lift_correspondence_check(q, m, h, divisor)
