"""q-cyclotomic cosets modulo n, coset leaders, and closed-form leader values.

Everything in this module is exact integer arithmetic; no field tables are
needed.  One cached leader map (built by window doubling) is the only stored
coset structure, and the full leader listings read it; the k largest leaders
come from a block scan down from the ceiling n - (n-1)//q (no leader lies at
or above it) that stores nothing, and the single-orbit walks stay as
independent scalar checks.
Closed-form operations enforce their family's constraints ("plus" for
n = (q^m-1)/(q+1) with m even, "minus" for n = (q^m-1)/(q-1) with q >= 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DIGIT_GUARD, ORDER_GUARD, FamilyConstraint, NotCoprime, NotDivisible, OrderTooLarge, OutOfRange, show_int

PLUS = "plus"
MINUS = "minus"
FAMILIES = (PLUS, MINUS)


@dataclass(frozen=True)
class CyclotomicCoset:
    """Orbit of s under multiplication by q modulo n."""

    n: int
    q: int
    leader: int
    elements: tuple[int, ...]
    size: int


@dataclass(frozen=True)
class ThetaDigits:
    """Digit structure of sum(q^ceil(m*t/(q-1) - 1) for t = 1..q-1) in base q.

    ``digits`` is most-significant first.  ``upsilon`` holds the positions
    carrying the larger digit ceil((q-1)/m) when t2 != 0; when t2 == 0 every
    digit equals (q-1)/m and ``upsilon`` is empty.
    """

    q: int
    m: int
    digits: tuple[int, ...]
    upsilon: frozenset[int]
    t1: int
    t2: int


def _check_coprime(q: int, n: int) -> None:
    if n < 1 or q < 2:
        raise OutOfRange(f"need n >= 1 and q >= 2, got n={n}, q={q}")
    if math.gcd(q, n) != 1:
        raise NotCoprime(f"gcd({q}, {n}) != 1")


def check_table_size(n: int) -> None:
    """Raise OrderTooLarge when a table over the n residues would exceed ORDER_GUARD."""
    if n > ORDER_GUARD:
        raise OrderTooLarge(f"n = {show_int(n)} exceeds the table-size guard {ORDER_GUARD}")


def cyclotomic_coset(q: int, n: int, s: int) -> CyclotomicCoset:
    """Return the q-cyclotomic coset of s modulo n."""
    _check_coprime(q, n)
    if not 0 <= s < n:
        raise OutOfRange(f"s={s} outside [0, {show_int(n)})")
    orbit = [s]
    x = s * q % n
    while x != s:
        orbit.append(x)
        x = x * q % n
    return CyclotomicCoset(n=n, q=q, leader=min(orbit), elements=tuple(sorted(orbit)), size=len(orbit))


_BLOCK = 1 << 16  # residues per block of the x*s mod n index, and the largest block of a leader scan
_PRODUCTS = 1 << 17  # candidates x powers tested at once by top_k_leaders


@lru_cache(maxsize=None)
def leader_map(q: int, n: int) -> np.ndarray:
    """int32 array L with L[x] = coset leader (orbit minimum) of x modulo n, cached.

    Window doubling: each round lowers L[x] to L[x*s mod n] in place and squares
    s (q, q^2, q^4, ...), so after the round with s = q^k, L[x] <= x*q^j mod n
    for all j < 2k.  Once a round changes nothing, L is constant on each stride-s
    sub-orbit, whose length-k windows cover the orbit: L is the orbit minimum.
    O(n log ord_n(q)) work, in blocks of _BLOCK residues (no n-length int64).
    """
    _check_coprime(q, n)
    check_table_size(n)
    lead = np.arange(n, dtype=np.int32)
    s = q % n
    changed = True
    while changed:
        changed = False
        idx = np.arange(min(_BLOCK, n), dtype=np.int64) * s % n  # x*s mod n over the block's x
        step = _BLOCK * s % n
        for lo in range(0, n, _BLOCK):
            block = lead[lo : lo + _BLOCK]
            cand = lead[idx[: block.size]]
            changed |= bool((cand < block).any())
            np.minimum(block, cand, out=block)
            idx += step  # on to the next block: one conditional subtraction instead of a mod
            np.subtract(idx, n, out=idx, where=idx >= n)
        s = s * s % n
    return lead


def _leaders_in(lead: np.ndarray, lo: int) -> list[int]:
    """The coset leaders in [lo, lo + _BLOCK), ascending: the x there with L[x] = x."""
    block = lead[lo : lo + _BLOCK]
    return (np.flatnonzero(block == np.arange(lo, lo + block.size, dtype=lead.dtype)) + lo).tolist()


def coset_leaders(q: int, n: int) -> tuple[int, ...]:
    """All coset leaders modulo n, ascending (one representative per orbit), read off the cached leader map."""
    lead = leader_map(q, n)
    return tuple(x for lo in range(0, n, _BLOCK) for x in _leaders_in(lead, lo))


def leader_count(q: int, n: int) -> int:
    """The number of cosets modulo n, counted off the cached leader map one block at a time, with no list of every leader."""
    lead = leader_map(q, n)
    return sum(len(_leaders_in(lead, lo)) for lo in range(0, n, _BLOCK))


def is_coset_leader(q: int, n: int, s: int) -> bool:
    """True iff s * q^l mod n >= s for every l (s is minimal in its orbit)."""
    _check_coprime(q, n)
    if not 0 <= s < n:
        raise OutOfRange(f"s={s} outside [0, {show_int(n)})")
    x = s * q % n
    while x != s:
        if x < s:
            return False
        x = x * q % n
    return True


def _before_one(pw: np.ndarray, n: int) -> np.ndarray:
    """The powers q^j mod n in pw up to, not including, the first 1: there the orbit of q closes."""
    one = np.flatnonzero(pw == 1 % n)
    return pw[: one[0]] if one.size else pw


def _powers(q: int, n: int) -> np.ndarray:
    """q^1, q^2, ... mod n as int64, doubled from [q]: at most _BLOCK of them, cut before q^j = 1."""
    pw = np.array([q % n], dtype=np.int64)
    while pw.size < _BLOCK and not (pw == 1 % n).any():
        pw = np.concatenate((pw, pw * pw[-1] % n))  # q^(L+1..2L) = q^(1..L) * q^L
    return _before_one(pw[:_BLOCK], n)


def top_k_leaders(q: int, n: int, k: int) -> list[int]:
    """The k largest coset leaders modulo n, descending (fewer if fewer exist), with no leader map.

    x is a leader iff x*q^j mod n >= x for j = 1, 2, ... up to where q^j = 1.
    No x >= n - (n-1)//q is one: with y = n - x, 1 <= q*y < n, so
    x*q mod n = n - q*y < x.  So the scan starts below that ceiling and
    goes down in blocks of _BLOCK >> 6 residues, doubling up to _BLOCK,
    keeping the candidates that pass each chunk of powers, and stops after
    the block that holds the k-th leader.  Chunks double in width as
    candidates thin out, with at most _PRODUCTS products live (each below
    n^2 < 2^52, exact in int64); the powers come a page of at most _BLOCK at
    a time, never all ord_n(q) of them.
    """
    if k < 1:
        raise OutOfRange(f"k={k} must be >= 1")
    _check_coprime(q, n)
    check_table_size(n)
    base = _powers(q, n)
    found: list[int] = []
    hi, size = n - (n - 1) // q, max(1, _BLOCK >> 6)
    while hi > 0 and len(found) < k:
        cand = np.arange(max(0, hi - size), hi, dtype=np.int64)
        page, at, width = base, 0, 1  # page[at:] are the next powers to test
        while cand.size and at < page.size:
            width = max(1, min(2 * width, _PRODUCTS // cand.size))  # most candidates fail at the first j or two
            pw = page[at : at + width]
            prod = pw[:, None] * cand
            prod %= n  # in place: one product array live
            cand = cand[(prod >= cand).all(axis=0)]
            at += pw.size
            if at == page.size and cand.size:  # the next page: the base times q^j, the last power tested
                page, at = _before_one(base * page[-1] % n, n), 0
        found += reversed(cand.tolist())
        hi, size = hi - size, min(2 * size, _BLOCK)
    return found[:k]


def family_length(q: int, m: int, family: str) -> int:
    """Code length n for the family: (q^m-1)/(q+1) for plus, (q^m-1)/(q-1) for minus."""
    if m < 1:
        raise OutOfRange(f"need m >= 1, got m={m}")
    if family not in FAMILIES:
        raise FamilyConstraint(f"unknown family {family!r}")
    if family == PLUS and m % 2 != 0:
        raise FamilyConstraint(f"plus family needs m even, got m={m}")
    if family == MINUS and q < 3:
        raise FamilyConstraint(f"minus family needs q >= 3, got q={q}")
    if abs(q) > 1 and m * math.log10(abs(q)) > DIGIT_GUARD:  # q^m has about m*log10(q) digits; refuse before forming it
        raise OutOfRange(f"{q}^{m} has over {DIGIT_GUARD} decimal digits, too many to print the {family} length n")
    return (q**m - 1) // (q + 1 if family == PLUS else q - 1)


def largest_leaders_qm1(q: int, m: int) -> tuple[int, int, int]:
    """Closed forms for the three largest coset leaders modulo q^m - 1."""
    if q < 2 or m < 2:
        raise OutOfRange(f"need q >= 2 and m >= 2, got q={q}, m={m}")
    top = (q - 1) * q ** (m - 1) - 1
    return (top, top - q ** ((m - 1) // 2), top - q ** ((m + 1) // 2))


def _theta_exponent_sum(q: int, m: int) -> int:
    """sum(q^ceil(m*t/(q-1) - 1)) over t = 1..q-1, computed digit-free."""
    return sum(q ** (-(-(m * t - (q - 1)) // (q - 1))) for t in range(1, q))


def delta1_closed_form(q: int, m: int, family: str) -> int:
    """Closed form for the largest coset leader modulo the family length n."""
    if family == PLUS:
        if m < 4 or m % 2 != 0:
            raise FamilyConstraint(f"plus closed form needs m >= 4 even, got m={m}")
        half = (m - 2) // 2 if m % 4 == 2 else m // 2
        num = (q - 1) * q ** (m - 1) - q**half - 1
        assert num % (q + 1) == 0
        return num // (q + 1)
    if family == MINUS:
        if q < 3 or m < 4:
            raise FamilyConstraint(f"minus closed form needs q >= 3 and m >= 4, got q={q}, m={m}")
        num = q**m - _theta_exponent_sum(q, m) - 1
        assert num % (q - 1) == 0
        return num // (q - 1)
    raise FamilyConstraint(f"unknown family {family!r}")


def delta1_coset_size_closed_form(q: int, m: int, family: str) -> int:
    """Closed form for |C_{delta1}| on the family grid."""
    if family == PLUS:
        if m < 4 or m % 2 != 0:
            raise FamilyConstraint(f"plus closed form needs m >= 4 even, got m={m}")
        return m if m % 4 == 0 else m // 2
    if family == MINUS:
        if q < 3 or m < 4:
            raise FamilyConstraint(f"minus closed form needs q >= 3 and m >= 4, got q={q}, m={m}")
        return m // math.gcd(m, q - 1)
    raise FamilyConstraint(f"unknown family {family!r}")


def second_largest_m4_plus(q: int) -> int:
    """Second largest coset leader modulo (q^4-1)/(q+1), odd prime powers only."""
    if q < 3 or q % 2 == 0:
        raise FamilyConstraint(f"formula stated for odd q >= 3, got q={q}")
    num = (q - 1) * q**3 - q**2 - q - 2
    assert num % (q + 1) == 0
    return num // (q + 1)


def theta_digits(q: int, m: int) -> ThetaDigits:
    """Digit vector of sum(q^ceil(m*t/(q-1)-1)) predicted from (t1, t2, Upsilon).

    Writes q-1 = m*t1 + t2 with 0 <= t2 < m.  The digits are derived from the
    Upsilon rule only; callers cross-check them against the direct base-q
    expansion of the sum.
    """
    if q < 3 or m < 4:
        raise FamilyConstraint(f"need q >= 3 and m >= 4, got q={q}, m={m}")
    t1, t2 = divmod(q - 1, m)
    if t2 == 0:
        digits = [(q - 1) // m] * m
        upsilon: frozenset[int] = frozenset()
    else:
        hi = -(-(q - 1) // m)
        lo = (q - 1) // m
        upsilon = frozenset(-(-(m * g - t2) // t2) for g in range(1, t2 + 1))
        digits = [hi if i in upsilon else lo for i in range(m)]
    return ThetaDigits(q=q, m=m, digits=tuple(reversed(digits)), upsilon=upsilon, t1=t1, t2=t2)


def lift_correspondence_check(q: int, m: int, h: int, divisor: int) -> bool:
    """Whether leader status of h mod q^m-1 matches that of h/divisor mod n.

    divisor must be q+1 (with m even) or q-1; the result is a verified
    identity, so the check should always come back True.
    """
    if divisor not in (q + 1, q - 1):
        raise OutOfRange(f"divisor must be q+1 or q-1, got {divisor}")
    big = q**m - 1
    if big % divisor != 0:
        raise NotDivisible(f"{divisor} does not divide q^m-1 = {big}")
    if h % divisor != 0:
        raise NotDivisible(f"{divisor} does not divide h = {h}")
    if not 0 <= h < big:
        raise OutOfRange(f"h={h} outside [0, {big})")
    n = big // divisor
    return is_coset_leader(q, big, h) == is_coset_leader(q, n, h // divisor)
