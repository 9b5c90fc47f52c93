"""Defining sets, generator polynomials, duals and the dually-BCH decision.

A narrow-sense code with designed distance delta has defining set
T = C_1 | ... | C_{delta-1} (exponents of the generator's roots in the
fixed primitive n-th root of unity beta).  The dual's defining set is
T_perp = Z_n \\ T^{-1} with T^{-1} = {n - i mod n : i in T}, and its
generator is ``generator_polynomial`` of T_perp.  A set is recognized as
BCH when it equals the coset closure of a consecutive window
{b, ..., b + delta - 2}.  ``_runs`` splits a set into its maximal cyclic
runs; ``bch_bound`` is the longest plus one, and ``recognize_bch`` walks
each run once from its end, anchoring b at coset leaders (and 0) so that
witnesses are canonical: largest delta, then smallest b.
A defining set is stored once, as its boolean mask over Z_n (one byte per
residue) built from ``cosets.leader_map``; its source cosets, and a code's
q, n, dimension and BCH bound, are read off it, never stored beside it.
The dually-BCH decision reads I(delta), the least i >= 1 outside T_perp,
off the same map: I(delta) is the minimum of L[n - v] over
1 <= v <= delta - 1, because the i with n - i in C_v form C_{n-v}, whose
least member is L[n - v].  ``dually_bch_sweep`` (every delta) and
``is_dually_bch`` (one delta) test the same identity on it, build
neither T nor T_perp, and return only verdicts (and the one witness).
``recognize_bch`` walks its own orbits on purpose, as the independent
check of both, and keeps their leaders in an int32 array (four bytes per
residue); ``code`` and ``dual`` recognise their sets with it for any b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import cosets, gf
from .errors import DeltaOutOfRange, FamilyConstraint, NotCoprime, OutOfRange, TowerMismatch, UsageError, show_int


@dataclass(frozen=True)
class DefiningSet:
    """A coset-closed set of exponents modulo n, stored as its mask and nothing else.

    ``bits`` takes a length-n boolean array and keeps its bytes, so sets compare
    and hash by value; ``mask`` is a read-only, zero-copy view of them.  The
    size, the members and the source cosets are all read off the mask.
    """

    q: int
    n: int
    bits: bytes = field(repr=False)

    def __post_init__(self):
        mask = np.asarray(self.bits, dtype=bool)
        if mask.shape != (self.n,):
            raise OutOfRange(f"mask of shape {mask.shape} for a set modulo n = {self.n}")
        object.__setattr__(self, "bits", mask.tobytes())

    @property
    def mask(self) -> np.ndarray:
        return np.frombuffer(self.bits, dtype=bool)

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.mask))

    @property
    def exponents(self) -> frozenset[int]:
        """The members as Python ints, for callers outside the package (tens of bytes each)."""
        return frozenset(np.flatnonzero(self.mask).tolist())

    @property
    def source_cosets(self) -> tuple[int, ...]:
        """Leaders of the cosets composing the set, ascending (its members with L[x] = x); OutOfRange unless it is coset-closed."""
        lead, mask, out = cosets.leader_map(self.q, self.n), self.mask, []
        for lo in range(0, self.n, cosets._BLOCK):  # one block of residues at a time, no n-length temporary
            if not np.array_equal(mask[lo : lo + cosets._BLOCK], mask[lead[lo : lo + cosets._BLOCK]]):  # closed exactly when x and its leader L[x] are both in or both out
                raise OutOfRange(f"the set is not a union of {self.q}-cyclotomic cosets modulo n = {self.n}")
            block, held = lead[lo : lo + cosets._BLOCK], mask[lo : lo + cosets._BLOCK]
            out += (np.flatnonzero(held & (block == np.arange(lo, lo + block.size, dtype=block.dtype))) + lo).tolist()
        return tuple(out)


@dataclass(frozen=True)
class Recognition:
    """Outcome of the BCH-shape test for an exponent set.

    ``witness`` is the canonical (b, delta) with delta maximal and then b
    minimal over the scanned anchors.  ``empty`` marks the empty-set case,
    which carries no witness at all.
    """

    is_bch: bool
    witness: tuple[int, int] | None
    empty: bool = False


@dataclass(frozen=True)
class DuallyBchResult:
    verdict: bool
    witness: tuple[int, int] | None


@dataclass(frozen=True)
class CyclicCode:
    """A cyclic code: its defining set T and its generator polynomial; q, n and the dimension n - |T| are T's."""

    defining: DefiningSet
    genpoly: gf.Polynomial

    @property
    def q(self) -> int:
        return self.defining.q

    @property
    def n(self) -> int:
        return self.defining.n

    @property
    def dimension(self) -> int:
        return self.defining.n - self.defining.size


@dataclass(frozen=True)
class BchCode(CyclicCode):
    """A BCH code: the cyclic code of the window b, ..., b + delta - 2, with the tower degree m and family it was built for."""

    m: int
    family: str
    b: int
    delta: int

    @property
    def bch_bound(self) -> int:
        return bch_bound(self.defining)


def defining_set(q: int, n: int, delta: int, b: int = 1) -> DefiningSet:
    """Union of the cosets C_b, ..., C_{b+delta-2} (indices mod n)."""
    if math.gcd(q, n) != 1:
        raise NotCoprime(f"gcd({q}, {n}) != 1")
    if not 2 <= delta <= n:
        raise DeltaOutOfRange(f"delta={delta} outside [2, {show_int(n)}]")
    lead = cosets.leader_map(q, n)
    hit = np.zeros(n, dtype=bool)  # hit[v]: the window meets the coset with leader v
    lo, hi = b % n, b % n + delta - 1  # the window lo, ..., hi - 1 mod n is two slices of the map
    hit[lead[lo:hi]] = hit[lead[: max(hi - n, 0)]] = True
    return DefiningSet(q, n, hit[lead])


def dual_defining_set(ds: DefiningSet) -> DefiningSet:
    """T_perp = Z_n \\ T^{-1}; coset-closed because T is."""
    cosets.check_table_size(ds.n)
    return DefiningSet(ds.q, ds.n, ~np.roll(ds.mask[::-1], 1))  # rolled reversal: x -> (n - x) mod n


def _runs(mask: np.ndarray) -> tuple[list[int], list[int]]:
    """Starts and lengths of the maximal cyclic runs of a mask neither empty nor full.

    Rolling the first non-member to index 0 leaves no run through the
    wrap-around; runs then start and stop where the rolled mask changes.
    """
    z = int(np.argmin(mask))
    edges = np.flatnonzero(np.diff(np.roll(mask, -z), prepend=False, append=False))
    starts, stops = edges[0::2], edges[1::2]
    return ((starts + z) % mask.size).tolist(), (stops - starts).tolist()


def bch_bound(ds: DefiningSet) -> int:
    """Longest cyclically-consecutive run inside the set, plus one."""
    size = ds.size
    if size in (0, ds.n):  # no run, or all of Z_n
        return size + 1
    return max(_runs(ds.mask)[1]) + 1


def recognize_bch(ds: DefiningSet) -> Recognition:
    """Decide whether the set is a coset closure of a consecutive window.

    Anchors b range over the set's coset leaders (0 among them when it is a
    member); the window of an anchor runs from b to the end of its cyclic
    run.  Each run is walked once, backwards, marking one leader per step in
    a byte per residue and counting the cosets covered from there to the
    run end; the run's marks are cleared after it.  Among valid witnesses,
    delta is maximized and then b minimized.
    """
    n, q, size = ds.n, ds.q, ds.size
    if size == 0:
        return Recognition(is_bch=False, witness=None, empty=True)
    if size == n:
        # window of n-1 residues misses exactly one; any missed residue whose
        # coset is larger than itself keeps the closure equal to Z_n
        b = min(((x + 1) % n for x in range(n) if x * q % n != x), default=None)
        if b is None:
            return Recognition(is_bch=False, witness=None)
        return Recognition(is_bch=True, witness=(b, n))

    runs = _runs(ds.mask)  # before leader_of, so their temporaries never coexist
    sources = ds.source_cosets
    leader_of = np.full(n, -1, dtype=np.int32)  # leader_of[x]: the source coset walked through x
    for lead in sources:
        x = lead
        while leader_of.item(x) != lead:  # unmarked until the orbit closes
            leader_of[x] = lead
            x = x * q % n
    total = len(sources)

    best: tuple[int, int] | None = None
    seen = bytearray(n)  # seen[lead]: coset lead is covered from b to the run end
    marks = np.frombuffer(seen, dtype=np.uint8)  # the same bytes, for unmarking a run at once
    for start, length in zip(*runs):
        covered = 0
        for j in range(length - 1, -1, -1):
            b = (start + j) % n
            lead = leader_of.item(b)
            if not seen[lead]:
                seen[lead] = 1
                covered += 1
            if lead == b and covered == total:
                delta = length - j + 1
                if best is None or delta > best[1] or (delta == best[1] and b < best[0]):
                    best = (b, delta)
        # unmark this run's cosets; only the last run (it ends just before the
        # first non-member) can wrap past n - 1, and no run follows it
        marks[leader_of[start : start + length]] = 0
    return Recognition(is_bch=best is not None, witness=best)


def dually_bch_length(q: int, m: int, family: str) -> int:
    """Family length n of a point where the dually-BCH decision applies (q a prime power, m >= 4, n under ORDER_GUARD).

    n is checked against the guard before q is decomposed: trial division of a huge prime q takes sqrt(q) steps.
    """
    if m < 4:
        raise FamilyConstraint(f"need m >= 4, got m={m}")
    n = cosets.family_length(q, m, family)
    cosets.check_table_size(n)
    gf.prime_power(q)
    return n


def is_dually_bch(q: int, m: int, family: str, delta: int) -> DuallyBchResult:
    """Whether the narrow-sense code of the family is dually-BCH at delta, read off the leader map.

    The sweep's identity at one delta (see dually_bch_sweep): with
    I = I(delta) = min{L[n - v] : 1 <= v <= delta - 1}, the verdict holds
    exactly when |{x : L[x] < I}| + |{x : L[x] < delta}| = n + 1.  T_perp
    holds 0 and never n - 1, so a window whose closure is T_perp covers the
    singleton coset {0} and cannot wrap: it starts at b = 0, and the longest
    one is {0, ..., I - 1}, giving the witness (0, I + 1).  Neither T nor
    T_perp is built: the two comparisons are the only n-length temporaries.
    """
    n = dually_bch_length(q, m, family)
    if not 2 <= delta <= n:
        raise DeltaOutOfRange(f"delta={delta} outside [2, {show_int(n)}]")
    lead = cosets.leader_map(q, n)
    i = int(lead[n - delta + 1 :].min())
    verdict = np.count_nonzero(lead < i) + np.count_nonzero(lead < delta) == n + 1
    return DuallyBchResult(verdict=bool(verdict), witness=(0, i + 1) if verdict else None)


def i_of_delta(q: int, n: int, delta: int) -> int:
    """Smallest i not in T_perp for the narrow-sense code (always >= 1; n - 1 is never in T_perp)."""
    if not 2 <= delta < n:
        raise DeltaOutOfRange(f"delta={delta} outside [2, {show_int(n)})")
    return int(np.argmin(dual_defining_set(defining_set(q, n, delta, 1)).mask))  # first False


def i_of_delta_sweep(q: int, n: int, deltas) -> np.ndarray:
    """I(delta) for many deltas (as i_of_delta), as int32: min{L[n - v] : 1 <= v <= delta - 1}.

    The i with n - i in C_v form C_{n-v}, whose least member is L[n - v]; so
    the prefix minima of L reversed hold I(delta) at index delta - 2.
    """
    deltas = np.asarray(deltas, dtype=np.int64)
    if deltas.size and (deltas.min() < 2 or deltas.max() >= n):
        raise DeltaOutOfRange("every delta must lie in [2, n)")
    return np.minimum.accumulate(cosets.leader_map(q, n)[:0:-1])[deltas - 2]


def dually_bch_sweep(q: int, n: int) -> np.ndarray:
    """Verdicts of the dually-BCH decision for every delta in [2, n], in O(n).

    For narrow-sense codes T_perp always contains 0 and never n-1, so any BCH
    witness starts at b = 0: the verdict is closure({0..I(delta)-1}) = T_perp.
    The closure lies in T_perp (coset-closed, and holding {0..I(delta)-1} by
    the definition of I), so the sizes decide.  With cum[v] = |{x : L[x] <= v}|
    they are cum[I(delta)-1] and n - (cum[delta-1] - cum[0]), and cum[0] = 1,
    so the test is cum[I(delta)-1] + cum[delta-1] = n + 1, with I(delta) the
    prefix minimum of L[n - 1], ..., L[n - delta + 1] (see i_of_delta_sweep).
    """
    lead = cosets.leader_map(q, n)
    cum = np.bincount(lead, minlength=n).astype(np.int32)  # counts <= n < 2^31: int32 throughout, in place
    np.add.accumulate(cum, out=cum)
    low = np.minimum.accumulate(lead[:0:-1])
    low -= 1
    hit = cum[low]
    hit += cum[1:]  # cum[1:] is cum[delta - 1]
    return hit == n + 1


# --------------------------------------------------------------------------
# polynomial-level constructions (need a field tower)
# --------------------------------------------------------------------------


def _check_tower(t: gf.FieldTower, q: int, n: int) -> None:
    if n < 1:
        raise OutOfRange(f"need n >= 1, got n={n}")
    if t.q != q:
        raise TowerMismatch(f"tower subfield GF({t.q}) but code over GF({q})")
    if (t.order - 1) % n != 0:
        raise TowerMismatch(f"n={n} does not divide q^m-1={t.order - 1}")


def _minpoly_product(t: gf.FieldTower, n: int, leaders) -> gf.Polynomial:
    out = gf.Polynomial((1,))
    for lead in leaders:
        out = gf.poly_mul(t, out, gf.minimal_polynomial(t, n, lead))
    return out


def generator_polynomial(t: gf.FieldTower, ds: DefiningSet) -> gf.Polynomial:
    """Monic divisor of x^n - 1 whose root exponents are exactly the set.

    Computed as the product of the minimal polynomials of the source cosets,
    or as (x^n - 1) divided by the complement's product h when that side is
    smaller (both give the same monic polynomial); the division is
    `gf.xn_minus_one_over`, which reads the quotient off the series 1/h.
    """
    _check_tower(t, ds.q, ds.n)
    n = ds.n
    k = n - ds.size
    if ds.size <= k:
        g = _minpoly_product(t, n, ds.source_cosets)
    else:
        g = gf.xn_minus_one_over(t, n, _minpoly_product(t, n, DefiningSet(ds.q, n, ~ds.mask).source_cosets))
    assert g.degree == ds.size or (ds.size == 0 and g.degree == 0)
    return g


def dual_generator(t: gf.FieldTower, code) -> gf.Polynomial:
    """Generator of the dual: the generator polynomial of T_perp = Z_n \\ T^{-1}."""
    return generator_polynomial(t, dual_defining_set(code.defining))


def dual_code(t: gf.FieldTower, code) -> CyclicCode:
    """The dual as a cyclic code, generated by the generator polynomial of T_perp."""
    dual_ds = dual_defining_set(code.defining)
    return CyclicCode(dual_ds, generator_polynomial(t, dual_ds))


def bch_code(t: gf.FieldTower, n: int, delta: int, b: int = 1, family: str = "raw", m: int | None = None) -> BchCode:
    """Construct the BCH code of length n with designed distance delta."""
    _check_tower(t, t.q, n)
    ds = defining_set(t.q, n, delta, b)
    return BchCode(ds, generator_polynomial(t, ds), m=m if m is not None else t.m, family=family, b=b, delta=delta)


def build_family_code(q: int, m: int, family: str, delta: int, b: int = 1, n: int | None = None):
    """Build tower and code for a family point; returns (tower, code).

    family "raw" takes an explicit n (must divide q^m - 1, checked before the tower is built), and only it does.
    """
    if family in cosets.FAMILIES:
        if n is not None:
            raise UsageError(f"family {family!r} derives n from q and m; an explicit n is for family 'raw'")
        n = cosets.family_length(q, m, family)
    elif family == "raw":
        if n is None:
            raise UsageError("family 'raw' needs an explicit n")
        if n < 1 or m < 1:
            raise OutOfRange(f"need n >= 1 and m >= 1, got n={n}, m={m}")
        gf.check_tower_order(q, m)
        gf.prime_power(q)  # NotPrime still comes before a bad n
        if pow(q, m, n) != 1 % n:  # n does not divide q^m - 1 (tested without forming q^m)
            raise TowerMismatch(f"n={n} does not divide q^m-1={show_int(q**m - 1)}")
    else:
        raise FamilyConstraint(f"unknown family {family!r}")
    t = gf.tower_for(q, m)
    return t, bch_code(t, n, delta, b=b, family=family, m=m)
