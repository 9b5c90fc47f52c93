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
residue) built from ``cosets.leader_map``.  ``recognize_bch`` walks its own
orbits on purpose, as the independent check of the O(n) sweep, and keeps
their leaders in an int32 array (four bytes per residue).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import cosets, gf
from .errors import DeltaOutOfRange, FamilyConstraint, NotCoprime, OutOfRange, TowerMismatch, UsageError


@dataclass(frozen=True)
class DefiningSet:
    """A coset-closed set of exponents modulo n, stored as its mask.

    ``bits`` takes a length-n boolean array and keeps its bytes, so sets compare
    and hash by value; ``mask`` is a read-only, zero-copy view of them.
    """

    q: int
    n: int
    bits: bytes = field(repr=False)
    source_cosets: tuple[int, ...]  # leaders of the cosets composing the set

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


@dataclass(frozen=True)
class Recognition:
    """Outcome of the BCH-shape test for an exponent set.

    ``witness`` is the canonical (b, delta) with delta maximal and then b
    minimal over the scanned anchors; ``c0_anchored`` records whether a
    witness starting at b = 0 exists.  ``empty`` marks the empty-set case,
    which carries no witness at all.
    """

    is_bch: bool
    witness: tuple[int, int] | None
    empty: bool = False
    c0_anchored: bool = False


@dataclass(frozen=True)
class DuallyBchResult:
    verdict: bool
    witness: tuple[int, int] | None
    tperp: DefiningSet
    empty_dual: bool = False


@dataclass(frozen=True)
class CyclicCode:
    """A cyclic code described by its generator polynomial and root exponents."""

    q: int
    n: int
    genpoly: gf.Polynomial
    defining: DefiningSet
    dimension: int


@dataclass(frozen=True)
class BchCode:
    q: int
    m: int
    family: str
    n: int
    b: int
    delta: int
    defining: DefiningSet
    genpoly: gf.Polynomial
    dimension: int
    bch_bound: int


def _make_defining_set(q: int, n: int, mask: np.ndarray) -> DefiningSet:
    """The set marked by mask; mask must be coset-closed, so it holds its leaders (L[x] = x)."""
    lead = cosets.leader_map(q, n)
    sources = np.flatnonzero(mask & (lead == np.arange(n, dtype=lead.dtype)))
    return DefiningSet(q, n, mask, tuple(sources.tolist()))


def defining_set(q: int, n: int, delta: int, b: int = 1) -> DefiningSet:
    """Union of the cosets C_b, ..., C_{b+delta-2} (indices mod n)."""
    if math.gcd(q, n) != 1:
        raise NotCoprime(f"gcd({q}, {n}) != 1")
    if not 2 <= delta <= n:
        raise DeltaOutOfRange(f"delta={delta} outside [2, {n}]")
    lead = cosets.leader_map(q, n)
    hit = np.zeros(n, dtype=bool)  # hit[v]: the window meets the coset with leader v
    hit[lead[(b % n + np.arange(delta - 1)) % n]] = True
    return _make_defining_set(q, n, hit[lead])


def dual_defining_set(ds: DefiningSet) -> DefiningSet:
    """T_perp = Z_n \\ T^{-1}; coset-closed because T is."""
    cosets.check_table_size(ds.n)
    return _make_defining_set(ds.q, ds.n, ~np.roll(ds.mask[::-1], 1))  # rolled reversal: x -> (n - x) mod n


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
    run.  Each run is walked once, backwards, adding one leader per step to
    the cosets covered from there to the run end.  Among valid witnesses,
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
        return Recognition(is_bch=True, witness=(b, n), c0_anchored=(n - 1) * q % n != n - 1)

    runs = _runs(ds.mask)  # before leader_of, so their temporaries never coexist
    leader_of = np.full(n, -1, dtype=np.int32)  # leader_of[x]: the source coset walked through x
    for lead in ds.source_cosets:
        x = lead
        while leader_of.item(x) != lead:  # unmarked until the orbit closes
            leader_of[x] = lead
            x = x * q % n
    total = len(ds.source_cosets)

    best: tuple[int, int] | None = None
    c0 = False
    for start, length in zip(*runs):
        covered = set()
        for j in range(length - 1, -1, -1):
            b = (start + j) % n
            lead = leader_of.item(b)
            covered.add(lead)
            if lead == b and len(covered) == total:
                delta = length - j + 1
                c0 = c0 or b == 0
                if best is None or delta > best[1] or (delta == best[1] and b < best[0]):
                    best = (b, delta)
    return Recognition(is_bch=best is not None, witness=best, c0_anchored=c0)


def dually_bch_length(q: int, m: int, family: str) -> int:
    """Family length n of a point where the dually-BCH decision applies (q a prime power, m >= 4)."""
    gf.prime_power(q)
    if m < 4:
        raise FamilyConstraint(f"need m >= 4, got m={m}")
    return cosets.family_length(q, m, family)


def is_dually_bch(q: int, m: int, family: str, delta: int) -> DuallyBchResult:
    """Whether the narrow-sense code of the family is dually-BCH at delta."""
    n = dually_bch_length(q, m, family)
    tperp = dual_defining_set(defining_set(q, n, delta, 1))
    if tperp.size == 0:
        return DuallyBchResult(verdict=True, witness=None, tperp=tperp, empty_dual=True)
    rec = recognize_bch(tperp)
    return DuallyBchResult(verdict=rec.is_bch, witness=rec.witness, tperp=tperp)


def i_of_delta(q: int, n: int, delta: int) -> int:
    """Smallest i not in T_perp for the narrow-sense code (always >= 1; n - 1 is never in T_perp)."""
    if not 2 <= delta < n:
        raise DeltaOutOfRange(f"delta={delta} outside [2, {n})")
    return int(np.argmin(dual_defining_set(defining_set(q, n, delta, 1)).mask))  # first False


@lru_cache(maxsize=None)
def _i_of_delta_table(q: int, n: int) -> np.ndarray:
    """IT with IT[delta] = I(delta) for 2 <= delta <= n (index 0,1 unused).

    I(delta) = min{ i >= 1 : leader((n - i) mod n) in [1, delta-1] }, or n when
    no such i exists.  Built in O(n) from the leader map.
    """
    lrev = np.roll(cosets.leader_map(q, n)[::-1], 1)  # lrev[i] = leader((n - i) mod n)
    first = np.full(n + 1, n, dtype=np.int64)  # first[v] = min index i with lrev[i] = v
    idx = np.arange(n)
    mask = lrev >= 1
    np.minimum.at(first, lrev[mask], idx[mask])
    first[0] = n
    pref = np.minimum.accumulate(first)
    table = np.full(n + 1, n, dtype=np.int64)
    deltas = np.arange(2, n + 1)
    table[deltas] = pref[deltas - 1]
    return table


def i_of_delta_sweep(q: int, n: int, deltas) -> np.ndarray:
    """Vectorized I(delta) for many deltas (same definition as i_of_delta)."""
    table = _i_of_delta_table(q, n)
    deltas = np.asarray(deltas, dtype=np.int64)
    if deltas.size and (deltas.min() < 2 or deltas.max() >= n):
        raise DeltaOutOfRange("every delta must lie in [2, n)")
    return table[deltas]


def dually_bch_sweep(q: int, n: int) -> np.ndarray:
    """Verdicts of the dually-BCH decision for every delta in [2, n], in O(n).

    For narrow-sense codes T_perp always contains 0 and never n-1, so any BCH
    witness starts at b = 0: the verdict is closure({0..I(delta)-1}) = T_perp.
    The closure lies in T_perp (coset-closed, and holding {0..I(delta)-1} by
    the definition of I), so the sizes decide.  With cum[v] = |{x : leader(x)
    <= v}| they are cum[I(delta)-1] and n - (cum[delta-1] - cum[0]).
    """
    cum = np.cumsum(np.bincount(cosets.leader_map(q, n), minlength=n))
    deltas = np.arange(2, n + 1)
    return cum[_i_of_delta_table(q, n)[deltas] - 1] == n - (cum[deltas - 1] - cum[0])


# --------------------------------------------------------------------------
# polynomial-level constructions (need a field tower)
# --------------------------------------------------------------------------


def _check_tower(t: gf.FieldTower, q: int, n: int) -> None:
    if t.q != q:
        raise TowerMismatch(f"tower subfield GF({t.q}) but code over GF({q})")
    if (t.order - 1) % n != 0:
        raise TowerMismatch(f"n={n} does not divide q^m-1={t.order - 1}")


def _minpoly_product(t: gf.FieldTower, n: int, leaders) -> gf.Polynomial:
    out = gf.Polynomial(gf.Level.GFQ, (1,))
    for lead in leaders:
        out = gf.poly_mul(t, out, gf.minimal_polynomial(t, n, lead))
    return out


def generator_polynomial(t: gf.FieldTower, ds: DefiningSet) -> gf.Polynomial:
    """Monic divisor of x^n - 1 whose root exponents are exactly the set.

    Computed as the product of the minimal polynomials of the source cosets,
    or as (x^n - 1) divided by the complement's product when that side is
    smaller (both give the same monic polynomial).
    """
    _check_tower(t, ds.q, ds.n)
    n = ds.n
    k = n - ds.size
    if ds.size <= k:
        g = _minpoly_product(t, n, ds.source_cosets)
    else:
        h = _minpoly_product(t, n, _make_defining_set(ds.q, n, ~ds.mask).source_cosets)
        g, rem = gf.poly_divmod(t, gf.xn_minus_one(t, n), h)
        assert rem.is_zero()
    assert g.degree == ds.size or (ds.size == 0 and g.degree == 0)
    return g


def dual_generator(t: gf.FieldTower, code) -> gf.Polynomial:
    """Generator of the dual: the generator polynomial of T_perp = Z_n \\ T^{-1}."""
    return generator_polynomial(t, dual_defining_set(code.defining))


def dual_code(t: gf.FieldTower, code) -> CyclicCode:
    """The dual as a cyclic code, generated by the generator polynomial of T_perp."""
    dual_ds = dual_defining_set(code.defining)
    g = generator_polynomial(t, dual_ds)
    return CyclicCode(q=code.q, n=code.n, genpoly=g, defining=dual_ds, dimension=code.n - code.dimension)


def bch_code(t: gf.FieldTower, n: int, delta: int, b: int = 1, family: str = "raw", m: int | None = None) -> BchCode:
    """Construct the BCH code of length n with designed distance delta."""
    _check_tower(t, t.q, n)
    ds = defining_set(t.q, n, delta, b)
    g = generator_polynomial(t, ds)
    return BchCode(
        q=t.q,
        m=m if m is not None else t.m,
        family=family,
        n=n,
        b=b,
        delta=delta,
        defining=ds,
        genpoly=g,
        dimension=n - ds.size,
        bch_bound=bch_bound(ds),
    )


def build_family_code(q: int, m: int, family: str, delta: int, b: int = 1, n: int | None = None):
    """Build tower and code for a family point; returns (tower, code).

    family "raw" takes an explicit n (must divide q^m - 1), and only it does.
    """
    if family in cosets.FAMILIES:
        if n is not None:
            raise UsageError(f"family {family!r} derives n from q and m; an explicit n is for family 'raw'")
        n = cosets.family_length(q, m, family)
    elif family == "raw":
        if n is None:
            raise UsageError("family 'raw' needs an explicit n")
    else:
        raise FamilyConstraint(f"unknown family {family!r}")
    t = gf.tower_for(q, m)
    return t, bch_code(t, n, delta, b=b, family=family, m=m)
