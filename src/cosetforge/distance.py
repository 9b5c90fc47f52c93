"""True minimum distances by exhaustive enumeration, plus closed-form bounds.

Every code here is cyclic, c = u g with deg u < k.  A shift and a scaling
move any nonzero codeword to one with c_0 = 1 and keep its weight, and only
the row x^0 g touches c_0, so a weight distribution visits just the q^(k-1)
words with u_0 = g_0^-1: their histogram N_w gives A_w = n (q-1) N_w / w.
A minimum distance needs fewer.  Row x^j g covers positions j..j+n-k, so
for k >= 2 only x^(k-1) g reaches c_(n-1) (where g_(n-k) = 1): the words
with u_(k-1) = 0 have c_(n-1) = 0, so d < n, and a lightest word has,
cyclically, a zero just before a nonzero, which a shift moves to positions
n-1 and 0.  So d is n minus the most zeros over the q^(k-2) words of the
first k - 1 rows with u_0 = g_0^-1.

A word is zero at position i exactly when u . G_i = 0 for the column G_i
of the k x n matrix [base; x g; ...; x^(k-1) g], and scaling G_i by a
nonzero constant does not change that.  So the columns are grouped into D
<= n projective classes, each normalised to first nonzero entry 1 and
weighted by its multiplicity (MacWilliams & Sloane, ch. 1).  The
[14706, 6] dual over GF(7), say, has D = 2451, each class q - 1 columns.

Words are counted in pairs (meet in the middle): q^a left words from the
c_0 = 1 row against q^b right words, shifted by each combination of the
remaining rows.  x + y is zero where x_i = -y_i, so per block of classes
one product of the one-hot matrices [x_i = v] and mult_i [-y_i = v]
(v < q) sums the multiplicities of those classes for all q^a x q^b pairs,
and a weight is n minus their sum over blocks.  Every partial sum of an
entry is an integer at most the total multiplicity n, so float32 is exact
in any order while n < 2^24 and float64 is used from there; the float64
sum over blocks is exact (n < 2^53).  One cap bounds q^(a+b) and each
one-hot block (at least one class wide).

The MacWilliams transform runs the three-term Krawtchouk recurrence
(MacWilliams & Sloane, ch. 5).  `route` is the one budget policy: direct
when q^k fits, else the dual when q^(n-k) fits, else no exact answer.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from . import bch, gf
from .errors import BudgetExceeded, DeltaOutOfRange, FamilyConstraint, NonIntegerTransform, OutOfRange, show_int

DEFAULT_BUDGET = 10**7
BUDGET_ENV_VAR = "COSETFORGE_BUDGET"
MAX_BUDGET = 2**63  # q^k <= 2^63 keeps every base-q column key (below q^k) in a 64-bit integer

_TABLE_ENTRIES = 1 << 17  # cap on the word pairs of one product and the entries of one one-hot block
_KEY_BLOCK = 1 << 17  # generator columns keyed at once


def effective_budget(budget: int | None = None) -> int:
    """Explicit budget, else the COSETFORGE_BUDGET env var, else the default; OutOfRange outside [0, MAX_BUDGET]."""
    if budget is None:
        env = os.environ.get(BUDGET_ENV_VAR)
        try:
            budget = int(env) if env else DEFAULT_BUDGET
        except ValueError:
            raise OutOfRange(f"{BUDGET_ENV_VAR}={env!r} is not an integer") from None
    if budget < 0:
        raise OutOfRange(f"enumeration budget must be >= 0, got {budget}")
    if budget > MAX_BUDGET:
        raise OutOfRange(f"enumeration budget {show_int(budget)} exceeds the ceiling 2^63")
    return budget


@dataclass(frozen=True)
class WeightEnumerator:
    """Counts A_0..A_n of codewords by Hamming weight."""

    n: int
    counts: tuple[int, ...]

    def min_positive_weight(self) -> int | None:
        for w, c in enumerate(self.counts):
            if w >= 1 and c > 0:
                return w
        return None


@dataclass(frozen=True)
class DistanceResult:
    d: int | None
    method: str  # direct-enum | dual-macwilliams | bound-only
    enumerated: int


def _span(add: np.ndarray, mul: np.ndarray, start: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """start + every GF(q) combination of rows, one word per row of a q^len(rows) x len(start) table."""
    table = start[None, :]
    for r in rows:  # np.take keeps c r (c < q) in C order, and so the table: np.take copies other index layouts
        table = add[table[None, :, :], np.take(mul, r, axis=1)[:, None, :]].reshape(-1, len(start))
    return table


def _key(rows, q: int, dtype) -> np.ndarray:
    """Each column of rows read as a base-q integer, the first row most significant."""
    key = np.zeros(len(rows[0]), dtype=dtype)
    for r in rows:
        key *= q
        key += r
    return key


def _decode(keys: np.ndarray, q: int, k: int, dtype) -> np.ndarray:
    """The k x len(keys) columns whose `_key`s are keys."""
    cols = np.empty((k, len(keys)), dtype=dtype)
    for j in range(k - 1, -1, -1):
        keys, cols[j] = np.divmod(keys, q)
    return cols


def _projective_classes(t: gf.FieldTower, code, rows: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Columns of the k x n matrix [base; x g; ...; x^(k-1) g] up to GF(q)* scaling.

    Returns the k x D class columns, each with first nonzero entry 1, and
    their multiplicities (which sum to n).  The columns of [g; ...;
    x^(k-1) g] are read as base-q keys a block of positions at a time.
    When q^k <= n the keys are bincounted and only the distinct columns are
    then normalised and merged; otherwise every column is normalised and
    the n keys are sorted.  Given `rows`, k is that many first rows, not
    the dimension; their all-zero columns form one class of zero columns.
    """
    q, n, k = t.q, code.n, code.dimension if rows is None else rows
    dt = np.min_scalar_type(q - 1)
    kt = np.min_scalar_type(q**k)
    mul = np.asarray(t.q_mul, dtype=dt)
    inv = np.asarray(t.q_inv, dtype=dt)
    g = np.zeros(n + k - 1, dtype=dt)  # g[k-1 + i - j] = g_(i-j), the entry of x^j g at position i (0 for i < j)
    g[k - 1 : k + code.genpoly.degree] = code.genpoly.coeffs
    assert g[k - 1], "the generator of a cyclic code has g_0 != 0"

    def class_keys(cols):  # the keys of the columns scaled to the base row, then to first nonzero entry 1
        cols[0] = mul[inv[g[k - 1]], cols[0]]  # u_0 = g_0^-1, so c_0 = 1
        lead = np.zeros(cols.shape[1], dtype=dt)
        for r in cols[::-1]:
            lead = np.where(r != 0, inv[r], lead)  # ends at the inverse of the first nonzero entry
        return _key(mul[lead, cols], q, kt)

    by_count = q**k <= n
    counts = np.zeros(q**k if by_count else 0, dtype=np.int64)
    keys = np.empty(0 if by_count else n, dtype=kt)
    for i in range(0, n, _KEY_BLOCK):
        cols = np.array([g[k - 1 + i - j : k - 1 + min(i + _KEY_BLOCK, n) - j] for j in range(k)])
        if by_count:
            counts += np.bincount(_key(cols, q, kt), minlength=q**k)
        else:
            keys[i : i + _KEY_BLOCK] = class_keys(cols)
    if by_count:
        keys = np.flatnonzero(counts)
        merged = np.bincount(class_keys(_decode(keys, q, k, dt)), weights=counts[keys], minlength=q**k)
        keys = np.flatnonzero(merged)
        counts = merged[keys].astype(np.int64)  # sums of integers below 2^53, exact in float64
    else:
        keys, counts = np.unique(keys, return_counts=True)
    return _decode(keys, q, k, dt), counts


def _class_zeros(t: gf.FieldTower, cols: np.ndarray, mult: np.ndarray):
    """Per lead combination, the q^a x q^b sums of mult over the classes where left + right word is zero.

    Every combination refills and yields the same array.
    """
    q, (k, d) = t.q, cols.shape
    dt = cols.dtype
    add = np.asarray(t.q_add, dtype=dt)
    mul = np.asarray(t.q_mul, dtype=dt)
    base, rows = cols[0], cols[1:]
    s = min(k - 1, next(r for r in itertools.count() if q ** (r + 1) > _TABLE_ENTRIES))  # q^s word pairs per product
    a, b = (s + 1) // 2, s // 2
    width = max(1, _TABLE_ENTRIES // q ** (a + 1))  # classes per one-hot block of the q^a left words
    ft = np.float32 if int(mult.sum()) < 1 << 24 else np.float64  # a partial sum is at most the total multiplicity
    one_hot = np.eye(q, dtype=ft)  # row v: [v == 0], ..., [v == q-1]
    neg_hot = one_hot[t.q_neg]  # row v: the one-hot of -v
    weight = mult.astype(ft)[:, None, None]
    offset = q * np.arange(min(width, d))
    eq = np.empty((q**a, q**b))  # multiplicities of the classes where the left word = -the right word
    for scalars in itertools.product(range(q), repeat=k - 1 - s):
        word = np.zeros(d, dtype=dt)
        for c, r in zip(scalars, rows[s:]):
            word = add[word, mul[c, r]]
        eq.fill(0)
        for i in range(0, d, width):
            j = slice(i, i + width)
            lhs = np.take(one_hot, _span(add, mul, base[j], rows[:a, j]), axis=0)
            table = (weight[j] * neg_hot).reshape(-1, q)  # row q c + v: mult_c times the one-hot of -v, c in the block
            rhs = np.take(table, _span(add, mul, word[j], rows[a:s, j]) + offset[: len(table) // q], axis=0)
            eq += lhs.reshape(q**a, -1) @ rhs.reshape(q**b, -1).T
        yield eq


def _zero_histogram(t: gf.FieldTower, code, budget: int, rows: int | None = None) -> np.ndarray:
    """Z_0..Z_emax, the codewords with c_0 = 1 by their number e of zeros (weight n - e), up to the largest e met; empty when k = 0.

    Given `rows`, only the words of the first `rows` rows (u_j = 0 for j >= rows) are counted.
    """
    q, k = t.q, code.dimension
    if q**k > budget:
        raise BudgetExceeded(f"q^k = {q**k} exceeds budget {budget}")
    k = k if rows is None else rows
    hist = np.zeros(0, dtype=np.int64)
    if k == 0:
        return hist
    cols, mult = _projective_classes(t, code, k)
    for eq in _class_zeros(t, cols, mult):
        z = np.bincount(eq.astype(np.intp).ravel())  # no minlength: as long as the most zeros met, not n + 1
        if z.size > hist.size:
            hist = np.pad(hist, (0, z.size - hist.size))
        hist[: z.size] += z
    assert hist.sum() == q ** (k - 1), f"{hist.sum()} words counted, not the q^(k-1) = {q ** (k - 1)} with c_0 = 1"
    return hist


def weight_enumerator(t: gf.FieldTower, code, budget: int | None = None) -> WeightEnumerator:
    """Full A_0..A_n by exhaustive enumeration (BudgetExceeded if too big)."""
    n, q = code.n, t.q
    zeros = _zero_histogram(t, code, effective_budget(budget))
    counts = [1] + [0] * n
    for e in map(int, np.flatnonzero(zeros)):
        w = n - e  # c_0 = 1, so w >= 1
        a, rem = divmod(n * (q - 1) * int(zeros[e]), w)
        assert rem == 0, f"N_{w} = {zeros[e]} does not come from a cyclic code"
        counts[w] = a
    return WeightEnumerator(n=n, counts=tuple(counts))


def route(q: int, n: int, k: int, budget: int, method: str = "auto") -> str | None:
    """How the distance of an [n, k] code over GF(q) can be computed, or None.

    "direct-enum" when q^k codewords fit the budget, else (for "auto" or
    "dual-macwilliams") "dual-macwilliams" when the dual's q^(n-k) do.
    """
    if method in ("auto", "direct") and q**k <= budget:
        return "direct-enum"
    if method in ("auto", "dual-macwilliams") and q ** (n - k) <= budget:
        return "dual-macwilliams"
    return None


def min_distance_enumerate(t: gf.FieldTower, code, budget: int | None = None, method: str = "auto") -> DistanceResult:
    """Exact minimum distance when `route` finds an enumeration that fits the budget.

    Direct enumeration of the code, or enumeration of its dual followed by
    a MacWilliams transform; otherwise a bound-only result (d = None) for
    "auto" and "bound-only", and BudgetExceeded for a forced route.
    `enumerated` is the number of codewords accounted for, q^k or q^(n-k).
    For k >= 2 direct enumeration visits only the q^(k-2) words with
    c_(n-1) = 0 and c_0 = 1, which hold a lightest word up to shift and scaling.
    """
    b = effective_budget(budget)
    q, n, k = code.q, code.n, code.dimension
    if method not in ("auto", "direct", "dual-macwilliams", "bound-only"):
        raise OutOfRange(f"unknown method {method!r}")
    chosen = route(q, n, k, b, method)
    if chosen == "direct-enum":
        zeros = _zero_histogram(t, code, b, k - 1 if k >= 2 else k)  # the words with c_(n-1) = 0 and c_0 = 1
        d = n - (zeros.size - 1) if zeros.size else None  # the last bin, the most zeros met, is nonzero
        return DistanceResult(d=d, method=chosen, enumerated=q**k)
    if chosen == "dual-macwilliams":
        wd = weight_enumerator(t, bch.dual_code(t, code), b)
        wc = macwilliams_transform(wd, q, k_dual=k)
        return DistanceResult(d=wc.min_positive_weight(), method=chosen, enumerated=q ** (n - k))
    if method in ("auto", "bound-only"):
        return DistanceResult(d=None, method="bound-only", enumerated=0)
    need = f"q^k = {q}^{k}" if method == "direct" else f"q^(n-k) = {q}^{n - k}"
    raise BudgetExceeded(f"method {method} needs {need} codewords, over budget {b}")


def macwilliams_transform(w: WeightEnumerator, q: int, k_dual: int) -> WeightEnumerator:
    """Exact weight enumerator of the dual of a code with enumerator w.

    B_j = q^(-k) * sum_i A_i * K_j(i).  For each i the Krawtchouk values
    follow, from K_-1(i) = 0 and K_0(i) = 1, the recurrence
    (j+1) K_{j+1}(i) = ((n-j)(q-1) + j - q i) K_j(i) - (q-1)(n-j+1) K_{j-1}(i).
    Non-integer or negative counts indicate a broken input enumerator.
    """
    n = w.n
    total = sum(w.counts)
    if len(w.counts) != n + 1 or w.counts[0] != 1:
        raise NonIntegerTransform("input is not a weight enumerator (A_0 must be 1)")
    if total * q**k_dual != q**n:
        raise NonIntegerTransform(f"sum A_i = {total} inconsistent with an [n={n}, k={n - k_dual}] code over GF({q})")
    acc = [0] * (n + 1)
    for i, a in enumerate(w.counts):
        if a == 0:
            continue
        prev, kern = 0, 1
        for j in range(n + 1):
            acc[j] += a * kern
            prev, kern = kern, (((n - j) * (q - 1) + j - q * i) * kern - (q - 1) * (n - j + 1) * prev) // (j + 1)
    out = []
    for j, s in enumerate(acc):
        b, rem = divmod(s, total)
        if rem or b < 0:
            raise NonIntegerTransform(f"B_{j} = {s}/{total} is not a nonnegative integer")
        out.append(b)
    return WeightEnumerator(n=n, counts=tuple(out))


def dual_bound_closed_form(q: int, m: int, delta: int, family: str = "plus") -> int:
    """Piecewise lower bound on the dual distance of the plus-family code.

    Where two brackets touch, the larger applicable bound is returned.
    """
    if family != "plus":
        raise FamilyConstraint(f"closed-form dual bound is for the plus family, got {family!r}")
    if m < 4 or m % 2 != 0:
        raise FamilyConstraint(f"closed-form dual bound needs m >= 4 even, got m={m}")
    n = (q**m - 1) // (q + 1)
    if not 2 <= delta <= n:
        raise DeltaOutOfRange(f"delta={delta} outside [2, {n}]")
    bounds = []
    if q == 2:
        for t in range(0, m - 1, 2):
            if (2**t - 1) // 3 < delta <= (2 ** (t + 2) - 1) // 3:
                bounds.append((2 ** (m - t) - 1) // 3 + 1)
    else:
        if delta <= q - 1:
            bounds.append((q ** (m - 1) + 2 * q ** (m - 2) - 1) // (q + 1))
        for t in range(2, m - 1, 2):
            if (q**t - 1) // (q + 1) < delta <= (q ** (t + 1) + 2 * q**t - 1) // (q + 1):
                bounds.append((q ** (m - t) - 1) // (q + 1) + 1)
            if t != m - 2 and (q ** (t + 1) + 2 * q**t - 1) // (q + 1) < delta <= (q ** (t + 2) - 1) // (q + 1):
                bounds.append((q ** (m - t - 2) - 1) // (q + 1) + 1)
        if delta > (q ** (m - 1) + 2 * q ** (m - 2) - 1) // (q + 1):
            bounds.append(2)
    assert bounds, "brackets tile the whole delta range"
    return max(bounds)
