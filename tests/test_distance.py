"""Distance enumeration, MacWilliams transform, and closed-form dual bounds.

The naive oracles below never touch the library's fast paths: one multiplies
every message polynomial by the generator with plain table arithmetic, the
other applies the MacWilliams identity with the Krawtchouk triple sum.  A
third, `pairwise_histogram`, is the engine's former kernel (one `!=` pass
per right-hand word), fast enough to check codes of length in the tens of
thousands, where the scalar oracle is not.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetforge import bch, cosets, distance, gf, verify
from cosetforge.errors import BudgetExceeded, DeltaOutOfRange, FamilyConstraint, NonIntegerTransform, OutOfRange


def naive_weights(t, code):
    """Weight of every codeword via plain polynomial multiplication."""
    n, k = code.n, code.dimension
    g = code.genpoly.coeffs.tolist()
    counts = [0] * (n + 1)
    for msg in itertools.product(range(t.q), repeat=k):
        word = [0] * n
        for i, mc in enumerate(msg):
            if mc == 0:
                continue
            for j, c in enumerate(g):
                if c:
                    word[(i + j) % n] = int(t.q_add[word[(i + j) % n], t.q_mul[mc, c]])
        counts[sum(1 for x in word if x)] += 1
    return counts


def _span_tables(add, mul, start, rows, fit):
    """Tables of at most q^fit rows that together list start + every combination of rows."""
    q, n, lead = len(mul), len(start), max(0, len(rows) - fit)
    for scalars in itertools.product(range(q), repeat=lead):
        word = start
        for s, r in zip(scalars, rows):
            word = add[word, mul[s, r]]
        table = word[None, :]
        for r in rows[lead:]:
            table = add[table[None, :, :], mul[:, r][:, None, :]].reshape(-1, n)
        yield table


def pairwise_histogram(t, code, rows=None):
    """N_0..N_n of the c_0 = 1 codewords: each word of a right table against a whole left table with `!=`.

    Given `rows`, only the words of the first `rows` generator rows (u_j = 0 for j >= rows).
    """
    q, n, k = t.q, code.n, code.dimension if rows is None else rows
    hist = np.zeros(n + 1, dtype=np.int64)
    if k == 0:
        return hist
    dt = np.min_scalar_type(q - 1)
    add, mul, neg = (np.asarray(x, dtype=dt) for x in (t.q_add, t.q_mul, t.q_neg))
    g = np.zeros(n, dtype=dt)
    g[: len(code.genpoly.coeffs)] = code.genpoly.coeffs
    base = mul[t.q_inv[g[0]], g]
    rows = [np.roll(g, j) for j in range(1, k)]
    fit = next(r for r in itertools.count() if q ** (r + 1) * n > 1 << 22)  # a left table of at most 2^22 entries
    (first,) = _span_tables(add, mul, base, rows[:fit], fit)
    for table in _span_tables(add, mul, np.zeros(n, dtype=dt), rows[fit:], fit):
        for b in neg[table]:
            hist += np.bincount((first != b).sum(axis=1), minlength=n + 1)
    return hist


def first_weight(counts):
    """The first w >= 1 with a nonzero count: the minimum distance of a histogram N_0..N_n, or None when k = 0."""
    return next((w for w, c in enumerate(counts) if w and c), None)


def by_weight(zeros, n):
    """The kernel's Z_0..Z_emax (words by their number e of zeros, the last bin nonzero) as N_0..N_n, N_(n-e) = Z_e."""
    assert zeros.dtype == np.int64 and (zeros.size == 0 or zeros[-1] > 0)
    return np.pad(zeros, (0, n + 1 - zeros.size))[::-1]


def naive_macwilliams(counts, q):
    """B_j = sum_i A_i K_j(i) / |C| with K_j(i) = sum_s (-1)^s (q-1)^(j-s) C(i, s) C(n-i, j-s)."""
    n = len(counts) - 1
    out = []
    for j in range(n + 1):
        acc = 0
        for i, a in enumerate(counts):
            kern = sum((-1) ** s * (q - 1) ** (j - s) * math.comb(i, s) * math.comb(n - i, j - s) for s in range(j + 1))
            acc += a * kern
        b, rem = divmod(acc, sum(counts))
        assert rem == 0 and b >= 0
        out.append(b)
    return out


def mask(n, residues):
    """Boolean array over Z_n marking the residues (the form DefiningSet takes)."""
    out = np.zeros(n, dtype=bool)
    out[list(residues)] = True
    return out


def full_code(t, n):
    """The k = 0 cyclic code: every residue is a root, so the generator is x^n - 1."""
    ds = bch.DefiningSet(t.q, n, mask(n, set(range(n))))
    return bch.CyclicCode(defining=ds, genpoly=bch.generator_polynomial(t, ds))


# (q, m, n, delta): k from 0 to 12 (k = 0 for delta None, k = 1 at (2, 6, 21, 10)); q = 9 is an odd-characteristic extension field
ORACLE_CODES = [
    (2, 6, 21, 9), (2, 6, 21, 5), (2, 6, 21, 10),
    (3, 4, 20, 11), (3, 4, 16, 5), (3, 4, 16, 11),
    (4, 4, 51, 35), (4, 3, 21, 10), (4, 3, 21, 15),
    (9, 2, 10, 4), (9, 2, 20, 12), (9, 2, 16, 9), (9, 2, 10, 6),
    (2, 6, 21, None), (9, 2, 10, None),
]


def test_repetition_style_code_distance():
    t = gf.tower_for(2, 6)
    ds = bch.DefiningSet(2, 21, mask(21, set(range(1, 21))))  # roots at all nonzero exponents
    g = bch.generator_polynomial(t, ds)
    code = bch.CyclicCode(defining=ds, genpoly=g)
    res = distance.min_distance_enumerate(t, code)
    assert res.d == 21 and res.enumerated == 2
    we = distance.weight_enumerator(t, code)
    assert we.counts[0] == 1 and we.counts[21] == 1 and sum(we.counts) == 2


def test_known_dual_distances():
    t20 = gf.tower_for(3, 4)
    dual = bch.dual_code(t20, bch.bch_code(t20, 20, 2))
    res = distance.min_distance_enumerate(t20, dual)
    assert res.d == 12 and res.method == "direct-enum" and res.enumerated == 81

    t21 = gf.tower_for(2, 6)
    dual2 = bch.dual_code(t21, bch.bch_code(t21, 21, 2))
    assert distance.min_distance_enumerate(t21, dual2).d == 8


def test_cyclic_code_dimension_is_read_off_its_set():
    # a code is its defining set and its generator; the dimension cannot be given apart from them
    t = gf.tower_for(2, 6)
    bch_21 = bch.bch_code(t, 21, 4)
    code = bch.CyclicCode(defining=bch_21.defining, genpoly=bch_21.genpoly)
    assert (code.q, code.n, code.dimension) == (2, 21, 12)
    assert distance.min_distance_enumerate(t, code).d == 5


def test_zero_code_enumerator():
    t = gf.tower_for(2, 6)
    full = bch.DefiningSet(2, 21, mask(21, set(range(21))))
    code = bch.CyclicCode(defining=full, genpoly=bch.generator_polynomial(t, full))
    we = distance.weight_enumerator(t, code)
    assert we.counts[0] == 1 and sum(we.counts) == 1
    assert distance.min_distance_enumerate(t, code, method="direct").d is None


def check_against_oracle(q, m, n, delta):
    t = gf.tower_for(q, m)
    code = full_code(t, n) if delta is None else bch.bch_code(t, n, delta)
    oracle = naive_weights(t, code)
    we = distance.weight_enumerator(t, code)
    assert list(we.counts) == oracle
    assert sum(we.counts) == q**code.dimension
    res = distance.min_distance_enumerate(t, code, method="direct")
    assert res.d == next((w for w in range(1, n + 1) if oracle[w]), None)
    assert res.enumerated == q**code.dimension


@pytest.mark.parametrize("q,m,n,delta", ORACLE_CODES)
def test_enumerator_matches_naive_oracle(q, m, n, delta):
    check_against_oracle(q, m, n, delta)


@pytest.mark.parametrize("table_entries", [0, 64])
@pytest.mark.parametrize("q,m,n,delta", ORACLE_CODES)
def test_enumerator_with_tiny_tables_matches_naive_oracle(q, m, n, delta, table_entries, monkeypatch):
    monkeypatch.setattr(distance, "_TABLE_ENTRIES", table_entries)  # spans of 0-6 rows, many lead rows, narrow position blocks
    check_against_oracle(q, m, n, delta)


# (q, m, n, delta, b, dual, zero columns of the first k - 1 rows): k = 2 with g_0 = 3 and b = 2 ([12, 2] over GF(5)),
# k = 2 at b = 1 ([10, 2] over GF(9)); b = 0 with g_0 = 2 ([21, 4] over GF(4), [20, 4] over GF(3));
# all-zero columns besides n - 1 ([20, 4] at b = 0, [21, 4], the [20, 4] dual); and the [21, 6] code,
# whose d = 7 reads 9 over the words with u_1 = 0
SLICE_CODES = [
    (5, 2, 12, 7, 2, False, 3),
    (9, 2, 10, 5, 1, False, 5),
    (4, 3, 21, 11, 0, False, 1),
    (3, 4, 20, 12, 0, False, 2),
    (2, 6, 21, 8, 1, False, 3),
    (3, 4, 20, 2, 1, True, 2),
    (2, 6, 21, 6, 1, False, 1),
]


@pytest.mark.parametrize("table_entries", [distance._TABLE_ENTRIES, 0, 64])
@pytest.mark.parametrize("q,m,n,delta,b,dual,zero_columns", SLICE_CODES)
def test_direct_distance_over_the_slice_matches_naive_oracle(q, m, n, delta, b, dual, zero_columns, table_entries, monkeypatch):
    monkeypatch.setattr(distance, "_TABLE_ENTRIES", table_entries)
    t = gf.tower_for(q, m)
    code = bch.bch_code(t, n, delta, b)
    if dual:
        code = bch.dual_code(t, code)
    k = code.dimension
    cols, mult = distance._projective_classes(t, code, k - 1)
    assert mult[~cols.any(axis=0)].tolist() == [zero_columns]  # one class of the all-zero columns, n - 1 among them
    zeros = distance._zero_histogram(t, code, distance.DEFAULT_BUDGET, k - 1)
    assert by_weight(zeros, n).tolist() == pairwise_histogram(t, code, k - 1).tolist() and zeros.sum() == q ** (k - 2)
    if k == 2:  # the slice is the one word g / g_0
        assert np.flatnonzero(by_weight(zeros, n)).tolist() == [np.count_nonzero(code.genpoly.coeffs)]
    res = distance.min_distance_enumerate(t, code, method="direct")
    assert res.d == first_weight(naive_weights(t, code)) and res.enumerated == q**k


def repetition_code(t, n):
    """The [n, 1] code of the all-ones word: every nonzero residue is a root."""
    ds = bch.DefiningSet(t.q, n, mask(n, set(range(1, n))))
    return bch.CyclicCode(defining=ds, genpoly=gf.Polynomial((1,) * n))


# (q, m, n, delta, dual): [14706, 4] (CLM-T1 at delta1: 39 position blocks, the last ragged), [300, 5]
# (one block), [300, 8] (6 blocks and 7 lead combinations), [21, 17] and [21, 1]
GEMM_ORACLE_CODES = [
    (7, 6, 14706, 12599, False),
    (7, 4, 300, 251, False),
    (7, 4, 300, 3, True),
    (2, 6, 21, 8, True),
    (2, 6, 21, 10, False),
]


@pytest.mark.parametrize("q,m,n,delta,dual", GEMM_ORACLE_CODES)
def test_enumerator_matches_pairwise_oracle(q, m, n, delta, dual):
    t = gf.tower_for(q, m)
    code = bch.bch_code(t, n, delta)
    if dual:
        code = bch.dual_code(t, code)
    got = distance._zero_histogram(t, code, distance.DEFAULT_BUDGET)
    full = pairwise_histogram(t, code)
    assert by_weight(got, code.n).tolist() == full.tolist()
    k = code.dimension
    if k >= 2:
        got = distance._zero_histogram(t, code, distance.DEFAULT_BUDGET, k - 1)
        assert by_weight(got, code.n).tolist() == pairwise_histogram(t, code, k - 1).tolist()
    assert distance.min_distance_enumerate(t, code, method="direct").d == first_weight(full)


# the GEMM_ORACLE_CODES at a tiny cap where the slice takes at most a few thousand products: the [300, 8] dual
# would take 7^5 lead combinations of 300 one-class blocks at 64 entries, [300, 5] and [21, 17] seconds at 0
@pytest.mark.parametrize(
    "q,m,n,delta,dual,table_entries",
    [(7, 6, 14706, 12599, False, 0), (7, 6, 14706, 12599, False, 64), (7, 4, 300, 251, False, 64),
     (2, 6, 21, 8, True, 64), (2, 6, 21, 10, False, 0), (2, 6, 21, 10, False, 64)],
)
def test_direct_distance_with_tiny_tables_matches_pairwise_oracle(q, m, n, delta, dual, table_entries, monkeypatch):
    monkeypatch.setattr(distance, "_TABLE_ENTRIES", table_entries)
    t = gf.tower_for(q, m)
    code = bch.bch_code(t, n, delta)
    if dual:
        code = bch.dual_code(t, code)
    assert distance.min_distance_enumerate(t, code, method="direct").d == first_weight(pairwise_histogram(t, code))


def test_direct_route_visits_the_words_with_c_n_minus_1_zero(monkeypatch):
    engine, visited = distance._class_zeros, []

    def counted(t, cols, mult):
        for eq in engine(t, cols, mult):
            visited.append(eq.size)
            yield eq

    monkeypatch.setattr(distance, "_class_zeros", counted)
    t = gf.tower_for(7, 4)
    code = bch.dual_code(t, bch.bch_code(t, 300, 3))  # [300, 8]
    res = distance.min_distance_enumerate(t, code)
    assert (res.d, res.method, res.enumerated) == (228, "direct-enum", 7**8) and sum(visited) == 7**6
    visited.clear()
    distance.weight_enumerator(t, code)  # a distribution still needs every word with c_0 = 1
    assert sum(visited) == 7**7


def test_repetition_code_over_two_ragged_blocks():
    t = gf.tower_for(2, 18)
    n = cosets.family_length(2, 18, cosets.PLUS)  # 87381 positions: two ragged one-hot blocks of 2^16 if counted by position
    code = repetition_code(t, n)
    cols, mult = distance._projective_classes(t, code)
    assert cols.tolist() == [[1]] and mult.tolist() == [n]  # every column is (1): one class of multiplicity n
    got = distance._zero_histogram(t, code, distance.DEFAULT_BUDGET)
    assert by_weight(got, code.n).tolist() == pairwise_histogram(t, code).tolist() == [0] * n + [1]


# (q, m, n, delta, dual, D): the enumerations of verify --all and code-queries with the most repeated columns
PROJECTIVE_CLASS_COUNTS = [
    (7, 6, 14706, 2, True, 2451),  # [14706, 6], CLM-LB1002 at q = 7, m = 6
    (7, 6, 14706, 12599, False, 342),  # [14706, 4], CLM-T1 at delta1
    (5, 6, 2604, 2, True, 651),
    (3, 8, 1640, 2, True, 820),
    (4, 6, 819, 2, True, 273),
    (7, 4, 300, 3, True, 300),  # no column repeats
]


@pytest.mark.parametrize("q,m,n,delta,dual,classes", PROJECTIVE_CLASS_COUNTS)
def test_projective_class_counts(q, m, n, delta, dual, classes):
    t = gf.tower_for(q, m)
    code = bch.bch_code(t, n, delta)
    if dual:
        code = bch.dual_code(t, code)
    cols, mult = distance._projective_classes(t, code)
    assert cols.shape == (code.dimension, classes) and mult.sum() == n


# (q, m, n, delta, dual) at a 512-entry cap: [819, 6] over GF(4) has 273 classes (sort path) in one-hot
# blocks of 8, the last ragged, and 4 lead combinations; [14706, 4] over GF(7) has 342 classes (bincount
# path) one per block; both key their columns in ragged blocks of 512
@pytest.mark.parametrize("q,m,n,delta,dual", [(4, 6, 819, 2, True), (7, 6, 14706, 12599, False)])
def test_weighted_classes_over_tiny_blocks_match_pairwise_oracle(q, m, n, delta, dual, monkeypatch):
    monkeypatch.setattr(distance, "_TABLE_ENTRIES", 512)
    monkeypatch.setattr(distance, "_KEY_BLOCK", 512)
    t = gf.tower_for(q, m)
    code = bch.bch_code(t, n, delta)
    if dual:
        code = bch.dual_code(t, code)
    got = distance._zero_histogram(t, code, distance.DEFAULT_BUDGET)
    assert by_weight(got, code.n).tolist() == pairwise_histogram(t, code).tolist()


def test_class_multiplicity_past_float32_is_exact():
    t = gf.tower_for(2, 1)
    cols = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)  # the three points of the projective line over GF(2)
    mult = np.array([1, 2**24 + 1, 3])  # float32 holds 2^24 + 1 as 2^24
    (eq,) = distance._class_zeros(t, cols, mult)  # left words (1, 0) and (1, 1) against the zero word
    assert eq.ravel().tolist() == [2**24 + 1, 3]
    # over GF(3) the zero right word's zero mass, 2^24 + 9, is odd past 2^24, and each left word takes back the
    # classes where it is nonzero: (1, 0, 1, 1) keeps 2^24 + 1, (1, 1, 2, 0) keeps 4, (1, 2, 0, 2) keeps 3
    t = gf.tower_for(3, 1)
    cols = np.array([[1, 0, 1, 1], [0, 1, 1, 2]], dtype=np.uint8)  # the four points of the projective line over GF(3)
    (eq,) = distance._class_zeros(t, cols, np.array([1, 2**24 + 1, 3, 4]))
    assert eq.ravel().tolist() == [2**24 + 1, 4, 3]


# (q, m, n, delta): one code for each kind of GF(q) table, GF(4) and GF(9) adding digit-wise
ONE_HOT_CODES = [(2, 6, 21, 5), (3, 4, 20, 11), (4, 3, 21, 10), (7, 4, 300, 251), (9, 2, 20, 12)]


@pytest.mark.parametrize("table_entries", [distance._TABLE_ENTRIES, 64])
@pytest.mark.parametrize("q,m,n,delta", ONE_HOT_CODES)
def test_one_hot_without_the_zero_column_matches_pairwise_oracle(q, m, n, delta, table_entries, monkeypatch):
    # the one-hot operands hold q - 1 columns per class: a pair meets where x = c = -y for some c != 0, and a
    # zero x meets a zero y through the right word's zero mass, which the products first take back where x != 0
    monkeypatch.setattr(distance, "_TABLE_ENTRIES", table_entries)
    t = gf.tower_for(q, m)
    code = bch.bch_code(t, n, delta)
    got = distance._zero_histogram(t, code, distance.DEFAULT_BUDGET)
    assert by_weight(got, n).tolist() == pairwise_histogram(t, code).tolist()
    k = code.dimension
    got = distance._zero_histogram(t, code, distance.DEFAULT_BUDGET, k - 1)
    assert by_weight(got, n).tolist() == pairwise_histogram(t, code, k - 1).tolist()


def test_every_default_grid_enumeration_matches_pairwise_oracle(monkeypatch):
    kernel, min_distance, seen, direct = distance._zero_histogram, distance.min_distance_enumerate, [], []

    def checked(t, code, budget, rows=None):  # a full histogram for a distribution, the slice's for a direct distance
        got = kernel(t, code, budget, rows)
        assert by_weight(got, code.n).tolist() == pairwise_histogram(t, code, rows).tolist(), (t.q, code.n, code.dimension)
        seen.append(t.q**code.dimension)
        return got

    def checked_distance(t, code, **kwargs):
        res = min_distance(t, code, **kwargs)
        if res.method == "direct-enum":
            assert res.d == first_weight(pairwise_histogram(t, code)), (t.q, code.n, code.dimension)
            direct.append(res.d)
        return res

    monkeypatch.setattr(distance, "_zero_histogram", checked)
    monkeypatch.setattr(distance, "min_distance_enumerate", checked_distance)
    verify.verify_all()
    assert len(seen) == 34 and len(direct) == 32 and max(seen) == 7**8  # the largest is the [300, 8] dual over GF(7)


def test_enumerator_on_duals_matches_naive_oracle():
    for q, m, n, delta in [(3, 4, 20, 2), (9, 2, 20, 3), (4, 3, 21, 3)]:
        t = gf.tower_for(q, m)
        dual = bch.dual_code(t, bch.bch_code(t, n, delta))
        assert list(distance.weight_enumerator(t, dual).counts) == naive_weights(t, dual)


def test_macwilliams_classic_pair():
    w = distance.WeightEnumerator(3, (1, 0, 0, 1))  # GF(2) repetition, n = 3
    tw = distance.macwilliams_transform(w, 2, k_dual=2)
    assert tw.counts == (1, 0, 3, 0)  # even-weight code
    back = distance.macwilliams_transform(tw, 2, k_dual=1)
    assert back.counts == w.counts  # involution


def test_macwilliams_involution_on_real_codes():
    for q, m, n, delta in [(2, 6, 21, 9), (3, 4, 20, 11), (5, 4, 104, 79)]:
        t = gf.tower_for(q, m)
        code = bch.bch_code(t, n, delta)
        w = distance.weight_enumerator(t, code)
        dual_w = distance.macwilliams_transform(w, q, k_dual=n - code.dimension)
        back = distance.macwilliams_transform(dual_w, q, k_dual=code.dimension)
        assert back.counts == w.counts


def test_macwilliams_matches_direct_dual_enumeration():
    for q, m, n, delta in [(2, 6, 21, 9), (3, 4, 20, 5)]:
        t = gf.tower_for(q, m)
        code = bch.bch_code(t, n, delta)
        dual = bch.dual_code(t, code)
        w_direct = distance.weight_enumerator(t, dual, budget=2 * 10**6)
        w_transform = distance.macwilliams_transform(distance.weight_enumerator(t, code), q, k_dual=dual.dimension)
        assert w_direct.counts == w_transform.counts


@pytest.mark.parametrize("q,m,n,delta", [(2, 6, 21, 9), (3, 4, 20, 11), (9, 2, 10, 4), (4, 4, 51, 35)])
def test_macwilliams_recurrence_matches_triple_sum(q, m, n, delta):
    t = gf.tower_for(q, m)
    code = bch.bch_code(t, n, delta)
    w = distance.weight_enumerator(t, code)
    got = distance.macwilliams_transform(w, q, k_dual=n - code.dimension)
    assert list(got.counts) == naive_macwilliams(list(w.counts), q)


SMALL_TOWERS = [(2, 4, 15), (2, 6, 21), (3, 4, 20), (3, 4, 16), (4, 3, 21), (5, 2, 12), (7, 2, 8), (8, 2, 9), (9, 2, 10)]  # q^min(k, n-k) <= 4^10


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_TOWERS), st.data())
def test_macwilliams_involution_property(tower, data):
    q, m, n = tower
    t = gf.tower_for(q, m)
    code = bch.bch_code(t, n, data.draw(st.integers(2, n), label="delta"))
    side = code if code.dimension <= n - code.dimension else bch.dual_code(t, code)
    w = distance.weight_enumerator(t, side)
    other = distance.macwilliams_transform(w, q, k_dual=n - side.dimension)
    assert other.counts[0] == 1 and sum(other.counts) == q ** (n - side.dimension)
    assert distance.macwilliams_transform(other, q, k_dual=side.dimension).counts == w.counts


def generator_matrix(t, code):
    """The k x n rows [g_0^-1 g; x g; ...; x^(k-1) g] whose combinations with u_0 = 1 the engine visits."""
    g = np.zeros(code.n, dtype=np.int64)
    g[: len(code.genpoly.coeffs)] = code.genpoly.coeffs
    rows = [np.roll(g, j) for j in range(code.dimension)]
    rows[0] = t.q_mul[t.q_inv[g[0]], g]
    return np.array(rows)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_TOWERS), st.data())
def test_projective_classes_property(tower, data):
    q, m, n = tower
    t = gf.tower_for(q, m)
    code = bch.bch_code(t, n, data.draw(st.integers(2, n), label="delta"))
    side = code if code.dimension <= n - code.dimension else bch.dual_code(t, code)
    if q**side.dimension > 3**7:  # keep the scalar oracle quick
        side = bch.dual_code(t, bch.bch_code(t, n, 2))
    cols, mult = distance._projective_classes(t, side)
    assert mult.sum() == n and (mult > 0).all()
    assert len(set(map(tuple, cols.T.tolist()))) == cols.shape[1]
    assert all(next(x for x in col if x) == 1 for col in cols.T.tolist())  # first nonzero entry 1
    seen = [0] * cols.shape[1]
    index = {c: i for i, c in enumerate(map(tuple, cols.T.tolist()))}
    for col in generator_matrix(t, side).T:
        multiples = {tuple(int(t.q_mul[s, x]) for x in col) for s in range(1, q)}  # col times GF(q)*
        (hit,) = multiples & index.keys()
        seen[index[hit]] += 1
    assert seen == mult.tolist()
    assert list(distance.weight_enumerator(t, side).counts) == naive_weights(t, side)


def test_macwilliams_rejects_garbage():
    with pytest.raises(NonIntegerTransform):
        distance.macwilliams_transform(distance.WeightEnumerator(3, (1, 1, 0, 1)), 2, k_dual=2)
    with pytest.raises(NonIntegerTransform):
        distance.macwilliams_transform(distance.WeightEnumerator(3, (0, 0, 0, 2)), 2, k_dual=2)


def test_budget_and_fallbacks():
    t = gf.tower_for(3, 4)
    code = bch.bch_code(t, 20, 2)  # k = 16, dual dimension 4
    with pytest.raises(BudgetExceeded):
        distance.weight_enumerator(t, code, budget=100)
    res = distance.min_distance_enumerate(t, code, budget=50)  # under 3^4, both routes blocked
    assert res.method == "bound-only" and res.d is None and res.enumerated == 0
    # dual route: 3^16 over budget but 3^4 fits
    res2 = distance.min_distance_enumerate(t, code, budget=10**4)
    assert res2.method == "dual-macwilliams" and res2.d == 2
    # the two routes agree on a code where both are cheap
    t21 = gf.tower_for(2, 6)
    code21 = bch.bch_code(t21, 21, 9)
    direct = distance.min_distance_enumerate(t21, code21, method="direct")
    viadual = distance.min_distance_enumerate(t21, code21, method="dual-macwilliams")
    assert direct.d == viadual.d == 9


@pytest.mark.parametrize(
    "k,budget,method,route",
    [
        (4, 81, "auto", "direct-enum"),  # 3^4 fits
        (16, 81, "auto", "dual-macwilliams"),  # 3^16 does not, 3^(20-16) does
        (10, 3**10 - 1, "auto", None),  # k = n - k = 10, one codeword over on both sides
        (4, 81, "dual-macwilliams", None),  # forced route: 3^16 over budget
        (4, 3**16, "dual-macwilliams", "dual-macwilliams"),
        (16, 81, "direct", None),
        (4, 81, "bound-only", None),
    ],
)
def test_route_policy(k, budget, method, route):
    assert distance.route(3, 20, k, budget, method) == route


def test_effective_budget(monkeypatch):
    monkeypatch.delenv(distance.BUDGET_ENV_VAR, raising=False)
    assert distance.effective_budget() == distance.DEFAULT_BUDGET
    assert distance.effective_budget(123) == 123
    monkeypatch.setenv(distance.BUDGET_ENV_VAR, "5000")
    assert distance.effective_budget() == 5000
    assert distance.effective_budget(7) == 7
    assert distance.effective_budget(0) == 0


@pytest.mark.parametrize("env,budget", [("abc", None), ("1e6", None), ("-5", None), ("5000", -1), (None, -1)])
def test_effective_budget_rejects_bad_values(monkeypatch, env, budget):
    if env is None:
        monkeypatch.delenv(distance.BUDGET_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(distance.BUDGET_ENV_VAR, env)
    with pytest.raises(OutOfRange):
        distance.effective_budget(budget)


def test_dual_bound_closed_form_examples():
    assert distance.dual_bound_closed_form(3, 4, 2) == 11
    assert distance.dual_bound_closed_form(2, 6, 2) == 6
    assert distance.dual_bound_closed_form(3, 4, 12) == 2
    assert distance.dual_bound_closed_form(3, 4, 11) == 3  # bracket t=2 end: (q^2-1)/4+1
    assert distance.dual_bound_closed_form(2, 6, 21) == 2
    with pytest.raises(DeltaOutOfRange):
        distance.dual_bound_closed_form(3, 4, 1)
    with pytest.raises(FamilyConstraint):
        distance.dual_bound_closed_form(3, 4, 2, family="minus")
    with pytest.raises(FamilyConstraint):
        distance.dual_bound_closed_form(3, 5, 2)


def test_dual_bound_soundness_small_sweeps():
    # T(delta) nests, so equal |T| means an identical dual; cache by size
    for q, m in [(2, 6), (3, 4)]:
        n = (q**m - 1) // (q + 1)
        t = gf.tower_for(q, m)
        cache = {}
        for delta in range(2, n + 1):
            code = bch.bch_code(t, n, delta)
            dual = bch.dual_code(t, code)
            key = dual.defining.size
            if key not in cache:
                cache[key] = (distance.min_distance_enumerate(t, dual).d, bch.bch_bound(dual.defining))
            d, run_bound = cache[key]
            bound = distance.dual_bound_closed_form(q, m, delta)
            assert bound <= run_bound <= d, (q, m, delta, bound, run_bound, d)
