"""Field-tower and polynomial arithmetic tests.

Expected values are either unique by construction (the single primitive
quadratic over GF(2)), verified by independent loops (repeated
multiplication, closure checks), or checked structurally (divisibility,
degrees, Frobenius stability).
"""

import functools
import itertools
import math
import random
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetforge import bch, cosets, gf
from cosetforge.errors import (
    CoefficientEscape,
    FamilyConstraint,
    ModByZero,
    NotADivisor,
    NotPrime,
    OrderTooLarge,
    OutOfRange,
)


def test_build_tower_gf4_modulus_unique():
    t = gf.build_tower(2, 1, 2)
    assert t.modulus == (1, 1, 1)  # x^2 + x + 1, the only primitive quadratic
    assert t.order == 4


def test_build_tower_gf81_alpha_order():
    t = gf.build_tower(3, 1, 4)
    assert t.order == 81
    # oracle: multiply alpha by itself until it cycles back to 1
    x = t.alpha
    order = 1
    while x != 1:
        x = t.mul(x, t.alpha)
        order += 1
    assert order == 80
    assert t.element_order(t.alpha) == 80


def test_build_tower_gf4_in_gf256_subfield_closure():
    t = gf.build_tower(2, 2, 4)
    assert t.subfield_gen_exp == 255 // 3 == 85
    sub = {0} | {t.pow(t.alpha, 85 * j) for j in range(3)}
    assert len(sub) == 4
    for a in sub:
        for b in sub:
            assert t.add(a, b) in sub
            assert t.mul(a, b) in sub
    assert set(t.subfield_to_tower) == sub


def test_build_tower_rejects_bad_args():
    with pytest.raises(NotPrime):
        gf.build_tower(4, 1, 2)
    with pytest.raises(NotPrime):
        gf.build_tower(6, 1, 2)
    with pytest.raises(OrderTooLarge):
        gf.build_tower(2, 1, 27)
    with pytest.raises(OrderTooLarge, match=r"3\^1000000000000 exceeds"):
        gf.build_tower(3, 1, 10**12)  # rejected from the exponent, without forming 3^(10^12)
    with pytest.raises(OutOfRange):
        gf.build_tower(2, 0, 3)


def test_prime_power():
    assert gf.prime_power(8) == (2, 3)
    assert gf.prime_power(9) == (3, 2)
    assert gf.prime_power(7) == (7, 1)
    with pytest.raises(NotPrime):
        gf.prime_power(6)
    with pytest.raises(NotPrime):
        gf.prime_power(1)


def test_prime_power_of_a_large_prime_is_quick():
    start = time.perf_counter()
    assert gf.prime_power(1_000_003) == (1_000_003, 1)
    assert gf.prime_power(9_999_991) == (9_999_991, 1)
    assert gf.prime_power(1_000_003**2) == (1_000_003, 2)
    assert time.perf_counter() - start < 1  # trial division by d <= sqrt(q), not a primality test of every p < q
    for q in (2 * 1_000_003, 999_983 * 1_000_003, 3 * 2**20):
        with pytest.raises(NotPrime):
            gf.prime_power(q)


def test_subfield_guard():
    with pytest.raises(OrderTooLarge, match="subfield guard"):
        gf.build_tower(8191, 1, 1)
    with pytest.raises(OrderTooLarge, match="q = 8192"):
        gf.build_tower(2, 13, 1)  # 2^13 is under ORDER_GUARD, but its q x q tables are not built


@pytest.mark.parametrize("pem", [(2, 10, 1), (3, 6, 1), (31, 2, 1)])
def test_subfield_tables_peak_near_twelve_bytes_per_entry(pem):
    # two int32 q x q tables and at most one q x q int32 temporary; int64 temporaries would peak past 24 bytes per entry
    tracemalloc.start()
    try:
        t = gf.build_tower.__wrapped__(*pem)  # uncached, so the build happens here
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.q_add.dtype == t.q_mul.dtype == np.int32
    assert peak < 13 * t.q**2


def test_field_arithmetic_examples():
    t4 = gf.build_tower(2, 2, 1)
    a = t4.alpha
    assert t4.mul(a, t4.pow(a, 2)) == 1  # alpha has order 3 in GF(4)

    t9 = gf.build_tower(3, 1, 2)
    assert t9.inv(t9.alpha) == t9.pow(t9.alpha, 7)  # order-8 group

    t81 = gf.build_tower(3, 1, 4)
    x = t81.pow(t81.alpha, 40)
    assert t81.mul(x, x) == 1  # alpha^80 = 1, by the repeated-multiplication oracle above


def test_addition_characteristic():
    t = gf.build_tower(3, 1, 2)
    for a in range(t.order):
        assert t.add(t.add(a, a), a) == 0  # char 3
        assert t.sub(a, a) == 0
    t2 = gf.build_tower(2, 1, 4)
    for a in range(t2.order):
        assert t2.add(a, a) == 0


def test_inverse_of_zero_raises():
    t = gf.build_tower(2, 1, 3)
    with pytest.raises(ZeroDivisionError):
        t.inv(0)


def test_poly_examples():
    t2 = gf.build_tower(2, 1, 2)
    x_plus_1 = gf.Polynomial((1, 1))
    assert gf.poly_lcm(t2, x_plus_1, x_plus_1).coeffs.tolist() == [1, 1]
    x2_plus_1 = gf.Polynomial((1, 0, 1))
    assert gf.poly_gcd(t2, x2_plus_1, x_plus_1).coeffs.tolist() == [1, 1]

    t3 = gf.build_tower(3, 1, 2)
    prod = gf.poly_mul(t3, gf.Polynomial((1, 1)), gf.Polynomial((2, 1)))
    assert prod.coeffs.tolist() == [2, 0, 1]  # (x+1)(x+2) = x^2 + 2 over GF(3)


def test_poly_errors():
    t = gf.build_tower(2, 1, 2)
    f = gf.Polynomial((1, 1))
    with pytest.raises(ModByZero):
        gf.poly_divmod(t, f, gf.Polynomial(()))


def test_poly_eval_and_degree():
    t = gf.build_tower(3, 1, 2)
    f = gf.Polynomial((2, 0, 1))  # x^2 + 2 over GF(3), evaluated in GF(9)
    assert gf.lift_to_tower(t, f) == (2, 0, 1)  # GF(3) inside GF(9) is 0, 1, 2
    assert gf.poly_eval(t, f, 1) == 0
    assert gf.poly_eval(t, f, 0) == 2
    assert gf.poly_eval(t, f, t.alpha) == t.add(t.pow(t.alpha, 2), 2) != 0  # alpha has degree 2 over GF(3)
    t16 = gf.build_tower(2, 2, 2)  # GF(4) < GF(16)
    g = gf.Polynomial((2, 1))  # x + omega, omega the GF(4) index 2
    omega = t16.embed_subfield(2)
    assert gf.lift_to_tower(t16, g) == (omega, 1)
    assert gf.poly_eval(t16, g, omega) == 0  # -omega = omega in characteristic 2
    assert all(type(c) is int for c in gf.lift_to_tower(t16, g))
    assert f.degree == 2
    assert gf.Polynomial(()).degree == gf.NEG_INF
    assert gf.Polynomial((0, 0)).is_zero()


def stored_once(f):
    """Whether f's coefficients are the read-only uint16 view of its one stored bytes field."""
    c = f.coeffs
    return c.dtype == np.uint16 and not c.flags.writeable and c.base is f.data


def test_polynomial_is_its_uint16_coefficients():
    made = [gf.Polynomial((2, 0, 1, 0, 0)), gf.Polynomial([2, 0, 1]), gf.Polynomial(np.array([2, 0, 1, 0], dtype=np.int32))]
    assert len(set(made)) == 1 and len({hash(f) for f in made}) == 1
    for f in made:
        assert stored_once(f) and f.coeffs.tolist() == [2, 0, 1] and f.degree == 2 and str(f) == "x^2 + 2"
    assert gf.Polynomial(()) == gf.Polynomial(np.zeros(5, dtype=np.int32)) != gf.Polynomial((0, 1))
    assert [f.is_zero() for f in (gf.Polynomial([0, 0]), gf.Polynomial([0, 1]))] == [True, False]
    source = np.array([1, 1], dtype=np.uint16)
    f = gf.Polynomial(source)
    source[0] = 0  # the polynomial keeps its own copy
    assert f.coeffs.tolist() == [1, 1]
    with pytest.raises(ValueError):
        f.coeffs[0] = 0


def test_xn_minus_one_over_memory_per_coefficient():
    # the quotient is built and kept as uint16 (a few bytes per coefficient), not as a Python int per term
    t, n = gf.tower_for(2, 20), (2**20 - 1) // 3
    tracemalloc.start()
    try:
        g = gf.xn_minus_one_over(t, n, gf.Polynomial((1, 1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n, peak / n
    assert g == gf.Polynomial(np.ones(n, dtype=np.uint16))  # 1 + x + ... + x^(n-1)


def test_minimal_polynomial_examples():
    t21 = gf.build_tower(2, 1, 6)
    mp0 = gf.minimal_polynomial(t21, 21, 0)
    assert mp0.coeffs.tolist() == [1, 1]  # x - 1 = x + 1 over GF(2)

    mp1 = gf.minimal_polynomial(t21, 21, 1)
    assert mp1.degree == cosets.cyclotomic_coset(2, 21, 1).size == 6

    t20 = gf.build_tower(3, 1, 4)
    mp = gf.minimal_polynomial(t20, 20, 1)
    assert mp.degree == 4
    _, rem = gf.poly_divmod(t20, gf.xn_minus_one(t20, 20), mp)
    assert rem.is_zero()


def test_minimal_polynomial_rejects_bad_n():
    t = gf.build_tower(2, 1, 6)
    with pytest.raises(NotADivisor):
        gf.minimal_polynomial(t, 10, 1)  # 10 does not divide 63


def test_project_subfield_escape():
    t = gf.build_tower(2, 2, 2)  # GF(4) inside GF(16)
    outside = t.alpha  # alpha generates GF(16)*, not in GF(4)
    with pytest.raises(CoefficientEscape):
        t.project_subfield(outside)


TOWERS = [(2, 1, 6, 21), (3, 1, 4, 20), (2, 2, 4, 85), (2, 2, 4, 51)]


@pytest.mark.parametrize("p,e,m,n", TOWERS)
def test_minimal_polynomial_invariants(p, e, m, n):
    t = gf.build_tower(p, e, m)
    xn1 = gf.xn_minus_one(t, n)
    product = gf.Polynomial((1,))
    for lead in cosets.coset_leaders(t.q, n):
        mp = gf.minimal_polynomial(t, n, lead)
        assert mp.degree == cosets.cyclotomic_coset(t.q, n, lead).size
        assert mp.coeffs[-1] == 1  # monic
        _, rem = gf.poly_divmod(t, xn1, mp)
        assert rem.is_zero()
        # Frobenius stability: coefficient-wise c -> c^q fixes the polynomial
        frob = [t.q_pow(c, t.q) for c in mp.coeffs.tolist()]
        assert frob == mp.coeffs.tolist()
        product = gf.poly_mul(t, product, mp)
    assert product == xn1


@pytest.mark.parametrize("p,e,m,n", TOWERS)
def test_minimal_polynomial_roots(p, e, m, n):
    t = gf.build_tower(p, e, m)
    beta_exp = (t.order - 1) // n
    for i in (0, 1, min(5, n - 1)):
        mp = gf.minimal_polynomial(t, n, i)
        coset = cosets.cyclotomic_coset(t.q, n, i)
        roots = {j for j in range(n) if gf.poly_eval(t, mp, t.pow(t.alpha, beta_exp * j)) == 0}
        assert roots == set(coset.elements)


def test_tower_determinism():
    a = gf.build_tower.__wrapped__(2, 1, 4)
    b = gf.build_tower.__wrapped__(2, 1, 4)
    assert a.modulus == b.modulus == (1, 1, 0, 0, 1)  # x^4 + x + 1


def _first_primitive_by_order(p, d):
    """Oracle: the first candidate in search order on which x has order p^d - 1,
    the order found by multiplying digit vectors by x until they return to 1."""
    one = [1] + [0] * (d - 1)
    for low in range(1, p**d):
        if low % p == 0:
            continue
        mod = [low // p**i % p for i in range(d)]
        digits, order = one, 0
        while True:
            carry, digits = digits[-1], [0] + digits[:-1]
            digits = [(c - carry * f) % p for c, f in zip(digits, mod)]
            order += 1
            if digits == one or order == p**d:
                break
        if order == p**d - 1:
            return tuple(mod) + (1,)
    raise AssertionError("no primitive candidate")


@pytest.mark.parametrize("p,d", [(p, d) for p, top in ((2, 10), (3, 6), (5, 4), (7, 3), (11, 2), (13, 2)) for d in range(1, top + 1)])
def test_smallest_primitive_modulus_matches_order_oracle(p, d):
    # at (3, 2) the first candidate x^2 + 1 is irreducible but x has order 4 in
    # it, so a search that only checks x^(p^d-1) = 1 picks the wrong modulus
    assert gf._smallest_primitive_modulus(p, d) == _first_primitive_by_order(p, d)


@functools.lru_cache(maxsize=None)
def _sequential_tower(p, e, m):
    """Reference tower: step alpha^j -> alpha^(j+1) by multiplying digit vectors
    by x one at a time, with digit-wise sums, negations and GF(p) scalings, and
    log/antilog tables over the whole top field for the products."""
    d = e * m
    order, q = p**d, p**e
    modulus = gf._smallest_primitive_modulus(p, d)

    def to_digits(v):
        return [v // p**i % p for i in range(d)]

    def from_digits(ds):
        return sum(c * p**i for i, c in enumerate(ds))

    antilog, log = [], {}
    digits = [1] + [0] * (d - 1)
    for j in range(order - 1):
        val = from_digits(digits)
        antilog.append(val)
        log[val] = j
        carry, digits = digits[-1], [0] + digits[:-1]
        digits = [(c - carry * r) % p for c, r in zip(digits, modulus)]

    def add(a, b):
        return a ^ b if p == 2 else from_digits([(x + y) % p for x, y in zip(to_digits(a), to_digits(b))])

    def neg(a):
        return from_digits([-c % p for c in to_digits(a)])

    def mul(a, b):
        return 0 if a == 0 or b == 0 else antilog[(log[a] + log[b]) % (order - 1)]

    g = (order - 1) // (q - 1)
    embed = []
    for idx in range(q):
        acc = 0
        for i in range(e):
            c = idx // p**i % p
            acc = add(acc, from_digits([c * x % p for x in to_digits(antilog[g * i])]))
        embed.append(acc)
    index = {v: i for i, v in enumerate(embed)}
    tables = {
        "subfield_to_tower": tuple(embed),
        "tower_to_subfield": index,
        "q_add": [[index[add(a, b)] for b in embed] for a in embed],
        "q_mul": [[index[mul(a, b)] for b in embed] for a in embed],
        "q_inv": [0] + [index[antilog[-log[a] % (order - 1)]] for a in embed[1:]],
        "q_neg": [index[neg(a)] for a in embed],
    }
    return SimpleNamespace(antilog=antilog, log=log, add=add, neg=neg, mul=mul, tables=tables)


# p in {2, 3, 5, 7} x e in {1, 2, 3}; three towers of order >= 2^16
DIFF_TOWERS = [
    (2, 1, 16), (2, 2, 3), (2, 3, 4),
    (3, 1, 4), (3, 2, 3), (3, 3, 2),
    (5, 1, 7), (5, 2, 2), (5, 3, 1),
    (7, 1, 6), (7, 2, 2), (7, 3, 1),
]  # fmt: skip


@pytest.mark.parametrize("base", [None, 5])  # the powers checked are of alpha, or of alpha^5
@pytest.mark.parametrize("p,e,m", DIFF_TOWERS)
def test_tables_match_sequential_build(p, e, m, base):
    t = gf.build_tower.__wrapped__(p, e, m)
    ref = _sequential_tower(p, e, m)
    for name, want in ref.tables.items():
        got = getattr(t, name)
        if isinstance(got, np.ndarray):
            assert got.dtype == np.int32 and got.tolist() == want, name
        else:
            assert got == want, name
    group = t.order - 1
    k = 1 if base is None else base
    b = t.alpha if base is None else t.pow(t.alpha, base)
    assert b == ref.antilog[k] and t.element_order(b) == group // math.gcd(group, k)
    rng = random.Random(f"{p}-{e}-{m}-{base}")
    for j in range(group) if t.order <= 2**12 else rng.sample(range(group), 400):
        assert t.pow(b, j) == ref.antilog[k * j % group], j
        assert t.pow(b, -j) == ref.antilog[-k * j % group], j
    for _ in range(200):
        a, b = rng.randrange(1, t.order), rng.randrange(t.order)
        assert t.mul(a, b) == t.mul(b, a) == ref.mul(a, b)
        assert t.mul(0, a) == 0
        assert t.inv(a) == ref.antilog[-ref.log[a] % group]
        assert t.element_order(a) == group // math.gcd(group, ref.log[a])


def _scalar_minimal_polynomial(ref, q, n, i):
    """prod(x - beta^s) over the coset of i, one scalar sum and product per coefficient touched."""
    group = len(ref.antilog)
    poly = [1]
    for s in cosets.cyclotomic_coset(q, n, i).elements:
        root = ref.antilog[group // n * s % group]
        nxt = [0] * (len(poly) + 1)
        for k, c in enumerate(poly):
            nxt[k + 1] = ref.add(nxt[k + 1], c)
            nxt[k] = ref.add(nxt[k], ref.neg(ref.mul(c, root)))
        poly = nxt
    return tuple(ref.tables["tower_to_subfield"][c] for c in poly)


@pytest.mark.parametrize("p,e,m", DIFF_TOWERS)
def test_minimal_polynomial_matches_scalar_expansion(p, e, m):
    t = gf.build_tower(p, e, m)
    ref = _sequential_tower(p, e, m)
    lengths = []
    for family in cosets.FAMILIES:
        try:
            lengths.append(cosets.family_length(t.q, m, family))
        except FamilyConstraint:
            pass
    assert lengths
    for n in lengths:
        for lead in cosets.coset_leaders(t.q, n):
            assert tuple(gf.minimal_polynomial(t, n, lead).coeffs.tolist()) == _scalar_minimal_polynomial(ref, t.q, n, lead), (n, lead)


def test_tower_at_the_guard_takes_under_1_mb():
    tracemalloc.start()
    try:
        t = gf.build_tower.__wrapped__(2, 1, 26)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.order == 2**26 and t.element_order(t.alpha) == 2**26 - 1
    assert peak < 2**20


AXIOM_TOWERS = [(2, 1, 4), (2, 2, 2), (2, 3, 2), (3, 1, 3), (3, 2, 2), (5, 1, 2), (7, 1, 2)]


def _table_field(t):
    """GF(q) arithmetic read straight off the q x q tables."""
    return SimpleNamespace(
        add=lambda a, b: int(t.q_add[a, b]),
        sub=lambda a, b: int(t.q_add[a, t.q_neg[b]]),
        mul=lambda a, b: int(t.q_mul[a, b]),
        inv=lambda a: int(t.q_inv[a]),
    )


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(AXIOM_TOWERS), st.data())
def test_field_axioms_property(pem, data):
    t = gf.build_tower(*pem)
    for name, F, size in (("top", t, t.order), ("GF(q)", _table_field(t), t.q)):
        a, b, c = (data.draw(st.integers(0, size - 1), label=f"{name} operand") for _ in range(3))
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, b) == F.add(b, a) and F.mul(a, b) == F.mul(b, a)
        assert F.add(a, F.sub(b, a)) == b
        if a:
            assert F.mul(a, F.inv(a)) == 1
    x = data.draw(st.integers(0, t.order - 1), label="top element")
    assert t.add(x, t.neg(x)) == 0
    i = data.draw(st.integers(0, t.q - 1), label="subfield index")
    assert t.q_add[i, t.q_neg[i]] == 0
    # GF(p) sits in GF(q) as the indices 0..p-1, with ordinary arithmetic mod p
    F = _table_field(t)
    a, b = data.draw(st.integers(0, t.p - 1)), data.draw(st.integers(0, t.p - 1))
    assert (F.add(a, b), F.sub(a, b), F.mul(a, b)) == ((a + b) % t.p, (a - b) % t.p, a * b % t.p)
    if a:
        assert F.inv(a) == pow(a, -1, t.p)


def scalar_divmod(t, f, g):
    """Schoolbook division with one scalar sub and mul per remainder coefficient touched."""
    F = _table_field(t)
    rem = f.coeffs.tolist()
    dg = len(g.coeffs) - 1
    lead_inv = F.inv(g.coeffs[-1])
    if len(rem) <= dg:
        return gf.Polynomial(()), gf.Polynomial(tuple(rem))
    quot = [0] * (len(rem) - dg)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        factor = F.mul(c, lead_inv)
        quot[i - dg] = factor
        for j in range(dg + 1):
            rem[i - dg + j] = F.sub(rem[i - dg + j], F.mul(factor, g.coeffs[j]))
    return gf.Polynomial(tuple(quot)), gf.Polynomial(tuple(rem))


def scalar_mul(t, f, g):
    """Schoolbook product with one scalar add and mul per pair of coefficients."""
    F = _table_field(t)
    out = [0] * (len(f.coeffs) + len(g.coeffs) - 1) if len(f.coeffs) and len(g.coeffs) else []
    for i, a in enumerate(f.coeffs.tolist()):
        for j, b in enumerate(g.coeffs.tolist()):
            out[i + j] = F.add(out[i + j], F.mul(a, b))
    return gf.Polynomial(tuple(out))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(AXIOM_TOWERS), st.data())
def test_poly_divmod_matches_scalar_loop(pem, data):
    t = gf.build_tower(*pem)
    coeff = st.integers(0, t.q - 1)
    f = gf.Polynomial(tuple(data.draw(st.lists(coeff, max_size=12), label="f")))
    g = gf.Polynomial(tuple(data.draw(st.lists(coeff, min_size=1, max_size=6), label="g")) + (data.draw(st.integers(1, t.q - 1), label="lead"),))
    quot, rem = gf.poly_divmod(t, f, g)
    assert (quot, rem) == scalar_divmod(t, f, g)
    assert all(stored_once(p) for p in (quot, rem))
    assert rem.degree < g.degree


@pytest.mark.parametrize("pem", AXIOM_TOWERS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_poly_mul_matches_scalar_loop(pem, data):
    t = gf.build_tower(*pem)
    coeff = st.integers(0, t.q - 1)
    f = gf.Polynomial(tuple(data.draw(st.lists(coeff, max_size=12), label="f")))
    g = gf.Polynomial(tuple(data.draw(st.lists(coeff, max_size=12), label="g")))
    prod = gf.poly_mul(t, f, g)
    assert prod == scalar_mul(t, f, g) == gf.poly_mul(t, g, f)
    assert stored_once(prod)


@pytest.mark.parametrize("q,m,n", [(2, 6, 21), (3, 4, 20), (3, 4, 40), (4, 4, 51), (5, 4, 104), (4, 3, 63), (8, 2, 21), (8, 2, 63), (9, 2, 40)])
def test_poly_divmod_matches_scalar_loop_on_complement_route(q, m, n):
    # every distinct defining set (b in {0, 1}, every delta) whose generator divides x^n - 1 by the complement
    t = gf.tower_for(q, m)
    xn1 = gf.xn_minus_one(t, n)
    sets = {ds.bits: ds for b in (0, 1) for delta in range(2, n + 1) for ds in [bch.defining_set(q, n, delta, b)]}
    routed = 0
    for ds in sets.values():
        if ds.size <= n - ds.size:
            continue
        h = bch._minpoly_product(t, n, bch.DefiningSet(q, n, ~ds.mask).source_cosets)
        quot, rem = gf.poly_divmod(t, xn1, h)
        assert (quot, rem) == scalar_divmod(t, xn1, h)
        assert all(stored_once(p) for p in (quot, rem))
        assert bch.generator_polynomial(t, ds) == quot
        routed += 1
    assert routed > 0


def _narrow_sense_complements(q, m, family, ks):
    """{k: h} for the narrow-sense codes of the family whose complement side h has degree k in ks.

    The complement of T = C_1 | ... | C_(delta-1) is C_0 and every coset with leader >= delta, so h
    grows from x - 1 by one minimal polynomial per leader, from the top leader down.
    """
    n = cosets.family_length(q, m, family)
    t = gf.tower_for(q, m)
    h, out = gf.Polynomial((t.q_neg.item(1), 1)), {}
    for lead in np.unique(cosets.leader_map(q, n))[:0:-1].tolist():
        if h.degree in ks:
            out[h.degree] = h
        if h.degree >= max(ks):
            break
        h = gf.poly_mul(t, h, gf.minimal_polynomial(t, n, lead))
    return t, n, out


@pytest.mark.parametrize(
    "q,m,family,sizes,count",
    [
        (8, 4, "minus", range(1, 293), 75),  # n = 585 over GF(8), e = 3: all 75 sizes with k < n - k (blocks of at most 46 terms)
        (7, 6, "plus", (1, 4, 10, 13, 19, 20, 26, 29, 32, 38, 643, 7302), 12),  # n = 14706: the ten smallest of 1269 sizes, then up to n/2
    ],
)
def test_xn_minus_one_over_matches_poly_divmod(q, m, family, sizes, count):
    t, n, hs = _narrow_sense_complements(q, m, family, set(sizes))
    assert len(hs) == count
    xn1 = gf.xn_minus_one(t, n)
    for k, h in hs.items():
        quot, rem = gf.poly_divmod(t, xn1, h)
        assert rem.is_zero()
        assert gf.xn_minus_one_over(t, n, h) == quot, k


@pytest.mark.parametrize("k", [3, 40])
def test_xn_minus_one_over_at_a_large_prime(k):
    # over GF(2053) the sums stay below k * 2052^2: under 2^24 at k = 3 (float32); at k = 40 they run near
    # 40 * 1026^2 > 2^24, where float32 would round (float64)
    t, n = gf.tower_for(2053, 1), 513
    h = bch._minpoly_product(t, n, cosets.coset_leaders(2053, n)[1 : k + 1])
    assert h.degree == k
    assert (gf.xn_minus_one_over(t, n, h), gf.Polynomial(())) == gf.poly_divmod(t, gf.xn_minus_one(t, n), h)


@pytest.mark.parametrize("q,m,n", [(2, 2, 3), (4, 1, 3), (8, 2, 9), (9, 2, 8), (3, 2, 4)])
def test_xn_minus_one_over_every_divisor_of_a_short_xn_minus_one(q, m, n):
    # every product of minimal polynomials of a subset of the cosets (k = 0 for the empty one), each times every
    # nonzero scalar; at (4, 1, 3), x - 1 fills exactly one block of 3 terms
    t = gf.tower_for(q, m)
    leaders = cosets.coset_leaders(q, n)
    xn1 = gf.xn_minus_one(t, n)
    for size in range(len(leaders) + 1):
        for subset in itertools.combinations(leaders, size):
            h = bch._minpoly_product(t, n, subset)
            for c in range(1, q):
                scaled = gf.Polynomial(t.q_mul[c, h.coeffs])
                assert (gf.xn_minus_one_over(t, n, scaled), gf.Polynomial(())) == gf.poly_divmod(t, xn1, scaled)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(AXIOM_TOWERS), st.data())
def test_xn_minus_one_over_raises_for_a_non_divisor(pem, data):
    t = gf.build_tower(*pem)
    n = data.draw(st.integers(1, 40), label="n")
    coeff = st.integers(0, t.q - 1)
    h = gf.Polynomial(tuple(data.draw(st.lists(coeff, max_size=6), label="h")) + (data.draw(st.integers(1, t.q - 1), label="lead"),))
    quot, rem = gf.poly_divmod(t, gf.xn_minus_one(t, n), h)
    if rem.is_zero():
        assert gf.xn_minus_one_over(t, n, h) == quot
    else:
        with pytest.raises(NotADivisor):
            gf.xn_minus_one_over(t, n, h)


def test_xn_minus_one_over_rejects_non_divisors():
    t = gf.tower_for(2, 6)
    for h in [gf.Polynomial((1, 0, 1)), gf.Polynomial((0, 1)), gf.Polynomial((1,) * 23), gf.Polynomial((1, 1, 0, 1, 1))]:
        with pytest.raises(NotADivisor):
            gf.xn_minus_one_over(t, 21, h)  # (x + 1)^2, x, degree 22 > n, and x^4 + x^3 + x + 1 = (x + 1)^2 (x^2 + x + 1)
    with pytest.raises(ModByZero):
        gf.xn_minus_one_over(t, 21, gf.Polynomial(()))
