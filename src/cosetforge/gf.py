"""Exact arithmetic in the tower GF(p) < GF(q) < GF(q^m), q = p^e.

Elements of the top field are integers in [0, p^(e*m)) whose base-p digits
are the coordinates with respect to the power basis of alpha, the residue
of x modulo the tower modulus.  The modulus is the first primitive
polynomial of its degree in the deterministic search order (coefficient
vector read as a base-p integer, constant term least significant), so
towers are reproducible across runs.  A candidate f is primitive when its
d x d companion matrix C (multiplication by x mod f) has C^(p^d-1) = I and
C^((p^d-1)/r) != I for every prime r dividing p^d - 1; the table build
squares the same matrix.

Multiplication, inversion and powering go through int32 discrete-log tables
keyed by alpha, built by doubling: alpha^L..alpha^(2L-1) are the base-p
digit rows of alpha^0..alpha^(L-1) times the matrix of multiplication by
alpha^L, mod p, in fixed-size row blocks.  Addition is digit-wise mod p in
`FieldTower.add`, the one digit loop.  A GF(p) constant c is the integer c,
so negation is multiplication by p-1.  The subfield GF(q) is the span of
omega = alpha^g with g = (p^(e*m)-1)/(q-1); its elements are re-expressed
as indices in [0, q) over the power basis of omega, which makes prime-field
coefficients look like ordinary integers mod p, and the q x q tables
`q_add`, `q_mul`, `q_inv`, `q_neg` give their arithmetic.

Every polynomial is a GF(q)[x] polynomial of such indices.  `poly_mul` and
`poly_divmod` update a whole row of the result per coefficient of one
operand through those tables; `lift_to_tower` embeds the coefficients in
the top field, where `poly_eval` finds the roots.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import cosets
from .errors import (
    ORDER_GUARD,
    CoefficientEscape,
    ModByZero,
    NotADivisor,
    NotPrime,
    OrderTooLarge,
    OutOfRange,
)


# --------------------------------------------------------------------------
# small helpers over GF(p)
# --------------------------------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _prime_factors(n: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def prime_power(q: int) -> tuple[int, int]:
    """Decompose q = p^e with p prime; raises NotPrime otherwise."""
    if q < 2:
        raise NotPrime(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if not _is_prime(p):
            continue
        if q % p == 0:
            e = 0
            x = q
            while x % p == 0:
                x //= p
                e += 1
            if x != 1:
                raise NotPrime(f"{q} is not a prime power")
            return p, e
    raise NotPrime(f"{q} is not a prime power")


def _companion(p: int, modulus: tuple[int, ...]) -> np.ndarray:
    """float64 d x d matrix of multiplication by x modulo the monic modulus.

    Row i holds the base-p digits of x^(i+1) mod f, so a digit row times the
    matrix is that element times x.
    """
    d = len(modulus) - 1
    step = np.zeros((d, d))
    step[np.arange(d - 1), np.arange(1, d)] = 1
    step[d - 1] = [-c % p for c in modulus[:d]]
    return step


def _x_is_primitive(mod: tuple[int, ...], p: int, group: int, primes: tuple[int, ...]) -> bool:
    # x^e = 1 exactly when the e-th power of its multiplication matrix is I
    step = _companion(p, mod)
    eye = np.eye(len(step))

    def is_one(e: int) -> bool:
        acc, sq = eye, step
        while e:
            if e & 1:
                acc = acc @ sq % p
            sq = sq @ sq % p
            e >>= 1
        return np.array_equal(acc, eye)

    return is_one(group) and not any(is_one(group // r) for r in primes)


def _smallest_primitive_modulus(p: int, d: int) -> tuple[int, ...]:
    group = p**d - 1
    primes = _prime_factors(group)
    for low in range(1, p**d):
        if low % p == 0:
            continue  # constant term 0 means x divides the candidate
        digits = []
        x = low
        for _ in range(d):
            digits.append(x % p)
            x //= p
        mod = tuple(digits) + (1,)
        if _x_is_primitive(mod, p, group, primes):
            return mod
    raise AssertionError("primitive polynomials exist for every degree")


# --------------------------------------------------------------------------
# the tower
# --------------------------------------------------------------------------

_BLOCK_ROWS = 4096  # rows per digit-matrix product in the table build; temporaries stay near 1 MB


def _power_tables(p: int, modulus: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """int32 antilog[j] = alpha^j for j < p^d - 1 and its inverse log (log[0] = -1).

    Filled by doubling: with alpha^0..alpha^(L-1) known, alpha^(L+j) is the
    base-p digit row of alpha^j times the d x d matrix of multiplication by
    alpha^L, mod p; the matrix is then squared.  The float64 products stay
    below d*p^2 and the int32 values below p^d, so both are exact.
    """
    d = len(modulus) - 1
    group = p**d - 1
    place = p ** np.arange(d, dtype=np.int32)
    step = _companion(p, modulus)  # multiplication by alpha^L, here L = 1
    antilog = np.empty(group, dtype=np.int32)
    log = np.full(group + 1, -1, dtype=np.int32)
    antilog[0], log[1] = 1, 0
    known = 1
    while known < group:
        count = min(known, group - known)
        for lo in range(0, count, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, count)
            digits = antilog[lo:hi, None] // place % p
            vals = (digits @ step).astype(np.int32) % p @ place
            antilog[known + lo : known + hi] = vals
            log[vals] = np.arange(known + lo, known + hi, dtype=np.int32)
        step = step @ step % p
        known += count
    return antilog, log


@dataclass(frozen=True, eq=False)
class FieldTower:
    """GF(p) < GF(q = p^e) < GF(q^m), immutable after construction.

    Attributes
    ----------
    modulus : tuple[int, ...]
        Primitive polynomial of degree e*m over GF(p), ascending coefficients.
    order : int
        p**(e*m), the size of the top field.
    subfield_gen_exp : int
        g with alpha^g a generator of GF(q)*, g = (order-1)/(q-1).
    antilog, log : int32 numpy arrays
        antilog[j] = alpha^j for 0 <= j < order-1; log is its inverse
        (log[0] is a -1 sentinel).
    subfield_to_tower, tower_to_subfield
        GF(q) index -> top-field element, and back.
    q_add, q_mul, q_inv, q_neg : int32 numpy arrays
        GF(q) operations on indices; a GF(p) element c is the index c.
    """

    p: int
    e: int
    m: int
    modulus: tuple[int, ...]
    order: int
    q: int
    subfield_gen_exp: int
    antilog: np.ndarray = field(repr=False)
    log: np.ndarray = field(repr=False)
    subfield_to_tower: tuple[int, ...] = field(init=False, repr=False)
    tower_to_subfield: dict = field(init=False, repr=False)
    q_add: np.ndarray = field(init=False, repr=False)
    q_mul: np.ndarray = field(init=False, repr=False)
    q_inv: np.ndarray = field(init=False, repr=False)
    q_neg: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # index sum(c_i p^i) names sum(c_i omega^i); the GF(p) constant c is the integer c
        embed = [0]
        for i in range(self.e):
            w = int(self.antilog[self.subfield_gen_exp * i])
            embed = [self.add(self.mul(c, w), v) for c in range(self.p) for v in embed]
        index = {v: i for i, v in enumerate(embed)}

        def table(values):
            return np.array([index[v] for v in values], dtype=np.int32)

        object.__setattr__(self, "subfield_to_tower", tuple(embed))
        object.__setattr__(self, "tower_to_subfield", index)
        object.__setattr__(self, "q_add", table([self.add(a, b) for a in embed for b in embed]).reshape(self.q, self.q))
        object.__setattr__(self, "q_mul", table([self.mul(a, b) for a in embed for b in embed]).reshape(self.q, self.q))
        object.__setattr__(self, "q_inv", table([0] + [self.inv(a) for a in embed[1:]]))
        object.__setattr__(self, "q_neg", table([self.neg(a) for a in embed]))

    # -- top-field element ops (integers in [0, order)) --------------------

    @property
    def alpha(self) -> int:
        return int(self.antilog[1])

    def add(self, a, b):
        """Digit-wise sum mod p of two elements."""
        if self.p == 2:
            return a ^ b
        p = self.p
        out = 0
        mult = 1
        while mult < self.order:
            out = out + (a % p + b % p) % p * mult
            a, b, mult = a // p, b // p, mult * p
        return out

    def neg(self, a: int) -> int:
        return self.mul(self.p - 1, a)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        g = self.order - 1
        return int(self.antilog[(int(self.log[a]) + int(self.log[b])) % g])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        g = self.order - 1
        return int(self.antilog[(g - int(self.log[a])) % g])

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0
        g = self.order - 1
        return int(self.antilog[int(self.log[a]) * k % g])

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative order")
        g = self.order - 1
        return g // math.gcd(g, int(self.log[a]))

    # -- subfield helpers (indices in [0, q)) -------------------------------

    def embed_subfield(self, idx: int) -> int:
        """GF(q) index -> top-field element."""
        return self.subfield_to_tower[idx]

    def project_subfield(self, value: int) -> int:
        """Top-field element -> GF(q) index; CoefficientEscape if outside GF(q)."""
        try:
            return self.tower_to_subfield[value]
        except KeyError:
            raise CoefficientEscape(f"element {value} lies outside the GF({self.q}) subfield") from None

    def q_pow(self, idx: int, k: int) -> int:
        return self.project_subfield(self.pow(self.embed_subfield(idx), k))


@lru_cache(maxsize=None)
def build_tower(p: int, e: int, m: int) -> FieldTower:
    """Construct the tower GF(p) < GF(p^e) < GF(p^(e*m)) with full tables."""
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if e < 1 or m < 1:
        raise OutOfRange(f"need e >= 1 and m >= 1, got e={e}, m={m}")
    d = e * m
    if d >= ORDER_GUARD.bit_length() or p**d > ORDER_GUARD:  # p^d >= 2^d: a long exponent is over the guard without forming p^d
        raise OrderTooLarge(f"p^(e*m) = {p}^{d} exceeds the guard {ORDER_GUARD}")
    order = p**d
    q = p**e
    modulus = _smallest_primitive_modulus(p, d)
    antilog, log = _power_tables(p, modulus)
    return FieldTower(
        p=p,
        e=e,
        m=m,
        modulus=modulus,
        order=order,
        q=q,
        subfield_gen_exp=(order - 1) // (q - 1),
        antilog=antilog,
        log=log,
    )


_TOWER_LOCK = threading.Lock()  # threads that miss tower_for together build once


@lru_cache(maxsize=None)
def tower_for(q: int, m: int) -> FieldTower:
    """Tower whose subfield is GF(q) and whose top field is GF(q^m)."""
    p, e = prime_power(q)
    with _TOWER_LOCK:
        return build_tower(p, e, m)


# --------------------------------------------------------------------------
# polynomials
# --------------------------------------------------------------------------

NEG_INF = float("-inf")


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial over GF(q); ascending tuple of GF(q) indices.

    Trailing zero coefficients are stripped on construction, so the leading
    coefficient is nonzero unless the polynomial is zero (empty tuple).
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(self.coeffs)
        end = len(c)
        while end and c[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", c[:end])

    @property
    def degree(self):
        """Degree, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                base = "x" if i == 1 else f"x^{i}"
                terms.append(base if c == 1 else f"{c}*{base}")
        return " + ".join(reversed(terms))


def poly_mul(t: FieldTower, f: Polynomial, g: Polynomial) -> Polynomial:
    if f.is_zero() or g.is_zero():
        return Polynomial(())
    if len(f.coeffs) > len(g.coeffs):
        f, g = g, f  # one row per coefficient of the shorter factor
    row = np.array(g.coeffs)
    out = np.zeros(len(f.coeffs) + len(row) - 1, dtype=np.int32)
    for i, a in enumerate(f.coeffs):
        if a:
            out[i : i + len(row)] = t.q_add[out[i : i + len(row)], t.q_mul[a, row]]
    return Polynomial(tuple(out.tolist()))


def poly_divmod(t: FieldTower, f: Polynomial, g: Polynomial) -> tuple[Polynomial, Polynomial]:
    if g.is_zero():
        raise ModByZero("division by the zero polynomial")
    dg = len(g.coeffs) - 1
    if len(f.coeffs) <= dg:
        return Polynomial(()), f
    lead_inv = t.q_inv.item(g.coeffs[-1])
    minus_g = t.q_mul[t.q_neg[:, None], np.array(g.coeffs)]  # row c is -c*g
    rem = np.array(f.coeffs, dtype=np.int32)
    quot = [0] * (len(rem) - dg)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem.item(i)
        if c == 0:
            continue
        factor = t.q_mul.item(c, lead_inv)
        quot[i - dg] = factor
        rem[i - dg : i + 1] = t.q_add[rem[i - dg : i + 1], minus_g[factor]]  # one row update per quotient term
    return Polynomial(tuple(quot)), Polynomial(tuple(rem.tolist()))


def poly_mod(t: FieldTower, f: Polynomial, g: Polynomial) -> Polynomial:
    return poly_divmod(t, f, g)[1]


def _monic(t: FieldTower, f: Polynomial) -> Polynomial:
    if f.is_zero() or f.coeffs[-1] == 1:
        return f
    return Polynomial(tuple(t.q_mul[t.q_inv[f.coeffs[-1]], list(f.coeffs)].tolist()))


def poly_gcd(t: FieldTower, f: Polynomial, g: Polynomial) -> Polynomial:
    a, b = f, g
    while not b.is_zero():
        a, b = b, poly_mod(t, a, b)
    return _monic(t, a)


def poly_lcm(t: FieldTower, f: Polynomial, g: Polynomial) -> Polynomial:
    if f.is_zero() or g.is_zero():
        return Polynomial(())
    d = poly_gcd(t, f, g)
    quot, rem = poly_divmod(t, poly_mul(t, f, g), d)
    assert rem.is_zero()
    return _monic(t, quot)


def lift_to_tower(t: FieldTower, f: Polynomial) -> tuple[int, ...]:
    """The coefficients of f as top-field elements, ascending."""
    return tuple(t.embed_subfield(c) for c in f.coeffs)


def poly_eval(t: FieldTower, f: Polynomial, x: int) -> int:
    """f(x) at a top-field element x, by Horner over the lifted coefficients; 0 exactly at the roots of f."""
    acc = 0
    for c in reversed(lift_to_tower(t, f)):
        acc = t.add(t.mul(acc, x), c)
    return acc


def xn_minus_one(t: FieldTower, n: int) -> Polynomial:
    return Polynomial((t.q_neg.item(1),) + (0,) * (n - 1) + (1,))


def minimal_polynomial(t: FieldTower, n: int, i: int) -> Polynomial:
    """Minimal polynomial over GF(q) of beta^i, beta = alpha^((q^m-1)/n).

    Expands prod(x - beta^s) over the coset C_i of i modulo n and re-expresses
    every coefficient at the GF(q) level; a coefficient outside the subfield
    raises CoefficientEscape (an internal bug, since the product is Frobenius
    stable by construction).
    """
    group = t.order - 1
    if n < 1 or group % n != 0:
        raise NotADivisor(f"n={n} does not divide q^m-1={group}")
    if not 0 <= i < n:
        raise OutOfRange(f"i={i} outside [0, {n})")
    beta_exp = group // n
    coset = cosets.cyclotomic_coset(t.q, n, i)
    poly = [1]
    for s in coset.elements:
        root = int(t.antilog[beta_exp * s % group])
        # multiply poly by (x - root)
        nxt = [0] * (len(poly) + 1)
        for k, c in enumerate(poly):
            if c == 0:
                continue
            nxt[k + 1] = t.add(nxt[k + 1], c)
            nxt[k] = t.sub(nxt[k], t.mul(c, root))
        poly = nxt
    return Polynomial(tuple(t.project_subfield(c) for c in poly))
