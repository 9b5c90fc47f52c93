"""Exact arithmetic in the tower GF(p) < GF(q) < GF(q^m), q = p^e.

Elements of the top field are integers in [0, p^(e*m)) whose base-p digits
are the coordinates with respect to the power basis of alpha, the residue
of x modulo the tower modulus.  The modulus is the first primitive
polynomial of its degree in the deterministic search order (coefficient
vector read as a base-p integer, constant term least significant), so
towers are reproducible across runs.  A candidate f with no root in GF(p)
is primitive when its d x d companion matrix C (multiplication by x mod f)
has C^(p^d-1) = I and C^((p^d-1)/r) != I for every prime r | p^d - 1.

There are no tables over the top field: all its arithmetic is on digit
rows and C, mod p.  A row times C^k is that element times alpha^k; the
matrix of multiplication by b has the rows b, b*alpha, ..., b*alpha^(d-1),
so a product is one row-matrix product and b^k is row 0 of its k-th power.
Addition is digit-wise mod p.  A tower costs O(d^2) memory at any order
(GF(2^20) builds in about 3 ms, GF(2^26) in 17 ms at a 30 KB peak), and the
float64 products stay below d*p^2 <= 2^53 under ORDER_GUARD, so are exact.

A GF(p) constant c is the integer c.  The subfield GF(q) is the span of
omega = alpha^g with g = (p^(e*m)-1)/(q-1); its elements are re-expressed
as indices in [0, q) over the power basis of omega, which makes prime-field
coefficients look like ordinary integers mod p, and the q x q tables
`q_add`, `q_mul`, `q_inv`, `q_neg`, read off the digit rows of the powers
of omega, give their arithmetic.

Every polynomial is a GF(q)[x] polynomial of such indices, held as one
read-only uint16 array that the numpy code reads with no conversion.
`poly_mul` and `poly_divmod` update a whole row of the result per
coefficient of one operand through those tables; `lift_to_tower` embeds
the coefficients in the top field, where `poly_eval` finds the roots.
`xn_minus_one_over` divides x^n - 1 by a divisor h of degree k without
long division: the quotient is minus the power series 1/h, a linear
recurring sequence of order k, and each block of its terms is the
previous k terms' digit row times one float64 matrix, mod p.
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
    SUBFIELD_GUARD,
    CoefficientEscape,
    ModByZero,
    NotADivisor,
    NotPrime,
    OrderTooLarge,
    OutOfRange,
    over_order_guard,
    show_int,
)


# --------------------------------------------------------------------------
# small helpers over GF(p)
# --------------------------------------------------------------------------


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
    """Decompose q = p^e with p prime (its least divisor > 1, by trial division to sqrt(q)); raises NotPrime otherwise."""
    if q < 2:
        raise NotPrime(f"{q} is not a prime power")
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    e, x = 0, q
    while x % p == 0:
        x //= p
        e += 1
    if x != 1:
        raise NotPrime(f"{q} is not a prime power")
    return p, e


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


def _mat_pow(mat: np.ndarray, k: int, p: int) -> np.ndarray:
    """mat^k mod p for k >= 0 and mat reduced mod p, by square-and-multiply; fmod reduces the non-negative products, far cheaper than %."""
    if k == 0:
        return np.eye(len(mat))
    acc = mat
    for bit in bin(k)[3:]:
        acc = np.fmod(acc @ acc, p)
        if bit == "1":
            acc = np.fmod(acc @ mat, p)
    return acc


def _x_is_primitive(mod: tuple[int, ...], p: int, group: int, primes: tuple[int, ...]) -> bool:
    # x^e = 1 exactly when the e-th power of its multiplication matrix is I
    step, eye = _companion(p, mod), np.eye(len(mod) - 1)
    return np.array_equal(_mat_pow(step, group, p), eye) and not any(np.array_equal(_mat_pow(step, group // r, p), eye) for r in primes)


def _smallest_primitive_modulus(p: int, d: int) -> tuple[int, ...]:
    group = p**d - 1
    primes = _prime_factors(group)
    powers = np.arange(p)[:, None] ** np.arange(d + 1) if d > 1 else None  # r^i for r in GF(p), below p^d
    for low in range(1, p**d):
        if low % p == 0:
            continue  # constant term 0 means x divides the candidate
        mod = tuple(low // p**i % p for i in range(d)) + (1,)
        if d > 1 and not np.all(powers @ mod % p):
            continue  # a root in GF(p) means a linear factor (values below p^(d+1) <= 2^39)
        if _x_is_primitive(mod, p, group, primes):
            return mod
    raise AssertionError("primitive polynomials exist for every degree")


# --------------------------------------------------------------------------
# the tower
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FieldTower:
    """GF(p) < GF(q = p^e) < GF(q^m), immutable after construction.

    A top-field element is an integer in [0, order) whose base-p digits are
    its coordinates over 1, alpha, ..., alpha^(d-1), d = e*m; every top-field
    operation works on those digit rows and the matrix `step`, mod p.

    Attributes
    ----------
    modulus : tuple[int, ...]
        Primitive polynomial of degree e*m over GF(p), ascending coefficients.
    order : int
        p**(e*m), the size of the top field.
    subfield_gen_exp : int
        g with alpha^g a generator of GF(q)*, g = (order-1)/(q-1).
    step : float64 numpy array
        The d x d matrix of multiplication by alpha (`_companion`).
    place : int64 numpy array
        p^0, ..., p^(d-1): an element is its digit row times `place`.
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
    step: np.ndarray = field(init=False, repr=False)
    place: np.ndarray = field(init=False, repr=False)
    subfield_to_tower: tuple[int, ...] = field(init=False, repr=False)
    tower_to_subfield: dict = field(init=False, repr=False)
    q_add: np.ndarray = field(init=False, repr=False)
    q_mul: np.ndarray = field(init=False, repr=False)
    q_inv: np.ndarray = field(init=False, repr=False)
    q_neg: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p, e, q = self.p, self.e, self.q
        step = _companion(p, self.modulus)
        place = p ** np.arange(len(step), dtype=np.int64)
        # digit rows of omega^j for j < q - 1 by doubling: the known rows times the matrix of omega^L
        powers, mat = np.eye(1, len(step)), _mat_pow(step, self.subfield_gen_exp, p)
        while len(powers) < q - 1:
            powers = np.vstack([powers, powers @ mat % p])
            mat = mat @ mat % p
        # index sum(c_i p^i) names sum(c_i omega^i), so GF(q) addition is digit-wise on indices
        index_place = p ** np.arange(e)
        coords = np.arange(q)[:, None] // index_place % p
        embed = (coords @ powers[:e] % p @ place).astype(np.int64).tolist()
        index = {v: i for i, v in enumerate(embed)}
        power_index = np.array([index[v] for v in (powers[: q - 1] @ place).astype(np.int64).tolist()], dtype=np.int32)
        log = np.zeros(q, dtype=np.int32)
        log[power_index] = np.arange(q - 1)
        # the q x q tables are built in int32 with at most one q x q temporary (4 bytes per entry);
        # q_mul reads omega^(log a + log b) off the powers listed twice, so the sum needs no reduction
        q_mul = np.concatenate([power_index, power_index])[np.add.outer(log, log)]
        q_mul[0], q_mul[:, 0] = 0, 0
        q_inv = power_index[-log % (q - 1)]
        q_inv[0] = 0
        # digit-wise sums over p^j indices, one digit at a time: index a = a_0 + p * a_high
        q_add = np.zeros((1, 1), dtype=np.int32)
        low = np.add.outer(np.arange(p, dtype=np.int32), np.arange(p, dtype=np.int32)) % p
        while len(q_add) < q:
            size = len(q_add) * p
            wider = np.empty((size, size), dtype=np.int32)
            np.add(q_add[:, None, :, None] * p, low[None, :, None, :], out=wider.reshape(len(q_add), p, len(q_add), p))
            q_add = wider

        object.__setattr__(self, "step", step)
        object.__setattr__(self, "place", place)
        object.__setattr__(self, "subfield_to_tower", tuple(embed))
        object.__setattr__(self, "tower_to_subfield", index)
        object.__setattr__(self, "q_add", q_add)
        object.__setattr__(self, "q_mul", q_mul)
        object.__setattr__(self, "q_inv", q_inv)
        object.__setattr__(self, "q_neg", (-coords % p @ index_place).astype(np.int32))

    # -- top-field element ops (integers in [0, order)) --------------------

    def _row(self, a: int) -> np.ndarray:
        """Base-p digit row of a."""
        return a // self.place % self.p

    def _value(self, row: np.ndarray) -> int:
        return int(row @ self.place)

    def _matrix(self, a: int) -> np.ndarray:
        """Matrix of multiplication by a: row i is the digit row of a * alpha^i."""
        rows = [self._row(a)]
        for _ in range(1, len(self.step)):
            rows.append(rows[-1] @ self.step % self.p)
        return np.array(rows, dtype=float)

    @property
    def alpha(self) -> int:
        return self._value(self.step[0])  # row 0 of C is x mod f

    def add(self, a: int, b: int) -> int:
        """Digit-wise sum mod p of two elements."""
        return a ^ b if self.p == 2 else self._value((self._row(a) + self._row(b)) % self.p)

    def neg(self, a: int) -> int:
        return self._value(-self._row(a) % self.p)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self._value(self._row(a) @ self._matrix(b) % self.p)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.pow(a, -1)

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k < 0:
                raise ZeroDivisionError("0 to a negative power")
            return int(k == 0)
        return self._value(_mat_pow(self._matrix(a), k % (self.order - 1), self.p)[0])

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative order")
        out = self.order - 1
        for r in _prime_factors(out):
            while out % r == 0 and self.pow(a, out // r) == 1:
                out //= r
        return out

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


def check_tower_order(base: int, exp: int) -> None:
    """OrderTooLarge when a top field of order base^exp would exceed ORDER_GUARD.

    Callers check it before decomposing base: trial division of a huge prime takes sqrt(base) steps.
    """
    if over_order_guard(base, exp):
        raise OrderTooLarge(f"field order {show_int(base)}^{exp} exceeds the guard {ORDER_GUARD}")


@lru_cache(maxsize=None)
def build_tower(p: int, e: int, m: int) -> FieldTower:
    """Construct the tower GF(p) < GF(p^e) < GF(p^(e*m)): its modulus and the GF(q) tables."""
    if e < 1 or m < 1:
        raise OutOfRange(f"need e >= 1 and m >= 1, got e={e}, m={m}")
    d = e * m
    check_tower_order(p, d)
    if prime_power(p)[1] != 1:
        raise NotPrime(f"{p} is not prime")
    q = p**e
    if q > SUBFIELD_GUARD:
        raise OrderTooLarge(f"q = {q} exceeds the subfield guard {SUBFIELD_GUARD} of the q x q tables")
    order = p**d
    modulus = _smallest_primitive_modulus(p, d)
    return FieldTower(
        p=p,
        e=e,
        m=m,
        modulus=modulus,
        order=order,
        q=q,
        subfield_gen_exp=(order - 1) // (q - 1),
    )


_TOWER_LOCK = threading.Lock()  # threads that miss tower_for together build once


@lru_cache(maxsize=None)
def tower_for(q: int, m: int) -> FieldTower:
    """Tower whose subfield is GF(q) and whose top field is GF(q^m)."""
    check_tower_order(q, m)
    p, e = prime_power(q)
    with _TOWER_LOCK:
        return build_tower(p, e, m)


# --------------------------------------------------------------------------
# polynomials
# --------------------------------------------------------------------------

NEG_INF = float("-inf")


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial over GF(q): its ascending GF(q) indices, stored once as uint16 bytes.

    Built from any sequence or array of indices (below SUBFIELD_GUARD, so uint16 holds them) with trailing zeros stripped, so
    the leading coefficient is nonzero unless it is zero; it compares and hashes by value; ``coeffs`` is a read-only, zero-copy view.
    """

    data: bytes

    def __post_init__(self):
        c = np.asarray(self.data, dtype=np.uint16)
        end = len(c)
        while end and not c[end - 1]:  # a Python walk: numpy's zero trimming allocates int64 over all of c
            end -= 1
        object.__setattr__(self, "data", c[:end].tobytes())

    @property
    def coeffs(self) -> np.ndarray:
        return np.frombuffer(self.data, dtype=np.uint16)

    @property
    def degree(self):
        """Degree, or -inf for the zero polynomial."""
        return len(self.data) // 2 - 1 if self.data else NEG_INF

    def is_zero(self) -> bool:
        return not self.data

    def __str__(self) -> str:
        if not self.data:
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
    if f.degree > g.degree:
        f, g = g, f  # one row per coefficient of the shorter factor
    row = g.coeffs
    out = np.zeros(f.degree + len(row), dtype=np.uint16)
    for i, a in enumerate(f.coeffs):
        if a:
            out[i : i + len(row)] = t.q_add[out[i : i + len(row)], t.q_mul[a, row]]
    return Polynomial(out)


def poly_divmod(t: FieldTower, f: Polynomial, g: Polynomial) -> tuple[Polynomial, Polynomial]:
    if g.is_zero():
        raise ModByZero("division by the zero polynomial")
    dg = g.degree
    if f.degree < dg:
        return Polynomial(()), f
    lead_inv = t.q_inv.item(g.coeffs[-1])
    minus_g = t.q_mul[t.q_neg[:, None], g.coeffs]  # row c is -c*g
    rem = f.coeffs.copy()
    quot = np.zeros(len(rem) - dg, dtype=np.uint16)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem.item(i)
        if c == 0:
            continue
        factor = t.q_mul.item(c, lead_inv)
        quot[i - dg] = factor
        rem[i - dg : i + 1] = t.q_add[rem[i - dg : i + 1], minus_g[factor]]  # one row update per quotient term
    return Polynomial(quot), Polynomial(rem[:dg])


def poly_mod(t: FieldTower, f: Polynomial, g: Polynomial) -> Polynomial:
    return poly_divmod(t, f, g)[1]


def _monic(t: FieldTower, f: Polynomial) -> Polynomial:
    if f.is_zero() or f.coeffs[-1] == 1:
        return f
    return Polynomial(t.q_mul[t.q_inv[f.coeffs[-1]], f.coeffs])


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
    by_x = t._matrix(x)
    acc = t._row(0)
    for c in reversed(lift_to_tower(t, f)):
        acc = (acc @ by_x + t._row(c)) % t.p
    return t._value(acc)


def xn_minus_one(t: FieldTower, n: int) -> Polynomial:
    return xn_minus_one_over(t, n, Polynomial((1,)))


# xn_minus_one_over's blocks: a block's fixed numpy overhead costs about as much as building
# 128 entries of its digit matrix per term (timed on the family points of the verify grids),
# and one block's matrix holds at most 2^18 entries
_BLOCK_BALANCE = 128
_BLOCK_ENTRIES = 1 << 18


def xn_minus_one_over(t: FieldTower, n: int, h: Polynomial) -> Polynomial:
    """(x^n - 1)/h for h dividing x^n - 1; NotADivisor otherwise.

    With k = deg h the quotient is -u_0, ..., -u_(n-k), where u = 1/h is a
    power series.  u is a linear recurring sequence of order k whose
    characteristic polynomial is P = rev(h)/h_0, so the B terms after any k
    consecutive ones are those k terms times the k x B matrix whose column r
    is x^(k+r) mod P.  That matrix is expanded to GF(p) digits, each entry a
    becoming the e x e matrix of multiplication by a, and every block of B
    terms is one row-matrix product mod p.  Its sums stay below
    k*e*(p-1)^2, so it is exact in float32 while that is below 2^24 and in
    float64 for any k < 2^29 with q <= SUBFIELD_GUARD.  B is about 2 sqrt(n)
    while k*e^2 is small and shrinks as it grows: the n*k*e^2 products cost
    the same at any B, but the matrix costs k*e^2 entries per term of a
    block.  h divides x^n - 1 exactly when u repeats with period n, that is
    when u_(n-k+1), ..., u_n equal u_(1-k), ..., u_0 (k - 1 zeros, then
    1/h_0).
    """
    if h.is_zero():
        raise ModByZero("division by the zero polynomial")
    k = h.degree
    if h.coeffs[0] == 0 or k > n:
        raise NotADivisor(f"a polynomial of degree {k} does not divide x^{n} - 1")
    h0_inv = t.q_inv.item(h.coeffs[0])
    if k == 0:
        return Polynomial(np.concatenate(([t.q_neg[h0_inv]], np.zeros(n - 1, dtype=np.uint16), [h0_inv])))
    p, e = t.p, t.e
    per_term = k * e * e  # matrix entries per term of a block
    block = max(1, min(math.isqrt(4 * n * _BLOCK_BALANCE // (_BLOCK_BALANCE + per_term)), _BLOCK_ENTRIES // per_term))
    dtype = np.float32 if k * e * (p - 1) ** 2 < 1 << 24 else np.float64
    # rows[r, 1:] is x^(k+r) mod P after a zero column, so rows[r, :-1] is x times it with the top
    # coefficient c = rows[r, k] dropped, and c folds back as c * (x^k mod P)
    xk = t.q_neg[t.q_mul[h0_inv, h.coeffs[:0:-1]]]
    by_top = t.q_mul[:, xk]
    rows = np.zeros((block, k + 1), dtype=np.int32)
    rows[0, 1:] = xk
    for r in range(1, block):
        rows[r, 1:] = t.q_add[rows[r - 1, :-1], by_top[rows.item(r - 1, k)]]
    place = p ** np.arange(e)
    coords = np.arange(t.q)[:, None] // place % p  # digit row of each GF(q) index
    by_index = coords[t.q_mul[:, place]].astype(dtype)  # e x e matrix of multiplication by each index
    weights = by_index[rows[:, 1:].T].transpose(0, 2, 1, 3).reshape(k * e, block * e)
    coords = coords.astype(dtype)
    # seq[k - 1 + i] = u_i from i = 1 - k on: k - 1 zeros, then u_0 = 1/h_0
    seq = np.zeros(k + block * -(-n // block), dtype=np.uint16)
    seq[k - 1] = h0_inv
    for i in range(k, k + n, block):
        seq[i : i + block] = ((coords[seq[i - k : i]].ravel() @ weights).astype(np.int64) % p).reshape(block, e) @ place
    if not np.array_equal(seq[n : n + k], seq[:k]):
        raise NotADivisor(f"a polynomial of degree {k} does not divide x^{n} - 1")
    return Polynomial(t.q_neg.astype(np.uint16)[seq[k - 1 : n]])


def minimal_polynomial(t: FieldTower, n: int, i: int) -> Polynomial:
    """Minimal polynomial over GF(q) of beta^i, beta = alpha^((q^m-1)/n).

    Expands prod(x + beta^s) over the coset C_i of i modulo n with the
    coefficients as a (deg+1) x d array of digit rows, one matrix product
    shift(poly) + poly @ R per root (R multiplies by it; the next root's R is
    R^q, by Frobenius), then puts in the signs of prod(x - beta^s).  A
    coefficient outside GF(q) raises CoefficientEscape (an internal bug).
    """
    group = t.order - 1
    if n < 1 or group % n != 0:
        raise NotADivisor(f"n={n} does not divide q^m-1={group}")
    if not 0 <= i < n:
        raise OutOfRange(f"i={i} outside [0, {n})")
    size = cosets.cyclotomic_coset(t.q, n, i).size
    root = _mat_pow(t.step, group // n * i % group, t.p)
    poly = np.zeros((size + 1, len(t.step)))
    poly[0, 0] = 1  # the constant 1; after k factors, rows 0..k hold the coefficients
    for k in range(size):
        if k:
            root = _mat_pow(root, t.q, t.p)
        nxt = poly @ root  # times (x + root): every term non-negative, so fmod reduces it
        nxt[1:] += poly[:-1]
        poly = np.fmod(nxt, t.p)
    # that is prod(x + beta^s); in prod(x - beta^s) the coefficient of x^j has the sign (-1)^(size-j)
    poly[size - 1 :: -2] = np.fmod(t.p - poly[size - 1 :: -2], t.p)
    return Polynomial(np.fromiter(map(t.project_subfield, (poly @ t.place).astype(np.int64).tolist()), dtype=np.uint16))
