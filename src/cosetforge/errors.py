"""Exception types, the size guards, and the integer formatting their messages share."""

# Largest field order or modulus n.  It bounds the n-length structures (the
# int32 leader map, 1-byte defining-set masks, enumeration over n positions):
# `cosets --q 2 --n 67108863` peaks at 289 MB RSS (2-vCPU VM) counting its
# 2,581,427 leaders or finding the top 3; listing them all takes 386 MB.
# A tower has no top-field table (GF(2^26) builds in under 1 MB); for it the
# guard keeps the float64 digit-matrix products exact, d*p^2 < 2^53.
ORDER_GUARD = 2**26

# Largest n for which `dually-bch --sweep` runs.  The report is written a
# block of rows at a time from the verdict vector, so its peak is set by the
# sweep's int64 temporaries over the cached int32 leader map, about 24 bytes
# per delta.  In-process `cli.main` under RLIMIT_AS = 1 GiB (2-vCPU Xeon VM,
# Python 3.11.7, numpy 2.4.6): n = 38,386,660 (q = 337, m = 4, minus)
# finishes in json, csv and table at 910 MB peak RSS in 18-29 s, and the next
# family length, n = 39,449,441 (q = 79, m = 5, minus), raises MemoryError.
SWEEP_GUARD = 38_386_660

# Largest subfield order q.  The two int32 q x q tables are built with one
# q x q int32 temporary, about 12 bytes per entry at the peak: under
# RLIMIT_AS = 1 GiB (2-vCPU Xeon VM, numpy 2.4.6) the tables of q = 4096
# peak at 191 MB RSS and those of q = 8191 at 798 MB.  The guard stays at
# 2^12, which leaves the rest of a run most of the 1 GiB.
SUBFIELD_GUARD = 2**12

# Most decimal digits of q^m in a family length n = (q^m-1)/(q+-1): reports
# print n, and str() refuses integers past 4,300 digits by default.
DIGIT_GUARD = 4300


def over_order_guard(q: int, m: int) -> bool:
    """Whether q^m > ORDER_GUARD for q >= 2, decided from a long exponent alone (q^m >= 2^m)."""
    return q >= 2 and (m >= ORDER_GUARD.bit_length() or q**m > ORDER_GUARD)


def show_int(x: int) -> str:
    """x in decimal up to 64 bits, else its bit length (str() refuses integers past 4,300 digits)."""
    return str(x) if x.bit_length() <= 64 else f"a {x.bit_length()}-bit number"


class CosetForgeError(Exception):
    """Base class for every domain error raised by this package."""


class NotPrime(CosetForgeError, ValueError):
    """Characteristic is not prime, or q is not a prime power."""


class OrderTooLarge(CosetForgeError, ValueError):
    """Field order or modulus n exceeds ORDER_GUARD, q exceeds SUBFIELD_GUARD, or a sweep's n exceeds SWEEP_GUARD."""


class ModByZero(CosetForgeError, ZeroDivisionError):
    """Polynomial division/remainder by the zero polynomial."""


class NotADivisor(CosetForgeError, ValueError):
    """n does not divide the multiplicative group order q^m - 1, or a polynomial does not divide x^n - 1."""


class CoefficientEscape(CosetForgeError, RuntimeError):
    """A coefficient expected to lie in the subfield did not.

    This signals an internal inconsistency (a bug), never bad user input.
    """


class NotCoprime(CosetForgeError, ValueError):
    """gcd(q, n) != 1, so q-cyclotomic cosets modulo n are undefined."""


class OutOfRange(CosetForgeError, ValueError):
    """An integer argument is outside its documented range."""


class FamilyConstraint(CosetForgeError, ValueError):
    """Parameters violate a code-family constraint (parity of m, size of q)."""


class NotDivisible(CosetForgeError, ValueError):
    """A required exact divisibility does not hold."""


class DeltaOutOfRange(CosetForgeError, ValueError):
    """Designed distance outside the admissible range."""


class TowerMismatch(CosetForgeError, ValueError):
    """Field tower is inconsistent with the (q, n) of the object passed in."""


class BudgetExceeded(CosetForgeError, RuntimeError):
    """Enumeration would visit more codewords than the configured budget."""


class NonIntegerTransform(CosetForgeError, RuntimeError):
    """MacWilliams transform produced a non-integer count (upstream bug)."""


class UnknownClaim(CosetForgeError, KeyError):
    """Claim id not present in the registry."""

    def __str__(self) -> str:  # KeyError's own str() is the repr of the id
        return f"unknown claim id {self.args[0]!r}; `cosetforge claims` lists the registry"


class GridTooLarge(CosetForgeError, ValueError):
    """A verification grid point has q^m over ORDER_GUARD."""


class UsageError(CosetForgeError, ValueError):
    """A malformed request, or one that selects nothing to run (CLI exit 2)."""
