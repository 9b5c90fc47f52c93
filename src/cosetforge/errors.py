"""Exception types shared across the package."""


class CosetForgeError(Exception):
    """Base class for every domain error raised by this package."""


class NotPrime(CosetForgeError, ValueError):
    """Characteristic is not prime, or q is not a prime power."""


class OrderTooLarge(CosetForgeError, ValueError):
    """Requested field order exceeds the table-size guard (2**26)."""


class LevelMismatch(CosetForgeError, ValueError):
    """Polynomial operands live at different field levels."""


class ModByZero(CosetForgeError, ZeroDivisionError):
    """Polynomial division/remainder by the zero polynomial."""


class NotADivisor(CosetForgeError, ValueError):
    """n does not divide the multiplicative group order q^m - 1."""


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


class GridTooLarge(CosetForgeError, ValueError):
    """A verification grid point exceeds the desk-scale guard."""


class UsageError(CosetForgeError, ValueError):
    """A malformed request, or one that selects nothing to run (CLI exit 2)."""
