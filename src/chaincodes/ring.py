"""Scalar arithmetic in the chain ring Z_{p^e} and its residue field F_p."""

from __future__ import annotations

from dataclasses import dataclass

_MAX_MODULUS = 2**63 - 1

# Miller-Rabin witnesses: the first 13 primes.  They are exact below
# psi_13 = 3317044064679887385961981 (~3.3e24), the least strong pseudoprime
# to all of them (Sorenson & Webster, Math. Comp. 86, 2017); is_prime calls
# it prime.  fieldpoly trusts is_prime on every number below that bound.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_EXACT_BELOW = 3317044064679887385961981


class MismatchedRing(ValueError):
    """Operands belong to different rings."""


class NotAUnit(ArithmeticError):
    """Inversion of an element divisible by p."""


def is_prime(n: int) -> bool:
    """Deterministic primality check, exact for n below PRIME_EXACT_BELOW;
    above it, False still proves n composite."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, order=True)
class RingSpec:
    """The chain ring Z_{p^e}: prime p, nilpotency index e >= 1.

    The maximal ideal is generated by p and the residue field is F_p.
    The modulus p**e must fit in a signed 64-bit integer.
    """

    p: int
    e: int

    def __post_init__(self) -> None:
        if self.e < 1:
            raise ValueError(f"nilpotency index must be >= 1, got {self.e}")
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.e >= 64 or self.p**self.e > _MAX_MODULUS:  # p^64 > 2^63 for every prime p
            raise ValueError(f"modulus {self.p}**{self.e} exceeds the 64-bit range")

    @property
    def modulus(self) -> int:
        return self.p**self.e

    def normalize(self, value: int) -> int:
        return value % self.modulus

    def is_unit(self, value: int) -> bool:
        return value % self.p != 0

    def inverse(self, value: int) -> int:
        if value % self.p == 0:
            raise NotAUnit(f"{value % self.modulus} is not a unit in Z_{self.p}^{self.e}")
        return pow(value, -1, self.modulus)

    def valuation(self, value: int) -> int:
        """Largest j <= e with p**j dividing value; by convention e for 0."""
        v = value % self.modulus
        if v == 0:
            return self.e
        j = 0
        while v % self.p == 0:
            v //= self.p
            j += 1
        return j

    def element(self, value: int) -> "RElem":
        return RElem(self.normalize(value), self)

    def __str__(self) -> str:
        return f"Z_{self.modulus}" if self.e > 1 else f"F_{self.p}"


@dataclass(frozen=True)
class RElem:
    """Canonical representative of an element of Z_{p^e}."""

    value: int
    spec: RingSpec

    def __post_init__(self) -> None:
        if not 0 <= self.value < self.spec.modulus:
            object.__setattr__(self, "value", self.value % self.spec.modulus)

    def _check(self, other: "RElem") -> None:
        if self.spec != other.spec:
            raise MismatchedRing(f"{self.spec} vs {other.spec}")

    def __add__(self, other: "RElem") -> "RElem":
        self._check(other)
        return RElem((self.value + other.value) % self.spec.modulus, self.spec)

    def __sub__(self, other: "RElem") -> "RElem":
        self._check(other)
        return RElem((self.value - other.value) % self.spec.modulus, self.spec)

    def __mul__(self, other: "RElem") -> "RElem":
        self._check(other)
        return RElem(self.value * other.value % self.spec.modulus, self.spec)

    def __str__(self) -> str:
        return str(self.value)

