"""Polynomials over F_p: arithmetic, factorization of x^n - 1, cyclotomic
cosets, quadratic-residue tests and duadic splittings.

Factorization of x^n - 1 is done by computing the minimal polynomial of each
cyclotomic coset from a primitive n-th root of unity in F_{p^s}, where
s is the multiplicative order of p mod n.  This keeps the factor <-> coset
correspondence explicit, which the rest of the library relies on.

Every step is deterministic: F_{p^s} is built on the first irreducible in
encoding order (found with Ben-Or's test), and the root of unity comes from
its smallest multiplicative generator, found after factoring the group
order p^s - 1 as the product of the cyclotomic values Phi_d(p), d | s.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd

from ._modpoly import (
    PolyModulus,
    padd,
    pdivmod,
    pgcd,
    pmonic,
    pmul,
    pnorm,
    psub,
)
from .ring import is_prime


@dataclass(frozen=True)
class FqPoly:
    """Dense polynomial over F_p, coefficients ascending, no trailing zeros."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(pnorm(list(self.coeffs), self.p)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _check(self, other: "FqPoly") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed characteristics {self.p} and {other.p}")

    def __add__(self, other: "FqPoly") -> "FqPoly":
        self._check(other)
        return FqPoly(self.p, tuple(padd(list(self.coeffs), list(other.coeffs), self.p)))

    def __sub__(self, other: "FqPoly") -> "FqPoly":
        self._check(other)
        return FqPoly(self.p, tuple(psub(list(self.coeffs), list(other.coeffs), self.p)))

    def __mul__(self, other: "FqPoly") -> "FqPoly":
        self._check(other)
        return FqPoly(self.p, tuple(pmul(list(self.coeffs), list(other.coeffs), self.p)))

    def divmod(self, other: "FqPoly") -> tuple["FqPoly", "FqPoly"]:
        self._check(other)
        q, r = pdivmod(list(self.coeffs), list(other.coeffs), self.p)
        return FqPoly(self.p, tuple(q)), FqPoly(self.p, tuple(r))

    def gcd(self, other: "FqPoly") -> "FqPoly":
        self._check(other)
        return FqPoly(self.p, tuple(pgcd(list(self.coeffs), list(other.coeffs), self.p)))

    def monic(self) -> "FqPoly":
        return FqPoly(self.p, tuple(pmonic(list(self.coeffs), self.p)))

    def __str__(self) -> str:
        from .serialize import poly_to_text

        return poly_to_text(list(self.coeffs))


def ord_mod(n: int, q: int) -> int:
    """Smallest l >= 1 with q**l = 1 mod n."""
    if n == 1:
        return 1
    if gcd(n, q) != 1:
        raise ValueError(f"gcd({n}, {q}) != 1")
    l, v = 1, q % n
    while v != 1:
        v = v * q % n
        l += 1
    return l


def _orbits(m: int, q: int) -> list[list[int]]:
    """Partition of Z_m into multiplication-by-q orbits, each sorted,
    listed by ascending minimal representative.  Valid for any m coprime to q."""
    seen = [False] * m
    out = []
    for i in range(m):
        if seen[i]:
            continue
        orbit = []
        j = i
        while not seen[j]:
            seen[j] = True
            orbit.append(j)
            j = j * q % m
        out.append(sorted(orbit))
    return out


@dataclass(frozen=True)
class CosetPartition:
    """The q-cyclotomic cosets mod m; each coset sorted, {0} always separate."""

    m: int
    q: int
    cosets: tuple[tuple[int, ...], ...]


def cyclotomic_cosets(m: int, q: int) -> CosetPartition:
    if m % 2 == 0:
        raise ValueError(f"modulus must be odd, got {m}")
    if gcd(m, q) != 1:
        raise ValueError(f"gcd({m}, {q}) != 1")
    return CosetPartition(m, q, tuple(tuple(c) for c in _orbits(m, q)))


@lru_cache(maxsize=None)
def _squares_mod(n: int) -> frozenset[int]:
    return frozenset(y * y % n for y in range(n))


def is_quadratic_residue(q: int, n: int) -> bool:
    """True iff q is a square modulo n (membership in the squares of Z_n)."""
    if n % 2 == 0:
        raise ValueError(f"modulus must be odd, got {n}")
    if gcd(q, n) != 1:
        raise ValueError(f"gcd({q}, {n}) != 1")
    return q % n in _squares_mod(n)


# ---------------------------------------------------------------------------
# Extension field F_{p^s} = F_p[y]/(h), elements as ascending coeff tuples.
# ---------------------------------------------------------------------------


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors by trial division."""
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
    return out


def _known_prime(n: int) -> bool:
    """A prime inside the range where is_prime is exact."""
    return n < 2**63 and is_prime(n)


# Cycle lengths rho tries per seed: enough for a second-largest prime
# factor near 10^12.
_RHO_STEPS = 1 << 20
_RHO_BATCH = 64


def _rho_factor(n: int) -> int | None:
    """A proper divisor of n > 1 by Pollard-Brent rho (x -> x^2 + c with the
    fixed seeds c = 1, 2, 3), or None when no seed splits n with cycle
    lengths up to _RHO_STEPS.  Deterministic: every run splits n the same way."""
    for c in (1, 2, 3):
        y, power, product, g = 2, 1, 1, 1
        while g == 1 and power <= _RHO_STEPS:
            x = y
            for _ in range(power):
                y = (y * y + c) % n
            done = 0
            while done < power and g == 1:
                saved = y
                for _ in range(min(_RHO_BATCH, power - done)):
                    y = (y * y + c) % n
                    product = product * abs(x - y) % n
                g = gcd(product, n)
                done += _RHO_BATCH
            power *= 2
        if g == n:  # the batch overshot: step again one at a time
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = gcd(abs(x - saved), n)
        if 1 < g < n:
            return g
    return None


def _trial_primes(value: int, d: int) -> set[int]:
    """Distinct prime divisors of a divisor of Phi_d(p) by exact trial division:
    such a prime divides d or is 1 mod d.  Stops early once the cofactor left
    is a prime in the exact range of is_prime."""
    primes = set()
    prime_left = _known_prime(value)
    for c in itertools.chain(prime_factors(d), itertools.count(d + 1, d)):
        if prime_left or c * c > value:
            break
        if value % c == 0:
            primes.add(c)
            while value % c == 0:
                value //= c
            prime_left = _known_prime(value)
    if value > 1:
        primes.add(value)
    return primes


def _unit_group_primes(p: int, s: int) -> list[int]:
    """Distinct prime divisors of p^s - 1, ascending.

    p^s - 1 is the product of the cyclotomic values Phi_d(p) over d | s.
    Pollard-Brent rho splits each Phi_d(p) into pieces.  A piece counts as
    prime only through is_prime in its exact range, and any other piece rho
    does not split is factored by exact trial division, so no probabilistic
    claim enters the result.
    """
    divisors = [d for d in range(1, s + 1) if s % d == 0]
    phi: dict[int, int] = {}
    primes: set[int] = set()
    for d in divisors:
        value = p**d - 1
        for k in divisors:
            if k < d and d % k == 0:
                value //= phi[k]
        phi[d] = value
        pieces = [value] if value > 1 else []
        while pieces:
            piece = pieces.pop()
            # is_prime is exact below 2^63; above, False still proves the
            # piece composite, and True only sends it to trial division
            factor = None if is_prime(piece) else _rho_factor(piece)
            if factor is None:
                primes |= _trial_primes(piece, d)
            else:
                pieces += [factor, piece // factor]
    return sorted(primes)


def is_irreducible(poly: FqPoly) -> bool:
    """Ben-Or irreducibility test over F_p: a polynomial h of degree s is
    irreducible iff gcd(x^(p^i) - x, h) = 1 for every i <= s/2, that is,
    iff it has no irreducible factor of degree <= s/2."""
    p = poly.p
    h = list(poly.coeffs)
    s = len(h) - 1
    if s <= 0:
        return False
    ring = PolyModulus(h, p)
    x = [0, 1]
    r = x
    for _ in range(s // 2):
        # r = x^(p^i) mod h
        r = ring.pow(r, p)
        if pgcd(psub(r, x, p), h, p) != [1]:
            return False
    return True


def find_irreducible(p: int, s: int) -> FqPoly:
    """First monic irreducible of degree s over F_p, scanning the lower
    coefficients in constant-first base-p encoding order."""
    if s == 1:
        return FqPoly(p, (0, 1))
    for code in range(p**s):
        coeffs, v = [], code
        for _ in range(s):
            coeffs.append(v % p)
            v //= p
        cand = FqPoly(p, tuple(coeffs + [1]))
        if is_irreducible(cand):
            return cand
    raise AssertionError(f"no irreducible of degree {s} over F_{p}")


class _ExtField(PolyModulus):
    """Arithmetic in F_{p^s} as F_p[y]/(h); elements are coefficient lists."""

    def __init__(self, p: int, s: int):
        super().__init__(list(find_irreducible(p, s).coeffs), p)
        self.p = p
        self.s = s
        self.order = p**s - 1

    def element(self, code: int) -> list[int]:
        coeffs = []
        for _ in range(self.s):
            coeffs.append(code % self.p)
            code //= self.p
        return pnorm(coeffs, self.p)

    def generator(self) -> list[int]:
        """Smallest multiplicative generator in encoding order.  For s > 1
        the nonzero constants (encodings below p) lie in F_p^* and cannot
        generate, so the scan starts at encoding p."""
        checks = [self.order // r for r in _unit_group_primes(self.p, self.s)]
        for code in range(1 if self.s == 1 else self.p, self.order + 1):
            cand = self.element(code)
            if all(self.pow(cand, e) != [1] for e in checks):
                return cand
        raise AssertionError("no generator found")


def _minimal_polynomial(powers: list[list[int]], s: int, p: int) -> list[int]:
    """Monic minimal polynomial over F_p of an element a of F_{p^s}, given
    the coordinates of 1, a, ..., a^d where d is the degree of a: row
    reduction finds the linear dependency that a^d closes."""
    d = len(powers) - 1
    rows: list[tuple[int, list[int]]] = []
    for k, power in enumerate(powers):
        # the coordinates of a combination of powers, then its coefficients
        row = power + [0] * (s - len(power)) + [int(j == k) for j in range(d + 1)]
        for pivot, basis in rows:
            c = row[pivot]
            if c:
                row = [(x - c * y) % p for x, y in zip(row, basis)]
        pivot = next((j for j in range(s) if row[j]), None)
        if pivot is None:
            if k != d:
                raise AssertionError(f"degree {k} differs from the coset size {d}")
            return row[s:]
        inv = pow(row[pivot], -1, p)
        rows.append((pivot, [x * inv % p for x in row]))
    raise AssertionError(f"no dependency among the first {d + 1} powers")


@lru_cache(maxsize=None)
def _ext_field(p: int, s: int) -> _ExtField:
    return _ExtField(p, s)


@lru_cache(maxsize=None)
def factor_xn_minus_1(n: int, p: int) -> tuple[FqPoly, ...]:
    """Monic irreducible factors of x^n - 1 over F_p, one per cyclotomic
    coset, ordered by ascending minimal coset representative.

    The factor for coset Cl(i) is the minimal polynomial of z^i, where z is
    the fixed primitive n-th root of unity g**((p^s - 1)/n) for the smallest
    multiplicative generator g of F_{p^s}.  It is read off the first linear
    dependency among the powers of z^i, which are all powers of z.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    if n % p == 0:
        raise ValueError(f"p = {p} divides n = {n}")
    if n == 1:
        return (FqPoly(p, (p - 1, 1)),)
    s = ord_mod(n, p)
    ext = _ext_field(p, s)
    zeta = ext.pow(ext.generator(), ext.order // n)
    powers = [[1]]
    for _ in range(n - 1):
        powers.append(ext.mul(powers[-1], zeta))
    factors = []
    for coset in _orbits(n, p):
        i = coset[0]
        coeffs = _minimal_polynomial([powers[i * k % n] for k in range(len(coset) + 1)], s, p)
        factors.append(FqPoly(p, tuple(coeffs)))
    return tuple(factors)


# ---------------------------------------------------------------------------
# Duadic splittings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Splitting:
    """A splitting mod m: the nonzero residues partitioned into coset unions
    S_1, S_2 swapped by the multiplier i -> a*i.  Exactly one of the two
    mu_{-1} classifications holds: negation either swaps S_1 and S_2
    (given_by_mu_minus1) or fixes them (invariant_under_mu_minus1)."""

    m: int
    q: int
    s1: tuple[int, ...]
    s2: tuple[int, ...]
    a: int
    given_by_mu_minus1: bool = field(init=False)
    invariant_under_mu_minus1: bool = field(init=False)

    def __post_init__(self) -> None:
        s1, s2 = frozenset(self.s1), frozenset(self.s2)
        if s1 & s2 or (s1 | s2) != set(range(1, self.m)):
            raise ValueError("S_1, S_2 must partition the nonzero residues")
        if frozenset(self.a * x % self.m for x in s1) != s2 or frozenset(
            self.a * x % self.m for x in s2
        ) != s1:
            raise ValueError(f"multiplier {self.a} does not swap S_1 and S_2")
        neg = frozenset(-x % self.m for x in s1)
        given, invariant = neg == s2, neg == s1
        if given == invariant:
            raise ValueError("negation neither swaps nor fixes the splitting")
        object.__setattr__(self, "given_by_mu_minus1", given)
        object.__setattr__(self, "invariant_under_mu_minus1", invariant)


def find_splittings(m: int, q: int) -> list[Splitting]:
    """All splittings modulo m for the q-cyclotomic cosets, canonically
    ordered (S_1 contains the coset of 1; list sorted lexicographically by S_1).

    The search walks every unit multiplier a: a splitting with witness a
    exists iff the permutation induced by a on the nonzero cosets has only
    even cycles, and the alternating assignments along each cycle enumerate
    all of them.  Returns [] when no splitting exists, in particular when
    q is not a square mod m.
    """
    if m % 2 == 0:
        raise ValueError(f"modulus must be odd, got {m}")
    if gcd(m, q) != 1:
        raise ValueError(f"gcd({m}, {q}) != 1")
    if m == 1:
        return []
    cosets = [tuple(c) for c in _orbits(m, q) if c != [0]]
    index = {x: i for i, c in enumerate(cosets) for x in c}
    found: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for a in range(2, m):
        if gcd(a, m) != 1:
            continue
        perm = [index[a * c[0] % m] for c in cosets]
        seen = [False] * len(cosets)
        cycles = []
        for i in range(len(cosets)):
            if seen[i]:
                continue
            cycle = []
            j = i
            while not seen[j]:
                seen[j] = True
                cycle.append(j)
                j = perm[j]
            cycles.append(cycle)
        if any(len(c) % 2 for c in cycles):
            continue
        for flips in itertools.product((0, 1), repeat=len(cycles)):
            side1: set[int] = set()
            side2: set[int] = set()
            for flip, cycle in zip(flips, cycles):
                for pos, ci in enumerate(cycle):
                    (side1 if (pos + flip) % 2 == 0 else side2).add(ci)
            s1 = sorted(x for ci in side1 for x in cosets[ci])
            s2 = sorted(x for ci in side2 for x in cosets[ci])
            if 1 in s2:
                s1, s2 = s2, s1
            key = (tuple(s1), tuple(s2))
            if key not in found:
                found[key] = a
    return [
        Splitting(m, q, s1, s2, found[(s1, s2)])
        for s1, s2 in sorted(found)
    ]
