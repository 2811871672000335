"""Polynomials over F_p, which are RPolys over RingSpec(p, 1): irreducibility,
factorization of x^n - 1, cyclotomic cosets, quadratic-residue tests and
duadic splittings.

The factor of x^n - 1 for the cyclotomic coset of i is the minimal
polynomial of z^i, for a primitive n-th root of unity z in F_{p^s}, where
s is the multiplicative order of p mod n.  This keeps the factor <-> coset
correspondence explicit, which the rest of the library relies on.  Only
integers leave F_{p^s}: the constant coordinates of the powers of z, from
which Berlekamp-Massey reads each factor off as the shortest recurrence of
a sequence of 2|coset| of them.

Every step is deterministic: F_{p^s} is built on the first irreducible in
encoding order (Ben-Or's test, behind sieves for candidates with a root in
F_p and for binomials), and the root of unity comes from its smallest
multiplicative generator.  The group order p^s - 1 is factored as the
product of the cyclotomic values Phi_d(p), d | s; a candidate is tested
through its norm for the primes of p - 1 and a product tree of powers for
the others.  Quadratic residues follow Euler's criterion at each prime of
the modulus.  Duadic splittings are searched on bitmasks over the cosets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, prod

from ._modpoly import PolyModulus, RPoly, pdivmod, pgcd, pnorm, psub
from .ring import PRIME_EXACT_BELOW, RingSpec, is_prime


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


def _check_modulus(m: int, q: int) -> None:
    """The modulus of cosets, residues and splittings: odd and prime to q."""
    if m % 2 == 0:
        raise ValueError(f"modulus must be odd, got {m}")
    if gcd(m, q) != 1:
        raise ValueError(f"gcd({m}, {q}) != 1")


def cyclotomic_cosets(m: int, q: int) -> CosetPartition:
    _check_modulus(m, q)
    return CosetPartition(m, q, tuple(tuple(c) for c in _orbits(m, q)))


def is_quadratic_residue(q: int, n: int) -> bool:
    """True iff q is a square modulo n.  For odd n and q prime to n, that
    holds iff q is a square mod each prime r of n (Hensel's lemma and the
    Chinese remainder theorem), that is, iff q^((r-1)/2) = 1 mod r (Euler)."""
    _check_modulus(n, q)
    return all(pow(q, (r - 1) // 2, r) == 1 for r in prime_factors(n))


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
    return n < PRIME_EXACT_BELOW and is_prime(n)


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


# Trial divisors _trial_primes tries on one piece before it gives up, about
# 0.3 s of work; on the test and benchmark inputs it never gets past one.
_TRIAL_STEPS = 1 << 21


def _trial_primes(value: int, d: int, p: int, s: int) -> set[int]:
    """Distinct prime divisors of a divisor of Phi_d(p), d | s, by exact trial
    division: such a prime divides d or is 1 mod d.  Stops early once the
    cofactor left is a prime in the exact range of is_prime, and raises
    ValueError after _TRIAL_STEPS divisors rather than take it as prime."""
    primes = set()
    prime_left = _known_prime(value)
    for step, c in enumerate(itertools.chain(prime_factors(d), itertools.count(d + 1, d))):
        if prime_left or c * c > value:
            break
        if step == _TRIAL_STEPS:
            raise ValueError(f"cannot factor p^s - 1 for (p, s) = ({p}, {s}): its piece {value} "
                             f"is neither split by rho nor proven prime by {step} trial divisions")
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
            # is_prime is exact below psi_13; above, False still proves the
            # piece composite, and True only sends it to trial division
            factor = None if is_prime(piece) else _rho_factor(piece)
            if factor is None:
                primes |= _trial_primes(piece, d, p, s)
            else:
                pieces += [factor, piece // factor]
    return sorted(primes)


# Ben-Or takes a gcd at each of the first _BEN_OR_SINGLE steps, where most
# reducible candidates stop, then one per _BEN_OR_BATCH steps and one at the last
_BEN_OR_SINGLE, _BEN_OR_BATCH = 6, 8


def is_irreducible(poly: RPoly) -> bool:
    """Ben-Or irreducibility test for an RPoly over F_p = RingSpec(p, 1): a
    polynomial h of degree s is irreducible iff gcd(x^(p^i) - x, h) = 1 for
    every i <= s/2, that is, iff it has no irreducible factor of degree <= s/2.
    After the first steps one gcd tests the product mod h of a batch of them:
    an irreducible factor of h divides the product iff it divides a factor."""
    if poly.spec.e != 1:
        raise ValueError(f"irreducibility is tested over F_p, not {poly.spec}")
    p = poly.spec.p
    h = list(poly.coeffs)
    s = len(h) - 1
    if s <= 0:
        return False
    ring = PolyModulus(h, p)
    x = r = [0, 1]
    batch = None
    for i in range(1, s // 2 + 1):
        r = ring.pow(r, p)  # x^(p^i) mod h
        batch = psub(r, x, p) if batch is None else ring.mul(batch, psub(r, x, p))
        if i <= _BEN_OR_SINGLE or (i - _BEN_OR_SINGLE) % _BEN_OR_BATCH == 0 or i == s // 2:
            if pgcd(batch, h, p) != [1]:
                return False
            batch = None
    return True


# find_irreducible sieves out the candidates with a nonzero root in F_p only
# for p below this, so that a large p costs no O(p) work per run of p codes.
_ROOT_SIEVE_BELOW = 256


def find_irreducible(p: int, s: int) -> RPoly:
    """First monic irreducible of degree s over F_p, scanning the lower
    coefficients in constant-first base-p encoding order.  A candidate of
    degree s >= 2 with a root is reducible, so it is skipped before Ben-Or's
    test: in a run of p codes sharing the upper part u, c_0 + x*u(x) has the
    root a iff c_0 = -a*u(a), so one evaluation per a marks the run."""
    field = RingSpec(p, 1)
    if s == 1:
        return RPoly(field, (0, 1))
    # x^s - a is irreducible only if every prime factor of s divides p - 1 and
    # p = 1 mod 4 when 4 | s (Lidl & Niederreiter, Theorem 3.75); if not, the
    # first run, the binomials, holds no irreducible and is skipped
    binomials = all((p - 1) % r == 0 for r in prime_factors(s)) and (s % 4 or p % 4 == 1)
    for high in range(0 if binomials else 1, p ** (s - 1)):
        upper = [high // p**j % p for j in range(s - 1)] + [1]
        rooted = {0}
        for a in range(1, p if p < _ROOT_SIEVE_BELOW else 1):
            value = 0
            for c in reversed(upper):
                value = (value * a + c) % p
            rooted.add(-a * value % p)
        for c0 in range(p):
            if c0 not in rooted:
                cand = RPoly(field, (c0, *upper))
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
        return pnorm([code // self.p**j % self.p for j in range(self.s)], self.p)

    def norm(self, c: list[int]) -> int:
        """N(c) = c^((q-1)/(p-1)) of a nonzero c as the resultant Res(h, c),
        by Euclid: Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r)
        for r = a mod b, and Res(a, c0) = c0^(deg a)."""
        p, a, b, res = self.p, self.mod, c, 1
        while len(b) > 1:
            r = pdivmod(a, b, p)[1]
            res = res * (-1) ** ((len(a) - 1) * (len(b) - 1)) * pow(b[-1], len(a) - len(r), p) % p
            a, b = b, r
        return res * pow(b[0], len(a) - 1, p) % p

    def _generates(self, x: list[int], primes: list[int]) -> bool:
        """Whether x^(R/r) != 1 for every r in `primes`, of product R: each
        half is tested on x raised to the product of the other half."""
        if len(primes) == 1:
            return x != [1]
        left, right = primes[: len(primes) // 2], primes[len(primes) // 2 :]
        return (self._generates(self.pow(x, prod(right)), left)
                and self._generates(self.pow(x, prod(left)), right))

    def generator(self) -> list[int]:
        """Smallest multiplicative generator in encoding order: the first c
        with c^((q-1)/r) != 1 for every prime r of q - 1, which is
        N(c)^((p-1)/r) for r | p - 1.  For s > 1 the constants lie in F_p^*
        and cannot generate, so the scan starts at encoding p."""
        primes = _unit_group_primes(self.p, self.s)
        small = [r for r in primes if (self.p - 1) % r == 0]
        large = [r for r in primes if (self.p - 1) % r]
        for code in range(1 if self.s == 1 else self.p, self.order + 1):
            cand = self.element(code)
            norm = self.norm(cand) if small else 0
            if any(pow(norm, (self.p - 1) // r, self.p) == 1 for r in small):
                continue
            if not large or self._generates(self.pow(cand, self.order // prod(large)), large):
                return cand
        raise AssertionError("no generator found")


def _minimal_polynomial(seq: list[int], p: int) -> list[int]:
    """Monic polynomial of the shortest linear recurrence over F_p that
    generates seq, ascending, by Berlekamp-Massey (Massey, IEEE TIT 15(1),
    1969): a recurrence of length L that the sequence has is found from
    its first 2L terms."""
    c, b = [1], [1]  # connection polynomials now and before the last length change
    length, gap, last = 0, 1, 1
    for k in range(len(seq)):
        d = sum(x * y for x, y in zip(c, seq[k::-1])) % p
        if d:
            shifted = [0] * gap + [d * pow(last, -1, p) * y for y in b]
            new = [(x - y) % p for x, y in itertools.zip_longest(c, shifted, fillvalue=0)]
            if 2 * length <= k:
                length, b, last, gap = k + 1 - length, c, d, 0
            c = new
        gap += 1
    c += [0] * (length + 1 - len(c))
    return c[length::-1]


@lru_cache(maxsize=None)
def _ext_field(p: int, s: int) -> _ExtField:
    return _ExtField(p, s)


@lru_cache(maxsize=None)
def factor_xn_minus_1(n: int, p: int) -> tuple[RPoly, ...]:
    """Monic irreducible factors of x^n - 1 over F_p, as RPolys over
    RingSpec(p, 1), one per cyclotomic coset, ordered by ascending minimal
    coset representative.

    The factor for coset Cl(i) is the minimal polynomial of z^i, where z is
    the fixed primitive n-th root of unity g**((p^s - 1)/n) for the smallest
    multiplicative generator g of F_{p^s}.  With c_k the constant coordinate
    of z^k, the terms c_(ik mod n) satisfy every recurrence whose polynomial
    has the root z^i, and the minimal polynomial of z^i is irreducible and
    c_0 = 1, so it is their shortest recurrence, read off 2|Cl(i)| terms.
    """
    field = RingSpec(p, 1)  # raises ValueError unless p is prime
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    if n % p == 0:
        raise ValueError(f"p = {p} divides n = {n}")
    if n == 1:
        return (RPoly(field, (p - 1, 1)),)
    ext = _ext_field(p, ord_mod(n, p))
    zeta = ext.pow(ext.generator(), ext.order // n)
    constants, power = [1], [1]  # c_k, the constant coordinate of z^k, for k < n
    for _ in range(n - 1):
        power = ext.mul(power, zeta)
        constants.append(power[0])
    factors = []
    for coset in _orbits(n, p):
        i = coset[0]
        coeffs = _minimal_polynomial([constants[i * k % n] for k in range(2 * len(coset))], p)
        if len(coeffs) != len(coset) + 1:
            raise AssertionError(f"degree {len(coeffs) - 1} differs from the coset size {len(coset)}")
        factors.append(RPoly(field, tuple(coeffs)))
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

    def __post_init__(self) -> None:
        s1, s2 = frozenset(self.s1), frozenset(self.s2)
        if s1 & s2 or (s1 | s2) != set(range(1, self.m)):
            raise ValueError("S_1, S_2 must partition the nonzero residues")
        if any(not {self.q * x % self.m for x in side} <= side for side in (s1, s2)):
            raise ValueError(f"S_1, S_2 must be unions of {self.q}-cyclotomic cosets mod {self.m}")
        if frozenset(self.a * x % self.m for x in s1) != s2 or frozenset(
            self.a * x % self.m for x in s2
        ) != s1:
            raise ValueError(f"multiplier {self.a} does not swap S_1 and S_2")
        neg = frozenset(-x % self.m for x in s1)
        if (neg == s2) == (neg == s1):
            raise ValueError("negation neither swaps nor fixes the splitting")
        object.__setattr__(self, "given_by_mu_minus1", neg == s2)

    @property
    def invariant_under_mu_minus1(self) -> bool:
        return not self.given_by_mu_minus1

    @classmethod
    def _searched(cls, m: int, q: int, s1: tuple, s2: tuple, a: int, given: bool) -> "Splitting":
        """A splitting find_splittings has proven: no checks of __post_init__."""
        splitting = object.__new__(cls)
        vars(splitting).update(m=m, q=q, s1=s1, s2=s2, a=a, given_by_mu_minus1=given)
        return splitting


# find_splittings lists at most this many coset masks; (45, 19), the largest
# case of the tests and the benchmark pools, lists 8,448
MAX_SPLITTING_MASKS = 1 << 17


def find_splittings(m: int, q: int) -> list[Splitting]:
    """All splittings modulo m for the q-cyclotomic cosets, canonically
    ordered (S_1 contains the coset of 1; list sorted lexicographically by S_1).

    A splitting with witness a exists iff the permutation induced by the
    unit a on the nonzero cosets has only even cycles, and the alternating
    assignments along each cycle enumerate all of them.  The units a and
    a*q induce the same permutation, so the search walks one witness per
    coset, its least member, in ascending order: each splitting keeps the
    least witness of the walk over every unit.  Sides are bitmasks over the
    cosets, expanded once every witness's cycles are known unless there are
    over MAX_SPLITTING_MASKS (ValueError); per-byte tables map each distinct
    mask to its negation before any becomes element tuples.  Returns [] when
    no splitting exists, in particular when q is not a square mod m.
    """
    _check_modulus(m, q)
    if m == 1:
        return []
    cosets = [tuple(c) for c in _orbits(m, q) if c != [0]]
    index = {x: i for i, c in enumerate(cosets) for x in c}
    full = (1 << len(cosets)) - 1
    witnesses = []  # per witness a, per cycle the masks of its even and of its odd positions
    for a in (c[0] for c in cosets):  # ascending, as _orbits lists them
        if a == 1 or gcd(a, m) != 1:
            continue
        perm = [index[a * c[0] % m] for c in cosets]
        seen = [False] * len(cosets)
        halves = []
        for i in range(len(cosets)):
            if seen[i]:
                continue
            half, j, pos = [0, 0], i, 0
            while not seen[j]:
                seen[j] = True
                half[pos % 2] |= 1 << j
                j, pos = perm[j], pos + 1
            if pos % 2:
                break
            halves.append(half)
        else:
            witnesses.append((a, halves))
    if (count := sum(1 << len(halves) for _, halves in witnesses)) > MAX_SPLITTING_MASKS:
        raise ValueError(f"the splitting search mod {m} for q = {q} would list {count} coset masks, "
                         f"above the cap MAX_SPLITTING_MASKS = {MAX_SPLITTING_MASKS}")
    found: dict[int, int] = {}
    for a, halves in witnesses:
        masks = [0]
        for half in halves:
            masks = [x | h for x in masks for h in half]
        for mask in masks:  # bit 0 is the coset of 1, which S_1 holds
            found.setdefault(mask if mask & 1 else full ^ mask, a)
    tables = [[0] for _ in range(0, len(cosets), 8)]  # [g][b]: the image of the cosets 8g + j, j in b
    for i, c in enumerate(cosets):
        tables[i // 8] += [t | 1 << index[-c[0] % m] for t in tables[i // 8]]
    given = {}
    for mask in found:  # the bytes' images are disjoint, so a sum is their union
        image = sum(table[mask >> 8 * g & 255] for g, table in enumerate(tables))
        if image != mask and image != full ^ mask:
            raise ValueError("negation neither swaps nor fixes the splitting")
        given[mask] = image != mask
    sides = []
    for mask, a in found.items():
        s2_s1: tuple[list[int], list[int]] = ([], [])
        for i, c in enumerate(cosets):
            s2_s1[mask >> i & 1].extend(c)
        sides.append((tuple(sorted(s2_s1[1])), tuple(sorted(s2_s1[0])), a, given[mask]))
    return [Splitting._searched(m, q, s1, s2, a, g) for s1, s2, a, g in sorted(sides)]
