"""Independent oracles and a golden digest for the factor -> lift -> roots core.

The golden digest was recorded on the brute-force implementations this core
replaced (Rabin's test, a full generator scan, a residue scan for roots), so
it pins the irreducible chosen for each extension field, the root of unity
zeta, the factor order and every lifted coefficient.
"""

import hashlib
import itertools
import json
import time
from math import gcd

import numpy as np
import pytest
import sympy

from chaincodes._modpoly import pdivmod
from chaincodes.fieldpoly import (
    _orbits,
    _trial_primes,
    _unit_group_primes,
    factor_xn_minus_1,
    find_irreducible,
    is_irreducible,
    ord_mod,
)
from chaincodes.ring import PRIME_EXACT_BELOW, RingSpec, is_prime
from chaincodes.ringpoly import RPoly, lifted_factorization, nth_roots_of_unity

GOLDEN_DIGEST = "58f5e47a071eb01715a5607d917748bba2e9ded5eccd7db480f372bd21a3ead4"
GOLDEN_LIFT_PRIMES = (2, 3, 5, 7, 11, 13)
GOLDEN_ROOT_SPECS = (
    (2, 1), (2, 3), (2, 6), (3, 1), (3, 4), (5, 3), (7, 2), (13, 2),
    (101, 2), (1009, 1), (1009, 2), (3, 7),
)


def _golden_payload() -> dict:
    lifts = []
    for p in GOLDEN_LIFT_PRIMES:
        for n in range(1, 64):
            if gcd(n, p) != 1 or p ** ord_mod(n, p) >= 2**40:
                continue
            for e in (2, 3):
                triples = lifted_factorization(n, RingSpec(p, e))
                lifts.append(
                    [p, e, n, [[list(c), list(r.coeffs), list(f.coeffs)] for c, r, f in triples]]
                )
    irreducibles = [
        [p, s, list(find_irreducible(p, s).coeffs)]
        for p in (2, 3, 5, 7, 11, 13)
        for s in range(1, 13)
    ]
    roots = [
        [p, e, n, [r.value for r in nth_roots_of_unity(n, RingSpec(p, e))]]
        for p, e in GOLDEN_ROOT_SPECS
        for n in range(1, 41)
        if n % p  # a length divisible by p has no roots: it is refused
    ]
    return {"lifts": lifts, "irreducibles": irreducibles, "roots": roots}


def test_golden_digest_of_lifts_irreducibles_and_roots():
    doc = _golden_payload()
    assert (len(doc["lifts"]), len(doc["irreducibles"]), len(doc["roots"])) == (438, 72, 365)
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN_DIGEST


def test_unit_group_primes_match_sympy():
    pairs = [(p, s) for p in (2, 3) for s in range(1, 41)]
    pairs += [(p, s) for p in (5, 7, 13, 101) for s in range(1, 13)]
    assert len(pairs) == 128
    for p, s in pairs:
        assert _unit_group_primes(p, s) == sympy.primefactors(p**s - 1), (p, s)


def test_trial_primes_divides_out_each_prime():
    # Phi_11(2) = 2047 = 23 x 89, both 1 mod 11; Phi_3(7) = 57 = 3 x 19, and 3 divides d
    assert _trial_primes(2047, 11, 2, 11) == {23, 89}
    assert _trial_primes(57, 3, 7, 3) == {3, 19}
    for p in (2, 3, 5, 7, 11, 13):
        for d in range(1, 25):
            value = int(sympy.cyclotomic_poly(d, p))
            assert sorted(_trial_primes(value, d, p, d)) == sympy.primefactors(value), (p, d)


@pytest.mark.parametrize(
    "p, s, second_largest, seconds",
    [
        # after 59, Phi_29(7) is 127540261 x 71316922984999: trial division
        # alone walks to 127540261 (about 0.5 s)
        (7, 29, 127540261, 0.25),
        # Phi_59(3) = 14425532687 x 489769993189671059: trial division alone
        # walks 2.4e8 candidates 1 mod 59 (over a minute)
        (3, 59, 14425532687, 5.0),
    ],
)
def test_unit_group_primes_split_large_cofactors_in_bounded_time(p, s, second_largest, seconds):
    start = time.perf_counter()
    primes = _unit_group_primes(p, s)
    elapsed = time.perf_counter() - start
    assert primes == sympy.primefactors(p**s - 1)
    assert sorted(sympy.factorint(p**s - 1))[-2] == second_largest
    assert elapsed < seconds, elapsed


def test_is_prime_matches_sympy_on_strong_pseudoprimes():
    # the least strong pseudoprimes to the first k prime bases, k = 1..12
    # (all below psi_13): _unit_group_primes trusts is_prime on every cofactor
    # below psi_13.  The last, psi_12, passes the first 12 bases; base 41
    # proves it composite.
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 318665857834031151167461):
        assert n < PRIME_EXACT_BELOW
        assert is_prime(n) == sympy.isprime(n), n


def test_unit_group_primes_trust_is_prime_below_psi_13():
    # Phi_96(5) is 97 times the prime 240031591394168814433, which lies above
    # 2^63; certifying it by trial division to its square root took 50 s
    primes = _unit_group_primes(5, 96)
    assert 240031591394168814433 in primes
    rest = 5**96 - 1
    for q in primes:
        assert sympy.isprime(q), q
        while rest % q == 0:
            rest //= q
    assert rest == 1


def _monic_polys(p: int, degree: int):
    for low in itertools.product(range(p), repeat=degree):
        yield list(low) + [1]


def _brute_irreducible(poly: list[int], p: int) -> bool:
    """Degree >= 1 and no monic divisor of degree 1 .. deg/2."""
    s = len(poly) - 1
    if s < 1:
        return False
    for d in range(1, s // 2 + 1):
        for divisor in _monic_polys(p, d):
            if not pdivmod(poly, divisor, p)[1]:
                return False
    return True


def test_is_irreducible_matches_brute_force():
    for p, max_degree in ((2, 5), (3, 5), (5, 3)):
        for degree in range(max_degree + 1):
            for poly in _monic_polys(p, degree):
                candidate = RPoly(RingSpec(p, 1), tuple(poly))
                assert is_irreducible(candidate) == _brute_irreducible(poly, p), (p, poly)


def _residue_scan_roots(p: int, e: int, n_max: int) -> dict[int, list[int]]:
    """n -> the units u of Z_{p^e} with u^n = 1, by scanning every residue."""
    m = p**e
    units = np.array([u for u in range(1, m) if u % p], dtype=np.int64)
    power = units.copy()
    out = {}
    for n in range(1, n_max + 1):
        out[n] = units[power == 1].tolist()
        power = power * units % m
    return out


def test_nth_roots_match_residue_scan():
    checked = 0
    for p in sympy.primerange(2, 3001):
        e = 1
        while p**e <= 3000:
            spec = RingSpec(p, e)
            expected = _residue_scan_roots(p, e, 60)
            for n in range(1, 61):
                if gcd(n, p) == 1:
                    assert [r.value for r in nth_roots_of_unity(n, spec)] == expected[n], (p, e, n)
                    checked += 1
            e += 1
    assert checked > 20_000


def test_residue_factors_match_sympy():
    x = sympy.Symbol("x")
    for p in (2, 3, 5, 7):
        for n in range(1, 61):
            if gcd(n, p) != 1:
                continue
            _, pairs = sympy.Poly(x**n - 1, x, modulus=p).factor_list()
            expected = sorted(
                tuple(int(c) % p for c in reversed(f.all_coeffs()))
                for f, multiplicity in pairs
                for _ in range(multiplicity)
            )
            factors = factor_xn_minus_1(n, p)
            assert sorted(f.coeffs for f in factors) == expected, (p, n)
            assert [f.degree for f in factors] == [len(c) for c in _orbits(n, p)], (p, n)
