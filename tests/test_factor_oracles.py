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

from chaincodes.fieldpoly import (
    FqPoly,
    _orbits,
    _unit_group_primes,
    factor_xn_minus_1,
    find_irreducible,
    is_irreducible,
    ord_mod,
)
from chaincodes.ring import RingSpec, is_prime
from chaincodes.ringpoly import lifted_factorization, nth_roots_of_unity

GOLDEN_DIGEST = "ed2aa249fe932be61f9b0e7d27474767b111dd4d2f652442a7c65a5b53db5261"
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
    ]
    return {"lifts": lifts, "irreducibles": irreducibles, "roots": roots}


def test_golden_digest_of_lifts_irreducibles_and_roots():
    doc = _golden_payload()
    assert (len(doc["lifts"]), len(doc["irreducibles"]), len(doc["roots"])) == (438, 72, 480)
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN_DIGEST


def test_unit_group_primes_match_sympy():
    pairs = [(p, s) for p in (2, 3) for s in range(1, 41)]
    pairs += [(p, s) for p in (5, 7, 13, 101) for s in range(1, 13)]
    assert len(pairs) == 128
    for p, s in pairs:
        assert _unit_group_primes(p, s) == sympy.primefactors(p**s - 1), (p, s)


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
    # the least strong pseudoprimes to the first k prime bases, k = 1..11
    # (all below 2**63): _unit_group_primes trusts is_prime on every cofactor
    # below 2**63
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051):
        assert n < 2**63
        assert is_prime(n) == sympy.isprime(n), n


def _monic_polys(p: int, degree: int):
    for low in itertools.product(range(p), repeat=degree):
        yield list(low) + [1]


def _brute_irreducible(poly: list[int], p: int) -> bool:
    """Degree >= 1 and no monic divisor of degree 1 .. deg/2."""
    s = len(poly) - 1
    if s < 1:
        return False
    target = FqPoly(p, tuple(poly))
    for d in range(1, s // 2 + 1):
        for divisor in _monic_polys(p, d):
            if target.divmod(FqPoly(p, tuple(divisor)))[1].is_zero():
                return False
    return True


def test_is_irreducible_matches_brute_force():
    for p, max_degree in ((2, 5), (3, 5), (5, 3)):
        for degree in range(max_degree + 1):
            for poly in _monic_polys(p, degree):
                assert is_irreducible(FqPoly(p, tuple(poly))) == _brute_irreducible(poly, p), (p, poly)


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
