import time
import tracemalloc
from dataclasses import fields
from functools import lru_cache
from itertools import compress, count, product
from math import gcd

import pytest
from hypothesis import given, strategies as st

from chaincodes import fieldpoly
from chaincodes._modpoly import pdivmod, pgcd, psub
from chaincodes.fieldpoly import (
    MAX_SPLITTING_MASKS,
    Splitting,
    _ext_field,
    _minimal_polynomial,
    _orbits,
    _unit_group_primes,
    cyclotomic_cosets,
    factor_xn_minus_1,
    find_irreducible,
    find_splittings,
    is_irreducible,
    is_quadratic_residue,
    ord_mod,
    prime_factors,
)
from chaincodes.ring import RingSpec
from chaincodes.ringpoly import RPoly

F2 = RingSpec(2, 1)
F3 = RingSpec(3, 1)


def f3(*coeffs):
    return RPoly(F3, tuple(coeffs))


def test_mul_example():
    # (x - 1)(x + 1) = x^2 + 2 over F_3
    assert f3(2, 1) * f3(1, 1) == f3(2, 0, 1)


def test_gcd_example():
    assert pgcd([2, 0, 1], [2, 1], 3) == [2, 1]


def test_divmod_example():
    # x^3 + 2 = (x + 2)(x^2 + x + 1) over F_3
    q, r = f3(2, 0, 0, 1).divmod_monic(f3(2, 1))
    assert q == f3(1, 1, 1)
    assert r.is_zero()


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        pdivmod([1, 1], [], 3)


def test_ord_mod():
    assert ord_mod(11, 3) == 5
    assert ord_mod(5, 3) == 4
    assert ord_mod(2, 3) == 1
    with pytest.raises(ValueError):
        ord_mod(9, 3)


def test_cyclotomic_cosets_examples():
    part = cyclotomic_cosets(11, 3)
    assert part.cosets == ((0,), (1, 3, 4, 5, 9), (2, 6, 7, 8, 10))
    part = cyclotomic_cosets(5, 3)
    assert part.cosets == ((0,), (1, 2, 3, 4))
    part = cyclotomic_cosets(3, 4)
    assert part.cosets == ((0,), (1,), (2,))
    with pytest.raises(ValueError):
        cyclotomic_cosets(4, 3)
    with pytest.raises(ValueError):
        cyclotomic_cosets(9, 3)


def test_coset_invariants():
    for m, q in ((15, 2), (21, 5), (33, 2)):
        part = cyclotomic_cosets(m, q)
        seen = sorted(x for coset in part.cosets for x in coset)
        assert seen == list(range(m))
        assert (0,) in part.cosets
        for coset in part.cosets:
            assert {x * q % m for x in coset} == set(coset)


def test_quadratic_residue_known_values():
    assert is_quadratic_residue(3, 11)
    assert is_quadratic_residue(2, 31)
    assert is_quadratic_residue(5, 11)


def test_quadratic_residue_brute_force_agreement():
    for n in range(3, 200, 2):
        squares = {y * y % n for y in range(n)}
        for q in range(1, n):
            if gcd(q, n) != 1:
                continue
            assert is_quadratic_residue(q, n) == (q in squares)


def test_quadratic_residue_euler_criterion():
    # independent check against q^((n-1)/2) = 1 for odd primes n
    for n in (3, 5, 7, 11, 13, 31, 97, 199):
        for q in range(1, n):
            assert is_quadratic_residue(q, n) == (pow(q, (n - 1) // 2, n) == 1)


def test_quadratic_residue_keeps_no_table_of_squares():
    # 3,000,001 = 853 * 3517: the set of its squares took 1.2 s and 80 MB
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert not is_quadratic_residue(2, 3_000_001)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1, elapsed
    assert peak < 1 << 20, peak


def test_irreducibility():
    assert is_irreducible(RPoly(F2, (1, 1, 1)))  # x^2 + x + 1
    assert not is_irreducible(RPoly(F2, (1, 0, 1)))  # (x + 1)^2
    assert is_irreducible(f3(1, 0, 1))  # x^2 + 1, -1 not a square mod 3
    assert not is_irreducible(f3(1, 2, 1))  # (x + 1)^2
    with pytest.raises(ValueError):
        is_irreducible(RPoly(RingSpec(3, 2), (1, 0, 1)))


def test_factor_x11_minus_1_mod_3():
    factors = factor_xn_minus_1(11, 3)
    expected = {
        f3(2, 1),
        f3(2, 2, 1, 2, 0, 1),
        f3(2, 0, 1, 2, 1, 1),
    }
    assert set(factors) == expected


def test_factor_x2_minus_1_mod_3():
    assert set(factor_xn_minus_1(2, 3)) == {f3(2, 1), f3(1, 1)}


def test_factor_x31_minus_1_mod_2_profile():
    factors = factor_xn_minus_1(31, 2)
    degrees = sorted(f.degree for f in factors)
    assert degrees == [1] + [5] * 6


def test_factor_errors():
    with pytest.raises(ValueError):
        factor_xn_minus_1(9, 3)


@pytest.mark.parametrize("n,p", [(1, 3), (2, 3), (11, 3), (10, 3), (31, 2), (11, 5), (8, 3), (13, 3)])
def test_factor_invariants(n, p):
    factors = factor_xn_minus_1(n, p)
    orbits = _orbits(n, p)
    assert len(factors) == len(orbits)
    field = RingSpec(p, 1)
    product = RPoly.one(field)
    for f, orbit in zip(factors, orbits):
        assert f.spec == field
        assert f.is_monic()
        assert f.degree == len(orbit)
        product = product * f
    minus_one = RPoly(field, tuple([p - 1] + [0] * (n - 1) + [1]))
    assert product == minus_one
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            assert pgcd(list(factors[i].coeffs), list(factors[j].coeffs), p) == [1]


def minimal_polynomial_by_row_reduction(powers, s, p):
    """The reference: the minimal polynomial over F_p of an element a of
    F_{p^s}, given the coordinates of 1, a, ..., a^d where d is the degree
    of a, as factor_xn_minus_1 found it when it row-reduced them to the
    linear dependency that a^d closes."""
    d = len(powers) - 1
    rows = []
    for k, power in enumerate(powers):
        # the coordinates of a combination of powers, then its coefficients
        row = power + [0] * (s - len(power)) + [int(j == k) for j in range(d + 1)]
        for pivot, basis in rows:
            c = row[pivot]
            if c:
                row = [(x - c * y) % p for x, y in zip(row, basis)]
        pivot = next((j for j in range(s) if row[j]), None)
        if pivot is None:
            assert k == d, f"degree {k} differs from the coset size {d}"
            return row[s:]
        inv = pow(row[pivot], -1, p)
        rows.append((pivot, [x * inv % p for x in row]))
    raise AssertionError(f"no dependency among the first {d + 1} powers")


def test_berlekamp_massey_matches_the_row_reduction_on_every_coset():
    # p^s - 1 has a piece that is neither split by rho nor proven prime for
    # these lengths, so they have no root of unity to test on
    unfactored = {(83, 7), (89, 7), (83, 13), (89, 13)}
    cases = 0
    for p in (2, 3, 5, 7, 13):
        for n in range(1, 100):
            if n % p == 0 or (n, p) in unfactored:
                continue
            s = ord_mod(n, p)
            ext = _ext_field(p, s)
            # any primitive n-th root will do, and one is found without the
            # prime factors of p^s - 1 that ext.generator needs
            for code in count(1):
                zeta = ext.pow(ext.element(code), ext.order // n)
                if all(ext.pow(zeta, n // r) != [1] for r in prime_factors(n)):
                    break
            powers = [[1]]
            for _ in range(n - 1):
                powers.append(ext.mul(powers[-1], zeta))
            for coset in _orbits(n, p):
                i = coset[0]
                expected = minimal_polynomial_by_row_reduction(
                    [powers[i * k % n] for k in range(len(coset) + 1)], s, p)
                constants = [powers[i * k % n][0] for k in range(2 * len(coset))]
                assert _minimal_polynomial(constants, p) == expected, (n, p, coset)
                cases += 1
    assert cases == 2869


@given(st.sampled_from([2, 3, 5]), st.data())
def test_berlekamp_massey_finds_the_shortest_recurrence(p, data):
    seq = data.draw(st.lists(st.integers(0, p - 1), max_size=6))
    poly = _minimal_polynomial(seq, p)

    def generates(f):
        length = len(f) - 1
        return all(sum(c * seq[k - length + j] for j, c in enumerate(f)) % p == 0
                   for k in range(length, len(seq)))

    assert poly[-1] == 1 and generates(poly)
    shorter = ([*low, 1] for length in range(len(poly) - 1) for low in product(range(p), repeat=length))
    assert not any(map(generates, shorter))


def test_splittings_m11_q3():
    found = find_splittings(11, 3)
    assert len(found) == 1
    sp = found[0]
    assert sp.s1 == (1, 3, 4, 5, 9)
    assert sp.s2 == (2, 6, 7, 8, 10)
    assert sp.a == 2
    assert sp.given_by_mu_minus1
    assert not sp.invariant_under_mu_minus1


def test_the_invariant_flag_is_derived_from_the_stored_one():
    sp = find_splittings(13, 3)[0]
    assert [f.name for f in fields(sp)] == ["m", "q", "s1", "s2", "a", "given_by_mu_minus1"]
    assert sp.invariant_under_mu_minus1 is not sp.given_by_mu_minus1
    with pytest.raises(AttributeError):
        sp.invariant_under_mu_minus1 = sp.given_by_mu_minus1


def test_splittings_m11_q5():
    found = find_splittings(11, 5)
    assert len(found) == 1
    assert found[0].given_by_mu_minus1


def test_splittings_empty():
    assert find_splittings(5, 3) == []
    assert find_splittings(1, 3) == []


def test_splittings_m13_q3_both_kinds():
    found = find_splittings(13, 3)
    assert len(found) == 3
    kinds = sorted(sp.given_by_mu_minus1 for sp in found)
    assert kinds == [False, True, True]


@pytest.mark.parametrize("m,q", [(11, 3), (13, 3), (23, 3), (11, 5), (19, 5), (31, 2)])
def test_splitting_invariants(m, q):
    for sp in find_splittings(m, q):
        assert len(sp.s1) == len(sp.s2) == (m - 1) // 2
        assert sp.given_by_mu_minus1 != sp.invariant_under_mu_minus1
        assert {sp.a * x % m for x in sp.s1} == set(sp.s2)
        assert {sp.a * x % m for x in sp.s2} == set(sp.s1)
        assert 1 in sp.s1


def monic_polys(p, s, start=0):
    """Every monic polynomial of degree s over F_p from code `start` on, in
    constant-first base-p encoding order."""
    for code in range(start, p**s):
        yield RPoly(RingSpec(p, 1), tuple(code // p**j % p for j in range(s)) + (1,))


def first_irreducible_by_ben_or(p, s, start=0, test=is_irreducible):
    """The reference scan: every monic candidate of degree s from code `start`
    on goes to Ben-Or's test, with no sieve."""
    return next(cand for cand in monic_polys(p, s, start) if test(cand))


def ben_or_per_step(poly):
    """The reference Ben-Or test: one gcd(x^(p^i) - x, h) for each i <= s/2.
    x^(p^i) mod h comes from r = x^(p^(i-1)) mod h by the Frobenius map of
    F_p[x], r(x)^p = r(x^p), and one schoolbook division."""
    p, h = poly.spec.p, list(poly.coeffs)
    s = len(h) - 1
    if s <= 0:
        return False
    r = [0, 1]
    for _ in range(s // 2):
        spread = [0] * (p * len(r))
        spread[::p] = r
        r = pdivmod(spread, h, p)[1]
        if pgcd(psub(r, [0, 1], p), h, p) != [1]:
            return False
    return True


@lru_cache(maxsize=None)
def per_step_verdicts(p, s):
    """ben_or_per_step on every monic polynomial of degree s over F_p."""
    return tuple(map(ben_or_per_step, monic_polys(p, s)))


def test_batched_ben_or_matches_the_per_step_test():
    for p, s in [(2, 6), (2, 7), (2, 8), (2, 9), (2, 10), (3, 6), (3, 7), (5, 6)]:
        assert tuple(map(is_irreducible, monic_polys(p, s))) == per_step_verdicts(p, s), (p, s)


@pytest.mark.parametrize("single, batch", [(1, 2), (0, 3)])
def test_smaller_ben_or_batches_match_the_per_step_test(monkeypatch, single, batch):
    # below degree 14 is_irreducible takes one gcd per step; rules this small
    # batch the steps of these degrees too
    monkeypatch.setattr(fieldpoly, "_BEN_OR_SINGLE", single)
    monkeypatch.setattr(fieldpoly, "_BEN_OR_BATCH", batch)
    for p, s in [(2, 6), (2, 7), (2, 8), (2, 9), (2, 10), (3, 6)]:
        assert tuple(map(is_irreducible, monic_polys(p, s))) == per_step_verdicts(p, s), (p, s)


def test_batched_ben_or_on_products_of_two_factors_of_degree_at_least_7():
    # the smallest factor has degree 7 or more, so only a gcd after the first
    # 6 steps finds it: for degrees 16 to 20, one over a batch of steps
    irreducibles = {s: list(compress(monic_polys(2, s), per_step_verdicts(2, s))) for s in (7, 8, 9, 10)}
    assert [len(irreducibles[s]) for s in (7, 8, 9, 10)] == [18, 30, 56, 99]
    for f in irreducibles[7][:6] + irreducibles[8][:4]:
        for g in [f] + irreducibles[7][-3:] + irreducibles[9][:3] + irreducibles[10][:3]:  # f * f too
            assert not is_irreducible(f * g) and not ben_or_per_step(f * g), (f, g)


# The fields (p, s) the factor op lists of the benchmark build at seeds 1 and
# 7919, s = ord_n(p) per length n
POOL_FIELDS = {
    2: (2, 3, 6, 8, 9, 10, 11, 12, 14, 18, 20, 21, 58), 3: (4, 5, 6, 11), 5: (2, 4, 5, 6, 16), 7: (3, 4, 10),
    11: (1, 2, 3, 4, 6, 7), 13: (1, 2, 3, 4, 9), 17: (2, 6, 10), 19: (1, 2, 6, 8, 10), 23: (1, 3, 4, 6, 9),
    29: (2, 6), 31: (4, 5, 6, 9), 37: (2, 3, 4, 5, 7), 41: (2, 4, 5, 6, 7), 43: (2, 3, 4, 6),
    47: (1, 2, 4, 5, 6, 7), 53: (2, 3, 4, 6, 7, 8), 59: (2, 5, 6), 61: (1, 2, 3, 6), 67: (1, 2, 3, 4),
    71: (1, 2, 5), 73: (2, 3, 4), 79: (1, 2, 3), 83: (2, 4), 89: (2, 4), 97: (2, 3, 4, 5, 6), 101: (1, 2),
}


def test_find_irreducible_matches_the_per_step_scan_on_the_pool_fields():
    fields = [(p, s) for p, degrees in POOL_FIELDS.items() for s in degrees]
    assert len(fields) == 112
    for p, s in fields:
        assert find_irreducible(p, s) == first_irreducible_by_ben_or(p, s, test=ben_or_per_step), (p, s)


def test_sieves_keep_the_first_irreducible():
    primes = [p for p in range(2, 32) if all(p % d for d in range(2, p))]
    for p in primes:
        for s in range(1, 9):
            assert find_irreducible(p, s) == first_irreducible_by_ben_or(p, s), (p, s)
    # far above the root sieve's bound, where a sieve over all of F_p would
    # take minutes
    big = 10**9 + 7
    assert find_irreducible(big, 2) == first_irreducible_by_ben_or(big, 2)
    # 3 does not divide big - 1, so cubing permutes F_big: each binomial
    # x^3 + c (the codes below big) has a root and the reference may skip them
    assert gcd(3, big - 1) == 1
    assert find_irreducible(big, 3) == first_irreducible_by_ben_or(big, 3, start=big)


def generator_by_every_prime(ext):
    """The reference scan: _ExtField.generator as it was when it raised each
    candidate to (q - 1)/r for every prime r of the group order q - 1."""
    checks = [ext.order // r for r in _unit_group_primes(ext.p, ext.s)]
    for code in range(1 if ext.s == 1 else ext.p, ext.order + 1):
        cand = ext.element(code)
        if all(ext.pow(cand, e) != [1] for e in checks):
            return cand


def test_generator_matches_the_scan_over_every_prime():
    primes = [p for p in range(2, 32) if all(p % d for d in range(2, p))]
    cases = [(p, s) for p in primes for s in range(1, 20) if p**s <= 10**6]
    # two or three field powers where the scan took twelve, and large p
    cases += [(2, 58), (3, 78), (10**9 + 7, 2), (10**9 + 7, 3)]
    assert len(cases) == 80
    for p, s in cases:
        ext = _ext_field(p, s)
        assert ext.generator() == generator_by_every_prime(ext), (p, s)


@given(st.sampled_from([(3, 1), (2, 7), (3, 4), (5, 3), (7, 2), (13, 5), (31, 3), (10**9 + 7, 3)]), st.data())
def test_norm_is_the_power_to_q_minus_1_over_p_minus_1(field, data):
    ext = _ext_field(*field)
    c = ext.element(data.draw(st.integers(1, ext.order)))
    assert [ext.norm(c)] == ext.pow(c, ext.order // (ext.p - 1))


def test_splitting_existence_matches_square_criterion():
    for m in range(3, 36, 2):
        for q in (2, 3, 5):
            if gcd(m, q) != 1:
                continue
            assert bool(find_splittings(m, q)) == is_quadratic_residue(q, m)


def splittings_over_every_unit(m, q):
    """The reference search: find_splittings as it was when it tried every
    unit a in 2..m-1 as a witness, on cosets computed here."""
    cosets = sorted({tuple(sorted({x * pow(q, k, m) % m for k in range(m)})) for x in range(1, m)})
    index = {x: i for i, c in enumerate(cosets) for x in c}
    found = {}
    for a in range(2, m):
        if gcd(a, m) != 1:
            continue
        perm = [index[a * c[0] % m] for c in cosets]
        cycles, seen = [], set()
        for i in range(len(cosets)):
            cycle = []
            while i not in seen:
                seen.add(i)
                cycle.append(i)
                i = perm[i]
            if cycle:
                cycles.append(cycle)
        if any(len(c) % 2 for c in cycles):
            continue
        for flips in product((0, 1), repeat=len(cycles)):
            sides = (set(), set())
            for flip, cycle in zip(flips, cycles):
                for pos, ci in enumerate(cycle):
                    sides[(pos + flip) % 2].update(cosets[ci])
            s1, s2 = (tuple(sorted(side)) for side in sides)
            if 1 in s2:
                s1, s2 = s2, s1
            found.setdefault((s1, s2), a)
    return [Splitting(m, q, s1, s2, a) for (s1, s2), a in sorted(found.items())]


def test_one_witness_per_coset_finds_what_every_unit_finds():
    def outcome(search, m, q):
        try:
            return search(m, q)
        except ValueError as exc:  # a splitting that negation neither swaps nor fixes
            return str(exc)

    cases, raised, split = 0, 0, 0
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for m in range(1, 100, 2):
            if gcd(m, q) != 1 or len(cyclotomic_cosets(m, q).cosets) > 15:  # 14 nonzero
                continue
            expected = outcome(splittings_over_every_unit, m, q)
            assert outcome(find_splittings, m, q) == expected, (m, q)
            cases += 1
            raised += isinstance(expected, str)
            split += isinstance(expected, list) and bool(expected)
    assert (cases, raised, split) == (465, 11, 129)


def test_searched_splittings_equal_the_checked_ones():
    # find_splittings builds its results without the checks of __post_init__;
    # the public constructor must accept each and give the same flags
    cases = 0
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for m in range(1, 100, 2):
            if gcd(m, q) != 1 or len(cyclotomic_cosets(m, q).cosets) > 15:
                continue
            cases += 1
            try:
                found = find_splittings(m, q)
            except ValueError:
                continue
            for sp in found:
                checked = Splitting(sp.m, sp.q, sp.s1, sp.s2, sp.a)
                assert vars(sp) == vars(checked) and hash(sp) == hash(checked), (m, q)
    assert cases == 465


def test_negation_tables_span_several_bytes_of_cosets():
    # 22 and 24 nonzero cosets: the negation images come from three bytes
    for m, q in ((23, 47), (25, 101)):
        assert len(cyclotomic_cosets(m, q).cosets) - 1 > 16
        assert find_splittings(m, q) == splittings_over_every_unit(m, q)


def test_known_defect_splittings_still_raise():
    # the known-defect stratum of the benchmark's factor pool, as (n, p)
    for m, q in ((35, 11), (51, 13), (15, 19), (45, 19), (51, 19), (75, 19)):
        with pytest.raises(ValueError, match="^negation neither swaps nor fixes the splitting$"):
            find_splittings(m, q)


def test_splitting_search_refuses_too_many_masks_before_expanding_them():
    # (51, 103): 33,571,456 masks from the cycle lengths alone
    tracemalloc.start()
    try:
        cap = f"above the cap MAX_SPLITTING_MASKS = {MAX_SPLITTING_MASKS}"
        with pytest.raises(ValueError, match=f"would list 33571456 coset masks, {cap}"):
            find_splittings(51, 103)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_splitting_search_expands_no_masks_for_a_witness_with_an_odd_cycle():
    # 46 cosets mod 69 under 47 and no splitting: the flips of a witness are
    # expanded only once all its cycles are known to be even
    tracemalloc.start()
    try:
        assert find_splittings(69, 47) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_splitting_validation():
    with pytest.raises(ValueError):
        Splitting(11, 3, (1, 2, 3, 4, 5), (6, 7, 8, 9, 10), 2)  # not coset-union swap
    with pytest.raises(ValueError):
        Splitting(11, 3, (1, 3, 4, 5, 9), (2, 6, 7, 8), 2)  # not a partition
    # negation swaps the sides, but 2 * 3 = 6: they are not unions of 2-cyclotomic cosets
    with pytest.raises(ValueError, match="must be unions of 2-cyclotomic cosets mod 7"):
        Splitting(7, 2, (1, 2, 3), (4, 5, 6), 6)
