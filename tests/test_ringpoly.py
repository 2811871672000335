import random

import pytest
from hypothesis import given, strategies as st

from chaincodes._modpoly import PolyModulus, padd, pdivmod, pmul, pnorm, pscale, psub
from chaincodes.code import CyclicCode
from chaincodes.fieldpoly import factor_xn_minus_1
from chaincodes.ring import NotAUnit, RingSpec
from chaincodes.ringpoly import (
    LiftError,
    NonUnitConstantTerm,
    NoSuchRoot,
    RPoly,
    hensel_lift_factorization,
    lifted_factorization,
    multiplier_mod,
    nth_roots_of_unity,
    primitive_root_of_unity,
    reciprocal,
    substitute_scaled,
)

Z9 = RingSpec(3, 2)
Z4 = RingSpec(2, 2)
Z25 = RingSpec(5, 2)
F3 = RingSpec(3, 1)


def z9(*coeffs):
    return RPoly(Z9, tuple(coeffs))


def mod_p(f):
    """Coefficient-wise reduction to the residue field F_p."""
    return RPoly(RingSpec(f.spec.p, 1), f.coeffs)


# Canonical coefficients of the degree-5 lifted factors of x^11 - 1 over Z_9.
G1_Z9 = z9(8, 2, 1, 8, 3, 1)  # x^5 + 3x^4 + 8x^3 + x^2 + 2x + 8
G2_Z9 = z9(8, 6, 1, 8, 7, 1)  # x^5 + 7x^4 + 8x^3 + x^2 + 6x + 8


def schoolbook(a, b, m):
    """The reference product: pmul as it was before packing, one integer
    product per pair of coefficients."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return pnorm(out, m)


# (m, deg(mod), slot width): the slots hold 2 deg(mod) m^2, in 1, 2, 4 and 8
# bytes (machine words; 3 and 5 bytes round up) and in 16 bytes (converted
# one by one)
@pytest.mark.parametrize("m, d, width", [
    (3, 4, 1), (13, 6, 2), (2, 58, 2), (101, 10, 4), (65537, 4, 8), (10**9 + 7, 3, 8),
    (2**61 - 1, 3, 16),
])
def test_poly_modulus_matches_schoolbook_and_division(m, d, width):
    rng = random.Random(m + d)
    mod = [rng.randrange(m) for _ in range(d)] + [1]
    ring = PolyModulus(mod, m)
    assert ring.width == width
    for _ in range(10):
        a = pnorm([rng.randrange(m) for _ in range(d)], m)
        b = pnorm([rng.randrange(m) for _ in range(d)], m)
        assert ring.mul(a, b) == pdivmod(schoolbook(a, b, m), mod, m)[1]
        e = rng.randrange(3 * m)
        expected = [1]
        for bit in bin(e)[2:]:
            expected = pdivmod(schoolbook(expected, expected, m), mod, m)[1]
            if bit == "1":
                expected = pdivmod(schoolbook(expected, a, m), mod, m)[1]
        assert ring.pow(a, e) == expected


def test_packed_pmul_matches_schoolbook_on_both_sides_of_the_threshold():
    # pmul packs from (min(len) - 1) * max(len) = 48 on, when min(len) (m-1)^2
    # fits in 8 bytes; the inputs are unreduced and negative
    rng = random.Random(15)
    shapes = [(4, 4), (7, 7), (7, 8), (8, 7), (1, 100), (2, 47), (48, 2), (3, 24), (46, 3), (46, 46)]
    for la, lb in shapes:
        for m in (2, 3, 2197, 65537, 10**9 + 7, 2**61 - 1):
            for bound in (m, 10**30):
                a = [rng.randrange(-bound + 1, bound) for _ in range(la)]
                b = [rng.randrange(-bound + 1, bound) for _ in range(lb)]
                assert pmul(a, b, m) == schoolbook(a, b, m), (la, lb, m)


@given(st.lists(st.integers(-(10**20), 10**20), max_size=40),
       st.lists(st.integers(-(10**20), 10**20), max_size=40),
       st.sampled_from([2, 9, 2197, 10**9 + 7]))
def test_pmul_matches_schoolbook(a, b, m):
    assert pmul(a, b, m) == schoolbook(a, b, m)


def test_mul_telescoping():
    assert z9(8, 1) * z9(1, 1, 1, 1, 1) == z9(8, 0, 0, 0, 0, 1)


def test_divmod_monic():
    whole = RPoly.xn_minus_1(Z9, 11)
    q, r = whole.divmod_monic(z9(8, 1))
    assert q == z9(*([1] * 11))
    assert r.is_zero()


def test_divmod_requires_monic():
    with pytest.raises(ValueError):
        z9(1, 1).divmod_monic(z9(1, 3))


def test_factorization_product_over_z9():
    assert G1_Z9 * G2_Z9 * z9(8, 1) == RPoly.xn_minus_1(Z9, 11)


def test_reciprocal_self():
    assert reciprocal(z9(8, 1)) == z9(8, 1)


def test_reciprocal_pairs_the_lifted_factors():
    assert reciprocal(G1_Z9) == G2_Z9
    assert reciprocal(G2_Z9) == G1_Z9


def test_reciprocal_non_unit_constant():
    with pytest.raises(NonUnitConstantTerm):
        reciprocal(z9(3, 1))


def test_reciprocal_double_is_identity_for_monic():
    f = z9(2, 5, 0, 1)
    assert reciprocal(reciprocal(f)) == f


coeff_lists = st.lists(st.integers(0, 8), min_size=1, max_size=6)


@given(coeff_lists, coeff_lists)
def test_reciprocal_multiplicative(a, b):
    # Unit leading coefficients keep deg(f*g) = deg f + deg g; with a
    # zero-divisor lead the product degree collapses and the identity
    # genuinely fails, e.g. (3x+1)^2 = 6x+1 over Z_9.
    f, g = z9(*a), z9(*b)
    if f.is_zero() or g.is_zero():
        return
    if not (Z9.is_unit(f.coeffs[0]) and Z9.is_unit(g.coeffs[0])):
        return
    if not (Z9.is_unit(f.coeffs[-1]) and Z9.is_unit(g.coeffs[-1])):
        return
    assert reciprocal(f * g) == reciprocal(f) * reciprocal(g)


def test_reciprocal_multiplicativity_fails_on_degree_collapse():
    f = z9(1, 3)
    assert reciprocal(f * f) != reciprocal(f) * reciprocal(f)


def test_substitute_alternating():
    f = z9(1, 1, 1, 1, 1)
    assert substitute_scaled(f, Z9.element(8)) == z9(1, 8, 1, 8, 1)


def test_substitute_identity():
    f = z9(5, 0, 3, 1)
    assert substitute_scaled(f, Z9.element(1)) == f


def test_substitute_normalized_z25():
    f = RPoly(Z25, (24, 1))  # x - 1
    out = substitute_scaled(f, Z25.element(7), normalize_monic=True)
    assert out == RPoly(Z25, (7, 1))  # monic generator of <7x - 1> is x + 7


def test_substitute_involution_without_normalization():
    f = z9(2, 7, 1, 5)
    lam = Z9.element(4)
    inv = Z9.element(Z9.inverse(4))
    assert substitute_scaled(substitute_scaled(f, lam), inv) == f


def test_substitute_non_unit():
    with pytest.raises(NotAUnit):
        substitute_scaled(z9(1, 1), Z9.element(3))


def test_multiplier_identity():
    f = z9(1, 2, 3)
    assert multiplier_mod(f, 1, 5) == f


def test_multiplier_negation():
    assert multiplier_mod(z9(0, 1), -1 % 5, 5) == z9(0, 0, 0, 0, 1)
    assert multiplier_mod(z9(1, 1, 1), -1 % 5, 5) == z9(1, 0, 0, 1, 1)


def test_multiplier_gcd_error():
    with pytest.raises(ValueError):
        multiplier_mod(z9(0, 1), 5, 10)


def test_hensel_lift_z9():
    lifted = hensel_lift_factorization(list(factor_xn_minus_1(11, 3)), 11, Z9)
    assert set(lifted) == {z9(8, 1), G1_Z9, G2_Z9}


def test_hensel_lift_z4_matches_printed_factors():
    spec = Z4

    def z4(*coeffs):
        return RPoly(spec, tuple(coeffs))

    printed = {
        z4(3, 1),
        z4(3, 2, 3, 0, 0, 1),
        z4(3, 3, 1, 3, 2, 1),
        z4(3, 3, 1, 0, 3, 1),
        z4(3, 0, 0, 1, 2, 1),
        z4(3, 1, 0, 3, 1, 1),
        z4(3, 2, 1, 3, 1, 1),
    }
    lifted = hensel_lift_factorization(list(factor_xn_minus_1(31, 2)), 31, spec)
    assert set(lifted) == printed


def test_hensel_lift_z25_matches_printed_factors():
    printed = {
        RPoly(Z25, (24, 1)),
        RPoly(Z25, (24, 16, 1, 24, 17, 1)),
        RPoly(Z25, (24, 8, 1, 24, 9, 1)),
    }
    lifted = hensel_lift_factorization(list(factor_xn_minus_1(11, 5)), 11, Z25)
    assert set(lifted) == printed


def test_hensel_reduction_matches_inputs():
    for n, spec in ((11, Z9), (31, Z4), (11, Z25), (10, Z9), (8, RingSpec(3, 4))):
        inputs = list(factor_xn_minus_1(n, spec.p))
        lifted = hensel_lift_factorization(inputs, n, spec)
        product = RPoly.one(spec)
        for f, g in zip(inputs, lifted):
            assert g.is_monic()
            assert mod_p(g) == f
            product = product * g
        assert product == RPoly.xn_minus_1(spec, n)


def test_hensel_lift_order_independent():
    inputs = list(factor_xn_minus_1(11, 3))
    forward = hensel_lift_factorization(inputs, 11, Z9)
    backward = hensel_lift_factorization(inputs[::-1], 11, Z9)
    assert forward == backward[::-1]


def test_hensel_bar_compatibility():
    # reciprocal then reduce equals reduce then field-level reciprocal
    for g in hensel_lift_factorization(list(factor_xn_minus_1(11, 3)), 11, Z9):
        reduced = mod_p(g)
        inv = pow(reduced.coeffs[0], -1, 3)
        field_recip = RPoly(F3, tuple(inv * c % 3 for c in reversed(reduced.coeffs)))
        assert mod_p(reciprocal(g)) == field_recip


def _xgcd(a, b, p):
    """Extended gcd over F_p: (g, s, t) with s*a + t*b = g and g monic."""
    r0, r1, s0, s1, t0, t1 = pnorm(a, p), pnorm(b, p), [1], [], [], [1]
    while r1:
        q, r = pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, psub(s0, pmul(q, s1, p), p)
        t0, t1 = t1, psub(t0, pmul(q, t1, p), p)
    inv = pow(r0[-1], -1, p)
    return pscale(r0, inv, p), pscale(s0, inv, p), pscale(t0, inv, p)


def peel_lift(factors, n, spec):
    """The reference lift: hensel_lift_factorization as it was when it peeled
    the factors off one at a time, lifting each split F = G*H of the part
    left with the Bezout certificate of an extended gcd over F_p."""
    p, m = spec.p, spec.modulus
    lifted, remaining = [], list(RPoly.xn_minus_1(spec, n).coeffs)
    for f in factors[:-1]:
        gbar = list(f.coeffs)
        hbar = pdivmod(pnorm(remaining, p), gbar, p)[0]
        one, s_co, t_co = _xgcd(gbar, hbar, p)
        assert one == [1]
        big_g, big_h = list(gbar), list(hbar)
        for k in range(1, spec.e):
            delta = pnorm([d // p**k % p for d in psub(remaining, pmul(big_g, big_h, m), m)], p)
            big_g = padd(big_g, pscale(pdivmod(pmul(t_co, delta, p), gbar, p)[1], p**k, m), m)
            big_h = padd(big_h, pscale(pdivmod(pmul(s_co, delta, p), hbar, p)[1], p**k, m), m)
        assert psub(remaining, pmul(big_g, big_h, m), m) == []
        lifted.append(RPoly(spec, tuple(big_g)))
        remaining = big_h
    return lifted + [RPoly(spec, tuple(remaining))]


def assert_closed_form_bezout(factors, n):
    """s = x * f' / n mod f inverts (x^n - 1)/f modulo every member f."""
    field = factors[0].spec
    big_f = RPoly.xn_minus_1(field, n)
    for f in factors:
        x_df = RPoly(field, tuple(i * c for i, c in enumerate(f.coeffs)))
        s = RPoly(field, tuple(c * pow(n, -1, field.p) for c in x_df.coeffs)).divmod_monic(f)[1]
        residue = (s * big_f.divmod_monic(f)[0]).divmod_monic(f)[1]
        assert residue.is_one() or (f.is_one() and residue.is_zero()), (f, n)


def test_all_at_once_lift_matches_the_peel_lift():
    cases = 0
    for p in (2, 3, 5, 7, 13):
        for n in range(1, 50):
            if n % p == 0:
                continue
            residues = list(factor_xn_minus_1(n, p))
            assert_closed_form_bezout(residues, n)
            for e in (2, 3, 4):
                spec = RingSpec(p, e)
                assert hensel_lift_factorization(residues, n, spec) == peel_lift(residues, n, spec), (p, e, n)
                cases += 1
    assert cases == 3 * (49 - 24 + 49 - 16 + 49 - 9 + 49 - 7 + 49 - 3)


def test_hensel_lift_recovers_code_families():
    # a code's family is the unique lift of its residues mod p, members 1
    # and x^n - 1 included, whose closed-form Bezout coefficients are 0 and 1
    x_minus_1 = z9(8, 1)
    Z27 = RingSpec(3, 3)
    g27 = [f for _, _, f in lifted_factorization(11, Z27)]
    codes = [
        CyclicCode.zero(Z9, 11),
        CyclicCode.whole_space(Z9, 11),
        CyclicCode.from_two_stage(x_minus_1 * G1_Z9, G1_Z9, 1, 11),
        CyclicCode.zero(Z27, 11),
        CyclicCode.from_two_stage(g27[0] * g27[1], g27[1], 2, 11),
        CyclicCode.from_two_stage(g27[0] * g27[2], g27[0], 1, 11),
        CyclicCode.zero(RingSpec(2, 4), 7),
        CyclicCode.whole_space(RingSpec(13, 2), 4),
    ]
    for code in codes:
        residues = [mod_p(f) for f in code.F]
        assert_closed_form_bezout(residues, code.n)
        lifted = hensel_lift_factorization(residues, code.n, code.spec)
        assert lifted == peel_lift(residues, code.n, code.spec) == list(code.F)


def test_hensel_errors():
    with pytest.raises(LiftError):
        hensel_lift_factorization([RPoly(F3, (2, 1)), RPoly(F3, (2, 1))], 2, Z9)
    with pytest.raises(LiftError):
        hensel_lift_factorization([RPoly(F3, (1, 1))], 2, Z9)
    with pytest.raises(LiftError):
        hensel_lift_factorization(list(factor_xn_minus_1(2, 3)), 3, Z9)
    with pytest.raises(LiftError, match="all factors must be monic"):
        hensel_lift_factorization([RPoly(F3, (2, 1)), RPoly(F3, (2, 2))], 2, Z9)
    with pytest.raises(LiftError, match="factor characteristic does not match the ring"):
        hensel_lift_factorization(list(factor_xn_minus_1(2, 5)), 2, Z9)


def test_primitive_root_examples():
    assert primitive_root_of_unity(2, Z9).value == 8
    assert primitive_root_of_unity(4, Z25).value == 7
    with pytest.raises(NoSuchRoot):
        primitive_root_of_unity(4, Z9)


def test_primitive_root_brute_force_agreement():
    for spec, order in (
        (Z9, 2),
        (Z25, 2),
        (Z25, 4),
        (RingSpec(13, 2), 4),
        (RingSpec(17, 1), 16),
        (RingSpec(97, 2), 32),
        (RingSpec(257, 2), 256),
    ):
        alpha = primitive_root_of_unity(order, spec)
        m = spec.modulus
        brute = min(
            u
            for u in range(1, m)
            if u % spec.p and pow(u, order, m) == 1 and (order == 1 or pow(u, order // 2, m) != 1)
        )
        assert alpha.value == brute


def test_nth_roots_examples():
    assert [r.value for r in nth_roots_of_unity(10, Z9)] == [1, 8]
    assert [r.value for r in nth_roots_of_unity(1, Z9)] == [1]
    assert [r.value for r in nth_roots_of_unity(4, Z25)] == [1, 7, 18, 24]
    # p | n is refused at once, as by every code; a scan of the 2^24 residues took 2 s
    with pytest.raises(ValueError, match="p = 2 divides n = 2"):
        nth_roots_of_unity(2, RingSpec(2, 24))


def test_nth_roots_of_unity_returns_a_fresh_list():
    # the values are cached per (n, spec); a caller's list is its own
    roots = nth_roots_of_unity(4, Z25)
    roots.clear()
    assert [r.value for r in nth_roots_of_unity(4, Z25)] == [1, 7, 18, 24]


def test_lifted_factorization_cache_consistency():
    triples = lifted_factorization(11, Z9)
    assert [t[0] for t in triples] == [(0,), (1, 3, 4, 5, 9), (2, 6, 7, 8, 10)]
    for coset, residue, lifted in triples:
        assert mod_p(lifted) == residue
        assert residue.degree == len(coset)
