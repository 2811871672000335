from math import gcd

import pytest

from chaincodes import _modpoly, fieldpoly, ringpoly
from chaincodes.cli import CONSTRUCTION_KINDS, build_construction
from chaincodes.code import Codeword, CyclicCode
from chaincodes.constructions import (
    all_claims_hold,
    duadic_lift,
    duadic_pair,
    oddlike_generator_matrix,
    remark46_code,
    thm42_isodual,
    thm44_isodual,
    thm510_isodual,
    two_stage_generator_matrix,
    verify_result,
)
from chaincodes.exhaustive import min_weight_direct
from chaincodes.fieldpoly import find_splittings
from chaincodes.ring import RingSpec
from chaincodes.ringpoly import (
    NoSuchRoot,
    RPoly,
    primitive_root_of_unity,
    substitute_scaled,
)

Z9 = RingSpec(3, 2)
Z4 = RingSpec(2, 2)
Z25 = RingSpec(5, 2)
Z27 = RingSpec(3, 3)


def z9(*coeffs):
    return RPoly(Z9, tuple(coeffs))


def test_thm42_length10_reference_generators():
    result = thm42_isodual(5, 1, Z9)
    assert result.by_label("G_1").free_generator() == z9(8, 2, 7, 2, 7, 1)
    assert result.by_label("G_2").free_generator() == z9(1, 2, 2, 2, 2, 1)


def test_thm42_trivial_m():
    result = thm42_isodual(1, 1, Z9)
    assert result.by_label("G_1").free_generator() == z9(8, 1)
    assert result.by_label("G_2").free_generator() == z9(1, 1)
    assert result.by_label("G_1").n == 2


def test_thm42_a2_z25_certified():
    # a = 2 needs a 4th root of unity (alpha = 7 over Z_25); m = 3 keeps
    # the length coprime to p
    result = thm42_isodual(3, 2, Z25)
    assert result.params["alpha"] == 7
    reports = verify_result(result, budget=600000)
    assert all_claims_hold(reports)
    for entry in result.codes:
        assert entry.code.n == 12
        assert entry.code.free_generator().degree == 6


def test_thm42_rejects_length_sharing_p():
    with pytest.raises(ValueError):
        thm42_isodual(5, 2, Z25)  # p = 5 divides m


def test_thm42_requires_root_of_unity():
    with pytest.raises(NoSuchRoot):
        thm42_isodual(5, 2, Z9)  # 3 != 1 mod 4


def test_thm42_rejects_p_dividing_m():
    with pytest.raises(ValueError):
        thm42_isodual(3, 1, Z9)


REF22_GEN_A = z9(8, 6, 0, 8, 6, 3, 4, 5, 0, 1, 5, 8)
REF22_GEN_B = z9(1, 5, 8, 0, 4, 4, 6, 6, 1, 0, 3, 8)


def test_thm44_length22_reference_generators_up_to_unit():
    g1, g2 = duadic_pair(11, Z9, find_splittings(11, 3)[0])
    result = thm44_isodual(11, 1, Z9, g1, g2)
    assert len(result.codes) == 4
    produced = {entry.code.free_generator() for entry in result.codes}
    assert REF22_GEN_A.monic() in produced
    assert REF22_GEN_B.monic() in produced
    for entry in result.codes:
        assert entry.code.n == 22
        assert entry.code.free_generator().degree == 11


def test_thm44_rejects_degenerate_factor():
    g1 = RPoly.xn_minus_1(Z9, 11).divmod_monic(z9(8, 1))[0]
    with pytest.raises(ValueError):
        thm44_isodual(11, 1, Z9, g1, RPoly.one(Z9))


def test_thm44_rejects_bad_product():
    with pytest.raises(ValueError):
        thm44_isodual(11, 1, Z9, z9(8, 1), z9(1, 1))


def test_remark46_code():
    code = remark46_code(5, 1, Z9)
    assert code.free_generator() == z9(8, 0, 0, 0, 0, 1)
    assert code.n == 10
    dual_gen = code.dual().free_generator()
    assert dual_gen == z9(1, 0, 0, 0, 0, 1)
    assert min_weight_direct(code).weight == 2


def test_duadic_lift_z9_self_dual():
    result = duadic_lift(11, Z9, find_splittings(11, 3)[0])
    reports = verify_result(result, budget=200000)
    assert all_claims_hold(reports)
    assert result.by_label("E_1").is_self_dual()
    assert result.by_label("E_2").is_self_dual()
    assert result.by_label("E_1").cardinality_log() == 11


def test_duadic_lift_z4_self_dual():
    splittings = find_splittings(31, 2)
    assert len(splittings) == 4
    for sp in splittings:
        assert sp.given_by_mu_minus1
    result = duadic_lift(31, Z4, splittings[0])
    e1 = result.by_label("E_1")
    assert e1.is_self_dual()
    assert e1.cardinality_log() == 31


def test_duadic_lift_odd_e_omits_two_stage():
    result = duadic_lift(11, Z27, find_splittings(11, 3)[0])
    assert set(result.labels()) == {"D'_1", "D'_2", "C'_1", "C'_2"}
    assert result.params["notes"]


def test_duadic_dual_relations_reported():
    result = duadic_lift(11, Z9, find_splittings(11, 3)[0])
    reports = verify_result(result, budget=200000)
    # this splitting is given by negation: each D'_i pairs with its own C'_i
    assert reports["D'_1"]["dual_is"] == "C'_1"
    assert reports["D'_2"]["dual_is"] == "C'_2"


def test_duadic_residues_match_field_level_generators():
    # the lifted pair reduces to the products of the coset factors over F_p
    from chaincodes.ringpoly import RPoly, lifted_factorization

    sp = find_splittings(11, 3)[0]
    g1, g2 = duadic_pair(11, Z9, sp)
    field = {t[0]: t[1] for t in lifted_factorization(11, Z9)}
    f1 = f2 = RPoly.one(RingSpec(3, 1))
    for coset, factor in field.items():
        if set(coset) <= set(sp.s1):
            f1 = f1 * factor
        elif set(coset) <= set(sp.s2):
            f2 = f2 * factor
    assert RPoly(RingSpec(3, 1), g1.coeffs) == f1
    assert RPoly(RingSpec(3, 1), g2.coeffs) == f2


def test_duadic_rejects_mismatched_splitting():
    sp = find_splittings(11, 3)[0]
    with pytest.raises(ValueError):
        duadic_pair(11, Z25, sp)  # splitting is for q = 3, ring has p = 5


def test_duadic_equivalence_of_odd_like_pair():
    sp = find_splittings(11, 3)[0]
    result = duadic_lift(11, Z9, sp)
    d1, d2 = result.by_label("D'_1"), result.by_label("D'_2")
    assert d1.apply_multiplier(sp.a) == d2
    e1, e2 = result.by_label("E_1"), result.by_label("E_2")
    assert e1.apply_multiplier(sp.a) == e2


def test_oddlike_matrix_spans_d_code():
    result = duadic_lift(11, Z9, find_splittings(11, 3)[0])
    c1, d1 = result.by_label("C'_1"), result.by_label("D'_1")
    matrix = oddlike_generator_matrix(c1)
    for row in matrix:
        assert d1.contains(Codeword(Z9, tuple(row)))
    # span size: |C'_1| * p^t where t is minimal with p^t * all-ones in C'_1
    t = next(
        t for t in range(Z9.e + 1) if c1.contains(Codeword(Z9, (pow(3, t, 9),) * 11))
    )
    assert c1.cardinality_log() + t == d1.cardinality_log()


def test_two_stage_matrix_spans_e_code():
    result = duadic_lift(11, Z9, find_splittings(11, 3)[0])
    c1, e1 = result.by_label("C'_1"), result.by_label("E_1")
    matrix = two_stage_generator_matrix(c1)
    assert matrix[-1] == [3] * 11
    for row in matrix:
        assert e1.contains(Codeword(Z9, tuple(row)))
    assert not c1.contains(Codeword(Z9, (3,) * 11))
    # span adds exactly one p-adic digit along the all-ones direction
    assert c1.cardinality_log() + 1 == e1.cardinality_log()


def test_two_stage_matrix_requires_even_e():
    result = duadic_lift(11, Z27, find_splittings(11, 3)[0])
    with pytest.raises(ValueError):
        two_stage_generator_matrix(result.by_label("C'_1"))


def test_thm510_z25_labels_and_claims():
    sp = find_splittings(11, 5)[0]
    result = thm510_isodual(11, 1, Z25, sp)
    assert set(result.labels()) == {
        "C_12", "C'_12", "C_21", "C'_21", "C_1", "C'_1", "C_2", "C'_2",
    }
    for entry in result.codes:
        assert entry.claims == ("isodual",)
        assert entry.code.free_generator().degree == 11
        cert = entry.code.certify_isodual()
        assert cert is not None


def test_thm510_mixed_codes_match_thm44():
    sp = find_splittings(11, 5)[0]
    g1, g2 = duadic_pair(11, Z25, sp)
    via_510 = thm510_isodual(11, 1, Z25, sp)
    via_44 = thm44_isodual(11, 1, Z25, g1, g2)
    for label in ("C_12", "C'_12", "C_21", "C'_21"):
        assert via_510.by_label(label) == via_44.by_label(label)


def test_thm510_fixed_splitting_dual_equivalent_pairs():
    # (13, 3) has a splitting fixed by negation: part (iii) applies
    fixed = [sp for sp in find_splittings(13, 3) if sp.invariant_under_mu_minus1]
    assert len(fixed) == 1
    result = thm510_isodual(13, 1, Z9, fixed[0])
    claims = {entry.label: entry.claims for entry in result.codes}
    assert claims["C_1"] == ("dual_equivalent_pair:C'_2",)
    assert claims["C'_2"] == ("dual_equivalent_pair:C_1",)
    reports = verify_result(result, budget=200000)
    assert all_claims_hold(reports)


@pytest.mark.parametrize("a", [0, -1])
def test_thm510_rejects_a_below_1(a):
    with pytest.raises(ValueError, match="a must be >= 1"):
        thm510_isodual(17, a, RingSpec(13, 2), find_splittings(17, 13)[0])


def test_generator_degree_balance():
    for result in (
        thm42_isodual(5, 1, Z9),
        thm42_isodual(1, 2, Z25),
        thm42_isodual(3, 2, Z25),
        thm510_isodual(11, 1, Z25, find_splittings(11, 5)[0]),
    ):
        n = result.params["n"]
        for entry in result.codes:
            assert entry.code.free_generator().degree == n // 2


def test_product_identity_z9():
    # (x^2 - 1) times the monic-normalized images of the odd-length factors
    # at both powers of the order-2 root reproduces x^10 - 1
    alpha = primitive_root_of_unity(2, Z9)
    inv = Z9.element(Z9.inverse(alpha.value))
    g = RPoly.xn_minus_1(Z9, 5).divmod_monic(z9(8, 1))[0]
    product = RPoly(Z9, (8, 0, 1))
    for k in (1, 2):
        scale = Z9.element(pow(inv.value, k, 9))
        product = product * substitute_scaled(g, scale, normalize_monic=True)
    assert product == RPoly.xn_minus_1(Z9, 10)


def test_two_stage_dichotomy_m13():
    for sp in find_splittings(13, 3):
        result = duadic_lift(13, Z9, sp)
        e1, e2 = result.by_label("E_1"), result.by_label("E_2")
        if sp.given_by_mu_minus1:
            assert e1.is_self_dual() and e2.is_self_dual()
        else:
            assert e1.dual() == e2 and e2.dual() == e1
            assert not e1.is_self_dual()
            # equivalent through the splitting witness, not through negation
            assert e1.apply_multiplier(sp.a) == e2
            reports = verify_result(result, budget=1000)
            assert reports["E_1"]["claims"]["isodual"]
            assert reports["E_1"]["claims"]["dual_pair:E_2"]


def test_verify_reports_weights():
    result = thm42_isodual(5, 1, Z9)
    reports = verify_result(result, budget=100000)
    assert reports["G_1"]["weight"] == 4
    assert reports["G_2"]["weight"] == 4
    assert reports["G_1"]["claims"]["isodual"]


def _generator_route(kind, result, spec, m, a):
    """Every code of a result rebuilt as the builders once built it: the
    generator multiplied out of its factors, then x^n - 1 divided by it in
    from_generator (from_two_stage for E_i)."""
    n, one = result.params["n"], RPoly.one(spec)
    x_minus_1 = RPoly(spec, (spec.modulus - 1, 1))
    if kind == "remark46":
        return {"G": CyclicCode.from_generator(RPoly.xn_minus_1(spec, n // 2), n)}
    if kind == "thm42":
        g = {1: RPoly(spec, (1,) * m), 2: one}
    else:
        g = dict(enumerate(duadic_pair(m, spec, find_splittings(m, spec.p)[0]), 1))
    if kind == "duadic":
        out = {}
        for i in (1, 2):
            out[f"D'_{i}"] = CyclicCode.from_generator(g[i], m)
            out[f"C'_{i}"] = CyclicCode.from_generator(x_minus_1 * g[i], m)
            if spec.e % 2 == 0:
                out[f"E_{i}"] = CyclicCode.from_two_stage(x_minus_1 * g[i], g[i], spec.e // 2, m)
        return out
    inv = pow(result.params["alpha"], -1, spec.modulus)

    def free(sign, even, odd):
        # (x^(n/2 - d) + sign) * prod monic P_k(inv^k x), d the degree of the product
        parts = [(even if k % 2 == 0 else odd, k) for k in range(1, 2**a + 1)]
        degree = n // 2 - sum(piece.degree for piece, _ in parts)
        gen = RPoly(spec, (sign % spec.modulus,) + (0,) * (degree - 1) + (1,))
        for piece, k in parts:
            scale = spec.element(pow(inv, k, spec.modulus))
            gen = gen * substitute_scaled(piece, scale, normalize_monic=True)
        assert gen.degree == n // 2
        return CyclicCode.from_generator(gen, n)

    if kind == "thm42":
        return {"G_1": free(-1, one, g[1]), "G_2": free(+1, g[1], one)}
    out = {}
    for entry in result.codes:  # C_ij, C'_ij, and thm510's C_i, C'_i
        digits = entry.label.split("_")[1]
        sign = +1 if "'" in entry.label else -1
        out[entry.label] = free(sign, g[int(digits[0])], g[int(digits[-1])])
    return out


def test_every_family_equals_the_generator_route():
    # the families are read off the builders' own factors, each with its
    # partner as cofactor; the generator route divides x^n - 1 instead
    checked = {kind: 0 for kind in CONSTRUCTION_KINDS}
    for p in (3, 5, 13, 17):
        for e in (1, 2, 3):
            spec = RingSpec(p, e)
            for m in range(1, 26, 2):
                if gcd(m, p) != 1:
                    continue
                jobs = [("duadic", 1)]
                jobs += [(kind, a) for a in (1, 2) if (p - 1) % 2**a == 0
                         for kind in ("thm42", "remark46", "thm44", "thm510")]
                for kind, a in jobs:
                    try:
                        result = build_construction(kind, spec, m, a)
                    except (ValueError, ArithmeticError):
                        continue  # no splitting mod m, or negation mixes it
                    reference = _generator_route(kind, result, spec, m, a)
                    assert {entry.label: entry.code for entry in result.codes} == reference, (
                        kind, p, e, m, a)
                    checked[kind] += len(reference)
    assert checked == {"thm42": 462, "thm44": 228, "remark46": 231, "duadic": 154, "thm510": 456}


def _is_binomial_minus_1(coeffs, degrees, spec):
    """Whether a coefficient list is x^k - 1, for a degree k in `degrees`,
    over Z_{p^e} or over F_p."""
    return (len(coeffs) - 1 in degrees and coeffs[-1] == 1 and not any(coeffs[1:-1])
            and coeffs[0] in (spec.p - 1, spec.modulus - 1))


@pytest.mark.parametrize("kind", CONSTRUCTION_KINDS)
@pytest.mark.parametrize("a", [1, 2])
def test_no_builder_divides_x_n_minus_1(monkeypatch, kind, a):
    spec, m = RingSpec(13, 2), 17
    n = m if kind == "duadic" else 2**a * m
    dividends = []
    real = _modpoly.pdivmod

    def counting(dividend, divisor, modulus):
        dividends.append(list(dividend))
        return real(dividend, divisor, modulus)

    # RPoly.divmod_monic runs _modpoly's pdivmod; the others import it by name
    for module in (_modpoly, fieldpoly, ringpoly):
        monkeypatch.setattr(module, "pdivmod", counting)
    ringpoly.lifted_factorization.cache_clear()
    result = build_construction(kind, spec, m, a)
    assert result.codes
    assert not [d for d in dividends if _is_binomial_minus_1(d, {m, n}, spec)]
