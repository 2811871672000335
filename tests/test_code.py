import pytest

from chaincodes.code import (
    Codeword,
    CyclicCode,
    LengthMismatch,
    NotADivisor,
    TooLarge,
    inner_product,
    search_equivalence,
)
from chaincodes.exhaustive import (
    BudgetExceeded,
    annihilator_count,
    annihilator_vectors,
    enumerate_matrix,
    min_hamming_weight,
    min_weight_direct,
    min_weight_residue,
)
from chaincodes.ring import RingSpec
from chaincodes.ringpoly import RPoly, lifted_factorization, reciprocal

Z9 = RingSpec(3, 2)
Z4 = RingSpec(2, 2)


def z9(*coeffs):
    return RPoly(Z9, tuple(coeffs))


G1_Z9 = z9(8, 2, 1, 8, 3, 1)  # lifted factor of x^11 - 1, coset of 2
G2_Z9 = z9(8, 6, 1, 8, 7, 1)  # lifted factor of x^11 - 1, coset of 1
X_MINUS_1 = z9(8, 1)

EX43_G1 = z9(8, 2, 7, 2, 7, 1)  # x^5 + 7x^4 + 2x^3 + 7x^2 + 2x + 8


def e_code(g_main, g_other):
    return CyclicCode.from_two_stage(X_MINUS_1 * g_main, g_main, 1, 11)


def test_from_generator_small():
    code = CyclicCode.from_generator(z9(8, 1), 2)
    assert code.F == (z9(8, 1), z9(1, 1), z9(1))


def test_from_generator_whole_space():
    code = CyclicCode.whole_space(Z9, 5)
    assert code.cardinality_log() == 2 * 5
    assert code.F[1] == RPoly.xn_minus_1(Z9, 5)


def test_from_generator_rejects_non_divisor():
    with pytest.raises(NotADivisor):
        CyclicCode.from_generator(z9(1, 1, 1), 5)


def test_from_two_stage_family():
    code = e_code(G1_Z9, G2_Z9)
    assert code.F == (G1_Z9, G2_Z9, X_MINUS_1)


def test_from_two_stage_rejects_bad_stage():
    with pytest.raises(ValueError):
        CyclicCode.from_two_stage(X_MINUS_1 * G1_Z9, G1_Z9, 2, 11)


def test_from_two_stage_degenerate_is_free():
    free = CyclicCode.from_two_stage(G1_Z9, G1_Z9, 1, 11)
    assert free == CyclicCode.from_generator(G1_Z9, 11)


def test_dual_whole_space_is_zero():
    assert CyclicCode.whole_space(Z9, 5).dual() == CyclicCode.zero(Z9, 5)


def test_dual_free_is_reciprocal_cofactor():
    code = CyclicCode.from_generator(G1_Z9, 11)
    h = RPoly.xn_minus_1(Z9, 11).divmod_monic(G1_Z9)[0]
    assert code.dual() == CyclicCode.from_generator(reciprocal(h), 11)


def test_e_code_self_dual():
    code = e_code(G1_Z9, G2_Z9)
    assert code.dual() == code
    assert code.is_self_dual()
    assert code.cardinality_log() == 11


def sample_codes():
    yield CyclicCode.whole_space(Z9, 4)
    yield CyclicCode.zero(Z9, 4)
    yield CyclicCode.from_generator(z9(8, 1), 4)
    yield e_code(G1_Z9, G2_Z9)
    for _, _, lifted in lifted_factorization(5, Z4):
        yield CyclicCode.from_generator(lifted, 5)
    spec27 = RingSpec(3, 3)
    g = RPoly(spec27, (26, 1))
    yield CyclicCode.from_generator(g, 4)
    yield CyclicCode.from_two_stage(
        RPoly.xn_minus_1(spec27, 4).divmod_monic(RPoly(spec27, (1, 1)))[0], g, 2, 4
    )


@pytest.mark.parametrize("code", list(sample_codes()), ids=lambda c: f"{c.spec}-n{c.n}-{c.cardinality_log()}")
def test_dual_involution_and_cardinality_pairing(code):
    d = code.dual()
    assert d.dual() == code
    assert code.cardinality_log() + d.cardinality_log() == code.spec.e * code.n


def test_cardinality_examples():
    free = CyclicCode.from_generator(G1_Z9, 11)
    assert free.cardinality_log() == 2 * (11 - 5)
    assert CyclicCode.zero(Z9, 5).cardinality_log() == 0


def test_cardinality_matches_enumeration():
    for code in (
        CyclicCode.from_generator(z9(8, 1), 4),
        e_code(G1_Z9, G2_Z9).apply_multiplier(1),  # identity round-trip
        CyclicCode.from_two_stage(z9(8, 1) * z9(1, 1), z9(1, 1), 1, 4),
    ):
        if code.spec.p ** code.cardinality_log() > 50000:
            continue
        words = enumerate_matrix(code, 100000)
        unique = {tuple(int(v) for v in row) for row in words}
        assert len(unique) == words.shape[0] == code.spec.p ** code.cardinality_log()


def test_generator_matrix_single_row():
    code = CyclicCode.from_generator(z9(8, 1), 2)
    assert code.generator_matrix() == [[8, 1]]


def test_generator_matrix_rows_are_codewords():
    code = e_code(G1_Z9, G2_Z9)
    for row in code.generator_matrix():
        assert code.contains(Codeword(Z9, tuple(row)))


def test_generator_matrix_row_space_cardinality():
    for code in sample_codes():
        total = code.spec.p ** code.cardinality_log()
        if total > 50000:
            continue
        words = enumerate_matrix(code, 60000)
        unique = {tuple(int(v) for v in row) for row in words}
        assert len(unique) == total


def test_contains_rejects_length_mismatch():
    code = CyclicCode.from_generator(z9(8, 1), 2)
    with pytest.raises(LengthMismatch):
        code.contains(Codeword(Z9, (1, 2, 3)))


def test_enumerate_shift_code():
    code = CyclicCode.from_generator(z9(8, 1), 2)
    words = {w.entries for w in code.codewords()}
    assert words == {((9 - u) % 9, u) for u in range(9)}


def test_enumerate_zero_code():
    words = list(CyclicCode.zero(Z9, 4).codewords())
    assert words == [Codeword(Z9, (0, 0, 0, 0))]


def test_enumerate_two_words_over_z_2_40():
    # p^(e-1) * (x^3 - 1)/(x - 1) has two words; its entries need 40 bits
    spec = RingSpec(2, 40)
    factors = [lifted for _, _, lifted in lifted_factorization(3, spec)]
    one = RPoly.one(spec)
    code = CyclicCode(spec, 3, (factors[1],) + (one,) * 39 + (factors[0],))
    words = {w.entries for w in code.codewords()}
    assert words == {(0, 0, 0), (2**39, 2**39, 2**39)}


def test_enumerate_guard():
    code = CyclicCode.whole_space(Z9, 8)
    with pytest.raises(TooLarge):
        list(code.codewords(limit=1000))


def test_enumerate_counts_length10_code():
    code = CyclicCode.from_generator(EX43_G1, 10)
    assert code.cardinality_log() == 10  # 3^10 = 9^5 words
    words = enumerate_matrix(code, 100000)
    assert words.shape[0] == 59049


def test_min_weight_length10_both_strategies():
    code = CyclicCode.from_generator(EX43_G1, 10)
    report = min_hamming_weight(code, strategy="both")
    assert report.weight == 4


def test_min_weight_strategies_agree_on_free_samples():
    for code in sample_codes():
        if not code.is_free() or code.is_zero_code():
            continue
        if code.free_generator().degree == 0:
            continue  # whole space: residue enumeration covers it too but slowly
        direct = min_weight_direct(code, budget=200000)
        residue = min_weight_residue(code, budget=200000)
        assert direct.weight == residue.weight


def test_min_weight_budget_exceeded_carries_bound():
    code = CyclicCode.from_generator(EX43_G1, 10)
    with pytest.raises(BudgetExceeded) as info:
        min_weight_direct(code, budget=50)
    assert info.value.upper_bound >= 4


def test_apply_scaling_identity_and_involution():
    code = CyclicCode.from_generator(EX43_G1, 10)
    assert code.apply_scaling(Z9.element(1)) == code
    scaled = code.apply_scaling(Z9.element(8))
    assert scaled.apply_scaling(Z9.element(8)) == code


def test_apply_scaling_requires_root_of_unity():
    code = CyclicCode.from_generator(G1_Z9, 11)
    with pytest.raises(ValueError):
        code.apply_scaling(Z9.element(2))  # 2^11 != 1 mod 9


def test_scaling_matches_coordinate_action():
    code = CyclicCode.from_generator(z9(8, 1), 4)
    lam = Z9.element(8)
    scaled = code.apply_scaling(lam)
    expected = set()
    for w in code.codewords():
        entries = tuple(w.entries[i] * pow(8, i, 9) % 9 for i in range(4))
        expected.add(entries)
    assert {w.entries for w in scaled.codewords()} == expected


def test_apply_multiplier_identity_and_inverse():
    code = e_code(G1_Z9, G2_Z9)
    assert code.apply_multiplier(1) == code
    image = code.apply_multiplier(3)
    assert image.apply_multiplier(pow(3, -1, 11)) == code


def test_multiplier_negation_gives_reciprocal_ideal():
    code = CyclicCode.from_generator(G1_Z9, 11)
    assert code.apply_multiplier(10) == CyclicCode.from_generator(reciprocal(G1_Z9), 11)


def test_multiplier_matches_coordinate_action():
    code = CyclicCode.from_generator(z9(8, 1) * z9(1, 1), 4)
    image = code.apply_multiplier(3)
    expected = {tuple(w.entries[3 * i % 4] for i in range(4)) for w in code.codewords()}
    assert {w.entries for w in image.codewords()} == expected


def test_weight_invariance_under_maps():
    code = CyclicCode.from_generator(z9(8, 1) * z9(1, 1), 4)
    base = min_weight_direct(code).weight
    assert min_weight_direct(code.apply_multiplier(3)).weight == base
    assert min_weight_direct(code.apply_scaling(Z9.element(8))).weight == base


def test_is_self_dual_whole_space_false():
    assert not CyclicCode.whole_space(Z9, 5).is_self_dual()


def test_certify_isodual_length10_code():
    code = CyclicCode.from_generator(EX43_G1, 10)
    cert = code.certify_isodual()
    assert cert is not None
    image = code.apply_multiplier(cert.a).apply_scaling(Z9.element(cert.lam))
    assert image == code.dual()
    small = {w.entries for w in image.codewords()}
    assert small == {w.entries for w in code.dual().codewords()}


def test_certify_isodual_self_dual_gives_identity():
    code = e_code(G1_Z9, G2_Z9)
    assert code.certify_isodual() == search_equivalence(code, code.dual())
    cert = code.certify_isodual()
    assert (cert.a, cert.lam) == (1, 1)


def test_certify_isodual_whole_space_none():
    assert CyclicCode.whole_space(Z9, 5).certify_isodual() is None


def test_inner_product_and_orthogonality_small():
    code = CyclicCode.from_generator(z9(8, 1) * z9(1, 1), 4)
    d = code.dual()
    for v in code.codewords():
        for w in d.codewords():
            assert inner_product(v, w) == 0


def test_annihilator_matches_dual_small():
    for code in sample_codes():
        d = code.dual()
        count = annihilator_count(code)
        assert count == code.spec.p ** d.cardinality_log()
        if count <= 4096:
            ann = {w.entries for w in annihilator_vectors(code)}
            dual_words = {w.entries for w in d.codewords()}
            assert ann == dual_words


def test_public_codeword_constructor_reduces_entries():
    assert Codeword(RingSpec(3, 2), (9, -1)).entries == (0, 8)
