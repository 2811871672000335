import pickle
import time
from collections import Counter
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_weight_engine import family_codes

from chaincodes import code as code_module
from chaincodes._modpoly import pgcd
from chaincodes.cli import build_construction
from chaincodes.code import (
    Codeword,
    CyclicCode,
    IsodualCertificate,
    LengthMismatch,
    NotADivisor,
    TooLarge,
    inner_product,
    search_equivalence,
    search_multiplier_equivalence,
)
from chaincodes.constructions import all_claims_hold, verify_result
from chaincodes.exhaustive import (
    BudgetExceeded,
    annihilator_count,
    annihilator_vectors,
    enumerate_matrix,
    min_hamming_weight,
    min_weight_direct,
    min_weight_residue,
)
from chaincodes.fieldpoly import factor_xn_minus_1
from chaincodes.ring import RingSpec
from chaincodes.ringpoly import (
    RPoly,
    lifted_factorization,
    multiplier_mod,
    nth_roots_of_unity,
    reciprocal,
    substitute_scaled,
)

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


def multiplier_by_cosets(code, a):
    """The reference image: each basic irreducible factor dividing F_i, with
    root-exponent coset K, maps to the factor with coset a^(-1) K."""
    factors = lifted_factorization(code.n, code.spec)
    by_min_rep = {coset[0]: lifted for coset, _, lifted in factors}
    a_inv = pow(a, -1, code.n)
    family = []
    for f in code.F:
        image = RPoly.one(code.spec)
        for coset, _, lifted in factors:
            if f.divmod_monic(lifted)[1].is_zero():
                image = image * by_min_rep[min(a_inv * x % code.n for x in coset)]
        family.append(image)
    return CyclicCode(code.spec, code.n, tuple(family))


@pytest.fixture(scope="module")
def small_code_images():
    """Every code of length n < 12 over Z_4, Z_8, Z_9, Z_25 and Z_27, one
    list per ring and length, each code with its multiplier image for every
    unit of Z_n.  Built once: the oracle tests below share them."""
    groups = []
    for spec in (Z4, RingSpec(2, 3), Z9, RingSpec(5, 2), RingSpec(3, 3)):
        for n in range(1, 12):
            if n % spec.p == 0:
                continue
            units = [a for a in range(1, n) if gcd(a, n) == 1] or [1]
            groups.append(
                [(code, {a: code.apply_multiplier(a) for a in units}) for code in family_codes(spec, n)]
            )
    return groups


def test_multiplier_matches_the_coset_image_on_every_small_code(small_code_images):
    images = 0
    for group in small_code_images:
        for code, by_unit in group:
            for a, image in by_unit.items():
                assert image == multiplier_by_cosets(code, a), (code.spec, code.n, a, code.F)
                images += 1
    assert images > 10_000


def test_every_derived_code_multiplies_to_x_n_minus_1(small_code_images):
    # generators, duals, scaled and multiplier images skip the product check
    # of CyclicCode(...); the public constructor runs it on each of them
    checked = 0
    for group in small_code_images:
        for code, by_unit in group:
            derived = [code.dual(), code.apply_scaling(nth_roots_of_unity(code.n, code.spec)[-1])]
            if code.is_free():
                derived.append(CyclicCode.from_generator(code.F[0], code.n))
            for image in derived + list(by_unit.values()):
                assert CyclicCode(image.spec, image.n, image.F) == image, (code.F, image.F)
                checked += 1
    assert checked > 13_045


def residue_images_by_gcd(f, a, n):
    """The reference images: mu_a(f) as gcd(f(x^a) mod x^n - 1, x^n - 1),
    then every scaling by an n-th root of unity through substitute_scaled."""
    image = f
    if a != 1:
        whole = RPoly.xn_minus_1(f.spec, n)
        image = multiplier_mod(f.divmod_monic(whole)[1], a, n)
        image = RPoly(f.spec, tuple(pgcd(list(image.coeffs), list(whole.coeffs), f.spec.p)))
    return {
        lam.value: substitute_scaled(image, lam, normalize_monic=True).coeffs
        for lam in nth_roots_of_unity(n, f.spec)
    }


@settings(max_examples=400)
@given(p=st.sampled_from([2, 3, 5, 13]), n=st.integers(1, 39), data=st.data())
def test_residue_images_match_the_gcd_images(p, n, data):
    # a = n - 1 takes the monic reciprocal with no gcd; every a scales the
    # coefficient tuple directly
    n += n % p == 0
    field = RingSpec(p, 1)
    factors = factor_xn_minus_1(n, p)
    kept = data.draw(st.lists(st.booleans(), min_size=len(factors), max_size=len(factors)))
    f = prod((g for g, keep in zip(factors, kept) if keep), start=RPoly.one(field))
    units = [a for a in range(1, n) if gcd(a, n) == 1]
    for a in {n - 1, data.draw(st.sampled_from(units or [1]))}:
        assert dict(code_module._residue_images(f, a, n)) == residue_images_by_gcd(f, a, n), (f, a)


@pytest.mark.parametrize("a", [0, 2, 5, 12])
def test_apply_multiplier_rejects_a_non_unit(a):
    code = CyclicCode.from_generator(z9(8, 1) * z9(1, 1), 10)
    with pytest.raises(ValueError, match="gcd"):
        code.apply_multiplier(a)


def test_verification_does_not_factor(monkeypatch):
    # C'_12 of thm44 over Z_169 with n = 46 is certified by a = 45 = n - 1
    # and lam = 168, and E_1 of duadic with n = 17 by the unit a = 3.  The
    # search compares residue families, so it builds, lifts and factors no
    # image: the only codes made are the one dual per code.  Every code,
    # public or derived, passes _check_family, so counting its calls counts
    # the codes built.
    def no_lift(*args):
        raise AssertionError("the certificate search lifted an image family")

    built = []
    check_family = CyclicCode._check_family

    def counted(self):
        built.append(self)
        check_family(self)

    expected = [("thm44", 23, 1, "C'_12", {"a": 45, "lam": 168})]
    expected += [("duadic", 17, None, "E_1", {"a": 3, "lam": 1, "via": "multiplier_search"})]
    for kind, m, a, label, certificate in expected:
        result = build_construction(kind, RingSpec(13, 2), m, a)
        factor_xn_minus_1.cache_clear()
        lifted_factorization.cache_clear()
        built.clear()
        with monkeypatch.context() as patch:
            patch.setattr(code_module, "hensel_lift_factorization", no_lift)
            patch.setattr(CyclicCode, "_check_family", counted)
            reports = verify_result(result, budget=0)
        assert all_claims_hold(reports)
        assert reports[label]["certificate"] == certificate
        assert len(built) == len(result.codes)
        for cached in (factor_xn_minus_1, lifted_factorization):
            info = cached.cache_info()
            assert info.hits + info.misses == 0, cached


def test_each_residue_image_is_computed_once():
    # every C_ij / C'_ij of thm44 over Z_169 with n = 46 maps its residues
    # by a = 45 = n - 1; a second verification reads them all from the cache
    result = build_construction("thm44", RingSpec(13, 2), 23, 1)
    code_module._residue_images.cache_clear()
    first = verify_result(result)
    misses = code_module._residue_images.cache_info().misses
    assert misses
    assert verify_result(result) == first
    info = code_module._residue_images.cache_info()
    assert info.misses == misses and info.hits >= misses


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


class ImageCodeSearch:
    """The reference search on image codes over Z_{p^e}: the first (a, lam),
    a in 1, n - 1, then the other units ascending, with
    source.apply_multiplier(a).apply_scaling(lam) == target.  Images are
    kept per source and multiplier; `images` may hold some built before."""

    def __init__(self, source, images=()):
        n = source.n
        self.source = source
        self.units = [1] + [n - 1] * (n > 2) + [a for a in range(2, n - 1) if gcd(a, n) == 1]
        self.roots = nth_roots_of_unity(n, source.spec)
        self.images = {**dict(images), 1: source}

    def search(self, target):
        if self.source.cardinality_log() != target.cardinality_log():
            return None
        for a in self.units:
            if a not in self.images:
                self.images[a] = self.source.apply_multiplier(a)
            for lam in self.roots:
                image = self.images[a]
                if (image if lam.value == 1 else image.apply_scaling(lam)) == target:
                    return IsodualCertificate(a, lam.value)
        return None


def test_residue_search_matches_the_image_code_search(small_code_images):
    by_ring = list(small_code_images)
    # no code above needs a multiplier other than 1 and n - 1; E_1 and E_2
    # over Z_169 of length 17 need the unit 3
    by_ring.append([(entry.code, {}) for entry in build_construction("duadic", RingSpec(13, 2), 17, 1).codes])
    hits, unrelated = Counter(), Counter()
    for group in by_ring:
        by_size = {}
        for code, _ in group:
            by_size.setdefault(code.cardinality_log(), []).append(code)
        for code, images in group:
            degrees = [f.degree for f in code.F]
            reference, dual = ImageCodeSearch(code, images), code.dual()
            dual_cert = reference.search(dual)
            hits[None if dual_cert is None else dual_cert.a in (1, code.n - 1)] += 1
            # the dual, and the first other code of the same size that no map
            # carries the code onto, preferring one of the same member degrees
            targets = [(dual, dual_cert)]
            same_size = sorted(
                (other for other in by_size[code.cardinality_log()] if other is not code),
                key=lambda other: [f.degree for f in other.F] != degrees,
            )
            for other in same_size:
                if reference.search(other) is None:
                    targets.append((other, None))
                    unrelated[[f.degree for f in other.F] == degrees] += 1
                    break
            for target, wide in targets:
                # search_equivalence tries the multipliers 1 and n - 1 only
                narrow = wide if wide is None or wide.a in (1, code.n - 1) else None
                assert search_multiplier_equivalence(code, target) == wide, (code.F, target.F)
                assert search_equivalence(code, target) == narrow, (code.F, target.F)
    assert hits[True] > 100 and hits[False] == 2, hits
    # equal-size targets that pass the degree test, and some that fail it
    assert unrelated[True] > 1000 and unrelated[False] > 100, unrelated


def test_non_coprime_family_fails_the_product_check():
    # monic members sharing the factor x - 1 multiply to (x - 1)^2, which is
    # not the squarefree x^2 - 1
    with pytest.raises(ValueError, match="family product"):
        CyclicCode(Z9, 2, (z9(8, 1), z9(8, 1), RPoly.one(Z9)))


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


def test_annihilator_vectors_refuse_at_call_time():
    # the join and the limit check run when annihilator_vectors is called;
    # the words come from the iterator it returns
    code = CyclicCode.from_generator(z9(8, 1) * z9(1, 1), 4)
    count = annihilator_count(code)
    with pytest.raises(TooLarge):
        annihilator_vectors(code, limit=count - 1)
    words = annihilator_vectors(code, limit=count)
    assert iter(words) is words
    assert {w.entries for w in words} == {w.entries for w in code.dual().codewords()}
    assert count == 9 ** 2


@pytest.mark.parametrize("code", [
    CyclicCode.whole_space(RingSpec(3, 2), 16),  # halves of 9^8 rows, 2.75 GB of digits each
    CyclicCode.zero(RingSpec(2, 2), 31),  # no generator rows, and a half of 4^16 rows
])
def test_annihilator_refuses_large_halves_before_building_them(code):
    start = time.monotonic()
    with pytest.raises(TooLarge):
        annihilator_count(code)
    assert time.monotonic() - start < 1


def test_public_codeword_constructor_reduces_entries():
    assert Codeword(RingSpec(3, 2), (9, -1)).entries == (0, 8)
    assert Codeword(spec=RingSpec(2, 2), entries=[4, 5, -3]).entries == (0, 1, 1)


def code_id(code):
    return f"{code.spec}-n{code.n}-{code.cardinality_log()}"


# the sample codes whose ambient space Z_{p^e}^n has at most 10^6 words
SCANNABLE = [code for code in sample_codes() if code.spec.modulus**code.n <= 10**6]


def enumerated_words(code):
    """Words from both enumerators of one small code and its annihilator."""
    yield from code.codewords()
    yield from annihilator_vectors(code)


@pytest.mark.parametrize("code", SCANNABLE, ids=code_id)
def test_enumerated_words_match_the_public_constructor(code):
    # the enumerators build their words without the constructor's reduction
    for word in enumerated_words(code):
        built = Codeword(word.spec, word.entries)
        assert type(word) is Codeword and word.spec == code.spec
        assert word == built and not word != built
        assert hash(word) == hash(built) and repr(word) == repr(built)


def test_codeword_record_hashes_as_its_fields_and_equals_only_codewords():
    word = Codeword(Z9, (1, 10, -1))
    assert repr(word) == "Codeword(spec=RingSpec(p=3, e=2), entries=(1, 1, 8))"
    # it hashes as the pair of its fields but never equals that pair
    assert hash(word) == hash((word.spec, word.entries))
    plain = (word.spec, word.entries)
    assert word != plain and plain != word
    assert not word == plain and not plain == word
    assert word != Codeword(Z9, (1, 1, 7)) and word != Codeword(RingSpec(3, 3), (1, 1, 8))
    assert word in {Codeword(Z9, (1, 1, 8))} and plain not in {word}
    for name in ("spec", "entries", "extra"):
        with pytest.raises(AttributeError):
            setattr(word, name, (0, 0, 0))
    copy = pickle.loads(pickle.dumps(word))
    assert copy == word and type(copy) is Codeword and hash(copy) == hash(word)
    # the namedtuple helpers build through the constructor as well
    assert word._replace(entries=(9, 10, -1)) == Codeword(Z9, (0, 1, 8))


def mixed_radix_words(code):
    """Every word of the code in mixed-radix order over the generator rows,
    the first row fastest, in pure Python."""
    m = code.spec.modulus
    words = [(0,) * code.n]
    for row, radix in zip(reversed(code.generator_matrix()), reversed(code.row_radices())):
        words = [tuple((a + d * b) % m for a, b in zip(word, row)) for word in words for d in range(radix)]
    return words


@pytest.mark.parametrize("code", list(sample_codes()), ids=code_id)
def test_codewords_follow_the_mixed_radix_walk(code):
    assert [w.entries for w in code.codewords()] == mixed_radix_words(code)


@pytest.mark.parametrize("code", SCANNABLE, ids=code_id)
def test_annihilator_vectors_match_a_scan_of_the_whole_space(code):
    m, n = code.spec.modulus, code.n
    space = np.indices((m,) * n).reshape(n, -1).T
    rows = np.array(code.generator_matrix(), dtype=np.int64).reshape(-1, n)
    orthogonal = space[~((space @ rows.T) % m).any(axis=1)]
    words = [w.entries for w in annihilator_vectors(code, limit=m**n)]
    assert len(words) == len(set(words)) == len(orthogonal)
    assert set(words) == set(map(tuple, orthogonal.tolist()))
