"""The torsion-code weight engine against independent oracles.

The engine reads the minimum weight of any nonzero code off its torsion code
<F_0 mod p> (Norton & Salagean) with a Brouwer-Zimmermann loop over half
layers.  Here it is held against full enumeration of the code itself and of
the torsion code, its meet-in-the-middle blocks against word-by-word sums,
every half layer's bound against the true weight, and its budget contract.
"""

import json
from itertools import product

import numpy as np
import pytest

from chaincodes import exhaustive
from chaincodes.cli import build_construction, main
from chaincodes.code import CyclicCode
from chaincodes.constructions import ConstructedCode, ConstructionResult, verify_result
from chaincodes.exhaustive import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    _equivalent_generators,
    _parity_rows,
    _step_minima,
    _steps,
    _supports,
    _torsion_generator,
    enumeration_cost,
    min_hamming_weight,
    min_weight_direct,
    min_weight_residue,
)
from chaincodes.ring import RingSpec
from chaincodes.ringpoly import RPoly, lifted_factorization
from chaincodes.serialize import code_to_json

Z9 = RingSpec(3, 2)


def family_codes(spec: RingSpec, n: int):
    """Every code of length n: each basic irreducible factor at a level 0..e."""
    lifted = [f for _, _, f in lifted_factorization(n, spec)]
    for levels in product(range(spec.e + 1), repeat=len(lifted)):
        family = [RPoly.one(spec)] * (spec.e + 1)
        for level, f in zip(levels, lifted):
            family[level] = family[level] * f
        yield CyclicCode(spec, n, tuple(family))


def settled_by_a_lead_half(code: CyclicCode, d: int) -> bool:
    """Check that after each half layer the weight d is at least min(best
    seen, the half's bound), so the engine may stop at any of them; true
    when a lead half's bound is what first proves d."""
    p, n = code.spec.p, code.n
    gbar, k = _torsion_generator(code)
    parity = _parity_rows(gbar, k, p)
    seen, lower, by_lead = sum(c != 0 for c in gbar), -(-n // k), False
    for step in _steps(n, k, p):
        if step.words > 20_000:
            break
        seen = min([seen] + [step.w + m for _, m in _step_minima(parity, step, p)])
        assert seen >= d
        assert d >= min(seen, step.lower), (n, code.F, step)
        by_lead |= step.lead and lower < d == seen <= step.lower
        lower = max(lower, step.lower)
    return by_lead


@pytest.mark.parametrize(
    "p, e, n_max", [(2, 2, 13), (2, 3, 9), (3, 2, 10), (5, 2, 8), (3, 3, 7)]
)
def test_engine_matches_direct_enumeration_on_every_small_code(p, e, n_max):
    spec = RingSpec(p, e)
    checked = 0
    for n in range(1, n_max + 1):
        if n % p == 0:
            continue
        for code in family_codes(spec, n):
            if code.is_zero_code() or p ** code.cardinality_log() > 10**5:
                continue
            report = min_hamming_weight(code)
            d = min_weight_direct(code).weight
            assert report.strategy == "residue"
            assert report.weight == d, (n, code.F)
            assert report.enumerated <= enumeration_cost(code, "auto", DEFAULT_BUDGET)
            settled_by_a_lead_half(code, d)
            checked += 1
    assert checked > 50


def test_lead_halves_settle_the_length11_duadic_weights():
    for entry in build_construction("duadic", Z9, 11, 1).codes:
        assert settled_by_a_lead_half(entry.code, min_weight_direct(entry.code).weight)


def torsion_weight_by_full_enumeration(code: CyclicCode) -> int:
    """Minimum weight of <F_0 mod p> over every projective message of the
    non-systematic matrix of shifts of F_0 mod p: no window bound, no layers."""
    p, n = code.spec.p, code.n
    gbar = [c % p for c in code.F[0].coeffs]
    k = n - len(gbar) + 1
    rows = np.zeros((k, n), dtype=np.int64)
    for shift in range(k):
        rows[shift, shift : shift + len(gbar)] = gbar
    best = n
    for lead in range(k):
        tail = k - 1 - lead
        digits = np.zeros((p**tail, k), dtype=np.int64)
        digits[:, lead] = 1
        index = np.arange(p**tail)
        for col in range(tail):
            index, digits[:, lead + 1 + col] = np.divmod(index, p)
        best = min(best, int(np.count_nonzero((digits @ rows) % p, axis=1).min()))
    return best


def test_two_stage_length23_weights_match_full_torsion_enumeration():
    # E_1 and E_2 are not free and 3^23 words is past direct enumeration;
    # their torsion codes have k = 12, so 265,720 projective words
    result = build_construction("duadic", Z9, 23, 1)
    for label in ("E_1", "E_2"):
        code = result.by_label(label)
        assert not code.is_free()
        report = min_weight_residue(code)
        assert report.weight == torsion_weight_by_full_enumeration(code) == 8
        assert report.enumerated < 265_720


def zero_budget_reports(code: CyclicCode) -> dict:
    result = ConstructionResult("probe", {}, [ConstructedCode("C", code, ())])
    return verify_result(result, budget=0)["C"]


def test_zero_budget_reports_no_weight_even_when_no_word_is_needed():
    whole = CyclicCode.whole_space(Z9, 8)
    g = build_construction("remark46", RingSpec(13, 2), 25, 1).by_label("G")
    for code, weight in ((whole, 1), (g, 2)):
        # the window bound proves these weights before the first word ...
        assert min_weight_residue(code, budget=0).enumerated == 0
        assert min_weight_residue(code).weight == weight
        # ... yet the a-priori cost counts a whole layer, so a zero budget
        # still skips the weight
        assert enumeration_cost(code, "auto", 0) >= 1
        report = zero_budget_reports(code)
        assert report["weight"] is None
        assert report["weight_status"] == "budget_exceeded"


def test_enumeration_cost_stops_summing_past_the_budget():
    code = build_construction("duadic", Z9, 23, 1).by_label("E_1")
    assert 1 <= enumeration_cost(code, "auto", 0) <= 12  # the 12 words of layer 1
    assert enumeration_cost(code, "auto", DEFAULT_BUDGET) >= min_weight_residue(code).enumerated


def test_engine_budget_overrun_carries_both_bounds():
    code = build_construction("duadic", Z9, 23, 1).by_label("E_1")
    with pytest.raises(BudgetExceeded) as info:
        min_weight_residue(code, budget=100)
    exc = info.value
    assert 1 <= exc.lower_bound <= 8 <= exc.upper_bound
    assert exc.enumerated <= 100  # a half layer starts only when it fits
    with pytest.raises(BudgetExceeded) as info:
        min_weight_direct(code, budget=100)
    assert info.value.lower_bound == 1


def test_verify_reports_weights_the_a_priori_count_could_not_promise():
    # the a-priori count starts from wt(F_0 mod p) = 6 and sums 25 words;
    # the run meets a weight-4 word early and stops after 13
    result = build_construction("thm42", Z9, 5, 1)
    reports = verify_result(result, budget=20)
    for entry in result.codes:
        assert enumeration_cost(entry.code, "auto", 20) > 20
        assert reports[entry.label]["weight"] == min_weight_direct(entry.code).weight == 4


def step_by_brute_force(parity: np.ndarray, step, p: int) -> tuple[int, int]:
    """(words, least redundancy weight) of a half layer, one word at a time."""
    k, r = parity.shape
    words, least = 0, r + 1
    for support in _supports(k, step):
        for digits in product(range(1, p), repeat=step.w - 1):
            word = parity[support[0]] + sum(c * parity[j] for j, c in zip(support[1:], digits))
            words, least = words + 1, min(least, int(np.count_nonzero(word % p)))
    return words, least


@pytest.mark.parametrize("tabulated", [True, False])
@pytest.mark.parametrize("p, k, r", [(2, 7, 6), (3, 6, 7), (5, 5, 6), (13, 4, 5), (257, 3, 4)])
def test_step_minima_match_word_by_word_sums(p, k, r, tabulated, monkeypatch):
    if not tabulated:  # the large-p path: multiples computed per block
        monkeypatch.setattr(exhaustive, "_TABLE_ENTRIES", 0)
    parity = np.random.default_rng(p).integers(0, p, (k, r))
    checked = 0
    for step in _steps(k + r, k, p):
        if step.words > 2000:
            continue
        blocks = list(_step_minima(parity, step, p))
        words = sum(count for count, _ in blocks)
        least = min((m for _, m in blocks), default=r + 1)
        assert (words, least) == step_by_brute_force(parity, step, p), step
        assert words == step.words
        checked += 1
    assert checked >= 4


@pytest.mark.parametrize("p, e, n_max", [(2, 2, 9), (3, 2, 10), (5, 2, 6)])
def test_equivalent_torsion_codes_share_the_weight(p, e, n_max):
    field = RingSpec(p, 1)
    for n in range(2, n_max + 1):
        if n % p == 0:
            continue
        for code in family_codes(RingSpec(p, e), n):
            if code.is_zero_code() or p ** code.cardinality_log() > 10**4:
                continue
            gbar, _ = _torsion_generator(code)
            weights = {
                min_weight_direct(CyclicCode.from_generator(RPoly(field, g), n)).weight
                for g in _equivalent_generators(gbar, n, p)
            }
            assert weights == {min_weight_direct(code).weight}


def run(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def test_residue_strategy_accepts_non_free_codes(tmp_path, capsys):
    code = build_construction("duadic", Z9, 11, 1).by_label("E_1")
    assert not code.is_free()
    path = tmp_path / "e1.json"
    path.write_text(json.dumps(code_to_json(code)))
    weights = {}
    for strategy in ("residue", "direct"):
        rc, out = run(capsys, "weight", str(path), "--strategy", strategy, "--json")
        assert rc == 0
        weights[strategy] = json.loads(out)["weight"]
    assert weights["residue"] == weights["direct"] == 5


def test_weight_text_reports_both_bounds_on_overrun(tmp_path, capsys):
    code = build_construction("duadic", Z9, 23, 1).by_label("E_1")
    path = tmp_path / "e1.json"
    path.write_text(json.dumps(code_to_json(code)))
    rc, out = run(capsys, "weight", str(path), "--budget", "100")
    assert rc == 4
    lower, _, upper = out.split(" (")[0].partition(" <= minimum weight <= ")
    assert 1 <= int(lower) <= 8 <= int(upper)
