import time

import pytest

from chaincodes.code import CyclicCode
from chaincodes.constructions import result_from_json, result_to_json, thm42_isodual, verify_result
from chaincodes.fieldpoly import find_splittings
from chaincodes.ring import RingSpec
from chaincodes.ringpoly import RPoly
from chaincodes.serialize import (
    SchemaError,
    code_from_json,
    code_to_json,
    poly_from_text,
    poly_to_text,
    ring_from_json,
    ring_to_json,
    rpoly_from_json,
    rpoly_to_json,
    splitting_from_json,
    splitting_to_json,
)

Z9 = RingSpec(3, 2)


def test_ring_round_trip():
    assert ring_from_json(ring_to_json(Z9)) == Z9
    with pytest.raises(SchemaError):
        ring_from_json({"p": 4, "e": 1})
    with pytest.raises(SchemaError):
        ring_from_json({"p": 3})


def test_rpoly_round_trip():
    f = RPoly(Z9, (8, 2, 1, 8, 3, 1))
    data = rpoly_to_json(f)
    assert data == {"ring": {"p": 3, "e": 2}, "coeffs": [8, 2, 1, 8, 3, 1]}
    assert rpoly_from_json(data) == f


def test_splitting_round_trip():
    sp = find_splittings(11, 3)[0]
    data = splitting_to_json(sp)
    assert data["mu_minus1"] == "swaps"
    assert splitting_from_json(data) == sp
    data["mu_minus1"] = "fixes"
    with pytest.raises(SchemaError):
        splitting_from_json(data)
    # negation swaps these sides, but they are not unions of 2-cyclotomic cosets mod 7
    with pytest.raises(SchemaError, match="must be unions of 2-cyclotomic cosets mod 7"):
        splitting_from_json({"m": 7, "q": 2, "s1": [1, 2, 3], "s2": [4, 5, 6], "a": 6})


def test_code_round_trip():
    code = CyclicCode.from_generator(RPoly(Z9, (8, 2, 7, 2, 7, 1)), 10)
    assert code_from_json(code_to_json(code)) == code


def test_code_rejects_bad_family():
    code = CyclicCode.from_generator(RPoly(Z9, (8, 1)), 2)
    data = code_to_json(code)
    data["F"][0]["coeffs"] = [1, 1]
    with pytest.raises((SchemaError, ValueError)):
        code_from_json(data)


def test_code_with_a_huge_length_is_rejected_before_x_n_minus_1():
    # the family's degrees sum to 4, not n, so x^n - 1 (370 MB of
    # coefficients at n = 10^7) is never built
    data = code_to_json(CyclicCode.zero(Z9, 4))
    data["n"] = 10**7
    start = time.monotonic()
    with pytest.raises(SchemaError, match=r"family product is not x\^n - 1"):
        code_from_json(data)
    assert time.monotonic() - start < 0.1


def test_result_round_trip():
    result = thm42_isodual(5, 1, Z9)
    reports = verify_result(result, budget=100000)
    doc = result_to_json(result, reports)
    assert doc["codes"][0]["verified"]["weight"] == 4
    back = result_from_json(doc)
    assert back.kind == result.kind
    assert [e.label for e in back.codes] == [e.label for e in result.codes]
    assert all(a.code == b.code for a, b in zip(back.codes, result.codes))


def test_poly_text_emit():
    assert poly_to_text([8, 6, 1, 8, 7, 1]) == "x^5 + 7x^4 + 8x^3 + x^2 + 6x + 8"
    assert poly_to_text([]) == "0"
    assert poly_to_text([5]) == "5"
    assert poly_to_text([0, 1]) == "x"


def test_poly_text_parse_canonical():
    assert poly_from_text("x^5 + 7x^4 + 8x^3 + x^2 + 6x + 8", 9) == [8, 6, 1, 8, 7, 1]


def test_poly_text_parse_signed():
    # mixed signs normalize to canonical representatives
    assert poly_from_text("x^5 - 2x^4 - x^3 + x^2 - 3x - 1", 9) == [8, 6, 1, 8, 7, 1]
    assert poly_from_text("-x + 1", 9) == [1, 8]
    assert poly_from_text("0", 9) == []


def test_poly_text_parse_round_trip():
    coeffs = [8, 2, 1, 8, 3, 1]
    assert poly_from_text(poly_to_text(coeffs), 9) == coeffs


def test_poly_text_errors():
    with pytest.raises(SchemaError):
        poly_from_text("", 9)
    with pytest.raises(SchemaError):
        poly_from_text("x^", 9)
    with pytest.raises(SchemaError):
        poly_from_text("3 + + x", 9)
    with pytest.raises(SchemaError):
        poly_from_text("y^2", 9)
    with pytest.raises(SchemaError):
        poly_from_text("x^5 - x^5 + 1", 9, max_degree=4)
    assert poly_from_text("x^4 + 1", 9, max_degree=4) == [1, 0, 0, 0, 1]
