"""Output checks, run after the timed region against independent oracles.

check(op, output) returns None when the output is right and a one-line
reason when it is not.  Ops that raised carry an "error" record instead of
an output; they count as failed, not as wrong.
"""

from __future__ import annotations

import json
from math import gcd


def check(op: dict, output: dict) -> str | None:
    return CHECKS[op["op"]](op, output)


def check_search(op: dict, output: dict) -> str | None:
    """Every claim holds, and every resolved weight matches the reference
    table (a weight may appear where the table has none, never change)."""
    for line in output["rows"]:
        row = json.loads(line)
        if not all(row["verified"]["claims"].values()):
            return f"{row['key']}: claim failed {row['verified']['claims']}"
        weight = row["verified"].get("weight")
        expected = op["weights"].get(row["label"])
        if weight is not None and expected is not None and weight != expected:
            return f"{row['key']}: weight {weight}, reference {expected}"
    labels = sorted(json.loads(line)["label"] for line in output["rows"])
    if labels != sorted(op["weights"]):
        return f"labels {labels} differ from reference {sorted(op['weights'])}"
    return None


def check_construct(op: dict, output: dict) -> str | None:
    """Every claim holds, isoduality comes with a certificate, and no weight
    was enumerated."""
    for label, report in output["reports"].items():
        if not all(report["claims"].values()):
            return f"{label}: claims {report['claims']}"
        if report.get("weight") is not None:
            return f"{label}: a weight was enumerated at zero budget"
        if "isodual" in report["claims"] and "certificate" not in report:
            return f"{label}: isodual without a certificate"
    return None


def check_oracle(op: dict, output: dict) -> str | None:
    if output["annihilator_count"] != output["dual_size"]:
        return f"annihilator count {output['annihilator_count']} != |dual| {output['dual_size']}"
    if output.get("annihilator") != output.get("dual_words"):
        return "annihilator set differs from the dual codeword set"
    return None


def _poly_mul(a: list[int], b: list[int], modulus: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % modulus
    return out


def _sympy_factors(n: int, p: int) -> list[tuple[int, ...]]:
    """Monic irreducible factors of x^n - 1 over F_p, ascending coefficients."""
    from sympy import Poly, symbols

    x = symbols("x")
    _, factors = Poly(x**n - 1, x, modulus=p).factor_list()
    out = []
    for factor, multiplicity in factors:
        coeffs = [int(c) % p for c in reversed(factor.all_coeffs())]
        lead_inv = pow(coeffs[-1], -1, p)
        out.extend([tuple(c * lead_inv % p for c in coeffs)] * multiplicity)
    return sorted(out)


def _is_square(q: int, m: int) -> bool:
    return any(y * y % m == q % m for y in range(m))


def check_factor(op: dict, output: dict) -> str | None:
    """Residue factors against sympy's factor_list, the lift's product, the
    number of n-th roots, and Smid's criterion for splittings."""
    p, e, n = op["p"], op["e"], op["n"]
    modulus = p**e
    if sorted(map(tuple, output["residue"])) != _sympy_factors(n, p):
        return "residue factors differ from sympy's factor_list"
    for residue, lifted in zip(output["residue"], output["lifted"]):
        if [c % p for c in lifted] != residue:
            return f"lifted factor {lifted} does not reduce to {residue}"
    product = [1]
    for lifted in output["lifted"]:
        product = _poly_mul(product, lifted, modulus)
    if product != [modulus - 1] + [0] * (n - 1) + [1]:
        return f"lifted factors do not multiply to x^{n} - 1 mod {modulus}"
    roots = output["roots"]
    expected = gcd(n, p - 1) if p % 2 else 1
    if len(roots) != expected or any(pow(r, n, modulus) != 1 for r in roots):
        return f"{len(roots)} n-th roots of unity, expected {expected}"
    if bool(output["splittings"]) != _is_square(p, n):
        return f"splittings found: {len(output['splittings'])}, Smid says {_is_square(p, n)}"
    return None


CHECKS = {
    "search": check_search,
    "construct": check_construct,
    "oracle": check_oracle,
    "factor": check_factor,
}
