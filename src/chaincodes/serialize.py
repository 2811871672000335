"""JSON schemas and the human-readable polynomial text format.

Polynomials are serialized as ascending coefficient arrays and displayed as
descending-degree text ("x^5 + 7x^4 + ... + 8", by _modpoly.poly_to_text);
coefficients are canonical representatives in [0, p^e).
"""

from __future__ import annotations

import re

from ._modpoly import poly_to_text  # the display RPoly.__str__ uses, beside its parser
from .code import CyclicCode
from .fieldpoly import Splitting
from .ring import RingSpec
from .ringpoly import RPoly


class SchemaError(ValueError):
    """Malformed JSON payload."""


def ring_to_json(spec: RingSpec) -> dict:
    return {"p": spec.p, "e": spec.e}


def ring_from_json(data: dict) -> RingSpec:
    try:
        return RingSpec(int(data["p"]), int(data["e"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad ring spec {data!r}: {exc}") from exc


def rpoly_to_json(poly: RPoly) -> dict:
    return {"ring": ring_to_json(poly.spec), "coeffs": list(poly.coeffs)}


def rpoly_from_json(data: dict) -> RPoly:
    try:
        spec = ring_from_json(data["ring"])
        return RPoly(spec, tuple(int(c) for c in data["coeffs"]))
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad ring polynomial {data!r}: {exc}") from exc


def splitting_to_json(splitting: Splitting) -> dict:
    return {
        "m": splitting.m,
        "q": splitting.q,
        "s1": list(splitting.s1),
        "s2": list(splitting.s2),
        "a": splitting.a,
        "mu_minus1": "swaps" if splitting.given_by_mu_minus1 else "fixes",
    }


def splitting_from_json(data: dict) -> Splitting:
    try:
        splitting = Splitting(
            int(data["m"]),
            int(data["q"]),
            tuple(int(x) for x in data["s1"]),
            tuple(int(x) for x in data["s2"]),
            int(data["a"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad splitting {data!r}: {exc}") from exc
    declared = data.get("mu_minus1")
    actual = "swaps" if splitting.given_by_mu_minus1 else "fixes"
    if declared is not None and declared != actual:
        raise SchemaError(f"mu_minus1 is {actual!r}, payload says {declared!r}")
    return splitting


def code_to_json(code: CyclicCode) -> dict:
    return {
        "ring": ring_to_json(code.spec),
        "n": code.n,
        "F": [rpoly_to_json(f) for f in code.F],
    }


def code_from_json(data: dict) -> CyclicCode:
    try:
        spec = ring_from_json(data["ring"])
        family = tuple(rpoly_from_json(f) for f in data["F"])
        return CyclicCode(spec, int(data["n"]), family)
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad cyclic code payload: {exc}") from exc


# ---------------------------------------------------------------------------
# Polynomial text format
# ---------------------------------------------------------------------------

_TERM = re.compile(r"^(\d+)?(x(?:\^(\d+))?)?$")


def poly_from_text(text: str, modulus: int, max_degree: int | None = None) -> list[int]:
    """Parse descending or mixed-order text with + and - signs; coefficients
    are reduced to canonical representatives mod `modulus`.  A term of degree
    above `max_degree` is rejected before any coefficient list is built."""
    compact = text.replace(" ", "").replace("*", "")
    if not compact:
        raise SchemaError("empty polynomial text")
    if compact == "0":
        return []
    compact = compact.replace("-", "+-")
    if compact.startswith("+"):
        compact = compact[1:]
    coeffs: dict[int, int] = {}
    for raw in compact.split("+"):
        if not raw:
            raise SchemaError(f"dangling sign in {text!r}")
        sign = 1
        if raw.startswith("-"):
            sign = -1
            raw = raw[1:]
        match = _TERM.match(raw)
        if not match or (match.group(1) is None and match.group(2) is None):
            raise SchemaError(f"cannot parse term {raw!r} in {text!r}")
        coeff = int(match.group(1)) if match.group(1) else 1
        if match.group(2) is None:
            power = 0
        elif match.group(3) is None:
            power = 1
        else:
            power = int(match.group(3))
        if max_degree is not None and power > max_degree:
            raise SchemaError(f"term {raw!r} has degree above {max_degree}")
        coeffs[power] = coeffs.get(power, 0) + sign * coeff
    out = [0] * (max(coeffs) + 1)
    for power, value in coeffs.items():
        out[power] = value % modulus
    while out and out[-1] == 0:
        out.pop()
    return out
