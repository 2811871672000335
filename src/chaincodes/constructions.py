"""Explicit isodual and self-dual cyclic code constructions over Z_{p^e}.

All constructions produce free codes of length 2^a * m generated by degree
n/2 products of scaled factor images, or (for the duadic lifts of odd length)
the free/two-stage code families attached to a splitting.  Emitted claims
("isodual", "self_dual", "dual_pair:<label>", "dual_equivalent_pair:<label>")
are re-checkable through verify_result, and results travel as JSON through
result_to_json and result_from_json.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .code import CyclicCode, search_multiplier_equivalence
from .exhaustive import DEFAULT_BUDGET, BudgetExceeded, min_hamming_weight
from .fieldpoly import Splitting
from .ring import RingSpec
from .ringpoly import (
    RPoly,
    lifted_factorization,
    primitive_root_of_unity,
    substitute_scaled,
)
from .serialize import SchemaError, code_from_json, code_to_json, ring_to_json, splitting_to_json


@dataclass(frozen=True)
class ConstructedCode:
    label: str
    code: CyclicCode
    claims: tuple[str, ...]


@dataclass
class ConstructionResult:
    kind: str
    params: dict
    codes: list[ConstructedCode] = field(default_factory=list)

    def by_label(self, label: str) -> CyclicCode:
        for entry in self.codes:
            if entry.label == label:
                return entry.code
        raise KeyError(label)

    def labels(self) -> list[str]:
        return [entry.label for entry in self.codes]


def result_to_json(result: ConstructionResult, reports: dict[str, dict] | None = None) -> dict:
    codes = []
    for entry in result.codes:
        item: dict = {
            "label": entry.label,
            "code": code_to_json(entry.code),
            "claims": list(entry.claims),
        }
        if reports is not None:
            item["verified"] = reports.get(entry.label, {})
        codes.append(item)
    return {"kind": result.kind, "params": result.params, "codes": codes}


def result_from_json(data: dict) -> ConstructionResult:
    try:
        codes = [
            ConstructedCode(
                str(item["label"]),
                code_from_json(item["code"]),
                tuple(str(c) for c in item.get("claims", ())),
            )
            for item in data["codes"]
        ]
        return ConstructionResult(
            kind=str(data["kind"]), params=dict(data["params"]), codes=codes
        )
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad construction result payload: {exc}") from exc


def _check_odd_length(m: int, spec: RingSpec) -> None:
    if m < 1 or m % 2 == 0:
        raise ValueError(f"m must be odd and positive, got {m}")
    if m % spec.p == 0:
        raise ValueError(f"p = {spec.p} divides m = {m}")


def _doubling_step(
    m: int, a: int, spec: RingSpec, check: Callable[[], None] | None = None
) -> tuple[int, int, dict]:
    """The shared step of the length 2^a * m constructions: check m and a (then
    run check, if given), and return n = 2^a * m, the inverse of the smallest
    primitive 2^a-th root of unity and the params every such result carries."""
    _check_odd_length(m, spec)
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    if check is not None:
        check()
    alpha = primitive_root_of_unity(2**a, spec)
    n = 2**a * m
    params = {"ring": ring_to_json(spec), "m": m, "a": a, "n": n, "alpha": alpha.value}
    return n, spec.inverse(alpha.value), params


def _half_degree_code(
    sign: int, parts: list[tuple[RPoly, int]], inv: int, n: int, spec: RingSpec
) -> CyclicCode:
    """The free code generated by (x^(n/2 - d) + sign) * prod monic g(inv^k x)
    over the parts (g, k), d the sum of their degrees."""
    degree = n // 2 - sum(g.degree for g, _ in parts)
    gen = RPoly(spec, tuple([sign % spec.modulus] + [0] * (degree - 1) + [1]))
    for g, k in parts:
        scale = spec.element(pow(inv, k, spec.modulus))
        gen = gen * substitute_scaled(g, scale, normalize_monic=True)
    if gen.degree != n // 2:
        raise AssertionError(f"generator degree {gen.degree} != n/2 = {n // 2}")
    return CyclicCode.from_generator(gen, n)


def thm42_isodual(m: int, a: int, spec: RingSpec) -> ConstructionResult:
    """Two isodual free codes of length 2^a * m: the all-ones cofactor of
    x^m - 1 is substituted at the odd (resp. even) powers of a primitive
    2^a-th root of unity and multiplied by x^(2^(a-1)) -/+ 1."""
    n, inv, params = _doubling_step(m, a, spec)
    f = RPoly(spec, (1,) * m)  # (x^m - 1)/(x - 1)
    half = 2 ** (a - 1)
    odd = _half_degree_code(-1, [(f, 2 * k + 1) for k in range(half)], inv, n, spec)
    even = _half_degree_code(+1, [(f, 2 * k) for k in range(1, half + 1)], inv, n, spec)
    return ConstructionResult(
        kind="thm42",
        params=params,
        codes=[
            ConstructedCode("G_1", odd, ("isodual",)),
            ConstructedCode("G_2", even, ("isodual",)),
        ],
    )


def _mixed_pair_codes(
    g1: RPoly, g2: RPoly, a: int, inv: int, spec: RingSpec, n: int
) -> list[ConstructedCode]:
    """The four mixed-product codes C_ij / C'_ij (i != j); inv is the inverse
    of the primitive 2^a-th root of unity."""
    half = 2 ** (a - 1)
    out = []
    for i, j, gi, gj in ((1, 2, g1, g2), (2, 1, g2, g1)):
        parts = [(gi, 2 * k) for k in range(1, half + 1)] + [(gj, 2 * k + 1) for k in range(half)]
        for label, sign in ((f"C_{i}{j}", -1), (f"C'_{i}{j}", +1)):
            code = _half_degree_code(sign, parts, inv, n, spec)
            out.append(ConstructedCode(label, code, ("isodual",)))
    return out


def thm44_isodual(
    m: int, a: int, spec: RingSpec, g1: RPoly, g2: RPoly
) -> ConstructionResult:
    """Four isodual free codes of length 2^a * m built from a factorization
    x^m - 1 = (x - 1) * g1 * g2 with nonconstant monic g1, g2."""

    def check_factors() -> None:
        if g1.degree < 1 or g2.degree < 1:
            raise ValueError("g1 and g2 must be nonconstant")
        x_minus_1 = RPoly(spec, (spec.modulus - 1, 1))
        if x_minus_1 * g1 * g2 != RPoly.xn_minus_1(spec, m):
            raise ValueError("(x - 1) * g1 * g2 is not x^m - 1")

    n, inv, params = _doubling_step(m, a, spec, check_factors)
    params.update(g1=list(g1.coeffs), g2=list(g2.coeffs))
    return ConstructionResult(
        kind="thm44", params=params, codes=_mixed_pair_codes(g1, g2, a, inv, spec, n)
    )


def remark46_code(m: int, a: int, spec: RingSpec) -> CyclicCode:
    """The isodual free code generated by x^(n/2) - 1, n = 2^a * m."""
    n, inv, _ = _doubling_step(m, a, spec)
    return _half_degree_code(-1, [], inv, n, spec)


def duadic_pair(m: int, spec: RingSpec, splitting: Splitting) -> tuple[RPoly, RPoly]:
    """Hensel-lifted generators (g_1, g_2) whose residue root-exponent sets
    are the two sides of the splitting."""
    _check_odd_length(m, spec)
    if splitting.m != m or splitting.q != spec.p:
        raise ValueError(
            f"splitting is mod {splitting.m} for q = {splitting.q}, "
            f"wanted mod {m} for q = {spec.p}"
        )
    s1, s2 = set(splitting.s1), set(splitting.s2)
    g1 = RPoly.one(spec)
    g2 = RPoly.one(spec)
    for coset, _, lifted in lifted_factorization(m, spec):
        members = set(coset)
        if members == {0}:
            continue
        if members <= s1:
            g1 = g1 * lifted
        elif members <= s2:
            g2 = g2 * lifted
        else:
            raise ValueError(f"coset {coset} is not contained in either side")
    return g1, g2


def duadic_lift(m: int, spec: RingSpec, splitting: Splitting) -> ConstructionResult:
    """The free codes D'_i = <g_i>, C'_i = <(x-1) g_i> and, for even e, the
    two-stage codes E_i = <(x-1) g_i, p^(e/2) g_1 g_2> attached to a
    splitting.  The E_i are claimed self-dual when negation swaps the two
    sides of the splitting, and a mutually-dual isodual pair otherwise."""
    g1, g2 = duadic_pair(m, spec, splitting)
    x_minus_1 = RPoly(spec, (spec.modulus - 1, 1))
    notes: list[str] = []
    codes = [
        ConstructedCode("D'_1", CyclicCode.from_generator(g1, m), ()),
        ConstructedCode("D'_2", CyclicCode.from_generator(g2, m), ()),
        ConstructedCode("C'_1", CyclicCode.from_generator(x_minus_1 * g1, m), ()),
        ConstructedCode("C'_2", CyclicCode.from_generator(x_minus_1 * g2, m), ()),
    ]
    if spec.e % 2 == 0:
        stage = spec.e // 2
        e1 = CyclicCode.from_two_stage(x_minus_1 * g1, g1, stage, m)
        e2 = CyclicCode.from_two_stage(x_minus_1 * g2, g2, stage, m)
        if splitting.given_by_mu_minus1:
            codes.append(ConstructedCode("E_1", e1, ("self_dual",)))
            codes.append(ConstructedCode("E_2", e2, ("self_dual",)))
        else:
            codes.append(ConstructedCode("E_1", e1, ("isodual", "dual_pair:E_2")))
            codes.append(ConstructedCode("E_2", e2, ("isodual", "dual_pair:E_1")))
    else:
        notes.append("two-stage codes omitted: nilpotency index is odd")
    params = {
        "ring": ring_to_json(spec),
        "m": m,
        "n": m,
        "splitting": splitting_to_json(splitting),
        "notes": notes,
    }
    return ConstructionResult(kind="duadic", params=params, codes=codes)


def thm510_isodual(
    m: int, a: int, spec: RingSpec, splitting: Splitting
) -> ConstructionResult:
    """Length 2^a * m codes from a duadic pair: the four mixed-product codes
    (always isodual), plus the pure-product codes which are isodual when the
    splitting is given by negation and otherwise form dual-equivalent pairs."""
    g1, g2 = duadic_pair(m, spec, splitting)
    n, inv, params = _doubling_step(m, a, spec)
    params["splitting"] = splitting_to_json(splitting)
    codes = _mixed_pair_codes(g1, g2, a, inv, spec, n)
    for i, j, gi in ((1, 2, g1), (2, 1, g2)):
        parts = [(gi, k) for k in range(1, 2**a + 1)]
        for label, partner, sign in (("C", "C'", -1), ("C'", "C", +1)):
            if splitting.given_by_mu_minus1:
                claims = ("isodual",)
            else:
                claims = (f"dual_equivalent_pair:{partner}_{j}",)
            code = _half_degree_code(sign, parts, inv, n, spec)
            codes.append(ConstructedCode(f"{label}_{i}", code, claims))
    return ConstructionResult(kind="thm510", params=params, codes=codes)


# ---------------------------------------------------------------------------
# Alternative generator-matrix shapes for the duadic families
# ---------------------------------------------------------------------------


def oddlike_generator_matrix(evenlike: CyclicCode) -> list[list[int]]:
    """Generator matrix of the odd-like code D'_i: the all-ones row stacked
    on top of the matrix of the even-like code C'_i."""
    return [[1] * evenlike.n] + evenlike.generator_matrix()


def two_stage_generator_matrix(evenlike: CyclicCode) -> list[list[int]]:
    """Generator matrix of the two-stage code E_i: the matrix of C'_i with the
    constant row p^(e/2) * (1, ..., 1) appended below (e must be even)."""
    spec = evenlike.spec
    if spec.e % 2:
        raise ValueError("two-stage matrix shape requires an even nilpotency index")
    scale = spec.p ** (spec.e // 2)
    return evenlike.generator_matrix() + [[scale] * evenlike.n]


# ---------------------------------------------------------------------------
# Claim verification
# ---------------------------------------------------------------------------


def verify_result(result: ConstructionResult, budget: int = DEFAULT_BUDGET) -> dict[str, dict]:
    """Re-check every emitted claim; returns one report per label.

    Reports include the verification verdict per claim, an isoduality
    certificate when found, the dual partner among the result's own codes
    when one exists, and the minimum weight when it fits the budget.
    """
    by_label = {entry.label: entry.code for entry in result.codes}
    reports: dict[str, dict] = {}
    for entry in result.codes:
        code = entry.code
        report: dict = {"claims": {}}
        code_dual = code.dual()
        for claim in entry.claims:
            if claim == "isodual":
                cert = search_multiplier_equivalence(code, code_dual)
                if cert is not None:
                    report["certificate"] = {"a": cert.a, "lam": cert.lam}
                    if cert.a not in (1, code.n - 1):
                        # no negation-and-scaling map fits; a wider unit
                        # multiplier is still a sound monomial witness
                        report["certificate"]["via"] = "multiplier_search"
                report["claims"][claim] = cert is not None
            elif claim == "self_dual":
                report["claims"][claim] = code_dual == code
            elif claim.startswith("dual_pair:"):
                partner = by_label[claim.split(":", 1)[1]]
                report["claims"][claim] = code_dual == partner
            elif claim.startswith("dual_equivalent_pair:"):
                partner = by_label[claim.split(":", 1)[1]]
                cert = search_multiplier_equivalence(partner, code_dual)
                report["claims"][claim] = cert is not None
                if cert is not None:
                    report["pair_certificate"] = {"a": cert.a, "lam": cert.lam}
            else:
                raise ValueError(f"unknown claim {claim!r}")
        for label, other in by_label.items():
            if label != entry.label and code_dual == other:
                report["dual_is"] = label
                break
        else:
            report["dual_is"] = entry.label if code_dual == code else None
        if not code.is_zero_code():
            try:
                if budget <= 0:  # a zero budget asks for no weight at all
                    raise BudgetExceeded(f"budget {budget} enumerates no word")
                weight = min_hamming_weight(code, budget=budget, strategy="auto")
                report["weight"] = weight.weight
                report["weight_strategy"] = weight.strategy
            except BudgetExceeded:
                report["weight"] = None
                report["weight_status"] = "budget_exceeded"
        reports[entry.label] = report
    return reports


def all_claims_hold(reports: dict[str, dict]) -> bool:
    return all(all(v for v in r["claims"].values()) for r in reports.values())
