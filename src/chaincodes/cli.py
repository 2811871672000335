"""Command-line interface: factorization, constructions, weights, searches.

Exit codes are a stable contract: 0 success, 2 invalid input, 3 a claimed
property failed verification, 4 enumeration budget exceeded.  All emitted
JSON is deterministic (sorted keys, no timestamps).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from math import gcd
from pathlib import Path

from .code import ZeroCode
from .constructions import (
    ConstructedCode,
    ConstructionResult,
    all_claims_hold,
    duadic_lift,
    duadic_pair,
    remark46_code,
    result_to_json,
    thm42_isodual,
    thm44_isodual,
    thm510_isodual,
    verify_result,
)
from .exhaustive import DEFAULT_BUDGET, BudgetExceeded, min_hamming_weight
from .fieldpoly import Splitting, find_splittings
from .ring import RingSpec
from .ringpoly import RPoly, lifted_factorization
from .serialize import (
    SchemaError,
    code_from_json,
    poly_from_text,
    ring_to_json,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_VERIFY_FAILED = 3
EXIT_BUDGET = 4

CONSTRUCTION_KINDS = ("thm42", "thm44", "remark46", "duadic", "thm510")

# Caps on construct --m, search --m-max, the length 2^a * m of the kinds that
# take --a, factor --n, and p^e (the 64-bit range of RingSpec), checked before
# any work starts; MAX_N = 2 * MAX_M accepts every a = 1 length
MAX_M = 1000
MAX_N = 2 * MAX_M
MAX_RING_SIZE = 2**63 - 1


def _check_caps(m: int, rings: list[tuple[int, int]], a: int | None = None) -> None:
    if m > MAX_M:
        raise ValueError(f"m = {m} is above the cap MAX_M = {MAX_M}")
    # 2^a > MAX_N once a reaches its bit length, so a huge a is never raised to
    if a is not None and m >= 1 and a >= 1 and (a >= MAX_N.bit_length() or 2**a * m > MAX_N):
        raise ValueError(f"length 2^{a} * {m} is above the cap MAX_N = {MAX_N}")
    for p, e in rings:
        # p^64 > MAX_RING_SIZE for every p >= 2, so a huge e is never raised to
        if p > 1 and p ** min(e, 64) > MAX_RING_SIZE:
            raise ValueError(f"ring size {p}^{e} is above the cap MAX_RING_SIZE = 2^63 - 1")


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def _dump_row(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc


# ---------------------------------------------------------------------------
# factor
# ---------------------------------------------------------------------------


def cmd_factor(args: argparse.Namespace) -> int:
    if args.n > MAX_N:
        raise ValueError(f"n = {args.n} is above the cap MAX_N = {MAX_N}")
    spec = RingSpec(args.p, args.e)
    # factor_xn_minus_1 rejects n < 1 and p | n with a ValueError: exit 2
    triples = lifted_factorization(args.n, spec)
    doc = {
        "ring": ring_to_json(spec),
        "n": args.n,
        "factors": [
            {
                "coset": list(coset),
                "residue": list(residue.coeffs),
                "lifted": list(lifted.coeffs),
            }
            for coset, residue, lifted in triples
        ],
    }
    if args.json:
        print(_dump(doc))
    else:
        print(f"x^{args.n} - 1 over {spec}:")
        for coset, residue, lifted in triples:
            print(f"  coset {list(coset)}:")
            print(f"    lifted : {lifted}")
            print(f"    residue: {residue}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)  # one splitting search per (m, p) for all the jobs of a search, failed or not
def _pick_splitting(m: int, p: int, index: int) -> Splitting | str:
    """The splitting, or the message of the error that refuses it."""
    try:
        splittings = find_splittings(m, p)
    except ValueError as exc:
        return str(exc)
    if not splittings:
        return f"no splitting exists mod {m} for q = {p}"
    if not 0 <= index < len(splittings):
        return f"splitting index {index} out of range (found {len(splittings)})"
    return splittings[index]


def build_construction(
    kind: str,
    spec: RingSpec,
    m: int,
    a: int,
    splitting_index: int = 0,
    g1_text: str | None = None,
    g2_text: str | None = None,
) -> ConstructionResult:
    def splitting() -> Splitting:
        picked = _pick_splitting(m, spec.p, splitting_index)
        if isinstance(picked, str):
            raise ValueError(picked)
        return picked

    if kind == "thm42":
        return thm42_isodual(m, a, spec)
    if kind == "remark46":
        code = remark46_code(m, a, spec)
        params = {"ring": ring_to_json(spec), "m": m, "a": a, "n": code.n}
        return ConstructionResult(
            kind="remark46",
            params=params,
            codes=[ConstructedCode("G", code, ("isodual",))],
        )
    if kind == "thm44":
        if (g1_text is None) != (g2_text is None):
            raise ValueError("provide both --g1 and --g2, or neither")
        if g1_text is not None:
            # g1 and g2 divide x^m - 1 properly, so neither has degree m or more
            g1 = RPoly(spec, tuple(poly_from_text(g1_text, spec.modulus, max_degree=m - 1)))
            g2 = RPoly(spec, tuple(poly_from_text(g2_text, spec.modulus, max_degree=m - 1)))
        else:
            g1, g2 = duadic_pair(m, spec, splitting())
        return thm44_isodual(m, a, spec, g1, g2)
    if kind == "duadic":
        return duadic_lift(m, spec, splitting())
    if kind == "thm510":
        return thm510_isodual(m, a, spec, splitting())
    raise ValueError(f"unknown construction kind {kind!r}")


def _print_result_text(result: ConstructionResult, reports: dict[str, dict] | None) -> None:
    params = {k: v for k, v in result.params.items() if k != "ring"}
    ring = result.params.get("ring", {})
    print(f"{result.kind} over Z_{ring.get('p', '?')}^{ring.get('e', '?')}: {params}")
    for entry in result.codes:
        code = entry.code
        if code.is_free():
            desc = f"<{code.free_generator()}>"
        else:
            desc = "family " + "; ".join(str(f) for f in code.F)
        claims = ", ".join(entry.claims) if entry.claims else "-"
        print(f"  {entry.label}: n={code.n} log_p|C|={code.cardinality_log()} {desc}")
        print(f"    claims: {claims}")
        if reports is not None:
            report = reports[entry.label]
            verdicts = ", ".join(f"{k}={v}" for k, v in report["claims"].items()) or "-"
            print(f"    verified: {verdicts}")
            if "certificate" in report:
                cert = report["certificate"]
                print(f"    certificate: a={cert['a']} lam={cert['lam']}")
            if report.get("dual_is"):
                print(f"    dual is: {report['dual_is']}")
            if report.get("weight") is not None:
                print(f"    min weight: {report['weight']} ({report['weight_strategy']})")


def cmd_construct(args: argparse.Namespace) -> int:
    _check_caps(args.m, [(args.p, args.e)], None if args.kind == "duadic" else args.a)
    spec = RingSpec(args.p, args.e)
    result = build_construction(
        args.kind, spec, args.m, args.a, args.splitting, args.g1, args.g2
    )
    reports = verify_result(result, budget=args.budget) if args.verify else None
    doc = result_to_json(result, reports)
    if args.out:
        Path(args.out).write_text(_dump(doc) + "\n")
    if args.json:
        print(_dump(doc))
    else:
        _print_result_text(result, reports)
    if reports is not None and not all_claims_hold(reports):
        print("verification failed: a claimed property did not check out", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# weight
# ---------------------------------------------------------------------------


def cmd_weight(args: argparse.Namespace) -> int:
    data = json.loads(Path(args.codefile).read_text())
    code = code_from_json(data)
    try:
        report = min_hamming_weight(code, budget=args.budget, strategy=args.strategy)
    except BudgetExceeded as exc:
        doc = {
            "status": "budget_exceeded",
            "weight": None,
            "lower_bound": exc.lower_bound,
            "upper_bound": exc.upper_bound,
            "enumerated": exc.enumerated,
        }
        if args.json:
            print(_dump(doc))
        else:
            print(
                f"{exc.lower_bound} <= minimum weight <= {exc.upper_bound} "
                f"(BOUNDS ONLY: budget exceeded after {exc.enumerated} words)"
            )
        return EXIT_BUDGET
    doc = {
        "status": "ok",
        "weight": report.weight,
        "strategy": report.strategy,
        "enumerated": report.enumerated,
    }
    if args.json:
        print(_dump(doc))
    else:
        print(
            f"minimum weight {report.weight} "
            f"(strategy {report.strategy}, {report.enumerated} words enumerated)"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def _search_points(args: argparse.Namespace):
    for p in sorted(set(args.p)):
        for e in sorted(set(args.e)):
            spec = RingSpec(p, e)
            for m in range(1, args.m_max + 1, 2):
                if gcd(m, p) != 1:
                    continue
                yield spec, m


def cmd_search(args: argparse.Namespace) -> int:
    _check_caps(args.m_max, [(p, e) for p in args.p for e in args.e], max(args.a, default=None))
    records: dict[str, dict] = {}
    out_path = Path(args.out)
    if out_path.exists():
        for number, line in enumerate(out_path.read_text().splitlines(), 1):
            if line.strip():
                row = json.loads(line)
                # the key sorts the file, and the summary reads the verified claims
                if not (isinstance(row, dict) and isinstance(row.get("key"), str)
                        and isinstance(row.get("verified"), dict)
                        and isinstance(row["verified"].get("claims"), dict)):
                    raise SchemaError(f"{out_path} line {number} is not a search record")
                records[row["key"]] = row

    for spec, m in _search_points(args):
        jobs: list[tuple[str, int | None]] = []
        for a in sorted(set(args.a)):
            if (spec.p - 1) % (2**a) == 0:
                jobs.extend([("thm42", a), ("remark46", a), ("thm44", a), ("thm510", a)])
        jobs.append(("duadic", None))
        for kind, a in jobs:
            try:
                result = build_construction(kind, spec, m, a if a is not None else 1)
            except (ValueError, ArithmeticError) as exc:
                print(f"skip {kind} p={spec.p} e={spec.e} m={m} a={a}: {exc}", file=sys.stderr)
                continue
            try:
                reports = verify_result(result, budget=args.budget)
            except (ValueError, ArithmeticError) as exc:
                print(
                    f"verify failed {kind} p={spec.p} e={spec.e} m={m} a={a}: {exc}",
                    file=sys.stderr,
                )
                continue
            for item in result_to_json(result, reports)["codes"]:
                key = f"p{spec.p}e{spec.e}|m{m}|a{a if a is not None else '-'}|{kind}|{item['label']}"
                records[key] = {**item, "key": key, "p": spec.p, "e": spec.e, "m": m, "a": a,
                                "n": item["code"]["n"], "kind": kind}

    lines = [_dump_row(records[key]) for key in sorted(records)]
    out_path.write_text("\n".join(lines) + ("\n" if lines else ""))
    if args.json:
        print(_dump({"records": len(records), "out": str(out_path)}))
    else:
        print(f"{len(records)} records -> {out_path}")
        for key in sorted(records):
            row = records[key]
            claims = row["verified"]["claims"]
            status = "ok" if all(claims.values()) else "FAILED"
            weight = row["verified"].get("weight")
            print(f"  {key}: weight={weight} claims={status}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaincodes",
        description="Isodual and self-dual cyclic codes over Z_{p^e}: "
        "factorization, construction, verification and weight computation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    f = sub.add_parser("factor", help="factor x^n - 1 over Z_{p^e} and F_p")
    f.add_argument("--p", type=int, required=True)
    f.add_argument("--e", type=int, required=True)
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--json", action="store_true")
    f.set_defaults(func=cmd_factor)

    c = sub.add_parser("construct", help="run a code construction")
    c.add_argument("kind", choices=CONSTRUCTION_KINDS)
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--e", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--a", type=int, default=1)
    c.add_argument("--splitting", type=int, default=0, help="splitting index (canonical order)")
    c.add_argument("--g1", type=str, default=None, help="polynomial text override")
    c.add_argument("--g2", type=str, default=None, help="polynomial text override")
    c.add_argument("--verify", action="store_true")
    c.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    c.add_argument("--out", type=str, default=None)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_construct)

    w = sub.add_parser("weight", help="minimum Hamming weight of a code file")
    w.add_argument("codefile", type=str)
    w.add_argument(
        "--strategy", choices=("auto", "direct", "residue", "both"), default="auto"
    )
    w.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    w.add_argument("--json", action="store_true")
    w.set_defaults(func=cmd_weight)

    s = sub.add_parser("search", help="sweep parameters and append verified records")
    s.add_argument("--p", type=_int_list, required=True, help="comma-separated primes")
    s.add_argument("--e", type=_int_list, required=True)
    s.add_argument("--m-max", type=int, required=True)
    s.add_argument("--a", type=_int_list, default=[1])
    s.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    s.add_argument("--out", type=str, required=True)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_search)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SchemaError, ZeroCode, ValueError, ArithmeticError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
