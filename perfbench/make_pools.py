"""Build perfbench/pools.json: the op pools, their reference costs and the
reference weight table.  Run once from the repository root; the output is
checked in, so op lists never depend on the machine that draws them.

    PYTHONPATH=src python3 -m perfbench.make_pools

Costs are the fastest of three cold runs of an op, in milliseconds, on the
machine that ran this script (see meta.json).  They only rank items for
stratified drawing.
"""

from __future__ import annotations

import json
import signal
import time
from math import gcd

from chaincodes.exhaustive import DEFAULT_BUDGET, enumeration_cost, min_hamming_weight
from chaincodes.fieldpoly import ord_mod
from chaincodes.ring import RingSpec, is_prime
from chaincodes.ringpoly import lifted_factorization

from perfbench import workloads

KINDS = ("thm42", "remark46", "thm44", "thm510")

# sweep: the ROADMAP's 768-record grid.  Jobs that enumerate more than
# 750,000 words are left out: those 22 jobs take 83% of the grid's time.
# Jobs slower than SWEEP_HEAVY_MS go into every op list, because hardly two
# of them cost nearly the same; the seed draws among the rest.
SWEEP_GRID = {"p": (3, 5, 13), "e": (2, 3), "m_max": 25, "a": (1, 2)}
SWEEP_WORDS_CAP = 750_000
SWEEP_HEAVY_MS = 100
SWEEP_GROUP = 3
REFERENCE_BUDGET = 2 * DEFAULT_BUDGET

# certify: constructions over rings up to 20,000 elements, three
# constructions over rings near 10^6 (the n-th-root scan), and the
# dual-vs-annihilator oracle on every code over Z_4 and Z_9 with n <= 8.
CERTIFY_PRIMES = (3, 5, 7, 11, 13, 17, 29, 37, 41)
CERTIFY_RING_CAP = 20_000
CERTIFY_M_MAX = 21
CERTIFY_LARGE = (("thm42", 101, 3, 5, 1), ("remark46", 89, 3, 7, 1), ("thm42", 73, 3, 3, 2))
CERTIFY_GROUP = 40
ORACLE_GROUP = 10

# factor: odd n <= 99 over every prime p <= 101.  Pairs whose residue field
# F_{p^s} has more than 10^14 elements, or whose op takes longer than the
# cap, are left to the program's regression tests except for the named
# cases in the fixed stratum.
FACTOR_PRIMES = tuple(p for p in range(2, 102) if is_prime(p))
FACTOR_FIELD_CAP = 10**14
FACTOR_RING_CAP = 100_000
FACTOR_COST_CAP_MS = 100
FACTOR_GROUP = 3
FACTOR_FIXED = (
    # find_splittings raises "negation neither swaps nor fixes the splitting"
    (11, 2, 35), (13, 2, 51), (19, 2, 15), (19, 2, 45), (19, 2, 51), (19, 2, 75),
    # a high-order length: ord_59(2) = 58
    (2, 2, 59),
    # large rings, where the n-th-root scan dominates
    (101, 3, 25), (31, 4, 7),
)


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def _cost(fn, op: dict, limit_s: int = 60, repeat: int = 3):
    """(milliseconds, output) of the fastest of `repeat` cold runs of fn(op),
    or (None, None) when a run passes the time limit."""
    signal.signal(signal.SIGALRM, _alarm)
    best = output = None
    for _ in range(repeat):
        workloads.clear_caches()
        signal.alarm(limit_s)
        start = time.perf_counter()
        try:
            output = fn(op)
        except _Timeout:
            return None, None
        finally:
            signal.alarm(0)
        elapsed = (time.perf_counter() - start) * 1e3
        best = elapsed if best is None else min(best, elapsed)
    return best, output


def _reference_weight(code) -> int | None:
    """Both engines where both fit the reference budget, else whichever fits."""
    if code.is_zero_code():
        return None
    for strategy in ("both", "direct", "residue") if code.is_free() else ("direct",):
        if enumeration_cost(code, strategy, REFERENCE_BUDGET) <= REFERENCE_BUDGET:
            return min_hamming_weight(code, REFERENCE_BUDGET, strategy).weight
    return None


def sweep_pool() -> list[dict]:
    items = []
    for p in SWEEP_GRID["p"]:
        for e in SWEEP_GRID["e"]:
            for m in range(1, SWEEP_GRID["m_max"] + 1, 2):
                if gcd(m, p) != 1:
                    continue
                jobs = [(kind, a) for a in SWEEP_GRID["a"] if (p - 1) % 2**a == 0 for kind in KINDS]
                for kind, a in jobs + [("duadic", None)]:
                    op = {"op": "search", "kind": kind, "p": p, "e": e, "m": m, "a": a}
                    try:
                        result = workloads._build(op)
                    except (ValueError, ArithmeticError):
                        continue  # `search` skips jobs with no construction
                    costs = [enumeration_cost(c.code, "auto", DEFAULT_BUDGET) for c in result.codes]
                    if sum(w for w in costs if w <= DEFAULT_BUDGET) > SWEEP_WORDS_CAP:
                        continue  # words the job enumerates: codes within budget
                    cost, output = _cost(workloads.search_op, op)
                    op["cost_ms"] = round(cost, 3)
                    op["like"] = [len(result.codes), sum(w is not None for w in _weights(output))]
                    op["weights"] = {c.label: _reference_weight(c.code) for c in result.codes}
                    items.append(op)
    return items


def _weights(output: dict) -> list:
    return [json.loads(row)["verified"].get("weight") for row in output["rows"]]


def certify_pools() -> tuple[list[dict], list[dict], list[dict]]:
    constructs = []
    for p in CERTIFY_PRIMES:
        for e in (1, 2, 3):
            if p**e > CERTIFY_RING_CAP:
                continue
            for m in range(3, CERTIFY_M_MAX + 1, 2):
                if gcd(m, p) != 1:
                    continue
                for kind in KINDS + ("duadic",):
                    for a in (1, 2) if kind != "duadic" else (None,):
                        op = {"op": "construct", "kind": kind, "p": p, "e": e, "m": m, "a": a}
                        try:
                            cost, _ = _cost(workloads.construct_op, op)
                        except (ValueError, ArithmeticError):
                            continue
                        constructs.append({**op, "cost_ms": round(cost, 3)})
    large = []
    for kind, p, e, m, a in CERTIFY_LARGE:
        op = {"op": "construct", "kind": kind, "p": p, "e": e, "m": m, "a": a}
        cost, _ = _cost(workloads.construct_op, op)
        large.append({**op, "cost_ms": round(cost, 3)})
    oracle = []
    for p in (2, 3):
        for n in range(2, 9):
            if gcd(n, p) != 1:
                continue
            k = len(lifted_factorization(n, RingSpec(p, 2)))
            for index in range(3**k):
                levels = [index // 3**i % 3 for i in range(k)]
                op = {"op": "oracle", "p": p, "e": 2, "n": n, "levels": levels}
                cost, _ = _cost(workloads.oracle_op, op)
                oracle.append({**op, "cost_ms": round(cost, 3)})
    return constructs, large, oracle


def factor_e(p: int, n: int) -> int:
    """Ring exponent of a pool pair: 1..4 by (p + n), then capped by ring size."""
    e = 1 + (p + n) % 4
    while e > 1 and p**e > FACTOR_RING_CAP:
        e -= 1
    return e


def factor_pools() -> tuple[list[dict], list[dict], dict]:
    fixed_pairs = {(p, n) for p, _, n in FACTOR_FIXED}
    sampled, excluded = [], {"splitting_errors": [], "over_cap": []}
    for p in FACTOR_PRIMES:
        for n in range(3, 100, 2):
            if gcd(n, p) != 1 or (p, n) in fixed_pairs:
                continue
            if p ** ord_mod(n, p) > FACTOR_FIELD_CAP:
                excluded["over_cap"].append([p, n])
                continue
            op = {"op": "factor", "p": p, "e": factor_e(p, n), "n": n}
            cost, out = _cost(workloads.factor_op, op, limit_s=3, repeat=1)
            if cost is None or cost > FACTOR_COST_CAP_MS:
                excluded["over_cap"].append([p, n])
            elif "error" in out:
                excluded["splitting_errors"].append([p, n])
            else:
                cost, _ = _cost(workloads.factor_op, op)
                sampled.append({**op, "cost_ms": round(cost, 3)})
    fixed = []
    for p, e, n in FACTOR_FIXED:
        op = {"op": "factor", "p": p, "e": e, "n": n}
        cost, _ = _cost(workloads.factor_op, op)
        fixed.append({**op, "cost_ms": round(cost, 3)})
    return sampled, fixed, excluded


def main() -> None:
    sweep = sweep_pool()
    constructs, large, oracle = certify_pools()
    factor_sampled, factor_fixed, excluded = factor_pools()
    pools = {
        "sweep": [
            {"name": "heavy jobs", "group": 1, "items": [i for i in sweep if i["cost_ms"] > SWEEP_HEAVY_MS]},
            {"name": "light jobs", "group": SWEEP_GROUP, "items": [i for i in sweep if i["cost_ms"] <= SWEEP_HEAVY_MS]},
        ],
        "certify": [
            {"name": "constructions", "group": CERTIFY_GROUP, "items": constructs},
            {"name": "large rings", "group": 1, "items": large},
            {"name": "dual oracle", "group": ORACLE_GROUP, "items": oracle},
        ],
        "factor": [
            {"name": "cold triples", "group": FACTOR_GROUP, "items": factor_sampled},
            {"name": "fixed", "group": 1, "items": factor_fixed},
        ],
        "factor_not_drawn": excluded,
    }
    workloads.POOLS.write_text(_format(pools))


def _format(pools: dict) -> str:
    """JSON with one pool item per line."""
    parts = []
    for key, value in sorted(pools.items()):
        if isinstance(value, dict):
            parts.append(f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}")
            continue
        strata = []
        for stratum in value:
            head = json.dumps({k: v for k, v in stratum.items() if k != "items"}, sort_keys=True)
            items = ",\n    ".join(json.dumps(item, sort_keys=True) for item in stratum["items"])
            strata.append(f'  {head[:-1]}, "items": [\n    {items}\n  ]}}')
        parts.append(f"{json.dumps(key)}: [\n" + ",\n".join(strata) + "\n]")
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    main()
