"""Seeded op lists and the ops the benchmark times.

Each workload is a list of strata in `pools.json`.  A stratum's items are
ranked by reference cost and cut into runs of at most `group` items whose
costs lie within a few percent of each other; a seed draws one item from
every run, and a stratum with group 1 goes into every op list whole.  Every
seed thus draws the same number of ops and swaps each only for one of
nearly the same cost, so the total work and the latency quantiles of one
seed match every other's: run-to-run spread measures the machine, not the
draw.  Certify and factor ops run cold, as one `chaincodes construct` or
`factor` call does: the worker clears the library's caches before each, so
an op's cost does not depend on the ops drawn before it.  Sweep ops share
the caches of their pass, as the jobs of one `chaincodes search` run do.

Ops reach the library only through module attributes (``cli.build_construction``
and so on), so the traced pass sees every call the ops make.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from chaincodes import cli, constructions, exhaustive, fieldpoly, ringpoly, serialize
from chaincodes.code import CyclicCode
from chaincodes.ring import RingSpec
from chaincodes.ringpoly import RPoly

POOLS = Path(__file__).with_name("pools.json")
WORKLOADS = ("sweep", "certify", "factor")
COLD = ("certify", "factor")

# Oracle ops materialize the annihilator and the dual code up to this size,
# as the dual-oracle acceptance check does.
MATERIALIZE_LIMIT = 20_000

# Items share a run when they cost within 5% plus half a millisecond of
# its cheapest item.
TOLERANCE = 0.05
SLACK_MS = 0.5


def load_pools() -> dict:
    return json.loads(POOLS.read_text())


def runs(items: list[dict], group: int) -> list[list[dict]]:
    """Items in cost order, at most `group` to a run, each costing within
    TOLERANCE plus SLACK_MS of its run's cheapest.  Items with different
    "like" values (for search jobs: codes built and weights resolved) never
    share a run, so every seed resolves the same share of weights."""
    out: list[list[dict]] = []
    open_runs: dict[str, list[dict]] = {}
    for item in sorted(items, key=lambda item: item["cost_ms"]):
        key = json.dumps(item.get("like"))
        run = open_runs.get(key)
        if run and len(run) < group and item["cost_ms"] <= run[0]["cost_ms"] * (1 + TOLERANCE) + SLACK_MS:
            run.append(item)
        else:
            open_runs[key] = [item]
            out.append(open_runs[key])
    return out


def op_list(workload: str, seed: int, pools: dict) -> list[dict]:
    """The seed's ops in pool order; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for stratum in pools[workload]:
        position = {id(item): i for i, item in enumerate(stratum["items"])}
        chosen = [rng.choice(run) for run in runs(stratum["items"], stratum["group"])]
        ops.extend(sorted(chosen, key=lambda item: position[id(item)]))
    return ops


def _library_caches() -> list:
    caches = {}
    for name, module in sorted(sys.modules.items()):
        if name.startswith("chaincodes"):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    caches[id(value)] = value
    return list(caches.values())


CACHES = _library_caches()


def clear_caches() -> None:
    """Forget every memoized library result, so that each op runs cold and
    costs the same whichever ops the seed drew before it."""
    for cache in CACHES:
        cache.cache_clear()


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def run_op(op: dict) -> dict:
    return OPS[op["op"]](op)


def serialize_rows(op: dict, result, reports: dict) -> list[str]:
    """One JSON line per code, as `chaincodes search` writes them."""
    spec = f"p{op['p']}e{op['e']}"
    rows = []
    for entry in result.codes:
        row = {
            "key": f"{spec}|m{op['m']}|a{op['a'] if op['a'] is not None else '-'}"
            f"|{op['kind']}|{entry.label}",
            "p": op["p"],
            "e": op["e"],
            "m": op["m"],
            "a": op["a"],
            "n": entry.code.n,
            "kind": op["kind"],
            "label": entry.label,
            "code": serialize.code_to_json(entry.code),
            "claims": list(entry.claims),
            "verified": reports[entry.label],
        }
        rows.append(json.dumps(row, sort_keys=True, separators=(",", ":")))
    return rows


def _build(op: dict):
    spec = RingSpec(op["p"], op["e"])
    return cli.build_construction(op["kind"], spec, op["m"], op["a"] or 1)


def search_op(op: dict) -> dict:
    """One `chaincodes search` job: build, verify at the default budget, record."""
    result = _build(op)
    reports = constructions.verify_result(result, budget=exhaustive.DEFAULT_BUDGET)
    return {"rows": serialize_rows(op, result, reports)}


def construct_op(op: dict) -> dict:
    """Claim checks only: a zero budget skips every weight enumeration."""
    result = _build(op)
    return {"reports": constructions.verify_result(result, budget=0)}


def family_code(p: int, e: int, n: int, levels: list[int]) -> CyclicCode:
    """The code whose basic irreducible factors sit at the given levels:
    0 in neither generator, 1 in the free generator only, 2 in both."""
    spec = RingSpec(p, e)
    factors = [lifted for _, _, lifted in ringpoly.lifted_factorization(n, spec)]
    g_free = g_torsion = RPoly.one(spec)
    for level, factor in zip(levels, factors):
        if level >= 1:
            g_free = g_free * factor
        if level == 2:
            g_torsion = g_torsion * factor
    if g_torsion == g_free:
        return CyclicCode.from_generator(g_free, n)
    return CyclicCode.from_two_stage(g_free, g_torsion, 1, n)


def _set_digest(words) -> list[int]:
    """Size, sum and xor of the element hashes: the same for equal sets in any
    order.  Tuples of ints hash alike in every process."""
    count = total = xor = 0
    for word in words:
        h = hash(word.entries)
        count, total, xor = count + 1, total + h, xor ^ h
    return [count, total % 2**64, xor]


def oracle_op(op: dict) -> dict:
    """The dual against the brute-force annihilator of one small code."""
    code = family_code(op["p"], op["e"], op["n"], op["levels"])
    dual = code.dual()
    out = {
        "dual_size": code.spec.p ** dual.cardinality_log(),
        "annihilator_count": exhaustive.annihilator_count(code),
    }
    if out["dual_size"] <= MATERIALIZE_LIMIT:
        out["annihilator"] = _set_digest(exhaustive.annihilator_vectors(code))
        out["dual_words"] = _set_digest(dual.codewords(limit=MATERIALIZE_LIMIT))
    return out


def factor_op(op: dict) -> dict:
    """Lift x^n - 1, search splittings mod n, list the n-th roots of unity."""
    spec = RingSpec(op["p"], op["e"])
    triples = ringpoly.lifted_factorization(op["n"], spec)
    out = {
        "residue": [list(residue.coeffs) for _, residue, _ in triples],
        "lifted": [list(lifted.coeffs) for _, _, lifted in triples],
    }
    try:
        found = fieldpoly.find_splittings(op["n"], op["p"])
        out["splittings"] = [
            [list(s.s1), list(s.s2), s.a, s.given_by_mu_minus1] for s in found
        ]
    except ValueError as exc:
        out["error"] = {"step": "find_splittings", "type": type(exc).__name__, "message": str(exc)}
    out["roots"] = [root.value for root in ringpoly.nth_roots_of_unity(op["n"], spec)]
    return out


OPS = {
    "search": search_op,
    "construct": construct_op,
    "oracle": oracle_op,
    "factor": factor_op,
}
