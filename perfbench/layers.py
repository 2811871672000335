"""Which public library functions the traced pass wraps, under which layer,
and the counters each one feeds.  Layer names follow the library's modules."""

from __future__ import annotations

import functools

from chaincodes import cli, code, constructions, exhaustive, fieldpoly, ringpoly
from chaincodes.code import CyclicCode

from perfbench import workloads
from perfbench.metrics import COUNTERS, LAYERS
from perfbench.trace import Tracer, layer_summary, modules_named


def _calls(name):
    def count(counters, args, kwargs, result, exc):
        counters[name] += 1

    return count


def _weight(counters, args, kwargs, result, exc):
    counters["exhaustive.weight.calls"] += 1
    if isinstance(exc, exhaustive.BudgetExceeded):
        counters["exhaustive.weight.words"] += exc.enumerated
        counters["exhaustive.weight.budget_exceeded"] += 1
    elif result is not None:
        counters["exhaustive.weight.words"] += result.enumerated


def _verify(counters, args, kwargs, result, exc):
    """Claims checked, and weights skipped because they would exceed a
    nonzero budget (a zero budget asks for no weights at all)."""
    if result is None:
        return
    counters["constructions.verify.claims"] += sum(len(r["claims"]) for r in result.values())
    if kwargs.get("budget", exhaustive.DEFAULT_BUDGET) > 0:
        counters["exhaustive.weight.budget_exceeded"] += sum(
            r.get("weight_status") == "budget_exceeded" for r in result.values()
        )


def _search(counters, args, kwargs, result, exc):
    counters["code.certify.searches"] += 1
    counters["code.certify.hits"] += result is not None


def _annihilator(counters, args, kwargs, result, exc):
    if result is not None:
        counters["exhaustive.annihilator.vectors"] += result


def _codewords(counters, args, kwargs, result, exc):
    if result is not None:
        counters["code.codewords.words"] += len(result)


def _factors(counters, args, kwargs, result, exc):
    if result is not None:
        counters["ringpoly.lift.factors"] += len(result)


def _codes(counters, args, kwargs, result, exc):
    if result is not None:
        counters["constructions.build.codes"] += len(result.codes)


def _splittings(counters, args, kwargs, result, exc):
    if exc is not None:
        counters["fieldpoly.splittings.errors"] += 1
    elif result is not None:
        counters["fieldpoly.splittings.found"] += len(result)


def _listed(method):
    """A generator method run to the end inside its span, returning a list."""

    @functools.wraps(method)
    def listed(self, *args, **kwargs):
        return list(method(self, *args, **kwargs))

    return listed


def install(tracer: Tracer) -> None:
    CyclicCode.codewords = _listed(CyclicCode.codewords)
    maps = _calls("code.certify.maps_tried")
    hooks = [
        (exhaustive, "min_hamming_weight", "exhaustive.weight", _weight),
        (exhaustive, "annihilator_count", "exhaustive.annihilator", _annihilator),
        (exhaustive, "annihilator_vectors", "exhaustive.annihilator", None),
        (CyclicCode, "codewords", "code.codewords", _codewords),
        (CyclicCode, "dual", "code.dual", _calls("code.dual.calls")),
        (CyclicCode, "certify_isodual", "code.certify", None),
        (code, "search_equivalence", "code.certify", _search),
        (code, "search_multiplier_equivalence", "code.certify", _search),
        (CyclicCode, "apply_multiplier", None, maps),
        (CyclicCode, "apply_scaling", None, maps),
        (ringpoly, "nth_roots_of_unity", "ringpoly.roots", _calls("ringpoly.roots.calls")),
        (ringpoly, "lifted_factorization", "ringpoly.lift", _factors),
        (fieldpoly, "factor_xn_minus_1", "fieldpoly.factor", _calls("fieldpoly.factor.calls")),
        (fieldpoly, "find_splittings", "fieldpoly.splittings", _splittings),
        (cli, "build_construction", "constructions.build", _codes),
        (constructions, "verify_result", "constructions.verify", _verify),
        (workloads, "serialize_rows", "serialize", None),
    ]
    tracer.install(hooks, modules_named("chaincodes") + [workloads])


def metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer self seconds and counters of one traced pass."""
    selfs = layer_summary(tracer.spans, wall)
    out = {f"{layer}.self_s": selfs.get(layer, 0.0) for layer in LAYERS}
    out["other.self_s"] = selfs["other"]
    out.update({name: float(tracer.counters[name]) for name in COUNTERS})
    weight_s = selfs.get("exhaustive.weight", 0.0)
    out["exhaustive.weight.words_per_s"] = (
        out["exhaustive.weight.words"] / weight_s if weight_s > 0 else 0.0
    )
    searches = tracer.counters["code.certify.searches"]
    out["code.certify.hit_ratio"] = tracer.counters["code.certify.hits"] / searches if searches else 0.0
    return out
