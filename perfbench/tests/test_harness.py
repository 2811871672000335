"""Tests of the benchmark harness.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import types

import pytest

from perfbench import workloads
from perfbench.checks import check
from perfbench.metrics import _beta_cdf, percentile
from perfbench.run import summarize
from perfbench.trace import Tracer, layer_summary, self_times


def test_percentile_is_harrell_davis():
    values = list(range(100, 0, -1))
    assert percentile(values, 50) == pytest.approx(50.5)  # symmetric weights: the middle pair's mean
    assert 89 < percentile(values, 90) < 92
    assert percentile([2 * v + 3 for v in values], 90) == pytest.approx(2 * percentile(values, 90) + 3)
    assert percentile([7.0] * 120, 90) == pytest.approx(7.0)


def test_beta_cdf_matches_closed_forms():
    for x in (0.0, 0.1, 0.5, 0.93, 1.0):
        assert _beta_cdf(x, 1, 1) == pytest.approx(x)
        assert _beta_cdf(x, 4.5, 1) == pytest.approx(x**4.5)
        assert _beta_cdf(x, 1, 12.1) == pytest.approx(1 - (1 - x) ** 12.1)


def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)
    assert percentile(list(range(20)), 50) == pytest.approx(9.5)


def test_op_percentiles_take_each_ops_median_across_passes():
    latencies = [float(i) for i in range(120)]
    stalled = latencies[:100] + [1000.0] * 20  # one pass whose last ops stalled
    doc = {"ops": 120, "op_digest": "", "wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 50.0, "digests": [""] * 120}
    doc.update(errors={}, wrong={}, codes=[0] * 120, resolved=[0] * 120)
    passes = [{**doc, "latencies_ms": lat} for lat in (latencies, latencies, stalled)]
    summary = summarize("factor", passes, [], [0.2])["end_to_end"]
    assert summary["op_p90_ms"] == pytest.approx(percentile(latencies, 90))


def _span(layer, start, end, parent):
    return {"layer": layer, "fn": layer, "start": start, "end": end, "parent": parent, "op": 0}


def test_self_time_subtracts_direct_children():
    spans = [
        _span("constructions.verify", 0.0, 10.0, None),
        _span("code.certify", 1.0, 6.0, 0),
        _span("ringpoly.roots", 2.0, 4.0, 1),
        _span("code.dual", 7.0, 8.0, 0),
        _span("ringpoly.roots", 11.0, 12.0, None),
    ]
    assert self_times(spans) == [4.0, 3.0, 2.0, 1.0, 1.0]
    summary = layer_summary(spans, wall=15.0)
    assert summary["constructions.verify"] == 4.0
    assert summary["ringpoly.roots"] == 3.0
    assert summary["other"] == 4.0  # 15 s of wall, 11 s under top-level spans
    assert sum(summary.values()) == 15.0


def test_install_replaces_every_alias_and_nests_spans():
    def inner(x):
        return x + 1

    def outer(x):
        return home.inner(x) * 2

    home = types.ModuleType("home")
    home.inner, home.outer = inner, outer
    other = types.ModuleType("other")
    other.inner_alias = inner
    tracer = Tracer()

    def count(counters, args, kwargs, result, exc):
        counters["calls"] += 1

    tracer.install([(home, "inner", "low", count), (home, "outer", "high", None)], [home, other])
    assert other.inner_alias is home.inner is not inner
    assert home.outer(1) == 4
    assert other.inner_alias(1) == 2
    assert [(s["layer"], s["parent"]) for s in tracer.spans] == [("high", None), ("low", 0), ("low", None)]
    assert tracer.counters["calls"] == 2


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_op_list(workload):
    pools = workloads.load_pools()
    first = workloads.op_list(workload, 1, pools)
    again = workloads.op_list(workload, 1, json.loads(json.dumps(pools)))
    other = workloads.op_list(workload, 2, pools)
    assert json.dumps(first, sort_keys=True) == json.dumps(again, sort_keys=True)
    assert workloads.digest(first) == workloads.digest(again) != workloads.digest(other)
    assert len(first) == len(other) >= 100


def test_runs_pair_only_items_of_nearly_the_same_cost():
    costs = [1.0, 1.05, 1.08, 2.0, 5.0, 5.2, 9.0]
    items = [{"cost_ms": c} for c in reversed(costs)]
    assert [[i["cost_ms"] for i in run] for run in workloads.runs(items, 2)] == [
        [1.0, 1.05], [1.08], [2.0], [5.0, 5.2], [9.0]
    ]
    assert len(workloads.runs(items, 3)) == 4


def _cheapest(workload, op_kind):
    pools = workloads.load_pools()
    items = [i for s in pools[workload] for i in s["items"] if i["op"] == op_kind]
    return min(items, key=lambda i: i["cost_ms"])


def _pass_doc(ops, outputs):
    """A worker report for one checked pass, as summarize() reads it."""
    reasons = {str(i): check(op, out) for i, (op, out) in enumerate(zip(ops, outputs))}
    return {
        "ops": len(ops),
        "op_digest": workloads.digest(ops),
        "wall_s": 1.0,
        "cpu_s": 1.0,
        "peak_rss_mb": 50.0,
        "latencies_ms": [1.0] * 120,
        "digests": [workloads.digest(out) for out in outputs],
        "errors": {},
        "wrong": {i: r for i, r in reasons.items() if r is not None},
        "codes": [len(op.get("weights", ())) for op in ops],
        "resolved": [0] * len(ops),
    }


def test_changed_weight_drives_ok_ratio_below_one():
    op = next(
        item
        for item in sorted(
            (i for s in workloads.load_pools()["sweep"] for i in s["items"]), key=lambda i: i["cost_ms"]
        )
        if any(w is not None for w in item["weights"].values())
    )
    output = workloads.run_op(op)
    assert check(op, output) is None
    rows = [json.loads(line) for line in output["rows"]]
    row = next(r for r in rows if op["weights"][r["label"]] is not None)
    row["verified"]["weight"] += 1
    mutated = {"rows": [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in rows]}
    assert "reference" in check(op, mutated)

    good = summarize("sweep", [_pass_doc([op], [output])], [], [0.2])
    bad = summarize("sweep", [_pass_doc([op], [mutated])], [], [0.2])
    assert good["end_to_end"]["ok_ratio"] == 1.0 and good["correct"]
    assert bad["end_to_end"]["ok_ratio"] < 1.0 and not bad["correct"]


def test_oracle_and_factor_checks_catch_mutations():
    oracle = _cheapest("certify", "oracle")
    out = workloads.run_op(oracle)
    assert check(oracle, out) is None
    assert check(oracle, {**out, "annihilator_count": out["annihilator_count"] + 1}) is not None

    factor = _cheapest("factor", "factor")
    out = workloads.run_op(factor)
    assert check(factor, out) is None
    assert check(factor, {**out, "roots": out["roots"] + [1]}) is not None
    assert check(factor, {**out, "residue": out["residue"][1:]}) is not None


def test_benchmark_json_lists_every_reported_metric():
    from pathlib import Path

    from perfbench.metrics import END_TO_END, PER_LAYER

    doc = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
    assert tuple(w["name"] for w in doc["workloads"]) == workloads.WORKLOADS
    assert max(m["bound"] for m in doc["end_to_end"]) == next(
        m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s"
    )
