"""The library names that the benchmark harness in perfbench/ reaches.

perfbench/ is not part of this suite, so a library change that drops or
renames one of these names would otherwise only show when the traced
benchmark pass fails.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from chaincodes import exhaustive  # noqa: E402
from chaincodes.code import Codeword, CyclicCode, _residue_images  # noqa: E402
from chaincodes.ring import RingSpec  # noqa: E402
from chaincodes.ringpoly import RPoly  # noqa: E402
from perfbench import layers, make_pools, workloads  # noqa: E402


class _RecordingTracer:
    """Stands in for perfbench.trace.Tracer: keeps the hooks instead of
    wrapping them."""

    def install(self, hooks, modules) -> None:
        self.hooks = hooks
        self.modules = modules


def test_every_traced_hook_resolves(monkeypatch):
    # install() replaces CyclicCode.codewords with a listing wrapper;
    # monkeypatch puts the generator method back afterwards
    monkeypatch.setattr(CyclicCode, "codewords", CyclicCode.codewords)
    tracer = _RecordingTracer()
    layers.install(tracer)
    assert tracer.hooks
    for owner, attr, _, _ in tracer.hooks:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
    words = CyclicCode.zero(RingSpec(3, 2), 4).codewords()
    assert words == [Codeword(RingSpec(3, 2), (0, 0, 0, 0))]
    assert words[0].entries == (0, 0, 0, 0)


def test_clear_caches_forgets_the_residue_images():
    # cold ops must not read images that an earlier op computed
    _residue_images(RPoly(RingSpec(3, 1), (2, 1)), 1, 4)
    assert _residue_images.cache_info().currsize
    workloads.clear_caches()
    assert _residue_images.cache_info().currsize == 0


def test_annihilator_halves_are_built_once_per_code():
    # an oracle op counts the annihilator and then lists it, on one code
    code = CyclicCode.from_generator(RPoly(RingSpec(3, 2), (8, 1)), 4)
    exhaustive._half_keys.cache_clear()
    count = exhaustive.annihilator_count(code)
    assert len(list(exhaustive.annihilator_vectors(code))) == count == 9
    assert exhaustive._half_keys.cache_info().misses == 1
    for array in exhaustive._half_keys(code):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    workloads.clear_caches()
    assert exhaustive._half_keys.cache_info().currsize == 0


def test_workloads_and_make_pools_import():
    assert callable(workloads.run_op)
    assert callable(make_pools.main)


# Runs in a fresh interpreter, because layers.install rebinds library
# functions for the rest of the process.
_TRACED_FIRST_OPS = """
import json, time
from perfbench import layers, workloads
from perfbench.checks import check
from perfbench.trace import Tracer

tracer = Tracer()
layers.install(tracer)
pools = workloads.load_pools()
report = {"failed": {}, "wrong": {}}
start = time.perf_counter()
for name in workloads.WORKLOADS:
    op = workloads.op_list(name, 1, pools)[0]
    if name in workloads.COLD:
        workloads.clear_caches()
    try:
        output = workloads.run_op(op)
    except Exception as exc:
        report["failed"][name] = f"{type(exc).__name__}: {exc}"
        continue
    if "error" in output:  # a failed op, as the worker counts it
        report["failed"][name] = output["error"]
        continue
    reason = check(op, output)
    if reason is not None:
        report["wrong"][name] = reason
report["metrics"] = sorted(layers.metrics(tracer, time.perf_counter() - start))
print(json.dumps(report))
"""


def test_traced_first_ops_pass_their_checks_and_emit_every_layer_metric():
    # a hooked function whose result changes shape fails here, not only in a
    # benchmark run
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_FIRST_OPS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    # none of these three ops is in the factor pool's known-defect stratum
    assert report["failed"] == {}
    assert report["wrong"] == {}
    declared = {entry["name"] for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    # run.py derives trace.overhead_s from the traced and untraced passes
    assert declared - {"trace.overhead_s"} <= set(report["metrics"])
