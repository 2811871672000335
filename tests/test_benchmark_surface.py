"""The library names that the benchmark harness in perfbench/ reaches.

perfbench/ is not part of this suite, so a library change that drops or
renames one of these names would otherwise only show when the traced
benchmark pass fails.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from chaincodes.code import Codeword, CyclicCode  # noqa: E402
from chaincodes.ring import RingSpec  # noqa: E402
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


def test_workloads_and_make_pools_import():
    assert callable(workloads.run_op)
    assert callable(make_pools.main)
