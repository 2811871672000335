"""In-memory spans and counters for the traced benchmark pass.

The tracer wraps public library functions from outside the library: each
wrapped call becomes a span (layer name, function, start, end, parent span,
op id) and may bump counters.  Every module-level alias of a wrapped
function is replaced too, so calls one library module makes into another
are seen.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id: int | None = None
        self._stack: list[int] = []

    def begin(self, layer: str, fn: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"layer": layer, "fn": fn, "start": time.perf_counter(), "end": None,
             "parent": parent, "op": self.op_id}
        )
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, layer: str | None, count=None):
        """A stand-in for fn that records a span under `layer` (no span when
        layer is None) and then calls count(counters, args, kwargs, result,
        exc) with the result or the exception raised."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(layer, fn.__name__) if layer else None
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                if index is not None:
                    tracer.end(index)
                if count:
                    count(tracer.counters, args, kwargs, result, exc)

        return traced

    def install(self, hooks, modules) -> None:
        """Wrap each (owner, attribute, layer, count) hook.  Module-level
        functions are also replaced wherever `modules` hold an alias."""
        for owner, attr, layer, count in hooks:
            original = getattr(owner, attr)
            traced = self.wrap(original, layer, count)
            if isinstance(owner, type):
                setattr(owner, attr, traced)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, traced)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({"id": index, **span}, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            out[span["parent"]] -= span["end"] - span["start"]
    return out


def layer_summary(spans: list[dict], wall: float) -> dict[str, float]:
    """Self seconds per layer, plus `other`: wall time no top-level span covers."""
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    covered = 0.0
    for span, own in zip(spans, selfs):
        out[span["layer"]] += own
        if span["parent"] is None:
            covered += span["end"] - span["start"]
    out["other"] = wall - covered
    return dict(out)


def modules_named(prefix: str) -> list:
    return [m for name, m in sorted(sys.modules.items()) if name.startswith(prefix) and m]
