"""One benchmark pass in a fresh interpreter.

Run from the root of a checkout, with the checkout's `src` on PYTHONPATH:

    python3 -m perfbench.worker --workload sweep --seed 1 [--traced] [--check]

Set-up ends once the library is imported and the op list is built; the
worker then collects garbage, runs every op once in the timed region and,
with --check, checks every output.  It prints one JSON object: set-up end
(on the monotonic clock, which the parent shares), region wall and CPU
seconds, peak RSS, per-op latencies, output digests and failures.
--setup-only stops after set-up.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--spans", default=None, help="file the traced pass writes its spans to")
    args = parser.parse_args(argv)

    import chaincodes

    source = Path("src").resolve()
    if source not in Path(chaincodes.__file__).resolve().parents:
        print(f"chaincodes was imported from {chaincodes.__file__}, not {source}", file=sys.stderr)
        return 2

    from perfbench import workloads

    ops = workloads.op_list(args.workload, args.seed, workloads.load_pools())
    ready = time.monotonic()
    doc = {"ready": ready, "ops": len(ops), "op_digest": workloads.digest(ops)}
    if args.setup_only:
        print(json.dumps(doc))
        return 0

    tracer = None
    if args.traced:
        from perfbench import layers
        from perfbench.trace import Tracer

        tracer = Tracer()
        layers.install(tracer)

    outputs, latencies = [], []
    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for index, op in enumerate(ops):
        if tracer:
            tracer.op_id = index
        if args.workload in workloads.COLD:
            workloads.clear_caches()
        start = time.perf_counter()
        try:
            output = workloads.run_op(op)
        except Exception as exc:  # an op boundary: record the failure, keep going
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            output = {
                "error": {
                    "step": op["op"],
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "where": f"{Path(frame.filename).name}:{frame.lineno} in {frame.name}",
                }
            }
        latencies.append((time.perf_counter() - start) * 1e3)
        outputs.append(output)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    doc.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=rss_mb,
        latencies_ms=latencies,
        digests=[workloads.digest(out) for out in outputs],
        errors={
            i: {**out["error"], "op": _describe(op)}
            for i, (op, out) in enumerate(zip(ops, outputs))
            if "error" in out
        },
        codes=[len(op.get("weights", ())) for op in ops],
        resolved=[_resolved(out) for out in outputs],
    )
    if tracer:
        doc["layers"] = layers.metrics(tracer, wall)
        if args.spans:
            tracer.write(args.spans)
    if args.check:
        from perfbench.checks import check

        reasons = {
            i: check(op, out) for i, (op, out) in enumerate(zip(ops, outputs)) if "error" not in out
        }
        doc["wrong"] = {i: reason for i, reason in reasons.items() if reason is not None}
    print(json.dumps(doc))
    return 0


def _describe(op: dict) -> str:
    return " ".join(f"{k}={op[k]}" for k in ("op", "kind", "p", "e", "m", "n", "a") if k in op)


def _resolved(output: dict) -> int:
    """Rows of a search op whose minimum weight was determined."""
    return sum(json.loads(row)["verified"].get("weight") is not None for row in output.get("rows", ()))


if __name__ == "__main__":
    sys.exit(main())
