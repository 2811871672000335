"""chaincodes benchmark: one closed-loop client on one thread.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both kinds of metric

A run repeats passes over the seed's op list, each pass in a fresh
interpreter (see worker.py), until the next pass would end after --seconds.
With --trace 0 it reports end-to-end metrics: times are medians over
passes; op percentiles are taken over each op's median latency across
passes, so a stall that hits one op in one pass does not move them.  With
--trace 1 it alternates untraced and traced passes and reports per-layer
metrics from the traced ones.  The first pass checks every output against
an independent oracle, and every later pass must give the same outputs.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE.parent) not in sys.path:
    sys.path.insert(0, str(HERE.parent))

from perfbench.metrics import END_TO_END, PER_LAYER, percentile  # noqa: E402

META = json.loads((HERE / "meta.json").read_text())
WORKLOADS = ("sweep", "certify", "factor")
SETUP_SAMPLES = 9
SETUP_PER_PASS = 2
PASS_TIMEOUT_S = 150
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """A pass could not run; the benchmark prints no result."""


def spawn(workload: str, seed: int, *flags: str) -> dict:
    """Run one worker; returns its report with `setup_s` added: the time from
    spawning the worker to the end of its set-up."""
    env = {**os.environ, **CHILD_ENV, "PYTHONPATH": str(Path("src").resolve())}
    command = [sys.executable, "-m", "perfbench.worker", "--workload", workload, "--seed", str(seed), *flags]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S, check=False
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass ran longer than {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    doc = json.loads(proc.stdout.splitlines()[-1])
    doc["setup_s"] = doc["ready"] - start  # both clocks are CLOCK_MONOTONIC
    return doc


def run_passes(workload: str, seed: int, seconds: float, traced: bool) -> tuple[list[dict], list[dict], list[float]]:
    """Untraced passes, traced passes and set-up samples of one run.

    Passes run while their set-up, timed regions and set-up samples, with
    one more pass as long as the last, fit in `seconds`; the first pass's
    checks come on top.  A traced run alternates untraced and traced
    passes.  Set-up is sampled after every pass as well, so its samples
    spread over the whole run.
    """
    out_dir = Path(".perfbench_out")
    out_dir.mkdir(exist_ok=True)
    spawn(workload, seed, "--setup-only")  # warm the bytecode caches; not counted
    plain, with_trace, setups = [], [], []
    spent = last_pass = 0.0
    while True:
        passes = with_trace if traced and len(with_trace) < len(plain) else plain
        if passes and spent + 1.05 * last_pass > seconds:
            break
        if passes is with_trace:
            spans = out_dir / f"spans-{workload}-{seed}-{len(with_trace)}.jsonl"
            flags = ["--traced", "--spans", str(spans)]
        else:
            flags = [] if plain else ["--check"]
        doc = spawn(workload, seed, *flags)
        passes.append(doc)
        setups.append(doc["setup_s"])
        samples_start = time.monotonic()
        setups.extend(spawn(workload, seed, "--setup-only")["setup_s"] for _ in range(SETUP_PER_PASS))
        last_pass = doc["setup_s"] + doc["wall_s"] + time.monotonic() - samples_start
        spent += last_pass
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "--setup-only")["setup_s"])
    return plain, with_trace, setups


def summarize(workload: str, plain: list[dict], with_trace: list[dict], setups: list[float]) -> dict:
    first = plain[0]
    ops = first["ops"]
    median = statistics.median
    failed = set(first["errors"]) | set(first["wrong"])
    mismatched = [
        i for doc in plain[1:] + with_trace for i, d in enumerate(doc["digests"]) if d != first["digests"][i]
    ]
    codes = sum(first["codes"])
    latencies = [median(op) for op in zip(*(d["latencies_ms"] for d in plain))]
    end_to_end = {
        "wall_s": median(d["wall_s"] for d in plain),
        "cpu_s": median(d["cpu_s"] for d in plain),
        "op_p50_ms": percentile(latencies, 50),
        "op_p90_ms": percentile(latencies, 90),
        "setup_s": median(setups),
        "peak_rss_mb": median(d["peak_rss_mb"] for d in plain),
        "ok_ratio": (ops - len(failed)) / ops,
        # share of requested minimum weights that were determined; only
        # sweep requests weights, so the others have none left unresolved
        "weights_resolved": sum(first["resolved"]) / codes if codes else 1.0,
    }
    per_layer = {}
    if with_trace:
        keys = with_trace[0]["layers"]
        per_layer = {k: median(d["layers"][k] for d in with_trace) for k in keys}
        per_layer["trace.overhead_s"] = median(d["wall_s"] for d in with_trace) - end_to_end["wall_s"]
    return {
        "workload": workload,
        "op_digest": first["op_digest"],
        "passes": (len(plain), len(with_trace)),
        "errors": first["errors"],
        "wrong": first["wrong"],
        "mismatched": sorted(set(mismatched)),
        "correct": not first["wrong"] and not mismatched,
        "attempted": ops,
        "failed": len(failed),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def report(summary: dict) -> None:
    """Human-readable lines: stdout for metrics, stderr for failures."""
    w = summary["workload"]
    untraced, traced = summary["passes"]
    print(
        f"{w}: {summary['attempted']} ops, op list sha256 {summary['op_digest'][:16]}, "
        f"{untraced} untraced + {traced} traced passes"
    )
    units = {**END_TO_END, **PER_LAYER}
    for name, value in {**summary["end_to_end"], **summary["per_layer"]}.items():
        print(f"  {w}/{name:36s} {value:14.6g} {units[name]}")
    for index, error in summary["errors"].items():
        print(f"failed op {w}#{index} {error['op']}: {error['type']}: {error['message']}", file=sys.stderr)
    for index, reason in summary["wrong"].items():
        print(f"wrong output {w}#{index}: {reason}", file=sys.stderr)
    if summary["mismatched"]:
        print(f"outputs differ between passes at ops {summary['mismatched']}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=META["default_seed"])
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/chaincodes/__init__.py").is_file():
        print("error: run from the root of a chaincodes checkout (src/chaincodes is missing)", file=sys.stderr)
        return 2
    print(f"machine: nproc {os.cpu_count()}, python {sys.version.split()[0]}")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traced = args.trace == 1 or args.workload == "all"
    summaries = []
    for name in names:
        try:
            plain, with_trace, setups = run_passes(name, args.seed, args.seconds, traced)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        summary = summarize(name, plain, with_trace, setups)
        report(summary)
        summaries.append(summary)

    units = {**END_TO_END, **PER_LAYER}
    metrics = {}
    for summary in summaries:
        if args.workload == "all":
            chosen, prefix = {**summary["end_to_end"], **summary["per_layer"]}, f"{summary['workload']}/"
        else:
            chosen, prefix = summary["per_layer"] if args.trace else summary["end_to_end"], ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in chosen.items()})
    print(
        json.dumps(
            {
                "correct": all(s["correct"] for s in summaries),
                "attempted": sum(s["attempted"] for s in summaries),
                "failed": sum(s["failed"] for s in summaries),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
