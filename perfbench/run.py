"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lib-sprand-1m --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
traced variant and prints the per-layer metrics, one line per traced op
with its unattributed remainder, and writes the spans to
``.perfbench_state/``.  The last line of standard output is one JSON
object.  The exit code is nonzero when any output was incorrect or a
count that must repeat at a fixed seed drifted.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("lib-sprand-1m", "serve-read-800", "stream-churn-120k", "shard-k4-120k")

END_TO_END = [
    ("setup_s", "s"), ("op_p50_ms", "ms"), ("ops_per_s", "1/s"),
    ("ok_ratio", "ratio"), ("match_ratio", "ratio"), ("peak_rss_mb", "MB"),
]


def _import_program() -> None:
    """Import the package from this checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {src}: {exc}")
    where = os.path.realpath(os.path.dirname(repro.__file__))
    if not where.startswith(os.path.realpath(src) + os.sep):
        sys.exit(f"perfbench: repro was imported from {where}, not {src}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    import numpy as np

    import harness
    from layers import PER_LAYER

    counter = harness.WarningCounter()
    counter.install()
    host = harness.host_info()
    module = {
        "lib-sprand-1m": "wl_lib",
        "serve-read-800": "wl_serve",
        "stream-churn-120k": "wl_stream",
        "shard-k4-120k": "wl_shard",
    }[args.workload]
    workload = __import__(module)
    run = workload.run(args.seed, args.seconds, bool(args.trace))
    harness.check_counts(run)

    log = harness.log
    log(f"host: {json.dumps(host)}")
    log(f"workload: {run.workload} seed={run.seed} inputs={json.dumps(run.inputs)}"
        f" working_set_bytes={run.working_set_bytes}")
    attempted = max(run.attempted, 1)
    lat_ms = [1e3 * x for x in run.latencies]
    if not lat_ms:
        run.fail("no op completed")
    end_to_end = {
        "setup_s": float(np.median(run.setup_s)),
        "op_p50_ms": float(np.median(lat_ms)) if lat_ms else 0.0,
        "ops_per_s": len(run.latencies) / run.window_s if run.window_s else 0.0,
        "ok_ratio": (run.attempted - run.failed) / attempted,
        "match_ratio": harness.mean(run.match_ratios),
        "peak_rss_mb": run.peak_rss_mb,
    }
    units = dict(END_TO_END)
    log(f"ops: {len(run.latencies)} timed, {run.attempted} checked,"
        f" {run.failed} failed; set-ups {[round(x, 4) for x in run.setup_s]} s")
    for name, value in end_to_end.items():
        log(f"  {name:<14} {value:.6g} {units[name]}")
    log(f"  {'fail_ratio':<14} {run.failed / attempted:.6g} ratio")
    p90 = harness.p90_or_none(lat_ms)
    if p90 is None:
        log(f"  {'op_tail_ms':<14} undefined: {len(lat_ms)} ops leave fewer"
            f" than ten beyond p90")
    else:
        log(f"  {'op_tail_ms':<14} {p90:.6g} ms (p90 of {len(lat_ms)} ops)")
    log(f"warnings: runtime={counter.runtime} convergence={counter.convergence}")

    if args.trace:
        layers = dict(run.per_layer)
        layers["warnings.runtime"] = float(counter.runtime)
        layers["warnings.convergence"] = float(counter.convergence)
        metrics = {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER
        }
        log("per-op unattributed remainder (op wall minus its direct children):")
        for line in run.op_lines:
            log(line)
        for name, unit in PER_LAYER:
            log(f"  {name:<36} {metrics[name]['value']:.6g} {unit}")
        os.makedirs(harness.STATE_DIR, exist_ok=True)
        path = os.path.join(harness.STATE_DIR, f"spans-{run.workload}-{run.seed}.jsonl")
        run.tracer.dump(path, {"host": host, "workload": run.workload,
                               "seed": run.seed, "inputs": run.inputs})
        log(f"spans: {len(run.tracer.spans)} written to {path}")
    else:
        metrics = {
            name: {"value": value, "unit": units[name]}
            for name, value in end_to_end.items()
        }

    for problem in run.problems:
        harness.eprint(f"perfbench: INCORRECT: {problem}")
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
