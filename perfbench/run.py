"""Repository benchmark: end-to-end and per-layer metrics per workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload bulk-fig3 --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with no instrumentation.  ``--trace 1`` makes one untraced and one
profiled pass and reports the per-layer metrics instead; it also writes
the benchmark's own spans as Chrome trace JSON under ``.perfbench/``.
Every output is checked against ``perfbench/reference.json``; the last
line of standard output is the JSON result, and the exit code is
nonzero if any check failed.  Workloads and metrics are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile
import time
import traceback

import batch
from harness import (ROOT, WORK_DIR, Outcome, SpanLog, host_stamp,
                     load_reference, median, peak_rss_mb, percentile)

WORKLOAD_NAMES = (*batch.WORKLOADS, "service-openloop")
#: Set-up repetitions per untraced batch run; ``setup_s`` is the median.
SETUP_REPEATS = 3


def _use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else,
    and keep worker temp files inside the checkout."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {src}")
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    import repro

    if not os.path.realpath(repro.__file__).startswith(
            os.path.realpath(src)):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {src}")
    tmp = WORK_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


def _timed_pass(workload, outcome: Outcome, spans: SpanLog, index: int,
                untraced_s: float = None):
    """Run and check one pass; profiled when given the host seconds of
    an untraced pass to compare with.

    Returns (seconds, ok, output, layer metrics, profiler); the last two
    are empty unless profiled.
    """
    import cProfile

    traced = untraced_s is not None
    profiler = cProfile.Profile() if traced else None
    layer_metrics = {}
    output = None
    # Free the previous pass's simulators first, so that neither its
    # garbage nor its collection lands in this pass's time or peak RSS.
    gc.collect()
    start = time.perf_counter()
    try:
        if traced:
            output, layer_metrics = workload.traced_pass(profiler,
                                                         untraced_s)
        else:
            output = workload.run_pass()
        error = None
    except Exception:  # a raising pass is a failed operation
        error = traceback.format_exc(limit=4)
    took = time.perf_counter() - start
    run_span = spans.add("run", "pass", start, start + took, trace=index,
                         traced=traced)
    checked = time.perf_counter()
    problems = [f"pass {index} raised:\n{error}"] if error else \
        workload.check(output)
    spans.add("verify", "pass", checked, time.perf_counter(), trace=index,
              parent=run_span, ok=not problems)
    outcome.record(problems)
    return took, not problems, output, layer_metrics, profiler


def run_batch(name: str, seed: int, seconds: float, trace: bool,
              spans: SpanLog, outcome: Outcome):
    """Untraced: as many passes as fit ``seconds`` at the workload's
    nominal pass time, medians reported.  Traced: one untraced pass, then
    one profiled pass.  Returns the profiler of the traced pass, if any."""
    workload = batch.WORKLOADS[name](seed, load_reference())
    setups = []
    for index in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
        spans.add("setup", "setup", start, start + setups[-1], trace=index)
    if trace:
        took = _timed_pass(workload, outcome, spans, 0)[0]
        traced_s, _ok, _output, layer_metrics, profiler = _timed_pass(
            workload, outcome, spans, 1, untraced_s=took)
        outcome.metrics.update(layer_metrics)
        outcome.metrics["trace.wall_s"] = traced_s
        outcome.metrics["trace.overhead_ratio"] = traced_s / took
        return profiler
    # A pass count fixed by the workload's nominal pass time, rather than
    # by the clock, keeps every run of one workload doing the same work.
    passes = max(1, round(seconds / workload.nominal_pass_s))
    times, within = [], 0
    for index in range(passes):
        took, ok, output, _metrics, _prof = _timed_pass(
            workload, outcome, spans, index)
        times.append(took)
        within += ok and took <= workload.limit_s
    outcome.metrics.update({
        "wall_s": median(times),
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "p50_ms": median(times) * 1e3,
        "p99_ms": percentile(times, 99) * 1e3,
        "within_limit_frac": within / len(times),
    })
    outcome.notes.append(
        f"{len(times)} passes (p99_ms is the slowest of them), "
        f"{len(setups)} set-ups; pass seconds "
        + ", ".join(f"{t:.3f}" for t in times))
    if name == "bulk-fig3" and ok:
        met, total = workload.claims(output[0])
        outcome.notes.append(f"model: fig3 paper claims met {met}/{total}")
    return None


def _stop_resource_tracker() -> None:
    """Spawned workers start multiprocessing's resource tracker process;
    stop it and wait for it, so that no process outlives the benchmark."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = _benchmark_spec()
    _use_checkout_sources()
    trace = bool(args.trace)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    host = host_stamp()
    print(f"host: {json.dumps(host, sort_keys=True)}")

    spans = SpanLog()
    outcome = Outcome()
    try:
        if args.workload == "service-openloop":
            import openloop

            profiler = openloop.run(args.seed, args.seconds, trace, spans,
                                    outcome)
        else:
            profiler = run_batch(args.workload, args.seed, args.seconds,
                                 trace, spans, outcome)
    finally:
        _stop_resource_tracker()
    if profiler is not None:
        import attribution

        for layer, seconds in attribution.self_times(profiler).items():
            outcome.metrics[f"{layer}.self_s"] = seconds
        # The coordinator's own window loop: ingress sort, egress merge.
        outcome.metrics["pdes.merge_s"] = outcome.metrics["pdes.self_s"]
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        spans.write(WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json",
                    {"host": host, "workload": args.workload,
                     "seed": args.seed})

    metrics = {}
    for entry in wanted:
        value = outcome.metrics.get(entry["name"], 0)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:<32} {value:>16.6f} {entry['unit']}")
    for note in outcome.notes:
        print(f"note: {note}")
    for problem in outcome.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    result = {"correct": outcome.failed == 0,
              "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
