"""CLI: ``python -m repro.bench <experiment ...> [--quick] [--csv]``.

``python -m repro.bench all`` runs everything (the full set takes a
while; add ``--quick`` for the reduced sweeps).  ``--profile`` also
records per-experiment wall-clock seconds and simulator event counts
into ``BENCH_PERF.json``, keyed by whether frame trains were enabled
(``fastpath_on``/``fastpath_off``) — the file CI publishes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.bench.harness import EXPERIMENTS, run_experiment


def _write_profile(path: str, mode: str, profile: dict) -> None:
    """Merge this run's numbers into ``path`` under ``mode``.

    The file keeps both modes side by side so one CI job per mode can
    fill it in; ``speedup`` is derived wherever both are present.
    """
    data = {}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            data = {}
    data.setdefault("fastpath_on", {})
    data.setdefault("fastpath_off", {})
    data[mode].update(profile)
    speedups = {}
    for name, on in data["fastpath_on"].items():
        off = data["fastpath_off"].get(name)
        if off and on["wall_s"] > 0:
            speedups[name] = round(off["wall_s"] / on["wall_s"], 2)
    data["speedup"] = speedups
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _merge_section(path: str, key: str, value: dict) -> None:
    """Write ``value`` as BENCH_PERF.json's ``key`` section, preserving
    whatever the other jobs recorded."""
    data = {}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            data = {}
    data[key] = value
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's figures and tables.",
    )
    parser.add_argument(
        "experiments", nargs="*",
        help=f"experiment ids ({', '.join(EXPERIMENTS)}) or 'all'",
    )
    parser.add_argument("--chaos", type=int, default=0, metavar="N",
                        help="run N seeded chaos campaigns (node "
                             "crashes under live MPI traffic; seeded "
                             "by --fault-seed)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sweeps (CI-sized)")
    parser.add_argument("--csv", action="store_true",
                        help="emit CSV instead of tables")
    parser.add_argument("--profile", action="store_true",
                        help="record wall-clock and event counts into "
                             "BENCH_PERF.json")
    parser.add_argument("--loss", type=float, default=0.0, metavar="P",
                        help="inject per-frame loss probability P on "
                             "every link (reliable delivery engages "
                             "automatically)")
    parser.add_argument("--fault-seed", type=int, default=0,
                        metavar="SEED",
                        help="seed for the deterministic fault streams "
                             "(same seed => identical fault schedule)")
    parser.add_argument("--chaos-scenario", default=None,
                        metavar="NAME",
                        help="pin every --chaos campaign to one "
                             "scenario (e.g. checkpoint-resume) "
                             "instead of the seeded rotation")
    parser.add_argument("--ckpt-profile", action="store_true",
                        help="measure window-checkpoint overhead on "
                             "the quick sharded suite and record the "
                             "'checkpoint' section of BENCH_PERF.json")
    parser.add_argument("--trace", metavar="OUT.json", default=None,
                        help="run an 8-node fig5-style collective with "
                             "the flight recorder on and write a "
                             "Chrome/Perfetto trace-event JSON file")
    parser.add_argument("--breakdown", action="store_true",
                        help="print the per-span-kind latency "
                             "breakdown of the fig2 point workload")
    parser.add_argument("--shards", type=int, default=0, metavar="N",
                        help="run one sharded (PDES) workload across N "
                             "shard processes and print its table")
    parser.add_argument("--shard-dims", default="4,8,8", metavar="DxDxD",
                        help="torus dims for --shards/--shard-scaling "
                             "(comma separated, default 4,8,8 = the "
                             "256-node fig4 mesh)")
    parser.add_argument("--shard-workload", default="aggregate",
                        choices=("pingpong", "collective", "aggregate"),
                        help="PDES workload for --shards/--shard-scaling")
    parser.add_argument("--shard-scaling", action="store_true",
                        help="profile the sharded engine at 1/2/4 "
                             "shards and record the 'sharded' section "
                             "of BENCH_PERF.json (implies --profile "
                             "output for that section)")
    parser.add_argument("--nic-collectives", action="store_true",
                        help="run the collective-tier crossover study "
                             "(host vs kernel vs nic) and record the "
                             "'nic_collectives' section of "
                             "BENCH_PERF.json")
    parser.add_argument("--telemetry", action="store_true",
                        help="enable the wall-clock telemetry plane, "
                             "drive the instrumented subsystems "
                             "(load test, sharded PDES, checkpoints) "
                             "and print the metrics report")
    parser.add_argument("--telemetry-trace", metavar="OUT.json",
                        default=None,
                        help="with --telemetry: write the unified "
                             "wall+sim Chrome/Perfetto trace")
    args = parser.parse_args(argv)
    if args.telemetry_trace and not args.telemetry:
        parser.error("--telemetry-trace requires --telemetry")
    if (not args.experiments and not args.chaos and not args.trace
            and not args.breakdown and not args.shards
            and not args.shard_scaling and not args.nic_collectives
            and not args.ckpt_profile and not args.telemetry):
        parser.error("name at least one experiment (or use --chaos N, "
                     "--trace OUT.json, --breakdown, --shards N, "
                     "--shard-scaling, --nic-collectives, "
                     "--ckpt-profile, --telemetry)")

    if args.telemetry:
        from repro.bench.telemetry import telemetry_report

        sys.stdout.write(telemetry_report(
            trace_path=args.telemetry_trace, quick=args.quick))
        if (not args.experiments and not args.chaos and not args.trace
                and not args.breakdown and not args.shards
                and not args.shard_scaling and not args.nic_collectives
                and not args.ckpt_profile):
            return 0

    if args.trace or args.breakdown:
        from repro.bench import observability as obs_bench

        if args.trace:
            sys.stdout.write(
                obs_bench.export_trace(args.trace, quick=args.quick)
            )
        if args.breakdown:
            sys.stdout.write(
                obs_bench.breakdown_report(quick=args.quick)
            )
        if not args.experiments and not args.chaos:
            return 0

    if args.shards or args.shard_scaling:
        from repro.pdes import run_sharded, shard_scaling_profile

        dims = tuple(int(d) for d in args.shard_dims.split(","))
        if args.shards:
            result = run_sharded(dims, workload=args.shard_workload,
                                 nshards=args.shards, processes=True)
            sys.stdout.write(
                f"[sharded {args.shard_workload} dims={dims} "
                f"nshards={result.nshards} windows={result.windows} "
                f"events={result.events_processed} "
                f"wall={result.wall_seconds:.2f}s]\n"
                f"{result.table}\n\n"
            )
        if args.shard_scaling:
            scaling = shard_scaling_profile(
                dims, workload=args.shard_workload)
            for count, entry in sorted(scaling["shards"].items(),
                                       key=lambda kv: int(kv[0])):
                sys.stdout.write(
                    f"[shard-scaling n={count}: "
                    f"{entry['wall_seconds']:.2f}s wall, "
                    f"{entry['events']} events, "
                    f"speedup x{entry['speedup_vs_baseline']}]\n"
                )
            sys.stdout.write(
                f"[shard-scaling tables identical: "
                f"{scaling['tables_identical']}]\n\n"
            )
            _merge_section("BENCH_PERF.json", "sharded", scaling)
        if (not args.experiments and not args.chaos and not args.trace
                and not args.breakdown and not args.nic_collectives):
            return 0

    if args.nic_collectives:
        from repro.bench.nic_collectives import run_study

        result, section = run_study(quick=args.quick)
        sys.stdout.write(result.csv() if args.csv else result.render())
        _merge_section("BENCH_PERF.json", "nic_collectives", section)
        if not args.experiments and not args.chaos:
            return 0

    if args.ckpt_profile:
        from repro.bench.ckpt import overhead_profile, render_profile

        section = overhead_profile()
        sys.stdout.write(render_profile(section))
        _merge_section("BENCH_PERF.json", "checkpoint", section)
        if not args.experiments and not args.chaos:
            return 0

    if args.chaos:
        from repro.bench.chaos import run_chaos
        from repro.hw import faults as fault_registry

        fault_registry.clear_registry()
        result = run_chaos(args.chaos, fault_seed=args.fault_seed,
                           scenario=args.chaos_scenario)
        sys.stdout.write(result.csv() if args.csv else result.render())
        fault_registry.clear_registry()
        if not args.experiments:
            return 0

    faulty = args.loss > 0.0
    if faulty:
        from repro.hw import faults

        faults.clear_registry()
        faults.set_ambient(faults.FaultParams(
            seed=args.fault_seed, loss_rate=args.loss,
        ))

    names = list(args.experiments)
    if names == ["all"]:
        names = list(EXPERIMENTS)
    profile = {}
    for name in names:
        from repro.sim import core as sim_core

        events_before = sim_core.TOTAL_EVENTS
        started = time.time()
        result = run_experiment(name, quick=args.quick)
        wall = time.time() - started
        output = result.csv() if args.csv else result.render()
        sys.stdout.write(output)
        sys.stdout.write(f"[{name}: {wall:.1f}s wall]\n\n")
        profile[name] = {
            "wall_s": round(wall, 3),
            "events": sim_core.TOTAL_EVENTS - events_before,
            "quick": args.quick,
        }
    if faulty:
        from repro.hw import faults

        totals = faults.injected_totals()
        injected = sum(totals.values())
        sys.stdout.write(
            f"[faults: seed={args.fault_seed} loss={args.loss} "
            f"injected={injected} "
            + " ".join(f"{k}={v}" for k, v in sorted(totals.items())
                       if v)
            + "]\n"
        )
        faults.set_ambient(None)
    if args.profile:
        from repro import fastpath

        mode = "fastpath_on" if fastpath.enabled() else "fastpath_off"
        _write_profile("BENCH_PERF.json", mode, profile)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
