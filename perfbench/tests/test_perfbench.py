"""Tests of the benchmark itself: metric table, determinism, gates.

Run from the checkout root with ``python3 -m pytest perfbench/tests -q``
(a few minutes: two traced lossy runs and a few short service runs).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import batch  # noqa: E402
from harness import digest, load_reference  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: Per-layer metrics that are host times, ratios of host times or
#: latencies; every other per-layer metric is a count or a ratio of
#: counts, which a seed must repeat exactly.
TIMED = re.compile(r"(self_s|_ms|_s|host_us_per_event|overhead_ratio)$")


def _spec():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _run(workload, seed, seconds=20, trace=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_and_units():
    spec = _spec()
    names = [entry["name"] for key in ("end_to_end", "per_layer")
             for entry in spec[key]]
    assert len(names) == len(set(names))
    for key in ("end_to_end", "per_layer"):
        for entry in spec[key]:
            assert NAME_RE.fullmatch(entry["name"]), entry
            assert UNIT_RE.fullmatch(entry["unit"]), entry
            assert entry["better"] in ("lower", "higher")
    for entry in spec["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    setup = next(e for e in spec["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in spec["end_to_end"])


def test_layer_table_covers_every_per_layer_metric():
    spec = _spec()
    with open(BENCH_DIR / "layers.json") as handle:
        table = json.load(handle)
    end_to_end = {e["name"] for e in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    assert set(table["layers"]) == {e["name"] for e in spec["per_layer"]}
    for name, row in table["layers"].items():
        assert row["moves"] is None or row["moves"] in end_to_end, name
        assert set(row["on"]) <= workloads, name
    for prediction in table["predictions"]:
        assert prediction["no_change"]
        assert set(prediction["no_change"]) <= workloads


def test_pdes_reference_matches_recorded_bench_perf():
    with open(ROOT / "BENCH_PERF.json") as handle:
        recorded = json.load(handle)["sharded"]["shards"]["2"]
    pinned = load_reference()["pdes-2shard"]
    assert pinned["table_sha256"] == recorded["table_sha256"]
    assert pinned["windows"] == recorded["windows"]
    assert pinned["events_processed"] == recorded["events"]


def test_same_seed_repeats_every_count():
    first, second = (_result(_run("lossy-collectives", 3)) for _ in range(2))
    assert first["correct"] and second["correct"]
    counts = [name for name in first["metrics"] if not TIMED.search(name)]
    assert "sim.events" in counts and "via.retransmits" in counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["via.frames_dropped"]["value"] > 0
    assert first["metrics"]["hw.train_frame_frac"]["value"] == 0


def test_same_seed_repeats_service_dispatches():
    runs = [_result(_run("service-openloop", 5, seconds=3))
            for _ in range(2)]
    assert all(run["correct"] for run in runs)
    dispatches = {run["metrics"]["service.dispatches"]["value"]
                  for run in runs}
    assert len(dispatches) == 1 and dispatches.pop() > 0


def test_bulk_counts_repeat_in_process():
    from repro.bench import microbench

    def counts():
        with batch._recording_builds() as (clusters, engines):
            microbench.via_aggregate_bandwidth((3, 3), 65536,
                                               total_bytes=400_000)
        return batch.cluster_counts(clusters, engines)

    first, second = counts(), counts()
    assert first == second
    # The fast path is tried: each burst either rides a frame train or
    # falls back to per-frame transmission.
    assert first["train_frames"] + first["train_fallbacks"] > 0


def test_different_seed_changes_frames_dropped():
    reference = load_reference()
    dropped = []
    for seed in (1, 2):
        output = batch.LossyCollectives(seed, reference, rounds=2).run_pass()
        dropped.append(sum(c["frames_dropped"] for _r, c in output))
    assert dropped[0] != dropped[1]


def test_tampered_digest_trips_gate():
    reference = load_reference()
    workload = batch.LossyCollectives(7, reference, rounds=2)
    output = workload.run_pass()
    reference["lossy-collectives"]["per_rank"] = digest(output[0][0])
    assert workload.check(output) == []
    reference["lossy-collectives"]["per_rank"] = "0" * 16
    problems = workload.check(output)
    assert len(problems) == 2 and "per-rank" in problems[0]


def test_tampered_reference_fails_the_command(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    path = tmp_path / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())
    reference["pdes-2shard"]["table_sha256"] = "0" * 16
    path.write_text(json.dumps(reference))
    proc = _run("pdes-2shard", 1, seconds=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    result = _result(proc)
    assert result["correct"] is False and result["failed"] >= 1


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("bulk-fig3", 1, seconds=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(trace):
    spec = _spec()
    wanted = spec["per_layer" if trace else "end_to_end"]
    result = _result(_run("service-openloop", 9, seconds=2, trace=trace))
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == {entry["name"] for entry in wanted}
    for entry in wanted:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
