"""Shared pieces of the repository benchmark: host stamp, spans, stats.

Nothing here imports ``repro``; the workload modules do, after
``perfbench/run.py`` has put this checkout's ``src/`` first on the
import path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: The checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space for traces, worker temp files and checkpoints; inside
#: the checkout and ignored by git.
WORK_DIR = ROOT / ".perfbench"


def digest(value: Any) -> str:
    """First 16 hex digits of sha256 over ``repr(value)``.

    The same digest ``repro.pdes.shard_scaling_profile`` records for
    PDES tables, so pinned values are comparable with ``BENCH_PERF.json``.
    """
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def load_reference() -> Dict[str, Any]:
    with open(Path(__file__).with_name("reference.json")) as handle:
        return json.load(handle)


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; with fewer than 100 samples p99 is the
    maximum, the highest percentile such a sample supports."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is KiB on Linux


def host_stamp() -> Dict[str, Any]:
    """Where a result was measured: cores, CPU, interpreter, commit."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                capture_output=True, text=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


class SpanLog:
    """Benchmark-side spans kept in memory, written as Chrome trace JSON.

    Times are ``time.perf_counter()`` seconds; ``parent`` links a span to
    the span that caused it and ``trace`` groups the spans of one pass or
    request.
    """

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: List[Dict[str, Any]] = []

    def add(self, name: str, cat: str, start: float, end: float,
            trace: Any = None, parent: Optional[int] = None,
            **args: Any) -> int:
        self.spans.append({"name": name, "cat": cat, "start": start,
                           "end": end, "trace": trace, "parent": parent,
                           "args": args})
        return len(self.spans) - 1

    def chrome_trace(self, metadata: Dict[str, Any]) -> Dict[str, Any]:
        events = []
        for index, span in enumerate(self.spans):
            args = dict(span["args"])
            args["span"] = index
            if span["trace"] is not None:
                args["trace"] = span["trace"]
            if span["parent"] is not None:
                args["parent"] = span["parent"]
            events.append({
                "name": span["name"], "cat": span["cat"], "ph": "X",
                "ts": (span["start"] - self.t0) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "pid": os.getpid(), "tid": span["cat"], "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "metadata": metadata}

    def write(self, path: Path, metadata: Dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(metadata), handle)


@dataclass
class Outcome:
    """What one workload run measured and whether its outputs held."""

    attempted: int = 0
    failed: int = 0
    #: One line per failed check (digest mismatch, exception, ...).
    problems: List[str] = field(default_factory=list)
    #: name -> value; units come from BENCHMARK.json.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Human-readable lines printed before the result (sample counts).
    notes: List[str] = field(default_factory=list)

    def record(self, problems: Sequence[str]) -> None:
        """Count one operation; it failed if any check found a problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
