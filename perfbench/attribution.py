"""Per-layer host time from a cProfile run, grouped by ``repro`` package.

A Python function's self time goes to the package its file lives in.
A C function (a builtin such as ``list.sort`` or ``heapq.heappush``)
has no file, so its time is split over its callers, as pstats records
them, and each share goes to the caller's package.  Time that lands
outside the named layers is ``other`` (Python) or ``builtins`` (C
code called from outside the layers).  C functions that block the
process (an idle event loop's ``epoll``, a pipe read, a sleep) are not
host work; their time is reported apart as ``wait``.
"""

from __future__ import annotations

import cProfile
import pstats
from typing import Dict, Tuple

#: The ``repro`` packages reported as layers, in report order.
LAYERS = ("sim", "hw", "via", "core", "mpi", "collectives", "topology",
          "tcpip", "pdes", "service")

FuncKey = Tuple[str, int, str]

#: C functions whose time is spent blocked rather than computing.
BLOCKING = frozenset({
    "<method 'poll' of 'select.epoll' objects>",
    "<method 'poll' of 'select.poll' objects>",
    "<built-in method select.select>",
    "<built-in method posix.read>",
    "<built-in method time.sleep>",
    "<method 'acquire' of '_thread.lock' objects>",
})


def _layer_of(key: FuncKey) -> str:
    filename = key[0].replace("\\", "/")
    if filename == "~":
        return "builtins"
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0:
        return "other"
    package = filename[at + len(marker):].split("/", 1)[0]
    return package if package in LAYERS else "other"


def self_times(profiler: cProfile.Profile) -> Dict[str, float]:
    """Seconds of self time per layer, plus ``builtins``, ``other`` and
    ``wait``."""
    totals = {name: 0.0 for name in LAYERS + ("builtins", "other", "wait")}
    stats = pstats.Stats(profiler).stats
    for key, (_cc, _nc, tottime, _ct, callers) in stats.items():
        layer = _layer_of(key)
        if key[0] == "~" and key[2] in BLOCKING:
            totals["wait"] += tottime
            continue
        if layer != "builtins":
            totals[layer] += tottime
            continue
        charged = 0.0
        for caller, caller_stats in callers.items():
            owner = _layer_of(caller)
            if owner in LAYERS:
                totals[owner] += caller_stats[2]
                charged += caller_stats[2]
        totals["builtins"] += max(tottime - charged, 0.0)
    return totals


def cumulative(profiler: cProfile.Profile, file_suffix: str,
               func: str) -> float:
    """Total cumulative seconds of every function ``func`` whose file
    ends with ``file_suffix`` (``"~"`` selects C functions)."""
    total = 0.0
    for key, (_cc, _nc, _tt, cumtime, _callers) in \
            pstats.Stats(profiler).stats.items():
        if key[0].endswith(file_suffix) and key[2] == func:
            total += cumtime
    return total
