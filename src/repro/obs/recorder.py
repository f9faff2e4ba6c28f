"""Message-lifecycle flight recorder.

A :class:`FlightRecorder` hangs off ``Simulator.recorder`` (``None`` by
default, so every instrumentation site is a single attribute load plus
an ``is not None`` test when disabled).  The VIA/MPI entry points
allocate a *trace id* per message; the id rides on the descriptor, the
envelope, and every :class:`~repro.via.packet.ViaPacket` fragment, so
each layer can attach spans to the message that caused the work.

Spans carry no identity beyond their content: a span is the frozen
tuple ``(trace, kind, name, track, start, end)``.  This is deliberate —
the frame-train fast path synthesizes spans in bulk out of event order,
and content-identity is what lets recorder output stay *scheduler-mode
identical* (the same set of spans whether or not trains engage).
Parent/child causality is trace-id membership: every span with trace id
``t`` is a child of trace ``t``'s root, whose extent is maintained as
the running min/max of everything recorded against it.

Times are simulator microseconds throughout.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim.monitor import SampleStats

#: Trace ids are namespaced per track: ``(base << TRACK_SHIFT) + seq``
#: where ``base`` is the rank for per-node tracks ("n<rank>") and a
#: CRC-derived constant above any plausible rank otherwise.  Allocation
#: is then a pure function of (track, messages-so-far-on-track), so a
#: sharded simulation — one recorder per shard, each seeing only its
#: own ranks — assigns every message the *same* id the sequential
#: reference does, and per-shard span sets merge without renumbering.
TRACK_SHIFT = 32
_NON_RANK_BASE = 1 << 33


def track_base(track: str) -> int:
    """The trace-id namespace of ``track`` (stable across processes)."""
    if track[:1] == "n" and track[1:].isdigit():
        return int(track[1:])
    return _NON_RANK_BASE + zlib.crc32(track.encode("utf-8", "replace"))

# Span kinds (the lifecycle stages of a message).
MESSAGE = "message"              # root span: one per trace id
API_CALL = "api-call"            # host CPU inside send/recv API calls
DESC_QUEUED = "descriptor-queued"  # instant: descriptor handed to NIC
DMA = "dma"                      # descriptor/payload fetch over PCI-X
WIRE_HOP = "wire-hop"            # serialization + propagation on a link
SWITCH_FORWARD = "switch-forward"  # store-and-forward relay at a hop
IRQ_WAIT = "irq-wait"            # rx DMA done -> IRQ handler entry
COMPLETION = "completion"        # instant: descriptor completed/failed
# NIC-resident collective stages (the host-side terms they replace —
# api-call syscalls, irq-wait per hop — simply do not occur).
NIC_FORWARD = "nic-forward"      # NIC firmware tx of a collective frame
NIC_COMBINE = "nic-combine"      # NIC firmware reduce/combine step

# Reliability event kinds (instants).
RETRANSMIT = "retransmit"
ACK = "ack"
TIMEOUT = "timeout"
DROP = "drop"

SPAN_KINDS = (
    MESSAGE, API_CALL, DESC_QUEUED, DMA, WIRE_HOP, SWITCH_FORWARD,
    IRQ_WAIT, COMPLETION, NIC_FORWARD, NIC_COMBINE, RETRANSMIT, ACK,
    TIMEOUT, DROP,
)


@dataclass(frozen=True)
class Span:
    """One recorded lifecycle stage (``start == end`` for instants)."""

    trace: int
    kind: str
    name: str
    track: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    def key(self) -> tuple:
        """Content identity, used for cross-scheduler-mode comparison."""
        return (self.trace, self.kind, self.name, self.track,
                self.start, self.end)

    def describe(self) -> str:
        return (f"span {self.kind}:{self.name} trace={self.trace} "
                f"[{self.start:.3f}..{self.end:.3f}]us")


class TraceInfo:
    """Root record for one message trace."""

    __slots__ = ("trace", "name", "track", "start", "end")

    def __init__(self, trace: int, name: str, track: str, start: float):
        self.trace = trace
        self.name = name
        self.track = track
        self.start = start
        self.end = start

    def describe(self) -> str:
        return (f"trace {self.trace} {self.name!r} on {self.track} "
                f"[{self.start:.3f}..{self.end:.3f}]us")


class MetricsTimeline:
    """Fixed-interval time series built on the Welford accumulator.

    ``observe(series, t, value)`` folds ``value`` into the
    ``int(t // interval)`` bucket of ``series``; each bucket is a
    :class:`~repro.sim.monitor.SampleStats`, so a series exposes mean /
    min / max / count per interval without storing raw samples.
    Observation never yields and never perturbs simulation state.
    """

    def __init__(self, interval: float = 50.0):
        if interval <= 0.0:
            raise ValueError("metrics interval must be positive")
        self.interval = interval
        self.series: Dict[str, Dict[int, SampleStats]] = {}

    def observe(self, series: str, t: float, value: float) -> None:
        buckets = self.series.get(series)
        if buckets is None:
            buckets = self.series[series] = {}
        bucket = int(t // self.interval)
        stats = buckets.get(bucket)
        if stats is None:
            stats = buckets[bucket] = SampleStats()
        stats.add(value)

    def timeline(self, series: str) -> List[tuple]:
        """``[(bucket_start_us, SampleStats), ...]`` in time order."""
        buckets = self.series.get(series, {})
        return [(bucket * self.interval, buckets[bucket])
                for bucket in sorted(buckets)]

    def totals(self, series: str) -> SampleStats:
        """All buckets of ``series`` merged into one accumulator."""
        merged = SampleStats()
        for stats in self.series.get(series, {}).values():
            merged.merge(stats)
        return merged

    def names(self) -> List[str]:
        return sorted(self.series)


class FlightRecorder:
    """Collects spans, instant events and metrics for one simulator."""

    def __init__(self, metrics_interval: float = 50.0):
        self.traces: Dict[int, TraceInfo] = {}
        self.spans: List[Span] = []
        self.events: List[Span] = []
        self.metrics = MetricsTimeline(metrics_interval)
        #: Per-namespace allocation counters (see :func:`track_base`).
        self._base_sequences: Dict[int, int] = {}

    # -- trace lifecycle ------------------------------------------------

    def start_trace(self, name: str, track: str, start: float) -> int:
        """Allocate a trace id for a new message; returns the id.

        Ids are namespaced per track so allocation does not depend on
        cross-track interleaving — the property that keeps sharded and
        sequential runs id-identical (see :data:`TRACK_SHIFT`).
        """
        base = track_base(track)
        seq = self._base_sequences.get(base, 0)
        self._base_sequences[base] = seq + 1
        trace = (base << TRACK_SHIFT) + seq
        self.traces[trace] = TraceInfo(trace, name, track, start)
        return trace

    def _touch(self, trace: int, end: float) -> None:
        info = self.traces.get(trace)
        if info is not None and end > info.end:
            info.end = end

    # -- recording ------------------------------------------------------

    def span(self, trace: int, kind: str, name: str, track: str,
             start: float, end: float) -> None:
        self.spans.append(Span(trace, kind, name, track, start, end))
        self._touch(trace, end)
        if kind == WIRE_HOP:
            self.metrics.observe("link-util:" + track, start, end - start)

    def event(self, trace: int, kind: str, name: str, track: str,
              when: float) -> None:
        self.events.append(Span(trace, kind, name, track, when, when))
        self._touch(trace, when)
        if kind in (RETRANSMIT, ACK, TIMEOUT, DROP):
            self.metrics.observe("rate:" + kind, when, 1.0)

    # -- queries --------------------------------------------------------

    def spans_of(self, trace: int) -> List[Span]:
        return [span for span in self.spans if span.trace == trace]

    def events_of(self, trace: int) -> List[Span]:
        return [span for span in self.events if span.trace == trace]

    def kinds(self) -> set:
        found = {span.kind for span in self.spans}
        found.update(span.kind for span in self.events)
        if self.traces:
            found.add(MESSAGE)
        return found

    def tail(self, track: Optional[str] = None, limit: int = 20) -> List[Span]:
        """The last ``limit`` spans recorded, newest last, optionally
        restricted to one track (used by hang diagnostics)."""
        out: List[Span] = []
        for span in reversed(self.spans):
            if track is None or span.track == track:
                out.append(span)
                if len(out) >= limit:
                    break
        out.reverse()
        return out

    def span_keys(self) -> List[tuple]:
        """Sorted content-identity of every span + event + root.

        Two runs of the same workload — frame trains on or off — must
        produce exactly the same list.
        """
        keys = [span.key() for span in self.spans]
        keys.extend(span.key() for span in self.events)
        keys.extend((info.trace, MESSAGE, info.name, info.track,
                     info.start, info.end)
                    for info in self.traces.values())
        keys.sort()
        return keys
