"""The ``service-openloop`` workload: requests on a fixed schedule.

One process runs a :class:`repro.service.ServiceServer` over a worker
:class:`repro.service.Fleet`, and one generator coroutine writes
JSON-lines submit requests on two pipelined connections at a fixed
rate, whether or not earlier requests have been answered (an open
loop).  Each request is timed from when it was *due*, so a stall in
the service also charges the requests queued behind it.  The job mix
is Zipf-skewed over a pool of distinct ``point`` jobs: repeated jobs
are cache hits (socket protocol, router, cache), first sightings are
misses (queueing, fleet pipe dispatch and a short simulation).
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import time
from typing import Any, Dict, List, Optional

from harness import SpanLog, median, percentile

#: Requests per second.  Below the knee on a 2-core host, so that p99
#: is set by miss service time rather than by a growing queue.
RATE = 100.0
CONNECTIONS = 2
#: One worker leaves a core of a 2-core host to the server and the
#: generator; with two workers the three processes contend and p99
#: follows CPU scheduling noise instead of the service.
FLEET_SIZE = 1
#: Latency limit for ``within_limit_frac`` (ms, from the due time).
LIMIT_MS = 500.0
#: The generator has fallen behind, and the run is invalid, when a
#: request goes out this much later than it was due.
MAX_LATE_MS = 1000.0
ZIPF_S = 1.0
#: The job pool: ``via_latency`` at these message sizes, all with the
#: same repeat count, so every miss costs about the same simulation and
#: p99 reflects queueing and dispatch rather than which jobs the seed
#: happened to draw.  After the lead-in 2-3% of requests miss, so p99
#: falls near the median of the miss latencies, not in their tail.
POOL_SIZES = range(4, 104)
POOL_REPEATS = 40
#: Requests in the first seconds fill the empty cache; they are checked
#: but left out of the latency figures, which describe a warm service.
LEAD_IN_S = 2.0
#: Jobs outside the pool that warm each fresh worker before timing.
WARM_REPEATS = 9
#: Fleet set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
DRAIN_TIMEOUT_S = 60.0


class Schedule:
    """The seeded request mix: a due time and a job for every request."""

    def __init__(self, seed: int, seconds: float) -> None:
        from repro.service.protocol import JobSpec

        rng = random.Random(seed)
        pool = [JobSpec.make("point", "via_latency", nbytes=size,
                             repeats=POOL_REPEATS)
                for size in POOL_SIZES]
        rng.shuffle(pool)
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(pool))]
        self.lead_in = int(RATE * LEAD_IN_S)
        count = self.lead_in + max(1, int(RATE * seconds))
        self.specs = rng.choices(pool, weights=weights, k=count)
        self.due = [index / RATE for index in range(count)]
        self.lines = [
            (json.dumps({"op": "submit", "id": index,
                         "job": spec.to_wire()}) + "\n").encode()
            for index, spec in enumerate(self.specs)
        ]

    def references(self) -> Dict[str, Any]:
        """Every distinct job's payload, computed in this process with
        ``repro.service.jobs.execute`` and passed through JSON as the
        wire does."""
        from repro.service.jobs import execute

        refs: Dict[str, Any] = {}
        for spec in self.specs:
            key = spec.cache_key()
            if key not in refs:
                refs[key] = json.loads(json.dumps(execute(spec)))
        return refs


async def _start_fleet():
    """Spawn a fleet and run one job on every worker; (fleet, seconds)."""
    from repro.service import Fleet
    from repro.service.protocol import JobSpec

    started = time.perf_counter()
    fleet = Fleet(FLEET_SIZE, heartbeat_interval=0.1, hang_timeout=30.0)
    await fleet.start()
    warm = [JobSpec.make("point", "via_latency", nbytes=8 + index,
                         repeats=WARM_REPEATS)
            for index in range(fleet.size)]
    try:
        await asyncio.gather(*(fleet.run_job(spec, timeout=60.0)
                               for spec in warm))
    except BaseException:
        await fleet.stop()
        raise
    return fleet, time.perf_counter() - started


class Phase:
    """One open-loop pass of the schedule against a fresh router."""

    def __init__(self, schedule: Schedule) -> None:
        count = len(schedule.specs)
        self.schedule = schedule
        self.sent: List[Optional[float]] = [None] * count
        self.recv: List[Optional[float]] = [None] * count
        self.responses: List[Optional[Dict[str, Any]]] = [None] * count
        self.t0 = 0.0
        self.router = None
        self.fleet = None
        self.dispatches = 0

    async def run(self, fleet) -> None:
        from repro.service import ResultCache, Router, ServiceServer

        gc.collect()  # set-up garbage is not the service's to collect
        self.fleet = fleet
        self.router = Router(fleet, ResultCache())
        server = ServiceServer(self.router)
        host, port = await server.start()
        dispatched_before = fleet.dispatches
        conns = [await asyncio.open_connection(host, port)
                 for _ in range(CONNECTIONS)]
        remaining = [len(self.responses)]
        done = asyncio.Event()

        async def read(reader) -> None:
            while True:
                line = await reader.readline()
                if not line:
                    return
                now = time.perf_counter()
                response = json.loads(line)
                index = response.get("id")
                if isinstance(index, int) and self.recv[index] is None:
                    self.recv[index] = now
                    self.responses[index] = response
                    remaining[0] -= 1
                    if remaining[0] == 0:
                        done.set()

        readers = [asyncio.get_running_loop().create_task(read(reader))
                   for reader, _writer in conns]
        try:
            self.t0 = time.perf_counter() + 0.05
            lines = self.schedule.lines
            for index, due in enumerate(self.schedule.due):
                delay = self.t0 + due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                self.sent[index] = time.perf_counter()
                conns[index % CONNECTIONS][1].write(lines[index])
            try:
                await asyncio.wait_for(done.wait(), DRAIN_TIMEOUT_S)
            except asyncio.TimeoutError:
                pass  # unanswered requests count as failed
        finally:
            self.dispatches = fleet.dispatches - dispatched_before
            for _reader, writer in conns:
                writer.close()
            await asyncio.gather(*readers, return_exceptions=True)
            await server.shutdown()

    # -- results ----------------------------------------------------------
    def latency_ms(self, index: int) -> float:
        return (self.recv[index] - self.t0 - self.schedule.due[index]) * 1e3

    def late_ms(self) -> List[float]:
        return [(sent - self.t0 - due) * 1e3
                for sent, due in zip(self.sent, self.schedule.due)
                if sent is not None]

    def verify(self, refs: Dict[str, Any]) -> List[bool]:
        """Per request: an ``ok`` response equal to the reference."""
        good = []
        for spec, response in zip(self.schedule.specs, self.responses):
            good.append(response is not None
                        and response.get("status") == "ok"
                        and response.get("result") == refs[spec.cache_key()])
        return good

    def measured(self, refs: Dict[str, Any]) -> List[tuple]:
        """(latency ms, cache outcome) of every correct request after the
        lead-in."""
        return [(self.latency_ms(index), self.responses[index]["cache"])
                for index, ok in enumerate(self.verify(refs))
                if ok and index >= self.schedule.lead_in]

    def makespan_s(self) -> float:
        received = [t for t in self.recv if t is not None]
        return (max(received) if received else time.perf_counter()) - self.t0

    def record_spans(self, spans: SpanLog) -> None:
        for index, due in enumerate(self.schedule.due):
            start = self.t0 + due
            end = self.recv[index]
            response = self.responses[index] or {}
            parent = spans.add(
                "request", "service", start,
                end if end is not None else start, trace=index,
                cache=response.get("cache"), status=response.get("status"),
                job=self.schedule.specs[index].label())
            if self.sent[index] is not None:
                spans.add("due-to-sent", "generator", start,
                          self.sent[index], trace=index, parent=parent)


def _queue_ms(phase: Phase, tel) -> float:
    """Median wait of a dispatched miss for the worker: the router's
    request span minus the fleet's dispatch span of the same job.

    Both spans are recorded as a job completes, and one worker completes
    jobs in dispatch order, so the i-th of each belong to the same job.
    """
    dispatches = [span.duration for span in tel.wall_spans
                  if span.kind == "dispatch"]
    requests = [span.duration for span in phase.router.recorder.spans
                if span.kind == "request"]
    waits = [request - dispatch
             for request, dispatch in zip(requests, dispatches)]
    return median(waits) * 1e3 if waits else 0.0


def run(seed: int, seconds: float, trace: bool, spans: SpanLog, outcome):
    """Run the workload and fill ``outcome``; returns the profiler of the
    traced phase (``None`` untraced).  See ``perfbench/run.py``."""
    schedule = Schedule(seed, seconds)
    refs = schedule.references()
    return asyncio.run(_run(schedule, refs, trace, spans, outcome))


async def _run(schedule, refs, trace, spans, outcome):
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            fleet, took = await _start_fleet()
            setups.append(took)
            await fleet.stop()
    fleet, took = await _start_fleet()
    setups.append(took)
    phase = Phase(schedule)
    cpu_start = time.process_time()
    await phase.run(fleet)
    cpu_untraced = time.process_time() - cpu_start
    _gate(phase, refs, outcome)
    if not trace:
        _end_to_end(phase, refs, setups, outcome)
        return None

    import cProfile

    from repro import telemetry

    fleet, _took = await _start_fleet()
    traced = Phase(schedule)
    tel = telemetry.enable("perfbench")
    profiler = cProfile.Profile()
    cpu_start = time.process_time()
    profiler.enable()
    try:
        await traced.run(fleet)
    finally:
        profiler.disable()
        telemetry.disable()
    cpu_traced = time.process_time() - cpu_start
    _gate(traced, refs, outcome)
    traced.record_spans(spans)
    hits, misses = [], []
    for latency, cache in traced.measured(refs):
        (hits if cache == "hit" else misses).append(latency)
    counters = traced.router.counters
    outcome.metrics.update({
        "service.hit_p50_ms": median(hits) if hits else 0.0,
        "service.miss_p50_ms": median(misses) if misses else 0.0,
        "service.miss_p99_ms": percentile(misses, 99) if misses else 0.0,
        "service.queue_ms": _queue_ms(traced, tel),
        "service.hit_frac": len(hits) / max(1, len(hits) + len(misses)),
        "service.coalesced": counters["coalesced"],
        "service.dispatches": traced.dispatches,
        "service.shed": counters["shed"],
        "service.retries": counters["retries"],
        "service.gen_late_ms": percentile(traced.late_ms(), 99),
        "trace.wall_s": traced.makespan_s(),
        "trace.overhead_ratio": cpu_traced / cpu_untraced,
    })
    outcome.notes.append(
        f"traced phase: {len(hits)} hits, {len(misses)} misses, "
        f"{traced.dispatches} dispatches")
    return profiler


def _gate(phase: Phase, refs, outcome) -> None:
    """Count every request; a missing, non-ok or wrong answer fails."""
    for index, ok in enumerate(phase.verify(refs)):
        response = phase.responses[index]
        if ok:
            why = None
        elif response is None:
            why = "no response"
        elif response.get("status") != "ok":
            why = f"status {response.get('status')!r}"
        else:
            why = "result differs from the in-process reference"
        outcome.record([f"request {index}: {why}"] if why else [])
    late = max(phase.late_ms(), default=0.0)
    if late > MAX_LATE_MS:
        outcome.failed += 1
        outcome.problems.append(
            f"generator fell {late:.0f} ms behind its schedule; run invalid")


def _end_to_end(phase: Phase, refs, setups, outcome) -> None:
    from harness import peak_rss_mb

    good = phase.verify(refs)
    latencies = [latency for latency, _cache in phase.measured(refs)]
    within = sum(1 for latency in latencies if latency <= LIMIT_MS)
    outcome.metrics.update({
        "wall_s": phase.makespan_s(),
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "p50_ms": median(latencies) if latencies else LIMIT_MS,
        "p99_ms": percentile(latencies, 99) if latencies else LIMIT_MS,
        "within_limit_frac": within / (len(good) - phase.schedule.lead_in),
    })
    late = phase.late_ms()
    outcome.notes.append(
        f"{len(good)} requests at {RATE:.0f}/s over "
        f"{CONNECTIONS} connections, fleet of {phase.fleet.size}: "
        f"p50/p99 from {len(latencies)} samples after a "
        f"{phase.schedule.lead_in}-request lead-in; generator late "
        f"p99 {percentile(late, 99):.3f} ms; "
        f"{phase.dispatches} dispatches")
