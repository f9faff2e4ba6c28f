"""Same-instant batch heap drains must be invisible.

``Simulator``'s untraced hot loop (shared by ``run`` and
``run_until_complete``) pops every heap entry sharing one
``(time, priority)`` key in a single drain.  A simulator with a
:class:`~repro.sim.monitor.Trace` attached dispatches event by event
through ``step()`` instead, and serves as the reference: these tests
pin dispatch order, urgent preemption mid-batch, crash mid-batch,
window bounds, and ``run_until_complete`` stopping mid-batch or at its
``limit`` against it.
"""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import Simulator, Trace
from repro.sim.events import Callback


def _logger(log, item):
    def fire() -> None:
        log.append(item)
    return fire


def _queue_snapshot(sim):
    """Every queued ``(time, priority, sequence)`` key, in order."""
    keys = [entry[:3] for entry in sim._queue]
    keys += [(when, 0, seq) for when, seq, _ in sim._urgent]
    keys += [(when, 1, seq) for when, seq, _ in sim._normal]
    return sorted(keys)


def _run_both(build):
    """Run ``build(sim, log)`` on the step loop and the hot loop."""
    outcomes = {}
    for traced in (True, False):
        sim = Simulator(trace=Trace() if traced else None)
        log = []
        build(sim, log)
        sim.run()
        outcomes[traced] = (log, sim.events_processed, sim.now)
    return outcomes[True], outcomes[False]


class TestBatchOrder:
    def test_same_instant_callbacks_fire_in_schedule_order(self):
        def build(sim, log):
            for i in range(50):
                Callback(sim, _logger(log, i), at=5.0)

        reference, batched = _run_both(build)
        assert batched == reference
        assert batched[0] == list(range(50))

    def test_batches_at_multiple_instants(self):
        def build(sim, log):
            for step in range(10):
                for i in range(8):
                    Callback(sim, _logger(log, (step, i)),
                             at=float(step + 1))

        reference, batched = _run_both(build)
        assert batched == reference

    def test_callback_scheduling_future_batch_member(self):
        # An event at t=1 adds a new member to the t=2 batch after the
        # t=2 entries already exist; the drain at t=2 must include it
        # in sequence order.
        def build(sim, log):
            for i in range(3):
                Callback(sim, _logger(log, ("first", i)), at=2.0)
            def add_late():
                log.append("adder")
                Callback(sim, _logger(log, "late"), at=2.0)
            Callback(sim, add_late, at=1.0)

        reference, batched = _run_both(build)
        assert batched == reference
        assert batched[0] == ["adder", ("first", 0), ("first", 1),
                              ("first", 2), "late"]


class TestBatchPreemption:
    def test_zero_delay_urgent_preempts_rest_of_batch(self):
        # Batch member 1 schedules an urgent zero-delay event; the step
        # loop runs it before batch members 2..4, so the batched drain
        # must break to match.
        def build(sim, log):
            def spawn_urgent():
                log.append("spawner")
                Callback(sim, _logger(log, "urgent"), delay=0.0,
                         priority=0)
            Callback(sim, spawn_urgent, at=3.0)
            for i in range(3):
                Callback(sim, _logger(log, ("tail", i)), at=3.0)

        reference, batched = _run_both(build)
        assert batched == reference
        assert batched[0].index("urgent") < batched[0].index(("tail", 0))


class TestBatchCrash:
    def test_crash_mid_batch_raises_and_keeps_tail(self):
        # Scheduling order puts the crashing process's resume between
        # the two callbacks in the t=1.0 batch (global sequence
        # numbers: the callback scheduled at t=0.5 sorts last).
        def crasher(sim):
            yield sim.timeout(1.0)
            raise ValueError("mid-batch crash")

        for traced in (True, False):
            sim = Simulator(trace=Trace() if traced else None)
            log = []
            Callback(sim, _logger(log, 0), at=1.0)
            sim.spawn(crasher(sim), name="crasher")
            def add_tail():
                Callback(sim, _logger(log, 2), at=1.0)
            Callback(sim, add_tail, at=0.5)
            with pytest.raises(ValueError, match="mid-batch crash"):
                sim.run()
            # The event before the crash ran; the one after did not
            # and is still queued at the crash instant.
            assert log == [0]
            assert sim.peek() == 1.0


class TestWindowBound:
    def test_until_splits_batches_exactly(self):
        sim = Simulator()
        log = []
        for i in range(4):
            Callback(sim, _logger(log, ("a", i)), at=1.0)
        for i in range(4):
            Callback(sim, _logger(log, ("b", i)), at=2.0)
        sim.run(until=1.5)
        assert log == [("a", i) for i in range(4)]
        assert sim.now == 1.5
        sim.run(until=2.0)
        assert log[-4:] == [("b", i) for i in range(4)]
        assert sim.now == 2.0

    def test_until_bound_matches_reference(self):
        def build_and_run(traced):
            sim = Simulator(trace=Trace() if traced else None)
            log = []
            for step in range(6):
                for i in range(5):
                    Callback(sim, _logger(log, (step, i)),
                             at=float(step))
            sim.run(until=2.0)
            first = (list(log), sim.now, _queue_snapshot(sim))
            sim.run()
            return first, log, sim.events_processed

        assert build_and_run(False) == build_and_run(True)


def _finisher(sim, log, delay=1.0):
    yield sim.timeout(delay)
    log.append("proc")
    return "done"


def _complete_both(build, limit=None):
    """``run_until_complete`` on the step loop and the hot loop.

    ``build(sim, log)`` returns the process to await.  Each outcome
    records the return value or exception type, the clock and queue
    where the call stopped, and what a follow-up ``run()`` dispatches.
    """
    outcomes = {}
    for traced in (True, False):
        sim = Simulator(trace=Trace() if traced else None)
        log = []
        proc = build(sim, log)
        try:
            result = sim.run_until_complete(proc, limit=limit)
        except (DeadlockError, SimulationError) as exc:
            result = type(exc)
        stopped = (result, sim.now, sim.events_processed, list(log),
                   _queue_snapshot(sim))
        sim.run()
        outcomes[traced] = (stopped, log, sim.events_processed)
    return outcomes[True], outcomes[False]


class TestRunUntilComplete:
    def test_stop_mid_batch_when_process_finishes(self):
        # The watched process finishes as part of a same-instant batch;
        # events after it in the batch must stay runnable and fire on
        # the next run(), exactly as the step loop leaves them.
        def build(sim, log):
            Callback(sim, _logger(log, "before"), at=1.0)
            proc = sim.spawn(_finisher(sim, log), name="finisher")
            def add_after():
                Callback(sim, _logger(log, "after"), at=1.0)
            Callback(sim, add_after, at=0.5)
            return proc

        reference, batched = _complete_both(build)
        assert batched == reference
        assert batched[0][0] == "done"
        assert batched[0][3] == ["before", "proc"]
        assert batched[1] == ["before", "proc", "after"]

    def test_limit_exceeded_raises_at_same_instant(self):
        # Batches at t=1 and t=2 run; the process wakes only at t=5,
        # so the call gives up before the t=3 batch.
        def build(sim, log):
            for step in (1.0, 2.0, 3.0):
                for i in range(3):
                    Callback(sim, _logger(log, (step, i)), at=step)
            return sim.spawn(_finisher(sim, log, delay=5.0))

        reference, batched = _complete_both(build, limit=2.5)
        assert batched == reference
        stopped = batched[0]
        assert stopped[0] is SimulationError
        assert stopped[1] == 2.0
        assert stopped[3] == [(step, i) for step in (1.0, 2.0)
                              for i in range(3)]

    def test_limit_on_batch_instant_includes_the_batch(self):
        # Events exactly at the limit still run; the first later event
        # stops the call.
        def build(sim, log):
            for i in range(4):
                Callback(sim, _logger(log, ("at", i)), at=2.0)
            Callback(sim, _logger(log, "later"), at=2.5)
            return sim.spawn(_finisher(sim, log, delay=3.0))

        reference, batched = _complete_both(build, limit=2.0)
        assert batched == reference
        assert batched[0][0] is SimulationError
        assert batched[0][3] == [("at", i) for i in range(4)]

    def test_finish_mid_batch_within_limit(self):
        # Same mid-batch stop as without a limit: the tail of the
        # batch stays queued.
        def build(sim, log):
            Callback(sim, _logger(log, "before"), at=1.0)
            proc = sim.spawn(_finisher(sim, log), name="finisher")
            def add_after():
                Callback(sim, _logger(log, "after"), at=1.0)
            Callback(sim, add_after, at=0.5)
            Callback(sim, _logger(log, "beyond"), at=9.0)
            return proc

        reference, batched = _complete_both(build, limit=4.0)
        assert batched == reference
        assert batched[0][0] == "done"
        assert batched[0][3] == ["before", "proc"]
        assert batched[0][4][0][0] == 1.0

    def test_deadlock_before_limit(self):
        # The queue drains before the limit: deadlock, not a timeout.
        def build(sim, log):
            Callback(sim, _logger(log, "only"), at=1.0)
            def stuck():
                yield sim.event()
            return sim.spawn(stuck(), name="stuck")

        reference, batched = _complete_both(build, limit=10.0)
        assert batched == reference
        assert batched[0][0] is DeadlockError
        assert batched[0][3] == ["only"]
