"""Tests for the event primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim import AllOf, AnyOf, Event, Simulator, Timeout
from repro.sim.events import NORMAL, URGENT, Callback
from tests.conftest import run


def test_event_starts_pending(sim):
    event = sim.event("e")
    assert not event.triggered
    assert not event.processed
    with pytest.raises(SimulationError):
        _ = event.value
    with pytest.raises(SimulationError):
        _ = event.ok


def test_succeed_sets_value_and_processes(sim):
    event = sim.event()
    event.succeed(42)
    assert event.triggered
    assert not event.processed
    sim.run()
    assert event.processed
    assert event.ok
    assert event.value == 42


def test_double_trigger_rejected(sim):
    event = sim.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()
    with pytest.raises(SimulationError):
        event.fail(RuntimeError("x"))


def test_fail_requires_exception(sim):
    event = sim.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_fail_propagates_into_process(sim):
    event = sim.event()

    def proc():
        with pytest.raises(ValueError):
            yield event
        return "handled"

    process = sim.spawn(proc())
    event.fail(ValueError("boom"))
    assert run(sim, _wait(process)) == "handled"


def _wait(process):
    value = yield process
    return value


def test_timeout_fires_at_delay(sim):
    def proc():
        yield sim.timeout(5.5)
        return sim.now

    assert run(sim, proc()) == 5.5


def test_timeout_carries_value(sim):
    def proc():
        value = yield sim.timeout(1, value="payload")
        return value

    assert run(sim, proc()) == "payload"


def test_negative_timeout_rejected(sim):
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_timeouts_fire_in_order(sim):
    order = []

    def waiter(delay):
        yield sim.timeout(delay)
        order.append(delay)

    for delay in (3, 1, 2):
        sim.spawn(waiter(delay))
    sim.run()
    assert order == [1, 2, 3]


def test_same_time_events_fifo(sim):
    order = []

    def waiter(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.spawn(waiter(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_anyof_fires_on_first(sim):
    def proc():
        t1 = sim.timeout(10, value="slow")
        t2 = sim.timeout(2, value="fast")
        result = yield (t1 | t2)
        return (sim.now, list(result.values()))

    now, values = run(sim, proc())
    assert now == 2
    assert values == ["fast"]


def test_allof_waits_for_all(sim):
    def proc():
        t1 = sim.timeout(10, value="slow")
        t2 = sim.timeout(2, value="fast")
        result = yield (t1 & t2)
        return (sim.now, sorted(result.values()))

    now, values = run(sim, proc())
    assert now == 10
    assert values == ["fast", "slow"]


def test_empty_condition_fires_immediately(sim):
    def proc():
        result = yield AllOf(sim, [])
        return result

    assert run(sim, proc()) == {}


def test_condition_failure_propagates(sim):
    bad = sim.event()

    def proc():
        with pytest.raises(RuntimeError):
            yield AllOf(sim, [sim.timeout(5), bad])
        return "ok"

    bad.fail(RuntimeError("inner"))
    assert run(sim, proc()) == "ok"


def test_condition_rejects_foreign_events(sim):
    other = Simulator()
    with pytest.raises(SimulationError):
        AnyOf(sim, [sim.timeout(1), other.timeout(1)])


def test_condition_over_already_processed_event(sim):
    timeout = sim.timeout(1)
    sim.run()
    assert timeout.processed

    def proc():
        result = yield AllOf(sim, [timeout])
        return len(result)

    assert run(sim, proc()) == 1


def test_add_callback_after_processed_still_runs(sim):
    event = sim.event()
    event.succeed("v")
    sim.run()
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == ["v"]


def test_self_queuing_events_order_like_schedule(sim):
    """Timeout, Callback and sleep_until push their own queue entries;
    they must land exactly where Simulator.schedule / schedule_at put
    an equivalent plain event: one (time, priority, sequence) order."""
    sim.run(until=1.0)
    order = []

    def plain(tag, delay, priority):
        event = Event(sim)
        event._ok, event._value = True, None
        event.callbacks.append(lambda _e: order.append(tag))
        sim.schedule(event, delay=delay, priority=priority)

    def plain_at(tag, when, priority):
        event = Event(sim)
        event._ok, event._value = True, None
        event.callbacks.append(lambda _e: order.append(tag))
        sim.schedule_at(event, when, priority=priority)

    def note(tag):
        return lambda *_args: order.append(tag)

    expected = []
    for index, (delay, priority) in enumerate(
            [(0.0, NORMAL), (0.0, URGENT), (2.0, NORMAL), (2.0, URGENT),
             (0.5, NORMAL)]):
        when = sim.now + delay
        Callback(sim, note(f"cb{index}"), delay=delay, priority=priority)
        plain(f"plain{index}", delay, priority)
        Callback(sim, note(f"at{index}"), at=when, priority=priority)
        plain_at(f"plain_at{index}", when, priority)
        tags = [f"cb{index}", f"plain{index}", f"at{index}",
                f"plain_at{index}"]
        if priority == NORMAL:
            sim.timeout(delay).callbacks.append(note(f"timeout{index}"))
            sim.sleep_until(when).callbacks.append(note(f"sleep{index}"))
            tags += [f"timeout{index}", f"sleep{index}"]
        expected += [((when, priority), tag) for tag in tags]
    sim.run()
    # A stable sort keeps creation (sequence) order within each key.
    assert order == [tag for _key, tag in
                     sorted(expected, key=lambda item: item[0])]


def test_self_queuing_events_reject_the_past(sim):
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        Callback(sim, lambda: None, delay=-1.0)
    with pytest.raises(SimulationError):
        Callback(sim, lambda: None, at=4.0)
    with pytest.raises(SimulationError):
        sim.sleep_until(4.0)
    with pytest.raises(ValueError):
        Timeout(sim, -0.5)
    assert sim.queue_length == 0
