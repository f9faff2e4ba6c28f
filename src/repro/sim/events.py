"""Event primitives for the simulation kernel.

An :class:`Event` moves through three states:

* *pending* — created but not yet triggered;
* *triggered* — a value (or failure) is set and the event sits in the
  simulator queue;
* *processed* — the simulator has popped it and run its callbacks.

Processes wait on events by ``yield``-ing them; the kernel resumes the
process when the event is processed, sending the event's value into the
generator (or throwing its exception).
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Iterable, Optional, TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Simulator

#: Priority tiers for same-time events. URGENT events (interrupts,
#: resource bookkeeping) run before NORMAL ones at equal timestamps.
URGENT = 0
NORMAL = 1

_PENDING = object()


class Event:
    """A happening at a point in simulated time.

    Parameters
    ----------
    sim:
        Owning simulator.
    name:
        Optional label used in traces and ``repr``.
    """

    __slots__ = ("sim", "name", "callbacks", "_value", "_ok", "_processed")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        #: Callables invoked with this event when it is processed.
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._processed = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value or failure has been set."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} has no value yet")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Set a success value and schedule processing now."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # Simulator.schedule(self, 0.0, priority), inlined: this is the
        # wakeup path of every store, resource and bus completion.
        sim = self.sim
        sim._sequence = sequence = sim._sequence + 1
        if priority == NORMAL:
            sim._normal.append((sim._now, sequence, self))
        elif priority == URGENT:
            sim._urgent.append((sim._now, sequence, self))
        else:
            heappush(sim._queue, (sim._now + 0.0, priority, sequence, self))
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Set a failure and schedule processing now.

        The exception is thrown into every process waiting on the event.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.sim.schedule(self, delay=0.0, priority=priority)
        return self

    # -- kernel hook --------------------------------------------------------
    def _process(self) -> None:
        """Run callbacks. Called exactly once by the simulator."""
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        for callback in callbacks:
            callback(self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Attach ``callback``; runs immediately-ish if already processed."""
        if self.callbacks is None:
            # Already processed: schedule a shim so ordering stays causal.
            stub = Event(self.sim, name=f"late-callback:{self.name}")
            stub.callbacks.append(lambda _e: callback(self))
            stub._ok = self._ok
            stub._value = self._value if self._value is not _PENDING else None
            self.sim.schedule(stub, delay=0.0, priority=URGENT)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self._processed
            else "triggered" if self.triggered
            else "pending"
        )
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"

    # -- composition --------------------------------------------------------
    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.sim, [self, other])

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.sim, [self, other])


class Timeout(Event):
    """An event that fires after a fixed delay.

    Created via :meth:`repro.sim.Simulator.timeout`; triggering happens
    at construction, so a Timeout cannot be cancelled — model
    cancellable waits with a plain :class:`Event` plus
    :class:`AnyOf`.

    Like :class:`Callback`, the constructor sets every slot and pushes
    its own queue entry (the body of :meth:`Simulator.schedule`)
    instead of calling ``Event.__init__`` and ``schedule``: these two
    classes are most of the events a simulation creates.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None,
                 name: str = "") -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        # Building the label costs more than the rest of the
        # constructor; only pay for it when a trace will read it.
        if not name and sim.trace is not None:
            name = f"timeout({delay:g})"
        self.sim = sim
        self.name = name
        self.callbacks = []
        self._value = value
        self._ok = True
        self._processed = False
        self.delay = delay
        sim._sequence = sequence = sim._sequence + 1
        if delay == 0.0:
            sim._normal.append((sim._now, sequence, self))
        else:
            heappush(sim._queue, (sim._now + delay, NORMAL, sequence, self))


class Callback(Event):
    """A pre-triggered event that invokes ``fn`` when processed.

    Replaces the spawn-a-process-to-run-one-timeout pattern on hot
    paths (bus wakeups, link deliveries): one queue entry instead of an
    init event, a timeout, and a process-completion event.  ``fn`` runs
    before any waiter callbacks, at the event's scheduled instant.
    """

    __slots__ = ("fn",)

    def __init__(self, sim: "Simulator", fn: Callable[[], None],
                 delay: float = 0.0, at: Optional[float] = None,
                 priority: int = NORMAL, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.callbacks = []
        self._value = None
        self._ok = True
        self._processed = False
        self.fn = fn
        # Simulator.schedule / schedule_at, inlined (see Timeout).
        now = sim._now
        if at is None:
            if delay < 0:
                raise SimulationError(
                    f"cannot schedule into the past ({delay})"
                )
            immediate = delay == 0.0
            at = now if immediate else now + delay
        else:
            if at < now:
                raise SimulationError(
                    f"cannot schedule at {at} before now={now}"
                )
            immediate = at == now
        sim._sequence = sequence = sim._sequence + 1
        if immediate:
            if priority == NORMAL:
                sim._normal.append((at, sequence, self))
                return
            if priority == URGENT:
                sim._urgent.append((at, sequence, self))
                return
        heappush(sim._queue, (at, priority, sequence, self))

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        self.fn()
        for callback in callbacks:
            callback(self)


class Condition(Event):
    """Base for AnyOf/AllOf composition over a set of events.

    The condition's value is a dict mapping each *triggered* constituent
    event to its value at the moment the condition fired.
    """

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event],
                 name: str = "") -> None:
        super().__init__(sim, name=name)
        self.events = tuple(events)
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError(
                    "cannot mix events from different simulators"
                )
        self._count = 0
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.callbacks is None:
                # Already processed before the condition existed.
                self._check(event)
            else:
                event.add_callback(self._check)

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._count += 1
        if self._satisfied():
            self.succeed(self._collect())

    def _collect(self) -> dict:
        # Only *processed* events count: a Timeout is "triggered" the
        # moment it is created, but it hasn't happened until the clock
        # reaches it.
        return {
            event: event._value
            for event in self.events
            if event._processed and event._ok
        }


class AnyOf(Condition):
    """Fires as soon as any constituent event has been processed."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1


class AllOf(Condition):
    """Fires when all constituent events have been processed."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= len(self.events)
