"""Generator-based simulation processes.

A process body is a generator that yields :class:`~repro.sim.events.Event`
objects; the kernel resumes it with the event's value (or throws the
event's exception).  A :class:`Process` is itself an event that fires
with the generator's return value, so processes can wait on each other::

    def child(sim):
        yield sim.timeout(3)
        return 42

    def parent(sim):
        result = yield sim.spawn(child(sim))
        assert result == 42
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

from repro.errors import InterruptError, SimulationError
from repro.sim.events import Event, URGENT

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


class _Initialize(Event):
    """Internal event that starts a freshly spawned process: an URGENT
    zero-delay event, queued directly like :class:`Timeout`."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process") -> None:
        self.sim = sim
        self.name = f"init:{process.name}" if sim.trace is not None else ""
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._processed = False
        sim._sequence = sequence = sim._sequence + 1
        sim._urgent.append((sim._now, sequence, self))


class Process(Event):
    """A running coroutine inside the simulation.

    Do not instantiate directly — use :meth:`Simulator.spawn`.
    """

    __slots__ = ("generator", "_target", "is_alive")

    def __init__(self, sim: "Simulator", generator: Generator,
                 name: str = "") -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(
                f"spawn() requires a generator, got {generator!r} — "
                "did you call the process function with ()?"
            )
        super().__init__(sim, name=name or getattr(
            generator, "__name__", "process"))
        self.generator = generator
        #: The event this process is currently waiting on (None while
        #: it is being resumed or before it starts).
        self._target: Optional[Event] = None
        self.is_alive = True
        _Initialize(sim, self)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`InterruptError` into the process.

        The process keeps its place in any resource queues; waiting on
        the original target again is the process body's responsibility.
        Interrupting a dead process raises :class:`SimulationError`.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead {self!r}")
        if self._target is None and not self.triggered:
            # Process is starting up this instant; interrupt still works
            # because the interrupt event carries URGENT priority and the
            # resume hook checks for stale targets.
            pass
        interrupt_event = Event(self.sim, name=f"interrupt:{self.name}")
        interrupt_event._ok = False
        interrupt_event._value = InterruptError(cause)
        interrupt_event.callbacks.append(self._resume)
        self.sim.schedule(interrupt_event, delay=0.0, priority=URGENT)

    # -- kernel hook --------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        if not self.is_alive:
            return  # e.g. interrupted to death while a timeout was pending
        target = self._target
        if event is not target and target is not None:
            # A stale wakeup: the process was interrupted while waiting
            # on `target`; that original event may fire later and must
            # not resume us twice unless we re-waited on it.  An
            # interrupt leaves the original event's callback in place;
            # this guard drops it if it fires.
            if not isinstance(event._value, InterruptError):
                return
        sim = self.sim
        sim._active_process = self
        # Detach from the old target so stale wakeups are detectable.
        self._target = None
        try:
            if event._ok:
                next_target = self.generator.send(event._value)
            else:
                next_target = self.generator.throw(event._value)
        except StopIteration as stop:
            self.is_alive = False
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.is_alive = False
            if self.callbacks:
                self.fail(exc)
            else:
                # Nobody is waiting on this process: surface the crash
                # instead of losing it.
                sim._crash(self, exc)
            return
        finally:
            sim._active_process = None
        if not isinstance(next_target, Event):
            self.is_alive = False
            self.fail(SimulationError(
                f"{self.name} yielded non-event {next_target!r}"
            ))
            return
        if next_target.sim is not sim:
            self.is_alive = False
            self.fail(SimulationError(
                f"{self.name} yielded event from another simulator"
            ))
            return
        self._target = next_target
        callbacks = next_target.callbacks
        if callbacks is None:
            # Already processed: resume on the next URGENT tick with the
            # same outcome, preserving causal ordering.
            shim = Event(sim, name=f"shim:{self.name}")
            shim._ok = next_target._ok
            shim._value = next_target._value
            shim.callbacks.append(self._resume)
            self._target = shim
            sim.schedule(shim, delay=0.0, priority=URGENT)
        else:
            callbacks.append(self._resume)
