"""Bandwidth-shared buses: the host memory bus (and PCI-X accounting).

:class:`BandwidthBus` is a *fluid* (generalized-processor-sharing) bus:
concurrent transfers share the byte rate max-min fairly, with optional
per-transfer rate caps (a memory copy cannot stream at full bus speed;
a DMA cannot exceed its PCI-X segment rate).  The fluid model costs two
events per transfer plus one per concurrency change — far cheaper and
far more accurate at microsecond scale than chunked FIFO arbitration,
which would make a 1.5 KB copy wait multi-microsecond turns behind
queued DMA bursts.

Allocation is water-filling: every active transfer gets an equal share
of the remaining rate; transfers capped below their share release the
surplus to the rest.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ConfigurationError
from repro.sim import Simulator
from repro.sim.events import Callback, Event

#: Residual bytes below this complete immediately (a millionth of a
#: byte).  Must be comfortably above accumulated float error so a
#: shrinking horizon can never fall under the ulp of ``sim.now`` —
#: that would stop time advancing and live-lock the event loop.
_EPS = 1e-6
#: Smallest scheduled horizon (us). 1e-6 us stays above float ulp for
#: simulated times up to ~10^9 us.
_MIN_HORIZON = 1e-6


class _Flow:
    """One in-progress transfer on a fluid bus."""

    __slots__ = ("bus", "remaining", "cap", "weight", "rate", "done")

    def __init__(self, bus: "BandwidthBus", nbytes: float,
                 cap: Optional[float], weight: float, done) -> None:
        self.bus = bus
        self.remaining = float(nbytes)
        self.cap = cap
        self.weight = weight
        self.rate = 0.0
        self.done = done

    def join(self) -> None:
        """Admit this flow to its bus (the post-setup half of a
        transfer): settle the others, then re-run the water-fill."""
        bus = self.bus
        bus._settle()
        flows = bus._flows
        flows.append(self)
        if len(flows) > bus.stats["max_concurrency"]:
            bus.stats["max_concurrency"] = len(flows)
        bus._reallocate()


class BandwidthBus:
    """A fluid-shared bus with a fixed aggregate byte rate."""

    def __init__(self, sim: Simulator, rate: float, setup: float = 0.0,
                 name: str = "bus") -> None:
        if rate <= 0:
            raise ConfigurationError(f"bus rate must be > 0, got {rate}")
        self.sim = sim
        self.rate = rate
        self.setup = setup
        self.name = name
        self._flows: List[_Flow] = []
        self._last_update = 0.0
        #: Wake bookkeeping: the currently valid wake target and the
        #: fire times of outstanding wake callbacks.  Invariant while
        #: flows are active: some outstanding time <= the target.
        self._wake_time = 0.0
        self._wake_times: List[float] = []
        #: Transfers past the entry checks but not yet completed; covers
        #: the setup window before the flow is appended, so the frame
        #: train planner can prove the bus fully idle.
        self._entered = 0
        self.stats = {"transfers": 0, "bytes": 0.0, "max_concurrency": 0}

    # -- public API ------------------------------------------------------------
    @property
    def concurrency(self) -> int:
        """Number of active transfers."""
        return len(self._flows)

    def busy(self) -> bool:
        return bool(self._flows)

    def utilization_rate(self) -> float:
        """Currently allocated bytes/us across all flows."""
        return sum(flow.rate for flow in self._flows)

    def transfer(self, nbytes: float, rate_cap: Optional[float] = None,
                 weight: float = 1.0):
        """Process: move ``nbytes``; completes when the fluid share
        delivered them.

        ``rate_cap`` bounds this transfer's rate; ``weight`` scales its
        share of a contended bus (memory controllers service CPU loads
        ahead of device DMA, so copies carry a high weight).
        """
        if nbytes < 0:
            raise ConfigurationError(f"negative transfer size {nbytes}")
        if rate_cap is not None and rate_cap <= 0:
            raise ConfigurationError(f"rate cap must be > 0, got {rate_cap}")
        if weight <= 0:
            raise ConfigurationError(f"weight must be > 0, got {weight}")
        self.stats["transfers"] += 1
        self.stats["bytes"] += nbytes
        rec = self.sim.recorder
        if rec is not None:
            rec.metrics.observe("bus:" + self.name, self.sim._now,
                                float(nbytes))
        self._entered += 1
        try:
            if self.setup:
                yield self.sim.timeout(self.setup)
            if nbytes == 0:
                return 0.0
            done = Event(
                self.sim,
                name=f"{self.name}:xfer" if self.sim.trace is not None
                else ""
            )
            _Flow(self, nbytes, rate_cap, weight, done).join()
            yield done
        finally:
            self._entered -= 1
        return nbytes

    def transfer_event(self, nbytes: float,
                       rate_cap: Optional[float] = None,
                       weight: float = 1.0,
                       at: Optional[float] = None):
        """Fused transfer: returns the completion Event directly.

        Same validation, stats, and timing as :meth:`transfer`, but the
        setup wait and the flow join are fused into one Callback (the
        join runs at the instant :meth:`transfer`'s setup timeout would
        resume), so the caller suspends once instead of twice.
        Requires ``setup > 0`` and ``nbytes > 0`` — other cases keep
        the generator path.  ``at`` overrides the join instant for
        callers that fold a preceding fixed delay into the transfer
        (it must equal the unfused path's float-rounded instant).
        """
        if nbytes <= 0:
            raise ConfigurationError(f"non-positive transfer size {nbytes}")
        if rate_cap is not None and rate_cap <= 0:
            raise ConfigurationError(f"rate cap must be > 0, got {rate_cap}")
        if weight <= 0:
            raise ConfigurationError(f"weight must be > 0, got {weight}")
        sim = self.sim
        stats = self.stats
        stats["transfers"] += 1
        stats["bytes"] += nbytes
        rec = sim.recorder
        if rec is not None:
            rec.metrics.observe("bus:" + self.name, sim._now, float(nbytes))
        self._entered += 1
        done = Event(sim, f"{self.name}:xfer" if sim.trace is not None else "")
        done.callbacks.append(self._transfer_done)
        join = _Flow(self, nbytes, rate_cap, weight, done).join
        if at is not None:
            Callback(sim, join, at=at)
        else:
            Callback(sim, join, delay=self.setup)
        return done

    def _transfer_done(self, _event) -> None:
        self._entered -= 1

    # -- fluid mechanics ---------------------------------------------------
    def _settle(self) -> None:
        """Advance every flow's progress to the current instant.

        Flows at (or within float error of) zero remaining complete
        even when no time has elapsed — see the _EPS note above.
        """
        now = self.sim._now
        elapsed = now - self._last_update
        self._last_update = now
        flows = self._flows
        finished = None
        if elapsed > 0:
            for flow in flows:
                flow.remaining -= elapsed * flow.rate
        for flow in flows:
            if flow.remaining <= _EPS:
                flow.remaining = 0.0
                if finished is None:
                    finished = [flow]
                else:
                    finished.append(flow)
        if finished is None:
            return
        for flow in finished:
            flows.remove(flow)
        # Completion runs the done event's callbacks inline instead of
        # round-tripping through the zero-delay queue.  The queue
        # position is identical: a completion instant drains the urgent
        # queue before this (NORMAL) wake fires, so the done event
        # would be at the queue head anyway, and callbacks of multiple
        # finished flows run in the same FIFO order.  All flows are
        # unlinked above before any callback runs, so a re-entrant
        # _settle from a continuation sees a consistent flow list (and
        # elapsed == 0 makes it a no-op).
        for flow in finished:
            done = flow.done
            done._ok = True
            done._value = None
            callbacks, done.callbacks = done.callbacks, None
            done._processed = True
            for callback in callbacks:
                callback(done)

    def _reallocate(self) -> None:
        """Water-fill the rate over active flows; schedule next wake."""
        flows = self._flows
        if not flows:
            return
        if len(flows) == 1:
            # Same arithmetic as the general loop specialized to one
            # flow (sum of one weight and min over one flow are exact),
            # skipping the list copies and generator overhead.
            f = flows[0]
            unit = self.rate / f.weight
            share = f.weight * unit
            cap = f.cap
            f.rate = rate = (cap if (cap is not None and cap < share)
                             else share)
            horizon = f.remaining / rate
            if horizon < _MIN_HORIZON:
                horizon = _MIN_HORIZON
        else:
            # Water-fill without per-call generators: ``pending`` is
            # the live flow list until a cap binds.  The weights go
            # through sum() in flow order, as before, because sum()
            # rounds differently from a running total on Python >= 3.12.
            budget = self.rate
            pending = flows
            while pending:
                unit = budget / sum([f.weight for f in pending])
                capped = None
                for f in pending:
                    cap = f.cap
                    if cap is not None and cap < f.weight * unit:
                        if capped is None:
                            capped = [f]
                        else:
                            capped.append(f)
                if capped is None:
                    for f in pending:
                        f.rate = f.weight * unit
                    break
                for f in capped:
                    f.rate = f.cap
                    budget -= f.cap
                pending = [f for f in pending if f not in capped]
            # min() then max() with the clamp, spelled out.
            horizon = None
            for f in flows:
                h = f.remaining / f.rate
                if horizon is None or h < horizon:
                    horizon = h
            if _MIN_HORIZON > horizon:
                horizon = _MIN_HORIZON
        # Reuse an outstanding wake when one already fires at or before
        # the new target: it re-arms itself on a stale fire (see
        # _wake_fired), so settle/reallocate still run at exactly the
        # valid instant but membership churn does not strand a dead
        # callback per reallocation.
        sim = self.sim
        self._wake_time = target = sim._now + horizon
        times = self._wake_times
        for t in times:
            if t <= target:
                return
        times.append(target)
        Callback(sim, self._wake_fired, at=target)

    def _wake_fired(self) -> None:
        now = self.sim._now
        times = self._wake_times
        try:
            times.remove(now)
        except ValueError:  # pragma: no cover - defensive
            pass
        if not self._flows:
            return
        target = self._wake_time
        if now >= target:
            self._settle()
            self._reallocate()
            return
        # Stale fire ahead of the valid target: re-arm unless another
        # outstanding wake already covers it.
        for t in times:
            if t <= target:
                return
        times.append(target)
        Callback(self.sim, self._wake_fired, at=target)
