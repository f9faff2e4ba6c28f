"""Intel Pro/1000MT-class GigE port model.

Transmit pipeline (two overlapping stages, as on the real adapter):

1. *fetch* — pop the next transmit descriptor, DMA the frame from host
   memory into the on-board FIFO (PCI-X + memory-bus contention);
2. *wire* — per-descriptor NIC processing, then serialization onto the
   link.

Receive pipeline:

1. *rx* — per-frame NIC processing, consume one receive descriptor
   (blocking when the ring is empty, which models 802.3x pause
   back-pressure rather than drops), DMA the frame to host memory;
2. *interrupt coalescing* — a pending-frame buffer raises the rx
   interrupt ``coalesce_delay`` us after the first undelivered frame or
   immediately once ``coalesce_frames`` are waiting (the "interrupt
   delay" driver tuning of paper section 3);
3. *interrupt* — the handler acquires the CPU at IRQ priority, pays the
   fixed interrupt cost plus a per-frame cost, then hands each frame to
   the attached protocol driver **while still holding the CPU** (Linux
   runs netdev rx at interrupt/softirq level).

Protocol drivers attach via :meth:`set_driver` with a generator
function ``driver(frame)`` that may charge further CPU time (the CPU is
already held) and must re-post receive descriptors via
:meth:`post_rx_descriptors`.

The three stages (tx fetch, tx wire, rx) are callback state machines,
not processes: each wait appends the next step to the awaited event's
callbacks, so a stage costs exactly the events a generator process
would have yielded (one event per wait) without the process
machinery.  See ``docs/SIMULATOR.md`` ("Hot path").
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.errors import ConfigurationError
from repro.obs.recorder import DMA as _DMA
from repro.hw.fastpath import (
    HARMLESS, FrameTrain, TRAIN_MIN_FRAMES, TrainCallback, commit_train,
    plan_train,
)
from repro.hw.link import Frame, Link
from repro.hw.node import Host, PRIO_IRQ
from repro.hw.params import GigEParams
from repro.sim import Simulator, Store
from repro.sim.events import URGENT, Callback, Event, Timeout

#: On-board transmit FIFO depth, frames. Enough to keep the wire busy
#: while the next descriptor is fetched.
TX_FIFO_FRAMES = 4


class GigEPort:
    """One port of a dual-port GigE adapter, bound to one link side."""

    def __init__(self, sim: Simulator, host: Host, params: GigEParams,
                 pci_index: int = 0, name: str = "gige") -> None:
        self.sim = sim
        self.host = host
        self.params = params
        self.pci_index = pci_index
        self.name = name
        self.link: Optional[Link] = None
        self.side: Optional[int] = None
        # Transmit path.
        self.tx_queue = Store(sim, capacity=params.tx_ring,
                              name=f"{name}:txq")
        self._tx_fifo = Store(sim, capacity=TX_FIFO_FRAMES,
                              name=f"{name}:txfifo")
        # Receive path.  Free receive descriptors are a count, not ring
        # entries: they are identical, and the rx stage, their only
        # consumer, waits on at most one event when none is free.
        self.rx_free = params.rx_ring
        self._rx_waiter: Optional[Event] = None
        self._rx_arrivals = Store(sim, name=f"{name}:rxarr")
        self._pending_frames: list = []
        self._irq_timer_deadline: Optional[float] = None
        self._irq_timer_cb: Optional[TrainCallback] = None
        self._driver: Optional[Callable[[Frame], Generator]] = None
        #: NIC-resident collective engine hook (hw.nic_collective),
        #: consulted in the rx stage before any receive descriptor is
        #: consumed.  A True return means the frame was consumed
        #: entirely inside the NIC: no descriptor, DMA or interrupt.
        self.collective_hook: Optional[Callable[[Frame], bool]] = None
        #: Frames hidden inside queued FrameTrains (ring-level parity).
        self._tx_extra = 0
        #: Residue of the last committed train (see hw.fastpath).
        self._virt = None
        self.stats = {
            "tx_frames": 0, "rx_frames": 0, "interrupts": 0,
            "tx_bytes": 0, "rx_bytes": 0, "rx_stalls": 0,
            "trains": 0, "train_frames": 0, "train_fallbacks": 0,
            "nic_rx": 0, "nic_tx": 0,
        }
        # Per-stage state carried between callbacks: the frame each
        # stage is working on and what its next step needs.  (Kept
        # few: past 30 attributes an instance stops sharing its dict
        # keys with the other ports.)
        self._fetch_frame: Optional[Frame] = None
        self._fetch_t0 = 0.0
        self._fetch_virt = None
        #: Frames of a dequeued train, last frame first.
        self._fetch_backlog: list = []
        self._train_spins = 0
        self._wire_frame: Optional[Frame] = None
        self._wire_start = 0.0
        self._rx_frame: Optional[Frame] = None
        self._rx_t0 = 0.0
        # Each stage starts from one URGENT zero-delay event, where a
        # spawned process would have had its start event.
        Callback(sim, self._fetch_next, priority=URGENT)
        Callback(sim, self._wire_next, priority=URGENT)
        Callback(sim, self._rx_next, priority=URGENT)

    # -- wiring ------------------------------------------------------------
    def attach_link(self, link: Link, side: int) -> None:
        if self.link is not None:
            raise ConfigurationError(f"{self.name} already attached")
        link.attach(side, self)
        self.link = link
        self.side = side

    def set_driver(self, driver: Callable[[Frame], Generator]) -> None:
        """Install the protocol rx handler (a generator function)."""
        self._driver = driver

    # -- transmit ---------------------------------------------------------
    def enqueue_tx(self, frame: Frame):
        """Process: place a frame on the transmit descriptor ring.

        Blocks when the ring is full (the paper's driver used 2048
        descriptors exactly to make such stalls rare).
        """
        yield self.tx_queue.put(frame)

    def try_enqueue_tx(self, frame: Frame) -> bool:
        """Non-blocking ring post; False if the ring is full."""
        if (len(self.tx_queue) + self._tx_extra
                >= self.tx_queue.capacity):
            return False
        self.tx_queue.items.append(frame)
        self.tx_queue._dispatch()
        return True

    def send_frames(self, frames: list):
        """Process: enqueue a frame burst; as one train when eligible.

        Semantics are a per-frame ring put; the train is a container
        the fetch stage either plans analytically (see
        :mod:`repro.hw.fastpath`) or unbundles into the identical
        per-frame path.  The whole burst must fit the ring — a burst
        that would block mid-way keeps the per-frame puts.
        """
        tx_queue = self.tx_queue
        if (self.sim._fast and len(frames) >= TRAIN_MIN_FRAMES
                and not tx_queue._putters
                and len(tx_queue.items) + self._tx_extra + len(frames)
                <= tx_queue.capacity):
            self._tx_extra += len(frames) - 1
            tx_queue.stats["puts"] += len(frames) - 1
            yield tx_queue.put(FrameTrain(frames))
            return
        for frame in frames:
            yield tx_queue.put(frame)

    # The fetch stage: pop a descriptor, DMA the frame into the FIFO.
    def _fetch_next(self, got=None) -> None:
        """Loop head: take the next frame off the ring, or wait for one
        (``got`` is the ring get that has just been fulfilled)."""
        if got is not None:
            frame = got._value
        elif self._fetch_backlog:
            self._fetch_one(self._fetch_backlog.pop())
            return
        else:
            frame = self.tx_queue.try_get()
            if frame is None:
                self.tx_queue.get().callbacks.append(self._fetch_next)
                return
        if type(frame) is FrameTrain:
            frames = frame.frames
            self._tx_extra -= len(frames) - 1
            self.tx_queue.stats["gets"] += len(frames) - 1
            self._fetch_backlog = frames[::-1]
            self._train_spins = 0
            self._train_settle()
            return
        self._fetch_one(frame)

    def _fetch_resume(self, _event) -> None:
        self._fetch_next()

    def _train_settle(self, _event=None) -> None:
        """Plan a train once same-instant bookkeeping (the enqueueing
        process's continuation, completion plumbing) has drained; give
        up waiting after eight zero-delay waits."""
        sim = self.sim
        if (sim._urgent or sim._normal) and self._train_spins < 8:
            self._train_spins += 1
            Timeout(sim, 0).callbacks.append(self._train_settle)
            return
        frames = self._fetch_backlog[::-1]
        plan = plan_train(self, frames)
        if plan is None:
            # Fetch the frames one by one from the backlog.
            self.stats["train_fallbacks"] += 1
            self._fetch_next()
            return
        self._fetch_backlog = []
        self.stats["trains"] += 1
        self.stats["train_frames"] += len(frames)
        commit_train(self, frames, plan)
        # Park until the reference fetch stage would return to the
        # ring (its last FIFO put).
        sim.sleep_until(plan.fetch_free).callbacks.append(self._fetch_resume)

    def _fetch_one(self, frame: Frame) -> None:
        self._fetch_frame = frame
        self._fetch_t0 = self.sim._now
        wire = frame.wire_bytes(self.params.frame_overhead)
        self.host.dma_event(wire, self.pci_index).callbacks.append(
            self._fetched)

    def _fetched(self, _event) -> None:
        sim = self.sim
        frame = self._fetch_frame
        rec = sim.recorder
        if rec is not None:
            ctx = getattr(frame.payload, "trace", None)
            if ctx is not None:
                rec.span(ctx, _DMA, self.name,
                         f"n{self.host.node_id}", self._fetch_t0, sim._now)
        if frame.on_fetched is not None:
            frame.on_fetched()
        self._fetch_virt = self._virt
        self._fetch_put()

    def _fetch_put(self, _event=None) -> None:
        sim = self.sim
        fifo = self._tx_fifo
        virt = self._fetch_virt
        # FIFO slots still virtually held by a committed train count
        # against the put, at their planned pop instants.
        if (virt is not None
                and len(fifo.items) + virt.occupancy(sim._now)
                >= fifo.capacity and virt.free_at):
            sim.sleep_until(virt.free_at[0]).callbacks.append(
                self._fetch_put)
            return
        if not fifo.try_put(self._fetch_frame):
            fifo.put(self._fetch_frame).callbacks.append(self._fetch_resume)
            return
        self._fetch_next()

    def nic_inject_tx(self, frame: Frame):
        """Process: transmit a NIC-originated frame (no descriptor).

        Collective frames the NIC firmware emits were never posted by
        the host, so there is no descriptor fetch and no DMA — the
        frame materializes directly in the on-board transmit FIFO
        (honoring the committed-train residue backpressure exactly
        like the fetch stage) and the wire stage treats it like any
        other frame.
        """
        sim = self.sim
        fifo = self._tx_fifo
        virt = self._virt
        if virt is not None:
            while (len(fifo.items) + virt.occupancy(sim._now)
                    >= fifo.capacity and virt.free_at):
                yield sim.sleep_until(virt.free_at[0])
        self.stats["nic_tx"] += 1
        if not fifo.try_put(frame):
            yield fifo.put(frame)

    # The wire stage: per-descriptor processing, then serialization.
    def _wire_next(self, got=None) -> None:
        """Loop head: take the next frame out of the FIFO, or wait for
        one (``got`` is the FIFO get that has just been fulfilled)."""
        if got is not None:
            frame = got._value
        else:
            frame = self._tx_fifo.try_get()
            if frame is None:
                self._tx_fifo.get().callbacks.append(self._wire_next)
                return
        link = self.link
        if link is None:
            raise ConfigurationError(f"{self.name} has no link")
        self._wire_frame = frame
        sim = self.sim
        if self.params.hw_checksum and not link.is_boundary:
            virt = self._virt
            if virt is not None and sim._now < virt.wire_ready:
                # The virtual wire is still draining a train: this frame
                # starts only once it frees, and its FIFO slot (popped
                # early here) stays occupied until then for fetch
                # backpressure.
                virt.free_at.append(virt.wire_ready)
                sim.sleep_until(virt.wire_ready).callbacks.append(
                    self._wire_fused)
                return
            self._wire_fused()
            return
        # Per-descriptor NIC processing is serial with the wire: this
        # is the ~0.9us that caps a saturated link at ~110 MB/s of user
        # payload (paper section 4.1).
        Timeout(sim, self.params.tx_proc).callbacks.append(
            self._wire_processed)

    def _wire_fused(self, _event=None) -> None:
        # Per-descriptor processing and serialization are two
        # back-to-back waits with nothing observable between them (the
        # line has no other requester), so fold them into one absolute
        # wakeup.  The additions mirror the two timeout schedules of the
        # unfused path.
        self._virt = None
        sim = self.sim
        start = sim._now + self.params.tx_proc
        self._wire_start = start
        done = start + self.link.serialization_time(self._wire_frame)
        sim.sleep_until(done).callbacks.append(self._wire_serialized)

    def _wire_serialized(self, _event) -> None:
        frame = self._wire_frame
        self.stats["tx_frames"] += 1
        self.stats["tx_bytes"] += frame.payload_bytes
        self.link.complete_tx(self.side, frame, started=self._wire_start)
        self._wire_next()

    def _wire_processed(self, _event) -> None:
        params = self.params
        if params.hw_checksum:
            self._wire_transmit()
            return
        # Software checksum: CPU time at interrupt priority
        # (Host.cpu_work, step by step).
        host = self.host
        duration = self._checksum_cost()
        if duration < 0:
            raise ConfigurationError(f"negative CPU work {duration}")
        host.stats["cpu_us"] += duration
        req = host.cpu.try_acquire(PRIO_IRQ)
        if req is None:
            host.cpu.request(PRIO_IRQ).callbacks.append(self._wire_checksum)
            return
        self._wire_checksum(req)

    def _checksum_cost(self) -> float:
        frame = self._wire_frame
        return self.params.sw_checksum_per_byte * (
            frame.payload_bytes + frame.header_bytes)

    def _wire_checksum(self, req) -> None:
        # The CPU grant rides the timeout's value to its release.
        Timeout(self.sim, self._checksum_cost(), req).callbacks.append(
            self._wire_checksummed)

    def _wire_checksummed(self, timeout) -> None:
        self.host.cpu.release(timeout._value)
        self._wire_transmit()

    def _wire_transmit(self) -> None:
        frame = self._wire_frame
        self.stats["tx_frames"] += 1
        self.stats["tx_bytes"] += frame.payload_bytes
        self.link.send(self.side, frame, self._wire_next)

    # -- receive ---------------------------------------------------------
    def frame_arrived(self, frame: Frame) -> None:
        """Called by the link when a frame lands on this port."""
        self._rx_arrivals.items.append(frame)
        self._rx_arrivals._dispatch()

    def post_rx_descriptors(self, count: int = 1) -> None:
        """Protocol driver returns ``count`` receive descriptors.

        A post that would overfill the ring raises and changes nothing.
        """
        free = self.rx_free + count
        if free > self.params.rx_ring:
            raise ConfigurationError(
                f"{self.name}: rx ring over-posted ({count} onto "
                f"{self.rx_free} free of {self.params.rx_ring})"
            )
        waiter = self._rx_waiter
        if waiter is not None and free:
            # The stalled rx stage takes one at once, with the URGENT
            # zero-delay grant of a store get.
            self._rx_waiter = None
            free -= 1
            waiter.succeed(priority=URGENT)
        self.rx_free = free

    # The rx stage: NIC processing, a descriptor, DMA, coalescing.
    def _rx_next(self, got=None) -> None:
        """Loop head: take the next arrived frame, or wait for one
        (``got`` is the arrivals get that has just been fulfilled)."""
        if got is not None:
            self._rx_frame = got._value
        else:
            self._rx_frame = self._rx_arrivals.try_get()
            if self._rx_frame is None:
                self._rx_arrivals.get().callbacks.append(self._rx_next)
                return
        Timeout(self.sim, self.params.rx_proc).callbacks.append(
            self._rx_processed)

    def _rx_processed(self, _event) -> None:
        hook = self.collective_hook
        if hook is not None and hook(self._rx_frame):
            # Collective frame handled by the NIC engine: it never
            # touches the host (no descriptor, DMA or interrupt).
            self.stats["nic_rx"] += 1
            self._rx_next()
            return
        if not self.rx_free:
            self.stats["rx_stalls"] += 1
            self._rx_waiter = Event(self.sim, f"{self.name}:rx-descriptor")
            self._rx_waiter.callbacks.append(self._rx_dma)
            return
        self.rx_free -= 1
        self._rx_dma()

    def _rx_dma(self, _event=None) -> None:
        self._rx_t0 = self.sim._now
        wire = self._rx_frame.wire_bytes(self.params.frame_overhead)
        self.host.dma_event(wire, self.pci_index).callbacks.append(
            self._rx_delivered)

    def _rx_delivered(self, _event) -> None:
        params = self.params
        sim = self.sim
        frame = self._rx_frame
        rec = sim.recorder
        if rec is not None:
            ctx = getattr(frame.payload, "trace", None)
            if ctx is not None:
                rec.span(ctx, _DMA, self.name,
                         f"n{self.host.node_id}", self._rx_t0, sim._now)
                # handle_frame turns this into the irq-wait span.
                frame.rx_ready = sim._now
        self.stats["rx_frames"] += 1
        self.stats["rx_bytes"] += frame.payload_bytes
        self._pending_frames.append(frame)
        if len(self._pending_frames) >= params.coalesce_frames:
            self._fire_irq()
        elif self._irq_timer_deadline is None:
            deadline = sim._now + params.coalesce_delay
            self._irq_timer_deadline = deadline
            self._irq_timer_cb = TrainCallback(
                sim, lambda: self._irq_timer_fired(deadline),
                delay=max(0.0, deadline - sim._now))
        self._rx_next()

    def _irq_timer_fired(self, deadline: float) -> None:
        if self._irq_timer_deadline == deadline:
            self._irq_timer_cb = None
            if self._pending_frames:
                self._fire_irq()

    def _fire_irq(self) -> None:
        if self._irq_timer_cb is not None:
            # Preempted by the frame-count threshold: the queued timer
            # callback will fire as a deadline-mismatch no-op, so the
            # train guard may ignore it.
            self._irq_timer_cb.guard_scope = HARMLESS
            self._irq_timer_cb = None
        self._irq_timer_deadline = None
        if not self._pending_frames:
            return
        frames, self._pending_frames = self._pending_frames, []
        self.stats["interrupts"] += 1
        if self._driver is None:
            raise ConfigurationError(
                f"{self.name}: frame received with no driver attached"
            )
        # Hand the batch to the host's shared interrupt dispatcher —
        # one CPU entry services pending frames from every port.
        self.host.irq.raise_irq([(self._driver, f) for f in frames],
                                source=self.name)

    def __repr__(self) -> str:  # pragma: no cover
        return f"GigEPort({self.name})"
