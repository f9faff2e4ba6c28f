"""Full-duplex point-to-point GigE link model.

A :class:`Link` joins two NIC ports with independent directional
channels.  Transmitting a frame holds the direction's line for the
serialization time of the full wire footprint (payload + protocol
header + Ethernet overhead), then delivers the frame to the remote
port after the propagation delay.  Because each direction is a
dedicated resource, full-duplex traffic never self-interferes — which
is exactly the property that makes the mesh's aggregated-bandwidth
numbers possible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.hw.faults import CORRUPT, DROP, FaultInjector
from repro.sim import Resource, Simulator
from repro.sim.events import Callback
from repro.obs.recorder import DROP as _DROP, \
    WIRE_HOP as _WIRE_HOP

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.nic import GigEPort

_frame_ids = itertools.count()


@dataclass
class Frame:
    """One Ethernet frame's worth of protocol traffic.

    ``payload`` is an arbitrary protocol object (a VIA packet, a TCP
    segment); the byte counts drive the timing model.

    Attributes
    ----------
    payload_bytes:
        User-data bytes carried in this frame.
    header_bytes:
        Protocol header bytes inside the Ethernet payload (VIA or
        TCP/IP headers), excluded from user-payload accounting but
        serialized on the wire.
    payload:
        The protocol object.
    kind:
        Debug label ("via", "tcp", "ack", ...).
    """

    payload_bytes: int
    header_bytes: int
    payload: Any = None
    kind: str = "data"
    #: Invoked by the NIC once the frame has been DMA'd out of host
    #: memory (VIA send-completion semantics: buffer reusable).
    on_fetched: Optional[Callable[[], None]] = None
    #: Set by fault injection: the frame was damaged on the wire.
    corrupted: bool = False
    frame_id: int = field(default_factory=_frame_ids.__next__)

    def wire_bytes(self, frame_overhead: int, min_frame: int = 64) -> int:
        """Total serialized bytes including Ethernet framing."""
        body = self.payload_bytes + self.header_bytes
        # Ethernet pads short frames to the 64-byte minimum
        # (header 14 + body + FCS 4 >= 64).
        padded = max(body, min_frame - 18)
        return padded + frame_overhead


class Link:
    """A cable between two ports.

    Ports attach with :meth:`attach`; side 0 and side 1 are symmetric.
    """

    #: Whether this is a PDES shard-boundary proxy (see
    #: :class:`BoundaryLink`).  The NIC wire stage and the frame-train
    #: fast path key off this: both shortcut serialization through
    #: :meth:`complete_tx`, which boundary links cannot honor (their
    #: egress must be committed at serialization *start* to respect the
    #: synchronization lookahead).
    is_boundary = False

    def __init__(self, sim: Simulator, wire_rate: float,
                 frame_overhead: int, propagation: float,
                 name: str = "link",
                 corrupt_every: Optional[int] = None,
                 faults: Optional[FaultInjector] = None) -> None:
        if wire_rate <= 0:
            raise ConfigurationError(f"wire rate must be > 0, got {wire_rate}")
        if corrupt_every is not None and corrupt_every < 1:
            raise ConfigurationError(
                f"corrupt_every must be >= 1, got {corrupt_every}"
            )
        self.sim = sim
        self.wire_rate = wire_rate
        self.frame_overhead = frame_overhead
        self.propagation = propagation
        self.name = name
        #: Fault injection: damage every Nth frame per direction
        #: (deterministic, so tests and reruns reproduce exactly).
        self.corrupt_every = corrupt_every
        #: Generalized fault engine (loss/flap/death; see hw.faults).
        self.faults = faults
        self._lines = (
            Resource(sim, 1, name=f"{name}:0->1"),
            Resource(sim, 1, name=f"{name}:1->0"),
        )
        self._ports: list = [None, None]
        self.stats = {"frames": [0, 0], "bytes": [0, 0],
                      "corrupted": [0, 0], "dropped": [0, 0]}

    def attach(self, side: int, port: "GigEPort") -> None:
        """Connect ``port`` at ``side`` (0 or 1)."""
        if side not in (0, 1):
            raise ConfigurationError(f"link side must be 0 or 1, got {side}")
        if self._ports[side] is not None:
            raise ConfigurationError(f"{self.name} side {side} already attached")
        self._ports[side] = port

    def peer(self, side: int) -> "GigEPort":
        port = self._ports[1 - side]
        if port is None:
            raise ConfigurationError(f"{self.name} side {1 - side} unattached")
        return port

    def serialization_time(self, frame: Frame) -> float:
        return frame.wire_bytes(self.frame_overhead) / self.wire_rate

    @property
    def fault_capable(self) -> bool:
        """Any fault knob present (legacy or generalized)?  The
        frame-train fast path refuses to engage on such links."""
        return self.corrupt_every is not None or self.faults is not None

    @property
    def lossy(self) -> bool:
        """Frames can be lost end-to-end (drives auto-reliability)."""
        return self.faults is not None and self.faults.params.lossy()

    def is_dead(self, now: float) -> bool:
        """Permanently dead at ``now`` (the packet switch reroutes)."""
        return self.faults is not None and self.faults.dead(now)

    def _judge(self, side: int, frame: Frame) -> bool:
        """Post-serialization fault verdict; returns whether to
        deliver.  Shared between :meth:`send` and
        :meth:`complete_tx` so both wire paths apply the identical
        fault schedule at the identical instants."""
        if (self.corrupt_every is not None
                and self.stats["frames"][side]
                % self.corrupt_every == 0):
            frame.corrupted = True
            self.stats["corrupted"][side] += 1
        if self.faults is not None:
            verdict = self.faults.judge(
                side, self.stats["frames"][side], self.sim._now
            )
            if verdict is DROP:
                self.stats["dropped"][side] += 1
                return False
            if verdict is CORRUPT:
                if not frame.corrupted:
                    frame.corrupted = True
                    self.stats["corrupted"][side] += 1
        return True

    def send(self, side: int, frame: Frame,
             then: Callable[[], None]) -> None:
        """Serialize ``frame`` out of ``side`` and deliver it to the peer.

        Two waits — the line grant, then the serialization time — run
        as callbacks; ``then()`` is called once serialization completes.
        The delivery itself happens ``propagation`` later without
        blocking the caller (the line is free for the next frame
        immediately).
        """
        peer = self.peer(side)
        sim = self.sim
        line = self._lines[side]
        duration = self.serialization_time(frame)
        req = line.request()

        def granted(_event) -> None:
            rec = sim.recorder
            started = sim._now

            def serialized(_event) -> None:
                try:
                    self.stats["frames"][side] += 1
                    self.stats["bytes"][side] += frame.payload_bytes
                    deliver = self._judge(side, frame)
                finally:
                    line.release(req)
                if rec is not None:
                    ctx = getattr(frame.payload, "trace", None)
                    if ctx is not None:
                        if deliver:
                            rec.span(ctx, _WIRE_HOP, self.name, self.name,
                                     started, sim._now + self.propagation)
                        else:
                            rec.event(ctx, _DROP, self.name, self.name,
                                      sim._now)
                if deliver:
                    Callback(sim, lambda: peer.frame_arrived(frame),
                             delay=self.propagation)
                then()

            sim.timeout(duration).callbacks.append(serialized)

        req.callbacks.append(granted)

    def transmit(self, side: int, frame: Frame):
        """Process form of :meth:`send`: returns once serialization
        completes (one zero-delay wakeup after it)."""
        done = self.sim.event()
        self.send(side, frame, done.succeed)
        yield done

    def complete_tx(self, side: int, frame: Frame,
                    started: float = None) -> None:
        """Epilogue of :meth:`send` for the NIC's fused wire wait.

        The caller has already waited out the serialization time; this
        applies the same stats, fault injection, and delivery schedule
        as :meth:`send` at the identical instant.  The line
        resource is not cycled — the wire stage is its only requester,
        so the grant is unconditional; the grant counter is kept in
        sync for stats parity.
        """
        peer = self.peer(side)
        self._lines[side].stats["grants"] += 1
        self.stats["frames"][side] += 1
        self.stats["bytes"][side] += frame.payload_bytes
        deliver = self._judge(side, frame)
        rec = self.sim.recorder
        if rec is not None:
            ctx = getattr(frame.payload, "trace", None)
            if ctx is not None:
                if deliver and started is not None:
                    rec.span(ctx, _WIRE_HOP, self.name, self.name,
                             started, self.sim._now + self.propagation)
                elif not deliver:
                    rec.event(ctx, _DROP, self.name, self.name,
                              self.sim._now)
        if not deliver:
            return
        Callback(self.sim, lambda: peer.frame_arrived(frame),
                 delay=self.propagation)


class BoundaryLink(Link):
    """Local half of a cut link in a sharded (PDES) simulation.

    Exactly one side is attached — the port that lives in this shard.
    Transmits replay :meth:`Link.send`'s float arithmetic op for
    op (line grant, ``fl(now + duration)`` serialization end,
    ``fl(end + propagation)`` arrival), but instead of delivering to an
    attached peer the frame is *committed* to the shard's egress outbox
    at serialization **start**.  Committing at start is what makes the
    conservative window sound: the frame's arrival is then at least one
    full lookahead (min-frame serialization + propagation) after the
    commit event, so a frame committed inside window ``(B_prev, B]``
    always arrives at or after the next barrier and can be exchanged at
    barrier ``B`` without ever landing in the receiving shard's past.

    Ingress (frames committed by the remote half) is injected by the
    shard runtime straight into the attached port's ``frame_arrived``
    at the precomputed arrival instant — the same callback the
    reference path schedules, at the bit-identical time.

    Fault injection is refused: the PDES engine is fault-free in v1
    (loss/death verdicts depend on cross-shard state the conservative
    exchange does not carry).
    """

    is_boundary = True

    def __init__(self, sim: Simulator, wire_rate: float,
                 frame_overhead: int, propagation: float,
                 name: str, outbox: list,
                 remote_rank: int, remote_port: int) -> None:
        super().__init__(sim, wire_rate, frame_overhead, propagation,
                         name=name)
        #: Shard-wide egress buffer, drained at window barriers.
        self.outbox = outbox
        #: Destination of frames sent from the locally attached side.
        self.remote_rank = remote_rank
        self.remote_port = remote_port
        #: Per-link egress sequence, part of the canonical merge key.
        self._egress_seq = 0

    def peer(self, side: int) -> "GigEPort":
        raise ConfigurationError(
            f"{self.name} is a shard boundary; the remote port lives in "
            f"another process"
        )

    def send(self, side: int, frame: Frame,
             then: Callable[[], None]) -> None:
        """Serialize out of the shard; commit to the outbox.

        Mirrors :meth:`Link.send`'s timing exactly: the line is held
        for the serialization time and stats/recorder effects land at
        serialization end, so a sharded run and the sequential
        reference process the identical event schedule on the sending
        side.  Only the delivery differs — an outbox record instead of
        a :class:`~repro.sim.events.Callback`, carrying the arrival
        instant the reference path would have used.
        """
        if self.corrupt_every is not None or self.faults is not None:
            raise ConfigurationError(
                f"{self.name}: fault injection unsupported on shard "
                f"boundaries"
            )
        sim = self.sim
        line = self._lines[side]
        duration = self.serialization_time(frame)
        req = line.request()

        def granted(_event) -> None:
            started = sim._now
            # The reference path schedules delivery at serialization end
            # (= fl(started + duration), the timeout's landing instant)
            # plus propagation; precompute the identical chained
            # roundings.
            arrival = (started + duration) + self.propagation
            self._commit(side, frame, arrival)

            def serialized(_event) -> None:
                try:
                    self.stats["frames"][side] += 1
                    self.stats["bytes"][side] += frame.payload_bytes
                    self._judge(side, frame)
                finally:
                    line.release(req)
                rec = sim.recorder
                if rec is not None:
                    ctx = getattr(frame.payload, "trace", None)
                    if ctx is not None:
                        rec.span(ctx, _WIRE_HOP, self.name, self.name,
                                 started, arrival)
                then()

            sim.timeout(duration).callbacks.append(serialized)

        req.callbacks.append(granted)

    def _commit(self, side: int, frame: Frame, arrival: float) -> None:
        """Egress record: ships to the coordinator at the next barrier."""
        self._egress_seq += 1
        # The send-completion hook has already run (the NIC fetch stage
        # invokes it before the frame reaches the wire); drop it so the
        # frame pickles cleanly across the process boundary.
        frame.on_fetched = None
        self.outbox.append(
            (arrival, self.name, self._egress_seq,
             self.remote_rank, self.remote_port, frame)
        )

    def complete_tx(self, side: int, frame: Frame,
                    started: float = None) -> None:
        raise ConfigurationError(
            f"{self.name}: the fast wire path must not engage on a "
            f"shard boundary"
        )
