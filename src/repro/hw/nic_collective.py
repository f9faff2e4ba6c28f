"""NIC-resident collective protocols (barrier / broadcast / combine).

Yu, Buntinas, Graham & Panda (cs/0402027) move collective forwarding
into the NIC: intermediate hops of a tree-based collective then pay
*no* host cost — no per-hop descriptor post, no syscall, no interrupt
— only NIC firmware time.  On the paper's GigE mesh that eliminates
the ~6 us host API/IRQ term *per tree hop*, which is exactly the term
the breakdown table (PR 5) reproduces.

This module is that firmware, modeled as a small state machine bound
to one node's :class:`~repro.via.device.ViaDevice`:

* **rx** — every :class:`~repro.hw.nic.GigEPort` checks an installed
  ``collective_hook`` right after per-frame rx processing, *before*
  consuming a receive descriptor.  A collective frame is consumed
  entirely inside the NIC: no rx credit, no DMA to host memory, no
  coalescing, no interrupt.
* **combine/forward** — partial values fold in the NIC
  (:data:`NIC_COMBINE_COST`) in the same canonical order as the host
  tree (local contribution first, then children in tree order) and one
  ``NIC_REDUCE`` frame per subtree climbs toward the root; the result
  waves back down as ``NIC_CBCAST`` frames injected straight into the
  transmit FIFO (:meth:`~repro.hw.nic.GigEPort.nic_inject_tx`) —
  the host descriptor ring is never touched.
* **completion** — each participating host gets exactly *one*
  interrupt, when its own result is ready (none at all for a
  broadcast root or a non-root reduce contributor).

Reliability: when the device's go-back-N layer is engaged
(``device.reliable``, i.e. some link can lose frames) the engine runs
its own NIC-level ARQ — per-peer sequence numbers on collective
frames, cumulative ``NIC_ACK``s, RTO retransmission with the same
``rel_rto``/backoff/budget knobs as the kernel layer.  On a lossless
fabric frames stay unsequenced and no ACK traffic exists, so default
runs are bit-identical to pre-ARQ behavior.

Fault interop: the kernel agent forwards ``on_peer_dead`` /
``on_local_crash`` here exactly as it does to the kernel-collective
engine, so a mid-collective death fails every waiter with
:class:`~repro.errors.ViaError` (surfacing as ``MpiProcFailed``
through the communicator) instead of wedging the NIC state machine.

Costs are module constants (not :class:`~repro.hw.params.GigEParams`
fields — the canonical config digest is pinned), calibrated well below
the kernel tier's per-hop interrupt + coalescing cost so the crossover
study shows the offload win at every mesh size.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple, TYPE_CHECKING

from repro.collectives.tree import (
    dimension_order_children,
    dimension_order_parent,
)
from repro.errors import ViaError
from repro.hw.link import Frame
from repro.hw.node import PRIO_USER
from repro.obs.recorder import (
    API_CALL as _API_CALL,
    COMPLETION as _COMPLETION,
    NIC_COMBINE as _NIC_COMBINE,
    NIC_FORWARD as _NIC_FORWARD,
)
from repro.via.packet import NIC_COLLECTIVE_KINDS, PacketKind, ViaPacket

if TYPE_CHECKING:  # pragma: no cover
    from repro.via.device import ViaDevice

#: NIC firmware cost to accept one collective frame off the wire (us).
NIC_RX_COST = 0.35
#: NIC firmware cost of one combine (fold) step on a partial value.
NIC_COMBINE_COST = 0.25
#: NIC firmware cost to build and inject one outgoing frame.
NIC_TX_COST = 0.2
#: Host cost of the single user-space doorbell that deposits the local
#: contribution into NIC memory (no syscall: a mapped register write).
DOORBELL_COST = 0.3
#: Host IRQ-handler cost of delivering the final result (paid once per
#: collective, not per hop).
NIC_COMPLETE_COST = 0.4


class _OpState:
    """Per-collective in-flight state on one node's NIC."""

    __slots__ = ("mode", "root", "parent", "children", "child_values",
                 "value_local", "have_local", "op", "nbytes", "waiter",
                 "trace", "result", "done")

    def __init__(self, mode: str, root: int, parent: Optional[int],
                 children: Tuple[int, ...]) -> None:
        self.mode = mode
        self.root = root
        self.parent = parent
        self.children = children
        #: Child subtree values keyed by child rank (fold is deferred
        #: to subtree completion so the order is canonical, not
        #: arrival order — bit-identical to the host tree).
        self.child_values: Dict[int, Any] = {}
        self.value_local: Any = None
        self.have_local = False
        self.op: Optional[Callable] = None
        self.nbytes = 0
        self.waiter = None
        self.trace = None
        self.result: Any = None
        self.done = False


class NicCollective:
    """NIC-firmware collective engine bound to one node's device."""

    def __init__(self, device: "ViaDevice") -> None:
        self.device = device
        self.sim = device.sim
        self.rank = device.rank
        self.torus = device.torus
        self._sequence = 0
        self._ops: Dict[int, _OpState] = {}
        #: (parent, children) per root, cached (arbitrary-root bcast).
        self._trees: Dict[int, Tuple[Optional[int], Tuple[int, ...]]] = {}
        # NIC-level go-back-N state (engaged iff device.reliable).
        self._tx_next: Dict[int, int] = {}
        self._unacked: Dict[int, Dict[int, ViaPacket]] = {}
        self._rx_next: Dict[int, int] = {}
        self._retries: Dict[int, int] = {}
        self._rto_armed: set = set()
        self.stats = {
            "collectives": 0, "frames": 0, "combines": 0,
            "forwards": 0, "completions": 0, "aborted": 0,
            "acks_sent": 0, "acks_received": 0, "retransmits": 0,
            "dup_frames": 0, "ooo_dropped": 0,
            "dropped_bad_checksum": 0, "dropped_dead": 0,
        }

    # -- tree geometry ------------------------------------------------

    def _tree(self, root: int) -> Tuple[Optional[int], Tuple[int, ...]]:
        tree = self._trees.get(root)
        if tree is None:
            tree = (
                dimension_order_parent(self.torus, root, self.rank),
                tuple(dimension_order_children(self.torus, root,
                                               self.rank)),
            )
            self._trees[root] = tree
        return tree

    def _state(self, sequence: int, mode: str, root: int) -> _OpState:
        state = self._ops.get(sequence)
        if state is None:
            parent, children = self._tree(root)
            state = _OpState(mode, root, parent, children)
            self._ops[sequence] = state
        return state

    # -- fault interop -------------------------------------------------

    def _check_alive(self) -> None:
        """Refuse to start a collective with a *known*-dead participant.

        Deliberately detection-based (the agent's ``_known_dead``, fed
        by the failure detector), not the fault oracle: a collective
        started inside the crash-to-detection window proceeds, stalls
        on the missing contribution, and is aborted by the
        ``on_peer_dead`` notice — the same ULFM path host-tier
        collectives ride, so the communicator translates it to
        ``MpiProcFailed`` uniformly.
        """
        dead = sorted(getattr(self.device.agent, "_known_dead", ()))
        if dead:
            raise ViaError(
                f"node {self.rank}: NIC collective with dead "
                f"participant(s) {dead}"
            )

    def _local_dead(self) -> bool:
        health = self.device._fabric_health
        return (health is not None
                and getattr(health, "has_node_faults", False)
                and not health.node_alive(self.rank))

    def _fail_pending(self, error: ViaError) -> None:
        for sequence, state in list(self._ops.items()):
            waiter = state.waiter
            if waiter is not None and not waiter.triggered:
                self.stats["aborted"] += 1
                del self._ops[sequence]
                waiter.fail(error)
            elif waiter is None:
                # Pure NIC-side relay state: nobody to wake, just drop.
                del self._ops[sequence]

    def on_peer_dead(self, dead_rank: int, reason: str = "") -> None:
        """Abort in-flight collectives: a participant died mid-wave."""
        self._unacked.pop(dead_rank, None)
        self._fail_pending(ViaError(
            f"node {self.rank}: NIC collective aborted, node "
            f"{dead_rank} {reason or 'declared dead'}"
        ))

    def on_local_crash(self, reason: str = "node crashed") -> None:
        self._unacked.clear()
        self._fail_pending(ViaError(
            f"node {self.rank}: NIC collective aborted, local {reason}"
        ))

    # -- user API ------------------------------------------------------

    def collective(self, mode: str, root: int, value: Any,
                   op: Optional[Callable], nbytes: int):
        """Process: run one NIC-resident collective; returns the result.

        ``mode`` is ``"combine"`` (allreduce / barrier with the NULL
        op), ``"reduce"`` (root-only result) or ``"bcast"``.  The usual
        MPI collective-call discipline applies: every rank calls in the
        same order with the same mode/root/op, which is what keeps the
        per-node sequence counters aligned without negotiation.
        """
        if mode not in ("combine", "reduce", "bcast"):
            raise ViaError(f"node {self.rank}: unknown NIC collective "
                           f"mode {mode!r}")
        self._check_alive()
        self._sequence += 1
        sequence = self._sequence
        state = self._state(sequence, mode, root)
        state.op = op
        state.nbytes = nbytes
        self.stats["collectives"] += 1
        sim = self.sim
        rec = sim.recorder
        if rec is not None:
            state.trace = rec.start_trace(
                f"nicoll-{mode}-{sequence}", f"n{self.rank}", sim.now)
            t0 = sim.now
        # The deposit: one user-space doorbell write, no kernel entry.
        yield from self.device.host.cpu_work(DOORBELL_COST, PRIO_USER)
        if rec is not None:
            rec.span(state.trace, _API_CALL, "nic-doorbell",
                     f"n{self.rank}", t0, sim.now)
        if mode == "bcast" and self.rank == root:
            # Root broadcast: the value is already host-visible; wave
            # it down and return without waiting (no IRQ needed).
            self._wave_down(sequence, state, value)
            del self._ops[sequence]
            return value
        if mode == "bcast" and state.done:
            # The wave beat our deposit; the result already sits in
            # mapped NIC memory, so the doorbell read returns it.
            result = state.result
            del self._ops[sequence]
            return result
        needs_wait = not (mode == "reduce" and state.parent is not None)
        if needs_wait:
            state.waiter = sim.event(name=f"nicoll[{self.rank}]")
        if mode != "bcast":
            self._deposit_local(sequence, state, value)
        if not needs_wait:
            # Non-root reduce: the NIC finishes the relay on its own.
            return None
        result = yield state.waiter
        self._ops.pop(sequence, None)
        return result

    # -- NIC state machine ---------------------------------------------

    def _deposit_local(self, sequence: int, state: _OpState,
                       value: Any) -> None:
        state.value_local = value
        state.have_local = True
        self._advance(sequence, state)

    def _advance(self, sequence: int, state: _OpState) -> None:
        """Subtree-completion check for the reduce-up direction."""
        if not state.have_local:
            return
        if len(state.child_values) < len(state.children):
            return
        # Canonical fold: local contribution, then children in tree
        # order — the same order the host-tier tree folds in.
        value = state.value_local
        op = state.op
        for child in state.children:
            value = op(value, state.child_values[child])
        if state.parent is None:
            if state.mode == "reduce":
                self._complete_local(sequence, state, value)
            else:
                self._wave_down(sequence, state, value)
        else:
            self._send(PacketKind.NIC_REDUCE, state.parent, sequence,
                       state, value)
            if state.mode == "reduce":
                # Relay done; nothing further reaches this node.
                self._ops.pop(sequence, None)

    def _wave_down(self, sequence: int, state: _OpState,
                   value: Any) -> None:
        for child in state.children:
            self._send(PacketKind.NIC_CBCAST, child, sequence, state,
                       value)
        self._complete_local(sequence, state, value)

    def _complete_local(self, sequence: int, state: _OpState,
                        value: Any) -> None:
        state.result = value
        state.done = True
        if state.waiter is None:
            # bcast wave arrived before the local call deposited: stash
            # the result; the doorbell will pick it up with no IRQ.
            return
        self.stats["completions"] += 1
        self.device.host.irq.raise_irq(
            [(self._complete_handler, (sequence, value, state.trace))],
            source=f"nicoll{self.rank}",
        )

    def _complete_handler(self, item):
        """IRQ handler: the one host interrupt of a NIC collective."""
        sequence, value, trace = item
        sim = self.sim
        yield sim.timeout(NIC_COMPLETE_COST)
        rec = sim.recorder
        if rec is not None and trace is not None:
            rec.event(trace, _COMPLETION, "nic-collective",
                      f"n{self.rank}", sim.now)
        state = self._ops.get(sequence)
        if state is None:
            return
        waiter = state.waiter
        if waiter is not None and not waiter.triggered:
            sim.progress += 1
            waiter.succeed(value)

    # -- rx path (port hook, called from the GigEPort rx stage) --------

    def handle_rx(self, frame: Frame) -> bool:
        """Synchronous port hook; True = frame consumed by the NIC."""
        packet = frame.payload
        if not isinstance(packet, ViaPacket):
            return False
        if packet.kind not in NIC_COLLECTIVE_KINDS:
            return False
        if packet.dst_node != self.rank:
            # Multi-hop detour (degraded routing): let the host switch
            # forward it like any transit frame.
            return False
        self.stats["frames"] += 1
        if self._local_dead():
            # A crashed node's NIC is silent.
            self.stats["dropped_dead"] += 1
            return True
        if frame.corrupted or not packet.verify():
            self.stats["dropped_bad_checksum"] += 1
            return True
        health = self.device._fabric_health
        if (health is not None
                and getattr(health, "has_node_faults", False)
                and not health.node_alive(packet.src_node)):
            # Late frame from a declared-dead peer: ghost traffic.
            self.stats["dropped_dead"] += 1
            return True
        if packet.kind is PacketKind.NIC_ACK:
            self.stats["acks_received"] += 1
            self._apply_ack(packet.src_node, packet.ack)
            return True
        if packet.seq >= 0:
            expected = self._rx_next.get(packet.src_node, 0)
            if packet.seq != expected:
                if packet.seq < expected:
                    self.stats["dup_frames"] += 1
                else:
                    self.stats["ooo_dropped"] += 1
                self._send_ack(packet.src_node)
                return True
            self._rx_next[packet.src_node] = expected + 1
            self._send_ack(packet.src_node)
        self.sim.spawn(self._rx(packet),
                       name=f"nicoll-rx[{self.rank}]")
        return True

    def _rx(self, packet: ViaPacket):
        """Process: NIC firmware handling of one accepted frame."""
        sim = self.sim
        sequence, mode, root, value = packet.payload
        t0 = sim.now
        rec = sim.recorder
        if packet.kind is PacketKind.NIC_REDUCE:
            yield sim.timeout(NIC_RX_COST + NIC_COMBINE_COST)
            if rec is not None and packet.trace is not None:
                rec.span(packet.trace, _NIC_COMBINE, f"n{self.rank}",
                         f"n{self.rank}", t0, sim.now)
            self.stats["combines"] += 1
            state = self._state(sequence, mode, root)
            state.nbytes = max(state.nbytes, packet.payload_bytes)
            state.child_values[packet.src_node] = value
            self._advance(sequence, state)
        else:  # NIC_CBCAST
            yield sim.timeout(NIC_RX_COST)
            state = self._state(sequence, mode, root)
            state.nbytes = max(state.nbytes, packet.payload_bytes)
            if state.trace is None:
                # Pure wave relay (bcast before the local call): carry
                # the incoming trace so forward spans stay attributed.
                state.trace = packet.trace
            self._wave_down(sequence, state, value)

    # -- tx path -------------------------------------------------------

    def _send(self, kind: PacketKind, dst: int, sequence: int,
              state: _OpState, value: Any) -> None:
        nbytes = state.nbytes
        packet = ViaPacket(
            kind=kind,
            src_node=self.rank,
            dst_node=dst,
            dst_vi=0,
            msg_id=self.device.next_msg_id(),
            payload_bytes=nbytes,
            payload=(sequence, state.mode, state.root, value),
        )
        if self.device.reliable:
            seq = self._tx_next.get(dst, 0)
            self._tx_next[dst] = seq + 1
            packet.seq = seq
            packet.seal()
            self._unacked.setdefault(dst, {})[seq] = packet
            self._arm_rto(dst)
        else:
            packet.seal()
        if self.sim.recorder is not None:
            packet.trace = state.trace
        self.stats["forwards"] += 1
        self.sim.spawn(self._transmit(dst, packet.clone(), state.trace),
                       name=f"nicoll-tx[{self.rank}]")

    def _transmit(self, dst: int, packet: ViaPacket, trace):
        """Process: firmware tx step + FIFO injection of one frame."""
        sim = self.sim
        t0 = sim.now
        yield sim.timeout(NIC_TX_COST)
        try:
            port = self.device.egress_port(dst, packet=packet)
        except ViaError:
            # Destination unreachable (death partitioned it off): drop;
            # the failure notice aborts the op at every waiter.
            return
        rec = sim.recorder
        if rec is not None and trace is not None:
            rec.span(trace, _NIC_FORWARD, f"n{self.rank}->n{dst}",
                     f"n{self.rank}", t0, sim.now)
        frame = Frame(packet.payload_bytes,
                      self.device.params.header_bytes,
                      payload=packet, kind=f"via-{packet.kind.value}")
        yield from port.nic_inject_tx(frame)

    # -- NIC-level go-back-N -------------------------------------------

    def _send_ack(self, dst: int) -> None:
        packet = ViaPacket(
            kind=PacketKind.NIC_ACK,
            src_node=self.rank,
            dst_node=dst,
            dst_vi=0,
            msg_id=self.device.next_msg_id(),
            payload_bytes=0,
            ack=self._rx_next.get(dst, 0) - 1,
            payload=(0, "ack", 0, None),
        ).seal()
        self.stats["acks_sent"] += 1
        self.sim.spawn(self._transmit(dst, packet, None),
                       name=f"nicoll-ack[{self.rank}]")

    def _apply_ack(self, peer: int, ack: int) -> None:
        unacked = self._unacked.get(peer)
        if not unacked:
            return
        progressed = False
        for seq in [s for s in unacked if s <= ack]:
            del unacked[seq]
            progressed = True
        if progressed:
            self._retries[peer] = 0

    def _arm_rto(self, dst: int) -> None:
        if dst in self._rto_armed:
            return
        self._rto_armed.add(dst)
        self.sim.spawn(self._rto_loop(dst),
                       name=f"nicoll-rto[{self.rank}->{dst}]")

    def _rto_loop(self, dst: int):
        """Process: per-peer retransmission timer (go-back-N)."""
        params = self.device.params
        sim = self.sim
        try:
            while True:
                unacked = self._unacked.get(dst)
                if not unacked:
                    return
                retries = self._retries.get(dst, 0)
                rto = min(
                    params.rel_rto * (params.rel_rto_backoff ** retries),
                    params.rel_rto_max,
                )
                before = min(self._unacked.get(dst) or [0], default=0)
                yield sim.timeout(rto)
                unacked = self._unacked.get(dst)
                if not unacked:
                    return
                if min(unacked) > before:
                    continue  # progress while we slept; fresh timer
                retries = self._retries.get(dst, 0) + 1
                self._retries[dst] = retries
                if retries > params.rel_max_retries:
                    self._peer_unresponsive(dst)
                    return
                for seq in sorted(unacked):
                    self.stats["retransmits"] += 1
                    sim.spawn(
                        self._transmit(dst, unacked[seq].clone(),
                                       unacked[seq].trace),
                        name=f"nicoll-rtx[{self.rank}->{dst}]",
                    )
        finally:
            self._rto_armed.discard(dst)

    def _peer_unresponsive(self, dst: int) -> None:
        """Retry budget exhausted: out-of-band death evidence."""
        self._unacked.pop(dst, None)
        fd = getattr(self.device.agent, "_fd", None)
        if fd is not None:
            # The failure detector declares the death; its notice comes
            # back through on_peer_dead and aborts every waiter.
            fd.suspect(dst, "NIC collective retry budget exhausted")
        else:
            self._fail_pending(ViaError(
                f"node {self.rank}: NIC collective peer {dst} "
                f"unresponsive (retry budget exhausted)"
            ))
