"""VIA wire packets.

Every Ethernet frame the M-VIA device sends carries one
:class:`ViaPacket` — the header the modified M-VIA prepends: source and
destination *node* (mesh rank, so the packet switch can route),
destination VI number, message sequencing and fragmentation fields, and
a checksum.  The Jlab modification made the Intel hardware checksum
each packet (section 4); software checksumming is modeled as a CPU cost
in the NIC when offload is disabled.
"""

from __future__ import annotations

import enum
import itertools
import struct
import zlib
from dataclasses import dataclass, field, replace
from typing import Any, Optional

_msg_ids = itertools.count()


class PacketKind(enum.Enum):
    """Wire packet types of the modified M-VIA."""

    DATA = "data"              # two-sided send fragment
    RMA_WRITE = "rma_write"    # remote DMA write fragment
    CONNECT = "connect"        # connection request
    ACCEPT = "accept"          # connection accept
    DISCONNECT = "disconnect"  # teardown
    REDUCE = "reduce"          # interrupt-level partial reduction (s7)
    CBCAST = "cbcast"          # interrupt-level result broadcast (s7)
    ACK = "ack"                # reliable-delivery cumulative ACK
    KEEPALIVE = "keepalive"    # failure-detector neighbor heartbeat
    DEADNOTICE = "deadnotice"  # failure-detector death gossip
    NIC_REDUCE = "nic_reduce"  # NIC-resident partial reduction
    NIC_CBCAST = "nic_cbcast"  # NIC-resident result/broadcast wave
    NIC_ACK = "nic_ack"        # NIC-resident go-back-N cumulative ACK


#: Header layout the checksum covers: kind code, eleven integer fields
#: (src_node .. remote_addr), notify, an immediate-present flag, then
#: immediate, seq and ack.
_HEADER = struct.Struct("<B11q??3q")
_KIND_CODE = {kind: code for code, kind in enumerate(PacketKind)}

#: Wire kinds owned by the NIC-resident collective engine
#: (:mod:`repro.hw.nic_collective`): the port-level hook consumes them
#: before the host rx path; a node without the engine rejects them.
NIC_COLLECTIVE_KINDS = (
    PacketKind.NIC_REDUCE, PacketKind.NIC_CBCAST, PacketKind.NIC_ACK,
)


@dataclass
class ViaPacket:
    """One frame's worth of VIA traffic.

    ``frag_index``/``num_frags`` implement fragmentation of descriptors
    larger than the per-frame payload; fragments of one message travel
    the same deterministic route, so reassembly may assume ordering
    (asserted by the kernel agent).
    """

    kind: PacketKind
    src_node: int
    dst_node: int
    dst_vi: int
    #: Sender's VI id (connection handshake and completion routing).
    src_vi: int = -1
    msg_id: int = 0
    frag_index: int = 0
    num_frags: int = 1
    payload_bytes: int = 0
    #: Byte offset of this fragment within the whole message.
    msg_offset: int = 0
    #: Total message length (so the receiver can check truncation
    #: before the last fragment arrives).
    msg_bytes: int = 0
    #: RMA destination address (RMA_WRITE only).
    remote_addr: int = 0
    #: Remote completion requested (RMA write with immediate).
    notify: bool = False
    immediate: Optional[int] = None
    #: Explicit source route: remaining egress ports, consumed one per
    #: hop by the kernel switch (the OPT scatter injects these; when
    #: None the switch falls back to Shortest-Direction-First).  Being
    #: hop-mutable, the route is excluded from the end-to-end checksum.
    route: Optional[tuple] = None
    #: Reliable-delivery sequence number of this frame on its VI
    #: channel (-1 = unsequenced, the unreliable/legacy wire format).
    seq: int = -1
    #: Piggybacked cumulative ACK: highest in-order sequence number the
    #: sender of *this* packet has received on the destination VI's
    #: channel (-1 = no ACK information).
    ack: int = -1
    payload: Any = field(default=None, repr=False)
    checksum: Optional[int] = None
    #: Flight-recorder trace id of the message this fragment belongs
    #: to (observability only; not a wire header field, so it is
    #: excluded from the checksum and never affects simulation state).
    trace: Any = field(default=None, repr=False, compare=False)

    @classmethod
    def next_msg_id(cls) -> int:
        """Process-global fallback allocator (hand-built packets only).

        Real senders draw from ``ViaDevice.next_msg_id`` — per-device
        streams are what lets a checkpoint replay reproduce the exact
        ids of the original run (see ``docs/CHECKPOINT.md``).
        """
        return next(_msg_ids)

    def compute_checksum(self) -> int:
        """Header checksum over the routing-relevant fields.

        Payloads are Python objects, not bytes, so the checksum covers
        the header exactly — which is what protects against the
        misrouting/corruption bugs checksums caught in the real system.
        """
        immediate = self.immediate
        header = _HEADER.pack(
            _KIND_CODE[self.kind], self.src_node, self.dst_node,
            self.dst_vi, self.src_vi, self.msg_id, self.frag_index,
            self.num_frags, self.payload_bytes, self.msg_offset,
            self.msg_bytes, self.remote_addr, self.notify,
            immediate is not None,
            0 if immediate is None else immediate, self.seq, self.ack,
        )
        return zlib.crc32(header)

    def clone(self) -> "ViaPacket":
        """Fresh shallow copy for (re)transmission.

        The kernel switch consumes ``route`` hop by hop on the wire
        copy, so the reliable sender keeps a pristine template and
        transmits a clone per attempt.
        """
        return replace(self)

    def seal(self) -> "ViaPacket":
        """Stamp the checksum (sender side)."""
        self.checksum = self.compute_checksum()
        return self

    def verify(self) -> bool:
        """Receiver-side checksum verification."""
        return self.checksum == self.compute_checksum()
