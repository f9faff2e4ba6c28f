"""VIP-style descriptors.

A descriptor describes one data-transfer request: control fields
(status, completion hook) plus a data segment (registered buffer,
length).  Send descriptors may carry 32-bit immediate data — the
MPI/QMP layer piggybacks flow-control tokens there, exactly as the
paper describes ("piggybacked application message").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import ViaDescriptorError
from repro.via.memory import MemoryRegion


class DescriptorStatus(enum.Enum):
    """Completion status of a descriptor."""

    PENDING = "pending"
    DONE = "done"
    ERROR = "error"


@dataclass(slots=True, eq=False)
class Descriptor:
    """Common descriptor fields.

    Descriptors compare by identity (``eq=False``): two posted buffers
    with equal fields are still two requests.
    """

    region: MemoryRegion
    offset: int
    nbytes: int
    status: DescriptorStatus = field(default=DescriptorStatus.PENDING)
    #: Simulated completion timestamp (us), set by the device.
    completed_at: Optional[float] = None
    #: Arbitrary payload object riding with the bytes.
    payload: Any = None
    #: 32-bit immediate data (piggybacked tokens etc.).
    immediate: Optional[int] = None
    #: Optional completion hook: when set, invoked with the descriptor
    #: *instead of* queueing the completion (callback-driven consumers
    #: like the messaging core use this to avoid drain loops).
    on_complete: Optional[object] = None
    #: Explicit source route (egress port per hop, first hop included);
    #: None routes Shortest-Direction-First.
    route: Optional[tuple] = None
    #: Transport error that failed this descriptor (status ERROR).
    error: Optional[Exception] = None
    #: Flight-recorder trace id (observability only).
    trace: Any = None

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ViaDescriptorError(f"negative length {self.nbytes}")
        if self.offset < 0 or self.offset + self.nbytes > self.region.nbytes:
            raise ViaDescriptorError(
                f"segment [{self.offset}, +{self.nbytes}) outside region "
                f"of {self.region.nbytes} bytes"
            )
        if self.immediate is not None and not (
                0 <= self.immediate < 1 << 32):
            raise ViaDescriptorError(
                f"immediate data {self.immediate!r} is not a 32-bit value"
            )

    @property
    def addr(self) -> int:
        return self.region.addr + self.offset

    def mark_done(self, now: float) -> None:
        if self.status is not DescriptorStatus.PENDING:
            raise ViaDescriptorError(
                f"{type(self).__name__} of {self.nbytes} bytes at "
                f"{self.addr:#x} completed twice"
            )
        self.status = DescriptorStatus.DONE
        self.completed_at = now

    def mark_error(self, now: float) -> None:
        self.status = DescriptorStatus.ERROR
        self.completed_at = now


@dataclass(slots=True, eq=False)
class SendDescriptor(Descriptor):
    """An ordinary (two-sided) send."""


@dataclass(slots=True, eq=False)
class RecvDescriptor(Descriptor):
    """A posted receive buffer.

    ``received_bytes``/``received_payload`` are filled at completion;
    ``received_immediate`` carries the sender's immediate data.
    """

    received_bytes: int = 0
    received_payload: Any = None
    received_immediate: Optional[int] = None


@dataclass(slots=True, eq=False)
class RmaWriteDescriptor(Descriptor):
    """A remote-DMA write: local segment -> remote registered address.

    ``remote_addr`` must fall inside an RMA-write-enabled region on the
    peer.  ``notify`` requests remote completion (consumes a receive
    descriptor there), which VIA calls "RDMA write with immediate".
    """

    remote_addr: int = 0
    notify: bool = False
