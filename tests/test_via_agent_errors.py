"""Error-path tests for the VIA kernel agent."""

import pytest

from repro.errors import ViaError
from repro.via.descriptors import RecvDescriptor, SendDescriptor
from repro.via.packet import PacketKind, ViaPacket
from repro.via.vi import ViState
from tests.conftest import make_via_pair


def _inject(cluster, dst_node, packet, payload_bytes=0):
    """Drop a crafted frame directly into a node's rx path."""
    from repro.hw.link import Frame

    device = cluster.nodes[dst_node].via
    port = next(iter(device.ports.values()))
    frame = Frame(payload_bytes, device.params.header_bytes,
                  payload=packet.seal(), kind="crafted")
    port.frame_arrived(frame)


def test_data_for_unknown_vi_raises():
    cluster, _e0, _e1 = make_via_pair()
    packet = ViaPacket(kind=PacketKind.DATA, src_node=0, dst_node=1,
                       dst_vi=999, msg_id=1, payload_bytes=4,
                       msg_bytes=4)
    _inject(cluster, 1, packet, payload_bytes=4)
    with pytest.raises(ViaError):
        cluster.sim.run(until=cluster.sim.now + 1000)


def test_rma_for_unknown_vi_raises():
    cluster, _e0, _e1 = make_via_pair()
    packet = ViaPacket(kind=PacketKind.RMA_WRITE, src_node=0,
                       dst_node=1, dst_vi=999, msg_id=1,
                       payload_bytes=4, msg_bytes=4, remote_addr=0x1000)
    _inject(cluster, 1, packet, payload_bytes=4)
    with pytest.raises(ViaError):
        cluster.sim.run(until=cluster.sim.now + 1000)


def test_out_of_order_fragment_detected():
    cluster, (_vi0, _r0), (vi1, r1) = make_via_pair()
    vi1.post_recv(RecvDescriptor(r1, 0, 65536))
    # Fragment 1 of 2 arrives without fragment 0.
    packet = ViaPacket(kind=PacketKind.DATA, src_node=0, dst_node=1,
                       dst_vi=vi1.vi_id, msg_id=777, frag_index=1,
                       num_frags=2, payload_bytes=100, msg_offset=1458,
                       msg_bytes=1558)
    _inject(cluster, 1, packet, payload_bytes=100)
    with pytest.raises(ViaError):
        cluster.sim.run(until=cluster.sim.now + 1000)


def test_accept_without_pending_connect_raises():
    cluster, _e0, _e1 = make_via_pair()
    packet = ViaPacket(kind=PacketKind.ACCEPT, src_node=0, dst_node=1,
                       dst_vi=12345)
    _inject(cluster, 1, packet)
    with pytest.raises(ViaError):
        cluster.sim.run(until=cluster.sim.now + 1000)


def test_disconnect_resets_vi_state():
    cluster, (vi0, _r0), (vi1, _r1) = make_via_pair()
    assert vi1.state is ViState.CONNECTED
    packet = ViaPacket(kind=PacketKind.DISCONNECT, src_node=0,
                       dst_node=1, dst_vi=vi1.vi_id)
    _inject(cluster, 1, packet)
    cluster.sim.run(until=cluster.sim.now + 1000)
    assert vi1.state is ViState.IDLE
    assert vi1.peer is None


def test_second_connect_on_connected_vi_rejected():
    cluster, (vi0, _r0), _e1 = make_via_pair()
    device = cluster.nodes[0].via

    def reconnect():
        yield from device.agent.connect_request(vi0, 1, "again")

    with pytest.raises(ViaError):
        cluster.sim.run_until_complete(cluster.sim.spawn(reconnect()))


class _NodeFaultsArmed:
    """Fabric-health stand-in: node faults configured, nobody dead."""

    has_node_faults = True


@pytest.mark.parametrize("payload_bytes", [0, 4], ids=["unfused", "fused"])
@pytest.mark.parametrize("owed", [None, 1.0], ids=["now", "paid_until"])
def test_stale_rma_still_pays_demux_cost(payload_bytes, owed):
    """Under node faults an RMA write to torn-down state is dropped,
    but only after the demux that found it stale: the handler returns
    ``rx_demux_cost`` after the dispatcher's folded per-frame cost,
    whether or not the receive copy would have been fused."""
    cluster, _e0, _e1 = make_via_pair()
    sim = cluster.sim
    device = cluster.nodes[1].via
    device.set_fabric_health(_NodeFaultsArmed())
    packet = ViaPacket(kind=PacketKind.RMA_WRITE, src_node=0,
                       dst_node=1, dst_vi=999, msg_id=1,
                       payload_bytes=payload_bytes,
                       msg_bytes=payload_bytes, remote_addr=0x1000)
    start = sim.now
    paid_until = None if owed is None else start + owed
    process = sim.spawn(device.agent._handle_rma(packet, paid_until))
    sim.run_until_complete(process)
    base = start if paid_until is None else paid_until
    assert sim.now == base + device.params.rx_demux_cost
    assert device.agent.stats["dropped_dead"] == 1
