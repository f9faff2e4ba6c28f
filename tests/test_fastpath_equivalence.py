"""Frame trains must be invisible in every reproduced number.

:mod:`repro.fastpath` toggles the frame-train bulk transmit of
:mod:`repro.hw.fastpath`.  These tests pin the contract that trains on
and off produce *bit-identical* experiment tables — ``repr`` equality
of every cell, not approximate agreement — that the tables equal the
digests pinned below, and that runs are deterministic.

Figure 2 exercises the point-to-point latency/bandwidth paths where
frame trains engage; figure 3 the aggregated-bandwidth runs where the
engagement guard must refuse and fall back; figure 5 the multi-hop
collectives mixing both regimes.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import fastpath
from repro.bench.harness import run_experiment

#: sha256 of ``str(rows)`` (every cell as its ``repr``) of each quick
#: table.  Recorded when the simulator still carried a second,
#: per-event scheduler as a live reference for its zero-delay
#: shortcuts; both schedulers produced these digests with trains on
#: and off.
PINNED_DIGESTS = {
    "fig2": "f1b4475305c8061cd36a698dbd50129d"
            "e10aff5c256476239c0ffaba22e418af",
    "fig3": "a7543996f9b65fa63a8b1006f648d210"
            "60beca831b53f7b7108c5c2309f2ebb8",
    "fig5": "cc03701cf33da87e36341fd52f3409cf"
            "8a26ac328fe95c94a177617620669b50",
}


def _table(name: str, fast: bool):
    with fastpath.force(fast):
        result = run_experiment(name, quick=True)
    return [[repr(cell) for cell in row] for row in result.rows]


def _digest(rows) -> str:
    return hashlib.sha256(str(rows).encode()).hexdigest()


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig5"])
def test_tables_bit_identical(name):
    trains_off = _table(name, fast=False)
    trains_on = _table(name, fast=True)
    assert trains_on == trains_off
    assert _digest(trains_on) == PINNED_DIGESTS[name]


def test_fastpath_deterministic():
    first = _table("fig2", fast=True)
    second = _table("fig2", fast=True)
    assert first == second


def _stream(gige_params, nbytes=200_000):
    """One-way bulk stream over a 2-node pair; returns the cluster."""
    from repro.hw.params import GigEParams
    from repro.via.descriptors import RecvDescriptor, SendDescriptor
    from tests.conftest import make_via_pair

    cluster, (vi0, r0), (vi1, r1) = make_via_pair(
        gige_params=gige_params
    )
    sim = cluster.sim

    def receiver():
        for _ in range(8):
            vi1.post_recv(RecvDescriptor(r1, 0, nbytes))
        for _ in range(8):
            yield from vi1.recv_wait()

    def sender():
        for _ in range(8):
            yield from vi0.post_send(SendDescriptor(r0, 0, nbytes))
            yield from vi0.send_wait()

    sim.spawn(receiver())
    process = sim.spawn(sender())
    sim.run_until_complete(process)
    sim.run()
    return cluster


def _total_trains(cluster):
    return sum(
        port.stats["trains"]
        for node in cluster.nodes for port in node.ports.values()
    )


@pytest.mark.parametrize("fault_kwargs", [
    {"loss_rate": 0.01},
    {"flap_period": 500.0, "flap_down": 50.0},
    {"corrupt_rate": 0.02},
], ids=["loss", "flap", "corrupt"])
def test_trains_disengage_on_fault_capable_links(fault_kwargs):
    """Any fault knob makes links fault-capable; the frame-train plan
    schedules arrivals unconditionally, so it must refuse them."""
    from repro.hw.faults import FaultParams
    from repro.hw.params import GigEParams

    with fastpath.force(True):
        cluster = _stream(GigEParams(
            faults=FaultParams(seed=3, **fault_kwargs)
        ))
    assert _total_trains(cluster) == 0


def test_trains_engage_on_healthy_links():
    """Control: the same workload on a clean wire does use trains, so
    the disengagement test above is not vacuously passing."""
    from repro.hw.params import GigEParams

    with fastpath.force(True):
        cluster = _stream(GigEParams())
    assert _total_trains(cluster) > 0
