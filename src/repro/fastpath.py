"""Global switch for frame trains.

Frame trains (:mod:`repro.hw.fastpath`) let a NIC's transmit stage
plan an uncontended burst of frames analytically instead of walking
every frame through the DMA, FIFO and wire events.  A train must be
invisible in every reproduced number: with trains on or off the
experiment tables are bit-identical, which
``tests/test_fastpath_equivalence.py`` pins.  The switch does not
change event scheduling otherwise — the simulator's zero-delay
shortcuts (see :mod:`repro.sim.core`) are always on.

The switch is sampled when a :class:`~repro.sim.Simulator` is created,
so flipping it mid-simulation has no effect on existing simulators.

Disable trains with ``REPRO_FASTPATH=0`` in the environment, or from
code::

    from repro import fastpath
    with fastpath.force(False):
        ...build and run a simulation without frame trains...
"""

from __future__ import annotations

import os
from contextlib import contextmanager

_FALSY = ("0", "false", "off", "no")

_state = {
    "enabled": os.environ.get("REPRO_FASTPATH", "1").strip().lower()
    not in _FALSY,
}


def enabled() -> bool:
    """Whether new simulators may engage frame trains."""
    return _state["enabled"]


def set_enabled(value: bool) -> None:
    _state["enabled"] = bool(value)


@contextmanager
def force(value: bool):
    """Temporarily force frame trains on or off (tests/benchmarks)."""
    previous = _state["enabled"]
    _state["enabled"] = bool(value)
    try:
        yield
    finally:
        _state["enabled"] = previous
