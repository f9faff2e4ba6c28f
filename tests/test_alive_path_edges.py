"""Edge cases of fault-aware routing (:func:`topology.routing.alive_path`)."""

from repro.topology.routing import alive_path
from repro.topology.torus import Direction, Torus


def _all_alive(_node, _direction):
    return True


def _kill_node(torus, dead):
    """Predicate: every link into or out of ``dead`` is down."""

    def alive(node, direction):
        if node == dead:
            return False
        return torus.neighbor(node, direction) != dead

    return alive


def test_self_path_is_empty():
    torus = Torus((2, 2, 2))
    assert alive_path(torus, 3, 3, _all_alive) == []


def test_detour_around_dead_node():
    torus = Torus((2, 2, 2))
    # 0 -> 3 normally crosses 1 or 2; kill 1 and the path must avoid it.
    path = alive_path(torus, 0, 3, _kill_node(torus, 1))
    assert path is not None
    node = 0
    for direction in path:
        node = torus.neighbor(node, direction)
        assert node != 1
    assert node == 3


def test_fully_partitioned_pair_returns_none():
    # On a 1-D chain of 3 (no wrap), killing the middle node
    # disconnects the endpoints entirely.
    torus = Torus((3,), wrap=False)
    assert alive_path(torus, 0, 2, _kill_node(torus, 1)) is None


def test_dead_destination_returns_none():
    torus = Torus((2, 2, 2))
    assert alive_path(torus, 0, 5, _kill_node(torus, 5)) is None


def test_asymmetric_single_direction_death():
    """Only one direction of one link dies: forward traffic detours,
    reverse traffic still uses the direct link."""
    torus = Torus((4,), wrap=True)
    broken = (0, Direction(0, +1))  # 0 -> 1 is down; 1 -> 0 still up

    def alive(node, direction):
        return (node, direction) != broken

    forward = alive_path(torus, 0, 1, alive)
    assert forward is not None
    assert len(forward) == 3  # the long way around the ring
    reverse = alive_path(torus, 1, 0, alive)
    assert reverse == [Direction(0, -1)]


def test_non_minimal_detour_length():
    torus = Torus((2, 2, 2))
    # Minimal 0 -> 7 distance is 3 hops; with a dead interior node the
    # BFS still finds a live route of at most 5 hops in a 2^3 torus.
    path = alive_path(torus, 0, 7, _kill_node(torus, 3))
    assert path is not None
    assert 3 <= len(path) <= 5
    node = 0
    for direction in path:
        node = torus.neighbor(node, direction)
    assert node == 7


def test_deterministic_across_scheduler_modes():
    """The detour must be a pure function of the fault state: repeated
    calls pick the same routes (the chaos harness compares traces
    across runs)."""
    torus = Torus((2, 2, 2))
    picks = []
    for _ in range(4):
        picks.append(tuple(
            tuple(alive_path(torus, src, dst, _kill_node(torus, 6))
                  or []) for src in range(8) for dst in range(8)
            if src != 6 and dst != 6
        ))
    assert len(set(picks)) == 1
