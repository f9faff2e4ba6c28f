"""Host-memory footprint of a built mesh.

The paper's clusters are 256- and 384-node meshes, and a PDES shard
process must hold its whole slab of one; what a simulated node costs
in Python heap decides how large a mesh fits.  The recipe (see
"Memory" in ``docs/SIMULATOR.md``): build once to import modules and
fill process-wide caches, then trace the heap growth of a second
build that is kept alive.
"""

import gc
import tracemalloc

from repro.cluster.builder import build_mesh
from repro.cluster.process_api import build_world

DIMS = (4, 4, 4)

#: Ceiling on Python heap per VIA node with its MPI world, KB.
#: Measured 229 KB/node on CPython 3.11 (x86-64); a node with its rx
#: ring as ring entries and deque waiter queues cost 454.  The bound
#: leaves 30% headroom: CPython 3.10 keeps each of the ~90 non-slotted
#: objects per node in a separate dict object, 64 bytes or more apiece.
KB_PER_NODE_MAX = 300


def _build():
    cluster = build_mesh(DIMS)
    return cluster, build_world(cluster)


def test_heap_per_node_within_bound():
    _build()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cluster, _world = _build()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    kb = (after - before) / 1024 / cluster.size
    assert kb <= KB_PER_NODE_MAX, (
        f"{kb:.1f} KB of heap per node, bound {KB_PER_NODE_MAX}"
    )
