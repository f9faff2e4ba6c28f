"""Batch workloads: a fixed amount of simulated work per pass.

Each workload runs through the program's public entry points only
(``repro.bench``, ``repro.cluster``, ``repro.mpi``, ``repro.pdes``) and
exposes four steps the runner times separately:

``setup()``
    the construction the pass also performs (clusters, MPI worlds,
    shard processes), timed on its own for ``setup_s``;
``run_pass()``
    one pass of the fixed work; its host time is one ``wall_s`` sample;
``check(output)``
    the correctness gate against the digests in ``reference.json``;
``traced_pass(profiler)``
    one pass under the profiler, returning per-layer counts.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from typing import Any, Dict, List, Tuple

from harness import digest

LOSS_RATE = 0.01
LOSSY_DIMS = (4, 4, 4)
#: Collective rounds per tier in one lossy pass.
LOSSY_ROUNDS = 10
PDES_DIMS = (4, 8, 8)
PDES_SHARDS = 2
#: The fig4 quick MPI aggregate point that takes the rendezvous/RMA
#: path (512 KiB > the 16 KiB eager threshold).
MPI_POINT = {"dims": (3, 3), "nbytes": 524288, "total_bytes": 2_000_000}


def _global_counts() -> Dict[str, int]:
    """Process-wide counters of the engine (deltas are taken per pass)."""
    from repro.sim import core as sim_core
    from repro.topology import routing

    return {"events": sim_core.TOTAL_EVENTS,
            "route_hits": routing.CACHE_STATS["hits"],
            "route_misses": routing.CACHE_STATS["misses"]}


def cluster_counts(clusters, engines) -> Counter:
    """Sum the public per-object stats of every cluster and engine."""
    counts: Counter = Counter()
    for cluster in clusters:
        for node in cluster.nodes:
            if node is None:
                continue
            counts["pci_transfers"] += node.host.stats["dmas"]
            for port in node.ports.values():
                for key in ("tx_frames", "train_frames", "train_fallbacks",
                            "interrupts", "nic_tx", "nic_rx"):
                    counts[key] += port.stats[key]
            engine = getattr(node.via, "nic_collective", None)
            if engine is not None:
                counts["nic_arq_retransmits"] += engine.stats["retransmits"]
        reliability = cluster.reliability_stats()
        for key in ("retransmits", "timeouts", "acks_sent",
                    "frames_dropped"):
            counts[key] += reliability.get(key, 0)
    for engine in engines:
        for key in ("sends", "rma_sent", "unexpected"):
            counts[key] += engine.stats[key]
        for channel in engine.channels.values():
            stats = getattr(channel, "stats", None)
            if stats is not None:
                counts["token_stalls"] += stats["token_stalls"]
    return counts


def layer_counts(counts: Counter, before: Dict[str, int],
                 untraced_s: float) -> Dict[str, float]:
    """Per-layer count metrics from summed stats and global deltas."""
    after = _global_counts()
    events = after["events"] - before["events"]
    hits = after["route_hits"] - before["route_hits"]
    lookups = hits + after["route_misses"] - before["route_misses"]
    tx = counts["tx_frames"]
    return {
        "sim.events": events,
        "sim.host_us_per_event": untraced_s * 1e6 / events if events else 0.0,
        "hw.tx_frames": tx,
        "hw.train_frame_frac": counts["train_frames"] / tx if tx else 0.0,
        "hw.train_fallbacks": counts["train_fallbacks"],
        "hw.interrupts": counts["interrupts"],
        "hw.pci_transfers": counts["pci_transfers"],
        "hw.nic_fw_frames": counts["nic_tx"] + counts["nic_rx"],
        "hw.nic_arq_retransmits": counts["nic_arq_retransmits"],
        "via.retransmits": counts["retransmits"],
        "via.timeouts": counts["timeouts"],
        "via.acks_sent": counts["acks_sent"],
        "via.retransmit_frac": counts["retransmits"] / tx if tx else 0.0,
        "via.frames_dropped": counts["frames_dropped"],
        "core.sends": counts["sends"],
        "core.rma_sent": counts["rma_sent"],
        "core.unexpected": counts["unexpected"],
        "core.token_stalls": counts["token_stalls"],
        "topology.route_cache_hit_frac": hits / lookups if lookups else 0.0,
    }


def _rows_digest(table) -> str:
    """Digest of a table's rows as plain floats, so the pinned value does
    not depend on how a numpy version spells its scalars."""
    return digest([[float(value) for value in row] for row in table.rows])


@contextlib.contextmanager
def _recording_builds():
    """Keep every cluster and messaging engine the bench helpers build.

    The microbenchmarks construct their clusters internally; wrapping
    the two factories they call lets the traced pass read the clusters'
    public stats afterwards.  Behaviour is unchanged and the factories
    are restored on exit.
    """
    from repro.bench import microbench
    from repro.cluster import process_api

    clusters: List[Any] = []
    engines: List[Any] = []
    real_mesh = microbench.build_mesh
    real_engines = process_api.build_engines

    def build_mesh(*args, **kwargs):
        cluster = real_mesh(*args, **kwargs)
        clusters.append(cluster)
        return cluster

    def build_engines(*args, **kwargs):
        built = real_engines(*args, **kwargs)
        engines.extend(built)
        return built

    microbench.build_mesh = build_mesh
    process_api.build_engines = build_engines
    try:
        yield clusters, engines
    finally:
        microbench.build_mesh = real_mesh
        process_api.build_engines = real_engines


class BulkFig3:
    """``fig3`` quick sweep plus one fig4 MPI aggregate point.

    Deterministic: the seed is not used.
    """

    name = "bulk-fig3"
    #: Latency limit of one pass (seconds) for ``within_limit_frac``.
    limit_s = 120.0
    #: Typical pass on a 2-core x86 host; sets how many passes fit.
    nominal_pass_s = 24.0

    def __init__(self, seed: int, reference: Dict[str, Any]) -> None:
        self.reference = reference["bulk-fig3"]

    def setup(self) -> None:
        from repro.cluster.builder import build_mesh
        from repro.cluster.process_api import build_world

        for dims in ((3, 3), (3, 3, 3)):
            build_mesh(dims, wrap=True, stack="via")
            build_mesh(dims, wrap=True, stack="tcp")
        build_world(build_mesh(MPI_POINT["dims"], wrap=True))

    def run_pass(self) -> Tuple[Any, float]:
        from repro.bench import microbench
        from repro.bench.figures import fig3

        table = fig3(quick=True)
        mpi = microbench.mpi_aggregate_bandwidth(
            MPI_POINT["dims"], MPI_POINT["nbytes"],
            total_bytes=MPI_POINT["total_bytes"])
        return table, mpi

    def check(self, output) -> List[str]:
        table, mpi = output
        problems = []
        if _rows_digest(table) != self.reference["fig3_rows"]:
            problems.append(f"fig3 rows digest {_rows_digest(table)} != "
                            f"{self.reference['fig3_rows']}")
        if repr(mpi) != self.reference["mpi_point"]:
            problems.append(f"MPI point {mpi!r} != "
                            f"{self.reference['mpi_point']}")
        return problems

    @staticmethod
    def claims(table) -> Tuple[int, int]:
        """Paper claims about fig3 that the table meets, out of all."""
        from repro.bench.conformance import CLAIMS

        fig3_claims = [c for c in CLAIMS if c.experiment == "fig3"]
        met = sum(1 for claim in fig3_claims if claim.check(table))
        return met, len(fig3_claims)

    def traced_pass(self, profiler, untraced_s: float):
        before = _global_counts()
        with _recording_builds() as (clusters, engines):
            profiler.enable()
            try:
                output = self.run_pass()
            finally:
                profiler.disable()
        metrics = layer_counts(cluster_counts(clusters, engines), before,
                               untraced_s)
        met, total = self.claims(output[0])
        metrics["model.fig3_claims_met"] = met
        metrics["model.fig3_claims_total"] = total
        return output, metrics


def _lossy_program(comm, rounds: int, results: Dict[int, list]):
    """Rounds of barrier, rotating-root bcast, allreduce, ring sendrecv."""
    import numpy as np

    rank, size = comm.rank, comm.size
    right, left = (rank + 1) % size, (rank - 1) % size
    log = []
    for index in range(rounds):
        yield from comm.barrier()
        root = index % size
        got = yield from comm.bcast(
            root=root, nbytes=64,
            data=(index, root) if rank == root else None)
        total = yield from comm.allreduce(
            nbytes=8, data=np.float64(rank + 1 + index))
        ring = yield from comm.sendrecv(
            right, left, send_nbytes=256, recv_nbytes=256,
            send_tag=index, recv_tag=index, data=(rank, index))
        log.append((got, float(total), ring))
    results[rank] = log


class LossyCollectives:
    """Collectives and a ring exchange on a lossy (4,4,4) torus, once on
    the host tier and once on the NIC-resident tier; the fault seed is
    the benchmark seed."""

    name = "lossy-collectives"
    limit_s = 60.0
    nominal_pass_s = 5.0
    tiers = ("host", "nic")

    def __init__(self, seed: int, reference: Dict[str, Any],
                 rounds: int = LOSSY_ROUNDS) -> None:
        self.seed = seed
        self.rounds = rounds
        self.reference = reference["lossy-collectives"]
        #: Reliability counters of the first pass; later passes of the
        #: same seed must repeat them exactly.
        self.first_counters = None

    def _build(self, tier: str):
        from repro.cluster.builder import build_mesh
        from repro.cluster.process_api import build_world
        from repro.hw.faults import FaultParams
        from repro.hw.params import GigEParams

        cluster = build_mesh(LOSSY_DIMS, gige_params=GigEParams(
            faults=FaultParams(seed=self.seed, loss_rate=LOSS_RATE)))
        comms = build_world(cluster)
        if tier == "nic":
            for node in cluster.nodes:
                node.via.enable_nic_collectives()
            for comm in comms:
                comm.set_collective_tier("nic")
        return cluster, comms

    def setup(self) -> None:
        for tier in self.tiers:
            self._build(tier)

    def _run(self, built):
        from repro.cluster.process_api import run_mpi

        outputs = []
        for cluster, comms in built:
            results: Dict[int, list] = {}
            run_mpi(cluster, _lossy_program, args=(self.rounds, results),
                    comms=comms)
            per_rank = [results[rank] for rank in range(cluster.size)]
            outputs.append((per_rank, cluster.reliability_stats()))
        return outputs

    def run_pass(self):
        return self._run([self._build(tier) for tier in self.tiers])

    def check(self, output) -> List[str]:
        problems = []
        for tier, (per_rank, _counters) in zip(self.tiers, output):
            if digest(per_rank) != self.reference["per_rank"]:
                problems.append(f"{tier} tier per-rank results digest "
                                f"{digest(per_rank)} != "
                                f"{self.reference['per_rank']}")
        counters = [counters for _per_rank, counters in output]
        if self.seed == self.reference["default_seed"]:
            if digest(counters) != self.reference["counters"]:
                problems.append(f"reliability counters digest "
                                f"{digest(counters)} != "
                                f"{self.reference['counters']} at the "
                                f"default seed")
        if self.first_counters is None:
            self.first_counters = counters
        elif counters != self.first_counters:
            problems.append("reliability counters differ between passes "
                            "of one seed")
        if not any(c["frames_dropped"] for c in counters):
            problems.append("1% loss dropped no frame; workload is vacuous")
        return problems

    def traced_pass(self, profiler, untraced_s: float):
        before = _global_counts()
        profiler.enable()
        try:
            built = [self._build(tier) for tier in self.tiers]
            output = self._run(built)
        finally:
            profiler.disable()
        clusters = [cluster for cluster, _comms in built]
        engines = [comm.engine for _cluster, comms in built
                   for comm in comms]
        metrics = layer_counts(cluster_counts(clusters, engines), before,
                               untraced_s)
        if metrics["hw.train_frame_frac"] != 0:
            raise RuntimeError("frame trains engaged on lossy links; the "
                               "workload no longer bypasses the fast path")
        return output, metrics


class Pdes2Shard:
    """The (4,8,8) all-neighbour aggregate cut into two shard processes.

    Deterministic: the seed is not used.
    """

    name = "pdes-2shard"
    limit_s = 60.0
    nominal_pass_s = 7.0

    def __init__(self, seed: int, reference: Dict[str, Any]) -> None:
        self.reference = reference["pdes-2shard"]

    def setup(self) -> None:
        """Spawn and build both shards, run zero windows, stop them.

        ``run_sharded`` has no public spawn/run split; ``max_windows=0``
        makes it stop with a SimulationError right after every shard
        reported ready, and its ``finally`` joins the shard processes.
        """
        from repro.errors import SimulationError
        from repro.pdes import run_sharded

        try:
            run_sharded(PDES_DIMS, workload="aggregate", nshards=PDES_SHARDS,
                        processes=True, max_windows=0)
        except SimulationError:
            return
        raise RuntimeError("max_windows=0 did not stop the PDES run")

    def run_pass(self):
        from repro.pdes import run_sharded

        return run_sharded(PDES_DIMS, workload="aggregate",
                           nshards=PDES_SHARDS, processes=True)

    def check(self, result) -> List[str]:
        problems = []
        if digest(result.table) != self.reference["table_sha256"]:
            problems.append(f"PDES table digest {digest(result.table)} != "
                            f"{self.reference['table_sha256']}")
        for key in ("windows", "events_processed"):
            if getattr(result, key) != self.reference[key]:
                problems.append(f"PDES {key} {getattr(result, key)} != "
                                f"{self.reference[key]}")
        return problems

    def traced_pass(self, profiler, untraced_s: float):
        import attribution
        from repro import telemetry
        from repro.telemetry.registry import histogram_percentile

        tel = telemetry.enable("perfbench")
        profiler.enable()
        try:
            result = self.run_pass()
        finally:
            profiler.disable()
            snapshot = tel.registry.snapshot()
            telemetry.disable()
        window = next(iter(
            snapshot["histograms"]["pdes_window_seconds"].values()))
        frames = next(iter(
            snapshot["histograms"]["pdes_merge_frames"].values()))
        metrics = {
            "sim.events": result.events_processed,
            "sim.host_us_per_event":
                untraced_s * 1e6 / result.events_processed,
            "pdes.windows": result.windows,
            "pdes.window_ms": untraced_s * 1e3 / result.windows,
            "pdes.window_p50_ms": histogram_percentile(window, 50) * 1e3,
            "pdes.window_p99_ms": histogram_percentile(window, 99) * 1e3,
            "pdes.merge_frames": frames["sum"],
            # The coordinator blocked reading a shard's pipe.
            "pdes.coord_wait_s": attribution.cumulative(
                profiler, "multiprocessing/connection.py", "_recv_bytes"),
            # Pickling window messages to and from the shards.
            "pdes.serialize_s": attribution.cumulative(
                profiler, "multiprocessing/reduction.py", "dumps")
            + attribution.cumulative(
                profiler, "~", "<built-in method _pickle.loads>"),
        }
        return result, metrics


WORKLOADS = {cls.name: cls for cls in (BulkFig3, LossyCollectives,
                                       Pdes2Shard)}
