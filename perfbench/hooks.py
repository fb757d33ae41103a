"""Which public calls the traced pass wraps, and the layer each belongs to.

Layers are named after the ``repro`` module that owns the call.  Counts
are read from the values the calls return, so the program needs no
tracing of its own:

* ``hardware.accesses`` -- lines and pages replayed through the L2 and
  TLB models (length of the returned hit masks);
* ``gpu.lanes`` / ``gpu.transactions`` -- lane accesses in and memory
  transactions out of warp coalescing;
* ``data.keys`` -- keys produced by the workload generators;
* ``indexes.lookups`` -- lookups in the ``PerfCounters`` the probe
  kernels return;
* ``indexes.traced_lookups`` -- lookups traced for the simulator (on
  ``r-sweep`` and ``skew-window`` this equals the payload's
  ``lookups_per_pass``, the count behind ``lookups_per_s``);
* ``partition.keys`` -- keys radix-partitioned;
* ``serve.windows`` -- windows in each returned ``ServeReport``;
* ``serve.compactions`` -- completed compactions in each serve row;
* ``experiments.env_calls`` -- calls into the environment cache.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.data import generator, zipf
from repro.experiments import cache, common
from repro.gpu.executor import MachineModel
from repro.hardware.fastlru import VectorLruTlb, VectorSetAssociativeCache
from repro.indexes.base import Index
from repro.join.hash_join import HashJoin
from repro.join.inlj import IndexNestedLoopJoin
from repro.join.nonequi import BandJoin, _WindowedNonEqui
from repro.join.partitioned import PartitionedINLJ
from repro.join.window import WindowedINLJ
from repro.partition.radix import RadixPartitioner
from repro.perf.model import CostModel
from repro.serve import bench as serve_bench
from repro.serve.delta import DeltaBuffer
from repro.serve.executor import ReplicatedShardExecutor, ShardExecutor
from repro.serve.service import ShardedIndexService
from repro.serve.shard import Shard
from repro.workloads import nonequi as nonequi_workloads
from repro.workloads import updates

from spans import Tracer

#: Layers whose self times the traced pass reports (besides the root).
LAYERS = (
    "hardware.l2",
    "hardware.tlb",
    "gpu.coalesce",
    "gpu.replay",
    "data",
    "indexes.trace",
    "indexes.probe",
    "indexes.build",
    "partition",
    "perf",
    "join",
    "experiments",
    "serve.bench",
    "serve.loop",
    "serve.executor",
    "serve.pricing",
    "serve.delta",
    "workloads.oracle",
)


def _add(name: str, value: Callable) -> Callable:
    def count(counts: Dict[str, float], result) -> None:
        counts[name] += float(value(result))

    return count


def _coalesced(counts: Dict[str, float], result) -> None:
    lines, issued = result
    counts["gpu.transactions"] += float(len(lines))
    counts["gpu.lanes"] += float(issued)


def _generated(counts: Dict[str, float], result) -> None:
    size = getattr(result, "num_tuples", None)
    if size is None:
        size = len(result) if hasattr(result, "__len__") else 0
    counts["data.keys"] += float(size)


def install(tracer: Tracer) -> None:
    """Wrap every hooked call; undo with :meth:`Tracer.restore`."""
    method = tracer.patch_method
    function = tracer.patch_function

    accesses = _add("hardware.accesses", len)
    method(VectorSetAssociativeCache, "access_batch", "hardware.l2", accesses)
    method(VectorLruTlb, "access_batch", "hardware.tlb", accesses)
    method(MachineModel, "coalesced_lines", "gpu.coalesce", _coalesced)
    method(MachineModel, "simulate_lookups", "gpu.replay")

    for name in (
        "make_build_relation",
        "make_probe_keys",
        "make_ordered_probe_sample",
        "make_workload",
    ):
        function(generator, name, "data", _generated)
    for name in ("zipf_sample", "zipf_cdf", "zipf_sum_p2", "zipf_top_mass"):
        function(zipf, name, "data")
    for name in ("make_band_probe_keys", "make_knn_probe_keys"):
        function(nonequi_workloads, name, "data", _generated)
    function(updates, "make_update_stream", "data")

    method(
        Index, "trace_lookups", "indexes.trace",
        _add("indexes.traced_lookups", lambda result: result.trace.num_lookups),
    )
    probed = _add("indexes.lookups", lambda counters: counters.lookups)
    method(Index, "probe_batch", "indexes.probe", probed)
    method(Index, "probe_range_batch", "indexes.probe", probed)
    method(Index, "__init__", "indexes.build")

    method(
        RadixPartitioner, "partition", "partition",
        _add("partition.keys", lambda output: len(output.keys)),
    )
    method(CostModel, "price_stages", "perf")

    for join_cls in (
        IndexNestedLoopJoin,
        PartitionedINLJ,
        HashJoin,
        WindowedINLJ,
        BandJoin,
        _WindowedNonEqui,
    ):
        method(join_cls, "join", "join")
        method(join_cls, "estimate", "join")

    function(
        cache, "environment", "experiments",
        _add("experiments.env_calls", lambda env: 1),
    )
    function(common, "run_standard_point", "experiments")

    function(
        serve_bench, "run_sweep_point", "serve.bench",
        _add(
            "serve.compactions",
            lambda row: row["updates"]["compactions_completed"],
        ),
    )
    method(
        ShardedIndexService, "run", "serve.loop",
        _add(
            "serve.windows",
            lambda report: sum(
                stats.windows for stats in report.shard_stats.values()
            ),
        ),
    )
    method(ShardExecutor, "execute", "serve.executor")
    method(ReplicatedShardExecutor, "execute", "serve.executor")
    method(Shard, "window_counters", "serve.pricing")
    for name in ("apply", "lookup_into", "drain", "snapshot", "read_counters"):
        method(DeltaBuffer, name, "serve.delta")
    for name in ("__init__", "apply", "lookup"):
        method(updates.SortedArrayOracle, name, "workloads.oracle")
