"""The benchmark's four workloads, each driven through public calls.

Every workload splits into a set-up (workload generation, index and
environment builds), a list of *items* -- one public call each, timed
one by one -- and checks that run outside the timed region.  A workload
is rebuilt from scratch before every pass, so no pass reuses state (or
memoized results) of an earlier one.

The seed is the only input: the same seed gives the same relations,
probes and sampled lookups.  Where the program fixes a seed internally
the docstring of the workload says so.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.data import generator
from repro.data.generator import WorkloadConfig
from repro.errors import CapacityError
from repro.experiments import cache, common
from repro.experiments.bench import (
    BENCH_NAIVE_SIM,
    BENCH_ORDERED_SIM,
    BENCH_R_SIZES_GIB,
)
from repro.hardware.memory import MemorySpace, SystemMemory
from repro.hardware.spec import V100_NVLINK2
from repro.indexes import ALL_INDEX_TYPES, BinarySearchIndex, HarmoniaIndex
from repro.join.base import JoinResult, reference_join
from repro.join.nonequi import WindowedBandJoin, WindowedKNNJoin
from repro.join.window import WindowedINLJ
from repro.serve import bench as serve_bench
from repro.units import KIB, MIB
from repro.workloads import nonequi as nonequi_workloads

#: Paper figures quoted beside the two request-rate model values
#: (Fig. 4 at 111 GiB; EXPERIMENTS.md).
PAPER_REQUESTS_PER_LOOKUP_111GIB = {
    "model.bs_requests_per_lookup_111gib": 105.0,
    "model.harmonia_requests_per_lookup_111gib": 11.3,
}


@dataclass
class Item:
    """One timed public call.

    ``ops`` is how many operations the call attempts (sweep points, join
    calls or serve requests); ``meta`` is whatever the workload needs to
    account for and check the call's outcome.
    """

    label: str
    call: Callable[[], object]
    ops: int = 1
    meta: object = None


@dataclass
class Raised:
    """Outcome of an item whose call raised."""

    error: str


@dataclass
class Tally:
    attempted: int
    failed: int
    lookups: int


def _geomean(values: Sequence[float]) -> float:
    values = [value for value in values if value > 0 and math.isfinite(value)]
    if not values:
        return 0.0
    return math.exp(sum(math.log(value) for value in values) / len(values))


def _digest(result: JoinResult) -> str:
    """SHA-256 of a join result's pairs, in the order they are held."""
    digest = hashlib.sha256()
    for array in (result.probe_indices, result.build_positions):
        digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    return digest.hexdigest()


class Workload:
    """Interface of a benchmark workload (its ``why`` is in BENCHMARK.json)."""

    name = ""
    #: What ``lookups_per_s`` counts for this workload.
    lookup_unit = ""
    #: Host seconds one set-up plus one pass take on the reference box
    #: (2 cores); fixes how many passes a run of ``--seconds`` makes.
    nominal_cycle_s = 1.0

    def session(self):
        """Context held for the whole run (e.g. the environment cache)."""
        return contextlib.nullcontext()

    def setup(self, seed: int):
        raise NotImplementedError

    def prepare(self, state, seed: int) -> None:
        """Once-per-run, untimed preparation after the first set-up."""

    def items(self, state) -> List[Item]:
        raise NotImplementedError

    def tally(self, item: Item, outcome) -> Tally:
        if isinstance(outcome, Raised):
            return Tally(item.ops, item.ops, 0)
        return Tally(item.ops, 0, self.lookups(item, outcome))

    def lookups(self, item: Item, outcome) -> int:
        raise NotImplementedError

    def fingerprint(self, item: Item, outcome):
        """The small, comparable summary of an outcome that a pass keeps.

        Later passes must reproduce the first pass's fingerprints item by
        item, and :meth:`model` reads them; the outcome itself is dropped
        right after its call.
        """
        raise NotImplementedError

    def check(self, item: Item, outcome) -> bool:
        """Whether an outcome of the first pass agrees with its oracle."""
        return True

    def model(self, items: List[Item], fingerprints: list) -> Dict[str, float]:
        """Exact simulated values (``model.*``) of one pass."""
        return {}


def _cost_model(points) -> Dict[str, float]:
    """``model.*`` summary of (is_index_point, outcome) pairs."""
    qps, l2_hits, post_l1, tlb_misses, remote = [], 0.0, 0.0, 0.0, 0.0
    skipped = 0
    for is_index_point, outcome in points:
        if isinstance(outcome, Raised):
            continue
        status, cost = outcome
        if status != "ok":
            skipped += 1
            continue
        qps.append(cost.queries_per_second)
        if is_index_point:
            counters = cost.counters
            l2_hits += counters.l2_hits
            post_l1 += counters.memory_accesses - counters.l1_hits
            tlb_misses += counters.tlb_misses
            remote += counters.remote_accesses
    return {
        "model.qps_geomean": _geomean(qps),
        "model.l2_hit_rate": l2_hits / post_l1 if post_l1 > 0 else 0.0,
        "model.tlb_miss_rate": tlb_misses / remote if remote > 0 else 0.0,
        "model.skipped_points": float(skipped),
    }


class RSweep(Workload):
    """Fig. 3 naive INLJ + hash join and Fig. 5 partitioned INLJ over R.

    The seed reaches the simulation (``SimulationConfig.seed``: probe
    samples and replay order).  The relations themselves come from
    ``make_environment``, which always uses ``WorkloadConfig``'s default
    seed 42.
    """

    name = "r-sweep"
    lookup_unit = "lookups replayed by the simulator"
    nominal_cycle_s = 9.5

    def __init__(
        self,
        r_sizes_gib: Sequence[float] = BENCH_R_SIZES_GIB,
        naive_sample: int = BENCH_NAIVE_SIM.probe_sample,
        ordered_sample: int = BENCH_ORDERED_SIM.probe_sample,
    ):
        self.r_sizes_gib = tuple(r_sizes_gib)
        self.naive_sample = naive_sample
        self.ordered_sample = ordered_sample

    def session(self):
        return cache.session(True)

    def tasks(self, seed: int) -> list:
        naive = BENCH_NAIVE_SIM.with_sample(self.naive_sample).with_seed(seed)
        ordered = BENCH_ORDERED_SIM.with_sample(self.ordered_sample).with_seed(
            seed
        )
        tasks = []
        for kind, sim in (("inlj", naive), ("partitioned", ordered)):
            for gib in self.r_sizes_gib:
                r_tuples = common.gib_to_tuples(gib)
                for index_cls in ALL_INDEX_TYPES:
                    tasks.append((kind, V100_NVLINK2, r_tuples, index_cls, sim))
                tasks.append(("hash", V100_NVLINK2, r_tuples, None, sim))
        return tasks

    def setup(self, seed: int):
        cache.clear()
        tasks = self.tasks(seed)
        for kind, spec, r_tuples, index_cls, sim in tasks:
            try:
                common.make_environment(spec, r_tuples, index_cls=index_cls, sim=sim)
            except CapacityError:
                pass  # cached; the sweep point reports it as a skip
        return tasks

    def items(self, state) -> List[Item]:
        return [
            Item(
                label=common.task_label(task),
                call=lambda task=task: common.run_standard_point(task),
                meta=task,
            )
            for task in state
        ]

    def lookups(self, item: Item, outcome) -> int:
        kind, _spec, _r, _cls, sim = item.meta
        if kind == "hash" or outcome[0] != "ok":
            return 0
        return sim.probe_sample

    def fingerprint(self, item: Item, outcome):
        # ("ok", QueryCost) or ("skip", reason): small, and compared
        # field by field, counters included.
        return outcome

    def model(self, items: List[Item], fingerprints: list) -> Dict[str, float]:
        values = _cost_model(
            (item.meta[0] != "hash", outcome)
            for item, outcome in zip(items, fingerprints)
        )
        at_111_gib = common.gib_to_tuples(111.0)
        for index_cls, key in (
            (BinarySearchIndex, "model.bs_requests_per_lookup_111gib"),
            (HarmoniaIndex, "model.harmonia_requests_per_lookup_111gib"),
        ):
            values[key] = 0.0
            for item, outcome in zip(items, fingerprints):
                kind, _spec, r_tuples, cls, _sim = item.meta
                if (
                    kind == "inlj"
                    and cls is index_cls
                    and r_tuples == at_111_gib
                    and not isinstance(outcome, Raised)
                    and outcome[0] == "ok"
                ):
                    values[key] = outcome[1].counters.translation_requests_per_lookup
        return values


class SkewWindow(Workload):
    """Fig. 8 windowed INLJ at 100 GiB under Zipf skew (fewer θ values).

    The seed reaches both ``WorkloadConfig.seed`` (relation and Zipf
    probe draws) and ``SimulationConfig.seed``.
    """

    name = "skew-window"
    lookup_unit = "lookups replayed by the simulator"
    nominal_cycle_s = 4.3

    R_TUPLES = common.gib_to_tuples(100.0)
    WINDOW_BYTES = 32 * MIB

    def __init__(
        self,
        thetas: Sequence[float] = (0.0, 0.5, 1.0, 1.5, 1.75),
        sample: int = common.ORDERED_SIM.probe_sample,
    ):
        self.thetas = tuple(thetas)
        self.sample = sample
        self._replayed: Dict[float, int] = {}

    def session(self):
        return cache.session(True)

    def setup(self, seed: int):
        cache.clear()
        sim = common.ORDERED_SIM.with_sample(self.sample).with_seed(seed)
        points = []
        for theta in self.thetas:
            workload = WorkloadConfig(
                r_tuples=self.R_TUPLES, zipf_theta=theta, seed=seed
            )
            for index_cls in ALL_INDEX_TYPES:
                try:
                    env = cache.environment(
                        V100_NVLINK2, workload, index_cls=index_cls, sim=sim
                    )
                except CapacityError as error:
                    env = error
                points.append((theta, index_cls, env))
        return points

    def prepare(self, state, seed: int) -> None:
        """Count the lookups each θ replays (one window's sample).

        ``WindowedINLJ.estimate`` replays the ordered sample of one
        window; under skew that sample holds up to 4x the requested
        count, so it is drawn once here, untimed, to count it exactly.
        """
        self._replayed = {}
        for theta, index_cls, env in state:
            if theta in self._replayed or isinstance(env, CapacityError):
                continue
            join = self._join(env)
            window = min(join.window_tuples, env.workload.s_tuples)
            sample = generator.make_ordered_probe_sample(
                env.column,
                env.workload,
                window_tuples=window,
                count=min(env.sim.probe_sample, window),
            )
            self._replayed[theta] = len(sample.keys)

    def _join(self, env) -> WindowedINLJ:
        return WindowedINLJ(
            env.index,
            common.default_partitioner(env.column),
            window_bytes=self.WINDOW_BYTES,
        )

    def items(self, state) -> List[Item]:
        items = []
        for theta, index_cls, env in state:
            def call(env=env):
                if isinstance(env, CapacityError):
                    return ("skip", str(env))
                try:
                    return ("ok", self._join(env).estimate(env))
                except CapacityError as error:
                    return ("skip", str(error))

            items.append(
                Item(
                    label=f"windowed:{index_cls.__name__}:theta={theta}",
                    call=call,
                    meta=theta,
                )
            )
        return items

    def lookups(self, item: Item, outcome) -> int:
        if outcome[0] != "ok":
            return 0
        return self._replayed[item.meta]

    def fingerprint(self, item: Item, outcome):
        # ("ok", QueryCost) or ("skip", reason): small, and compared
        # field by field, counters included.
        return outcome

    def model(self, items: List[Item], fingerprints: list) -> Dict[str, float]:
        return _cost_model((True, outcome) for outcome in fingerprints)


@dataclass
class _JoinState:
    column: object
    epsilon: int
    #: (theta, kind) -> probe keys
    probes: Dict[Tuple[float, str], np.ndarray]
    indexes: list
    partitioner: object


class ProbeJoin(Workload):
    """Functional windowed equi, band and KNN joins over a materialized R.

    The seed reaches ``WorkloadConfig.seed`` (relation, equi, band and
    KNN probe streams).  Results of the first pass are checked, untimed,
    against ``reference_join`` (equi and band) and a sort-based KNN
    oracle; later passes must reproduce the first pass exactly.
    """

    name = "probe-join"
    lookup_unit = "probe keys joined"
    nominal_cycle_s = 5.0
    kinds = ("equi", "band", "knn")
    THETAS = (0.0, 1.0)
    #: Expected band matches per probe, which fixes the band's epsilon.
    BAND_MATCHES = 4.0
    K = 4

    def __init__(
        self,
        r_tuples: int = 2**20,
        probes: int = 2**17,
        window_bytes: int = 256 * KIB,
    ):
        self.r_tuples = r_tuples
        self.num_probes = probes
        self.window_bytes = window_bytes
        #: (theta, kind) -> digest of the oracle's canonical result.
        self._oracles: Dict[Tuple[float, str], str] = {}

    def setup(self, seed: int) -> _JoinState:
        config = WorkloadConfig(
            r_tuples=self.r_tuples, s_tuples=self.num_probes, seed=seed
        )
        relation = generator.make_build_relation(config)
        memory = SystemMemory(V100_NVLINK2)
        relation.place(memory, MemorySpace.HOST)
        indexes = []
        for index_cls in ALL_INDEX_TYPES:
            index = index_cls(relation)
            index.place(memory)
            indexes.append(index)
        column = relation.column
        epsilon = nonequi_workloads.band_epsilon_for_matches(
            column, self.BAND_MATCHES
        )
        probes = {}
        for theta in self.THETAS:
            skewed = replace(config, zipf_theta=theta)
            probes[(theta, "equi")] = generator.make_probe_keys(
                column, skewed
            ).keys
            probes[(theta, "band")] = nonequi_workloads.make_band_probe_keys(
                column, skewed, epsilon
            ).keys
            probes[(theta, "knn")] = nonequi_workloads.make_knn_probe_keys(
                column, skewed, self.K
            ).keys
        return _JoinState(
            column=column,
            epsilon=epsilon,
            probes=probes,
            indexes=indexes,
            partitioner=common.default_partitioner(column),
        )

    def _operator(self, state: _JoinState, index, kind: str):
        if kind == "equi":
            return WindowedINLJ(
                index, state.partitioner, window_bytes=self.window_bytes
            )
        if kind == "band":
            return WindowedBandJoin(
                index, state.partitioner, state.epsilon,
                window_bytes=self.window_bytes,
            )
        return WindowedKNNJoin(
            index, state.partitioner, self.K, window_bytes=self.window_bytes
        )

    def items(self, state: _JoinState) -> List[Item]:
        items = []
        for theta in self.THETAS:
            for index in state.indexes:
                for kind in self.kinds:
                    keys = state.probes[(theta, kind)]
                    operator = self._operator(state, index, kind)
                    items.append(
                        Item(
                            label=f"{kind}:{index.name}:theta={theta}",
                            call=lambda op=operator, keys=keys: op.join(keys),
                            meta=(theta, kind, len(keys)),
                        )
                    )
        return items

    def lookups(self, item: Item, outcome) -> int:
        return item.meta[2]

    def fingerprint(self, item: Item, outcome):
        return _digest(outcome)

    def prepare(self, state: _JoinState, seed: int) -> None:
        """Digest each probe stream's oracle result, one at a time."""
        keys_sorted = np.asarray(state.column.keys)
        for (theta, kind), probes in state.probes.items():
            if kind == "knn":
                truth = knn_oracle(keys_sorted, probes, self.K)
            else:
                epsilon = state.epsilon if kind == "band" else 0
                truth = reference_join(state.column, probes, epsilon=epsilon)
            self._oracles[(theta, kind)] = _digest(truth.canonical())

    def check(self, item: Item, outcome) -> bool:
        theta, kind, _count = item.meta
        return _digest(outcome.canonical()) == self._oracles[(theta, kind)]


def knn_oracle(keys_sorted: np.ndarray, probes: np.ndarray, k: int) -> JoinResult:
    """The ``k`` nearest keys of each probe, by sorting a candidate window.

    The ``k`` nearest keys of a probe lie among the ``k`` keys below and
    the ``k`` keys at or above its insertion point, so sorting those
    ``2k`` candidates by (distance, key) and keeping ``k`` is exact.  At
    equal distance the smaller key wins, the join's documented tie-break.
    """
    n = len(keys_sorted)
    k = min(k, n)
    probes = np.asarray(probes, dtype=np.uint64)
    starts = np.searchsorted(keys_sorted, probes, side="left").astype(np.int64)
    candidates = starts[:, None] + np.arange(-k, k, dtype=np.int64)[None, :]
    valid = (candidates >= 0) & (candidates < n)
    candidate_keys = keys_sorted[np.clip(candidates, 0, n - 1)]
    column = probes[:, None]
    distance = np.where(
        candidate_keys >= column,
        candidate_keys - column,
        column - candidate_keys,
    )
    distance = np.where(valid, distance, np.iinfo(np.uint64).max)
    order = np.lexsort((candidate_keys, distance), axis=-1)[:, :k]
    positions = np.take_along_axis(candidates, order, axis=1)
    return JoinResult(
        probe_indices=np.repeat(np.arange(len(probes), dtype=np.int64), k),
        build_positions=positions.reshape(-1),
    )


class ServeMixed(Workload):
    """``run_sweep_point`` with replicas and a 20% update share.

    The seed reaches ``WorkloadConfig.seed`` (relation and probes, made
    here in set-up) and ``run_sweep_point``'s ``seed`` (the update
    stream).  Each sweep point draws its update stream from its own seed,
    ``seed * 64 + point``: which requests are updates is random, and
    updates cost more than reads, so a pass over independent streams
    varies less from seed to seed than twelve copies of one stream.
    Each point checks its answers against the program's own sorted-array
    oracle and raises on divergence.
    """

    name = "serve-mixed"
    lookup_unit = "lookups served"
    nominal_cycle_s = 1.8

    R_TUPLES = serve_bench.DEFAULT_R_TUPLES
    REQUEST_TUPLES = serve_bench.DEFAULT_REQUEST_TUPLES
    THETAS = serve_bench.DEFAULT_ZIPF
    REPLICAS = 2
    UPDATE_FRACTION = 0.2

    def __init__(
        self,
        requests: int = serve_bench.DEFAULT_REQUESTS,
        shards: Sequence[int] = serve_bench.DEFAULT_SHARDS,
        window_kib: Sequence[int] = (16, 32),
    ):
        self.requests = requests
        self.shards = tuple(shards)
        self.window_kib = tuple(window_kib)

    def setup(self, seed: int):
        workloads = {}
        for theta in self.THETAS:
            config = WorkloadConfig(
                r_tuples=self.R_TUPLES,
                s_tuples=self.requests * self.REQUEST_TUPLES,
                zipf_theta=theta,
                seed=seed,
            )
            relation = generator.make_build_relation(config)
            workloads[theta] = (
                relation,
                generator.make_probe_keys(relation.column, config),
            )
        return seed, workloads

    def items(self, state) -> List[Item]:
        seed, workloads = state
        points = [
            (theta, num_shards, kib)
            for theta in self.THETAS
            for num_shards in self.shards
            for kib in self.window_kib
        ]
        items = []
        for point, (theta, num_shards, kib) in enumerate(points):
            relation, probes = workloads[theta]
            kwargs = dict(
                num_shards=num_shards,
                window_kib=kib,
                zipf_theta=theta,
                index_cls=BinarySearchIndex,
                request_tuples=self.REQUEST_TUPLES,
                replicas=self.REPLICAS,
                update_fraction=self.UPDATE_FRACTION,
                seed=seed * 64 + point,
            )
            items.append(
                Item(
                    label=f"serve:{num_shards}s:{kib}k:z{theta}",
                    call=lambda relation=relation, probes=probes, kwargs=kwargs: (
                        serve_bench.run_sweep_point(relation, probes, **kwargs)
                    ),
                    ops=len(probes.keys) // self.REQUEST_TUPLES,
                )
            )
        return items

    def tally(self, item: Item, outcome) -> Tally:
        if isinstance(outcome, Raised):
            return Tally(item.ops, item.ops, 0)
        return Tally(item.ops, outcome["rejected"], outcome["total_lookups"])

    def fingerprint(self, item: Item, outcome):
        return outcome  # the sweep point's row: a small dict of numbers

    def model(self, items: List[Item], fingerprints: list) -> Dict[str, float]:
        rows = [row for row in fingerprints if not isinstance(row, Raised)]
        return {
            "model.serve_lookups_per_s": _geomean(
                [row["throughput_lookups_per_second"] for row in rows]
            ),
            "model.serve_p99_us": max(
                (row["latency_seconds"]["p99"] * 1e6 for row in rows),
                default=0.0,
            ),
        }


#: Workload name -> factory at benchmark size.
WORKLOADS: Dict[str, Callable[[], Workload]] = {
    RSweep.name: RSweep,
    SkewWindow.name: SkewWindow,
    ProbeJoin.name: ProbeJoin,
    ServeMixed.name: ServeMixed,
}


def tiny(name: str) -> Workload:
    """A seconds-long variant of a workload, for smoke tests."""
    if name == RSweep.name:
        return RSweep(r_sizes_gib=(1.0, 48.0), naive_sample=2**10, ordered_sample=2**9)
    if name == SkewWindow.name:
        return SkewWindow(thetas=(0.0, 1.0), sample=2**10)
    if name == ProbeJoin.name:
        return ProbeJoin(r_tuples=2**14, probes=2**11, window_bytes=4 * KIB)
    if name == ServeMixed.name:
        return ServeMixed(requests=8, shards=(1, 2), window_kib=(16,))
    raise KeyError(name)
