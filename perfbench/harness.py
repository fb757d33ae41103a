"""Pass loop, statistics and payload of one benchmark run.

A run of workload W makes a fixed number of *cycles*; each cycle sets
the workload up (timed as a set-up sample) and then times one pass over
its items, each item on its own.  With ``trace`` off every cycle is
untraced and the end-to-end metrics come from them.  With ``trace`` on,
untraced and traced cycles alternate: the untraced ones give the
baseline for the tracing overhead, the traced ones the per-layer split.

The host's speed drifts in phases of seconds to minutes (other tenants
of a shared machine), and the drift slows the program and any fixed
loop alike.  So every timed region of an untraced cycle -- each item
call and each set-up -- sits between two runs of a fixed *reference
loop*, and its time is rescaled to a host on which that loop takes
``REFERENCE_S``: ``seconds * REFERENCE_S / mean(loop before, loop
after)``.  The end-to-end times are these adjusted seconds; the payload
keeps the raw ones beside them.  Traced cycles are not rescaled.

Each item is accounted for right after its call, outside its timed
region: it is tallied, checked and reduced to its fingerprint, and its
outcome is dropped before the next call, so the peak memory is that of
the program and one outcome.  A pass's time is the sum of its item
times.  Correctness, checked in both modes:

* an item that raises is a failed operation;
* each item of the first pass is checked against the workload's oracle;
* every later pass, traced or not, must reproduce the first pass item
  by item (``Workload.fingerprint``), since the program is
  deterministic for a given seed -- so every ``model.*`` value is
  identical across passes of one invocation.

The workload names, their ``why``, and the metric names and units come
from ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.experiments import cache
from repro.perf.alloc import tune_allocator

import hooks
from spans import ROOT_LAYER, Tracer
from workloads import PAPER_REQUESTS_PER_LOOKUP_111GIB, Raised, Workload

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(
        encoding="utf-8"
    )
)
#: Workload name -> why it is in the benchmark.
WORKLOAD_WHY = {entry["name"]: entry["why"] for entry in SPEC["workloads"]}
#: End-to-end metrics (tracing off): name -> unit.
END_TO_END = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}
#: Per-layer metrics of the traced pass: name -> unit.
PER_LAYER = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}

#: Candidate tail percentiles in tenths of a percent, highest first
#: (integers, so the ranks are exact).
TAIL_PERMILLE = (999, 990, 950, 900, 750, 500)

#: Samples a tail percentile needs beyond it.
TAIL_BEYOND = 10

#: Set-ups a run makes at least, so ``setup_s`` is a median.
MIN_SETUPS = 3

#: Seconds the reference loop takes on the host that adjusted times are
#: scaled to (the reference VM reads 7-14 ms as its speed drifts).
REFERENCE_S = 0.008
_REFERENCE_ENTRIES = 15_000
_REFERENCE_SORTS = 8
_REFERENCE_GATHERS = 3
_REFERENCE_RNG = np.random.default_rng(0)
#: 256 KiB, sorted within a core's L2 cache.
_REFERENCE_KEYS = _REFERENCE_RNG.integers(0, 2**40, 2**15)
#: 8 MiB, larger than a core's L2 cache: gathers from it reach the
#: shared cache, where the other tenants' load shows.
_REFERENCE_TABLE = _REFERENCE_RNG.integers(0, 2**40, 2**20)
_REFERENCE_POSITIONS = _REFERENCE_RNG.integers(0, 2**20, 2**17)


def _reference_work() -> None:
    entries = {}
    for value in range(_REFERENCE_ENTRIES):
        entries[value] = (value, str(value))
    for _ in range(_REFERENCE_SORTS):
        np.sort(_REFERENCE_KEYS)
    for _ in range(_REFERENCE_GATHERS):
        _REFERENCE_TABLE[_REFERENCE_POSITIONS].sum()


def reference_loop_s() -> float:
    """Host seconds of one run of the fixed reference loop.

    Interpreted Python that allocates (the program's glue), numpy sorts
    in cache and numpy gathers from beyond it (its array work), so each
    kind of slowdown the program feels weighs in the host's speed.  An
    untimed run first refills the caches the program's last call
    evicted, so the timed run does not depend on what that call did.
    """
    _reference_work()
    started = time.perf_counter()
    _reference_work()
    return time.perf_counter() - started


def adjusted(seconds: float, loop_before: float, loop_after: float) -> float:
    """``seconds`` rescaled to the reference host speed."""
    return seconds * 2.0 * REFERENCE_S / (loop_before + loop_after)


def timed_setup(workload: Workload, seed: int):
    """Set the workload up between two reference loops.

    Returns ``(state, raw seconds, adjusted seconds, loop after)``.
    """
    before = reference_loop_s()
    started = time.perf_counter()
    state = workload.setup(seed)
    seconds = time.perf_counter() - started
    after = reference_loop_s()
    return state, seconds, adjusted(seconds, before, after), after


def tail_percentile(samples) -> Tuple[float, float, int]:
    """The highest candidate percentile with ``TAIL_BEYOND`` samples above it.

    Uses nearest-rank percentiles: percentile ``p`` of ``n`` samples is
    the ``ceil(p/100 * n)``-th smallest, and ``n - rank`` samples lie
    beyond it.  Returns ``(percentile, value, samples_beyond)``; with
    fewer than ``2 * TAIL_BEYOND`` samples no candidate qualifies and the
    median is returned with its (too small) count beyond.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    for permille in TAIL_PERMILLE:
        rank = max(1, -(-permille * n // 1000))
        if n - rank >= TAIL_BEYOND:
            break
    return permille / 10.0, ordered[rank - 1], n - rank


@dataclass
class Cycle:
    """One set-up plus one pass.

    Times are raw host seconds; the ``adjusted_*`` ones (untraced cycles
    only) are rescaled to the reference host speed.
    """

    setup_s: float
    adjusted_setup_s: float = 0.0
    item_s: List[float] = field(default_factory=list)
    adjusted_item_s: List[float] = field(default_factory=list)
    #: Reference loop times measured during the cycle.
    loop_s: List[float] = field(default_factory=list)
    fingerprints: list = field(default_factory=list)
    lookups: int = 0
    attempted: int = 0
    failed: int = 0
    model: Dict[str, float] = field(default_factory=dict)
    tracer: Optional[Tracer] = None
    #: Root span of each traced item call.
    item_roots: list = field(default_factory=list)
    setup_counts: Dict[str, float] = field(default_factory=dict)
    env_hits: int = 0

    @property
    def pass_s(self) -> float:
        return sum(self.item_s)

    @property
    def adjusted_pass_s(self) -> float:
        return sum(self.adjusted_item_s)


def _run_pass(
    workload: Workload,
    items,
    cycle: Cycle,
    reference: Optional[list],
    loop_before: Optional[float] = None,
) -> List[str]:
    """Time each item's call, then account for it before the next call.

    Without a ``reference`` this is the first pass, and each outcome is
    checked against the workload's oracle; otherwise its fingerprint must
    equal the first pass's.  With ``loop_before`` (the reference loop's
    time just before the pass) each call is also followed by a reference
    loop and its adjusted time recorded.  Returns the problems found.
    """
    problems = []
    tracer = cycle.tracer
    clock = time.perf_counter
    for position, item in enumerate(items):
        root = tracer.open(item.label, ROOT_LAYER) if tracer else None
        begun = clock()
        try:
            outcome = item.call()
        except Exception:  # a failing item is counted, not fatal
            outcome = Raised(traceback.format_exc())
        elapsed = clock() - begun
        if root is not None:
            tracer.close(root)
            cycle.item_roots.append(root)
            elapsed = root.duration
        cycle.item_s.append(elapsed)
        if loop_before is not None:
            loop_after = reference_loop_s()
            cycle.adjusted_item_s.append(adjusted(elapsed, loop_before, loop_after))
            cycle.loop_s.append(loop_after)
            loop_before = loop_after

        tally = workload.tally(item, outcome)
        cycle.attempted += tally.attempted
        cycle.failed += tally.failed
        cycle.lookups += tally.lookups
        if isinstance(outcome, Raised):
            problems.append(f"{item.label} raised:\n{outcome.error}")
            cycle.fingerprints.append(outcome)
            continue
        fingerprint = workload.fingerprint(item, outcome)
        cycle.fingerprints.append(fingerprint)
        if reference is None:
            agrees, against = workload.check(item, outcome), "its oracle"
        else:
            agrees, against = fingerprint == reference[position], "the first pass"
        if not agrees:
            cycle.failed += item.ops - tally.failed
            problems.append(f"{item.label} differs from {against}")
        del outcome  # so it is not alive during the next call
    cycle.model = workload.model(items, cycle.fingerprints)
    return problems


def run_cycle(
    workload: Workload, seed: int, tracer: Optional[Tracer] = None,
    reference: Optional[list] = None, prepare: bool = False,
) -> Tuple[Cycle, List[str]]:
    """Set up and time one pass; with a tracer, record it as spans.

    ``prepare`` runs the workload's once-per-run preparation, untimed,
    after the set-up of an untraced cycle.
    """
    if tracer is None:
        state, setup_s, adjusted_setup_s, loop_after = timed_setup(workload, seed)
        cycle = Cycle(setup_s, adjusted_setup_s, loop_s=[loop_after])
        if prepare:
            workload.prepare(state, seed)
            loop_after = reference_loop_s()
        return cycle, _run_pass(
            workload, workload.items(state), cycle, reference, loop_after
        )

    hooks.install(tracer)
    try:
        setup_root = tracer.open("setup", ROOT_LAYER)
        try:
            state = workload.setup(seed)
        finally:
            tracer.close(setup_root)
        cycle = Cycle(setup_root.duration, tracer=tracer, setup_counts=tracer.counts)
        tracer.counts = defaultdict(float)
        problems = _run_pass(workload, workload.items(state), cycle, reference)
    finally:
        tracer.restore()
    cycle.env_hits = cache.stats()["environment_hits"]
    return cycle, problems


def _median(values) -> float:
    return float(statistics.median(values))


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(cycle: Cycle, overhead_frac: float, model: Dict[str, float]):
    """Per-layer metrics of one traced cycle."""
    tracer = cycle.tracer
    setup_root = tracer.spans[0]
    roots = [span for span in tracer.spans if span.parent is None]
    if roots != [setup_root] + cycle.item_roots:
        raise RuntimeError("spans recorded outside the set-up and the item calls")
    self_times = tracer.self_times(cycle.item_roots)
    unknown = set(self_times) - set(hooks.LAYERS) - {ROOT_LAYER}
    if unknown:
        raise RuntimeError(f"spans of unknown layers: {sorted(unknown)}")
    counts = tracer.counts
    metrics = {
        "trace.pass_s": cycle.pass_s,
        "trace.setup_s": setup_root.duration,
        "trace.overhead_frac": overhead_frac,
        "unattributed.self_s": self_times.get(ROOT_LAYER, 0.0),
    }
    for layer in hooks.LAYERS:
        metrics[f"{layer}.self_s"] = self_times.get(layer, 0.0)
    accesses = counts.get("hardware.accesses", 0.0)
    replay_s = metrics["hardware.l2.self_s"] + metrics["hardware.tlb.self_s"]
    lookups = counts.get("indexes.lookups", 0.0)
    env_calls = cycle.setup_counts.get("experiments.env_calls", 0.0) + counts.get(
        "experiments.env_calls", 0.0
    )
    metrics.update(
        {
            "hardware.accesses": accesses,
            "hardware.ns_per_access": replay_s / accesses * 1e9 if accesses else 0.0,
            "gpu.lanes": counts.get("gpu.lanes", 0.0),
            "gpu.transactions": counts.get("gpu.transactions", 0.0),
            "data.keys": counts.get("data.keys", 0.0),
            "data.setup_s": tracer.self_times([setup_root]).get("data", 0.0),
            "indexes.lookups": lookups,
            "indexes.ns_per_lookup": (
                metrics["indexes.probe.self_s"] / lookups * 1e9 if lookups else 0.0
            ),
            "indexes.build_s": tracer.top_level_time("indexes.build"),
            "partition.keys": counts.get("partition.keys", 0.0),
            "experiments.env_hit_ratio": (
                cycle.env_hits / env_calls if env_calls else 0.0
            ),
            "serve.windows": counts.get("serve.windows", 0.0),
            "serve.compactions": counts.get("serve.compactions", 0.0),
        }
    )
    for name in PER_LAYER:
        if name.startswith("model."):
            metrics[name] = float(model.get(name, 0.0))
    layer_sum = metrics["unattributed.self_s"] + sum(
        metrics[f"{layer}.self_s"] for layer in hooks.LAYERS
    )
    return metrics, layer_sum


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Optional[str] = None,
) -> Tuple[dict, dict]:
    """Run one workload; returns ``(payload, result line)``."""
    tune_allocator()
    obs.disable()
    cycles_wanted = max(1, round(seconds / workload.nominal_cycle_s))
    untraced: List[Cycle] = []
    traced: List[Cycle] = []
    setup_samples: List[float] = []
    problems: List[str] = []
    reference = None
    with workload.session():
        plan = (
            [False] * cycles_wanted
            if not trace
            else [False, True] * max(1, round(cycles_wanted / 2))
        )
        for _ in range(max(0, MIN_SETUPS - plan.count(False))):
            setup_samples.append(timed_setup(workload, seed)[2])
        for number, traced_cycle in enumerate(plan):
            tracer = (
                Tracer(f"{workload.name}/seed{seed}/cycle{number}")
                if traced_cycle
                else None
            )
            cycle, found = run_cycle(
                workload, seed, tracer, reference, prepare=number == 0
            )
            problems.extend(found)
            if reference is None:
                reference = cycle.fingerprints
            if traced_cycle:
                traced.append(cycle)
            else:
                untraced.append(cycle)
                setup_samples.append(cycle.adjusted_setup_s)
    peak_rss = _peak_rss_mib()
    everything = untraced + traced
    attempted = sum(cycle.attempted for cycle in everything)
    failed = sum(cycle.failed for cycle in everything)
    item_samples = [s for cycle in untraced for s in cycle.adjusted_item_s]
    percentile, tail_s, beyond = tail_percentile(item_samples)
    end_to_end = {
        "run_s": _median([cycle.adjusted_pass_s for cycle in untraced]),
        "lookups_per_s": _median(
            [cycle.lookups / cycle.adjusted_pass_s for cycle in untraced]
        ),
        "item_p50_ms": _median(item_samples) * 1e3,
        "item_tail_ms": tail_s * 1e3,
        "setup_s": _median(setup_samples),
        "peak_rss_mib": peak_rss,
    }
    model = untraced[0].model
    loop_s = [loop for cycle in untraced for loop in cycle.loop_s]
    payload = {
        "benchmark": "perfbench",
        "workload": workload.name,
        "why": WORKLOAD_WHY.get(workload.name, ""),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "workers": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "passes": len(untraced),
        "traced_passes": len(traced),
        "items_per_pass": len(untraced[0].item_s),
        "item_samples": len(item_samples),
        "item_tail": {
            "percentile": percentile,
            "samples": len(item_samples),
            "samples_beyond": beyond,
        },
        "setup_samples": len(setup_samples),
        "reference_s": REFERENCE_S,
        "reference_loop_s": {
            "median": _median(loop_s),
            "min": min(loop_s),
            "max": max(loop_s),
            "samples": len(loop_s),
        },
        "raw": {
            "run_s": _median([cycle.pass_s for cycle in untraced]),
            "setup_s": _median([cycle.setup_s for cycle in untraced]),
        },
        "pass_s": [cycle.pass_s for cycle in untraced],
        "adjusted_pass_s": [cycle.adjusted_pass_s for cycle in untraced],
        "item_s": [cycle.item_s for cycle in untraced],
        "lookup_unit": workload.lookup_unit,
        "lookups_per_pass": untraced[0].lookups,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 0.0,
        "end_to_end": end_to_end,
        "model": model,
        "paper": {
            name: {"paper": quoted, "model": model[name]}
            for name, quoted in PAPER_REQUESTS_PER_LOOKUP_111GIB.items()
            if name in model
        },
        "problems": problems,
    }
    if trace:
        pick = sorted(traced, key=lambda cycle: cycle.pass_s)[(len(traced) - 1) // 2]
        overhead = (
            _median([c.pass_s for c in traced]) / payload["raw"]["run_s"] - 1.0
        )
        per_layer, layer_sum = layer_metrics(pick, overhead, model)
        payload["per_layer"] = per_layer
        payload["trace_check"] = {
            "layer_self_sum_s": layer_sum,
            "pass_s": per_layer["trace.pass_s"],
            "counts": dict(sorted(pick.tracer.counts.items())),
            "lookups_per_pass": untraced[0].lookups,
        }
        if out_dir:
            path = os.path.join(out_dir, f"{workload.name}-seed{seed}.spans.jsonl")
            with open(path, "w", encoding="utf-8") as handle:
                for cycle in traced:
                    cycle.tracer.write(handle)
        metrics = {
            name: {"value": per_layer[name], "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": end_to_end[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return payload, result
