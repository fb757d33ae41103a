"""Tests of the benchmark itself: smoke runs, tracing hygiene, rules.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import hooks
from spans import Tracer
from workloads import WORKLOADS, Item, Workload, knn_oracle, tiny

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_is_correct_and_complete(name, trace):
    payload, result = harness.run_workload(tiny(name), seed=7, seconds=0.01, trace=trace)
    assert result["correct"], payload["problems"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert list(result["metrics"]) == list(expected)
    for name_, metric in result["metrics"].items():
        assert metric["unit"] == expected[name_]
    if trace:
        check = payload["trace_check"]
        assert check["layer_self_sum_s"] == pytest.approx(check["pass_s"], rel=1e-9)
        assert result["metrics"]["trace.pass_s"]["value"] > 0
        if name in ("r-sweep", "skew-window"):
            # lookups_per_s counts exactly the lookups the simulator traces.
            assert check["counts"]["indexes.traced_lookups"] == check["lookups_per_pass"]
    else:
        for metric in result["metrics"].values():
            assert metric["value"] > 0


def test_traced_cycle_restores_every_wrapped_function():
    probe = Tracer("probe")
    hooks.install(probe)
    targets = probe.patched_targets()
    replaced = [getattr(owner, attr) is not original for owner, attr, original in targets]
    probe.restore()
    assert len(targets) > 40 and all(replaced)

    def current(owner, attr):
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    assert all(current(owner, attr) is original for owner, attr, original in targets)
    tracer = Tracer("restore-test")
    harness.run_cycle(tiny("serve-mixed"), 7, tracer)
    assert tracer.spans, "the traced cycle recorded nothing"
    assert not tracer.patched_targets()
    assert all(current(owner, attr) is original for owner, attr, original in targets)


def test_self_times_subtract_child_spans():
    tracer = Tracer("unit")
    root = tracer.open("pass", "unattributed")
    outer = tracer.open("outer", "join")
    inner = tracer.open("inner", "data")
    tracer.close(inner)
    tracer.close(outer)
    tracer.close(root)
    times = tracer.self_times([root])
    assert times["data"] == inner.duration
    assert times["join"] == pytest.approx(outer.duration - inner.duration)
    assert sum(times.values()) == pytest.approx(root.duration)


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [(10, 50.0, 5), (20, 50.0, 10), (39, 50.0, 19), (40, 75.0, 10),
     (99, 75.0, 24), (100, 90.0, 10), (199, 90.0, 19), (200, 95.0, 10),
     (1000, 99.0, 10), (10000, 99.9, 10)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, percentile, beyond):
    samples = list(np.random.default_rng(n).permutation(n).astype(float))
    got_percentile, value, got_beyond = harness.tail_percentile(samples)
    assert (got_percentile, got_beyond) == (percentile, beyond)
    assert sum(sample > value for sample in samples) == got_beyond


def test_adjusted_times_are_rescaled_to_the_reference_loop():
    reference = harness.REFERENCE_S
    assert harness.adjusted(1.0, reference, reference) == pytest.approx(1.0)
    # On a host running at half speed the loop takes twice as long.
    assert harness.adjusted(2.0, 2 * reference, 2 * reference) == pytest.approx(1.0)
    assert harness.adjusted(1.0, reference, 3 * reference) == pytest.approx(0.5)


def test_untraced_items_lie_between_reference_loops():
    payload, _ = harness.run_workload(_Flaky(), seed=1, seconds=2.0, trace=False)
    # One loop after each set-up and one after each of the four items.
    assert payload["reference_loop_s"]["samples"] == payload["passes"] * 5
    assert payload["reference_loop_s"]["min"] > 0
    assert [len(items) for items in payload["item_s"]] == [4] * payload["passes"]


def test_knn_oracle_breaks_ties_toward_the_smaller_key():
    keys = np.array([10, 20, 30, 40], dtype=np.uint64)
    result = knn_oracle(keys, np.array([15, 40, 0], dtype=np.uint64), k=2)
    assert result.build_positions.reshape(3, 2).tolist() == [[0, 1], [3, 2], [0, 1]]


class _Flaky(Workload):
    """A workload with an item its oracle rejects, one whose second pass
    disagrees, and one that raises."""

    name = "flaky"
    nominal_cycle_s = 1.0

    def __init__(self):
        self.passes = 0

    def setup(self, seed):
        self.passes += 1
        return self.passes

    def items(self, state):
        def fail():
            raise RuntimeError("boom")

        return [
            Item("stable", lambda: 1),
            Item("wrong", lambda: 0),
            Item("drifts", lambda: state),
            Item("raises", fail),
        ]

    def lookups(self, item, outcome):
        return 1

    def fingerprint(self, item, outcome):
        return outcome

    def check(self, item, outcome):
        return item.label != "wrong"


def test_failures_and_disagreements_are_counted():
    payload, result = harness.run_workload(_Flaky(), seed=1, seconds=2.0, trace=False)
    # Two passes of four items: the first "wrong" fails its oracle, both
    # "raises" fail, and the second "drifts" differs from the first pass.
    assert result["attempted"] == 8
    assert result["failed"] == 4
    assert not result["correct"]
    problems = payload["problems"]
    assert sum("wrong differs from its oracle" in p for p in problems) == 1
    assert sum("drifts differs from the first pass" in p for p in problems) == 1


def test_without_the_program_the_command_fails_quietly(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "r-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
