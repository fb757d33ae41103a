"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload r-sweep --seed 42 --seconds 25 --trace 0

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  The full payload, and with
``--trace 1`` the recorded spans, are written to ``perfbench/out/``.
The exit code is 0 only when every operation succeeded and every check
passed.  The workloads and metrics are those ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**31:
        parser.error(f"--seed must be in [0, 2^31), got {args.seed}")
    if args.seconds <= 0:
        parser.error(f"--seconds must be positive, got {args.seconds}")
    return args


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: the program source {SRC / 'repro'} is missing; "
            "run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    # The benchmark measures the program's default configuration: drop
    # switches (tracing, JIT, checkpointing) an outer shell may have set.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(SRC))

    from harness import END_TO_END, PER_LAYER, WORKLOAD_WHY, run_workload
    from workloads import WORKLOADS

    args = parse_args(argv, list(WORKLOAD_WHY))
    workload = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    payload, result = run_workload(
        workload, args.seed, args.seconds, bool(args.trace), out_dir=str(OUT)
    )
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")

    for problem in payload["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(
        f"{args.workload}: seed {args.seed}, {payload['passes']} untraced + "
        f"{payload['traced_passes']} traced passes of "
        f"{payload['items_per_pass']} items, cpu_count={payload['cpu_count']}, "
        f"workers={payload['workers']}"
    )
    for name, unit in END_TO_END.items():
        print(f"  {name:<44} {payload['end_to_end'][name]:>16.6g} {unit}")
    print(f"  {'failed_frac':<44} {payload['failed_frac']:>16.6g} ratio")
    tail = payload["item_tail"]
    print(
        f"  item_tail_ms is p{tail['percentile']:g} of {tail['samples']} "
        f"items ({tail['samples_beyond']} beyond it)"
    )
    for name, quoted in payload["paper"].items():
        print(f"  {name}: model {quoted['model']}, paper {quoted['paper']}")
    if args.trace:
        for name, unit in PER_LAYER.items():
            print(f"  {name:<44} {payload['per_layer'][name]:>16.6g} {unit}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
