"""Command line of the repository benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload tune --seed 1 --seconds 24 --trace 0

It builds the job list from ``--seed``, runs it as a closed loop for about
``--seconds`` seconds, checks every output, prints a table and, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  It exits 1 when any job fails or any output
check fails, and 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tune", "tune-warm", "grid")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        from perfbench.bench import END_TO_END, PER_LAYER, run_workload
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2

    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{out['attempted']} jobs, {out['failed']} failed, "
        f"error_rate={out['failed'] / out['attempted']:.3f}"
    )
    for name in units:
        metric = out["metrics"].get(name)
        if metric is not None:
            print(f"  {name:<30} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
