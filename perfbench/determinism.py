"""Determinism self-check: two fresh processes, one seed, equal counts.

Usage (from the repository root)::

    python3 perfbench/determinism.py --workload serve-zipf --seed 1

Runs ``perfbench/run.py`` twice, one process after the other, and
compares the ``COUNTS`` line each prints: superstep total, simulated
speed-up, dispatches per solve, plan compiles, plan-store hits and the
tuner's picks.  Exits nonzero when a run fails or the counts differ.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def counts_of(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=HERE.parent, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}):\n{proc.stdout}"
                         f"\n{proc.stderr}")
    for line in proc.stdout.splitlines():
        if line.startswith("COUNTS "):
            return json.loads(line[len("COUNTS "):])
    raise SystemExit("run printed no COUNTS line")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=4.0)
    args = parser.parse_args(argv)
    first = counts_of(args.workload, args.seed, args.seconds)
    second = counts_of(args.workload, args.seed, args.seconds)
    differing = sorted(k for k in first if first[k] != second.get(k))
    print(json.dumps({"first": first, "second": second}, sort_keys=True))
    if differing:
        print(f"NOT deterministic: {', '.join(differing)}")
        return 1
    print(f"deterministic: {args.workload} seed {args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
