"""End-to-end benchmark: register → solve → serve, one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 30 \
        --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same
workload with spans around every layer's entry points and prints the
per-layer metrics instead.  The last line of standard output is one JSON
object; the lines before it give every metric by name with its unit and
sample count, the deterministic counts (``COUNTS``) and the run's
environment (``META``).  The exit code is nonzero when any operation
failed: a refused, late or raising request, an oracle mismatch or a
``check_plan`` violation.  Settings live in ``perfbench/config.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("register-cold", "solve-deep", "serve-zipf")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def meta() -> dict:
    import numpy
    import scipy

    from repro import get_backend
    from repro.exec import available_backends

    return {
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "backend": get_backend().name,
        "numba": any(b.startswith("numba") for b in available_backends()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "switch_interval_s": sys.getswitchinterval(),
    }


def _finite(value: float) -> float:
    return value if math.isfinite(value) else sys.float_info.max


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no library source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # the benchmark fixes every library setting itself
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    config = json.loads((HERE / "config.json").read_text())
    # the load generator shares the interpreter lock with the service's
    # workers; a short switch interval keeps it close to its schedule
    # (a client in a process of its own would not wait on that lock)
    sys.setswitchinterval(config["switch_interval_s"])

    from tracing import Tracer
    from workloads import Workload

    outdir = ROOT / ".perfbench"
    workdir = outdir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        workload = Workload(args.workload, config, args.seed, args.seconds,
                            str(workdir), tracer)
        result = workload.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = workload.ops
    info = meta()
    counts = result["counts"]
    print(f"# workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    rows = result["end_to_end"]
    if args.trace:
        rows = {k: (v, u, None) for k, (v, u) in result["per_layer"].items()}
    speed = workload.speed
    print(f"# times in reference seconds: host stretch {speed.stretch:.4f} "
          f"(median of {len(speed.samples)} reference-kernel samples)")
    for name, (value, unit, samples) in rows.items():
        suffix = f"  (n={samples})" if samples is not None else ""
        print(f"{name:28s} {value:.6g} {unit}{suffix}")
    print(f"{'fail_frac':28s} {ops.failed / max(ops.attempted, 1):.6g} "
          f"ratio  (n={ops.attempted})")
    print("# not bounded (open-loop latencies in wall seconds):")
    for name, (value, unit, samples) in result["unbounded"].items():
        print(f"{name:28s} {value:.6g} {unit}  (n={samples})")
    slices = [p for rate in result["slices"].values() for p in rate]
    for phase in slices + result["rungs"]:
        print(f"  {phase.rate_rps:g} rps, {phase.duration_s:.3g} s: "
              f"{phase.attempted} sent, "
              f"p50 {phase.latency(0.5) * 1e3:.2f} ms, "
              f"p99 {phase.latency(0.99) * 1e3:.2f} ms, "
              f"backlog {phase.backlog}, "
              f"{'pass' if phase.passed else 'fail'}")
    for failure in ops.failures:
        print(f"FAILURE {failure}")
    print("COUNTS " + json.dumps(counts, sort_keys=True))
    print("META " + json.dumps(info, sort_keys=True))
    if tracer is not None:
        for kind, part in result["breakdown"].items():
            layers = "  ".join(f"{k}={v:.4f}" for k, v in
                               sorted(part["main"].items()))
            print(f"# {kind}: wall {part['wall_s']:.4f} s = {layers}")
            if part["workers"]:
                busy = "  ".join(f"{k}={v:.4f}" for k, v in
                                 sorted(part["workers"].items()))
                print(f"#   concurrent workers: {busy}")
        trace_path = outdir / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps({
            "fields": ["id", "parent", "name", "thread", "start", "end",
                       "rid"],
            "spans": tracer.spans,
            "meta": info,
        }))
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
    correct = ops.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": _finite(float(value)), "unit": unit}
                    for name, (value, unit, *_) in rows.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
