"""Rendering flushed observability data: JSON reports + Prometheus text.

Pure functions over the artifacts :func:`repro.obs.flush` writes — no
registry access, so they work equally on a live snapshot or one loaded
from another machine's ``metrics.json``.  The ``repro obs`` CLI verbs
are thin wrappers over these.
"""

from __future__ import annotations

import math
import os

from repro.errors import ReproError
from repro.obs.metrics import snapshot_percentile
from repro.utils.atomic import read_json_lines, read_json_object

__all__ = ["load_dir", "prometheus_text", "report"]

#: Percentiles every report surfaces.
REPORT_QUANTILES = (0.50, 0.95, 0.99)

#: Histogram names the per-system section of :func:`report` pivots on
#: (grouped by their ``system`` label).
LATENCY_METRIC = "service.request_latency_seconds"
BATCH_METRIC = "service.batch_size"
QUEUE_WAIT_METRIC = "service.queue_wait_seconds"


def load_dir(directory: str | os.PathLike) -> tuple[dict, list[dict]]:
    """Load ``(snapshot, events)`` from an obs directory.

    ``metrics.json`` is required (a missing or torn file raises
    :class:`~repro.errors.ReproError` naming the path); ``trace.jsonl``
    is optional and yields ``[]`` when absent (torn lines are skipped).
    """
    directory = os.fspath(directory)
    metrics_path = os.path.join(directory, "metrics.json")
    trace_path = os.path.join(directory, "trace.jsonl")
    try:
        snapshot = read_json_object(
            metrics_path, ReproError, "metrics snapshot"
        )
    except FileNotFoundError:
        raise ReproError(
            f"no metrics snapshot at {metrics_path!r} — run with "
            f"REPRO_OBS=1 (or --obs-dir) so the service/suite flushes one"
        ) from None
    events = (list(read_json_lines(trace_path))
              if os.path.exists(trace_path) else [])
    return snapshot, events


def _quantiles(snap: dict) -> dict[str, float | None]:
    return {
        f"p{int(q * 100)}": snapshot_percentile(snap, q)
        for q in REPORT_QUANTILES
    }


def _hist_summary(snap: dict) -> dict[str, object]:
    out: dict[str, object] = {
        "count": snap.get("count", 0),
        "sum": snap.get("sum", 0.0),
        "min": snap.get("min"),
        "max": snap.get("max"),
    }
    out.update(_quantiles(snap))
    return out


def report(snapshot: dict, events: list[dict] | None = None) -> dict:
    """Human/CI-facing summary of a registry snapshot.

    Shape::

        {"systems": {name: {"latency": {...p50/p95/p99...},
                            "batch":   {...},
                            "queue_wait": {...}}},
         "counters": {key: value}, "gauges": {key: value},
         "histograms": {key: {count, sum, min, max, p50, p95, p99}},
         "trace": {"events": n, "by_name": {...}} }

    The ``systems`` section pivots the service's per-system latency,
    batch-size and queue-wait histograms by their ``system`` label —
    the view the acceptance criterion ("non-trivial p50/p99 per
    system") reads.
    """
    systems: dict[str, dict] = {}
    histograms: dict[str, dict] = {}
    for key, snap in snapshot.get("histograms", {}).items():
        histograms[key] = _hist_summary(snap)
        system = snap.get("labels", {}).get("system")
        if system is None:
            continue
        if snap.get("name") == LATENCY_METRIC:
            systems.setdefault(system, {})["latency"] = _hist_summary(snap)
        elif snap.get("name") == BATCH_METRIC:
            systems.setdefault(system, {})["batch"] = _hist_summary(snap)
        elif snap.get("name") == QUEUE_WAIT_METRIC:
            systems.setdefault(system, {})["queue_wait"] = _hist_summary(
                snap
            )
    out: dict[str, object] = {
        "systems": systems,
        "counters": {
            key: snap["value"]
            for key, snap in snapshot.get("counters", {}).items()
        },
        "gauges": {
            key: snap["value"]
            for key, snap in snapshot.get("gauges", {}).items()
        },
        "histograms": histograms,
    }
    if events is not None:
        by_name: dict[str, int] = {}
        for event in events:
            name = str(event.get("name"))
            by_name[name] = by_name.get(name, 0) + 1
        out["trace"] = {
            "events": len(events),
            "by_name": dict(sorted(by_name.items())),
        }
    return out


def _prom_name(name: str) -> str:
    return "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )


def _prom_labels(labels: dict[str, str], extra: str = "") -> str:
    parts = [
        f'{_prom_name(k)}="{labels[k]}"' for k in sorted(labels)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_text(snapshot: dict) -> str:
    """Render a snapshot in the Prometheus text exposition format.

    Counters become ``counter`` series, gauges ``gauge``, histograms the
    standard cumulative ``_bucket{le=...}`` / ``_sum`` / ``_count``
    triple (only non-empty buckets plus ``+Inf`` are emitted — the
    log-spaced grid is ~178 buckets, most of them zero).

    Examples
    --------
    >>> from repro.obs.metrics import MetricsRegistry
    >>> from repro.obs.export import prometheus_text
    >>> reg = MetricsRegistry()
    >>> reg.counter("cache.hits", cache="plan").inc(2)
    >>> print(prometheus_text(reg.snapshot()))
    # TYPE cache_hits counter
    cache_hits{cache="plan"} 2
    <BLANKLINE>
    """
    lines: list[str] = []
    seen_types: set[str] = set()

    def type_line(name: str, kind: str) -> None:
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for snap in snapshot.get("counters", {}).values():
        name = _prom_name(snap["name"])
        type_line(name, "counter")
        lines.append(
            f"{name}{_prom_labels(snap['labels'])} {_fmt(snap['value'])}"
        )
    for snap in snapshot.get("gauges", {}).values():
        name = _prom_name(snap["name"])
        type_line(name, "gauge")
        lines.append(
            f"{name}{_prom_labels(snap['labels'])} {_fmt(snap['value'])}"
        )
    for snap in snapshot.get("histograms", {}).values():
        name = _prom_name(snap["name"])
        type_line(name, "histogram")
        labels = snap["labels"]
        counts = snap.get("counts", {})
        n_buckets = int(snap["n_buckets"])
        # reconstruct the upper edges from the spec
        lo = float(snap["lo"])
        log_r = math.log(10.0) / int(snap["per_decade"])
        cum = 0
        for i in range(n_buckets - 1):
            c = int(counts.get(str(i), 0))
            if c == 0:
                continue
            cum += c
            edge = lo if i == 0 else math.exp(math.log(lo) + i * log_r)
            le = _prom_labels(labels, f'le="{_fmt(edge)}"')
            lines.append(f"{name}_bucket{le} {cum}")
        total = int(snap.get("count", 0))
        inf = _prom_labels(labels, 'le="+Inf"')
        lines.append(f"{name}_bucket{inf} {total}")
        lines.append(
            f"{name}_sum{_prom_labels(labels)} "
            f"{_fmt(float(snap.get('sum', 0.0)))}"
        )
        lines.append(f"{name}_count{_prom_labels(labels)} {total}")
    return "\n".join(lines) + "\n"
