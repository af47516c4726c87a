"""Metric names, units, and the per-layer metrics of a traced unit.

``BENCHMARK.json`` lists the same names; ``tests/test_metrics.py`` keeps
the two in step.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from tracer import Span, ledger, self_times

#: (name, unit, better) of every end-to-end metric (tracing off).
END_TO_END: List[Tuple[str, str, str]] = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
]

#: Layers whose self time is reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = (
    "balancer.wt", "balancer.dispatch", "balancer.interbs", "cluster.gc",
    "cache", "balance", "throttle", "prediction", "stats", "core",
    "workload", "cluster.pass1", "cluster.pass2", "faults",
    "cluster.redundancy", "engine.merge", "engine.digest",
)
LIVE_STAGES = ("inject", "stats", "policy")


def per_layer_names(experiment_ids: Iterable[str]) -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric."""
    names = [(f"{layer}.self_s", "s", "lower") for layer in SELF_TIME_LAYERS]
    names += [
        ("cache.pages_per_s", "1/s", "higher"),
        ("workload.vd_s_per_s", "1/s", "higher"),
        ("cluster.pass1.fleet_s_per_s", "1/s", "higher"),
        ("cluster.pass2.trace_rows_per_s", "1/s", "higher"),
        ("engine.shards.write_s", "s", "lower"),
        ("engine.shards.read_s", "s", "lower"),
        ("engine.shards.write_bytes", "B", "lower"),
        ("engine.shards.read_bytes", "B", "lower"),
        ("trace.io.write_s", "s", "lower"),
        ("trace.io.read_s", "s", "lower"),
        ("trace.io.write_rows_per_s", "1/s", "higher"),
        ("trace.io.read_rows_per_s", "1/s", "higher"),
        ("trace.io.write_bytes", "B", "lower"),
        ("trace.io.read_bytes", "B", "lower"),
    ]
    for stage in LIVE_STAGES:
        names += [
            (f"live.{stage}.busy_s", "s", "lower"),
            (f"live.{stage}.busy_frac", "ratio", "lower"),
        ]
    names += [
        ("live.events.ring_max_depth", "count", "lower"),
        ("live_events_per_s", "1/s", "higher"),
        ("live_window_lag_p50_ms", "ms", "lower"),
        ("live_window_lag_p99_ms", "ms", "lower"),
        ("live_window_lag_samples", "count", "higher"),
        ("live_generator_late_p99_ms", "ms", "lower"),
        ("unattributed_frac", "ratio", "lower"),
        ("tracing.overhead_frac", "ratio", "lower"),
        ("failed_frac", "ratio", "lower"),
    ]
    names += [
        (f"experiment.{experiment_id}.wall_s", "s", "lower")
        for experiment_id in experiment_ids
    ]
    return names


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def per_layer(
    spans: List[Span],
    wall: float,
    thread: int,
    counters: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics of one traced unit (figures and health aside).

    Self times come from the spans ``thread`` recorded, so with the
    unattributed time they add up to ``wall``; the live stages run on
    their own threads and report busy time instead.
    """
    book = ledger(spans, wall, thread)
    layers = book["layers"]
    own = self_times(spans)
    out = {
        f"{layer}.self_s": layers.get(layer, 0.0)
        for layer in SELF_TIME_LAYERS
    }
    replay = sum(
        span.duration for span in spans
        if span.name == "repro.cache.fastreplay.replay_many"
    )
    fleet_s = counters.get("cluster.fleet_s", 0.0)
    write_s = layers.get("trace.io.write", 0.0)
    read_s = layers.get("trace.io.read", 0.0)
    out.update({
        "cache.pages_per_s": _rate(counters.get("cache.ios", 0.0), replay),
        "workload.vd_s_per_s": _rate(fleet_s, layers.get("workload", 0.0)),
        "cluster.pass1.fleet_s_per_s": _rate(
            fleet_s, layers.get("cluster.pass1", 0.0)
        ),
        "cluster.pass2.trace_rows_per_s": _rate(
            counters.get("cluster.trace_rows", 0.0),
            layers.get("cluster.pass2", 0.0),
        ),
        "engine.shards.write_s": layers.get("engine.shards.write", 0.0),
        "engine.shards.read_s": layers.get("engine.shards.read", 0.0),
        "engine.shards.write_bytes": counters.get(
            "engine.shards.write_bytes", 0.0
        ),
        "engine.shards.read_bytes": counters.get(
            "engine.shards.read_bytes", 0.0
        ),
        "trace.io.write_s": write_s,
        "trace.io.read_s": read_s,
        "trace.io.write_rows_per_s": _rate(
            counters.get("trace.io.write_rows", 0.0), write_s
        ),
        "trace.io.read_rows_per_s": _rate(
            counters.get("trace.io.read_rows", 0.0), read_s
        ),
        "trace.io.write_bytes": counters.get("trace.io.write_bytes", 0.0),
        "trace.io.read_bytes": counters.get("trace.io.read_bytes", 0.0),
        "unattributed_frac": _rate(book["unattributed_s"], wall),
    })
    for stage in LIVE_STAGES:
        busy = sum(
            own[span.id] for span in spans if span.layer == f"live.{stage}"
        )
        out[f"live.{stage}.busy_s"] = busy
        out[f"live.{stage}.busy_frac"] = _rate(busy, wall)
    for span in spans:
        if span.name.startswith("experiment."):
            key = f"{span.name}.wall_s"
            out[key] = out.get(key, 0.0) + span.duration
    return out
