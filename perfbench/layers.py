"""Which functions make up each layer, and what each layer counts.

Every entry names a patch point in the program (``module:function``,
``module:Class.method`` or ``module:*`` for every public plain function
of a module).  The traced run wraps them all; the per-layer metrics in
``BENCHMARK.json`` are computed from the spans and counters these
wrappers record.  Functions of a layer that are called once per IO or
per period inside another layer's loop are left out on purpose: their
time stays in the caller's self time, and wrapping them would cost more
than the work they do.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List

import numpy as np

from tracer import Target


def _nbytes(value: Any) -> int:
    """Bytes held by the arrays in a result (tuples, lists, objects)."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (list, tuple)):
        return sum(_nbytes(item) for item in value)
    if hasattr(value, "__dict__"):
        return sum(
            int(item.nbytes)
            for item in vars(value).values()
            if isinstance(item, np.ndarray)
        )
    return 0


def _fleet_seconds(args, kwargs, result) -> Dict[str, float]:
    sim = args[0]
    inner = getattr(sim, "_sim", sim)  # StreamingSimulator wraps one
    vds = len(inner.fleet.vds)
    return {
        "cluster.fleet_s": float(vds * inner.config.duration_seconds),
        "cluster.trace_rows": float(len(result.traces)),
    }


def _store_written(args, kwargs, result) -> Dict[str, float]:
    store = args[0]
    size = sum(
        entry.stat().st_size
        for entry in os.scandir(store.directory)
        if entry.is_file()
    )
    return {"engine.shards.write_bytes": float(size)}


def _store_read(args, kwargs, result) -> Dict[str, float]:
    return {"engine.shards.read_bytes": float(_nbytes(result))}


def _file_written(args, kwargs, result) -> Dict[str, float]:
    table, path = args[0], args[1]
    return {
        "trace.io.write_rows": float(len(table)),
        "trace.io.write_bytes": float(os.path.getsize(path)),
    }


def _file_read(args, kwargs, result) -> Dict[str, float]:
    return {
        "trace.io.read_rows": float(len(result)),
        "trace.io.read_bytes": float(os.path.getsize(args[0])),
    }


def _ios_replayed(args, kwargs, result) -> Dict[str, float]:
    # One call replays the trace's IOs through every cache at once, which
    # ``bench_perf_cache`` counts as replaying them once.
    return {"cache.ios": float(len(args[1]))}


def _experiment_label(args, kwargs) -> str:
    experiment_id = args[1] if len(args) > 1 else kwargs["experiment_id"]
    return f"experiment.{experiment_id}"


SIM = "repro.cluster.simulator"

#: Layer name -> patch points.  Layer names are the metric prefixes.
LAYERS: Dict[str, List[Target]] = {
    "core": [
        Target("repro.core.study:Study.run", "core",
               label=_experiment_label),
        Target("repro.core.study:Study.build", "core"),
    ],
    "workload": [
        Target("repro.workload.fleet:build_fleet", "workload"),
        Target("repro.workload.generator:WorkloadGenerator.generate_all",
               "workload"),
        Target("repro.workload.generator:WorkloadGenerator.generate_vd",
               "workload"),
    ],
    "cluster.pass1": [
        Target(f"{SIM}:EBSSimulator.run_pass1", "cluster.pass1"),
        Target(f"{SIM}:EBSSimulator._pass1_fast", "cluster.pass1"),
    ],
    "cluster.pass2": [
        Target(f"{SIM}:EBSSimulator.run", "cluster.pass2",
               counter=_fleet_seconds),
        Target("repro.engine.executor:StreamingSimulator.run",
               "cluster.pass2", counter=_fleet_seconds),
    ],
    "faults": [
        Target(f"{SIM}:EBSSimulator.fault_adjusted_inputs", "faults"),
    ],
    "cluster.redundancy": [
        Target(f"{SIM}:EBSSimulator.prepare_redundancy",
               "cluster.redundancy"),
    ],
    "cluster.gc": [Target("repro.cluster.gc:*", "cluster.gc")],
    "engine.shards.write": [
        Target("repro.engine.shards:ShardStore.spill_batch",
               "engine.shards.write"),
        Target("repro.engine.shards:ShardStore.finalize",
               "engine.shards.write", counter=_store_written),
    ],
    # Bytes are counted at the leaf reads only: ``materialize`` reads
    # through ``traffic_batch``, so counting it too would count twice.
    "engine.shards.read": [
        Target(f"repro.engine.shards:ShardStore.{method}",
               "engine.shards.read", counter=_store_read)
        for method in ("series_for_shard", "traffic_batch", "stacked_weights")
    ] + [
        Target("repro.engine.shards:ShardStore.materialize",
               "engine.shards.read"),
    ],
    "engine.merge": [
        Target("repro.engine.merge:merge_shard_parts", "engine.merge"),
    ],
    "engine.digest": [
        Target("repro.engine.digest:result_digest", "engine.digest"),
    ],
    "trace.io.write": [
        Target("repro.trace.io:write_trace_jsonl", "trace.io.write",
               counter=_file_written),
        Target("repro.trace.io:write_metric_csv", "trace.io.write",
               counter=_file_written),
    ],
    "trace.io.read": [
        Target("repro.trace.io:read_trace_jsonl", "trace.io.read",
               counter=_file_read),
        Target("repro.trace.io:read_metric_csv", "trace.io.read",
               counter=_file_read),
    ],
    "balancer.wt": [Target("repro.balancer.wt:*", "balancer.wt")],
    "balancer.dispatch": [
        Target("repro.balancer.dispatch:*", "balancer.dispatch"),
    ],
    "balancer.interbs": [
        Target("repro.balancer.interbs:*", "balancer.interbs"),
        Target("repro.balancer.interbs:InterBsBalancer.run",
               "balancer.interbs"),
        Target("repro.balancer.importer:make_importer", "balancer.interbs"),
    ],
    "cache": [
        Target("repro.cache.simulate:*", "cache"),
        Target("repro.cache.hotspot:*", "cache"),
        Target("repro.cache.placement:*", "cache"),
        Target("repro.cache.fastreplay:replay_many", "cache",
               counter=_ios_replayed),
    ],
    "balance": [
        Target("repro.balance.descent:plan_moves", "balance"),
        Target("repro.balance.trigger:fixed_trigger_plan", "balance"),
        Target("repro.balance.score:dimension_covs", "balance"),
        Target("repro.balance.state:state_summary", "balance"),
    ],
    "throttle": [
        Target("repro.throttle.caps:*", "throttle"),
        Target("repro.throttle.lending:*", "throttle"),
        Target("repro.throttle.metrics:*", "throttle"),
        Target("repro.throttle.tokenbucket:shape_vd_traffic", "throttle"),
    ],
    "prediction": [Target("repro.prediction.evaluate:*", "prediction")],
    "stats": [
        Target(f"repro.stats.{module}:*", "stats")
        for module in (
            "skewness", "ratios", "distributions", "iostats", "aggregation",
        )
    ],
    "live.inject": [
        Target("repro.live.injector:TraceInjector.run", "live.inject"),
    ],
    "live.stats": [
        Target("repro.live.windowing:RollingSkewTracker.observe",
               "live.stats"),
        Target("repro.live.windowing:RollingSkewTracker.finish",
               "live.stats"),
        Target("repro.live.sketches:SpaceSaving.update_many", "live.stats"),
    ],
    "live.policy": [
        Target("repro.live.policy:OnlinePolicyEngine.on_window",
               "live.policy"),
    ],
    "live.wait": [
        Target("repro.live.ring:RingBuffer.put", "live.wait"),
        Target("repro.live.ring:RingBuffer.get", "live.wait"),
    ],
    "live.pipeline": [
        Target("repro.live.pipeline:LivePipeline.run", "live.pipeline"),
    ],
}


def all_targets() -> List[Target]:
    return [target for targets in LAYERS.values() for target in targets]
