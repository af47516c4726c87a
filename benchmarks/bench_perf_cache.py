"""Perf benchmark: array-based cache replay vs the scalar reference (§7).

Replays every eligible VD's trace through the three paper cache policies
(FIFO / LRU / frozen) at the three paper cache sizes (64 MiB / 512 MiB /
2 GiB), once through the scalar :func:`repro.cache.simulate.replay_trace`
reference (one :meth:`Cache.access` call per IO) and once through the
shared-preparation fast path (:func:`repro.cache.fastreplay.replay_many`).
Hit ratios must match **exactly**; the timings and throughput go into
``BENCH_simulator.json``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_perf_cache.py --scale medium

or as a pytest smoke check (tiny scale, parity only)::

    PYTHONPATH=src:. python -m pytest benchmarks/bench_perf_cache.py -q
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.cache.fastreplay import (
    pages_in_time_order,
    prepare_pages,
    replay_many,
)
from repro.cache.fifo import FifoCache
from repro.cache.frozen import FrozenCache
from repro.cache.hotspot import hottest_block
from repro.cache.lru import LruCache
from repro.cache.simulate import PAGE_BYTES, replay_trace
from repro.core.config import StudyConfig
from repro.obs.runtime import (
    TELEMETRY_SCHEMA_VERSION,
    Telemetry,
    set_telemetry,
)
from repro.obs.spans import Tracer, stage_summary

try:
    from benchmarks.perf_common import SCALES, merge_results, simulate_fleet
except ImportError:  # executed as a script from inside benchmarks/
    from perf_common import SCALES, merge_results, simulate_fleet

#: A VD participates once it has this many traced IOs (the study proper
#: uses a stricter cutoff for *statistics*; for replay timing a shorter
#: stream is still a valid workload).
MIN_TRACED_IOS = 64


def _policy_caches(block, block_bytes: int):
    capacity_pages = max(1, block_bytes // PAGE_BYTES)
    return {
        "fifo": FifoCache(capacity_pages),
        "lru": LruCache(capacity_pages),
        "frozen": FrozenCache.for_byte_range(
            block.start_byte, block.block_bytes, PAGE_BYTES
        ),
    }


def run_cache_benchmark(scale_name: str, seed: int = 7) -> dict:
    """Benchmark cache replay at one scale; returns the results payload.

    Three timed variants, as in the simulator benchmark: the scalar
    reference, the fast path with telemetry *disabled* (the production
    mode whose time is the perf-trajectory number), and the fast path
    with telemetry *enabled* (captures the ``cache.replay.*`` /
    ``cache.prepared.*`` counters and the enabled-mode overhead).  A
    local tracer wraps each timed phase so ``BENCH_simulator.json``
    carries its own span timings.
    """
    scale = SCALES[scale_name]
    block_sizes = StudyConfig().cache_block_bytes
    tracer = Tracer()
    with tracer.span("bench.cache.build", scale=scale_name):
        fleet, result = simulate_fleet(scale, seed)

    ids, counts = np.unique(result.traces.vd_id, return_counts=True)
    eligible = [
        int(vd) for vd, count in zip(ids, counts) if count >= MIN_TRACED_IOS
    ]

    # Shared inputs (identical for all paths): each eligible VD's trace
    # slice and the frozen cache's anchor block per size.  No path's
    # timing includes this preparation.
    workload = []
    with tracer.span("bench.cache.prepare", scale=scale_name):
        for vd_id in eligible:
            vd_traces = result.traces.for_vd(vd_id)
            capacity_bytes = fleet.vds[vd_id].capacity_bytes
            blocks = {
                block_bytes: hottest_block(
                    result.traces, vd_id, block_bytes, capacity_bytes
                )
                for block_bytes in block_sizes
            }
            workload.append((vd_traces, blocks))

    def run_scalar() -> list:
        return [
            {
                block_bytes: {
                    name: replay_trace(cache, vd_traces)
                    for name, cache in _policy_caches(
                        blocks[block_bytes], block_bytes
                    ).items()
                }
                for block_bytes in block_sizes
            }
            for vd_traces, blocks in workload
        ]

    def run_fast() -> list:
        out = []
        for vd_traces, blocks in workload:
            prepared = prepare_pages(pages_in_time_order(vd_traces))
            out.append(
                {
                    block_bytes: replay_many(
                        _policy_caches(blocks[block_bytes], block_bytes),
                        vd_traces,
                        prepared,
                    )
                    for block_bytes in block_sizes
                }
            )
        return out

    with tracer.span("bench.cache.scalar", scale=scale_name):
        start = time.perf_counter()
        slow_results = run_scalar()
        slow_seconds = time.perf_counter() - start

    with tracer.span("bench.cache.fast", scale=scale_name):
        start = time.perf_counter()
        fast_results = run_fast()
        fast_seconds = time.perf_counter() - start

    # Enabled-mode pass: install a real telemetry handle so the replay
    # hooks in repro.cache.fastreplay record their counters, and time
    # the same work again.
    telemetry = Telemetry(enabled=True, seed=seed)
    previous = set_telemetry(telemetry)
    try:
        with tracer.span("bench.cache.fast_telemetry", scale=scale_name):
            start = time.perf_counter()
            run_fast()
            enabled_seconds = time.perf_counter() - start
    finally:
        set_telemetry(previous)

    replayed_ios = (
        sum(len(vd_traces) for vd_traces, _ in workload)
        * len(block_sizes)
        * 3
    )
    mismatches = 0
    for slow, fast in zip(slow_results, fast_results):
        for block_bytes in block_sizes:
            for name in slow[block_bytes]:
                if slow[block_bytes][name] != fast[block_bytes][name]:
                    mismatches += 1

    return {
        "scale": scale_name,
        "fleet": scale.describe(),
        "trace_sampling_rate": scale.simulation_config().trace_sampling_rate,
        "eligible_vds": len(eligible),
        "min_traced_ios": MIN_TRACED_IOS,
        "block_bytes": list(block_sizes),
        "policies": ["fifo", "lru", "frozen"],
        "replayed_ios": replayed_ios,
        "scalar_seconds": round(slow_seconds, 4),
        "fast_seconds": round(fast_seconds, 4),
        "fast_seconds_telemetry": round(enabled_seconds, 4),
        "telemetry_overhead_pct": round(
            100.0 * (enabled_seconds / fast_seconds - 1.0), 1
        ),
        "speedup": round(slow_seconds / fast_seconds, 2),
        "ios_per_second_fast": round(replayed_ios / fast_seconds),
        "ios_per_second_scalar": round(replayed_ios / slow_seconds),
        "hit_ratio_mismatches": mismatches,
        "hit_ratio_parity": mismatches == 0,
        "telemetry": {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "stages": stage_summary(tracer.snapshot()),
            "enabled_run_counters": telemetry.registry.snapshot()[
                "counters"
            ],
        },
    }


# -- pytest smoke (tiny scale, correctness only) -----------------------------


def test_cache_replay_fast_matches_scalar_smoke():
    payload = run_cache_benchmark("tiny")
    assert payload["hit_ratio_parity"]
    assert payload["eligible_vds"] > 0
    assert payload["fast_seconds"] > 0.0
    stages = {s["name"] for s in payload["telemetry"]["stages"]}
    assert {"bench.cache.scalar", "bench.cache.fast"} <= stages
    # The enabled-mode run must have recorded the fast-replay counters.
    counters = {
        c["name"] for c in payload["telemetry"]["enabled_run_counters"]
    }
    assert "cache.replay.fast" in counters
    # The bench pre-builds PreparedPages once per VD and shares it across
    # the three cache sizes, so the replay hook sees reuse, not builds.
    assert "cache.prepared.reuse" in counters


# -- CLI ---------------------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default="medium",
        help="benchmark fleet size (default: medium)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--no-write", action="store_true",
        help="print results without updating BENCH_simulator.json",
    )
    parser.add_argument(
        "--assert-telemetry-overhead", type=float, default=None,
        metavar="PCT",
        help="exit non-zero if enabled-mode telemetry slows the fast path "
        "by more than PCT percent (CI guard; disabled-mode overhead is "
        "the fast_seconds trajectory itself)",
    )
    args = parser.parse_args()

    payload = run_cache_benchmark(args.scale, args.seed)
    print(
        f"cache replay [{args.scale}]: scalar {payload['scalar_seconds']}s, "
        f"fast {payload['fast_seconds']}s -> {payload['speedup']}x over "
        f"{payload['eligible_vds']} VDs / {payload['replayed_ios']:,} "
        f"replayed IOs, telemetry-enabled "
        f"{payload['fast_seconds_telemetry']}s "
        f"({payload['telemetry_overhead_pct']:+.1f}%), "
        f"parity={payload['hit_ratio_parity']}, "
        f"{payload['ios_per_second_fast']:,} IOs/s"
    )
    if not payload["hit_ratio_parity"]:
        raise SystemExit("FAIL: fast replay diverged from the scalar path")
    if (
        args.assert_telemetry_overhead is not None
        and payload["telemetry_overhead_pct"] > args.assert_telemetry_overhead
    ):
        raise SystemExit(
            f"FAIL: telemetry overhead {payload['telemetry_overhead_pct']}% "
            f"exceeds the {args.assert_telemetry_overhead}% budget"
        )
    if not args.no_write:
        merge_results("cache_replay", payload)


if __name__ == "__main__":
    main()
