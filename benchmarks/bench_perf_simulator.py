"""Perf benchmark: vectorized pass 1 vs the scalar reference (§ simulator).

Times :meth:`EBSSimulator.run_pass1` (the array path) against the same
call on the scalar per-VD/per-QP reference oracle
(``tests/oracles/pass1.py``) on a fleet-scale workload, verifies the
outputs are **bit-identical** (load grids, metric-table columns, and
column dtypes), and records the numbers in ``BENCH_simulator.json``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_perf_simulator.py --scale medium

or as a pytest smoke check (tiny scale, parity only)::

    PYTHONPATH=src:. python -m pytest benchmarks/bench_perf_simulator.py -q
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.obs.runtime import (
    TELEMETRY_SCHEMA_VERSION,
    Telemetry,
    set_telemetry,
)
from repro.obs.spans import Tracer, stage_summary
from repro.util.rng import RngFactory

try:
    from benchmarks.perf_common import (
        SCALES,
        best_of,
        build_simulation,
        merge_results,
        tables_identical,
    )
except ImportError:  # executed as a script from inside benchmarks/
    from perf_common import (
        SCALES,
        best_of,
        build_simulation,
        merge_results,
        tables_identical,
    )
    # The reference oracle lives in the test tree at the repository root.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tests.oracles.pass1 import ReferencePass1Simulator  # noqa: E402


def run_pass1_benchmark(
    scale_name: str, repeats: int = 3, seed: int = 7
) -> dict:
    """Benchmark pass 1 at one scale; returns the results payload.

    Three timed variants: the scalar reference, the fast path with
    telemetry *disabled* (the default production mode — its time is the
    perf-trajectory number, and the disabled-mode overhead budget of the
    instrumentation hooks is <= 2% against the pre-obs baseline), and the
    fast path with telemetry *enabled*.  A local tracer wraps each timed
    phase so ``BENCH_simulator.json`` carries its own span timings.
    """
    scale = SCALES[scale_name]
    tracer = Tracer()
    with tracer.span("bench.pass1.build", scale=scale_name):
        fleet, sim, traffic, qp_to_wt, seg_to_bs = build_simulation(
            scale, seed
        )
        reference = ReferencePass1Simulator(fleet, sim.config, RngFactory(seed))

    with tracer.span("bench.pass1.reference", scale=scale_name):
        ref_seconds, ref = best_of(
            lambda: reference.run_pass1(traffic, qp_to_wt, seg_to_bs),
            max(1, repeats - 1),
        )
    with tracer.span("bench.pass1.fast", scale=scale_name):
        fast_seconds, fast = best_of(
            lambda: sim.run_pass1(traffic, qp_to_wt, seg_to_bs),
            repeats,
        )

    # Enabled-mode pass: install a real telemetry handle so the hooks in
    # run_pass1 record counters/spans, and time the same work again.
    telemetry = Telemetry(enabled=True, seed=seed)
    previous = set_telemetry(telemetry)
    try:
        with tracer.span("bench.pass1.fast_telemetry", scale=scale_name):
            enabled_seconds, _ = best_of(
                lambda: sim.run_pass1(traffic, qp_to_wt, seg_to_bs),
                repeats,
            )
    finally:
        set_telemetry(previous)

    identical = (
        np.array_equal(ref[0], fast[0])       # WT load grid
        and np.array_equal(ref[1], fast[1])   # BS load grid
        and tables_identical(ref[2], fast[2])  # compute metric table
        and tables_identical(ref[3], fast[3])  # storage metric table
    )

    num_vds = len(fleet.vds)
    fleet_seconds = num_vds * scale.duration_seconds
    return {
        "scale": scale_name,
        "fleet": scale.describe(),
        "num_vds": num_vds,
        "fleet_seconds": fleet_seconds,
        "reference_seconds": round(ref_seconds, 4),
        "fast_seconds": round(fast_seconds, 4),
        "fast_seconds_telemetry": round(enabled_seconds, 4),
        "telemetry_overhead_pct": round(
            100.0 * (enabled_seconds / fast_seconds - 1.0), 1
        ),
        "speedup": round(ref_seconds / fast_seconds, 2),
        "fleet_seconds_per_second_fast": round(fleet_seconds / fast_seconds),
        "fleet_seconds_per_second_reference": round(
            fleet_seconds / ref_seconds
        ),
        "bit_identical": bool(identical),
        "telemetry": {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "stages": stage_summary(tracer.snapshot()),
            "enabled_run_stages": stage_summary(telemetry.tracer.snapshot()),
        },
    }


# -- pytest smoke (tiny scale, correctness only) -----------------------------


def test_pass1_fast_matches_reference_smoke():
    payload = run_pass1_benchmark("tiny", repeats=1)
    assert payload["bit_identical"]
    assert payload["fast_seconds"] > 0.0
    stages = {s["name"] for s in payload["telemetry"]["stages"]}
    assert {"bench.pass1.reference", "bench.pass1.fast"} <= stages
    # The enabled-mode run must have recorded pass-1 spans of its own.
    enabled = {s["name"] for s in payload["telemetry"]["enabled_run_stages"]}
    assert "sim.pass1" in enabled


# -- CLI ---------------------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default="medium",
        help="benchmark fleet size (default: medium)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="repetitions per path; the best time is kept (default: 3)",
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

    payload = run_pass1_benchmark(args.scale, args.repeats, args.seed)
    print(
        f"pass 1 [{args.scale}]: reference {payload['reference_seconds']}s, "
        f"fast {payload['fast_seconds']}s -> {payload['speedup']}x, "
        f"telemetry-enabled {payload['fast_seconds_telemetry']}s "
        f"({payload['telemetry_overhead_pct']:+.1f}%), "
        f"bit_identical={payload['bit_identical']}, "
        f"{payload['fleet_seconds_per_second_fast']:,} fleet-seconds/s"
    )
    if not payload["bit_identical"]:
        raise SystemExit("FAIL: fast pass 1 diverged from the reference")
    if (
        args.assert_telemetry_overhead is not None
        and payload["telemetry_overhead_pct"] > args.assert_telemetry_overhead
    ):
        raise SystemExit(
            f"FAIL: telemetry overhead {payload['telemetry_overhead_pct']}% "
            f"exceeds the {args.assert_telemetry_overhead}% budget"
        )
    if not args.no_write:
        merge_results("simulator_pass1", payload)


if __name__ == "__main__":
    main()
