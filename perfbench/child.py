"""One workload in one fresh process; ``run.py`` starts it.

Modes:

- ``setup``: set up and exit, reporting the set-up time only;
- ``measure``: set up, then repeat the workload's unit until
  ``--seconds`` have passed (always at least once), then check the
  outputs;
- ``traced``: set up, run one unit untraced, wrap every layer (see
  ``layers.py``), run one traced unit (and, for short units, one more
  untraced unit), require byte-identical outputs, check them, and write
  the spans out.

Set-up time runs from ``--t0`` (the parent's monotonic clock just before
it started this interpreter) to inputs being ready.  The result is one
JSON object written to ``--out``; an exception the program raises, in
set-up too, is recorded there as ``error``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, Outcome


#: A traced run whose untraced unit took less than this times a second,
#: warm, untraced unit for the overhead figure (cold-start costs are a
#: larger share of short units).
REWARM_BELOW_S = 20.0


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_unit(workload, phase=lambda name: None) -> "tuple[float, Outcome]":
    workload.settle()
    start = time.perf_counter()
    outcome = workload.unit(phase)
    wall = time.perf_counter() - start
    return (outcome.wall_s if outcome.wall_s is not None else wall), outcome


def _checks(workload, outcome: Outcome) -> list:
    return [vars(check) for check in workload.check(outcome)]


def measure(workload, seconds: float) -> dict:
    walls, outcomes = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, outcome = _timed_unit(workload)
        walls.append(wall)
        outcomes.append(outcome)
        if len(walls) == 1:
            # Later units start from the heap the first one left, so
            # their peak depends on how many fit; report the first's.
            peak = _peak_rss_mib()
    checks = _checks(workload, outcomes[0])
    checks.append({
        "name": "every unit produced the same outputs",
        "ok": all(o.outputs == outcomes[0].outputs for o in outcomes),
        "detail": f"{len(outcomes)} unit(s)",
    })
    figures = {
        name: statistics.median(o.figures[name] for o in outcomes)
        for name in outcomes[0].figures
    }
    return {
        "unit_walls_s": walls,
        "peak_rss_mib": peak,
        "figures": figures,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "checks": checks,
        "outputs": outcomes[0].outputs,
    }


def traced(workload, spans_path: Path) -> dict:
    import layers
    import metrics
    import tracer

    plain_wall, plain = _timed_unit(workload)
    attempted, failed = plain.attempted, plain.failed
    recorder = tracer.Recorder()
    patch = tracer.install(recorder, layers.all_targets())

    def phase(name: str) -> None:
        recorder.run = name

    phase("unit")
    try:
        traced_wall, outcome = _timed_unit(workload, phase)
    finally:
        patch.undo()
    if plain_wall < REWARM_BELOW_S:
        # The first unit also pays for lazy imports and first-touch
        # memory; time a warm untraced unit to compare the traced one to.
        plain_wall, plain = _timed_unit(workload)
        attempted, failed = attempted + plain.attempted, failed + plain.failed
    checks = _checks(workload, plain)
    checks.append({
        "name": "traced outputs equal untraced outputs",
        "ok": outcome.outputs == plain.outputs,
        "detail": f"{outcome.outputs} vs {plain.outputs}",
    })
    with spans_path.open("w") as handle:
        for span in recorder.spans:
            handle.write(json.dumps(span.to_dict()) + "\n")
    # The ledger covers the timed region on this thread: the whole unit,
    # or for the live plane its max-rate run (the paced run sleeps).
    run = "max" if "max" in {s.run for s in recorder.spans} else "unit"
    counters = {
        name: value for (span_run, name), value in recorder.counters.items()
        if span_run == run
    }
    return {
        "plain_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "per_layer": metrics.per_layer(
            [span for span in recorder.spans if span.run == run],
            traced_wall,
            threading.get_ident(),
            counters,
        ),
        "figures": plain.figures,
        "attempted": attempted + outcome.attempted,
        "failed": failed + outcome.failed,
        "checks": checks,
        "outputs": plain.outputs,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--data-seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "traced"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    # One CPU for the whole process: the live plane's stage threads then
    # hand the interpreter lock over on one core, so a run does not slow
    # down whenever the host deschedules the other virtual CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result = {}
    try:
        workload = WORKLOADS[args.workload](
            args.seed, args.data_seed, args.workdir,
            traced=args.mode == "traced",
        )
        workload.setup()
        result["setup_s"] = time.monotonic() - args.t0
        if args.mode == "measure":
            result.update(measure(workload, args.seconds))
        elif args.mode == "traced":
            result.update(
                traced(workload, args.out.with_suffix(".spans.jsonl"))
            )
    except Exception as error:  # the program failed: a result, not a crash
        traceback.print_exc()
        result["error"] = f"{type(error).__name__}: {error}"
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
