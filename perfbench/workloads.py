"""The four benchmark workloads: set-up, one timed unit, and output checks.

Each workload runs in its own fresh process (see ``child.py``) with
``workers=1``.  ``setup()`` brings the inputs to the point where timing
starts; ``unit()`` does the timed work through the program's public
entry points and returns an :class:`Outcome`; ``check()`` compares the
outcome with a reference computed outside the timed region, and with
the pinned digests when the seed is :data:`PINNED_SEED`.

Inputs.  At these scales a dataset's size, and with it every batch
workload's wall time, varies by a factor of up to two from one program
seed to the next (the fleets are small draws from heavy-tailed
distributions).  So the datasets come from one *data seed* (the
program's default, 7, where the pinned digests hold; ``--data-seed``
picks another), and the benchmark's ``--seed`` varies what can change
without changing the amount of work: the order of the study's
experiments and of the exported files, which must not change any
output, and where the live plane's fixed-length stream starts in the
synthesized trace.  The medium build's order is not varied: which DC is
built last sets its peak memory.

The module imports nothing from the program at import time: every
``repro`` import happens in ``setup()``, inside the measured set-up.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
#: The seed the pinned digests in ``pins.json`` were taken at.
PINNED_SEED = 7

#: ``build_medium``: the streaming engine's shard length, in epochs.
BUILD_CHUNK_EPOCHS = 4
#: ``export_small``: the data center whose dataset is exported.
EXPORT_DC = 2
#: ``live_replay``: events in the fixed stream, its first trace seconds
#: synthesized per try, window length, sub-batch size, and the paced
#: run's rate multiplier (about half the max-rate throughput here).
LIVE_EVENTS = 2_000_000
LIVE_SYNTH_SECONDS = 6000
LIVE_WINDOW_SECONDS = 1
LIVE_BATCH_EVENTS = 4096
LIVE_PACED_RATE = 900.0

#: Called with a phase name when a unit moves to another part of its
#: work; the traced run uses it as the span run id.
Phase = Callable[[str], None]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Outcome:
    """What one timed unit produced."""

    #: Output digests; a traced unit must reproduce them exactly.
    outputs: Dict[str, str]
    attempted: int
    failed: int = 0
    #: Timed wall seconds of the unit (set by the unit itself when only
    #: part of its work is the end-to-end figure).
    wall_s: Optional[float] = None
    #: End-to-end figures beyond wall time (live plane only).
    figures: Dict[str, float] = field(default_factory=dict)
    #: Objects the checks compare against a reference.
    keep: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


class Workload:
    name = ""

    def __init__(self, seed: int, data_seed: int, workdir: Path,
                 traced: bool = False):
        self.seed = seed
        self.data_seed = data_seed
        #: A traced run also produces the figures only its per-layer
        #: metrics report (the live plane's paced run).
        self.traced = traced
        self.workdir = workdir
        self.workdir.mkdir(parents=True, exist_ok=True)

    def setup(self) -> None:
        raise NotImplementedError

    def settle(self) -> None:
        """Bring the machine to the same state before every timed unit."""

    def unit(self, phase: Phase = lambda name: None) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> List[Check]:
        raise NotImplementedError

    def pinned_checks(self, outputs: Dict[str, str]) -> List[Check]:
        """Compare outputs with ``pins.json`` (only at the pinned seed)."""
        if self.data_seed != PINNED_SEED:
            return []
        pins = json.loads((HERE / "pins.json").read_text()).get(self.name, {})
        return [
            Check(
                f"pinned {key}",
                outputs.get(key) == want,
                f"got {outputs.get(key)}, pinned {want}",
            )
            for key, want in sorted(pins.items())
        ]


# -- study_small --------------------------------------------------------------


def _digest_file(study, scale: str, seed: int, path: Path) -> bytes:
    """The bytes ``ebs-repro run --digest`` writes for this study, from
    the CLI's own writer."""
    import argparse

    from repro import cli

    cli._write_digest(
        study, argparse.Namespace(scale=scale, seed=seed, digest=str(path))
    )
    return path.read_bytes()


class StudySmall(Workload):
    """``ebs-repro run all --scale small``, experiments in a seeded order."""

    name = "study_small"

    def setup(self) -> None:
        import repro.cli  # noqa: F401  (its digest writer runs in units)
        from repro.core import StudyConfig
        from repro.core.experiments import experiment_ids

        self.config = StudyConfig.scale("small", seed=self.data_seed)
        self.experiments = list(experiment_ids())
        self.order = list(self.experiments)
        random.Random(self.seed).shuffle(self.order)

    def unit(self, phase: Phase = lambda name: None) -> Outcome:
        from repro.core import Study
        from repro.core.result_schema import results_payload

        attempted = len(self.config.dc_configs) + len(self.experiments)
        study = Study(self.config)
        study.build(workers=1)
        results = {}
        for experiment_id in self.order:
            results[experiment_id] = study.run(experiment_id)
        payload = results_payload(
            [results[experiment_id] for experiment_id in self.experiments],
            scale="small",
            seed=self.data_seed,
        )
        # The bytes ``run all -o`` and ``--digest`` write, in id order.
        written = json.dumps(payload, indent=2).encode()
        digest = _digest_file(
            study, "small", self.data_seed, self.workdir / "digest.json"
        )
        study.cleanup()
        return Outcome(
            {
                "results_sha256": _sha256(written),
                "digest_sha256": _sha256(digest),
            },
            attempted,
            keep={"payload": json.loads(written)},
        )

    def check(self, outcome: Outcome) -> List[Check]:
        from repro.core.result_schema import validate_result_payload

        payload = outcome.keep["payload"]
        problems = validate_result_payload(payload)
        ids = [entry["experiment_id"] for entry in payload["results"]]
        return [
            Check("results payload valid", not problems, "; ".join(problems)),
            Check(
                "every experiment ran",
                ids == self.experiments,
                f"ran {len(ids)} of {len(self.experiments)}",
            ),
            *self.pinned_checks(outcome.outputs),
        ]


# -- build_medium ----------------------------------------------------------


class BuildMedium(Workload):
    """A streamed medium build under a fault plan, then ``table2``."""

    name = "build_medium"
    plan_path = HERE / "inputs" / "fault_plan_medium.json"

    def setup(self) -> None:
        import repro.cli  # noqa: F401  (its digest writer runs in units)
        from repro.core import StudyConfig
        from repro.faults.plan import FaultPlan

        plan = FaultPlan.load(str(self.plan_path))
        self.config = replace(
            StudyConfig.scale("medium", seed=self.data_seed), fault_plan=plan
        )

    def _build(self, chunk_epochs: Optional[int]):
        from repro.core import Study

        # Shard stores go to a temporary directory (``TMPDIR`` is inside
        # the checkout), which ``Study.cleanup`` purges.
        study = Study(self.config, chunk_epochs=chunk_epochs)
        study.build(workers=1)
        return study

    def unit(self, phase: Phase = lambda name: None) -> Outcome:
        from repro.core.result_schema import validate_result_payload
        from repro.core.result_schema import results_payload

        study = self._build(BUILD_CHUNK_EPOCHS)
        table2 = study.run("table2")
        digest = json.loads(_digest_file(
            study, "medium", self.data_seed, self.workdir / "digest.json"
        ))
        study.cleanup()
        problems = validate_result_payload(results_payload([table2]))
        return Outcome(
            {"combined_digest": digest["combined"]},
            attempted=len(self.config.dc_configs) + 1,
            failed=1 if problems else 0,
            keep={"per_dc": digest["per_dc"]},
        )

    def check(self, outcome: Outcome) -> List[Check]:
        streamed = outcome.keep["per_dc"]
        if self.data_seed == PINNED_SEED:
            # Pinned from a monolithic build: this is the parity check.
            return self.pinned_checks(outcome.outputs)
        study = self._build(None)
        monolithic = json.loads(_digest_file(
            study, "medium", self.data_seed, self.workdir / "digest.json"
        ))["per_dc"]
        return [
            Check(
                f"streamed {dc} digest equals monolithic",
                streamed.get(dc) == monolithic.get(dc),
                f"{streamed.get(dc)} vs {monolithic.get(dc)}",
            )
            for dc in sorted(set(streamed) | set(monolithic))
        ]


# -- export_small ------------------------------------------------------------


class ExportSmall(Workload):
    """Build one small DC, export its dataset, read every file back."""

    name = "export_small"

    def setup(self) -> None:
        import repro.trace.io  # noqa: F401
        from repro.core import StudyConfig

        small = StudyConfig.scale("small", seed=self.data_seed)
        # RNG streams are keyed by DC id, so a one-DC study builds the
        # same dataset for this DC as ``export-dataset --scale small``.
        self.config = replace(
            small, dc_configs=[small.dc_configs[EXPORT_DC]]
        )
        self.order = ["traces.jsonl", "compute.csv", "storage.csv"]
        random.Random(self.seed).shuffle(self.order)

    def settle(self) -> None:
        # Removing the last unit's files drops their dirty pages (and
        # spares the flush-on-close that ext4 starts when a file is
        # truncated and rewritten); the sync then writes back whatever
        # else is dirty, so no unit starts with the writeback of another.
        for path in self.workdir.glob("dc*_*"):
            path.unlink()
        os.sync()

    def unit(self, phase: Phase = lambda name: None) -> Outcome:
        from repro import trace
        from repro.core import Study
        from repro.trace.dataset import ComputeMetricTable, StorageMetricTable

        out = self.workdir
        study = Study(self.config)
        study.build(workers=1)
        result = study.results[0]
        prefix = f"dc{result.fleet.config.dc_id}_"
        tables = {
            "traces.jsonl": result.traces,
            "compute.csv": result.metrics.compute,
            "storage.csv": result.metrics.storage,
        }
        # Called through the module attribute, as the CLI's import is,
        # so a traced run sees these calls.
        for name in self.order:
            writer = (
                trace.io.write_trace_jsonl if name.endswith(".jsonl")
                else trace.io.write_metric_csv
            )
            writer(tables[name], out / (prefix + name))
        read = {}
        for name in self.order:
            path = out / (prefix + name)
            if name == "traces.jsonl":
                read[name] = trace.io.read_trace_jsonl(path)
            else:
                read[name] = trace.io.read_metric_csv(
                    path,
                    ComputeMetricTable if name == "compute.csv"
                    else StorageMetricTable,
                )
        outputs = {
            prefix + name: _sha256((out / (prefix + name)).read_bytes())
            for name in sorted(tables)
        }
        return Outcome(
            outputs,
            attempted=1 + 2 * len(tables),
            keep={"written": tables, "read": read},
        )

    def check(self, outcome: Outcome) -> List[Check]:
        import numpy as np

        written, read = outcome.keep["written"], outcome.keep["read"]
        checks = []
        for name, table in written.items():
            back = read[name]
            want, got = table.columns(), back.columns()
            same = set(want) == set(got) and all(
                want[col].dtype == got[col].dtype
                and np.array_equal(want[col], got[col])
                for col in want
            )
            same = same and getattr(table, "sampling_rate", None) == getattr(
                back, "sampling_rate", None
            )
            checks.append(Check(
                f"{name} read back equals the in-memory dataset",
                same,
                f"{len(back)} rows read, {len(table)} written",
            ))
        return checks + self.pinned_checks(outcome.outputs)


# -- live_replay -------------------------------------------------------------


class LiveReplay(Workload):
    """A fixed stream through ``repro.live`` at max rate; a traced run
    also replays it paced, for the lag figures."""

    name = "live_replay"

    def setup(self) -> None:
        import numpy as np

        from repro.live import LiveConfig, build_pipeline

        seconds = LIVE_SYNTH_SECONDS
        while True:
            base = build_pipeline(LiveConfig(
                scale="small",
                seed=self.data_seed,
                duration_seconds=seconds,
                window_seconds=LIVE_WINDOW_SECONDS,
                batch_events=LIVE_BATCH_EVENTS,
            ))
            if len(base.injector.events) >= LIVE_EVENTS:
                break
            seconds *= 2
        self.base = base
        # The seed picks where the fixed-length stream starts; it is
        # moved back by whole seconds so it starts in the first window.
        events = base.injector.events
        first = random.Random(self.seed).randrange(
            len(events) - LIVE_EVENTS + 1
        )
        self.events = events.slice(first, first + LIVE_EVENTS).shifted(
            -math.floor(events.timestamp[first])
        )
        timestamps = self.events.timestamp
        self.total_seconds = int(math.floor(timestamps[-1])) + 1
        # Each window's first and last event index, for the lag figure.
        edges = np.arange(0, self.total_seconds + 1, LIVE_WINDOW_SECONDS)
        ends = np.searchsorted(timestamps, edges, side="left")
        self.window_last_event = ends[1:] - 1
        self.window_first_event = ends[:-1]
        self._next = self._pipelines()

    def _pipelines(self):
        """Fresh pipelines for one unit (their stages keep state)."""
        return (
            self._pipeline(None),
            self._pipeline(LIVE_PACED_RATE) if self.traced else None,
        )

    def _pipeline(self, rate: Optional[float]):
        """A pipeline over the fixed stream that logs its clock reads and
        when each ``on_window`` call returned."""
        from repro.live import LivePipeline, RollingSkewTracker, TraceInjector

        clock_log: List[float] = []

        def clock() -> float:
            now = time.monotonic()
            clock_log.append(now)
            return now

        pipeline = LivePipeline(
            TraceInjector(
                self.events,
                rate=rate,
                batch_events=LIVE_BATCH_EVENTS,
                clock=clock,
            ),
            RollingSkewTracker(
                num_vds=self.base.tracker.num_vds,
                window_seconds=LIVE_WINDOW_SECONDS,
                total_seconds=self.total_seconds,
                ccr_fraction=self.base.tracker.ccr_fraction,
            ),
            policy=copy.deepcopy(self.base.policy),
            topk=copy.deepcopy(self.base.topk),
            overflow="block",
        )
        returns: List[float] = []
        policy = pipeline.policy

        def timed_on_window(closed):
            # Looked up on the class at call time, so a traced run that
            # wrapped the method after this pipeline was built sees it.
            decisions = type(policy).on_window(policy, closed)
            returns.append(time.monotonic())
            return decisions

        # An instance attribute: the pipeline's ``self.policy.on_window``
        # lookup finds it before the class's method.
        policy.on_window = timed_on_window
        return pipeline, clock_log, returns

    def unit(self, phase: Phase = lambda name: None) -> Outcome:
        (fast, _, _), paced = self._next
        phase("max")
        start = time.perf_counter()
        report = fast.run()
        wall = time.perf_counter() - start
        windows = {"max": [w.to_dict() for w in report.windows]}
        figures = {
            "live_events_per_s": report.events / wall,
            "live.events.ring_max_depth": float(
                report.ring_stats["live.events"]["max_depth"]
            ),
        }
        events, batches = report.events, report.batches
        dropped = report.events_dropped
        if paced is not None:
            phase("paced")
            pipeline, clock_log, returns = paced
            report = pipeline.run()
            windows["paced"] = [w.to_dict() for w in report.windows]
            figures.update(self._lag_figures(clock_log, returns))
            events += report.events
            batches += report.batches
            dropped += report.events_dropped
        self._next = self._pipelines()
        lost = math.ceil(dropped / LIVE_BATCH_EVENTS)
        return Outcome(
            {
                f"{run}_windows_sha256": _sha256(json.dumps(w).encode())
                for run, w in windows.items()
            } | {"events": str(events), "dropped": str(dropped)},
            attempted=batches + lost,
            failed=lost,
            wall_s=wall,
            figures=figures,
            keep={"windows": windows},
        )

    def _lag_figures(self, clock_log, returns) -> Dict[str, float]:
        """Window lag and generator lateness of the paced run, in ms.

        A window's lag runs from the scheduled wall time of its last event
        (the injector's start plus trace time over the rate) to the return
        of ``on_window`` for it, so stalls count and window length does
        not.  A sub-batch is released when its *first* event is due, so a
        lag can be negative by up to one sub-batch's span.
        """
        import numpy as np

        ts = self.events.timestamp
        start = clock_log[0]
        lags = [
            (closed_at - start - (ts[last] - ts[0]) / LIVE_PACED_RATE) * 1e3
            for closed_at, first, last in zip(
                returns, self.window_first_event, self.window_last_event
            )
            if last >= first  # a window with no events has no due time
        ]
        figures = {"live_window_lag_samples": float(len(lags))}
        if lags:
            figures["live_window_lag_p50_ms"] = float(np.percentile(lags, 50))
            figures["live_window_lag_p99_ms"] = float(np.percentile(lags, 99))
        # The injector reads the clock once at start and once per paced
        # sub-batch; how far each read fell past that batch's due time is
        # how late the generator ran.
        due = (ts[::LIVE_BATCH_EVENTS] - ts[0]) / LIVE_PACED_RATE
        if len(clock_log) == 1 + len(due):
            late = np.array(clock_log[1:]) - start - due
            figures["live_generator_late_p99_ms"] = float(
                np.percentile(np.maximum(late, 0.0), 99) * 1e3
            )
        return figures

    def check(self, outcome: Outcome) -> List[Check]:
        from repro.live import offline_window_stats

        offline = offline_window_stats(
            self.events,
            self.base.tracker.num_vds,
            self.total_seconds,
            LIVE_WINDOW_SECONDS,
            ccr_fraction=self.base.tracker.ccr_fraction,
        )
        reference = [closed.stats.to_dict() for closed in offline]
        checks = [
            Check(
                f"{run} online windows equal offline_window_stats",
                online == reference,
                f"{len(online)} online, {len(reference)} offline windows",
            )
            for run, online in outcome.keep["windows"].items()
        ]
        checks.append(Check(
            "no event dropped",
            outcome.outputs["dropped"] == "0",
            f"{outcome.outputs['dropped']} events dropped",
        ))
        return checks + self.pinned_checks(outcome.outputs)


WORKLOADS = {
    workload.name: workload
    for workload in (StudySmall, BuildMedium, ExportSmall, LiveReplay)
}
