"""Self-time arithmetic, the ledger's sum, and wrapping's invisibility."""

import json
import sys
import threading
import time
import types
from dataclasses import replace

import pytest

import layers
import tracer
from tracer import Recorder, Span, Target


class FakeClock:
    """A clock that only moves when the code under test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


@pytest.fixture
def fake_program():
    """A tiny stand-in program: a study that runs an experiment, which
    calls the simulator, which calls itself once (a re-entrant wrap)."""
    clock = FakeClock()
    module = types.ModuleType("fakeprog.sim")

    class Simulator:
        def run(self, depth=0):
            clock.work(1.0)
            if depth == 0:
                self.run(depth + 1)
            module.generate()
            clock.work(0.5)
            return depth

    def generate():
        clock.work(2.0)

    def experiment():
        clock.work(0.25)
        module.Simulator().run()
        clock.work(0.25)
        return "done"

    module.Simulator = Simulator
    module.generate = generate
    module.experiment = experiment
    caller = types.ModuleType("fakeprog.study")
    caller.experiment = experiment  # a ``from sim import experiment`` copy
    sys.modules["fakeprog.sim"] = module
    sys.modules["fakeprog.study"] = caller
    yield clock, module, caller
    del sys.modules["fakeprog.sim"], sys.modules["fakeprog.study"]


def _install(clock):
    recorder = Recorder(clock=clock)
    patch = tracer.install(
        recorder,
        [
            Target("fakeprog.sim:experiment", "core"),
            Target("fakeprog.sim:Simulator.run", "cluster.pass2"),
            Target("fakeprog.sim:generate", "workload"),
        ],
        namespaces=("fakeprog",),
    )
    return recorder, patch


def test_self_time_of_nested_and_reentrant_wraps(fake_program):
    clock, module, caller = fake_program
    recorder, patch = _install(clock)
    try:
        assert caller.experiment() == "done"
    finally:
        patch.undo()
    by_name = {}
    own = tracer.self_times(recorder.spans)
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(own[span.id])
    # experiment: 0.5 s of its own around a 7.0 s simulator call.
    assert by_name["fakeprog.sim.experiment"] == [0.5]
    # Each run() level keeps 1.5 s: the inner (re-entrant) call and the
    # generate() calls are children, not self time.
    assert by_name["fakeprog.sim.Simulator.run"] == [1.5, 1.5]
    assert by_name["fakeprog.sim.generate"] == [2.0, 2.0]
    assert tracer.layer_self_times(recorder.spans) == {
        "core": 0.5, "cluster.pass2": 3.0, "workload": 4.0,
    }
    outer = [s for s in recorder.spans if s.parent is None]
    assert len(outer) == 1 and outer[0].duration == 7.5


def test_patch_reaches_imported_copies_and_undoes(fake_program):
    clock, module, caller = fake_program
    originals = (module.experiment, caller.experiment,
                 module.Simulator.__dict__["run"])
    recorder, patch = _install(clock)
    assert caller.experiment is module.experiment
    assert caller.experiment is not originals[0]
    patch.undo()
    assert (module.experiment, caller.experiment,
            module.Simulator.__dict__["run"]) == originals
    caller.experiment()
    assert recorder.spans == []


def test_ledger_sums_to_wall(fake_program):
    clock, module, caller = fake_program
    recorder, patch = _install(clock)
    try:
        start = clock()
        clock.work(0.75)  # not inside any span: unattributed
        caller.experiment()
        clock.work(0.25)
        wall = clock() - start
    finally:
        patch.undo()
    book = tracer.ledger(recorder.spans, wall, threading.get_ident())
    assert book["unattributed_s"] == 1.0
    assert sum(book["layers"].values()) + book["unattributed_s"] == wall


def test_ledger_counts_only_the_timing_thread():
    spans = [
        Span(1, "a", "x", 0.0, 4.0, None, 1, "run"),
        Span(2, "b", "y", 1.0, 2.0, 1, 1, "run"),
        Span(3, "c", "z", 0.0, 3.0, None, 2, "run"),  # another thread
    ]
    book = tracer.ledger(spans, 5.0, thread=1)
    assert book["layers"] == {"x": 3.0, "y": 1.0}
    assert book["unattributed_s"] == 1.0


# -- on the real program, at a tiny size ---------------------------------------


def _tiny_config():
    from repro.core import StudyConfig

    small = StudyConfig.scale("small", seed=7, duration_seconds=200)
    dc = replace(small.dc_configs[2], num_users=3, num_vms=6,
                 num_compute_nodes=3, num_storage_nodes=3)
    return replace(small, dc_configs=[dc])


def _study_outputs():
    from repro.core import Study
    from repro.core.experiments import experiment_ids
    from repro.core.result_schema import results_payload
    from repro.engine.digest import result_digest

    study = Study(_tiny_config()).build()
    results = [study.run(experiment_id) for experiment_id in experiment_ids()]
    payload = json.dumps(results_payload(results), indent=2)
    return payload, [result_digest(result) for result in study.results]


def _live_outputs():
    from repro.live import LiveConfig, build_pipeline

    pipeline = build_pipeline(LiveConfig(seed=7, duration_seconds=60,
                                         window_seconds=5))
    report = pipeline.run()
    return [window.to_dict() for window in report.windows], report.events


def _export_outputs(tmp_path):
    from repro import trace
    from repro.core import Study

    result = Study(_tiny_config()).build().results[0]
    path = tmp_path / "traces.jsonl"
    trace.io.write_trace_jsonl(result.traces, path)
    trace.io.write_metric_csv(result.metrics.storage, tmp_path / "s.csv")
    back = trace.io.read_trace_jsonl(path)
    return path.read_bytes(), (tmp_path / "s.csv").read_bytes(), len(back)


def test_wrapping_leaves_outputs_byte_identical(tmp_path):
    import repro.cli  # noqa: F401  (every module a workload reaches)
    import repro.core.experiments  # noqa: F401
    import repro.engine  # noqa: F401
    import repro.live  # noqa: F401
    import repro.trace.io  # noqa: F401

    plain = (_study_outputs(), _live_outputs(), _export_outputs(tmp_path))
    recorder = Recorder()
    patch = tracer.install(recorder, layers.all_targets())
    try:
        start = time.perf_counter()
        traced = (_study_outputs(), _live_outputs(), _export_outputs(tmp_path))
        wall = time.perf_counter() - start
    finally:
        patch.undo()
    assert traced == plain
    names = {span.layer for span in recorder.spans}
    assert {"core", "balancer.wt", "cluster.pass2", "live.stats",
            "trace.io.write", "trace.io.read"} <= names
    book = tracer.ledger(recorder.spans, wall, threading.get_ident())
    total = sum(book["layers"].values()) + book["unattributed_s"]
    assert total == pytest.approx(wall, rel=1e-9)
    assert 0.0 <= book["unattributed_s"] < wall


def test_shard_bytes_are_counted_once_through_materialize(tmp_path):
    from repro.core import Study
    from repro.engine.shards import ShardStore

    Study(_tiny_config(), chunk_epochs=2, shard_dir=tmp_path).build()
    store = ShardStore.open(tmp_path / "dc02")
    expected = sum(
        layers._nbytes(store.traffic_batch(batch))
        for batch in range(store.plan.num_batches)
    )
    recorder = Recorder()
    patch = tracer.install(recorder, layers.LAYERS["engine.shards.read"])
    try:
        traffic = store.materialize()
    finally:
        patch.undo()
    assert expected > 0 and layers._nbytes(traffic) == expected
    assert {span.name.rsplit(".", 1)[-1] for span in recorder.spans} == {
        "materialize", "traffic_batch",
    }
    assert recorder.counters[("run", "engine.shards.read_bytes")] == expected
