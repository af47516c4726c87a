"""The printed metrics: named in ``BENCHMARK.json``, scaled to reference speed."""

import json
from pathlib import Path

import pytest

import metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_printed_metrics():
    from repro.core.experiments import experiment_ids

    spec = _spec()
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]
    ] == metrics.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == metrics.per_layer_names(experiment_ids())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_per_layer_keys_are_named_metrics():
    from repro.core.experiments import experiment_ids

    names = {name for name, _, _ in metrics.per_layer_names(experiment_ids())}
    computed = metrics.per_layer([], 1.0, 0, {})
    assert set(computed) <= names
    assert computed["unattributed_frac"] == 1.0


def test_times_scale_by_the_median_calibration():
    from calibrate import REFERENCE_S, at_reference, calibration_s

    # Twice as slow as the reference: the reported time halves.
    slow = [REFERENCE_S * 2, REFERENCE_S * 9, REFERENCE_S * 2]
    assert at_reference(3.0, slow) == pytest.approx(1.5)
    assert calibration_s(repeats=1) > 0
