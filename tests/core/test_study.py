"""Integration tests for the Study pipeline and the experiment registry."""

from dataclasses import replace

import pytest

from repro.core import EXPERIMENTS, Study, StudyConfig, experiment_ids
from repro.util.errors import ConfigError, SimulationError
from repro.workload import FleetConfig


def tiny_config(seed=3) -> StudyConfig:
    dcs = [
        FleetConfig(
            dc_id=dc,
            num_users=5,
            num_vms=14,
            num_compute_nodes=5,
            num_storage_nodes=4,
        )
        for dc in range(2)
    ]
    return StudyConfig(
        seed=seed,
        duration_seconds=120,
        trace_sampling_rate=1.0 / 5.0,
        dc_configs=dcs,
        wt_cov_windows=(30, 60),
        migration_window_scales=(15, 60),
        balancer_period_seconds=15,
        prediction_warmup_periods=3,
        prediction_epoch_periods=2,
        cache_min_traces=100,
        hot_rate_window_seconds=30.0,
    )


@pytest.fixture(scope="module")
def study():
    return Study(tiny_config()).build()


class TestStudyConfig:
    def test_duplicate_dc_ids_rejected(self):
        dc = FleetConfig(dc_id=0)
        with pytest.raises(ConfigError):
            StudyConfig(dc_configs=[dc, dc])

    def test_scales_valid(self):
        for name in ("small", "medium", "large"):
            config = StudyConfig.scale(name, seed=1)
            assert config.dc_configs

    def test_scale_accepts_field_overrides(self):
        config = StudyConfig.scale(
            "small", seed=1, duration_seconds=200, cache_min_traces=50
        )
        assert config.duration_seconds == 200
        assert config.cache_min_traces == 50

    def test_scale_rejects_unknown_name_and_override(self):
        with pytest.raises(ConfigError):
            StudyConfig.scale("huge")
        with pytest.raises(ConfigError):
            StudyConfig.scale("small", cache_min_tracez=50)

    def test_rejects_bad_lending_rates(self):
        with pytest.raises(ConfigError):
            StudyConfig(lending_rates=(0.0,))


class TestStudy:
    def test_results_require_build(self):
        fresh = Study(tiny_config())
        with pytest.raises(SimulationError):
            __ = fresh.results

    def test_build_idempotent(self, study):
        before = study.results
        study.build()
        assert study.results is before

    def test_result_for_dc(self, study):
        assert study.result_for_dc(1).fleet.config.dc_id == 1
        with pytest.raises(ConfigError):
            study.result_for_dc(99)

    def test_unknown_experiment(self, study):
        with pytest.raises(ConfigError):
            study.run("fig99")

    def test_experiment_cache(self, study):
        a = study.run("table2")
        b = study.run("table2")
        assert a is b


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {
            "table2", "table3", "table4",
            "fig2a", "fig2b", "fig2c", "fig2_types", "fig2d", "fig2ef",
            "fig3a", "fig3b", "fig3c", "fig3de", "fig3fg",
            "fig4a", "fig4b", "fig4c",
            "fig5a", "fig5b", "fig5c",
            "fig6a", "fig6b", "fig6c", "fig6d",
            "fig7a", "fig7bc", "fig7d",
        }
        assert expected <= set(EXPERIMENTS)

    def test_order_stable(self):
        ids = experiment_ids()
        assert ids[0] == "table2"
        assert len(ids) == len(set(ids))


@pytest.mark.parametrize("experiment_id", [
    "table2", "table3", "table4",
    "fig2a", "fig2b", "fig2c", "fig2_types", "fig2ef",
    "fig3a", "fig3b", "fig3c", "fig3de", "fig3fg",
    "fig4a", "fig5a", "fig5b",
    "fig6a", "fig6b", "fig6c", "fig6d",
    "fig7bc", "fig7d",
    "extra_latency", "extra_iostats", "extra_gc",
])
def test_experiment_runs_and_tags(study, experiment_id):
    result = study.run(experiment_id)
    assert result.experiment_id == experiment_id
    assert result.headers
    assert result.render()


@pytest.mark.slow
@pytest.mark.parametrize("experiment_id", ["fig2d", "fig4b", "fig4c", "fig5c", "fig7a"])
def test_heavy_experiments_run(study, experiment_id):
    result = study.run(experiment_id)
    assert result.rows or result.notes
