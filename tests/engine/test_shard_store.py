"""ShardStore spill/reload: bitwise round-trips and the lazy view.

The bitwise fixtures run against the raw ``.npy``/mmap store, which at
float64 must reload byte-identical series.  The float32 opt-in (lossy
cast) gets its own explicit tests, and stores in the retired npz format
are refused on open.
"""

import json

import numpy as np
import pytest

from repro.engine.arena import Arena
from repro.engine.plan import plan_for
from repro.engine.shards import (
    SHARD_SCHEMA_VERSION,
    ShardStore,
    StreamedTraffic,
    purge_store,
)
from repro.util.errors import ConfigError
from repro.util.rng import RngFactory
from repro.workload import FleetConfig, WorkloadGenerator, build_fleet

FLEET = FleetConfig(
    dc_id=0, num_users=3, num_vms=8, num_compute_nodes=3, num_storage_nodes=2
)
DURATION = 45


@pytest.fixture(scope="module")
def monolithic_traffic():
    rngs = RngFactory(33)
    fleet = build_fleet(FLEET, rngs)
    return WorkloadGenerator(fleet, DURATION, rngs).generate_all()


def _build_store(directory, monolithic_traffic, series_dtype="float64"):
    plan = plan_for(
        duration_seconds=DURATION,
        num_vds=len(monolithic_traffic),
        chunk_epochs=2,
        epoch_seconds=9,
        vd_batch_size=3,
    )
    rngs = RngFactory(33)
    fleet = build_fleet(FLEET, rngs)
    generator = WorkloadGenerator(fleet, DURATION, rngs)
    store = ShardStore(directory, plan, series_dtype=series_dtype)
    qp_rw = np.zeros(len(fleet.queue_pairs))
    qp_ww = np.zeros(len(fleet.queue_pairs))
    seg_rw = np.zeros(len(fleet.segments))
    seg_ww = np.zeros(len(fleet.segments))
    for batch_index, (_, batch) in enumerate(
        generator.iter_batches(plan.vd_batch_size)
    ):
        store.spill_batch(batch_index, batch)
        for tr in batch:
            vd = fleet.vds[tr.vd_id]
            qs = slice(vd.first_qp_id, vd.first_qp_id + vd.num_queue_pairs)
            qp_rw[qs] = tr.qp_read_weights
            qp_ww[qs] = tr.qp_write_weights
            ss = slice(
                vd.first_segment_id, vd.first_segment_id + vd.num_segments
            )
            seg_rw[ss] = tr.segment_read_weights
            seg_ww[ss] = tr.segment_write_weights
    store.finalize((qp_rw, qp_ww, seg_rw, seg_ww))
    return store


#: The param names the store's series format, the only one there is.
@pytest.fixture(params=["raw"])
def store(tmp_path, monolithic_traffic):
    return _build_store(tmp_path / "store", monolithic_traffic)


def _traffic_equal(a, b) -> bool:
    if a.vd_id != b.vd_id:
        return False
    for field in (
        "read_bytes", "write_bytes", "read_iops", "write_iops",
        "hot_fraction_series", "qp_read_weights", "qp_write_weights",
        "segment_read_weights", "segment_write_weights",
    ):
        left, right = getattr(a, field), getattr(b, field)
        if left.dtype != right.dtype or not np.array_equal(left, right):
            return False
    return (
        a.mean_read_size_bytes == b.mean_read_size_bytes
        and a.mean_write_size_bytes == b.mean_write_size_bytes
    )


class TestRoundTrip:
    def test_materialize_is_bitwise_equal(self, store, monolithic_traffic):
        reloaded = store.materialize()
        assert len(reloaded) == len(monolithic_traffic)
        for a, b in zip(reloaded, monolithic_traffic):
            assert _traffic_equal(a, b)

    def test_series_for_shard_matches_slices(self, store, monolithic_traffic):
        for shard in range(store.plan.num_shards):
            t0, t1 = store.plan.shard_bounds(shard)
            read_b, write_b, read_i, write_i = store.series_for_shard(shard)
            for row, tr in enumerate(monolithic_traffic):
                assert np.array_equal(read_b[row], tr.read_bytes[t0:t1])
                assert np.array_equal(write_b[row], tr.write_bytes[t0:t1])
                assert np.array_equal(read_i[row], tr.read_iops[t0:t1])
                assert np.array_equal(write_i[row], tr.write_iops[t0:t1])

    def test_reloaded_lba_model_draws_identically(
        self, store, monolithic_traffic
    ):
        import copy

        is_write = np.arange(64) % 3 == 0
        reloaded = store.traffic_batch(0)
        for a, b in zip(reloaded, monolithic_traffic):
            # Draw from copies: draw_offsets advances the model's state,
            # and the monolithic fixture is shared across tests.
            got = copy.deepcopy(a.lba_model).draw_offsets(
                np.random.default_rng(5), is_write, 0.7
            )
            want = copy.deepcopy(b.lba_model).draw_offsets(
                np.random.default_rng(5), is_write, 0.7
            )
            assert np.array_equal(got, want)

    def test_open_round_trips_plan(self, store):
        reopened = ShardStore.open(store.directory)
        assert reopened.plan == store.plan
        for got, want in zip(
            reopened.stacked_weights(), store.stacked_weights()
        ):
            assert np.array_equal(got, want)

    def test_open_missing_and_bad_schema(self, tmp_path, store):
        with pytest.raises(ConfigError, match="no shard store"):
            ShardStore.open(tmp_path / "nope")
        manifest = store.manifest_path.read_text().replace(
            f'"schema_version": {SHARD_SCHEMA_VERSION}',
            '"schema_version": 99',
        )
        store.manifest_path.write_text(manifest)
        with pytest.raises(ConfigError, match="schema"):
            ShardStore.open(store.directory)

    def test_spill_rejects_wrong_batch_size(self, store, monolithic_traffic):
        with pytest.raises(ConfigError, match="expects"):
            store.spill_batch(0, monolithic_traffic[:1])


class TestStreamedTraffic:
    def test_len_iter_getitem_match_materialized(
        self, store, monolithic_traffic
    ):
        view = StreamedTraffic(store, cached_batches=2)
        assert len(view) == len(monolithic_traffic)
        for got, want in zip(view, monolithic_traffic):
            assert _traffic_equal(got, want)
        assert _traffic_equal(view[0], monolithic_traffic[0])
        assert _traffic_equal(view[-1], monolithic_traffic[-1])
        sliced = view[2:5]
        assert len(sliced) == 3
        assert _traffic_equal(sliced[0], monolithic_traffic[2])

    def test_cache_is_bounded(self, store):
        view = StreamedTraffic(store, cached_batches=1)
        for index in range(len(view)):
            view[index]
            assert len(view._cache) <= 1

    def test_index_errors(self, store):
        view = StreamedTraffic(store)
        with pytest.raises(IndexError):
            view[len(view)]
        with pytest.raises(IndexError):
            view[-len(view) - 1]


def test_purge_store(store):
    """Regression: cleanup leaves no orphans (series blocks included)."""
    directory = store.directory
    assert any(directory.iterdir())
    purge_store(directory)
    assert not directory.exists()
    purge_store(directory)  # idempotent on a missing dir


def _rewrite_manifest(store, **changes):
    manifest = json.loads(store.manifest_path.read_text())
    for key, value in changes.items():
        if value is None:
            del manifest[key]
        else:
            manifest[key] = value
    store.manifest_path.write_text(json.dumps(manifest))


def _open_error(store) -> str:
    with pytest.raises(ConfigError) as caught:
        ShardStore.open(store.directory)
    message = str(caught.value)
    assert "\n" not in message
    assert str(store.directory) in message
    assert "rebuild" in message
    return message


class TestSeriesOptions:
    def test_unknown_format_and_dtype_rejected(self, tmp_path, store):
        with pytest.raises(ConfigError, match="series dtype"):
            ShardStore(tmp_path / "s", store.plan, series_dtype="float16")
        _rewrite_manifest(store, series_format="zarr")
        assert "'zarr'" in _open_error(store)

    def test_v1_manifest_is_rejected(self, tmp_path, monolithic_traffic):
        # Version-1 stores were npz/float64 and recorded neither key.
        store = _build_store(tmp_path / "store", monolithic_traffic)
        _rewrite_manifest(
            store, schema_version=1, series_format=None, series_dtype=None
        )
        assert "schema 1" in _open_error(store)

    def test_npz_manifest_is_rejected(self, tmp_path, monolithic_traffic):
        store = _build_store(tmp_path / "store", monolithic_traffic)
        _rewrite_manifest(store, series_format="npz")
        assert "'npz'" in _open_error(store)


class TestRawFormat:
    def test_open_autodetects_raw(self, tmp_path, monolithic_traffic):
        store = _build_store(tmp_path / "store", monolithic_traffic)
        reopened = ShardStore.open(store.directory)
        assert reopened.series_dtype == "float64"
        for a, b in zip(reopened.materialize(), monolithic_traffic):
            assert _traffic_equal(a, b)

    def test_series_for_shard_fills_a_reused_arena(
        self, tmp_path, monolithic_traffic
    ):
        store = _build_store(tmp_path / "store", monolithic_traffic)
        assert store.plan.num_batches > 1  # exercises the copy path
        arena = Arena()
        for shard in range(store.plan.num_shards):
            plain = store.series_for_shard(shard)
            pooled = store.series_for_shard(shard, arena=arena)
            for a, b in zip(plain, pooled):
                assert np.array_equal(a, b)
        # The arena holds one buffer per series field, reused across shards.
        assert arena.nbytes() > 0

    def test_single_batch_store_returns_memmap_views(
        self, tmp_path, monolithic_traffic
    ):
        plan = plan_for(
            duration_seconds=DURATION,
            num_vds=len(monolithic_traffic),
            chunk_epochs=2,
            epoch_seconds=9,
            vd_batch_size=len(monolithic_traffic),
        )
        store = ShardStore(tmp_path / "store", plan)
        store.spill_batch(0, list(monolithic_traffic))
        zeros = np.zeros(1)
        store.finalize((zeros, zeros, zeros, zeros))
        read_b, _, _, _ = store.series_for_shard(0)
        assert isinstance(read_b.base, np.memmap)
        t0, t1 = plan.shard_bounds(0)
        assert np.array_equal(read_b[0], monolithic_traffic[0].read_bytes[t0:t1])

    def test_float32_round_trip_is_the_cast(
        self, tmp_path, monolithic_traffic
    ):
        store = _build_store(tmp_path / "store", monolithic_traffic, "float32")
        reloaded = store.materialize()
        for a, b in zip(reloaded, monolithic_traffic):
            for field in (
                "read_bytes", "write_bytes", "read_iops", "write_iops",
                "hot_fraction_series",
            ):
                got = getattr(a, field)
                assert got.dtype == np.float32
                assert np.array_equal(
                    got, getattr(b, field).astype(np.float32)
                )
            # The static payload is dtype-agnostic and stays exact.
            assert np.array_equal(a.qp_read_weights, b.qp_read_weights)
