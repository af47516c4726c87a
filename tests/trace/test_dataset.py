"""Tests for the columnar trace/metric dataset containers."""

import numpy as np
import pytest

from repro.trace import (
    ComputeMetricTable,
    MetricDataset,
    SpecDataset,
    StorageMetricTable,
    TraceDataset,
)
from repro.trace.records import (
    ComputeMetricRecord,
    OpKind,
    VdSpec,
    VmSpec,
)
from repro.util.errors import DatasetError


def compute_table(rows=4) -> ComputeMetricTable:
    return ComputeMetricTable(
        timestamp=list(range(rows)),
        cluster_id=[0] * rows,
        compute_node_id=[0, 0, 1, 1][:rows],
        user_id=[0] * rows,
        vm_id=[0, 0, 1, 1][:rows],
        vd_id=[0, 0, 1, 1][:rows],
        wt_id=[0, 1, 4, 5][:rows],
        qp_id=[0, 1, 2, 3][:rows],
        read_bytes=[10.0, 20.0, 30.0, 40.0][:rows],
        write_bytes=[1.0, 2.0, 3.0, 4.0][:rows],
        read_iops=[1.0, 2.0, 3.0, 4.0][:rows],
        write_iops=[0.1, 0.2, 0.3, 0.4][:rows],
    )


def trace_dataset() -> TraceDataset:
    n = 6
    return TraceDataset(
        sampling_rate=0.5,
        trace_id=list(range(n)),
        op=[0, 1, 0, 1, 1, 1],
        size_bytes=[4096] * n,
        offset_bytes=[0, 4096, 8192, 0, 4096, 0],
        user_id=[0] * n,
        vm_id=[0] * n,
        vd_id=[0, 0, 0, 1, 1, 1],
        qp_id=[0] * n,
        wt_id=[0] * n,
        compute_node_id=[0] * n,
        segment_id=[0] * n,
        block_server_id=[0] * n,
        storage_node_id=[0] * n,
        timestamp=[0.1, 0.2, 1.5, 2.0, 2.5, 3.0],
        lat_compute_us=[1.0] * n,
        lat_frontend_us=[2.0] * n,
        lat_block_server_us=[3.0] * n,
        lat_backend_us=[4.0] * n,
        lat_chunk_server_us=[5.0] * n,
    )


class TestColumnarBasics:
    def test_length(self):
        assert len(compute_table()) == 4

    def test_rejects_missing_column(self):
        with pytest.raises(DatasetError):
            ComputeMetricTable(timestamp=[0])

    def test_rejects_ragged_columns(self):
        table = compute_table()
        columns = table.columns()
        columns["read_bytes"] = columns["read_bytes"][:-1]
        with pytest.raises(DatasetError):
            ComputeMetricTable(**columns)

    def test_where(self):
        table = compute_table()
        hot = table.where(table.read_bytes > 25.0)
        assert len(hot) == 2
        assert hot.read_bytes.tolist() == [30.0, 40.0]

    def test_where_rejects_bad_mask(self):
        with pytest.raises(DatasetError):
            compute_table().where(np.array([True]))

    def test_concat(self):
        table = compute_table()
        both = table.concat(table)
        assert len(both) == 8

    def test_record_roundtrip(self):
        table = compute_table()
        record = table.record(2)
        assert isinstance(record, ComputeMetricRecord)
        rebuilt = ComputeMetricTable.from_records(table.records())
        assert rebuilt.read_bytes.tolist() == table.read_bytes.tolist()


class TestAggregation:
    def test_sum_by(self):
        table = compute_table()
        by_vm = table.sum_by("vm_id", "read_bytes")
        assert by_vm == {0: 30.0, 1: 70.0}

    def test_timeseries_by(self):
        table = compute_table()
        series = table.timeseries_by("vm_id", "read_bytes", total_seconds=5)
        assert series[0].tolist() == [10.0, 20.0, 0.0, 0.0, 0.0]
        assert series[1].tolist() == [0.0, 0.0, 30.0, 40.0, 0.0]

    def test_timeseries_rejects_out_of_range(self):
        table = compute_table()
        with pytest.raises(DatasetError):
            table.timeseries_by("vm_id", "read_bytes", total_seconds=2)


class TestTraceDataset:
    def test_latency_sum(self):
        traces = trace_dataset()
        assert traces.latency_us.tolist() == [15.0] * 6

    def test_read_write_split(self):
        traces = trace_dataset()
        assert len(traces.reads()) == 2
        assert len(traces.writes()) == 4

    def test_for_vd(self):
        traces = trace_dataset()
        assert len(traces.for_vd(1)) == 3

    def test_estimated_total(self):
        traces = trace_dataset()
        assert traces.estimated_total_ios() == pytest.approx(12.0)

    def test_sampling_rate_validated(self):
        with pytest.raises(DatasetError):
            TraceDataset(sampling_rate=0.0, **trace_dataset().columns())

    def test_concat_keeps_rate(self):
        traces = trace_dataset()
        both = traces.concat(traces)
        assert both.sampling_rate == 0.5
        assert len(both) == 12

    def test_record_has_op_enum(self):
        record = trace_dataset().record(1)
        assert record.op is OpKind.WRITE

def shuffled_traces(seed: int = 3, rows: int = 500) -> TraceDataset:
    """Keys interleaved in dataset order, so groups are not contiguous."""
    rng = np.random.default_rng(seed)
    columns = {
        name: rng.integers(0, 1 << 20, size=rows)
        for name in TraceDataset.INT_FIELDS
    }
    columns.update(
        {name: rng.random(rows) for name in TraceDataset.FLOAT_FIELDS}
    )
    columns["vd_id"] = rng.integers(0, 17, size=rows)
    columns["compute_node_id"] = rng.integers(0, 5, size=rows)
    return TraceDataset(sampling_rate=0.25, **columns)


def assert_same_rows(left: TraceDataset, right: TraceDataset) -> None:
    assert len(left) == len(right)
    assert left.sampling_rate == right.sampling_rate
    for name, column in left.columns().items():
        other = getattr(right, name)
        assert column.dtype == other.dtype
        assert np.array_equal(column, other)


class TestKeyedSlices:
    @pytest.mark.parametrize("vd_id", [*range(17), -1, 17, 10**9])
    def test_for_vd_equals_where(self, vd_id):
        traces = shuffled_traces()
        assert_same_rows(
            traces.for_vd(vd_id), traces.where(traces.vd_id == vd_id)
        )

    @pytest.mark.parametrize("node_id", [*range(5), -1, 5])
    def test_for_node_equals_where(self, node_id):
        traces = shuffled_traces()
        assert_same_rows(
            traces.for_node(node_id),
            traces.where(traces.compute_node_id == node_id),
        )

    def test_empty_dataset(self):
        empty = shuffled_traces(rows=0)
        assert len(empty.for_vd(0)) == 0
        assert len(empty.for_node(0)) == 0

    def test_index_is_not_pickled(self):
        import pickle

        traces = shuffled_traces()
        before = pickle.dumps(traces)
        traces.for_vd(3)
        traces.for_node(2)
        assert pickle.dumps(traces) == before
        restored = pickle.loads(before)
        assert_same_rows(restored.for_vd(3), traces.for_vd(3))


class TestSpecDataset:
    def make(self) -> SpecDataset:
        vd = VdSpec(
            vd_id=0,
            vm_id=0,
            user_id=0,
            capacity_bytes=1 << 30,
            num_queue_pairs=2,
            throughput_cap_bps=1e8,
            iops_cap=1e4,
        )
        vm = VmSpec(vm_id=0, user_id=0, compute_node_id=3, application="Database")
        return SpecDataset(vd_specs=[vd], vm_specs=[vm])

    def test_lookup(self):
        spec = self.make()
        assert spec.vd(0).num_queue_pairs == 2
        assert spec.application_of_vm(0) == "Database"

    def test_unknown_raises(self):
        with pytest.raises(DatasetError):
            self.make().vd(99)

    def test_duplicate_rejected(self):
        vd = self.make().vd_specs[0]
        with pytest.raises(DatasetError):
            SpecDataset(vd_specs=[vd, vd], vm_specs=[])


class TestMetricDataset:
    def test_totals(self):
        storage = StorageMetricTable(
            timestamp=[0],
            cluster_id=[0],
            storage_node_id=[0],
            block_server_id=[0],
            user_id=[0],
            vm_id=[0],
            vd_id=[0],
            segment_id=[0],
            read_bytes=[5.0],
            write_bytes=[7.0],
            read_iops=[1.0],
            write_iops=[1.0],
        )
        dataset = MetricDataset(
            compute=compute_table(), storage=storage, duration_seconds=4
        )
        assert dataset.total_read_bytes() == pytest.approx(100.0)
        assert dataset.total_write_bytes() == pytest.approx(10.0)

    def test_rejects_bad_duration(self):
        with pytest.raises(DatasetError):
            MetricDataset(
                compute=compute_table(),
                storage=StorageMetricTable(
                    **{
                        name: []
                        for name in (
                            *StorageMetricTable.INT_FIELDS,
                            *StorageMetricTable.FLOAT_FIELDS,
                        )
                    }
                ),
                duration_seconds=0,
            )
