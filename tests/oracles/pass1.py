"""The scalar pass-1 reference of :class:`EBSSimulator`.

This is the original per-VD/per-QP loop that pass 1 was vectorized
from.  :class:`ReferencePass1Simulator` runs it in place of the
vectorized pass, so tests can compare whole runs: load grids, metric
tables and result digests must be bit-identical.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.cluster.simulator import EBSSimulator, _ColumnBuffer
from repro.faults.timeline import FaultAdjustedInputs
from repro.trace.dataset import ComputeMetricTable, StorageMetricTable
from repro.workload.generator import VdTraffic


class ReferencePass1Simulator(EBSSimulator):
    """An :class:`EBSSimulator` whose pass 1 is the scalar reference."""

    def _pass1_fast(
        self,
        traffic: "Optional[List[VdTraffic]]",
        qp_to_wt: np.ndarray,
        seg_to_bs: np.ndarray,
        adjusted: "Optional[FaultAdjustedInputs]" = None,
        stacked: "Optional[tuple]" = None,
        t0: int = 0,
    ) -> "tuple[np.ndarray, np.ndarray, _ColumnBuffer, _ColumnBuffer]":
        # The reference walks whole-horizon VD traffic; the streaming
        # engine's windowed inputs have no scalar counterpart.
        assert stacked is None and t0 == 0
        return self._pass1_reference(traffic, qp_to_wt, seg_to_bs, adjusted)

    def _record_mask(
        self, read_b: np.ndarray, write_b: np.ndarray,
        read_i: np.ndarray, write_i: np.ndarray,
    ) -> np.ndarray:
        cfg = self.config
        return (read_b + write_b >= cfg.min_record_bytes) | (
            read_i + write_i >= cfg.min_record_iops
        )

    def _pass1_reference(
        self,
        traffic: List[VdTraffic],
        qp_to_wt: np.ndarray,
        seg_to_bs: np.ndarray,
        adjusted: "Optional[FaultAdjustedInputs]" = None,
    ) -> "tuple[np.ndarray, np.ndarray, _ColumnBuffer, _ColumnBuffer]":
        """Scalar per-VD/per-QP loops: the audited ground-truth path.

        With ``adjusted`` (fault churn) the per-entity series are read
        from the shared fault-adjusted matrices instead of being derived
        from the VD series, and the per-segment BlockServer may vary per
        epoch (redirects) — accumulated with ``np.add.at`` in the same
        element order the fast path uses.
        """
        fleet = self.fleet
        cfg = self.config
        t = cfg.duration_seconds
        dc = fleet.config.dc_id
        bs_per_node = fleet.config.block_servers_per_node
        ep_idx = adjusted.epoch_index if adjusted is not None else None
        arange_t = np.arange(t) if adjusted is not None else None
        exp = self._expansion if self._redundancy is not None else None
        width = exp.width if exp is not None else 1

        wt_load = np.zeros((fleet.num_wts, t))
        bs_load = np.zeros((fleet.config.num_block_servers, t))
        compute_buf = _ColumnBuffer(
            ComputeMetricTable.INT_FIELDS, ComputeMetricTable.FLOAT_FIELDS
        )
        storage_buf = _ColumnBuffer(
            StorageMetricTable.INT_FIELDS, StorageMetricTable.FLOAT_FIELDS
        )

        for vd_traffic in traffic:
            vd = fleet.vds[vd_traffic.vd_id]
            vm = fleet.vms[vd.vm_id]
            for index, qp_id in enumerate(vd.qp_ids):
                if adjusted is None:
                    rb = vd_traffic.read_bytes * vd_traffic.qp_read_weights[index]
                    wb = vd_traffic.write_bytes * vd_traffic.qp_write_weights[index]
                    ri = vd_traffic.read_iops * vd_traffic.qp_read_weights[index]
                    wi = vd_traffic.write_iops * vd_traffic.qp_write_weights[index]
                else:
                    rb = adjusted.qp_rb[qp_id]
                    wb = adjusted.qp_wb[qp_id]
                    ri = adjusted.qp_ri[qp_id]
                    wi = adjusted.qp_wi[qp_id]
                wt_id = int(qp_to_wt[qp_id])
                wt_load[wt_id] += rb + wb
                mask = self._record_mask(rb, wb, ri, wi)
                if not mask.any():
                    continue
                ts = np.nonzero(mask)[0]
                n = ts.size
                compute_buf.append(
                    timestamp=ts,
                    cluster_id=np.full(n, dc),
                    compute_node_id=np.full(n, vm.compute_node_id),
                    user_id=np.full(n, vd.user_id),
                    vm_id=np.full(n, vd.vm_id),
                    vd_id=np.full(n, vd.vd_id),
                    wt_id=np.full(n, wt_id),
                    qp_id=np.full(n, qp_id),
                    read_bytes=rb[ts],
                    write_bytes=wb[ts],
                    read_iops=ri[ts],
                    write_iops=wi[ts],
                )
            for index, seg_id in enumerate(vd.segment_ids):
                # With redundancy active the storage entities are the
                # segment's copies (global replica id = seg * width +
                # slot); the precomputed per-replica weight vectors are
                # the exact operands the fast path multiplies with, so
                # both paths stay bit-identical.
                for slot in range(width):
                    ent_id = seg_id * width + slot if exp is not None else seg_id
                    if adjusted is None:
                        if exp is None:
                            s_rw = vd_traffic.segment_read_weights[index]
                            s_ww = vd_traffic.segment_write_weights[index]
                        else:
                            s_rw = exp.rep_rw[ent_id]
                            s_ww = exp.rep_ww[ent_id]
                        rb = vd_traffic.read_bytes * s_rw
                        wb = vd_traffic.write_bytes * s_ww
                        ri = vd_traffic.read_iops * s_rw
                        wi = vd_traffic.write_iops * s_ww
                        bs_id = int(
                            seg_to_bs[seg_id] if exp is None
                            else exp.rep_bs[ent_id]
                        )
                        bs_load[bs_id] += rb + wb
                        bs_sec = None
                    else:
                        rb = adjusted.seg_rb[ent_id]
                        wb = adjusted.seg_wb[ent_id]
                        ri = adjusted.seg_ri[ent_id]
                        wi = adjusted.seg_wi[ent_id]
                        bs_sec = adjusted.seg_bs_ep[ent_id][ep_idx]
                        np.add.at(bs_load, (bs_sec, arange_t), rb + wb)
                    mask = self._record_mask(rb, wb, ri, wi)
                    if not mask.any():
                        continue
                    ts = np.nonzero(mask)[0]
                    n = ts.size
                    if bs_sec is None:
                        bs_rows = np.full(n, bs_id)
                        node_rows = np.full(n, bs_id // bs_per_node)
                    else:
                        bs_rows = bs_sec[ts]
                        node_rows = bs_rows // bs_per_node
                    storage_buf.append(
                        timestamp=ts,
                        cluster_id=np.full(n, dc),
                        storage_node_id=node_rows,
                        block_server_id=bs_rows,
                        user_id=np.full(n, vd.user_id),
                        vm_id=np.full(n, vd.vm_id),
                        vd_id=np.full(n, vd.vd_id),
                        segment_id=np.full(n, seg_id),
                        read_bytes=rb[ts],
                        write_bytes=wb[ts],
                        read_iops=ri[ts],
                        write_iops=wi[ts],
                    )
        return wt_load, bs_load, compute_buf, storage_buf
