"""The end-to-end EBS simulator producing the DiTing datasets.

``EBSSimulator.run()`` drives every VD's offered load (from
:class:`repro.workload.WorkloadGenerator`) through the stack:

1. QPs are bound to worker threads by the hypervisor's round-robin balancer;
   per-second traffic splits over QPs by the VD's QP weights, yielding the
   compute-domain metric table (one row per active QP-second, Table 1).
2. Traffic splits over segments by the LBA model's segment weights; the
   current segment-to-BS placement yields the storage-domain metric table.
3. A sampled subset of individual IOs becomes the trace dataset: opcodes,
   sizes, LBA offsets from the hotspot model, the stack path, and the five
   per-component latencies (load-dependent via per-second WT/BS utilization).

Rows below the recording thresholds are dropped, mirroring a production
metric pipeline that does not emit all-zero aggregates.

Pass 1 (metric tables + load grids) stacks the per-VD series into
``(entity, second)`` weight matrices and emits rows with one mask per
table.  It is *bit-identical* to a scalar per-VD/per-QP reference loop
(same multiplication operands, same accumulation order, same row order);
the tests keep that loop as an oracle and compare whole runs against it.

Pass 2 (sampled traces) draws per-VD random streams from label-keyed child
RNGs, so it can optionally fan out over a ``ProcessPoolExecutor`` without
changing any output: results are seed-stable regardless of worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.hypervisor import HypervisorSet
from repro.cluster.latency import LatencyConfig, LatencyModel
from repro.cluster.redundancy import (
    READ_POLICY_NAMES,
    RedundancyConfig,
    ReplicaExpansion,
    build_expansion,
    check_plan_compatible,
    redundancy_fault_inputs,
    ring_table,
)
from repro.cluster.storage import StorageCluster
from repro.faults.outcome import (
    FaultOutcome,
    compute_window_stats,
    empty_trace_stats,
    merge_trace_stats,
)
from repro.faults.plan import FaultKind, FaultPlan
from repro.faults.timeline import (
    FaultAccounting,
    FaultAdjustedInputs,
    FaultTimeline,
)
from repro.obs.runtime import Telemetry, get_telemetry, set_telemetry
from repro.trace.dataset import (
    ComputeMetricTable,
    MetricDataset,
    SpecDataset,
    StorageMetricTable,
    TraceDataset,
)
from repro.trace.sampling import TraceSampler
from repro.util.errors import ConfigError
from repro.util.rng import RngFactory
from repro.util.units import GiB
from repro.workload.fleet import Fleet
from repro.workload.generator import VdTraffic, WorkloadGenerator

_MIN_IO_BYTES = 512
_MAX_IO_BYTES = 4 * 1024 * 1024

#: Upper bound on the number of (entity, second) cells materialized at once
#: by the vectorized pass 1; keeps peak memory flat on huge fleets.
_FAST_PASS_CHUNK_CELLS = 4 * 1024 * 1024


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of one simulation run."""

    duration_seconds: int = 1200
    trace_sampling_rate: float = 1.0 / 200.0
    min_record_bytes: float = 1024.0
    min_record_iops: float = 0.5
    diurnal_amplitude: float = 0.3
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    wt_capacity_bps: float = 2.0 * GiB
    bs_capacity_bps: float = 4.0 * GiB
    #: Redundancy spec ("r=3" / "ec=4+2"); None (or "r=1") keeps the
    #: single-copy legacy paths byte-identical.
    redundancy: "Optional[str]" = None
    #: Read-assignment policy over a segment's copies (ignored when
    #: redundancy is trivial): primary | least_loaded | power_of_two |
    #: water_filling.
    read_policy: str = "primary"

    def __post_init__(self) -> None:
        if self.duration_seconds <= 0:
            raise ConfigError("duration_seconds must be positive")
        if not 0.0 < self.trace_sampling_rate <= 1.0:
            raise ConfigError("trace_sampling_rate must be in (0, 1]")
        if self.min_record_bytes < 0 or self.min_record_iops < 0:
            raise ConfigError("recording thresholds must be non-negative")
        if self.wt_capacity_bps <= 0 or self.bs_capacity_bps <= 0:
            raise ConfigError("capacities must be positive")
        if self.redundancy is not None:
            RedundancyConfig.parse(self.redundancy)  # raises on bad spec
        if self.read_policy not in READ_POLICY_NAMES:
            raise ConfigError(
                f"unknown read policy {self.read_policy!r}; choose one of "
                f"{', '.join(READ_POLICY_NAMES)}"
            )

    def redundancy_config(self) -> "Optional[RedundancyConfig]":
        """Parsed scheme, or None when redundancy is trivially single-copy
        under the primary policy (the golden-digest-preserving case)."""
        if self.redundancy is None:
            return None
        scheme = RedundancyConfig.parse(self.redundancy)
        if scheme.is_trivial and self.read_policy == "primary":
            return None
        return scheme


@dataclass
class SimulationResult:
    """Everything a study needs downstream of one simulator run."""

    fleet: Fleet
    config: SimulationConfig
    metrics: MetricDataset
    traces: TraceDataset
    specs: SpecDataset
    hypervisors: HypervisorSet
    storage: StorageCluster
    traffic: List[VdTraffic]
    wt_load_bps: np.ndarray  # (num_wts, duration) total bytes/s per WT
    bs_load_bps: np.ndarray  # (num_bs, duration) total bytes/s per BS
    #: Failure attribution; None for failure-free runs, so every existing
    #: dataset, schema, and digest is untouched when no plan is given.
    faults: "Optional[FaultOutcome]" = None


class _ColumnBuffer:
    """Accumulates per-VD column chunks, concatenated once at the end.

    The empty fallback is dtyped per field: an integer column of a
    zero-traffic simulation must still come out as ``int64``, not as the
    float64 ``np.zeros(0)`` default (regression: quiet fleets used to
    yield float columns where the datasets expect ints).
    """

    def __init__(
        self,
        int_fields: "tuple[str, ...]",
        float_fields: "tuple[str, ...]" = (),
    ):
        self._dtypes: Dict[str, np.dtype] = {
            name: np.dtype(np.int64) for name in int_fields
        }
        self._dtypes.update(
            {name: np.dtype(np.float64) for name in float_fields}
        )
        self._chunks: Dict[str, List[np.ndarray]] = {
            name: [] for name in self._dtypes
        }

    def append(self, **chunks: np.ndarray) -> None:
        for name, chunk in chunks.items():
            self._chunks[name].append(np.asarray(chunk))

    def concatenated(self) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        for name, chunks in self._chunks.items():
            if not chunks:
                out[name] = np.zeros(0, dtype=self._dtypes[name])
            elif len(chunks) == 1:
                # Single-chunk columns (the vectorized pass emits one chunk
                # per table) skip the concatenate copy entirely.
                out[name] = chunks[0]
            else:
                out[name] = np.concatenate(chunks)
        return out


def _normalized_probabilities(weights: np.ndarray, label: str) -> np.ndarray:
    """Defensively re-normalize a weight vector for ``rng.choice(p=...)``.

    Upstream weight computation accumulates float drift; ``Generator.choice``
    rejects ``p`` whose sum strays more than ~1e-8 from 1.  Negative or
    non-finite weights indicate a real upstream bug and raise instead.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ConfigError(f"{label} must be a non-empty 1-D vector")
    if not np.all(np.isfinite(w)):
        raise ConfigError(f"{label} must be finite")
    if np.any(w < 0.0):
        raise ConfigError(f"{label} must be non-negative")
    total = float(w.sum())
    if total <= 0.0:
        raise ConfigError(f"{label} must have positive mass")
    return w / total


@dataclass(frozen=True)
class _EntityArrays:
    """Flat per-QP / per-segment metadata, indexed by global entity id."""

    qp_vd: np.ndarray
    qp_vm: np.ndarray
    qp_user: np.ndarray
    qp_node: np.ndarray
    seg_vd: np.ndarray
    seg_vm: np.ndarray
    seg_user: np.ndarray


def _trace_chunk_worker(
    payload: "tuple[EBSSimulator, List[VdTraffic], np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]",
) -> "tuple[List[Optional[Dict[str, np.ndarray]]], Optional[dict]]":
    """Module-level worker: per-VD trace columns for one chunk of VDs.

    Runs in a child process.  Each VD draws only from its own label-keyed
    RNG streams, so the output is identical no matter how VDs are
    partitioned over workers.  When the parent runs with telemetry
    enabled, the worker installs a fresh handle and ships its snapshot
    back for a deterministic merge (second tuple element, else None).
    """
    (
        simulator, chunk, qp_to_wt, seg_to_bs, wt_load, bs_load, telemetry_on,
    ) = payload
    telemetry = None
    previous = None
    if telemetry_on:
        telemetry = Telemetry(enabled=True)
        previous = set_telemetry(telemetry)
    try:
        with get_telemetry().span(
            "sim.pass2.chunk",
            dc=simulator.fleet.config.dc_id,
            vds=len(chunk),
        ):
            columns = [
                simulator._trace_columns_for_vd(
                    vd_traffic, qp_to_wt, seg_to_bs, wt_load, bs_load
                )
                for vd_traffic in chunk
            ]
    finally:
        if telemetry is not None:
            set_telemetry(previous)
    return columns, telemetry.snapshot() if telemetry is not None else None


class EBSSimulator:
    """Simulates one data center's EBS stack for a fixed duration."""

    def __init__(
        self,
        fleet: Fleet,
        config: SimulationConfig,
        rngs: RngFactory,
        fault_plan: "Optional[FaultPlan]" = None,
    ):
        self.fleet = fleet
        self.config = config
        self._rngs = rngs.child(f"sim/dc{fleet.config.dc_id}")
        self.latency_model = LatencyModel(config.latency)
        self._entities: Optional[_EntityArrays] = None
        #: Scratch-buffer arena for the fused pass-1 kernels, created
        #: lazily (and pickled as empty: it is pure scratch).  One
        #: simulator instance reuses the same buffers across every
        #: pass-1 call — i.e. across all shards of a streamed run.
        self._arena = None
        self.fault_plan = fault_plan
        #: Compiled once; an empty (or absent) plan compiles to None, so
        #: the failure-free paths run exactly today's code.
        self._timeline: Optional[FaultTimeline] = (
            FaultTimeline(fault_plan, fleet, config.duration_seconds)
            if fault_plan is not None and not fault_plan.is_empty
            else None
        )
        #: Parsed redundancy scheme; None when trivial (r=1 + primary),
        #: in which case every legacy code path runs untouched.
        self._redundancy: Optional[RedundancyConfig] = (
            config.redundancy_config()
        )
        if self._redundancy is not None:
            self._redundancy.validate_against(fleet.config.num_block_servers)
            if self._timeline is not None:
                check_plan_compatible(self._timeline)
        #: Replica expansion (placement x read policy), built once per run
        #: by :meth:`prepare_redundancy` after bindings are known.
        self._expansion: Optional[ReplicaExpansion] = None

    # -- helpers -------------------------------------------------------------

    @property
    def _pass1_arena(self):
        """The lazily created kernel arena (import deferred: the engine
        package imports this module, so a top-level import would cycle)."""
        if self._arena is None:
            from repro.engine.arena import Arena

            self._arena = Arena()
        return self._arena

    def bindings(
        self, hypervisors: HypervisorSet, storage: StorageCluster
    ) -> "tuple[np.ndarray, np.ndarray]":
        """(qp -> WT, segment -> BS) binding arrays for the current state."""
        fleet = self.fleet
        qp_to_wt = np.zeros(len(fleet.queue_pairs), dtype=np.int64)
        for qp_id, wt_id in hypervisors.binding_arrays().items():
            qp_to_wt[qp_id] = wt_id
        return qp_to_wt, storage.primary_array()

    def _entity_arrays(self) -> _EntityArrays:
        """Flat per-entity metadata (built once, cached)."""
        if self._entities is not None:
            return self._entities
        fleet = self.fleet
        vd_user = np.fromiter(
            (vd.user_id for vd in fleet.vds), dtype=np.int64,
            count=len(fleet.vds),
        )
        qp_vd = np.fromiter(
            (qp.vd_id for qp in fleet.queue_pairs), dtype=np.int64,
            count=len(fleet.queue_pairs),
        )
        qp_vm = np.fromiter(
            (qp.vm_id for qp in fleet.queue_pairs), dtype=np.int64,
            count=len(fleet.queue_pairs),
        )
        qp_node = np.fromiter(
            (qp.compute_node_id for qp in fleet.queue_pairs), dtype=np.int64,
            count=len(fleet.queue_pairs),
        )
        seg_vd = np.fromiter(
            (seg.vd_id for seg in fleet.segments), dtype=np.int64,
            count=len(fleet.segments),
        )
        vd_vm = np.fromiter(
            (vd.vm_id for vd in fleet.vds), dtype=np.int64,
            count=len(fleet.vds),
        )
        self._entities = _EntityArrays(
            qp_vd=qp_vd,
            qp_vm=qp_vm,
            qp_user=vd_user[qp_vd],
            qp_node=qp_node,
            seg_vd=seg_vd,
            seg_vm=vd_vm[seg_vd],
            seg_user=vd_user[seg_vd],
        )
        return self._entities

    # -- redundancy -----------------------------------------------------------

    def prepare_redundancy(
        self,
        traffic: List[VdTraffic],
        seg_to_bs: np.ndarray,
        table: "Optional[np.ndarray]" = None,
    ) -> "Optional[ReplicaExpansion]":
        """Build the replica expansion for this run's placement + traffic.

        ``table`` is the (num_segments, width) placement table (from
        ``storage.placement``); when omitted it is derived from the
        primary array by ring expansion — the same construction
        :class:`StorageCluster` starts from.  No-op (returns None) when
        redundancy is trivial.
        """
        scheme = self._redundancy
        if scheme is None:
            self._expansion = None
            return None
        fleet = self.fleet
        num_bs = fleet.config.num_block_servers
        if table is None:
            table = ring_table(seg_to_bs, scheme.width, num_bs)
        ent = self._entity_arrays()
        _qp_rw, _qp_ww, seg_rw, seg_ww = self._stacked_weights(traffic)
        vd_read_total = np.zeros(len(fleet.vds))
        vd_write_total = np.zeros(len(fleet.vds))
        for tr in traffic:
            vd_read_total[tr.vd_id] = float(tr.read_bytes.sum())
            vd_write_total[tr.vd_id] = float(tr.write_bytes.sum())
        rng = (
            self._rngs.get("redundancy/policy")
            if self.config.read_policy == "power_of_two"
            else None
        )
        with get_telemetry().span(
            "sim.redundancy.expand",
            dc=fleet.config.dc_id,
            scheme=scheme.spec,
            policy=self.config.read_policy,
        ):
            self._expansion = build_expansion(
                scheme,
                self.config.read_policy,
                table,
                ent.seg_vd,
                ent.seg_vm,
                ent.seg_user,
                seg_rw,
                seg_ww,
                vd_read_total,
                vd_write_total,
                num_bs,
                rng=rng,
            )
        return self._expansion

    # -- pass 1: metric tables + load grids ----------------------------------

    def fault_adjusted_inputs(
        self,
        traffic: List[VdTraffic],
        qp_to_wt: np.ndarray,
        seg_to_bs: np.ndarray,
    ) -> "Optional[FaultAdjustedInputs]":
        """Fault-adjusted per-entity series shared by both pass-1 paths.

        None when there is no plan (or the plan has no crash/stall inside
        the horizon) — the no-fault code paths then run unchanged.
        """
        timeline = self._timeline
        if timeline is None or not timeline.has_churn:
            return None
        t = self.config.duration_seconds
        with get_telemetry().span(
            "sim.faults.adjust",
            dc=self.fleet.config.dc_id,
            events=len(timeline.events),
        ):
            if self._redundancy is not None:
                if self._expansion is None:
                    self.prepare_redundancy(traffic, seg_to_bs)
                return redundancy_fault_inputs(
                    self._expansion,
                    timeline,
                    self._stacked_series(traffic, t),
                    self._stacked_weights(traffic),
                )
            return timeline.adjust(
                traffic,
                qp_to_wt,
                seg_to_bs,
                self._stacked_series(traffic, t),
                self._stacked_weights(traffic),
            )

    def run_pass1(
        self,
        traffic: List[VdTraffic],
        qp_to_wt: np.ndarray,
        seg_to_bs: np.ndarray,
        adjusted: "Optional[FaultAdjustedInputs]" = None,
    ) -> "tuple[np.ndarray, np.ndarray, ComputeMetricTable, StorageMetricTable]":
        """Load grids + metric tables.

        ``adjusted`` carries precomputed fault-adjusted inputs (so
        :meth:`run` computes them once for both passes and the outcome);
        when omitted they are derived here from the simulator's plan.
        """
        if (
            self._redundancy is not None
            and self._expansion is None
            and traffic is not None
        ):
            # Direct pass-1 callers (tests, benches) skip run(): derive
            # the expansion from the primary placement by ring expansion.
            self.prepare_redundancy(traffic, seg_to_bs)
        if adjusted is None:
            adjusted = self.fault_adjusted_inputs(traffic, qp_to_wt, seg_to_bs)
        telemetry = get_telemetry()
        dc = self.fleet.config.dc_id
        with telemetry.span("sim.pass1", dc=dc):
            wt_load, bs_load, cbuf, sbuf = self._pass1_fast(
                traffic, qp_to_wt, seg_to_bs, adjusted
            )
            compute_table = ComputeMetricTable(**cbuf.concatenated())
            storage_table = StorageMetricTable(**sbuf.concatenated())
        self._record_pass1_telemetry(
            wt_load, bs_load, compute_table, storage_table
        )
        return wt_load, bs_load, compute_table, storage_table

    def _record_pass1_telemetry(
        self, wt_load, bs_load, compute_table, storage_table
    ) -> None:
        """Pass-1 counters/gauges; the streaming engine calls this once
        after merging its shards so metric parity with the monolithic run
        holds for any ``--chunk-epochs`` choice."""
        telemetry = get_telemetry()
        if not telemetry.enabled:
            return
        dc = self.fleet.config.dc_id
        telemetry.counter("sim.pass1.runs", dc=dc).inc()
        telemetry.counter(
            "sim.pass1.rows", dc=dc, table="compute"
        ).inc(len(compute_table))
        telemetry.counter(
            "sim.pass1.rows", dc=dc, table="storage"
        ).inc(len(storage_table))
        telemetry.gauge("sim.pass1.wt_grid_cells", dc=dc).set_max(
            int(wt_load.size)
        )
        telemetry.gauge("sim.pass1.bs_grid_cells", dc=dc).set_max(
            int(bs_load.size)
        )

    def _stacked_series(
        self, traffic: List[VdTraffic], t: int
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
        """Per-VD series stacked into ``(num_vds, t)`` matrices."""
        num_vds = len(self.fleet.vds)
        read_b = np.zeros((num_vds, t))
        write_b = np.zeros((num_vds, t))
        read_i = np.zeros((num_vds, t))
        write_i = np.zeros((num_vds, t))
        for tr in traffic:
            read_b[tr.vd_id] = tr.read_bytes
            write_b[tr.vd_id] = tr.write_bytes
            read_i[tr.vd_id] = tr.read_iops
            write_i[tr.vd_id] = tr.write_iops
        return read_b, write_b, read_i, write_i

    def _stacked_weights(
        self, traffic: List[VdTraffic]
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
        """QP/segment weights stacked by global entity id."""
        fleet = self.fleet
        qp_rw = np.zeros(len(fleet.queue_pairs))
        qp_ww = np.zeros(len(fleet.queue_pairs))
        seg_rw = np.zeros(len(fleet.segments))
        seg_ww = np.zeros(len(fleet.segments))
        for tr in traffic:
            vd = fleet.vds[tr.vd_id]
            qs = slice(vd.first_qp_id, vd.first_qp_id + vd.num_queue_pairs)
            qp_rw[qs] = tr.qp_read_weights
            qp_ww[qs] = tr.qp_write_weights
            ss = slice(
                vd.first_segment_id, vd.first_segment_id + vd.num_segments
            )
            seg_rw[ss] = tr.segment_read_weights
            seg_ww[ss] = tr.segment_write_weights
        return qp_rw, qp_ww, seg_rw, seg_ww

    def _pass1_fast(
        self,
        traffic: "Optional[List[VdTraffic]]",
        qp_to_wt: np.ndarray,
        seg_to_bs: np.ndarray,
        adjusted: "Optional[FaultAdjustedInputs]" = None,
        stacked: "Optional[tuple]" = None,
        t0: int = 0,
    ) -> "tuple[np.ndarray, np.ndarray, _ColumnBuffer, _ColumnBuffer]":
        """Vectorized pass 1 over stacked (entity, second) matrices.

        The streaming engine (:mod:`repro.engine`) reuses this pass on a
        bounded **time window**: ``stacked`` supplies precomputed
        ``(read_b, write_b, read_i, write_i, qp_rw, qp_ww, seg_rw,
        seg_ww)`` matrices covering seconds ``[t0, t0 + L)`` (or
        ``adjusted`` supplies window-sliced fault matrices), and ``t0``
        offsets the emitted row timestamps back into run coordinates.
        Every per-cell value is elementwise in time, so a window's
        outputs are bitwise equal to the same columns of a full-horizon
        pass; with ``t0 == 0`` and ``stacked is None`` this is exactly
        the monolithic pass.

        Entities are processed in global id order in bounded-size chunks;
        within a chunk every per-second value is computed with the exact
        same elementwise operations (and ``np.add.at`` applies additions in
        index order), so load grids and metric rows are bit-identical to
        the scalar per-VD/per-QP reference loop (the test oracle in
        ``tests/oracles/pass1.py``) when ``traffic`` is in fleet VD order.

        The scatter-add onto a load grid uses a flat-index ``np.bincount``
        when the whole entity range fits in one chunk (the common case):
        ``bincount`` accumulates its weights sequentially in input order,
        exactly like the reference's ``+=`` per entity, so the grids stay
        bitwise equal while running several times faster than
        ``np.add.at``.  Multi-chunk runs (huge fleets) fall back to
        ``np.add.at`` per chunk, which updates the accumulator element by
        element in index order and is therefore exact across chunks too.

        The kernels are *fused*: per-chunk temporaries (the four gathered
        and scaled series, their sum, the record masks, the flat scatter
        indexes) are materialized once into arena-reused buffers
        (:class:`repro.engine.arena.Arena`) instead of being reallocated
        per chunk/shard.  Every buffer is fully written by the same
        elementwise operations the unfused code ran (``np.take`` +
        in-place ``multiply``/``add``/``greater_equal`` with ``out=``),
        so values — and digests — are bit-identical; only the allocator
        traffic changes.  Series gathered from a float32 raw store keep
        float32 through the elementwise stage (results deterministic,
        digests re-pinned); the load grids and metric tables accumulate
        in float64 as always.
        """
        fleet = self.fleet
        cfg = self.config
        dc = fleet.config.dc_id
        bs_per_node = fleet.config.block_servers_per_node
        min_bytes = cfg.min_record_bytes
        min_iops = cfg.min_record_iops
        ent = self._entity_arrays()

        if adjusted is None:
            if stacked is not None:
                (
                    read_b, write_b, read_i, write_i,
                    qp_rw, qp_ww, seg_rw, seg_ww,
                ) = stacked
            else:
                read_b, write_b, read_i, write_i = self._stacked_series(
                    traffic, cfg.duration_seconds
                )
                qp_rw, qp_ww, seg_rw, seg_ww = self._stacked_weights(traffic)
            t = int(read_b.shape[1])
        else:
            t = int(adjusted.epoch_index.size)
        ep_idx = adjusted.epoch_index if adjusted is not None else None

        wt_load = np.zeros((fleet.num_wts, t))
        bs_load = np.zeros((fleet.config.num_block_servers, t))
        compute_buf = _ColumnBuffer(
            ComputeMetricTable.INT_FIELDS, ComputeMetricTable.FLOAT_FIELDS
        )
        storage_buf = _ColumnBuffer(
            StorageMetricTable.INT_FIELDS, StorageMetricTable.FLOAT_FIELDS
        )
        num_qps = len(fleet.queue_pairs)
        num_segs = len(fleet.segments)
        chunk = max(64, _FAST_PASS_CHUNK_CELLS // max(1, t))
        arange_t = np.arange(t)
        arena = self._pass1_arena
        # Storage-entity view: without redundancy these alias the segment
        # arrays exactly (so the legacy path is byte-identical); with
        # redundancy the entities are the flattened replicas and the
        # emitted segment_id column maps each replica back to its segment.
        exp = self._expansion if self._redundancy is not None else None
        if exp is None:
            s_num = num_segs
            s_vd, s_vm, s_user = ent.seg_vd, ent.seg_vm, ent.seg_user
            s_bs = seg_to_bs
            s_seg = None
            if adjusted is None:
                s_rw, s_ww = seg_rw, seg_ww
        else:
            s_num = exp.num_replicas
            s_vd, s_vm, s_user = exp.rep_vd, exp.rep_vm, exp.rep_user
            s_bs = exp.rep_bs
            s_seg = exp.rep_seg
            if adjusted is None:
                s_rw, s_ww = exp.rep_rw, exp.rep_ww
        # Per-entity storage node, computed once instead of per metric row.
        seg_to_node = s_bs // bs_per_node

        def scatter_add(
            load: np.ndarray,
            targets: np.ndarray,
            bw: np.ndarray,
            single_chunk: bool,
        ) -> None:
            if single_chunk:
                flat = arena.take("pass1.flat", bw.shape, np.int64)
                np.multiply(targets[:, None], t, out=flat)
                flat += arange_t
                load += np.bincount(
                    flat.ravel(), weights=bw.ravel(), minlength=load.size
                ).reshape(load.shape)
            else:
                np.add.at(load, targets, bw)

        def gather_scaled(
            series: "tuple[np.ndarray, ...]",
            rows: np.ndarray,
            rw: np.ndarray,
            ww: np.ndarray,
        ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
            """Fused ``series[rows] * weight`` into arena-backed buffers.

            Same elementwise gather + in-place scale the unfused code
            ran (so every value is bit-identical); the four temporaries
            live in reused arena slots instead of fresh allocations, and
            ``np.take`` reads straight out of memmapped raw shards
            without an intermediate copy.
            """
            read_b, write_b, read_i, write_i = series
            shape = (rows.size, read_b.shape[1])
            sdtype = read_b.dtype
            rb = arena.take("pass1.rb", shape, sdtype)
            wb = arena.take("pass1.wb", shape, sdtype)
            ri = arena.take("pass1.ri", shape, sdtype)
            wi = arena.take("pass1.wi", shape, sdtype)
            np.take(read_b, rows, axis=0, out=rb)
            np.take(write_b, rows, axis=0, out=wb)
            np.take(read_i, rows, axis=0, out=ri)
            np.take(write_i, rows, axis=0, out=wi)
            np.multiply(rb, rw, out=rb)
            np.multiply(wb, ww, out=wb)
            np.multiply(ri, rw, out=ri)
            np.multiply(wi, ww, out=wi)
            return rb, wb, ri, wi

        def record_mask_fused(
            bw: np.ndarray, ri: np.ndarray, wi: np.ndarray
        ) -> np.ndarray:
            # The record thresholds over arena buffers: the reference's
            # two comparisons and logical-or, so the mask is bit-identical.
            mask = arena.take("pass1.mask", bw.shape, np.bool_)
            np.greater_equal(bw, min_bytes, out=mask)
            iops = arena.take("pass1.iops", bw.shape, ri.dtype)
            np.add(ri, wi, out=iops)
            iops_mask = arena.take("pass1.iops_mask", bw.shape, np.bool_)
            np.greater_equal(iops, min_iops, out=iops_mask)
            np.logical_or(mask, iops_mask, out=mask)
            return mask

        for start in range(0, num_qps, chunk):
            stop = min(start + chunk, num_qps)
            if adjusted is None:
                rb, wb, ri, wi = gather_scaled(
                    (read_b, write_b, read_i, write_i),
                    ent.qp_vd[start:stop],
                    qp_rw[start:stop, None],
                    qp_ww[start:stop, None],
                )
            else:
                rb = adjusted.qp_rb[start:stop]
                wb = adjusted.qp_wb[start:stop]
                ri = adjusted.qp_ri[start:stop]
                wi = adjusted.qp_wi[start:stop]
            bw = arena.take("pass1.bw", rb.shape, rb.dtype)
            np.add(rb, wb, out=bw)
            scatter_add(
                wt_load, qp_to_wt[start:stop], bw, num_qps <= chunk
            )
            mask = record_mask_fused(bw, ri, wi)
            e, ts = np.nonzero(mask)
            if not e.size:
                continue
            g = e + start  # global qp ids
            # rb[mask] scans in C order, exactly the (e, ts) row order.
            compute_buf.append(
                timestamp=ts + t0 if t0 else ts,
                cluster_id=np.full(g.size, dc),
                compute_node_id=ent.qp_node[g],
                user_id=ent.qp_user[g],
                vm_id=ent.qp_vm[g],
                vd_id=ent.qp_vd[g],
                wt_id=qp_to_wt[g],
                qp_id=g,
                read_bytes=rb[mask],
                write_bytes=wb[mask],
                read_iops=ri[mask],
                write_iops=wi[mask],
            )

        for start in range(0, s_num, chunk):
            stop = min(start + chunk, s_num)
            if adjusted is None:
                rb, wb, ri, wi = gather_scaled(
                    (read_b, write_b, read_i, write_i),
                    s_vd[start:stop],
                    s_rw[start:stop, None],
                    s_ww[start:stop, None],
                )
            else:
                rb = adjusted.seg_rb[start:stop]
                wb = adjusted.seg_wb[start:stop]
                ri = adjusted.seg_ri[start:stop]
                wi = adjusted.seg_wi[start:stop]
            bw = arena.take("pass1.bw", rb.shape, rb.dtype)
            np.add(rb, wb, out=bw)
            if adjusted is None:
                scatter_add(
                    bs_load, s_bs[start:stop], bw, s_num <= chunk
                )
            else:
                # Redirects make the target BS epoch-dependent: scatter with
                # a per-(segment, second) target grid.  ``np.add.at``
                # iterates in C (entity-major, second-ascending) order —
                # the exact order the reference's per-entity adds use.
                targets = adjusted.seg_bs_ep[start:stop][:, ep_idx]
                np.add.at(
                    bs_load,
                    (targets, np.broadcast_to(arange_t, targets.shape)),
                    bw,
                )
            mask = record_mask_fused(bw, ri, wi)
            e, ts = np.nonzero(mask)
            if not e.size:
                continue
            g = e + start  # global storage-entity ids (segments or replicas)
            if adjusted is None:
                bs_rows = s_bs[g]
                node_rows = seg_to_node[g]
            else:
                bs_rows = adjusted.seg_bs_ep[g, ep_idx[ts]]
                node_rows = bs_rows // bs_per_node
            storage_buf.append(
                timestamp=ts + t0 if t0 else ts,
                cluster_id=np.full(g.size, dc),
                storage_node_id=node_rows,
                block_server_id=bs_rows,
                user_id=s_user[g],
                vm_id=s_vm[g],
                vd_id=s_vd[g],
                segment_id=g if s_seg is None else s_seg[g],
                read_bytes=rb[mask],
                write_bytes=wb[mask],
                read_iops=ri[mask],
                write_iops=wi[mask],
            )
        return wt_load, bs_load, compute_buf, storage_buf

    # -- the full run --------------------------------------------------------

    def run(self, workers: int = 1) -> SimulationResult:
        """Execute the simulation and build all three datasets.

        ``workers > 1`` fans the per-VD trace generation (pass 2) out over
        a process pool; outputs are identical for any worker count.
        """
        fleet = self.fleet
        cfg = self.config
        t = cfg.duration_seconds
        telemetry = get_telemetry()
        dc = fleet.config.dc_id

        hypervisors = HypervisorSet(fleet)
        storage = StorageCluster(fleet, redundancy=self._redundancy)
        generator = WorkloadGenerator(
            fleet, t, self._rngs, diurnal_amplitude=cfg.diurnal_amplitude
        )
        with telemetry.span("sim.workload", dc=dc, vds=len(fleet.vds)):
            traffic = generator.generate_all()

        qp_to_wt, seg_to_bs = self.bindings(hypervisors, storage)
        if self._redundancy is not None:
            self.prepare_redundancy(
                traffic, seg_to_bs, table=storage.placement.table_array()
            )

        adjusted = self.fault_adjusted_inputs(traffic, qp_to_wt, seg_to_bs)
        wt_load, bs_load, compute_table, storage_table = self.run_pass1(
            traffic, qp_to_wt, seg_to_bs, adjusted=adjusted
        )
        metrics = MetricDataset(
            compute=compute_table, storage=storage_table, duration_seconds=t
        )

        # ---- pass 2: sampled traces ----------------------------------------
        with telemetry.span("sim.pass2", dc=dc, workers=workers):
            traces, trace_fault_stats = self._generate_traces(
                traffic, qp_to_wt, seg_to_bs, wt_load, bs_load, workers=workers
            )

        specs = SpecDataset(
            vd_specs=[fleet.vd_spec(vd.vd_id) for vd in fleet.vds],
            vm_specs=[fleet.vm_spec(vm.vm_id) for vm in fleet.vms],
        )

        faults = self._finalize_faults(
            hypervisors, storage, adjusted, traces, trace_fault_stats
        )

        return SimulationResult(
            fleet=fleet,
            config=cfg,
            metrics=metrics,
            traces=traces,
            specs=specs,
            hypervisors=hypervisors,
            storage=storage,
            traffic=traffic,
            wt_load_bps=wt_load,
            bs_load_bps=bs_load,
            faults=faults,
        )

    def _finalize_faults(
        self,
        hypervisors: HypervisorSet,
        storage: StorageCluster,
        adjusted: "Optional[FaultAdjustedInputs]",
        traces: TraceDataset,
        trace_fault_stats: "Optional[Dict[str, int]]",
    ) -> "Optional[FaultOutcome]":
        """Replay crash windows onto the stateful objects and attribute
        failures; None for fault-free runs.  Shared by :meth:`run` and the
        streaming engine so both produce identical :class:`FaultOutcome`s.
        """
        if self._timeline is None:
            return None
        telemetry = get_telemetry()
        with telemetry.span(
            "sim.faults.replay",
            dc=self.fleet.config.dc_id,
            events=len(self._timeline.events),
        ):
            self._replay_failures(hypervisors, storage)
        faults = FaultOutcome(
            plan=self._timeline.plan,
            accounting=(
                adjusted.accounting
                if adjusted is not None
                else FaultAccounting()
            ),
            trace_stats=(
                trace_fault_stats
                if trace_fault_stats is not None
                else empty_trace_stats()
            ),
            windows=compute_window_stats(self._timeline.plan, traces),
        )
        self._record_fault_telemetry(telemetry, faults)
        return faults

    def _replay_failures(
        self, hypervisors: HypervisorSet, storage: StorageCluster
    ) -> None:
        """Replay the plan's crash/stall windows onto the stateful objects.

        Chronological, with recoveries applied before failures at the
        same second (windows are half-open).  Leaves ``storage`` /
        ``hypervisors`` reflecting the end-of-horizon state, with every
        transition recorded in their failure/stall logs.
        """
        timeline = self._timeline
        if timeline is None:
            return
        cfg = self.fleet.config
        t = self.config.duration_seconds
        actions: "List[tuple[int, int, str, int]]" = []
        for event in timeline.events:
            if event.kind is FaultKind.BS_CRASH:
                targets = [int(event.target)]
            elif event.kind is FaultKind.CS_CRASH:
                per = cfg.block_servers_per_node
                targets = list(
                    range(event.target * per, (event.target + 1) * per)
                )
            elif event.kind is FaultKind.QP_STALL:
                actions.append((event.start_s, 1, "stall", int(event.target)))
                if event.end_s < t:
                    actions.append(
                        (event.end_s, 0, "unstall", int(event.target))
                    )
                continue
            else:
                continue
            for bs in targets:
                actions.append((event.start_s, 1, "fail", bs))
                if event.end_s < t:
                    actions.append((event.end_s, 0, "recover", bs))
        for second, _, action, target in sorted(actions):
            if action == "fail":
                storage.fail_block_server(target, timestamp=second)
            elif action == "recover":
                storage.recover_block_server(target, timestamp=second)
            elif action == "stall":
                hypervisors.stall_qp(target, timestamp=second)
            else:
                hypervisors.unstall_qp(target, timestamp=second)

    def _record_fault_telemetry(
        self, telemetry, faults: "FaultOutcome"
    ) -> None:
        """Fault counters (integer-valued, so merges stay deterministic)."""
        if not telemetry.enabled:
            return
        dc = self.fleet.config.dc_id
        timeline = self._timeline
        for event in timeline.events:
            telemetry.counter(
                "sim.faults.events", dc=dc, kind=event.kind.value
            ).inc()
        acct = faults.accounting
        for name, value in (
            ("redirected_ios", acct.redirected_ios),
            ("retried_ios", acct.retried_ios),
            ("queued_ios", acct.queued_ios),
            ("dropped_storage_ios", acct.dropped_storage_ios),
            ("stalled_ios", acct.stalled_ios),
            ("dropped_compute_ios", acct.dropped_compute_ios),
        ):
            telemetry.counter(
                "sim.faults.mass", dc=dc, metric=name
            ).inc(int(round(value)))
        for key, value in faults.trace_stats.items():
            telemetry.counter(
                "sim.faults.traces", dc=dc, metric=key
            ).inc(int(value))

    # -- pass 2: sampled traces ----------------------------------------------

    def _trace_replica_failover(
        self,
        exp: "ReplicaExpansion",
        timeline: FaultTimeline,
        seg_ids: np.ndarray,
        bs_ids: np.ndarray,
        seconds: np.ndarray,
        is_write: np.ndarray,
    ) -> "tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray], Dict[str, int]]":
        """Replica-aware trace fault handling (replaces redirect/queue).

        A read whose drawn copy is down fails over to the first
        surviving copy of its segment (one retry hop in the frontend);
        if every copy is down it is dropped.  A write whose primary is
        down is dropped (deferred re-replication).  Deterministic — no
        RNG draws — so trace identity off the crash windows is exact.
        """
        stats = empty_trace_stats()
        ep_all = timeline.epoch_index[seconds]
        down = timeline.bs_down_ep[bs_ids, ep_all]
        if not down.any():
            return bs_ids, None, None, stats
        bs_ids = bs_ids.copy()
        keep = np.ones(bs_ids.size, dtype=bool)
        retries = np.zeros(bs_ids.size, dtype=np.int64)
        idx = np.nonzero(down)[0]
        rows = exp.table[seg_ids[idx]]                       # (n_down, W)
        alive = ~timeline.bs_down_ep[rows, ep_all[idx][:, None]]
        ok = alive.any(axis=1) & ~is_write[idx]
        targets = rows[np.arange(idx.size), np.argmax(alive, axis=1)]
        bs_ids[idx[ok]] = targets[ok]
        retries[idx[ok]] = 1
        keep[idx[~ok]] = False
        n_ok = int(ok.sum())
        stats["redirected_ios"] = n_ok
        stats["retries"] = n_ok
        stats["dropped_ios"] = int(idx.size - n_ok)
        return (
            bs_ids,
            None if bool(keep.all()) else keep,
            retries if n_ok else None,
            stats,
        )

    def _trace_columns_for_vd(
        self,
        vd_traffic: VdTraffic,
        qp_to_wt: np.ndarray,
        seg_to_bs: np.ndarray,
        wt_load: np.ndarray,
        bs_load: np.ndarray,
    ) -> "Optional[Dict[str, np.ndarray]]":
        """Trace columns (sans trace_id) for one VD; None if nothing sampled.

        Every random draw comes from RNG streams keyed by this VD's id, so
        the result does not depend on which process (or in which order)
        generates it.
        """
        fleet = self.fleet
        cfg = self.config
        t = cfg.duration_seconds
        dc = fleet.config.dc_id
        bs_per_node = fleet.config.block_servers_per_node
        segment_bytes = fleet.config.segment_bytes

        vd = fleet.vds[vd_traffic.vd_id]
        vm = fleet.vms[vd.vm_id]
        rng = self._rngs.get(f"trace/vd{vd.vd_id}")
        sampler = TraceSampler(
            cfg.trace_sampling_rate,
            self._rngs.get(f"trace-sampler/vd{vd.vd_id}"),
        )

        read_counts = sampler.sample_counts(
            np.round(vd_traffic.read_iops).astype(np.int64)
        )
        write_counts = sampler.sample_counts(
            np.round(vd_traffic.write_iops).astype(np.int64)
        )
        n_read = int(read_counts.sum())
        n_write = int(write_counts.sum())
        n = n_read + n_write
        telemetry = get_telemetry()
        if telemetry.enabled:
            # Accumulated from array totals (never per element); all values
            # are integers, so per-worker merges are exact in any order.
            telemetry.counter("sim.traces.ios", dc=dc, op="read").inc(n_read)
            telemetry.counter("sim.traces.ios", dc=dc, op="write").inc(n_write)
            telemetry.histogram("sim.traces.ios_per_vd", dc=dc).observe(n)
        if n == 0:
            return None

        seconds = np.concatenate(
            [
                np.repeat(np.arange(t), read_counts),
                np.repeat(np.arange(t), write_counts),
            ]
        )
        is_write = np.zeros(n, dtype=bool)
        is_write[n_read:] = True
        timestamps = seconds + rng.random(n)

        mean_size = np.where(
            is_write,
            vd_traffic.mean_write_size_bytes,
            vd_traffic.mean_read_size_bytes,
        )
        sizes = np.clip(
            mean_size * rng.lognormal(0.0, 0.35, size=n),
            _MIN_IO_BYTES,
            _MAX_IO_BYTES,
        ).astype(np.int64)

        hot_fraction = vd_traffic.hot_fraction_series[seconds]
        offsets = vd_traffic.lba_model.draw_offsets(
            rng, is_write, hot_fraction
        )

        qp_read_p = _normalized_probabilities(
            vd_traffic.qp_read_weights, f"vd {vd.vd_id} qp read weights"
        )
        qp_write_p = _normalized_probabilities(
            vd_traffic.qp_write_weights, f"vd {vd.vd_id} qp write weights"
        )
        qp_index = np.where(
            is_write,
            rng.choice(vd.num_queue_pairs, size=n, p=qp_write_p),
            rng.choice(vd.num_queue_pairs, size=n, p=qp_read_p),
        )

        # ---- fault application (separate label-keyed stream) ---------------
        # All base-stream draws above are unconditional, so a no-fault plan
        # reproduces the failure-free trace dataset bit for bit.
        timeline = self._timeline
        fault_stats: Optional[Dict[str, int]] = None
        keep: Optional[np.ndarray] = None
        retries: Optional[np.ndarray] = None
        frac = timestamps - seconds
        if timeline is not None and timeline.has_any_effect:
            fault_stats = empty_trace_stats()
            fault_stats["total_ios"] = n
            frng = self._rngs.get(f"fault/vd{vd.vd_id}")
            seconds, qp_index, keep, cstats = timeline.trace_compute_faults(
                vd, vd_traffic, frng, seconds, qp_index, is_write
            )
            merge_trace_stats(fault_stats, cstats)

        qp_ids = vd.first_qp_id + qp_index
        wt_ids = qp_to_wt[qp_ids]

        seg_index = np.minimum(offsets // segment_bytes, vd.num_segments - 1)
        seg_ids = vd.first_segment_id + seg_index
        exp = self._expansion if self._redundancy is not None else None
        if exp is None:
            bs_ids = seg_to_bs[seg_ids]
        else:
            # Draw each read's serving copy from the policy's per-segment
            # weights (separate label-keyed stream, so the base trace
            # draws above stay untouched); writes pin to the primary.
            rrng = self._rngs.get(f"redundancy/vd{vd.vd_id}")
            u = rrng.random(n)
            cum = exp.read_cum[seg_ids]
            slots = np.minimum(
                (u[:, None] >= cum).sum(axis=1), exp.width - 1
            )
            slots[is_write] = 0
            bs_ids = exp.table[seg_ids, slots]

        if timeline is not None and timeline.has_any_effect:
            if exp is None:
                bs_ids, seconds, skeep, retries, sstats = (
                    timeline.trace_storage_faults(bs_ids, seconds, alive=keep)
                )
            else:
                # Redundancy: reads on a downed copy fail over to the
                # first surviving copy instead of redirecting/queueing.
                bs_ids, skeep, retries, sstats = (
                    self._trace_replica_failover(
                        exp, timeline, seg_ids, bs_ids, seconds, is_write
                    )
                )
            merge_trace_stats(fault_stats, sstats)
            if skeep is not None:
                keep = skeep if keep is None else keep & skeep
            timestamps = seconds + frac

        wt_u = wt_load[wt_ids, seconds] / cfg.wt_capacity_bps
        bs_u = bs_load[bs_ids, seconds] / cfg.bs_capacity_bps
        latencies = self.latency_model.sample(
            rng, is_write, sizes, wt_u, bs_u
        )

        if timeline is not None and timeline.has_degrade:
            degraded = np.zeros(n, dtype=bool)
            for component in LatencyModel.COMPONENTS:
                series = timeline.multiplier_series(component)
                if series is None:
                    continue
                multipliers = series[seconds]
                latencies[component] = latencies[component] * multipliers
                degraded |= multipliers > 1.0
            if keep is not None:
                degraded &= keep  # dropped IOs are not "degraded"
            fault_stats["degraded_ios"] = int(degraded.sum())
        if retries is not None:
            # Redirect hops happen in the frontend's BlockClient: each hop
            # costs one backoff before the IO reaches the replica BS.
            latencies["frontend"] = (
                latencies["frontend"]
                + retries * timeline.plan.retry_backoff_us
            )

        columns = dict(
            op=is_write.astype(np.int64),
            size_bytes=sizes,
            offset_bytes=offsets,
            user_id=np.full(n, vd.user_id),
            vm_id=np.full(n, vd.vm_id),
            vd_id=np.full(n, vd.vd_id),
            qp_id=qp_ids,
            wt_id=wt_ids,
            compute_node_id=np.full(n, vm.compute_node_id),
            segment_id=seg_ids,
            block_server_id=bs_ids,
            storage_node_id=bs_ids // bs_per_node,
            timestamp=timestamps,
            lat_compute_us=latencies["compute"],
            lat_frontend_us=latencies["frontend"],
            lat_block_server_us=latencies["block_server"],
            lat_backend_us=latencies["backend"],
            lat_chunk_server_us=latencies["chunk_server"],
        )
        if keep is not None and not keep.all():
            # Dropped IOs leave the trace dataset; they are counted in the
            # fault stats (never both recorded and dropped).
            columns = {name: values[keep] for name, values in columns.items()}
        if fault_stats is not None:
            columns["_fault"] = fault_stats  # popped by _generate_traces
        return columns

    def _generate_traces(
        self,
        traffic: List[VdTraffic],
        qp_to_wt: np.ndarray,
        seg_to_bs: np.ndarray,
        wt_load: np.ndarray,
        bs_load: np.ndarray,
        workers: int = 1,
    ) -> "tuple[TraceDataset, Optional[Dict[str, int]]]":
        cfg = self.config
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        telemetry = get_telemetry()

        if workers == 1 or len(traffic) < 2:
            per_vd = (
                self._trace_columns_for_vd(
                    vd_traffic, qp_to_wt, seg_to_bs, wt_load, bs_load
                )
                for vd_traffic in traffic
            )
            columns_in_order = per_vd
        else:
            workers = min(workers, len(traffic))
            bounds = np.linspace(0, len(traffic), workers + 1).astype(int)
            payloads = [
                (
                    self,
                    traffic[bounds[i]: bounds[i + 1]],
                    qp_to_wt,
                    seg_to_bs,
                    wt_load,
                    bs_load,
                    telemetry.enabled,
                )
                for i in range(workers)
                if bounds[i] < bounds[i + 1]
            ]
            with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
                chunk_results = list(pool.map(_trace_chunk_worker, payloads))
            # Merge worker telemetry in chunk (VD) order: counters and
            # histogram buckets are integer-valued, so the merged metrics
            # are byte-identical to the sequential run's.
            for _, snapshot in chunk_results:
                telemetry.merge_snapshot(snapshot)
            columns_in_order = (
                columns for chunk, _ in chunk_results for columns in chunk
            )

        return self._collect_trace_columns(columns_in_order)

    def _collect_trace_columns(
        self, columns_in_order
    ) -> "tuple[TraceDataset, Optional[Dict[str, int]]]":
        """Assemble per-VD trace columns (in fleet VD order) into a dataset.

        Assigns the global ``trace_id`` sequence, folds per-VD fault stats,
        and records the sampled-trace counter.  Shared by the monolithic
        pass 2 and the streaming engine's batch-wise pass 2 — both feed
        VD columns in fleet order, so the dataset is identical however
        the VDs were partitioned.
        """
        cfg = self.config
        telemetry = get_telemetry()
        buffer = _ColumnBuffer(
            TraceDataset.INT_FIELDS, TraceDataset.FLOAT_FIELDS
        )
        next_trace_id = 0
        fault_stats: Optional[Dict[str, int]] = None
        for columns in columns_in_order:
            if columns is None:
                continue
            per_vd_stats = columns.pop("_fault", None)
            if per_vd_stats is not None:
                if fault_stats is None:
                    fault_stats = empty_trace_stats()
                merge_trace_stats(fault_stats, per_vd_stats)
            n = columns["op"].size
            if n:
                buffer.append(
                    trace_id=np.arange(next_trace_id, next_trace_id + n),
                    **columns,
                )
            next_trace_id += n

        if telemetry.enabled:
            telemetry.counter(
                "sim.traces.sampled", dc=self.fleet.config.dc_id
            ).inc(next_trace_id)
        dataset = TraceDataset(
            sampling_rate=cfg.trace_sampling_rate, **buffer.concatenated()
        )
        return dataset, fault_stats
