"""Streaming, sharded execution: fleet-scale studies in bounded memory.

The engine cuts a run along two axes — time (epoch-aligned shards) and
the VD axis (fleet-order batches) — spills generated traffic to a
columnar on-disk store, and re-runs the simulator's own vectorized
passes over reloaded windows.  A deterministic tree-merge then
reassembles full-run outputs that are **byte-identical** to a
single-shot run for any ``--chunk-epochs`` / ``--workers`` choice.

Module map::

    plan      StreamPlan geometry (pure arithmetic, property-tested)
    arena     reusable scratch buffers for kernels and shard reloads
    shards    on-disk raw/mmap ShardStore + StreamedTraffic view
    state     carry-over save/restore drivers (buckets, caches, faults)
    merge     ShardPart tree-merge with the canonical row order
    digest    result / telemetry-snapshot digests (the parity yardstick)
    executor  StreamingSimulator: the out-of-core pipeline itself
"""

from repro.engine.arena import Arena
from repro.engine.digest import result_digest, snapshot_digest
from repro.engine.executor import StreamingSimulator
from repro.engine.merge import ShardPart, merge_shard_parts, tree_reduce
from repro.engine.plan import EPOCH_SECONDS, StreamPlan, plan_for
from repro.engine.shards import (
    SERIES_DTYPES,
    ShardStore,
    StreamedTraffic,
    purge_store,
)
from repro.engine.state import (
    cut_series,
    replay_pages_streamed,
    shape_streamed,
)

__all__ = [
    "Arena",
    "EPOCH_SECONDS",
    "SERIES_DTYPES",
    "ShardPart",
    "ShardStore",
    "StreamPlan",
    "StreamedTraffic",
    "StreamingSimulator",
    "cut_series",
    "merge_shard_parts",
    "plan_for",
    "purge_store",
    "replay_pages_streamed",
    "result_digest",
    "shape_streamed",
    "snapshot_digest",
    "tree_reduce",
]
