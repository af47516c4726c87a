"""Trace-driven cache simulation (§7.3.1, Fig 7(a)).

Replays one VD's IO trace (time-ordered) through a cache with 4 KiB pages.
The paper sizes each policy's cache to the hottest-block size and anchors
the frozen cache at the hottest block's LBA.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.cache.base import Cache
from repro.cache.fastreplay import (
    pages_in_time_order,
    prepare_pages,
    replay_many,
)
from repro.cache.fifo import FifoCache
from repro.cache.frozen import FrozenCache
from repro.cache.hotspot import hottest_block
from repro.cache.lru import LruCache
from repro.trace.dataset import TraceDataset

PAGE_BYTES = 4096


def replay_trace(cache: Cache, traces: TraceDataset) -> float:
    """Feed every traced IO through ``cache`` in time order; returns hit ratio.

    Multi-page IOs touch only their first page (the paper traces one offset
    per IO); the simplification affects all policies identically.

    This is the scalar **reference** implementation; the array-based
    equivalent lives in :mod:`repro.cache.fastreplay` and is pinned
    bit-identical to this path by tests.
    """
    if len(traces) == 0:
        return 0.0
    order = np.argsort(traces.timestamp, kind="stable")
    offsets = traces.offset_bytes[order]
    writes = traces.op[order].astype(bool)
    pages = offsets // PAGE_BYTES
    for page, is_write in zip(pages, writes):
        cache.access(int(page), bool(is_write))
    return cache.stats.hit_ratio


def simulate_vd_cache(
    traces: TraceDataset,
    vd_id: int,
    block_bytes: int,
    capacity_bytes: int,
    fast: bool = True,
) -> "Dict[str, float] | None":
    """Hit ratios of FIFO, LRU, and the frozen cache for one VD.

    All three caches get the same capacity (the block size, in pages); the
    frozen cache is anchored at the hottest block.  Returns None when the
    VD has no traced IOs.  ``fast=False`` pins the scalar reference replay
    (the default fast path produces identical ratios).
    """
    out = simulate_vd_caches(
        traces, vd_id, (block_bytes,), capacity_bytes, fast=fast
    )
    return None if out is None else out[block_bytes]


def simulate_vd_caches(
    traces: TraceDataset,
    vd_id: int,
    block_bytes_list: Sequence[int],
    capacity_bytes: int,
    fast: bool = True,
) -> "Dict[int, Dict[str, float]] | None":
    """:func:`simulate_vd_cache` for several block sizes at once.

    Preparing a VD's page stream (time sort, duplicate compression,
    previous-occurrence index) costs more than a single replay — doing it
    once per VD instead of once per (VD, block size, policy) is where the
    fast path's fleet-scale speedup comes from.  Returns
    ``{block_bytes: {policy: hit_ratio}}``, or None when the VD has no
    traced IOs.
    """
    vd_traces = traces.for_vd(vd_id)
    if len(vd_traces) == 0:
        return None
    prepared = (
        prepare_pages(pages_in_time_order(vd_traces)) if fast else None
    )
    out: "Dict[int, Dict[str, float]]" = {}
    for block_bytes in block_bytes_list:
        block = hottest_block(traces, vd_id, block_bytes, capacity_bytes)
        capacity_pages = max(1, block_bytes // PAGE_BYTES)
        caches: Dict[str, Cache] = {
            "fifo": FifoCache(capacity_pages),
            "lru": LruCache(capacity_pages),
            "frozen": FrozenCache.for_byte_range(
                block.start_byte, block.block_bytes, PAGE_BYTES
            ),
        }
        if fast:
            out[block_bytes] = replay_many(caches, vd_traces, prepared)
        else:
            out[block_bytes] = {
                name: replay_trace(cache, vd_traces)
                for name, cache in caches.items()
            }
    return out
