"""Caching across the EBS stack (§7).

- :mod:`repro.cache.base` — the page-cache interface and hit/miss stats;
- :mod:`repro.cache.fifo` / :mod:`repro.cache.lru` — the classic
  eviction policies of Fig 7(a);
- :mod:`repro.cache.frozen` — the FrozenHot-style frozen cache: pin the
  hottest LBA region, never evict;
- :mod:`repro.cache.hotspot` — hottest-block analysis over the trace data
  (access rate, LBA share, write dominance, hot rate — Fig 6);
- :mod:`repro.cache.simulate` — trace-driven cache simulation and hit
  ratios (Fig 7(a));
- :mod:`repro.cache.fastreplay` — array-based replay fast paths, exactly
  equivalent to the scalar ``Cache.access`` reference;
- :mod:`repro.cache.placement` — CN-cache vs BS-cache comparison:
  latency gain and cache-space utilization (Fig 7(b)-(d)).
"""

from repro.cache.base import Cache, CacheStats
from repro.cache.fastreplay import (
    PreparedPages,
    fifo_hit_count,
    frozen_hit_count,
    lru_hit_count,
    prepare_pages,
    replay_many,
)
from repro.cache.fifo import FifoCache
from repro.cache.frozen import FrozenCache
from repro.cache.hotspot import (
    HottestBlock,
    hot_rate,
    hottest_block,
    hottest_block_wr_ratio,
)
from repro.cache.hybrid import HybridCacheConfig, latency_gain_hybrid
from repro.cache.prefetch import (
    PrefetchConfig,
    PrefetchStats,
    SequentialPrefetcher,
)
from repro.cache.lru import LruCache
from repro.cache.placement import (
    CachePlacementConfig,
    cacheable_vd_counts,
    latency_gain,
)
from repro.cache.simulate import simulate_vd_cache, simulate_vd_caches

__all__ = [
    "Cache",
    "CacheStats",
    "FifoCache",
    "FrozenCache",
    "HottestBlock",
    "hot_rate",
    "hottest_block",
    "hottest_block_wr_ratio",
    "HybridCacheConfig",
    "latency_gain_hybrid",
    "PrefetchConfig",
    "PrefetchStats",
    "SequentialPrefetcher",
    "LruCache",
    "CachePlacementConfig",
    "cacheable_vd_counts",
    "latency_gain",
    "simulate_vd_cache",
    "simulate_vd_caches",
    "PreparedPages",
    "fifo_hit_count",
    "frozen_hit_count",
    "lru_hit_count",
    "prepare_pages",
    "replay_many",
]
