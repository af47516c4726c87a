"""The online policy engine: §5 throttle-lending + §4 rebinding, served.

The batch experiments evaluate limited lending
(:func:`repro.throttle.lending.simulate_lending`) and hot/cold rebinding
(:func:`repro.balancer.wt.simulate_rebinding`) *offline*, replaying a
finished dataset.  :class:`OnlinePolicyEngine` adapts the same decision
arithmetic to the serving loop: every closed window delivers per-VD
loads, and the engine emits explicit, bounded-latency decisions —

- **lend** — Algorithm 2's single lend step on the window's mean usage:
  available resource from the unthrottled members' headroom, a ``p``
  fraction of it split over the throttled members by overshoot, lenders
  reduced by ``p`` x their individual headroom (mass-conserving, same
  formulas as the batch simulation; caps re-init every window, the
  period reset of Algorithm 2);
- **rebind** — the Fig 2(d) trigger
  (:func:`repro.balance.policies.wt_swap_decision`, the rule the batch
  replay applies per period) on per-node loads: when the hottest
  node carries more than ``trigger_ratio`` x the coldest node's bytes,
  the hottest VD of the hottest node re-homes to the coldest node, and
  the binding carries forward to later windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np

from repro.balance.policies import wt_swap_decision
from repro.live.windowing import ClosedWindow
from repro.util.errors import ConfigError


@dataclass(frozen=True)
class PolicyDecision:
    """One decision emitted by the online policy engine."""

    kind: str  # "lend" | "rebind"
    window_start: int
    window_end: int
    details: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "window_start": self.window_start,
            "window_end": self.window_end,
            "details": dict(self.details),
        }


class OnlinePolicyEngine:
    """Window-driven lend / rebind decisions over live per-VD loads."""

    def __init__(
        self,
        caps_bps: np.ndarray,
        vd_to_node: np.ndarray,
        num_nodes: int,
        lending_rate: float = 0.8,
        trigger_ratio: float = 1.2,
    ):
        caps = np.asarray(caps_bps, dtype=float)
        binding = np.asarray(vd_to_node, dtype=np.int64)
        if caps.ndim != 1 or caps.size == 0:
            raise ConfigError("caps_bps must be a non-empty 1-D array")
        if np.any(caps <= 0):
            raise ConfigError("caps_bps must be positive")
        if binding.shape != caps.shape:
            raise ConfigError(
                f"vd_to_node shape {binding.shape} != caps shape {caps.shape}"
            )
        if num_nodes < 1:
            raise ConfigError(f"num_nodes must be >= 1, got {num_nodes}")
        if binding.size and (
            binding.min() < 0 or binding.max() >= num_nodes
        ):
            raise ConfigError("vd_to_node entries must lie in [0, num_nodes)")
        if not 0.0 < lending_rate < 1.0:
            raise ConfigError(
                f"lending_rate must be in (0, 1), got {lending_rate}"
            )
        if trigger_ratio <= 1.0:
            raise ConfigError(
                f"trigger_ratio must exceed 1, got {trigger_ratio}"
            )
        self._caps = caps
        self._binding = binding.copy()
        self.num_nodes = int(num_nodes)
        self.lending_rate = float(lending_rate)
        self.trigger_ratio = float(trigger_ratio)
        self.throttled_vd_windows = 0

    @property
    def binding(self) -> np.ndarray:
        """The current VD -> node binding (rebinds mutate a copy)."""
        return self._binding

    # -- §5: one lend step on the window's mean usage ------------------------

    def _lend(self, usage: np.ndarray, window) -> "PolicyDecision | None":
        caps = self._caps
        over = usage >= caps
        if not over.any():
            return None
        self.throttled_vd_windows += int(over.sum())
        measured = np.minimum(usage, caps)
        available = float(caps.sum() - measured.sum())
        if available <= 0:
            return None
        lendable = self.lending_rate * available
        overshoot = np.clip(usage - caps, 0.0, None)
        overshoot_total = float(overshoot[over].sum())
        if overshoot_total > 0:
            boost = lendable * overshoot / overshoot_total
        else:
            boost = np.where(over, lendable / max(1, int(over.sum())), 0.0)
        headroom = np.clip(caps - usage, 0.0, None)
        reclaimed = np.where(~over, self.lending_rate * headroom, 0.0)
        return PolicyDecision(
            kind="lend",
            window_start=window.start,
            window_end=window.end,
            details={
                "borrowers": int(over.sum()),
                "lenders": int((~over & (headroom > 0)).sum()),
                "lent_bps": float(np.where(over, boost, 0.0).sum()),
                "reclaimed_bps": float(reclaimed.sum()),
            },
        )

    # -- §4: hot/cold rebind trigger on per-node loads -----------------------

    def _rebind(
        self, per_vd: np.ndarray, window
    ) -> "PolicyDecision | None":
        loads = np.bincount(
            self._binding, weights=per_vd, minlength=self.num_nodes
        )
        decision = wt_swap_decision(loads, self.trigger_ratio)
        if decision is None:
            return None
        hot, cold = decision
        on_hot = np.nonzero(self._binding == hot)[0]
        if on_hot.size <= 1:
            # A single-VD node cannot shed load by re-homing its only VD
            # without inverting the imbalance; skip (matches the batch
            # simulation swapping *sets*, which is a no-op here).
            return None
        mover = int(on_hot[np.argmax(per_vd[on_hot])])
        self._binding[mover] = cold
        return PolicyDecision(
            kind="rebind",
            window_start=window.start,
            window_end=window.end,
            details={
                "vd_id": mover,
                "from_node": hot,
                "to_node": cold,
                "hot_load_bytes": float(loads[hot]),
                "cold_load_bytes": float(loads[cold]),
            },
        )

    def on_window(self, closed: ClosedWindow) -> List[PolicyDecision]:
        """Decisions for one closed window (possibly empty)."""
        window = closed.stats.window
        if closed.per_vd.shape != self._caps.shape:
            raise ConfigError(
                f"per-VD load vector shape {closed.per_vd.shape} != "
                f"caps shape {self._caps.shape}"
            )
        usage = closed.per_vd / float(window.duration)
        decisions: List[PolicyDecision] = []
        lend = self._lend(usage, window)
        if lend is not None:
            decisions.append(lend)
        rebind = self._rebind(closed.per_vd, window)
        if rebind is not None:
            decisions.append(rebind)
        return decisions
