"""The Study: build fleets, simulate each DC, run experiments."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional

from repro.cluster.simulator import (
    EBSSimulator,
    SimulationConfig,
    SimulationResult,
)
from repro.core.config import StudyConfig
from repro.core.report import ExperimentResult
from repro.faults.plan import FaultPlan
from repro.obs.runtime import (
    Telemetry,
    get_telemetry,
    peak_rss_bytes,
    set_telemetry,
)
from repro.util.errors import ConfigError, SimulationError
from repro.util.rng import RngFactory
from repro.workload.fleet import FleetConfig, build_fleet


def _simulate_dc(
    payload: (
        "tuple[FleetConfig, SimulationConfig, int, bool, Optional[FaultPlan]]"
    ),
) -> "tuple[SimulationResult, Optional[dict]]":
    """Module-level worker: build + simulate one DC in a child process.

    Every RNG stream is keyed by the DC id (fleet build, workload,
    simulator), so simulating DCs in separate processes yields exactly
    the same datasets as the sequential loop.  With telemetry enabled in
    the parent, the worker records into a fresh handle and returns its
    snapshot for a deterministic merge (else None).  The optional fault
    plan is already scoped to this DC (:meth:`FaultPlan.for_dc`).
    """
    dc_config, sim_config, seed, telemetry_on, fault_plan = payload
    telemetry = None
    previous = None
    if telemetry_on:
        telemetry = Telemetry(enabled=True)
        previous = set_telemetry(telemetry)
    try:
        with get_telemetry().span("study.simulate_dc", dc=dc_config.dc_id):
            rngs = RngFactory(seed)
            fleet = build_fleet(dc_config, rngs)
            result = EBSSimulator(
                fleet, sim_config, rngs, fault_plan=fault_plan
            ).run()
    finally:
        if telemetry is not None:
            set_telemetry(previous)
    return result, telemetry.snapshot() if telemetry is not None else None


class Study:
    """Owns the end-to-end reproduction flow for one configuration.

    ``build()`` simulates every configured data center once; results are
    cached, so running many experiments reuses the same datasets — exactly
    like the paper analyzing one collected dataset many ways.
    """

    def __init__(
        self,
        config: Optional[StudyConfig] = None,
        chunk_epochs: "Optional[int]" = None,
        shard_dir: "Optional[str]" = None,
        max_rss_mb: "Optional[int]" = None,
        series_dtype: str = "float64",
    ):
        self.config = config if config is not None else StudyConfig()
        self.rngs = RngFactory(self.config.seed)
        self._results: List[SimulationResult] = []
        self._experiment_cache: Dict[str, ExperimentResult] = {}
        if chunk_epochs is not None and chunk_epochs < 1:
            raise ConfigError(
                f"chunk_epochs must be >= 1, got {chunk_epochs}"
            )
        #: ``None`` = monolithic build; an int streams each DC's
        #: simulation out-of-core in shards of that many epochs
        #: (byte-identical results; see :mod:`repro.engine`).
        self.chunk_epochs = chunk_epochs
        self.shard_dir = shard_dir
        self.max_rss_mb = max_rss_mb
        #: Streamed-build shard-store series dtype (``"float32"`` is the
        #: digest-gated opt-in; at ``"float64"`` results are
        #: digest-identical to a monolithic run).
        self.series_dtype = series_dtype
        self._engines: List[object] = []

    @classmethod
    def from_results(
        cls,
        config: StudyConfig,
        results: "List[SimulationResult]",
    ) -> "Study":
        """Assemble a pre-built study from per-DC simulation results.

        The sweep cache replays builds through this: experiments see a
        study indistinguishable from one that just ran ``build()`` —
        experiment RNG streams are label-keyed off the seed alone
        (:class:`~repro.util.rng.RngFactory` is stateless), so outputs
        are byte-identical to the monolithic path.  ``results`` must
        cover exactly the configured DCs, in ``dc_configs`` order.
        """
        want = [dc.dc_id for dc in config.dc_configs]
        got = [result.fleet.config.dc_id for result in results]
        if want != got:
            raise ConfigError(
                f"results cover DCs {got}, config expects {want}"
            )
        study = cls(config)
        study._results = list(results)
        return study

    @property
    def streamed(self) -> bool:
        """Whether builds run through the streaming engine."""
        return self.chunk_epochs is not None

    def cleanup(self) -> None:
        """Purge temp shard stores created by streamed builds.

        Call after the last experiment has consumed ``results`` — the
        streamed ``result.traffic`` views read lazily from the stores.
        Stores under an explicit ``shard_dir`` are kept.
        """
        for engine in self._engines:
            engine.cleanup()  # type: ignore[attr-defined]
        self._engines = []

    @property
    def built(self) -> bool:
        return bool(self._results)

    def _fault_plan_for(self, dc_id: int) -> "Optional[FaultPlan]":
        """The configured plan scoped to one DC (None when fault-free)."""
        plan = self.config.fault_plan
        if plan is None or plan.is_empty:
            return None
        scoped = plan.for_dc(dc_id)
        return None if scoped.is_empty else scoped

    @property
    def results(self) -> List[SimulationResult]:
        if not self._results:
            raise SimulationError("Study.build() has not been called")
        return self._results

    def build(self, workers: int = 1) -> "Study":
        """Simulate every DC (idempotent).

        ``workers > 1`` is an opt-in process fan-out: DCs simulate in
        parallel (each DC's streams are keyed by its dc_id, so results
        are identical to the sequential build); a study with a single DC
        instead fans the per-VD trace generation out over ``workers``.
        Either way the datasets are seed-stable for any worker count.
        """
        if self._results:
            return self
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        telemetry = get_telemetry()
        sim_config = self.config.simulation_config()
        dcs = self.config.dc_configs
        with telemetry.span(
            "study.build", workers=workers, dcs=len(dcs)
        ) as span:
            if self.streamed:
                # Out-of-core path: DCs stream sequentially (one bounded
                # working set at a time); ``workers`` fans out the
                # per-batch pass 2 inside each DC instead.
                from repro.engine import StreamingSimulator

                for dc_config in dcs:
                    fleet = build_fleet(dc_config, self.rngs)
                    simulator = EBSSimulator(
                        fleet,
                        sim_config,
                        self.rngs,
                        fault_plan=self._fault_plan_for(dc_config.dc_id),
                    )
                    dc_dir = (
                        None
                        if self.shard_dir is None
                        else f"{self.shard_dir}/dc{dc_config.dc_id:02d}"
                    )
                    engine = StreamingSimulator(
                        simulator,
                        chunk_epochs=self.chunk_epochs,
                        shard_dir=dc_dir,
                        max_rss_mb=self.max_rss_mb,
                        series_dtype=self.series_dtype,
                    )
                    self._engines.append(engine)
                    self._results.append(engine.run(workers=workers))
            elif workers > 1 and len(dcs) > 1:
                payloads = [
                    (
                        dc,
                        sim_config,
                        self.rngs.seed,
                        telemetry.enabled,
                        self._fault_plan_for(dc.dc_id),
                    )
                    for dc in dcs
                ]
                with ProcessPoolExecutor(
                    max_workers=min(workers, len(dcs))
                ) as pool:
                    outcomes = list(pool.map(_simulate_dc, payloads))
                # Merge per-worker telemetry in DC order; all metrics are
                # integer-valued, so the merged registry is byte-identical
                # to the sequential build's.
                for _, snapshot in outcomes:
                    telemetry.merge_snapshot(snapshot)
                self._results = [result for result, _ in outcomes]
            else:
                for dc_config in dcs:
                    with telemetry.span(
                        "study.simulate_dc", dc=dc_config.dc_id
                    ):
                        fleet = build_fleet(dc_config, self.rngs)
                        simulator = EBSSimulator(
                            fleet,
                            sim_config,
                            self.rngs,
                            fault_plan=self._fault_plan_for(dc_config.dc_id),
                        )
                        self._results.append(simulator.run(workers=workers))
            if telemetry.enabled:
                rss = peak_rss_bytes()
                if rss is not None:
                    span.set(peak_rss_bytes=rss)
        return self

    def result_for_dc(self, dc_id: int) -> SimulationResult:
        for result in self.results:
            if result.fleet.config.dc_id == dc_id:
                return result
        raise ConfigError(f"no data center with id {dc_id}")

    def run(self, experiment_id: str) -> ExperimentResult:
        """Execute one experiment by its table/figure id (cached)."""
        from repro.core.experiments import EXPERIMENTS

        if experiment_id not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {experiment_id!r}; "
                f"known: {sorted(EXPERIMENTS)}"
            )
        if experiment_id not in self._experiment_cache:
            self.build()
            telemetry = get_telemetry()
            with telemetry.span(
                "study.experiment", experiment=experiment_id
            ) as span:
                result = EXPERIMENTS[experiment_id](self)
                if telemetry.enabled:
                    # Wall-clock lives in the span itself; annotate memory
                    # (peak RSS is cumulative per process, so per-experiment
                    # deltas show which stage first grew the footprint).
                    rss = peak_rss_bytes()
                    if rss is not None:
                        span.set(peak_rss_bytes=rss)
                    telemetry.counter(
                        "study.experiments_run", experiment=experiment_id
                    ).inc()
            self._experiment_cache[experiment_id] = result
        return self._experiment_cache[experiment_id]

    def run_all(self) -> List[ExperimentResult]:
        """Run every registered experiment in id order."""
        from repro.core.experiments import experiment_ids

        return [self.run(experiment_id) for experiment_id in experiment_ids()]
