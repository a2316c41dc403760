"""Storm harness: open-loop overload plus mid-storm faults.

Ties the overload-survival layer together (docs/overload.md): an
open-loop trace (:func:`~repro.serve.overload.make_trace`, typically
with a :class:`~repro.serve.overload.FlashCrowd` several times above
sustainable throughput) is fired at a defended service -- overload
policy, autoscaler -- while an existing
:class:`~repro.faults.FaultPlan` (crashes, corruption, device
outages) strikes mid-storm.  The harness recovers planned crashes
from the write-ahead journal exactly once and reports per-class SLO
attainment, goodput decomposition (met | degraded | shed | rejected |
missed) and MTTR.

Everything is a pure function of the configs' seeds on the virtual
clock: the same storm replays bit-identically, which is how the
tests pin it.

:func:`run_storm` drives one :class:`~repro.serve.service.SearchService`
node; :func:`run_cluster_storm` drives a
:class:`~repro.serve.cluster.ClusterRouter` across *epochs*, resizing
the shard count between epochs with the
:class:`~repro.serve.autoscale.ShardAutoscaler` (consistent hashing
keeps most keys in place across a resize) and optionally crashing a
shard mid-storm.

:data:`SCENARIOS` names every storm that a benchmark report quotes.
The CLI (``serve-bench --scenario NAME``), the benchmark gates and the
tests all build their configs from it.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from repro.faults import FaultPlan
from repro.serve.autoscale import (
    AutoscalerConfig,
    ShardAutoscaler,
    ShardAutoscalerConfig,
)
from repro.serve.clients import (
    ClientPopulation,
    MetastabilityDetector,
    MetastabilityVerdict,
    RetryBudget,
)
from repro.serve.cluster import (
    ClusterReport,
    ClusterRouter,
    HedgePolicy,
)
from repro.serve.metrics import (
    ClassStats,
    ServiceReport,
    class_summary,
)
from repro.serve.overload import (
    FlashCrowd,
    OverloadPolicy,
    TraceConfig,
    make_trace,
)
from repro.serve.request import (
    RequestRecord,
    SearchRequest,
    TERMINAL_STATUSES,
)
from repro.serve.service import SearchService, ServiceCrash
from repro.serve.workload import WorkloadConfig


class SilentOutcomeError(AssertionError):
    """A request ended the storm without an explicit terminal
    outcome -- exactly the silent deadline miss the overload layer
    exists to rule out."""


def assert_explicit_outcomes(
    records: "list[RequestRecord]",
) -> None:
    """Every request must end in a terminal status (met / degraded /
    shed / rejected / missed) -- zero silent outcomes."""
    silent = [
        r.request.request_id
        for r in records
        if r.status not in TERMINAL_STATUSES
    ]
    if silent:
        raise SilentOutcomeError(
            f"{len(silent)} request(s) ended without an explicit "
            f"outcome: {silent[:5]}"
        )


@dataclass(frozen=True)
class StormConfig:
    """One single-node storm: trace + defenses + faults."""

    trace: TraceConfig = field(default_factory=TraceConfig)
    n_devices: int = 2
    max_active: int = 32
    max_queue: int = 128
    seed: int = 0
    #: Overload policy (``True`` -> defaults, ``None`` -> undefended).
    overload: "OverloadPolicy | dict | bool | None" = True
    #: Device-fleet autoscaler (``None`` -> fixed fleet).
    autoscale: "AutoscalerConfig | dict | bool | None" = None
    #: Fault plan string striking mid-storm (``crash=...`` needs a
    #: ``journal`` to recover from).
    faults: "str | FaultPlan | None" = None
    journal: "str | Path | None" = None
    #: Closed-loop client population (repro.serve.clients): retries
    #: feed back into offered load (``None`` -> open-loop, the
    #: legacy storm).
    clients: "ClientPopulation | dict | bool | None" = None
    #: Server-side retry budget (``None`` -> retries admitted like
    #: first-tries).
    retry_budget: "RetryBudget | dict | bool | None" = None
    #: Post-crowd metastability analysis (``None`` -> no verdict).
    detector: "MetastabilityDetector | dict | bool | None" = None
    #: Extra ``SearchService`` kwargs as ``(key, value)`` pairs.
    service_kwargs: tuple = ()

    def crowd_clear_s(self) -> float:
        """When the trace's last flash crowd ends (0.0 with none) --
        the metastability detector's observation window opens after
        this point."""
        return max(
            (
                c.start_s + c.duration_s
                for c in self.trace.components
                if isinstance(c, FlashCrowd)
            ),
            default=0.0,
        )

    def post_crowd_s(self) -> float:
        """Start of the post-crowd window: the crowd's end plus the
        detector's settle time (0 without a detector)."""
        detector = MetastabilityDetector.coerce(self.detector)
        settle_s = detector.settle_s if detector is not None else 0.0
        return self.crowd_clear_s() + settle_s


@dataclass
class StormOutcome:
    """What one storm did, per class and in aggregate."""

    requests: "list[SearchRequest]"
    records: "list[RequestRecord]"
    report: ServiceReport
    crashes: int = 0
    recoveries: int = 0
    #: Recovered incarnation's elapsed time (restart -> drained).
    mttr_s: float = 0.0
    #: Post-crowd metastability verdict (``None`` when the storm ran
    #: without a detector).
    metastability: "MetastabilityVerdict | None" = None

    @property
    def per_class(self) -> "dict[str, ClassStats]":
        return self.report.per_class

    def attainment(self, priority: str) -> float:
        stats = self.report.per_class.get(priority)
        return stats.attainment if stats is not None else 0.0


def run_storm(config: StormConfig) -> StormOutcome:
    """Fire one storm at a single service node, recovering a planned
    mid-storm crash from the journal exactly once."""
    requests = make_trace(config.trace)
    kwargs = dict(
        n_devices=config.n_devices,
        max_active=config.max_active,
        max_queue=config.max_queue,
        seed=config.seed,
        overload=config.overload,
        autoscale=config.autoscale,
        faults=config.faults,
        clients=config.clients,
        retry_budget=config.retry_budget,
    )
    kwargs.update(dict(config.service_kwargs))
    service = SearchService(journal=config.journal, **kwargs)
    service.submit_all(requests)
    crashes = recoveries = 0
    mttr_s = 0.0
    try:
        records = service.run()
    except ServiceCrash:
        if config.journal is None:
            raise
        crashes += 1
        # Journalled completions are adopted verbatim (exactly-once);
        # incomplete requests resume from their checkpoints.  recover
        # strips the plan's crash so the storm cannot crash-loop.
        service = SearchService.recover(config.journal, **kwargs)
        records = service.run()
        recoveries += 1
        mttr_s = service.report().elapsed_s
    report = service.report()
    assert_explicit_outcomes(records)
    detector = MetastabilityDetector.coerce(config.detector)
    verdict = None
    if detector is not None:
        # The observation window runs from the end of the triggering
        # crowd to the end of the run (arrivals stop at the trace
        # horizon, but retries and backlogged work finish later).
        verdict = detector.analyze(
            records,
            clear_s=config.crowd_clear_s(),
            horizon_s=max(
                config.trace.horizon_s,
                max(
                    (
                        r.finish_s
                        for r in records
                        if r.finish_s is not None
                    ),
                    default=0.0,
                ),
            ),
        )
    return StormOutcome(
        requests=requests,
        records=records,
        report=report,
        crashes=crashes,
        recoveries=recoveries,
        mttr_s=mttr_s,
        metastability=verdict,
    )


@dataclass(frozen=True)
class ClusterStormConfig:
    """One cluster storm: trace + epoch-wise shard scaling + an
    optional mid-storm shard crash."""

    trace: TraceConfig = field(default_factory=TraceConfig)
    epochs: int = 2
    initial_shards: int = 2
    replicas: int = 1
    seed: int = 0
    #: Epoch-granularity shard-count loop (``None`` -> fixed count).
    shard_autoscale: "ShardAutoscalerConfig | None" = None
    #: Spread shards over this many failure domains (0 -> one domain
    #: per shard, the legacy layout).
    n_domains: int = 0
    cache: "dict | bool | None" = None
    #: Cluster-level hedged requests (``None`` -> no hedging).
    hedge: "HedgePolicy | dict | bool | None" = None
    #: Per-epoch journal root (``None`` with a ``crash_epoch`` -> a
    #: temporary directory, removed after the run).
    journal_dir: "str | Path | None" = None
    #: Epoch in which shard 0's fault plan fires (``None`` -> no
    #: crash).
    crash_epoch: "int | None" = None
    crash_faults: str = "crash=tick:3"
    #: Extra per-shard ``SearchService`` kwargs as pairs.
    service_kwargs: tuple = ()

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError(
                f"epochs must be positive: {self.epochs}"
            )
        if self.initial_shards <= 0:
            raise ValueError(
                f"initial_shards must be positive: "
                f"{self.initial_shards}"
            )


@dataclass
class ClusterStormOutcome:
    """What one cluster storm did across its epochs."""

    requests: "list[SearchRequest]"
    records: "list[RequestRecord]"
    reports: "list[ClusterReport]"
    #: Shard count each epoch ran with.
    shard_counts: "list[int]"
    per_class: "dict[str, ClassStats]"
    crashes: int = 0
    recoveries: int = 0
    mean_mttr_s: float = 0.0

    def attainment(self, priority: str) -> float:
        stats = self.per_class.get(priority)
        return stats.attainment if stats is not None else 0.0


def run_cluster_storm(
    config: ClusterStormConfig,
) -> ClusterStormOutcome:
    """Fire one storm at a sharded cluster, epoch by epoch.

    Requests are partitioned into equal virtual-time epochs by
    arrival.  Each epoch runs a fresh :class:`ClusterRouter` at the
    shard count the :class:`ShardAutoscaler` chose from the previous
    epoch's interactive attainment (the ring seed is fixed, so a
    resize only moves the keys consistent hashing says must move).
    In ``crash_epoch``, shard 0 runs under ``crash_faults`` and
    recovers from its own journal -- requests of a crashed shard are
    still served exactly once.
    """
    if config.crash_epoch is not None and config.journal_dir is None:
        with tempfile.TemporaryDirectory() as journal_dir:
            return run_cluster_storm(
                replace(config, journal_dir=journal_dir)
            )
    requests = make_trace(config.trace)
    epoch_len = config.trace.horizon_s / config.epochs
    scaler = (
        ShardAutoscaler(config.shard_autoscale)
        if config.shard_autoscale is not None
        else None
    )
    journal_dir = (
        Path(config.journal_dir)
        if config.journal_dir is not None
        else None
    )
    n_shards = config.initial_shards
    shard_counts: "list[int]" = []
    reports: "list[ClusterReport]" = []
    all_records: "list[RequestRecord]" = []
    crashes = recoveries = 0
    mttrs: "list[float]" = []
    for epoch in range(config.epochs):
        lo = epoch * epoch_len
        hi = (epoch + 1) * epoch_len
        batch = [
            r
            for r in requests
            if lo <= r.arrival_s < hi
            or (epoch == config.epochs - 1 and r.arrival_s >= hi)
        ]
        shard_counts.append(n_shards)
        if not batch:
            continue
        overrides = (
            {0: {"faults": config.crash_faults}}
            if epoch == config.crash_epoch
            else None
        )
        domains = (
            tuple(i % config.n_domains for i in range(n_shards))
            if config.n_domains
            else None
        )
        router = ClusterRouter(
            n_shards=n_shards,
            replicas=config.replicas,
            seed=config.seed,
            cache=config.cache,
            journal_dir=(
                journal_dir / f"epoch{epoch}"
                if journal_dir is not None
                else None
            ),
            shard_overrides=overrides,
            failure_domains=domains,
            hedge=config.hedge,
            **dict(config.service_kwargs),
        )
        router.submit_all(batch)
        records = router.run()
        report = router.report()
        reports.append(report)
        all_records.extend(records)
        crashes += report.shard_crashes
        recoveries += report.shard_recoveries
        if report.shard_recoveries:
            mttrs.append(report.mean_mttr_s)
        if scaler is not None:
            stats = report.per_class.get("interactive")
            attainment = (
                stats.attainment if stats is not None else 1.0
            )
            n_shards = scaler.next_count(n_shards, attainment)
    assert_explicit_outcomes(all_records)
    return ClusterStormOutcome(
        requests=requests,
        records=all_records,
        reports=reports,
        shard_counts=shard_counts,
        per_class=class_summary(all_records),
        crashes=crashes,
        recoveries=recoveries,
        mean_mttr_s=sum(mttrs) / len(mttrs) if mttrs else 0.0,
    )


# -- named scenarios ---------------------------------------------------

#: Seed of every storm quoted in the benchmark reports.
REPORT_SEED = 11


def _trace(
    seed: int,
    base_rate: float,
    horizon_s: float,
    crowd: "FlashCrowd | None",
    deadlines: "tuple[float, float, float]",
) -> TraceConfig:
    return TraceConfig(
        base_rate=base_rate,
        horizon_s=horizon_s,
        seed=seed,
        components=(crowd,) if crowd is not None else (),
        class_deadline_s=tuple(
            zip(("interactive", "standard", "batch"), deadlines)
        ),
        workload=WorkloadConfig(
            seed=seed,
            engines=("sequential", "root:2"),
            budget_scale=0.25,
        ),
    )


def _storm_trace(seed: int, base_rate=450.0, horizon_s=0.6):
    """A 4x flash crowd over 0.1-0.5 s, peaking ~4x beyond what a
    2-device node sustains."""
    return _trace(
        seed,
        base_rate,
        horizon_s,
        FlashCrowd(start_s=0.1, duration_s=0.4, multiplier=4.0),
        (0.1, 0.3, 1.0),
    )


def _retry_trace(seed: int, crowd: bool = True) -> TraceConfig:
    """Sustainable base load plus a 10x crowd over 0.1-0.4 s; the
    deadlines sit just above the healthy latency tail."""
    return _trace(
        seed,
        150.0,
        1.0,
        (
            FlashCrowd(start_s=0.1, duration_s=0.3, multiplier=10.0)
            if crowd
            else None
        ),
        (0.1, 0.2, 0.4),
    )


def _storm(seed: int = REPORT_SEED, defended: bool = True) -> StormConfig:
    """REPORT_overload: the 4x crowd on a 2-device node, defended by
    the ladder and an autoscaler (up to 8 devices), or undefended (no
    admission control, fixed fleet)."""
    return StormConfig(
        trace=_storm_trace(seed),
        n_devices=2,
        max_active=32,
        seed=seed,
        overload=True if defended else None,
        autoscale=(
            {"max_devices": 8, "scaleup_lag_s": 0.03}
            if defended
            else None
        ),
    )


def _storm_cluster_kill(seed: int = REPORT_SEED) -> ClusterStormConfig:
    """REPORT_overload: a lighter storm on 2 shards whose second epoch
    crashes shard 0."""
    return ClusterStormConfig(
        trace=_storm_trace(seed, base_rate=150.0, horizon_s=0.3),
        seed=seed,
        crash_epoch=1,
        service_kwargs=(
            ("n_devices", 2),
            ("max_active", 8),
            ("overload", True),
        ),
    )


def _retry_storm(
    seed: int = REPORT_SEED, defended: bool = True, crowd: bool = True
) -> StormConfig:
    """REPORT_retrystorm: closed-loop clients with aggressive retries
    behind the 10x crowd.  Defended adds the retry budget, circuit
    breakers, adaptive throttling and a fast-releasing ladder."""
    clients = dict(
        retry=dict(
            kind="exponential",
            base_s=0.02,
            cap_s=0.16,
            jitter=0.3,
            max_attempts=10,
            give_up_s=(
                ("interactive", 2.0),
                ("standard", 3.0),
                ("batch", 4.0),
            ),
        ),
        seed=seed,
    )
    if defended:
        clients["breaker"] = dict(
            failure_threshold=5, reset_timeout_s=0.1
        )
        clients["throttle"] = dict(k=1.5, window=64)
    return StormConfig(
        trace=_retry_trace(seed, crowd),
        n_devices=2,
        max_active=16,
        max_queue=64,
        seed=seed,
        # A sticky ladder is itself a metastable state, so this one
        # lets go quickly once pressure clears.
        overload=(
            dict(max_level=3, window=16, release=0.6, deescalate_after=3)
            if defended
            else None
        ),
        clients=clients,
        retry_budget=(
            dict(fill_per_first_try=0.1, cap=10.0, initial=2.0)
            if defended
            else None
        ),
        detector=dict(
            bin_s=0.05,
            settle_s=0.1,
            goodput_frac=0.5,
            min_offered_rate=40.0,
        ),
    )


def _retry_storm_hedged_kill(
    seed: int = REPORT_SEED,
) -> ClusterStormConfig:
    """REPORT_retrystorm: the 10x crowd on 2 hedging shards whose
    second epoch crashes shard 0."""
    return ClusterStormConfig(
        trace=_retry_trace(seed),
        seed=seed,
        crash_epoch=1,
        hedge=dict(trigger_percentile=90.0),
        service_kwargs=(
            ("n_devices", 2),
            ("max_active", 8),
            ("overload", True),
        ),
    )


#: Scenario name -> builder taking an optional seed (default
#: :data:`REPORT_SEED`).
SCENARIOS: "dict[str, Callable[..., StormConfig | ClusterStormConfig]]" = {
    "storm": _storm,
    "storm-undefended": lambda seed=REPORT_SEED: _storm(
        seed, defended=False
    ),
    "storm-cluster-kill": _storm_cluster_kill,
    "retry-storm": _retry_storm,
    "retry-storm-undefended": lambda seed=REPORT_SEED: _retry_storm(
        seed, defended=False
    ),
    # The base load alone, undefended: the control showing the trap
    # is metastability, not plain overload.
    "retry-storm-healthy": lambda seed=REPORT_SEED: _retry_storm(
        seed, defended=False, crowd=False
    ),
    "retry-storm-hedged-kill": _retry_storm_hedged_kill,
}
