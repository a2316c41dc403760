"""Storm harness: open-loop overload plus mid-storm faults.

Ties the overload-survival layer together (docs/overload.md): an
open-loop trace (:func:`~repro.serve.overload.make_trace`, typically
with a :class:`~repro.serve.overload.FlashCrowd` several times above
sustainable throughput) is fired at defended nodes -- overload
policy, autoscaler, closed-loop clients, retry budget -- while an
existing :class:`~repro.faults.FaultPlan` (crashes, corruption,
device outages) strikes mid-storm.  The harness recovers planned
crashes from the write-ahead journal exactly once and reports
per-class SLO attainment, goodput decomposition (met | degraded |
shed | rejected | missed), MTTR and, with a detector, a post-crowd
metastability verdict.

Everything is a pure function of the configs' seeds on the virtual
clock: the same storm replays bit-identically, which is how the
tests pin it.

:func:`run_cluster_storm` drives a
:class:`~repro.serve.cluster.ClusterRouter` across *epochs*, resizing
the shard count between epochs with the
:class:`~repro.serve.autoscale.ShardAutoscaler` (consistent hashing
keeps most keys in place across a resize) and optionally crashing a
shard mid-storm.  A single node is the 1-shard, 1-epoch case: the
router is bit-identical to a bare
:class:`~repro.serve.service.SearchService` there (docs/cluster.md),
so one harness serves both.

:data:`SCENARIOS` names every storm that a benchmark report quotes.
The CLI (``serve-bench --scenario NAME``), the benchmark gates and the
tests all build their configs from it.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from repro.serve.autoscale import (
    ShardAutoscaler,
    ShardAutoscalerConfig,
)
from repro.serve.clients import (
    MetastabilityDetector,
    MetastabilityVerdict,
)
from repro.serve.cluster import (
    ClusterReport,
    ClusterRouter,
    HedgePolicy,
)
from repro.serve.metrics import (
    ClassStats,
    class_summary,
)
from repro.serve.overload import (
    FlashCrowd,
    TraceConfig,
    make_trace,
)
from repro.serve.request import (
    RequestRecord,
    SearchRequest,
    TERMINAL_STATUSES,
)
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
    #: Extra per-shard ``SearchService`` kwargs as pairs (the node's
    #: ``overload``, ``autoscale``, ``clients``, ``retry_budget``...).
    service_kwargs: tuple = ()
    #: Post-crowd metastability analysis (``None`` -> no verdict).
    detector: "MetastabilityDetector | dict | bool | None" = None

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
    #: Post-crowd metastability verdict (``None`` when the storm ran
    #: without a detector).
    metastability: "MetastabilityVerdict | None" = None

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
    still served exactly once.  Records list every epoch's submitted
    requests, then any retries its closed-loop clients created.
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
    detector = MetastabilityDetector.coerce(config.detector)
    # The observation window runs from the end of the triggering
    # crowd to the end of the run (arrivals stop at the trace horizon,
    # but retries and backlogged work finish later).
    end_s = max(
        [config.trace.horizon_s]
        + [r.finish_s for r in all_records if r.finish_s is not None]
    )
    verdict = (
        detector.analyze(
            all_records, clear_s=config.crowd_clear_s(), horizon_s=end_s
        )
        if detector is not None
        else None
    )
    return ClusterStormOutcome(
        requests=requests,
        records=all_records,
        reports=reports,
        shard_counts=shard_counts,
        per_class=class_summary(all_records),
        crashes=crashes,
        recoveries=recoveries,
        mean_mttr_s=sum(mttrs) / len(mttrs) if mttrs else 0.0,
        metastability=verdict,
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


def _node(
    trace: TraceConfig, seed: int, detector=None, **service_kwargs
) -> ClusterStormConfig:
    """A single-node storm: the 1-shard, 1-epoch cluster, its layers
    passed straight to the node's ``SearchService``."""
    return ClusterStormConfig(
        trace=trace,
        epochs=1,
        initial_shards=1,
        seed=seed,
        detector=detector,
        service_kwargs=tuple(service_kwargs.items()),
    )


def _storm(
    seed: int = REPORT_SEED, defended: bool = True
) -> ClusterStormConfig:
    """REPORT_overload: the 4x crowd on a 2-device node, defended by
    the ladder and an autoscaler (up to 8 devices), or undefended (no
    admission control, fixed fleet)."""
    return _node(
        _storm_trace(seed),
        seed,
        n_devices=2,
        max_active=32,
        max_queue=128,
        overload=True if defended else None,
        autoscale=(
            {"max_devices": 8, "scaleup_lag_s": 0.03}
            if defended
            else None
        ),
    )


#: Each shard of the crash-killed cluster storms.
_KILL_SHARD = (("n_devices", 2), ("max_active", 8), ("overload", True))


def _storm_cluster_kill(seed: int = REPORT_SEED) -> ClusterStormConfig:
    """REPORT_overload: a lighter storm on 2 shards whose second epoch
    crashes shard 0."""
    return ClusterStormConfig(
        trace=_storm_trace(seed, base_rate=150.0, horizon_s=0.3),
        seed=seed,
        crash_epoch=1,
        service_kwargs=_KILL_SHARD,
    )


def _retry_storm(
    seed: int = REPORT_SEED, defended: bool = True, crowd: bool = True
) -> ClusterStormConfig:
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
    return _node(
        _retry_trace(seed, crowd),
        seed,
        detector=dict(
            bin_s=0.05,
            settle_s=0.1,
            goodput_frac=0.5,
            min_offered_rate=40.0,
        ),
        n_devices=2,
        max_active=16,
        max_queue=64,
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
        service_kwargs=_KILL_SHARD,
    )


#: Scenario name -> builder taking an optional seed (default
#: :data:`REPORT_SEED`).
SCENARIOS: "dict[str, Callable[..., ClusterStormConfig]]" = {
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
