"""Serving bench: batched multi-tenant search vs back-to-back searches.

The tentpole claim of the serving layer, measured end-to-end: a
64-request mixed workload (three games, six engine specs, varied
budgets) served concurrently over a shared 4-GPU pool must complete

* deterministically -- the same seed produces identical per-request
  results across runs,
* with zero deadline misses at the default deadline, and
* at >= 2x the requests/s of the same 64 searches run back-to-back on
  a single device.

A load sweep (offered loads 1..256) reports requests/s and p50/p95
latency at each point.  Run standalone with
``python benchmarks/bench_serve.py``; under pytest the quick tier
scales budgets down (REPRO_TIER=default restores the full budgets).

The cluster tier (``--cluster``, CI gate ``--cluster --smoke``)
measures the sharded stack from docs/cluster.md: shard-count
throughput scaling on independent traffic (>= 3x at 4 shards), the
result cache's p50 collapse on Zipf-skewed duplicate traffic (hit
rate > 0, measured collapse recorded in
``benchmarks/REPORT_cluster.md``), and a mid-run shard kill that must
recover exactly-once through the journal.

The storm tier (``--storm``, CI gate ``--storm --smoke``) measures
the overload-survival layer from docs/overload.md: a 4x flash crowd
over a 2-device node must hold interactive SLO attainment >= 95%
with the degradation ladder and autoscaler engaged, versus < 50%
undefended; seeded storms must replay bit-identically; a cluster
storm with a mid-storm shard crash must still serve every request
exactly once.  Measured numbers are recorded in
``benchmarks/REPORT_overload.md``.  Every storm the storm and
retry-storm tiers fire is a named scenario from
``repro.serve.SCENARIOS`` at the reports' seed.

The retry-storm tier (``--retry-storm``, CI gate ``--retry-storm
--smoke``) measures the closed-loop client layer from
repro.serve.clients: the same seeded flash crowd with retrying
clients must leave the *undefended* node metastably trapped (offered
load stays above goodput long after the crowd clears) while the
*defended* stack -- degradation ladder + server-side retry budget +
per-client circuit breakers + adaptive throttling -- recovers
post-crowd interactive attainment to >= 95%; both runs replay
bit-identically, and a hedged cluster storm with a mid-storm shard
crash still serves every request exactly once.  Measured numbers are
recorded in ``benchmarks/REPORT_retrystorm.md``.
"""

import sys
import tempfile
from dataclasses import dataclass, replace

from repro.harness.common import resolve_tier
from repro.serve import (
    ClusterRouter,
    SCENARIOS,
    SearchService,
    WorkloadConfig,
    make_workload,
    post_crowd_attainment,
    run_cluster_storm,
)


@dataclass(frozen=True)
class ServeBenchConfig:
    n_requests: int = 64
    loads: tuple[int, ...] = (1, 4, 16, 64, 256)
    budget_scale: float = 1.0
    n_devices: int = 4
    max_active: int = 64
    deadline_s: float = 2.0
    seed: int = 2011

    @staticmethod
    def for_tier(tier: str | None = None) -> "ServeBenchConfig":
        tier = resolve_tier(tier)
        if tier == "quick":
            return ServeBenchConfig(
                budget_scale=0.25, loads=(1, 16, 64, 256)
            )
        if tier == "full":
            return ServeBenchConfig(
                loads=(1, 4, 16, 64, 128, 256), budget_scale=2.0
            )
        return ServeBenchConfig()


@dataclass(frozen=True)
class ClusterBenchConfig:
    """Shape of the sharded-cluster benchmark runs.

    Shards are deliberately *contended* (2 devices, 4 active slots
    each): sharding pays off when one node saturates, and a virtual
    node with a huge admission window never does.
    """

    n_requests: int = 64
    shard_counts: tuple[int, ...] = (1, 2, 4, 8)
    budget_scale: float = 0.25
    n_devices: int = 2
    max_active: int = 4
    seed: int = 2011
    #: Independent traffic: candidate positions per game (several per
    #: request, so duplicates -- and cache hits -- are rare).
    position_pool: int = 256
    #: Zipf-skewed traffic: a small hot pool under this exponent.
    skew: float = 1.1
    skew_pool: int = 12

    @staticmethod
    def for_tier(tier: str | None = None) -> "ClusterBenchConfig":
        tier = resolve_tier(tier)
        if tier == "quick":
            # Keep the full 64-request workload and position pool:
            # the scaling and cache-collapse effects need enough
            # offered load (and shard balance) to show; trim the
            # sweep to its gated endpoints instead.
            return ClusterBenchConfig(shard_counts=(1, 4))
        if tier == "full":
            return ClusterBenchConfig(
                n_requests=128,
                budget_scale=0.5,
                position_pool=512,
            )
        return ClusterBenchConfig()


def run_cluster(
    cfg: ClusterBenchConfig,
    n_shards: int,
    cache=None,
    position_skew: float = 0.0,
    position_pool: int | None = None,
    journal_dir=None,
    shard_overrides=None,
):
    """One cluster run over a generated workload."""
    workload = make_workload(
        WorkloadConfig(
            n_requests=cfg.n_requests,
            seed=cfg.seed,
            budget_scale=cfg.budget_scale,
            deadline_s=None,
            position_skew=position_skew,
            position_pool=(
                cfg.position_pool
                if position_pool is None
                else position_pool
            ),
        )
    )
    cluster = ClusterRouter(
        n_shards=n_shards,
        seed=cfg.seed,
        cache=cache,
        journal_dir=journal_dir,
        shard_overrides=shard_overrides,
        n_devices=cfg.n_devices,
        max_active=cfg.max_active,
        enforce_deadlines=False,
    )
    cluster.submit_all(workload)
    records = cluster.run()
    return records, cluster.report()


def run_scaling_sweep(cfg: ClusterBenchConfig):
    """Shard count -> ClusterReport on independent traffic."""
    return {
        n: run_cluster(cfg, n)[1] for n in cfg.shard_counts
    }


def run_skew_comparison(cfg: ClusterBenchConfig):
    """(cache-off report, cache-on report) on Zipf-skewed traffic."""
    off = run_cluster(
        cfg,
        4,
        cache=None,
        position_skew=cfg.skew,
        position_pool=cfg.skew_pool,
    )[1]
    on = run_cluster(
        cfg,
        4,
        cache=True,
        position_skew=cfg.skew,
        position_pool=cfg.skew_pool,
    )[1]
    return off, on


def run_shard_kill(cfg: ClusterBenchConfig):
    """Kill shard 0 mid-run; the journal must recover exactly-once."""
    with tempfile.TemporaryDirectory() as journal_dir:
        records, report = run_cluster(
            cfg,
            4,
            journal_dir=journal_dir,
            shard_overrides={0: {"faults": "crash=tick:4"}},
        )
    rids = [r.request.request_id for r in records]
    assert len(rids) == len(set(rids)), "request served twice"
    return records, report


def render_scaling_sweep(reports) -> str:
    from repro.util.tables import format_series

    counts = sorted(reports)
    base = reports[counts[0]].requests_per_s
    return format_series(
        "shards",
        counts,
        {
            "requests/s": [
                f"{reports[n].requests_per_s:.1f}" for n in counts
            ],
            "scaling": [
                f"{reports[n].requests_per_s / base:.2f}x"
                for n in counts
            ],
            "elapsed (s)": [
                f"{reports[n].elapsed_s:.4f}" for n in counts
            ],
            "p50 latency (ms)": [
                f"{reports[n].p50_latency_s * 1e3:.2f}"
                for n in counts
            ],
        },
        title=(
            "cluster throughput scaling "
            "(independent traffic, contended shards)"
        ),
    )


def render_skew_comparison(off, on) -> str:
    from repro.util.tables import format_series

    return format_series(
        "metric",
        [
            "p50 latency (ms)",
            "p95 latency (ms)",
            "requests/s",
            "cache hit rate",
        ],
        {
            "cache off": [
                f"{off.p50_latency_s * 1e3:.2f}",
                f"{off.p95_latency_s * 1e3:.2f}",
                f"{off.requests_per_s:.1f}",
                "-",
            ],
            "cache on": [
                f"{on.p50_latency_s * 1e3:.2f}",
                f"{on.p95_latency_s * 1e3:.2f}",
                f"{on.requests_per_s:.1f}",
                f"{on.cache_hit_rate * 100:.0f}%",
            ],
        },
        title=(
            "Zobrist result cache on Zipf-skewed traffic "
            "(4 shards)"
        ),
    )


def run_scenario(name: str):
    """One named storm (``repro.serve.SCENARIOS``) at the report
    seed; every gate below runs one of these."""
    return run_cluster_storm(SCENARIOS[name]())


def node_report(outcome):
    """A single-node storm's per-node counters (its one shard's
    service report)."""
    return outcome.reports[0].shard_reports[0]


def storm_fingerprint(outcome):
    """Bit-level identity of one storm: every arrival and every
    per-request terminal outcome."""
    arrivals = [
        (r.request_id, r.arrival_s, r.priority, r.deadline_s,
         r.game, r.engine, r.budget_s, r.seed)
        for r in outcome.requests
    ]
    outcomes = [
        (
            rec.request.request_id,
            rec.status,
            rec.outcome,
            rec.degrade_level,
            rec.latency_s,
            None if rec.result is None else rec.result.move,
            None if rec.result is None else rec.result.simulations,
        )
        for rec in outcome.records
    ]
    return arrivals, outcomes


def render_storm_comparison(defended, undefended) -> str:
    from repro.util.tables import format_series

    classes = ["interactive", "standard", "batch"]

    def column(out):
        cells = []
        for cls in classes:
            stats = out.per_class.get(cls)
            if stats is None:
                cells.append("-")
                continue
            cells.append(
                f"{stats.attainment * 100:5.1f}%  "
                f"({stats.met}/{stats.degraded}/{stats.shed}/"
                f"{stats.rejected}/{stats.missed})"
            )
        cells.append(str(node_report(out).peak_devices or "-"))
        cells.append(str(node_report(out).shed))
        return cells

    return format_series(
        "class: attainment (met/degr/shed/rej/miss)",
        classes + ["peak devices", "total shed"],
        {
            "defended": column(defended),
            "undefended": column(undefended),
        },
        title=(
            "overload storm: 4x flash crowd on a 2-device node "
            "(docs/overload.md)"
        ),
    )


def render_retry_storm(healthy, undefended, defended, clear_s) -> str:
    from repro.util.tables import format_series

    def column(out):
        rep = node_report(out)
        verdict = out.metastability
        pc = post_crowd_attainment(out.records, clear_s)
        return [
            str(rep.first_tries),
            str(rep.retries_offered),
            str(rep.completed),
            str(rep.missed),
            str(rep.rejected),
            str(rep.shed),
            f"{out.attainment('interactive') * 100:.0f}%",
            f"{pc * 100:.0f}%",
            "TRAPPED" if verdict.trapped else "recovered",
            str(verdict.trapped_bins),
            f"{verdict.goodput_ratio:.2f}",
            str(rep.breaker_opens),
            str(rep.budget_rejected),
            str(rep.client_suppressed_breaker),
            str(rep.client_suppressed_throttle),
        ]

    return format_series(
        "metric",
        [
            "first tries",
            "retries offered",
            "completed",
            "missed",
            "rejected",
            "shed",
            "interactive SLO (all)",
            "interactive SLO (post-crowd)",
            "metastability verdict",
            "trapped bins (consecutive)",
            "post-crowd goodput/offered",
            "breaker opens",
            "budget-rejected retries",
            "suppressed (breaker)",
            "suppressed (throttle)",
        ],
        {
            "healthy (no crowd)": column(healthy),
            "undefended": column(undefended),
            "defended": column(defended),
        },
        title=(
            "retry storm: 10x flash crowd with closed-loop clients "
            "(repro.serve.clients)"
        ),
    )


def run_concurrent(cfg: ServeBenchConfig, n_requests: int | None = None):
    """Serve ``n_requests`` concurrently over the shared pool."""
    workload = make_workload(
        WorkloadConfig(
            n_requests=n_requests or cfg.n_requests,
            seed=cfg.seed,
            budget_scale=cfg.budget_scale,
            deadline_s=cfg.deadline_s,
        )
    )
    service = SearchService(
        n_devices=cfg.n_devices,
        max_active=cfg.max_active,
        seed=cfg.seed,
    )
    service.submit_all(workload)
    records = service.run()
    return records, service.report()


def run_serial_baseline(cfg: ServeBenchConfig):
    """The same workload, one request at a time on one device."""
    workload = make_workload(
        WorkloadConfig(
            n_requests=cfg.n_requests,
            seed=cfg.seed,
            budget_scale=cfg.budget_scale,
            deadline_s=None,
        )
    )
    service = SearchService(
        n_devices=1,
        max_active=1,
        seed=cfg.seed,
        enforce_deadlines=False,
    )
    service.submit_all(workload)
    records = service.run()
    return records, service.report()


def fingerprint(records):
    """Per-request identity of a run, for determinism checks."""
    return [
        (
            r.request.request_id,
            r.status,
            r.latency_s,
            None if r.result is None else r.result.move,
            None if r.result is None else r.result.simulations,
        )
        for r in records
    ]


def run_load_sweep(cfg: ServeBenchConfig):
    """Offered load -> ServiceReport, over ``cfg.loads``."""
    return {
        load: run_concurrent(cfg, n_requests=load)[1]
        for load in cfg.loads
    }


def run_fusion_comparison(
    cfg: ServeBenchConfig, n_requests: int, fusion: bool
):
    """One contended-pool run (single device, ``n_requests`` tenants)
    with cross-tenant fusion on or off."""
    workload = make_workload(
        WorkloadConfig(
            n_requests=n_requests,
            seed=cfg.seed,
            budget_scale=cfg.budget_scale,
            deadline_s=None,
        )
    )
    service = SearchService(
        n_devices=1,
        max_active=cfg.max_active,
        seed=cfg.seed,
        enforce_deadlines=False,
        fusion=fusion,
    )
    service.submit_all(workload)
    records = service.run()
    return records, service.report()


def run_fusion_sweep(cfg: ServeBenchConfig, loads=(8, 16, 32)):
    """Tenant count -> (unfused report, fused report) on one device."""
    return {
        n: (
            run_fusion_comparison(cfg, n, fusion=False),
            run_fusion_comparison(cfg, n, fusion=True),
        )
        for n in loads
    }


def render_fusion_sweep(results) -> str:
    from repro.util.tables import format_series

    loads = sorted(results)
    rows = {
        "p50 unfused (ms)": [],
        "p50 fused (ms)": [],
        "p50 win": [],
        "launches unfused": [],
        "launches fused": [],
        "tenants/launch": [],
    }
    for n in loads:
        (_, plain), (_, fused) = results[n]
        rows["p50 unfused (ms)"].append(
            f"{plain.p50_latency_s * 1e3:.2f}"
        )
        rows["p50 fused (ms)"].append(f"{fused.p50_latency_s * 1e3:.2f}")
        rows["p50 win"].append(
            f"{(1 - fused.p50_latency_s / plain.p50_latency_s) * 100:+.1f}%"
        )
        rows["launches unfused"].append(str(plain.kernel_launches))
        rows["launches fused"].append(str(fused.kernel_launches))
        rows["tenants/launch"].append(
            f"{fused.mean_tenants_per_launch:.1f}"
        )
    return format_series(
        "concurrent tenants",
        loads,
        rows,
        title="cross-tenant fusion on a contended pool (1 device)",
    )


def render_sweep(reports) -> str:
    from repro.util.tables import format_series

    loads = sorted(reports)
    return format_series(
        "offered load",
        loads,
        {
            "requests/s": [
                f"{reports[n].requests_per_s:.1f}" for n in loads
            ],
            "p50 latency (ms)": [
                f"{reports[n].p50_latency_s * 1e3:.2f}" for n in loads
            ],
            "p95 latency (ms)": [
                f"{reports[n].p95_latency_s * 1e3:.2f}" for n in loads
            ],
            "missed": [str(reports[n].missed) for n in loads],
        },
        title="serving load sweep (mixed workload, shared 4-GPU pool)",
    )


def test_serve_64_deterministic_no_misses(run_once):
    cfg = ServeBenchConfig.for_tier()
    records, report = run_once(run_concurrent, cfg)
    again, _ = run_concurrent(cfg)
    assert fingerprint(records) == fingerprint(again)
    assert report.completed == cfg.n_requests
    assert report.missed == 0
    assert report.rejected == 0


def test_serve_speedup_vs_serial_baseline(run_once):
    cfg = ServeBenchConfig.for_tier()

    def compare():
        _, concurrent = run_concurrent(cfg)
        _, serial = run_serial_baseline(cfg)
        return concurrent, serial

    concurrent, serial = run_once(compare)
    print()
    print("concurrent (4 devices, 64 active slots):")
    print(concurrent.render())
    print()
    print("serial baseline (1 device, 1 active slot):")
    print(serial.render())
    assert concurrent.completed == serial.completed == cfg.n_requests
    assert concurrent.missed == 0
    speedup = concurrent.requests_per_s / serial.requests_per_s
    print(f"\nspeedup: {speedup:.2f}x requests/s")
    assert speedup >= 2.0


def test_serve_fusion_p50_win_on_contended_pool(run_once):
    """The fusion tentpole's serving claim: at 8+ concurrent tenants
    on a contended single-device pool, fused launches cut p50 latency
    (launch + readback latency paid once per tick, not once per game)
    while returning bit-identical per-request results."""
    cfg = ServeBenchConfig.for_tier()

    def compare():
        return run_fusion_sweep(cfg, loads=(8, 16, 32))

    def results_only(records):
        # Latency is exactly what fusion improves; what must not
        # change is every request's search outcome.
        return [
            (rid, status, move, sims)
            for rid, status, _, move, sims in fingerprint(records)
        ]

    results = run_once(compare)
    print()
    print(render_fusion_sweep(results))
    for n, ((plain_recs, plain), (fused_recs, fused)) in (
        results.items()
    ):
        assert results_only(fused_recs) == results_only(plain_recs)
        assert fused.kernel_launches < plain.kernel_launches
        assert fused.fused_launches > 0
        assert fused.p50_latency_s < plain.p50_latency_s


def test_serve_load_sweep(run_once):
    cfg = ServeBenchConfig.for_tier()
    reports = run_once(run_load_sweep, cfg)
    print()
    print(render_sweep(reports))
    assert set(reports) == set(cfg.loads)
    for report in reports.values():
        assert report.completed + report.missed + report.rejected == (
            report.offered
        )
        assert report.p95_latency_s >= report.p50_latency_s


def test_cluster_throughput_scales_with_shards(run_once):
    cfg = ClusterBenchConfig.for_tier()
    reports = run_once(run_scaling_sweep, cfg)
    print()
    print(render_scaling_sweep(reports))
    counts = sorted(reports)
    for report in reports.values():
        assert report.completed == cfg.n_requests
    if 4 in reports:
        scaling = (
            reports[4].requests_per_s / reports[1].requests_per_s
        )
        assert scaling >= 3.0
    # More shards never hurts throughput across the sweep.
    assert (
        reports[counts[-1]].requests_per_s
        >= reports[counts[0]].requests_per_s
    )


def test_cluster_cache_collapses_skewed_p50(run_once):
    cfg = ClusterBenchConfig.for_tier()
    off, on = run_once(run_skew_comparison, cfg)
    print()
    print(render_skew_comparison(off, on))
    assert off.completed == on.completed == cfg.n_requests
    assert on.cache_hit_rate > 0
    # The measured collapse (>= 2x at the default tier) is recorded
    # in REPORT_cluster.md; keep slack here for the quick tier.
    assert on.p50_latency_s * 1.5 <= off.p50_latency_s


def test_cluster_shard_kill_recovers_exactly_once(run_once):
    cfg = ClusterBenchConfig.for_tier()
    records, report = run_once(run_shard_kill, cfg)
    assert report.completed == cfg.n_requests
    assert report.shard_crashes == 1
    assert report.shard_recoveries == 1
    assert report.mean_mttr_s > 0


def test_storm_gate(run_once):
    """The overload tier's claims, exactly as ``--storm --smoke``
    checks them (see :func:`_storm_main`)."""
    assert run_once(_storm_main, False) == 0


def test_retry_storm_gate(run_once):
    """The closed-loop tier's claims, exactly as ``--retry-storm
    --smoke`` checks them (see :func:`_retry_storm_main`)."""
    assert run_once(_retry_storm_main, False) == 0


def served_exactly_once(outcome) -> bool:
    """No request lost and none served twice."""
    rids = [r.request.request_id for r in outcome.records]
    return len(rids) == len(set(rids)) == len(outcome.requests)


def outcomes_conserved(outcome) -> bool:
    """Per class, the five terminal outcomes sum to offered load."""
    return all(
        s.offered == s.met + s.degraded + s.shed + s.rejected + s.missed
        for s in outcome.per_class.values()
    )


def report_gate(checks: "dict[str, bool]", passed: str) -> int:
    """Print a ``FAIL`` line per failed check (the keys are the
    messages), or ``passed``; the exit code."""
    failures = [message for message, ok in checks.items() if not ok]
    for message in failures:
        print(f"FAIL: {message}")
    if failures:
        return 1
    print(passed)
    return 0


def _retry_storm_main(smoke: bool) -> int:
    """With retrying clients the undefended node stays trapped after
    the crowd clears, while the defended stack recovers post-crowd
    interactive attainment -- and the base load alone is healthy, so
    the trap is metastability, not plain overload.  Closed-loop
    storms replay bit-identically, and hedged backups compose with
    mid-storm crash recovery."""
    healthy = run_scenario("retry-storm-healthy")
    undefended = run_scenario("retry-storm-undefended")
    defended = run_scenario("retry-storm")
    clear_s = SCENARIOS["retry-storm"]().post_crowd_s()
    print(render_retry_storm(healthy, undefended, defended, clear_s))
    u_pc = post_crowd_attainment(undefended.records, clear_s)
    d_pc = post_crowd_attainment(defended.records, clear_s)
    u_node, d_node = node_report(undefended), node_report(defended)
    kill = run_scenario("retry-storm-hedged-kill")
    hedges = sum(r.hedges_fired for r in kill.reports)
    print(
        f"hedged cluster storm: {len(kill.records)} requests, "
        f"{hedges} hedges fired, {kill.crashes} crash, "
        f"MTTR {kill.mean_mttr_s:.4f}s"
    )
    return report_gate(
        {
            # The healthy equilibrium exists: base load alone meets
            # every SLO and generates no retries.
            "base load alone is not healthy": (
                healthy.attainment("interactive") >= 0.99
                and node_report(healthy).retries_offered == 0
                and not healthy.metastability.trapped
            ),
            # Undefended: the trigger is gone but the bad equilibrium
            # remains.
            "undefended node is not metastably trapped -- the storm "
            "is not igniting": (
                undefended.metastability.trapped
                and u_node.retries_offered > 1000
            ),
            f"undefended post-crowd interactive {u_pc:.1%} >= 50%": (
                u_pc < 0.50
            ),
            # Defended: same trace, same clients -- the budget,
            # breakers and throttle collapse the retry flood.
            "defended node is still trapped post-crowd": (
                not defended.metastability.trapped
            ),
            f"defended post-crowd interactive {d_pc:.1%} < 95%": (
                d_pc >= 0.95
            ),
            "defenses did not cut retries below a quarter": (
                d_node.retries_offered < u_node.retries_offered // 4
            ),
            "a defense layer never engaged": (
                d_node.budget_rejected > 0
                and d_node.breaker_opens > 0
                and d_node.client_suppressed_breaker > 0
                and d_node.client_suppressed_throttle > 0
            ),
            "per-class outcomes do not sum to offered load": all(
                map(outcomes_conserved, (healthy, undefended, defended))
            ),
            "retry storm replay is not bit-identical": (
                storm_fingerprint(run_scenario("retry-storm-undefended"))
                == storm_fingerprint(undefended)
                and storm_fingerprint(run_scenario("retry-storm"))
                == storm_fingerprint(defended)
                and storm_fingerprint(undefended)
                != storm_fingerprint(defended)
            ),
            "hedged shard crash lost or duplicated requests": (
                served_exactly_once(kill)
            ),
            f"expected one crash+recovery and hedges, got "
            f"{kill.crashes}/{kill.recoveries}, {hedges} hedges": (
                kill.crashes == kill.recoveries == 1 and hedges > 0
            ),
        },
        f"smoke OK: post-crowd interactive {d_pc:.0%} defended vs "
        f"{u_pc:.0%} undefended (trapped "
        f"{undefended.metastability.trapped_bins} bins); replay "
        f"bit-identical; hedged mid-storm shard crash recovered "
        f"exactly-once"
        if smoke
        else "retry-storm gate OK",
    )


def _storm_main(smoke: bool) -> int:
    """Under a 4x flash crowd the defense ladder keeps the interactive
    SLO while the undefended node collapses, every request ends in an
    explicit terminal outcome either way, the storm replays
    bit-identically, and a mid-storm shard crash is recovered exactly
    once from its journal."""
    defended = run_scenario("storm")
    undefended = run_scenario("storm-undefended")
    print(render_storm_comparison(defended, undefended))
    d_int = defended.attainment("interactive")
    u_int = undefended.attainment("interactive")
    n_devices = dict(SCENARIOS["storm"]().service_kwargs)["n_devices"]
    kill = run_scenario("storm-cluster-kill")
    print(
        f"cluster storm: {len(kill.records)} requests over "
        f"{kill.shard_counts} shards, {kill.crashes} crash, "
        f"MTTR {kill.mean_mttr_s:.4f}s"
    )
    return report_gate(
        {
            f"defended interactive attainment {d_int:.1%} < 95%": (
                d_int >= 0.95
            ),
            f"undefended interactive attainment {u_int:.1%} >= 50% "
            f"-- storm is not overloading": u_int < 0.50,
            "a request ended without exactly one counted outcome": all(
                served_exactly_once(o) and outcomes_conserved(o)
                for o in (defended, undefended)
            ),
            # The ladder protects interactive by shedding lower
            # classes, not by degrading or dropping interactive work.
            "the ladder shed interactive work or shed nothing": (
                defended.per_class["interactive"].shed == 0
                and node_report(defended).shed > 0
            ),
            "the autoscaler never grew the fleet": (
                node_report(defended).peak_devices > n_devices
            ),
            "storm replay is not bit-identical": (
                storm_fingerprint(run_scenario("storm"))
                == storm_fingerprint(defended)
            ),
            "shard crash lost or duplicated requests": (
                served_exactly_once(kill)
            ),
            f"expected one crash+recovery, got "
            f"{kill.crashes}/{kill.recoveries}": (
                kill.crashes == kill.recoveries == 1
                and kill.mean_mttr_s > 0
            ),
        },
        f"smoke OK: interactive attainment {d_int:.0%} defended vs "
        f"{u_int:.0%} undefended; replay bit-identical; mid-storm "
        f"shard crash recovered exactly-once"
        if smoke
        else "storm gate OK",
    )


def _cluster_main(smoke: bool) -> int:  # pragma: no cover
    cfg = ClusterBenchConfig.for_tier("quick" if smoke else None)
    reports = run_scaling_sweep(cfg)
    print(render_scaling_sweep(reports))
    scaling = reports[4].requests_per_s / reports[1].requests_per_s
    if scaling < 3.0:
        print(
            f"FAIL: 4-shard throughput scaling {scaling:.2f}x < 3x"
        )
        return 1
    print()
    off, on = run_skew_comparison(cfg)
    print(render_skew_comparison(off, on))
    if not on.cache_hit_rate > 0:
        print("FAIL: no cache hits under Zipf-skewed traffic")
        return 1
    collapse = off.p50_latency_s / on.p50_latency_s
    print()
    _, kill = run_shard_kill(cfg)
    print(
        f"shard kill: {kill.completed}/{kill.offered} completed, "
        f"{kill.shard_crashes} crash, "
        f"MTTR {kill.mean_mttr_s:.4f}s"
    )
    if kill.completed != cfg.n_requests:
        print("FAIL: shard kill lost requests")
        return 1
    if smoke:
        print(
            f"smoke OK: 4-shard scaling {scaling:.2f}x; cache hit "
            f"rate {on.cache_hit_rate:.0%} (p50 collapse "
            f"{collapse:.2f}x) under skew; shard kill recovered "
            f"exactly-once"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    if "--retry-storm" in sys.argv[1:]:
        sys.exit(
            _retry_storm_main(smoke="--smoke" in sys.argv[1:])
        )
    if "--storm" in sys.argv[1:]:
        sys.exit(_storm_main(smoke="--smoke" in sys.argv[1:]))
    if "--cluster" in sys.argv[1:]:
        sys.exit(_cluster_main(smoke="--smoke" in sys.argv[1:]))
    cfg = replace(ServeBenchConfig.for_tier(), loads=(1, 4, 16, 64, 256))
    _, concurrent = run_concurrent(cfg)
    _, serial = run_serial_baseline(cfg)
    print("concurrent:")
    print(concurrent.render())
    print("\nserial baseline:")
    print(serial.render())
    print(
        f"\nspeedup: "
        f"{concurrent.requests_per_s / serial.requests_per_s:.2f}x"
    )
    print()
    print(render_sweep(run_load_sweep(cfg)))
    print()
    print(render_fusion_sweep(run_fusion_sweep(cfg)))
