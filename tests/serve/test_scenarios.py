"""Named storm scenarios (``repro.serve.SCENARIOS``).

Every storm a benchmark report quotes is built by one preset; the
CLI, the benchmark gates and these tests share the table.
"""

import pytest

from repro.serve import (
    REPORT_SEED,
    SCENARIOS,
    AutoscalerConfig,
    ClientPopulation,
    ClusterStormConfig,
    HedgePolicy,
    MetastabilityDetector,
    OverloadPolicy,
    RetryBudget,
    make_trace,
    run_cluster_storm,
)
from tests.serve.test_overload import small_trace


def test_report_names():
    assert set(SCENARIOS) == {
        "storm",
        "storm-undefended",
        "storm-cluster-kill",
        "retry-storm",
        "retry-storm-undefended",
        "retry-storm-healthy",
        "retry-storm-hedged-kill",
    }


@pytest.mark.parametrize("seed", [None, 5])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_builder_returns_valid_config(name, seed):
    build = SCENARIOS[name]
    config = build() if seed is None else build(seed)
    expected = REPORT_SEED if seed is None else seed
    assert config.seed == expected
    assert config.trace.seed == config.trace.workload.seed == expected
    assert make_trace(config.trace)
    # Every preset, single node included, is a cluster storm.
    assert isinstance(config, ClusterStormConfig)
    HedgePolicy.coerce(config.hedge)
    MetastabilityDetector.coerce(config.detector)
    # Every layer the storm switches on coerces cleanly.
    node = dict(config.service_kwargs)
    OverloadPolicy.coerce(node.get("overload"))
    AutoscalerConfig.coerce(node.get("autoscale"))
    ClientPopulation.coerce(node.get("clients"))
    RetryBudget.coerce(node.get("retry_budget"))
    if config.initial_shards == config.epochs == 1:
        assert config.crash_epoch is None
    else:
        assert config.crash_epoch is not None


def test_post_crowd_window_derives_from_config():
    # REPORT_retrystorm: the 0.1-0.4 s crowd plus the detector's
    # 0.1 s settle.
    assert SCENARIOS["retry-storm"]().post_crowd_s() == pytest.approx(
        0.5
    )
    healthy = SCENARIOS["retry-storm-healthy"]()
    assert healthy.crowd_clear_s() == 0.0
    assert healthy.post_crowd_s() == pytest.approx(0.1)
    # No detector, no settle time.
    assert SCENARIOS["storm"]().post_crowd_s() == pytest.approx(0.5)


def test_cluster_crash_without_journal_dir_journals_to_a_temp_dir():
    outcome = run_cluster_storm(
        ClusterStormConfig(
            trace=small_trace(),
            crash_epoch=1,
            crash_faults="crash=tick:1",
            service_kwargs=(("n_devices", 1), ("max_active", 4)),
        )
    )
    rids = [r.request.request_id for r in outcome.records]
    assert sorted(rids) == sorted(r.request_id for r in outcome.requests)
    assert outcome.crashes == outcome.recoveries == 1
