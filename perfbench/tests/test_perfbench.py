"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench/tests``
(the repository's tier-1 suite does not collect them).  The workload
passes use ``--tiny`` sizes and take about a minute in all.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import stats
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


# -- stats helper -----------------------------------------------------------

def test_stats_empty_sample_is_nan():
    assert math.isnan(stats.median([]))
    assert math.isnan(stats.percentile([], 90))
    assert math.isnan(stats.ratio(1, 0))
    assert stats.finite_or_zero(math.nan) == 0.0


def test_stats_values():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([1, 1, 3, 3]) == 2
    assert stats.percentile([5], 50) == 5
    assert stats.percentile(range(1, 11), 90) == 9
    assert stats.percentile(range(1, 11), 100) == 10


# -- tracer -----------------------------------------------------------------

def test_tracer_self_times_and_restore(monkeypatch):
    import types

    mod = types.ModuleType("repro_fake")
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))

    def inner():
        return 1

    def outer():
        return inner() + inner()

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "repro_fake", mod)
    assert tracer.patch_everywhere(inner, "in", prefix="repro_fake") == 1
    tracer.patch(mod, "outer", "out")
    tracer.recording(True)
    # ``outer`` resolves ``inner`` through its module globals at call
    # time, which are this test's, so call the patched names directly.
    assert mod.outer() == 2 and mod.inner() == 1
    tracer.recording(False)
    assert tracer.layers["out"].calls == 1
    assert tracer.layers["in"].calls == 1
    assert tracer.self_total_s() <= max(s[3] for s in tracer.spans) - min(
        s[2] for s in tracer.spans
    )
    tracer.restore()
    assert mod.inner is inner and mod.outer is outer


def test_tracer_nested_same_layer_counts_once():
    tracer = Tracer()

    class Box:
        def f(self, n):
            return self.f(n - 1) + 1 if n else 0

    tracer.patch(Box, "f", "box")
    tracer.recording(True)
    assert Box().f(3) == 3
    tracer.recording(False)
    assert tracer.layers["box"].calls == 1
    assert tracer.self_total_s() == pytest.approx(tracer.layers["box"].host_s)
    with pytest.raises(ValueError):
        tracer.patch(Box, "f", "box")
    tracer.restore()


def test_compiled_layer_is_reached(tmp_path, monkeypatch):
    """The compiled runner has no caller under the defaults, so prove
    its wrapper is on the path a ``playout="compiled"`` service takes
    (with or without a C toolchain: the fallback still calls it)."""
    from perfbench import layers
    from repro.serve import SearchService, WorkloadConfig, make_workload

    monkeypatch.setenv("REPRO_COMPILED_CACHE", str(tmp_path))
    tracer, probe = Tracer(), layers.Probe()
    layers.install(tracer, probe)
    try:
        service = SearchService(n_devices=1, max_active=2, playout="compiled")
        service.submit_all(
            make_workload(WorkloadConfig(n_requests=2, games=("tictactoe",),
                                         engines=("sequential",)))
        )
        tracer.recording(True)
        service.run()
        tracer.recording(False)
    finally:
        tracer.restore()
    assert tracer.layers["compiled"].calls > 0
    assert probe.lanes["compiled"] > 0


# -- workloads --------------------------------------------------------------

@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(proc.stdout.splitlines()[-1])
    return out


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_finite(results, trace, key):
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    for workload in WORKLOADS:
        result = results[workload, trace]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        metrics = result["metrics"]
        assert set(metrics) == set(declared), workload
        for name, entry in metrics.items():
            assert entry["unit"] == declared[name]
            assert math.isfinite(entry["value"]), (workload, name)
    if key == "end_to_end":
        for workload in WORKLOADS:
            for name in declared:
                assert results[workload, 0]["metrics"][name]["value"] != 0


def test_every_wrapped_layer_is_reached(results):
    """A wrapper on a name callers bypass records nothing; every layer
    must record calls on at least one workload (the compiled runner
    is covered by test_compiled_layer_is_reached)."""
    reached: dict[str, int] = {}
    for workload in WORKLOADS:
        trace = json.loads(
            (ROOT / "perfbench" / "out" / f"trace-{workload}-seed3.json").read_text()
        )
        for layer, row in trace["layers"].items():
            reached[layer] = reached.get(layer, 0) + row["calls"]
    missing = [k for k, v in reached.items() if v == 0 and k != "compiled"]
    assert not missing
    for workload in WORKLOADS:
        frac = results[workload, 1]["metrics"]["trace.self_sum_frac"]["value"]
        assert frac <= 1.0 + 1e-9


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: exit non-zero,
    print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("serve", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
