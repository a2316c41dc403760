"""The layer table: which public functions belong to which layer, and
the per-layer metrics the traced run derives from them.

Layers are named after the program's modules.  Each entry wraps the
names callers reach at call time: a module function is replaced under
every name it is imported as, a method on the class that defines it
(and on every subclass that overrides it).
"""

from __future__ import annotations

import time

from repro.arena import cohort
from repro.compiled import runner as compiled_runner
from repro.core import backend, checkpoint
from repro.core.arena import TreeArena
from repro.core.base import BatchExecutor, Engine, ScalarExecutor
from repro.core.spec import make_engine
from repro.core.tree import SearchTree
from repro.games import batch as games_batch
from repro.games.base import Game
from repro.gpu.playout import VirtualGpu
from repro.integrity.engine import IntegrityState
from repro.serve import cache, journal
from repro.serve.cluster import ClusterRouter, ShardHandle
from repro.serve.overload import HysteresisController
from repro.serve.resilience import ResilientLauncher
from repro.serve.scheduler import (
    GeneratorPool,
    LaneBatcher,
    drive_generators,
)
from repro.serve.service import SearchService

from perfbench.stats import percentile, ratio

#: Aggregated-only layers (too frequent for one span per call).
HOT = {"games.rules", "games.scalar_playout", "tree.select_expand", "tree.backprop",
       "overload"}


def _classes(base: type) -> list[type]:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


class Probe:
    """Counts taken at the wrapped boundaries during one traced run."""

    def __init__(self) -> None:
        self.lanes = {"games.batch": 0, "compiled": 0}
        self.lane_steps = 0
        self.kernel_virt_s = 0.0
        self.tree_nodes = 0
        self.backend_calls = {"node": 0, "arena": 0}
        self.batchers: dict[int, LaneBatcher] = {}
        self.services: dict[int, SearchService] = {}
        self.tick_starts: dict[int, list[float]] = {}
        self.round_starts: list[float] = []
        self.cache_lookups = 0
        self.cache_hits = 0
        self.peak_level = 0
        self.retries = 0
        self.screens = 0
        self.journal_records = 0
        self.checkpoints = 0
        self.checkpoint_bytes = 0

    # -- observers -------------------------------------------------------

    def kernel(self, layer):
        def observe(args, kwargs, result):
            self.lanes[layer] += len(result.winners)
            if layer == "games.batch":
                self.lane_steps += int(result.finish_steps.sum())

        return observe

    def gpu_sync(self, args, kwargs, result):
        self.kernel_virt_s += result.timing.total_s

    def gpu_async(self, args, kwargs, result):
        self.kernel_virt_s += result.payload.timing.total_s

    def search_result(self, args, kwargs, result):
        self.tree_nodes += result.tree_nodes

    def step_result(self, args, kwargs, finished):
        if finished:
            pool, key = args[0], args[1]
            self.tree_nodes += pool.results[key].tree_nodes

    def tree_built(self, args, kwargs, result):
        self.backend_calls[args[0]] = self.backend_calls.get(args[0], 0) + 1

    def tick(self, args, kwargs):
        batcher = args[0]
        self.batchers[id(batcher)] = batcher
        self.tick_starts.setdefault(id(batcher), []).append(time.perf_counter())

    def service(self, args, kwargs):
        self.services[id(args[0])] = args[0]

    def round(self, args, kwargs):
        self.round_starts.append(time.perf_counter())

    def round_label(self, args, kwargs):
        return f"round{len(self.round_starts)}" if self.round_starts else None

    def lookup(self, args, kwargs, result):
        self.cache_lookups += 1
        self.cache_hits += result is not None

    def level(self, args, kwargs, result):
        self.peak_level = max(self.peak_level, result)

    def launch(self, args, kwargs, result):
        self.retries += result.retries

    def screen(self, args, kwargs, result):
        self.screens += 1

    def record(self, args, kwargs, result):
        self.journal_records += 1

    def checkpoint(self, args, kwargs, result):
        self.journal_records += 1
        self.checkpoints += 1
        blob = args[3] if len(args) > 3 else kwargs["snapshot_blob"]
        self.checkpoint_bytes += len(blob)


def _first_str(args, kwargs):
    return str(args[1]) if len(args) > 1 else None


def install(tracer, probe: Probe) -> None:
    """Wrap every layer's public functions for one traced run."""
    functions = [
        (games_batch.run_playouts_tracked, "games.batch",
         dict(observe=probe.kernel("games.batch"))),
        (compiled_runner.run_playouts_tracked_compiled, "compiled",
         dict(observe=probe.kernel("compiled"))),
        (backend.make_tree, "tree.build", dict(observe=probe.tree_built)),
        (backend.make_forest, "tree.build", dict(observe=probe.tree_built)),
        (make_engine, "engine.make", {}),
        (drive_generators, "scheduler", {}),
        (cache.cache_key_for, "cache", {}),
        (cache.screen_result, "cache", {}),
        (checkpoint.snapshot_bytes, "checkpoint", {}),
        (journal.read_journal, "recover", {}),
        (cohort.drive_merged, "cohort", dict(enter=probe.round)),
        (cohort.play_games_cohort, "cohort", {}),
    ]
    for fn, layer, options in functions:
        tracer.patch_everywhere(fn, layer, **options)

    trees = [SearchTree, backend.NodeForest, TreeArena, backend.ArenaTree,
             backend.ArenaForest]
    methods = [
        ([Game], ["playout"], "games.scalar_playout", {}),
        ([Game], ["legal_moves", "apply"], "games.rules", {}),
        (trees, ["select_expand"], "tree.select_expand", {}),
        (trees, ["select_expand_all"], "tree.select_expand_all", {}),
        (trees, ["backprop", "backprop_winner", "backprop_many", "backprop_block"],
         "tree.backprop", {}),
        ([Engine], ["search"], "engine.search",
         dict(observe=probe.search_result, ctx=probe.round_label)),
        ([GeneratorPool], ["step"], "engine.steps",
         dict(observe=probe.step_result, ctx=_first_str)),
        ([GeneratorPool], ["add"], "engine.steps", dict(ctx=_first_str)),
        ([BatchExecutor, ScalarExecutor], ["__call__"], "engine.executor", {}),
        ([VirtualGpu], ["run_playouts"], "gpu", dict(observe=probe.gpu_sync)),
        ([VirtualGpu], ["launch_async"], "gpu", dict(observe=probe.gpu_async)),
        ([LaneBatcher], ["execute_demand"], "scheduler", dict(enter=probe.tick)),
        ([LaneBatcher], ["execute"], "scheduler", {}),
        ([ResilientLauncher], ["launch"], "resilience",
         dict(observe=probe.launch, ctx=_first_str)),
        ([IntegrityState], ["screen_answers", "screen_block"], "integrity",
         dict(observe=probe.screen)),
        ([IntegrityState], ["audit", "final_sweep"], "integrity", {}),
        ([SearchService], ["run"], "service", dict(enter=probe.service)),
        ([SearchService], ["recover"], "recover", {}),
        ([ClusterRouter, ShardHandle], ["run"], "cluster", {}),
        ([cache.ResultCache], ["lookup"], "cache", dict(observe=probe.lookup)),
        ([cache.ResultCache], ["insert", "sweep", "key_for"], "cache", {}),
        ([HysteresisController], ["observe"], "overload", dict(observe=probe.level)),
        ([journal.JournalWriter], ["submit", "complete"], "journal",
         dict(observe=probe.record)),
        ([journal.JournalWriter], ["__init__", "close"], "journal", {}),
        ([journal.JournalWriter], ["checkpoint"], "checkpoint",
         dict(observe=probe.checkpoint)),
        ([Engine], ["snapshot"], "checkpoint", {}),
    ]
    for roots, names, layer, options in methods:
        # Every class that defines the method, overrides included.
        owners = dict.fromkeys(c for root in roots for c in _classes(root))
        for owner in owners:
            for name in names:
                if name in vars(owner):
                    tracer.patch(owner, name, layer, hot=layer in HOT, **options)


def _diffs(starts: list[float]) -> list[float]:
    return [b - a for a, b in zip(starts, starts[1:])]


def per_layer(tracer, probe: Probe, outcome, untraced_s: float,
              imports: dict) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``.  The host
    throughputs come from the untraced run (``untraced_s``), everything
    else from the traced one (``outcome``)."""
    traced_s = outcome.host_s
    layers = tracer.layers

    def calls(layer):
        return layers[layer].calls if layer in layers else 0

    def host(layer):
        return layers[layer].host_s if layer in layers else 0.0

    def self_s(layer):
        return layers[layer].self_s if layer in layers else 0.0

    batchers = list(probe.batchers.values())
    launches = sum(b.launch_count for b in batchers)
    lanes_total = sum(b.lanes_total for b in batchers)
    pad = sum(b.pad_lanes for b in batchers)
    fused = sum(b.fused_launches for b in batchers)
    ticks = [d for starts in probe.tick_starts.values() for d in _diffs(starts)]
    rounds = _diffs(probe.round_starts)
    lay = outcome.layer
    return {
        "requests_per_host_s": (ratio(outcome.attempted, untraced_s), "1/s"),
        "moves_per_host_s": (ratio(outcome.moves, untraced_s), "1/s"),
        "playouts_per_host_s": (ratio(outcome.playouts, untraced_s), "1/s"),
        "import.total_s": (imports["total_s"], "s"),
        "import.scipy_s": (imports["scipy_s"], "s"),
        "games.batch.calls": (calls("games.batch"), "count"),
        "games.batch.lanes": (probe.lanes["games.batch"], "count"),
        "games.batch.host_s": (host("games.batch"), "s"),
        "games.batch.ns_per_lane_step": (
            ratio(host("games.batch") * 1e9, probe.lane_steps), "ns"),
        "compiled.calls": (calls("compiled"), "count"),
        "compiled.lanes": (probe.lanes["compiled"], "count"),
        "compiled.host_s": (host("compiled"), "s"),
        "games.scalar_playout.calls": (calls("games.scalar_playout"), "count"),
        "games.scalar_playout.host_s": (host("games.scalar_playout"), "s"),
        "games.rules.calls": (calls("games.rules"), "count"),
        "games.rules.host_s": (host("games.rules"), "s"),
        "tree.select_expand.calls": (calls("tree.select_expand"), "count"),
        "tree.select_expand.host_s": (host("tree.select_expand"), "s"),
        "tree.select_expand_all.calls": (calls("tree.select_expand_all"), "count"),
        "tree.select_expand_all.host_s": (host("tree.select_expand_all"), "s"),
        "tree.backprop.calls": (calls("tree.backprop"), "count"),
        "tree.backprop.host_s": (host("tree.backprop"), "s"),
        "tree.nodes": (probe.tree_nodes, "count"),
        "tree.backend_node_calls": (probe.backend_calls.get("node", 0), "count"),
        "tree.backend_arena_calls": (probe.backend_calls.get("arena", 0), "count"),
        "engine.search.calls": (calls("engine.search"), "count"),
        "engine.search.host_s": (host("engine.search"), "s"),
        "engine.steps.calls": (calls("engine.steps"), "count"),
        "engine.steps.host_s": (host("engine.steps"), "s"),
        "engine.make.calls": (calls("engine.make"), "count"),
        "engine.make.host_s": (host("engine.make"), "s"),
        "gpu.launches": (calls("gpu"), "count"),
        "gpu.kernel_virt_s": (probe.kernel_virt_s, "s"),
        "gpu.device_util": (lay.get("device_util", 0.0), "frac"),
        "scheduler.launches": (launches, "count"),
        "scheduler.self_host_s": (self_s("scheduler"), "s"),
        "scheduler.lanes_per_launch": (ratio(lanes_total, launches), "count"),
        "scheduler.pad_lane_frac": (ratio(pad, lanes_total + pad), "frac"),
        "scheduler.tenants_per_launch": (
            ratio(sum(b.tenant_slices for b in batchers), fused), "count"),
        "service.ticks": (sum(s.ticks for s in probe.services.values()), "count"),
        "service.self_host_s": (self_s("service"), "s"),
        "service.tick_host_ms_p50": (percentile(ticks, 50) * 1e3, "ms"),
        "service.tick_host_ms_p90": (percentile(ticks, 90) * 1e3, "ms"),
        "service.queue_wait_virt_p90_s": (
            percentile(lay.get("queue_waits", []), 90), "s"),
        "cluster.waves": (lay.get("waves", 0), "count"),
        "cluster.self_host_s": (self_s("cluster"), "s"),
        "cache.lookups": (probe.cache_lookups, "count"),
        "cache.hits": (probe.cache_hits, "count"),
        "cache.hit_rate": (
            ratio(probe.cache_hits, probe.cache_lookups),
            "frac"),
        "cache.coalesced": (lay.get("coalesced", 0), "count"),
        "cache.host_s": (host("cache"), "s"),
        "overload.shed": (lay.get("shed", 0), "count"),
        "overload.degraded": (lay.get("degraded", 0), "count"),
        "overload.peak_level": (probe.peak_level, "count"),
        "journal.records": (probe.journal_records, "count"),
        "journal.bytes": (lay.get("journal_bytes", 0), "bytes"),
        "journal.host_s": (host("journal"), "s"),
        "checkpoint.count": (probe.checkpoints, "count"),
        "checkpoint.bytes": (probe.checkpoint_bytes, "bytes"),
        "checkpoint.host_s": (host("checkpoint"), "s"),
        "recover.host_s": (host("recover"), "s"),
        "recover.mttr_virt_s": (lay.get("mttr_s", 0.0), "s"),
        "resilience.retries": (probe.retries, "count"),
        "integrity.screens": (probe.screens, "count"),
        "integrity.host_s": (host("integrity"), "s"),
        "cohort.rounds": (len(probe.round_starts), "count"),
        "cohort.round_host_ms_p50": (percentile(rounds, 50) * 1e3, "ms"),
        "cohort.self_host_s": (self_s("cohort"), "s"),
        "trace.host_s": (traced_s, "s"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "frac"),
        "trace.self_sum_frac": (ratio(tracer.self_total_s(), traced_s), "frac"),
    }

