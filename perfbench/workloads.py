"""The benchmark's workloads: ``match``, ``serve`` and ``storm``.

Each workload is built from a seed (the same seed gives the same
inputs), runs through the program's public entry points with the
program's defaults -- no ``backend``, ``playout`` or ``fusion``
argument -- and returns an :class:`Outcome`: host time, what the
operations yielded on the virtual clock, a fingerprint for replay
identity, and the output checks that failed.

Why these three (see README.md for the measured layer split):

* ``match`` is the paper-harness path: a closed-loop Reversi match
  from a seeded opening, the paper's ``block:128x32`` GPU player
  against its 1-core ``sequential`` player, through one
  ``play_games_cohort``.  Scalar
  playouts, the 4096-lane batch kernel and many-tree lockstep
  selection each take a large share of host time; ``repro.serve`` is
  not involved beyond the generator merge.
* ``serve`` is the multi-tenant serving path: a closed batch of mixed
  requests against one ``SearchService``, half of them waiting for an
  active slot.  Fused batch playouts and single-tree work lead.
* ``storm`` is the only workload that reaches the cluster router,
  result cache, overload ladder, journal and crash recovery: an open
  Poisson trace with a flash crowd, priority classes and Zipf position
  skew, replayed on the virtual clock through ``run_cluster_storm``.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import os
import random
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro import make_engine, make_game
from repro.arena.cohort import play_games_cohort
from repro.core.base import batch_executor
from repro.gpu.lease import PoolError
from repro.players.mcts import MctsPlayer
from repro.serve import (
    FlashCrowd,
    SearchService,
    TraceConfig,
    WorkloadConfig,
    make_workload,
)
from repro.serve.metrics import class_summary
from repro.serve.request import COMPLETED, MISSED
from repro.serve.storm import (
    ClusterStormConfig,
    assert_explicit_outcomes,
    run_cluster_storm,
)
from repro.util.seeding import derive_seed

#: Modules a fresh interpreter imports to run any workload (what the
#: ``import.*`` layer metrics time).
IMPORTS = ("repro", "repro.arena.cohort", "repro.serve")


@dataclass
class Outcome:
    """One workload run.  Everything but ``host_s`` is a function of
    the seed and must repeat exactly."""

    host_s: float
    #: Operations offered (requests, or moves searched).
    attempted: int
    #: Operations that returned a legal move.
    moves: int
    playouts: int
    #: Virtual latencies of the operations the SLO covers.
    latencies: list[float]
    slo_offered: int
    slo_attained: int
    top_offered: int
    top_attained: int
    virt_playouts: int
    virt_span_s: float
    fingerprint: str
    failures: list[str] = field(default_factory=list)
    #: Virtual-clock layer figures (queue waits, shedding, cache,
    #: recovery, device utilisation) reported by the traced run.
    layer: dict = field(default_factory=dict)


class Stopwatch:
    """Times the section a workload measures.  With a tracer, the
    tracer records only inside that section, so set-up and output
    checks are neither timed nor traced."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.host_s = 0.0

    def __enter__(self) -> "Stopwatch":
        # Collect the previous run's cyclic garbage (search trees) now
        # rather than inside the timed section.
        gc.collect()
        if self.tracer is not None:
            self.tracer.recording(True)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.host_s = time.perf_counter() - self._start
        if self.tracer is not None:
            self.tracer.recording(False)


def _fingerprint(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()


@contextmanager
def _instances_of(cls):
    """Collect every ``cls`` built inside the block (the storm's
    services are created inside ``run_cluster_storm``; their device
    pools are checked after the run)."""
    made: list = []
    original = cls.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        made.append(self)

    cls.__init__ = init
    try:
        yield made
    finally:
        cls.__init__ = original


class _TimedPlayer(MctsPlayer):
    """An :class:`MctsPlayer` that keeps each move's virtual think
    time (the cohort records only simulations and depth)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.think_s: list[float] = []

    def choose(self, state):
        info = super().choose(state)
        self.think_s.append(info.elapsed_s)
        return info


def _opening(game, plies: int, seed: int):
    """The position after ``plies`` seeded random legal moves."""
    rng = random.Random(seed)
    state = game.initial_state()
    for _ in range(plies):
        state = game.apply(state, rng.choice(game.legal_moves(state)))
    if game.is_terminal(state):
        raise ValueError(f"the {plies}-ply opening ends the game")
    return state


class Match:
    """Closed-loop match: GPU player vs the 1-core player, both
    colours from the same seeded opening, one cohort, fixed virtual
    move time."""

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.game = make_game("tictactoe" if tiny else "reversi")
        self.gpu_spec = "block:4x32" if tiny else "block:128x32"
        self.cpu_spec = "sequential"
        self.move_s = 0.002 if tiny else 0.012
        #: A move attains its SLO when decided within two move times.
        self.deadline_s = 2 * self.move_s
        self.games = 2
        #: The games are played from a seeded random opening: Reversi's
        #: last 30 plies of 60, so two repeats fit in one run.
        self.opening = _opening(
            self.game, 2 if tiny else 30, derive_seed(seed, "opening")
        )
        # The cohort starts every game at the game's initial state.
        self.opened = copy.copy(self.game)
        self.opened.initial_state = lambda: self.opening

    def _matchups(self):
        gpus, matchups = [], []
        for g in range(self.games):
            gpu = _TimedPlayer(
                self.game,
                make_engine(
                    self.gpu_spec,
                    self.game,
                    derive_seed(self.seed, "gpu", g),
                ),
                self.move_s,
            )
            cpu = MctsPlayer(
                self.game,
                make_engine(
                    self.cpu_spec,
                    self.game,
                    derive_seed(self.seed, "cpu", g),
                ),
                self.move_s,
            )
            gpus.append(gpu)
            matchups.append((gpu, cpu) if g % 2 == 0 else (cpu, gpu))
        return gpus, matchups

    def warm_up(self) -> None:
        # The same for every seed, so set-up time does not depend on it.
        state = self.game.initial_state()
        for spec in (self.gpu_spec, self.cpu_spec):
            make_engine(spec, self.game, 0).search(state, self.move_s)

    def run(self, timed: Stopwatch) -> Outcome:
        gpus, matchups = self._matchups()
        executor = batch_executor(
            self.game.name, derive_seed(self.seed, "executor")
        )
        with timed:
            records = play_games_cohort(self.opened, matchups, executor)

        failures, illegal = [], 0
        think, gpu_sims, moves_fp = [], 0, []
        busy_s = clock_s = 0.0
        for g, (record, gpu) in enumerate(zip(records, gpus)):
            colour = 1 if g % 2 == 0 else -1
            state = self.opening
            for mv in record.moves:
                if mv.move not in self.game.legal_moves(state):
                    illegal += 1
                    failures.append(f"game {g} step {mv.step}: illegal move")
                    break
                state = self.game.apply(state, mv.move)
            else:
                if not self.game.is_terminal(state):
                    failures.append(f"game {g} ended before a terminal state")
                elif self.game.winner(state) != record.winner:
                    failures.append(f"game {g} winner disagrees with its moves")
            own = [mv for mv in record.moves if mv.player == colour]
            if len(gpu.think_s) != len(own):
                failures.append(
                    f"game {g}: {len(gpu.think_s)} timed GPU moves for "
                    f"{len(own)} recorded"
                )
            think.extend(gpu.think_s)
            gpu_sims += sum(mv.simulations for mv in own)
            engine = gpu.engine
            busy_s += engine.gpu.stats.busy_seconds
            clock_s += engine.clock.now
            moves_fp.append(
                (
                    record.winner,
                    record.final_score,
                    [(mv.player, mv.move, mv.simulations) for mv in record.moves],
                    gpu.think_s,
                )
            )
        n_moves = sum(len(r.moves) for r in records)
        attained = sum(1 for t in think if t <= self.deadline_s + 1e-12)
        return Outcome(
            host_s=timed.host_s,
            attempted=n_moves,
            moves=n_moves - illegal,
            playouts=sum(mv.simulations for r in records for mv in r.moves),
            latencies=think,
            slo_offered=len(think),
            slo_attained=attained,
            top_offered=len(think),
            top_attained=attained,
            virt_playouts=gpu_sims,
            virt_span_s=sum(think),
            fingerprint=_fingerprint(moves_fp),
            failures=failures,
            layer={"device_util": busy_s / clock_s if clock_s else 0.0},
        )


def _serving_outcome(
    host_s: float, requests, records, services, extra_layer=None
) -> Outcome:
    """Outcome and checks shared by the two serving workloads."""
    failures: list[str] = []
    try:
        assert_explicit_outcomes(records)
    except AssertionError as exc:
        failures.append(str(exc))
    for service in services:
        try:
            service.pool.assert_drained()
        except PoolError as exc:
            failures.append(f"device pool not drained: {exc}")
    ids = [r.request.request_id for r in records]
    if len(set(ids)) != len(ids) or set(ids) != {
        r.request_id for r in requests
    }:
        failures.append("not exactly one terminal record per request id")
    per_class = class_summary(records)
    for name, stats in per_class.items():
        total = (
            stats.met + stats.degraded + stats.shed + stats.rejected + stats.missed
        )
        if total != stats.offered:
            failures.append(f"class {name}: outcomes {total} != offered {stats.offered}")
    if sum(s.offered for s in per_class.values()) != len(requests):
        failures.append("per-class offered load does not sum to the requests")

    games: dict = {}
    searched, moves = [], 0
    for r in records:
        if r.status != COMPLETED or r.result is None:
            continue
        req = r.request
        game = games.setdefault(req.game, make_game(req.game))
        state = req.state if req.state is not None else game.initial_state()
        if r.result.move not in game.legal_moves(state):
            failures.append(f"{req.request_id}: illegal move {r.result.move}")
            continue
        moves += 1
        if not r.extras.get("cache_hit"):
            searched.append(r)
    # A deadline miss waited for a search at least until its deadline:
    # it stays in the sample, so more misses raise the percentiles.
    missed = [
        r for r in records if r.status == MISSED and not r.extras.get("cache_hit")
    ]
    latencies = [r.latency_s for r in searched + missed]
    top = per_class.get("interactive")
    slo_offered = sum(s.offered for s in per_class.values())
    slo_attained = sum(s.attained for s in per_class.values())
    finishes = [r.finish_s for r in records if r.finish_s is not None]
    span = (
        max(finishes) - min(r.request.arrival_s for r in records)
        if finishes
        else 0.0
    )
    playouts = sum(r.result.simulations for r in searched)
    utils = [
        u
        for service in services
        for u in service.pool.utilization(service.clock.now).values()
    ]
    layer = {
        "queue_waits": [
            r.queue_wait_s for r in searched if r.queue_wait_s is not None
        ],
        "shed": sum(s.shed for s in per_class.values()),
        "degraded": sum(1 for r in records if r.outcome == "degraded"),
        "device_util": sum(utils) / len(utils) if utils else 0.0,
    }
    if extra_layer is not None:
        layer.update(extra_layer)
    return Outcome(
        host_s=host_s,
        attempted=len(requests),
        moves=moves,
        playouts=playouts,
        latencies=latencies,
        slo_offered=slo_offered,
        slo_attained=slo_attained,
        top_offered=top.offered if top else slo_offered,
        top_attained=top.attained if top else slo_attained,
        virt_playouts=playouts,
        virt_span_s=span,
        fingerprint=_fingerprint(
            [
                (
                    r.request.request_id,
                    r.status,
                    r.outcome,
                    None if r.result is None else r.result.move,
                    None if r.result is None else r.result.simulations,
                    r.finish_s,
                )
                for r in records
            ]
        ),
        failures=failures,
        layer=layer,
    )


class Serve:
    """Closed batch of mixed requests (``WorkloadConfig`` defaults)
    submitted at virtual t=0 to one service."""

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.n_requests = 6 if tiny else 128
        self.n_devices = 2 if tiny else 4
        self.max_active = 4 if tiny else 64
        self.requests = make_workload(
            WorkloadConfig(n_requests=self.n_requests, seed=seed)
        )

    def _service(self, requests, seed: int) -> SearchService:
        service = SearchService(
            n_devices=self.n_devices, max_active=self.max_active, seed=seed
        )
        service.submit_all(requests)
        return service

    def warm_up(self) -> None:
        # The same for every seed, so set-up time does not depend on it.
        self._service(make_workload(WorkloadConfig(n_requests=2, seed=0)), 0).run()

    def run(self, timed: Stopwatch) -> Outcome:
        service = self._service(self.requests, self.seed)
        with timed:
            records = service.run()
        return _serving_outcome(timed.host_s, self.requests, records, [service])


class Storm:
    """Open-loop flash-crowd storm against a two-shard cluster with
    the result cache, overload ladder, journal and a planned crash."""

    def __init__(
        self, seed: int, tiny: bool = False, scratch: Path | None = None
    ) -> None:
        self.seed = seed
        self.tiny = tiny
        self.scratch = scratch
        horizon = 0.05 if tiny else 0.6
        self.trace = TraceConfig(
            base_rate=450.0,
            horizon_s=horizon,
            seed=seed,
            components=(
                FlashCrowd(
                    start_s=horizon * 0.15,
                    duration_s=horizon * 0.5,
                    multiplier=4.0,
                ),
            ),
            class_deadline_s=(
                ("interactive", 0.1),
                ("standard", 0.3),
                ("batch", 1.0),
            ),
            workload=WorkloadConfig(
                seed=seed,
                engines=("sequential", "root:2"),
                budget_scale=0.25,
                position_skew=1.1,
            ),
        )
        self.crash_faults = "crash=tick:1" if tiny else "crash=tick:3"

    def _config(self, journal_dir: str, trace=None) -> ClusterStormConfig:
        return ClusterStormConfig(
            trace=trace or self.trace,
            epochs=2,
            initial_shards=2,
            seed=self.seed,
            cache=True,
            journal_dir=journal_dir,
            crash_epoch=1,
            crash_faults=self.crash_faults,
            service_kwargs=(
                ("n_devices", 2),
                ("max_active", 16),
                ("overload", True),
                ("checkpoint_every", 20),
            ),
        )

    @contextmanager
    def _journal_dir(self):
        if self.scratch is not None:
            self.scratch.mkdir(parents=True, exist_ok=True)
        path = tempfile.mkdtemp(prefix="journal-", dir=self.scratch)
        try:
            yield path
        finally:
            shutil.rmtree(path, ignore_errors=True)

    def warm_up(self) -> None:
        # A few arrivals of the seed-0 storm: the same warm-up for every
        # seed, so set-up time does not depend on the seed.
        fixed = Storm(0, self.tiny, self.scratch)
        with self._journal_dir() as path:
            run_cluster_storm(
                fixed._config(path, replace(fixed.trace, horizon_s=0.02))
            )

    def run(self, timed: Stopwatch) -> Outcome:
        with self._journal_dir() as path, _instances_of(SearchService) as services:
            with timed:
                outcome = run_cluster_storm(self._config(path))
            journal_bytes = sum(
                os.path.getsize(os.path.join(root, f))
                for root, _, files in os.walk(path)
                for f in files
            )
        result = _serving_outcome(
            timed.host_s,
            outcome.requests,
            outcome.records,
            services,
            extra_layer={
                "journal_bytes": journal_bytes,
                "mttr_s": outcome.mean_mttr_s,
                "coalesced": sum(r.coalesced for r in outcome.reports),
                "waves": sum(r.waves for r in outcome.reports),
            },
        )
        if outcome.crashes != 1 or outcome.recoveries != 1:
            result.failures.append(
                f"planned crash: {outcome.crashes} crashes, "
                f"{outcome.recoveries} recoveries (expected 1 and 1)"
            )
        return result


def build(name: str, seed: int, tiny: bool = False, scratch: Path | None = None):
    """The workload ``name`` with inputs generated from ``seed``;
    ``tiny`` shrinks it to test size, ``scratch`` holds the storm's
    journal directories."""
    if name == "match":
        return Match(seed, tiny)
    if name == "serve":
        return Serve(seed, tiny)
    if name == "storm":
        return Storm(seed, tiny, scratch)
    raise ValueError(f"unknown workload {name!r}")
