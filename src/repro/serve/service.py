"""The batched multi-tenant search service.

:class:`SearchService` accepts many simultaneous
:class:`~repro.serve.request.SearchRequest`\\ s -- mixed games, engine
specs, budgets and deadlines -- and multiplexes them over a shared
:class:`~repro.gpu.lease.DevicePool` of virtual GPUs.

Execution model (all times virtual; see docs/serving.md):

* **Admission.**  A request arriving when an active slot is free
  starts immediately; otherwise it waits in a bounded FIFO queue; if
  the queue is full it is rejected on the spot.  Each admitted request
  gets its own engine, built from its spec by
  :func:`repro.core.make_engine` with a private engine clock (its own
  virtual CPU core).
* **Merged ticks.**  Engines that expose the ``search_steps``
  generator protocol are advanced in lockstep rounds: every tick, all
  outstanding playout requests are concatenated per game and executed
  as wide vectorised kernel launches (one SIMT lane per leaf) placed
  on the least-busy pooled device.  The tick costs the slowest
  kernel's modelled time plus the *maximum* per-request CPU charge --
  tenants' tree work overlaps, the shared accelerators are the
  contended resource.
* **Direct engines.**  GPU engines without ``search_steps`` (block /
  leaf / hybrid / multigpu) run whole searches pinned to one pooled
  device: the search executes against the request's private clock and
  occupies the device's in-order stream for its full elapsed time.
* **Deadlines.**  A request's relative deadline converts to an
  absolute service time at arrival.  At every tick boundary, active
  requests past their deadline are cancelled (``missed``, no result);
  queued requests whose deadline passed before they could start are
  likewise missed without running.

The per-request latency and per-device busy spans are recorded on a
:class:`~repro.gpu.trace.Tracer`, so a service run can be dumped to
the Chrome trace viewer and utilisation is derived from track busy
time.
"""

from __future__ import annotations

import heapq

from collections import deque
from dataclasses import dataclass

from pathlib import Path

from repro.core.backend import validate_backend
from repro.core.base import Engine
from repro.core.executors import validate_playout
from repro.core.checkpoint import (
    CheckpointError,
    EngineSnapshot,
    snapshot_bytes,
)
from repro.core.results import SearchResult
from repro.core.spec import EngineSpec, make_engine
from repro.faults import FaultInjector, FaultPlan
from repro.games import make_game
from repro.games.base import Game
from repro.gpu.device import TESLA_C2050, DeviceSpec
from repro.gpu.lease import DevicePool
from repro.gpu.trace import Tracer
from repro.integrity import IntegrityPolicy, IntegrityState
from repro.serve.autoscale import Autoscaler, AutoscalerConfig
from repro.serve.clients import ClientPopulation, RetryBudget
from repro.serve.journal import JournalWriter, read_journal
from repro.serve.metrics import ServiceReport, percentile, summarize
from repro.serve.overload import (
    HysteresisController,
    OverloadPolicy,
)
from repro.serve.resilience import (
    LaunchOutcome,
    ResilientLauncher,
    RetryPolicy,
)
from repro.serve.request import (
    CLASS_RANK,
    COMPLETED,
    MISSED,
    PENDING,
    PRIORITY_CLASSES,
    QUEUED,
    REJECTED,
    RUNNING,
    SHED,
    RequestRecord,
    SearchRequest,
    attempt_of,
    tenant_of,
)
from repro.serve.scheduler import (
    FusedBatcher,
    GeneratorPool,
    LaneBatcher,
)
from repro.util.clock import Clock
from repro.util.seeding import derive_seed

#: Fixed host bookkeeping charged to the virtual clock on every
#: scheduler tick, on top of the engines' per-request CPU charge.
TICK_OVERHEAD_S = 2e-6


def supports_search_steps(engine: Engine) -> bool:
    """Can this engine be driven through the merged generator seam?"""
    return type(engine).search_steps is not Engine.search_steps


@dataclass
class _Active:
    """Bookkeeping for one request holding an active slot."""

    record: RequestRecord
    engine: Engine
    game: Game
    #: CPU time charged by the engine but not yet billed to a tick
    #: (priming the generator happens at activation).
    pending_cpu_s: float = 0.0
    #: Direct-path (non-generator) engines: the finished result and
    #: the launch-chain outcome its modelled execution occupies.
    result: SearchResult | None = None
    outcome: LaunchOutcome | None = None


class ServiceError(RuntimeError):
    """Raised on invalid service use (submit after run, ...)."""


class ServiceCrash(RuntimeError):
    """The fault plan's scheduled crash fired: the service process is
    modelled as killed at this point.  The write-ahead journal (if
    enabled) holds everything needed to :meth:`SearchService.recover`."""


class SearchService:
    """Concurrent multi-tenant search over a shared virtual-GPU pool."""

    def __init__(
        self,
        devices: tuple[DeviceSpec, ...] | None = None,
        n_devices: int = 4,
        max_active: int = 64,
        max_queue: int = 256,
        seed: int = 0,
        tracer: Tracer | None = None,
        enforce_deadlines: bool = True,
        faults: FaultPlan | str | None = None,
        retry: RetryPolicy | None = None,
        backend: str = "node",
        playout: str = "compiled",
        fusion: bool = True,
        fusion_admission: bool = False,
        max_fused_lanes: int = 1 << 16,
        journal: "str | Path | JournalWriter | None" = None,
        checkpoint_every: int = 50,
        integrity: "IntegrityPolicy | dict | None" = None,
        overload: "OverloadPolicy | dict | bool | None" = None,
        autoscale: "AutoscalerConfig | dict | bool | None" = None,
        clients: "ClientPopulation | dict | bool | None" = None,
        retry_budget: "RetryBudget | dict | bool | None" = None,
    ) -> None:
        if max_active <= 0:
            raise ValueError(f"max_active must be positive: {max_active}")
        if max_queue < 0:
            raise ValueError(f"max_queue cannot be negative: {max_queue}")
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every cannot be negative: {checkpoint_every}"
            )
        validate_backend(backend)
        validate_playout(playout)
        if devices is None:
            devices = (TESLA_C2050,) * n_devices
        self.clock = Clock()
        self.tracer = tracer if tracer is not None else Tracer()
        self.pool = DevicePool(devices, self.clock, self.tracer)
        #: Overload-survival controls (docs/overload.md).  With no
        #: policy and no autoscaler, every code path below is
        #: bit-identical to the legacy FIFO service -- the overload
        #: layer is strictly opt-in.
        self.overload = OverloadPolicy.coerce(overload)
        self.controller = (
            HysteresisController(self.overload)
            if self.overload is not None
            else None
        )
        autoscale_cfg = AutoscalerConfig.coerce(autoscale)
        self.autoscaler = (
            Autoscaler(self.pool, autoscale_cfg, devices[0])
            if autoscale_cfg is not None
            else None
        )
        #: Closed-loop client population (repro.serve.clients): every
        #: terminal outcome is offered back to the clients, and a
        #: failed request may return as its next attempt -- injected
        #: into the arrival stream mid-run.  ``None`` keeps the
        #: service strictly open-loop (the legacy behaviour).
        self.clients = ClientPopulation.coerce(clients)
        #: Server-side retry budget: token-bucket admission over
        #: retries (recognised by attempt lineage on request ids);
        #: first-tries are never charged.
        self.retry_budget = RetryBudget.coerce(retry_budget)
        #: Queued requests shed by the per-tenant in-class fairness
        #: cap (``OverloadPolicy.tenant_queue_frac``).
        self.fairness_evictions = 0
        #: Mid-run arrival heap of ``(arrival_s, record_index)``; live
        #: only while :meth:`run` executes (retry injection target).
        self._arrivals: "list[tuple[float, int]] | None" = None
        #: Sliding window of completed latency/deadline ratios (and
        #: miss penalties) feeding controller and autoscaler.
        self._ratio_window: "deque[float] | None" = (
            deque(
                maxlen=(
                    self.overload.window
                    if self.overload is not None
                    else 64
                )
            )
            if self.overload is not None or self.autoscaler is not None
            else None
        )
        self.fault_plan = FaultPlan.coerce(faults)
        self.injector = (
            FaultInjector(self.fault_plan)
            if self.fault_plan is not None
            else None
        )
        self.launcher = ResilientLauncher(
            self.pool, policy=retry, injector=self.injector
        )
        #: Integrity-defense policy (validation / audit / quarantine
        #: knobs); the state is created only under fault injection so
        #: fault-free runs take zero integrity code paths.
        self.integrity = IntegrityPolicy.coerce(integrity)
        self.integrity_state = (
            IntegrityState(self.integrity, self.injector, 0)
            if self.injector is not None
            else None
        )
        #: Cross-tenant kernel fusion: with ``fusion`` every tick's
        #: merged demand rides one padded launch (bit-identical
        #: per-request results either way); without it, one launch per
        #: game per tick.
        self.fusion = fusion
        if fusion:
            self.batcher: LaneBatcher = FusedBatcher(
                self.pool,
                derive_seed(seed, "serve"),
                launcher=self.launcher,
                integrity=self.integrity_state,
                playout=playout,
                max_fused_lanes=max_fused_lanes,
            )
        else:
            self.batcher = LaneBatcher(
                self.pool,
                derive_seed(seed, "serve"),
                launcher=self.launcher,
                integrity=self.integrity_state,
                playout=playout,
            )
        #: Fusion-aware admission (opt-in because it changes outcomes):
        #: at each tick boundary, requests whose deadline cannot even
        #: cover the pool's minimum launch+readback floor are missed
        #: before they are packed into the fused launch, so doomed
        #: tenants never widen (or delay) the batch.
        self.fusion_admission = fusion_admission
        #: Default tree backend for requests whose spec does not pick
        #: one explicitly (an ``@backend`` suffix always wins).
        self.backend = backend
        #: Default playout executor for requests whose spec does not
        #: pick one (an ``@compiled``/``@numpy`` suffix always wins);
        #: also the executor the merged-tick batcher runs.
        self.playout = playout
        self.max_active = max_active
        self.max_queue = max_queue
        self.seed = seed
        self.enforce_deadlines = enforce_deadlines
        self.ticks = 0
        self._records: list[RequestRecord] = []
        #: Ids of every record (submissions + injected retries) --
        #: duplicate-submission guard and crash-recovery dedup for
        #: client retries.
        self._record_ids: set[str] = set()
        self._ran = False
        self._games: dict[str, Game] = {}
        #: Write-ahead journal: every submission, periodic engine
        #: checkpoints and every terminal outcome are persisted before
        #: the service acts on them (see repro.serve.journal).
        if isinstance(journal, (str, Path)):
            journal = JournalWriter(journal, injector=self.injector)
        self.journal: JournalWriter | None = journal
        self.checkpoint_every = checkpoint_every
        #: Request ids already present in the journal file (recovery
        #: must not re-journal adopted submissions).
        self._journal_known: set[str] = set()
        #: Checkpoints to resume from instead of starting fresh.
        self._resume_snapshots: dict[str, EngineSnapshot] = {}
        #: Recovery accounting (populated by :meth:`recover`).
        self.recovered_requests = 0
        self.resumed_requests = 0
        self.restarted_requests = 0
        self.recovered_iterations = 0
        #: Persistence-corruption accounting (populated by
        #: :meth:`recover`): journal records skipped by the reader and
        #: journalled checkpoints the CRC envelope refused to adopt.
        self.journal_corrupt_records = 0
        self.corrupt_checkpoints = 0
        #: Journalled requests belonging to *another* shard that
        #: recovery skipped (``rid_filter`` mismatches; see
        #: :meth:`recover` and docs/cluster.md).
        self.foreign_records = 0

    # -- submission --------------------------------------------------------

    def submit(self, request: SearchRequest) -> RequestRecord:
        """Register a request for the next :meth:`run`."""
        if self._ran:
            raise ServiceError("service already ran; build a new one")
        if request.request_id in self._record_ids:
            raise ServiceError(
                f"duplicate request id {request.request_id!r}"
            )
        record = RequestRecord(request=request, status=PENDING)
        self._records.append(record)
        self._record_ids.add(request.request_id)
        if (
            self.journal is not None
            and request.request_id not in self._journal_known
        ):
            self.journal.submit(request)
            self._journal_known.add(request.request_id)
        return record

    def submit_all(
        self, requests: list[SearchRequest]
    ) -> list[RequestRecord]:
        return [self.submit(r) for r in requests]

    # -- execution ---------------------------------------------------------

    def _game(self, name: str) -> Game:
        game = self._games.get(name)
        if game is None:
            game = make_game(name)
            self._games[name] = game
        return game

    def _activate(
        self,
        record: RequestRecord,
        active: dict[str, _Active],
        gen_pool: GeneratorPool,
    ) -> None:
        """Give ``record`` an active slot and start its search."""
        req = record.request
        record.status = RUNNING
        record.start_s = self.clock.now
        game = self._game(req.game)
        # Degradation ladder (docs/overload.md): the controller's
        # current rung decides, per class, whether this activation
        # runs at full fidelity, with a squeezed budget, or on the
        # cheap engine spec.  Interactive traffic always runs whole.
        budget_s = req.budget_s
        engine_source = req.engine
        rung = 0
        if self.overload is not None and self.controller is not None:
            level = self.controller.level
            rung = self.overload.degrade_level_for(
                level, req.priority
            )
            budget_s *= self.overload.budget_scale_for(
                level, req.priority
            )
            engine_source = self.overload.spec_for(
                level, req.priority, req.engine
            )
        if rung:
            record.degrade_level = rung
            record.degraded = True
        spec = EngineSpec.coerce(engine_source)
        overrides = {}
        if self.backend != "node" and "backend" not in spec.params:
            overrides["backend"] = self.backend
        if self.playout != "compiled" and "playout" not in spec.params:
            overrides["playout"] = self.playout
        if self.injector is not None and spec.kind in (
            "block",
            "root",
            "multigpu",
            "tree",
            "pipeline",
        ):
            # Ensemble engines share the service's fault stream: rank
            # contributions may be dropped, kernel results corrupted,
            # trees poisoned -- and the engines' integrity defenses
            # (screening, audit, quarantine) run under this policy.
            overrides["injector"] = self.injector
            overrides["integrity"] = self.integrity
        engine = make_engine(
            spec, game, req.seed, clock=Clock(), **overrides
        )
        self._install_iteration_hook(req.request_id, engine)
        state = req.state if req.state is not None else game.initial_state()
        slot = _Active(record=record, engine=engine, game=game)
        active[req.request_id] = slot
        resume_from = self._resume_snapshots.pop(req.request_id, None)
        if resume_from is not None:
            engine.restore(resume_from)
        if supports_search_steps(engine):
            before = engine.clock.now
            gen = (
                engine.resume_steps()
                if resume_from is not None
                else engine.search_steps(state, budget_s)
            )
            still_running = gen_pool.add(req.request_id, gen)
            slot.pending_cpu_s = engine.clock.now - before
            if not still_running:
                # Degenerate zero-playout search: done at activation.
                self._finish(
                    record,
                    active,
                    result=gen_pool.results.pop(req.request_id),
                )
        else:
            # Direct path: the whole search runs pinned to one pooled
            # device, occupying its stream for the modelled duration
            # (re-placed onto another healthy device if faults strike).
            result = (
                engine.resume()
                if resume_from is not None
                else engine.search(state, budget_s)
            )
            slot.result = result
            slot.outcome = self.launcher.launch(
                req.request_id,
                lambda _spec: result.elapsed_s,
                label=f"{engine.name}_search",
                lanes=getattr(
                    getattr(engine, "config", None), "total_threads", 0
                ),
                game=req.game,
            )
            if not slot.outcome.delivered:
                # Retry budget exhausted: salvage the computed result,
                # report the request degraded instead of failing it.
                record.degraded = True

    def _install_iteration_hook(self, rid: str, engine: Engine) -> None:
        """Journal periodic checkpoints and fire the planned crash,
        both at clean engine iteration boundaries."""
        checkpointing = (
            self.journal is not None and self.checkpoint_every > 0
        )
        crashing = (
            self.injector is not None
            and self.fault_plan.crash is not None
            and self.fault_plan.crash.site == "iteration"
        )
        if not checkpointing and not crashing:
            return

        def hook(eng: Engine, iterations: int) -> None:
            if checkpointing and iterations % self.checkpoint_every == 0:
                self.journal.checkpoint(
                    rid, iterations, snapshot_bytes(eng.snapshot())
                )
            if crashing and self.injector.crash_due(
                "iteration", iterations
            ):
                raise ServiceCrash(
                    f"planned crash at iteration {iterations} "
                    f"of request {rid!r}"
                )

        engine.iteration_hook = hook

    def _journal_terminal(self, record: RequestRecord) -> None:
        if self.journal is not None:
            self.journal.complete(
                record.request.request_id,
                record.status,
                record.result,
                record.finish_s,
            )

    def _finish(
        self,
        record: RequestRecord,
        active: dict[str, _Active],
        result: SearchResult | None,
        status: str = COMPLETED,
    ) -> None:
        record.status = status
        record.result = result
        record.finish_s = self.clock.now
        active.pop(record.request.request_id, None)
        self._observe_outcome(record)
        self._journal_terminal(record)
        self._client_outcome(record)

    def _client_outcome(self, record: RequestRecord) -> None:
        """Offer one terminal outcome to the closed-loop clients; a
        returned retry joins the arrival stream mid-run.  Retry ids
        already present (a crash-recovered run resubmits journalled
        pre-crash retries) are never injected twice -- the client
        population still observes the outcome, the arrival already
        exists."""
        if self.clients is None or self._arrivals is None:
            return
        retry = self.clients.on_outcome(record, self.clock.now)
        if retry is None or retry.request_id in self._record_ids:
            return
        new_record = RequestRecord(request=retry, status=PENDING)
        idx = len(self._records)
        self._records.append(new_record)
        self._record_ids.add(retry.request_id)
        if (
            self.journal is not None
            and retry.request_id not in self._journal_known
        ):
            self.journal.submit(retry)
            self._journal_known.add(retry.request_id)
        heapq.heappush(self._arrivals, (retry.arrival_s, idx))

    def _observe_outcome(self, record: RequestRecord) -> None:
        """Feed one terminal outcome into the pressure window the
        controller and autoscaler watch."""
        if self._ratio_window is None:
            return
        deadline = record.request.deadline_s
        if record.status == COMPLETED and deadline:
            latency = record.latency_s
            if latency is not None:
                self._ratio_window.append(latency / deadline)
        elif record.status == MISSED:
            penalty = (
                self.overload.miss_penalty
                if self.overload is not None
                else 2.0
            )
            self._ratio_window.append(penalty)

    def _cancel(
        self,
        record: RequestRecord,
        active: dict[str, _Active],
        gen_pool: GeneratorPool,
        status: str,
    ) -> None:
        """Terminate an admitted request without a result (deadline
        miss or load shed), resolving everything it holds: its
        generator leaves the pool and any in-flight direct-path lease
        is abandoned, so :meth:`DevicePool.assert_drained` holds even
        for requests cancelled after admission but before (or between)
        launches."""
        rid = record.request.request_id
        if rid in gen_pool.pending:
            gen_pool.cancel(rid)
        slot = active.get(rid)
        if (
            slot is not None
            and slot.outcome is not None
            and slot.outcome.lease is not None
        ):
            # The host will never wait on a cancelled request's device
            # work; resolve the lease so busy-time accounting drains.
            self.pool.abandon(slot.outcome.lease)
        self._finish(record, active, result=None, status=status)

    def _miss(
        self,
        record: RequestRecord,
        active: dict[str, _Active],
        gen_pool: GeneratorPool,
    ) -> None:
        self._cancel(record, active, gen_pool, MISSED)

    def _shed(
        self,
        record: RequestRecord,
        active: dict[str, _Active],
        gen_pool: GeneratorPool,
    ) -> None:
        self._cancel(record, active, gen_pool, SHED)

    def _reject(self, record: RequestRecord, status: str) -> None:
        """Terminate a request that never got a slot (queue-full
        rejection, shed at admission, or missed while queued)."""
        record.status = status
        record.finish_s = self.clock.now
        self._observe_outcome(record)
        self._journal_terminal(record)
        self._client_outcome(record)

    def run(self) -> list[RequestRecord]:
        """Serve every submitted request to a terminal status."""
        if self._ran:
            raise ServiceError("service already ran; build a new one")
        self._ran = True
        try:
            return self._run_loop()
        except BaseException:
            # A crash -- planned (ServiceCrash) or otherwise -- must
            # not leave device leases dangling: the host will never
            # wait on that work again, so resolve every outstanding
            # lease before propagating.  assert_drained() then holds
            # for crashed runs too.
            for lease in self.pool.unresolved_leases:
                self.pool.abandon(lease)
            raise

    def _run_loop(self) -> list[RequestRecord]:
        # Adopted (already-complete) records from a recovered journal
        # are terminal before the run starts; only pending ones arrive.
        # A heap (keyed exactly like the old sorted deque, so the
        # open-loop pop order is bit-identical) because closed-loop
        # clients inject retries into the arrival stream mid-run.
        arrivals: "list[tuple[float, int]]" = [
            (self._records[i].request.arrival_s, i)
            for i in range(len(self._records))
            if self._records[i].status == PENDING
        ]
        heapq.heapify(arrivals)
        self._arrivals = arrivals
        # Per-priority-class wait queues.  With every request in the
        # default ``standard`` class this is exactly the legacy
        # single FIFO; with classes, dequeue order is strict priority
        # (interactive first), FIFO within class -- or earliest
        # deadline first within class when an overload policy is on.
        queues: "dict[str, deque[RequestRecord]]" = {
            name: deque() for name in PRIORITY_CLASSES
        }
        active: dict[str, _Active] = {}
        gen_pool = GeneratorPool()
        policy = self.overload

        def queued_total() -> int:
            return sum(len(q) for q in queues.values())

        def enqueue(record: RequestRecord) -> None:
            """Admit ``record`` into its class queue, enforcing the
            per-tenant in-class fairness cap: a tenant already holding
            its configured fraction of the queue sheds its worst
            (latest-deadline) member -- possibly the arrival itself --
            to stay under the cap."""
            q = queues[record.request.priority]
            frac = (
                policy.tenant_queue_frac
                if policy is not None
                else None
            )
            tenant = (
                tenant_of(record.request.request_id)
                if frac is not None
                else None
            )
            if tenant is not None:
                cap = max(1, int(frac * self.max_queue))
                members = [
                    r
                    for r in q
                    if tenant_of(r.request.request_id) == tenant
                ]
                if len(members) >= cap:
                    victim = max(
                        members + [record],
                        key=lambda r: (
                            r.request.absolute_deadline_s
                            if r.request.absolute_deadline_s
                            is not None
                            else float("inf"),
                            r.request.arrival_s,
                        ),
                    )
                    victim.extras["fairness_evicted"] = True
                    self.fairness_evictions += 1
                    if victim is record:
                        self._reject(record, SHED)
                        return
                    # Identity scan: RequestRecord equality is by
                    # value, eviction must remove this exact object.
                    for k in range(len(q)):
                        if q[k] is victim:
                            del q[k]
                            break
                    self._reject(victim, SHED)
            record.status = QUEUED
            q.append(record)

        def pop_next() -> RequestRecord | None:
            for name in PRIORITY_CLASSES:
                q = queues[name]
                if not q:
                    continue
                if policy is None:
                    return q.popleft()
                best = min(
                    range(len(q)),
                    key=lambda k: (
                        q[k].request.absolute_deadline_s
                        if q[k].request.absolute_deadline_s
                        is not None
                        else float("inf"),
                        q[k].request.arrival_s,
                        k,
                    ),
                )
                record = q[best]
                del q[best]
                return record
            return None

        def evict_for(priority: str) -> RequestRecord | None:
            """The queued request a full queue sacrifices to admit a
            higher-priority arrival: the worst (latest-deadline)
            member of the lowest-priority non-empty class strictly
            below ``priority``."""
            rank = CLASS_RANK[priority]
            for name in reversed(PRIORITY_CLASSES):
                if CLASS_RANK[name] <= rank:
                    return None
                q = queues[name]
                if not q:
                    continue
                worst = max(
                    range(len(q)),
                    key=lambda k: (
                        q[k].request.absolute_deadline_s
                        if q[k].request.absolute_deadline_s
                        is not None
                        else float("inf"),
                        q[k].request.arrival_s,
                        k,
                    ),
                )
                record = q[worst]
                del q[worst]
                return record
            return None

        def drain(now: float) -> None:
            while queued_total() and len(active) < self.max_active:
                record = pop_next()
                deadline = record.request.absolute_deadline_s
                if (
                    self.enforce_deadlines
                    and deadline is not None
                    and now >= deadline
                ):
                    self._reject(record, MISSED)
                    continue
                self._activate(record, active, gen_pool)

        while arrivals or queued_total() or active:
            now = self.clock.now
            # Idle service: jump to the next arrival.
            if not active and not queued_total() and arrivals:
                next_arrival = arrivals[0][0]
                if next_arrival > now:
                    self.clock.advance_to(next_arrival)
                    now = self.clock.now

            # Admission: activate, queue, shed, or reject in arrival
            # order.  Under a policy every arrival goes through the
            # class queues (no queue-jumping past waiting tenants);
            # without one, arrivals grab free slots directly -- the
            # legacy path, bit-for-bit.
            while arrivals and arrivals[0][0] <= now:
                record = self._records[heapq.heappop(arrivals)[1]]
                priority = record.request.priority
                rid = record.request.request_id
                # Server-side retry budget: a retry (attempt lineage
                # on the id) must win a token at the front door;
                # first-tries are never charged and refill the bucket.
                if self.retry_budget is not None:
                    if attempt_of(rid) > 0:
                        if not self.retry_budget.spend():
                            record.extras["budget_rejected"] = True
                            self._reject(record, REJECTED)
                            continue
                    else:
                        self.retry_budget.on_first_try()
                level = (
                    self.controller.level
                    if self.controller is not None
                    else 0
                )
                if policy is not None and policy.sheds(
                    level, priority
                ):
                    self._reject(record, SHED)
                elif policy is None and len(active) < self.max_active:
                    self._activate(record, active, gen_pool)
                elif queued_total() < self.max_queue:
                    enqueue(record)
                elif policy is not None:
                    victim = evict_for(priority)
                    if victim is not None:
                        # A full queue sheds its worst lower-class
                        # member to admit the better arrival.
                        self._reject(victim, SHED)
                        enqueue(record)
                    else:
                        self._reject(record, SHED)
                else:
                    self._reject(record, REJECTED)
            drain(now)

            # Deadline enforcement at the tick boundary.
            if self.enforce_deadlines:
                for slot in list(active.values()):
                    deadline = slot.record.request.absolute_deadline_s
                    if deadline is not None and now >= deadline:
                        self._miss(slot.record, active, gen_pool)

            # Direct-path completions: delivered work finishes with its
            # lease; a lost launch chain finishes (degraded) once the
            # host has given up waiting on it.
            for slot in list(active.values()):
                if slot.outcome is None:
                    continue
                lease = slot.outcome.lease
                if lease is not None:
                    if self.pool.complete(lease):
                        self._finish(
                            slot.record, active, result=slot.result
                        )
                elif now >= slot.outcome.ready_s:
                    self._finish(slot.record, active, result=slot.result)

            # Overload control: one pressure observation per
            # scheduling round drives the hysteresis ladder; at the
            # shedding rungs, waiting and not-yet-launched work of
            # sheddable classes is dropped with an explicit SHED (a
            # cancelled generator leaves the pool, an in-flight lease
            # is abandoned -- lease accounting always drains).  The
            # autoscaler watches the same signals on its own cadence.
            if self._ratio_window is not None:
                ratio_p99 = (
                    percentile(list(self._ratio_window), 99)
                    if self._ratio_window
                    else 0.0
                )
                queue_frac = (
                    queued_total() / self.max_queue
                    if self.max_queue > 0
                    else (1.0 if queued_total() else 0.0)
                )
                if self.controller is not None:
                    pressure = max(
                        queue_frac / policy.queue_high,
                        ratio_p99 / policy.headroom_high,
                    )
                    level = self.controller.observe(pressure)
                    shed_rank = policy.shed_rank(level)
                    if shed_rank is not None:
                        for name in PRIORITY_CLASSES:
                            if CLASS_RANK[name] < shed_rank:
                                continue
                            q = queues[name]
                            while q:
                                self._reject(q.popleft(), SHED)
                        for slot in list(active.values()):
                            req = slot.record.request
                            if (
                                CLASS_RANK[req.priority] >= shed_rank
                                and slot.outcome is None
                                and slot.result is None
                            ):
                                self._shed(
                                    slot.record, active, gen_pool
                                )
                        drain(now)
                if self.autoscaler is not None:
                    self.autoscaler.step(now, ratio_p99, queue_frac)

            # Fusion-aware admission (opt-in): a request whose deadline
            # is inside even the cheapest possible merged tick cannot
            # finish this tick -- miss it now instead of packing its
            # lanes into the fused launch.
            if (
                self.fusion_admission
                and self.enforce_deadlines
                and gen_pool.pending
            ):
                floor = (
                    self.batcher.tick_floor_s() + TICK_OVERHEAD_S
                )
                for rid in gen_pool.pending:
                    record = active[rid].record
                    deadline = record.request.absolute_deadline_s
                    if deadline is not None and now + floor > deadline:
                        # Under an escalated overload policy a doomed
                        # non-interactive request is an explicit shed
                        # (the controller chose to drop it mid-tick,
                        # before its lanes hit the fused launch), not
                        # a silent miss.
                        if (
                            policy is not None
                            and self.controller.level >= 1
                            and record.request.priority
                            != "interactive"
                        ):
                            self._shed(record, active, gen_pool)
                        else:
                            self._miss(record, active, gen_pool)

            pending = gen_pool.pending
            if not pending:
                if active:
                    # Only direct-path work in flight: wait for the
                    # earliest ready time (or next arrival if sooner).
                    ready = [
                        slot.outcome.ready_s
                        for slot in active.values()
                        if slot.outcome is not None
                    ]
                    target = min(ready) if ready else None
                    if arrivals:
                        next_arrival = arrivals[0][0]
                        target = (
                            next_arrival
                            if target is None
                            else min(target, next_arrival)
                        )
                    if target is not None:
                        self.clock.advance_to(target)
                    else:  # pragma: no cover - defensive
                        self.clock.advance(TICK_OVERHEAD_S)
                continue

            # --- one merged tick over all generator-driven requests ---
            self.ticks += 1
            if self.injector is not None and self.injector.crash_due(
                "tick", self.ticks
            ):
                raise ServiceCrash(
                    f"planned crash at service tick {self.ticks}"
                )
            per_game_states: dict[str, list] = {}
            spans: dict[str, tuple[str, int, int]] = {}
            for rid in pending:
                reqs = gen_pool.requests_for(rid)
                game_name = active[rid].record.request.game
                states = per_game_states.setdefault(game_name, [])
                lo = len(states)
                states.extend(reqs)
                spans[rid] = (game_name, lo, len(states))
                active[rid].record.ticks += 1
                active[rid].record.lanes += len(reqs)

            # Kernel phase: merged launches, one lane per leaf (one
            # fused padded launch for the whole tick under fusion);
            # the tick waits for every launch it issued.
            answers_by_game, tick_launches = self.batcher.execute_demand(
                per_game_states, spans
            )
            for launch in tick_launches:
                if launch.lease is not None:
                    self.pool.synchronize(launch.lease)
                elif launch.ready_s > self.clock.now:
                    # Lost chain: the host still waited out the retry
                    # storm before giving up on this launch's lanes.
                    self.clock.advance_to(launch.ready_s)

            # Attribute lost lanes to the requests whose leaf spans
            # overlapped the dropped launch chunks; those requests
            # complete with a reduced effective budget.
            lost_spans = [
                span
                for l in tick_launches
                if not l.delivered
                for span in l.spans()
            ]
            if lost_spans:
                for rid in pending:
                    game_name, lo, hi = spans[rid]
                    overlap = sum(
                        min(hi, shi) - max(lo, slo)
                        for sgame, slo, shi in lost_spans
                        if sgame == game_name
                        and min(hi, shi) > max(lo, slo)
                    )
                    if overlap:
                        record = active[rid].record
                        record.lost_lanes += overlap
                        record.degraded = True

            # CPU phase: deliver results; tenants' tree work runs on
            # private cores, so the tick charges the slowest one.
            cpu_s = 0.0
            for rid in pending:
                slot = active[rid]
                game_name, lo, hi = spans[rid]
                before = slot.engine.clock.now
                finished = gen_pool.step(
                    rid, answers_by_game[game_name][lo:hi]
                )
                delta = slot.engine.clock.now - before
                cpu_s = max(cpu_s, slot.pending_cpu_s + delta)
                slot.pending_cpu_s = 0.0
                if finished:
                    slot.result = gen_pool.results.pop(rid)
            self.clock.advance(cpu_s + TICK_OVERHEAD_S)

            # Completions land at the post-tick timestamp.
            for rid in list(active):
                slot = active[rid]
                if slot.outcome is None and slot.result is not None:
                    self._finish(slot.record, active, result=slot.result)

        # Lease-resolution invariant: every launch issued during the
        # run must have been synchronized, completed, or abandoned.
        self.pool.assert_drained()
        self._arrivals = None
        return list(self._records)

    # -- crash recovery ----------------------------------------------------

    @classmethod
    def recover(
        cls,
        journal_path: "str | Path",
        rid_filter=None,
        **service_kwargs,
    ) -> "SearchService":
        """Rebuild a service from a crashed run's write-ahead journal.

        Pass the same construction kwargs as the original service (the
        journal stores requests and engine checkpoints, not service
        configuration).  Journalled completions are adopted verbatim
        and never re-run (exactly-once); incomplete requests are
        resubmitted, resuming from their latest checkpoint when one
        was journalled.  The plan's scheduled crash is stripped so the
        recovered run cannot crash-loop on the same point.

        ``rid_filter`` -- an optional predicate over request ids --
        scopes recovery to *this node's* requests: in a sharded
        cluster a journal directory can end up holding another shard's
        (prefix-tagged) records after a misrouted append or an
        operator concatenating files.  Foreign requests (and their
        checkpoints/completions) are skipped wholesale and counted in
        :attr:`foreign_records`; they are never adopted, resumed, or
        re-journalled, so the shard that owns them recovers them
        exactly once from its own journal.

        Corruption never crashes recovery and corrupted state is never
        adopted: journal records the reader skipped are counted in
        :attr:`journal_corrupt_records`, and a journalled checkpoint
        whose CRC envelope fails to verify is refused -- its request
        restarts from scratch and :attr:`corrupt_checkpoints` records
        the refusal.
        """
        state = read_journal(journal_path)
        faults = FaultPlan.coerce(service_kwargs.pop("faults", None))
        if faults is not None:
            faults = faults.without_crash()
        service = cls(
            faults=faults,
            journal=JournalWriter(journal_path, append=True),
            **service_kwargs,
        )
        service._journal_known = set(state.requests)
        service.journal_corrupt_records = state.corrupt_records
        for rid, request in state.requests.items():
            if rid_filter is not None and not rid_filter(rid):
                service.foreign_records += 1
                continue
            completion = state.completions.get(rid)
            if completion is not None:
                service._records.append(
                    RequestRecord(
                        request=request,
                        status=completion.status,
                        result=completion.result,
                        finish_s=completion.finish_s,
                    )
                )
                service._record_ids.add(rid)
                service.recovered_requests += 1
                continue
            service.submit(request)
            checkpoint = state.checkpoints.get(rid)
            if checkpoint is not None:
                try:
                    snapshot = checkpoint.snapshot()
                except CheckpointError:
                    # The journalled snapshot rotted on disk: refuse
                    # it (never adopt poisoned state) and restart the
                    # request from scratch, with the damage counted.
                    service.corrupt_checkpoints += 1
                    service.restarted_requests += 1
                else:
                    service._resume_snapshots[rid] = snapshot
                    service.resumed_requests += 1
                    service.recovered_iterations += (
                        checkpoint.iterations
                    )
            else:
                service.restarted_requests += 1
        return service

    # -- reporting ---------------------------------------------------------

    @property
    def records(self) -> list[RequestRecord]:
        return list(self._records)

    def report(self) -> ServiceReport:
        """Aggregate metrics for the finished run."""
        if not self._ran:
            raise ServiceError("run() the service before reporting")
        first_arrival = min(
            (r.request.arrival_s for r in self._records), default=0.0
        )
        elapsed = self.clock.now - first_arrival
        # Integrity counters: merged-launch screening lives on the
        # service's own state; engine-side defenses surface in each
        # result's integrity extras.
        detected = escaped = dropped = quarantined = 0
        if self.integrity_state is not None:
            detected += self.integrity_state.detected
            escaped += self.integrity_state.escaped
            dropped += self.integrity_state.dropped_batches
        for record in self._records:
            if record.result is None:
                continue
            info = record.result.integrity
            detected += info.get("corrupt_detected", 0)
            escaped += info.get("corrupt_escaped", 0)
            dropped += info.get("dropped_batches", 0)
            quarantined += len(info.get("quarantined_trees", ()))
        return summarize(
            self._records,
            elapsed_s=elapsed,
            kernel_launches=self.batcher.launch_count,
            mean_lanes_per_launch=self.batcher.mean_lanes_per_launch,
            fused_launches=self.batcher.fused_launches,
            fusion_pad_lanes=self.batcher.pad_lanes,
            mean_tenants_per_launch=(
                self.batcher.mean_tenants_per_launch
            ),
            device_utilization=self.pool.utilization(self.clock.now),
            retries=self.launcher.retries,
            lost_launches=self.launcher.lost_launches,
            retry_overhead_s=self.launcher.wasted_wait_s,
            faults_injected=(
                self.injector.injected()
                if self.injector is not None
                else {}
            ),
            recovered=self.recovered_requests,
            resumed=self.resumed_requests,
            restarted=self.restarted_requests,
            recovered_iterations=self.recovered_iterations,
            corrupt_detected=detected,
            corrupt_escaped=escaped,
            rejected_results=self.launcher.rejected_results,
            dropped_batches=dropped,
            quarantined_trees=quarantined,
            journal_corrupt=self.journal_corrupt_records,
            checkpoint_corrupt=self.corrupt_checkpoints,
            peak_overload_level=(
                self.controller.peak_level
                if self.controller is not None
                else 0
            ),
            scale_ups=(
                self.autoscaler.scale_ups
                if self.autoscaler is not None
                else 0
            ),
            scale_downs=(
                self.autoscaler.scale_downs
                if self.autoscaler is not None
                else 0
            ),
            peak_devices=(
                self.autoscaler.peak_devices
                if self.autoscaler is not None
                else 0
            ),
            client_suppressed_breaker=(
                self.clients.suppressed_breaker
                if self.clients is not None
                else 0
            ),
            client_suppressed_throttle=(
                self.clients.suppressed_throttle
                if self.clients is not None
                else 0
            ),
            retry_exhausted=(
                self.clients.exhausted_attempts
                if self.clients is not None
                else 0
            ),
            retry_give_ups=(
                self.clients.gave_up
                if self.clients is not None
                else 0
            ),
            breaker_opens=(
                self.clients.breaker_opens
                if self.clients is not None
                else 0
            ),
            breaker_closes=(
                self.clients.breaker_closes
                if self.clients is not None
                else 0
            ),
            budget_granted=(
                self.retry_budget.granted
                if self.retry_budget is not None
                else 0
            ),
            budget_rejected=(
                self.retry_budget.rejected
                if self.retry_budget is not None
                else 0
            ),
            fairness_evictions=self.fairness_evictions,
        )


def serve(
    requests: list[SearchRequest], **service_kwargs
) -> tuple[list[RequestRecord], ServiceReport]:
    """One-shot convenience: build, submit, run, report."""
    service = SearchService(**service_kwargs)
    service.submit_all(requests)
    records = service.run()
    return records, service.report()
