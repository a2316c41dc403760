"""Command-line interface.

::

    python -m repro experiments                 # list experiment ids
    python -m repro run fig5_speed --tier quick # run one, print table
    python -m repro play --engine block:16x32   # GPU MCTS vs greedy
    python -m repro devices                     # virtual device specs
    python -m repro serve-bench --loads 64      # batched service bench
    python -m repro serve-bench --scenario storm  # a named storm
"""

from __future__ import annotations

import argparse
import sys
import time


def _cmd_experiments(_args) -> int:
    from repro.harness import EXPERIMENTS

    for name in EXPERIMENTS:
        print(name)
    return 0


def _cmd_run(args) -> int:
    from repro.harness import run_experiment

    t0 = time.perf_counter()
    result = run_experiment(args.name, args.tier)
    print(result.render())
    print(f"\n[{args.name} took {time.perf_counter() - t0:.1f}s wall]")
    return 0


def _cmd_play(args) -> int:
    from repro.arena import play_game
    from repro.core import make_engine
    from repro.games import make_game
    from repro.players import GreedyPlayer, MctsPlayer, RandomPlayer

    game = make_game(args.game)
    spec = args.engine or f"block:{args.blocks}x{args.tpb}"
    if args.backend != "node" or args.playout != "compiled":
        from repro.core import EngineSpec, with_backend
        from repro.core.spec import with_playout

        parsed = EngineSpec.coerce(spec)
        if args.backend != "node" and "backend" not in parsed.params:
            parsed = with_backend(parsed, args.backend)
        if args.playout != "compiled" and "playout" not in parsed.params:
            parsed = with_playout(parsed, args.playout)
        spec = parsed.canonical()
    mcts = MctsPlayer(
        game,
        make_engine(spec, game, args.seed),
        move_budget_s=args.budget,
        name=spec,
    )
    if args.opponent_engine:
        opp_name = args.opponent_engine
        opponent = MctsPlayer(
            game,
            make_engine(args.opponent_engine, game, args.seed + 1),
            move_budget_s=args.budget,
            name=opp_name,
        )
    else:
        opp_name = args.opponent
        opp_cls = (
            GreedyPlayer if args.opponent == "greedy" else RandomPlayer
        )
        opponent = opp_cls(game, args.seed + 1)
    record = play_game(game, mcts, opponent)
    state = game.initial_state()
    for move in record.moves:
        state = game.apply(state, move.move)
    print(game.render(state))
    outcome = {1: f"{spec} wins", -1: f"{opp_name} wins", 0: "draw"}
    print(
        f"\n{outcome[record.winner]} "
        f"(score {record.final_score:+d}, {record.length} plies)"
    )
    return 0 if record.winner >= 0 else 1


def _cmd_devices(_args) -> int:
    from repro.gpu import list_devices

    for spec in list_devices():
        print(
            f"{spec.name}: {spec.sm_count} SMs x "
            f"{spec.max_threads_per_sm} "
            f"threads @ {spec.clock_hz / 1e9:.2f} GHz, "
            f"{spec.global_mem_bytes // 1024**2} MiB"
        )
    return 0


def _cmd_serve_bench_scenario(args) -> int:
    from repro.serve import (
        SCENARIOS,
        post_crowd_attainment,
        run_cluster_storm,
    )
    from repro.serve.metrics import class_rows, render_metric_rows

    build = SCENARIOS.get(args.scenario)
    if build is None:
        print(
            f"serve-bench: unknown --scenario {args.scenario!r}; "
            f"choose from: {', '.join(SCENARIOS)}",
            file=sys.stderr,
        )
        return 2
    defaults = vars(build_parser().parse_args(["serve-bench"]))
    for name, value in vars(args).items():
        if name not in ("scenario", "seed") and value != defaults[name]:
            print(
                f"serve-bench: --{name.replace('_', '-')} is not "
                f"supported with --scenario (a scenario fixes the "
                f"whole operating point; only --seed varies)",
                file=sys.stderr,
            )
            return 2
    t0 = time.perf_counter()
    config = build() if args.seed is None else build(args.seed)
    title = f"{args.scenario} (seed {config.seed})"
    outcome = run_cluster_storm(config)
    print(
        f"--- {title}: {len(outcome.requests)} arrivals over "
        f"{config.trace.horizon_s:.2f}s ---"
    )
    rows = {
        "requests": str(len(outcome.records)),
        "shards per epoch": ",".join(map(str, outcome.shard_counts)),
        "hedges fired": str(
            sum(r.hedges_fired for r in outcome.reports)
        ),
        "crashes / recoveries": (
            f"{outcome.crashes} / {outcome.recoveries}"
        ),
        "mean MTTR (s)": f"{outcome.mean_mttr_s:.4f}",
    }
    rows.update(class_rows(outcome.per_class))
    print(render_metric_rows(title, rows))
    if outcome.shard_counts == [1]:
        # A single node: its own counters (ladder, autoscaler,
        # clients, fusion) are the run's detail.
        print(
            outcome.reports[0].shard_reports[0].render(
                f"{args.scenario}: the node"
            )
        )
    verdict = outcome.metastability
    if verdict is not None:
        attainment = post_crowd_attainment(
            outcome.records, config.post_crowd_s()
        )
        state = "TRAPPED" if verdict.trapped else "recovered"
        print(
            f"metastability: {state} "
            f"({verdict.trapped_bins} consecutive trapped bins, "
            f"post-crowd goodput/offered "
            f"{verdict.goodput_ratio:.2f}, "
            f"post-crowd interactive SLO {attainment:.0%})"
        )
    print(
        f"[serve-bench took {time.perf_counter() - t0:.1f}s wall]"
    )
    return 0


def _cmd_serve_bench_cluster(args) -> int:
    from repro.serve import ClusterRouter, WorkloadConfig, make_workload

    t0 = time.perf_counter()
    for load in args.loads:
        workload = make_workload(
            WorkloadConfig(
                n_requests=load,
                seed=args.seed,
                budget_scale=args.budget_scale,
                deadline_s=args.deadline,
                backend=args.backend,
                playout=args.playout,
                position_skew=args.skew,
                position_pool=args.position_pool,
            )
        )
        cluster = ClusterRouter(
            n_shards=args.cluster,
            replicas=args.replicas,
            seed=args.seed,
            cache=not args.no_cache,
            journal_dir=args.journal,
            n_devices=args.devices,
            max_active=args.max_active,
            faults=args.faults,
            backend=args.backend,
            playout=args.playout,
            fusion=not args.no_fusion,
        )
        cluster.submit_all(workload)
        cluster.run()
        print(f"--- offered load: {load} requests ---")
        print(cluster.report().render())
        print()
    print(
        f"[serve-bench took {time.perf_counter() - t0:.1f}s wall]"
    )
    return 0


def _cmd_serve_bench(args) -> int:
    from repro.gpu.trace import Tracer
    from repro.serve import (
        SearchService,
        ServiceCrash,
        WorkloadConfig,
        make_workload,
    )

    from repro.util.profile import NULL_PROFILER, Profiler

    if args.scenario is not None:
        return _cmd_serve_bench_scenario(args)
    if args.seed is None:
        args.seed = 2011
    if args.cluster:
        for flag, name in (
            (args.resume, "--resume"),
            (args.trace_out, "--trace-out"),
            (args.profile, "--profile"),
            (args.no_defenses, "--no-defenses"),
        ):
            if flag:
                print(
                    f"serve-bench: {name} is not supported with "
                    f"--cluster",
                    file=sys.stderr,
                )
                return 2
        return _cmd_serve_bench_cluster(args)
    if args.resume and not args.journal:
        print("serve-bench: --resume requires --journal", file=sys.stderr)
        return 2
    if args.journal and len(args.loads) > 1:
        print(
            "serve-bench: --journal tracks one run; give a single --loads",
            file=sys.stderr,
        )
        return 2
    tracer = Tracer() if args.trace_out else None
    t0 = time.perf_counter()
    for load in args.loads:
        profiler = Profiler() if args.profile else NULL_PROFILER
        with profiler.phase("build_workload"):
            integrity = None
            if args.no_defenses:
                from repro.integrity import IntegrityPolicy

                integrity = IntegrityPolicy.disabled()
            service_kwargs = dict(
                n_devices=args.devices,
                max_active=args.max_active,
                seed=args.seed,
                tracer=tracer,
                faults=args.faults,
                backend=args.backend,
                playout=args.playout,
                fusion=not args.no_fusion,
                integrity=integrity,
            )
            if args.resume:
                # Requests (and any checkpoints) come from the journal;
                # planned crashes are stripped so recovery completes.
                service = SearchService.recover(
                    args.journal,
                    checkpoint_every=args.checkpoint_every,
                    **service_kwargs,
                )
            else:
                service = SearchService(
                    journal=args.journal,
                    checkpoint_every=args.checkpoint_every,
                    **service_kwargs,
                )
                service.submit_all(
                    make_workload(
                        WorkloadConfig(
                            n_requests=load,
                            seed=args.seed,
                            budget_scale=args.budget_scale,
                            deadline_s=args.deadline,
                            backend=args.backend,
                            playout=args.playout,
                            position_skew=args.skew,
                            position_pool=args.position_pool,
                        )
                    )
                )
        with profiler.phase("service_run"):
            try:
                service.run()
            except ServiceCrash as crash:
                print(f"--- offered load: {load} requests ---")
                print(f"service crashed: {crash}")
                print(
                    f"journal preserved at {args.journal}; rerun with "
                    "--resume to finish the interrupted work"
                )
                return 3
        profiler.count("requests", load)
        profiler.count("ticks", service.ticks)
        print(f"--- offered load: {load} requests ---")
        print(service.report().render())
        if profiler.enabled:
            print()
            print(profiler.render(title=f"serve-bench load={load}"))
        print()
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fp:
            tracer.dump(fp)
        print(f"trace written to {args.trace_out}")
    print(f"[serve-bench took {time.perf_counter() - t0:.1f}s wall]")
    return 0


def _fault_plan(text: str):
    """Parse ``--faults`` into a validated plan at argparse time."""
    from repro.faults import FaultPlan, FaultPlanError

    try:
        return FaultPlan.parse(text)
    except FaultPlanError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _load_list(text: str) -> tuple[int, ...]:
    """Parse ``--loads``: comma-separated positive request counts."""
    try:
        loads = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if not loads or any(n <= 0 for n in loads):
        raise argparse.ArgumentTypeError(
            f"loads must be positive integers, got {text!r}"
        )
    return loads


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Large-Scale Parallel MCTS on GPU' "
            "(Rocki & Suda, IPDPS 2011)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "experiments", help="list experiment ids"
    ).set_defaults(func=_cmd_experiments)

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("name")
    run.add_argument(
        "--tier", choices=("quick", "default", "full"), default=None
    )
    run.set_defaults(func=_cmd_run)

    play = sub.add_parser(
        "play", help="play one game: an engine spec vs a baseline"
    )
    play.add_argument("--game", default="reversi")
    play.add_argument(
        "--engine",
        default=None,
        help=(
            "engine spec, e.g. block:16x32, root:64, sequential "
            "(default: block:BLOCKSxTPB)"
        ),
    )
    play.add_argument(
        "--opponent-engine",
        default=None,
        help="engine spec for the opponent (overrides --opponent)",
    )
    play.add_argument(
        "--opponent", choices=("greedy", "random"), default="greedy"
    )
    play.add_argument("--blocks", type=int, default=16)
    play.add_argument("--tpb", type=int, default=32)
    play.add_argument("--budget", type=float, default=0.02)
    play.add_argument("--seed", type=int, default=2011)
    play.add_argument(
        "--backend",
        choices=("node", "arena"),
        default="node",
        help="tree backend for the engine (@suffix in a spec wins)",
    )
    play.add_argument(
        "--playout",
        choices=("compiled", "numpy"),
        default="compiled",
        help=(
            "playout executor (@compiled/@numpy in a spec wins); "
            "'compiled' falls back to numpy without a C toolchain; "
            "'numpy' forces the NumPy lockstep loop"
        ),
    )
    play.set_defaults(func=_cmd_play)

    sub.add_parser(
        "devices", help="list virtual device specs"
    ).set_defaults(func=_cmd_devices)

    bench = sub.add_parser(
        "serve-bench",
        help="load-generate the batched search service, print metrics",
    )
    bench.add_argument(
        "--loads",
        type=_load_list,
        default=(64,),
        help="comma-separated offered loads (requests per run)",
    )
    bench.add_argument("--devices", type=int, default=4)
    bench.add_argument("--max-active", type=int, default=64)
    bench.add_argument(
        "--budget-scale",
        type=float,
        default=1.0,
        help="scale per-request search budgets",
    )
    bench.add_argument(
        "--deadline",
        type=float,
        default=2.0,
        help="relative per-request deadline in virtual seconds",
    )
    bench.add_argument(
        "--seed",
        type=int,
        default=None,
        help="default 2011; with --scenario, the scenario's own (11)",
    )
    bench.add_argument(
        "--faults",
        type=_fault_plan,
        default=None,
        metavar="PLAN",
        help=(
            "inject deterministic faults, e.g. "
            "'launch=0.1,lost=0.05,stall=0.02x8,outage=1@0.5+0.2,"
            "corrupt=0.05:bitflip,disk=0.1,seed=7'"
        ),
    )
    bench.add_argument(
        "--no-defenses",
        action="store_true",
        help=(
            "disable the integrity defenses (result validation, tree "
            "audits, quarantine) -- corruption flows through unchecked; "
            "for measuring what the defenses buy"
        ),
    )
    bench.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help=(
            "write-ahead request journal (JSONL); with a crash fault "
            "the journal survives the outage for --resume"
        ),
    )
    bench.add_argument(
        "--resume",
        action="store_true",
        help=(
            "recover from --journal instead of generating a workload: "
            "adopt completed requests, resume checkpointed ones"
        ),
    )
    bench.add_argument(
        "--checkpoint-every",
        type=int,
        default=50,
        metavar="N",
        help="journal an engine snapshot every N iterations (0 = off)",
    )
    bench.add_argument(
        "--trace-out",
        default=None,
        help="write a Chrome trace JSON of the run to this path",
    )
    bench.add_argument(
        "--backend",
        choices=("node", "arena"),
        default="node",
        help="tree backend applied to every engine in the workload",
    )
    bench.add_argument(
        "--playout",
        choices=("compiled", "numpy"),
        default="compiled",
        help="playout executor applied to every engine in the workload",
    )
    bench.add_argument(
        "--no-fusion",
        action="store_true",
        help=(
            "disable cross-tenant kernel fusion (one launch per game "
            "per tick instead of one fused launch per tick)"
        ),
    )
    bench.add_argument(
        "--profile",
        action="store_true",
        help="print a wall-clock phase profile per offered load",
    )
    bench.add_argument(
        "--cluster",
        type=int,
        default=0,
        metavar="N",
        help=(
            "serve through an N-shard cluster (consistent-hash "
            "routing + Zobrist result cache) instead of one service; "
            "--journal then names a per-shard journal directory"
        ),
    )
    bench.add_argument(
        "--replicas",
        type=int,
        default=1,
        metavar="R",
        help=(
            "with --cluster: fan each request out to R shards and "
            "vote the results (trimmed mean)"
        ),
    )
    bench.add_argument(
        "--no-cache",
        action="store_true",
        help="with --cluster: disable the cluster-wide result cache",
    )
    bench.add_argument(
        "--skew",
        type=float,
        default=0.0,
        metavar="S",
        help=(
            "Zipf exponent for duplicate-position traffic "
            "(0 = every request searches the initial position)"
        ),
    )
    bench.add_argument(
        "--position-pool",
        type=int,
        default=0,
        metavar="P",
        help=(
            "candidate positions per game for skewed traffic "
            "(0 = 32 when --skew is set)"
        ),
    )
    bench.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help=(
            "fire a named storm preset (repro.serve.SCENARIOS; an "
            "unknown name lists them) instead of the closed "
            "workload; see docs/overload.md"
        ),
    )
    bench.set_defaults(func=_cmd_serve_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
