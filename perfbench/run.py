"""The repository benchmark: one command, one workload per run.

Usage, from the repository root::

    python3 perfbench/run.py --workload match|serve|storm --seed N \\
        --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no tracing: repeats
of the workload (at least two, more while they fit in ``--seconds``)
whose virtual-clock figures must repeat exactly, with the set-up timed
in fresh interpreters between them.  ``--trace 1`` runs the workload once untraced (its
host time gives the host throughputs) and once with every layer
wrapped, and reports the per-layer metrics; the spans go to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed
output check makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: BLAS/OpenMP pools pinned to one thread: the workloads are
#: single-threaded, and a pool sized to the machine only adds noise.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
#: Replay identity needs at least two repeats in every run.
MIN_REPEATS = 2
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 5


def bench_env() -> dict:
    """The environment every benchmark process runs under."""
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # Keep the compiled-kernel cache inside the checkout.
    env["REPRO_COMPILED_CACHE"] = str(OUT / "compiled-cache")
    return env


def environment(seed: int, repro_compiled: str | None, env: dict) -> dict:
    import numpy

    cache_dir = Path(env["REPRO_COMPILED_CACHE"])
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "c_toolchain": any(shutil.which(cc) for cc in ("cc", "gcc", "clang")),
        "compiled_cache_warm": cache_dir.is_dir() and any(cache_dir.glob("*.so")),
        "REPRO_COMPILED": repro_compiled,
        "threads": {name: env[name] for name in THREAD_VARS},
        "seed": seed,
    }


def setup_time(args, env) -> float:
    """CPU time (user + system) of a fresh interpreter that imports the
    program, builds the workload's objects and makes one warm-up call.
    CPU time rather than wall time, so that time the machine gives to
    other processes is not counted as set-up."""
    cmd = [
        sys.executable,
        str(ROOT / "perfbench" / "setup_probe.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
    ] + (["--tiny"] if args.tiny else [])
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def import_times(env, modules) -> dict:
    """``-X importtime`` totals for ``modules`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import " + ", ".join(modules)],
        env=env,
        cwd=ROOT,
        check=True,
        capture_output=True,
        text=True,
    )
    total = scipy = 0
    for line in proc.stderr.splitlines():
        head, _, rest = line.partition(":")
        if head != "import time" or "self [us]" in rest:
            continue
        self_us, _, name = (part.strip() for part in rest.split("|"))
        total += int(self_us)
        if name == "scipy" or name.startswith("scipy."):
            scipy += int(self_us)
    return {"total_s": total / 1e6, "scipy_s": scipy / 1e6}


def run_checked(workload, failures: list[str], tracer=None):
    """One workload run; an exception is a failed check, not a crash."""
    from perfbench.workloads import Stopwatch

    try:
        outcome = workload.run(Stopwatch(tracer))
    except Exception:  # the run boundary: report and keep going
        failures.append("workload raised:\n" + traceback.format_exc())
        return None
    failures.extend(outcome.failures)
    return outcome


def end_to_end(outcomes, setup: list[float]) -> dict:
    from perfbench.stats import median, percentile, ratio

    first = outcomes[0]
    return {
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MiB",
        ),
        "virt_latency_p50_s": (percentile(first.latencies, 50), "s"),
        "virt_latency_p90_s": (percentile(first.latencies, 90), "s"),
        "slo_attainment": (ratio(first.slo_attained, first.slo_offered), "frac"),
        "interactive_attainment": (
            ratio(first.top_attained, first.top_offered),
            "frac",
        ),
        "result_frac": (ratio(first.moves, first.attempted), "frac"),
        "virt_playouts_per_s": (
            ratio(first.virt_playouts, first.virt_span_s),
            "1/s",
        ),
    }


def measure(args, workload, failures) -> tuple[dict, list, dict]:
    env = bench_env()
    workload.warm_up()
    # The set-up probes are spread over the run, one before each
    # repeat, so that their median samples the whole run.
    setup, outcomes = [], []
    elapsed = 0.0
    while True:
        if len(setup) < SETUP_PROBES:
            setup.append(setup_time(args, env))
        start = time.perf_counter()
        outcome = run_checked(workload, failures)
        elapsed += time.perf_counter() - start
        if outcome is None:
            break
        outcomes.append(outcome)
        if (
            len(outcomes) >= MIN_REPEATS
            and elapsed * (len(outcomes) + 1) / len(outcomes) > args.seconds
        ):
            break
    while len(setup) < SETUP_PROBES:
        setup.append(setup_time(args, env))
    for k, outcome in enumerate(outcomes[1:], start=2):
        if outcome.fingerprint != outcomes[0].fingerprint:
            failures.append(f"replay identity: repeat {k} differs from repeat 1")
    metrics = end_to_end(outcomes, setup) if outcomes else {}
    detail = {
        "repeats": len(outcomes),
        "host_s": [o.host_s for o in outcomes],
        "setup_s": setup,
    }
    return metrics, outcomes, detail


def measure_traced(args, workload, failures) -> tuple[dict, list, dict]:
    from perfbench import layers, workloads
    from perfbench.tracer import Tracer

    workload.warm_up()
    untraced = run_checked(workload, failures)
    tracer, probe = Tracer(), layers.Probe()
    layers.install(tracer, probe)
    try:
        traced = run_checked(workload, failures, tracer)
    finally:
        tracer.restore()
    outcomes = [o for o in (untraced, traced) if o is not None]
    if len(outcomes) < 2:
        return {}, outcomes, {}
    if traced.fingerprint != untraced.fingerprint:
        failures.append("replay identity: the traced run differs from the untraced run")
    imports = import_times(bench_env(), workloads.IMPORTS)
    metrics = layers.per_layer(tracer, probe, traced, untraced.host_s, imports)
    spans = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(
        spans, {"workload": args.workload, "seed": args.seed, "host_s": traced.host_s}
    )
    detail = {
        "host_s": [untraced.host_s, traced.host_s],
        "spans": str(spans.relative_to(ROOT)),
        "span_count": len(tracer.spans),
    }
    return metrics, outcomes, detail


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("match", "serve", "storm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="run the workload at test size (for the benchmark's own tests)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    repro_compiled = os.environ.get("REPRO_COMPILED")
    # Pin threads before NumPy is first imported.
    env = bench_env()
    os.environ.update({k: env[k] for k in (*THREAD_VARS, "REPRO_COMPILED_CACHE")})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads
    from perfbench.stats import finite_or_zero

    failures: list[str] = []
    workload = workloads.build(args.workload, args.seed, tiny=args.tiny, scratch=OUT / "tmp")
    run = measure_traced if args.trace else measure
    metrics, outcomes, detail = run(args, workload, failures)
    attempted = sum(o.attempted for o in outcomes)
    result = {
        "correct": not failures and bool(outcomes),
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "metrics": {
            name: {"value": finite_or_zero(float(value)), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed, repro_compiled, env),
        "detail": detail,
        "failures": failures,
        "result": result,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    for failure in failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
