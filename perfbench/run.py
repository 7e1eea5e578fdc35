"""Benchmark command for the optimize-and-simulate pipeline.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig8_tenway --seed 1 --seconds 10 --trace 0

Workloads are described in ``perfbench/README.md``.  A run

1. sets up: starts a fresh interpreter that imports the library, and
   generates the workload's inputs from ``--seed``.  Set-up is repeated
   :data:`SETUPS_PER_ROUND` times after every round, and at least
   :data:`SETUP_REPEATS` times in all; the median is ``setup_s``.
   Nothing is optimized, cached or memoized in set-up;
2. repeats whole rounds of the workload until ``--seconds`` have passed;
   ``wall_s`` is the median round time;
3. checks every round: the simulated results of all rounds must be
   identical, and the first round must pass the workload's checks.

With ``--trace 1`` it then runs one more round under the span recorder
and the profiler (see ``layers.py``), reports the per-layer metrics
instead of the end-to-end ones, and writes them, with the spans, to
``perfbench/results/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
SETUP_REPEATS = 5
SETUPS_PER_ROUND = 2

# What a user's process imports before its first query, timed in a fresh
# interpreter (the parent has already compiled the bytecode).
_IMPORT_PROGRAM = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import repro.workloads.scenarios, repro.optimizer, repro.workload, repro.faults"
)


def _setup(workload: str, seed: int, small: bool):
    """One set-up: load the library in a fresh interpreter, generate inputs."""
    import suite

    # No timeout: with one, ``wait`` polls in steps of up to 50 ms, which
    # would quantize the measurement.
    subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_PROGRAM, str(SRC)],
        check=True,
        stdin=subprocess.DEVNULL,
    )
    return suite.make_spec(workload, seed, small=small)


def _timed_rounds(spec, seconds: float, between):
    """Whole rounds until ``seconds`` have passed (at least one).

    ``between`` runs, untimed, after each round.
    """
    import suite

    outcomes, walls = [], []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        start = time.perf_counter()
        outcomes.append(suite.run_round(spec))
        walls.append(time.perf_counter() - start)
        between()
        if time.perf_counter() >= deadline:
            return outcomes, walls


def _traced_round(spec):
    """One round under the span recorder and the profiler."""
    import layers
    import suite
    from repro.optimizer import RandomizedOptimizer
    from repro.workload import WorkloadRunner
    from repro.workloads.scenarios import Scenario

    recorder = layers.Recorder()
    profiler = cProfile.Profile(builtins=False)
    targets = [
        (suite, "chain_scenario", "workloads.build"),
        (RandomizedOptimizer, "optimize", "optimizer"),
        (Scenario, "execute", "engine.execute"),
        (WorkloadRunner, "run", "workload.run"),
    ]
    gc.collect()
    with recorder.patched(targets):
        start = time.perf_counter()
        profiler.enable()
        try:
            outcome = recorder.wrap("round", suite.run_round)(spec)
        finally:
            profiler.disable()
        wall = time.perf_counter() - start
    return outcome, wall, recorder, layers.package_self_times(profiler, str(SRC))


def _layer_metrics(outcome, wall: float, untraced_wall: float, recorder, self_times):
    import layers

    counts = outcome.counts
    lookups = outcome.plan_cache_hits + outcome.plan_cache_misses
    cache_lookups = counts["caching.hits"] + counts["caching.misses"]
    memo_sessions = outcome.memo_recordings + outcome.memo_replays
    metrics = {
        "optimizer.optimize_s": (recorder.total("optimizer"), "s"),
        "optimizer.calls": (len(recorder.outermost("optimizer")), "count"),
        "costmodel.evaluations": (
            sum(s.evaluations for s in recorder.outermost("optimizer")), "count"
        ),
        "optimizer.plan_cache_lookups": (lookups, "count"),
        "optimizer.plan_cache_hit_ratio": (
            outcome.plan_cache_hits / lookups if lookups else 0.0, "ratio"
        ),
        "workloads.build_s": (recorder.total("workloads.build"), "s"),
        "engine.execute_s": (recorder.total("engine.execute"), "s"),
        "workload.run_s": (
            recorder.total("workload.run") - recorder.nested_total("workload.run", "optimizer"),
            "s",
        ),
        "workload.memo_sessions": (memo_sessions, "count"),
        "workload.memo_replay_ratio": (
            outcome.memo_replays / memo_sessions if memo_sessions else 0.0, "ratio"
        ),
    }
    for package in layers.SELF_TIME_PACKAGES:
        metrics[f"{package}.self_s"] = (self_times.get(package, 0.0), "s")
    metrics["profile.total_s"] = (sum(self_times.values()), "s")
    for name in (
        "hardware.disk_pages_read",
        "hardware.disk_pages_written",
        "hardware.network_data_pages",
        "caching.evictions",
        "consistency.invalidations",
        "faults.retries",
        "faults.replans",
        "storage.spill_pages",
    ):
        metrics[name] = (counts[name], "pages" if "pages" in name else "count")
    metrics["caching.lookups"] = (cache_lookups, "count")
    metrics["caching.hit_ratio"] = (
        counts["caching.hits"] / cache_lookups if cache_lookups else 0.0, "ratio"
    )
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_ratio"] = (wall / untraced_wall, "ratio")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    import suite

    setup_times = []

    def set_up():
        start = time.perf_counter()
        spec = _setup(workload, seed, small)
        setup_times.append(time.perf_counter() - start)
        return spec

    # Set-up is repeated between rounds too, so its samples span the run.
    spec = set_up()
    outcomes, walls = _timed_rounds(
        spec, seconds, between=lambda: [set_up() for _ in range(SETUPS_PER_ROUND)]
    )
    while len(setup_times) < SETUP_REPEATS:
        set_up()
    first = outcomes[0]
    problems = suite.check(spec, first)
    if any(o.signature() != first.signature() for o in outcomes[1:]):
        problems.append("rounds with the same inputs gave different simulated results")
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    wall_s = statistics.median(walls)

    if not trace:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            **suite.end_to_end(first),
        }
    else:
        outcome, traced_wall, recorder, self_times = _traced_round(spec)
        problems += suite.check(spec, outcome)
        if outcome.signature() != first.signature():
            problems.append("the traced round's simulated results differ from the untraced ones")
        attempted += outcome.attempted
        failed += outcome.failed
        metrics = _layer_metrics(outcome, traced_wall, wall_s, recorder, self_times)
        if not small:
            _write_layers(workload, seed, metrics, self_times, recorder)

    for problem in problems:
        print(f"CHECK FAILED [{workload}]: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def _write_layers(workload, seed, metrics, self_times, recorder) -> None:
    total = sum(self_times.values())
    payload = {
        "workload": workload,
        "seed": seed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "self_time_share": {k: v / total for k, v in sorted(self_times.items())} if total else {},
        "spans": recorder.as_records(),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"layers-{workload}-seed{seed}.json"
    out.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"per-layer metrics written to {out.relative_to(ROOT)}")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the library source is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import suite

    if args.workload not in suite.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from {', '.join(suite.WORKLOADS)}"
        )
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(
        f"attempted {result['attempted']}, failed {result['failed']}, "
        f"correct {result['correct']}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
