"""Benchmark of the PaCo reproduction: one command, three workloads.

Run from the root of a checkout::

    python3 pacobench/run.py --workload predictor-sweep --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced pass, an exact call-count pass and the
set-up split.  Either way the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give every metric with its unit, the
jobs attempted and failed, and the digest of every simulated statistic.
See ``pacobench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from tracing import LAYERS

BENCH_DIR = Path(__file__).resolve().parent

#: Fresh interpreters timed per run for ``setup_s``, half before the
#: timed passes and half after, so a slow minute on the host moves only
#: some of them; one more is started first and discarded, so every
#: timed one finds the bytecode caches.
SETUP_SAMPLES = 10

#: Timed passes per run: at least this many, even past ``--seconds``
#: (three per CPU on a two-CPU host).
MIN_PASSES = 6
MAX_PASSES = 50

#: Hash seed of the exact call-count pass (dict/set order is fixed).
COUNT_HASHSEED = "0"

#: (name, unit) of the metrics ``--trace 0`` prints, in order.
END_TO_END = (("sim_instr_per_s", "instr/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

#: Exact accuracy metrics: printed on every run of the workload that
#: simulates their inputs, and reported per layer (see README).
EXACT = (("paper_rms_gap", "RMS"), ("gating_loss_err_pp", "pp"))


#: (name, unit) of the metrics ``--trace 1`` prints, in order.  The
#: ``<layer>.py_calls`` counts are exact; ``*.self_s`` is span time
#: minus child spans; ``runner.jobs`` is the sample count of the job
#: percentiles.
PER_LAYER = (
    ("setup.import_s", "s"), ("setup.plan_s", "s"), ("setup.build_s", "s"),
    ("backends.trace.self_s", "s"), ("backends.smt_trace.self_s", "s"),
    ("backends.builds", "count"), ("backends.build_s", "s"),
    ("backends.cycle.instr_per_s", "instr/s"),
    ("backends.trace.instr_per_s", "instr/s"),
    ("pipeline.core.self_s", "s"), ("pipeline.gated_cycle_share", "ratio"),
    ("pipeline.badpath_fetch_share", "ratio"),
    ("workloads.self_s", "s"), ("workloads.branches", "count"),
    ("workloads.instr_calls", "count"),
    ("common.rng.self_s", "s"), ("common.rng.block_draws", "count"),
    ("branch_predictor.self_s", "s"),
    ("branch_predictor.scalar_calls", "count"),
    ("branch_predictor.scalar_per_branch", "ratio"),
    ("pathconf.self_s", "s"), ("pathconf.calls", "count"),
    ("eval.observers.self_s", "s"), ("eval.deliveries", "count"),
    ("eval.run_events", "count"), ("eval.events_per_delivery", "ratio"),
    ("runner.jobs", "count"), ("runner.job_p50_s", "s"),
    ("runner.job_p90_s", "s"),
    ("runner.cache_get_s", "s"), ("runner.cache_put_s", "s"),
    ("runner.cache_hits", "count"), ("runner.cache_misses", "count"),
    ("runner.code_version_s", "s"), ("runner.pool_busy_frac", "ratio"),
    ("campaign.plan_s", "s"), ("campaign.run_shard_s", "s"),
    ("campaign.merge_s", "s"), ("campaign.warm_rerun_s", "s"),
    ("campaign.journal_entries", "count"),
    ("experiments.report_s", "s"),
    ("trace.overhead_frac", "ratio"), ("trace.spans", "count"),
    *((f"{layer}.py_calls", "count") for layer in LAYERS),
    ("py_calls_per_instr", "ratio"),
    *EXACT,
)


def _child_env(workdir: Path, **extra: str) -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["TMPDIR"] = str(workdir / "tmp")
    env.update(extra)
    return env


def _child(leg: str, args: argparse.Namespace, root: Path, workdir: Path,
           env: Dict[str, str], spans: str = "") -> Dict[str, Any]:
    """Run one probe leg in a fresh interpreter; its last JSON line."""
    command = [sys.executable, str(BENCH_DIR / "probe.py"), leg,
               "--workload", args.workload, "--seed", str(args.seed),
               "--root", str(root), "--workdir", str(workdir)]
    if spans:
        command += ["--spans", spans]
    completed = subprocess.run(command, cwd=root, env=env,
                               capture_output=True, text=True, timeout=170)
    if completed.returncode != 0:
        raise RuntimeError(f"{leg} leg failed:\n{completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def setup_samples(args: argparse.Namespace, root: Path, workdir: Path,
                  count: int, prime: bool = False) -> List[Dict[str, float]]:
    """Time ``count`` fresh interpreters from start to ready-to-simulate."""
    env = _child_env(workdir)
    if prime:
        _child("setup", args, root, workdir, env)   # writes bytecode caches
    return [_child("setup", args, root, workdir, env) for _ in range(count)]


def setup_metrics(samples: List[Dict[str, float]]) -> Dict[str, float]:
    """Median set-up time and the median of each part of it."""
    return {
        "setup_s": statistics.median(
            s["import_s"] + s["plan_s"] + s["build_s"] for s in samples),
        "setup.import_s": statistics.median(s["import_s"] for s in samples),
        "setup.plan_s": statistics.median(s["plan_s"] for s in samples),
        "setup.build_s": statistics.median(s["build_s"] for s in samples),
    }


def timed_passes(workload: Any, seconds: float
                 ) -> Tuple[List[Any], List[float], List[int]]:
    """One untimed warm-up pass, then timed passes for ``seconds``.

    A serial workload runs its passes on each allowed CPU in turn (the
    third list names the CPU of each pass; -1 when not pinned).
    Interference on a shared host comes in phases that slow one CPU at
    a time for minutes, and an unpinned process tends to stay on one
    CPU for a whole run.
    """
    from workloads import timed
    allowed = sorted(os.sched_getaffinity(0))
    cpus = allowed if workload.serial and len(allowed) > 1 else [-1]
    workload.warm_up()
    workload.cleanup()
    outcomes: List[Any] = []
    walls: List[float] = []
    placed: List[int] = []
    began = time.perf_counter()
    try:
        while len(walls) < MAX_PASSES:
            cpu = cpus[len(walls) % len(cpus)]
            if cpu >= 0:
                os.sched_setaffinity(0, {cpu})
            outcome, wall = timed(workload.run_pass)
            outcomes.append(workload.finish(outcome))
            workload.cleanup()
            walls.append(wall)
            placed.append(cpu)
            if (len(walls) >= MIN_PASSES
                    and time.perf_counter() - began >= seconds):
                break
    finally:
        os.sched_setaffinity(0, allowed)
    return outcomes, walls, placed


def pass_time(walls: List[float], placed: List[int]) -> float:
    """The run's pass time: the median pass of each CPU, and of those
    the lowest.  Interference only ever slows a pass, so the CPU least
    disturbed during the run shows the simulator's own cost."""
    return min(statistics.median([w for w, c in zip(walls, placed)
                                  if c == cpu]) for cpu in set(placed))


def check_outcomes(workload: Any, outcomes: List[Any]
                   ) -> Tuple[int, List[Tuple[str, str]]]:
    """(jobs attempted, failures) over every timed pass, plus the
    run-level check that every pass is bit-identical."""
    attempted = workload.attempted * len(outcomes)
    failures = [f for o in outcomes for f in o.failures]
    digests = {o.digest for o in outcomes}
    if len(digests) != 1:
        failures.append(("passes", f"{len(digests)} distinct statistics "
                                   f"digests across identical passes"))
    return attempted, failures


def peak_rss_mb(workload_name: str) -> float:
    """Peak resident set of this client; for the campaign, plus the
    largest pool worker's.  The set-up probes are children too, but far
    smaller than a worker forked from the warmed-up client."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload_name == "campaign-timing":
        own += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0


def per_layer(args: argparse.Namespace, root: Path, workdir: Path,
              untraced_s: float, outcome: Any, workload: Any
              ) -> Tuple[Dict[str, float], List[Tuple[str, str]]]:
    """The traced pass, the exact count pass and the derived metrics."""
    failures: List[Tuple[str, str]] = []
    trace_dir = root / ".bench_work" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    spans = trace_dir / f"{args.workload}.spans.pkl.gz"
    layers = _child("layers", args, root, workdir,
                    _child_env(workdir, PYTHONHASHSEED=COUNT_HASHSEED),
                    spans=str(spans))
    metrics = dict(layers["metrics"])
    metrics["trace.overhead_frac"] = (
        layers["wall_s"] / untraced_s - 1.0)
    metrics["trace.spans"] = layers["spans"]
    failures += [tuple(f) for f in layers["failures"]]
    if set(layers["digests"]) != {outcome.digest}:
        failures.append(("traced and counted passes", "statistics differ "
                                                      "from the untraced "
                                                      "passes"))
    first, second = layers["counts"]
    if first != second:
        failures.append(("count pass", "call counts differ between two "
                                       "identical passes"))
    for layer in LAYERS:
        metrics[f"{layer}.py_calls"] = first.get(layer, 0)
    metrics["py_calls_per_instr"] = (sum(first.values())
                                     / layers["instructions"])
    metrics.update(outcome.layer_exact)
    metrics["campaign.journal_entries"] = getattr(workload,
                                                  "journal_entries", 0)
    return metrics, failures


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"pacobench: no src/repro under {root}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = False
    sys.path[:0] = [str(root / "src"), str(BENCH_DIR)]
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"pacobench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(workdir / "tmp")
    os.environ["TMPDIR"] = tempfile.tempdir
    try:
        return run(args, root, workdir, WORKLOADS[args.workload])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args: argparse.Namespace, root: Path, workdir: Path,
        factory: Any) -> int:
    workload = factory(args.seed, workdir)
    samples = setup_samples(args, root, workdir, SETUP_SAMPLES // 2,
                            prime=True)
    outcomes, walls, placed = timed_passes(workload, args.seconds)
    attempted, failures = check_outcomes(workload, outcomes)
    last = outcomes[-1]
    rss = peak_rss_mb(args.workload)
    samples += setup_samples(args, root, workdir,
                             SETUP_SAMPLES - len(samples))
    setup = setup_metrics(samples)

    exact = {name: (last.exact[name], unit) for name, unit in EXACT
             if name in last.exact and not args.trace}
    if args.trace:
        layer, layer_failures = per_layer(args, root, workdir,
                                          pass_time(walls, placed), last,
                                          workload)
        failures += layer_failures
        for name in ("setup.import_s", "setup.plan_s", "setup.build_s"):
            layer[name] = setup[name]
        for name, _unit in EXACT:
            layer[name] = last.exact.get(name, 0.0)
        metrics = {name: (layer[name], unit) for name, unit in PER_LAYER}
    else:
        metrics = {
            "sim_instr_per_s": (last.instructions
                                / pass_time(walls, placed), "instr/s"),
            "setup_s": (setup["setup_s"], "s"),
            "peak_rss_mb": (rss, "MB"),
        }

    print(f"workload {args.workload} seed {args.seed}: {len(walls)} timed "
          f"passes of {last.instructions} simulated instructions, "
          f"pass wall s min {min(walls):.4f} median "
          f"{statistics.median(walls):.4f} max {max(walls):.4f}")
    print(f"  pass walls s (cpu) "
          f"{' '.join(f'{w:.4f}({c})' for w, c in zip(walls, placed))}, "
          f"pass time {pass_time(walls, placed):.4f}")
    for name, (value, unit) in list(metrics.items()) + list(exact.items()):
        print(f"  {name} = {value!r} {unit}")
    print(f"  jobs attempted {attempted} failed {len(failures)}")
    print(f"  statistics digest {last.digest}")
    for label, reason in failures:
        print(f"  FAILED {label}: {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
