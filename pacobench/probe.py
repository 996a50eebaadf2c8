"""Fresh-interpreter legs of the benchmark.

``run.py`` starts this script as a child process for every measurement
that needs a process of its own:

``setup``
    Time from a fresh interpreter to ready-to-simulate: import the
    workload's drivers, plan its job list, build one session per backend.
``layers``
    Install the span wrappers and the call counter, warm up, run one
    traced pass and write its spans, then run two passes under the
    call-counting profiler.  Started with a fixed ``PYTHONHASHSEED``, so
    dict and set orders, and with them the call counts, repeat.

Each leg prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from pathlib import Path


def _bench_paths(root: Path) -> None:
    sys.dont_write_bytecode = False
    for path in (str(root / "src"), str(Path(__file__).resolve().parent)):
        if path not in sys.path:
            sys.path.insert(0, path)


def setup_leg(args: argparse.Namespace) -> dict:
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    t0 = time.perf_counter()
    for name in workload.drivers:
        importlib.import_module(name)
    t1 = time.perf_counter()
    jobs = workload.plan()
    t2 = time.perf_counter()
    from repro.eval.harness import build_session
    from repro.pathconf.paco import PaCoPredictor
    benchmark = jobs[0].params.get("benchmark", "gzip")
    for backend in workload.backends:
        build_session(benchmark, PaCoPredictor(), seed=args.seed,
                      backend=backend)
    t3 = time.perf_counter()
    return {"import_s": t1 - t0, "plan_s": t2 - t1, "build_s": t3 - t2}


def layers_leg(args: argparse.Namespace) -> dict:
    """Warm up, then one traced pass, then two call-counted passes."""
    import repro
    from tracing import (CallCounter, Tracer, install, layer_metrics,
                         load_spool, write_spans)
    from workloads import CAMPAIGN_WORKERS, WORKLOADS, timed
    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    tracer = Tracer(Path(args.workdir) / "spool")
    tracer.spool.mkdir(parents=True, exist_ok=True)
    install(tracer)
    counter = CallCounter(os.path.dirname(repro.__file__) + os.sep,
                          Path(args.workdir) / "count-spool")
    counter.spool.mkdir(parents=True, exist_ok=True)
    counter.install()
    workload.warm_up()
    workload.cleanup()

    tracer.clear()
    tracer.enabled = True
    traced, wall = timed(workload.run_pass)
    tracer.enabled = False
    workload.finish(traced)
    workload.cleanup()
    chunks = [tracer.chunk()] + load_spool(tracer.spool)
    workers = 1 if workload.serial else CAMPAIGN_WORKERS

    tables = []
    digests = [traced.digest]
    for _ in range(2):
        counted, counts = counter.count(workload.run_pass)
        workload.finish(counted)
        workload.cleanup()
        tables.append(counts)
        digests.append(counted.digest)
    return {"wall_s": wall, "spans": write_spans(chunks, Path(args.spans)),
            "failures": traced.failures + counted.failures,
            "metrics": layer_metrics(chunks, workers),
            "counts": tables, "digests": digests,
            "instructions": counted.instructions}


LEGS = {"setup": setup_leg, "layers": layers_leg}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("leg", choices=sorted(LEGS))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default="")
    args = parser.parse_args()
    _bench_paths(Path(args.root))
    print(json.dumps(LEGS[args.leg](args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
