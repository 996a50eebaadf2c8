"""Per-layer instrumentation installed from outside the simulator.

Two independent mechanisms, each used in a pass of its own:

* :class:`Tracer` wraps the public entry points of each ``src/repro``
  layer and records one span per wrapped call — name, start, end,
  parent span, pid, job digest — in compact in-memory columns.  Pool
  workers inherit the wrappers through ``fork`` and hand their spans
  back to the client in one file per job.
* :class:`CallCounter` runs a pass under :mod:`cProfile` and counts
  Python calls by the ``repro`` subpackage that defines the code.
  Exec-compiled templates carry their compiling module in their file
  name (``<repro.backends.trace:_step_block>``) and count toward it.

Nothing in ``src/`` is edited: every wrapper is installed by
assignment into the loaded modules and classes.
"""

from __future__ import annotations

import cProfile
import functools
import gzip
import importlib
import inspect
import json
import os
import pickle
import pkgutil
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Per-layer metric names printed by ``--trace 1`` (stable; tested).
LAYERS = ("applications", "backends", "branch_predictor", "campaign",
          "common", "confidence", "eval", "experiments", "isa", "pathconf",
          "pipeline", "runner", "workloads")


def _retired(session: Any) -> int:
    """Instructions a session (or an SMT core, over both threads) retired."""
    stats = session.stats
    if hasattr(stats, "retired_instructions"):
        return stats.retired_instructions
    return stats.total_retired


def _n_arg(args: tuple, kwargs: dict, result: Any, before: Any) -> int:
    return args[2] if len(args) > 2 else kwargs.get("n", 0)


def _run_events(args: tuple, kwargs: dict, result: Any, before: Any) -> int:
    return len(args[1]) // 4


def _one(args: tuple, kwargs: dict, result: Any, before: Any) -> int:
    return 1


def _instructions(args: tuple, kwargs: dict, result: Any, before: Any
                  ) -> int:
    return _retired(args[0]) - before


def _before_run(args: tuple, kwargs: dict) -> int:
    return _retired(args[0])


def _cache_hit(args: tuple, kwargs: dict, result: Any, before: Any) -> int:
    return 1 if result[0] else 0


#: (module, class or None, attribute, span name, amount, before-hook).
#: ``amount`` is the work a call did (branches staged, run events
#: delivered, instructions retired, cache hit) and is stored per span.
HOT_TARGETS: Tuple[tuple, ...] = (
    ("repro.backends.trace", "TraceSession", "run", "backends.trace",
     _instructions, _before_run),
    ("repro.backends.smt_trace", "TraceSMTCore", "run", "backends.smt_trace",
     _instructions, _before_run),
    ("repro.backends.cycle", "CycleSession", "run", "backends.cycle",
     _instructions, _before_run),
    ("repro.backends.cycle", "CycleBackend", "build", "backends.build",
     None, None),
    ("repro.backends.trace", "TraceBackend", "build", "backends.build",
     None, None),
    ("repro.backends.vec", "VecTraceBackend", "build", "backends.build",
     None, None),
    ("repro.backends.smt_trace", None, "build_trace_smt_core",
     "backends.build", None, None),
    ("repro.pipeline.core", "OutOfOrderCore", "run", "pipeline.core",
     None, None),
    ("repro.pipeline.smt", "SMTCore", "run", "pipeline.smt_core",
     _instructions, _before_run),
    ("repro.workloads.generator", "WorkloadGenerator", "next_branch_block",
     "workloads.branch_block", _n_arg, None),
    ("repro.workloads.generator", "WrongPathGenerator", "next_branch_block",
     "workloads.branch_block", _n_arg, None),
    ("repro.workloads.generator", "WorkloadGenerator", "next_instruction",
     "workloads.instruction", None, None),
    ("repro.workloads.generator", "WrongPathGenerator", "next_instruction",
     "workloads.instruction", None, None),
    ("repro.workloads.generator", "WrongPathGenerator", "next_branch_into",
     "workloads.branch_into", None, None),
    ("repro.common.rng", "DeterministicRng", "fill_uniforms", "common.rng",
     None, None),
    ("repro.common.rng", "DeterministicRng", "geometric_block", "common.rng",
     None, None),
    ("repro.common.rng", "DeterministicRng", "geometric_episode",
     "common.rng", None, None),
    ("repro.common.rng", "DeterministicRng", "cumulative_choice_block",
     "common.rng", None, None),
    ("repro.branch_predictor.engine", "PredictorStateEngine",
     "predict_branch", "branch_predictor", None, None),
    ("repro.branch_predictor.engine", "PredictorStateEngine",
     "resolve_branch", "branch_predictor", None, None),
    ("repro.branch_predictor.engine", "PredictorStateEngine",
     "predict_columns", "branch_predictor", None, None),
    ("repro.branch_predictor.engine", "PredictorStateEngine",
     "resolve_record", "branch_predictor", None, None),
    ("repro.runner.cache", "ResultCache", "get", "runner.cache_get",
     _cache_hit, None),
    ("repro.runner.cache", "ResultCache", "put", "runner.cache_put",
     None, None),
    ("repro.runner.cache", None, "code_version", "runner.code_version",
     None, None),
    ("repro.runner.sweep", "SweepRunner", "map", "runner.map", None, None),
    ("repro.campaign.plan", None, "build_plan", "campaign.plan", None, None),
    ("repro.campaign.plan", None, "save_plan", "campaign.plan", None, None),
    ("repro.campaign.shard", None, "run_shard", "campaign.run_shard",
     None, None),
    ("repro.campaign.merge", None, "merge_campaign", "campaign.merge",
     None, None),
)

OBSERVER_METHODS = {"record": _one, "record_run": _one,
                    "record_runs": _run_events}


class Tracer:
    """In-memory span store: one row per wrapped call, in columns.

    ``spool`` is the directory pool workers write their spans to.
    """

    def __init__(self, spool: Path) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.jobs: List[str] = []
        self.pid = os.getpid()
        self.enabled = False
        self.spool = Path(spool)
        self.current_job = -1
        self.stack: List[int] = []
        self.clear()

    def clear(self) -> None:
        self.kind = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("q")

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, function: Callable, name: str,
             amount: Optional[Callable] = None,
             before: Optional[Callable] = None) -> Callable:
        """A stand-in for ``function`` that records one span per call."""
        kind_id = self.name_id(name)
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            stack = tracer.stack
            index = len(tracer.start)
            tracer.kind.append(kind_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.job.append(tracer.current_job)
            tracer.amount.append(0)
            tracer.end.append(0.0)
            state = before(args, kwargs) if before is not None else None
            stack.append(index)
            tracer.start.append(perf_counter())
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.end[index] = perf_counter()
                stack.pop()
            if amount is not None:
                tracer.amount[index] = amount(args, kwargs, result, state)
            return result

        return traced

    def wrap_job(self, function: Callable) -> Callable:
        """Wrap ``call_experiment``: tag the job's spans with its digest
        and, inside a pool worker, spool them back to the client."""
        traced = self.wrap(function, "runner.job")
        tracer = self

        @functools.wraps(function)
        def job_span(experiment_function, job):
            if not tracer.enabled:
                return function(experiment_function, job)
            tracer.jobs.append(job.digest())
            tracer.current_job = len(tracer.jobs) - 1
            first = len(tracer.start)
            try:
                return traced(experiment_function, job)
            finally:
                tracer.current_job = -1
                if os.getpid() != tracer.pid:
                    tracer.spool_worker(first)

        return job_span

    def spool_worker(self, first: int) -> None:
        """Write this worker's spans since ``first`` for the client."""
        chunk = self.chunk(first)
        path = self.spool / f"{os.getpid()}-{first}.pkl"
        with open(path, "wb") as handle:
            pickle.dump(chunk, handle, protocol=pickle.HIGHEST_PROTOCOL)

    def chunk(self, first: int = 0) -> Dict[str, Any]:
        """Spans from ``first`` on, parents re-based to the slice."""
        parent = array("i", (p - first if p >= first else -1
                             for p in self.parent[first:]))
        used = sorted(set(j for j in self.job[first:] if j >= 0))
        return {
            "pid": os.getpid(), "names": list(self.names),
            "jobs": {j: self.jobs[j] for j in used},
            "kind": self.kind[first:], "parent": parent,
            "job": self.job[first:], "start": self.start[first:],
            "end": self.end[first:], "amount": self.amount[first:],
        }


def _repro_modules(package: str) -> List[Any]:
    """Every module of a ``repro`` subpackage, imported."""
    root = importlib.import_module(package)
    modules = [root]
    for info in pkgutil.iter_modules(root.__path__, package + "."):
        modules.append(importlib.import_module(info.name))
    return modules


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module global bound to ``original`` at
    ``replacement`` (functions imported by name elsewhere included)."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def install(tracer: Tracer) -> None:
    """Install every wrapper.

    Hot entry points come from :data:`HOT_TARGETS`; path confidence
    predictors and instance observers are wrapped method by method; the
    drivers and applications are wrapped function by function.
    """
    for (module_name, class_name, attr, name, amount,
         before) in HOT_TARGETS:
        module = importlib.import_module(module_name)
        if class_name is None:
            original = getattr(module, attr)
            _replace_everywhere(original, tracer.wrap(original, name,
                                                      amount, before))
        else:
            owner = getattr(module, class_name)
            setattr(owner, attr, tracer.wrap(vars(owner)[attr], name,
                                             amount, before))

    jobs = importlib.import_module("repro.runner.jobs")
    _replace_everywhere(jobs.call_experiment,
                        tracer.wrap_job(jobs.call_experiment))

    base = importlib.import_module("repro.pathconf.base")
    for module in _repro_modules("repro.pathconf"):
        for owner in _classes(module, base.PathConfidencePredictor):
            for attr, value in list(vars(owner).items()):
                if inspect.isfunction(value) and not attr.startswith("_"):
                    setattr(owner, attr, tracer.wrap(value, "pathconf"))

    core = importlib.import_module("repro.pipeline.core")
    observers = importlib.import_module("repro.eval.observers")
    for owner in _classes(observers, core.InstanceObserver):
        for attr, amount in OBSERVER_METHODS.items():
            if attr in vars(owner):
                setattr(owner, attr, tracer.wrap(vars(owner)[attr],
                                                 "eval.observers", amount))

    for package in ("repro.experiments", "repro.applications"):
        for module in _repro_modules(package):
            for attr, value in list(vars(module).items()):
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    _replace_everywhere(value,
                                        tracer.wrap(value, "experiments"))


def _classes(module: Any, base: type) -> Iterable[type]:
    for value in list(vars(module).values()):
        if (inspect.isclass(value) and issubclass(value, base)
                and value.__module__ == module.__name__):
            yield value


# --------------------------------------------------------------------- #
# span analysis
# --------------------------------------------------------------------- #


def self_times(chunk: Dict[str, Any]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    start, end, parent = chunk["start"], chunk["end"], chunk["parent"]
    own = [e - s for s, e in zip(start, end)]
    result = list(own)
    for index, up in enumerate(parent):
        if up >= 0:
            result[up] -= own[index]
    return result


def load_spool(spool: Path) -> List[Dict[str, Any]]:
    chunks = []
    for path in sorted(Path(spool).glob("*.pkl")):
        with open(path, "rb") as handle:
            chunks.append(pickle.load(handle))
    return chunks


def write_spans(chunks: List[Dict[str, Any]], path: Path) -> int:
    """Write every process's span columns to one gzip'd pickle; returns
    the span count.  Each chunk holds ``names`` and ``jobs`` tables and
    the columns ``kind``, ``parent`` (index in the chunk, -1 for a
    root), ``job``, ``start``, ``end`` (``perf_counter`` seconds, one
    clock for every process) and ``amount``."""
    with gzip.open(path, "wb", compresslevel=1) as handle:
        pickle.dump(chunks, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return sum(len(chunk["kind"]) for chunk in chunks)


def _percentile(values: List[float], fraction: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    points = statistics.quantiles(values, n=100, method="inclusive")
    return points[int(round(fraction * 100)) - 1]


def layer_metrics(chunks: List[Dict[str, Any]], workers: int
                  ) -> Dict[str, float]:
    """Per-layer metrics from every process's spans."""
    self_s: Dict[str, float] = {}
    total_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    amounts: Dict[str, int] = {}
    jobs: List[Tuple[float, float]] = []          # (start, duration)
    maps: List[Tuple[float, float]] = []          # (start, end)
    run_shards: List[Tuple[float, float]] = []    # (start, duration)
    for chunk in chunks:
        names = chunk["names"]
        own = self_times(chunk)
        for i, kind in enumerate(chunk["kind"]):
            name = names[kind]
            duration = chunk["end"][i] - chunk["start"][i]
            self_s[name] = self_s.get(name, 0.0) + own[i]
            total_s[name] = total_s.get(name, 0.0) + duration
            calls[name] = calls.get(name, 0) + 1
            amounts[name] = amounts.get(name, 0) + chunk["amount"][i]
            if name == "runner.job":
                jobs.append((chunk["start"][i], duration))
            elif name == "runner.map":
                maps.append((chunk["start"][i], chunk["end"][i]))
            elif name == "campaign.run_shard":
                run_shards.append((chunk["start"][i], duration))

    def get(table: Dict[str, Any], *names: str) -> float:
        return sum(table.get(name, 0) for name in names)

    # Pool busy share: job time over worker capacity, counted only over
    # the map calls that executed jobs (an all-hit map executes none).
    job_times = [duration for _, duration in jobs]
    map_wall = sum(end - start for start, end in maps
                   if any(start <= t <= end for t, _ in jobs))
    branches = get(amounts, "workloads.branch_block")
    scalar = get(calls, "branch_predictor")
    deliveries = get(calls, "eval.observers")
    events = get(amounts, "eval.observers")
    cycle_s = get(total_s, "backends.cycle", "pipeline.smt_core")
    trace_s = get(total_s, "backends.trace", "backends.smt_trace")
    run_shards.sort()
    metrics = {
        "backends.trace.self_s": get(self_s, "backends.trace"),
        "backends.smt_trace.self_s": get(self_s, "backends.smt_trace"),
        "backends.builds": get(calls, "backends.build"),
        "backends.build_s": get(total_s, "backends.build"),
        "backends.cycle.instr_per_s": (
            get(amounts, "backends.cycle", "pipeline.smt_core") / cycle_s
            if cycle_s else 0.0),
        "backends.trace.instr_per_s": (
            get(amounts, "backends.trace", "backends.smt_trace") / trace_s
            if trace_s else 0.0),
        "pipeline.core.self_s": get(self_s, "pipeline.core",
                                    "pipeline.smt_core"),
        "workloads.self_s": get(self_s, "workloads.branch_block",
                                "workloads.instruction",
                                "workloads.branch_into"),
        "workloads.branches": branches,
        "workloads.instr_calls": get(calls, "workloads.instruction"),
        "common.rng.self_s": get(self_s, "common.rng"),
        "common.rng.block_draws": get(calls, "common.rng"),
        "branch_predictor.self_s": get(self_s, "branch_predictor"),
        "branch_predictor.scalar_calls": scalar,
        "branch_predictor.scalar_per_branch": (scalar / branches
                                               if branches else 0.0),
        "pathconf.self_s": get(self_s, "pathconf"),
        "pathconf.calls": get(calls, "pathconf"),
        "eval.observers.self_s": get(self_s, "eval.observers"),
        "eval.deliveries": deliveries,
        "eval.run_events": events,
        "eval.events_per_delivery": (events / deliveries
                                     if deliveries else 0.0),
        "runner.jobs": len(job_times),
        "runner.job_p50_s": _percentile(job_times, 0.50),
        "runner.job_p90_s": _percentile(job_times, 0.90),
        "runner.cache_get_s": get(total_s, "runner.cache_get"),
        "runner.cache_put_s": get(total_s, "runner.cache_put"),
        "runner.cache_hits": get(amounts, "runner.cache_get"),
        "runner.cache_misses": (get(calls, "runner.cache_get")
                                - get(amounts, "runner.cache_get")),
        "runner.code_version_s": get(total_s, "runner.code_version"),
        "runner.pool_busy_frac": (sum(job_times) / (workers * map_wall)
                                  if map_wall else 0.0),
        "campaign.plan_s": get(total_s, "campaign.plan"),
        "campaign.run_shard_s": run_shards[0][1] if run_shards else 0.0,
        "campaign.warm_rerun_s": (sum(d for _, d in run_shards[1:])
                                  if run_shards else 0.0),
        "campaign.merge_s": get(total_s, "campaign.merge"),
        "experiments.report_s": get(self_s, "experiments"),
    }
    return metrics


# --------------------------------------------------------------------- #
# exact call counts
# --------------------------------------------------------------------- #


def layer_of(filename: str, package_root: str) -> Optional[str]:
    """The ``repro`` subpackage that defines code from ``filename``."""
    if filename.startswith("<repro."):
        module = filename[1:].split(":", 1)[0]
    elif filename.startswith(package_root):
        module = "repro." + filename[len(package_root):].replace(
            os.sep, ".")
    else:
        return None
    parts = module.split(".")
    return parts[1] if len(parts) > 2 else None


def profile_counts(profiler: cProfile.Profile, package_root: str
                   ) -> Dict[str, int]:
    """Python calls seen by ``profiler``, summed by ``repro`` layer."""
    counts = {layer: 0 for layer in LAYERS}
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):
            continue
        layer = layer_of(code.co_filename, package_root)
        if layer is not None:
            counts[layer] = counts.get(layer, 0) + entry.callcount
    return counts


class CallCounter:
    """Counts a pass's Python calls by layer, pool workers included.

    Workers forked while the profiler is on inherit it; a wrapper around
    ``call_experiment`` spools each job's count delta to a file.
    """

    def __init__(self, package_root: str, spool: Path) -> None:
        self.package_root = package_root
        self.spool = Path(spool)
        self.pid = os.getpid()
        self.profiler: Optional[cProfile.Profile] = None

    def install(self) -> None:
        jobs = importlib.import_module("repro.runner.jobs")
        original = jobs.call_experiment
        counter = self

        @functools.wraps(original)
        def counted(experiment_function, job):
            if counter.profiler is None or os.getpid() == counter.pid:
                return original(experiment_function, job)
            before = profile_counts(counter.profiler, counter.package_root)
            try:
                return original(experiment_function, job)
            finally:
                after = profile_counts(counter.profiler,
                                       counter.package_root)
                delta = {k: after[k] - before.get(k, 0) for k in after}
                path = counter.spool / f"{os.getpid()}-{job.digest()}.json"
                path.write_text(json.dumps(delta))

        _replace_everywhere(original, counted)

    def count(self, function: Callable[[], Any]) -> Tuple[Any, Dict[str, int]]:
        """Run ``function`` under the profiler; (result, counts)."""
        for path in self.spool.glob("*.json"):
            path.unlink()
        self.profiler = cProfile.Profile()
        self.profiler.enable()
        try:
            result = function()
        finally:
            self.profiler.disable()
        counts = profile_counts(self.profiler, self.package_root)
        self.profiler = None
        for path in sorted(self.spool.glob("*.json")):
            for layer, value in json.loads(path.read_text()).items():
                counts[layer] = counts.get(layer, 0) + value
        return result, counts
