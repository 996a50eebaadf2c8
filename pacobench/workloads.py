"""The benchmark's three workloads.

Each workload is a closed loop: one client submits its whole job list
through the public driver/runner/campaign API and waits for it to
finish.  A *pass* is one such submission.  Every pass returns the
simulated statistics of every job it ran, so the caller can time it,
check it and digest it.

Nothing here imports :mod:`repro` at module level: the set-up probe
imports this module first and times the simulator imports separately.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import math
import shutil
import time
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# --------------------------------------------------------------------- #
# budgets — sized so that one pass takes a few seconds on a 2-vCPU host
# and simulation, not per-job set-up, dominates it.  Each budget counts
# the driver's warm-up leg, so predictor tables are trained before the
# statistics start.
# --------------------------------------------------------------------- #

#: predictor-sweep: table7 (12 benchmarks, paco), fig3 (counter) and
#: tableA1 (mrt) on the drivers' default trace backend.
SWEEP_INSTRUCTIONS = 16_000
SWEEP_WARMUP = 6_000

#: cycle-groundtruth: the slice of the cycle-backend jobs.
CYCLE_ABLATION_BENCHMARKS = ("parser",)
CYCLE_GATING_BENCHMARKS = ("twolf", "gzip")
CYCLE_GATING_PACO_PROBABILITY = 0.20
CYCLE_GATING_JRS_THRESHOLD = 3
CYCLE_GATING_COUNT = 2
CYCLE_SMT_PAIR = ("gzip", "vortex")
CYCLE_INSTRUCTIONS = 8_000
CYCLE_WARMUP = 4_000
#: An SMT budget counts both threads' retirements.
CYCLE_SMT_INSTRUCTIONS = 8_000

#: campaign-timing: quick fig10 + fig12 campaign on trace.
CAMPAIGN_EXPERIMENTS = ("fig10", "fig12")
CAMPAIGN_INSTRUCTIONS = 8_000
CAMPAIGN_WARMUP = 3_000
CAMPAIGN_WORKERS = 2


#: Share of a single-thread budget the warm-up overshoot may take from
#: the measured window (see :func:`check_value`).
WARMUP_OVERSHOOT = 0.01


# --------------------------------------------------------------------- #
# statistics: canonical form, digest, per-job output checks
# --------------------------------------------------------------------- #


def canonical(value: Any) -> Any:
    """A JSON-ready, exact form of a simulated result.

    Floats become their hex form, so two results digest equal only when
    every statistic is bit-identical.
    """
    if isinstance(value, float):
        return value.hex()
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, dict):
        return [[canonical(k), canonical(v)]
                for k, v in sorted(value.items(), key=lambda kv: repr(kv[0]))]
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if is_dataclass(value):
        return {"@": type(value).__name__,
                **{f.name: canonical(getattr(value, f.name))
                   for f in fields(value)}}
    state: Dict[str, Any] = dict(getattr(value, "__dict__", {}))
    for cls in type(value).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            if hasattr(value, slot):
                state[slot] = getattr(value, slot)
    return {"@": type(value).__name__, **{k: canonical(v)
                                          for k, v in sorted(state.items())}}


def _floats(value: Any):
    """Every float in a canonical form (hex strings are decoded)."""
    if isinstance(value, str):
        if value.startswith(("0x", "-0x", "inf", "-inf", "nan")):
            yield float.fromhex(value)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _floats(item)
    elif isinstance(value, list):
        for item in value:
            yield from _floats(item)


def statistics_digest(records: Sequence[Tuple[Any, Any]]) -> str:
    """sha256 over every (job identity, simulated statistics) pair."""
    digest = hashlib.sha256()
    for job, value in records:
        digest.update(job.canonical().encode())
        digest.update(json.dumps(canonical(value), separators=(",", ":"))
                      .encode())
    return digest.hexdigest()


def check_value(job: Any, value: Any) -> Optional[str]:
    """Why one job's result is wrong, or ``None`` when it passes.

    A result fails when any statistic is non-finite or when the job did
    not retire the budget it was given.  A warm-up leg stops at the first
    retirement past its own budget, so the measured window of a
    single-thread job may come up short by that overshoot (a few
    instructions); :data:`WARMUP_OVERSHOOT` of the budget is allowed.
    """
    if any(not math.isfinite(x) for x in _floats(canonical(value))):
        return "non-finite statistic"
    params = job.params
    budget = params.get("instructions", 0)
    warmup = params.get("warmup_instructions", 0)
    if job.experiment in ("accuracy", "gating"):
        retired = value.stats.retired_instructions
        if retired < budget * (1.0 - WARMUP_OVERSHOOT):
            return f"retired {retired} of {budget} instructions"
    elif job.experiment == "smt":
        retired = value.stats.total_retired
        if retired < budget + warmup:
            return f"retired {retired} of {budget + warmup} instructions"
        if min(value.smt_ipcs) <= 0.0:
            return "a thread retired nothing"
    elif job.experiment == "single-ipc":
        if not value > 0.0:
            return f"single-thread IPC {value!r}"
    if job.experiment == "gating" and not value.ipc > 0.0:
        return f"IPC {value.ipc!r}"
    return None


def job_instructions(job: Any) -> int:
    """Simulated instructions of one job: its budget plus its warm-up
    (an SMT budget already counts both threads)."""
    params = job.params
    return int(params.get("instructions", 0)) + int(
        params.get("warmup_instructions", 0))


# --------------------------------------------------------------------- #
# pass plumbing
# --------------------------------------------------------------------- #


class RecordingRunner:
    """A runner that forwards to a :class:`~repro.runner.SweepRunner`
    and keeps the first (job, value) pair of every distinct job.

    Drivers and ``run_shard`` only use ``map``, ``workers`` and
    ``cache``, so this stands in for the runner they are given.
    """

    def __init__(self, runner: Any) -> None:
        self.inner = runner
        self.workers = runner.workers
        self.cache = runner.cache
        self.records: Dict[str, Tuple[Any, Any]] = {}

    def map(self, jobs: Sequence[Any]) -> List[Any]:
        jobs = list(jobs)
        values = self.inner.map(jobs)
        for job, value in zip(jobs, values):
            self.records.setdefault(job.digest(), (job, value))
        return values


@dataclass
class PassOutcome:
    """What one pass produced.  ``run_pass`` fills the first fields;
    :meth:`Workload.finish` checks and digests them after timing."""

    records: List[Tuple[Any, Any]]          #: (job, value), distinct jobs
    exact: Dict[str, float] = field(default_factory=dict)   #: accuracy
    failures: List[Tuple[str, str]] = field(default_factory=list)
    legs: Dict[str, Any] = field(default_factory=dict)  #: campaign legs
    instructions: int = 0                   #: simulated in this pass
    layer_exact: Dict[str, float] = field(default_factory=dict)
    digest: str = ""


def _attribute_failures(jobs: Sequence[Any], error: BaseException
                        ) -> List[Tuple[str, str]]:
    """Re-run a failed submission job by job to name the jobs that fail."""
    from repro.runner import execute_job
    failures = []
    for job in jobs:
        try:
            execute_job(job)
        except Exception as job_error:  # noqa: BLE001 - counted, reported
            failures.append((job.label, f"{type(job_error).__name__}: "
                                        f"{job_error}"))
    if not failures:
        failures.append(("pass", f"{type(error).__name__}: {error}"))
    return failures


def _stats_shares(records: Sequence[Tuple[Any, Any]]) -> Dict[str, float]:
    """Exact pipeline shares over every single-thread result's CoreStats:
    gated cycles per cycle (gating jobs) and bad-path fetches per fetch."""
    gated = cycles = bad = fetched = 0
    for job, value in records:
        stats = getattr(value, "stats", None)
        if stats is None or not hasattr(stats, "gated_cycles"):
            continue
        if job.experiment == "gating":
            gated += stats.gated_cycles
            cycles += stats.cycles
        bad += stats.badpath_fetched
        fetched += stats.badpath_fetched + stats.goodpath_fetched
    return {
        "pipeline.gated_cycle_share": gated / cycles if cycles else 0.0,
        "pipeline.badpath_fetch_share": bad / fetched if fetched else 0.0,
    }


# --------------------------------------------------------------------- #
# the workloads
# --------------------------------------------------------------------- #


class Workload:
    """One benchmark workload.

    ``drivers`` are the modules the set-up probe imports, ``plan`` the
    job list it plans, and ``backends`` the backends it builds one
    session on.  ``run_pass`` executes one timed pass.
    """

    name = ""
    drivers: Tuple[str, ...] = ()
    backends: Tuple[str, ...] = ()
    #: Whether the client does all the simulation itself (no pool).
    serial = True

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = Path(workdir)

    def plan(self) -> List[Any]:
        raise NotImplementedError

    @functools.cached_property
    def attempted(self) -> int:
        """Distinct jobs one pass submits."""
        return len({job.digest() for job in self.plan()})

    def warm_up(self) -> None:
        """Untimed pass before timing; the default is one ordinary pass."""
        self.run_pass()

    def run_pass(self) -> PassOutcome:
        raise NotImplementedError

    def finish(self, outcome: PassOutcome) -> PassOutcome:
        """Check every result, digest the statistics and release them.

        Runs after the pass's timing and before :meth:`cleanup`.  The
        results are dropped so that no pass holds memory into the next
        (``peak_rss_mb`` must not grow with the number of passes).
        """
        for job, value in outcome.records:
            reason = check_value(job, value)
            if reason is not None:
                outcome.failures.append((job.label, reason))
        outcome.failures.extend(self.check_pass(outcome))
        if not outcome.failures:
            outcome.failures.extend(self._check_reports(outcome))
        outcome.instructions = sum(job_instructions(job)
                                   for job, _ in outcome.records)
        outcome.layer_exact = _stats_shares(outcome.records)
        outcome.digest = statistics_digest(outcome.records)
        outcome.records, outcome.legs = [], {}
        return outcome

    def check_pass(self, outcome: PassOutcome) -> List[Tuple[str, str]]:
        """Workload-level output checks beyond the per-job ones."""
        return []

    def render_reports(self, outcome: PassOutcome) -> Dict[str, str]:
        """The tables the pass's results render to."""
        return {}

    def _check_reports(self, outcome: PassOutcome
                       ) -> List[Tuple[str, str]]:
        try:
            texts = self.render_reports(outcome)
        except Exception as error:  # noqa: BLE001 - counted, reported
            return [("reports", f"{type(error).__name__}: {error}")]
        return [(name, "report rendered empty")
                for name, text in texts.items() if not text.strip()]

    def cleanup(self) -> None:
        """Remove on-disk state a pass left behind (outside timing)."""


class PredictorSweep(Workload):
    name = "predictor-sweep"
    drivers = ("repro.experiments.table7_rms",
               "repro.experiments.fig3_counter_goodpath",
               "repro.experiments.tableA1_mrt_variants")
    backends = ("trace",)

    def _budget(self) -> Dict[str, int]:
        return dict(instructions=SWEEP_INSTRUCTIONS,
                    warmup_instructions=SWEEP_WARMUP, seed=self.seed)

    def _modules(self):
        return [importlib.import_module(name) for name in self.drivers]

    def plan(self) -> List[Any]:
        return [job for module in self._modules()
                for job in module.jobs(**self._budget())]

    def run_pass(self) -> PassOutcome:
        from repro.runner import SweepRunner
        table7, fig3, table_a1 = self._modules()
        runner = RecordingRunner(SweepRunner(workers=1))
        exact: Dict[str, float] = {}
        failures: List[Tuple[str, str]] = []
        try:
            result = table7.run(runner=runner, **self._budget())
            fig3.run(runner=runner, **self._budget())
            table_a1.run(runner=runner, **self._budget())
        except Exception as error:  # noqa: BLE001 - counted, reported
            failures = _attribute_failures(self.plan(), error)
        else:
            exact["paper_rms_gap"] = (
                sum(abs(row.paco_rms_error - row.paper_rms_error)
                    for row in result.rows) / len(result.rows))
        return PassOutcome(records=list(runner.records.values()),
                           exact=exact, failures=failures)

    def render_reports(self, outcome: PassOutcome) -> Dict[str, str]:
        """Each driver's report, replayed from the pass's results."""
        from repro.campaign import ReplayRunner
        store = {job.digest(): value for job, value in outcome.records}
        return {module.__name__.rsplit(".", 1)[-1]:
                module.report(runner=ReplayRunner(store), **self._budget())
                for module in self._modules()}


class CycleGroundTruth(Workload):
    name = "cycle-groundtruth"
    drivers = ("repro.experiments.ablations",
               "repro.experiments.fig10_gating",
               "repro.experiments.fig12_smt")
    backends = ("cycle", "trace")

    def _gating_config(self, backend: str):
        from repro.applications.pipeline_gating import GatingSweepConfig
        return GatingSweepConfig(
            benchmarks=CYCLE_GATING_BENCHMARKS,
            paco_probabilities=(CYCLE_GATING_PACO_PROBABILITY,),
            jrs_thresholds=(CYCLE_GATING_JRS_THRESHOLD,),
            gate_counts=(CYCLE_GATING_COUNT,),
            instructions=CYCLE_INSTRUCTIONS,
            warmup_instructions=CYCLE_WARMUP,
            seed=self.seed, backend=backend)

    def _smt_config(self):
        from repro.applications.smt_prioritization import SMTStudyConfig
        return SMTStudyConfig(
            pairs=[CYCLE_SMT_PAIR], jrs_thresholds=(CYCLE_GATING_JRS_THRESHOLD,),
            include_icount=True,
            instructions=CYCLE_SMT_INSTRUCTIONS,
            warmup_instructions=CYCLE_WARMUP,
            single_thread_instructions=CYCLE_INSTRUCTIONS,
            single_thread_warmup_instructions=CYCLE_WARMUP,
            seed=self.seed)

    def _ablation_kwargs(self) -> Dict[str, Any]:
        return dict(benchmarks=CYCLE_ABLATION_BENCHMARKS,
                    instructions=CYCLE_INSTRUCTIONS,
                    warmup_instructions=CYCLE_WARMUP,
                    seed=self.seed)

    def plan(self) -> List[Any]:
        from repro.applications.pipeline_gating import sweep_jobs
        from repro.applications.smt_prioritization import (single_ipc_jobs,
                                                           smt_jobs)
        from repro.experiments import ablations
        # The log-circuit ablation is the last of the three suites.
        ablation = ablations.jobs(**self._ablation_kwargs())[-2:]
        smt = self._smt_config()
        return (ablation + sweep_jobs(self._gating_config("cycle"))
                + sweep_jobs(self._gating_config("trace"))
                + single_ipc_jobs(smt) + smt_jobs(smt))

    def run_pass(self) -> PassOutcome:
        from repro.experiments import ablations, fig10_gating, fig12_smt
        from repro.runner import SweepRunner
        runner = RecordingRunner(SweepRunner(workers=1))
        exact: Dict[str, float] = {}
        failures: List[Tuple[str, str]] = []
        self.results: Dict[str, Any] = {}
        try:
            self.results["ablation"] = ablations.run_log_circuit_ablation(
                runner=runner, **self._ablation_kwargs())
            cycle = fig10_gating.run(config=self._gating_config("cycle"),
                                     runner=runner)
            trace = fig10_gating.run(config=self._gating_config("trace"),
                                     runner=runner)
            self.results["fig12"] = fig12_smt.run(config=self._smt_config(),
                                                  runner=runner)
            self.results["fig10-cycle"] = cycle
            self.results["fig10-trace"] = trace
        except Exception as error:  # noqa: BLE001 - counted, reported
            failures = _attribute_failures(self.plan(), error)
        records = list(runner.records.values())
        if not failures:
            exact["gating_loss_err_pp"] = gating_loss_err_pp(records)
        return PassOutcome(records=records, exact=exact, failures=failures)

    def render_reports(self, outcome: PassOutcome) -> Dict[str, str]:
        """The slice's tables, rendered the way the drivers render them."""
        from repro.eval.reports import format_table
        fig12 = self.results["fig12"]
        ablation = self.results["ablation"]
        texts = {
            "ablation-log": format_table(
                ["variant"] + list(CYCLE_ABLATION_BENCHMARKS) + ["mean"],
                ablation.rows(), title="Ablation — Log circuit"),
            "fig12": format_table(fig12.headers(), fig12.rows(),
                                  title="Fig. 12 — SMT fetch prioritization"),
        }
        for backend in ("cycle", "trace"):
            result = self.results[f"fig10-{backend}"]
            texts[f"fig10-{backend}"] = format_table(
                ["policy", "parameter", "perf loss %", "badpath exec red. %",
                 "badpath fetch red. %"], result.rows(),
                title=f"Fig. 10 — gating slice on {backend}")
        return texts


def gating_loss_err_pp(records: Sequence[Tuple[Any, Any]]) -> float:
    """Mean |trace − cycle| IPC loss, in percentage points, over every
    matched (benchmark, gating point) of the fig10 slice.

    The loss of a point is measured against the same benchmark's
    no-gating baseline on the same backend.
    """
    baseline: Dict[Tuple[str, str], float] = {}
    gated: Dict[Tuple[str, str, str], float] = {}
    for job, value in records:
        if job.experiment != "gating":
            continue
        params = job.params
        if params["mode"] == "none":
            baseline[(job.backend, params["benchmark"])] = value.ipc
        else:
            point = json.dumps({k: v for k, v in params.items()
                                if k != "benchmark"}, sort_keys=True)
            gated[(job.backend, params["benchmark"], point)] = value.ipc
    errors = []
    for (backend, benchmark, point), ipc in gated.items():
        if backend != "cycle":
            continue
        base_cycle = baseline[("cycle", benchmark)]
        base_trace = baseline[("trace", benchmark)]
        loss_cycle = (base_cycle - ipc) / base_cycle
        loss_trace = (base_trace - gated[("trace", benchmark, point)]) \
            / base_trace
        errors.append(abs(loss_trace - loss_cycle) * 100.0)
    return sum(errors) / len(errors)


class CampaignTiming(Workload):
    name = "campaign-timing"
    drivers = ("repro.campaign", "repro.experiments.fig10_gating",
               "repro.experiments.fig12_smt")
    backends = ("trace",)
    serial = False

    def _spec(self):
        from repro.campaign import CampaignSpec
        return CampaignSpec(name="bench", experiments=CAMPAIGN_EXPERIMENTS,
                            seeds=(self.seed,), quick=True, backend="trace",
                            instructions=CAMPAIGN_INSTRUCTIONS,
                            warmup_instructions=CAMPAIGN_WARMUP)

    def plan(self) -> List[Any]:
        from repro.campaign import build_plan
        return [planned.job for planned in build_plan(self._spec()).planned]

    def warm_up(self) -> None:
        """Render every driver's report in-process, serially and uncached:
        the reference both merges must equal.  It also warms the client,
        whose state the pool's forked workers inherit."""
        from repro.campaign import driver_module
        from repro.runner import SweepRunner
        spec = self._spec()
        self.reference = {
            experiment: driver_module(experiment).report(
                runner=SweepRunner(), **spec.driver_kwargs(self.seed))
            for experiment in CAMPAIGN_EXPERIMENTS}
        self.passes = 0

    def run_pass(self) -> PassOutcome:
        from repro.campaign import (build_plan, merge_campaign, run_shard,
                                    save_plan)
        from repro.runner import ResultCache, SweepRunner
        self.passes += 1
        root = self.workdir / f"campaign-{self.passes}"
        cache = ResultCache(root / "cache")
        cold = RecordingRunner(SweepRunner(workers=CAMPAIGN_WORKERS,
                                           cache=cache))
        warm = RecordingRunner(SweepRunner(workers=CAMPAIGN_WORKERS,
                                           cache=cache))
        failures: List[Tuple[str, str]] = []
        legs: Dict[str, Any] = {"root": root}
        try:
            plan = build_plan(self._spec())
            save_plan(plan, root / "cold")
            legs["planned"] = len(plan.planned)
            legs["cold"] = run_shard(plan, 1, 1, root / "cold", runner=cold)
            legs["cold merge"] = merge_campaign(plan, root / "cold")
            save_plan(plan, root / "warm")
            legs["warm"] = run_shard(plan, 1, 1, root / "warm", runner=warm)
            legs["warm merge"] = merge_campaign(plan, root / "warm")
        except Exception as error:  # noqa: BLE001 - counted, reported
            failures = _attribute_failures(self.plan(), error)
        legs["warm values"] = warm.records
        return PassOutcome(records=list(cold.records.values()),
                           failures=failures, legs=legs)

    def check_pass(self, outcome: PassOutcome) -> List[Tuple[str, str]]:
        """The cold leg misses every job; the warm leg hits every job and
        returns the cold values; both merges equal the in-process
        reports."""
        legs = outcome.legs
        self.journal_entries = sum(
            len(path.read_text().splitlines())
            for path in legs["root"].glob("*/shards/*.journal.jsonl"))
        if outcome.failures:
            return []
        planned, cold, warm = legs["planned"], legs["cold"], legs["warm"]
        problems = []
        if not (cold.finished and warm.finished):
            problems.append(("campaign", "a shard did not finish"))
        if cold.cache_misses != planned:
            problems.append(("cold leg", f"{cold.cache_misses} misses for "
                                         f"{planned} jobs"))
        if warm.cache_hits != planned or warm.cache_misses != 0:
            problems.append(("warm leg", f"{warm.cache_hits} hits, "
                                         f"{warm.cache_misses} misses for "
                                         f"{planned} jobs"))
        for job, value in outcome.records:
            warm_value = legs["warm values"].get(job.digest(), (None, None))[1]
            if canonical(warm_value) != canonical(value):
                problems.append((job.label, "warm value differs from cold"))
        for leg in ("cold merge", "warm merge"):
            for (experiment, _seed), text in legs[leg].texts.items():
                if text != self.reference[experiment]:
                    problems.append((leg, f"{experiment} differs from the "
                                          f"in-process report"))
        return problems

    def render_reports(self, outcome: PassOutcome) -> Dict[str, str]:
        return dict(self.reference)

    def cleanup(self) -> None:
        for path in self.workdir.glob("campaign-*"):
            shutil.rmtree(path, ignore_errors=True)


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    cls.name: cls for cls in (PredictorSweep, CycleGroundTruth, CampaignTiming)
}


def timed(function: Callable[[], Any]) -> Tuple[Any, float]:
    """Call ``function`` and return (its result, wall seconds)."""
    start = time.perf_counter()
    result = function()
    return result, time.perf_counter() - start
