"""The trace-replay backend: predictor-level statistics without a pipeline.

:class:`TraceBackend` drives the branch predictors, BTB/RAS and the
confidence machinery directly over the workload generator's *branch*
stream — the same :class:`~repro.pipeline.fetch.FetchEngine`, front-end
predictor, JRS table and path confidence predictors as the cycle model.
The branch-content streams (``site-selection``, ``branch-outcomes``) are
consumed only by branches, so the good-path branch sequence the predictors
see (PCs, directions, targets, kinds) is bit-identical to the cycle
model's for unphased benchmarks, and statistically identical for phased
ones (branch positions, and therefore phase assignment near boundaries,
come from the replay's own gap process).

The replay is *branch-driven and batched*: non-branch instructions are
never generated at all, and branches are produced and consumed in blocks.
Per block (``--block-size`` / ``REPRO_TRACE_BLOCK``, default
:data:`DEFAULT_TRACE_BLOCK`):

* the geometric inter-branch gaps are drawn in one
  :meth:`~repro.common.rng.DeterministicRng.geometric_block` call (one
  uniform per branch, exactly the draws the scalar path made);
* the branches themselves come from
  :meth:`~repro.workloads.generator.WorkloadGenerator.next_branch_block`
  as struct-of-arrays :class:`~repro.workloads.generator.BranchBlock`
  columns — no :class:`~repro.isa.instruction.Instruction` objects exist
  on this path at all (the cycle backend keeps them, bit-identically);
* a wrong-path episode is batched the same way: all of its gap lengths
  come from one
  :meth:`~repro.common.rng.DeterministicRng.geometric_episode` call and
  all of its branches from one
  :meth:`~repro.workloads.generator.WrongPathGenerator.next_branch_block`
  call (the gap and content streams are independent, so batching each
  preserves its per-stream draw order bit for bit).

Blocking changes *when* values are computed, never *which*: every stream
is consumed in the same per-branch order as the scalar path, phased
benchmarks split blocks at phase boundaries (a boundary block falls back
to slot-by-slot stepping so phase-aware observers read the right phase at
every run boundary), and the observer-run event boundaries — branch
fetch/resolve/squash, re-log passes, phase boundaries — are exactly the
scalar flush points.

**One hot loop, two flavours.**  The block step and the wrong-path
episode are generated from one set of source fragments (see
:func:`_loop_sources`) and compiled once per predictor-stack shape:

* the *fused* flavour — built whenever :func:`_fused_plan` models the
  stack exactly (the built-in PaCo / static-MRT / per-branch-MRT /
  threshold-and-count / MDC-profiler members over a JRS table) — keeps
  the speculative global history in a plain-int loop local and computes
  the gshare / bimodal / chooser / JRS / per-branch-MRT indices with one
  shift/xor per branch, and inlines conditional predict, table training,
  BTB updates, ``BranchRecord`` construction, the path confidence
  fan-out and (for the fig8/fig9 sweep shape) observer delivery;
* the *scalar* flavour predicts and resolves through
  :meth:`~repro.pipeline.fetch.FetchEngine.predict_from_block` /
  :meth:`~repro.pipeline.fetch.FetchEngine.resolve_record` over the
  :class:`~repro.branch_predictor.engine.PredictorStateEngine`.  It runs
  every stack the fused plan does not model (custom path confidence
  predictors, oracle tokens, stacks without a JRS table) and is the
  reference the fused flavour is tested against, bit for bit
  (``tests/test_backends.py::TestVecTraceStreamParity``).

The gap between consecutive branches is drawn in closed form from the
same geometric distribution the per-instruction Bernoulli process
induces, and everything a gap contributes — fetch/retire counters,
instance observations, window residency — is pure integer arithmetic.
Timing is replaced by two calibrated windows:

* every fetched slot *completes* (resolves, trains, retires)
  ``resolve_window`` slots after fetch, standing in for the
  fetch-to-resolve depth of the pipeline;
* a good-path misprediction replays the wrong-path stream for
  ``mispredict_window`` slots before the branch resolves and fetch is
  redirected, standing in for the wrong-path fetch episode (calibrated
  against the cycle model's wrong-path-fetches-per-flush, roughly twice
  the minimum misprediction penalty).

The replay clock models an idealized IPC-1 machine (one cycle per slot,
plus redirect stalls), which keeps cycle-periodic machinery — PaCo's
re-logarithmizing pass — at a per-instruction cadence comparable to the
cycle model's.  Instance observations are batched in two stages.  First,
between two predictor state changes every instance carries identical
observable state, so the engine counts instances in run counters and
closes the run — one ``(kind, on_goodpath, cycle, count)`` event — at
each scalar flush point.  Second, closed events themselves buffer in a
flat stride-4 column list across every span where predictor state
provably does not change: a *conditional* branch prediction or
resolution (``path_token`` set), a re-log pass that reports a change,
and a phase roll force the buffer out through
:meth:`~repro.pipeline.core.InstanceObserver.record_runs`, while
non-conditional resolutions and quiet ticks merely close events into it.
An observer therefore reads predictor state once per delivered batch,
and reads exactly the values the per-event calls would have read —
delivery happens strictly before the next state change.

The same two calibrated windows double as a *timing estimator*: the
replay clock (slots fetched, plus redirect stalls, plus gated stalls) is
an estimated cycle count, so ``stats.ipc`` is meaningful — not
cycle-accurate, but preserving the orderings the application studies
consume (``supports_timing``).  Fetch gating is modelled on top of it by
:class:`GatedTraceSession` (``supports_gating``): a gated cycle stalls
fetch while the oldest in-flight slot completes, so good-path gated
cycles show up as pure IPC loss while wrong-path gated cycles trade
fetched wrong-path slots for (nearly free) stall cycles — exactly the
energy/performance trade-off of fig10.  SMT arbitration over two
interleaved trace sessions lives in :mod:`repro.backends.smt_trace`.

Parity with the cycle backend for fig2 MDC rates, fig3 counters, fig8/9
reliability, table7 RMS and tableA1 MRT variants — and for the fig10
gating-throttle and fig12 SMT-priority orderings — is enforced (with
stated tolerances) by ``tests/test_backends.py``.  What this backend
still does **not** model: cycle-accurate IPC and wrong-path cache/BTB
pollution timing; the cycle backend remains ground truth for absolute
timing numbers.
"""

from __future__ import annotations

import linecache
import math
import os
from collections import deque
from typing import Deque, Optional

from repro.backends.base import (
    Instrumentation,
    SimulationBackend,
    SimulationSession,
    Workload,
)
from repro.backends.cycle import build_fetch_engine
from repro.branch_predictor.btb import _BTBSet
from repro.branch_predictor.engine import BranchRecord
from repro.common.rng import RngPool
from repro.eval.observers import MultiPredictorObserver
from repro.eval.profiling import MDCProfiler
from repro.isa.types import BranchKind
from repro.pathconf.base import PathConfidencePredictor
from repro.pathconf.composite import CompositePathConfidence
from repro.pathconf.paco import PaCoPredictor
from repro.pathconf.per_branch_mrt import PerBranchMRTPredictor
from repro.pathconf.static_mrt import StaticMRTPredictor
from repro.pathconf.threshold_count import ThresholdAndCountPredictor
from repro.pipeline.config import MachineConfig
from repro.pipeline.core import (
    CoreStats,
    InstanceObserver,
    RunEventBatch,
    SimulationTruncated,
)
from repro.pipeline.fetch import FetchEngine
from repro.pipeline.gating import GatingPolicy, NoGating
from repro.workloads.generator import BranchBlock

#: Branches generated (and gaps drawn) per batch.  Block size is pure
#: mechanism — results are bit-identical for every value >= 1 (pinned by
#: ``tests/test_backends.py``) — so it rides in neither Job identities
#: nor result-cache keys.
DEFAULT_TRACE_BLOCK = 256

#: Environment knob overriding the default block size (the CLI's
#: ``--block-size`` flag sets it so worker processes inherit the value).
TRACE_BLOCK_ENV = "REPRO_TRACE_BLOCK"


def resolve_trace_block_size(value: object,
                             source: str = "block size") -> int:
    """Validate a trace block size from a CLI flag or environment knob.

    Accepts an ``int`` or an integer-shaped string and requires it to be
    at least 1; ``source`` names the knob in the error message (the same
    contract as :func:`repro.runner.sweep.resolve_worker_count`).
    """
    try:
        size = int(str(value).strip())
    except (TypeError, ValueError):
        raise ValueError(
            f"invalid {source} value {value!r}: expected an integer >= 1"
        ) from None
    if size < 1:
        raise ValueError(
            f"invalid {source} value {value!r}: block sizes must be >= 1"
        )
    return size


def _has_cycle_work(path_confidence) -> bool:
    """Whether ``on_cycle`` can ever do (or report) state-changing work.

    :meth:`~repro.pathconf.base.PathConfidencePredictor.on_cycle` is a
    no-op unless overridden, and the composite delegates only to members
    that override it — so a predictor stack with no cycle-periodic
    machinery can skip the per-branch tick (and the event deliveries
    bracketing it) entirely.  Anything that overrides ``on_cycle`` is
    conservatively treated as cycle work, so custom predictors keep the
    exact per-branch call sequence.
    """
    if isinstance(path_confidence, CompositePathConfidence):
        return bool(path_confidence._cycle_predictors)
    cls_on_cycle = getattr(type(path_confidence), "on_cycle", None)
    return cls_on_cycle is not PathConfidencePredictor.on_cycle


def _indent(source: str, levels: int) -> str:
    pad = "    " * levels
    return "".join(pad + line if line.strip() else line
                   for line in source.splitlines(True))


def _compile_method(name: str, source: str, tag: str = ""):
    """Compile one generated method; register the source for tracebacks.

    ``tag`` distinguishes the per-shape variants of one method in the
    synthetic file name (``<repro.backends.trace:_step:1100011>``).
    """
    filename = (f"<repro.backends.trace:{name}:{tag}>" if tag
                else f"<repro.backends.trace:{name}>")
    namespace: dict = {}
    exec(compile(source, filename, "exec"), globals(), namespace)
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    return namespace[name]


# --------------------------------------------------------------------- #
# Loop codegen.
#
# The hot loops are assembled from the module-level source fragments
# below and compiled once per predictor-stack shape (which built-in path
# confidence members are attached, whether any cycle-periodic work
# exists, and whether the stack fuses at all).  Every fragment is written
# at zero indentation and placed with ``_indent``.
#
# Fragment vocabulary: ``record``/``entry`` (the BranchRecord being
# fetched / resolved), ``mdc`` (its JRS value), ``i``/``g`` (block
# position on the good path / in the episode), ``h`` (the speculative
# global history, a plain int the fused flavour keeps in a local and
# writes back to the live register only where scalar code reads it),
# ``cols_*`` (the columns of the block being consumed), plus the deferred
# counters declared by the setup fragments.  Deferred counters are purely
# additive statistics nothing reads mid-run; every value an observer can
# read at a delivery point (path confidence registers, the low-confidence
# count, the MRT counters and encoded probabilities) is kept live.
# --------------------------------------------------------------------- #

# The general drain: completing the oldest in-flight slots.  The scalar
# flavour's step and episode, and the self-state ``_complete_oldest``
# wrapper the boundary/gated paths call, all compile this one body
# (``tests/test_trace_drain.py`` pins it against a reference).
#
# Local vocabulary: ``window`` (deque of BranchRecord-or-signed-int runs),
# ``excess`` (slots still to complete), ``inflight``, ``engine``,
# ``cycle``, the pending-run counters ``run_fetch``/``run_execute``/
# ``run_goodpath``, the event buffer ``events`` + ``observers``/
# ``has_observers``, ``kind_conditional``, and the stat deltas.
_DRAIN_BODY = '''\
entry = window[0]
if type(entry) is int:
    if entry > 0:
        take = entry if entry <= excess else excess
        good_executed += take
        retired += take
    else:
        take = -entry if -entry <= excess else excess
        bad_executed += take
    run_execute += take
    if take < (entry if entry > 0 else -entry):
        window[0] = entry - take if entry > 0 else entry + take
    else:
        window.popleft()
    excess -= take
    inflight -= take
else:
    window.popleft()
    inflight -= 1
    excess -= 1
    # A branch resolution closes the pending instance run.  Only a
    # *conditional* resolution (path_token set) can change confidence
    # state, so only those force the buffered events out; the rest
    # close into the buffer and ride along.
    if has_observers:
        if run_fetch:
            events.extend(("fetch", run_goodpath, cycle, run_fetch))
        if run_execute:
            events.extend(("execute", run_goodpath, cycle, run_execute))
        if events and entry.path_token is not None:
            for observer in observers:
                observer.record_runs(events)
            del events[:]
    run_fetch = 0
    run_execute = 0
    engine.resolve_record(entry)
    run_goodpath = not engine.on_wrong_path
    if entry.on_goodpath:
        good_executed += 1
        retired += 1
        branches_retired += 1
        if entry.mispredicted:
            branch_misp_retired += 1
        if entry.kind is kind_conditional:
            cond_retired += 1
            if entry.mispredicted:
                cond_misp_retired += 1
    else:
        bad_executed += 1
    run_execute += 1
'''

_PROLOGUE = '''\
engine = self.fetch_engine
stats = self.stats
window = self._window
observers = self.observers
has_observers = bool(observers)
events = self._events
kind_conditional = BranchKind.CONDITIONAL
good_executed = 0
bad_executed = 0
retired = 0
branches_retired = 0
branch_misp_retired = 0
cond_retired = 0
cond_misp_retired = 0
'''

#: Hoisted predictor state and deferred counters of the fused flavour.
_FUSED_PROLOGUE = '''\
frontend = engine.frontend
confidence = engine.confidence
state = engine.state_engine
history = state._history
hist_mask = history.mask
btb = state._btb
btb_sets = btb._sets
btb_set_mask = btb._set_mask
btb_ways = btb.ways
btb_set_cls = _BTBSet
gshare_table = state._gshare_table
gshare_threshold = state._gshare_threshold
gshare_max = state._gshare_max
gshare_hmask = state._gshare_hist_mask
gshare_mask_v = state._gshare_mask
bimodal_table = state._bimodal_table
bimodal_threshold = state._bimodal_threshold
bimodal_max = state._bimodal_max
bimodal_mask_v = state._bimodal_mask
chooser = state._chooser
chooser_hmask = state._chooser_hist_mask
chooser_mask_v = state._chooser_mask
jrs_table = state._jrs_table
jrs_hmask = state._jrs_hist_mask
jrs_mask_v = state._jrs_mask
jrs_max = state._jrs_max
jrs_shift = state._jrs_enhanced_shift
jrs_enh_bit = (1 << jrs_shift) if jrs_shift >= 0 else 0
record_cls = BranchRecord
record_new = BranchRecord.__new__
thread_id = engine.generator.thread_id
eng_branches = 0
eng_cond = 0
fe_total = 0
fe_cond = 0
fe_misp = 0
fe_cond_misp = 0
jrs_lookups = 0
jrs_updates = 0
btb_lookups = 0
btb_hits = 0
btb_evictions = 0
'''

#: Session state the loops keep in locals, written back at every exit
#: (and around every episode call).
_STATE_OUT = '''\
self._next_seq = next_seq
self._cycle = cycle
self._inflight = inflight
self._run_fetch = run_fetch
self._run_execute = run_execute
self._run_goodpath = run_goodpath
'''

_STATE_IN = '''\
next_seq = self._next_seq
cycle = self._cycle
inflight = self._inflight
run_fetch = self._run_fetch
run_execute = self._run_execute
run_goodpath = self._run_goodpath
'''

#: Completion statistics, folded into the CoreStats record at sync
#: points only.
_STATS_SYNC = '''\
stats.goodpath_executed += good_executed
stats.badpath_executed += bad_executed
stats.retired_instructions += retired
stats.branches_retired += branches_retired
stats.branch_mispredicts_retired += branch_misp_retired
stats.conditional_branches_retired += cond_retired
stats.conditional_mispredicts_retired += cond_misp_retired
'''

# ----- per-member setup / fetch / resolve / squash / sync fragments --- #

_PACO_SETUP = '''\
paco = self._paco
mrt = paco.mrt
mrt_counters = mrt.counters
mrt_encoded = mrt.encoded_probabilities
paco_fetched = 0
paco_resolved = 0
paco_squashed = 0
paco_outstanding = 0
mrt_samples = 0
'''

_PACO_SETUP_CYCLE = '''\
mrt_period = mrt.relog_period_cycles
mrt_last = mrt._last_relog_cycle
'''

_STATIC_SETUP = '''\
smrt = self._static
smrt_encoded = smrt.encoded_probabilities
smrt_outstanding = 0
'''

_PBM_SETUP = '''\
pbm = self._pbm
pbm_correct = pbm._correct
pbm_total = pbm._total
pbm_memo = self._pbm_memo
pbm_encode = pbm._encoded_for
pbm_hmask = pbm._history_mask
pbm_mask_v = pbm._mask
pbm_outstanding = 0
'''

_TC_SETUP = '''\
tc = self._tc
tc_threshold = tc.threshold
tc_fetched = 0
tc_low = 0
tc_outstanding = 0
'''

_PROF_SETUP = '''\
prof = self._profiler
prof_correct = prof.correct
prof_mispredicted = prof.mispredicted
prof_num_max = prof.num_mdc_values - 1
'''

_PACO_FETCH = '''\
paco_fetched += 1
enc = mrt_encoded[mdc]
record.encoded_added = enc
paco.path_confidence_register += enc
paco_outstanding += 1
'''

_STATIC_FETCH = '''\
enc = smrt_encoded[mdc]
record.static_encoded = enc
smrt.path_confidence_register += enc
smrt_outstanding += 1
'''

# The per-branch MRT's encoded probability is a float log of the entry's
# (correct, total) counters; memoizing on that pair keeps the fused loop
# off the float/log path for the (dominant) repeated-counter lookups.
_PBM_FETCH = '''\
pidx = (pc_bits ^ (h & pbm_hmask)) & pbm_mask_v
pkey = (pbm_correct[pidx], pbm_total[pidx])
enc = pbm_memo.get(pkey)
if enc is None:
    enc = pbm_encode(pidx)
    pbm_memo[pkey] = enc
record.table_index = pidx
record.pbm_encoded = enc
pbm.path_confidence_register += enc
pbm_outstanding += 1
'''

_TC_FETCH = '''\
tc_fetched += 1
tc_outstanding += 1
counted = mdc < tc_threshold
record.counted = counted
if counted:
    tc_low += 1
    tc._low_confidence_outstanding += 1
'''

_PROF_FETCH = '''\
record.profile_bucket = mdc if mdc < prof_num_max else prof_num_max
'''

# Resolve fragments run only for *good-path* records, which are never
# mispredicted in the fused drains (a mispredicted good-path branch
# triggers an episode instead of entering the window), so the MRT record
# is always was_correct=True and the profiler always counts correct.
_PACO_RESOLVE = '''\
paco_resolved += 1
counter = mrt_counters[entry.mdc_value]
cc = counter.correct
if cc >= counter._correct_max:
    counter.correct = (cc >> 1) + 1
    counter.mispredicted >>= 1
else:
    counter.correct = cc + 1
mrt_samples += 1
enc = entry.encoded_added
if enc is not None:
    entry.encoded_added = None
    reg = paco.path_confidence_register - enc
    paco.path_confidence_register = reg if reg > 0 else 0
    paco_outstanding -= 1
'''

_STATIC_REMOVE = '''\
enc = entry.static_encoded
if enc is not None:
    entry.static_encoded = None
    reg = smrt.path_confidence_register - enc
    smrt.path_confidence_register = reg if reg > 0 else 0
    smrt_outstanding -= 1
'''

_PBM_REMOVE = '''\
enc = entry.pbm_encoded
if enc is not None:
    entry.pbm_encoded = None
    reg = pbm.path_confidence_register - enc
    pbm.path_confidence_register = reg if reg > 0 else 0
    pbm_outstanding -= 1
'''

_PBM_RESOLVE = '''\
pidx = entry.table_index
pbm_total[pidx] += 1
pbm_correct[pidx] += 1
''' + _PBM_REMOVE

_TC_REMOVE = '''\
counted = entry.counted
if counted is not None:
    entry.counted = None
    tc_outstanding -= 1
    if counted:
        tc._low_confidence_outstanding -= 1
'''

_PROF_RESOLVE = '''\
bucket = entry.profile_bucket
if bucket is not None:
    entry.profile_bucket = None
    prof_correct[bucket] += 1
'''

_PACO_SQUASH = '''\
paco_squashed += 1
enc = entry.encoded_added
if enc is not None:
    entry.encoded_added = None
    reg = paco.path_confidence_register - enc
    paco.path_confidence_register = reg if reg > 0 else 0
    paco_outstanding -= 1
'''

_PROF_SQUASH = '''\
entry.profile_bucket = None
'''

_SYNC_BASE = '''\
engine.branches_fetched += eng_branches
engine.conditional_branches_fetched += eng_cond
frontend.total_predictions += fe_total
frontend.conditional_predictions += fe_cond
frontend.total_mispredictions += fe_misp
frontend.conditional_mispredictions += fe_cond_misp
confidence.lookups += jrs_lookups
confidence.updates += jrs_updates
btb.lookups += btb_lookups
btb.hits += btb_hits
btb.evictions += btb_evictions
eng_branches = 0
eng_cond = 0
fe_total = 0
fe_cond = 0
fe_misp = 0
fe_cond_misp = 0
jrs_lookups = 0
jrs_updates = 0
btb_lookups = 0
btb_hits = 0
btb_evictions = 0
'''

_PACO_SYNC = '''\
paco.fetched_branches += paco_fetched
paco.resolved_branches += paco_resolved
paco.squashed_branches += paco_squashed
paco._outstanding += paco_outstanding
mrt.samples_recorded += mrt_samples
paco_fetched = 0
paco_resolved = 0
paco_squashed = 0
paco_outstanding = 0
mrt_samples = 0
'''

_STATIC_SYNC = '''\
smrt._outstanding += smrt_outstanding
smrt_outstanding = 0
'''

_PBM_SYNC = '''\
pbm._outstanding += pbm_outstanding
pbm_outstanding = 0
'''

_TC_SYNC = '''\
tc.fetched_branches += tc_fetched
tc.low_confidence_branches += tc_low
tc._outstanding += tc_outstanding
tc_fetched = 0
tc_low = 0
tc_outstanding = 0
'''


# ----- fused drain / training blocks ----------------------------------- #

#: Conditional-branch training on a good-path record (never mispredicted
#: in the fused drains): the inlined body of
#: ``PredictorStateEngine.resolve_record`` minus the repair/reset paths
#: that a misprediction would take.  Uses ``entry`` and ``actual``.
_TRAIN_COND = '''\
gshare_correct = entry.gshare_taken == actual
if gshare_correct != (entry.bimodal_taken == actual):
    index = entry.chooser_index
    value = chooser[index]
    if gshare_correct:
        if value < 3:
            chooser[index] = value + 1
    elif value > 0:
        chooser[index] = value - 1
index = entry.gshare_index
value = gshare_table[index]
if actual:
    if value < gshare_max:
        gshare_table[index] = value + 1
elif value > 0:
    gshare_table[index] = value - 1
index = entry.bimodal_index
value = bimodal_table[index]
if actual:
    if value < bimodal_max:
        bimodal_table[index] = value + 1
elif value > 0:
    bimodal_table[index] = value - 1
if actual:
    # btb.update inlined (one call per retired taken conditional).
    tag = entry.pc >> 2
    bset = btb_sets[tag & btb_set_mask]
    if bset is None:
        bset = btb_set_cls(btb_ways)
        btb_sets[tag & btb_set_mask] = bset
    bentries = bset.entries
    for position, way in enumerate(bentries):
        if way[0] == tag:
            way[1] = entry.out_target
            if position:
                bentries.insert(0, bentries.pop(position))
            break
    else:
        if len(bentries) >= btb_ways:
            bentries.pop()
            btb_evictions += 1
        bentries.insert(0, [tag, entry.out_target])
jrs_updates += 1
index = entry.mdc_index
value = jrs_table[index]
if value < jrs_max:
    jrs_table[index] = value + 1
'''


def _good_drain(resolve_members: str, has_paco: bool) -> str:
    """The fused good-path drain body (zero indent).

    Simplified relative to :data:`_DRAIN_BODY` by two window invariants
    that hold throughout the good-path step: the window contains only
    positive gap runs (wrong-path tails are fully popped by
    ``_finish_wrongpath``) and only never-mispredicted good-path records
    (a mispredicted good-path branch takes the episode path instead of
    entering the window), so the negative-gap arm, the mispredict-retire
    counters and the ``run_goodpath`` recomputation all drop out.
    """
    return '''\
entry = window[0]
if type(entry) is int:
    take = entry if entry <= excess else excess
    good_executed += take
    retired += take
    run_execute += take
    if take < entry:
        window[0] = entry - take
    else:
        window.popleft()
    excess -= take
    inflight -= take
else:
    window.popleft()
    inflight -= 1
    excess -= 1
    if has_observers:
''' + _indent(_runs_delivery("entry.path_token is not None", has_paco), 2) \
        + '''\
    run_fetch = 0
    run_execute = 0
    if entry.is_conditional:
        entry.resolved = True
        actual = entry.out_taken
''' + _indent(_TRAIN_COND, 2) + _indent(resolve_members, 2) + '''\
        cond_retired += 1
    else:
        engine.resolve_record(entry)
    good_executed += 1
    retired += 1
    branches_retired += 1
    run_execute += 1
'''


def _episode_drain(resolve_members: str, squash_members: str,
                   has_paco: bool) -> str:
    """The fused wrong-path-episode drain body (zero indent).

    The general form: gap runs can be positive (pre-trigger good-path
    slots) or negative, and record entries can be good-path (resolve and
    train) or wrong-path (squash; a wrong-path mispredict repairs the
    history local ``h``, exactly the live-register repair the scalar
    engine performs).  ``run_goodpath`` stays False for the whole
    episode, and good-path records are never mispredicted (window
    invariant), so those recomputations drop out here too.
    """
    return '''\
entry = window[0]
if type(entry) is int:
    if entry > 0:
        take = entry if entry <= excess else excess
        good_executed += take
        retired += take
    else:
        take = -entry if -entry <= excess else excess
        bad_executed += take
    run_execute += take
    if take < (entry if entry > 0 else -entry):
        window[0] = entry - take if entry > 0 else entry + take
    else:
        window.popleft()
    excess -= take
    inflight -= take
else:
    window.popleft()
    inflight -= 1
    excess -= 1
    if has_observers:
''' + _indent(_runs_delivery("entry.path_token is not None", has_paco), 2) \
        + '''\
    run_fetch = 0
    run_execute = 0
    if entry.is_conditional:
        entry.resolved = True
        actual = entry.out_taken
        if entry.on_goodpath:
''' + _indent(_TRAIN_COND, 3) + _indent(resolve_members, 3) + '''\
        else:
            if entry.mispredicted:
                h = (((entry.history & hist_mask) << 1)
                     | (1 if actual else 0)) & hist_mask
''' + _indent(squash_members, 3) + '''\
    else:
        engine.resolve_record(entry)
    if entry.on_goodpath:
        good_executed += 1
        retired += 1
        branches_retired += 1
        if entry.is_conditional:
            cond_retired += 1
    else:
        bad_executed += 1
    run_execute += 1
'''


# ----- the per-branch cycle tick --------------------------------------- #

#: Buffered events are observed with pre-tick state; a tick that reports
#: a change closes the open run (the scalar flush points exactly).
_TICK_PRE = '''\
if has_observers and events:
    for observer in observers:
        observer.record_runs(events)
    del events[:]
'''

_TICK_CLOSE = '''\
if has_observers:
    if run_fetch:
        events.extend(("fetch", run_goodpath, cycle, run_fetch))
    if run_execute:
        events.extend(("execute", run_goodpath, cycle, run_execute))
    if events:
        for observer in observers:
            observer.record_runs(events)
        del events[:]
run_fetch = 0
run_execute = 0
'''

_TICK_SCALAR = (_TICK_PRE + "if path_confidence.on_cycle(cycle):\n"
                + _indent(_TICK_CLOSE, 1))

#: The fused tick, specialized to the one cycle-periodic machine the
#: fused plan admits (PaCo's re-log pass): the ``on_cycle`` *call* — a
#: composite fan-out plus ``maybe_relog``'s own period check, every
#: branch — is guarded by the same period comparison on hoisted locals.
#: When the pass runs it returns True by construction, so the open run
#: closes unconditionally.
_TICK_FUSED = (_TICK_PRE + '''\
if cycle - mrt_last >= mrt_period:
    path_confidence.on_cycle(cycle)
''' + _indent(_TICK_CLOSE, 1) + '''\
    mrt_last = mrt._last_relog_cycle
''')


# ----- inline observer delivery ---------------------------------------- #

#: Hoists for the inlined single-(PaCo, diagram) observer delivery.
#: ``self._fp_diag`` is resolved per block by ``_step_block``: the
#: reliability diagram when the attached observers are exactly one
#: :class:`MultiPredictorObserver` over the session's own PaCo instance
#: (the fig8/fig9 sweep shape), ``None`` otherwise.
_FP_HOISTS = '''\
fp_diag = self._fp_diag
fp_probs = self._fp_probs
if fp_diag is not None:
    fp_bins = fp_diag.bins
    fp_nb = fp_diag.num_bins
'''

#: The inlined delivery body, spliced over every
#: ``for observer in observers: observer.record_runs(events)`` site by
#: :func:`_inline_deliveries`.  The fast arm replays the exact arithmetic
#: of ``MultiPredictorObserver.record_runs`` over one ``(PaCo, diagram)``
#: pair — ``ReliabilityDiagram.record`` for single-run batches,
#: the shared fold plus ``record_folded`` for longer ones — term by term
#: and in the same order, so the diagram floats stay bit-identical to
#: the generic path the scalar flavour takes.  The probability memo is
#: keyed on the raw register (PaCo's probability is a pure function of
#: it, via the memoized decode), replacing two attribute calls per
#: delivery with one dict probe.
_FAST_DELIVER = '''\
if fp_diag is None:
    for observer in observers:
        observer.record_runs(events)
else:
    fp_reg = paco.path_confidence_register
    fp_prob = fp_probs.get(fp_reg)
    if fp_prob is None:
        if len(fp_probs) > (1 << 20):  # unbounded-growth guard
            fp_probs.clear()
        fp_prob = paco.goodpath_probability()
        fp_probs[fp_reg] = fp_prob
    fp_bi = int(fp_prob * fp_nb)
    if fp_bi >= fp_nb:
        fp_bi = fp_nb - 1
    fp_bucket = fp_bins[fp_bi]
    if len(events) == 4:
        fp_w = events[3]
        fp_bucket.predicted_sum += fp_prob * fp_w
        fp_bucket.instances += fp_w
        fp_diag.total_instances += fp_w
        if events[1]:
            fp_bucket.goodpath_instances += fp_w
            fp_diag.total_goodpath += fp_w
    else:
        fp_inst = 0
        fp_good = 0
        fp_ps = fp_bucket.predicted_sum
        for fp_i in range(3, len(events), 4):
            fp_w = events[fp_i]
            fp_inst += fp_w
            fp_ps += fp_prob * fp_w
            if events[fp_i - 2]:
                fp_good += fp_w
        fp_bucket.predicted_sum = fp_ps
        fp_bucket.instances += fp_inst
        fp_bucket.goodpath_instances += fp_good
        fp_diag.total_goodpath += fp_good
        fp_diag.total_instances += fp_inst
'''


#: The pure-local fast arm of :func:`_runs_delivery`: fold the 1-2 open
#: runs straight into the diagram without materializing event tuples.
#: Term order matches the tuple path exactly — the fetch run's
#: ``predicted_sum`` contribution before the execute run's, the integer
#: totals added once per delivery — so the floats stay bit-identical.
_LOCAL_DELIVER = '''\
fp_reg = paco.path_confidence_register
fp_prob = fp_probs.get(fp_reg)
if fp_prob is None:
    if len(fp_probs) > (1 << 20):  # unbounded-growth guard
        fp_probs.clear()
    fp_prob = paco.goodpath_probability()
    fp_probs[fp_reg] = fp_prob
fp_bi = int(fp_prob * fp_nb)
if fp_bi >= fp_nb:
    fp_bi = fp_nb - 1
fp_bucket = fp_bins[fp_bi]
fp_w = run_fetch + run_execute
if run_fetch:
    fp_bucket.predicted_sum += fp_prob * run_fetch
if run_execute:
    fp_bucket.predicted_sum += fp_prob * run_execute
fp_bucket.instances += fp_w
fp_diag.total_instances += fp_w
if run_goodpath:
    fp_bucket.goodpath_instances += fp_w
    fp_diag.total_goodpath += fp_w
'''


def _runs_delivery(cond: str, has_paco: bool) -> str:
    """One site's close-the-open-runs + deliver block (zero indent).

    ``cond`` is the site's delivery condition ("" = deliver whenever
    events are pending).  The generic shape buffers the open runs as
    event tuples and delivers the batch; in paco builds, when delivery
    is due and nothing is already buffered, the open runs fold straight
    into the diagram without touching the events list at all (the
    post-pass :func:`_inline_deliveries` still rewrites the generic
    arm's delivery for the buffered case).
    """
    extend = '''\
if run_fetch:
    events.extend(("fetch", run_goodpath, cycle, run_fetch))
if run_execute:
    events.extend(("execute", run_goodpath, cycle, run_execute))
'''
    deliver_head = f"if events and {cond}:" if cond else "if events:"
    generic = (extend + deliver_head + '''
    for observer in observers:
        observer.record_runs(events)
    del events[:]
''')
    if not has_paco:
        return generic
    fast_head = ("if fp_diag is not None and not events"
                 + (f" and {cond}" if cond else "") + ":\n")
    return (fast_head
            + _indent("if run_fetch or run_execute:\n", 1)
            + _indent(_LOCAL_DELIVER, 2)
            + "else:\n"
            + _indent(generic, 1))


def _inline_deliveries(source: str) -> str:
    """Splice :data:`_FAST_DELIVER` over every generic delivery site.

    Every observer delivery in the generated sources is the literal
    three-line ``for observer in observers: observer.record_runs(events)``
    / ``del events[:]`` sequence; this rewrites each occurrence (at its
    own indentation) into the fast-path branch, keeping the trailing
    ``del`` shared by both arms.
    """
    lines = source.split("\n")
    out: list = []
    i = 0
    replaced = 0
    while i < len(lines):
        line = lines[i]
        stripped = line.lstrip()
        if (stripped == "for observer in observers:"
                and i + 2 < len(lines)
                and lines[i + 1].lstrip() == "observer.record_runs(events)"
                and lines[i + 2].lstrip() == "del events[:]"):
            indent = line[:len(line) - len(stripped)]
            for fast_line in _FAST_DELIVER.rstrip("\n").split("\n"):
                out.append(indent + fast_line if fast_line else fast_line)
            out.append(lines[i + 2])
            replaced += 1
            i += 3
            continue
        out.append(line)
        i += 1
    if not replaced:  # a fragment edit broke the pattern — fail loudly
        raise AssertionError("no observer delivery sites found to inline")
    return "\n".join(out)


# ----- predict fragments ----------------------------------------------- #

#: Fused conditional predict at position ``%(pos)s`` of the ``cols_*``
#: block (the inlined body of ``predict_columns`` + ``predict_from_block``
#: for a conditional branch): indices from the history local ``h``, which
#: takes the speculative push at the end.  ``%(fetch_members)s`` receives
#: the path confidence fan-out.
_PREDICT_COND = '''\
pc = cols_pc[%(pos)s]
pc_bits = pc >> 2
gidx = (pc_bits ^ (h & gshare_hmask)) & gshare_mask_v
gshare_taken = gshare_table[gidx] >= gshare_threshold
bidx = pc_bits & bimodal_mask_v
bimodal_taken = bimodal_table[bidx] >= bimodal_threshold
cidx = (pc_bits ^ (h & chooser_hmask)) & chooser_mask_v
chose_gshare = chooser[cidx] >= 2
taken = gshare_taken if chose_gshare else bimodal_taken
btb_lookups += 1
bset = btb_sets[pc_bits & btb_set_mask]
btb_target = None
if bset is not None:
    bentries = bset.entries
    for position, way in enumerate(bentries):
        if way[0] == pc_bits:
            if position:
                bentries.insert(0, bentries.pop(position))
            btb_hits += 1
            btb_target = way[1]
            break
%(record_init)srecord.target = btb_target if taken else None
record.btb_hit = btb_target is not None
record.gshare_taken = gshare_taken
record.gshare_index = gidx
record.bimodal_taken = bimodal_taken
record.bimodal_index = bidx
record.chooser_index = cidx
record.chose_gshare = chose_gshare
ji = (pc_bits ^ (h & jrs_hmask)) & jrs_mask_v
if taken and jrs_enh_bit:
    ji = (ji ^ jrs_enh_bit) & jrs_mask_v
jrs_lookups += 1
record.mdc_index = ji
mdc = jrs_table[ji]
record.mdc_value = mdc
eng_branches += 1
eng_cond += 1
fe_total += 1
fe_cond += 1
actual = cols_taken[%(pos)s]
mispredicted = taken != actual
record.mispredicted = mispredicted
if mispredicted:
    fe_misp += 1
    fe_cond_misp += 1
record.path_token = record
%(fetch_members)srecord.kind = kind_conditional
record.out_taken = actual
record.out_target = cols_target[%(pos)s]
record.on_goodpath = %(goodpath)s
record.seq = seq
h = ((h << 1) | (1 if taken else 0)) & hist_mask
'''


def _record_init(pos: str, has_paco: bool, has_static: bool, has_pbm: bool,
                 has_tc: bool, has_prof: bool) -> str:
    """Inline ``BranchRecord`` construction: ``__new__`` plus exactly the
    slot writes the surrounding predict fragment does not perform itself.

    ``BranchRecord.__init__`` stores 24 defaults only for the predict
    fragment to overwrite half of them; allocating with ``__new__`` and
    writing each live slot once drops a call plus the redundant stores
    from every fetched conditional.  Slots owned by attached path
    confidence predictors are written by their fetch members, so the
    defaults emitted here cover only the detached ones — every slot
    ``__init__`` would have initialized is still written exactly once (a
    missed slot would raise ``AttributeError`` loudly downstream).
    """
    lines = [
        "record = record_new(record_cls)",
        "record.pc = pc",
        "record.predicted_taken = taken",
        "record.taken = taken",
        "record.history = h",
        f"record.static_branch_id = cols_sid[{pos}]",
        "record.thread_id = thread_id",
        "record.resolved = False",
        "record.is_conditional = True",
    ]
    if not has_paco:
        lines.append("record.encoded_added = None")
    if not has_static:
        lines.append("record.static_encoded = None")
    if not has_pbm:
        lines.append("record.table_index = 0")
        lines.append("record.pbm_encoded = None")
    if not has_tc:
        lines.append("record.counted = None")
    if not has_prof:
        lines.append("record.profile_bucket = None")
    return "\n".join(lines) + "\n"


#: Good-path predict through the scalar engine: every branch in the
#: scalar flavour, non-conditional ones (RAS / indirect-target state) in
#: the fused flavour.  ``%(episode)s`` receives the episode hand-off.
_PREDICT_SCALAR = '''\
record = engine.predict_from_block(block, i, seq)
i += 1
good_fetched += 1
cycle += 1
run_fetch += 1
if engine.on_wrong_path:
%(episode)srun_goodpath = True
window.append(record)
inflight += 1
'''

#: Fused good-path conditional: the predict fragment, then either the
#: window append or — on a misprediction — the wrong-path switch
#: (``predict_from_block``, inlined) and the episode hand-off (whose
#: sync writes the speculative push into the live register the episode
#: reads).
_PREDICT_GOOD = '''\
%(predict)si += 1
good_fetched += 1
cycle += 1
run_fetch += 1
if mispredicted:
    engine.on_wrong_path = True
    engine._pending_mispredict_seq = seq
%(episode)srun_goodpath = True
window.append(record)
inflight += 1
'''

_STEP_SRC = '''\
def _step(self, max_instructions, max_cycles):
    """Advance the replay by up to one staged block of gap+branch steps.

    Per staged branch: account the inter-branch gap, drain the slots
    pushed past the window depth, close the pending observer run,
    predict the branch, and either append its record to the in-flight
    window or hand off to the wrong-path episode.  Run events buffer in
    ``self._events`` and are delivered just before the next predictor
    state change.  Stops early — leaving the block position for the
    next call — when the instruction budget or cycle limit is reached.
    """
%(setup)s
    while i < stop:
        if retired_base + retired >= max_instructions or cycle >= max_cycles:
            break
        gap = gaps[gap_pos]
        gap_pos += 1
        if gap:
            good_fetched += gap
            cycle += gap
            run_fetch += gap
            if window and type(window[-1]) is int and window[-1] > 0:
                window[-1] += gap
            else:
                window.append(gap)
            inflight += gap
        # One drain serves both drain points of a step: the first pass
        # completes the slots the gap pushed past the window depth, the
        # second the branch's own slot.  (On entry to an iteration
        # ``inflight <= resolve_window`` holds, so the first pass is a
        # no-op when the gap was empty.)
        took_episode = False
        predicted = False
        while True:
            if inflight > resolve_window:
                excess = inflight - resolve_window
                while excess > 0:
%(drain)s
            if predicted:
                break
            predicted = True
            # The branch itself: the pending run ends here.  Only a
            # *conditional* prediction is about to change confidence
            # state, so only those force the buffered events out.
            kind = block_kinds[i]
            if has_observers:
%(deliver)s
            run_fetch = 0
            run_execute = 0
            seq = next_seq
            next_seq += 1
%(predict)s
        if took_episode:
            continue
%(tick)s
    self._branch_pos = i
    self._gap_pos = gap_pos
%(sync)s
'''

_REPLAY_SRC = '''\
def _replay(self, trigger):
    """Replay the wrong-path stream for the calibrated resolution window.

    All gap lengths for the episode's ``mispredict_window`` budget come
    from one ``geometric_episode`` call and all wrong-path branches from
    one ``next_branch_block`` call into the reusable episode-sized
    block; cycle/inflight/run bookkeeping stays in loop locals synced at
    episode end.  The gap and branch-content streams are independent,
    so drawing each one episode-at-a-time preserves its per-stream draw
    order — and therefore every value — bit for bit.
    """
%(setup)s
    for g in range(n_gaps):
        gap = wp_gaps[g]
        if gap:
            bad_fetched += gap
            cycle += gap
            run_fetch += gap
            if window and type(window[-1]) is int and window[-1] < 0:
                window[-1] -= gap
            else:
                window.append(-gap)
            inflight += gap
        fetched_branch = False
        while True:
            if inflight > resolve_window:
                excess = inflight - resolve_window
                while excess > 0:
%(drain)s
            if fetched_branch or g >= n_branches:
                break
            fetched_branch = True
            # Wrong-path branches are all conditional: the prediction
            # changes confidence state, so close the pending run and
            # deliver everything buffered first.
            if has_observers:
%(deliver)s
            run_fetch = 0
            run_execute = 0
            seq = next_seq
            next_seq += 1
%(predict)s
            bad_fetched += 1
            cycle += 1
            run_fetch += 1
            window.append(record)
            inflight += 1
        if g >= n_branches:
            # The clamped final gap ended the episode: no branch, no
            # cycle tick — exactly where the scalar loop broke out.
            break
%(tick)s
%(sync)s
    # Estimate of the wrong-path slots that issued before the squash:
    # everything fetched more than a front-end depth ahead of
    # resolution has left the front end and consumed execution
    # resources.  The episode fetches exactly ``mispredict_window``
    # slots, so the estimate is a per-episode constant.
    self._finish_wrongpath(
        trigger, self.mispredict_window - self.config.frontend_depth)
'''


def _loop_sources(has_paco: bool, has_static: bool, has_pbm: bool,
                  has_tc: bool, has_prof: bool, cycle_work: bool,
                  fused: bool):
    """Assemble the ``_step`` and ``_replay`` sources for one stack shape.

    The scalar flavour (``fused=False``, no members) predicts and
    resolves through the fetch engine and drains with
    :data:`_DRAIN_BODY`; the fused flavour inlines everything the
    attached members do.  Both share the control skeleton, the event
    batching and the episode hand-off.
    """
    setup = fetch = resolve = squash = sync = ""
    if fused:
        setup = _FUSED_PROLOGUE
        sync = _SYNC_BASE
    if has_paco:
        setup += _PACO_SETUP + (_PACO_SETUP_CYCLE if cycle_work else "")
        fetch += _PACO_FETCH
        resolve += _PACO_RESOLVE
        squash += _PACO_SQUASH
        sync += _PACO_SYNC
    if has_static:
        setup += _STATIC_SETUP
        fetch += _STATIC_FETCH
        resolve += _STATIC_REMOVE
        squash += _STATIC_REMOVE
        sync += _STATIC_SYNC
    if has_pbm:
        setup += _PBM_SETUP
        fetch += _PBM_FETCH
        resolve += _PBM_RESOLVE
        squash += _PBM_REMOVE
        sync += _PBM_SYNC
    if has_tc:
        setup += _TC_SETUP
        fetch += _TC_FETCH
        resolve += _TC_REMOVE
        squash += _TC_REMOVE
        sync += _TC_SYNC
    if has_prof:
        setup += _PROF_SETUP
        fetch += _PROF_FETCH
        resolve += _PROF_RESOLVE
        squash += _PROF_SQUASH
    if has_paco:
        setup += _FP_HOISTS
    setup = (_PROLOGUE + "path_confidence = engine.path_confidence\n"
             "resolve_window = self.resolve_window\n" + setup)
    if fused:
        # The history lives in ``h`` for the loop's extent.
        sync = "history.value = h\n" + _STATS_SYNC + sync
    else:
        sync = _STATS_SYNC
    tick = ""
    if cycle_work:
        tick = _TICK_FUSED if fused else _TICK_SCALAR

    # Take the (rare) misprediction episode: materialize every deferred
    # delta, replay, reload.  A mispredicted conditional trigger repairs
    # the history register, a non-conditional one leaves the wrong-path
    # speculative bits in it; either way the loop resumes from the live
    # register.
    episode = ("run_goodpath = False\n" + _STATE_OUT + '''\
stats.goodpath_fetched += good_fetched
engine.goodpath_fetched += good_fetched
''' + sync + '''\
good_fetched = good_executed = bad_executed = retired = 0
branches_retired = branch_misp_retired = 0
cond_retired = cond_misp_retired = 0
self._replay_wrongpath(record)
''' + _STATE_IN + "retired_base = stats.retired_instructions\n")
    if fused:
        episode += "h = history.value\n"
        if has_paco and cycle_work:
            episode += "mrt_last = mrt._last_relog_cycle\n"
    episode += "took_episode = True\nbreak\n"

    scalar_predict = _PREDICT_SCALAR % {"episode": _indent(episode, 1)}
    step_cols = '''\
block = self._block
block_kinds = block.kind
'''
    replay_cols = '''\
wp_gaps = self._wp_gap_buf
n_gaps, n_branches = self._wp_gap_rng.geometric_episode(
    self._log_one_minus_p, wp_gaps, self.mispredict_window)
wp_block = self._wp_episode_block
if n_branches:
    engine.wrongpath_generator.next_branch_block(wp_block, n_branches)
'''
    if fused:
        members = (has_paco, has_static, has_pbm, has_tc, has_prof)
        cols = "cols_pc = %(b)s.pc\ncols_taken = %(b)s.taken\n" \
               "cols_target = %(b)s.target\n" \
               "cols_sid = %(b)s.static_branch_id\nh = history.value\n"
        step_cols += cols % {"b": "block"}
        replay_cols += cols % {"b": "wp_block"}
        step_drain = _good_drain(resolve, has_paco)
        replay_drain = _episode_drain(resolve, squash, has_paco)
        step_predict = (
            "if kind is kind_conditional:\n"
            + _indent(_PREDICT_GOOD % {
                "predict": _PREDICT_COND % {
                    "pos": "i", "goodpath": "True",
                    "fetch_members": fetch,
                    "record_init": _record_init("i", *members)},
                "episode": _indent(episode, 1)}, 1)
            + "else:\n"
            + _indent("history.value = h\n" + scalar_predict, 1))
        replay_predict = _PREDICT_COND % {
            "pos": "g", "goodpath": "False", "fetch_members": fetch,
            "record_init": _record_init("g", *members)}
    else:
        step_drain = replay_drain = _DRAIN_BODY
        step_predict = scalar_predict
        replay_predict = ("record = engine.predict_from_block("
                          "wp_block, g, seq, on_goodpath=False)\n")

    step = _STEP_SRC % {
        "setup": _indent(setup + step_cols + '''\
gaps = self._gap_buf
gap_pos = self._gap_pos
i = self._branch_pos
stop = self._branch_len
''' + _STATE_IN + '''\
retired_base = stats.retired_instructions
good_fetched = 0
''', 1),
        "drain": _indent(step_drain, 5),
        "deliver": _indent(_runs_delivery("kind is kind_conditional",
                                          has_paco), 4),
        "predict": _indent(step_predict, 3),
        "tick": _indent(tick, 2),
        "sync": _indent(_STATE_OUT + '''\
stats.goodpath_fetched += good_fetched
engine.goodpath_fetched += good_fetched
''' + sync, 1),
    }
    replay = _REPLAY_SRC % {
        "setup": _indent(setup + replay_cols + _STATE_IN
                         + "bad_fetched = 0\n", 1),
        "drain": _indent(replay_drain, 5),
        "deliver": _indent(_runs_delivery("", has_paco), 4),
        "predict": _indent(replay_predict, 3),
        "tick": _indent(tick, 2),
        "sync": _indent(_STATE_OUT + '''\
stats.badpath_fetched += bad_fetched
engine.badpath_fetched += bad_fetched
''' + sync, 1),
    }
    if has_paco:
        step = _inline_deliveries(step)
        replay = _inline_deliveries(replay)
    return step, replay


_LOOP_CACHE: dict = {}


def _loop_methods(shape: tuple):
    """Compile (or fetch cached) ``_step``/``_replay`` for one stack shape."""
    methods = _LOOP_CACHE.get(shape)
    if methods is None:
        tag = "".join("1" if flag else "0" for flag in shape)
        step, replay = _loop_sources(*shape)
        methods = (_compile_method("_step", step, tag),
                   _compile_method("_replay", replay, tag))
        _LOOP_CACHE[shape] = methods
    return methods


_COMPLETE_OLDEST_SRC = '''\
def _complete_oldest(self, excess):
    """Complete the ``excess`` oldest in-flight slots.

    The self-state wrapper around the general drain body (the same
    source the scalar loops compile inline): used by the scalar helpers
    — gap fetches past the window depth, the boundary step, the gated
    scalar paths — and, with ``excess == 1``, by the gated session's
    stall cycles.
    """
%(setup)s
    while excess > 0:
%(drain)s
    self._inflight = inflight
    self._run_fetch = run_fetch
    self._run_execute = run_execute
    self._run_goodpath = run_goodpath
%(sync)s''' % {
    "setup": _indent(_PROLOGUE + '''\
cycle = self._cycle
inflight = self._inflight
run_fetch = self._run_fetch
run_execute = self._run_execute
run_goodpath = self._run_goodpath
''', 1),
    "drain": _indent(_DRAIN_BODY, 2),
    "sync": _indent(_STATS_SYNC, 1),
}


# --------------------------------------------------------------------- #
# The fused plan: which stacks the fused flavour models exactly.
# --------------------------------------------------------------------- #

_MEMBER_KEYS = {
    PaCoPredictor: "paco",
    StaticMRTPredictor: "static",
    PerBranchMRTPredictor: "pbm",
    ThresholdAndCountPredictor: "tc",
    MDCProfiler: "profiler",
}


def _fused_plan(fetch_engine: FetchEngine):
    """Decide whether the fused flavour models this engine's stack exactly.

    Returns the ``{key: predictor}`` member map when it does, or None to
    run the scalar flavour (which is always correct).  The checks are
    exact-type and exhaustive on purpose: anything the generated
    fragments were not written against — custom path confidence
    predictors, subclassed members, oracle tokens, JRS-less engines,
    member-triggered index-range errors the scalar path would raise —
    takes the scalar flavour, keeping bit-identity trivially.
    """
    confidence = fetch_engine.confidence
    if confidence is None:
        return None
    if fetch_engine.state_engine.columns.jrs_table is None:
        return None
    path_confidence = fetch_engine.path_confidence
    members = {}
    if type(path_confidence) is CompositePathConfidence:
        if not path_confidence._shared_record_tokens:
            return None
        for predictor in path_confidence.predictors:
            key = _MEMBER_KEYS.get(type(predictor))
            if key is None or key in members:
                return None
            members[key] = predictor
        cycle_predictors = list(path_confidence._cycle_predictors)
    elif type(path_confidence) is PaCoPredictor:
        members["paco"] = path_confidence
        cycle_predictors = [path_confidence]
    elif type(path_confidence) is ThresholdAndCountPredictor:
        members["tc"] = path_confidence
        cycle_predictors = []
    else:
        return None
    paco = members.get("paco")
    # The fused tick models exactly one cycle-periodic machine: PaCo's
    # re-log pass.  Any other cycle work (or a disagreement with
    # _has_cycle_work's conservative answer) falls back.
    if cycle_predictors != ([paco] if paco is not None else []):
        return None
    if _has_cycle_work(path_confidence) != (paco is not None):
        return None
    num_mdc = confidence.num_mdc_values
    if paco is not None and paco.mrt.num_buckets < num_mdc:
        return None
    static = members.get("static")
    if static is not None and static.num_mdc_values < num_mdc:
        return None
    return members


class TraceSession(SimulationSession):
    """One branch-driven replay: a fetch engine plus a slot window.

    The in-flight window is a deque whose entries are either a
    :class:`~repro.branch_predictor.engine.BranchRecord` (a branch
    occupying one slot) or an ``int`` run of non-branch slots — positive
    for good-path slots, negative for wrong-path slots.  ``_inflight``
    tracks the total slot count so drains are O(1) amortized per branch,
    not per instruction.

    Branches arrive through a reusable :class:`BranchBlock` buffer that
    carries over between :meth:`run` legs: a leg that stops mid-block
    (budget or cycle limit) resumes from the buffered position, so the
    consumed stream order — and therefore every statistic — matches the
    scalar one-branch-at-a-time replay bit for bit.

    ``plan`` is the member map :func:`_fused_plan` returned for this
    engine (:class:`TraceBackend` passes it): with one, the session runs
    the fused flavour of the hot loop; without (``None``, the default),
    the scalar flavour over the
    :class:`~repro.branch_predictor.engine.PredictorStateEngine` — the
    fallback for stacks the fused flavour does not model and the
    reference it is tested against.
    """

    def __init__(self, fetch_engine: FetchEngine, config: MachineConfig,
                 observers, resolve_window: int,
                 mispredict_window: int,
                 block_size: Optional[int] = None,
                 plan: Optional[dict] = None) -> None:
        if resolve_window < 1:
            raise ValueError("resolve window must be at least one instruction")
        if mispredict_window < 1:
            raise ValueError("mispredict window must be at least one instruction")
        if block_size is None:
            block_size = resolve_trace_block_size(
                os.environ.get(TRACE_BLOCK_ENV, DEFAULT_TRACE_BLOCK),
                source=TRACE_BLOCK_ENV,
            )
        else:
            block_size = resolve_trace_block_size(block_size)
        self.fetch_engine = fetch_engine
        self.config = config
        self.stats = CoreStats()
        self.observers = list(observers)
        self.resolve_window = resolve_window
        self.mispredict_window = mispredict_window
        self.block_size = block_size

        spec = fetch_engine.generator.spec
        pool = RngPool(fetch_engine.generator._pool.master_seed).fork("trace-gaps")
        self._gap_rng = pool.stream("goodpath")
        self._wp_gap_rng = pool.stream("wrongpath")
        branch_fraction = min(max(spec.branch_fraction, 1e-9), 1.0)
        #: log(1 - p) of the per-instruction branch probability, used to
        #: draw geometric inter-branch gaps in closed form.
        self._log_one_minus_p = (math.log(1.0 - branch_fraction)
                                 if branch_fraction < 1.0 else None)

        self._window: Deque[object] = deque()
        self._inflight = 0
        self._cycle = 0
        self._next_seq = 0
        self._started = False

        # Batched generation buffers.  Good-path gaps and branches are
        # drawn block-at-a-time and consumed in lockstep; a phase
        # boundary splits a block (``_refill_block`` returns 0 and the
        # boundary branch is stepped slot-by-slot instead).
        self._block = BranchBlock(block_size)
        self._boundary_block = BranchBlock(1)
        self._wp_block = BranchBlock(1)
        self._gap_buf = [0] * block_size
        self._gap_pos = 0
        self._gap_len = 0
        self._branch_pos = 0
        self._branch_len = 0
        self._wp_gap_scratch = [0]
        # Batched wrong-path episode buffers (the gated session keeps the
        # scalar per-slot episode — gating decisions interleave with the
        # draws — so the one-slot buffers above stay for it).
        self._wp_gap_buf = [0] * mispredict_window
        self._wp_episode_block = BranchBlock(mispredict_window)

        # Batched instance recording (see module docstring): the pending
        # run counters plus the closed-run event buffer awaiting
        # delivery at the next predictor state change.
        self._run_fetch = 0
        self._run_execute = 0
        self._run_goodpath = True
        self._events: list = []
        self._has_phases = bool(spec.phases)
        self._cycle_work_possible = _has_cycle_work(
            fetch_engine.path_confidence)

        # The hot loop's flavour and member bindings (see _loop_sources).
        self.fused = plan is not None
        members = plan if plan is not None else {}
        self._paco = members.get("paco")
        self._static = members.get("static")
        self._pbm = members.get("pbm")
        self._tc = members.get("tc")
        self._profiler = members.get("profiler")
        #: The inlined-delivery target: the reliability diagram when the
        #: attached observers are exactly one MultiPredictorObserver over
        #: this session's PaCo (resolved per block by ``_step_block``),
        #: None otherwise (generic delivery).
        self._fp_diag = None
        #: register -> decoded probability memo for the inlined delivery.
        self._fp_probs: dict = {}
        #: Encoded-probability memo for the per-branch MRT, keyed by the
        #: entry's (correct, total) counters — the exact inputs of
        #: ``_encoded_for`` — so repeated lookups skip the float/log math.
        self._pbm_memo: dict = {}
        self._step, self._replay = _loop_methods((
            self._paco is not None, self._static is not None,
            self._pbm is not None, self._tc is not None,
            self._profiler is not None, self._cycle_work_possible,
            self.fused))

    # ------------------------------------------------------------------ #
    # public API (the SimulationSession contract)
    # ------------------------------------------------------------------ #

    def add_observer(self, observer: InstanceObserver) -> None:
        # Instances recorded while this observer was not attached must not
        # leak into it: flush the pending run (and deliver the buffered
        # events) to the existing observers first.
        self._flush_runs()
        self.observers.append(observer)

    def run(self, max_instructions: int,
            max_cycles: Optional[int] = None) -> CoreStats:
        """Replay until ``max_instructions`` good-path instructions retired."""
        if max_instructions <= 0:
            raise ValueError("instruction budget must be positive")
        if max_cycles is None:
            max_cycles = max_instructions * 40
        if not self._started:
            self._started = True
            self.fetch_engine.path_confidence.on_cycle(0)
        stats = self.stats
        while (stats.retired_instructions < max_instructions
               and self._cycle < max_cycles):
            self._step_block(max_instructions, max_cycles)
        self._flush_runs()
        stats.cycles = self._cycle
        if stats.retired_instructions < max_instructions:
            raise SimulationTruncated(stats, max_instructions, max_cycles)
        return stats

    @property
    def cycle(self) -> int:
        return self._cycle

    @property
    def window_occupancy(self) -> int:
        return self._inflight

    # ------------------------------------------------------------------ #
    # batched replay mechanics
    # ------------------------------------------------------------------ #

    def _refill_block(self) -> int:
        """Refill the branch buffer; return the number of branches staged.

        Draws a fresh gap block when the gap buffer is spent, then
        generates as many branches as fit before the next phase boundary
        (all of them for unphased benchmarks).  Generator-side state
        (instruction count, phase schedule, RNG streams) is advanced for
        the whole staged block up front; because no boundary falls inside
        it, nothing observable differs from slot-by-slot advancement.
        Returns 0 when the very next branch straddles a boundary — the
        caller steps that one branch with :meth:`_step_boundary_branch`.
        """
        generator = self.fetch_engine.generator
        if self._gap_pos >= self._gap_len:
            n = self.block_size
            self._gap_rng.geometric_block(self._log_one_minus_p,
                                          self._gap_buf, n)
            self._gap_pos = 0
            self._gap_len = n
        available = self._gap_len - self._gap_pos
        if not self._has_phases:
            m = available
            pos = self._gap_pos
            gap_slots = sum(self._gap_buf[pos:pos + m])
        else:
            # Largest prefix of (gap + branch) steps that leaves at least
            # one slot of the current phase unconsumed (i.e. no roll).
            remaining_budget = generator._phase_remaining - 1
            gaps = self._gap_buf
            pos = self._gap_pos
            m = 0
            total = 0
            for k in range(available):
                step = gaps[pos + k] + 1
                if total + step > remaining_budget:
                    break
                total += step
                m += 1
            if m == 0:
                return 0
            gap_slots = total - m
        if gap_slots:
            taken = generator.advance_instructions(gap_slots)
            assert taken == gap_slots  # no boundary inside the block
        generator.next_branch_block(self._next_seq, m, self._block)
        self._branch_pos = 0
        self._branch_len = m
        return m

    def _step_block(self, max_instructions: int, max_cycles: int) -> None:
        """Advance by up to one block: refill (or step a phase-boundary
        branch) when the staged block is spent, then run the hot loop."""
        if self.fused:
            self._bind_delivery()
        if self._branch_pos >= self._branch_len:
            if not self._refill_block():
                self._step_boundary_branch()
                return
        self._step(self, max_instructions, max_cycles)

    def _replay_wrongpath(self, record: BranchRecord) -> None:
        self._replay(self, record)

    def _bind_delivery(self) -> None:
        """Pick the fused loop's delivery shape for the attached observers.

        Several observers share one fold per delivery (a
        :class:`~repro.pipeline.core.RunEventBatch` buffer); exactly one
        :class:`MultiPredictorObserver` over this session's PaCo gets the
        inlined reliability-diagram fold.
        """
        observers = self.observers
        fp_diag = None
        if len(observers) > 1:
            if type(self._events) is list:
                self._events = RunEventBatch(self._events)
        else:
            if type(self._events) is not list:
                self._events = list(self._events)
            if observers:
                observer = observers[0]
                if type(observer) is MultiPredictorObserver:
                    pairs = observer._pairs
                    if len(pairs) == 1 and pairs[0][0] is self._paco:
                        fp_diag = pairs[0][1]
        self._fp_diag = fp_diag

    _complete_oldest = _compile_method("_complete_oldest",
                                       _COMPLETE_OLDEST_SRC)

    def _step_boundary_branch(self) -> None:
        """One gap+branch step with the gap applied slot-by-slot.

        Taken when a phase boundary falls inside the next branch's gap
        (or on the branch itself): instances on either side of the
        boundary belong to different phases, so the gap is advanced in
        boundary-bounded chunks with an observer flush between them —
        exactly the scalar path — and the branch is generated only after
        the schedule has settled, so phase-aware observers and the
        per-phase site selection read the right phase.
        """
        # Events closed before the boundary must be observed with the
        # pre-roll phase label: deliver them before the schedule can
        # advance.  (The *open* run keeps riding across the roll and is
        # closed by the chunk flushes below, exactly as the scalar path
        # always did.)
        self._deliver_events()
        generator = self.fetch_engine.generator
        gap = self._gap_buf[self._gap_pos]
        self._gap_pos += 1
        while gap:
            taken = generator.advance_instructions(gap)
            self._fetch_good_gap(taken)
            gap -= taken
            if gap:
                # Phase boundary inside the gap: instances on either
                # side belong to different phases; close the run.
                self._flush_runs()
        self._flush_runs()
        seq = self._next_seq
        self._next_seq = seq + 1
        block = self._boundary_block
        generator.next_branch_block(seq, 1, block)
        engine = self.fetch_engine
        stats = self.stats
        record = engine.predict_from_block(block, 0, seq)
        engine.goodpath_fetched += 1
        stats.goodpath_fetched += 1
        self._cycle += 1
        self._run_goodpath = not engine.on_wrong_path
        self._run_fetch += 1
        if engine.on_wrong_path:
            self._replay_wrongpath(record)
            return
        self._window.append(record)
        self._inflight += 1
        self._drain()
        self._cycle_tick()

    def _fetch_good_gap(self, count: int) -> None:
        """Account ``count`` good-path non-branch slots in one step."""
        if count <= 0:
            return
        stats = self.stats
        stats.goodpath_fetched += count
        self.fetch_engine.goodpath_fetched += count
        self._cycle += count
        self._run_fetch += count
        window = self._window
        if window and type(window[-1]) is int and window[-1] > 0:
            window[-1] += count
        else:
            window.append(count)
        self._inflight += count
        self._drain()

    def _fetch_bad_gap(self, count: int) -> None:
        """Account ``count`` wrong-path non-branch slots in one step."""
        if count <= 0:
            return
        stats = self.stats
        stats.badpath_fetched += count
        self.fetch_engine.badpath_fetched += count
        self._cycle += count
        self._run_fetch += count
        window = self._window
        if window and type(window[-1]) is int and window[-1] < 0:
            window[-1] -= count
        else:
            window.append(-count)
        self._inflight += count
        self._drain()

    def _drain(self) -> None:
        """Complete the oldest slots once the window exceeds its depth."""
        excess = self._inflight - self.resolve_window
        if excess > 0:
            self._complete_oldest(excess)

    def _finish_wrongpath(self, record: BranchRecord, issued: int) -> None:
        """Resolve the mispredicted branch: the shared episode tail.

        Mirrors the cycle core's recovery order — account the
        ``issued`` wrong-path slots estimated to have left the front
        end, resolve (train/repair), squash everything younger, redirect
        fetch, then record the execute instance.  Shared by the batched
        episode and the gated session's per-slot one.
        """
        engine = self.fetch_engine
        stats = self.stats
        if issued > 0:
            stats.badpath_executed += issued
        self._flush_runs()
        stats.flushes += 1
        engine.resolve_record(record)
        window = self._window
        while window:
            entry = window[-1]
            if type(entry) is int:
                if entry > 0:
                    break
                window.pop()
                self._inflight += entry  # entry is negative
            elif entry.on_goodpath:
                break
            else:
                window.pop()
                self._inflight -= 1
                engine.squash_record(entry)
        engine.recover(record)
        self._retire_branch(record)
        self._run_goodpath = not engine.on_wrong_path
        self._run_execute += 1
        stats.fetch_stall_cycles += self.config.redirect_penalty
        self._cycle += self.config.redirect_penalty
        self._cycle_tick()

    def _retire_branch(self, record: BranchRecord) -> None:
        stats = self.stats
        stats.goodpath_executed += 1
        stats.retired_instructions += 1
        stats.branches_retired += 1
        if record.mispredicted:
            stats.branch_mispredicts_retired += 1
        if record.kind is BranchKind.CONDITIONAL:
            stats.conditional_branches_retired += 1
            if record.mispredicted:
                stats.conditional_mispredicts_retired += 1

    # ------------------------------------------------------------------ #
    # batched instance recording
    # ------------------------------------------------------------------ #

    def _deliver_events(self) -> None:
        """Deliver the buffered run events to the observers.

        Legal at any point up to (and including) the moment predictor
        state next changes: no state change happened since the events
        were closed, so the observers read exactly the values the
        per-event calls would have read.
        """
        events = self._events
        if events:
            for observer in self.observers:
                observer.record_runs(events)
            del events[:]

    def _flush_runs(self) -> None:
        """Close the pending instance run and deliver everything buffered."""
        fetches = self._run_fetch
        executes = self._run_execute
        self._run_fetch = 0
        self._run_execute = 0
        observers = self.observers
        if not observers:
            return
        events = self._events
        if fetches:
            events.extend(("fetch", self._run_goodpath, self._cycle, fetches))
        if executes:
            events.extend(("execute", self._run_goodpath, self._cycle,
                           executes))
        if events:
            for observer in observers:
                observer.record_runs(events)
            del events[:]

    def _cycle_tick(self) -> None:
        """Per-cycle confidence work for the scalar (self-state) paths.

        Buffered events are delivered before the tick (pre-mutation
        state) and the open run is closed after a tick that reports a
        change — the scalar flush points.  Skipped entirely when the
        predictor stack has no cycle-periodic machinery.
        """
        if not self._cycle_work_possible:
            return
        self._deliver_events()
        if self.fetch_engine.path_confidence.on_cycle(self._cycle):
            self._flush_runs()


class GatedTraceSession(TraceSession):
    """A trace replay with a fetch gating policy in the loop.

    The gating predicate is evaluated before every good-path fetch step
    and before every wrong-path slot of a misprediction episode — the
    points where the predictors' state (and therefore the predicate) can
    have changed.  A gated cycle stalls fetch for one estimated cycle
    while the oldest in-flight slot completes, mirroring how the cycle
    model's back end keeps draining under a gated front end:

    * on the good path a gated cycle is pure delay — the completed slot
      would have drained for free at the next fetch — so good-path
      gating shows up as IPC loss;
    * inside a wrong-path episode the mispredicted branch resolves on
      its own schedule, so a gated cycle substitutes for a wrong-path
      fetch slot at (nearly) no time cost — the episode still spans
      ``mispredict_window`` estimated cycles but fetches fewer
      wrong-path slots, which is the energy saving gating exists for.

    Termination is guaranteed: a gated cycle always completes a slot, and
    an empty window means every branch has resolved, which zeroes the
    low-confidence count / path-confidence register that gates fetch.
    The ``while`` guard still fails open on an empty window in case a
    policy gates on something else.

    The ungated :class:`TraceSession` fast path is untouched — a
    ``NoGating`` policy builds the base class, keeping existing trace
    results bit-identical.
    """

    def __init__(self, fetch_engine: FetchEngine, config: MachineConfig,
                 observers, resolve_window: int, mispredict_window: int,
                 gating_policy: GatingPolicy,
                 block_size: Optional[int] = None) -> None:
        super().__init__(fetch_engine, config, observers, resolve_window,
                         mispredict_window, block_size=block_size)
        self.gating_policy = gating_policy

    def _step_block(self, max_instructions: int, max_cycles: int) -> None:
        """Scalar gating-aware twin of the batched good-path step.

        Gating decisions depend on predictor state that changes branch by
        branch, so the gated session steps one (gate-check, gap, branch)
        tuple at a time through the self-state helpers instead of the
        generated hot loop.  Stream consumption order is identical, so
        the predictors see the same branches.
        """
        if self._branch_pos >= self._branch_len:
            if not self._refill_block():
                if self.gating_policy.should_gate():
                    self._gated_wait()
                self._step_boundary_branch()
                return
        engine = self.fetch_engine
        stats = self.stats
        block = self._block
        while self._branch_pos < self._branch_len:
            if (stats.retired_instructions >= max_instructions
                    or self._cycle >= max_cycles):
                return
            if self.gating_policy.should_gate():
                self._gated_wait()
                if (stats.retired_instructions >= max_instructions
                        or self._cycle >= max_cycles):
                    return
            gap = self._gap_buf[self._gap_pos]
            self._gap_pos += 1
            if gap:
                self._fetch_good_gap(gap)
            self._flush_runs()
            i = self._branch_pos
            self._branch_pos = i + 1
            seq = self._next_seq
            self._next_seq = seq + 1
            record = engine.predict_from_block(block, i, seq)
            engine.goodpath_fetched += 1
            stats.goodpath_fetched += 1
            self._cycle += 1
            self._run_fetch += 1
            if engine.on_wrong_path:
                self._run_goodpath = False
                self._replay_wrongpath(record)
                continue
            self._run_goodpath = True
            self._window.append(record)
            self._inflight += 1
            self._drain()
            self._cycle_tick()

    def _gated_step(self) -> None:
        """One gated cycle: fetch stalls, the oldest in-flight slot completes.

        The completion is the shared drain body with an excess of one —
        the gated session's parameterization of the single drain
        implementation.
        """
        self.stats.gated_cycles += 1
        self._cycle += 1
        if self._window:
            self._complete_oldest(1)
        self._cycle_tick()

    def _gated_wait(self) -> None:
        """Stall good-path fetch until the policy stops gating."""
        policy = self.gating_policy
        while policy.should_gate() and self._window:
            self._gated_step()

    def _replay_wrongpath(self, record: BranchRecord) -> None:
        """The wrong-path episode with the gate in the fetch loop.

        The episode budget counts estimated *cycles*, not fetched slots:
        the mispredicted branch resolves ``mispredict_window`` cycles
        after fetch whether or not the front end kept fetching, so a
        gated cycle consumes episode budget without fetching a wrong-path
        slot.  Stays scalar — the gate interleaves with the draws — but
        resolution and recovery share :meth:`_finish_wrongpath` with the
        batched ungated episode.
        """
        engine = self.fetch_engine
        wrongpath = engine.wrongpath_generator
        stats = self.stats
        wp_block = self._wp_block
        gap_scratch = self._wp_gap_scratch
        log1p = self._log_one_minus_p
        wp_rng = self._wp_gap_rng
        policy = self.gating_policy
        remaining = self.mispredict_window
        fetched = 0
        while remaining:
            if policy.should_gate():
                self._gated_step()
                remaining -= 1
                continue
            wp_rng.geometric_block(log1p, gap_scratch, 1)
            gap = gap_scratch[0]
            if gap > remaining:
                gap = remaining
            if gap:
                self._fetch_bad_gap(gap)
                remaining -= gap
                fetched += gap
            if not remaining:
                break
            self._flush_runs()
            seq = self._next_seq
            self._next_seq = seq + 1
            wrongpath.next_branch_into(wp_block, 0)
            wp_record = engine.predict_from_block(wp_block, 0, seq,
                                                  on_goodpath=False)
            engine.badpath_fetched += 1
            stats.badpath_fetched += 1
            self._cycle += 1
            self._run_fetch += 1
            self._window.append(wp_record)
            self._inflight += 1
            self._drain()
            remaining -= 1
            fetched += 1
            self._cycle_tick()
        # Same issued-before-squash estimate as the ungated episode, over
        # the slots this episode actually fetched: gated cycles consume
        # episode budget without fetching, so gating directly shrinks the
        # wrong-path work both fetched and executed.
        self._finish_wrongpath(record, fetched - self.config.frontend_depth)


class TraceBackend(SimulationBackend):
    """Fast branch-driven replay for predictor-level experiments.

    Parameters
    ----------
    resolve_window:
        Slots between fetch and resolution.  Defaults to
        ``width * frontend_depth`` of the machine configuration
        (calibrated against the cycle model's outstanding-branch window
        and reliability diagrams; see tests/test_backends.py).
    mispredict_window:
        Wrong-path slots replayed per good-path misprediction.  Defaults
        to ``2 * min_mispredict_penalty`` (calibrated against the cycle
        model's wrong-path fetches per flush).
    block_size:
        Branches generated per batch.  Defaults to the
        ``REPRO_TRACE_BLOCK`` environment knob (or
        :data:`DEFAULT_TRACE_BLOCK`); results are bit-identical for any
        value >= 1, so this is never part of a job identity or cache key.
    """

    #: Cycles/IPC are *estimates* over the calibrated windows — ordering-
    #: preserving (parity-gated by tests/test_backends.py), not
    #: cycle-accurate; the cycle backend stays ground truth.
    name = "trace"
    supports_timing = True
    supports_gating = True

    def __init__(self, resolve_window: Optional[int] = None,
                 mispredict_window: Optional[int] = None,
                 block_size: Optional[int] = None) -> None:
        self.resolve_window = resolve_window
        self.mispredict_window = mispredict_window
        self.block_size = block_size

    def build(self, workload: Workload, config: MachineConfig,
              instrument: Instrumentation) -> TraceSession:
        fetch_engine = build_fetch_engine(workload, config, instrument)
        resolve_window = (self.resolve_window if self.resolve_window is not None
                          else config.width * config.frontend_depth)
        mispredict_window = (self.mispredict_window
                             if self.mispredict_window is not None
                             else 2 * config.min_mispredict_penalty)
        gating = instrument.gating_policy
        if gating is not None and not isinstance(gating, NoGating):
            # The gated session steps scalar (gating decisions change
            # branch to branch); the ungated sessions run the hot loop.
            return GatedTraceSession(fetch_engine, config,
                                     instrument.observers, resolve_window,
                                     mispredict_window, gating,
                                     block_size=self.block_size)
        return TraceSession(fetch_engine, config, instrument.observers,
                            resolve_window, mispredict_window,
                            block_size=self.block_size,
                            plan=_fused_plan(fetch_engine))
