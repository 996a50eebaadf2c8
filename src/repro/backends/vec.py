"""``trace-vec``: a name alias of the ``trace`` backend.

It builds exactly what ``trace`` builds (the fused hot loop lives in
:mod:`repro.backends.trace`), so results are bit-identical to
``trace``.  The name stays registered so existing ``trace-vec`` job
identities, result-cache keys and campaign plans keep resolving.
"""

from __future__ import annotations

from repro.backends.base import Instrumentation, Workload
from repro.backends.trace import TraceBackend, TraceSession
from repro.pipeline.config import MachineConfig


class VecTraceBackend(TraceBackend):
    """The ``trace-vec`` name for :class:`TraceBackend`."""

    name = "trace-vec"

    def build(self, workload: Workload, config: MachineConfig,
              instrument: Instrumentation) -> TraceSession:
        return TraceBackend.build(self, workload, config, instrument)
