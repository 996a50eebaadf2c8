"""The columnar predictor-state container.

Every per-branch structure the fused
:class:`~repro.branch_predictor.engine.PredictorStateEngine` touches —
the tournament predictor's gshare/bimodal counter tables and chooser, the
BTB/RAS/indirect target structures, the global history register and the
JRS confidence table — already stores its hot state as flat contiguous
lists of small ints with precomputed masks.  :class:`PredictorColumns`
captures all of those references (and the masks/thresholds that go with
them) in one explicit state object, so that every consumer of the flat
state shares a single capture instead of each re-plucking private
attributes off the component objects:

* the scalar :class:`~repro.branch_predictor.engine.PredictorStateEngine`
  copies the captured references into its own ``__slots__`` locals-style
  attributes (bit-identical to the previous direct capture — the engine
  remains the parity reference for the fused trace loop);
* the fused trace loop (:mod:`repro.backends.trace`) hoists the same
  tables and masks into loop locals, computes the table indices from a
  plain-int history local with one shift/xor per branch, and trains the
  tables *in place* — there is one copy of every table, shared by both,
  so scalar and fused spans of one simulation interleave freely.

The component objects remain the owners of their storage: statistics
counters and in-place ``reset`` implementations keep working, and the
scalar accessors below read/write through the shared references.  If a
component ever replaces a table object wholesale, re-:meth:`capture` (the
engine's ``rebind`` does exactly that).
"""

from __future__ import annotations

from typing import Optional

from repro.branch_predictor.frontend import FrontEndPredictor
from repro.confidence.jrs import JRSConfidencePredictor


class PredictorColumns:
    """Flat predictor/confidence state captured as explicit columns."""

    __slots__ = (
        # structural components (stateful objects, shared by reference)
        "history", "btb", "ras", "indirect",
        # tournament columns
        "gshare_table", "gshare_mask", "gshare_history_mask",
        "gshare_max", "gshare_threshold",
        "bimodal_table", "bimodal_mask", "bimodal_max", "bimodal_threshold",
        "chooser", "chooser_mask", "chooser_history_mask",
        # JRS confidence columns (absent -> jrs_table is None)
        "jrs_table", "jrs_mask", "jrs_history_mask", "jrs_enhanced_shift",
        "jrs_max",
    )

    @classmethod
    def capture(cls, frontend: FrontEndPredictor,
                confidence: Optional[JRSConfidencePredictor] = None,
                ) -> "PredictorColumns":
        """Capture the flat state of a front end (+ optional JRS table)."""
        self = cls()
        self.history = frontend.history
        self.btb = frontend.btb
        self.ras = frontend.ras
        self.indirect = frontend.indirect

        tournament = frontend.direction
        gshare = tournament.gshare
        self.gshare_table = gshare.table
        self.gshare_mask = gshare._mask
        self.gshare_history_mask = gshare._history_mask
        self.gshare_max = gshare._max
        self.gshare_threshold = gshare._threshold
        bimodal = tournament.bimodal
        self.bimodal_table = bimodal.table
        self.bimodal_mask = bimodal._mask
        self.bimodal_max = bimodal._max
        self.bimodal_threshold = bimodal._threshold
        self.chooser = tournament.chooser
        self.chooser_mask = tournament._chooser_mask
        self.chooser_history_mask = tournament._history_mask

        if confidence is not None:
            self.jrs_table = confidence.table
            self.jrs_mask = confidence._mask
            self.jrs_history_mask = confidence._history_mask
            self.jrs_enhanced_shift = (confidence.index_bits - 1
                                       if confidence.enhanced else -1)
            self.jrs_max = confidence.mdc_max
        else:
            self.jrs_table = None
            self.jrs_mask = 0
            self.jrs_history_mask = 0
            self.jrs_enhanced_shift = -1
            self.jrs_max = 0
        return self

    # ------------------------------------------------------------------ #
    # scalar accessors
    #
    # The engines inline the index arithmetic on their hot paths; these
    # accessors are the readable single-entry surface for everything else
    # (tests, diagnostics, future engines) and define the indexing scheme
    # in one place.
    # ------------------------------------------------------------------ #

    def gshare_index(self, pc: int, history: int) -> int:
        return (((pc >> 2) ^ (history & self.gshare_history_mask))
                & self.gshare_mask)

    def bimodal_index(self, pc: int) -> int:
        return (pc >> 2) & self.bimodal_mask

    def chooser_index(self, pc: int, history: int) -> int:
        return (((pc >> 2) ^ (history & self.chooser_history_mask))
                & self.chooser_mask)

    def jrs_index(self, pc: int, history: int, taken: bool) -> int:
        index = (((pc >> 2) ^ (history & self.jrs_history_mask))
                 & self.jrs_mask)
        shift = self.jrs_enhanced_shift
        if shift >= 0 and taken:
            index = (index ^ (1 << shift)) & self.jrs_mask
        return index

    def gshare_counter(self, index: int) -> int:
        return self.gshare_table[index]

    def bimodal_counter(self, index: int) -> int:
        return self.bimodal_table[index]

    def chooser_counter(self, index: int) -> int:
        return self.chooser[index]

    def jrs_counter(self, index: int) -> int:
        return self.jrs_table[index]

    @property
    def history_bits(self) -> int:
        return self.history.bits

    @property
    def history_mask(self) -> int:
        return self.history.mask
