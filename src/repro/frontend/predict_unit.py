"""The branch-prediction unit of the decoupled front end.

Produces one predicted fetch block per cycle into the FTQ, exactly as the
paper's front end does: query the FTB at the current fetch target; on a hit
the entry delimits the block and the hybrid predictor / RAS / stored target
provide the successor; on a miss the unit emits a maximum-length sequential
block.

Because the simulator is trace driven, the unit simultaneously *validates*
each correct-path prediction against the committed trace:

- a block whose predicted successor matches the trace is correct-path and
  carries its trace records into the FTQ;
- a divergence marks the block mispredicted.  The unit checkpoints its
  speculative state (global history, RAS) in the entry, trains the FTB and
  direction predictor with the true outcome, and then — if wrong-path
  modeling is enabled — keeps producing fetch blocks down the *predicted*
  path purely from the FTB (no trace), which is what pollutes caches and
  wastes bus bandwidth in real hardware.  When the backend resolves the
  branch, :meth:`on_resolve` restores the checkpoint, applies the true
  outcome, and resumes at the correct trace position.

At most one unresolved misprediction exists at a time: every block the
unit produces after a misprediction is wrong-path until resolution, and
wrong-path blocks are never validated.
"""

from __future__ import annotations

from repro.bpred import DirectionPredictor, ReturnAddressStack
from repro.component import StatsComponent
from repro.config import FrontEndConfig
from repro.errors import SimulationError
from repro.ftb import FetchTargetBuffer, FTBEntry
from repro.frontend.ftq import FetchTargetQueue, FTQEntry
from repro.isa import INSTRUCTION_BYTES, InstrKind
from repro.stats import StatGroup
from repro.trace import Trace

__all__ = ["PredictUnit"]


class PredictUnit(StatsComponent):
    """Decoupled branch-prediction unit, one fetch block per cycle.

    As a telemetry component the unit is composite: the direction
    predictor and the return address stack report as its children.
    """

    def sub_components(self):
        return (self.predictor, self.ras)

    def __init__(self, trace: Trace, ftb: FetchTargetBuffer,
                 predictor: DirectionPredictor, ras: ReturnAddressStack,
                 config: FrontEndConfig):
        # Records are read through the trace, never kept in an alias:
        # a snapshot stores the trace by reference but would pickle an
        # alias of its record list by value.
        self.trace = trace
        self.ftb = ftb
        self.predictor = predictor
        self.ras = ras
        self.config = config
        self.stats = StatGroup("predict")
        self._cursor = 0                     # next unpredicted trace index
        self._history = 0
        self._history_mask = (1 << config.predictor.history_bits) - 1
        self._block_bytes = config.max_fetch_block * INSTRUCTION_BYTES
        self._seq = 0
        self._pending_mispredict: FTQEntry | None = None
        self._wrong_pc = 0
        self._ftb_wait_until: int | None = None

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        """True when every trace record has been predicted and validated."""
        return (self._cursor >= len(self.trace)
                and self._pending_mispredict is None)

    @property
    def awaiting_resolution(self) -> bool:
        return self._pending_mispredict is not None

    @property
    def ftb_wait_until(self) -> int | None:
        """Cycle a pending L2-FTB promotion completes (None when idle)."""
        return self._ftb_wait_until

    def next_wake_cycle(self, now: int) -> int | None:
        """Wake contract: a pending L2-FTB promotion is the only
        self-scheduled wake; FTQ-full, unresolved mispredictions, and
        trace exhaustion clear on external input (or never)."""
        return self._ftb_wait_until

    @property
    def out_of_records(self) -> bool:
        """Every correct-path trace record has been consumed."""
        return self._cursor >= len(self.trace)

    def tick(self, now: int, ftq: FetchTargetQueue) -> FTQEntry | None:
        """Produce at most one fetch block into ``ftq``."""
        if ftq.full:
            self.stats.bump("ftq_full_stalls")
            return None
        if self._ftb_wait_until is not None:
            if now < self._ftb_wait_until:
                self.stats.bump("ftb_l2_stall_cycles")
                return None
            self._ftb_wait_until = None

        wrong_path = self._pending_mispredict is not None
        if wrong_path:
            if not self.config.model_wrong_path:
                self.stats.bump("mispredict_stall_cycles")
                return None
            start = self._wrong_pc
        elif self._cursor >= len(self.trace):
            return None
        else:
            start = self.trace.records[self._cursor].pc

        level, ftb_entry = self.ftb.probe(start)
        if level == "l2":
            # Two-level FTB: the entry was promoted but using it costs
            # the L2 access latency; stall prediction until then.
            latency = self.ftb.l2_latency
            self._ftb_wait_until = now + latency
            self.stats.bump("ftb_l2_promotions")
            return None

        if wrong_path:
            entry = self._produce_wrong_block(ftb_entry)
        else:
            entry = self._produce_correct_block(ftb_entry)
        ftq.push(entry)
        self.stats.bump("blocks_produced")
        if entry.wrong_path:
            self.stats.bump("wrong_path_blocks")
        return entry

    def on_resolve(self, entry: FTQEntry) -> None:
        """The mispredicted terminal of ``entry`` resolved: repair state."""
        if self._pending_mispredict is not entry:
            raise SimulationError(
                "resolved a block that is not the pending misprediction")
        if entry.ckpt_ras is None:
            raise SimulationError("mispredicted block has no RAS checkpoint")
        self._history = entry.ckpt_history
        self.ras.restore(entry.ckpt_ras)
        kind = entry.terminal_kind
        if kind is not None:
            if kind == InstrKind.BRANCH_COND:
                self._push_history(entry.terminal_taken)
            elif kind.is_call:
                self.ras.push(entry.terminal_pc + INSTRUCTION_BYTES)
            elif kind.is_return:
                self.ras.pop()
        self._cursor = entry.resume_cursor
        self._pending_mispredict = None
        self._ftb_wait_until = None   # abandon any wrong-path L2 lookup
        self.stats.bump("resolutions")

    # ------------------------------------------------------------------
    # Correct-path production and validation
    # ------------------------------------------------------------------

    def _produce_correct_block(self, ftb_entry: FTBEntry | None,
                               ) -> FTQEntry:
        records = self.trace.records
        cursor = self._cursor
        start = records[cursor].pc

        ckpt_history = self._history
        ckpt_ras = self.ras.snapshot()

        entry, end, predicted_next, pred_taken = self._consult_ftb(
            start, ftb_entry, oracle_index=cursor)
        predicted_cond = (entry is not None
                          and entry.kind == InstrKind.BRANCH_COND)

        # Walk the committed trace against the prediction.
        j = cursor
        last_index = len(records) - 1
        truncated = False
        while True:
            record = records[j]
            if record.next_pc != record.pc + INSTRUCTION_BYTES:
                break  # redirecting control: the true block ends here
            if record.pc == end - INSTRUCTION_BYTES:
                break  # reached the predicted boundary sequentially
            if j == last_index:
                truncated = True
                break
            j += 1
        terminal = records[j]
        n_records = j - cursor + 1

        if truncated:
            true_next = None
            mispredict = False
            block_end = terminal.pc + INSTRUCTION_BYTES
        elif terminal.redirects:
            true_next = terminal.next_pc
            block_end = terminal.pc + INSTRUCTION_BYTES
            correct = (entry is not None
                       and terminal.pc == end - INSTRUCTION_BYTES
                       and predicted_next == true_next)
            mispredict = not correct
        else:
            true_next = end
            block_end = end
            mispredict = predicted_next != end

        ftq_entry = FTQEntry(
            seq=self._next_seq(),
            start=start,
            end=block_end,
            predicted_next=predicted_next,
            first_index=cursor,
            n_records=n_records,
            mispredict=mispredict,
            true_next=true_next,
            resume_cursor=j + 1,
            terminal_pc=terminal.pc,
            terminal_kind=terminal.kind if terminal.kind.is_control
            else None,
            terminal_taken=terminal.taken,
        )

        self._train(entry, start, terminal, ckpt_history, mispredict,
                    predicted_cond, pred_taken)
        self.stats.histogram("fetch_block_instrs").observe(n_records)

        if mispredict:
            ftq_entry.ckpt_history = ckpt_history
            ftq_entry.ckpt_ras = ckpt_ras
            ftq_entry.predicted_cond = predicted_cond
            self._pending_mispredict = ftq_entry
            self._wrong_pc = predicted_next
            self.stats.bump("mispredicts")
            self._classify_mispredict(entry, terminal, end)
        else:
            self._cursor = j + 1

        return ftq_entry

    def _consult_ftb(
            self, start: int, entry: FTBEntry | None,
            oracle_index: int | None = None,
    ) -> tuple[FTBEntry | None, int, int, bool]:
        """Apply predictors + speculative RAS/history updates to a probed
        FTB ``entry`` (None on FTB miss).

        ``oracle_index`` is the trace cursor for correct-path production;
        with ``perfect_direction`` enabled it lets the unit read the true
        outcome of the block's terminating conditional branch.  Returns
        (ftb_entry, predicted_end, predicted_next, pred_taken).
        """
        if entry is None:
            end = start + self._block_bytes
            return None, end, end, False

        end = entry.fallthrough
        kind = entry.kind
        pred_taken = False
        if kind == InstrKind.BRANCH_COND:
            pred_taken = self._predict_direction(entry, start, oracle_index)
            predicted_next = entry.target if pred_taken else end
            self._push_history(pred_taken)
        elif kind.is_return:
            popped = self.ras.pop()
            predicted_next = popped if popped is not None else end
        elif kind.is_call:
            self.ras.push(end)
            predicted_next = entry.target if entry.target is not None else end
        else:
            predicted_next = entry.target if entry.target is not None else end
        return entry, end, predicted_next, pred_taken

    def _predict_direction(self, entry: FTBEntry, start: int,
                           oracle_index: int | None) -> bool:
        """Hybrid predictor, or the true outcome in perfect mode."""
        if self.config.perfect_direction and oracle_index is not None:
            offset = (entry.terminator_pc - start) // INSTRUCTION_BYTES
            index = oracle_index + offset
            if index < len(self.trace):
                record = self.trace.records[index]
                if record.pc == entry.terminator_pc:
                    return record.taken
        return self.predictor.predict(entry.terminator_pc, self._history)

    def _train(self, entry: FTBEntry | None, start: int, terminal,
               ckpt_history: int, mispredict: bool, predicted_cond: bool,
               pred_taken: bool) -> None:
        """Train FTB and direction predictor with the true outcome."""
        kind = terminal.kind
        terminal_predicted = (entry is not None and
                              terminal.pc == entry.terminator_pc)

        if kind == InstrKind.BRANCH_COND:
            self.predictor.update(terminal.pc, ckpt_history, terminal.taken)
            if terminal_predicted and predicted_cond:
                self.predictor.record_outcome(pred_taken == terminal.taken)
            if not mispredict:
                # Correct path: speculative history already holds the
                # (correct) predicted bit when a prediction was made;
                # otherwise push the true outcome now.
                if not (terminal_predicted and predicted_cond):
                    self._push_history(terminal.taken)

        if mispredict and terminal.redirects:
            target = None if kind.is_return else terminal.next_pc
            self.ftb.install(FTBEntry(
                start=start,
                fallthrough=terminal.pc + INSTRUCTION_BYTES,
                target=target,
                kind=kind,
            ))

    def _classify_mispredict(self, entry: FTBEntry | None, terminal,
                             end: int) -> None:
        kind = terminal.kind
        if entry is None:
            self.stats.bump("mispredict_ftb_miss")
        elif terminal.pc != end - INSTRUCTION_BYTES:
            self.stats.bump("mispredict_embedded_branch")
        elif kind == InstrKind.BRANCH_COND:
            self.stats.bump("mispredict_direction")
        elif kind.is_return:
            self.stats.bump("mispredict_return")
        elif kind.is_indirect:
            self.stats.bump("mispredict_indirect_target")
        else:
            self.stats.bump("mispredict_other")

    # ------------------------------------------------------------------
    # Wrong-path production
    # ------------------------------------------------------------------

    def _produce_wrong_block(self, ftb_entry: FTBEntry | None,
                             ) -> FTQEntry:
        start = self._wrong_pc
        entry, end, predicted_next, _ = self._consult_ftb(start, ftb_entry)
        self._wrong_pc = predicted_next
        return FTQEntry(
            seq=self._next_seq(),
            start=start,
            end=end,
            predicted_next=predicted_next,
            wrong_path=True,
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _push_history(self, taken: bool) -> None:
        self._history = ((self._history << 1) | int(taken)) \
            & self._history_mask

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq
