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

from repro.bpred import DirectionPredictor, RasSnapshot, \
    ReturnAddressStack
from repro.component import StatsComponent
from repro.config import FrontEndConfig
from repro.errors import SimulationError
from repro.ftb import L2, FetchTargetBuffer, FTBEntry, TwoLevelFTB
from repro.frontend.ftq import FetchTargetQueue, FTQEntry
from repro.isa import BRANCH_COND, CALL, CALL_INDIRECT, \
    INSTRUCTION_BYTES, JUMP_INDIRECT, RETURN
from repro.stats import StatGroup
from repro.trace import Trace

__all__ = ["PredictUnit"]


class PredictStats(StatGroup):
    """Counters of the :class:`PredictUnit`."""

    __slots__ = ("blocks_produced", "wrong_path_blocks", "ftq_full_stalls",
                 "ftb_l2_stall_cycles", "ftb_l2_promotions",
                 "mispredict_stall_cycles", "resolutions", "mispredicts",
                 "mispredict_ftb_miss", "mispredict_embedded_branch",
                 "mispredict_direction", "mispredict_return",
                 "mispredict_indirect_target", "mispredict_other")


class PredictUnit(StatsComponent):
    """Decoupled branch-prediction unit, one fetch block per cycle.

    As a telemetry component the unit is composite: the direction
    predictor and the return address stack report as its children.
    """

    def sub_components(self):
        return (self.predictor, self.ras)

    def __init__(self, trace: Trace, ftb: FetchTargetBuffer | TwoLevelFTB,
                 predictor: DirectionPredictor, ras: ReturnAddressStack,
                 config: FrontEndConfig):
        # Records are read through the trace, never kept in an alias:
        # a snapshot stores the trace by reference but would pickle an
        # alias of its record list by value.
        self.trace = trace
        self.ftb = ftb
        # A two-level FTB answers through probe(), which can ask for
        # the L2 latency; a monolithic one through lookup().
        self._two_level_ftb = isinstance(ftb, TwoLevelFTB)
        self.predictor = predictor
        self.ras = ras
        self.config = config
        self.stats = PredictStats("predict")
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
        """Produce at most one fetch block into ``ftq``.

        One call into the FTB and, for a predicted conditional branch,
        one into the direction predictor; the RAS and history updates
        and the wrong-path block are done inline.  A correct-path block
        is validated against the trace by :meth:`_produce_correct_block`.
        """
        stats = self.stats
        if len(ftq._entries) >= ftq.depth:
            stats.ftq_full_stalls += 1
            return None
        if self._ftb_wait_until is not None:
            if now < self._ftb_wait_until:
                stats.ftb_l2_stall_cycles += 1
                return None
            self._ftb_wait_until = None

        wrong_path = self._pending_mispredict is not None
        if wrong_path:
            if not self.config.model_wrong_path:
                stats.mispredict_stall_cycles += 1
                return None
            start = self._wrong_pc
        else:
            records = self.trace.records
            cursor = self._cursor
            if cursor >= len(records):
                return None
            start = records[cursor].pc

        ftb = self.ftb
        if self._two_level_ftb:
            level, ftb_entry = ftb.probe(start)
            if level == L2:
                # The entry was promoted, but using it costs the L2
                # access latency; stall prediction until then.
                self._ftb_wait_until = now + ftb.l2_latency
                stats.ftb_l2_promotions += 1
                return None
        else:
            ftb_entry = ftb.lookup(start)

        if not wrong_path:
            # Checkpoint before the speculative updates below.
            ckpt_history = self._history
            ckpt_ras = self.ras.snapshot()

        # Consult the FTB entry: predictors, RAS and speculative history.
        pred_taken = False
        if ftb_entry is None:
            end = predicted_next = start + self._block_bytes
        else:
            end = ftb_entry.fallthrough
            kind = ftb_entry.kind
            if kind == BRANCH_COND:
                terminator = end - INSTRUCTION_BYTES
                history = self._history
                oracle = None
                if not wrong_path and self.config.perfect_direction:
                    # Perfect mode reads the true outcome when the
                    # trace reaches the predicted terminator.
                    index = cursor + (terminator - start) \
                        // INSTRUCTION_BYTES
                    if index < len(records) \
                            and records[index].pc == terminator:
                        oracle = records[index]
                if oracle is not None:
                    pred_taken = oracle.taken
                else:
                    pred_taken = self.predictor.predict(terminator, history)
                predicted_next = ftb_entry.target if pred_taken else end
                self._history = ((history << 1) | pred_taken) \
                    & self._history_mask
            elif kind == RETURN:
                popped = self.ras.pop()
                predicted_next = popped if popped is not None else end
            else:
                if kind == CALL or kind == CALL_INDIRECT:
                    self.ras.push(end)
                target = ftb_entry.target
                predicted_next = target if target is not None else end

        self._seq = seq = self._seq + 1
        if wrong_path:
            self._wrong_pc = predicted_next
            # Positional (seq, start, end, predicted_next, wrong_path):
            # half the cost of keywords on the most frequent block.
            entry = FTQEntry(seq, start, end, predicted_next, True)
            stats.wrong_path_blocks += 1
        else:
            entry = self._produce_correct_block(
                seq, start, ftb_entry, end, predicted_next, pred_taken,
                ckpt_history, ckpt_ras)
        ftq.push(entry)
        stats.blocks_produced += 1
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
            if kind == BRANCH_COND:
                self._history = ((self._history << 1)
                                 | entry.terminal_taken) \
                    & self._history_mask
            elif kind == CALL or kind == CALL_INDIRECT:
                self.ras.push(entry.terminal_pc + INSTRUCTION_BYTES)
            elif kind == RETURN:
                self.ras.pop()
        self._cursor = entry.resume_cursor
        self._pending_mispredict = None
        self._ftb_wait_until = None   # abandon any wrong-path L2 lookup
        self.stats.resolutions += 1

    # ------------------------------------------------------------------
    # Correct-path production and validation
    # ------------------------------------------------------------------

    def _produce_correct_block(
            self, seq: int, start: int, ftb_entry: FTBEntry | None,
            end: int, predicted_next: int, pred_taken: bool,
            ckpt_history: int, ckpt_ras: RasSnapshot) -> FTQEntry:
        """Validate the block :meth:`tick` predicted at the trace cursor.

        ``end``, ``predicted_next`` and ``pred_taken`` are the
        prediction made from ``ftb_entry`` (None on an FTB miss);
        ``ckpt_history`` and ``ckpt_ras`` the state before it.  Trains
        the FTB and the direction predictor with the true outcome.
        """
        records = self.trace.records
        cursor = self._cursor
        predicted_cond = (ftb_entry is not None
                          and ftb_entry.kind == BRANCH_COND)
        boundary = end - INSTRUCTION_BYTES

        # Walk the committed trace against the prediction.
        j = cursor
        last_index = len(records) - 1
        truncated = False
        while True:
            record = records[j]
            if record.next_pc != record.pc + INSTRUCTION_BYTES:
                break  # redirecting control: the true block ends here
            if record.pc == boundary:
                break  # reached the predicted boundary sequentially
            if j == last_index:
                truncated = True
                break
            j += 1
        terminal = record
        terminal_pc = terminal.pc
        kind = terminal.kind
        redirects = terminal.next_pc != terminal_pc + INSTRUCTION_BYTES
        n_records = j - cursor + 1

        if truncated:
            true_next = None
            mispredict = False
            block_end = terminal_pc + INSTRUCTION_BYTES
        elif redirects:
            true_next = terminal.next_pc
            block_end = terminal_pc + INSTRUCTION_BYTES
            correct = (ftb_entry is not None
                       and terminal_pc == boundary
                       and predicted_next == true_next)
            mispredict = not correct
        else:
            true_next = end
            block_end = end
            mispredict = predicted_next != end

        ftq_entry = FTQEntry(
            seq=seq,
            start=start,
            end=block_end,
            predicted_next=predicted_next,
            first_index=cursor,
            n_records=n_records,
            mispredict=mispredict,
            true_next=true_next,
            resume_cursor=j + 1,
            terminal_pc=terminal_pc,
            terminal_kind=kind if kind >= BRANCH_COND else None,
            terminal_taken=terminal.taken,
        )

        # Train the FTB and the direction predictor with the true
        # outcome.
        if kind == BRANCH_COND:
            self.predictor.update(terminal_pc, ckpt_history, terminal.taken)
            if predicted_cond and terminal_pc == boundary:
                self.predictor.record_outcome(pred_taken == terminal.taken)
            elif not mispredict:
                # Correct path: speculative history already holds the
                # (correct) predicted bit when a prediction was made;
                # otherwise push the true outcome now.
                self._history = ((self._history << 1) | terminal.taken) \
                    & self._history_mask
        if mispredict and redirects:
            self.ftb.install(FTBEntry(
                start=start,
                fallthrough=terminal_pc + INSTRUCTION_BYTES,
                target=None if kind == RETURN else terminal.next_pc,
                kind=kind,
            ))
        self.stats.histogram("fetch_block_instrs").observe(n_records)

        if mispredict:
            ftq_entry.ckpt_history = ckpt_history
            ftq_entry.ckpt_ras = ckpt_ras
            ftq_entry.predicted_cond = predicted_cond
            self._pending_mispredict = ftq_entry
            self._wrong_pc = predicted_next
            self.stats.mispredicts += 1
            self._classify_mispredict(ftb_entry, terminal, boundary)
        else:
            self._cursor = j + 1

        return ftq_entry

    def _classify_mispredict(self, entry: FTBEntry | None, terminal,
                             boundary: int) -> None:
        kind = terminal.kind
        if entry is None:
            self.stats.mispredict_ftb_miss += 1
        elif terminal.pc != boundary:
            self.stats.mispredict_embedded_branch += 1
        elif kind == BRANCH_COND:
            self.stats.mispredict_direction += 1
        elif kind == RETURN:
            self.stats.mispredict_return += 1
        elif kind == JUMP_INDIRECT or kind == CALL_INDIRECT:
            self.stats.mispredict_indirect_target += 1
        else:
            self.stats.mispredict_other += 1
