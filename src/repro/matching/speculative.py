"""Speculative parallel DFA computation — paper Algorithm 3 (prior work).

Each chunk is scanned *from every DFA state simultaneously*, producing a
transformation ``T_i : Q → Q``; the chunk results compose associatively.
The per-character work is ``O(|D|)`` — the overhead the SFA construction
moves to compile time.  Two forms:

* :func:`speculative_run` — the paper's form and Table II baseline:
  chunks dispatched to an executor, each chunk one NumPy gather per
  character over all ``|D|`` states.
* :func:`sync_lanes_run` — the in-process form ``Plan(engine=
  "speculative")`` runs without an executor: ``p`` chunks advance as
  NumPy lanes of the minimal DFA's stride table (DESIGN.md §3.1).  A
  lane carries the runs of all live states only until they collapse
  into one state (runs that reach an absorbing state are decided and
  dropped), then advances that single state as the lockstep engine
  does.  For automata whose runs synchronize (:meth:`DFA.sync_fact
  <repro.automata.dfa.DFA.sync_fact>`) this answers without the D-SFA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.automata.dfa import DFA
from repro.automata.mapping import Transformation
from repro.automata.sfa import SFA
from repro.automata.stride import best_stride_table
from repro.errors import MatchEngineError
from repro.parallel.chunking import clamp_chunks, lockstep_layout, split_balanced
from repro.parallel.executor import ChunkExecutor, SerialExecutor
from repro.parallel.scan import KERNELS, lane_table, table_columns, transform_scan
from repro.regex.charclass import pack_stride


def chunk_transformation(table: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Simulate transitions from all states over one chunk (lines 1–7).

    Returns the transformation vector ``T`` with ``T[q]`` = state reached
    from ``q`` after the chunk.  One vectorized gather per character; the
    ``O(|D|)`` per-character cost is explicit in the gather width.
    """
    return transform_scan(table, classes)


def compose_transformations(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Associative reduction ``T_1 ⊙ T_2 ⊙ … ⊙ T_p`` (line 9, parallel)."""
    if not parts:
        raise MatchEngineError("nothing to reduce")
    acc = parts[0]
    for t in parts[1:]:
        acc = t[acc]  # apply acc first, then t
    return acc


@dataclass
class SpeculativeRunResult:
    """Outcome + work accounting of an Algorithm 3 run."""

    final_state: int
    accepted: bool
    num_chunks: int
    lookups: int  # total table lookups performed (work, not span)

    @property
    def lookups_per_char(self) -> float:
        return self.lookups / max(1, self._num_chars)

    _num_chars: int = 0


def speculative_run(
    dfa: DFA,
    classes: np.ndarray,
    num_chunks: int = 1,
    reduction: str = "sequential",
    executor: Optional[ChunkExecutor] = None,
    kernel: str = "python",
) -> SpeculativeRunResult:
    """Full Algorithm 3: chunked speculative scan + reduction.

    ``reduction`` ∈ {"sequential", "tree"}:

    * ``sequential`` — walk ``q0`` through ``T_1, …, T_p`` (lines 10–11
      right column): ``O(p)`` extra time, no composition needed.
    * ``tree`` — compose transformations pairwise (line 9 left column):
      each ``⊙`` costs ``O(|D|)`` work here (gather of width ``|D|``).

    ``executor`` dispatches the chunk scans (serial / threads / processes),
    exactly as in :func:`repro.matching.parallel_sfa.parallel_sfa_run`, and
    ``kernel`` likewise picks the scan kernel (DESIGN.md §3.5): for the
    all-states scan the stride kernels compose 2-/4-grams into the table
    and run the vector shape over the packed stream.  ``num_chunks`` is
    clamped to the symbol count so no empty chunk is dispatched.
    """
    if kernel not in KERNELS:
        raise MatchEngineError(f"unknown kernel {kernel!r}")
    executor = executor or SerialExecutor()
    n = dfa.num_states
    st = None
    if kernel in ("stride2", "stride4"):
        st = best_stride_table(dfa, 2 if kernel == "stride2" else 4)
    if st is not None:
        packed, tail = pack_stride(classes, dfa.num_classes, st.stride)
        spans = split_balanced(len(packed), clamp_chunks(len(packed), num_chunks))
        parts = list(
            executor.scan("transform", st.table, 0, packed, spans, "vector")
        )
        if len(tail):
            # compose the < stride leftover into the last chunk's mapping
            cols = table_columns(dfa.table)
            t = parts[-1]
            for c in tail.tolist():
                t = cols[c][t]
            parts[-1] = t
        lookups = (len(packed) + len(tail)) * n
    else:
        scan_kernel = kernel if kernel == "vector" else "python"
        spans = split_balanced(len(classes), clamp_chunks(len(classes), num_chunks))
        parts = list(
            executor.scan("transform", dfa.table, 0, classes, spans, scan_kernel)
        )
        lookups = len(classes) * n
    if reduction == "sequential":
        q = dfa.initial
        for t in parts:
            q = int(t[q])
    elif reduction == "tree":
        t_all = compose_transformations(parts)
        lookups += (len(parts) - 1) * n
        q = int(t_all[dfa.initial])
    else:
        raise MatchEngineError(f"unknown reduction {reduction!r}")
    res = SpeculativeRunResult(
        final_state=q,
        accepted=bool(dfa.accept[q]),
        num_chunks=len(parts),
        lookups=lookups,
    )
    res._num_chars = int(len(classes))
    return res


# ---------------------------------------------------------------------------
# Algorithm 3 in synchronizing lanes
# ---------------------------------------------------------------------------

#: Rows a lane scan collapses before lanes whose runs have not resolved
#: hand the scan over (:func:`sync_lanes_run`).
SYNC_ROW_BUDGET = 64

#: First-row entries (lanes x distinct live states) above which a lane
#: scan hands over at once: the collapse holds two ``intp`` arrays of
#: them, 64 MiB at this size.
SYNC_ENTRY_BUDGET = 1 << 22

#: The collapsing lanes drop decided and duplicate runs, and release the
#: lanes that resolved, every this many rows.
CHECK_EVERY = 4


@dataclass
class SyncLanesResult:
    """Outcome of a :func:`sync_lanes_run` scan."""

    accepted: bool
    final_state: int
    num_chunks: int
    collapse_rows: int  # rows stepped before every lane resolved
    entry_rows: int  # (lane, state) runs stepped while collapsing
    handed_over: bool  # over a budget: ran on the D-SFA, or chunk by chunk


def _lane_seeds(owner, absorbing: np.ndarray):
    """Collapsing-phase tables of a lane table's ``owner``, kept on it.

    Returns ``(flat, dead, seed, count, start)``: the lane table in
    ``intp`` (gathers index with it), the absorbing mask over scaled
    states, and per symbol ``s`` the distinct live states the live states
    reach on ``s`` — ``seed[start[s]:start[s] + count[s]]``, scaled — so
    the first row of every lane is one gather.
    """
    seeds = getattr(owner, "_sync_seeds", None)
    if seeds is None:
        table = owner.table
        n, k = table.shape
        flat = lane_table(owner).astype(np.intp)
        dead = np.repeat(absorbing, k)
        live = np.flatnonzero(~absorbing)
        pairs = np.unique(np.arange(k) * n + table[live])  # (symbol, image)
        sym, img = np.divmod(pairs, n)
        keep = ~absorbing[img]
        sym, img = sym[keep], img[keep]
        count = np.bincount(sym, minlength=k)
        start = np.cumsum(count) - count
        seeds = (flat, dead, img.astype(np.intp) * k, count, start)
        object.__setattr__(owner, "_sync_seeds", seeds)
    return seeds


def sync_lanes_run(
    dfa: DFA,
    classes: np.ndarray,
    num_chunks: int = 1,
    kernel: str = "python",
    *,
    handover: Optional[Callable[[], SFA]] = None,
) -> SyncLanesResult:
    """Algorithm 3 over ``p`` NumPy lanes of the minimal DFA's table.

    The input is laid out as the lockstep engine lays it out (``p`` equal
    chunks of the stride-packed stream, one per lane, plus a ``< p`` tail
    and a ``< stride`` leftover that finish the last chunk).  Lane 0
    starts in the initial state.  Every other lane carries one entry per
    distinct live state its chunk reaches from the live states, and at
    check rows drops the entries that entered an absorbing state (those
    runs are decided) or equal a neighbour (their futures are one).  A
    lane whose entries are down to one state has *resolved*: from then on
    one dense vector advances a single state per lane, two NumPy calls
    per row as in :func:`~repro.matching.lockstep.lockstep_run`.

    The reduction needs each lane's map only at the state the lanes
    before it leave: walk lane ``i`` from the final state of lane
    ``i - 1`` over the collapsing rows (one more vector pass over the
    ``R`` rows, all lanes at once).  A run that meets the lane's single
    state there ends where the lane ends; one that does not entered an
    absorbing state, which is the scan's final state.  So the reduction
    stops at the first absorbing state.

    Lanes still unresolved after :data:`SYNC_ROW_BUDGET` rows, or more
    than :data:`SYNC_ENTRY_BUDGET` first-row entries, hand the scan to
    :func:`~repro.matching.lockstep.lockstep_run` over the D-SFA that
    ``handover()`` returns.  Without one (``handover`` is ``None``) the
    scan runs chunk by chunk as :func:`speculative_run`, in ``O(|D|)``
    memory.
    """
    if kernel not in KERNELS:
        raise MatchEngineError(f"unknown kernel {kernel!r}")
    absorbing = dfa.absorbing_mask()
    owner, scan, leftover = dfa, classes, classes[:0]
    if kernel in ("stride2", "stride4"):
        st = best_stride_table(dfa, 2 if kernel == "stride2" else 4)
        if st is not None:
            scan, leftover = st.pack(classes)
            owner = st
    lanes = lane_table(owner)
    k = owner.table.shape[1]
    p = clamp_chunks(len(scan), num_chunks)
    block, tail = lockstep_layout(scan, p)
    if not np.can_cast(block.dtype, lanes.dtype):
        block = block.astype(lanes.dtype)  # wide symbols: exact, they are < k
    rows = block.shape[0]
    flat, dead, seed, count, start = _lane_seeds(owner, absorbing)

    def hand_over(rows_run: int, entries: int) -> SyncLanesResult:
        if handover is None:
            res = speculative_run(dfa, classes, num_chunks, kernel=kernel)
            q, chunks = res.final_state, res.num_chunks
        else:
            from repro.matching.lockstep import lockstep_run

            run = lockstep_run(handover(), classes, num_chunks, kernel)
            q, chunks = run.final_states[0], run.num_chunks
        return SyncLanesResult(
            bool(dfa.accept[q]), q, chunks, rows_run, entries, True
        )

    single = np.full(p, dfa.initial * k, dtype=lanes.dtype)
    tmp = np.empty_like(single)
    j = entry_rows = 0
    if rows:
        # First row: every lane but lane 0 from its seed set.
        sym = block[0, 1:]
        cnt = count[sym]
        if cnt.sum() > SYNC_ENTRY_BUDGET:
            return hand_over(0, 0)
        row = block[0]
        np.add(single, row, out=tmp)
        lanes.take(tmp, out=single, mode="clip")
        ln = np.repeat(np.arange(1, p), cnt)
        ends = np.cumsum(cnt)
        st_ = seed[np.arange(len(ln)) + np.repeat(start[sym] - ends + cnt, cnt)]
        j = 1
        while len(st_):
            if j % CHECK_EVERY == 0 or j == rows:
                drop = dead[st_]
                drop[1:] |= (ln[1:] == ln[:-1]) & (st_[1:] == st_[:-1])
                keep = np.flatnonzero(~drop)
                st_, ln = st_[keep], ln[keep]
                if len(st_):
                    many = np.zeros(p, dtype=bool)
                    many[ln[1:][ln[1:] == ln[:-1]]] = True
                    done = ~many[ln]
                    single[ln[done]] = st_[done]
                    keep = np.flatnonzero(~done)
                    st_, ln = st_[keep], ln[keep]
                if not len(st_) or j == rows:
                    break
                if j >= SYNC_ROW_BUDGET:
                    return hand_over(j, entry_rows)
            row = block[j]
            np.add(single, row, out=tmp)
            lanes.take(tmp, out=single, mode="clip")
            st_ += row[ln]
            st_ = flat[st_]
            entry_rows += len(st_)
            j += 1
    collapse = j
    snap = single.copy()
    for row in block[collapse:]:
        np.add(single, row, out=tmp)
        lanes.take(tmp, out=single, mode="clip")

    if rows:
        q = _reduce(dfa.initial * k, single, snap, block, collapse, lanes, dead) // k
    else:
        q = dfa.initial
    if not absorbing[q]:
        for c in tail.tolist():
            q = owner.table.item(q, c)
        for c in leftover.tolist():
            q = dfa.table.item(q, c)
    return SyncLanesResult(
        accepted=bool(dfa.accept[q]),
        final_state=q,
        num_chunks=p,
        collapse_rows=collapse,
        entry_rows=entry_rows,
        handed_over=False,
    )


def _reduce(
    initial: int,
    final: np.ndarray,
    snap: np.ndarray,
    block: np.ndarray,
    collapse: int,
    lanes: np.ndarray,
    dead: np.ndarray,
) -> int:
    """The scaled state after the block: the lanes' maps walked in order.

    Lane ``i``'s map is needed only at the state the lanes before it
    leave, which is the final state of lane ``i - 1`` as long as every
    lane so far merged.  One vector pass runs every lane from there over
    its ``collapse`` rows; lane ``i`` merged if that run meets the lane's
    single state (``snap``).  The walk stops at the first lane that did
    not merge (its run entered an absorbing state, which is final) or
    whose incoming state is absorbing.  If the block ended before every
    lane resolved (``collapse == rows``), the vector pass ran whole lanes
    and is exact from the state it started in; a lane entered from any
    other state is then walked alone.
    """
    p = len(final)
    run = np.empty_like(final)
    run[0] = initial
    run[1:] = final[:-1]
    entered = run.copy()
    tmp = np.empty_like(run)
    for row in block[:collapse]:
        np.add(run, row, out=tmp)
        lanes.take(tmp, out=run, mode="clip")
    if collapse < len(block):
        stop = np.flatnonzero(dead[entered] | (run != snap))
        if not len(stop):
            return int(final[-1])
        i = int(stop[0])
        return int(entered[i] if dead[entered[i]] else run[i])
    state = initial
    for i in range(p):
        if dead[state]:
            break
        if state == entered[i]:
            state = int(run[i])
        else:
            for c in block[:, i].tolist():
                state = lanes.item(state + c)
    return int(state)


class SpeculativeDFAMatcher:
    """Object wrapper around Algorithm 3 for a fixed DFA."""

    name = "dfa-speculative"

    def __init__(
        self,
        dfa: DFA,
        num_chunks: int = 2,
        reduction: str = "sequential",
        executor: Optional[ChunkExecutor] = None,
        kernel: str = "python",
    ):
        if num_chunks < 1:
            raise MatchEngineError("num_chunks must be >= 1")
        if kernel not in KERNELS:
            raise MatchEngineError(f"unknown kernel {kernel!r}")
        self.dfa = dfa
        self.num_chunks = num_chunks
        self.reduction = reduction
        self.executor = executor
        self.kernel = kernel

    def run_classes(self, classes: np.ndarray) -> int:
        return speculative_run(
            self.dfa, classes, self.num_chunks, self.reduction, self.executor,
            self.kernel,
        ).final_state

    def accepts_classes(self, classes: np.ndarray) -> bool:
        return speculative_run(
            self.dfa, classes, self.num_chunks, self.reduction, self.executor,
            self.kernel,
        ).accepted

    def accepts(self, data: bytes) -> bool:
        return self.accepts_classes(self.dfa.partition.translate(data))

    def chunk_mapping(self, classes: np.ndarray) -> Transformation:
        """The mapping computed for one chunk, as a mapping object.

        Tests use this to check the key SFA property: the mapping equals
        the one stored at the SFA state reached on the same chunk.
        """
        return Transformation(chunk_transformation(self.dfa.table, classes))

    def lookups_per_char(self) -> float:
        """Table lookups per char (Table II: ``|D|`` per char per chunk)."""
        return float(self.dfa.num_states)
