"""Lockstep (SIMD-style) realization of Algorithm 5.

The ``p`` chunk scans of Algorithm 5 are independent and structurally
identical, so instead of ``p`` OS threads we advance all ``p`` SFA states in
lockstep, one chunk per NumPy *lane*, with two vector calls per position:

    tmp = states + column_j;  states = lanes[tmp]     # shape (p,)

where ``lanes`` is the transition table flattened with entries pre-scaled
by its width (:func:`~repro.parallel.scan.lane_table`, built once per
table and kept on its owner) and ``states`` holds scaled states.  This is
data parallelism in the original Hillis–Steele sense and the measured
substitute for the paper's pthread runs (DESIGN.md §3): per input symbol
the interpreter executes ``O(1/p)`` loop iterations, so a scan of ``m``
symbols costs ``m/p`` steps of fixed dispatch plus ``m`` element
operations — with ``p ≈ √m`` lanes (the planner's choice above
:data:`~repro.planning.planner.LANE_ACCEPT_MIN`) both terms are small and
the ``O(p)`` reduction is negligible, the paper's ``O(n/p + p)``
trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.automata.sfa import SFA
from repro.automata.stride import best_stride_table
from repro.errors import MatchEngineError
from repro.parallel.chunking import clamp_chunks, lockstep_layout
from repro.parallel.reduction import (
    sequential_reduction_dsfa,
    sequential_reduction_nsfa,
)
from repro.parallel.scan import KERNELS, lane_table


@dataclass
class LockstepRunResult:
    """Outcome of a lockstep Algorithm 5 run."""

    accepted: bool
    final_states: List[int]
    chunk_states: List[int]
    num_chunks: int
    steps: int  # lockstep steps executed (≈ n / p)


def lockstep_run(
    sfa: SFA,
    classes: np.ndarray,
    num_chunks: int = 1,
    kernel: str = "python",
    stride_budget: Optional[int] = None,
) -> LockstepRunResult:
    """Run Algorithm 5 with all chunk scans advancing in lockstep.

    The input is cut into ``p`` equal chunks plus a ``< p`` tail; the tail
    extends the last chunk and is scanned scalar after the lockstep block
    (chunk boundaries stay contiguous, so Lemma 1 applies unchanged).
    ``p`` is clamped to the symbol count, so the block never degenerates to
    ``m == 0`` with the whole input in the tail.

    ``kernel`` ∈ :data:`~repro.parallel.scan.KERNELS`: the stride kernels
    advance every chunk by 2/4 symbols per gather via a precomposed
    superalphabet table (budget-permitting, degrading stride4 → stride2 →
    1-gram; ``stride_budget`` overrides the default table-byte cap);
    ``"vector"`` is accepted as an alias of ``"python"`` — this engine is
    already fully vectorized.
    """
    if kernel not in KERNELS:
        raise MatchEngineError(f"unknown kernel {kernel!r}")
    owner = sfa
    scan_classes = classes
    stride_tail = None
    if kernel in ("stride2", "stride4"):
        st = best_stride_table(
            sfa, 2 if kernel == "stride2" else 4, stride_budget
        )
        if st is not None:
            scan_classes, stride_tail = st.pack(classes)
            owner = st
    flat = lane_table(owner)
    k = owner.table.shape[1]
    p = clamp_chunks(len(scan_classes), num_chunks)
    block, tail = lockstep_layout(scan_classes, p)
    if not np.can_cast(block.dtype, flat.dtype):
        block = block.astype(flat.dtype)  # wide symbols: exact, they are < k
    m = block.shape[0]

    # Hot loop: two vector calls per position on scaled states
    # (``f == state * k``), in the lane table's narrow dtype throughout.
    states = np.full(p, sfa.initial * k, dtype=flat.dtype)
    tmp = np.empty_like(states)
    for row in block:
        np.add(states, row, out=tmp)
        flat.take(tmp, out=states, mode="clip")
    scaled = states.tolist()
    # The < p tail finishes the last chunk one lookup at a time.
    f = scaled[-1]
    for c in tail.tolist():
        f = flat.item(f + c)
    scaled[-1] = f
    chunk_states = [s // k for s in scaled]
    if stride_tail is not None and len(stride_tail):
        # the < stride leftover runs on the base table
        q = chunk_states[-1]
        for c in stride_tail.tolist():
            q = sfa.table.item(q, c)
        chunk_states[-1] = q

    if sfa.kind == "D-SFA":
        q = sequential_reduction_dsfa(sfa.maps, chunk_states, sfa.origin_initial)
        finals = [q]
        accepted = bool(sfa.origin_final[q])
    else:
        row = sequential_reduction_nsfa(sfa.maps, chunk_states, sfa.origin_initial)
        finals = np.nonzero(row)[0].tolist()
        accepted = bool((row & sfa.origin_final).any())

    return LockstepRunResult(
        accepted=accepted,
        final_states=finals,
        chunk_states=chunk_states,
        num_chunks=p,
        steps=m + len(tail) + (len(stride_tail) if stride_tail is not None else 0),
    )


class LockstepSFAMatcher:
    """Object wrapper around the lockstep engine for a fixed SFA."""

    name = "sfa-lockstep"

    def __init__(self, sfa: SFA, num_chunks: int = 8, kernel: str = "python"):
        if num_chunks < 1:
            raise MatchEngineError("num_chunks must be >= 1")
        if kernel not in KERNELS:
            raise MatchEngineError(f"unknown kernel {kernel!r}")
        self.sfa = sfa
        self.num_chunks = num_chunks
        self.kernel = kernel

    def run_classes(self, classes: np.ndarray) -> LockstepRunResult:
        return lockstep_run(self.sfa, classes, self.num_chunks, self.kernel)

    def accepts_classes(self, classes: np.ndarray) -> bool:
        return self.run_classes(classes).accepted

    def accepts(self, data: bytes) -> bool:
        return self.accepts_classes(self.sfa.partition.translate(data))

    def lookups_per_char(self) -> float:
        return 1.0
