"""Speculative parallel DFA computation — paper Algorithm 3 (prior work).

Each chunk is scanned *from every DFA state simultaneously*, producing a
transformation ``T_i : Q → Q``; the chunk results compose associatively.
The per-character work is ``O(|D|)`` — the overhead the SFA construction
moves to compile time.  We vectorize the inner all-states step with one
NumPy gather per character, which is exactly the algorithm's data layout
(``T`` is a vector indexed by state).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.automata.dfa import DFA
from repro.automata.mapping import Transformation
from repro.automata.stride import best_stride_table
from repro.errors import MatchEngineError
from repro.parallel.chunking import clamp_chunks, split_balanced
from repro.parallel.executor import ChunkExecutor, SerialExecutor
from repro.parallel.scan import KERNELS, table_columns, transform_scan
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
