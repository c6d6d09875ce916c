"""Parallel SFA computation — paper Algorithm 5.

Each chunk is scanned with *one* SFA state per thread and one table lookup
per character (the whole point of the SFA: the all-states simulation was
pre-evaluated into the automaton).  Chunk results — SFA state indices — are
then reduced sequentially (``O(p)``) or as a composition tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.automata.sfa import SFA
from repro.automata.stride import best_stride_table
from repro.errors import MatchEngineError
from repro.parallel.chunking import clamp_chunks, split_balanced
from repro.parallel.executor import ChunkExecutor, SerialExecutor
from repro.parallel.reduction import (
    sequential_reduction_dsfa,
    sequential_reduction_nsfa,
    tree_reduction_boolean,
    tree_reduction_transformations,
)
from repro.parallel.scan import KERNELS, sfa_scan
from repro.regex.charclass import pack_stride


def sfa_chunk_scan(table: np.ndarray, initial: int, classes: np.ndarray) -> int:
    """Lines 1–5 of Algorithm 5 for one chunk: a plain Algorithm-2 loop."""
    return sfa_scan(table, initial, classes)


@dataclass
class ParallelSFARunResult:
    """Outcome + work accounting of an Algorithm 5 run."""

    accepted: bool
    final_states: List[int]  # S_fin: original-automaton destination states
    chunk_states: List[int]  # per-chunk SFA state indices
    num_chunks: int
    lookups: int  # total SFA table lookups (one per char)
    reduction: str = "sequential"
    reduction_ops: int = 0

    final_mapping_state: Optional[int] = field(default=None)
    # SFA state index of the ⊙-product (tree reduction only)


def parallel_sfa_run(
    sfa: SFA,
    classes: np.ndarray,
    num_chunks: int = 1,
    reduction: str = "sequential",
    executor: Optional[ChunkExecutor] = None,
    kernel: str = "python",
    stride_budget: Optional[int] = None,
) -> ParallelSFARunResult:
    """Full Algorithm 5.

    ``reduction`` ∈ {"sequential", "tree"}; ``executor`` controls how chunk
    scans are dispatched — serial by default, a thread pool for the paper's
    pthread structure, or a :class:`~repro.parallel.executor.ProcessExecutor`
    for true multicore execution (the spans-based :meth:`scan` protocol lets
    the process backend ship shared-memory references instead of tables).

    ``kernel`` picks the chunk-scan kernel (DESIGN.md §3.5): ``"python"``
    is the reference per-byte loop, ``"stride2"``/``"stride4"`` scan a
    precomposed superalphabet table so each lookup consumes 2/4 symbols
    (degrading to the largest affordable stride — then ``"python"`` — when
    a table exceeds its byte budget; ``stride_budget`` overrides the
    default cap), and ``"vector"`` block-composes mappings in NumPy.
    ``num_chunks`` is clamped to the symbol count so no empty chunk is
    ever dispatched.
    """
    if kernel not in KERNELS:
        raise MatchEngineError(f"unknown kernel {kernel!r}")
    executor = executor or SerialExecutor()
    st = None
    if kernel in ("stride2", "stride4"):
        st = best_stride_table(
            sfa, 2 if kernel == "stride2" else 4, stride_budget
        )
    if st is not None:
        # Scan n/stride superalphabet symbols; the < stride tail of the
        # last chunk is finished with the base table after dispatch.
        packed, tail = pack_stride(classes, sfa.num_classes, st.stride)
        spans = split_balanced(len(packed), clamp_chunks(len(packed), num_chunks))
        chunk_states = list(
            executor.scan("sfa", st.table, sfa.initial, packed, spans)
        )
        if len(tail):
            chunk_states[-1] = sfa_scan(sfa.table, chunk_states[-1], tail)
        lookups = len(packed) + len(tail)
    else:
        scan_kernel = kernel if kernel == "vector" else "python"
        spans = split_balanced(len(classes), clamp_chunks(len(classes), num_chunks))
        chunk_states = list(
            executor.scan("sfa", sfa.table, sfa.initial, classes, spans, scan_kernel)
        )
        lookups = int(len(classes))

    if reduction == "sequential":
        if sfa.kind == "D-SFA":
            q = sequential_reduction_dsfa(sfa.maps, chunk_states, sfa.origin_initial)
            finals = [q]
            accepted = bool(sfa.origin_final[q])
        else:
            row = sequential_reduction_nsfa(sfa.maps, chunk_states, sfa.origin_initial)
            finals = np.nonzero(row)[0].tolist()
            accepted = bool((row & sfa.origin_final).any())
        red_ops = len(chunk_states)
        fstate = None
    elif reduction == "tree":
        if sfa.kind == "D-SFA":
            prod = tree_reduction_transformations([sfa.maps[i] for i in chunk_states])
        else:
            prod = tree_reduction_boolean([sfa.maps[i] for i in chunk_states])
        # The ⊙-product of reachable mappings is itself a reachable mapping
        # (monoid closure), so it corresponds to an SFA state.
        fstate = _locate_state(sfa, prod)
        if sfa.kind == "D-SFA":
            q = int(prod[sfa.origin_initial])
            finals = [q]
            accepted = bool(sfa.origin_final[q])
        else:
            row = np.zeros(sfa.origin_size, dtype=bool)
            for q0 in sfa.origin_initial:
                row |= prod[q0]
            finals = np.nonzero(row)[0].tolist()
            accepted = bool((row & sfa.origin_final).any())
        red_ops = max(0, len(chunk_states) - 1)
    else:
        raise MatchEngineError(f"unknown reduction {reduction!r}")

    return ParallelSFARunResult(
        accepted=accepted,
        final_states=finals,
        chunk_states=list(chunk_states),
        num_chunks=len(spans),
        lookups=lookups,
        reduction=reduction,
        reduction_ops=red_ops,
        final_mapping_state=fstate,
    )


def _locate_state(sfa: SFA, mapping: np.ndarray) -> Optional[int]:
    """Find the SFA state index holding ``mapping`` (None if not interned)."""
    if sfa.kind == "D-SFA":
        key = np.ascontiguousarray(mapping, dtype=np.int32).tobytes()
    else:
        key = np.packbits(np.ascontiguousarray(mapping, dtype=bool)).tobytes()
    try:
        return sfa._index_of_map(key)
    except Exception:
        return None


class ParallelSFAMatcher:
    """Object wrapper around Algorithm 5 for a fixed SFA."""

    name = "sfa-parallel"

    def __init__(
        self,
        sfa: SFA,
        num_chunks: int = 2,
        reduction: str = "sequential",
        executor: Optional[ChunkExecutor] = None,
        kernel: str = "python",
    ):
        if num_chunks < 1:
            raise MatchEngineError("num_chunks must be >= 1")
        if reduction not in ("sequential", "tree"):
            raise MatchEngineError(f"unknown reduction {reduction!r}")
        if kernel not in KERNELS:
            raise MatchEngineError(f"unknown kernel {kernel!r}")
        self.sfa = sfa
        self.num_chunks = num_chunks
        self.reduction = reduction
        self.executor = executor or SerialExecutor()
        self.kernel = kernel

    def run_classes(self, classes: np.ndarray) -> ParallelSFARunResult:
        return parallel_sfa_run(
            self.sfa,
            classes,
            self.num_chunks,
            self.reduction,
            self.executor,
            self.kernel,
        )

    def accepts_classes(self, classes: np.ndarray) -> bool:
        return self.run_classes(classes).accepted

    def accepts(self, data: bytes) -> bool:
        return self.accepts_classes(self.sfa.partition.translate(data))

    def lookups_per_char(self) -> float:
        """Table lookups per char (Table II: exactly 1, SFA's key property)."""
        return 1.0
