"""Deterministic finite automata: subset construction and minimization.

The DFA transition function is a dense NumPy ``int32`` table of shape
``(num_states, num_classes)`` — the "table-look-up technique" the paper uses
for both DFA and SFA matching.  Subset construction is paper Algorithm 1;
minimization offers a vectorized Moore refinement (default) and classic
Hopcroft (cross-checked in tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.automata.nfa import NFA
from repro.errors import AutomatonError, StateExplosionError
from repro.regex.charclass import ByteClassPartition
from repro.util.bitset import iter_bits


@dataclass
class DFA:
    """A complete DFA over the class-compressed alphabet.

    Attributes
    ----------
    table:
        ``int32`` array of shape ``(num_states, num_classes)``;
        ``table[q, c]`` is ``δ(q, c)``.  The DFA is always complete.
    initial:
        the start state index.
    accept:
        boolean array of shape ``(num_states,)``.
    partition:
        byte-class partition used to translate raw bytes, or ``None``.
    subset_of:
        for DFAs produced by subset construction, ``subset_of[q]`` is the
        bitmask of NFA states this DFA state stands for (else ``None``).
    """

    table: np.ndarray
    initial: int
    accept: np.ndarray
    partition: Optional[ByteClassPartition] = None
    subset_of: Optional[List[int]] = None

    def __post_init__(self) -> None:
        self.table = np.ascontiguousarray(self.table, dtype=np.int32)
        self.accept = np.ascontiguousarray(self.accept, dtype=bool)
        n, _ = self.table.shape
        if self.accept.shape != (n,):
            raise AutomatonError("accept length != num_states")
        if not (0 <= self.initial < n):
            raise AutomatonError("initial state out of range")
        if self.table.size and (self.table.min() < 0 or self.table.max() >= n):
            raise AutomatonError("transition target out of range")

    # -- basic properties ---------------------------------------------
    @property
    def num_states(self) -> int:
        return self.table.shape[0]

    @property
    def num_classes(self) -> int:
        return self.table.shape[1]

    @property
    def size(self) -> int:
        """``|D|`` — the number of states."""
        return self.num_states

    @property
    def num_materialized(self) -> int:
        """States created so far — for an eager DFA, all of them (the
        :class:`~repro.automata.backend.AutomatonBackend` view)."""
        return self.num_states

    def table_bytes(self, expanded: bool = False) -> int:
        """Transition-table memory footprint in bytes.

        With ``expanded=True`` this reports the paper's layout (256 symbols
        × 4 bytes = 1 KB per state) rather than the class-compressed one.
        """
        width = 256 if expanded else self.num_classes
        return self.num_states * width * 4

    def trap_states(self) -> np.ndarray:
        """Non-accepting states with only self-loops (explicit fail sinks)."""
        self_loop = (self.table == np.arange(self.num_states)[:, None]).all(axis=1)
        return np.nonzero(self_loop & ~self.accept)[0]

    @property
    def partial_size(self) -> int:
        """State count under the *partial automaton* convention.

        The paper's matcher (regen) represents the fail sink implicitly, so
        its reported ``|D|`` excludes it — e.g. ``r_5`` is 10 there and 11
        here.  This property reproduces that count.  The worked example of
        Figs. 1–2 uses the complete convention (``|D1| = 3`` including the
        sink), which is plain ``size``.
        """
        return self.num_states - len(self.trap_states())

    # -- execution ------------------------------------------------------
    def step(self, state: int, cls: int) -> int:
        return int(self.table[state, cls])

    def run_classes(self, classes: Iterable[int], start: Optional[int] = None) -> int:
        """Paper Algorithm 2: sequential table-lookup run."""
        q = self.initial if start is None else start
        table = self.table
        for c in classes:
            q = table[q, c]
        return int(q)

    def accepts_classes(self, classes: Iterable[int]) -> bool:
        return bool(self.accept[self.run_classes(classes)])

    def accepts(self, data: bytes) -> bool:
        if self.partition is None:
            raise AutomatonError("byte input needs a ByteClassPartition")
        return self.accepts_classes(self.partition.translate(data))

    def stride_table(self, stride: int, max_table_bytes: Optional[int] = None):
        """Budget-capped ``stride``-gram precomposition of the table.

        Returns a :class:`~repro.automata.stride.StrideTable` (memoized on
        this DFA) or ``None`` when ``|D|·k^stride`` entries exceed the
        table-byte budget — callers fall back to the 1-gram table.
        """
        from repro.automata.stride import cached_stride_table

        return cached_stride_table(self, stride, max_table_bytes)

    # -- views ------------------------------------------------------------
    def byte_table(self) -> np.ndarray:
        """Expand to a full 256-wide byte-symbol table (paper layout)."""
        if self.partition is None:
            raise AutomatonError("no partition; alphabet is symbolic")
        return np.ascontiguousarray(self.table[:, self.partition.classmap])

    def letter_transformations(self) -> np.ndarray:
        """Per-class state transformations, shape ``(num_classes, n)``.

        Column view of the table: ``out[c]`` is the transformation
        ``q ↦ δ(q, c)`` — the generators of the transition monoid, i.e. the
        immediate successors of the SFA identity state.
        """
        return np.ascontiguousarray(self.table.T)

    def reachable_mask(self) -> np.ndarray:
        """Boolean array marking states reachable from the initial state."""
        n = self.num_states
        seen = np.zeros(n, dtype=bool)
        seen[self.initial] = True
        frontier = np.array([self.initial], dtype=np.int64)
        while frontier.size:
            nxt = np.unique(self.table[frontier].ravel())
            fresh = nxt[~seen[nxt]]
            seen[fresh] = True
            frontier = fresh
        return seen

    def __repr__(self) -> str:
        return (
            f"DFA(states={self.num_states}, classes={self.num_classes}, "
            f"accepting={int(self.accept.sum())})"
        )


# ---------------------------------------------------------------------------
# Subset construction (paper Algorithm 1)
# ---------------------------------------------------------------------------


def subset_construction(nfa: NFA, max_states: Optional[int] = None) -> DFA:
    """Determinize ``nfa`` (Rabin–Scott; paper Algorithm 1).

    Only accessible subsets are materialized.  ``max_states`` bounds the
    worst-case ``2^n`` blow-up; exceeding it raises
    :class:`~repro.errors.StateExplosionError`.
    """
    k = nfa.num_classes
    index: Dict[int, int] = {nfa.initial: 0}
    subsets: List[int] = [nfa.initial]
    rows: List[List[int]] = []
    i = 0
    while i < len(subsets):
        s = subsets[i]
        row = [0] * k
        for c in range(k):
            nxt = 0
            for q in iter_bits(s):
                nxt |= nfa.trans[q][c]
            if nxt not in index:
                if max_states is not None and len(subsets) >= max_states:
                    raise StateExplosionError(
                        "subset construction exceeded state budget",
                        max_states,
                        len(subsets) + 1,
                    )
                index[nxt] = len(subsets)
                subsets.append(nxt)
            row[c] = index[nxt]
        rows.append(row)
        i += 1
    table = np.array(rows, dtype=np.int32)
    accept = np.array([(s & nfa.final) != 0 for s in subsets], dtype=bool)
    return DFA(table, 0, accept, nfa.partition, subset_of=subsets)


# ---------------------------------------------------------------------------
# Minimization
# ---------------------------------------------------------------------------


def trim(dfa: DFA) -> DFA:
    """Restrict to states reachable from the initial state."""
    mask = dfa.reachable_mask()
    if mask.all():
        return dfa
    old_ids = np.nonzero(mask)[0]
    remap = -np.ones(dfa.num_states, dtype=np.int32)
    remap[old_ids] = np.arange(old_ids.size, dtype=np.int32)
    table = remap[dfa.table[old_ids]]
    accept = dfa.accept[old_ids]
    subset_of = (
        [dfa.subset_of[i] for i in old_ids] if dfa.subset_of is not None else None
    )
    return DFA(table, int(remap[dfa.initial]), accept, dfa.partition, subset_of)


def moore_partition(dfa: DFA) -> np.ndarray:
    """Moore refinement: return the block id of every state.

    Vectorized: each round builds per-state signatures
    ``(block, block[δ(q,0)], …, block[δ(q,k-1)])`` and re-numbers them by
    their rank among the distinct signatures until a fixpoint —
    ``O(rounds · n·k·log n)`` with tiny constants, which beats
    pointer-chasing Hopcroft in NumPy.  A signature is ranked as one
    fixed-width byte key (a void view of its big-endian row), so each
    round is a single 1-D sort; big-endian keys compare in the rows'
    numeric order, so the block numbering is that of a row-wise sort.
    """
    n, k = dfa.table.shape
    dt = np.dtype(">u1" if n <= 1 << 8 else ">u2" if n <= 1 << 16 else ">u4")
    key = f"V{(k + 1) * dt.itemsize}"
    sig = np.empty((n, k + 1), dtype=dt)
    labels = dfa.accept.astype(np.int64)
    while True:
        sig[:, 0] = labels
        sig[:, 1:] = sig[:, 0][dfa.table]
        _, new_labels = np.unique(sig.view(key).ravel(), return_inverse=True)
        if np.array_equal(new_labels, labels):
            return labels
        labels = new_labels


def hopcroft_partition(dfa: DFA) -> np.ndarray:
    """Hopcroft-style partition refinement (the tests' cross-check).

    Not the ``O(n·k·log n)`` textbook bound: each of the ``O(n·k)``
    splitters popped from the worklist rescans every current block, so
    the worst case is ``O(k·n²)`` set operations — tens of seconds on a
    16k-state DFA, which is why :func:`moore_partition` is the default.
    """
    n, k = dfa.table.shape
    inv: List[List[List[int]]] = [
        [[] for _ in range(n)] for _ in range(k)
    ]  # inv[c][t] = sources mapping to t on c
    for q in range(n):
        for c in range(k):
            inv[c][int(dfa.table[q, c])].append(q)

    block_of = np.zeros(n, dtype=np.int64)
    accepting = set(np.nonzero(dfa.accept)[0].tolist())
    rejecting = set(np.nonzero(~dfa.accept)[0].tolist())
    blocks: List[set] = []
    for s in (accepting, rejecting):
        if s:
            for q in s:
                block_of[q] = len(blocks)
            blocks.append(set(s))
    worklist = {(b, c) for b in range(len(blocks)) for c in range(k)}
    while worklist:
        b, c = worklist.pop()
        # states with a c-transition into block b
        x = set()
        for t in blocks[b]:
            x.update(inv[c][t])
        if not x:
            continue
        for bi in range(len(blocks)):
            blk = blocks[bi]
            inter = blk & x
            if not inter or len(inter) == len(blk):
                continue
            diff = blk - inter
            small, large = (inter, diff) if len(inter) <= len(diff) else (diff, inter)
            blocks[bi] = large
            new_id = len(blocks)
            blocks.append(small)
            for q in small:
                block_of[q] = new_id
            # ``small`` is the lighter half, so adding it keeps the
            # classic "smaller half" bound whether or not (bi, cc) is queued.
            for cc in range(k):
                worklist.add((new_id, cc))
    # renumber stably by first occurrence
    order: Dict[int, int] = {}
    out = np.empty(n, dtype=np.int64)
    for q in range(n):
        bid = int(block_of[q])
        if bid not in order:
            order[bid] = len(order)
        out[q] = order[bid]
    return out


def _quotient(dfa: DFA, labels: np.ndarray) -> DFA:
    """Collapse states with equal labels into one state each."""
    num_blocks = int(labels.max()) + 1 if labels.size else 0
    rep = np.zeros(num_blocks, dtype=np.int64)
    seen = np.zeros(num_blocks, dtype=bool)
    for q in range(dfa.num_states):
        b = int(labels[q])
        if not seen[b]:
            seen[b] = True
            rep[b] = q
    table = labels[dfa.table[rep]].astype(np.int32)
    accept = dfa.accept[rep]
    return DFA(table, int(labels[dfa.initial]), accept, dfa.partition)


def minimize(dfa: DFA, method: str = "moore") -> DFA:
    """Return the minimal DFA equivalent to ``dfa``.

    Reachability-trims first, then merges Myhill–Nerode-equivalent states
    using ``method`` ∈ {"moore", "hopcroft"}.
    """
    dfa = trim(dfa)
    if method == "moore":
        labels = moore_partition(dfa)
    elif method == "hopcroft":
        labels = hopcroft_partition(dfa)
    else:
        raise ValueError(f"unknown minimization method {method!r}")
    return _quotient(dfa, labels)


def dfa_from_transformations(
    generators: np.ndarray,
    initial: int,
    accept: Iterable[int],
    partition: Optional[ByteClassPartition] = None,
) -> DFA:
    """Build a DFA directly from per-letter transformations.

    ``generators`` has shape ``(k, n)``; ``generators[c][q]`` = ``δ(q, c)``.
    Used by the theory witness families (Sect. VII) where the language is
    defined by its transition monoid rather than by a readable regex.
    """
    generators = np.asarray(generators, dtype=np.int32)
    k, n = generators.shape
    table = np.ascontiguousarray(generators.T)
    acc = np.zeros(n, dtype=bool)
    for q in accept:
        acc[q] = True
    return DFA(table, initial, acc, partition)
