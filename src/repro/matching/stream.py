"""Streaming (online) matching.

A network scanner does not hold the whole input: payloads arrive in
blocks.  The SFA makes online matching compositional — maintain a running
SFA state ``f`` and fold each arriving block ``b`` in with
``f ← f ⊙ f_b`` (Lemma 1).  Each block can itself be scanned
chunk-parallel with the lockstep engine, so the stream matcher is both
online *and* data-parallel, something the plain DFA loop cannot offer
without replaying.

Blocks are accepted as ``bytes``, ``bytearray`` or ``memoryview`` and are
translated through the buffer protocol without copying.  All cursors take
the same ``plan`` argument as the offline engines (``"auto"`` or a
:class:`~repro.planning.plan.Plan`), whose ``kernel`` (DESIGN.md §3.5)
and ``num_chunks`` pick the block scan.

Five cursor flavours:

* :class:`StreamMatcher` — runs the SFA table directly (state index), one
  lookup per byte (per 2/4 bytes with a stride kernel); ``feed`` is
  sequential per block.
* :class:`ParallelStreamMatcher` — scans each block with ``p`` lockstep
  chunks and composes the block mapping into the running state via the
  (monoid-closed) composition index.
* :class:`StreamingMultiMatcher` — the same running-state machinery over
  a whole compiled ruleset's union automaton; each ``feed`` reports the
  rules newly matched by the stream so far (DESIGN.md §3.6).
* :class:`StreamingSpanMatcher` — incremental ``finditer``: each ``feed``
  emits the match spans that no future byte can change, holding back only
  the still-live tail (DESIGN.md §3.7).
* :class:`StreamingMultiSpanMatcher` — per-rule span streaming over a
  compiled ruleset (a fan-out of span cursors, one per rule).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Set, Tuple, Union

import numpy as np

from repro.automata.sfa import SFA
from repro.errors import MatchEngineError
from repro.matching.lockstep import lockstep_run
from repro.parallel.scan import scan_block
from repro.planning.plan import AUTO, PlanArg, resolve_plan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.matching.multi import MultiPatternSet

Block = Union[bytes, bytearray, memoryview]


class StreamMatcher:
    """Online membership cursor over a fixed SFA."""

    def __init__(self, sfa: SFA, plan: PlanArg = AUTO):
        p = resolve_plan(plan, "stream", -1, subject=sfa)
        self.sfa = sfa
        self.kernel = p.kernel
        self.plan = p
        self.state = sfa.initial
        self._consumed = 0

    @property
    def bytes_consumed(self) -> int:
        return self._consumed

    def feed(self, block: Block) -> "StreamMatcher":
        """Consume one block; returns self for chaining."""
        if self.sfa.partition is None:
            raise MatchEngineError("streaming over bytes needs a partition")
        classes = self.sfa.partition.translate(block)
        self.state = scan_block(self.sfa, self.state, classes, self.kernel)
        self._consumed += len(classes)
        return self

    def accepted(self) -> bool:
        """Verdict for the input consumed so far."""
        return bool(self.sfa.accept[self.state])

    def final_states(self) -> List[int]:
        """Original-automaton states reached (S_fin of Algorithm 5)."""
        return self.sfa.final_states_of_mapping(self.state)

    def reset(self) -> "StreamMatcher":
        self.state = self.sfa.initial
        self._consumed = 0
        return self


class ParallelStreamMatcher:
    """Online cursor whose per-block scans run chunk-parallel.

    The running state is an SFA state index; every block is scanned by the
    lockstep engine from the identity, and the block's ⊙-product is folded
    into the running state with :meth:`SFA.compose_indices` — legal because
    the reachable mappings are closed under composition.
    """

    def __init__(self, sfa: SFA, plan: PlanArg = AUTO):
        p = resolve_plan(plan, "stream", -1, subject=sfa)
        self.sfa = sfa
        self.num_chunks = p.num_chunks
        self.kernel = p.kernel
        self.plan = p
        self.state = sfa.initial
        self._consumed = 0

    @property
    def bytes_consumed(self) -> int:
        return self._consumed

    def feed(self, block: Block) -> "ParallelStreamMatcher":
        if self.sfa.partition is None:
            raise MatchEngineError("streaming over bytes needs a partition")
        classes = self.sfa.partition.translate(block)
        if len(classes) == 0:
            return self
        self.state = _fold_block_parallel(
            self.sfa, self.state, classes, self.num_chunks, self.kernel
        )
        self._consumed += len(classes)
        return self

    def accepted(self) -> bool:
        return bool(self.sfa.accept[self.state])

    def final_states(self) -> List[int]:
        return self.sfa.final_states_of_mapping(self.state)

    def reset(self) -> "ParallelStreamMatcher":
        self.state = self.sfa.initial
        self._consumed = 0
        return self


def _fold_block_parallel(
    sfa: SFA,
    state: int,
    classes: np.ndarray,
    num_chunks: int,
    kernel: str,
    stride_budget: "int | None" = None,
) -> int:
    """Chunk-parallel block scan folded into a running SFA state."""
    res = lockstep_run(sfa, classes, num_chunks, kernel, stride_budget)
    block_state = res.chunk_states[0]
    for f in res.chunk_states[1:]:
        block_state = sfa.compose_indices(block_state, f)
    return sfa.compose_indices(state, block_state)


class StreamingSpanMatcher:
    """Incremental leftmost-longest ``finditer`` over a byte stream.

    Blocks arrive via :meth:`feed`; each call returns the list of
    ``(start, end)`` spans (in *global* stream offsets) whose outcome is
    already final — i.e. no future byte can start an earlier match,
    extend the span, or change the non-overlap cursor.  The cursor keeps
    exactly the still-live tail of the stream buffered: the suffix from
    the earliest position ``i`` with ``stream[i:] ∈ Pref(L(P))`` (a match
    begun there could still complete or grow).  :meth:`finish` flushes
    the held-back spans at end of stream.

    The concatenation invariant — pinned by the differential harness —
    is that the spans emitted by every ``feed`` plus :meth:`finish`
    equal ``finditer`` over the whole concatenated stream, for every
    blocking.  Patterns that keep the whole stream live (e.g. nullable
    patterns, or ``a.*b`` fed only viable prefixes) buffer until
    :meth:`finish`; that retention is the price of exact leftmost-longest
    semantics, not a leak.

    ``plan`` is taken for a signature uniform with the other cursors; no
    field of it applies (every block runs the exact start pass in-process).
    """

    def __init__(self, pattern, plan: PlanArg = AUTO):
        from repro.matching.engine import CompiledPattern

        if not isinstance(pattern, CompiledPattern):
            raise MatchEngineError(
                f"StreamingSpanMatcher needs a CompiledPattern, "
                f"got {pattern!r}"
            )
        self.engine = pattern.span_engine()
        self._buf = bytearray()
        self._base = 0  # global stream offset of _buf[0]
        self._done = False

    @property
    def bytes_buffered(self) -> int:
        """Size of the held-back (still-live) tail."""
        return len(self._buf)

    @property
    def bytes_consumed(self) -> int:
        return self._base + len(self._buf)

    def feed(self, block: Block) -> List[Tuple[int, int]]:
        """Consume one block; return the spans finalized by it."""
        if self._done:
            raise MatchEngineError("stream already finished")
        self._buf += block
        classes = self.engine.partition.translate(self._buf)
        bits = self.engine.start_bits(classes)
        alive = self.engine.alive_bits(classes)
        spans, hold = self.engine._emit(classes, bits, alive=alive)
        if hold is None:
            hold = len(classes)
        out = [(s + self._base, e + self._base) for s, e in spans]
        del self._buf[:hold]
        self._base += hold
        return out

    def finish(self) -> List[Tuple[int, int]]:
        """End of stream: emit every remaining span and clear the buffer."""
        if self._done:
            return []
        self._done = True
        classes = self.engine.partition.translate(self._buf)
        bits = self.engine.start_bits(classes)
        spans, _ = self.engine._emit(classes, bits)
        out = [(s + self._base, e + self._base) for s, e in spans]
        self._base += len(self._buf)
        self._buf = bytearray()
        return out

    def reset(self) -> "StreamingSpanMatcher":
        """Rearm for reuse (e.g. a pooled cursor between stream sessions)."""
        self._buf = bytearray()
        self._base = 0
        self._done = False
        return self


class StreamingMultiSpanMatcher:
    """Per-rule incremental span extraction over a compiled ruleset.

    A fan-out of one :class:`StreamingSpanMatcher` per rule: every block
    feeds every cursor, and each call returns the finalized
    ``(rule, start, end)`` triples merged in stream order
    ``(start, end, rule)``.  Cost is ``O(rules · block)`` per feed — the
    price of exact per-rule leftmost-longest spans; use
    :class:`StreamingMultiMatcher` when per-rule *verdicts* suffice
    (one union-automaton state, rule-count-independent).
    """

    def __init__(self, ruleset: "MultiPatternSet", plan: PlanArg = AUTO):
        self.ruleset = ruleset
        self._cursors = [
            StreamingSpanMatcher(ruleset.rule_pattern(r), plan=plan)
            for r in range(ruleset.num_rules)
        ]

    def feed(self, block: Block) -> List[Tuple[int, int, int]]:
        """Consume one block; return finalized ``(rule, start, end)``s."""
        out = [
            (r, s, e)
            for r, cur in enumerate(self._cursors)
            for s, e in cur.feed(block)
        ]
        out.sort(key=lambda t: (t[1], t[2], t[0]))
        return out

    def finish(self) -> List[Tuple[int, int, int]]:
        out = [
            (r, s, e)
            for r, cur in enumerate(self._cursors)
            for s, e in cur.finish()
        ]
        out.sort(key=lambda t: (t[1], t[2], t[0]))
        return out

    def reset(self) -> "StreamingMultiSpanMatcher":
        for cur in self._cursors:
            cur.reset()
        return self


class StreamingMultiMatcher:
    """Online multi-pattern cursor over a compiled ruleset.

    Maintains one running state of the ruleset's union D-SFA across
    arbitrary block boundaries; :meth:`feed` returns the set of rules
    *newly* matched (rule indices never reported before), so an IDS loop
    can alert incrementally without rescanning.  Rules that already match
    the empty stream are reported by the first :meth:`feed`, so consuming
    only feed output sees every rule exactly once.  In ``"search"`` mode the
    matched set is monotone along the stream (``Σ*·L·Σ*`` acceptance
    survives extension), so checking at block boundaries loses nothing —
    a rule matched mid-block is still matched at the block's end.  In
    ``"fullmatch"`` mode :meth:`rules` reports the rules whose language
    contains exactly the bytes consumed so far, and :meth:`matched_rules`
    accumulates every boundary verdict.

    ``num_chunks > 1`` scans each block chunk-parallel with the lockstep
    engine over the union D-SFA and folds the block's ⊙-product into the
    running state; the default serial cursor walks the (much smaller)
    union *DFA* directly, so streaming a large ruleset never builds the
    D-SFA at all.  ``kernel`` picks the block-scan kernel, as in
    :class:`StreamMatcher`.
    """

    def __init__(self, ruleset: "MultiPatternSet", plan: PlanArg = AUTO):
        p = resolve_plan(plan, "stream", -1, subject=ruleset)
        self.ruleset = ruleset
        self.num_chunks = p.num_chunks
        self.kernel = p.kernel
        self.plan = p
        self._backend = getattr(ruleset, "backend", "eager")
        self._group_states: Optional[List[int]] = None
        if self._backend == "lazy":
            # On-the-fly union (DESIGN.md §3.11): the cursor walks the
            # lazy automaton directly, materializing states as the stream
            # reaches them.  There is no mapping payload to ⊙-fold, so
            # blocks are consumed sequentially regardless of num_chunks.
            self._automaton = ruleset._union
            self.num_chunks = 1
        elif self._backend == "sharded":
            # One running state per rule group; each block advances every
            # group's cursor.  (The literal prefilter cannot route here —
            # a literal may straddle block boundaries the prescreen never
            # sees whole.)
            self._automaton = None
            self.num_chunks = 1
            self._group_states = [
                g.automaton.initial for g in ruleset._groups
            ]
        else:
            self._automaton = (
                ruleset.dfa if self.num_chunks == 1 else ruleset.sfa
            )
        self.state = (
            self._automaton.initial if self._automaton is not None else 0
        )
        self._consumed = 0
        self._matched: Set[int] = set()  # reported by feed() so far

    @property
    def bytes_consumed(self) -> int:
        return self._consumed

    def feed(self, block: Block) -> Set[int]:
        """Consume one block; returns the rules newly matched by it."""
        classes = self.ruleset.partition.translate(block)
        if len(classes):
            if self._backend == "sharded":
                budget = self.ruleset.stride_budget
                self._group_states = [
                    g.final_state(classes, self.kernel, budget, start=q)
                    for g, q in zip(
                        self.ruleset._groups, self._group_states
                    )
                ]
            elif self._backend == "lazy":
                self.state = self._automaton.run_classes(
                    classes, start=self.state
                )
            elif self.num_chunks > 1:
                self.state = _fold_block_parallel(
                    self._automaton, self.state, classes, self.num_chunks,
                    self.kernel, self.ruleset.stride_budget,
                )
            else:
                self.state = scan_block(
                    self._automaton, self.state, classes, self.kernel,
                    self.ruleset.stride_budget,
                )
            self._consumed += len(classes)
        now = self.rules()
        fresh = now - self._matched
        self._matched |= now
        return fresh

    def finish(self) -> Set[int]:
        """End of stream: the rules not yet reported by any :meth:`feed`.

        Completes the feed protocol — consuming every :meth:`feed` return
        plus :meth:`finish` sees each matched rule exactly once, even when
        no block was ever fed (epsilon-matching rules, fullmatch-mode
        verdicts on the empty stream).  Idempotent; the cursor stays
        usable and :meth:`reset` rearms it for reuse.
        """
        now = self.rules()
        fresh = now - self._matched
        self._matched |= now
        return fresh

    def rules(self) -> Set[int]:
        """Rules matching the consumed input (the ruleset's mode applies)."""
        if self._backend == "sharded":
            out: Set[int] = set()
            for g, q in zip(self.ruleset._groups, self._group_states):
                out.update(g.global_rules(q))
            return out
        if self.num_chunks == 1:
            q = self.state  # the running state IS a union-automaton state
        else:
            sfa = self._automaton
            q = sfa.apply_mapping(self.state, sfa.origin_initial)
        return set(self.ruleset.rule_sets[q])

    def matched_rules(self) -> Set[int]:
        """Every rule matched so far (equals :meth:`rules` in search mode).

        The union of all :meth:`feed` reports and the current verdict, so
        it is complete even before the first block arrives.
        """
        return self._matched | self.rules()

    def matched_any(self) -> bool:
        return bool(self.matched_rules())

    def reset(self) -> "StreamingMultiMatcher":
        if self._backend == "sharded":
            self._group_states = [
                g.automaton.initial for g in self.ruleset._groups
            ]
        else:
            self.state = self._automaton.initial
        self._consumed = 0
        self._matched = set()
        return self
