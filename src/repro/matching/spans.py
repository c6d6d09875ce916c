"""Match-span extraction: leftmost-longest ``find``/``finditer`` (§3.7).

Every engine reproduced from the paper answers *accept/reject*; grep-class
workloads need to know **where** matches are.  This module extends the
chunk-composition model from acceptance bits to match spans.

Semantics — leftmost-longest, non-overlapping
---------------------------------------------
Spans follow the POSIX rule: among all matches, the one with the smallest
start wins; among those, the longest.  Iteration is non-overlapping with
Python's cursor rule (after a span ``(s, e)`` the next search starts at
``e``, or ``s + 1`` for an empty span), so on patterns where Python's
leftmost-*greedy* backtracking already returns the longest alternative
(the overwhelmingly common case — no alternation between a branch and a
longer extension of it), spans are byte-identical to ``re.finditer``.
Where the two rules differ (``a|ab`` on ``"ab"``: POSIX ``(0, 2)``,
Python ``(0, 1)``), this engine is pinned to leftmost-longest — the
differential harness (``tests/test_find_differential.py``) checks both.

Algorithm
---------
A single forward DFA cannot report leftmost starts (the first *ending*
match is not the leftmost-*starting* one: ``abcde|c`` on ``"abcde"`` ends
a match at 3 first, but the leftmost-longest match is ``(0, 5)``).  The
engine therefore uses the classic two-automaton decomposition:

1. **Start pass** (the whole-input pass): scan the input *right-to-left*
   with the start automaton ``B = DFA(Σ*·rev(P))``.  After consuming
   ``t[i:]`` reversed, ``B`` accepts iff ``t[i:]`` has a prefix in
   ``L(P)`` — i.e. iff a match *begins* at ``i``.  One pass yields the
   boolean ``starts[0..n]`` array.
2. **Emission** (sparse): take the next start ``s ≥ pos``, walk the
   pattern DFA forward from ``s`` recording the last accepting position
   (the longest end), early-exiting at the dead state.  Emit, advance
   the cursor, repeat.

Both passes are data-parallel in the paper's sense, with NumPy *lanes*
(slices of the input advanced together in lockstep, one ``take`` per
symbol column) standing in for the paper's processors — a 1–2-core host
gains nothing from a process pool here, but a lane step retires hundreds
of symbols per interpreter dispatch:

* **Lane start pass (speculation and repair).**  The input is cut into
  blocks of :data:`LANE_BLOCK` symbols, scanned right-to-left, and each
  block into ``g`` lanes of ``L = min(LANE_SPEC_MAX, ⌊√block⌋)``
  symbols.  The lane scanned first starts in the exact ``B`` state
  entering the block, every other lane in ``B``'s initial state, and
  every lane records its run.  ``B`` is the minimal DFA of a left
  ideal, ``Σ*·rev(P)``: prepending text only enlarges its quotients, so
  a run started in the initial state rejoins the true run as soon as
  the text resets ``B`` (on log text within 8-16 symbols).  A repair
  walker then starts at every lane boundary whose true entry state (the
  state after the neighbour lane's first symbol) differs from the guess
  and overwrites the recorded run until it rejoins, crossing into the
  next lane if need be.  A block whose walkers have not rejoined within
  :data:`LANE_REPAIR_STEPS` steps is handed over to the paper's
  Algorithm 5: every lane advances its *backward-D-SFA* state from the
  identity mapping, an ``O(g)`` sequential stitch applies the lane
  mappings to the block's entry state, and every lane runs ``B`` again
  from its exact entry state.  So the backward D-SFA is built only for
  text that does not resynchronize.  The state after the block's
  leftmost symbol carries into the next block, and the accepting
  offsets are recorded sparsely.  Transient memory is ``O(block)``.
* **Batched end walk.**  Emission walks the pattern DFA forward from up
  to :data:`LANE_BATCH` candidate starts at once, one lane per
  candidate; a lane drops out at the dead state or the end of input.
  A batch stops after :data:`LANE_WORK` lane-steps per byte of its span,
  or once too few lanes are live for a lockstep step to pay
  (:data:`LANE_SPARSE`), and the scalar walk finishes any lane still
  open — but only for the candidates the cursor actually reaches, so
  ``[a-z]+`` over a long run of letters stays linear instead of walking
  every start to the end.
  One cursor-rule selection loop consumes the ends in both modes.

Each lane path engages only above a measured crossover
(:data:`LANE_START_MIN` = 3072 symbols for the start pass,
:data:`LANE_ENDS_MIN` = 96 candidates for the end walk; the measurements
sit with the constants); below it the scalar
:func:`~repro.parallel.scan.mask_scan` and walk run unchanged and serve
as the reference the lane paths are tested against.  ``B`` itself is
built on the first start pass, its lane table on the first scan above
a gate, and the backward D-SFA on the first block handed over, never
at construction: a ``finditer`` the literal prefilter serves builds
none of them.  Results are bit-identical on every path.

Complexity: both passes are linear; the end walk's lane work is capped
at ``LANE_WORK ×`` the bytes spanned.  The scalar continuation keeps the
known quadratic corner when the forward walk overshoots on patterns like
``a*b|a`` over long ``a``-runs — the same corner real DFA grep
implementations accept.

Streaming liveness (used by :class:`repro.matching.stream`'s span
cursors) needs one more automaton: ``alive[i]`` ⟺ ``t[i:] ∈ Pref(L(P))``
⟺ a match starting at ``i`` could still be completed by future bytes.
``rev(Pref(L)) = Suff(rev(L))``, whose NFA is the reversed pattern NFA
with every reachable state initial; one more right-to-left mask pass
yields the bits.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.analysis.literals import (
    PrefilterPlan,
    choose_prefilter,
    literal_info,
)
from repro.automata.dfa import DFA, minimize, subset_construction
from repro.automata.lazy import check_may_build
from repro.automata.nfa import NFA, glushkov_nfa
from repro.automata.sfa import SFA, correspondence_construction
from repro.errors import MatchEngineError, StateExplosionError
from repro.parallel.scan import _accept_flat, _scaled_flat, lane_table, mask_scan
from repro.planning.plan import AUTO, PlanArg, resolve_plan
from repro.regex.ast import Concat, Literal, Star, reverse_node
from repro.regex.charclass import CharSet
from repro.util.bitset import iter_bits

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.matching.engine import CompiledPattern

Span = Tuple[int, int]
Data = Union[bytes, bytearray, memoryview]

#: Start pass: inputs shorter than this many symbols take the scalar
#: :func:`mask_scan`.  Measured crossover on the grep log's four
#: literal-free patterns (2 vCPUs, NumPy 2.4, three log seeds, median of
#: 41 at three offsets each): lanes run 0.77-1.09x of scalar at 2048
#: symbols, 0.90-1.17x at 2560, 1.00-1.43x at 3072, 1.26-1.76x at 4096
#: and 1.50-1.79x at 6144.
LANE_START_MIN = 3072
#: Symbols per lane start-pass block.
LANE_BLOCK = 1 << 20
#: Longest lane of the start pass: a block of ``m`` symbols runs lanes of
#: ``min(LANE_SPEC_MAX, ⌊√m⌋)`` symbols.  With no ``O(g)`` stitch, short
#: lanes pay.  Per 4 MB op on the grep log's literal-free patterns (2
#: vCPUs, NumPy 2.4, log seeds 2-3, four runs): 17-28 ms at 256, 19-32
#: at 512 and 23-38 at ⌊√m⌋ = 1024; 128 and 192 ran within 10% of 256
#: (interleaved medians 21.9, 20.3 and 22.1 ms over three seeds).
LANE_SPEC_MAX = 256
#: Repair steps a block's walkers may take before the block is handed to
#: the backward D-SFA.  On the grep log (three seeds) every walker
#: rejoins within 8-16 steps, 1,800-2,200 walkers per 4,096-lane block;
#: text that never resynchronizes wastes at most these steps.
LANE_REPAIR_STEPS = 64
#: Backward-D-SFA budget of the lane start pass, in mapping entries
#: (states × |Q_B|); a block handed over to a D-SFA over it makes the
#: whole pass scalar.
LANE_DSFA_ENTRIES = 1 << 20
#: End walk: fewer candidate starts than this are walked one at a time.
#: Measured crossover over the 8 grep patterns (same host): lanes run
#: 0.70-0.86x of the scalar walk at 64 candidates, 0.75-0.81x at 80,
#: 1.08-1.11x at 96 and 1.07-1.28x at 128.
LANE_ENDS_MIN = 96
#: Candidate starts walked together per end-walk batch.
LANE_BATCH = 4096
#: Lane-step budget of one end-walk batch, per byte of the batch's span.
LANE_WORK = 8
#: An end-walk batch leaves its lanes to the scalar walk once fewer than
#: ``len(batch) // LANE_SPARSE`` (at least one) are live: a lockstep step
#: costs about ten NumPy calls however few lanes it advances.  With
#: ``x[a-z]*y`` over 400k ``a`` between 200 ``xay`` on each side (2
#: vCPUs), ``finditer`` took 3.1 s stepping one lane alone; the scalar
#: walk finishes it in ~43 ms.
LANE_SPARSE = 64
#: ``lane_ends`` marker of a lane the scalar walk still has to finish.
OPEN = -2


def accept_last(dfa: DFA) -> DFA:
    """Renumber a DFA so accepting states occupy the top indices.

    With this layout :func:`repro.parallel.scan.mask_scan`'s accept test
    is one int comparison (``state >= threshold``) on a rarely-taken
    branch — ~1.7× over the accept-table lookup on grep-shaped inputs.
    The lane start pass relies on the same layout.  Pure relabeling: the
    language and state count are untouched.
    """
    order = np.argsort(dfa.accept, kind="stable")  # non-accepting first
    if np.array_equal(order, np.arange(dfa.num_states)):
        return dfa
    perm = np.empty(dfa.num_states, dtype=np.int32)
    perm[order] = np.arange(dfa.num_states, dtype=np.int32)
    return DFA(
        perm[dfa.table[order]],
        int(perm[dfa.initial]),
        dfa.accept[order],
        dfa.partition,
    )


def _lane_layout(seg: np.ndarray, L: int) -> Tuple[np.ndarray, int]:
    """``seg`` as lane columns ``cols[j, r] = seg[r·L + j]`` (``C``-order,
    so a lane step reads one contiguous row), padded on the left to
    whole rows; returns ``(cols, pad)``."""
    g = -(-len(seg) // L)
    pad = g * L - len(seg)
    if pad:  # ragged block: padding on the left is scanned last
        seg = np.concatenate([np.zeros(pad, dtype=np.uint8), seg])
    return np.ascontiguousarray(seg.reshape(g, L).T), pad


def _run_lanes(
    table: np.ndarray, cols: np.ndarray, entry: np.ndarray
) -> np.ndarray:
    """Every row of ``cols`` advances the lane table ``table`` right to
    left from its scaled entry state; returns the ``(L, g)`` matrix of
    the scaled state after each symbol."""
    L, g = cols.shape
    states = np.empty((L, g), dtype=table.dtype)
    f = entry
    tmp = np.empty(g, dtype=table.dtype)
    for j in range(L - 1, -1, -1):
        np.add(f, cols[j], out=tmp)
        f = table.take(tmp, out=states[j], mode="clip")
    return states


def _repair_lanes(
    table: np.ndarray, cols: np.ndarray, states: np.ndarray, guess: int
) -> bool:
    """Repair the runs :func:`_run_lanes` recorded from guessed entries.

    Row ``r < g - 1`` guessed the scaled entry ``guess``; its entry is
    the exit of row ``r + 1`` (its state after that row's leftmost
    symbol).  From every row whose guess differs from that recorded
    exit, a walker carries the exit onward, one symbol per step, and
    overwrites the recorded states until its state equals the recorded
    one (the runs have rejoined); a walker still apart at the end of its
    row crosses into the next.  The result is exact: recorded runs are
    consistent except where a walker is about to step, and since every
    walker advances one symbol per step, a walker that started further
    right reaches each position after any walker ahead of it, so its
    truer state is written last.  Returns ``False`` if walkers remain
    after :data:`LANE_REPAIR_STEPS` steps (``states`` is then partly
    repaired and must be recomputed).
    """
    L = states.shape[0]
    exits = states[0, 1:]
    r = np.flatnonzero(exits != guess)  # the rows whose guess was wrong
    f = exits[r]
    j = L - 1
    for _ in range(LANE_REPAIR_STEPS):
        if not len(r):
            return True
        f = table.take(f + cols[j].take(r))
        row = states[j]
        apart = f != row.take(r)
        r, f = r[apart], f[apart]
        row[r] = f
        if j:
            j -= 1
        else:  # cross into the row scanned next; row 0 ends the block
            j = L - 1
            r -= 1
            if len(r) and r[0] < 0:
                r, f = r[1:], f[1:]
    return not len(r)


class SpanEngine:
    """Span extraction state for one compiled pattern.

    Builds (lazily where possible) three automata over the pattern's own
    byte-class partition:

    * ``fwd`` — the pattern's minimal DFA (the longest-end walk);
    * ``bwd`` — the start automaton ``DFA(Σ*·rev(P))``, scanned
      right-to-left (built on the first start pass: a scan the literal
      prefilter serves never needs it);
    * ``live`` — the prefix-liveness automaton ``DFA(Suff(rev(P)))`` for
      streaming holdback (built on first use).

    The lane tables are built on the first scan above a lane gate, and
    ``B``'s D-SFA (the backward D-SFA) on the first start-pass block
    whose text does not resynchronize ``B`` (on text that does, it is
    never built); if it exceeds :data:`LANE_DSFA_ENTRIES`, such a start
    pass runs scalar.
    """

    def __init__(self, pattern: "CompiledPattern"):
        self.pattern = pattern
        self.partition = pattern.partition
        self.fwd = pattern.min_dfa
        self._bwd: Optional[DFA] = None
        self._bsfa: Optional[SFA] = None
        self._bsfa_failed = False
        self._start_lanes: Optional[tuple] = None
        self._end_lanes: Optional[tuple] = None
        self._live: Optional[DFA] = None
        # Literal-factor prefilter plan (DESIGN.md §3.9.3): when the
        # analyzer proves a required literal with a finite offset window,
        # start bits can be over-approximated from raw byte search instead
        # of the exact backward automaton pass.  ``None`` = ineligible.
        self.prefilter: Optional[PrefilterPlan] = choose_prefilter(
            literal_info(pattern.ast)
        )
        # Dead states of the forward DFA, pre-scaled by the table width for
        # the emission walk's early exit.  After minimization there is at
        # most one; an unminimized DFA may keep several (missing one only
        # costs the early exit, never correctness).
        k = self.fwd.num_classes
        self._dead_scaled = frozenset(
            int(q) * k for q in self.fwd.trap_states()
        )

    # -- public API ------------------------------------------------------
    def spans(
        self,
        data: Data,
        *,
        plan: PlanArg = AUTO,
        limit: Optional[int] = None,
    ) -> List[Span]:
        """All leftmost-longest non-overlapping ``(start, end)`` spans.

        ``plan`` resolves as everywhere else (``"auto"`` = the §3.10 cost
        model, or an explicit :class:`~repro.planning.plan.Plan`), but
        both span passes run in-process (in NumPy lanes above their
        gates) whatever it says.  Only its ``prefilter`` field is read:
        ``None`` engages the literal skip-ahead whenever the analyzer
        produced a plan, ``False`` forces the exact backward start pass
        (the two are span-identical — the prefilter only over-approximates
        *candidate* starts; the emission walk rejects the false ones).
        ``limit`` caps the number of spans returned (``0`` returns none).
        """
        if limit is not None and (
            isinstance(limit, bool) or not isinstance(limit, int) or limit < 0
        ):
            raise MatchEngineError(
                f"limit must be a non-negative int, got {limit!r}"
            )
        p = resolve_plan(plan, "spans", len(data), subject=self.pattern)
        classes = self.partition.translate(data)
        if self.prefilter is not None and p.prefilter is not False:
            bits = self.prefilter_bits(data, len(classes))
        else:
            bits = self.start_bits(classes)
        out, _ = self._emit(classes, bits, limit=limit)
        return out

    # -- start pass ------------------------------------------------------
    def start_bits(
        self, classes: np.ndarray, num_chunks: int = 1, executor=None,
        kernel: str = "python",
    ) -> np.ndarray:
        """``bits[i]`` ⟺ a match of the pattern begins at position ``i``.

        Length ``n + 1``: position ``n`` hosts the trailing empty match of
        nullable patterns (matching ``re.finditer``'s behaviour).  Inputs
        of at least :data:`LANE_START_MIN` symbols take the lane pass;
        ``num_chunks``/``executor``/``kernel`` are accepted for the
        callers that still pass them and do not change the result.
        """
        n = len(classes)
        if n >= LANE_START_MIN:
            bits = self.lane_start_bits(classes)
            if bits is not None:
                return bits
        bdfa = self.bwd
        bits = np.empty(n + 1, dtype=np.bool_)
        bits[n] = bool(bdfa.accept[bdfa.initial])
        if n:
            bits[:n] = mask_scan(
                bdfa.table, bdfa.accept, bdfa.initial, classes[::-1]
            )[::-1]
        return bits

    def lane_start_bits(
        self,
        classes: np.ndarray,
        block: int = LANE_BLOCK,
        lane: Optional[int] = None,
    ) -> Optional[np.ndarray]:
        """:meth:`start_bits` by speculation and repair over NumPy lanes.

        Blocks of ``block`` symbols are taken right-to-left; each block of
        ``m`` symbols is cut into ``g`` rows of ``L = lane`` symbols
        (default ``min(LANE_SPEC_MAX, ⌊√m⌋)``), row ``r`` covering
        ``[r·L, (r+1)·L)`` of the block and scanned from its right end,
        rows from the last one down.  A ragged block is padded on the
        left.  The last row starts in the exact ``B`` state entering the
        block and every other row in ``B``'s initial state; every state is
        recorded, and :func:`_repair_lanes` then walks the true run from
        each row whose guess was wrong until it rejoins the recorded one.
        A block whose walkers have not all rejoined within
        :data:`LANE_REPAIR_STEPS` steps is rescanned from exact row entry
        states, found by Algorithm 5 over the backward D-SFA
        (:meth:`_exact_entries`).  Returns ``None`` when such a block
        needs a D-SFA over its budget (the caller falls back to the
        scalar pass).
        """
        dflat, k, thr = self._start_tables()
        n = len(classes)
        if classes.dtype != np.uint8:
            classes = classes.astype(np.uint8)  # byte classes: k <= 256
        bdfa = self.bwd
        bits = np.zeros(n + 1, dtype=np.bool_)
        bits[n] = bool(bdfa.accept[bdfa.initial])
        guess = int(bdfa.initial) * k
        q = guess  # exact scaled B state entering the current block
        hi = n
        while hi > 0:
            lo = max(0, hi - block)
            L = lane or min(LANE_SPEC_MAX, max(1, math.isqrt(hi - lo)))
            cols, pad = _lane_layout(classes[lo:hi], L)
            g = cols.shape[1]
            entry = np.full(g, guess, dtype=dflat.dtype)
            entry[g - 1] = q
            states = _run_lanes(dflat, cols, entry)
            if not _repair_lanes(dflat, cols, states, guess):
                entry = self._exact_entries(cols, q // k)
                if entry is None:
                    return None
                states = _run_lanes(dflat, cols, (entry * k).astype(dflat.dtype))
            j_hit, r_hit = np.divmod(np.flatnonzero(states >= thr), g)
            pos = r_hit * L + j_hit + (lo - pad)
            bits[pos[pos >= lo] if pad else pos] = True
            q = int(states[pad, 0])  # after the block's first real symbol
            hi = lo
        return bits

    def _exact_entries(self, cols: np.ndarray, q: int) -> Optional[np.ndarray]:
        """Every row's exact ``B`` entry state, by Algorithm 5: each row
        but the last advances its backward-D-SFA state from the identity
        (the row's mapping), then an ``O(g)`` stitch applies the mappings
        right-to-left from ``q``, the state entering the block.  ``None``
        when the D-SFA exceeds :data:`LANE_DSFA_ENTRIES`."""
        bsfa = self._backward_sfa()
        if bsfa is None:
            return None
        sflat, ks = lane_table(bsfa), bsfa.num_classes
        L, g = cols.shape
        entry = np.empty(g, dtype=np.int64)
        entry[g - 1] = q
        if g > 1:
            s = np.full(g - 1, bsfa.initial * ks, dtype=sflat.dtype)
            tmp = np.empty_like(s)
            for j in range(L - 1, -1, -1):
                np.add(s, cols[j, 1:], out=tmp)
                sflat.take(tmp, out=s, mode="clip")
            # each row's mapping sends its entry state to the entry state
            # of the row scanned next
            lane_maps = (s // ks).tolist()
            image = bsfa.maps.item
            e = q
            for r in range(g - 1, 0, -1):
                e = image(lane_maps[r - 1], e)
                entry[r - 1] = e
        return entry

    def prefilter_bits(self, data: Data, n: int) -> np.ndarray:
        """Over-approximated start bits from literal occurrences (§3.9.3).

        The plan claims every match places ``text`` at ``start + δ`` for
        some ``δ ∈ [min_start, max_start]``, so the union over occurrences
        ``o`` of ``[o - max_start, o - min_start]`` is a superset of the
        true start set.  Feeding a superset into :meth:`_emit` is sound:
        a false candidate start finds no accepting position and is
        skipped; leftmost-longest selection and the cursor rule only ever
        act on *real* matches, which all survive.  No automaton touches
        the bytes between candidate sites — that is the entire win.
        """
        plan = self.prefilter
        assert plan is not None
        bits = np.zeros(n + 1, dtype=np.bool_)
        # bytes/bytearray/mmap expose .find; anything else (rare) copies.
        hay = data if hasattr(data, "find") else bytes(data)
        needle = plan.text
        lo_off, hi_off = plan.min_start, plan.max_start
        # An occurrence before min_start cannot host a non-negative start.
        i = hay.find(needle, lo_off)
        if hi_off == lo_off:
            anchored: List[int] = []
            while i >= 0:
                anchored.append(i - lo_off)
                i = hay.find(needle, i + 1)
            if anchored:
                bits[np.asarray(anchored, dtype=np.int64)] = True
        else:
            while i >= 0:
                bits[max(0, i - hi_off):i - lo_off + 1] = True
                i = hay.find(needle, i + 1)
        return bits

    def alive_bits(self, classes: np.ndarray) -> np.ndarray:
        """``bits[i]`` ⟺ ``t[i:] ∈ Pref(L(P))`` (a match from ``i`` could
        still complete past the end of ``classes``)."""
        live = self._live_dfa()
        n = len(classes)
        bits = np.empty(n + 1, dtype=np.bool_)
        bits[n] = bool(live.accept[live.initial])
        if n:
            bits[:n] = mask_scan(
                live.table, live.accept, live.initial, classes[::-1]
            )[::-1]
        return bits

    # -- emission --------------------------------------------------------
    def _emit(
        self,
        classes: np.ndarray,
        bits: np.ndarray,
        alive: Optional[np.ndarray] = None,
        limit: Optional[int] = None,
        batch: Optional[int] = None,
        work: int = LANE_WORK,
    ) -> Tuple[List[Span], Optional[int]]:
        """Walk the start bits into spans.

        Batch mode (``alive=None``) consumes everything and returns
        ``(spans, None)``.  Streaming mode stops at the earliest position
        whose outcome future bytes could still change (``alive[i]`` true)
        and returns ``(final_spans, holdback_position)``.

        ``batch`` candidates at a time get their ends from
        :meth:`lane_ends` (with ``work`` lane-steps per byte); ``0``
        walks every candidate with the scalar walk, and ``None`` picks by
        the :data:`LANE_ENDS_MIN` gate.
        """
        n = len(classes)
        out: List[Span] = []
        if limit == 0:
            return out, None
        starts = np.flatnonzero(bits)
        if batch is None:
            batch = LANE_BATCH if len(starts) >= LANE_ENDS_MIN else 0
        alive_pos = np.flatnonzero(alive) if alive is not None else None
        cb = classes.tobytes()
        fwd = self.fwd
        flat = _scaled_flat(fwd.table)
        acc = _accept_flat(fwd.accept, fwd.num_classes)
        dead = self._dead_scaled
        init = int(fwd.initial) * fwd.num_classes
        init_acc = bool(fwd.accept[fwd.initial])

        def walk(f: int, i: int, last: int) -> int:
            """The scalar longest-end walk from scaled state ``f`` at ``i``."""
            for i in range(i, n):
                f = flat[f + cb[i]]
                if acc[f]:
                    last = i + 1
                elif f in dead:
                    break
            return last

        pos = 0
        while True:
            # Candidates below the cursor are dropped before each batch.
            b = int(np.searchsorted(starts, pos))
            if b >= len(starts):
                break
            chunk = starts[b:b + batch] if batch else starts[b:]
            cand = chunk.tolist()
            opened: Dict[int, Tuple[int, int, int]] = {}
            if batch:
                body = chunk if cand[-1] < n else chunk[:-1]
                ends_arr, opened = self.lane_ends(
                    classes, body, work * (cand[-1] - cand[0] + 1)
                )
                ends = ends_arr.tolist()
                # the next candidate at or past each span's cursor
                nxt = np.searchsorted(
                    chunk, np.maximum(ends_arr, body + 1)
                ).tolist()
            else:
                ends, nxt = [OPEN] * len(cand), []
            i, m = 0, len(cand)
            while i < m:
                s = cand[i]
                if alive_pos is not None:
                    ai = int(np.searchsorted(alive_pos, pos))
                    if ai < len(alive_pos) and alive_pos[ai] <= s:
                        # Everything from here on is still in play: either a
                        # partial match starts there, or the complete match
                        # at ``s`` could still grow.  Defer to the next feed.
                        return out, int(alive_pos[ai])
                if s >= n:
                    out.append((n, n))  # trailing empty match (nullable P)
                    return out, None
                e = ends[i]
                if e == OPEN:
                    e = walk(*opened.get(i, (init, s, s if init_acc else -1)))
                    pos = e if e > s else s + 1
                    i = bisect_left(cand, pos, i + 1)
                else:
                    pos = e if e > s else s + 1
                    i = nxt[i]
                if e >= 0:  # (e < 0: a prefilter candidate hosting no match)
                    out.append((s, e))
                    if len(out) == limit:
                        return out, None
        hold: Optional[int] = None
        if alive_pos is not None:
            ai = int(np.searchsorted(alive_pos, pos))
            if ai < len(alive_pos):
                hold = int(alive_pos[ai])
        return out, hold

    def lane_ends(
        self, classes: np.ndarray, cand: np.ndarray, cap: int
    ) -> Tuple[np.ndarray, Dict[int, Tuple[int, int, int]]]:
        """Longest match end of every candidate start, walked in lanes.

        ``cand`` holds sorted starts below ``len(classes)``.  Returns
        ``(ends, opened)``: ``ends[i]`` is the longest end from
        ``cand[i]`` (``-1``: no match there).  Lanes still running after
        ``cap`` lane-steps, or once fewer than ``len(cand) //``
        :data:`LANE_SPARSE` lanes are live, are left :data:`OPEN`;
        ``opened[i]`` holds their ``(scaled state, next position, last
        end)`` for the scalar walk to finish.
        """
        flat, accept, live, init, init_acc = self._end_tables()
        n = len(classes)
        ends = np.full(len(cand), OPEN, dtype=np.int64)
        idx = np.arange(len(cand))
        start = cand.astype(np.intp)
        f = np.full(len(cand), init, dtype=np.intp)
        # match length so far (-1: none yet); the end is start + run
        run = np.full(len(cand), 0 if init_acc else -1, dtype=np.intp)

        def finish(sel) -> None:
            ends[idx[sel]] = np.where(run[sel] >= 0, start[sel] + run[sel], -1)

        few = max(1, len(cand) // LANE_SPARSE)
        t = 0
        work = 0
        while len(idx):
            if start[-1] + t >= n:
                # the lanes at the end of input are done (starts are sorted)
                cut = int(np.searchsorted(start, n - t))
                finish(slice(cut, None))
                idx, start, f, run = idx[:cut], start[:cut], f[:cut], run[:cut]
                continue
            if work >= cap:
                break
            work += len(idx)
            f = flat.take(f + classes.take(start + t))
            t += 1
            np.copyto(run, t, where=accept.take(f))
            keep = live.take(f)
            alive = int(np.count_nonzero(keep))
            if alive < few:
                break  # a lockstep step no longer pays: the scalar walk
            # Dead lanes idle in the dead state (it never accepts) until a
            # quarter of the batch has died; then they are dropped at once.
            if 4 * alive < 3 * len(keep):
                finish(~keep)
                idx, start, f, run = idx[keep], start[keep], f[keep], run[keep]
        keep = live.take(f)
        finish(~keep)
        opened = {
            i: (q, s + t, s + r if r >= 0 else -1)
            for i, q, s, r in zip(
                idx[keep].tolist(), f[keep].tolist(), start[keep].tolist(),
                run[keep].tolist(),
            )
        }
        return ends, opened


    # -- lazy automata and lane tables -----------------------------------
    @property
    def bwd(self) -> DFA:
        """The start automaton ``B = DFA(Σ*·rev(P))``, accepting-last."""
        if self._bwd is None:
            any_star = Star(Literal(CharSet.any_byte()))
            bnfa = glushkov_nfa(
                Concat([any_star, reverse_node(self.pattern.ast)]),
                self.partition,
            )
            self._bwd = accept_last(minimize(subset_construction(
                bnfa, max_states=self.pattern.max_dfa_states
            )))
        return self._bwd

    def scan_built(self, n: int, prefilter: Optional[bool] = None) -> bool:
        """Whether :meth:`spans` over ``n`` bytes under a plan whose
        ``prefilter`` field is ``prefilter`` would build no automaton.

        The literal prefilter needs none; the start pass needs ``B``, plus
        its lane table above :data:`LANE_START_MIN`.  A block the lane
        pass hands over may still need the backward D-SFA; under
        :func:`~repro.automata.lazy.materialized_only` building it raises
        :class:`~repro.automata.lazy.NotMaterialized` instead.
        """
        if self.prefilter is not None and prefilter is not False:
            return True
        return self._bwd is not None and (
            n < LANE_START_MIN or self._start_lanes is not None
        )

    def _backward_sfa(self) -> Optional[SFA]:
        if self._bsfa is None and not self._bsfa_failed:
            check_may_build("backward D-SFA", self.pattern.pattern)
            budget = max(1, LANE_DSFA_ENTRIES // self.bwd.num_states)
            try:
                self._bsfa = correspondence_construction(
                    self.bwd,
                    max_states=min(self.pattern.max_sfa_states, budget),
                )
            except StateExplosionError:
                self._bsfa_failed = True
        return self._bsfa

    def _start_tables(self) -> tuple:
        """``B``'s lane table, its width and its scaled accept threshold."""
        if self._start_lanes is None:
            bdfa = self.bwd
            k = bdfa.num_classes
            # accept_last: accepting states are the top indices of B
            thr = (bdfa.num_states - int(np.count_nonzero(bdfa.accept))) * k
            self._start_lanes = (lane_table(bdfa), k, thr)
        return self._start_lanes

    def _end_tables(self) -> tuple:
        """Lane tables of the end walk, indexed by scaled state."""
        if self._end_lanes is None:
            fwd = self.fwd
            k = fwd.num_classes
            live = np.ones(fwd.num_states, dtype=np.bool_)
            live[fwd.trap_states()] = False
            self._end_lanes = (
                fwd.table.astype(np.intp).ravel() * k,
                np.repeat(fwd.accept, k),
                np.repeat(live, k),
                int(fwd.initial) * k,
                bool(fwd.accept[fwd.initial]),
            )
        return self._end_lanes

    def _live_dfa(self) -> DFA:
        if self._live is None:
            nfa = self.pattern.nfa
            rnfa = nfa.reverse()
            # Suff(rev(L)): every state reachable from the reversed NFA's
            # initial set becomes initial (= the co-accessible states of
            # the pattern NFA — those on some accepting path's spine).
            reach = rnfa.initial
            frontier = rnfa.initial
            while frontier:
                nxt = 0
                for q in iter_bits(frontier):
                    for c in range(rnfa.num_classes):
                        nxt |= rnfa.trans[q][c]
                frontier = nxt & ~reach
                reach |= frontier
            live_nfa = NFA(
                rnfa.num_states, rnfa.num_classes, rnfa.trans,
                reach, rnfa.final, rnfa.partition,
            )
            self._live = accept_last(minimize(
                subset_construction(
                    live_nfa, max_states=self.pattern.max_dfa_states
                )
            ))
        return self._live

    def __repr__(self) -> str:
        bwd = "unbuilt" if self._bwd is None else self._bwd.num_states
        return (
            f"SpanEngine(pattern={self.pattern.pattern!r}, "
            f"fwd={self.fwd.num_states}, bwd={bwd})"
        )
