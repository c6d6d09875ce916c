"""On-the-fly (lazy) DFA and SFA construction (paper Sect. V-A).

Instead of materializing the full automaton before matching, states are
created the first time a transition needs them.  After reading a text of
length ``n`` at most ``n+1`` states exist, even when the full construction
would explode — the standard technique the paper points to (Cox's RE2 notes)
and notes "we can easily apply ... because the correspondence construction
is a natural extension of the subset construction".

All three lazy automata here implement the
:class:`~repro.automata.backend.AutomatonBackend` protocol and share one
runtime shape:

* interning dicts guarded by an ``RLock`` (scans may run on thread pools);
* a *scaled flat-list* transition cache — one Python list whose entries
  are ``next_state * num_classes`` so the hot loop is a single
  ``f = flat[f + c]`` with ``-1`` holes falling back to a fill step
  (the same layout :func:`repro.parallel.scan.sfa_scan` uses);
* a ``max_states`` budget converting runaway materialization into
  :class:`~repro.errors.StateExplosionError` instead of an OOM;
* ``freeze()`` — complete the closure of the materialized states and
  return the equivalent *eager* automaton, so stride/vector kernels and
  shared-memory publication apply after a lazy warm-up.

:class:`LazyUnionDFA` is the multi-pattern workhorse: the union subset
state is stored *sparsely* as the tuple of per-rule states that are away
from their per-rule "rest" state, so one transition miss costs
``O(active rules + rules excitable by the symbol)`` instead of
``O(total rules)`` — the property that makes 10³-rule rulesets scan at
toy-ruleset speed.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.automata.backend import DEFAULT_LAZY_STATE_BUDGET
from repro.automata.dfa import DFA
from repro.automata.nfa import NFA
from repro.automata.sfa import SFA
from repro.errors import AutomatonError, StateExplosionError
from repro.regex.charclass import ByteClassPartition
from repro.util.bitset import iter_bits


#: True while the current context may not materialize union transitions
#: (see :func:`materialized_only`).
_MATERIALIZED_ONLY: ContextVar[bool] = ContextVar(
    "materialized_only", default=False
)


class NotMaterialized(Exception):
    """A scan under :func:`materialized_only` reached a
    :class:`LazyUnionDFA` transition, or a span start pass reached a
    backward D-SFA, that is not built yet."""


@contextmanager
def materialized_only() -> Iterator[None]:
    """Scans of a :class:`LazyUnionDFA` inside this block build nothing:
    the first transition not yet materialized raises
    :class:`NotMaterialized` instead, with nothing built.  A span start
    pass that has to hand a block to its unbuilt backward D-SFA raises
    it too (:mod:`repro.matching.spans`).

    The match service scans a warm lazy ruleset on its event loop this
    way and hands a scan that needs new transitions to its thread pool —
    a cold 64 KiB scan of a 300-rule lazy union builds for over a second.
    """
    token = _MATERIALIZED_ONLY.set(True)
    try:
        yield
    finally:
        _MATERIALIZED_ONLY.reset(token)


def check_may_build(*what) -> None:
    """Raise :class:`NotMaterialized` (carrying ``what``) inside
    :func:`materialized_only`; a builder calls this before building."""
    if _MATERIALIZED_ONLY.get():
        raise NotMaterialized(*what)


def _as_int_list(classes) -> list:
    """A plain-int view of a class sequence (fast to iterate in the hot
    loop; numpy scalars cost an unboxing per symbol otherwise)."""
    if isinstance(classes, np.ndarray):
        return classes.tolist()
    if isinstance(classes, (bytes, bytearray, memoryview)):
        return list(classes)
    return [int(c) for c in classes]


class LazyDFA:
    """Subset-construction DFA materialized on demand.

    ``max_states`` bounds materialization (an OOM backstop, not a
    feasibility bound — a scan of ``n`` symbols touches ≤ ``n+1`` states);
    interning is thread-safe so a warmed instance may be shared across a
    thread pool.
    """

    lazy_backend = True

    def __init__(self, nfa: NFA, max_states: int = DEFAULT_LAZY_STATE_BUDGET):
        self.nfa = nfa
        self.partition = nfa.partition
        self.max_states = max_states
        self.initial = 0
        self._k = nfa.num_classes
        self._lock = threading.RLock()
        self._index: Dict[int, int] = {nfa.initial: 0}
        self._subsets: List[int] = [nfa.initial]
        self._accept: List[bool] = [(nfa.initial & nfa.final) != 0]
        # Scaled flat transition cache: _flat[q*k + c] == next*k, -1 = hole.
        self._flat: List[int] = [-1] * self._k

    @property
    def num_classes(self) -> int:
        return self._k

    @property
    def num_materialized(self) -> int:
        """Number of DFA states created so far."""
        return len(self._subsets)

    def _fill(self, state: int, cls: int, budget: Optional[int] = None) -> int:
        """Materialize one transition; returns the *scaled* target."""
        k = self._k
        with self._lock:
            nxt = self._flat[state * k + cls]
            if nxt >= 0:  # another thread filled it while we waited
                return nxt
            mask = 0
            trans = self.nfa.trans
            for q in iter_bits(self._subsets[state]):
                mask |= trans[q][cls]
            idx = self._index.get(mask)
            if idx is None:
                limit = self.max_states if budget is None else budget
                if len(self._subsets) >= limit:
                    raise StateExplosionError(
                        "lazy determinization exceeded state budget",
                        limit,
                        len(self._subsets) + 1,
                    )
                idx = len(self._subsets)
                self._subsets.append(mask)
                self._accept.append((mask & self.nfa.final) != 0)
                self._flat.extend([-1] * k)
                self._index[mask] = idx
            self._flat[state * k + cls] = idx * k
            return idx * k

    def step(self, state: int, cls: int) -> int:
        nxt = self._flat[state * self._k + cls]
        if nxt < 0:
            nxt = self._fill(state, cls)
        return nxt // self._k

    def run_classes(self, classes: Iterable[int], start: Optional[int] = None) -> int:
        k = self._k
        flat = self._flat
        f = (self.initial if start is None else start) * k
        for c in _as_int_list(classes):
            nf = flat[f + c]
            if nf < 0:
                nf = self._fill(f // k, c)
            f = nf
        return f // k

    def accepts_classes(self, classes: Iterable[int]) -> bool:
        return self._accept[self.run_classes(classes)]

    def accepts(self, data: bytes) -> bool:
        if self.partition is None:
            raise AutomatonError("byte input needs a ByteClassPartition")
        return self.accepts_classes(self.partition.translate(data))

    def freeze(self, max_states: Optional[int] = None) -> DFA:
        """Complete the closure of the materialized states and return the
        equivalent eager :class:`~repro.automata.dfa.DFA`.

        Filling the remaining holes may materialize new states; the walk
        is budgeted (``max_states``, default this automaton's own budget)
        and raises :class:`~repro.errors.StateExplosionError` when the
        language genuinely needs more.  On a freshly built instance this
        *is* subset construction, in the same BFS order.
        """
        k = self._k
        with self._lock:
            i = 0
            while i < len(self._subsets):
                base = i * k
                for c in range(k):
                    if self._flat[base + c] < 0:
                        self._fill(i, c, budget=max_states)
                i += 1
            n = len(self._subsets)
            table = np.array(self._flat[: n * k], dtype=np.int32).reshape(n, k) // k
            accept = np.array(self._accept, dtype=bool)
            return DFA(
                table, self.initial, accept, self.partition,
                subset_of=list(self._subsets),
            )


class LazySFA:
    """Correspondence-construction D-SFA materialized on demand.

    Mirrors :class:`LazyDFA`: SFA states (transformations of the DFA's
    state set) are interned by their byte signature when first reached.
    """

    lazy_backend = True

    def __init__(self, dfa: DFA, max_states: int = DEFAULT_LAZY_STATE_BUDGET):
        self.dfa = dfa
        self.partition = dfa.partition
        self.max_states = max_states
        self.initial = 0
        self._k = dfa.num_classes
        self._lock = threading.RLock()
        self._columns = [
            np.ascontiguousarray(dfa.table[:, c]) for c in range(dfa.num_classes)
        ]
        identity = np.arange(dfa.num_states, dtype=np.int32)
        self._index: Dict[bytes, int] = {identity.tobytes(): 0}
        self._maps: List[np.ndarray] = [identity]
        self._flat: List[int] = [-1] * self._k

    @property
    def num_classes(self) -> int:
        return self._k

    @property
    def num_materialized(self) -> int:
        """Number of SFA states created so far."""
        return len(self._maps)

    def _fill(self, state: int, cls: int, budget: Optional[int] = None) -> int:
        k = self._k
        with self._lock:
            nxt = self._flat[state * k + cls]
            if nxt >= 0:
                return nxt
            fnext = self._columns[cls][self._maps[state]]
            key = fnext.tobytes()
            idx = self._index.get(key)
            if idx is None:
                limit = self.max_states if budget is None else budget
                if len(self._maps) >= limit:
                    raise StateExplosionError(
                        "lazy correspondence construction exceeded state budget",
                        limit,
                        len(self._maps) + 1,
                    )
                idx = len(self._maps)
                self._maps.append(np.ascontiguousarray(fnext))
                self._flat.extend([-1] * k)
                self._index[key] = idx
            self._flat[state * k + cls] = idx * k
            return idx * k

    def step(self, state: int, cls: int) -> int:
        nxt = self._flat[state * self._k + cls]
        if nxt < 0:
            nxt = self._fill(state, cls)
        return nxt // self._k

    def mapping_row(self, idx: int) -> np.ndarray:
        return self._maps[idx]

    def run_classes(self, classes: Iterable[int], start: Optional[int] = None) -> int:
        k = self._k
        flat = self._flat
        f = (self.initial if start is None else start) * k
        for c in _as_int_list(classes):
            nf = flat[f + c]
            if nf < 0:
                nf = self._fill(f // k, c)
            f = nf
        return f // k

    def accepts_classes(self, classes: Iterable[int]) -> bool:
        f = self.run_classes(classes)
        return bool(self.dfa.accept[self._maps[f][self.dfa.initial]])

    def accepts(self, data: bytes) -> bool:
        if self.partition is None:
            raise AutomatonError("byte input needs a ByteClassPartition")
        return self.accepts_classes(self.partition.translate(data))

    def run_chunks(self, chunks: List[np.ndarray]) -> bool:
        """Algorithm 5 on a lazy SFA: per-chunk scans + sequential reduction."""
        finals = [self.run_classes(ch) for ch in chunks]
        q = self.dfa.initial
        for f in finals:
            q = int(self._maps[f][q])
        return bool(self.dfa.accept[q])

    def freeze(self, max_states: Optional[int] = None) -> SFA:
        """Complete the closure and return the equivalent eager D-SFA."""
        k = self._k
        with self._lock:
            i = 0
            while i < len(self._maps):
                base = i * k
                for c in range(k):
                    if self._flat[base + c] < 0:
                        self._fill(i, c, budget=max_states)
                i += 1
            n = len(self._maps)
            table = np.array(self._flat[: n * k], dtype=np.int32).reshape(n, k) // k
            maps_arr = np.stack(self._maps).astype(np.int32)
            accept = self.dfa.accept[maps_arr[:, self.dfa.initial]]
            return SFA(
                table=table,
                initial=self.initial,
                accept=np.ascontiguousarray(accept),
                maps=maps_arr,
                kind="D-SFA",
                origin_initial=self.dfa.initial,
                origin_final=self.dfa.accept.copy(),
                partition=self.partition,
            )


# ---------------------------------------------------------------------------
# Lazy union determinization (multi-pattern backend)
# ---------------------------------------------------------------------------


class LazyUnionDFA:
    """Lazy subset construction over the disjoint union of rule NFAs.

    Semantically identical to
    :func:`repro.matching.multi._union_subset_construction` — a union
    state is the product of per-rule subset states — but materialized on
    demand *and stored sparsely*: only rules whose per-rule state differs
    from their **rest state** appear in the state key.

    The rest state is what makes per-symbol cost independent of the rule
    count.  In ``"search"`` mode every rule is wrapped as ``Σ*·L·Σ*``, so
    after any non-matching symbol a rule falls back to a background
    subset ``B_r`` (the leading ``Σ*`` position, possibly plus first
    positions that match *every* class) with ``δ_r(B_r, c) = δ_r(I_r, c)``
    for all ``c``.  Both facts are *verified* per rule at construction —
    rules where the background equivalence does not hold simply stay in
    the active set forever (sound, merely less sparse).  In
    ``"fullmatch"`` mode the rest state is the dead subset ``∅``, which
    rules enter once they can no longer match and never leave.

    One transition miss then costs ``O(|active| + |excitable(c)|)`` where
    ``excitable(c)`` are the rules whose rest state reacts to class ``c``
    — for IDS-style literal-anchored rules a small fraction of the
    ruleset per symbol class.

    ``rule_sets`` is a live, growing list: ``rule_sets[q]`` is the sorted
    tuple of rule indices matched in union state ``q``, for exactly the
    states materialized so far (every state index an engine can hold is
    materialized by definition).
    """

    lazy_backend = True

    def __init__(
        self,
        nfas: List[NFA],
        partition: ByteClassPartition,
        mode: str = "search",
        max_states: int = DEFAULT_LAZY_STATE_BUDGET,
    ):
        if mode not in ("search", "fullmatch"):
            raise AutomatonError(f"unknown mode {mode!r}")
        self.partition = partition
        self.mode = mode
        self.max_states = max_states
        self.initial = 0
        self._k = partition.num_classes
        self._nfas = nfas
        self._lock = threading.RLock()

        n = len(nfas)
        # Per-rule state interning: masks <-> small local indices.
        self._ridx: List[Dict[int, int]] = [dict() for _ in range(n)]
        self._rmasks: List[List[int]] = [[] for _ in range(n)]
        self._racc: List[List[bool]] = [[] for _ in range(n)]
        self._rmemo: List[Dict[int, int]] = [dict() for _ in range(n)]
        self._rest: List[int] = [-1] * n  # local rest index, -1 = none
        # _excite[c]: rules whose rest state reacts to class c, with the
        # target local state and its acceptance, precomputed.
        self._excite: List[List[Tuple[int, int, bool]]] = [
            [] for _ in range(self._k)
        ]
        base: List[int] = []  # rules accepting at rest (match everywhere)

        init_pairs: List[Tuple[int, int]] = []
        for r, nfa in enumerate(nfas):
            i0 = self._intern_rule_state(r, nfa.initial)
            rest_mask = self._setup_rest(r, nfa)
            if rest_mask is None:
                init_pairs.append((r, i0))  # always active
                continue
            rest_idx = self._ridx[r][rest_mask]
            self._rest[r] = rest_idx
            if self._racc[r][rest_idx]:
                base.append(r)
            if mode == "fullmatch":
                init_pairs.append((r, i0))  # active until it dies

        self._base: Tuple[int, ...] = tuple(base)
        # Union state interning.
        self._index: Dict[Tuple[Tuple[int, int], ...], int] = {}
        self._states: List[Tuple[Tuple[int, int], ...]] = []
        self.rule_sets: List[Tuple[int, ...]] = []
        self.accept: List[bool] = []
        self._flat: List[int] = []
        hits = [
            r for r, q in init_pairs
            if self._racc[r][q] and r not in self._base
        ]
        self._intern_union_state(tuple(init_pairs), hits)

    # -- per-rule machinery ------------------------------------------------
    def _intern_rule_state(self, r: int, mask: int) -> int:
        idx = self._ridx[r].get(mask)
        if idx is None:
            idx = len(self._rmasks[r])
            self._ridx[r][mask] = idx
            self._rmasks[r].append(mask)
            self._racc[r].append((mask & self._nfas[r].final) != 0)
        return idx

    def _rule_mask_step(self, r: int, mask: int, cls: int) -> int:
        out = 0
        trans = self._nfas[r].trans
        for q in iter_bits(mask):
            out |= trans[q][cls]
        return out

    def _setup_rest(self, r: int, nfa: NFA) -> Optional[int]:
        """Find (and verify) rule ``r``'s rest subset; ``None`` = always
        active.  Also precomputes the excitement tables."""
        k = self._k
        if self.mode == "fullmatch":
            # Dead subset: entered when the rule can't match, never left.
            self._intern_rule_state(r, 0)
            return 0
        targets = [self._rule_mask_step(r, nfa.initial, c) for c in range(k)]
        rest = targets[0] if targets else 0
        for m in targets[1:]:
            rest &= m
        if rest == nfa.initial:
            return None  # degenerate (shouldn't happen for Glushkov NFAs)
        rest_acc = (rest & nfa.final) != 0
        init_acc = (nfa.initial & nfa.final) != 0
        if rest_acc != init_acc:
            return None
        for c in range(k):
            if self._rule_mask_step(r, rest, c) != targets[c]:
                return None  # background equivalence fails: stay active
        rest_idx = self._intern_rule_state(r, rest)
        i0 = self._ridx[r][nfa.initial]
        for c in range(k):
            tgt = self._intern_rule_state(r, targets[c])
            # I_r ≡ B_r (verified above): memoize both rows at once.
            self._rmemo[r][i0 * k + c] = tgt
            self._rmemo[r][rest_idx * k + c] = tgt
            if targets[c] != rest:
                self._excite[c].append((r, tgt, self._racc[r][tgt]))
        return rest

    def _rule_step(self, r: int, q: int, cls: int) -> int:
        key = q * self._k + cls
        nq = self._rmemo[r].get(key)
        if nq is None:
            mask = self._rule_mask_step(r, self._rmasks[r][q], cls)
            nq = self._intern_rule_state(r, mask)
            self._rmemo[r][key] = nq
        return nq

    # -- union machinery ---------------------------------------------------
    @property
    def num_classes(self) -> int:
        return self._k

    @property
    def num_materialized(self) -> int:
        """Number of union states created so far."""
        return len(self._states)

    def _intern_union_state(
        self,
        key: Tuple[Tuple[int, int], ...],
        hits: List[int],
        budget: Optional[int] = None,
        message: str = "lazy union determinization exceeded state budget",
    ) -> int:
        limit = self.max_states if budget is None else budget
        if len(self._states) >= limit:
            raise StateExplosionError(message, limit, len(self._states) + 1)
        idx = len(self._states)
        self._states.append(key)
        if hits:
            ruleset = tuple(sorted(set(self._base).union(hits)))
        else:
            ruleset = self._base
        self.rule_sets.append(ruleset)
        self.accept.append(bool(ruleset))
        self._flat.extend([-1] * self._k)
        self._index[key] = idx
        return idx

    def _fill(self, state: int, cls: int, budget: Optional[int] = None,
              message: str = "lazy union determinization exceeded state budget") -> int:
        """Materialize one union transition; returns the *scaled* target."""
        check_may_build(state, cls)
        k = self._k
        with self._lock:
            nxt = self._flat[state * k + cls]
            if nxt >= 0:
                return nxt
            active: List[Tuple[int, int]] = []
            hits: List[int] = []
            seen = set()
            rest = self._rest
            racc = self._racc
            for r, q in self._states[state]:
                seen.add(r)
                nq = self._rule_step(r, q, cls)
                if nq == rest[r]:
                    continue  # back to rest: drop from the sparse key
                active.append((r, nq))
                if racc[r][nq]:
                    hits.append(r)
            excited = self._excite[cls]
            if excited:
                for r, tgt, acc in excited:
                    if r not in seen:
                        active.append((r, tgt))
                        if acc:
                            hits.append(r)
                active.sort()
            key = tuple(active)
            idx = self._index.get(key)
            if idx is None:
                idx = self._intern_union_state(key, hits, budget, message)
            self._flat[state * k + cls] = idx * k
            return idx * k

    def step(self, state: int, cls: int) -> int:
        nxt = self._flat[state * self._k + cls]
        if nxt < 0:
            nxt = self._fill(state, cls)
        return nxt // self._k

    def run_classes(self, classes: Iterable[int], start: Optional[int] = None) -> int:
        k = self._k
        flat = self._flat
        f = (self.initial if start is None else start) * k
        for c in _as_int_list(classes):
            nf = flat[f + c]
            if nf < 0:
                nf = self._fill(f // k, c)
            f = nf
        return f // k

    def rule_set(self, state: int) -> Tuple[int, ...]:
        """Sorted rule indices matched in union state ``state``."""
        return self.rule_sets[state]

    def freeze(
        self, max_states: Optional[int] = None
    ) -> Tuple[DFA, Tuple[Tuple[int, ...], ...]]:
        """Complete the closure and return the eager ``(DFA, rule_sets)``.

        Equivalent to running the eager union subset construction (same
        sparse-state bijection; the error carries the same message so
        callers can't tell which path exceeded the budget), except that
        states already materialized by scans keep their indices.
        """
        k = self._k
        msg = "union subset construction exceeded state budget"
        with self._lock:
            i = 0
            while i < len(self._states):
                base = i * k
                for c in range(k):
                    if self._flat[base + c] < 0:
                        self._fill(i, c, budget=max_states, message=msg)
                i += 1
            n = len(self._states)
            table = np.array(self._flat[: n * k], dtype=np.int32).reshape(n, k) // k
            accept = np.array(self.accept, dtype=bool)
            dfa = DFA(table, self.initial, accept, self.partition)
            return dfa, tuple(self.rule_sets)
