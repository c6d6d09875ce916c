"""The compiled-artifact LRU cache (DESIGN.md §3.8).

Construction dominates one-shot latency (Table III): a ``match`` request
that recompiles its pattern pays parse → NFA → DFA → minimize → D-SFA →
stride tables before scanning a single byte.  The service therefore keys
every compiled object on its *source digest and flags* and keeps it in a
bounded LRU.  Derived per-stage artifacts — the D-SFA, the span engine's
backward automaton, ``(stage, kernel, stride)`` stride tables — are
memoized *on* the compiled object (``CompiledPattern`` properties,
:func:`repro.automata.stride.cached_stride_table` keyed ``(stride,
budget)``), so one LRU entry owns its whole artifact tree and eviction
frees all of it at once.  :meth:`ArtifactCache.warm` force-builds the
artifacts a request plans to use, which is what makes the cached
round-trip a pure table scan.

Thread safety: handlers run on the server's thread pool, so lookups and
eviction hold one lock.  Compilation itself runs *outside* the lock — a
slow compile must not stall cache hits for other connections — with a
per-key reservation so concurrent first requests for one pattern compile
it once.  The event loop itself only ever calls the non-compiling
:meth:`ArtifactCache.lookup_pattern`/:meth:`~ArtifactCache.lookup_ruleset`,
:func:`plans_built` and :func:`scans_built`, which decide whether a hit
can skip the hop to the pool.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence

from repro.errors import ServiceError
from repro.planning.planner import LANE_ACCEPT_MIN

#: Stages :meth:`ArtifactCache.warm` understands, in pipeline order.
WARM_STAGES = ("dfa", "sfa", "spans")


def scans_built(value, task: str, n: int, plan) -> bool:
    """Whether ``task`` over ``n`` bytes under the resolved ``plan`` scans
    only automata the cached ``value`` has already built.

    Probes the lazily-built stages without building any (as the planner
    does).  ``spans`` needs the span engine and whatever its start pass
    uses; ``fullmatch``/``contains`` qualify on the single-scan DFA walk
    over a built DFA; ``multi`` on an eager union's serial 1-gram scan,
    or on a lazy union — whose transitions are only known to be built
    once a walk under :func:`~repro.automata.lazy.materialized_only`
    finishes.  Chunked engines, stride kernels and sharded sets answer
    ``False``: they may build tables or hand chunks to an executor.
    """
    from repro.parallel.chunking import clamp_chunks

    if task == "spans":
        eng = value._spans
        return eng is not None and eng.scan_built(n, plan.prefilter)
    if task == "multi":
        if value.backend == "lazy":
            return True
        return (
            value.backend == "eager" and plan.kernel == "python"
            and clamp_chunks(n, plan.num_chunks) == 1
        )
    subject = value if task == "fullmatch" else value._search
    return (
        plan.engine == "dfa" and subject is not None
        and subject._min_dfa is not None
    )


def plans_built(value, task: str, n: int) -> bool:
    """Whether planning ``task`` over ``n`` bytes of the cached ``value``
    builds nothing: the planner builds a pattern's minimal DFA and its
    synchronization fact (a pair search) for ``fullmatch``/``contains``
    scans of at least :data:`~repro.planning.planner.LANE_ACCEPT_MIN`
    bytes (for ``contains``, the containment automaton's)."""
    if task not in ("fullmatch", "contains") or n < LANE_ACCEPT_MIN:
        return True
    subject = value if task == "fullmatch" else value._search
    dfa = subject._min_dfa if subject is not None else None
    return getattr(dfa, "_sync_fact", None) is not None


def pattern_key(pattern: str, ignore_case: bool = False) -> str:
    """Stable digest of a single-pattern cache entry."""
    h = hashlib.sha1()
    h.update(b"pattern\0")
    h.update(b"i" if ignore_case else b"-")
    h.update(pattern.encode("utf-8", "surrogatepass"))
    return h.hexdigest()


def ruleset_key(
    rules: Sequence[str], flags: Sequence[bool], mode: str,
    backend: str = "eager", optimize: bool = False,
) -> str:
    """Stable digest of a ruleset cache entry (order-sensitive: rule
    indices are part of the observable result).

    Each rule is length-framed before hashing: byte-regex sources may
    contain any byte (including NUL), so separator-based framing would
    let distinct rulesets collide on one digest — and a collision here
    silently serves the wrong compiled ruleset.

    ``backend`` is part of the key: the same rules compiled eager vs lazy
    vs sharded are different objects (different automata, different
    observable sizes/stats), and a request for one must not be served the
    other.  The legacy default keeps pre-backend digests stable.

    ``optimize`` is part of the key too (an optimized set differs in
    ``sizes()``/``optimize_info``), and optimized entries hash each
    rule's *canonical* form (§3.13): two spellings the rewriter maps to
    one AST compile to the same object, so they share one cache entry —
    the canonical-form-aware key.  Sources that fail to parse hash as-is
    (the build will raise the real error).
    """
    h = hashlib.sha1()
    h.update(b"ruleset\0")
    h.update(mode.encode())
    if backend != "eager":  # legacy digests unchanged for the default
        h.update(b"\0backend\0")
        h.update(backend.encode())
    if optimize:
        h.update(b"\0optimize\0")
        rules = [_canonical_source(p, f) for p, f in zip(rules, flags)]
    for pat, flag in zip(rules, flags):
        raw = pat.encode("utf-8", "surrogatepass")
        h.update(b"i" if flag else b"-")
        h.update(len(raw).to_bytes(8, "big"))
        h.update(raw)
    return h.hexdigest()


def _canonical_source(pattern: str, ignore_case: bool) -> str:
    """Canonical spelling of one rule for optimize-aware keys; the raw
    source on any failure (never raises — key derivation must be total)."""
    try:
        from repro.analysis.rewrite import canonical
        from repro.regex.parser import parse
        from repro.regex.printer import to_pattern

        return to_pattern(canonical(parse(pattern, ignore_case=ignore_case)))
    except Exception:
        return pattern


def _warm_spans(pattern) -> None:
    """Build a pattern's span engine, plus the start automaton when no
    literal prefilter will stand in for the start pass."""
    eng = pattern.span_engine()
    if eng.prefilter is None:
        eng.bwd  # the property builds B


class _Entry:
    __slots__ = ("value", "key", "warmed", "compile_seconds")

    def __init__(self, value, key: str, compile_seconds: float):
        self.value = value
        self.key = key
        self.compile_seconds = compile_seconds
        #: ``(stage, kernel)`` pairs already force-built for this entry.
        self.warmed: set = set()


class ArtifactCache:
    """Bounded LRU over compiled patterns and rulesets.

    ``capacity`` counts entries, not bytes: an entry's footprint is
    dominated by its automata, whose size the compile-time state budgets
    already bound.  All methods are thread-safe.
    """

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ServiceError("cache capacity must be >= 1", kind="bad-request")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        #: key -> Event for compiles in flight (single-flight reservation).
        self._building: Dict[str, threading.Event] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.compile_seconds = 0.0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> List[str]:
        with self._lock:
            return list(self._entries)

    # -- lookups ---------------------------------------------------------
    def get_pattern(self, pattern: str, ignore_case: bool = False):
        """``(CompiledPattern, cache_hit)`` for a pattern source."""
        from repro.matching.engine import compile_pattern

        key = pattern_key(pattern, ignore_case)
        return self._get(
            key, lambda: compile_pattern(pattern, ignore_case=ignore_case)
        )

    def get_ruleset(
        self,
        rules: Sequence[str],
        flags: Optional[Sequence[bool]] = None,
        mode: str = "search",
        backend: str = "eager",
        optimize: bool = False,
    ):
        """``(MultiPatternSet, cache_hit)`` for a list of rule sources.

        ``backend`` selects the union-automaton backend (DESIGN.md §3.11)
        and is part of the cache key; ``"auto"`` resolves at compile time,
        so two auto requests share the entry whatever it resolved to.
        ``optimize`` runs the §3.13 ruleset optimizer at compile time and
        keys the entry on the rules' canonical forms, so equivalent
        spellings of one ruleset share a single compiled object.
        """
        from repro.automata.backend import BACKEND_NAMES
        from repro.matching.multi import MultiPatternSet

        if backend not in BACKEND_NAMES:
            raise ServiceError(
                f"unknown backend {backend!r} "
                f"(choose from {', '.join(BACKEND_NAMES)})",
                kind="bad-request",
            )
        rules = [str(r) for r in rules]
        flags = [bool(f) for f in flags] if flags is not None else [False] * len(rules)
        if len(flags) != len(rules):
            raise ServiceError(
                f"{len(flags)} flags for {len(rules)} rules", kind="bad-request"
            )
        key = ruleset_key(rules, flags, mode, backend, optimize)
        return self._get(
            key,
            lambda: MultiPatternSet(
                list(zip(rules, flags)), mode=mode, backend=backend,
                optimize=optimize,
            ),
        )

    def lookup_pattern(self, pattern: str, ignore_case: bool = False):
        """The cached :class:`CompiledPattern` for a source, or ``None``.

        Never compiles: a hit is counted (and refreshed) exactly like a
        :meth:`get_pattern` hit, a miss is not counted at all — the
        compiling lookup the caller falls back to counts it.
        """
        with self._lock:
            return self._hit(pattern_key(pattern, ignore_case))

    def lookup_ruleset(
        self,
        rules: Sequence[str],
        flags: Sequence[bool],
        mode: str = "search",
        backend: str = "eager",
    ):
        """The cached un-optimized :class:`MultiPatternSet` for validated
        rule sources, or ``None``; counted like :meth:`lookup_pattern`.
        (Optimized entries are keyed on canonical forms, whose derivation
        parses every rule — that lookup stays with :meth:`get_ruleset`.)"""
        with self._lock:
            return self._hit(ruleset_key(rules, flags, mode, backend))

    def _hit(self, key: str):
        """The value under ``key`` counted as a hit, or ``None`` (the
        caller holds the lock)."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry.value

    def _get(self, key: str, build):
        import time

        while True:
            with self._lock:
                value = self._hit(key)
                if value is not None:
                    return value, True
                pending = self._building.get(key)
                if pending is None:
                    self._building[key] = threading.Event()
                    break
            # Another thread is compiling this key: wait and re-check.
            pending.wait()
        try:
            t0 = time.perf_counter()
            value = build()
            dt = time.perf_counter() - t0
        except BaseException:
            with self._lock:
                self._building.pop(key).set()
            raise
        with self._lock:
            self.misses += 1
            self.compile_seconds += dt
            self._entries[key] = _Entry(value, key, dt)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
            self._building.pop(key).set()
        return value, False

    # -- warming ---------------------------------------------------------
    def warm(self, value, stages: Sequence[str], kernel: str = "python") -> List[str]:
        """Force-build the artifacts a scan plan will use.

        ``value`` is a cached :class:`CompiledPattern` or
        :class:`MultiPatternSet`; ``stages`` ⊆ :data:`WARM_STAGES` plus the
        kernel's stride tables when ``kernel`` is a stride kernel.  Returns
        the stage names actually built by this call (idempotent).
        """
        from repro.automata.stride import best_stride_table
        from repro.matching.engine import CompiledPattern

        built: List[str] = []
        entry = self._entry_of(value)
        for stage in stages:
            if stage not in WARM_STAGES:
                raise ServiceError(
                    f"unknown warm stage {stage!r} "
                    f"(choose from {', '.join(WARM_STAGES)})",
                    kind="bad-request",
                )
            mark = (stage, kernel)
            if entry is not None and mark in entry.warmed:
                continue
            if (
                not isinstance(value, CompiledPattern)
                and getattr(value, "backend", "eager") != "eager"
            ):
                # Lazy/sharded rulesets have no eager union DFA, D-SFA or
                # stride tables to force-build — their states materialize
                # as scans touch them.  Skipping (rather than erroring)
                # keeps warm requests backend-agnostic.
                continue
            if stage == "dfa":
                automaton = value.min_dfa if isinstance(value, CompiledPattern) else value.dfa
            elif stage == "sfa":
                automaton = value.sfa
            else:  # spans
                if isinstance(value, CompiledPattern):
                    _warm_spans(value)
                    automaton = value.min_dfa
                else:
                    for r in range(value.num_rules):
                        _warm_spans(value.rule_pattern(r))
                    automaton = value.dfa
            if kernel in ("stride2", "stride4"):
                budget = getattr(value, "stride_budget", None)
                best_stride_table(
                    automaton, 2 if kernel == "stride2" else 4, budget
                )
            built.append(stage)
            if entry is not None:
                entry.warmed.add(mark)
        return built

    def _entry_of(self, value) -> Optional[_Entry]:
        with self._lock:
            for entry in self._entries.values():
                if entry.value is value:
                    return entry
        return None

    # -- reporting -------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        with self._lock:
            rulesets = []
            for entry in self._entries.values():
                v = entry.value
                backend = getattr(v, "backend", None)
                if backend is None or not hasattr(v, "num_materialized"):
                    continue  # single-pattern entries
                rulesets.append({
                    "key": entry.key[:12],
                    "backend": backend,
                    "rules": v.num_rules,
                    "num_materialized": int(v.num_materialized),
                    "groups": int(v.group_count),
                    "compile_seconds": round(entry.compile_seconds, 6),
                })
            out: Dict[str, object] = {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "compile_seconds": round(self.compile_seconds, 6),
            }
            if rulesets:
                out["rulesets"] = rulesets
            return out

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"ArtifactCache(entries={s['entries']}/{s['capacity']}, "
            f"hits={s['hits']}, misses={s['misses']}, "
            f"evictions={s['evictions']})"
        )
