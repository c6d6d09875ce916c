"""High-level public API: compile once, match many ways.

:func:`compile_pattern` runs the paper's four-step pipeline (Sect. VI):

1. regex → NFA (McNaughton–Yamada position construction),
2. NFA → DFA (subset construction, then minimization),
3. DFA → D-SFA (correspondence construction),
4. matching via Algorithm 2 / 3 / 5 or the lockstep engine.

Every stage is built lazily and cached, so callers pay only for what they
use (e.g. a pure-DFA user never builds the SFA, and ``contains`` builds a
separate search automaton on demand).
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from repro.automata.dfa import DFA, minimize, subset_construction
from repro.automata.lazy import LazyDFA, LazySFA
from repro.automata.nfa import NFA, glushkov_nfa
from repro.automata.sfa import SFA, correspondence_construction
from repro.errors import MatchEngineError, StateExplosionError
from repro.matching.lockstep import lockstep_run
from repro.matching.parallel_sfa import parallel_sfa_run
from repro.matching.sequential import SequentialDFAMatcher
from repro.matching.speculative import speculative_run, sync_lanes_run
from repro.parallel.executor import ChunkExecutor, caller_executor
from repro.planning.plan import AUTO, Plan, PlanArg, resolve_plan
from repro.regex.ast import Concat, Literal, Node, Star
from repro.regex.charclass import ByteClassPartition, CharSet
from repro.regex.parser import parse

DEFAULT_MAX_DFA_STATES = 100_000
DEFAULT_MAX_SFA_STATES = 2_000_000


class CompiledPattern:
    """A compiled regular expression with DFA / SFA matching back ends.

    Construction is staged and cached: ``.nfa``, ``.dfa``, ``.min_dfa``,
    ``.sfa`` properties each build (and memoize) one pipeline stage.
    """

    def __init__(
        self,
        pattern: str,
        *,
        ignore_case: bool = False,
        dotall: bool = False,
        max_dfa_states: int = DEFAULT_MAX_DFA_STATES,
        max_sfa_states: int = DEFAULT_MAX_SFA_STATES,
        minimize_dfa: bool = True,
        optimize: bool = False,
    ):
        self.pattern = pattern
        self.ignore_case = ignore_case
        self.dotall = dotall
        self.max_dfa_states = max_dfa_states
        self.max_sfa_states = max_sfa_states
        self.minimize_dfa = minimize_dfa
        self.optimize = optimize
        self.rewrites: tuple = ()
        self.ast: Node = parse(pattern, ignore_case=ignore_case, dotall=dotall)
        if optimize:
            # §3.13 canonicalization: language-preserving, so matching is
            # bit-identical; everything downstream (facts, literals, span
            # engine, planner) works off the smaller rewritten AST.
            from repro.analysis.rewrite import rewrite

            res = rewrite(self.ast)
            self.ast = res.node
            self.rewrites = res.fired
        # Build the partition from the *search-augmented* charset list so the
        # membership and containment automata share one alphabet.
        charsets = list(self.ast.charsets()) + [CharSet.any_byte()]
        self.partition = ByteClassPartition(charsets)
        self._nfa: Optional[NFA] = None
        self._dfa: Optional[DFA] = None
        self._min_dfa: Optional[DFA] = None
        self._sfa: Optional[SFA] = None
        self._nsfa: Optional[SFA] = None
        self._search: Optional["CompiledPattern"] = None
        self._spans = None  # SpanEngine, built on first find/finditer
        self._facts = None  # PatternFacts, built on first facts()/auto plan

    # -- pipeline stages -------------------------------------------------
    @property
    def nfa(self) -> NFA:
        """McNaughton–Yamada position NFA of the pattern."""
        if self._nfa is None:
            self._nfa = glushkov_nfa(self.ast, self.partition)
        return self._nfa

    @property
    def dfa(self) -> DFA:
        """Subset-construction DFA (unminimized)."""
        if self._dfa is None:
            self._dfa = subset_construction(self.nfa, max_states=self.max_dfa_states)
        return self._dfa

    @property
    def min_dfa(self) -> DFA:
        """Minimal DFA (what the paper builds its D-SFA from)."""
        if self._min_dfa is None:
            self._min_dfa = minimize(self.dfa) if self.minimize_dfa else self.dfa
        return self._min_dfa

    @property
    def sfa(self) -> SFA:
        """D-SFA built from the minimal DFA by correspondence construction."""
        if self._sfa is None:
            self._sfa = correspondence_construction(
                self.min_dfa, max_states=self.max_sfa_states
            )
        return self._sfa

    @property
    def nsfa(self) -> SFA:
        """N-SFA built directly from the NFA (for size/ablation studies)."""
        if self._nsfa is None:
            self._nsfa = correspondence_construction(
                self.nfa, max_states=self.max_sfa_states
            )
        return self._nsfa

    def lazy_dfa(self) -> LazyDFA:
        """A fresh on-the-fly DFA (Sect. V-A)."""
        return LazyDFA(self.nfa)

    def lazy_sfa(self) -> LazySFA:
        """A fresh on-the-fly D-SFA over the minimal DFA."""
        return LazySFA(self.min_dfa)

    def facts(self):
        """Static analysis facts of the pattern (cached; the planner's
        pattern-structure input — DESIGN.md §3.9/§3.10)."""
        if self._facts is None:
            from repro.analysis.facts import compute_facts

            self._facts = compute_facts(self.ast, partition=self.partition)
        return self._facts

    # -- matching -----------------------------------------------------------
    def translate(self, data: Union[bytes, bytearray, memoryview]) -> np.ndarray:
        """Byte→class translation of an input (vectorized, zero-copy)."""
        return self.partition.translate(data)

    def fullmatch(
        self,
        data: Union[bytes, bytearray, memoryview],
        *,
        plan: PlanArg = AUTO,
        executor: Optional[ChunkExecutor] = None,
    ) -> bool:
        """Whole-input membership test ``data ∈ L(pattern)``.

        ``plan`` selects the whole execution strategy at once: ``"auto"``
        (the default — the §3.10 cost model picks engine/kernel/chunking
        from input length, pattern facts, core count and calibration), or
        an explicit :class:`~repro.planning.plan.Plan`:

        * ``engine`` ∈ {"dfa", "speculative", "sfa", "lockstep"} — ``dfa``
          is Algorithm 2, ``speculative`` Algorithm 3, ``sfa`` Algorithm 5
          and ``lockstep`` its vectorized form; ``num_chunks`` is the
          paper's thread count ``p``;
        * ``executor`` — chunk-dispatch backend name for the chunked
          engines (``"sfa"``/``"speculative"``), resolved to a warm
          process-wide pool of ``num_workers`` workers.  The single-scan
          engines (``"dfa"``, ``"lockstep"``) ignore it, and without one
          ``"speculative"`` runs Algorithm 3 in NumPy lanes of the
          minimal DFA (DESIGN.md §3.1); lanes that do not resolve build
          the D-SFA under an auto plan and run chunk by chunk otherwise;
        * ``kernel`` ∈ {"python", "stride2", "stride4", "vector"} — the
          chunk-scan kernel (DESIGN.md §3.5) for the ``speculative``,
          ``sfa`` and ``lockstep`` engines; the stride kernels precompose
          the transition table over 2-/4-grams (budget-permitting) so each
          lookup consumes several symbols.  ``"dfa"`` ignores it
          (Algorithm 2 is the paper's scalar baseline).

        ``executor`` here is a caller-owned
        :class:`~repro.parallel.executor.ChunkExecutor` instance (a pool
        cannot live in a frozen plan); when given, the chunked engines
        dispatch on it instead of the plan's named pool.

        Results are plan-invariant: every plan scans the same automata and
        returns the same verdict.
        """
        classes = self.translate(data)
        p = resolve_plan(plan, "fullmatch", len(classes), subject=self)
        return self._run_plan(p, classes, caller_executor(executor))

    def _run_plan(
        self,
        p: Plan,
        classes: np.ndarray,
        ex_instance: Optional[ChunkExecutor] = None,
    ) -> bool:
        """Execute a resolved acceptance plan over translated input.

        ``ex_instance`` carries a caller-supplied executor *object* (plans
        only hold backend names).  Plans the cost model chose itself fall
        back to the serial DFA walk if the D-SFA construction blows its
        state budget — an auto plan must never fail where the python
        baseline succeeds.
        """
        try:
            if p.engine == "dfa":
                return bool(
                    self.min_dfa.accept[
                        SequentialDFAMatcher(self.min_dfa).run_classes(classes)
                    ]
                )
            # Resolve lazily: the single-scan engines must not spin up a pool.
            if p.engine == "speculative":
                if ex_instance is None and p.executor is None:
                    # Lanes that do not resolve hand over to the D-SFA
                    # only under an auto plan, which would have built it
                    # anyway; an explicit plan never builds one and runs
                    # chunk by chunk as speculative_run, in O(|D|) memory.
                    auto = p.source == "auto"
                    return sync_lanes_run(
                        self.min_dfa, classes, p.num_chunks, p.kernel,
                        handover=(lambda: self.sfa) if auto else None,
                    ).accepted
                return speculative_run(
                    self.min_dfa, classes, p.num_chunks, p.reduction,
                    ex_instance or p.resolve_executor(), p.kernel,
                ).accepted
            if p.engine == "sfa":
                return parallel_sfa_run(
                    self.sfa, classes, p.num_chunks, p.reduction,
                    ex_instance or p.resolve_executor(), p.kernel,
                ).accepted
            if p.engine == "lockstep":
                return lockstep_run(
                    self.sfa, classes, p.num_chunks, p.kernel
                ).accepted
        except StateExplosionError:
            if p.source != "auto":
                raise
            return bool(
                self.min_dfa.accept[
                    SequentialDFAMatcher(self.min_dfa).run_classes(classes)
                ]
            )
        raise MatchEngineError(f"unknown engine {p.engine!r}")

    def contains(
        self,
        data: Union[bytes, bytearray, memoryview],
        *,
        plan: PlanArg = AUTO,
        executor: Optional[ChunkExecutor] = None,
    ) -> bool:
        """Substring-search semantics: does any substring match?

        Implemented as membership in ``Σ* · L · Σ*`` (the IDS use case —
        SNORT rules are matched against packet payloads this way).
        ``plan`` and ``executor`` are as in :meth:`fullmatch`; auto plans
        are costed against the containment automaton (the one actually
        scanned).
        """
        sp = self.search_pattern()
        classes = sp.translate(data)
        p = resolve_plan(plan, "contains", len(classes), subject=sp)
        return sp._run_plan(p, classes, caller_executor(executor))

    def search_pattern(self) -> "CompiledPattern":
        """The compiled ``Σ* · pattern · Σ*`` containment automaton."""
        if self._search is None:
            self._search = _SearchPattern(self)
        return self._search

    # -- span extraction -------------------------------------------------
    def span_engine(self):
        """The pattern's :class:`~repro.matching.spans.SpanEngine` (cached)."""
        if self._spans is None:
            from repro.matching.spans import SpanEngine

            self._spans = SpanEngine(self)
        return self._spans

    def finditer(
        self,
        data: Union[bytes, bytearray, memoryview],
        *,
        plan: PlanArg = AUTO,
    ):
        """Iterate the leftmost-longest non-overlapping ``(start, end)``
        spans of the pattern in ``data`` (DESIGN.md §3.7).

        ``plan`` resolves as in :meth:`fullmatch`, but the span passes run
        in NumPy lanes in-process whatever it says; only its ``prefilter``
        field is read (``False`` disables the literal skip-ahead,
        §3.9.3), and spans are invariant under that too.  Semantics match
        ``re.finditer`` except that alternation resolves to the *longest*
        branch (POSIX leftmost-longest) rather than the first.
        """
        return iter(self.span_engine().spans(data, plan=plan))

    def find(
        self,
        data: Union[bytes, bytearray, memoryview],
        *,
        plan: PlanArg = AUTO,
    ) -> Optional[tuple]:
        """First leftmost-longest span, or ``None``.  ``plan`` as
        :meth:`finditer`."""
        spans = self.span_engine().spans(data, plan=plan, limit=1)
        return spans[0] if spans else None

    def count(
        self,
        data: Union[bytes, bytearray, memoryview],
        *,
        plan: PlanArg = AUTO,
    ) -> int:
        """Number of non-overlapping matches.  ``plan`` as :meth:`finditer`."""
        return len(self.span_engine().spans(data, plan=plan))

    def findall(
        self,
        data: Union[bytes, bytearray, memoryview],
        *,
        plan: PlanArg = AUTO,
    ) -> List[bytes]:
        """The matched byte strings, in order.  ``plan`` as :meth:`finditer`."""
        buf = data if isinstance(data, (bytes, bytearray)) else memoryview(data)
        return [
            bytes(buf[s:e])
            for s, e in self.span_engine().spans(data, plan=plan)
        ]

    # -- reporting -------------------------------------------------------
    def sizes(self) -> dict:
        """State counts of every pipeline stage (builds them all)."""
        return {
            "nfa": self.nfa.size,
            "dfa": self.dfa.size,
            "min_dfa": self.min_dfa.size,
            "d_sfa": self.sfa.size,
        }

    def __repr__(self) -> str:
        return f"CompiledPattern({self.pattern!r})"


class _SearchPattern(CompiledPattern):
    """Internal: containment automaton sharing the parent's partition."""

    def __init__(self, parent: CompiledPattern):
        # Bypass CompiledPattern.__init__ parsing; wrap the parent's AST.
        self.pattern = f"(?:.|\\n)*(?:{parent.pattern})(?:.|\\n)*"
        self.ignore_case = parent.ignore_case
        self.dotall = parent.dotall
        self.max_dfa_states = parent.max_dfa_states
        self.max_sfa_states = parent.max_sfa_states
        self.minimize_dfa = parent.minimize_dfa
        self.optimize = parent.optimize  # parent AST is already rewritten
        self.rewrites = parent.rewrites
        any_star = Star(Literal(CharSet.any_byte()))
        self.ast = Concat([any_star, parent.ast, any_star])
        self.partition = parent.partition
        self._nfa = None
        self._dfa = None
        self._min_dfa = None
        self._sfa = None
        self._nsfa = None
        self._spans = None
        self._facts = None
        self._search = self  # searching a search pattern is idempotent


def compile_pattern(
    pattern: str,
    *,
    ignore_case: bool = False,
    dotall: bool = False,
    max_dfa_states: int = DEFAULT_MAX_DFA_STATES,
    max_sfa_states: int = DEFAULT_MAX_SFA_STATES,
    optimize: bool = False,
) -> CompiledPattern:
    """Compile a regex into a :class:`CompiledPattern` (the main entry point).

    ``optimize`` canonicalizes the AST first (DESIGN.md §3.13) — the
    language, and therefore every match result, is unchanged, but
    redundant structure (duplicate alternatives, unfused runs, mergeable
    classes) is gone before determinization pays for it.

    >>> m = compile_pattern("(ab)*")
    >>> m.fullmatch(b"abab")
    True
    >>> m.fullmatch(b"abab", plan=Plan(engine="lockstep", num_chunks=4))
    True
    """
    return CompiledPattern(
        pattern,
        ignore_case=ignore_case,
        dotall=dotall,
        max_dfa_states=max_dfa_states,
        max_sfa_states=max_sfa_states,
        optimize=optimize,
    )
