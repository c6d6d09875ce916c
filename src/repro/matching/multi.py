"""Multi-pattern matching: one automaton for a whole ruleset.

The paper's motivating application (SNORT-style deep packet inspection)
matches *thousands* of patterns against every payload.  Prior work
parallelized across rules/packets; SFA parallelizes *within* one scan.
This module combines both: all rules are compiled into a single union
automaton whose DFA states carry the set of rules matched, so one
(chunk-parallel) scan reports every matching rule.

Construction: each rule's Glushkov NFA is wrapped into the containment
form ``Σ*·L_i·Σ*`` and all NFAs are run as one product via subset
construction over the shared byte-class partition.  DFA states remember
which rules' final states they contain (``rule_sets``), so acceptance is a
per-rule bitmask rather than a single bit.  The D-SFA over this DFA then
gives the chunk-parallel scan: the final mapping applied to the start
state yields the full matched-rule set, independent of the chunking
(Theorem 3 applies verbatim — acceptance is any function of the final
state).

**Backends** (DESIGN.md §3.11): *how the union transitions are obtained*
is a compile-time choice, because the eager cross-product explodes for
real rulesets (a dozen random IDS rules already exceed 200k states):

* ``"eager"`` (default) — the historical behaviour: full union subset
  construction up front; every kernel, executor and the D-SFA apply.
* ``"lazy"`` — a :class:`~repro.automata.lazy.LazyUnionDFA` materializes
  union states on first use (paper §V-A); compiles in O(rules), scans
  any ruleset size, and :meth:`MultiPatternSet.freeze` converts a warmed
  set to the eager backend when the reachable state set turns out small.
* ``"sharded"`` — rules are partitioned into groups, each compiled to
  its own (eager where affordable, else lazy) sub-automaton; scans
  translate the payload once, drop groups whose rules are all ruled out
  by the shared literal prefilter (:mod:`repro.analysis.literals`), scan
  the surviving groups — optionally fanned out on a chunk executor —
  and union the matched-rule sets.
* ``"auto"`` — the planner's cost model picks one of the above from the
  §3.9 Glushkov position counts, and *never* raises
  :class:`~repro.errors.StateExplosionError` where lazy can serve (an
  exploding eager attempt falls back to lazy).

The scan paths have feature parity with :class:`CompiledPattern`
(DESIGN.md §3.6): a plan's ``executor`` dispatches chunk scans on the
serial / thread / process backends (union tables ride the
content-addressed shared-memory publication path), its ``kernel`` picks
the scan kernel, and serial scans run the union DFA directly with the
largest affordable precomposed stride table.  Compiled rulesets persist via
:func:`repro.automata.serialize.save_ruleset` and stream via
:class:`repro.matching.stream.StreamingMultiMatcher`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.automata.backend import BACKEND_NAMES, DEFAULT_LAZY_STATE_BUDGET
from repro.automata.dfa import DFA
from repro.automata.lazy import LazyUnionDFA
from repro.automata.nfa import NFA, glushkov_nfa
from repro.automata.sfa import SFA, correspondence_construction
from repro.errors import AutomatonError, MatchEngineError, StateExplosionError
from repro.matching.lockstep import lockstep_run
from repro.matching.parallel_sfa import parallel_sfa_run
from repro.parallel.chunking import clamp_chunks
from repro.parallel.executor import ChunkExecutor, caller_executor
from repro.parallel.scan import scan_block
from repro.planning.plan import AUTO, Plan, PlanArg, resolve_plan
from repro.regex.ast import Concat, Literal, Star
from repro.regex.charclass import ByteClassPartition, CharSet
from repro.regex.parser import parse
from repro.util.bitset import iter_bits

#: Per-table byte budget for the union automaton's stride tables.  More
#: generous than the single-pattern 4 MiB default: an IDS union DFA has
#: more states and byte classes (``|Q|·k²`` grows fast), and one
#: precomposed table is amortized over every payload the ruleset scans.
DEFAULT_STRIDE_BUDGET = 32 << 20

#: State budget for the *probing* eager constructions the auto/sharded
#: backends attempt before falling back to lazy.  Low enough that a
#: doomed cross-product fails in well under a second, high enough that
#: every eager-feasible ruleset seen in practice fits.
EAGER_PROBE_STATES = 20_000

#: Default Glushkov-position budget per rule group of the sharded
#: backend (≈ 8–10 IDS rules per group).
DEFAULT_GROUP_POSITIONS = 192

#: Only probe a group's *eager* construction when its summed position
#: count stays below this; bigger groups go straight to lazy.  Failing
#: probes cost real time (the budget must be exhausted state by state),
#: so at ~100 groups per 1000-rule set a mispredicted probe per group
#: would dominate compile time.
GROUP_EAGER_POSITIONS = 128

#: A rule is a plain regex source, or a ``(pattern, ignore_case)`` pair.
Rule = Union[str, Tuple[str, bool]]


def _normalize_rules(
    patterns: Sequence[Rule],
    ignore_case: bool,
    flags: Optional[Sequence[bool]],
) -> Tuple[List[str], List[bool]]:
    """Split rule entries into (sources, per-rule ignore-case flags).

    Real IDS rules set ``nocase`` per rule, not per ruleset, so a rule may
    be a bare string or a ``(pattern, ignore_case)`` pair; an optional
    ``flags`` sequence covers callers who keep flags in a parallel array.
    The ruleset-wide ``ignore_case`` OR-s into every rule.
    """
    sources: List[str] = []
    per_rule: List[bool] = []
    for entry in patterns:
        if isinstance(entry, str):
            sources.append(entry)
            per_rule.append(bool(ignore_case))
            continue
        try:
            pat, flag = entry
        except (TypeError, ValueError):
            raise MatchEngineError(
                f"rule must be a pattern string or (pattern, ignore_case) "
                f"pair, got {entry!r}"
            ) from None
        if not isinstance(pat, str):
            raise MatchEngineError(f"rule pattern must be a string, got {pat!r}")
        sources.append(pat)
        per_rule.append(bool(flag) or bool(ignore_case))
    if flags is not None:
        if len(flags) != len(sources):
            raise MatchEngineError(
                f"flags length {len(flags)} != rule count {len(sources)}"
            )
        per_rule = [f or bool(g) for f, g in zip(per_rule, flags)]
    return sources, per_rule


class _RuleGroup:
    """One shard of a sharded ruleset: a sub-automaton over a rule slice.

    ``rules`` are the *global* rule indices; the automaton's own rule sets
    are group-local and translated back on every scan.
    """

    __slots__ = ("rules", "automaton", "rule_sets", "lazy")

    def __init__(self, rules, automaton, rule_sets, lazy: bool):
        self.rules = rules
        self.automaton = automaton
        self.rule_sets = rule_sets
        self.lazy = lazy

    @property
    def num_materialized(self) -> int:
        return self.automaton.num_materialized

    def final_state(self, classes, kernel: str, stride_budget: int,
                    start: Optional[int] = None) -> int:
        if self.lazy:
            return self.automaton.run_classes(classes, start=start)
        q = self.automaton.initial if start is None else start
        return scan_block(self.automaton, q, classes, kernel, stride_budget)

    def global_rules(self, state: int) -> Tuple[int, ...]:
        return tuple(self.rules[i] for i in self.rule_sets[state])

    def matched_rules(self, classes, kernel: str, stride_budget: int) -> Tuple[int, ...]:
        return self.global_rules(self.final_state(classes, kernel, stride_budget))


class MultiPatternSet:
    """A set of regexes compiled into one scan automaton.

    Parameters
    ----------
    patterns:
        rule regex sources — plain strings, or ``(pattern, ignore_case)``
        pairs for per-rule case folding.
    mode:
        ``"search"`` (default) — a rule matches if any substring matches
        (IDS semantics, via ``Σ*·L·Σ*``); ``"fullmatch"`` — whole-input
        membership per rule.
    ignore_case:
        ruleset-wide case folding, OR-ed with any per-rule flag.
    max_dfa_states:
        budget for *eager* union subset construction (the cross-product of
        rule automata can blow up; callers see
        :class:`~repro.errors.StateExplosionError`, not an OOM).  Also the
        budget :meth:`freeze` applies when converting a lazy set.
    flags:
        optional per-rule ignore-case flags (same length as ``patterns``),
        OR-ed with the tuple form and ``ignore_case``.
    stride_budget:
        byte cap for the union automaton's precomposed stride tables
        (scans pick the largest affordable stride under it); ``None``
        means the multi default of :data:`DEFAULT_STRIDE_BUDGET`.
    backend:
        one of :data:`~repro.automata.backend.BACKEND_NAMES` — how union
        transitions are obtained (see the module docstring).  The default
        ``"eager"`` is bit-for-bit the historical behaviour; ``"auto"``
        asks the planner and never explodes where lazy can serve.
    max_lazy_states:
        materialization budget (OOM backstop) for the lazy backends;
        ``None`` = :data:`~repro.automata.backend.DEFAULT_LAZY_STATE_BUDGET`.
    group_positions:
        sharded backend only: Glushkov-position budget per rule group
        (``None`` = :data:`DEFAULT_GROUP_POSITIONS`).
    optimize:
        run the §3.13 static optimizer before compiling: every rule's
        AST is canonicalized (:mod:`repro.analysis.rewrite`) and
        duplicate / proven-equivalent / never-matching rules are
        eliminated (:mod:`repro.analysis.optimize`), shrinking the
        union automaton the backends build.  Observable output is
        unchanged — ``matches``/``finditer`` still report *original*
        rule indices via the optimizer's id-remapping table, and
        ``patterns``/``num_rules`` keep the full original rule list.
        Provenance lands in :attr:`optimize_info`.
    """

    def __init__(
        self,
        patterns: Sequence[Rule],
        mode: str = "search",
        ignore_case: bool = False,
        max_dfa_states: int = 200_000,
        max_sfa_states: int = 2_000_000,
        *,
        flags: Optional[Sequence[bool]] = None,
        stride_budget: Optional[int] = None,
        backend: str = "eager",
        max_lazy_states: Optional[int] = None,
        group_positions: Optional[int] = None,
        optimize: bool = False,
    ):
        if mode not in ("search", "fullmatch"):
            raise MatchEngineError(f"unknown mode {mode!r}")
        if not patterns:
            raise MatchEngineError("need at least one pattern")
        if backend not in BACKEND_NAMES:
            raise MatchEngineError(
                f"unknown backend {backend!r} "
                f"(choose from {', '.join(BACKEND_NAMES)})"
            )
        self.patterns, self.rule_flags = _normalize_rules(
            patterns, ignore_case, flags
        )
        self.mode = mode
        self.max_dfa_states = max_dfa_states
        self.max_sfa_states = max_sfa_states
        self.max_lazy_states = (
            DEFAULT_LAZY_STATE_BUDGET if max_lazy_states is None else max_lazy_states
        )
        self.group_positions = (
            DEFAULT_GROUP_POSITIONS if group_positions is None else group_positions
        )
        self.stride_budget = (
            DEFAULT_STRIDE_BUDGET if stride_budget is None else stride_budget
        )

        asts = [
            parse(p, ignore_case=f)
            for p, f in zip(self.patterns, self.rule_flags)
        ]
        self.optimize_info = None
        self._rule_map: Optional[List[Tuple[int, ...]]] = None
        if optimize:
            from repro.analysis.optimize import optimize_ruleset

            info = optimize_ruleset(asts)
            self.optimize_info = info
            asts = list(info.asts)
            self._rule_map = [tuple(g) for g in info.groups]
        if mode == "search":
            any_star = Star(Literal(CharSet.any_byte()))
            asts = [Concat([any_star, a, any_star]) for a in asts]
        charsets: List[CharSet] = [CharSet.any_byte()]
        for a in asts:
            charsets.extend(a.charsets())
        self.partition = ByteClassPartition(charsets)
        self._nfas: Optional[List[NFA]] = [
            glushkov_nfa(a, self.partition) for a in asts
        ]
        self._dfa: Optional[DFA] = None
        self._sfa: Optional[SFA] = None
        self._union: Optional[LazyUnionDFA] = None
        self._groups: Optional[List[_RuleGroup]] = None
        self.rule_sets: Optional[List[Tuple[int, ...]]] = None
        self._backend = self._compile(backend)

    def _compile(self, backend: str) -> str:
        """Build the requested backend's automata; returns the resolved
        backend name (``"auto"`` resolves to what was actually built)."""
        resolved = backend
        if backend == "auto":
            from repro.planning.planner import get_planner

            resolved = get_planner().choose_backend(
                [nfa.num_states for nfa in self._nfas], self.max_dfa_states
            )
        if resolved == "eager":
            # Under "auto" the eager attempt runs with a probe budget so a
            # mispredicted cross-product fails fast and falls back to lazy
            # instead of raising — the "auto never explodes" contract.
            budget = (
                min(self.max_dfa_states, EAGER_PROBE_STATES)
                if backend == "auto" else self.max_dfa_states
            )
            try:
                self._dfa, self.rule_sets = _union_subset_construction(
                    self._nfas, self.partition, budget
                )
                # Bake original rule ids into the eager tables so every
                # downstream consumer (streaming, serialization, the
                # service) sees the unoptimized numbering for free.
                if self._rule_map is not None:
                    self.rule_sets = self._remap_sets(self.rule_sets)
                return "eager"
            except StateExplosionError:
                if backend != "auto":
                    raise
                resolved = "lazy"
        if resolved == "sharded":
            self._groups = self._build_groups()
            return "sharded"
        self._union = LazyUnionDFA(
            self._nfas, self.partition, self.mode, self.max_lazy_states
        )
        self.rule_sets = self._union.rule_sets
        return "lazy"

    def _build_groups(self) -> List[_RuleGroup]:
        """Partition rules into position-budgeted groups and compile each:
        eager when the probe-budgeted subset construction fits, lazy
        otherwise ("each below the eager budget, lazy where still too
        big")."""
        groups: List[_RuleGroup] = []
        n = len(self._nfas)
        budget = max(1, self.group_positions)
        probe = min(self.max_dfa_states, EAGER_PROBE_STATES)
        start = 0
        while start < n:
            end = start + 1
            total = self._nfas[start].num_states
            while end < n and total + self._nfas[end].num_states <= budget:
                total += self._nfas[end].num_states
                end += 1
            rules = tuple(range(start, end))
            sub = [self._nfas[i] for i in rules]
            group = None
            if total <= GROUP_EAGER_POSITIONS:
                try:
                    dfa, rsets = _union_subset_construction(
                        sub, self.partition, probe
                    )
                    group = _RuleGroup(rules, dfa, rsets, False)
                except StateExplosionError:
                    pass
            if group is None:
                union = LazyUnionDFA(
                    sub, self.partition, self.mode, self.max_lazy_states
                )
                group = _RuleGroup(rules, union, union.rule_sets, True)
            groups.append(group)
            start = end
        return groups

    @classmethod
    def from_components(
        cls,
        patterns: Sequence[str],
        flags: Sequence[bool],
        mode: str,
        partition: ByteClassPartition,
        dfa: DFA,
        rule_sets: Sequence[Sequence[int]],
        sfa: Optional[SFA] = None,
        max_sfa_states: int = 2_000_000,
        stride_budget: Optional[int] = None,
        optimize_meta: Optional[dict] = None,
    ) -> "MultiPatternSet":
        """Rebuild a compiled set from persisted tables, skipping parsing
        and subset construction entirely.

        This is the :func:`repro.automata.serialize.load_ruleset` entry
        point; components are trusted to be mutually consistent (the
        loader validates them against the archive invariants).  Persisted
        tables are eager by definition, so the result always has
        ``backend == "eager"``.  ``optimize_meta`` restores the §3.13
        optimizer provenance of an optimized archive; the persisted
        ``rule_sets`` already carry original ids (they were remapped at
        compile time), so no further translation happens on load.
        """
        if mode not in ("search", "fullmatch"):
            raise MatchEngineError(f"unknown mode {mode!r}")
        if not patterns:
            raise MatchEngineError("need at least one pattern")
        if len(flags) != len(patterns):
            raise MatchEngineError("flags length != rule count")
        obj = cls.__new__(cls)
        obj.patterns = [str(p) for p in patterns]
        obj.rule_flags = [bool(f) for f in flags]
        obj.mode = mode
        obj.max_dfa_states = 200_000
        obj.max_sfa_states = max_sfa_states
        obj.max_lazy_states = DEFAULT_LAZY_STATE_BUDGET
        obj.group_positions = DEFAULT_GROUP_POSITIONS
        obj.stride_budget = (
            DEFAULT_STRIDE_BUDGET if stride_budget is None else stride_budget
        )
        obj.partition = partition
        obj._nfas = None  # construction intermediates are not persisted
        obj._dfa = dfa
        obj.rule_sets = [tuple(int(r) for r in rules) for rules in rule_sets]
        obj._sfa = sfa
        obj._union = None
        obj._groups = None
        obj._backend = "eager"
        obj._rule_map = None  # persisted rule_sets already hold original ids
        obj.optimize_info = None
        if optimize_meta is not None:
            from repro.analysis.optimize import OptimizeResult

            obj.optimize_info = OptimizeResult.from_meta(optimize_meta)
        return obj

    # -- properties --------------------------------------------------------
    @property
    def num_rules(self) -> int:
        return len(self.patterns)

    @property
    def backend(self) -> str:
        """The resolved backend: ``"eager"``, ``"lazy"`` or ``"sharded"``
        (``"auto"`` resolves at construction and is never stored)."""
        return self._backend

    @property
    def dfa(self) -> DFA:
        """The union DFA (accepting = at least one rule matches).

        Only the eager backend materializes it; :meth:`freeze` converts a
        lazy/sharded set when the eager tables are genuinely needed.
        """
        if self._dfa is None:
            raise AutomatonError(
                f"backend={self._backend!r} has no eager union DFA; "
                f"freeze() converts a warmed set to the eager backend"
            )
        return self._dfa

    @property
    def sfa(self) -> SFA:
        """The D-SFA over the union DFA (built lazily; eager backend only)."""
        if self._sfa is None:
            self._sfa = correspondence_construction(
                self.dfa, max_states=self.max_sfa_states
            )
        return self._sfa

    @property
    def num_materialized(self) -> int:
        """Union states materialized so far (all of them when eager)."""
        if self._backend == "lazy":
            return self._union.num_materialized
        if self._backend == "sharded":
            return sum(g.num_materialized for g in self._groups)
        return self._dfa.num_states

    @property
    def group_count(self) -> int:
        """Number of rule groups (0 unless sharded)."""
        return len(self._groups) if self._groups is not None else 0

    def freeze(self) -> "MultiPatternSet":
        """Convert this set to the eager backend in place (no-op if it
        already is) and return it.

        For a lazy set this completes the closure of the states the scans
        warmed up; for a sharded set it runs the full union subset
        construction.  Both are budgeted by ``max_dfa_states`` and raise
        :class:`~repro.errors.StateExplosionError` when the language
        genuinely exceeds it — the caller keeps the unfrozen set.
        """
        if self._backend == "eager":
            return self
        if self._backend == "lazy":
            dfa, rule_sets = self._union.freeze(self.max_dfa_states)
            self._dfa = dfa
            self.rule_sets = list(rule_sets)
            self._union = None
        else:  # sharded: regroup into one eager union
            if self._nfas is None:  # pragma: no cover - sharded always has NFAs
                raise AutomatonError("sharded set lost its construction NFAs")
            self._dfa, self.rule_sets = _union_subset_construction(
                self._nfas, self.partition, self.max_dfa_states
            )
            self._groups = None
        if self._rule_map is not None:
            self.rule_sets = self._remap_sets(self.rule_sets)
        self._backend = "eager"
        return self

    # -- optimizer id remapping ---------------------------------------------
    def _remap_sets(
        self, rule_sets: Sequence[Sequence[int]]
    ) -> List[Tuple[int, ...]]:
        """Translate compiled-rule sets to original-id sets (eager tables)."""
        rm = self._rule_map
        assert rm is not None
        return [
            tuple(sorted({o for r in rs for o in rm[r]}))
            for rs in rule_sets
        ]

    def _report_rules(self, rules) -> Set[int]:
        """Rule ids as the caller should see them (§3.13 contract).

        Eager tables are remapped once at construction/freeze, so only
        the lazy and sharded backends translate per verdict here.
        """
        rm = self._rule_map
        if rm is None or self._backend == "eager":
            return set(rules)
        out: Set[int] = set()
        for r in rules:
            out.update(rm[r])
        return out

    def sizes(self) -> Dict[str, int]:
        if self._backend == "lazy":
            out = {
                "rules": self.num_rules,
                "union_dfa_materialized": self._union.num_materialized,
            }
        elif self._backend == "sharded":
            out = {
                "rules": self.num_rules,
                "groups": len(self._groups),
                "group_states": sum(g.num_materialized for g in self._groups),
                "lazy_groups": sum(1 for g in self._groups if g.lazy),
            }
        else:
            out = {
                "rules": self.num_rules,
                "union_dfa": self._dfa.num_states,
                "union_d_sfa": self.sfa.num_states,
            }
        if self.optimize_info is not None:
            out["rules_compiled"] = self.optimize_info.num_kept
        return out

    # -- matching ------------------------------------------------------------
    def matches(
        self,
        data: bytes,
        *,
        plan: PlanArg = AUTO,
        executor: Optional[ChunkExecutor] = None,
    ) -> Set[int]:
        """Indices of all rules matching ``data``.

        ``plan`` resolves the scan strategy (``"auto"`` = cost model, or an
        explicit :class:`~repro.planning.plan.Plan`).  A plan with
        ``num_chunks > 1`` runs Algorithm 5 on the union D-SFA — lockstep
        (vectorized) when it names no executor, or per-chunk scans
        dispatched through its executor backend (the process backend
        publishes the union table over shared memory once);
        ``executor`` is a caller-owned
        :class:`~repro.parallel.executor.ChunkExecutor` used instead of
        the plan's named pool.  The plan's ``kernel`` picks the scan
        kernel; serial scans use the largest affordable precomposed stride
        table of the union DFA.  The result is chunking- and
        backend-invariant — the lazy backend walks its on-the-fly
        automaton, the sharded backend scans only the groups the literal
        prefilter cannot rule out and unions their verdicts.
        """
        classes = self.partition.translate(data)
        p = resolve_plan(plan, "multi", len(classes), subject=self)
        ex = caller_executor(executor)
        if self._backend == "sharded":
            return self._sharded_matches(data, classes, p, ex)
        q = self._final_origin_state(classes, p, ex)
        return self._report_rules(self.rule_sets[q])

    def matches_any(
        self,
        data: bytes,
        *,
        plan: PlanArg = AUTO,
        executor: Optional[ChunkExecutor] = None,
    ) -> bool:
        """Does any rule match?  (cheapest verdict; ``plan`` and
        ``executor`` as :meth:`matches`)"""
        classes = self.partition.translate(data)
        p = resolve_plan(plan, "multi", len(classes), subject=self)
        ex = caller_executor(executor)
        if self._backend == "sharded":
            return bool(
                self._sharded_matches(data, classes, p, ex, any_only=True)
            )
        q = self._final_origin_state(classes, p, ex)
        if self._backend == "lazy":
            return self._union.accept[q]
        return bool(self._dfa.accept[q])

    def rule_literal(self, rule: int) -> Optional[bytes]:
        """The longest byte string every match of ``rule`` must contain.

        Computed by the static analyzer (DESIGN.md §3.9) from the rule's
        raw pattern and cached; ``None`` when the rule carries no required
        literal (e.g. nullable patterns, pure character classes).  This is
        the per-rule routing metadata for literal prescreening and the
        sharded backend's group routing: a payload that does not contain
        the literal cannot match the rule, in either mode.
        """
        from repro.analysis.literals import literal_info
        from repro.regex.parser import parse

        cache = getattr(self, "_rule_literals", None)
        if cache is None:
            cache = {}
            self._rule_literals = cache
        if rule not in cache:
            ast = parse(
                self.patterns[rule], ignore_case=self.rule_flags[rule]
            )
            claims = literal_info(ast).claims()
            cache[rule] = max(
                (f.text for f in claims), key=len, default=None
            )
        return cache[rule]

    def prescreen(self, data: bytes) -> List[int]:
        """Rule indices *not ruled out* by literal containment.

        A rule whose required literal does not occur in ``data`` cannot
        match and is dropped; rules without literal metadata always
        survive.  Sound in both modes — a required factor occurs inside
        every accepted string, hence inside any matching payload region.
        """
        hay = data if hasattr(data, "find") else bytes(data)
        out = []
        for r in range(self.num_rules):
            lit = self.rule_literal(r)
            if lit is None or hay.find(lit) >= 0:
                out.append(r)
        return out

    def rule_pattern(self, rule: int) -> "CompiledPattern":
        """The compiled single-pattern engine of one rule (cached).

        Used by span extraction: per-rule spans need each rule's own
        pattern automaton, not the union (which collapses rule identity
        into state sets).  Compiled lazily per rule and memoized — works
        for loaded rulesets too (sources and flags are persisted).
        """
        from repro.matching.engine import CompiledPattern

        cache = getattr(self, "_rule_compiled", None)
        if cache is None:
            cache = {}
            self._rule_compiled = cache
        m = cache.get(rule)
        if m is None:
            m = CompiledPattern(
                self.patterns[rule], ignore_case=self.rule_flags[rule]
            )
            cache[rule] = m
        return m

    def finditer(
        self,
        data: bytes,
        *,
        plan: PlanArg = AUTO,
    ) -> List[Tuple[int, int, int]]:
        """Leftmost-longest ``(rule, start, end)`` spans for every rule.

        Three-stage plan (DESIGN.md §3.7/§3.9.3): a literal *prescreen*
        first drops every rule whose required literal is absent from the
        payload (and skips the union scan outright when nothing survives);
        then the union automaton prefilters with one scan under ``plan``
        — in search mode, rules that do not match anywhere extract no
        spans — then each surviving rule runs its own span engine
        serially.  Results are merged in stream order
        ``(start, end, rule)``.  In ``"fullmatch"`` mode the union verdict
        is whole-input membership, not occurrence, so every prescreen
        survivor is extracted.
        """
        survivors = self.prescreen(data)
        if not survivors:
            return []
        if self.mode == "search":
            hits = self.matches(data, plan=plan)
            hit_rules: Sequence[int] = sorted(hits.intersection(survivors))
        else:
            hit_rules = survivors
        out = [
            (r, s, e)
            for r in hit_rules
            for s, e in self.rule_pattern(r).finditer(data)
        ]
        out.sort(key=lambda t: (t[1], t[2], t[0]))
        return out

    # -- scan internals ------------------------------------------------------
    def _final_origin_state(
        self,
        classes: np.ndarray,
        plan: Plan,
        ex_instance: Optional[ChunkExecutor] = None,
    ) -> int:
        """Union-automaton state reached on ``classes`` under a resolved
        plan (eager and lazy backends; sharded has no single state)."""
        if self._backend == "lazy":
            # On-the-fly walk: chunking and kernels don't apply (there is
            # no materialized table to stride or to hand a pool), and the
            # final state is blocking-invariant by definition.
            return self._union.run_classes(classes)
        p = clamp_chunks(len(classes), plan.num_chunks)
        if p == 1:
            # One chunk gains nothing from a pool, and the serial DFA walk
            # avoids building the (much larger) union D-SFA entirely.
            return self._serial_scan(classes, plan.kernel)
        ex = ex_instance or plan.resolve_executor()
        if ex is None:
            return lockstep_run(
                self.sfa, classes, p, plan.kernel,
                stride_budget=self.stride_budget,
            ).final_states[0]
        res = parallel_sfa_run(
            self.sfa, classes, p, plan.reduction, ex, plan.kernel,
            stride_budget=self.stride_budget,
        )
        return res.final_states[0]

    def _serial_scan(self, classes: np.ndarray, kernel: str) -> int:
        """One-chunk scan straight on the union DFA (no SFA needed).

        The stride kernels precompose the *DFA* table — far smaller than
        the union D-SFA, so the stride budget stretches much further —
        degrading stride4 → stride2 → 1-gram as the byte-class alphabet
        forces them over budget.
        """
        return scan_block(
            self._dfa, self._dfa.initial, classes, kernel, self.stride_budget
        )

    def _sharded_matches(
        self,
        data: bytes,
        classes: np.ndarray,
        plan: Plan,
        ex_instance: Optional[ChunkExecutor],
        any_only: bool = False,
    ) -> Set[int]:
        """Scan the groups the literal prefilter cannot rule out; union
        their matched-rule sets (optionally short-circuiting)."""
        survivors = set(self.prescreen(data))
        rm = self._rule_map

        def group_live(g: _RuleGroup) -> bool:
            # Prescreen survivors carry *original* ids; compiled group
            # members answer for their whole id group under the optimizer.
            if rm is None:
                return any(r in survivors for r in g.rules)
            return any(survivors.intersection(rm[r]) for r in g.rules)

        live = [g for g in self._groups if group_live(g)]
        kernel, budget = plan.kernel, self.stride_budget

        def scan_group(g: _RuleGroup) -> Tuple[int, ...]:
            return g.matched_rules(classes, kernel, budget)

        if any_only:
            for g in live:
                hit = scan_group(g)
                if hit:
                    return self._report_rules(hit)
            return set()
        ex = ex_instance or plan.resolve_executor()
        if ex is None:
            results = [scan_group(g) for g in live]
        else:
            results = ex.map(scan_group, live)
        out: Set[int] = set()
        for r in results:
            out.update(r)
        return self._report_rules(out)

    def __repr__(self) -> str:
        if self._backend == "sharded":
            detail = f"groups={len(self._groups)}"
        elif self._backend == "lazy":
            detail = f"union_dfa_materialized={self._union.num_materialized}"
        else:
            detail = f"union_dfa={self._dfa.num_states}"
        return (
            f"MultiPatternSet(rules={self.num_rules}, mode={self.mode!r}, "
            f"backend={self._backend!r}, {detail})"
        )


def _union_subset_construction(
    nfas: List[NFA],
    partition: ByteClassPartition,
    max_states: Optional[int],
) -> Tuple[DFA, List[Tuple[int, ...]]]:
    """Subset construction over the disjoint union of rule NFAs.

    State = tuple of per-rule bitmasks.  Returns the DFA plus, per DFA
    state, the sorted tuple of rule indices whose final set is hit.
    """
    k = partition.num_classes
    start = tuple(nfa.initial for nfa in nfas)
    index: Dict[Tuple[int, ...], int] = {start: 0}
    states: List[Tuple[int, ...]] = [start]
    rows: List[List[int]] = []
    i = 0
    while i < len(states):
        cur = states[i]
        row = [0] * k
        for c in range(k):
            nxt = []
            for nfa, mask in zip(nfas, cur):
                out = 0
                for q in iter_bits(mask):
                    out |= nfa.trans[q][c]
                nxt.append(out)
            key = tuple(nxt)
            idx = index.get(key)
            if idx is None:
                if max_states is not None and len(states) >= max_states:
                    raise StateExplosionError(
                        "union subset construction exceeded state budget",
                        max_states,
                        len(states) + 1,
                    )
                idx = len(states)
                index[key] = idx
                states.append(key)
            row[c] = idx
        rows.append(row)
        i += 1

    rule_sets: List[Tuple[int, ...]] = []
    accept = np.zeros(len(states), dtype=bool)
    for s, masks in enumerate(states):
        hit = tuple(
            r for r, (nfa, mask) in enumerate(zip(nfas, masks)) if mask & nfa.final
        )
        rule_sets.append(hit)
        accept[s] = bool(hit)
    dfa = DFA(np.array(rows, dtype=np.int32), 0, accept, partition)
    return dfa, rule_sets
