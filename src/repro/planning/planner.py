"""The cost-model planner behind ``plan="auto"`` (DESIGN.md §3.10).

The paper's central observation is that the *right* execution strategy —
sequential DFA vs. speculative vs. parallel SFA, and at which stride and
chunking — depends on input size, pattern structure, and core count.
:class:`Planner` makes that choice explicit: it enumerates a small set of
candidate :class:`~repro.planning.plan.Plan`\\ s and scores each with

    t(plan) = n / (rate(kernel) · speedup(executor, p))
              + dispatch(executor) + build(kernel, subject)

where ``rate`` comes from the persisted calibration (or its baked-in
defaults), ``speedup`` models executor scaling (threads gain nothing for
the GIL-bound scalar kernels; processes scale at ~85% efficiency), and
``build`` charges one-time construction (D-SFA, stride tables) only when
the subject has not already built it — a warm pattern plans differently
from a cold one, which is exactly the Table III amortization story.
Lane plans (``⌊√m⌋`` NumPy lanes over ``m`` packed symbols, offered
for acceptance scans from :data:`LANE_ACCEPT_MIN` bytes) have no
executor and add the fixed cost of their ``⌊√m⌋`` lane steps instead:

    t(lanes) = n / rate(lanes_<kernel>) + ⌊√m⌋ · lane_step + build

Above that gate the planner builds the subject's minimal DFA (every
acceptance candidate scans it or compiles the D-SFA from it) and reads
its synchronization fact (:meth:`~repro.automata.dfa.DFA.sync_fact`).
Where the DFA synchronizes it offers Algorithm 3 in lanes of the DFA's
own stride table (``speculative``, DESIGN.md §3.1), which builds no
D-SFA but pays for collapsing every lane's runs into one:

    t(speculative) = t(lanes) + (⌊√m⌋ - 1) · live · ⌈depth / s⌉ · sync_entry

beside the ``lockstep`` lanes over the D-SFA, which stay the choice for
automata that do not synchronize and wherever a built D-SFA is cheaper.

Two hard guards sit on top of the arithmetic:

* the **vector kernel is never a candidate** for plain acceptance scans —
  its all-states gather is a 15× slowdown there (0.067× in
  ``bench_kernels``) while being 35× on speculative transform scans;
* the chosen plan's estimate must not exceed the serial-python estimate
  ("never slower than python") — the python baseline is always in the
  candidate set, so cost minimization enforces this by construction.

Empty/tiny inputs short-circuit to a serial plan **before** any
calibration access, so a 10-byte ``repro grep`` neither reads nor creates
cache files; that plan is built once per task and reused.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Dict, List, Optional, Tuple

from repro.planning.calibration import Calibration, get_calibration
from repro.planning.plan import TASKS, Plan

#: Below this many input bytes every strategy question is moot: scan it
#: serially with the reference loop (and skip the calibration stat/read).
TINY_INPUT_BYTES = 1 << 12

#: Do not consider multi-worker dispatch below this input size — the
#: per-call pool overhead (~ms) dwarfs the scan itself.
PARALLEL_MIN_BYTES = 1 << 20

#: Modelled scaling efficiency of one extra process worker.
PROCESS_EFFICIENCY = 0.85

#: Acceptance scans of fewer bytes than this are not offered lane plans.
#: Measured crossover of ``lockstep/strideS`` with ``⌊√m⌋`` lanes against
#: the single-state ``sfa/strideS/p1`` loop on the accept benchmark's
#: texts (2 vCPUs, NumPy 2.4, median of 15, two runs): at stride 4 lanes
#: run 0.79-0.86x of the loop at 16 KiB, 0.89-1.00x at 24 KiB,
#: 0.95-1.15x at 32 KiB and 1.14-1.34x at 48 KiB (r_5, r_50, fig10); at
#: stride 2 (ids_cgi) they already run 1.04-1.10x at 16 KiB.
LANE_ACCEPT_MIN = 32 << 10

#: Stride-table compose rate (table entries per second) charged when a
#: candidate needs a table the subject has not built yet.
STRIDE_BUILD_ENTRIES_PER_S = 3e6

#: Flat one-time estimate for the correspondence construction (D-SFA)
#: when the subject has not built its SFA yet.
SFA_BUILD_S = 0.05

#: Seconds per estimated D-SFA entry, charged (when above
#: :data:`SFA_BUILD_S`) for the D-SFA of a DFA that synchronizes.  Such
#: a D-SFA has about ``live²`` states (r_50: 10,100 at 100 live states;
#: r_100: 40,200 at 200; ids_cgi: 770 at 25; ids_cmd: 651 at 22), and
#: its build takes time in proportion to ``live² · |Q| · k`` entries:
#: r_50 3.0M entries in 73-104 ms, r_100 24.1M in 453-543 ms, ids_cgi
#: 0.26M in 14-16 ms, ids_cmd 0.22M in 15-23 ms (2 vCPUs, NumPy 2.4).
SFA_BUILD_S_PER_ENTRY = 2.5e-8

#: Rulesets whose total Glushkov position count (§3.9: the NFA state
#: count is positions + 1, so this is the exact product-automaton
#: dimensionality) stays below this are compiled eagerly outright — the
#: cross-product has always fit the budget at this size in practice.
AUTO_EAGER_POSITIONS = 384

#: Above this total position count the cross-product is hopeless even as
#: a probe and per-group literal routing starts paying for itself, so
#: ``backend="auto"`` prefers sharding over one monolithic lazy union.
AUTO_SHARDED_POSITIONS = 1536


def _built(obj, attr: str):
    """A lazily-built pipeline stage, or ``None`` — without building it."""
    return getattr(obj, f"_{attr}", None)


class Planner:
    """Chooses a :class:`Plan` from the cost model above.

    Stateless apart from the injected calibration (lazily fetched via
    :func:`~repro.planning.calibration.get_calibration` when not given),
    a plan counter and the one serial plan per task it returns for tiny
    inputs; one process-wide instance serves all entry points
    (:func:`get_planner`).
    """

    def __init__(
        self,
        calibration: Optional[Calibration] = None,
        cpu_count: Optional[int] = None,
    ):
        self._calibration = calibration
        self.cpu_count = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
        self.plans_made = 0
        self._tiny_plans: Dict[str, Plan] = {}

    def calibration(self) -> Calibration:
        if self._calibration is not None:
            return self._calibration
        return get_calibration()

    # -- entry point -----------------------------------------------------
    def plan(
        self,
        task: str,
        n: int,
        *,
        subject=None,
    ) -> Plan:
        """Pick a plan for scanning ``n`` bytes in the given ``task`` mode.

        ``subject`` (optional) is the compiled object to be scanned; the
        planner mines it for analysis facts, automaton sizes and
        already-built artifacts.  It builds one thing: for ``fullmatch``/
        ``contains`` scans of at least :data:`LANE_ACCEPT_MIN` bytes, the
        subject's minimal DFA and its synchronization fact, which every
        acceptance candidate needs anyway (a DFA over the state budget
        raises :class:`~repro.errors.StateExplosionError` here, as the scan
        would).  ``n < 0`` means "unknown length" (streaming): a nominal
        1 MiB is assumed.
        """
        if task not in TASKS:
            from repro.errors import MatchEngineError

            raise MatchEngineError(f"unknown plan task {task!r}")
        self.plans_made += 1
        if n < 0:
            n = PARALLEL_MIN_BYTES  # nominal size for unbounded streams
        if n < TINY_INPUT_BYTES:
            plan = self._tiny_plans.get(task)
            if plan is None:
                plan = self._tiny_plans[task] = self._serial_plan(
                    task, f"n < {TINY_INPUT_BYTES}: serial reference scan"
                )
            return plan
        cal = self.calibration()
        candidates, why = self._candidates(task, n, subject, cal)
        best_t, best = min(candidates, key=lambda c: c[0])
        return Plan(
            engine=best.engine,
            executor=best.executor,
            num_workers=best.num_workers,
            kernel=best.kernel,
            num_chunks=best.num_chunks,
            prefilter=best.prefilter,
            reduction=best.reduction,
            source="auto",
            reason=f"n={n}: {best.summary()} est {best_t * 1e3:.2f}ms "
            f"over {len(candidates)} candidates ({self.cpu_count} cores)"
            + (f"; {why}" if why else ""),
        )

    def choose_backend(
        self, rule_nfa_states: List[int], max_dfa_states: int
    ) -> str:
        """Pick a union-automaton backend for a ruleset (DESIGN.md §3.11).

        Decides from the §3.9 state-bound facts alone — per-rule Glushkov
        NFA sizes, available before any subset construction: the union
        DFA's state count is bounded by the product of the per-rule subset
        lattices, and in practice explodes once the summed position count
        leaves the few-hundred range (a dozen random IDS rules already
        exceed 200k eager states).  Returns ``"eager"``, ``"lazy"`` or
        ``"sharded"``; the eager verdict is a *prediction*, so
        ``MultiPatternSet`` still probes it with a reduced budget and
        falls back to lazy on :class:`~repro.errors.StateExplosionError`
        — ``backend="auto"`` never raises where lazy can serve.
        """
        total = sum(int(s) for s in rule_nfa_states)
        if total <= min(AUTO_EAGER_POSITIONS, max_dfa_states):
            return "eager"
        if total > AUTO_SHARDED_POSITIONS:
            return "sharded"
        return "lazy"

    # -- candidate generation --------------------------------------------
    def _serial_plan(self, task: str, reason: str) -> Plan:
        engine = "dfa" if task in ("fullmatch", "contains") else "lockstep"
        return Plan(engine=engine, kernel="python", num_chunks=1,
                    source="auto", reason=reason)

    def _candidates(
        self, task: str, n: int, subject, cal: Calibration
    ) -> Tuple[List[Tuple[float, Plan]], str]:
        """The costed candidates, and a clause for the plan's reason."""
        strides = self._affordable_strides(subject)
        if task in ("fullmatch", "contains"):
            return self._acceptance_candidates(n, subject, cal, strides)
        if task == "spans":
            return self._span_candidates(n, cal), ""
        # "multi" and "stream" both reduce to a serial block scan whose
        # kernel is the only real choice.  Lanes are not offered: they
        # scan the D-SFA, which for a ruleset's union is often far larger
        # than the union DFA the one-chunk scan walks, and the planner
        # does not price that build by size.
        return self._blockscan_candidates(task, n, subject, cal, strides), ""

    def _acceptance_candidates(
        self, n: int, subject, cal: Calibration, strides: List[int]
    ) -> Tuple[List[Tuple[float, Plan]], str]:
        mb = n / 1e6
        out: List[Tuple[float, Plan]] = [
            # The "never slower than python" floor: Algorithm 2 on the
            # minimal DFA, no SFA or stride table to build.
            (
                mb / cal.rate("dfa_python"),
                Plan(engine="dfa", kernel="python", num_chunks=1),
            )
        ]
        dfa = self._lane_dfa(n, subject)
        fact = dfa.sync_fact() if dfa is not None else None
        sfa_build = self._sfa_build_s(subject, dfa, fact)
        for stride in strides:
            kernel = f"stride{stride}"
            table_build = self._stride_build_s(subject, stride, d_sfa=True)
            t = mb / cal.rate(f"sfa_{kernel}") + sfa_build + table_build
            out.append((t, Plan(engine="sfa", kernel=kernel, num_chunks=1)))
            if n >= LANE_ACCEPT_MIN:
                # Algorithm 5 over ⌊√m⌋ in-process lanes of m packed
                # symbols: ⌊√m⌋ steps of fixed NumPy dispatch, each
                # advancing every lane.
                lanes = math.isqrt(n // stride)
                t = (
                    mb / cal.rate(f"lanes_{kernel}")
                    + lanes * cal.dispatch_s("lane_step")
                    + sfa_build
                    + table_build
                )
                out.append((
                    t,
                    Plan(engine="lockstep", kernel=kernel, num_chunks=lanes),
                ))
        if fact is not None and fact.holds:
            # Algorithm 3 in lanes of the DFA's own stride table: no D-SFA,
            # but each lane first carries one run per live state until
            # they collapse, about ⌈depth / stride⌉ rows.
            for stride in self._fitting_strides(
                dfa.num_states, dfa.num_classes, subject
            ):
                kernel = f"stride{stride}"
                lanes = math.isqrt(n // stride)
                rows = -(-(fact.depth or 0) // stride)
                entries = (lanes - 1) * fact.live * rows
                t = (
                    mb / cal.rate(f"lanes_{kernel}")
                    + lanes * cal.dispatch_s("lane_step")
                    + entries * cal.dispatch_s("sync_entry")
                    + self._table_build_s(dfa, stride)
                )
                out.append((
                    t,
                    Plan(engine="speculative", kernel=kernel, num_chunks=lanes),
                ))
        # NOTE: "vector" is deliberately absent — the all-states gather is
        # the 0.067× regime on acceptance scans (satellite guard; pinned
        # by tests/test_plan.py on the bench_kernels workload).
        if self.cpu_count > 1 and n >= PARALLEL_MIN_BYTES:
            p = self.cpu_count
            speedup = 1 + (p - 1) * PROCESS_EFFICIENCY
            kernel = f"stride{strides[0]}" if strides else "python"
            t = (
                mb / (cal.rate(f"sfa_{kernel}") * speedup)
                + cal.dispatch_s("processes")
                + sfa_build
                + (self._stride_build_s(subject, strides[0], d_sfa=True)
                   if strides else 0.0)
            )
            out.append((
                t,
                Plan(engine="sfa", kernel=kernel, num_chunks=p,
                     executor="processes", num_workers=p),
            ))
        return out, fact.describe() if fact is not None else ""

    def _span_candidates(
        self, n: int, cal: Calibration
    ) -> List[Tuple[float, Plan]]:
        # One plan: the span engine's start pass and end walk run in NumPy
        # lanes in-process (DESIGN.md §3.7), which beat chunk dispatch to a
        # process pool on the measured 1-2-core hosts.  prefilter=None: the
        # engine applies its analyzer-chosen literal prefilter when one
        # exists (§3.9.3) — the planner has no better information here.
        return [
            (n / 1e6 / cal.rate("spans_python"),
             Plan(kernel="python", num_chunks=1))
        ]

    def _blockscan_candidates(
        self, task: str, n: int, subject, cal: Calibration, strides: List[int]
    ) -> List[Tuple[float, Plan]]:
        mb = n / 1e6
        backend = getattr(subject, "backend", "eager") if subject is not None else "eager"
        if backend not in (None, "eager"):
            # Lazy/sharded union automata have no materialized table to
            # stride or to lockstep over; the scan entry points walk them
            # directly, so the only honest plan is the serial baseline.
            return [(
                mb / cal.rate("sfa_python"),
                Plan(engine="lockstep", kernel="python", num_chunks=1,
                     reason=f"backend={backend!r}: direct automaton walk"),
            )]
        out: List[Tuple[float, Plan]] = [
            (
                mb / cal.rate("sfa_python"),
                Plan(engine="lockstep", kernel="python", num_chunks=1),
            )
        ]
        for stride in strides:
            kernel = f"stride{stride}"
            t = mb / cal.rate(f"sfa_{kernel}") + self._stride_build_s(
                subject, stride
            )
            out.append(
                (t, Plan(engine="lockstep", kernel=kernel, num_chunks=1))
            )
        return out

    # -- subject probing (never builds anything) -------------------------
    def _facts(self, subject):
        if subject is None:
            return None
        facts = getattr(subject, "facts", None)
        return facts() if callable(facts) else facts

    def _affordable_strides(self, subject) -> List[int]:
        """Strides worth asking for, best first.

        ``best_stride_table`` degrades gracefully at build time, so this
        only has to rule out the hopeless cases (huge predicted tables)
        to avoid charging build time for a table that will never exist.
        """
        facts = self._facts(subject)
        if facts is not None:
            ok = [
                p.stride
                for p in facts.stride_predictions
                if p.affordable_lower
            ]
            return sorted(ok, reverse=True)
        table = self._automaton_shape(subject)
        if table is None:
            return [4, 2]  # nothing known: let build-time budgeting decide
        return self._fitting_strides(*table, subject)

    @staticmethod
    def _fitting_strides(states: int, k: int, subject) -> List[int]:
        """Strides whose table of a ``states`` x ``k`` automaton fits the
        subject's stride budget, best first."""
        from repro.automata.stride import DEFAULT_MAX_TABLE_BYTES

        budget = getattr(subject, "stride_budget", None) or DEFAULT_MAX_TABLE_BYTES
        return [s for s in (4, 2) if states * (k ** s) * 4 <= budget]

    def _scan_automaton(self, subject):
        """The already-built automaton a scan would use (never builds one).

        ``CompiledPattern`` backs its lazy ``sfa``/``min_dfa``/``dfa``
        properties with ``_``-prefixed slots; ``MultiPatternSet`` holds its
        union DFA as a plain instance attribute.
        """
        if subject is None:
            return None
        for attr in ("sfa", "min_dfa", "dfa"):
            auto = _built(subject, attr)
            if auto is not None:
                return auto
        return getattr(subject, "__dict__", {}).get("dfa")

    def _automaton_shape(self, subject) -> Optional[Tuple[int, int]]:
        """(states, classes) of the already-built scan automaton, if any."""
        auto = self._scan_automaton(subject)
        if auto is None:
            return None
        return int(auto.num_states), int(auto.num_classes)

    def _lane_dfa(self, n: int, subject):
        """The subject's minimal DFA for an acceptance scan above the lane
        gate — built here if need be, since every acceptance candidate
        scans it or compiles the D-SFA from it — else ``None``."""
        if n < LANE_ACCEPT_MIN or subject is None:
            return None
        return getattr(subject, "min_dfa", None)

    def _sfa_build_s(self, subject, dfa, fact) -> float:
        """One-time D-SFA build charge (0 if built): by the estimated
        size where ``dfa``'s synchronization ``fact`` holds, else flat."""
        if subject is None:
            return 0.0
        if _built(subject, "sfa") is not None:
            return 0.0
        if fact is not None and fact.holds:
            entries = fact.live ** 2 * dfa.num_states * dfa.num_classes
            return max(SFA_BUILD_S, entries * SFA_BUILD_S_PER_ENTRY)
        return SFA_BUILD_S

    @staticmethod
    def _table_build_s(automaton, stride: int) -> float:
        """Compose cost of ``automaton``'s stride table (0 if built)."""
        cache = getattr(automaton, "_stride_tables", None) or {}
        if any(key[0] == stride for key in cache):
            return 0.0
        states, k = int(automaton.num_states), int(automaton.num_classes)
        return (states * (k ** stride)) / STRIDE_BUILD_ENTRIES_PER_S

    def _stride_build_s(
        self, subject, stride: int, d_sfa: bool = False
    ) -> float:
        """Estimated one-time compose cost of the stride table (0 if built).

        ``d_sfa``: the table of the subject's D-SFA, which the ``sfa`` and
        ``lockstep`` acceptance plans scan — not that of the minimal DFA
        the planner itself built above the lane gate.
        """
        auto = _built(subject, "sfa") if d_sfa else self._scan_automaton(subject)
        if auto is not None:
            return self._table_build_s(auto, stride)
        facts = self._facts(subject)
        if facts is not None:
            for p in facts.stride_predictions:
                if p.stride == stride:
                    return (p.bytes_lower / 4) / STRIDE_BUILD_ENTRIES_PER_S
        return 0.01


# ---------------------------------------------------------------------------
# Process-wide planner
# ---------------------------------------------------------------------------

_PLANNER: Optional[Planner] = None
_PLANNER_LOCK = threading.Lock()


def get_planner() -> Planner:
    """The process-wide planner (created on first ``plan="auto"``)."""
    global _PLANNER
    with _PLANNER_LOCK:
        if _PLANNER is None:
            _PLANNER = Planner()
        return _PLANNER


def set_planner(planner: Optional[Planner]) -> None:
    """Install (or with ``None`` reset) the process-wide planner — tests."""
    global _PLANNER
    with _PLANNER_LOCK:
        _PLANNER = planner


def planner_stats() -> Dict[str, int]:
    """Counters for the service ``stats`` op."""
    with _PLANNER_LOCK:
        made = _PLANNER.plans_made if _PLANNER is not None else 0
    return {"plans_made": made}
