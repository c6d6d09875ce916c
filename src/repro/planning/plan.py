"""The :class:`Plan` object — one value that answers every "how" question.

A :class:`Plan` bundles the complete execution strategy for one scan
(engine, executor, kernel, chunk count, prefilter policy, reduction), and
it is the only strategy argument the public entry points take
(DESIGN.md §3.10).  :func:`resolve_plan` turns a ``plan=`` argument into
a plan **once, at the API boundary**, so everything below the entry
points consumes plan fields instead of loose kwargs.

Resolution order:

1. an explicit :class:`Plan` instance (or its :meth:`Plan.to_dict` form,
   the service's wire shape) is used as given;
2. ``plan="auto"`` — the default everywhere — asks the
   :class:`~repro.planning.planner.Planner`'s cost model, which picks the
   strategy from input length, pattern analysis facts, core count and
   persisted calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Optional, Union

from repro.errors import MatchEngineError

#: The sentinel accepted by every ``plan=`` parameter.
AUTO = "auto"

#: Task kinds the planner distinguishes (they weight the cost model
#: differently: acceptance scans must never pick the vector kernel,
#: span scans add the mask pass + prefilter decision, ...).
TASKS = ("fullmatch", "contains", "spans", "multi", "stream")


def _positive_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


@dataclass(frozen=True)
class Plan:
    """A complete execution strategy for one scan.

    Fields:

    ``engine``
        acceptance engine: ``"dfa"`` (Algorithm 2), ``"speculative"``
        (Algorithm 3), ``"sfa"`` (Algorithm 5), ``"lockstep"``
        (vectorized Algorithm 5).  Span/multi scans ignore it.
    ``executor``
        chunk-dispatch backend name (``"serial"``/``"threads"``/
        ``"processes"``) or ``None`` for in-process scanning.
    ``num_workers``
        pool size for thread/process backends (``None``: CPU count).
    ``kernel``
        chunk-scan kernel, one of
        :data:`~repro.parallel.scan.KERNELS`.
    ``num_chunks``
        the paper's ``p``.
    ``prefilter``
        literal skip-ahead for span scans: ``None`` = engine decides
        (use it when the analyzer produced a plan), ``False`` = off,
        ``True`` = on when available.
    ``reduction``
        chunk-result reduction (``"sequential"``/``"tree"``).
    ``source``
        provenance: ``"default"`` (built by hand) or ``"auto"`` (chosen
        by the cost model).
    ``reason``
        one-line planner rationale (surfaces in ``repro plan`` and the
        service plan dump; empty for non-auto plans).
    """

    engine: str = "dfa"
    executor: Optional[str] = None
    num_workers: Optional[int] = None
    kernel: str = "python"
    num_chunks: int = 1
    prefilter: Optional[bool] = None
    reduction: str = "sequential"
    source: str = "default"
    reason: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        from repro.parallel.executor import EXECUTOR_NAMES
        from repro.parallel.scan import KERNELS

        if self.kernel not in KERNELS:
            raise MatchEngineError(
                f"unknown kernel {self.kernel!r} "
                f"(choose from {', '.join(KERNELS)})"
            )
        if not _positive_int(self.num_chunks):
            raise MatchEngineError(
                f"num_chunks must be >= 1 (an int), got {self.num_chunks!r}"
            )
        if self.num_workers is not None and not _positive_int(self.num_workers):
            raise MatchEngineError(
                f"num_workers must be None or >= 1 (an int), "
                f"got {self.num_workers!r}"
            )
        if self.prefilter is not None and not isinstance(self.prefilter, bool):
            raise MatchEngineError(
                f"prefilter must be None or a bool, got {self.prefilter!r}"
            )
        if self.executor is not None and self.executor not in EXECUTOR_NAMES:
            raise MatchEngineError(
                f"unknown executor {self.executor!r} "
                f"(choose from {', '.join(EXECUTOR_NAMES)})"
            )
        if self.engine not in ("dfa", "speculative", "sfa", "lockstep"):
            raise MatchEngineError(f"unknown engine {self.engine!r}")
        if self.reduction not in ("sequential", "tree"):
            raise MatchEngineError(f"unknown reduction {self.reduction!r}")

    # -- derived views ---------------------------------------------------
    def resolve_executor(self):
        """The live :class:`~repro.parallel.executor.ChunkExecutor` (or
        ``None`` for in-process scanning).  ``executor=None`` and
        ``executor="serial"`` differ: some engines use the in-process
        lockstep path only when *no* executor is set."""
        from repro.parallel.executor import resolve_executor

        return resolve_executor(self.executor, self.num_workers)

    def summary(self) -> str:
        """Compact one-line form, e.g. ``sfa/p1/inline/stride4``."""
        ex = self.executor or "inline"
        return f"{self.engine}/p{self.num_chunks}/{ex}/{self.kernel}"

    def to_dict(self) -> Dict[str, Any]:
        """Stable JSON shape (the ``repro plan`` dump / service replies)."""
        return {
            "engine": self.engine,
            "executor": self.executor,
            "num_workers": self.num_workers,
            "kernel": self.kernel,
            "num_chunks": self.num_chunks,
            "prefilter": self.prefilter,
            "reduction": self.reduction,
            "source": self.source,
            "reason": self.reason,
            "summary": self.summary(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Plan":
        """Rebuild a plan from :meth:`to_dict` output (wire/service use).

        Unknown keys are ignored so older clients survive newer servers.
        """
        if not isinstance(payload, dict):
            raise MatchEngineError(
                f"plan must be 'auto' or a plan object, got {payload!r}"
            )
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})


PlanArg = Union[None, str, Plan, Dict[str, Any]]


def resolve_plan(
    plan: PlanArg,
    task: str,
    n: int,
    *,
    subject=None,
    defaults: Optional[Plan] = None,
    **overrides: Any,
) -> Plan:
    """Turn a ``plan=`` argument into one :class:`Plan`.

    This is *the* conversion function: every public entry point calls it
    exactly once and passes plan fields downward.  ``plan`` is ``"auto"``
    (the cost model), a :class:`Plan`, or a plan dict (the service's wire
    shape).  ``task`` ∈ :data:`TASKS`, ``n`` is the input length in bytes,
    and ``subject`` is the compiled object being scanned (a
    :class:`~repro.matching.engine.CompiledPattern`,
    :class:`~repro.matching.multi.MultiPatternSet`, or a raw automaton)
    — the planner mines it for analysis facts and already-built tables.

    ``plan=None`` (``defaults``, else ``Plan()``) and the ``num_chunks``/
    ``kernel`` overrides serve the benchmark's traced service replay,
    which rebuilds a fixed plan this way; no entry point passes them.
    (An entry point handed ``plan=None`` therefore runs ``Plan()``.)
    """
    if task not in TASKS:
        raise MatchEngineError(f"unknown plan task {task!r}")
    unknown = sorted(set(overrides) - {"num_chunks", "kernel"})
    if unknown:
        raise TypeError(f"resolve_plan() got unexpected keyword {unknown}")
    if plan is None:
        base = defaults if defaults is not None else Plan()
    elif isinstance(plan, Plan):
        base = plan
    elif isinstance(plan, dict):
        base = Plan.from_dict(plan)
    elif plan == AUTO:
        from repro.planning.planner import get_planner

        base = get_planner().plan(task, n, subject=subject)
    else:
        raise MatchEngineError(f"plan must be 'auto' or a Plan, got {plan!r}")
    return replace(base, **overrides) if overrides else base
