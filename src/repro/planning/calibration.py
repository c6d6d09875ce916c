"""Persisted micro-calibration for the planner's cost model.

The cost model needs absolute rates — "how many MB/s does the stride-4
kernel scan *on this machine*" — to compare candidate plans.  Those rates
come from three sources, in priority order:

1. a calibration file written by a one-time ``repro calibrate`` run,
   stored alongside the artifact cache (``$REPRO_CALIBRATION``, else
   ``$XDG_CACHE_HOME/repro/calibration.json``, else
   ``~/.cache/repro/calibration.json``);
2. if that file is missing, corrupt, or stale (schema/CPU-count mismatch,
   or older than :data:`MAX_AGE_SECONDS`), the baked-in
   :data:`DEFAULT_CALIBRATION` — relative kernel speeds measured on the
   reference container and recorded in BENCH_results.json history.

Only ``repro calibrate`` ever **writes** the file; the planner is a pure
reader and never creates cache files as a side effect of a match call
(tiny inputs do not even ``stat`` the path — see
:meth:`~repro.planning.planner.Planner.plan`).  A corrupt or stale file
downgrades to the defaults with a :class:`CalibrationWarning`, never an
exception.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Optional

#: Bump when the JSON shape or the meaning of a measurement changes.
#: v2: the ``lockstep`` rate (8 chunks) gave way to the lane rates
#: ``lanes_stride2``/``lanes_stride4`` and the ``lane_step`` overhead.
#: v3: only what the planner reads is measured — ``sfa_vector``,
#: ``transform_python``, ``transform_vector`` and the ``threads``
#: dispatch are gone — and ``sync_entry`` prices synchronizing lanes.
CALIBRATION_VERSION = 3

#: A calibration older than this is considered stale and ignored.
MAX_AGE_SECONDS = 30 * 24 * 3600


class CalibrationWarning(UserWarning):
    """A calibration file could not be used (corrupt/stale/unreadable)."""


@dataclass(frozen=True)
class Calibration:
    """Measured single-stream rates and dispatch overheads.

    ``mb_per_s`` keys are ``<scan>_<kernel>`` rate names (missing keys
    fall back to :data:`DEFAULT_CALIBRATION`'s value via :meth:`rate`);
    ``dispatch_ms`` is the per-call overhead of handing chunks to the
    ``"processes"`` executor (pool submit + result collection + the
    shared-memory publish of the payload), plus two lane costs:
    ``"lane_step"``, the fixed cost of one lockstep lane step (two NumPy
    calls), which a lane scan of ``m`` symbols pays ``⌊√m⌋`` times on top
    of its ``lanes_<kernel>`` per-byte rate; and ``"sync_entry"``, the
    cost per run the planner expects synchronizing lanes to collapse
    (``(⌊√m⌋ - 1) · live · ⌈depth / stride⌉`` of them).
    """

    version: int = CALIBRATION_VERSION
    cpu_count: int = 1
    created: float = 0.0
    source: str = "default"  # "default" | "measured"
    mb_per_s: Dict[str, float] = field(default_factory=dict)
    dispatch_ms: Dict[str, float] = field(default_factory=dict)

    def rate(self, key: str) -> float:
        """MB/s for a rate key, falling back to the baked-in default."""
        v = self.mb_per_s.get(key)
        if v is None or v <= 0:
            v = DEFAULT_CALIBRATION.mb_per_s.get(key, 10.0)
        return float(v)

    def dispatch_s(self, executor: Optional[str]) -> float:
        """Per-call dispatch overhead in seconds for an executor backend
        (per lane step for ``"lane_step"``, per estimated collapsing run
        for ``"sync_entry"``)."""
        if executor in (None, "serial"):
            return 0.0
        ms = self.dispatch_ms.get(executor)
        if ms is None or ms < 0:
            ms = DEFAULT_CALIBRATION.dispatch_ms.get(executor, 1.0)
        return float(ms) / 1e3

    def to_dict(self) -> Dict:
        return asdict(self)


#: Reference-container rates (BENCH_results.json history, PR 4–6): the
#: stride-4 SFA scan sustains ~150 MB/s against ~54 MB/s for the python
#: per-byte loop.  The lane entries are the medians of three
#: :func:`run_calibration` runs on a 2-vCPU host (Python 3.11.7, NumPy
#: 2.4.6): the lockstep engine (Algorithm 5 over ``⌊√m⌋`` NumPy lanes)
#: packs, lays out and steps stride-4 input at 295–327 MB/s and stride-2
#: at 235–257 MB/s, plus 2.5–2.6 µs per lane step.  The same runs put
#: ``sfa_stride4`` at only 66–73 MB/s, so beside the older entries above
#: the lane entries are conservative.
#: Milliseconds per estimated collapsing run (see :class:`Calibration`):
#: the median of three :func:`run_calibration` runs on the host above,
#: which measured 10.6–13.4 ns.
SYNC_ENTRY_MS = 1.26e-5

DEFAULT_CALIBRATION = Calibration(
    version=CALIBRATION_VERSION,
    cpu_count=os.cpu_count() or 1,
    created=0.0,
    source="default",
    mb_per_s={
        "dfa_python": 30.0,
        "sfa_python": 54.0,
        "sfa_stride2": 95.0,
        "sfa_stride4": 149.0,
        "lanes_stride2": 245.0,
        "lanes_stride4": 320.0,
        "spans_python": 25.0,
    },
    dispatch_ms={"processes": 2.2, "lane_step": 0.0026, "sync_entry": SYNC_ENTRY_MS},
)


def calibration_path() -> Path:
    """Resolve where the persisted calibration lives (may not exist)."""
    env = os.environ.get("REPRO_CALIBRATION")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "calibration.json"


def save_calibration(cal: Calibration, path: Optional[Path] = None) -> Path:
    """Write a calibration file (``repro calibrate`` is the only caller)."""
    path = Path(path) if path is not None else calibration_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(cal.to_dict(), indent=2, sort_keys=True) + "\n")
    tmp.replace(path)
    invalidate_calibration()
    return path


def load_calibration(path: Optional[Path] = None) -> Optional[Calibration]:
    """Read and validate a calibration file.

    Returns ``None`` — after a :class:`CalibrationWarning` — when the file
    is missing, unparsable, or stale.  Never raises on bad content: a
    broken cache file must not take down a grep.
    """
    path = Path(path) if path is not None else calibration_path()
    try:
        raw = path.read_text()
    except FileNotFoundError:
        return None
    except OSError as e:
        warnings.warn(
            f"ignoring unreadable calibration {path}: {e}", CalibrationWarning,
            stacklevel=2,
        )
        return None
    try:
        payload = json.loads(raw)
        if not isinstance(payload, dict):
            raise ValueError("not a JSON object")
        cal = Calibration(
            version=int(payload["version"]),
            cpu_count=int(payload["cpu_count"]),
            created=float(payload["created"]),
            source=str(payload.get("source", "measured")),
            mb_per_s={
                str(k): float(v) for k, v in dict(payload["mb_per_s"]).items()
            },
            dispatch_ms={
                str(k): float(v)
                for k, v in dict(payload.get("dispatch_ms", {})).items()
            },
        )
    except (KeyError, TypeError, ValueError) as e:
        warnings.warn(
            f"ignoring corrupt calibration {path}: {e}", CalibrationWarning,
            stacklevel=2,
        )
        return None
    stale = _staleness(cal)
    if stale:
        warnings.warn(
            f"ignoring stale calibration {path}: {stale}", CalibrationWarning,
            stacklevel=2,
        )
        return None
    return cal


def _staleness(cal: Calibration) -> Optional[str]:
    if cal.version != CALIBRATION_VERSION:
        return f"schema v{cal.version}, expected v{CALIBRATION_VERSION}"
    cores = os.cpu_count() or 1
    if cal.cpu_count != cores:
        return f"measured on {cal.cpu_count} cores, running on {cores}"
    age = time.time() - cal.created
    if age > MAX_AGE_SECONDS:
        return f"measured {age / 86400:.0f} days ago"
    return None


# ---------------------------------------------------------------------------
# Planner-side memoized access with hit/miss accounting
# ---------------------------------------------------------------------------

# (resolved path, file mtime or None) -> Calibration used for it.  One
# entry: grep/serve always consult the same resolved path.
_CACHE: Dict[str, object] = {}
_STATS = {"hits": 0, "misses": 0, "loads": 0}


def get_calibration() -> Calibration:
    """The calibration the planner should use right now.

    Memoizes on the file's mtime so a fresh ``repro calibrate`` run is
    picked up without restarting, while steady-state planning costs one
    ``stat`` — not a JSON parse — per plan.  Counts a *hit* when a
    persisted calibration backs the answer and a *miss* when falling back
    to :data:`DEFAULT_CALIBRATION` (surfaced by the service ``stats`` op).
    """
    path = calibration_path()
    try:
        mtime = path.stat().st_mtime_ns
    except OSError:
        mtime = None
    key = f"{path}@{mtime}"
    cal = _CACHE.get(key)
    if cal is None:
        _STATS["loads"] += 1
        cal = (load_calibration(path) if mtime is not None else None) \
            or DEFAULT_CALIBRATION
        _CACHE.clear()
        _CACHE[key] = cal
    if cal.source == "default":
        _STATS["misses"] += 1
    else:
        _STATS["hits"] += 1
    return cal  # type: ignore[return-value]


def calibration_stats() -> Dict[str, int]:
    """Hit/miss/load counters for the memoized planner-side access."""
    return dict(_STATS)


def invalidate_calibration() -> None:
    """Drop the memoized calibration (tests; after ``save_calibration``)."""
    _CACHE.clear()


def reset_calibration_stats() -> None:
    for k in _STATS:
        _STATS[k] = 0


# ---------------------------------------------------------------------------
# Measurement (``repro calibrate``)
# ---------------------------------------------------------------------------

def run_calibration(
    sample_bytes: int = 1 << 20, repeat: int = 2, measure_executors: bool = True
) -> Calibration:
    """Measure this machine's kernel rates on a synthetic workload.

    Uses the Fig. 8 ``r_n`` pattern family (``(a|b)*a(a|b)^4``) so every
    kernel — including stride-4's 2-class superalphabet table — is
    exercised on an automaton of realistic shape.  Only what a planner
    candidate reads is measured (pinned by ``tests/test_plan.py``).

    Lanes are measured at the planner's lane count, ``⌊√m⌋`` lanes over
    ``m`` packed symbols.  A lane step costs a fixed NumPy dispatch plus
    per-lane work, so one rate measured at 1 MiB would understate lanes
    on larger inputs; the fixed part is measured on its own
    (``lane_step``: single-lane steps over a short slice) and taken out
    of the ``lanes_<kernel>`` rate.  ``sync_entry`` times synchronizing
    lanes over a head of ``4 · CHECK_EVERY`` rows, where collapsing is
    most of the work, per run the planner's estimate counts there.
    """
    import math

    import numpy as np

    from repro.bench.harness import measure_throughput, time_callable
    from repro.matching.engine import compile_pattern
    from repro.matching.lockstep import lockstep_run
    from repro.matching.parallel_sfa import parallel_sfa_run
    from repro.matching.speculative import CHECK_EVERY, sync_lanes_run
    from repro.planning.plan import Plan

    pattern = compile_pattern("(a|b)*a(a|b){4}")
    rng = np.random.default_rng(20130913)
    data = rng.choice([ord("a"), ord("b")], size=sample_bytes).astype(np.uint8)
    data = data.tobytes()
    classes = pattern.partition.translate(data)
    sfa, dfa = pattern.sfa, pattern.min_dfa

    rates: Dict[str, float] = {}
    rates["dfa_python"] = measure_throughput(
        lambda: pattern.fullmatch(data, plan=Plan(engine="dfa")),
        sample_bytes, repeat,
    )
    for kernel in ("python", "stride2", "stride4"):
        rates[f"sfa_{kernel}"] = measure_throughput(
            lambda k=kernel: parallel_sfa_run(sfa, classes, 1, kernel=k),
            sample_bytes, repeat,
        )
    steps = classes[:8192]
    lockstep_run(sfa, steps, 1)  # builds the lane table
    step_s = time_callable(
        lambda: lockstep_run(sfa, steps, 1), repeat + 1
    ) / len(steps)
    for kernel in ("stride2", "stride4"):
        lanes = math.isqrt(len(classes) // int(kernel[-1]))
        lockstep_run(sfa, classes, lanes, kernel)  # builds the tables
        lane_s = time_callable(
            lambda k=kernel, g=lanes: lockstep_run(sfa, classes, g, k), repeat
        )
        # The steps' share comes off; on a noisy tiny sample it is capped
        # so the rate never exceeds 4x the whole scan's.
        rates[f"lanes_{kernel}"] = sample_bytes / 1e6 / max(
            lane_s - lanes * step_s, lane_s / 4
        )
    rates["spans_python"] = measure_throughput(
        lambda: pattern.count(data, plan=Plan()), sample_bytes, repeat
    )

    fact = dfa.sync_fact()
    lanes = math.isqrt(len(classes) // 4)
    head = classes[: lanes * 4 * 4 * CHECK_EVERY]
    sync_lanes_run(dfa, head, lanes, "stride4")  # builds the tables
    sync_s = time_callable(
        lambda: sync_lanes_run(dfa, head, lanes, "stride4"), repeat + 1
    )
    entries = max(1, (lanes - 1) * fact.live * -(-(fact.depth or 0) // 4))
    dispatch: Dict[str, float] = {
        "lane_step": step_s * 1e3,
        "sync_entry": sync_s / entries * 1e3,
    }
    if measure_executors:
        from repro.parallel.executor import get_shared_executor

        tiny = classes[:1024]
        serial_s = time_callable(
            lambda: parallel_sfa_run(sfa, tiny, 2), repeat + 1
        )
        ex = get_shared_executor("processes")
        try:
            total = time_callable(
                lambda: parallel_sfa_run(sfa, tiny, 2, executor=ex), repeat + 1
            )
            dispatch["processes"] = max(0.0, (total - serial_s) * 1e3)
        except Exception:
            dispatch["processes"] = DEFAULT_CALIBRATION.dispatch_ms["processes"]

    return Calibration(
        version=CALIBRATION_VERSION,
        cpu_count=os.cpu_count() or 1,
        created=time.time(),
        source="measured",
        mb_per_s={k: round(v, 3) for k, v in rates.items()},
        dispatch_ms={k: round(v, 9) for k, v in dispatch.items()},
    )
