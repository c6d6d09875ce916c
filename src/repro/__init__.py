"""repro — Simultaneous Finite Automata for data-parallel regex matching.

A complete reproduction of:

    Ryoma Sin'ya, Kiminori Matsuzaki, Masataka Sassa.
    "Simultaneous Finite Automata: An Efficient Data-Parallel Model for
    Regular Expression Matching".  ICPP 2013, pp. 220–229.

Quickstart
----------
>>> from repro import Plan, compile_pattern
>>> m = compile_pattern("(ab)*")
>>> m.fullmatch(b"abababab")  # plan="auto": the §3.10 cost model
True
>>> m.fullmatch(b"abababab", plan=Plan(engine="lockstep", num_chunks=4))
True
>>> m.sizes()["d_sfa"]
6

Package layout (see DESIGN.md for the full inventory):

- :mod:`repro.regex`     — parser / AST / byte-class compression
- :mod:`repro.automata`  — NFA, DFA, mappings, SFA, lazy construction
- :mod:`repro.matching`  — Algorithms 2, 3, 5 and the lockstep engine
- :mod:`repro.parallel`  — chunking, executors, reductions, machine+cache sim
- :mod:`repro.theory`    — monoids, boolean matrices, worst-case witnesses
- :mod:`repro.workloads` — paper pattern families, synthetic SNORT rules,
  text generators
"""

from repro.errors import (
    AutomatonError,
    MatchEngineError,
    RegexSyntaxError,
    ReproError,
    ServiceError,
    SimulationError,
    StateExplosionError,
    UnsupportedFeatureError,
)
from repro.matching.engine import CompiledPattern, compile_pattern
from repro.matching.multi import MultiPatternSet
from repro.matching.stream import StreamingMultiSpanMatcher, StreamingSpanMatcher
from repro.planning import (
    AUTO,
    Calibration,
    CalibrationWarning,
    Plan,
    Planner,
    get_planner,
    resolve_plan,
    run_calibration,
    set_planner,
)

__version__ = "1.2.0"

__all__ = [
    "AUTO",
    "AutomatonError",
    "Calibration",
    "CalibrationWarning",
    "CompiledPattern",
    "MatchEngineError",
    "MultiPatternSet",
    "Plan",
    "Planner",
    "RegexSyntaxError",
    "ReproError",
    "ServiceError",
    "SimulationError",
    "StateExplosionError",
    "StreamingMultiSpanMatcher",
    "StreamingSpanMatcher",
    "UnsupportedFeatureError",
    "__version__",
    "compile_pattern",
    "get_planner",
    "resolve_plan",
    "run_calibration",
    "set_planner",
]
