"""Query planning: one :class:`Plan` says how to run a scan.

Public surface:

* :class:`Plan` / :func:`resolve_plan` — the strategy object and the one
  conversion of a ``plan=`` argument (``"auto"`` or a :class:`Plan`)
  into it at each API boundary;
* :class:`Planner` / :func:`get_planner` — the ``plan="auto"`` cost model;
* :mod:`~repro.planning.calibration` — the ``repro calibrate`` persisted
  micro-measurements the cost model consumes.
"""

from repro.planning.calibration import (
    Calibration,
    CalibrationWarning,
    DEFAULT_CALIBRATION,
    calibration_path,
    calibration_stats,
    get_calibration,
    load_calibration,
    run_calibration,
    save_calibration,
)
from repro.planning.plan import AUTO, Plan, resolve_plan
from repro.planning.planner import (
    Planner,
    TINY_INPUT_BYTES,
    get_planner,
    planner_stats,
    set_planner,
)

__all__ = [
    "AUTO",
    "Calibration",
    "CalibrationWarning",
    "DEFAULT_CALIBRATION",
    "Plan",
    "Planner",
    "TINY_INPUT_BYTES",
    "calibration_path",
    "calibration_stats",
    "get_calibration",
    "get_planner",
    "load_calibration",
    "planner_stats",
    "resolve_plan",
    "run_calibration",
    "save_calibration",
    "set_planner",
]
