"""Matching engines.

One module per algorithm in the paper:

* :mod:`repro.matching.sequential` — Algorithm 2, the sequential DFA run.
* :mod:`repro.matching.speculative` — Algorithm 3, prior-work parallel DFA
  via speculative all-states simulation (the ``O(|D|·n/p)`` baseline), and
  its in-process form over NumPy lanes whose runs collapse into one state.
* :mod:`repro.matching.parallel_sfa` — Algorithm 5, parallel SFA matching
  with sequential or tree reduction.
* :mod:`repro.matching.lockstep` — the data-parallel SIMD-style realization
  of Algorithm 5: all chunk scans advance in lockstep through one vectorized
  table gather per position.
* :mod:`repro.matching.engine` — the high-level public API
  (:func:`repro.compile_pattern`).
"""

from repro.matching.engine import CompiledPattern, compile_pattern
from repro.matching.lockstep import LockstepSFAMatcher, lockstep_run
from repro.matching.multi import MultiPatternSet
from repro.matching.parallel_sfa import ParallelSFAMatcher, parallel_sfa_run
from repro.matching.sequential import SequentialDFAMatcher, sequential_run
from repro.matching.spans import SpanEngine
from repro.matching.speculative import SpeculativeDFAMatcher, speculative_run
from repro.matching.stream import (
    ParallelStreamMatcher,
    StreamingMultiMatcher,
    StreamingMultiSpanMatcher,
    StreamingSpanMatcher,
    StreamMatcher,
)

__all__ = [
    "CompiledPattern",
    "LockstepSFAMatcher",
    "MultiPatternSet",
    "ParallelSFAMatcher",
    "ParallelStreamMatcher",
    "SequentialDFAMatcher",
    "SpanEngine",
    "SpeculativeDFAMatcher",
    "StreamMatcher",
    "StreamingMultiMatcher",
    "StreamingMultiSpanMatcher",
    "StreamingSpanMatcher",
    "compile_pattern",
    "lockstep_run",
    "parallel_sfa_run",
    "sequential_run",
    "speculative_run",
]
