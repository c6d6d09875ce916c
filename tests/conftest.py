"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro import compile_pattern


@functools.lru_cache(maxsize=256)
def compiled(pattern: str, ignore_case: bool = False):
    """Process-wide compilation cache (patterns are immutable)."""
    return compile_pattern(pattern, ignore_case=ignore_case)


@pytest.fixture
def rng():
    return np.random.default_rng(20130913)  # the paper's conference date


def random_word(rng, alphabet: bytes, max_len: int = 24) -> bytes:
    """Uniform random word over ``alphabet`` with length ≤ max_len."""
    n = int(rng.integers(0, max_len + 1))
    if n == 0:
        return b""
    pal = np.frombuffer(alphabet, dtype=np.uint8)
    return pal[rng.integers(0, len(pal), size=n)].tobytes()


def sfa_chunked(mps, data: bytes, p: int, kernel: str = "python",
                executor=None):
    """Rules an eager ``MultiPatternSet`` matches by Algorithm 5 over its
    union D-SFA, every chunk dispatched on ``executor`` (serially when
    ``None``) — also at ``p = 1`` and ``p > n``, where ``matches`` walks
    the union DFA once the clamped chunk count is 1."""
    from repro.matching.parallel_sfa import parallel_sfa_run

    res = parallel_sfa_run(
        mps.sfa, mps.partition.translate(data), p, "sequential", executor,
        kernel, stride_budget=mps.stride_budget,
    )
    return set(mps.rule_sets[res.final_states[0]])
