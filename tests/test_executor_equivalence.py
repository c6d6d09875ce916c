"""Executor equivalence: every backend computes the same parallel-run result.

Theorem 3 guarantees the verdict is independent of the chunking; these tests
pin down the stronger engineering property that the *dispatch backend* is
also invisible: serial, thread-pool, and process-pool executors return
identical ``accepted``/``final_states`` (and, for span-based executors,
identical per-chunk states) on random patterns and inputs, and the lockstep
engine agrees on the language-level outcome despite its different chunk
layout.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching.lockstep import lockstep_run
from repro.matching.parallel_sfa import parallel_sfa_run
from repro.matching.speculative import speculative_run
from repro.parallel.executor import ProcessExecutor, SerialExecutor, ThreadExecutor
from repro.planning.plan import Plan

from .conftest import compiled

PATTERNS = [
    "(ab)*",
    "(a|b)*abb",
    "a*b+a?",
    "([0-9][0-9])*",
    "(GET|POST) /[a-z]{1,8}",
]


@pytest.fixture(scope="module")
def thread_ex():
    with ThreadExecutor(4) as ex:
        yield ex


@pytest.fixture(scope="module")
def process_ex():
    with ProcessExecutor(2) as ex:
        yield ex


@given(
    data=st.binary(max_size=200),
    p=st.integers(1, 7),
    pattern=st.sampled_from(PATTERNS),
)
@settings(max_examples=40, deadline=None)
def test_sfa_run_identical_across_executors(thread_ex, process_ex, data, p, pattern):
    m = compiled(pattern)
    classes = m.translate(data)
    base = parallel_sfa_run(m.sfa, classes, p, executor=SerialExecutor())
    for ex in (None, thread_ex, process_ex):
        res = parallel_sfa_run(m.sfa, classes, p, executor=ex)
        assert res.accepted == base.accepted
        assert res.final_states == base.final_states
        assert res.chunk_states == base.chunk_states
    # The lockstep engine splits chunks differently (equal block + tail), so
    # per-chunk states may differ — the language-level outcome must not.
    lock = lockstep_run(m.sfa, classes, p)
    assert lock.accepted == base.accepted
    assert lock.final_states == base.final_states


@given(
    data=st.binary(max_size=200),
    p=st.integers(1, 7),
    pattern=st.sampled_from(PATTERNS),
)
@settings(max_examples=25, deadline=None)
def test_speculative_run_identical_across_executors(
    thread_ex, process_ex, data, p, pattern
):
    m = compiled(pattern)
    classes = m.translate(data)
    base = speculative_run(m.min_dfa, classes, p)
    for ex in (thread_ex, process_ex):
        res = speculative_run(m.min_dfa, classes, p, executor=ex)
        assert res.accepted == base.accepted
        assert res.final_state == base.final_state


@given(data=st.binary(max_size=120), p=st.integers(1, 5))
@settings(max_examples=20, deadline=None)
def test_engine_api_executor_knob(process_ex, data, p):
    """`fullmatch(executor=...)` agrees with the plain serial path."""
    m = compiled("(a|b)*abb")
    expect = m.fullmatch(data, plan=Plan(engine="sfa", num_chunks=p))
    assert m.fullmatch(
        data, executor=process_ex, plan=Plan(engine="sfa", num_chunks=p)
    ) == expect
    assert (
        m.fullmatch(
            data, executor=process_ex,
            plan=Plan(engine="speculative", num_chunks=p),
        )
        == expect
    )


def test_fullmatch_accepts_backend_names():
    """Executor names in a plan resolve through the shared warm-pool
    registry."""
    m = compiled("(ab)*")
    data = b"ab" * 50
    for name in ("serial", "threads", "processes"):
        plan = Plan(engine="sfa", num_chunks=4, executor=name, num_workers=2)
        assert m.fullmatch(data, plan=plan)
        assert not m.fullmatch(data + b"x", plan=plan)


def test_nsfa_run_identical_across_executors(process_ex):
    """The N-SFA path (boolean-matrix reduction) is backend-invariant too."""
    m = compiled("(a|b)*abb")
    classes = m.translate(b"abbaabb")
    base = parallel_sfa_run(m.nsfa, classes, 3)
    res = parallel_sfa_run(m.nsfa, classes, 3, executor=process_ex)
    assert res.accepted == base.accepted
    assert res.final_states == base.final_states
    assert res.chunk_states == base.chunk_states
