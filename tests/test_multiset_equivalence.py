"""Multi-pattern equivalence across kernel × executor × chunking.

The IDS scan path must make every knob language-invisible: for any
ruleset, any payload, any chunk count (including ``p > n``), any kernel
(including odd stride tails) and any dispatch backend, ``matches`` under
a lockstep or a chunk-dispatched plan, and Algorithm 5 with every chunk
dispatched (``sfa_chunked``, also at ``p = 1``), return the exact rule
set of the serial python-kernel scan — and the streaming cursor agrees
with batch matching under arbitrary block boundaries.  Mirrors
``tests/test_kernels.py`` / ``tests/test_executor_equivalence.py`` for
:class:`MultiPatternSet`.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching.multi import MultiPatternSet
from repro.matching.stream import StreamingMultiMatcher
from repro.parallel.executor import ProcessExecutor, SerialExecutor, ThreadExecutor
from repro.parallel.scan import KERNELS
from repro.planning.plan import Plan
from repro.workloads.snort import generate_ruleset

from .conftest import sfa_chunked

#: The serial python-kernel reference: one chunk over the union DFA.
SERIAL = Plan(engine="lockstep")

# Hand-written rules plus two generated SNORT-like rulesets (seeds chosen
# for small unions — the cross product of Σ*-wrapped rules grows fast).
RULESETS = {
    "hand": ("abc", "a[0-9]+b", "(GET|POST) /x", "zz*top"),
    "snort21": tuple(generate_ruleset(6, seed=21))[:3],
    "snort7": tuple(generate_ruleset(6, seed=7))[:3],
}

# Payload alphabet biased toward the rules' literals so matches happen.
ALPHABET = b"abcdefgxz019 /.:GET POST curl exe"


@functools.lru_cache(maxsize=None)
def multiset(key: str) -> MultiPatternSet:
    return MultiPatternSet(list(RULESETS[key]), max_dfa_states=300_000)


payloads = st.binary(max_size=200) | st.text(
    alphabet=[chr(c) for c in set(ALPHABET)], max_size=200
).map(lambda s: s.encode())


@given(
    data=payloads,
    p=st.integers(1, 9),
    kernel=st.sampled_from(KERNELS),
    key=st.sampled_from(sorted(RULESETS)),
)
@settings(max_examples=40, deadline=None)
def test_matches_invariant_under_kernel_and_chunking(data, p, kernel, key):
    mps = multiset(key)
    ref = mps.matches(data, plan=SERIAL)
    assert mps.matches(data, plan=Plan(num_chunks=p, kernel=kernel)) == ref
    chunked = Plan(num_chunks=p, kernel=kernel, executor="serial")
    assert mps.matches(data, plan=chunked) == ref
    assert sfa_chunked(mps, data, p, kernel) == ref
    assert mps.matches_any(data, plan=Plan(num_chunks=p, kernel=kernel)) == bool(ref)


@pytest.fixture(scope="module")
def thread_ex():
    with ThreadExecutor(4) as ex:
        yield ex


@pytest.fixture(scope="module")
def process_ex():
    with ProcessExecutor(2) as ex:
        yield ex


# Deterministic payload sweep for the (expensive) executor matrix: empty
# input, p > n, stride tails of every residue, and a real multi-rule hit.
EXECUTOR_PAYLOADS = [
    b"",
    b"a",
    b"abc",
    b"zztop GET /x",
    b"junk abc junk a987b junk zztop END" * 3,
    b"x" * 41 + b"abc" + b"y" * 30,
]


@pytest.mark.parametrize("p", [1, 3, 50])
@pytest.mark.parametrize("kernel", ["python", "stride4"])
def test_matches_invariant_under_executors(thread_ex, process_ex, p, kernel):
    mps = multiset("hand")
    for data in EXECUTOR_PAYLOADS:
        ref = mps.matches(data, plan=SERIAL)
        for ex in (None, SerialExecutor(), thread_ex, process_ex):
            got = mps.matches(
                data, executor=ex, plan=Plan(num_chunks=p, kernel=kernel)
            )
            assert got == ref, (data, p, kernel, ex)
            got = sfa_chunked(mps, data, p, kernel, ex)
            assert got == ref, ("chunked", data, p, kernel, ex)


def test_snort_ruleset_across_backends(thread_ex, process_ex):
    mps = multiset("snort7")
    data = b"scripts/jsp42 999999:0123 format=ab12 " * 4
    ref = mps.matches(data, plan=SERIAL)
    assert ref  # the payload is built to trip rules
    for ex in (thread_ex, process_ex):
        for kernel in ("python", "stride2"):
            assert mps.matches(data, executor=ex, plan=Plan(num_chunks=5, kernel=kernel)) == ref


@given(
    data=payloads,
    cuts=st.lists(st.integers(0, 200), max_size=6),
    p=st.integers(1, 5),
    kernel=st.sampled_from(KERNELS),
    key=st.sampled_from(sorted(RULESETS)),
)
@settings(max_examples=40, deadline=None)
def test_streaming_agrees_with_batch(data, cuts, p, kernel, key):
    mps = multiset(key)
    expected = mps.matches(data, plan=SERIAL)
    bounds = sorted({0, len(data), *[c % (len(data) + 1) for c in cuts]})
    blocks = [data[a:b] for a, b in zip(bounds, bounds[1:])]
    cur = StreamingMultiMatcher(mps, plan=Plan(num_chunks=p, kernel=kernel))
    reported = set()
    for block in blocks:
        fresh = cur.feed(block)
        assert fresh.isdisjoint(reported)  # each rule is reported once
        reported |= fresh
    assert cur.matched_rules() == expected
    assert cur.rules() == expected  # search mode: matched set is monotone
    assert reported == expected
    assert cur.bytes_consumed == len(data)


@given(data=st.binary(max_size=60), cuts=st.lists(st.integers(0, 60), max_size=4))
@settings(max_examples=25, deadline=None)
def test_streaming_fullmatch_mode_tracks_current_rules(data, cuts):
    mps = _fullmatch_set()
    expected = mps.matches(data, plan=SERIAL)
    bounds = sorted({0, len(data), *[c % (len(data) + 1) for c in cuts]})
    cur = StreamingMultiMatcher(mps, plan=SERIAL)
    for a, b in zip(bounds, bounds[1:]):
        cur.feed(data[a:b])
    # fullmatch mode is not monotone: rules() is the verdict for exactly
    # the consumed bytes; matched_rules() accumulates boundary verdicts.
    assert cur.rules() == expected
    assert cur.matched_rules() >= expected


@functools.lru_cache(maxsize=None)
def _fullmatch_set() -> MultiPatternSet:
    return MultiPatternSet(["(ab)*", "a+", "[ab]{3}"], mode="fullmatch")
