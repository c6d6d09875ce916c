"""Differential harness: span extraction vs Python ``re`` (DESIGN.md §3.7).

Random regexes × random payloads, asserting that ``finditer`` spans are
byte-identical to Python ``re`` — anchored to **leftmost-longest** where
the two semantics differ:

* Python ``re`` is leftmost-*greedy*: at the leftmost start it returns the
  first alternative the backtracker completes (``a|ab`` on ``b"ab"`` →
  ``(0, 1)``).
* This engine is leftmost-*longest* (POSIX): same start, longest end
  (``(0, 2)``).

The ground truth is therefore computed **from Python re itself**: the
leftmost start via ``rx.search`` (``re`` is exact on starts) and the
longest end at that start via anchored ``rx.fullmatch(text, s, e)``
probes, descending ``e``.  The oracle never consults the engine under
test.  On every case where greedy and longest coincide — the vast
majority, counted and lower-bounded below — the expected spans *are*
``re.finditer``'s spans verbatim, including empty-match positions.

The matrix test then pins bit-identity of the spans across the whole
execution surface: serial, chunk-parallel (every executor × kernel,
``p > n``, odd stride tails), and streaming with random feed blockings.
"""

import random
import re

import pytest

from repro import compile_pattern
from repro.matching.stream import StreamingSpanMatcher
from repro.planning.plan import Plan

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def lml_spans(rx, text):
    """Leftmost-longest non-overlapping spans, computed from Python re.

    Start = ``rx.search`` (leftmost, exact under both semantics); end =
    the largest ``e`` with ``rx.fullmatch(text, s, e)``.  The cursor rule
    matches both ``re.finditer`` and the engine: advance to the end, or
    one past an empty match.
    """
    spans = []
    pos, n = 0, len(text)
    while pos <= n:
        m = rx.search(text, pos)
        if not m:
            break
        s = m.start()
        best = s
        for e in range(n, s - 1, -1):
            if rx.fullmatch(text, s, e):
                best = e
                break
        spans.append((s, best))
        pos = best if best > s else s + 1
    return spans


def re_spans(rx, text):
    return [m.span() for m in rx.finditer(text)]


# ---------------------------------------------------------------------------
# Random regex generator (parser-supported, backtracking-safe subset)
# ---------------------------------------------------------------------------

# Star/plus bases are kept non-nullable and prefix-disjoint (single chars,
# classes, or tiny groups of distinct atoms) so the *oracle*'s backtracking
# stays polynomial; the engine itself has no such constraint.

_ATOMS = ["a", "b", "c", "d", ".", "[ab]", "[^a]", "[bc]", "[a-c]", r"\d"]


def _atom(rng):
    return rng.choice(_ATOMS)


def _repeat_base(rng):
    r = rng.random()
    if r < 0.55:
        return _atom(rng)
    if r < 0.8:
        return "(" + _atom(rng) + _atom(rng) + ")"
    return "(" + _atom(rng) + "|" + _atom(rng) + ")"


def _piece(rng):
    r = rng.random()
    if r < 0.45:
        return _atom(rng)
    base = _repeat_base(rng)
    if r < 0.6:
        return base + "*"
    if r < 0.72:
        return base + "+"
    if r < 0.82:
        return base + "?"
    lo = rng.randrange(0, 3)
    return base + "{%d,%d}" % (lo, lo + rng.randrange(0, 3))


def random_regex(rng):
    branches = [
        "".join(_piece(rng) for _ in range(rng.randrange(1, 4)))
        for _ in range(rng.randrange(1, 4))
    ]
    return "|".join(branches)


_PAYLOAD_ALPHABET = b"aabbabcd01 d\nc"


def random_payload(rng, max_len=40):
    n = rng.randrange(0, max_len + 1)
    return bytes(rng.choice(_PAYLOAD_ALPHABET) for _ in range(n))


# ---------------------------------------------------------------------------
# The headline differential sweep: >= 200 random regex/payload cases
# ---------------------------------------------------------------------------


class TestDifferentialRandom:
    CASES = 260  # acceptance floor is 200; headroom against dedup

    def test_random_cases_match_python_re(self):
        rng = random.Random(0x5FA)
        checked = 0
        greedy_equals_longest = 0
        total_spans = 0
        while checked < self.CASES:
            pattern = random_regex(rng)
            try:
                rx = re.compile(pattern.encode("latin-1"))
            except re.error:  # pragma: no cover - generator emits valid re
                continue
            m = compile_pattern(pattern)
            for _ in range(2):
                text = random_payload(rng)
                expected = lml_spans(rx, text)
                got = list(m.finditer(text))
                assert got == expected, (pattern, text, got, expected)
                py = re_spans(rx, text)
                if py == expected:
                    greedy_equals_longest += 1
                    # byte-identical to Python re, verbatim
                    assert got == py
                total_spans += len(got)
                checked += 1
        # the sweep must be non-vacuous: matches actually occurred, and
        # most cases agree with re.finditer outright
        assert total_spans > 3 * self.CASES
        assert greedy_equals_longest > 0.8 * checked

    def test_random_cases_invariant_under_random_scan_plan(self):
        """Each random case re-run under one randomly drawn parallel plan."""
        rng = random.Random(0xD1FF)
        for _ in range(60):
            pattern = random_regex(rng)
            m = compile_pattern(pattern)
            text = random_payload(rng)
            base = list(m.finditer(text))
            p = rng.choice([2, 3, 5, 8, len(text) + 3])
            kernel = rng.choice(["python", "stride2", "stride4", "vector"])
            executor = rng.choice([None, "threads"])
            got = list(m.finditer(text, plan=Plan(
                num_chunks=p, executor=executor, num_workers=2,
                kernel=kernel,
            )))
            assert got == base, (pattern, text, p, kernel, executor)


# ---------------------------------------------------------------------------
# Structured zoo: the divergence + edge cases, full execution matrix
# ---------------------------------------------------------------------------

ZOO = [
    # (pattern, payload) — greedy-vs-longest divergences, nullables,
    # boundary-straddling matches, the first-ending-is-not-leftmost trap
    ("a|ab", b"abab"),
    ("abcde|c", b"abcde"),           # earliest *end* is not leftmost start
    ("a*", b"baa"),
    ("b|", b"abc"),
    ("(ab)*", b"xababx"),
    ("a*b|a", b"aaaa"),
    ("ERROR [0-9]+", b"ok\nERROR 42 boom\nfine\nERROR 7\n"),
    ("x{2,3}", b"xxxxxxx"),
    ("[ab]+c?", b"aabbcabc"),
    ("(a|b)*abb", b"ababbabb"),
    ("a", b""),
    ("a*", b""),
    ("ab", b"ab" * 40 + b"a"),       # odd tail for the stride kernels
]


class TestDifferentialMatrix:
    @pytest.mark.parametrize("pattern,text", ZOO)
    def test_serial_matches_lml_oracle(self, pattern, text):
        rx = re.compile(pattern.encode("latin-1"))
        m = compile_pattern(pattern)
        assert list(m.finditer(text)) == lml_spans(rx, text)

    @pytest.mark.parametrize("pattern,text", ZOO)
    def test_chunkings_and_kernels_bit_identical(self, pattern, text):
        m = compile_pattern(pattern)
        base = list(m.finditer(text))
        for p in (2, 3, 7, len(text) + 5):  # includes p > n
            for kernel in ("python", "stride2", "stride4", "vector"):
                got = list(m.finditer(text, plan=Plan(num_chunks=p, kernel=kernel)))
                assert got == base, (pattern, p, kernel)

    @pytest.mark.parametrize("pattern,text", ZOO)
    def test_streaming_blockings_bit_identical(self, pattern, text):
        m = compile_pattern(pattern)
        base = list(m.finditer(text))
        rng = random.Random(hash((pattern, text)) & 0xFFFF)
        for _ in range(6):
            cur = StreamingSpanMatcher(m)
            got = []
            i = 0
            while i < len(text):
                j = min(len(text), i + rng.randrange(1, 8))
                got += cur.feed(text[i:j])
                i = j
            got += cur.finish()
            assert got == base, (pattern, text)

    def test_executors_bit_identical(self):
        # thread + process backends on a payload long enough to matter
        text = (b"x" * 700 + b"ERROR 123" + b"y" * 500 + b"ERROR 9") * 3
        m = compile_pattern("ERROR [0-9]+")
        base = list(m.finditer(text))
        assert len(base) == 6
        for executor in ("serial", "threads", "processes"):
            for kernel in ("python", "stride4", "vector"):
                got = list(m.finditer(text, plan=Plan(
                    num_chunks=4, executor=executor, num_workers=2,
                    kernel=kernel,
                )))
                assert got == base, (executor, kernel)
