"""Unit tests for the span-extraction subsystem (DESIGN.md §3.7)."""

import os
import random
import re
import resource
import subprocess
import sys

import numpy as np
import pytest

from repro import MultiPatternSet, compile_pattern
from repro.cli import main
from repro.errors import MatchEngineError
from repro.matching import spans as spans_mod
from repro.matching.stream import (
    StreamingMultiSpanMatcher,
    StreamingSpanMatcher,
)
from repro.parallel.scan import mask_scan
from repro.planning.plan import Plan
from tests.test_find_differential import random_payload, random_regex


class TestSpanAPI:
    def test_finditer_returns_spans(self):
        m = compile_pattern("ab")
        assert list(m.finditer(b"xxabxxab")) == [(2, 4), (6, 8)]

    def test_find_first_or_none(self):
        m = compile_pattern("ab")
        assert m.find(b"xxabxxab") == (2, 4)
        assert m.find(b"xxx") is None

    def test_count(self):
        assert compile_pattern("a").count(b"aaa") == 3
        assert compile_pattern("a+").count(b"aa b aaa") == 2

    def test_findall_returns_bytes(self):
        m = compile_pattern("a+")
        assert m.findall(b"aa b aaa") == [b"aa", b"aaa"]

    def test_memoryview_and_bytearray_inputs(self):
        m = compile_pattern("ab")
        data = b"xxabxx"
        assert list(m.finditer(memoryview(data))) == [(2, 4)]
        assert list(m.finditer(bytearray(data))) == [(2, 4)]
        assert m.findall(memoryview(data)) == [b"ab"]

    def test_ignore_case_spans(self):
        m = compile_pattern("error", ignore_case=True)
        assert list(m.finditer(b"xx ERROR yy Error")) == [(3, 8), (12, 17)]

    def test_leftmost_longest_alternation(self):
        # Python re would report (0, 1); POSIX longest wins here.
        assert list(compile_pattern("a|ab").finditer(b"ab")) == [(0, 2)]

    def test_nullable_pattern_matches_re(self):
        rx = re.compile(b"a*")
        m = compile_pattern("a*")
        for text in (b"", b"a", b"baa", b"aab", b"bb"):
            assert list(m.finditer(text)) == [x.span() for x in rx.finditer(text)]

    def test_empty_language_has_no_spans(self):
        # [^\x00-\xff] is an empty class -> Never; nothing ever matches
        m = compile_pattern("a{2}b{0}c|x")
        assert list(m.finditer(b"aacx")) == [(0, 3), (3, 4)]

    def test_bad_kernel_and_chunks_rejected(self):
        m = compile_pattern("a")
        with pytest.raises(MatchEngineError):
            m.span_engine().spans(b"a", plan=Plan(kernel="simd"))
        with pytest.raises(MatchEngineError):
            m.span_engine().spans(b"a", plan=Plan(num_chunks=0))

    def test_span_engine_cached(self):
        m = compile_pattern("ab")
        assert m.span_engine() is m.span_engine()

    def test_limit_zero_returns_no_spans(self):
        eng = compile_pattern("ab").span_engine()
        assert eng.spans(b"abxab", limit=0) == []
        assert eng.spans(b"abxab", limit=1) == [(0, 2)]
        assert eng.spans(b"abxab" * 2000, limit=0) == []  # lane end walk

    def test_negative_limit_rejected(self):
        eng = compile_pattern("ab").span_engine()
        for bad in (-1, 1.5, "2", True, False):
            with pytest.raises(MatchEngineError):
                eng.spans(b"abxab", limit=bad)


class TestLazyStartAutomaton:
    """``B = DFA(Σ*·rev(P))`` is built on the first start pass, never by
    the engine's constructor, a prefiltered scan or ``repr()``."""

    PATTERN = "ERROR [0-9]+"

    def _log(self, n_lines):
        return b"".join(
            b"t=%d ERROR %d ok\n" % (i, i * 7) if i % 3 else b"t=%d fine\n" % i
            for i in range(n_lines)
        )

    def test_prefiltered_scans_never_build_b(self):
        m = compile_pattern(self.PATTERN)
        eng = m.span_engine()
        assert eng.prefilter is not None
        for data in (self._log(20), self._log(spans_mod.LANE_START_MIN // 8)):
            list(m.finditer(data))
            m.find(data)
            m.count(data)
            m.findall(data)
        assert eng._bwd is None and eng._bsfa is None and eng._start_lanes is None

    def test_start_pass_builds_b_with_identical_spans(self):
        for data in (self._log(20), self._log(spans_mod.LANE_START_MIN // 8)):
            m = compile_pattern(self.PATTERN)
            want = list(m.finditer(data))
            assert m.span_engine()._bwd is None
            assert list(m.finditer(data, plan=Plan(prefilter=False))) == want
            assert m.span_engine()._bwd is not None
            assert want == [x.span() for x in re.finditer(rb"ERROR [0-9]+", data)]

    def test_start_bits_builds_b(self):
        m = compile_pattern(self.PATTERN)
        eng = m.span_engine()
        bits = eng.start_bits(m.translate(b"x ERROR 1"))
        assert eng._bwd is not None
        assert np.flatnonzero(bits).tolist() == [2]

    def test_streaming_builds_b_with_identical_spans(self):
        data = self._log(200)
        m = compile_pattern(self.PATTERN)
        want = list(m.finditer(data))
        assert m.span_engine()._bwd is None
        sm = StreamingSpanMatcher(m)
        got = []
        for i in range(0, len(data), 97):
            got += sm.feed(data[i:i + 97])
        got += sm.finish()
        assert got == want
        assert m.span_engine()._bwd is not None

    def test_repr_builds_nothing(self):
        eng = compile_pattern(self.PATTERN).span_engine()
        assert "bwd=unbuilt" in repr(eng)
        assert eng._bwd is None and eng._live is None and eng._bsfa is None
        eng.start_bits(eng.partition.translate(b"ERROR 1"))
        assert f"bwd={eng.bwd.num_states}" in repr(eng)

    def test_scan_built(self):
        lit = compile_pattern(self.PATTERN).span_engine()
        assert lit.scan_built(10) and lit.scan_built(10**6)
        assert not lit.scan_built(10, prefilter=False)
        free = compile_pattern("[a-z]+=[0-9]+").span_engine()
        assert free.prefilter is None and not free.scan_built(10)
        free.spans(b"k=1")
        assert free.scan_built(10)
        assert not free.scan_built(spans_mod.LANE_START_MIN)  # lanes unbuilt
        free.spans(b"k=1 " * spans_mod.LANE_START_MIN)
        assert free.scan_built(spans_mod.LANE_START_MIN)


class TestStartBits:
    def test_bits_mark_match_starts(self):
        m = compile_pattern("ab")
        eng = m.span_engine()
        classes = m.translate(b"abxab")
        bits = eng.start_bits(classes)
        assert bits.tolist() == [True, False, False, True, False, False]

    def test_trailing_position_for_nullable(self):
        eng = compile_pattern("a*").span_engine()
        bits = eng.start_bits(compile_pattern("a*").translate(b"b"))
        assert bits.tolist() == [True, True]

    def test_chunked_bits_equal_serial(self):
        m = compile_pattern("(ab)+|c")
        eng = m.span_engine()
        rng = random.Random(13)
        for _ in range(25):
            text = bytes(rng.choice(b"abcab") for _ in range(rng.randrange(0, 60)))
            classes = m.translate(text)
            base = eng.start_bits(classes)
            for p in (2, 3, 9, len(text) + 2):
                for kernel in ("python", "stride2", "stride4", "vector"):
                    got = eng.start_bits(classes, p, None, kernel)
                    assert np.array_equal(got, base), (text, p, kernel)


def _scalar_start_bits(eng, classes):
    """The reference start pass: one scalar mask scan, right to left."""
    bdfa = eng.bwd
    n = len(classes)
    bits = np.empty(n + 1, dtype=np.bool_)
    bits[n] = bool(bdfa.accept[bdfa.initial])
    if n:
        bits[:n] = mask_scan(
            bdfa.table, bdfa.accept, bdfa.initial, classes[::-1]
        )[::-1]
    return bits


def _longest_end(eng, classes, s):
    """Reference longest end of a match starting at ``s`` (``-1``: none)."""
    fwd = eng.fwd
    q = fwd.initial
    last = s if fwd.accept[q] else -1
    for i in range(s, len(classes)):
        q = fwd.table[q, classes[i]]
        if fwd.accept[q]:
            last = i + 1
    return last


class TestLanePaths:
    """The lane start pass and the batched end walk against the scalar
    references, with tiny blocks, lanes, batches and work caps so every
    lane boundary, ragged block, batch edge and scalar continuation is
    exercised on short inputs."""

    def _cases(self, seed, count):
        rng = random.Random(seed)
        fixed = ["a*", "b|", "(ab)*", "a|ab", "a*b|a", "x{2,3}", "[ab]+c?"]
        for i in range(count):
            pattern = fixed[i] if i < len(fixed) else random_regex(rng)
            text = b"" if i % 9 == 0 else random_payload(rng, max_len=70)
            yield rng, pattern, text

    def test_start_pass_equals_mask_scan(self):
        checked = 0
        for rng, pattern, text in self._cases(2024, 240):
            m = compile_pattern(pattern)
            eng = m.span_engine()
            classes = m.translate(text)
            want = _scalar_start_bits(eng, classes)
            for block in (1, 2, 5, 7, 64, 1 << 20):
                for lane in (None, 1, 3, 4):
                    got = eng.lane_start_bits(classes, block, lane)
                    assert got is not None
                    assert np.array_equal(got, want), (pattern, text, block, lane)
                    checked += 1
        assert checked >= 5000

    @pytest.mark.parametrize("steps", [0, 1])
    def test_start_pass_hands_over_exactly(self, steps, monkeypatch):
        """Every random case again with the repair budget at 0 and 1
        steps, so every block with a wrong guess is handed over to the
        backward D-SFA lanes."""
        handovers = []
        exact = spans_mod.SpanEngine._exact_entries

        def spy(eng, cols, q):
            handovers.append(q)
            return exact(eng, cols, q)

        monkeypatch.setattr(spans_mod, "LANE_REPAIR_STEPS", steps)
        monkeypatch.setattr(spans_mod.SpanEngine, "_exact_entries", spy)
        self.test_start_pass_equals_mask_scan()
        assert len(handovers) > 1000

    #: Texts on which ``B``'s run from its initial state stays apart from
    #: the true run for longer than a lane, but within the repair budget.
    APART = [
        # one walker crosses 40 symbols of letters after ``=5``
        ("[a-z]+=[0-9]+", b"k" * 40 + b"=5 x"),
        # every lane ending in ``y`` spawns a walker that starts wrong
        # (the ``.*x`` run is unseen); the walker from the ``x`` crosses
        # them all and its writes land last
        (".*x|[ab]*y", b"ayab" * 8 + b"x"),
        # consecutive wrong boundaries whose walkers rejoin at once
        ("[a-z]+=[0-9]+", b"a=1" * 10),
    ]

    @pytest.mark.parametrize("lane", [1, 3, 4])
    def test_repair_walkers_cross_lanes(self, lane):
        for pattern, text in self.APART:
            for block in (len(text), len(text) - 5, 1 << 20):
                m = compile_pattern(pattern)
                eng = m.span_engine()
                classes = m.translate(text)
                got = eng.lane_start_bits(classes, block, lane)
                assert np.array_equal(got, _scalar_start_bits(eng, classes)), (
                    pattern, block, lane)
                assert eng._bsfa is None  # repaired, never handed over

    @pytest.mark.parametrize("pattern, text", [
        ("[a-z]+=[0-9]+", b"a" * (1 << 16) + b"=5"),
        ("(ab)+c", b"ab" * (1 << 15) + b"c"),
    ], ids=["letters", "pairs"])
    def test_non_resyncing_text_hands_over(self, pattern, text):
        m = compile_pattern(pattern)
        eng = m.span_engine()
        classes = m.translate(text)
        assert np.array_equal(
            eng.start_bits(classes), _scalar_start_bits(eng, classes)
        )
        assert eng._bsfa is not None

    def test_dsfa_over_budget_only_stops_hand_overs(self, monkeypatch):
        monkeypatch.setattr(spans_mod, "LANE_DSFA_ENTRIES", 1)
        m = compile_pattern("[a-z]+=[0-9]+")
        eng = m.span_engine()
        never = m.translate(b"a" * 8192 + b"=5")
        assert eng.lane_start_bits(never) is None and eng._bsfa_failed
        assert np.array_equal(
            eng.start_bits(never), _scalar_start_bits(eng, never)
        )
        log = m.translate(b"k=1 id=22 " * 1000)  # resyncs: needs no D-SFA
        got = eng.lane_start_bits(log)
        assert got is not None
        assert np.array_equal(got, _scalar_start_bits(eng, log))

    def test_lane_ends_equal_scalar_walk(self):
        for rng, pattern, text in self._cases(7, 160):
            m = compile_pattern(pattern)
            eng = m.span_engine()
            classes = m.translate(text)
            cand = np.arange(len(classes))
            for cap in (0, 1, 3, 10**9):
                ends, opened = eng.lane_ends(classes, cand, cap)
                for i, s in enumerate(cand.tolist()):
                    if i in opened:
                        assert ends[i] == spans_mod.OPEN
                        continue
                    assert ends[i] == _longest_end(eng, classes, s), (
                        pattern, text, s, cap)
                if cap == 0:
                    assert len(opened) == len(cand)  # scalar finishes all
                if cap == 10**9:
                    assert not opened

    def test_emit_batch_and_stream_equal_scalar(self):
        cases = 0
        for rng, pattern, text in self._cases(31, 200):
            m = compile_pattern(pattern)
            eng = m.span_engine()
            classes = m.translate(text)
            exact = _scalar_start_bits(eng, classes)
            # a superset of the true starts, as the literal prefilter gives
            noisy = exact.copy()
            noisy[: len(classes)] |= np.array(
                [rng.random() < 0.3 for _ in range(len(classes))], dtype=bool
            )
            alive = eng.alive_bits(classes)
            for bits in (exact, noisy):
                want = eng._emit(classes, bits, batch=0)
                want_stream = eng._emit(classes, bits, alive=alive, batch=0)
                for batch in (1, 2, 5, 64):
                    for work in (0, 1, 4):
                        got = eng._emit(classes, bits, batch=batch, work=work)
                        assert got == want, (pattern, text, batch, work)
                        got = eng._emit(
                            classes, bits, alive=alive, batch=batch, work=work
                        )
                        assert got == want_stream, (pattern, text, batch, work)
                        for limit in (1, 2):
                            got = eng._emit(
                                classes, bits, limit=limit, batch=batch,
                                work=work,
                            )
                            assert got[0] == want[0][:limit]
                        cases += 1
        assert cases >= 4000

    def test_lanes_are_built_lazily(self):
        m = compile_pattern("[a-z]+=[0-9]+")
        eng = m.span_engine()
        eng.spans(b"key=1 " * 10)  # below both gates
        assert eng._bsfa is None and eng._start_lanes is None
        assert eng._end_lanes is None
        text = b"key=1 " * spans_mod.LANE_START_MIN
        assert eng.spans(text) == [(6 * i, 6 * i + 5) for i in range(len(text) // 6)]
        assert eng._bsfa is None and eng._start_lanes is not None
        assert eng._end_lanes is not None


def _above_gates_log(rng, min_bytes):
    words = ["ok", "retries=3", "took 12ms", "id=42", "at 10.0.0.7",
             "user=u17", "x", "ts=12:30:45", "status 200", "req=ab12cd"]
    out = bytearray()
    while len(out) < min_bytes:
        out += " ".join(rng.choice(words) for _ in range(8)).encode() + b"\n"
    return bytes(out)


#: patterns whose leftmost-greedy and leftmost-longest spans agree
ABOVE_GATE_PATTERNS = [
    r"[a-z]+=[0-9]+",
    r"[0-9]+\.[0-9]+\.[0-9]+\.[0-9]+",
    r"[0-9]{2}:[0-9]{2}",
    r"took [0-9]+ms",
]


class TestAboveGateSurfaces:
    """One input above both lane gates through every span surface."""

    @pytest.fixture(scope="class")
    def log(self):
        return _above_gates_log(random.Random(5), 8 * spans_mod.LANE_START_MIN)

    @pytest.mark.parametrize("pattern", ABOVE_GATE_PATTERNS)
    def test_library_and_stream_equal_re(self, log, pattern):
        want = [x.span() for x in re.finditer(pattern.encode(), log)]
        assert len(want) >= spans_mod.LANE_ENDS_MIN
        m = compile_pattern(pattern)
        assert list(m.finditer(log, plan="auto")) == want
        cur = StreamingSpanMatcher(m, plan="auto")
        got = []
        step = 3 * spans_mod.LANE_START_MIN // 2
        for i in range(0, len(log), step):
            got += cur.feed(log[i:i + step])
        got += cur.finish()
        assert got == want

    @pytest.mark.parametrize("pattern", ABOVE_GATE_PATTERNS)
    def test_grep_only_matching_equals_re(self, log, pattern, tmp_path, capsys):
        f = tmp_path / "log.txt"
        f.write_bytes(log)
        assert main(["grep", "-o", pattern, str(f)]) == 0
        out = capsys.readouterr().out
        want = "".join(
            x.group().decode() + "\n" for x in re.finditer(pattern.encode(), log)
        )
        assert out == want

    @pytest.mark.parametrize("pattern", ABOVE_GATE_PATTERNS)
    def test_log_resyncs_without_a_dsfa(self, log, pattern):
        """On log text every lane rejoins the true run within the repair
        budget: the start pass builds no backward D-SFA."""
        m = compile_pattern(pattern)
        want = [x.span() for x in re.finditer(pattern.encode(), log)]
        assert list(m.finditer(log, plan=Plan(prefilter=False))) == want
        assert m.span_engine()._bwd is not None
        assert m.span_engine()._bsfa is None

    def test_lone_straggler_leaves_the_lanes(self):
        """``x[a-z]*y`` where one of 401 candidate matches runs over 1 MiB
        of ``a``: once too few lanes are live the batch leaves them to the
        scalar walk.  Stepping that one lane alone in lockstep took ~7 s
        on 2 vCPUs; the scalar walk takes ~0.1 s."""
        code = (
            "import re\n"
            "from repro import compile_pattern\n"
            "t = b'xay ' * 200 + b'x' + b'a' * (1 << 20) + b'y' + b' xay' * 200\n"
            "want = [x.span() for x in re.finditer(rb'x[a-z]*y', t)]\n"
            "assert compile_pattern('x[a-z]*y').span_engine().spans(t) == want\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       timeout=4)

    def test_letter_run_stays_linear(self):
        """``[a-z]+`` over 1 MiB of ``a``: every position is a start.  The
        end walk's work cap hands the first lane to the scalar walk and
        the cursor skips the rest; an uncapped lane walk would take every
        start to the end of input (quadratic) and time out."""
        code = (
            "from repro import compile_pattern\n"
            "n = 1 << 20\n"
            "assert compile_pattern('[a-z]+').span_engine().spans(b'a' * n)"
            " == [(0, n)]\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       timeout=120)


class TestStreamingSpans:
    def test_emits_before_finish(self):
        cur = StreamingSpanMatcher(compile_pattern("ERROR [0-9]+"))
        assert cur.feed(b"ok\nERROR 42 boom\n") == [(3, 11)]
        assert cur.bytes_buffered == 0

    def test_holds_extensible_tail(self):
        cur = StreamingSpanMatcher(compile_pattern("ERROR [0-9]+"))
        assert cur.feed(b"xx ERROR 4") == []  # digits may keep coming
        assert cur.bytes_buffered == 7  # held from the match start
        assert cur.feed(b"2 done") == [(3, 11)]

    def test_finish_flushes_and_closes(self):
        cur = StreamingSpanMatcher(compile_pattern("a+"))
        assert cur.feed(b"xaa") == []
        assert cur.finish() == [(1, 3)]
        assert cur.finish() == []
        with pytest.raises(MatchEngineError):
            cur.feed(b"more")

    def test_reset(self):
        cur = StreamingSpanMatcher(compile_pattern("ab"))
        cur.feed(b"ab")
        cur.reset()
        assert cur.feed(b"xxab\n") == [(2, 4)]

    def test_global_offsets_across_many_feeds(self):
        cur = StreamingSpanMatcher(compile_pattern("ab"))
        got = []
        for _ in range(10):
            got += cur.feed(b"xab\n")
        got += cur.finish()
        assert got == [(4 * i + 1, 4 * i + 3) for i in range(10)]

    def test_rejects_non_pattern(self):
        with pytest.raises(MatchEngineError):
            StreamingSpanMatcher("a+")

    def test_random_blockings_equal_batch(self):
        rng = random.Random(99)
        for pattern in ("a+b", "(ab|ba)*", "ERROR [0-9]+"):
            m = compile_pattern(pattern)
            for _ in range(15):
                n = rng.randrange(0, 70)
                text = bytes(
                    rng.choice(b"abERROR 0123\n") for _ in range(n)
                )
                batch = list(m.finditer(text))
                cur = StreamingSpanMatcher(m)
                got, i = [], 0
                while i < n:
                    j = min(n, i + rng.randrange(1, 10))
                    got += cur.feed(text[i:j])
                    i = j
                got += cur.finish()
                assert got == batch, (pattern, text)


class TestMultiPatternSpans:
    RULES = ["abc", "a[0-9]+b", "zz*top"]

    def test_finditer_reports_rule_spans(self):
        mps = MultiPatternSet(self.RULES)
        got = mps.finditer(b"pad abc pad a42b abc ztop")
        assert got == [(0, 4, 7), (1, 12, 16), (0, 17, 20), (2, 21, 25)]

    def test_prefilter_skips_missing_rules(self):
        mps = MultiPatternSet(self.RULES)
        assert mps.finditer(b"nothing here") == []
        assert mps.finditer(b"xx abc xx") == [(0, 3, 6)]

    def test_knobs_do_not_change_spans(self):
        mps = MultiPatternSet(self.RULES)
        data = b"x" * 200 + b"abc" + b"y" * 100 + b"a7b"
        base = mps.finditer(data)
        for executor in (None, "threads"):
            for kernel in ("python", "stride2"):
                got = mps.finditer(data, plan=Plan(
                    num_chunks=4, executor=executor, num_workers=2,
                    kernel=kernel,
                ))
                assert got == base, (executor, kernel)

    def test_fullmatch_mode_extracts_all_rules(self):
        mps = MultiPatternSet(["abc", "x+"], mode="fullmatch")
        # neither rule fullmatches, but occurrences are still reported
        assert mps.finditer(b"abc xx") == [(0, 0, 3), (1, 4, 6)]

    def test_rule_pattern_cached_and_case_aware(self):
        mps = MultiPatternSet([("abc", True), "d"])
        assert mps.rule_pattern(0) is mps.rule_pattern(0)
        assert list(mps.rule_pattern(0).finditer(b"ABC")) == [(0, 3)]

    def test_streaming_multi_equals_batch(self):
        mps = MultiPatternSet(self.RULES)
        data = b"pad abc pad a42b abc ztop"
        batch = mps.finditer(data)
        rng = random.Random(5)
        for _ in range(8):
            sm = StreamingMultiSpanMatcher(mps)
            got, i = [], 0
            while i < len(data):
                j = min(len(data), i + rng.randrange(1, 7))
                got += sm.feed(data[i:j])
                i = j
            got += sm.finish()
            assert sorted(got) == sorted(batch)
            sm.reset()


class TestReadInputMmap:
    def test_regular_file_is_mmapped(self, tmp_path):
        import mmap as mmap_mod

        from repro.cli import _read_input

        f = tmp_path / "in.bin"
        f.write_bytes(b"abcd")
        data = _read_input(str(f))
        assert isinstance(data, mmap_mod.mmap)
        assert len(data) == 4
        assert bytes(memoryview(data)) == b"abcd"
        # the engines consume it zero-copy through the buffer protocol
        assert compile_pattern("bc").find(data) == (1, 3)

    def test_empty_file_returns_bytes(self, tmp_path):
        from repro.cli import _read_input

        f = tmp_path / "empty.bin"
        f.write_bytes(b"")
        assert _read_input(str(f)) == b""

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is KB on Linux")
    def test_large_sparse_file_does_not_balloon_rss(self, tmp_path):
        """Regression: the seed `_read_input` slurped whole files into RAM.

        A 256 MB sparse file must not move the process high-water RSS by
        anywhere near its size — mmap pages in only what is touched.
        """
        from repro.cli import _read_input

        size = 256 * 1024 * 1024
        f = tmp_path / "sparse.bin"
        with open(f, "wb") as fh:
            fh.seek(size - 4)
            fh.write(b"abcd")
        before_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        data = _read_input(str(f))
        assert len(data) == size
        # touch both ends (what a binary sniff + a tail peek would do)
        assert bytes(memoryview(data)[:4]) == b"\0\0\0\0"
        assert bytes(memoryview(data)[-4:]) == b"abcd"
        after_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        grown_mb = (after_kb - before_kb) / 1024
        assert grown_mb < 64, f"RSS grew {grown_mb:.0f} MB for a sparse mmap"
