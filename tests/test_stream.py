"""Streaming (online) matching."""

import pytest

from repro.errors import MatchEngineError
from repro.matching.multi import MultiPatternSet
from repro.matching.stream import (
    ParallelStreamMatcher,
    StreamingMultiMatcher,
    StreamMatcher,
)
from repro.planning.plan import Plan

from .conftest import compiled


class TestStreamMatcher:
    def test_matches_offline_verdict(self):
        m = compiled("(ab)*")
        cur = StreamMatcher(m.sfa)
        cur.feed(b"abab").feed(b"ab")
        assert cur.accepted() == m.fullmatch(b"ababab")

    def test_any_block_boundaries(self):
        m = compiled("(a|b)*abb")
        text = b"ababbabb" * 4
        for cut in (1, 3, 7, 13):
            cur = StreamMatcher(m.sfa)
            for i in range(0, len(text), cut):
                cur.feed(text[i : i + cut])
            assert cur.accepted() == m.fullmatch(text), cut

    def test_empty_blocks_are_noops(self):
        m = compiled("(ab)*")
        cur = StreamMatcher(m.sfa)
        cur.feed(b"").feed(b"ab").feed(b"")
        assert cur.accepted()
        assert cur.bytes_consumed == 2

    def test_reset(self):
        m = compiled("(ab)*")
        cur = StreamMatcher(m.sfa)
        cur.feed(b"a")
        assert not cur.accepted()
        cur.reset()
        assert cur.accepted()  # empty word is in (ab)*
        assert cur.bytes_consumed == 0

    def test_final_states(self):
        m = compiled("(ab)*")
        cur = StreamMatcher(m.sfa)
        cur.feed(b"ab")
        assert cur.final_states() == [m.min_dfa.initial]

    def test_verdict_evolves(self):
        m = compiled("(ab)*")
        cur = StreamMatcher(m.sfa)
        verdicts = []
        for ch in b"abab":
            cur.feed(bytes([ch]))
            verdicts.append(cur.accepted())
        assert verdicts == [False, True, False, True]


class TestParallelStreamMatcher:
    def test_matches_serial_cursor(self):
        m = compiled("(a|b)*abb")
        text = b"abbaabbbab" * 9
        serial = StreamMatcher(m.sfa, plan=Plan(engine="sfa"))
        par = ParallelStreamMatcher(m.sfa, plan=Plan(num_chunks=4))
        for i in range(0, len(text), 17):
            block = text[i : i + 17]
            serial.feed(block)
            par.feed(block)
            assert par.accepted() == serial.accepted()
            assert par.state == serial.state

    def test_bad_chunks(self):
        m = compiled("(ab)*")
        with pytest.raises(MatchEngineError):
            ParallelStreamMatcher(m.sfa, plan=Plan(num_chunks=0))

    def test_block_smaller_than_chunks(self):
        m = compiled("(ab)*")
        par = ParallelStreamMatcher(m.sfa, plan=Plan(num_chunks=16))
        par.feed(b"ab")  # 2 bytes < 16 chunks
        assert par.accepted()

    def test_consumed_accounting(self):
        m = compiled("(ab)*")
        par = ParallelStreamMatcher(m.sfa, plan=Plan(num_chunks=4))
        par.feed(b"abab").feed(b"")
        assert par.bytes_consumed == 4

    def test_reset(self):
        m = compiled("(ab)*")
        par = ParallelStreamMatcher(m.sfa, plan=Plan(num_chunks=4))
        par.feed(b"a")
        par.reset()
        assert par.state == m.sfa.initial


RULES = ["abc", "a[0-9]+b", "zz*top"]


@pytest.fixture(scope="module")
def mps():
    return MultiPatternSet(RULES)


class TestStreamingMultiMatcher:
    def test_incremental_rule_reports(self, mps):
        cur = StreamingMultiMatcher(mps)
        assert cur.feed(b"xx ab") == set()  # "abc" not complete yet
        assert cur.feed(b"c yy") == {0}  # completed across the boundary
        assert cur.feed(b" a1") == set()
        assert cur.feed(b"2b zztop") == {1, 2}
        assert cur.feed(b" more abc") == set()  # rule 0 already reported
        assert cur.matched_rules() == {0, 1, 2}
        assert cur.rules() == {0, 1, 2}
        assert cur.matched_any()

    def test_agrees_with_batch_any_blocking(self, mps):
        text = b"pad abc pad a99b pad zzztop tail"
        expected = mps.matches(text)
        for cut in (1, 2, 5, 11):
            cur = StreamingMultiMatcher(mps)
            for i in range(0, len(text), cut):
                cur.feed(text[i : i + cut])
            assert cur.matched_rules() == expected, cut
            assert cur.bytes_consumed == len(text)

    @pytest.mark.parametrize("kernel", ["python", "stride2", "stride4", "vector"])
    @pytest.mark.parametrize("p", [1, 4])
    def test_kernel_and_chunk_knobs(self, mps, kernel, p):
        text = b"abc a1b zztop " * 3
        cur = StreamingMultiMatcher(mps, plan=Plan(num_chunks=p, kernel=kernel))
        cur.feed(text[:7])
        cur.feed(text[7:])
        assert cur.matched_rules() == mps.matches(text)

    def test_empty_blocks_are_noops(self, mps):
        cur = StreamingMultiMatcher(mps)
        assert cur.feed(b"") == set()
        cur.feed(b"abc")
        assert cur.feed(b"") == set()
        assert cur.bytes_consumed == 3
        assert cur.matched_rules() == {0}

    def test_reset(self, mps):
        cur = StreamingMultiMatcher(mps, plan=Plan(num_chunks=3))
        cur.feed(b"abc")
        cur.reset()
        assert cur.state == mps.sfa.initial
        assert cur.bytes_consumed == 0
        assert cur.matched_rules() == set()

    def test_buffer_types(self, mps):
        cur = StreamingMultiMatcher(mps)
        cur.feed(memoryview(b"ab"))
        assert cur.feed(bytearray(b"c")) == {0}

    def test_fullmatch_mode_reports_current(self):
        mf = MultiPatternSet(["(ab)*", "a+"], mode="fullmatch")
        cur = StreamingMultiMatcher(mf)
        assert cur.matched_rules() == {0}  # empty input is in (ab)*
        assert cur.feed(b"a") == {1}
        assert cur.rules() == {1}
        cur.feed(b"b")
        assert cur.rules() == {0}  # "ab" left a+ again
        assert cur.matched_rules() == {0, 1}

    def test_bad_knobs(self, mps):
        with pytest.raises(MatchEngineError):
            StreamingMultiMatcher(mps, plan=Plan(num_chunks=0))
        with pytest.raises(MatchEngineError):
            StreamingMultiMatcher(mps, plan=Plan(kernel="simd"))

    def test_epsilon_matching_rules_reported_by_first_feed(self):
        # a rule whose language contains the empty string must still show
        # up on the feed() alert channel, not only via matched_rules()
        eps = MultiPatternSet(["a*bc", "a*", "xyz"])
        cur = StreamingMultiMatcher(eps)
        assert cur.matched_rules() == {1}  # visible even before any block
        reported = set(cur.feed(b"xy"))
        reported |= cur.feed(b"z abc")
        assert reported == {0, 1, 2}  # every rule reported exactly once
        assert cur.matched_rules() == eps.matches(b"xyz abc")

    def test_serial_cursor_never_builds_the_sfa(self):
        # the default cursor walks the union DFA; a ruleset that streams
        # serially must not pay (or blow up on) D-SFA construction
        fresh = MultiPatternSet(RULES)
        cur = StreamingMultiMatcher(fresh)
        assert cur.feed(b"xx abc") == {0}
        assert cur.feed(b" zztop") == {2}
        assert fresh._sfa is None
        # the chunk-parallel cursor does need it
        StreamingMultiMatcher(fresh, plan=Plan(num_chunks=2))
        assert fresh._sfa is not None
