"""Cross-engine agreement: Algorithms 2, 3, 5 and lockstep must coincide.

These are the paper's central correctness claims:
* Theorem 3 — the SFA computation is split-invariant (any chunking);
* the Algorithm 3 chunk mapping equals the SFA state's stored mapping
  (the SFA "pre-evaluates" the speculative simulation);
* all engines decide exactly L(pattern).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import compile_pattern
from repro.errors import MatchEngineError
from repro.matching.lockstep import LockstepSFAMatcher, lockstep_run
from repro.matching.parallel_sfa import ParallelSFAMatcher, parallel_sfa_run
from repro.matching.sequential import SequentialDFAMatcher, SequentialSFAMatcher
from repro.matching.speculative import SpeculativeDFAMatcher, speculative_run
from repro.planning.plan import Plan

from .conftest import compiled


PATTERNS = ["(ab)*", "(a|b)*abb", "a{2,5}b?", "([0-4]{2}[5-9]{2})*", "(ab|ba)+"]


def words_for(pattern: str):
    out = [b"", b"a", b"b", b"ab", b"abab", b"abb", b"aabb", b"ba",
           b"0055", b"00550055", b"05", b"abba", b"aabbb", b"ab" * 17]
    return out


class TestEngineAgreement:
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("num_chunks", [1, 2, 3, 7])
    def test_all_engines_agree(self, pattern, num_chunks):
        m = compiled(pattern)
        for w in words_for(pattern):
            expected = m.fullmatch(w, plan=Plan(engine="dfa"))
            spec = Plan(engine="speculative", num_chunks=num_chunks)
            assert m.fullmatch(w, plan=spec) == expected
            assert m.fullmatch(w, plan=Plan(engine="sfa", num_chunks=num_chunks)) == expected
            assert m.fullmatch(w, plan=Plan(engine="lockstep", num_chunks=num_chunks)) == expected

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_sfa_sequential_matcher(self, pattern):
        m = compiled(pattern)
        seq = SequentialSFAMatcher(m.sfa)
        for w in words_for(pattern):
            assert seq.accepts(w) == m.fullmatch(w)

    def test_unknown_engine(self):
        m = compiled("(ab)*")
        with pytest.raises(MatchEngineError):
            m.fullmatch(b"ab", plan=Plan(engine="quantum"))


class TestSplitInvariance:
    """Theorem 3: any division of the input yields the same result."""

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_chunk_counts(self, pattern):
        m = compiled(pattern)
        w = b"ab" * 23 + b"a"
        classes = m.translate(w)
        ref = parallel_sfa_run(m.sfa, classes, 1).accepted
        for p in range(2, 12):
            assert parallel_sfa_run(m.sfa, classes, p).accepted == ref
            assert lockstep_run(m.sfa, classes, p).accepted == ref

    def test_more_chunks_than_chars(self):
        m = compiled("(ab)*")
        classes = m.translate(b"ab")
        assert parallel_sfa_run(m.sfa, classes, 8).accepted
        assert lockstep_run(m.sfa, classes, 8).accepted

    def test_empty_input(self):
        m = compiled("(ab)*")
        classes = m.translate(b"")
        assert parallel_sfa_run(m.sfa, classes, 4).accepted  # nullable
        assert lockstep_run(m.sfa, classes, 4).accepted

    @given(
        st.lists(st.integers(0, 1), max_size=64),
        st.integers(1, 9),
    )
    @settings(max_examples=80, deadline=None)
    def test_split_invariance_property(self, bits, p):
        m = compiled("(ab)*")
        w = b"".join(b"ab"[i : i + 1] for i in bits)
        classes = m.translate(w)
        expected = m.fullmatch(w)
        res = parallel_sfa_run(m.sfa, classes, p)
        assert res.accepted == expected
        assert lockstep_run(m.sfa, classes, p).accepted == expected

    def test_final_mapping_equals_whole_word_state(self):
        """Lemma 1: composing chunk mappings = mapping of the whole word."""
        m = compiled("(a|b)*abb")
        w = b"abbaabbab" * 3
        classes = m.translate(w)
        whole = m.sfa.run_classes(classes)
        for p in (2, 3, 5):
            res = parallel_sfa_run(m.sfa, classes, p, reduction="tree")
            assert res.final_mapping_state == whole


class TestSpeculativeEqualsSFA:
    """Algorithm 3's chunk transformation = the SFA state's mapping."""

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_chunk_mapping_identity(self, pattern):
        m = compiled(pattern)
        spec = SpeculativeDFAMatcher(m.min_dfa)
        w = b"ab0a5b" * 7
        classes = m.translate(w)
        t = spec.chunk_mapping(classes)
        f = m.sfa.run_classes(classes)
        assert (m.sfa.maps[f] == t.arr).all()

    def test_reductions_agree(self):
        m = compiled("(a|b)*abb")
        classes = m.translate(b"ababbabb" * 5)
        seq = speculative_run(m.min_dfa, classes, 4, reduction="sequential")
        tree = speculative_run(m.min_dfa, classes, 4, reduction="tree")
        assert seq.final_state == tree.final_state
        assert seq.accepted == tree.accepted

    def test_lookup_accounting(self):
        m = compiled("(ab)*")
        classes = m.translate(b"ab" * 10)
        res = speculative_run(m.min_dfa, classes, 2)
        # Algorithm 3 does |D| lookups per char
        assert res.lookups == len(classes) * m.min_dfa.num_states


class TestReductions:
    def test_sfa_reductions_agree(self):
        m = compiled("(ab|ba)+")
        classes = m.translate(b"abba" * 9)
        for p in (2, 3, 8):
            seq = parallel_sfa_run(m.sfa, classes, p, reduction="sequential")
            tree = parallel_sfa_run(m.sfa, classes, p, reduction="tree")
            assert seq.accepted == tree.accepted
            assert seq.final_states == tree.final_states

    def test_bad_reduction_name(self):
        m = compiled("(ab)*")
        with pytest.raises(MatchEngineError):
            parallel_sfa_run(m.sfa, m.translate(b"ab"), 2, reduction="magic")

    def test_bad_chunk_count(self):
        m = compiled("(ab)*")
        with pytest.raises(MatchEngineError):
            parallel_sfa_run(m.sfa, m.translate(b"ab"), 0)
        with pytest.raises(MatchEngineError):
            lockstep_run(m.sfa, m.translate(b"ab"), 0)


class TestMatcherObjects:
    def test_sequential_dfa_matcher(self):
        m = compiled("(ab)*")
        seq = SequentialDFAMatcher(m.min_dfa)
        assert seq.accepts(b"abab")
        assert not seq.accepts(b"aba")
        assert seq.lookups_per_char() == 1.0

    def test_parallel_matcher_wrapper(self):
        m = compiled("(ab)*")
        pm = ParallelSFAMatcher(m.sfa, num_chunks=4)
        assert pm.accepts(b"ab" * 8)
        assert pm.lookups_per_char() == 1.0

    def test_lockstep_matcher_wrapper(self):
        m = compiled("(ab)*")
        lm = LockstepSFAMatcher(m.sfa, num_chunks=4)
        assert lm.accepts(b"ab" * 8)
        assert not lm.accepts(b"ab" * 8 + b"x")

    def test_state_trace(self):
        m = compiled("(ab)*")
        seq = SequentialDFAMatcher(m.min_dfa)
        classes = m.translate(b"abab")
        trace = seq.state_trace(classes)
        assert len(trace) == 4
        assert trace[0] == m.min_dfa.initial

    def test_speculative_lookups_per_char(self):
        m = compiled("(a|b)*abb")
        spec = SpeculativeDFAMatcher(m.min_dfa)
        assert spec.lookups_per_char() == float(m.min_dfa.num_states)


class TestLockstepInternals:
    def test_tail_handling(self):
        m = compiled("(ab)*")
        # length 11 with p=4: block m=2, tail=3 appended to last chunk
        w = b"ab" * 5 + b"a"
        classes = m.translate(w)
        res = lockstep_run(m.sfa, classes, 4)
        assert res.accepted == m.fullmatch(w)
        assert res.num_chunks == 4

    def test_chunk_states_match_serial_scan(self):
        from repro.matching.parallel_sfa import sfa_chunk_scan
        from repro.parallel.chunking import lockstep_layout

        m = compiled("(a|b)*abb")
        classes = m.translate(b"abbab" * 8)
        p = 5
        res = lockstep_run(m.sfa, classes, p)
        n = len(classes)
        mm = n // p
        for i in range(p):
            lo = i * mm
            hi = (i + 1) * mm if i < p - 1 else n
            expect = sfa_chunk_scan(m.sfa.table, m.sfa.initial, classes[lo:hi])
            assert res.chunk_states[i] == expect
