"""Edge cases across the stack: degenerate inputs, extreme alphabets,
empty languages, and boundary sizes."""

import numpy as np
import pytest

from repro import compile_pattern
from repro.automata import correspondence_construction, glushkov_nfa, minimize, subset_construction
from repro.matching.lockstep import lockstep_run
from repro.matching.parallel_sfa import parallel_sfa_run
from repro.matching.speculative import speculative_run
from repro.planning.plan import Plan
from repro.regex.parser import parse

from .conftest import compiled


class TestDegenerateLanguages:
    def test_empty_pattern(self):
        m = compiled("")
        assert m.fullmatch(b"")
        assert not m.fullmatch(b"a")
        assert m.sizes()["d_sfa"] >= 2

    def test_never_matching_class(self):
        m = compiled("[^\\x00-\\xff]")
        assert not m.fullmatch(b"")
        assert not m.fullmatch(b"a")
        # its SFA still works in parallel
        assert not m.fullmatch(b"xyz", plan=Plan(engine="sfa", num_chunks=3))

    def test_epsilon_only_language(self):
        m = compiled("()")
        assert m.fullmatch(b"")
        assert not m.fullmatch(b"x")

    def test_single_byte_language(self):
        m = compiled("\\x00")
        assert m.fullmatch(b"\x00")
        assert not m.fullmatch(b"\x01")

    def test_high_byte(self):
        m = compiled("\\xff+")
        assert m.fullmatch(b"\xff\xff")
        assert m.contains(b"a\xffb")


class TestBoundarySizes:
    def test_one_char_input_all_engines(self):
        m = compiled("a")
        for engine in ("dfa", "speculative", "sfa", "lockstep"):
            assert m.fullmatch(b"a", plan=Plan(engine=engine, num_chunks=1))
            assert not m.fullmatch(b"b", plan=Plan(engine=engine, num_chunks=1))

    def test_empty_input_all_engines(self):
        m = compiled("a*")
        for engine in ("dfa", "speculative", "sfa", "lockstep"):
            assert m.fullmatch(b"", plan=Plan(engine=engine, num_chunks=4))

    def test_chunks_equal_length(self):
        m = compiled("(ab)*")
        w = b"ab" * 4
        assert m.fullmatch(w, plan=Plan(engine="lockstep", num_chunks=8))

    def test_single_chunk_parallel_run(self):
        m = compiled("(ab)*")
        res = parallel_sfa_run(m.sfa, m.translate(b"abab"), 1)
        assert res.accepted and res.num_chunks == 1

    def test_speculative_one_state_dfa(self):
        # a pattern whose minimal DFA is a single accepting state
        m = compile_pattern("(?s).*")
        mm = minimize(subset_construction(glushkov_nfa(parse("(?s).*"))))
        res = speculative_run(mm, mm.partition.translate(b"anything"), 3)
        assert res.accepted


class TestAlphabetExtremes:
    def test_256_class_pattern(self):
        # every byte distinct: [\x00][\x01] forces many classes
        pat = "".join(f"\\x{b:02x}" for b in range(8))
        m = compiled(pat)
        assert m.fullmatch(bytes(range(8)))
        assert not m.fullmatch(bytes(range(1, 9)))

    def test_full_byte_range_class(self):
        m = compiled("[\\x00-\\xff]{3}")
        assert m.fullmatch(b"\x00\x80\xff")
        assert not m.fullmatch(b"ab")

    def test_binary_input_with_newlines(self):
        m = compiled("(?s).{4}")
        assert m.fullmatch(b"\n\n\n\n")


class TestRepeatBoundaries:
    def test_zero_repeat(self):
        m = compiled("a{0}b")
        assert m.fullmatch(b"b")
        assert not m.fullmatch(b"ab")

    def test_exact_large_repeat(self):
        m = compiled("a{64}")
        assert m.fullmatch(b"a" * 64)
        assert not m.fullmatch(b"a" * 63)
        assert not m.fullmatch(b"a" * 65)

    def test_nested_quantifiers(self):
        m = compiled("(a{2}){3}")
        assert m.fullmatch(b"a" * 6)
        assert not m.fullmatch(b"a" * 5)

    def test_star_of_nullable(self):
        m = compiled("(a?)*")
        assert m.fullmatch(b"")
        assert m.fullmatch(b"aaa")
        assert not m.fullmatch(b"b")


class TestSFADegenerate:
    def test_sfa_of_one_state_dfa(self):
        mm = minimize(subset_construction(glushkov_nfa(parse("(?s).*"))))
        assert mm.num_states == 1
        sfa = correspondence_construction(mm)
        assert sfa.num_states == 1  # only the identity
        assert sfa.accepts_classes(np.array([0, 0], dtype=np.int64))

    def test_lockstep_more_chunks_than_bytes(self):
        m = compiled("(ab)*")
        res = lockstep_run(m.sfa, m.translate(b"ab"), 64)
        assert res.accepted

    def test_nsfa_of_tiny_nfa(self):
        nfa = glushkov_nfa(parse("a"))
        nsfa = correspondence_construction(nfa)
        assert nsfa.kind == "N-SFA"
        assert nsfa.accepts(b"a")
        assert not nsfa.accepts(b"aa")


class TestUnicodeRejection:
    def test_non_latin1_literal(self):
        from repro.errors import UnsupportedFeatureError

        with pytest.raises(UnsupportedFeatureError):
            compile_pattern("日本")

    def test_non_latin1_in_class(self):
        from repro.errors import UnsupportedFeatureError

        with pytest.raises(UnsupportedFeatureError):
            compile_pattern("[日]")
