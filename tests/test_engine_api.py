"""Public API: CompiledPattern staging, contains semantics, budgets."""

import numpy as np
import pytest

from repro import (
    CompiledPattern,
    RegexSyntaxError,
    StateExplosionError,
    UnsupportedFeatureError,
    compile_pattern,
)
from repro.planning.plan import Plan
from repro.theory.complexity import complexity_report, table2_rows


class TestCompilation:
    def test_stages_are_lazy_and_cached(self):
        m = compile_pattern("(ab)*")
        assert m._nfa is None and m._dfa is None
        nfa = m.nfa
        assert m._nfa is nfa and m._dfa is None
        dfa = m.min_dfa
        assert m.min_dfa is dfa  # cached

    def test_syntax_error_at_compile(self):
        with pytest.raises(RegexSyntaxError):
            compile_pattern("(ab")

    def test_unsupported_feature(self):
        with pytest.raises(UnsupportedFeatureError):
            compile_pattern(r"(a)\1")

    def test_dfa_budget(self):
        # Example-3 style blowup pattern
        m = compile_pattern("[ap]*[al][alp]{14}", max_dfa_states=50)
        with pytest.raises(StateExplosionError):
            m.dfa

    def test_sfa_budget(self):
        m = compile_pattern("(a|b)*a(a|b){8}", max_sfa_states=100)
        with pytest.raises(StateExplosionError):
            m.sfa

    def test_ignore_case(self):
        m = compile_pattern("abc", ignore_case=True)
        assert m.fullmatch(b"AbC")
        assert not m.fullmatch(b"abd")

    def test_sizes_dict(self):
        s = compile_pattern("(ab)*").sizes()
        assert set(s) == {"nfa", "dfa", "min_dfa", "d_sfa"}

    def test_repr(self):
        assert "(ab)*" in repr(compile_pattern("(ab)*"))


class TestContains:
    def test_contains_basic(self):
        m = compile_pattern("abc")
        assert m.contains(b"xxabcxx")
        assert m.contains(b"abc")
        assert not m.contains(b"ab c")

    def test_contains_nullable_matches_everywhere(self):
        # (ab)* matches the empty string, so every text "contains" it
        m = compile_pattern("(ab)*")
        assert m.contains(b"zzz")

    def test_contains_engines_agree(self):
        m = compile_pattern("ab{2,3}a")
        texts = [b"xxxabba___", b"abbba", b"", b"abba", b"aba", b"ab" * 30]
        for t in texts:
            ref = m.contains(t, plan=Plan(engine="dfa", num_chunks=1))
            assert m.contains(t, plan=Plan(engine="lockstep", num_chunks=4)) == ref
            assert m.contains(t, plan=Plan(engine="sfa", num_chunks=3)) == ref

    def test_search_pattern_cached_and_idempotent(self):
        m = compile_pattern("abc")
        s = m.search_pattern()
        assert m.search_pattern() is s
        assert s.search_pattern() is s

    def test_contains_matches_python_re_semantics(self):
        import re

        m = compile_pattern("a[0-9]+b")
        rx = re.compile(rb"a[0-9]+b")
        for t in [b"xa12by", b"ab", b"a1b", b"zzza0", b"a9b" * 3, b"aa11bb"]:
            assert m.contains(t) == bool(rx.search(t)), t


class TestLazyFactories:
    def test_lazy_dfa_fresh_each_call(self):
        m = compile_pattern("(ab)*")
        assert m.lazy_dfa() is not m.lazy_dfa()

    def test_lazy_matchers_agree(self):
        m = compile_pattern("(a|b)*abb")
        ld, ls = m.lazy_dfa(), m.lazy_sfa()
        for w in [b"abb", b"aabb", b"", b"abab"]:
            assert ld.accepts(w) == m.fullmatch(w)
            assert ls.accepts(w) == m.fullmatch(w)


class TestTranslate:
    def test_translate_roundtrip_types(self):
        m = compile_pattern("ab")
        out = m.translate(bytearray(b"ab"))
        assert isinstance(out, np.ndarray)
        assert len(out) == 2

    def test_memoryview_input(self):
        m = compile_pattern("ab")
        assert m.fullmatch(memoryview(b"ab"))


class TestComplexityReport:
    def test_report_fields(self):
        m = compile_pattern("(ab)*")
        rep = complexity_report(m)
        assert rep.dsfa_states == 6
        assert rep.nfa_states == 3
        assert all(rep.bounds_check().values())

    def test_growth_exponent(self):
        m = compile_pattern("([0-4]{3}[5-9]{3})*")
        rep = complexity_report(m)
        assert 1.0 < rep.dsfa_growth_exponent() < 3.0

    def test_table2_symbolic_only(self):
        rows = table2_rows()
        assert len(rows) == 8
        assert all("O(" in r["time"] for r in rows)

    def test_table2_substituted(self):
        rows = table2_rows(nfa=11, dfa=11, dsfa=110, n=10**6, p=8)
        dfa_row = next(r for r in rows if "Alg. 3, seq" in r["model"])
        assert "=" in dfa_row["time"]
