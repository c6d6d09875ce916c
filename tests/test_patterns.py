"""The paper's pattern families: exact sizes and Fig. 4/5 structure."""

import networkx as nx
import numpy as np
import pytest

from repro import compile_pattern
from repro.planning.plan import Plan
from repro.workloads.patterns import (
    FIG10_EXPECTED,
    fig9_expected_sizes,
    fig9_pattern,
    fig10_pattern,
    rn_expected_sizes,
    rn_pattern,
)

from .conftest import compiled


class TestRnSizes:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_partial_sizes_match_paper_formula(self, n):
        m = compiled(rn_pattern(n))
        exp_d, exp_s = rn_expected_sizes(n)
        assert m.min_dfa.partial_size == exp_d
        assert m.sfa.partial_size == exp_s

    @pytest.mark.parametrize("n", [2, 5])
    def test_complete_sizes(self, n):
        m = compiled(rn_pattern(n))
        exp_d, exp_s = rn_expected_sizes(n, complete=True)
        assert m.min_dfa.size == exp_d
        assert m.sfa.size == exp_s

    def test_paper_reported_table3_sizes(self):
        """|D| and |S_d| for r5/r50 exactly as printed in the paper."""
        assert rn_expected_sizes(5) == (10, 109)
        assert rn_expected_sizes(50) == (100, 10099)
        assert rn_expected_sizes(500) == (1000, 1000999)

    def test_r50_constructed(self):
        m = compile_pattern(rn_pattern(50))
        assert m.sfa.partial_size == 10099


class TestFig4Structure:
    """The r_n minimal DFA is one loop of 2n live states."""

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_single_cycle(self, n):
        m = compiled(rn_pattern(n))
        d = m.min_dfa
        traps = set(d.trap_states().tolist())
        g = nx.DiGraph()
        for q in range(d.num_states):
            if q in traps:
                continue
            for c in range(d.num_classes):
                r = int(d.table[q, c])
                if r not in traps:
                    g.add_edge(q, r)
        cycles = list(nx.simple_cycles(g))
        assert len(cycles) == 1
        assert len(cycles[0]) == 2 * n


class TestFig5Structure:
    """The r_n D-SFA has 2n loops (to remember the starting state)."""

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_2n_loops_of_length_2n(self, n):
        m = compiled(rn_pattern(n))
        s = m.sfa
        traps = set(s.trap_states().tolist())
        g = nx.DiGraph()
        for q in range(s.num_states):
            if q in traps:
                continue
            for c in range(s.num_classes):
                r = int(s.table[q, c])
                if r not in traps:
                    g.add_edge(q, r)
        cycles = list(nx.simple_cycles(g))
        assert len(cycles) == 2 * n
        assert all(len(c) == 2 * n for c in cycles)


class TestFig9Pattern:
    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_sizes_formula(self, n):
        m = compiled(fig9_pattern(n))
        exp_d, exp_s = fig9_expected_sizes(n)
        assert m.min_dfa.partial_size == exp_d
        assert m.sfa.partial_size == exp_s

    def test_paper_value_at_500(self):
        assert fig9_expected_sizes(500) == (1002, 1001000)

    def test_a_run_stays_in_one_state(self):
        """Fig. 9's point: on 'aaaa…' the SFA run self-loops after step 1."""
        m = compiled(fig9_pattern(4))
        classes = m.translate(b"a" * 64)
        table = m.sfa.table
        f = m.sfa.initial
        visited = []
        for c in classes.tolist():
            f = int(table[f, c])
            visited.append(f)
        assert len(set(visited)) == 1  # single hot state — no cache misses
        assert m.fullmatch(b"a" * 64)


class TestFig10Pattern:
    def test_sizes(self):
        m = compiled(fig10_pattern())
        assert (m.min_dfa.partial_size, m.sfa.partial_size) == FIG10_EXPECTED

    def test_membership(self):
        m = compiled(fig10_pattern())
        assert m.fullmatch(b"0123456789")
        assert m.fullmatch(b"")
        assert not m.fullmatch(b"01234567890")
        assert not m.fullmatch(b"11")


class TestRnTexts:
    def test_rn_pattern_rejects_bad_n(self):
        with pytest.raises(ValueError):
            rn_pattern(0)

    @pytest.mark.parametrize("n", [2, 5])
    def test_engines_on_rn(self, n):
        from repro.workloads.textgen import rn_accepted_text

        m = compiled(rn_pattern(n))
        text = rn_accepted_text(n, 4 * 2 * n, seed=1)
        assert m.fullmatch(text)
        assert m.fullmatch(text, plan=Plan(engine="lockstep", num_chunks=3))
        assert not m.fullmatch(text[:-1])
