"""The paper's worked examples, verified exactly.

* Fig. 1 / Fig. 2 / Table I — DFA ``D1`` and SFA ``S1`` of ``(ab)*``.
* Example 2 — the 4-processor run of Algorithm 5 on ``ababababababab``.
* Theorem 2 bounds on the worked automata.
"""

import numpy as np
import pytest

from repro import compile_pattern
from repro.automata import correspondence_construction, minimize, subset_construction, glushkov_nfa
from repro.matching.parallel_sfa import parallel_sfa_run, sfa_chunk_scan
from repro.planning.plan import Plan
from repro.regex.parser import parse


@pytest.fixture(scope="module")
def d1_s1():
    nfa = glushkov_nfa(parse("(ab)*"))
    d1 = minimize(subset_construction(nfa))
    s1 = correspondence_construction(d1)
    return d1, s1


class TestFig1D1:
    def test_three_states(self, d1_s1):
        d1, _ = d1_s1
        assert d1.num_states == 3  # states 0, 1, and the sink (state 2)

    def test_structure(self, d1_s1):
        d1, _ = d1_s1
        a = int(d1.partition.translate(b"a")[0])
        b = int(d1.partition.translate(b"b")[0])
        q0 = d1.initial
        q1 = int(d1.table[q0, a])
        sink = int(d1.table[q0, b])
        # 0 -a-> 1, 0 -b-> sink, 1 -b-> 0, 1 -a-> sink, sink absorbs
        assert q1 not in (q0, sink)
        assert int(d1.table[q1, b]) == q0
        assert int(d1.table[q1, a]) == sink
        assert int(d1.table[sink, a]) == sink
        assert int(d1.table[sink, b]) == sink
        assert d1.accept[q0] and not d1.accept[q1] and not d1.accept[sink]


class TestFig2TableI:
    def test_six_states(self, d1_s1):
        _, s1 = d1_s1
        assert s1.num_states == 6  # f0 .. f5 exactly as in Fig. 2

    def test_table1_mappings_present(self, d1_s1):
        """Table I lists the six mappings of S1 (up to state renaming).

        With D1's states renamed to the paper's (0 = initial/accepting,
        1 = middle, 2 = sink), the mapping multiset must be exactly:
        f0=id, f1=(0→1,1→2,2→2), f2=(0→2,1→0,2→2),
        f3=const 2, f4=(0→0,1→2,2→2), f5=(0→2,1→1,2→2).
        """
        d1, s1 = d1_s1
        a = int(d1.partition.translate(b"a")[0])
        b = int(d1.partition.translate(b"b")[0])
        q0 = d1.initial
        q1 = int(d1.table[q0, a])
        sink = int(d1.table[q0, b])
        rename = {q0: 0, q1: 1, sink: 2}
        got = set()
        for i in range(s1.num_states):
            got.add(tuple(rename[int(x)] for x in s1.maps[i][[q0, q1, sink]]))
        expected = {
            (0, 1, 2),  # f0 = identity
            (1, 2, 2),  # f1 = after 'a'
            (2, 0, 2),  # f2 = after 'b'
            (2, 2, 2),  # f3 = dead
            (0, 2, 2),  # f4 = after 'ab'
            (2, 1, 2),  # f5 = after 'ba'
        }
        assert got == expected

    def test_fig2_transition_walk(self, d1_s1):
        """f0 -a-> f1 -b-> f4 -a-> f1 -b-> f4 and f4 is accepting."""
        d1, s1 = d1_s1
        classes = d1.partition.translate(b"abab")
        f = s1.initial
        trail = [f]
        for c in classes:
            f = int(s1.table[f, c])
            trail.append(f)
        # positions 1 and 3 equal (state after 'a'), 2 and 4 equal (after 'ab')
        assert trail[1] == trail[3]
        assert trail[2] == trail[4]
        assert s1.accept[trail[4]]
        # f4(0) = {0}: maps initial to the accepting initial state
        assert int(s1.maps[trail[4], d1.initial]) == d1.initial


class TestExample2:
    """The worked 4-processor computation of Algorithm 5."""

    def test_chunked_run_matches_paper(self, d1_s1):
        d1, s1 = d1_s1
        w = b"ababababababab"  # 14 chars
        chunks = [b"aba", b"baba", b"bab", b"abab"]
        assert b"".join(chunks) == w
        # step 1: independent chunk scans from the identity
        states = [
            sfa_chunk_scan(s1.table, s1.initial, d1.partition.translate(ch))
            for ch in chunks
        ]
        # the paper's chunk results: f1, f5, f2, f4 — i.e. the states reached
        # on 'aba', 'baba', 'bab', 'abab'; verify via their defining words
        def state_of(word: bytes) -> int:
            return s1.run_classes(d1.partition.translate(word))

        assert states == [state_of(b"aba"), state_of(b"baba"), state_of(b"bab"), state_of(b"abab")]

        # step 2: the reduction must accept (w ∈ L) and the composed mapping
        # must be the state reached on the whole word (f4 in the paper)
        res = parallel_sfa_run(s1, d1.partition.translate(w), 4, reduction="tree")
        assert res.accepted
        assert res.final_mapping_state == state_of(w)

    def test_pairwise_composition_identity(self, d1_s1):
        """(f1 ⊙ f5) = f1 and (f2 ⊙ f4) = f4 per the worked example.

        In word terms: aba·baba ≡ aba and bab·abab ≡ abab-class states —
        we verify via compose_indices against the word-reached states.
        """
        d1, s1 = d1_s1

        def state_of(word: bytes) -> int:
            return s1.run_classes(d1.partition.translate(word))

        f1, f5 = state_of(b"aba"), state_of(b"baba")
        f2, f4 = state_of(b"bab"), state_of(b"abab")
        assert s1.compose_indices(f1, f5) == state_of(b"abababa")
        assert s1.compose_indices(f1, f5) == f1  # paper: f1 ⊙ f5 = f1
        assert s1.compose_indices(f2, f4) == f2  # bab·abab acts like bab
        # full reduction: (f1 ⊙ f5) ⊙ (f2 ⊙ f4) = f1 ⊙ f2 = f4 "as desired"
        left = s1.compose_indices(f1, f5)
        right = s1.compose_indices(f2, f4)
        assert s1.compose_indices(left, right) == state_of(b"ababababababab")

    def test_sequential_reduction_example(self, d1_s1):
        """Sequential reduction (f4∘f2∘f5∘f1)(0) = 0 per Sect. V-B."""
        d1, s1 = d1_s1
        w = b"ababababababab"
        res = parallel_sfa_run(s1, d1.partition.translate(w), 4, reduction="sequential")
        assert res.accepted
        assert res.final_states == [d1.initial]  # lands back on state 0


class TestTheorem2Bounds:
    def test_dsfa_bound(self, d1_s1):
        d1, s1 = d1_s1
        assert s1.num_states <= d1.num_states**d1.num_states

    def test_nsfa_bound(self):
        nfa = glushkov_nfa(parse("(ab)*"))
        nsfa = correspondence_construction(nfa)
        assert nsfa.num_states <= 2 ** (nfa.size**2)


class TestQuickstartDocExample:
    def test_readme_quickstart(self):
        m = compile_pattern("(ab)*")
        assert m.fullmatch(b"abababab")
        assert not m.fullmatch(b"ababa")
        assert m.fullmatch(b"abababab", plan=Plan(engine="lockstep", num_chunks=4))
        assert m.sizes()["d_sfa"] == 6
