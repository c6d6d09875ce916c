"""Unit tests for subset construction and DFA minimization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.dfa import (
    DFA,
    dfa_from_transformations,
    hopcroft_partition,
    minimize,
    moore_partition,
    subset_construction,
    trim,
)
from repro.automata.nfa import glushkov_nfa
from repro.automata.ops import equivalent, language_fingerprint
from repro.errors import AutomatonError, StateExplosionError
from repro.regex.parser import parse


def dfa_of(pattern: str) -> DFA:
    return subset_construction(glushkov_nfa(parse(pattern)))


class TestSubsetConstruction:
    def test_deterministic_and_complete(self):
        d = dfa_of("(a|b)*abb")
        assert d.table.min() >= 0
        assert d.table.max() < d.num_states

    def test_membership_matches_nfa(self):
        pattern = "(a|b)*abb"
        nfa = glushkov_nfa(parse(pattern))
        d = subset_construction(nfa)
        for w in [b"", b"abb", b"aabb", b"babb", b"ab", b"abba"]:
            assert d.accepts(w) == nfa.accepts(w), w

    def test_subset_of_tracks_nfa_sets(self):
        nfa = glushkov_nfa(parse("ab"))
        d = subset_construction(nfa)
        assert d.subset_of[0] == nfa.initial

    def test_state_budget(self):
        # Example-3-style blowup guarded by max_states
        from repro.theory.witness import ex3_nfa

        with pytest.raises(StateExplosionError):
            subset_construction(ex3_nfa(12), max_states=100)

    def test_worst_case_2_to_n(self):
        from repro.theory.witness import ex3_nfa

        for n in (2, 3, 4, 5, 6):
            d = subset_construction(ex3_nfa(n))
            assert d.num_states == 2**n


class TestMinimization:
    @pytest.mark.parametrize(
        "pattern",
        ["(a|b)*abb", "(ab)*", "a{2,5}", "[0-9]+\\.[0-9]+", "(a*b|c)d?"],
    )
    def test_minimize_preserves_language(self, pattern):
        d = dfa_of(pattern)
        m = minimize(d)
        assert equivalent(d, m)
        assert m.num_states <= d.num_states

    @pytest.mark.parametrize(
        "pattern",
        ["(a|b)*abb", "(ab)*", "a{2,5}", "(a*b|c)d?", "x(y|z)*x"],
    )
    def test_moore_equals_hopcroft(self, pattern):
        d = trim(dfa_of(pattern))
        moore = moore_partition(d)
        hop = hopcroft_partition(d)
        # same partition => same block count and same co-classification
        assert len(set(moore.tolist())) == len(set(hop.tolist()))
        pairs_m = {(int(a), int(b)) for a in range(d.num_states) for b in range(d.num_states) if moore[a] == moore[b]}
        pairs_h = {(int(a), int(b)) for a in range(d.num_states) for b in range(d.num_states) if hop[a] == hop[b]}
        assert pairs_m == pairs_h

    def test_minimize_is_idempotent(self):
        m = minimize(dfa_of("(a|b)*abb"))
        assert minimize(m).num_states == m.num_states

    def test_minimal_sizes_known(self):
        # (a|b)*abb has the classic 4-state minimal DFA over {a,b} (+0 sink:
        # it is complete over its 3 byte classes with no dead state needed
        # for a,b — the 'other' class adds a sink)
        m = minimize(dfa_of("(a|b)*abb"))
        assert m.partial_size == 4

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            minimize(dfa_of("a"), method="brzozowski")

    def test_trim_unreachable(self):
        table = np.array([[0, 1], [1, 1], [2, 2]], dtype=np.int32)
        accept = np.array([False, True, True])
        d = DFA(table, 0, accept)
        t = trim(d)
        assert t.num_states == 2


def _reference_moore(dfa: DFA) -> np.ndarray:
    """The ``np.unique(axis=0)`` Moore refinement the byte-key one
    replaced, kept as the identity reference."""
    labels = dfa.accept.astype(np.int64)
    while True:
        sig = np.column_stack(
            [labels] + [labels[dfa.table[:, c]] for c in range(dfa.num_classes)]
        )
        _, new_labels = np.unique(sig, axis=0, return_inverse=True)
        new_labels = new_labels.reshape(-1)
        if np.array_equal(new_labels, labels):
            return labels
        labels = new_labels


def _random_dfa(rng, n: int, k: int) -> DFA:
    return DFA(rng.integers(0, n, size=(n, k)), 0, rng.random(n) < 0.4)


def _same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    return len(set(zip(a.tolist(), b.tolist()))) == a.max() + 1 == b.max() + 1


class TestMooreByteKeyIdentity:
    """``minimize`` is bit-identical to the row-sort Moore refinement —
    tables, initial state, accept bits, hence the state numbering.  Only
    DFAs with more than 256 blocks use multi-byte keys, so those are the
    cases that pin the key's byte order."""

    def _assert_identical(self, d: DFA, monkeypatch) -> None:
        import repro.automata.dfa as dfa_mod

        got = minimize(d)
        with monkeypatch.context() as mp:
            mp.setattr(dfa_mod, "moore_partition", _reference_moore)
            want = minimize(d)
        assert np.array_equal(got.table, want.table)
        assert got.initial == want.initial
        assert np.array_equal(got.accept, want.accept)
        assert np.array_equal(moore_partition(trim(d)), _reference_moore(trim(d)))

    def test_random_dfas(self, monkeypatch):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n, k = int(rng.integers(1, 80)), int(rng.integers(1, 6))
            self._assert_identical(_random_dfa(rng, n, k), monkeypatch)

    def test_over_256_blocks(self, monkeypatch):
        d = dfa_of("(a|b)*a(a|b){9}")
        assert int(moore_partition(trim(d)).max()) + 1 == 1025
        self._assert_identical(d, monkeypatch)

    def test_r500(self, monkeypatch):
        from repro.workloads.patterns import rn_pattern

        self._assert_identical(dfa_of(rn_pattern(500)), monkeypatch)

    def test_four_byte_keys(self, monkeypatch):
        # > 65536 states: 4-byte keys
        rng = np.random.default_rng(5)
        self._assert_identical(_random_dfa(rng, 70_000, 2), monkeypatch)

    def test_partition_equals_hopcroft_on_random_dfas(self):
        rng = np.random.default_rng(3)
        for _ in range(150):
            n, k = int(rng.integers(1, 40)), int(rng.integers(1, 5))
            d = _random_dfa(rng, n, k)
            assert _same_partition(moore_partition(d), hopcroft_partition(d))


class TestDFAValidation:
    def test_bad_initial(self):
        with pytest.raises(AutomatonError):
            DFA(np.zeros((2, 1), dtype=np.int32), 5, np.zeros(2, dtype=bool))

    def test_bad_target(self):
        with pytest.raises(AutomatonError):
            DFA(np.array([[7]], dtype=np.int32), 0, np.zeros(1, dtype=bool))

    def test_accept_length_mismatch(self):
        with pytest.raises(AutomatonError):
            DFA(np.zeros((2, 1), dtype=np.int32), 0, np.zeros(3, dtype=bool))


class TestDFAViews:
    def test_byte_table_expansion(self):
        d = dfa_of("[ab]")
        bt = d.byte_table()
        assert bt.shape == (d.num_states, 256)
        # byte table agrees with class table through the classmap
        cm = d.partition.classmap
        for b in (ord("a"), ord("z"), 0):
            assert (bt[:, b] == d.table[:, cm[b]]).all()

    def test_letter_transformations(self):
        d = dfa_of("ab")
        lt = d.letter_transformations()
        assert lt.shape == (d.num_classes, d.num_states)
        for c in range(d.num_classes):
            assert (lt[c] == d.table[:, c]).all()

    def test_table_bytes(self):
        d = dfa_of("ab")
        assert d.table_bytes() == d.num_states * d.num_classes * 4
        assert d.table_bytes(expanded=True) == d.num_states * 1024

    def test_trap_states_and_partial_size(self):
        d = minimize(dfa_of("(ab)*"))
        traps = d.trap_states()
        assert len(traps) == 1
        assert d.partial_size == d.num_states - 1

    def test_from_transformations(self):
        gens = np.array([[1, 0], [0, 1]], dtype=np.int32)
        d = dfa_from_transformations(gens, initial=0, accept=[1])
        assert d.accepts_classes([0])
        assert not d.accepts_classes([1])
        assert d.accepts_classes([0, 1])


class TestRunSemantics:
    def test_run_classes_algorithm2(self):
        d = minimize(dfa_of("(ab)*"))
        classes = d.partition.translate(b"abab")
        q = d.run_classes(classes)
        assert d.accept[q]

    def test_reachable_mask(self):
        d = dfa_of("(ab)*")
        assert d.reachable_mask().all()  # subset construction only builds reachable


@given(st.lists(st.sampled_from([b"a", b"b", b"c"]), max_size=12))
@settings(max_examples=60, deadline=None)
def test_min_dfa_language_invariant(parts):
    w = b"".join(parts)
    pattern = "(ab|c)*a?"
    d = dfa_of(pattern)
    m = minimize(d)
    assert d.accepts(w) == m.accepts(w)


def test_language_fingerprint_stability():
    d1 = minimize(dfa_of("(ab)*"))
    d2 = minimize(dfa_of("(?:ab)*"))
    assert language_fingerprint(d1) == language_fingerprint(d2)
    # counts: length 0,2,4,... accepted exactly one word each
    fp = language_fingerprint(d1, max_len=6)
    assert fp == (1, 0, 1, 0, 1, 0, 1)
