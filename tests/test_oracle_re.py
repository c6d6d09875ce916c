"""Differential testing against CPython's ``re`` module.

For patterns inside the common dialect fragment, full-input membership must
agree with ``re.fullmatch`` and containment with ``re.search``.  This is
the strongest end-to-end oracle available offline: it exercises parser,
Glushkov construction, subset construction, minimization, correspondence
construction and every matching engine at once.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from .conftest import compiled
from repro.planning.plan import Plan


# -- random pattern generator (dialect shared with `re`) ---------------------

_atoms = st.sampled_from(
    ["a", "b", "c", "0", "1", "[ab]", "[a-c]", "[^a]", "[01]", r"\d", "."]
)


def _compose(children):
    def star(p):
        return f"(?:{p})*"

    def opt(p):
        return f"(?:{p})?"

    def plus(p):
        return f"(?:{p})+"

    def rep(p):
        return f"(?:{p}){{1,3}}"

    unary = st.sampled_from([star, opt, plus, rep])
    return st.one_of(
        st.tuples(children, children).map(lambda t: t[0] + t[1]),
        st.tuples(children, children).map(lambda t: f"(?:{t[0]}|{t[1]})"),
        st.tuples(unary, children).map(lambda t: t[0](t[1])),
    )


pattern_strategy = st.recursive(_atoms, _compose, max_leaves=8)
word_strategy = st.text(alphabet="abc01x\n", max_size=14).map(lambda s: s.encode())


@given(pattern_strategy, word_strategy)
@settings(max_examples=300, deadline=None)
def test_fullmatch_agrees_with_re(pattern, word):
    m = compiled(pattern)
    expected = re.fullmatch(pattern.encode(), word) is not None
    assert m.fullmatch(word) == expected, (pattern, word)


@given(pattern_strategy, word_strategy, st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_all_engines_agree_with_re(pattern, word, chunks):
    m = compiled(pattern)
    expected = re.fullmatch(pattern.encode(), word) is not None
    assert m.fullmatch(word, plan=Plan(engine="speculative", num_chunks=chunks)) == expected
    assert m.fullmatch(word, plan=Plan(engine="sfa", num_chunks=chunks)) == expected
    assert m.fullmatch(word, plan=Plan(engine="lockstep", num_chunks=chunks)) == expected


@given(pattern_strategy, word_strategy)
@settings(max_examples=150, deadline=None)
def test_contains_agrees_with_re_search(pattern, word):
    m = compiled(pattern)
    expected = re.search(pattern.encode(), word) is not None
    assert m.contains(word) == expected, (pattern, word)
    lockstep = Plan(engine="lockstep", num_chunks=8)
    assert m.contains(word, plan=lockstep) == expected, (pattern, word)


@given(pattern_strategy, word_strategy)
@settings(max_examples=150, deadline=None)
def test_nsfa_agrees_with_re(pattern, word):
    m = compiled(pattern)
    expected = re.fullmatch(pattern.encode(), word) is not None
    assert m.nsfa.accepts(bytes(word)) == expected, (pattern, word)


@given(pattern_strategy, word_strategy)
@settings(max_examples=150, deadline=None)
def test_lazy_agrees_with_re(pattern, word):
    m = compiled(pattern)
    expected = re.fullmatch(pattern.encode(), word) is not None
    assert m.lazy_dfa().accepts(bytes(word)) == expected
    assert m.lazy_sfa().accepts(bytes(word)) == expected


FIXED_CASES = [
    ("(?:a|ab)*", b"aab"),
    ("(?:a?)*b", b"b"),
    ("(?:[ab]{1,3})+", b"abab"),
    (r"\d*", b"0123456789"),
    ("(?:a|b|c){2,3}", b"cab"),
    ("[^a]*", b"\n\nbb"),
    (".", b"\n"),
    ("(?:(?:a)*)*", b"aaaa"),
]


@pytest.mark.parametrize("pattern,word", FIXED_CASES)
def test_known_tricky_cases(pattern, word):
    m = compiled(pattern)
    assert m.fullmatch(word) == (re.fullmatch(pattern.encode(), word) is not None)
