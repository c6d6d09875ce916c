"""Property + differential tests for the static analysis subsystem (§3.9).

Soundness against brute force: for random regexes, every structural fact
and literal claim is validated on accepted strings enumerated from the
minimal DFA (over class-representative bytes) — if analysis claims
"every accepted string contains ``abc`` at offset 2..5", every enumerated
string must.  The literal prefilter is then pinned bit-identical to the
exact span engine and to the Python-``re`` leftmost-longest oracle from
the PR 4 differential harness, and the ``repro analyze`` surfaces (CLI
JSON schema, ruleset lint, service op) are smoke-locked.
"""

import json
import random
import re
from collections import deque

import pytest

from repro import compile_pattern
from repro.analysis import (
    analyze_pattern,
    analyze_ruleset,
    choose_prefilter,
    compute_facts,
    literal_info,
)
from repro.cli import main as cli_main
from repro.errors import RegexSyntaxError
from repro.matching.multi import MultiPatternSet
from repro.planning.plan import Plan
from tests.test_find_differential import (
    ZOO,
    lml_spans,
    random_payload,
    random_regex,
)

# ---------------------------------------------------------------------------
# Brute force: enumerate accepted strings from the minimal DFA
# ---------------------------------------------------------------------------


def enumerate_accepted(m, max_len=7, cap=3000):
    """Accepted strings over class-representative bytes, up to ``max_len``.

    The DFA steps on byte classes, so strings built from one representative
    byte per class are genuine members of the language — a sound (if not
    exhaustive) universe to check universally-quantified claims on.
    """
    d = m.min_dfa
    reps = [int(b) for b in m.partition.representatives]
    out = []
    if d.accept[d.initial]:
        out.append(b"")
    frontier = [(int(d.initial), b"")]
    for _ in range(max_len):
        nxt = []
        for state, s in frontier:
            for cls, byte in enumerate(reps):
                t = int(d.table[state, cls])
                w = s + bytes([byte])
                if d.accept[t]:
                    out.append(w)
                nxt.append((t, w))
        frontier = nxt[:cap]
    return out


def dfa_language_empty(d):
    """No accepting state reachable from the initial state."""
    seen = {int(d.initial)}
    queue = deque(seen)
    while queue:
        s = queue.popleft()
        if d.accept[s]:
            return False
        for t in set(int(x) for x in d.table[s]):
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return True


def dfa_shortest_accept(d):
    """BFS length of the shortest accepted string (None if empty)."""
    dist = {int(d.initial): 0}
    queue = deque([int(d.initial)])
    while queue:
        s = queue.popleft()
        if d.accept[s]:
            return dist[s]
        for t in set(int(x) for x in d.table[s]):
            if t not in dist:
                dist[t] = dist[s] + 1
                queue.append(t)
    return None


def claim_holds(w, factor):
    """Does ``w`` contain ``factor.text`` at an offset in its window?"""
    hi = len(w) if factor.max_start is None else factor.max_start
    i = w.find(factor.text)
    while i >= 0:
        if factor.min_start <= i <= hi:
            return True
        i = w.find(factor.text, i + 1)
    return False


# ---------------------------------------------------------------------------
# Facts vs brute force
# ---------------------------------------------------------------------------


class TestFactsSoundness:
    CASES = 120

    def test_random_patterns_vs_bruteforce(self):
        rng = random.Random(0xFAC75)
        nonempty = 0
        for _ in range(self.CASES):
            pattern = random_regex(rng)
            m = compile_pattern(pattern)
            facts = compute_facts(m.ast, partition=m.partition)
            d = m.min_dfa

            assert facts.nullable == bool(d.accept[d.initial]), pattern
            assert facts.matches_nothing == dfa_language_empty(d), pattern
            shortest = dfa_shortest_accept(d)
            if facts.matches_nothing:
                assert shortest is None, pattern
                continue
            nonempty += 1
            assert shortest == facts.min_len, pattern
            # position/state predictions are hard bounds on what the
            # pipeline actually built
            assert m.nfa.size == facts.positions + 1, pattern
            assert m.dfa.num_states <= facts.dfa_states_bound, pattern

            first = set(facts.first_bytes)
            last = set(facts.last_bytes)
            for w in enumerate_accepted(m):
                assert len(w) >= facts.min_len, (pattern, w)
                if facts.max_len is not None:
                    assert len(w) <= facts.max_len, (pattern, w)
                if w:
                    assert w[0] in first, (pattern, w)
                    assert w[-1] in last, (pattern, w)
        assert nonempty > 0.9 * self.CASES  # the sweep is non-vacuous

    def test_max_len_attained_when_finite(self):
        rng = random.Random(0xA77A1)
        finite = 0
        for _ in range(80):
            pattern = random_regex(rng)
            m = compile_pattern(pattern)
            facts = compute_facts(m.ast, partition=m.partition)
            if facts.matches_nothing or facts.max_len is None:
                continue
            if facts.max_len > 7:
                continue
            finite += 1
            lens = {len(w) for w in enumerate_accepted(m)}
            assert facts.max_len in lens, pattern
            assert facts.min_len in lens, pattern
        assert finite > 5


class TestLiteralSoundness:
    CASES = 150

    def test_claims_hold_on_every_accepted_string(self):
        rng = random.Random(0x117E5)
        with_claims = 0
        for _ in range(self.CASES):
            pattern = random_regex(rng)
            m = compile_pattern(pattern)
            info = literal_info(m.ast)
            if info.nothing:
                continue
            claims = info.claims()
            if claims:
                with_claims += 1
            words = enumerate_accepted(m)
            for w in words:
                assert w.startswith(info.prefix), (pattern, w)
                assert w.endswith(info.suffix), (pattern, w)
                for f in claims:
                    assert claim_holds(w, f), (pattern, w, f)
                if info.exact is not None:
                    assert w in info.exact, (pattern, w)
            if info.exact is not None:
                # exactness cuts both ways: every claimed member really
                # is accepted
                for s in info.exact:
                    assert m.min_dfa.accepts(s), (pattern, s)
        assert with_claims > 10  # generator does produce literal structure

    def test_literal_heavy_claims(self):
        """Injected literals make claims dense; brute-check them all."""
        rng = random.Random(0xBEEF)
        for _ in range(60):
            inner = random_regex(rng)
            pattern = f"ERR(?:{inner})qz"
            m = compile_pattern(pattern)
            info = literal_info(m.ast)
            assert info.prefix.startswith(b"ERR"), pattern
            assert info.suffix.endswith(b"qz"), pattern
            for w in enumerate_accepted(m, max_len=8):
                for f in info.claims():
                    assert claim_holds(w, f), (pattern, w, f)

    def test_nullable_patterns_never_carry_claims(self):
        for pattern in ["a*", "(abc)?", "x{0,3}", "(foo|)", "(a|b)*"]:
            info = literal_info(compile_pattern(pattern).ast)
            assert info.nullable
            assert not info.prefix and not info.suffix
            assert not info.claims()
            assert choose_prefilter(info) is None


# ---------------------------------------------------------------------------
# Prefilter differential: spans identical with the filter on and off
# ---------------------------------------------------------------------------

PREFILTER_ZOO = [
    ("ERROR [0-9]+", b"ok\nERROR 42 boom\nfine\nERROR 7\nERROR x\n"),
    ("foo(bar|baz)qux", b"xfoobarquxy foobazqux foobamqux" * 3),
    ("(GET|POST) /api/[a-z]+", b"GET /api/users POST /api/items GET /x"),
    ("abc+d", b"zzabcccdzzabdabcdabccccc"),
    ("id[0-9]{2};", b"id12; id1; xid42;y id99;"),
    ("ERROR [0-9]+", b""),
    ("ERROR [0-9]+", b"ERROR"),
    ("abc", b"ab" * 50),
]


class TestPrefilterDifferential:
    @pytest.mark.parametrize("pattern,text", PREFILTER_ZOO)
    def test_prefilter_engages_and_is_bit_identical(self, pattern, text):
        m = compile_pattern(pattern)
        eng = m.span_engine()
        assert eng.prefilter is not None, pattern
        on = list(m.finditer(text))
        off = list(m.finditer(text, plan=Plan(prefilter=False)))
        assert on == off, (pattern, text)
        rx = re.compile(pattern.encode("latin-1"))
        assert on == lml_spans(rx, text), (pattern, text)

    @pytest.mark.parametrize("pattern,text", ZOO)
    def test_zoo_unchanged_by_prefilter_knob(self, pattern, text):
        m = compile_pattern(pattern)
        assert list(m.finditer(text)) == list(m.finditer(text, plan=Plan(prefilter=False)))

    def test_random_sweep_prefilter_bit_identical(self):
        rng = random.Random(0x9F17)
        engaged = 0
        for _ in range(80):
            inner = random_regex(rng)
            # literal-armored wrapper so the prefilter usually engages
            pattern = rng.choice([inner, f"ERj(?:{inner})", f"(?:{inner})qv"])
            m = compile_pattern(pattern)
            if m.span_engine().prefilter is not None:
                engaged += 1
            for _ in range(2):
                text = random_payload(rng, max_len=60)
                if rng.random() < 0.5:
                    # plant the wrapper literals so candidate windows fire
                    text = text + b"ERj" + text + b"qv" + text
                assert (list(m.finditer(text))
                        == list(m.finditer(text, plan=Plan(prefilter=False)))), \
                    (pattern, text)
        assert engaged > 30

    def test_windowed_prefilter_case(self):
        # non-anchored literal: window [2, 3] from the alternation prefix
        m = compile_pattern("(GET|POST) /api/")
        plan = m.span_engine().prefilter
        assert plan is not None
        assert plan.min_start < plan.max_start  # genuinely windowed
        text = b"x GET /api/ POST /api/ GET/api/ T /api/"
        assert (list(m.finditer(text))
                == list(m.finditer(text, plan=Plan(prefilter=False))))


# ---------------------------------------------------------------------------
# Multi-pattern literal prescreen
# ---------------------------------------------------------------------------


class TestMultiPrescreen:
    def test_rule_literals(self):
        mps = MultiPatternSet(["ERROR [0-9]+", "[0-9]{3}", "abc"])
        assert mps.rule_literal(0) == b"ERROR "
        assert mps.rule_literal(1) is None  # no literal run to require
        assert mps.rule_literal(2) == b"abc"

    def test_prescreen_drops_absent_literals(self):
        mps = MultiPatternSet(["ERROR [0-9]+", "[0-9]{3}", "abc"])
        assert mps.prescreen(b"abc 123") == [1, 2]
        assert mps.prescreen(b"nothing here") == [1]  # literal-free survives
        assert mps.prescreen(b"ERROR 9 abc") == [0, 1, 2]

    def test_matches_agree_with_per_rule_engines(self):
        rules = ["ERROR [0-9]+", "abc", "z+q", "[0-9]{2}"]
        mps = MultiPatternSet(rules)
        payloads = [
            b"ERROR 42 abc", b"no hits at all", b"zzzq 17", b"", b"abcabc",
            b"ERROR x 9",
        ]
        for data in payloads:
            expected = {
                i for i, r in enumerate(rules)
                if compile_pattern(r).contains(data)
            }
            assert mps.matches(data) == expected, data
            hits = {r for r, _, _ in mps.finditer(data)}
            assert hits == expected, data

    def test_prescreen_survives_serialize_roundtrip(self, tmp_path):
        from repro.automata.serialize import load_ruleset, save_ruleset

        mps = MultiPatternSet(["ERROR [0-9]+", "abc"])
        path = str(tmp_path / "rules.npz")
        save_ruleset(mps, path)
        loaded = load_ruleset(path)  # from_components: no __init__ ran
        assert loaded.rule_literal(0) == b"ERROR "
        assert loaded.prescreen(b"abc only") == [1]
        assert loaded.finditer(b"xx ERROR 3 abc") == \
            mps.finditer(b"xx ERROR 3 abc")


# ---------------------------------------------------------------------------
# Report schema + CLI surfaces
# ---------------------------------------------------------------------------

PATTERN_REPORT_KEYS = {
    "schema", "kind", "pattern", "ignore_case", "facts", "literals",
    "prefilter", "warnings",
}
FACTS_KEYS = {
    "alphabet_bytes", "byte_classes", "dfa_states_bound", "first_bytes",
    "last_bytes", "matches_nothing", "max_len", "min_len", "nullable",
    "positions", "sfa_states_bound", "stride_budget", "stride_predictions",
}


class TestReportSchema:
    def test_pattern_report_shape(self):
        d = analyze_pattern("ERROR [0-9]+").to_dict()
        assert set(d) == PATTERN_REPORT_KEYS
        assert set(d["facts"]) == FACTS_KEYS
        assert d["schema"] == 1 and d["kind"] == "pattern"
        assert d["prefilter"] == {"text": "ERROR ", "min_start": 0,
                                  "max_start": 0}
        json.dumps(d)  # JSON-serializable end to end

    def test_ruleset_report_shape(self):
        d = analyze_ruleset(["abc", "abc", "a*"]).to_dict()
        assert d["kind"] == "ruleset" and d["summary"]["rules"] == 3
        assert [r["index"] for r in d["rules"]] == [0, 1, 2]
        codes = {w["code"] for w in d["warnings"]}
        assert "duplicate-rule" in codes
        assert "empty-matching-rule" in codes
        json.dumps(d)

    def test_warning_codes(self):
        r = analyze_pattern("a*")
        codes = {w.code for w in r.warnings}
        assert "matches-empty" in codes and "no-literal-factor" in codes
        assert all(w.code != "matches-nothing" for w in r.warnings)
        r = analyze_pattern("[^\\x00-\\xff]")
        assert [w.code for w in r.warnings] == ["matches-nothing"]

    def test_malformed_rule_names_its_index(self):
        with pytest.raises(RegexSyntaxError) as exc:
            analyze_ruleset(["ok", "a("])
        assert "rule 1" in str(exc.value)


class TestAnalyzeCLI:
    def test_pattern_json_schema(self, capsys):
        rc = cli_main(["analyze", "ERROR [0-9]+", "--json"])
        d = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert set(d) == PATTERN_REPORT_KEYS
        assert d["prefilter"]["text"] == "ERROR "

    def test_warnings_exit_1(self, capsys):
        assert cli_main(["analyze", "a*"]) == 1
        out = capsys.readouterr().out
        assert "matches-empty" in out

    def test_info_only_stays_exit_0(self, capsys):
        # no literal factor is an info note, not a warning
        rc = cli_main(["analyze", "[0-9]+"])
        assert rc == 0
        assert "no-literal-factor" in capsys.readouterr().out

    def test_parse_error_exit_2(self, capsys):
        assert cli_main(["analyze", "a("]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_rules_file(self, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text("# lint me\nERROR [0-9]+\nabc\nabc\n")
        rc = cli_main(["analyze", "--rules-file", str(rules), "--json"])
        d = json.loads(capsys.readouterr().out)
        assert rc == 1  # duplicate-rule is warning severity
        assert d["summary"]["rules"] == 3
        assert "duplicate-rule" in {w["code"] for w in d["warnings"]}

    def test_malformed_rules_file_exit_2(self, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text("ok\na(\n")
        assert cli_main(["analyze", "--rules-file", str(rules)]) == 2
        assert "rule 1" in capsys.readouterr().err

    def test_npz_ruleset_analyzed_via_sources(self, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text("ERROR [0-9]+\nabc\n")
        out = str(tmp_path / "rules.npz")
        assert cli_main(["save", "--stage", "ruleset",
                         "--rules-file", str(rules), "-o", out]) == 0
        capsys.readouterr()
        rc = cli_main(["analyze", "--rules-file", out, "--json"])
        d = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert [r["pattern"] for r in d["rules"]] == ["ERROR [0-9]+", "abc"]

    def test_pattern_and_rules_file_conflict(self, capsys):
        assert cli_main(["analyze", "x", "--rules-file", "r.txt"]) == 2
        assert "not both" in capsys.readouterr().err


class TestGrepPrefilterKnob:
    def test_no_prefilter_output_identical(self, tmp_path, capsys):
        log = tmp_path / "a.log"
        log.write_text("ok\nERROR 42\nfine\nERROR 7 tail\n")
        assert cli_main(["grep", "ERROR [0-9]+", str(log)]) == 0
        fast = capsys.readouterr().out
        assert cli_main(["grep", "ERROR [0-9]+", str(log),
                         "--no-prefilter"]) == 0
        assert capsys.readouterr().out == fast
        assert "ERROR 42" in fast
