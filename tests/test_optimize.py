"""Property + equivalence tests for the §3.13 optimizer stack.

Three layers are pinned here.  ``rewrite`` must be language-preserving:
for random ASTs the canonical form is proved equivalent by the exact
decision procedure *and* differentially checked against the compiled
original (membership and ``finditer`` bit-identical).  ``decide`` must be
exact where it answers and total where it cannot: verdicts agree with
the minimized-DFA equivalence oracle, and exhausted budgets return
``UNKNOWN`` — never an exception, never a hang.  ``optimize_ruleset``
must be invisible: a redundant ruleset compiled with ``optimize=True``
reports bit-identical rule ids across serial × chunked × streaming scans
and across every backend, through ``save``/``load``, the cache, and the
CLI.
"""

import json
import random

import pytest

from repro import compile_pattern
from repro.analysis import analyze_ruleset
from repro.analysis.decide import MAX_POSITIONS, Verdict, contains, equivalent
from repro.analysis.optimize import optimize_ruleset
from repro.analysis.rewrite import canonical, rewrite
from repro.cli import main as cli_main
from repro.matching.multi import MultiPatternSet
from repro.matching.stream import StreamingMultiMatcher
from repro.planning.plan import Plan
from repro.regex.ast import Never
from repro.regex.parser import parse
from repro.regex.printer import to_pattern
from tests.test_find_differential import random_payload, random_regex

# ---------------------------------------------------------------------------
# rewrite: language preservation
# ---------------------------------------------------------------------------


class TestRewriteSoundness:
    CASES = 120

    def test_random_rewrites_preserve_language(self):
        """canonical(ast) ≡ ast, proved exactly and checked empirically."""
        rng = random.Random(0x313)
        proved = changed = 0
        for _ in range(self.CASES):
            pattern = random_regex(rng)
            ast = parse(pattern)
            res = rewrite(ast)
            v = equivalent(ast, res.node, budget=20_000)
            assert v is not Verdict.FALSE, (pattern, to_pattern(res.node))
            if v is Verdict.TRUE:
                proved += 1
            if res.node != ast:
                changed += 1
                assert res.fired, pattern  # provenance accompanies change
            # Differential: the rewritten spelling compiles to the same
            # matcher behaviour (membership and spans bit-identical).
            m1 = compile_pattern(pattern)
            m2 = compile_pattern(to_pattern(res.node))
            for _ in range(3):
                payload = random_payload(rng)
                assert m1.fullmatch(payload) == m2.fullmatch(payload)
                assert list(m1.finditer(payload)) == list(m2.finditer(payload))
        assert proved >= self.CASES * 0.9  # the budget decides almost all
        assert changed >= 10  # the generator exercises the rules

    @pytest.mark.parametrize("before,after", [
        ("aaa?a?", "a{2,4}"),
        ("ab|abc", "abc{0,1}"),
        ("colou?r", "colou{0,1}r"),
        ("[0-9]|[0-5]", "[0-9]"),
        ("(a*)*", "a*"),
        ("a{2}a{3}", "a{5}"),
    ])
    def test_known_canonical_forms(self, before, after):
        assert to_pattern(canonical(parse(before))) == after

    def test_never_canonical(self):
        """Empty-language patterns canonicalize to the Never node."""
        for pattern in (
            "[^\\x00-\\xff]", "a[^\\x00-\\xff]b", "(a|b)[^\\x00-\\xff]",
            "[^\\x00-\\xff]{2,}",
        ):
            assert canonical(parse(pattern)) == Never(), pattern

    def test_rewrite_is_idempotent(self):
        rng = random.Random(0x1D3)
        for _ in range(60):
            node = canonical(parse(random_regex(rng)))
            assert rewrite(node).node == node


# ---------------------------------------------------------------------------
# decide: exactness and totality
# ---------------------------------------------------------------------------


def _dfa_equivalent(pa: str, pb: str) -> bool:
    """Oracle: minimized-DFA equivalence over the compiled patterns."""
    from repro.automata.ops import equivalent as dfa_equiv

    return dfa_equiv(compile_pattern(pa).min_dfa, compile_pattern(pb).min_dfa)


class TestDecide:
    def test_equivalent_agrees_with_dfa_oracle(self):
        rng = random.Random(0xDEC)
        patterns = [random_regex(rng) for _ in range(24)]
        decided = agree_true = 0
        for i, pa in enumerate(patterns):
            for pb in patterns[i + 1:i + 4]:
                v = equivalent(parse(pa), parse(pb), budget=20_000)
                if v is Verdict.UNKNOWN:
                    continue
                decided += 1
                expect = _dfa_equivalent(pa, pb)
                assert (v is Verdict.TRUE) == expect, (pa, pb, v)
                agree_true += v is Verdict.TRUE
        assert decided >= 30  # the budget decides almost everything here

    @pytest.mark.parametrize("a,b,verdict", [
        ("a{2,4}", "aaa?a?", Verdict.TRUE),
        ("[0-5]", "[0-9]", Verdict.FALSE),   # strict subset, not equal
        ("(ab)*", "a(ba)*b|", Verdict.TRUE),
        ("a*b", "ab", Verdict.FALSE),
    ])
    def test_equivalent_known_pairs(self, a, b, verdict):
        assert equivalent(parse(a), parse(b), budget=20_000) is verdict

    @pytest.mark.parametrize("a,b,verdict", [
        ("a{2,4}", "a*", Verdict.TRUE),
        ("[0-5]+", "[0-9]+", Verdict.TRUE),
        ("[0-9]+", "[0-5]+", Verdict.FALSE),
        ("abc", "ab", Verdict.FALSE),
    ])
    def test_contains_known_pairs(self, a, b, verdict):
        assert contains(parse(a), parse(b), budget=20_000) is verdict

    def test_contains_true_is_sound_on_samples(self):
        """A TRUE containment verdict must hold for every sampled member."""
        rng = random.Random(0xC0)
        checked = 0
        patterns = [random_regex(rng) for _ in range(30)]
        for pa in patterns:
            for pb in patterns:
                if contains(parse(pa), parse(pb), budget=4_000) is Verdict.TRUE:
                    ma, mb = compile_pattern(pa), compile_pattern(pb)
                    for _ in range(5):
                        s = random_payload(rng, max_len=12)
                        if ma.fullmatch(s):
                            assert mb.fullmatch(s), (pa, pb, s)
                            checked += 1
        assert checked  # the sweep actually exercised some proofs

    def test_budget_exhaustion_returns_unknown(self):
        a, b = parse("(a|b)*abb(a|b)*"), parse("(b|a)*ab(b|a)*")
        assert equivalent(a, b, budget=1) is Verdict.UNKNOWN
        assert contains(a, b, budget=1) is Verdict.UNKNOWN

    def test_oversized_patterns_return_unknown(self):
        big = "|".join(f"x{i}y{i}z" for i in range(MAX_POSITIONS))
        assert equivalent(parse(big), parse(big[:-1] + "q")) is Verdict.UNKNOWN

    def test_verdict_is_not_a_bool(self):
        with pytest.raises(TypeError):
            bool(Verdict.TRUE)


# ---------------------------------------------------------------------------
# optimize_ruleset + MultiPatternSet(optimize=True): invisible elimination
# ---------------------------------------------------------------------------

REDUNDANT_RULES = [
    "ERROR [0-9]+",        # 0 kept
    "colou?r",             # 1 kept
    "colou{0,1}r",         # 2 duplicate of 1 (canonical forms collide)
    "X([0-9]|[0-5])+Y",    # 3 kept (charclass-union merges to X[0-9]+Y)
    "X[0-9]+Y",            # 4 duplicate of 3
    "abcabc",              # 5 kept
    "(abc){2}",            # 6 equivalent to 5 (proved, not structural)
    "[^\\x00-\\xff]dead",  # 7 never-matching, dropped
]


def _stream_rules(mps, data, block=7):
    cur = StreamingMultiMatcher(mps)
    hits = set()
    for off in range(0, max(len(data), 1), block):
        hits |= set(cur.feed(bytes(data[off:off + block])))
    return hits


class TestOptimizeRuleset:
    def test_provenance_shape(self):
        info = optimize_ruleset([parse(r) for r in REDUNDANT_RULES])
        assert info.kept == (0, 1, 3, 5)
        assert info.groups == ((0,), (1, 2), (3, 4), (5, 6))
        assert info.num_rules == len(REDUNDANT_RULES)
        assert info.num_kept == 4
        procedures = {(d, p) for d, _, p in info.eliminations}
        assert procedures == {
            (7, "never-matching"), (2, "duplicate"),
            (4, "duplicate"), (6, "equivalent"),
        }
        assert info.positions_after < info.positions_before
        # meta round-trip preserves everything but the ASTs
        back = type(info).from_meta(info.to_meta())
        assert back.kept == info.kept
        assert back.groups == info.groups
        assert back.eliminations == info.eliminations

    def test_budget_zero_skips_decision_tier(self):
        info = optimize_ruleset([parse(r) for r in REDUNDANT_RULES], budget=0)
        # duplicates and never-matching still collapse; the proof does not
        assert 6 in {k for k in info.kept}
        assert (6, 5, "equivalent") not in info.eliminations

    def test_empty_ruleset(self):
        info = optimize_ruleset([])
        assert info.kept == () and info.groups == ()

    def test_all_rules_never_matching_keeps_a_guard(self):
        info = optimize_ruleset([parse("[^\\x00-\\xff]")] * 3)
        assert info.kept == (0,)
        mps = MultiPatternSet(["[^\\x00-\\xff]"] * 3, optimize=True)
        assert mps.matches(b"anything") == set()

    @pytest.mark.parametrize("backend", ["eager", "lazy", "sharded", "auto"])
    def test_bit_identical_across_backends_and_engines(self, backend):
        rng = random.Random(0xB17)
        base = MultiPatternSet(REDUNDANT_RULES, backend="eager")
        opt = MultiPatternSet(REDUNDANT_RULES, backend=backend, optimize=True)
        assert opt.num_rules == base.num_rules
        assert opt.patterns == base.patterns
        payloads = [
            b"", b"a colour ERROR 42 X123Y abcabc",
            b"X45Y colour abcabcabc",
        ] + [random_payload(rng, max_len=60) for _ in range(12)]
        for data in payloads:
            expect = base.matches(data)
            assert opt.matches(data) == expect, data
            chunked = Plan(num_chunks=4, executor="serial")
            assert opt.matches(data, plan=chunked) == expect, data
            assert opt.matches_any(data) == bool(expect), data
        if backend in ("eager", "auto"):
            for data in payloads:
                assert _stream_rules(opt, data) == base.matches(data), data

    def test_finditer_bit_identical(self):
        rng = random.Random(0xF1D)
        base = MultiPatternSet(REDUNDANT_RULES)
        opt = MultiPatternSet(REDUNDANT_RULES, optimize=True)
        for _ in range(10):
            data = random_payload(rng, max_len=60)
            assert list(opt.finditer(data)) == list(base.finditer(data))

    def test_random_redundant_rulesets_bit_identical(self):
        """Duplicated + respelled random rules: optimized output invisible."""
        rng = random.Random(0x077)
        for _ in range(8):
            rules = []
            while len(rules) < 5:
                p = random_regex(rng)
                try:
                    if compile_pattern(p).min_dfa.num_states > 40:
                        continue
                except Exception:
                    continue
                rules.append(p)
            # respell: duplicate two rules verbatim and one via (?:...)
            rules += [rules[0], rules[1], f"(?:{rules[2]})"]
            base = MultiPatternSet(rules)
            opt = MultiPatternSet(rules, optimize=True)
            for _ in range(6):
                data = random_payload(rng)
                assert opt.matches(data) == base.matches(data), (rules, data)
            assert opt.optimize_info is not None
            assert opt.optimize_info.num_kept < len(rules)

    def test_sizes_reports_compiled_count(self):
        opt = MultiPatternSet(REDUNDANT_RULES, optimize=True)
        sizes = opt.sizes()
        assert sizes["rules"] == len(REDUNDANT_RULES)
        assert sizes["rules_compiled"] == 4
        assert "rules_compiled" not in MultiPatternSet(REDUNDANT_RULES).sizes()

    def test_union_automaton_shrinks(self):
        base = MultiPatternSet(REDUNDANT_RULES)
        opt = MultiPatternSet(REDUNDANT_RULES, optimize=True)
        assert opt.dfa.num_states < base.dfa.num_states


# ---------------------------------------------------------------------------
# persistence: save/load round-trips ids and provenance
# ---------------------------------------------------------------------------


class TestOptimizedArchives:
    def test_save_load_roundtrip(self, tmp_path):
        from repro.automata.serialize import load_ruleset, save_ruleset

        base = MultiPatternSet(REDUNDANT_RULES)
        opt = MultiPatternSet(REDUNDANT_RULES, optimize=True)
        path = tmp_path / "opt.npz"
        save_ruleset(opt, str(path))
        loaded = load_ruleset(str(path))
        assert loaded.num_rules == len(REDUNDANT_RULES)
        assert loaded.optimize_info is not None
        assert loaded.optimize_info.groups == opt.optimize_info.groups
        data = b"a colour ERROR 42 X123Y abcabc"
        assert loaded.matches(data) == base.matches(data)
        assert _stream_rules(loaded, data) == base.matches(data)

    def test_unoptimized_archive_has_no_provenance(self, tmp_path):
        from repro.automata.serialize import load_ruleset, save_ruleset

        path = tmp_path / "plain.npz"
        save_ruleset(MultiPatternSet(REDUNDANT_RULES), str(path))
        assert load_ruleset(str(path)).optimize_info is None

    def test_cli_analyze_npz_shows_provenance(self, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text("\n".join(REDUNDANT_RULES) + "\n")
        out = tmp_path / "opt.npz"
        assert cli_main([
            "optimize", "--rules-file", str(rules), "-o", str(out),
        ]) == 0
        capsys.readouterr()
        rc = cli_main(["analyze", "--rules-file", str(out), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1  # the redundant ruleset carries real warnings
        assert payload["optimize"]["kept"] == [0, 1, 3, 5]
        assert [e[2] for e in payload["optimize"]["eliminations"]] == [
            "never-matching", "duplicate", "duplicate", "equivalent",
        ]


# ---------------------------------------------------------------------------
# lint upgrade: proven subsumption
# ---------------------------------------------------------------------------


class TestSubsumptionLint:
    def test_proven_subsumption_is_a_warning(self):
        report = analyze_ruleset(["abc", "abcd"], mode="search")
        subs = [w for w in report.warnings if w.code == "subsumed-rule"]
        assert len(subs) == 1
        (w,) = subs
        assert w.severity == "warning"
        assert w.procedure == "product-automaton"
        assert w.rules == (1, 0)  # abcd firing implies abc
        assert w.to_dict()["procedure"] == "product-automaton"

    def test_large_ruleset_falls_back_to_heuristic(self):
        rules = ["abc"] + [f"p{i}q" for i in range(30)] + ["XXabcYY"]
        report = analyze_ruleset(rules, mode="search")
        subs = [w for w in report.warnings if w.code == "subsumed-rule"]
        assert subs and all(
            w.procedure == "literal-heuristic" and w.severity == "info"
            for w in subs
        )

    def test_no_procedure_key_on_other_warnings(self):
        report = analyze_ruleset(["abc", "abc"], mode="search")
        dup = [w for w in report.warnings if w.code == "duplicate-rule"]
        assert dup and "procedure" not in dup[0].to_dict()


# ---------------------------------------------------------------------------
# cache: canonical-form-aware keys
# ---------------------------------------------------------------------------


class TestOptimizeCacheKeys:
    SPELLING_A = ["colou?r", "X([0-9]|[0-5])+Y"]
    SPELLING_B = ["colou{0,1}r", "X[0-9]+Y"]

    def test_equivalent_spellings_share_a_key_under_optimize(self):
        from repro.service.cache import ruleset_key

        flags = [False, False]
        ka = ruleset_key(self.SPELLING_A, flags, "search", optimize=True)
        kb = ruleset_key(self.SPELLING_B, flags, "search", optimize=True)
        assert ka == kb
        # ...and distinct keys without the flag (different sources)
        assert (ruleset_key(self.SPELLING_A, flags, "search")
                != ruleset_key(self.SPELLING_B, flags, "search"))
        # the optimize flag itself splits the key space
        assert ka != ruleset_key(self.SPELLING_A, flags, "search")

    def test_cache_hit_across_spellings(self):
        from repro.service.cache import ArtifactCache

        cache = ArtifactCache(capacity=4)
        first, hit1 = cache.get_ruleset(self.SPELLING_A, optimize=True)
        second, hit2 = cache.get_ruleset(self.SPELLING_B, optimize=True)
        assert (hit1, hit2) == (False, True)
        assert second is first

    def test_unparseable_source_still_keys(self):
        from repro.service.cache import ruleset_key

        k = ruleset_key(["(unclosed"], [False], "search", optimize=True)
        assert isinstance(k, str) and len(k) == 40


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestOptimizeCli:
    def test_pattern_mode_json(self, capsys):
        assert cli_main(["optimize", "aaa?a?", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["canonical"] == "a{2,4}"
        assert payload["rewrites"]["concat-run-fusion"] == 3

    def test_rules_mode_matchset_bit_identical(self, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text("\n".join(REDUNDANT_RULES) + "\n")
        payload = tmp_path / "payload.bin"
        payload.write_bytes(b"a colour ERROR 42 X123Y abcabc here")

        assert cli_main([
            "matchset", "--rules-file", str(rules), str(payload),
        ]) == 0
        plain = capsys.readouterr().out
        assert cli_main([
            "matchset", "--rules-file", str(rules), "--optimize",
            str(payload),
        ]) == 0
        assert capsys.readouterr().out == plain

        out = tmp_path / "opt.npz"
        assert cli_main([
            "optimize", "--rules-file", str(rules), "-o", str(out),
        ]) == 0
        capsys.readouterr()
        assert cli_main([
            "matchset", "--rules-file", str(out), str(payload),
        ]) == 0
        assert capsys.readouterr().out == plain

    def test_analyze_optimize_flag(self, capsys):
        assert cli_main(["analyze", "aaa?a?", "--optimize", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["optimize"]["canonical"] == "a{2,4}"
        # without the flag the schema is unchanged
        assert cli_main(["analyze", "aaa?a?", "--json"]) == 0
        assert "optimize" not in json.loads(capsys.readouterr().out)

    def test_save_optimize_then_scan(self, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text("\n".join(REDUNDANT_RULES) + "\n")
        out = tmp_path / "saved.npz"
        assert cli_main([
            "save", "--stage", "ruleset", "--rules-file", str(rules),
            "--optimize", "-o", str(out),
        ]) == 0
        assert "rules compiled" in capsys.readouterr().out
