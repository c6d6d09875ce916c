"""Multi-pattern (ruleset) matching."""

import re

import pytest

from repro.errors import MatchEngineError, StateExplosionError
from repro.matching.multi import MultiPatternSet
from repro.parallel.scan import KERNELS
from repro.planning.plan import Plan

from .conftest import sfa_chunked


RULES = ["abc", "a[0-9]+b", "(GET|POST) /x", "zz*top"]


@pytest.fixture(scope="module")
def mps():
    return MultiPatternSet(RULES)


class TestConstruction:
    def test_needs_patterns(self):
        with pytest.raises(MatchEngineError):
            MultiPatternSet([])

    def test_bad_mode(self):
        with pytest.raises(MatchEngineError):
            MultiPatternSet(["a"], mode="prefix")

    def test_sizes(self, mps):
        s = mps.sizes()
        assert s["rules"] == 4
        assert s["union_dfa"] > 1
        assert s["union_d_sfa"] >= s["union_dfa"] // 2

    def test_state_budget(self):
        with pytest.raises(StateExplosionError):
            MultiPatternSet(["(a|b)*a(a|b){12}"], max_dfa_states=50)

    def test_repr(self, mps):
        assert "rules=4" in repr(mps)


class TestSearchSemantics:
    def test_single_rule_hit(self, mps):
        assert mps.matches(b"xx abc yy") == {0}

    def test_multiple_rules_hit(self, mps):
        data = b"abc and a42b and zztop"
        assert mps.matches(data) == {0, 1, 3}

    def test_no_hit(self, mps):
        assert mps.matches(b"nothing here") == set()
        assert not mps.matches_any(b"nothing here")

    def test_matches_any(self, mps):
        assert mps.matches_any(b"GET /x HTTP/1.1")

    def test_agrees_with_re_search(self, mps):
        payloads = [
            b"", b"abc", b"xabcx", b"a1b a22b", b"POST /x", b"GET /y",
            b"ztop", b"zztop", b"zzztop", b"abca0bzztopGET /x",
        ]
        for data in payloads:
            expected = {
                i for i, r in enumerate(RULES) if re.search(r.encode(), data)
            }
            assert mps.matches(data) == expected, data


class TestChunkInvariance:
    @pytest.mark.parametrize("p", [2, 3, 5, 9])
    def test_parallel_matches_serial(self, mps, p):
        data = b"junk abc junk a987b junk zztop END" * 3
        assert mps.matches(data, plan=Plan(num_chunks=p)) == mps.matches(data)
        chunked = Plan(num_chunks=p, executor="serial")  # per-chunk dispatch
        assert mps.matches(data, plan=chunked) == mps.matches(data)

    def test_matches_any_parallel(self, mps):
        data = b"x" * 100 + b"abc" + b"y" * 100
        assert mps.matches_any(data, plan=Plan(num_chunks=7))

    @pytest.mark.parametrize("p", [2, 5, 50])
    def test_more_chunks_than_symbols(self, mps, p):
        # p > n must clamp, not ship empty chunks (the PR 2 bug, here too)
        for data in (b"a", b"abc", b"zztop"):
            assert mps.matches(data, plan=Plan(num_chunks=p)) == mps.matches(data)
            assert sfa_chunked(mps, data, p) == mps.matches(data)
            assert mps.matches_any(data, plan=Plan(num_chunks=p)) == bool(mps.matches(data))

    @pytest.mark.parametrize("p", [1, 4, 16])
    def test_empty_input(self, mps, p):
        assert mps.matches(b"", plan=Plan(num_chunks=p)) == set()
        assert sfa_chunked(mps, b"", p) == set()
        assert not mps.matches_any(b"", plan=Plan(num_chunks=p))

    def test_empty_input_fullmatch_mode(self):
        mps = MultiPatternSet(["(ab)*", "a+"], mode="fullmatch")
        for p in (1, 4, 16):
            assert mps.matches(b"", plan=Plan(num_chunks=p)) == {0}
            assert sfa_chunked(mps, b"", p) == {0}


class TestExecutorAndKernelKnobs:
    DATA = b"junk abc junk a987b junk zztop END" * 3

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("p", [1, 3, 50])
    def test_kernels_agree(self, mps, kernel, p):
        ref = mps.matches(self.DATA)
        assert mps.matches(self.DATA, plan=Plan(num_chunks=p, kernel=kernel)) == ref
        assert sfa_chunked(mps, self.DATA, p, kernel) == ref

    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    def test_executors_agree(self, mps, executor):
        ref = mps.matches(self.DATA, plan=Plan(engine="lockstep"))
        plan = Plan(num_chunks=4, executor=executor, num_workers=2)
        assert mps.matches(self.DATA, plan=plan) == ref
        got = mps.matches(self.DATA, plan=Plan(
            num_chunks=4, executor=executor, num_workers=2, kernel="stride2",
        ))
        assert got == ref
        assert mps.matches_any(self.DATA, plan=plan)

    def test_executor_instance(self, mps):
        from repro.parallel.executor import ProcessExecutor

        with ProcessExecutor(2) as ex:
            assert mps.matches(self.DATA, executor=ex, plan=Plan(num_chunks=3)) == \
                mps.matches(self.DATA)

    def test_unknown_kernel_rejected(self, mps):
        with pytest.raises(MatchEngineError):
            mps.matches(b"abc", plan=Plan(kernel="simd"))
        with pytest.raises(MatchEngineError):
            sfa_chunked(mps, b"abc", 2, kernel="simd")

    def test_bad_chunk_count_rejected(self, mps):
        with pytest.raises(MatchEngineError):
            mps.matches(b"abc", plan=Plan(num_chunks=0))

    def test_unknown_executor_name_rejected(self, mps):
        with pytest.raises(MatchEngineError):
            mps.matches(b"abc", plan=Plan(num_chunks=2, executor="gpu"))
        with pytest.raises(MatchEngineError):
            mps.matches(b"a", plan=Plan(executor="gpu"))  # even when p clamps to 1

    def test_non_executor_object_rejected_on_any_length(self, mps):
        # a misconfigured object must fail on short inputs too, not only
        # once the payload is long enough to skip the p==1 fast path
        for data in (b"", b"a", b"abc" * 10):
            with pytest.raises(MatchEngineError):
                mps.matches(data, executor=object(), plan=Plan(num_chunks=4))

    def test_stride_budget_none_means_multi_default(self):
        from repro.matching.multi import DEFAULT_STRIDE_BUDGET

        mps = MultiPatternSet(RULES, stride_budget=None)
        assert mps.stride_budget == DEFAULT_STRIDE_BUDGET
        assert MultiPatternSet(RULES, stride_budget=1024).stride_budget == 1024

    def test_serial_scans_never_build_the_sfa(self):
        # p == 1 (however reached) walks the union DFA; the far larger
        # D-SFA must not be constructed as a side effect.
        mps = MultiPatternSet(RULES)
        assert mps.matches(b"xx abc yy") == {0}
        assert mps.matches(b"a", plan=Plan(num_chunks=50, executor="serial")) == set()
        assert mps.matches(b"zztop", plan=Plan(kernel="stride4")) == {3}
        assert mps._sfa is None

    def test_stride_budget_reaches_chunked_scans(self, mps):
        data = b"junk abc junk zztop END" * 2
        ref = mps.matches(data)
        assert mps.matches(data, plan=Plan(num_chunks=3, kernel="stride2")) == ref
        # the chunked path probes stride tables under the multi budget,
        # not the 4 MiB engine default
        assert (2, mps.stride_budget) in mps.sfa._stride_tables


class TestPerRuleFlags:
    def test_tuple_form(self):
        mps = MultiPatternSet([("attack", True), "Virus"])
        assert mps.rule_flags == [True, False]
        assert mps.matches(b"an ATTACK detected") == {0}
        assert mps.matches(b"virus") == set()
        assert mps.matches(b"Virus aTtAcK") == {0, 1}

    def test_flags_sequence(self):
        mps = MultiPatternSet(["attack", "virus"], flags=[True, False])
        assert mps.matches(b"ATTACK VIRUS") == {0}

    def test_global_flag_ors_into_rules(self):
        mps = MultiPatternSet([("attack", False), "virus"], ignore_case=True)
        assert mps.rule_flags == [True, True]
        assert mps.matches(b"ATTACK VIRUS") == {0, 1}

    def test_flags_length_mismatch(self):
        with pytest.raises(MatchEngineError):
            MultiPatternSet(["a", "b"], flags=[True])

    def test_malformed_rule_entry(self):
        with pytest.raises(MatchEngineError):
            MultiPatternSet([("a", True, "x")])
        with pytest.raises(MatchEngineError):
            MultiPatternSet([(b"a", True)])

    def test_bare_strings_stay_compatible(self):
        mps = MultiPatternSet(RULES)
        assert mps.rule_flags == [False] * len(RULES)
        assert mps.patterns == RULES


class TestFullmatchMode:
    def test_fullmatch_rules(self):
        mps = MultiPatternSet(["(ab)*", "a+"], mode="fullmatch")
        assert mps.matches(b"abab") == {0}
        assert mps.matches(b"aaa") == {1}
        assert mps.matches(b"") == {0}
        assert mps.matches(b"abz") == set()

    def test_overlapping_rules(self):
        mps = MultiPatternSet(["a*", "a{2}"], mode="fullmatch")
        assert mps.matches(b"aa") == {0, 1}
        assert mps.matches(b"a") == {0}


class TestIgnoreCase:
    def test_case_insensitive_rules(self):
        mps = MultiPatternSet(["attack"], ignore_case=True)
        assert mps.matches(b"an ATTACK detected") == {0}


class TestWithSyntheticRuleset:
    def test_compile_and_scan_ruleset(self):
        from repro.workloads.snort import generate_ruleset

        # the union DFA is a cross product of the Σ*-wrapped rules, so the
        # rule count per group stays small (SNORT groups rules the same way)
        rules = [p for p in generate_ruleset(12, seed=5)][:5]
        mps = MultiPatternSet(rules, max_dfa_states=300_000)
        # every rule must be locatable via its own matched text
        from repro.workloads.textgen import accepted_text
        from repro import compile_pattern

        found_self = 0
        from repro.errors import AutomatonError

        for i, r in enumerate(rules):
            dfa = compile_pattern(r).min_dfa
            try:
                needle = accepted_text(dfa, 30, seed=i)
            except AutomatonError:
                needle = accepted_text(dfa, 1, seed=i)  # finite language
            if not needle:
                continue
            hits = mps.matches(b"-- " + needle + b" --", plan=Plan(num_chunks=3))
            if i in hits:
                found_self += 1
        assert found_self >= 4  # most rules find their own witness
