"""The lazy/sharded union backends (DESIGN.md §3.11), differentially.

The contract under test: *backend choice never changes a matchset*.  For
random SNORT-style rulesets and payloads, the lazy and sharded backends
must report bit-identical rule sets to the eager union automaton — batch,
chunked and streaming, in both modes — and a frozen lazy set must agree
with eager across kernels and executors.  On top of equivalence: the
budget contract (lazy scans bounded rulesets that make eager explode;
``backend="auto"`` never raises where lazy can serve), serialization
(lazy sets freeze into eager archives or fail naming the backend), the
planner's backend cost model, the ``union-state-blowup`` lint, and the
service/cache backend knob.
"""

import io
import threading

import pytest

from repro.automata.backend import BACKEND_NAMES
from repro.automata.serialize import load_ruleset, save_ruleset
from repro.errors import AutomatonError, MatchEngineError, StateExplosionError
from repro.matching.multi import MultiPatternSet
from repro.matching.stream import StreamingMultiMatcher
from repro.planning.planner import (
    AUTO_EAGER_POSITIONS,
    AUTO_SHARDED_POSITIONS,
    Planner,
)
from repro.workloads.snort import generate_ruleset
from repro.workloads.textgen import random_text


def _rules(n, seed):
    return list(generate_ruleset(n, seed=seed).patterns)


def _payloads(ruleset_rules, sizes=(4_000, 20_000), seeds=(3, 4)):
    """Random payloads plus one adversarial payload embedding rule bytes,
    so matchsets are non-trivially populated."""
    out = [random_text(s, seed=sd) for s in sizes for sd in seeds]
    salted = bytearray(random_text(8_000, seed=9))
    for i, r in enumerate(ruleset_rules):
        lit = bytes(
            c for c in r.encode("latin-1")
            if chr(c).isalnum() and c < 128
        )[:6]
        if lit:
            pos = (i * 997) % (len(salted) - len(lit))
            salted[pos:pos + len(lit)] = lit
    out.append(bytes(salted))
    return out


def _stream_rules(mps, data, block):
    cur = StreamingMultiMatcher(mps)
    for i in range(0, len(data), block):
        cur.feed(data[i:i + block])
    cur.finish()
    return cur.matched_rules()


# ---------------------------------------------------------------------------
# Differential: lazy / sharded / auto ≡ eager
# ---------------------------------------------------------------------------


class TestDifferential:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("mode", ["search", "fullmatch"])
    def test_backends_agree_on_random_rulesets(self, seed, mode):
        rules = _rules(6, seed)
        eager = MultiPatternSet(rules, mode=mode, max_dfa_states=500_000)
        others = [
            MultiPatternSet(rules, mode=mode, backend="lazy"),
            MultiPatternSet(
                rules, mode=mode, backend="sharded", group_positions=40
            ),
            MultiPatternSet(rules, mode=mode, backend="auto"),
        ]
        for data in _payloads(rules):
            ref = eager.matches(data)
            for mps in others:
                assert mps.matches(data) == ref, mps.backend
                assert mps.matches_any(data) == bool(ref), mps.backend
                # chunked blockings (Algorithm 5 shape) — the lazy and
                # sharded backends fold chunks without materializing the
                # union D-SFA (an eager-resolved "auto" would, which on a
                # random union DFA is a minutes-long build: not a unit
                # test's job; test_multi covers the eager chunked path)
                if mps.backend != "eager":
                    for p in (2, 5):
                        assert mps.scan_chunked(data, p) == ref, mps.backend
                # streaming blockings
                if mode == "search":
                    for block in (777, 4_096):
                        assert _stream_rules(mps, data, block) == ref

    def test_finditer_is_backend_invariant(self):
        rules = _rules(5, 0)
        data = _payloads(rules, sizes=(6_000,), seeds=(5,))[-1]
        eager = MultiPatternSet(rules, max_dfa_states=500_000)
        lazy = MultiPatternSet(rules, backend="lazy")
        sharded = MultiPatternSet(
            rules, backend="sharded", group_positions=40
        )
        ref = eager.finditer(data)
        assert lazy.finditer(data) == ref
        assert sharded.finditer(data) == ref

    def test_fullmatch_streaming_verdicts_agree(self):
        rules = ["[ab]+c", "a(x|y){2,4}", "abc"]
        eager = MultiPatternSet(rules, mode="fullmatch")
        lazy = MultiPatternSet(rules, mode="fullmatch", backend="lazy")
        data = b"abcaxyxc" * 50
        for block in (3, 7):
            ce, cl = StreamingMultiMatcher(eager), StreamingMultiMatcher(lazy)
            for i in range(0, len(data), block):
                assert ce.feed(data[i:i + block]) == cl.feed(data[i:i + block])
            assert ce.rules() == cl.rules()
            assert ce.matched_rules() == cl.matched_rules()

    def test_sharded_executor_fanout_matches_serial(self):
        from repro.parallel.executor import ThreadExecutor

        rules = _rules(8, 2)
        sharded = MultiPatternSet(
            rules, backend="sharded", group_positions=40
        )
        assert sharded.group_count >= 2
        data = _payloads(rules, sizes=(8_000,), seeds=(6,))[-1]
        serial = sharded.matches(data)
        with ThreadExecutor(2) as ex:
            assert sharded.matches(data, executor=ex) == serial


# ---------------------------------------------------------------------------
# Budget contract
# ---------------------------------------------------------------------------


class TestBudgets:
    def test_eager_explodes_where_lazy_serves(self):
        # A dozen random IDS rules blow any practical eager budget; the
        # lazy backend scans the same ruleset within a bounded number of
        # materialized states (≤ payload symbols + warmup).
        rules = _rules(12, 7)
        with pytest.raises(StateExplosionError):
            MultiPatternSet(rules, max_dfa_states=2_000)
        lazy = MultiPatternSet(rules, backend="lazy")
        data = random_text(10_000, seed=1)
        lazy.matches(data)
        assert lazy.num_materialized <= len(data) + 2

    def test_auto_never_raises_where_lazy_can_serve(self):
        rules = _rules(12, 7)
        mps = MultiPatternSet(rules, backend="auto", max_dfa_states=2_000)
        assert mps.backend in ("lazy", "sharded")
        data = random_text(5_000, seed=2)
        assert mps.matches(data) == MultiPatternSet(
            rules, backend="lazy"
        ).matches(data)

    def test_lazy_scan_budget_is_enforced(self):
        rules = _rules(6, 0)
        tiny = MultiPatternSet(rules, backend="lazy", max_lazy_states=5)
        with pytest.raises(StateExplosionError) as ei:
            tiny.matches(random_text(5_000, seed=3))
        assert ei.value.limit == 5

    def test_unknown_backend_rejected(self):
        with pytest.raises(MatchEngineError):
            MultiPatternSet(["abc"], backend="magic")

    def test_dfa_property_names_backend(self):
        lazy = MultiPatternSet(["abc", "a+b"], backend="lazy")
        with pytest.raises(AutomatonError, match="backend='lazy'"):
            lazy.dfa


# ---------------------------------------------------------------------------
# freeze(): warm lazy → eager
# ---------------------------------------------------------------------------


class TestMaterializedOnly:
    def test_guarded_scan_builds_nothing_until_warm(self):
        from repro.automata.lazy import NotMaterialized, materialized_only

        rules = ["abc", "a[0-9]+b", "zz*top"]
        lazy = MultiPatternSet(rules, backend="lazy")
        data = b"xx abc yy a123b zz zztop " * 20
        with materialized_only():
            with pytest.raises(NotMaterialized):
                lazy.matches(data)
        assert lazy.num_materialized == 1  # nothing built under the guard
        want = MultiPatternSet(rules).matches(data)
        assert lazy.matches(data) == want  # unguarded: builds and matches
        states = lazy.num_materialized
        with materialized_only():
            assert lazy.matches(data) == want  # warm: the walk never misses
        assert lazy.num_materialized == states
        assert lazy.matches(b"zzzzzztop abc") == {0, 2}  # guard is reset


class TestFreeze:
    def test_freeze_agrees_across_kernels_and_chunking(self):
        # Small fixed rules keep the frozen union DFA tiny, so the
        # chunked leg's union D-SFA build stays unit-test cheap.
        rules = ["abc", "a[0-9]+b", "zz*top"]
        eager = MultiPatternSet(rules)
        lazy = MultiPatternSet(rules, backend="lazy")
        data = b"xx abc yy a123b zz zztop " * 300
        ref = eager.matches(data)
        assert ref  # non-trivial matchset
        lazy.matches(data)  # warm the reachable region
        assert lazy.freeze() is lazy
        assert lazy.backend == "eager"
        assert isinstance(lazy.num_materialized, int)
        for kernel in ("python", "stride2"):
            assert lazy.matches(data, kernel=kernel) == ref
        assert lazy.matches(data, 3) == ref  # chunked → via union D-SFA
        assert lazy.matches_any(data) == bool(ref)

    def test_freeze_is_idempotent_and_sharded_freezes(self):
        rules = _rules(4, 1)
        eager = MultiPatternSet(rules, max_dfa_states=500_000)
        assert eager.freeze() is eager
        sharded = MultiPatternSet(
            rules, backend="sharded", group_positions=40,
            max_dfa_states=500_000,
        )
        data = random_text(4_000, seed=8)
        ref = eager.matches(data)
        sharded.freeze()
        assert sharded.backend == "eager"
        assert sharded.group_count == 0
        assert sharded.matches(data) == ref

    def test_freeze_over_budget_raises(self):
        rules = _rules(12, 7)
        lazy = MultiPatternSet(
            rules, backend="lazy", max_dfa_states=1_000
        )
        lazy.matches(random_text(2_000, seed=4))
        with pytest.raises(StateExplosionError):
            lazy.freeze()
        assert lazy.backend == "lazy"  # still usable, unfrozen

    def test_lazy_thread_safety_under_concurrent_scans(self):
        rules = _rules(6, 3)
        lazy = MultiPatternSet(rules, backend="lazy")
        eager = MultiPatternSet(rules, max_dfa_states=500_000)
        payloads = [random_text(8_000, seed=s) for s in range(6)]
        refs = [eager.matches(d) for d in payloads]
        results = [None] * len(payloads)
        errors = []

        def scan(i):
            try:
                results[i] = lazy.matches(payloads[i])
            except Exception as e:  # pragma: no cover - failure reporting
                errors.append(e)

        threads = [
            threading.Thread(target=scan, args=(i,))
            for i in range(len(payloads))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert results == refs


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


class TestSerialization:
    def test_lazy_ruleset_saves_frozen_and_roundtrips(self):
        rules = _rules(4, 1)
        lazy = MultiPatternSet(rules, backend="lazy")
        data = random_text(4_000, seed=5)
        ref = MultiPatternSet(rules, max_dfa_states=500_000).matches(data)
        lazy.matches(data)
        buf = io.BytesIO()
        save_ruleset(lazy, buf)
        assert lazy.backend == "eager"  # frozen in place by the save
        buf.seek(0)
        loaded = load_ruleset(buf)
        assert loaded.backend == "eager"
        assert loaded.matches(data) == ref

    def test_save_over_budget_names_backend(self):
        rules = _rules(12, 7)
        lazy = MultiPatternSet(
            rules, backend="lazy", max_dfa_states=1_000
        )
        lazy.matches(random_text(2_000, seed=6))
        with pytest.raises(AutomatonError, match="backend='lazy'"):
            save_ruleset(lazy, io.BytesIO())


# ---------------------------------------------------------------------------
# Planner cost model
# ---------------------------------------------------------------------------


class TestPlannerBackend:
    def test_choose_backend_thresholds(self):
        p = Planner(cpu_count=1)
        assert p.choose_backend([50, 50], 200_000) == "eager"
        assert p.choose_backend(
            [AUTO_EAGER_POSITIONS + 1], 200_000
        ) == "lazy"
        assert p.choose_backend(
            [AUTO_SHARDED_POSITIONS + 1], 200_000
        ) == "sharded"
        # a tiny eager budget forbids the eager prediction outright
        assert p.choose_backend([50, 50], 10) == "lazy"

    def test_auto_plan_on_lazy_subject_is_serial(self):
        from repro.planning.plan import resolve_plan

        lazy = MultiPatternSet(_rules(6, 0), backend="lazy")
        plan = resolve_plan("auto", "multi", 1 << 20, subject=lazy)
        assert plan.num_chunks == 1
        assert plan.kernel == "python"
        # and the end-to-end scan goes through without touching .dfa/.sfa
        data = random_text(5_000, seed=7)
        assert lazy.matches(data, plan="auto") == lazy.matches(data)

    def test_backend_names_are_canonical(self):
        assert BACKEND_NAMES == ("auto", "eager", "lazy", "sharded")


# ---------------------------------------------------------------------------
# Analyze lint
# ---------------------------------------------------------------------------


class TestUnionBlowupLint:
    def test_large_ruleset_flags_union_blowup(self):
        from repro.analysis import analyze_ruleset

        report = analyze_ruleset(_rules(40, 0))
        codes = {w.code: w for w in report.warnings}
        assert "union-state-blowup" in codes
        w = codes["union-state-blowup"]
        assert w.severity == "info"  # big is not broken: exit code stays 0
        assert "backend=lazy" in w.message and "sharded" in w.message

    def test_small_ruleset_is_clean(self):
        from repro.analysis import analyze_ruleset

        report = analyze_ruleset(["abc", "xyz[0-9]"])
        assert not any(
            w.code == "union-state-blowup" for w in report.warnings
        )


# ---------------------------------------------------------------------------
# Cache + service knob
# ---------------------------------------------------------------------------


class TestCacheBackend:
    def test_backend_is_part_of_the_cache_key(self):
        from repro.service.cache import ArtifactCache, ruleset_key

        rules = ["abc", "a[0-9]+b"]
        assert ruleset_key(rules, [False, False], "search") != ruleset_key(
            rules, [False, False], "search", "lazy"
        )
        cache = ArtifactCache(capacity=8)
        eager, hit0 = cache.get_ruleset(rules, backend="eager")
        lazy, hit1 = cache.get_ruleset(rules, backend="lazy")
        assert not hit0 and not hit1 and eager is not lazy
        assert eager.backend == "eager" and lazy.backend == "lazy"
        again, hit2 = cache.get_ruleset(rules, backend="lazy")
        assert hit2 and again is lazy

    def test_stats_report_materialization_and_groups(self):
        from repro.service.cache import ArtifactCache

        cache = ArtifactCache(capacity=8)
        cache.get_ruleset(["abc", "a+b"], backend="lazy")
        cache.get_ruleset(
            list(generate_ruleset(8, seed=2).patterns), backend="sharded"
        )
        by_backend = {
            e["backend"]: e for e in cache.stats()["rulesets"]
        }
        assert by_backend["lazy"]["num_materialized"] >= 1
        assert by_backend["sharded"]["groups"] >= 1

    def test_warm_skips_eager_stages_on_lazy_entries(self):
        from repro.service.cache import ArtifactCache

        cache = ArtifactCache(capacity=8)
        lazy, _ = cache.get_ruleset(["abc", "a+b"], backend="lazy")
        assert cache.warm(lazy, ["dfa", "sfa"], "stride2") == []
        assert lazy.backend == "lazy"  # warming never forced a freeze

    def test_bad_backend_is_a_service_error(self):
        from repro.errors import ServiceError
        from repro.service.cache import ArtifactCache

        with pytest.raises(ServiceError):
            ArtifactCache(capacity=2).get_ruleset(["abc"], backend="magic")
