"""The plan-based query planner (DESIGN.md §3.10).

Four contracts pinned here:

1. **Equivalence** — ``plan="auto"`` returns bit-identical results to the
   serial python reference across random patterns × payloads × entry
   points (batch, spans, multi-pattern, streaming).  The planner may only
   ever change *how* a scan runs, never *what* it returns.
2. **One strategy argument** — ``plan`` (``"auto"`` or a ``Plan``) is
   the only way to say how to run; an explicit ``Plan`` is run as given.
3. **Guard rails** — the vector kernel is never chosen for acceptance
   scans (the 0.067× regime measured in ``bench_kernels``), the chosen
   plan is never estimated slower than serial python, and tiny inputs
   short-circuit before any calibration access.
4. **Calibration hygiene** — only ``repro calibrate`` writes the file;
   corrupt/stale files downgrade to defaults with a warning, never an
   exception.
"""

import json
import math
import random
import time

import pytest

from repro import compile_pattern
from repro.cli import main as cli_main
from repro.errors import MatchEngineError
from repro.matching.multi import MultiPatternSet
from repro.matching.stream import (
    ParallelStreamMatcher,
    StreamingMultiMatcher,
    StreamingMultiSpanMatcher,
    StreamingSpanMatcher,
    StreamMatcher,
)
from repro.planning.calibration import (
    CALIBRATION_VERSION,
    Calibration,
    CalibrationWarning,
    DEFAULT_CALIBRATION,
    calibration_stats,
    get_calibration,
    invalidate_calibration,
    load_calibration,
    reset_calibration_stats,
    save_calibration,
)
from repro.planning.plan import Plan, resolve_plan
from repro.planning.planner import (
    LANE_ACCEPT_MIN,
    TINY_INPUT_BYTES,
    Planner,
    set_planner,
)
from repro.workloads.patterns import rn_pattern
from repro.workloads.textgen import rn_accepted_text

pytestmark = pytest.mark.filterwarnings("error::UserWarning")


@pytest.fixture(autouse=True)
def _isolated_calibration(tmp_path, monkeypatch):
    """Point every test at its own calibration path and a fresh planner."""
    monkeypatch.setenv("REPRO_CALIBRATION", str(tmp_path / "calibration.json"))
    invalidate_calibration()
    reset_calibration_stats()
    set_planner(None)
    yield
    invalidate_calibration()
    set_planner(None)


# ---------------------------------------------------------------------------
# The Plan object and resolve_plan
# ---------------------------------------------------------------------------


class TestPlanObject:
    def test_defaults_are_the_legacy_defaults(self):
        p = Plan()
        assert (p.engine, p.executor, p.kernel, p.num_chunks) == (
            "dfa", None, "python", 1
        )
        assert p.reduction == "sequential"
        assert p.source == "default"

    def test_validation_keeps_legacy_messages(self):
        with pytest.raises(MatchEngineError, match="num_chunks must be >= 1"):
            Plan(num_chunks=0)
        with pytest.raises(MatchEngineError, match="unknown kernel 'avx'"):
            Plan(kernel="avx")
        with pytest.raises(MatchEngineError, match="unknown executor"):
            Plan(executor="gpu")
        with pytest.raises(MatchEngineError, match="unknown engine"):
            Plan(engine="warp")
        with pytest.raises(MatchEngineError, match="unknown reduction"):
            Plan(reduction="ring")

    def test_dict_roundtrip_ignores_unknown_keys(self):
        p = Plan(engine="sfa", kernel="stride4", num_chunks=4,
                 executor="threads", num_workers=2, source="auto")
        d = p.to_dict()
        assert d["summary"] == "sfa/p4/threads/stride4"
        d["future_field"] = 123  # older clients must survive newer servers
        q = Plan.from_dict(d)
        assert q == p

    def test_explicit_plan_is_used_as_given(self):
        base = Plan(engine="sfa", kernel="stride4", num_chunks=8)
        assert resolve_plan(base, "fullmatch", 1 << 20) is base
        assert resolve_plan(base.to_dict(), "fullmatch", 1 << 20) == base

    def test_garbage_plan_and_executor_rejected(self):
        with pytest.raises(MatchEngineError, match="plan must be"):
            resolve_plan("fastest", "fullmatch", 10)
        with pytest.raises(MatchEngineError, match="plan must be"):
            resolve_plan("off", "fullmatch", 10)
        with pytest.raises(TypeError):
            resolve_plan("auto", "fullmatch", 10, executor=object())
        with pytest.raises(MatchEngineError, match="unknown plan task"):
            resolve_plan(None, "teleport", 10)
        for bad in (
            {"num_chunks": "8"}, {"num_chunks": True}, {"num_chunks": 2.5},
            {"num_workers": "x"}, {"num_workers": 0},
            {"num_workers": False}, {"prefilter": "no"},
            {"prefilter": 0},
        ):
            with pytest.raises(MatchEngineError):
                Plan.from_dict(bad)


# ---------------------------------------------------------------------------
# plan is the only strategy argument
# ---------------------------------------------------------------------------

#: Every loose strategy kwarg the entry points used to take, with a value
#: that was valid for it.
REMOVED_KWARGS = {
    "engine": "sfa", "num_chunks": 2, "reduction": "tree", "executor": "serial",
    "num_workers": 2, "kernel": "stride2", "prefilter": False,
}


def _entry_points():
    m = compile_pattern("ab")
    mps = MultiPatternSet(["ab", "cd"])
    data = b"xxabxx"
    return {
        "fullmatch": lambda **kw: m.fullmatch(data, **kw),
        "contains": lambda **kw: m.contains(data, **kw),
        "finditer": lambda **kw: m.finditer(data, **kw),
        "find": lambda **kw: m.find(data, **kw),
        "count": lambda **kw: m.count(data, **kw),
        "findall": lambda **kw: m.findall(data, **kw),
        "SpanEngine.spans": lambda **kw: m.span_engine().spans(data, **kw),
        "matches": lambda **kw: mps.matches(data, **kw),
        "matches_any": lambda **kw: mps.matches_any(data, **kw),
        "MultiPatternSet.finditer": lambda **kw: mps.finditer(data, **kw),
        "StreamMatcher": lambda **kw: StreamMatcher(m.sfa, **kw),
        "ParallelStreamMatcher": lambda **kw: ParallelStreamMatcher(
            m.sfa, **kw
        ),
        "StreamingMultiMatcher": lambda **kw: StreamingMultiMatcher(mps, **kw),
        "StreamingSpanMatcher": lambda **kw: StreamingSpanMatcher(m, **kw),
        "StreamingMultiSpanMatcher": lambda **kw: StreamingMultiSpanMatcher(
            mps, **kw
        ),
    }


#: Entry points that keep ``executor=`` for a caller-owned pool instance.
EXECUTOR_INSTANCE = {"fullmatch", "contains", "matches", "matches_any"}


class TestOneStrategyArgument:
    @pytest.mark.parametrize("kwarg", sorted(REMOVED_KWARGS))
    @pytest.mark.parametrize("entry", sorted(_entry_points()))
    def test_removed_kwarg_raises_type_error(self, entry, kwarg):
        call = _entry_points()[entry]
        call()  # plan="auto" by default
        call(plan=Plan())
        if kwarg == "executor" and entry in EXECUTOR_INSTANCE:
            # kept, but only for ChunkExecutor instances, never names
            with pytest.raises(MatchEngineError, match="ChunkExecutor"):
                call(executor=REMOVED_KWARGS[kwarg])
            return
        with pytest.raises(TypeError):
            call(**{kwarg: REMOVED_KWARGS[kwarg]})

    def test_scan_chunked_is_gone(self):
        assert not hasattr(MultiPatternSet, "scan_chunked")
        mps = MultiPatternSet(["ab", "cd"])
        data = b"xx cd ab " * 10
        chunked = mps.matches(data, plan=Plan(num_chunks=4, executor="serial"))
        assert chunked == mps.matches(data, plan=Plan(engine="lockstep"))


# ---------------------------------------------------------------------------
# Planner choices: guard rails and regression pins
# ---------------------------------------------------------------------------


def _warm(pattern: str):
    """A compiled pattern with its scan artifacts already built, so the
    planner sees the steady-state (amortized) cost picture."""
    m = compile_pattern(pattern)
    m.sfa.stride_table(4)
    m.span_engine()
    return m


class TestPlannerChoices:
    def test_never_vector_on_acceptance_bench_workload(self):
        # The bench_kernels workload where vector measured 0.067x python.
        m = _warm(rn_pattern(5))
        planner = Planner(calibration=DEFAULT_CALIBRATION)
        for n in (TINY_INPUT_BYTES, 1 << 16, 2_000_000, 64_000_000):
            for task in ("fullmatch", "contains"):
                plan = planner.plan(task, n, subject=m)
                assert plan.kernel != "vector", (task, n, plan)

    def test_auto_picks_stride4_sfa_when_warm(self):
        # Regression pin: on the bench_kernels workload (r_5, 2 MB) the
        # warmed cost picture must choose the measured-fastest combo:
        # Algorithm 5 on the stride-4 SFA table, in ⌊√m⌋ lanes (measured
        # on 2 CPUs; the process plan is modelled, not measured, beyond).
        m = _warm(rn_pattern(5))
        plan = Planner(calibration=DEFAULT_CALIBRATION, cpu_count=2).plan(
            "fullmatch", 2_000_000, subject=m
        )
        assert (plan.engine, plan.kernel) == ("lockstep", "stride4")
        assert plan.num_chunks == math.isqrt(2_000_000 // 4)
        assert plan.source == "auto"
        assert plan.reason

    def test_lanes_above_the_crossover_only(self):
        planner = Planner(calibration=DEFAULT_CALIBRATION, cpu_count=2)
        m = _warm(rn_pattern(5))
        for n in (2_000_000, 8_000_000):
            plan = planner.plan("fullmatch", n, subject=m)
            assert plan.summary() == (
                f"lockstep/p{math.isqrt(n // 4)}/inline/stride4"
            ), plan.reason
        # below the crossover: what the planner chose before lanes existed
        plan = planner.plan("fullmatch", LANE_ACCEPT_MIN - 1, subject=m)
        assert plan.summary() == "sfa/p1/inline/stride4", plan.reason
        # ... because lanes are not offered there, however cheap they look
        cal = Calibration(
            cpu_count=2, source="measured", created=time.time(),
            mb_per_s={"lanes_stride2": 1e6, "lanes_stride4": 1e6},
            dispatch_ms={"lane_step": 0.0},
        )
        fast = Planner(calibration=cal, cpu_count=2)
        assert fast.plan("fullmatch", LANE_ACCEPT_MIN, subject=m).engine == "lockstep"
        assert fast.plan("fullmatch", LANE_ACCEPT_MIN - 1, subject=m).engine != "lockstep"

    def test_never_slower_than_python_guard(self):
        # Pathological calibration claiming strides are SLOWER than the
        # python loop: the python baseline candidate must win.
        cal = Calibration(
            cpu_count=1, source="measured", created=time.time(),
            mb_per_s={"dfa_python": 30.0, "sfa_python": 5.0,
                      "sfa_stride2": 1.0, "sfa_stride4": 1.0,
                      "lanes_stride2": 1.0, "lanes_stride4": 1.0},
        )
        m = _warm(rn_pattern(5))
        plan = Planner(calibration=cal).plan("fullmatch", 2_000_000, subject=m)
        assert plan.kernel == "python"

    def test_tiny_input_short_circuits_before_calibration(
        self, tmp_path, monkeypatch
    ):
        import repro.planning.planner as planner_mod

        def boom():  # pragma: no cover - the assertion is the point
            raise AssertionError("tiny input touched the calibration")

        monkeypatch.setattr(planner_mod, "get_calibration", boom)
        plan = Planner().plan("fullmatch", 10)
        assert (plan.kernel, plan.num_chunks, plan.executor) == ("python", 1, None)
        # ... end to end through the public API, with the calibration path
        # pointed at a directory that must stay empty:
        target = tmp_path / "never" / "calibration.json"
        monkeypatch.setenv("REPRO_CALIBRATION", str(target))
        m = compile_pattern("(ab)*")
        assert m.fullmatch(b"abab", plan="auto")
        assert m.contains(b"xxabxx", plan="auto")
        assert not target.parent.exists(), "a 10-byte grep created cache files"

    def test_explicit_engine_beats_auto_at_run_time(self, monkeypatch):
        import repro.matching.engine as eng

        calls = []
        real = eng.lockstep_run

        def spy(*a, **kw):
            calls.append(1)
            return real(*a, **kw)

        monkeypatch.setattr(eng, "lockstep_run", spy)
        set_planner(Planner(calibration=DEFAULT_CALIBRATION, cpu_count=2))
        m = _warm(rn_pattern(5))
        text = rn_accepted_text(5, 2_000_000, seed=1)
        assert m.fullmatch(text, plan=Plan(engine="dfa"))  # explicit plan
        assert not calls
        assert m.fullmatch(text, plan="auto")  # warm auto picks the lanes
        assert calls

    def test_tiny_inputs_share_one_plan(self):
        planner = Planner()
        first = planner.plan("contains", 10)
        assert planner.plan("contains", TINY_INPUT_BYTES - 1) is first
        assert planner.plans_made == 2
        assert "n=" not in first.reason
        assert planner.plan("spans", 10) is not first

    def test_auto_falls_back_serial_on_state_explosion(self):
        # A pattern whose SFA construction explodes must still answer
        # under plan="auto" (fallback to the serial DFA walk) while an
        # explicit Plan(engine="sfa") keeps raising.
        from repro.errors import StateExplosionError

        m = compile_pattern("(a|b)*a(a|b){12}", max_sfa_states=64)
        text = b"ab" * 3000 + b"a" + b"ab" * 6
        with pytest.raises(StateExplosionError):
            m.fullmatch(text, plan=Plan(engine="sfa"))
        assert m.fullmatch(text, plan=Plan(
            engine="sfa", kernel="python", source="auto"
        )) == m.fullmatch(text, plan=Plan(engine="dfa"))
        assert m.fullmatch(text, plan=Plan(  # an auto lane plan, likewise
            engine="lockstep", kernel="stride4", num_chunks=38, source="auto"
        )) == m.fullmatch(text, plan=Plan(engine="dfa"))


class TestSyncLaneChoices:
    """Above the lane gate the planner builds the minimal DFA and offers
    Algorithm 3 in collapsing lanes where it synchronizes (§3.10)."""

    N = 8_388_600

    def _plan(self, subject, task="fullmatch"):
        return Planner(calibration=DEFAULT_CALIBRATION, cpu_count=2).plan(
            task, self.N, subject=subject
        )

    def test_cold_r50_gets_speculative_lanes(self):
        m = compile_pattern(rn_pattern(50))
        plan = self._plan(m)
        assert plan.summary() == "speculative/p1448/inline/stride4"
        assert "100 live states, resolving depth 50" in plan.reason
        assert m._min_dfa is not None and m._sfa is None  # no D-SFA

    def test_cold_r100_prices_its_dsfa_by_size(self):
        # A synchronizing DFA's D-SFA has about live² states: r_100's has
        # 40,200, far above the flat SFA_BUILD_S, so the cold plan builds
        # none.
        m = compile_pattern(rn_pattern(100))
        plan = self._plan(m)
        assert plan.summary() == "speculative/p1448/inline/stride4"
        assert "200 live states" in plan.reason
        assert m._sfa is None

    def test_cold_fig10_gets_lockstep(self):
        from repro.workloads.patterns import FIG10_PATTERN

        plan = self._plan(compile_pattern(FIG10_PATTERN))
        assert plan.summary() == "lockstep/p1448/inline/stride4"
        assert "does not synchronize" in plan.reason

    def test_built_dsfa_keeps_lockstep(self):
        plan = self._plan(_warm(rn_pattern(50)))
        assert plan.summary() == "lockstep/p1448/inline/stride4"
        assert "synchronizes" in plan.reason

    def test_below_the_lane_gate_nothing_is_built(self):
        m = compile_pattern(rn_pattern(50))
        Planner(calibration=DEFAULT_CALIBRATION, cpu_count=2).plan(
            "fullmatch", LANE_ACCEPT_MIN - 1, subject=m
        )
        assert m._min_dfa is None

    def test_contains_plans_against_the_search_automaton(self):
        m = compile_pattern("(UNION|union) +(SELECT|select) ")
        plan = self._plan(m.search_pattern(), "contains")
        assert (plan.engine, plan.kernel) == ("speculative", "stride2")
        assert m.search_pattern()._sfa is None

    @pytest.mark.parametrize("mode", ["fullmatch", "contains"])
    @pytest.mark.parametrize("n", [100, 40_000])
    def test_dfa_over_budget_raises_from_the_scan_call(self, mode, n):
        from repro.errors import StateExplosionError

        m = compile_pattern("(a|b)*a(a|b){16}", max_dfa_states=1000)
        with pytest.raises(StateExplosionError, match="subset construction"):
            getattr(m, mode)(b"ab" * (n // 2))

    def test_auto_lanes_answer_like_the_dfa(self):
        set_planner(Planner(calibration=DEFAULT_CALIBRATION, cpu_count=2))
        m = compile_pattern(rn_pattern(50))
        text = rn_accepted_text(50, 1_500_000, seed=4)
        broken = text[:123_457] + b"x" + text[123_458:]
        for t in (text, broken):
            p = resolve_plan("auto", "fullmatch", len(t), subject=m)
            assert p.engine == "speculative"
            assert m.fullmatch(t) == m.fullmatch(t, plan=Plan(engine="dfa"))
        assert m._sfa is None


# ---------------------------------------------------------------------------
# Equivalence: auto == serial python reference, bit for bit
# ---------------------------------------------------------------------------

PATTERNS = [
    "(ab)*",
    "a(a|b){4}",
    "ERROR [0-9]+",
    "(GET|POST) /[a-z]+",
    rn_pattern(3),
]

RULES = ["abc", "a[0-9]+b", "zz*top", "(GET|POST) /[a-z]+"]


def _payload(rng: random.Random, size: int) -> bytes:
    """Random text over the patterns' joint alphabet, seeded with
    matchable fragments so spans actually occur."""
    alphabet = b"ab 0123456789GETPOST/xyz"
    out = bytearray(rng.choice(alphabet) for _ in range(size))
    for frag in (b"abab", b"ERROR 42", b"GET /ab", b"a7b", b"zztop"):
        if size > 2 * len(frag):
            at = rng.randrange(size - len(frag))
            out[at:at + len(frag)] = frag
    return bytes(out)


class TestAutoEquivalence:
    def test_batch_entry_points(self):
        rng = random.Random(20130913)
        for pat in PATTERNS:
            m = compile_pattern(pat)
            for size in (0, 1, 37, 5000, 60_000):
                data = _payload(rng, size)
                ref = Plan()  # serial python reference
                assert m.fullmatch(data, plan="auto") == m.fullmatch(
                    data, plan=ref
                )
                assert m.contains(data, plan="auto") == m.contains(
                    data, plan=ref
                )
                assert list(m.finditer(data, plan="auto")) == list(
                    m.finditer(data, plan=ref)
                )
                assert m.count(data, plan="auto") == m.count(data, plan=ref)

    def test_multi_pattern(self):
        rng = random.Random(2940)
        mps = MultiPatternSet(RULES)
        for size in (0, 100, 8192, 60_000):
            data = _payload(rng, size)
            ref = Plan(engine="lockstep")  # one serial python-kernel chunk
            assert mps.matches(data, plan="auto") == mps.matches(
                data, plan=ref
            )
            assert mps.matches_any(data, plan="auto") == mps.matches_any(
                data, plan=ref
            )
            assert list(mps.finditer(data, plan="auto")) == list(
                mps.finditer(data, plan=ref)
            )

    def test_streaming_cursors(self):
        rng = random.Random(7)
        data = _payload(rng, 50_000)
        blocks = []
        at = 0
        while at < len(data):
            step = rng.randrange(1, 4096)
            blocks.append(data[at:at + step])
            at += step

        m = compile_pattern("ERROR [0-9]+")
        auto = StreamingSpanMatcher(m, plan="auto")
        out = []
        for b in blocks:
            out.extend(auto.feed(b))
        out.extend(auto.finish())
        assert out == list(m.finditer(data, plan=Plan()))

        sm = StreamMatcher(compile_pattern("(ab)*").sfa, plan="auto")
        ref = StreamMatcher(compile_pattern("(ab)*").sfa, plan=Plan())
        for b in blocks:
            sm.feed(b)
            ref.feed(b)
        assert sm.accepted() == ref.accepted()

        mm = StreamingMultiMatcher(MultiPatternSet(RULES), plan="auto")
        seen = set()
        for b in blocks:
            seen |= mm.feed(b)
        seen |= mm.finish()
        assert seen == MultiPatternSet(RULES).matches(data, plan=Plan())

    def test_legacy_positional_run_calls_still_work(self):
        # The three run functions keep their positional legacy signature.
        from repro.matching.lockstep import lockstep_run
        from repro.matching.parallel_sfa import parallel_sfa_run
        from repro.matching.speculative import speculative_run

        m = compile_pattern("(ab)*")
        classes = m.translate(b"ab" * 500)
        assert parallel_sfa_run(m.sfa, classes, 4).accepted
        assert speculative_run(m.min_dfa, classes, 4, "tree").accepted
        assert lockstep_run(m.sfa, classes, 4, "stride2").accepted


# ---------------------------------------------------------------------------
# Calibration persistence
# ---------------------------------------------------------------------------


class TestCalibration:
    def _measured(self, **kw) -> Calibration:
        base = dict(
            version=CALIBRATION_VERSION,
            cpu_count=Calibration().cpu_count or 1,
            created=time.time(),
            source="measured",
            mb_per_s={"sfa_python": 50.0, "sfa_stride4": 200.0},
            dispatch_ms={"threads": 0.1},
        )
        base.update(kw)
        base["cpu_count"] = kw.get("cpu_count", DEFAULT_CALIBRATION.cpu_count)
        return Calibration(**base)

    def test_save_load_roundtrip(self, tmp_path):
        cal = self._measured()
        path = save_calibration(cal)
        loaded = load_calibration(path)
        assert loaded is not None
        assert loaded.mb_per_s == cal.mb_per_s
        assert loaded.dispatch_ms == cal.dispatch_ms
        assert loaded.source == "measured"

    def test_missing_file_is_silent_default(self):
        assert load_calibration() is None  # no warning (filterwarnings=error)
        assert get_calibration().source == "default"

    def test_corrupt_file_warns_and_downgrades(self, tmp_path):
        path = tmp_path / "calibration.json"
        path.write_text("{this is not json")
        with pytest.warns(CalibrationWarning, match="corrupt"):
            assert load_calibration(path) is None
        with pytest.warns(CalibrationWarning):
            cal = get_calibration()
        assert cal.source == "default"
        # ... and planning still works end to end.  The memo already holds
        # this file version, so the scan proceeds without re-warning:
        m = compile_pattern("(ab)*")
        assert m.fullmatch(b"ab" * 4000, plan="auto")

    def test_stale_schema_cpu_and_age_ignored(self, tmp_path):
        for stale, match in (
            (self._measured(version=CALIBRATION_VERSION + 1), "schema"),
            (self._measured(cpu_count=DEFAULT_CALIBRATION.cpu_count + 7),
             "cores"),
            (self._measured(created=time.time() - 40 * 86400), "days ago"),
        ):
            path = save_calibration(stale, tmp_path / "stale.json")
            with pytest.warns(CalibrationWarning, match=match):
                assert load_calibration(path) is None

    def test_memoized_access_counts_hits(self):
        save_calibration(self._measured())
        reset_calibration_stats()
        assert get_calibration().source == "measured"
        assert get_calibration().source == "measured"
        stats = calibration_stats()
        assert stats["loads"] == 1  # one parse, then mtime-keyed reuse
        assert stats["hits"] == 2
        assert stats["misses"] == 0

    def test_fresh_calibrate_run_is_picked_up(self):
        assert get_calibration().source == "default"
        save_calibration(self._measured())
        assert get_calibration().source == "measured"  # no restart needed

    def test_v2_files_load_as_stale(self):
        path = save_calibration(self._measured(version=2))
        with pytest.warns(CalibrationWarning, match="schema v2"):
            assert load_calibration(path) is None

    def test_every_measured_key_is_read_by_the_planner(self, monkeypatch):
        from repro.planning.calibration import run_calibration
        from repro.planning.plan import TASKS

        # the processes dispatch is left out here: measuring it starts a
        # pool; the planner reads it for multi-core acceptance scans
        written = run_calibration(
            sample_bytes=40_000, repeat=1, measure_executors=False
        )
        read = set()
        rate, dispatch = Calibration.rate, Calibration.dispatch_s

        def spy_rate(self, key):
            read.add(key)
            return rate(self, key)

        def spy_dispatch(self, key):
            read.add(key)
            return dispatch(self, key)

        monkeypatch.setattr(Calibration, "rate", spy_rate)
        monkeypatch.setattr(Calibration, "dispatch_s", spy_dispatch)
        planner = Planner(calibration=written, cpu_count=2)
        m = compile_pattern(rn_pattern(5))
        subjects = {
            "fullmatch": m, "contains": m.search_pattern(), "spans": m,
            "multi": MultiPatternSet(RULES), "stream": m,
        }
        for task in TASKS:
            planner.plan(task, 4_000_000, subject=subjects[task])
        keys = set(written.mb_per_s) | set(written.dispatch_ms) | {"processes"}
        assert keys == read, (sorted(keys - read), sorted(read - keys))

    def test_rate_falls_back_per_key(self):
        cal = self._measured(mb_per_s={"sfa_python": 50.0})
        assert cal.rate("sfa_python") == 50.0
        assert cal.rate("sfa_stride4") == DEFAULT_CALIBRATION.mb_per_s[
            "sfa_stride4"
        ]


# ---------------------------------------------------------------------------
# CLI: repro calibrate / repro plan
# ---------------------------------------------------------------------------


class TestPlanCLI:
    def test_calibrate_then_plan_reuses_measurement(self, capsys):
        code = cli_main([
            "calibrate", "--sample-bytes", "20000", "--repeat", "1",
            "--no-executors", "--json",
        ])
        assert code == 0
        written = json.loads(capsys.readouterr().out)
        assert written["source"] == "measured"
        assert written["mb_per_s"]["sfa_stride4"] > 0

        code = cli_main(["plan", "(a|b)*a(a|b){4}", "--size", "2000000",
                         "--warm", "--json"])
        assert code == 0
        dump = json.loads(capsys.readouterr().out)
        assert dump["calibration"]["source"] == "measured"
        assert dump["plan"]["source"] == "auto"
        assert dump["plan"]["kernel"] != "vector"

    def test_plan_without_calibration_uses_defaults(self, capsys):
        code = cli_main(["plan", "(ab)*", "--json"])
        assert code == 0
        dump = json.loads(capsys.readouterr().out)
        assert dump["calibration"]["source"] == "default"

    def test_match_flags_build_exactly_the_given_plan(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.matching.engine as eng

        f = tmp_path / "in.bin"
        f.write_bytes(b"ab" * 100)
        assert cli_main(["match", "(ab)*", str(f)]) == 0  # auto default
        assert capsys.readouterr().out.strip() == "match"
        ran = []
        real = eng.CompiledPattern._run_plan

        def spy(self, p, classes, ex=None):
            ran.append(p)
            return real(self, p, classes, ex)

        monkeypatch.setattr(eng.CompiledPattern, "_run_plan", spy)
        assert cli_main(["match", "(ab)*", str(f), "--engine", "sfa",
                         "--chunks", "4"]) == 0
        assert capsys.readouterr().out.strip() == "match"
        assert ran == [Plan(engine="sfa", num_chunks=4)]


# ---------------------------------------------------------------------------
# Service surface: plan replies and stats
# ---------------------------------------------------------------------------


class TestServicePlans:
    def test_replies_and_stats_carry_plans(self):
        from tests.test_service import _ServerHandle

        handle = _ServerHandle(cache_size=8)
        try:
            with handle.client() as c:
                compiled = c.request({"op": "compile", "pattern": "(ab)*"})
                assert compiled["plan"]["summary"]
                assert compiled["plan"]["source"] == "auto"
                assert "analysis" in compiled

                legacy = c.request(
                    {"op": "match", "pattern": "(ab)*"}, b"abab"
                )
                assert legacy["match"] is True
                assert legacy["plan"] == "dfa/p1/inline/python"

                auto = c.request(
                    {"op": "match", "pattern": "(ab)*", "plan": "auto"},
                    b"ab" * 4000,
                )
                assert auto["match"] is True
                assert "/" in auto["plan"]

                spans = c.finditer("ab", b"xxabxxab", plan="auto")
                assert spans == [(2, 4), (6, 8)]

                hits = c.multiscan(["ab", "zz"], b"xxabxx", plan="auto")
                assert hits == [0]

                stats = c.stats()
                plans = stats["plans"]
                assert plans["distribution"]  # at least the scans above
                assert sum(plans["distribution"].values()) >= 4
                assert {"hits", "misses", "loads"} <= set(
                    plans["calibration"]
                )
                assert plans["plans_made"] >= 1

                bad = c.request(
                    {"op": "match", "pattern": "(ab)*", "plan": 42},
                    b"ab", check=False,
                )
                assert bad["ok"] is False
                assert bad["error"]["kind"] == "bad-request"
        finally:
            handle.stop()
