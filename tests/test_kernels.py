"""Kernel equivalence: stride/vector kernels agree with the python scan.

The kernel knob must be invisible at the language level: every kernel, on
every engine, on any chunking — including empty input, ``p > n`` and odd
stride tails — computes the same verdict and final states as the reference
per-byte loop, and the stream matchers agree with whole-input matching
under arbitrary blockings.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.dfa import DFA
from repro.automata.nfa import NFA
from repro.automata.sfa import correspondence_construction
from repro.automata.stride import StrideTable, build_stride_table
from repro.errors import AutomatonError, MatchEngineError
from repro.matching.lockstep import lockstep_run
from repro.matching.parallel_sfa import parallel_sfa_run
from repro.matching.speculative import (
    CHECK_EVERY,
    SYNC_ROW_BUDGET,
    speculative_run,
    sync_lanes_run,
)
from repro.matching.stream import ParallelStreamMatcher, StreamMatcher
from repro.parallel.chunking import (
    PITCH_PAD_MIN,
    clamp_chunks,
    lockstep_layout,
)
from repro.parallel.executor import ProcessExecutor, SerialExecutor
from repro.parallel.scan import (
    KERNELS,
    lane_table,
    run_scan,
    sfa_scan,
    sfa_scan_vector,
    transform_scan,
    transform_scan_vector,
)
from repro.planning.plan import Plan
from repro.regex.charclass import pack_stride
from repro.workloads.patterns import FIG10_PATTERN, rn_pattern
from repro.workloads.textgen import rn_accepted_text

from repro import compile_pattern

from .conftest import compiled

PATTERNS = [
    "(ab)*",
    "(a|b)*abb",
    "a*b+a?",
    "([0-9][0-9])*",
    "(GET|POST) /[a-z]{1,8}",
]

STRIDE_KERNELS = ("stride2", "stride4")


# ---------------------------------------------------------------------------
# Stride table construction + packing
# ---------------------------------------------------------------------------


class TestStrideTable:
    def test_matches_stepwise_walk(self, rng):
        m = compiled("(a|b)*abb")
        for stride in (2, 4):
            stt = m.sfa.stride_table(stride)
            assert isinstance(stt, StrideTable)
            word = rng.integers(0, m.sfa.num_classes, size=4 * stride).astype(np.uint8)
            base = sfa_scan(m.sfa.table, m.sfa.initial, word)
            packed, tail = stt.pack(word)
            assert len(tail) == 0
            assert sfa_scan(stt.table, m.sfa.initial, packed) == base

    def test_budget_cap_returns_none(self):
        table = np.zeros((4, 7), dtype=np.int32)
        assert build_stride_table(table, 4, max_table_bytes=1000) is None
        assert build_stride_table(table, 4) is not None

    def test_unsupported_stride(self):
        with pytest.raises(AutomatonError):
            build_stride_table(np.zeros((1, 2), dtype=np.int32), 3)

    def test_cached_on_automaton(self):
        m = compiled("(ab)*")
        assert m.sfa.stride_table(2) is m.sfa.stride_table(2)
        assert m.min_dfa.stride_table(4) is m.min_dfa.stride_table(4)
        # the over-budget outcome is cached too
        assert m.sfa.stride_table(4, max_table_bytes=1) is None

    def test_symbol_encoding_is_big_endian(self):
        # δ over "c0 then c1" must sit at symbol c0*k + c1.
        k = 3
        table = np.array([[1, 2, 0], [2, 0, 1], [0, 1, 2]], dtype=np.int32)
        stt = build_stride_table(table, 2)
        for q in range(3):
            for c0 in range(k):
                for c1 in range(k):
                    assert stt.table[q, c0 * k + c1] == table[table[q, c0], c1]

    @given(n=st.integers(0, 17), stride=st.sampled_from((2, 4)), k=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_pack_stride_roundtrip(self, n, stride, k):
        rng = np.random.default_rng(n * 31 + stride)
        classes = rng.integers(0, k, size=n).astype(np.uint8)
        packed, tail = pack_stride(classes, k, stride)
        assert len(tail) == n % stride
        assert len(packed) == n // stride
        # decode big-endian digits back to the original class stream
        decoded = []
        for sym in packed.tolist():
            digits = []
            for _ in range(stride):
                digits.append(sym % k)
                sym //= k
            decoded.extend(reversed(digits))
        assert decoded + tail.tolist() == classes.tolist()


    @staticmethod
    def _pack_int32_reference(classes, k, stride):
        """``pack_stride`` as it was: an int32 (int64 past 2**31)
        accumulator, narrowed to uint8 afterwards when k**stride <= 256."""
        m = len(classes) // stride
        body = classes[: m * stride]
        width = k**stride
        acc = body[0::stride].astype(np.int64 if width > 2**31 else np.int32)
        for j in range(1, stride):
            acc *= k
            acc += body[j::stride]
        return acc, classes[m * stride:]

    @pytest.mark.parametrize("k", [1, 3, 16, 17, 255, 256])
    @pytest.mark.parametrize("stride", [2, 4])
    @pytest.mark.parametrize("tail", [0, 1, 3])
    def test_pack_stride_matches_int32_accumulator(self, k, stride, tail):
        rng = np.random.default_rng(k * 10 + stride)
        classes = rng.integers(0, k, size=64 * stride + tail).astype(np.uint8)
        classes[:stride] = k - 1  # the largest symbol, k**stride - 1
        packed, rest = pack_stride(classes, k, stride)
        ref, ref_rest = self._pack_int32_reference(classes, k, stride)
        np.testing.assert_array_equal(packed, ref)
        np.testing.assert_array_equal(rest, ref_rest)
        width = k**stride
        expect = (np.uint8 if width <= 256 else np.uint16 if width <= 65536
                  else np.int64 if width > 2**31 else np.int32)
        assert packed.dtype == expect


# ---------------------------------------------------------------------------
# Scan-function equivalence (direct, below the engines)
# ---------------------------------------------------------------------------


class TestScanFunctions:
    @pytest.mark.parametrize("length", [0, 1, 5, 255, 256, 257, 1000])
    def test_vector_matches_python(self, rng, length):
        m = compiled("(a|b)*abb")
        classes = rng.integers(0, m.sfa.num_classes, size=length).astype(np.uint8)
        assert sfa_scan_vector(m.sfa.table, m.sfa.initial, classes) == sfa_scan(
            m.sfa.table, m.sfa.initial, classes
        )
        np.testing.assert_array_equal(
            transform_scan_vector(m.min_dfa.table, classes),
            transform_scan(m.min_dfa.table, classes),
        )

    def test_run_scan_dispatch(self, rng):
        m = compiled("(ab)*")
        classes = rng.integers(0, m.sfa.num_classes, size=40).astype(np.uint8)
        base = run_scan("sfa", m.sfa.table, m.sfa.initial, classes)
        for kernel in KERNELS:
            # stride names run the reference loop on whatever table is given
            assert run_scan("sfa", m.sfa.table, m.sfa.initial, classes, kernel) == base
        with pytest.raises(MatchEngineError):
            run_scan("sfa", m.sfa.table, 0, classes, kernel="simd")

    def test_non_uint8_streams(self):
        # packed streams wider than a byte walk through the tolist path
        m = compiled("(ab)*")
        classes = m.translate(b"abab").astype(np.int32)
        assert sfa_scan(m.sfa.table, m.sfa.initial, classes) == sfa_scan(
            m.sfa.table, m.sfa.initial, classes.astype(np.uint8)
        )


# ---------------------------------------------------------------------------
# Engine-level equivalence on random inputs
# ---------------------------------------------------------------------------


@given(
    data=st.binary(max_size=300),
    p=st.integers(1, 9),
    pattern=st.sampled_from(PATTERNS),
)
@settings(max_examples=40, deadline=None)
def test_parallel_sfa_kernels_agree(data, p, pattern):
    m = compiled(pattern)
    classes = m.translate(data)
    base = parallel_sfa_run(m.sfa, classes, p)
    for kernel in KERNELS:
        res = parallel_sfa_run(m.sfa, classes, p, kernel=kernel)
        assert res.accepted == base.accepted
        assert res.final_states == base.final_states


@given(
    data=st.binary(max_size=300),
    p=st.integers(1, 9),
    pattern=st.sampled_from(PATTERNS),
)
@settings(max_examples=25, deadline=None)
def test_speculative_kernels_agree(data, p, pattern):
    m = compiled(pattern)
    classes = m.translate(data)
    base = speculative_run(m.min_dfa, classes, p)
    for kernel in KERNELS:
        res = speculative_run(m.min_dfa, classes, p, kernel=kernel)
        assert res.accepted == base.accepted
        assert res.final_state == base.final_state


@given(
    data=st.binary(max_size=300),
    p=st.integers(1, 9),
    pattern=st.sampled_from(PATTERNS),
)
@settings(max_examples=25, deadline=None)
def test_lockstep_kernels_agree(data, p, pattern):
    m = compiled(pattern)
    classes = m.translate(data)
    base = lockstep_run(m.sfa, classes, p)
    for kernel in KERNELS:
        res = lockstep_run(m.sfa, classes, p, kernel=kernel)
        assert res.accepted == base.accepted
        assert res.final_states == base.final_states


def _random_dsfa(seed: int, n: int, k: int):
    rng = np.random.default_rng(seed)
    dfa = DFA(rng.integers(0, n, size=(n, k)), 0, rng.random(n) < 0.5)
    return correspondence_construction(dfa), dfa


def _random_nsfa(seed: int, n: int, k: int):
    rng = np.random.default_rng(seed)
    trans = [[int(rng.integers(0, 1 << n)) for _ in range(k)] for _ in range(n)]
    nfa = NFA(n, k, trans, 1, int(rng.integers(1, 1 << n)))
    return correspondence_construction(nfa), nfa


def _chunk_states_reference(sfa, classes, p, kernel):
    """Per-chunk :func:`sfa_scan` (the python loop) over the chunks the
    lockstep engine lays out: equal chunks of the packed stream, the
    ``< p`` tail on the last one, then the ``< stride`` leftover on the
    base table."""
    table, packed, leftover = sfa.table, classes, classes[:0]
    if kernel != "python":
        st = sfa.stride_table(int(kernel[-1]))
        table = st.table
        packed, leftover = st.pack(classes)
    p = clamp_chunks(len(packed), p)
    block, tail = lockstep_layout(packed, p)
    states = [sfa_scan(table, sfa.initial, block[:, i]) for i in range(p)]
    states[-1] = sfa_scan(table, states[-1], tail)
    states[-1] = sfa_scan(sfa.table, states[-1], leftover)
    return states, len(block) + len(tail) + len(leftover)


class TestLaneLockstep:
    """The lockstep engine over narrow, cached lane tables against the
    references: the serial automaton's verdict, ``parallel_sfa_run``'s
    final states (both independent of the chunking) and a per-chunk
    python loop over the same chunks."""

    LENGTHS = (0, 1, 2, 3, 5, 17, 64, 255, 1001, 1002, 1003, 1004)

    def _check(self, sfa, accepts, classes, kernel):
        n = len(classes)
        final = parallel_sfa_run(sfa, classes, 3).final_states
        for p in sorted({1, 2, max(1, math.isqrt(n)), max(1, n), n + 3}):
            res = lockstep_run(sfa, classes, p, kernel)
            states, steps = _chunk_states_reference(sfa, classes, p, kernel)
            assert res.accepted == accepts, (kernel, p)
            assert res.final_states == final, (kernel, p)
            assert res.chunk_states == states, (kernel, p)
            assert res.steps == steps, (kernel, p)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kernel", ("python", "stride2", "stride4"))
    def test_random_dsfa(self, seed, kernel):
        sfa, dfa = _random_dsfa(seed, 3 + seed % 2, 2 + seed % 2)
        rng = np.random.default_rng(seed)
        for n in self.LENGTHS:
            classes = rng.integers(0, dfa.num_classes, size=n).astype(np.uint8)
            self._check(sfa, dfa.accepts_classes(classes), classes, kernel)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kernel", ("python", "stride2", "stride4"))
    def test_random_nsfa(self, seed, kernel):
        sfa, nfa = _random_nsfa(seed, 3, 2)
        assert sfa.kind == "N-SFA"
        rng = np.random.default_rng(seed)
        for n in self.LENGTHS:
            classes = rng.integers(0, 2, size=n).astype(np.uint8)
            self._check(sfa, nfa.accepts_classes(classes), classes, kernel)

    @pytest.mark.parametrize("pattern, kernel, dtype, text", [
        ("(ab)*", "python", np.uint8, b"ab" * 50),
        (rn_pattern(5), "stride4", np.uint16, rn_accepted_text(5, 4099, seed=3)),
        (rn_pattern(50), "stride4", np.uint32, rn_accepted_text(50, 4099, seed=3)),
    ], ids=["uint8", "uint16", "uint32"])
    def test_lane_table_dtypes(self, pattern, kernel, dtype, text):
        m = compiled(pattern)
        owner = m.sfa if kernel == "python" else m.sfa.stride_table(4)
        classes = m.translate(text)
        self._check(m.sfa, m.fullmatch(text, plan=Plan()), classes, kernel)
        lanes = lane_table(owner)
        assert lanes.dtype == dtype
        assert lane_table(owner) is lanes  # built once, kept on its owner
        np.testing.assert_array_equal(
            lanes, owner.table.astype(np.int64).ravel() * owner.table.shape[1]
        )

    def test_wide_symbol_streams(self):
        # class streams wider than the lane table's dtype are cast, exactly
        m = compiled("(a|b)*abb")
        classes = m.translate(b"ab" * 40 + b"abb")
        for kernel in ("python", "stride2", "stride4"):
            for dt in (np.int32, np.int64):
                res = lockstep_run(m.sfa, classes.astype(dt), 9, kernel)
                ref = lockstep_run(m.sfa, classes, 9, kernel)
                assert res == ref

    def test_no_boxed_stride_list(self):
        # the < p tail and the < stride leftover walk arrays: the engine
        # builds no boxed-int list of the (large) stride table
        from repro import compile_pattern
        from repro.parallel.scan import _FLAT_CACHE

        m = compile_pattern(rn_pattern(5))  # fresh tables, nothing cached
        st = m.sfa.stride_table(4)
        classes = m.translate(rn_accepted_text(5, 10_003, seed=4))
        lockstep_run(m.sfa, classes, 7, "stride4")
        hit = _FLAT_CACHE.get(id(st.table))
        assert hit is None or hit[0]() is not st.table


def _sync_dfa(seed: int, n: int, k: int, sinks: int = 0, permutation=False):
    """A random complete DFA whose last ``sinks`` states are absorbing.

    ``permutation``: every class permutes the non-absorbing states (no two
    runs ever merge); else the targets are random.
    """
    rng = np.random.default_rng(seed)
    live = n - sinks
    if permutation:
        table = np.stack([rng.permutation(live) for _ in range(k)], axis=1)
    else:
        table = rng.integers(0, n, size=(live, k))
    table = np.vstack([table, np.repeat(np.arange(live, n), k).reshape(-1, k)])
    return DFA(table.astype(np.int32), 0, rng.random(n) < 0.5)


class TestSyncLanes:
    """Algorithm 3 in collapsing lanes (``sync_lanes_run``) against the
    serial DFA: the verdict and the final state, on every layout."""

    LENGTHS = (0, 1, 2, 3, 5, 17, 64, 255, 1001, 1002, 1003, 1004)

    @staticmethod
    def _check(dfa, classes, kernel, **kw):
        n = len(classes)
        want = dfa.run_classes(classes)
        results = []
        for p in sorted({1, 2, max(1, math.isqrt(n)), max(1, n), n + 3}):
            res = sync_lanes_run(dfa, classes, p, kernel, **kw)
            assert res.final_state == want, (kernel, p, n)
            assert res.accepted == bool(dfa.accept[want]), (kernel, p, n)
            results.append(res)
        return results

    @pytest.mark.parametrize("kernel", ("python", "stride2", "stride4"))
    @pytest.mark.parametrize("shape", [
        (4, 2, 0, False), (6, 3, 1, False), (7, 2, 2, False),
        (5, 2, 0, True), (6, 3, 1, True), (8, 2, 2, True), (1, 3, 0, False),
        (1, 2, 1, False), (3, 1, 1, False),
    ], ids=["rand0", "rand1", "rand2", "perm0", "perm1", "perm2", "one",
            "one-sink", "unary"])
    def test_random_dfas(self, kernel, shape):
        n, k, sinks, perm = shape
        for seed in range(4):
            dfa = _sync_dfa(seed, n, k, sinks, perm)
            rng = np.random.default_rng(seed)
            for length in self.LENGTHS:
                classes = rng.integers(0, k, size=length).astype(np.uint8)
                self._check(dfa, classes, kernel)

    @pytest.mark.parametrize("kernel", ("python", "stride2", "stride4"))
    def test_compiled_patterns(self, kernel):
        # minimal DFAs with a dead state (fullmatch) and an accepting sink
        # (contains), on words, near-words and random bytes
        rng = np.random.default_rng(7)
        for pattern in PATTERNS:
            m = compiled(pattern)
            for sub in (m, m.search_pattern()):
                for text in (b"ab" * 300 + b"abb", b"12" * 400 + b"GET /ab",
                             rng.integers(0, 256, 777).astype(np.uint8).tobytes()):
                    self._check(sub.min_dfa, sub.translate(text), kernel)

    @pytest.mark.parametrize("kernel", ("stride2", "stride4"))
    @pytest.mark.parametrize("extra", [1, 2, 3])
    def test_stride_tails(self, kernel, extra):
        m = compiled(rn_pattern(3))
        text = rn_accepted_text(3, 600, seed=2)
        for t in (text, text + b"0" * extra, text[:-extra]):
            self._check(m.min_dfa, m.translate(t), kernel)

    def test_empty_input(self):
        m = compiled("(ab)*")
        for kernel in ("python", "stride2", "stride4"):
            res = sync_lanes_run(m.min_dfa, m.translate(b""), 4, kernel)
            assert res.accepted and res.final_state == m.min_dfa.initial

    def test_late_resolution(self):
        # r_12 runs die one by one until the text's class changes: lanes
        # starting deep in a run resolve only after ~12 symbols
        m = compiled(rn_pattern(12))
        dfa = m.min_dfa
        assert dfa.sync_fact().holds
        text = rn_accepted_text(12, 200_000, seed=5)
        for kernel in ("python", "stride4"):
            for t in (text, text[:99_999] + b"7" + text[100_000:]):
                classes = m.translate(t)
                res = sync_lanes_run(dfa, classes, 200, kernel)
                assert res.accepted == m.fullmatch(t, plan=Plan())
                assert not res.handed_over
                stride = 4 if kernel == "stride4" else 1
                # resolved by dropping the runs that died, long before the
                # block ends
                assert 12 // stride <= res.collapse_rows <= 12 // stride + CHECK_EVERY
                assert res.entry_rows > 0

    def test_unresolved_lanes_hand_over(self):
        # Fig. 10's runs never merge: past the row budget the scan moves
        # to the D-SFA, which is built only then
        m = compile_pattern(FIG10_PATTERN)
        dfa = m.min_dfa
        assert not dfa.sync_fact().holds
        text = b"0123456789" * 10_000
        classes = m.translate(text)
        want = m.fullmatch(text, plan=Plan())
        built = []

        def handover():
            built.append(1)
            return m.sfa

        for kernel in ("python", "stride4"):
            res = sync_lanes_run(dfa, classes, 100, kernel, handover=handover)
            assert res.handed_over and res.accepted == want
            assert res.collapse_rows >= SYNC_ROW_BUDGET
        assert len(built) == 2
        # without a D-SFA the scan runs chunk by chunk (speculative_run)
        for kernel in ("python", "stride4"):
            res = sync_lanes_run(dfa, classes, 100, kernel)
            assert res.handed_over and res.accepted == want
            assert res.final_state == dfa.run_classes(classes)
        # a resolving text never hands over
        res = sync_lanes_run(compiled(rn_pattern(5)).min_dfa,
                             compiled(rn_pattern(5)).translate(
                                 rn_accepted_text(5, 100_000, seed=1)),
                             100, "stride4", handover=handover)
        assert not res.handed_over and len(built) == 2

    def test_explicit_plan_never_builds_the_dsfa(self):
        # an explicit speculative plan whose lanes do not resolve runs
        # chunk by chunk, in O(|D|) memory, as before lanes: only an auto
        # plan (which would have built it anyway) hands over to the D-SFA
        m = compile_pattern(FIG10_PATTERN)
        text = b"0123456789" * 10_000  # 1,000 rows of 100 lanes
        for t in (text, text[:54_321] + b"1" + text[54_322:]):
            want = m.fullmatch(t, plan=Plan(engine="dfa"))
            for kernel in ("python", "stride4"):
                plan = Plan(engine="speculative", kernel=kernel, num_chunks=100)
                assert m.fullmatch(t, plan=plan) == want
        assert m._sfa is None

    def test_too_many_entries_hand_over_at_once(self, monkeypatch):
        import repro.matching.speculative as spec

        monkeypatch.setattr(spec, "SYNC_ENTRY_BUDGET", 50)
        m = compiled(rn_pattern(5))
        text = rn_accepted_text(5, 40_000, seed=3)
        res = sync_lanes_run(m.min_dfa, m.translate(text), 60, "stride4",
                             handover=lambda: m.sfa)
        assert res.handed_over and res.collapse_rows == 0 and res.accepted

    def test_permutation_texts_hand_over(self):
        dfa = _sync_dfa(3, 6, 2, 0, permutation=True)
        rng = np.random.default_rng(3)
        classes = rng.integers(0, 2, size=50_000).astype(np.uint8)
        sfa = correspondence_construction(dfa)
        res = sync_lanes_run(dfa, classes, 50, "stride2", handover=lambda: sfa)
        assert res.handed_over
        assert res.final_state == dfa.run_classes(classes)

    # A, B live and D dead: x swaps A and B, y kills B, z is the identity.
    ABD = DFA(np.array([[1, 0, 0], [0, 2, 1], [2, 2, 2]], dtype=np.int32), 0,
              np.array([True, False, False]))

    def test_lane_entries_stay_apart(self):
        # lane 2 never resolves (x and z keep A and B apart) while lane 1
        # resolves at once on y; the lanes' runs must not mix at their
        # boundary, so the collapse lasts the whole block
        lanes = [[2] * 8, [1] + [2] * 7, [2, 2, 2, 2, 0, 2, 2, 2]]
        classes = np.array(sum(lanes, []), dtype=np.uint8)
        res = sync_lanes_run(self.ABD, classes, 3, "python")
        assert res.final_state == self.ABD.run_classes(classes) == 1
        assert res.collapse_rows == 8

    def test_reduction_stops_at_unmerged_run(self):
        # lane 1 resolves to A (y kills B), but lane 0 leaves B: that run
        # dies in lane 1, so D is final although lane 1's own state lives
        lanes = [[0] + [2] * 7, [1] + [2] * 7]
        classes = np.array(sum(lanes, []), dtype=np.uint8)
        res = sync_lanes_run(self.ABD, classes, 2, "python")
        assert res.collapse_rows < 8
        assert res.final_state == self.ABD.run_classes(classes) == 2
        assert not res.accepted

    def test_reduction_stops_at_accepting_sink(self):
        # contains: the lane holding the match reaches the accepting sink
        # and the reduction stops there; without the match every lane
        # resolves to a live state
        m = compiled("ERROR [0-9]+").search_pattern()
        text = b"ok fine " * 5000
        hit = text[:9_000] + b"ERROR 42" + text[9_000:]
        for kernel in ("python", "stride2", "stride4"):
            for t, want in ((hit, True), (text, False)):
                classes = m.translate(t)
                res = sync_lanes_run(m.min_dfa, classes, 20, kernel)
                assert res.accepted is want and not res.handed_over
                assert res.final_state == m.min_dfa.run_classes(classes)

    def test_reduction_stops_at_absorbing_state(self):
        # two absorbing states: lane 7's runs all die in
        # the dead state and the reduction stops there, while later lanes'
        # runs reach the accepting sink
        m = compiled(r"(ab)*c[\x00-\xff]*")
        dfa = m.min_dfa
        assert int(dfa.absorbing_mask().sum()) == 2
        p, chunk = 16, 400
        text = bytearray(b"ab" * (p * chunk // 2))
        text[7 * chunk + 100] = ord("b")  # "bb": dead
        text[12 * chunk + 50] = ord("c")  # later: would accept
        classes = m.translate(bytes(text))
        for kernel in ("python", "stride2", "stride4"):
            res = sync_lanes_run(dfa, classes, p, kernel)
            assert res.final_state == dfa.run_classes(classes)
            assert not res.accepted
            assert dfa.absorbing_mask()[res.final_state]
        text[7 * chunk + 100] = ord("a")
        classes = m.translate(bytes(text))
        for kernel in ("python", "stride2", "stride4"):
            res = sync_lanes_run(dfa, classes, p, kernel)
            assert res.accepted and res.final_state == dfa.run_classes(classes)


class TestLayoutPitch:
    """``lockstep_layout`` never lays rows a power of two bytes apart
    (of 1 KiB or more), and its values never change."""

    @pytest.mark.parametrize("dtype", (np.uint8, np.uint16))
    @pytest.mark.parametrize("k", (5, 6))
    def test_no_power_of_two_pitch(self, dtype, k):
        size = np.dtype(dtype).itemsize
        p = PITCH_PAD_MIN // size * 2 ** (k - 5)
        for n in (p * p - 1, p * p, p * p + 1, p * (p + 3)):
            classes = (np.arange(n) % 251).astype(dtype)
            block, tail = lockstep_layout(classes, p)
            m = n // p
            assert block.shape == (m, p)
            pitch = block.strides[0]
            assert pitch >= p * size
            assert pitch & (pitch - 1) != 0 or pitch < PITCH_PAD_MIN
            np.testing.assert_array_equal(
                block, classes[: m * p].reshape(p, m).T
            )
            np.testing.assert_array_equal(tail, classes[m * p:])

    def test_short_rows_are_not_padded(self):
        classes = np.arange(64 * 64, dtype=np.uint8)
        block, _ = lockstep_layout(classes, 64)
        assert block.flags.c_contiguous
        block, _ = lockstep_layout(classes, 1)
        assert block.flags.c_contiguous and block.shape == (64 * 64, 1)

    @pytest.mark.parametrize("delta", (-1, 0, 1))
    def test_results_at_powers_of_four(self, delta):
        # 4^k ± 1 packed stride-4 symbols in 2^k lanes (k = 9: 512 lanes of
        # uint16 symbols, a 1 KiB pitch)
        m = compiled(rn_pattern(5))
        packed = 4 ** 9 + delta
        text = rn_accepted_text(5, packed * 4, seed=9)
        classes = m.translate(text)
        want = m.min_dfa.run_classes(classes)
        res = lockstep_run(m.sfa, classes, 2 ** 9, "stride4")
        states, _ = _chunk_states_reference(m.sfa, classes, 2 ** 9, "stride4")
        assert res.chunk_states == states
        assert res.accepted == bool(m.min_dfa.accept[want])
        sync = sync_lanes_run(m.min_dfa, classes, 2 ** 9, "stride4")
        assert sync.final_state == want


class TestKernelEdgeCases:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_empty_input(self, kernel):
        m = compiled("(ab)*")
        classes = m.translate(b"")
        assert parallel_sfa_run(m.sfa, classes, 4, kernel=kernel).accepted
        assert speculative_run(m.min_dfa, classes, 4, kernel=kernel).accepted
        assert lockstep_run(m.sfa, classes, 4, kernel=kernel).accepted

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("length", [1, 2, 3, 5, 7])
    def test_more_chunks_than_symbols(self, kernel, length):
        # p > n must clamp, not ship empty chunks or degenerate blocks
        m = compiled("a*b+a?")
        word = b"a" * (length - 1) + b"b"
        classes = m.translate(word)
        expected = m.fullmatch(word, plan=Plan())
        res = parallel_sfa_run(m.sfa, classes, 50, kernel=kernel)
        assert res.accepted == expected
        assert res.num_chunks <= max(1, len(classes))
        assert lockstep_run(m.sfa, classes, 50, kernel=kernel).accepted == expected
        assert speculative_run(m.min_dfa, classes, 50, kernel=kernel).accepted == expected

    @pytest.mark.parametrize("kernel", STRIDE_KERNELS)
    @pytest.mark.parametrize("tail", [0, 1, 2, 3])
    def test_odd_stride_tails(self, kernel, tail):
        m = compiled("(a|b)*abb")
        word = b"ab" * 10 + b"abb"[: tail or 3]
        for w in (word, word + b"b" * tail):
            classes = m.translate(w)
            res = parallel_sfa_run(m.sfa, classes, 3, kernel=kernel)
            assert res.accepted == m.fullmatch(w, plan=Plan())

    def test_unknown_kernel_rejected(self):
        m = compiled("(ab)*")
        classes = m.translate(b"ab")
        with pytest.raises(MatchEngineError):
            parallel_sfa_run(m.sfa, classes, 2, kernel="simd")
        with pytest.raises(MatchEngineError):
            speculative_run(m.min_dfa, classes, 2, kernel="simd")
        with pytest.raises(MatchEngineError):
            lockstep_run(m.sfa, classes, 2, kernel="simd")
        with pytest.raises(MatchEngineError):
            StreamMatcher(m.sfa, plan=Plan(kernel="simd"))

    def test_engine_api_kernel_knob(self):
        m = compiled("(a|b)*abb")
        for data in (b"", b"abb", b"ab" * 40 + b"b"):
            expected = m.fullmatch(data, plan=Plan())
            for kernel in KERNELS:
                for engine in ("speculative", "sfa", "lockstep"):
                    assert (
                        m.fullmatch(data, plan=Plan(engine=engine, num_chunks=3, kernel=kernel))
                        == expected
                    )


# ---------------------------------------------------------------------------
# Chunk clamping + executor dispatch
# ---------------------------------------------------------------------------


class TestClamping:
    def test_clamp_chunks(self):
        assert clamp_chunks(10, 4) == 4
        assert clamp_chunks(3, 50) == 3
        assert clamp_chunks(0, 5) == 1
        with pytest.raises(MatchEngineError):
            clamp_chunks(10, 0)

    def test_no_empty_spans_dispatched(self):
        m = compiled("(ab)*")
        classes = m.translate(b"ababab")
        res = parallel_sfa_run(m.sfa, classes, 50)
        assert res.num_chunks == len(classes)
        assert res.accepted

    def test_process_executor_skips_empty_spans(self):
        m = compiled("(ab)*")
        classes = m.translate(b"abab")
        spans = [(0, 0), (0, 2), (2, 2), (2, 4), (4, 4)]
        with ProcessExecutor(2) as ex:
            got = ex.scan("sfa", m.sfa.table, m.sfa.initial, classes, spans)
            assert got == SerialExecutor().scan(
                "sfa", m.sfa.table, m.sfa.initial, classes, spans
            )
            # an all-empty scan never publishes or dispatches anything
            before = len(ex.published_segment_names())
            out = ex.scan(
                "transform", m.min_dfa.table, 0, classes[:0], [(0, 0), (0, 0)]
            )
            assert len(ex.published_segment_names()) == before
        assert all(
            np.array_equal(t, np.arange(m.min_dfa.num_states)) for t in out
        )


# ---------------------------------------------------------------------------
# Stream matchers under random blockings
# ---------------------------------------------------------------------------


@given(
    data=st.binary(max_size=200),
    cuts=st.lists(st.integers(0, 200), max_size=6),
    pattern=st.sampled_from(PATTERNS),
    kernel=st.sampled_from(KERNELS),
)
@settings(max_examples=40, deadline=None)
def test_stream_matchers_agree_with_fullmatch(data, cuts, pattern, kernel):
    m = compiled(pattern)
    expected = m.fullmatch(data, plan=Plan())
    bounds = sorted({0, len(data), *[c % (len(data) + 1) for c in cuts]})
    blocks = [data[a:b] for a, b in zip(bounds, bounds[1:])]
    cur = StreamMatcher(m.sfa, plan=Plan(kernel=kernel))
    par = ParallelStreamMatcher(m.sfa, plan=Plan(num_chunks=3, kernel=kernel))
    for block in blocks:
        cur.feed(block)
        par.feed(block)
    assert cur.accepted() == expected
    assert par.accepted() == expected
    assert cur.bytes_consumed == len(data)
    assert par.bytes_consumed == len(data)


class TestStreamZeroCopy:
    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_feed_accepts_buffer_types(self, wrap):
        m = compiled("(ab)*")
        for matcher in (
            StreamMatcher(m.sfa), ParallelStreamMatcher(m.sfa, plan=Plan(num_chunks=4))
        ):
            matcher.feed(wrap(b"abab")).feed(wrap(b"")).feed(wrap(b"ab"))
            assert matcher.accepted()
            assert matcher.bytes_consumed == 6

    def test_translate_zero_copy_buffer_types(self):
        m = compiled("(ab)*")
        for wrap in (bytes, bytearray, memoryview):
            np.testing.assert_array_equal(
                m.translate(wrap(b"abxy")), m.translate(b"abxy")
            )

    def test_non_contiguous_memoryview_still_works(self):
        # strided views cannot go through frombuffer; the copy fallback must
        m = compiled("(ab)*")
        view = memoryview(b"aXbXaXbX")[::2]
        np.testing.assert_array_equal(m.translate(view), m.translate(b"abab"))
        cur = StreamMatcher(m.sfa)
        cur.feed(view)
        assert cur.accepted() and cur.bytes_consumed == 4
