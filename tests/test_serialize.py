"""Automaton persistence round-trips and validation."""

import io
import json

import numpy as np
import pytest

from repro.automata.serialize import (
    FORMAT_VERSION,
    load_dfa,
    load_ruleset,
    load_sfa,
    save_dfa,
    save_ruleset,
    save_sfa,
)
from repro.errors import AutomatonError
from repro.matching.multi import MultiPatternSet
from repro.planning.plan import Plan

from .conftest import compiled


def roundtrip_dfa(dfa):
    buf = io.BytesIO()
    save_dfa(dfa, buf)
    buf.seek(0)
    return load_dfa(buf)


def roundtrip_sfa(sfa):
    buf = io.BytesIO()
    save_sfa(sfa, buf)
    buf.seek(0)
    return load_sfa(buf)


class TestDFARoundTrip:
    @pytest.mark.parametrize("pattern", ["(ab)*", "(a|b)*abb", "[0-9]{2,4}"])
    def test_language_preserved(self, pattern):
        m = compiled(pattern)
        loaded = roundtrip_dfa(m.min_dfa)
        for w in [b"", b"ab", b"abb", b"42", b"1234", b"x", b"abab"]:
            assert loaded.accepts(w) == m.min_dfa.accepts(w), (pattern, w)

    def test_exact_tables(self):
        m = compiled("(ab)*")
        loaded = roundtrip_dfa(m.min_dfa)
        assert (loaded.table == m.min_dfa.table).all()
        assert (loaded.accept == m.min_dfa.accept).all()
        assert loaded.initial == m.min_dfa.initial
        assert (loaded.partition.classmap == m.min_dfa.partition.classmap).all()

    def test_to_file(self, tmp_path):
        m = compiled("(ab)*")
        path = str(tmp_path / "abstar_dfa.npz")
        save_dfa(m.min_dfa, path)
        loaded = load_dfa(path)
        assert loaded.accepts(b"abab")

    def test_symbolic_dfa_without_partition(self):
        from repro.theory.witness import ex4_dfa

        loaded = roundtrip_dfa(ex4_dfa(3))
        assert loaded.partition is None
        assert loaded.num_states == 3


class TestSFARoundTrip:
    @pytest.mark.parametrize("pattern", ["(ab)*", "(a|b)*abb"])
    def test_dsfa_language_preserved(self, pattern):
        m = compiled(pattern)
        loaded = roundtrip_sfa(m.sfa)
        for w in [b"", b"ab", b"abb", b"abab", b"ba"]:
            assert loaded.accepts(w) == m.sfa.accepts(w)

    def test_nsfa_roundtrip(self):
        m = compiled("(ab)*")
        loaded = roundtrip_sfa(m.nsfa)
        assert loaded.kind == "N-SFA"
        assert loaded.accepts(b"abab")
        assert not loaded.accepts(b"aba")

    def test_parallel_run_on_loaded(self):
        from repro.matching.lockstep import lockstep_run

        m = compiled("(ab)*")
        loaded = roundtrip_sfa(m.sfa)
        classes = loaded.partition.translate(b"ab" * 50)
        assert lockstep_run(loaded, classes, 8).accepted

    def test_mapping_payload_preserved(self):
        m = compiled("(a|b)*abb")
        loaded = roundtrip_sfa(m.sfa)
        assert (loaded.maps == m.sfa.maps).all()
        assert (loaded.origin_final == m.sfa.origin_final).all()


RULESET_RULES = [("abc", False), ("a[0-9]+b", True), "(GET|POST) /x", "zz*top"]

RULESET_PAYLOADS = [
    b"", b"abc", b"A987B", b"a987b", b"GET /x", b"zztop",
    b"junk ABC junk a12b zzztop GET /x END",
]


def roundtrip_ruleset(mps, **kw):
    buf = io.BytesIO()
    save_ruleset(mps, buf, **kw)
    buf.seek(0)
    return load_ruleset(buf)


class TestRulesetRoundTrip:
    def test_matches_preserved(self):
        mps = MultiPatternSet(RULESET_RULES)
        loaded = roundtrip_ruleset(mps)
        for data in RULESET_PAYLOADS:
            assert loaded.matches(data) == mps.matches(data), data
            assert loaded.matches(data, plan=Plan(num_chunks=4, kernel="stride2")) == \
                mps.matches(data), data

    def test_sources_and_flags_preserved(self):
        mps = MultiPatternSet(RULESET_RULES, mode="search")
        loaded = roundtrip_ruleset(mps)
        assert loaded.patterns == mps.patterns
        assert loaded.rule_flags == [False, True, False, False]
        assert loaded.mode == "search"
        assert loaded.rule_sets == mps.rule_sets
        assert (loaded.dfa.table == mps.dfa.table).all()
        assert (loaded.partition.classmap == mps.partition.classmap).all()

    def test_sfa_lazy_by_default(self):
        mps = MultiPatternSet(RULESET_RULES)
        assert roundtrip_ruleset(mps)._sfa is None  # never built, not saved
        mps.sfa  # build it -> included by default
        loaded = roundtrip_ruleset(mps)
        assert loaded._sfa is not None
        assert (loaded.sfa.maps == mps.sfa.maps).all()
        # and explicitly excludable even when built
        assert roundtrip_ruleset(mps, include_sfa=False)._sfa is None

    def test_fullmatch_mode(self):
        mps = MultiPatternSet(["(ab)*", "a+"], mode="fullmatch")
        loaded = roundtrip_ruleset(mps)
        assert loaded.mode == "fullmatch"
        assert loaded.matches(b"abab") == {0}
        assert loaded.matches(b"aaa") == {1}
        assert loaded.matches(b"") == {0}

    def test_to_file(self, tmp_path):
        mps = MultiPatternSet(RULESET_RULES)
        path = str(tmp_path / "rules.npz")
        save_ruleset(mps, path)
        assert load_ruleset(path).matches(b"xx abc yy") == {0}

    def test_streaming_on_loaded(self):
        from repro.matching.stream import StreamingMultiMatcher

        loaded = roundtrip_ruleset(MultiPatternSet(RULESET_RULES))
        cur = StreamingMultiMatcher(loaded, plan=Plan(num_chunks=3))
        assert cur.feed(b"xx ab") == set()
        assert cur.feed(b"c yy") == {0}


def _tampered(save_fn, obj, mutate):
    """Round-trip an archive through a dict with one field rewritten."""
    buf = io.BytesIO()
    save_fn(obj, buf)
    buf.seek(0)
    data = dict(np.load(buf))
    mutate(data)
    buf2 = io.BytesIO()
    np.savez_compressed(buf2, **data)
    buf2.seek(0)
    return buf2


def _rewrite_meta(data, **updates):
    meta = json.loads(bytes(data["meta"]).decode())
    meta.update(updates)
    data["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)


class TestFormatVersions:
    def test_writers_emit_v2(self):
        m = compiled("(ab)*")
        buf = io.BytesIO()
        save_dfa(m.min_dfa, buf)
        buf.seek(0)
        with np.load(buf) as data:
            assert json.loads(bytes(data["meta"]).decode())["format"] == 2
        assert FORMAT_VERSION == 2

    def test_v1_dfa_still_loads(self):
        m = compiled("(ab)*")
        buf = _tampered(save_dfa, m.min_dfa, lambda d: _rewrite_meta(d, format=1))
        assert load_dfa(buf).accepts(b"abab")

    def test_v1_sfa_still_loads(self):
        m = compiled("(ab)*")
        buf = _tampered(save_sfa, m.sfa, lambda d: _rewrite_meta(d, format=1))
        assert load_sfa(buf).accepts(b"abab")

    def test_future_format_rejected(self):
        m = compiled("(ab)*")
        buf = _tampered(save_sfa, m.sfa, lambda d: _rewrite_meta(d, format=99))
        with pytest.raises(AutomatonError):
            load_sfa(buf)

    def test_v1_ruleset_rejected(self):
        # rulesets only exist from v2 on; a v1-stamped one is corrupt
        mps = MultiPatternSet(RULESET_RULES)
        buf = _tampered(save_ruleset, mps, lambda d: _rewrite_meta(d, format=1))
        with pytest.raises(AutomatonError):
            load_ruleset(buf)


class TestRulesetValidation:
    def test_wrong_kind_rejected(self):
        mps = MultiPatternSet(RULESET_RULES)
        buf = io.BytesIO()
        save_ruleset(mps, buf)
        buf.seek(0)
        with pytest.raises(AutomatonError):
            load_dfa(buf)
        m = compiled("(ab)*")
        buf = io.BytesIO()
        save_sfa(m.sfa, buf)
        buf.seek(0)
        with pytest.raises(AutomatonError):
            load_ruleset(buf)

    def test_rule_index_out_of_range_rejected(self):
        mps = MultiPatternSet(RULESET_RULES)

        def bump(d):
            d["rule_indices"] = d["rule_indices"] + 100

        with pytest.raises(AutomatonError):
            load_ruleset(_tampered(save_ruleset, mps, bump))

    def test_acceptance_mismatch_rejected(self):
        mps = MultiPatternSet(RULESET_RULES)

        def clear_accept(d):
            d["accept"] = np.zeros_like(d["accept"])

        with pytest.raises(AutomatonError):
            load_ruleset(_tampered(save_ruleset, mps, clear_accept))

    def test_bad_offsets_rejected(self):
        mps = MultiPatternSet(RULESET_RULES)

        def chop(d):
            d["rule_offsets"] = d["rule_offsets"][:-1]

        with pytest.raises(AutomatonError):
            load_ruleset(_tampered(save_ruleset, mps, chop))

    def test_flags_mismatch_rejected(self):
        mps = MultiPatternSet(RULESET_RULES)
        buf = _tampered(
            save_ruleset, mps, lambda d: _rewrite_meta(d, flags=[True])
        )
        with pytest.raises(AutomatonError):
            load_ruleset(buf)

    def test_corrupted_sfa_rejected(self):
        mps = MultiPatternSet(RULESET_RULES)
        mps.sfa  # include the SFA in the archive

        def scramble(d):
            d["sfa_maps"] = d["sfa_maps"][::-1].copy()

        with pytest.raises(AutomatonError):
            load_ruleset(_tampered(save_ruleset, mps, scramble))

    def test_missing_arrays_rejected_not_keyerror(self):
        # truncated archives must fail the documented way, not as KeyError
        mps = MultiPatternSet(RULESET_RULES)
        mps.sfa
        for drop in ("rule_offsets", "table", "sfa_table", "meta"):
            buf = _tampered(save_ruleset, mps, lambda d, k=drop: d.pop(k))
            with pytest.raises(AutomatonError):
                load_ruleset(buf)
        m = compiled("(ab)*")
        with pytest.raises(AutomatonError):
            load_sfa(_tampered(save_sfa, m.sfa, lambda d: d.pop("maps")))
        with pytest.raises(AutomatonError):
            load_dfa(_tampered(save_dfa, m.min_dfa, lambda d: d.pop("accept")))

    def test_table_width_mismatch_rejected(self):
        # a table whose width disagrees with the classmap scans garbage
        # (the flat-list walk strides by the wrong k) — must be rejected
        mps = MultiPatternSet(RULESET_RULES)

        def narrow(d):
            d["table"] = d["table"][:, :-1].copy()

        with pytest.raises(AutomatonError):
            load_ruleset(_tampered(save_ruleset, mps, narrow))
        m = compiled("(ab)*")
        with pytest.raises(AutomatonError):
            load_dfa(_tampered(save_dfa, m.min_dfa, narrow))
        with pytest.raises(AutomatonError):
            load_sfa(_tampered(save_sfa, m.sfa, narrow))

    def test_missing_meta_fields_rejected_not_keyerror(self):
        mps = MultiPatternSet(RULESET_RULES)

        def drop_initial(d):
            meta = json.loads(bytes(d["meta"]).decode())
            del meta["initial"]
            d["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)

        with pytest.raises(AutomatonError):
            load_ruleset(_tampered(save_ruleset, mps, drop_initial))
        mps.sfa
        buf = _tampered(save_ruleset, mps,
                        lambda d: _rewrite_meta(d, sfa_initial="bogus"))
        with pytest.raises(AutomatonError):
            load_ruleset(buf)
        m = compiled("(ab)*")

        def drop_origin(d):
            meta = json.loads(bytes(d["meta"]).decode())
            del meta["origin_initial"]
            d["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)

        with pytest.raises(AutomatonError):
            load_sfa(_tampered(save_sfa, m.sfa, drop_origin))
        buf = _tampered(save_sfa, m.sfa,
                        lambda d: _rewrite_meta(d, sfa_kind=None))
        with pytest.raises(AutomatonError, match="sfa_kind"):
            load_sfa(buf)


class TestValidation:
    def test_wrong_kind_rejected(self):
        m = compiled("(ab)*")
        buf = io.BytesIO()
        save_dfa(m.min_dfa, buf)
        buf.seek(0)
        with pytest.raises(AutomatonError):
            load_sfa(buf)

    def test_sfa_as_dfa_rejected(self):
        m = compiled("(ab)*")
        buf = io.BytesIO()
        save_sfa(m.sfa, buf)
        buf.seek(0)
        with pytest.raises(AutomatonError):
            load_dfa(buf)

    def test_corrupted_identity_rejected(self):
        m = compiled("(ab)*")
        buf = io.BytesIO()
        save_sfa(m.sfa, buf)
        buf.seek(0)
        # tamper: swap the identity payload
        data = dict(np.load(buf))
        data["maps"] = data["maps"][::-1].copy()
        buf2 = io.BytesIO()
        np.savez_compressed(buf2, **data)
        buf2.seek(0)
        with pytest.raises(AutomatonError):
            load_sfa(buf2)

    def test_corrupted_table_rejected(self):
        m = compiled("(ab)*")
        buf = io.BytesIO()
        save_sfa(m.sfa, buf)
        buf.seek(0)
        data = dict(np.load(buf))
        data["table"] = data["table"] + 1000
        buf2 = io.BytesIO()
        np.savez_compressed(buf2, **data)
        buf2.seek(0)
        with pytest.raises(AutomatonError):
            load_sfa(buf2)
