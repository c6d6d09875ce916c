"""The match service (DESIGN.md §3.8): protocol, cache, server, client.

End-to-end tests run a real :class:`MatchService` on a loopback socket in
a background thread and drive it with the blocking client — the same code
path ``repro serve`` / ``repro client`` use.  Equivalence tests pin the
service's results bit-identical to the serial engines; edge-case tests
pin the failure contract (structured errors, surviving bad clients).
"""

import json
import random
import re
import socket
import threading
import time

import pytest

from repro import compile_pattern
from repro.errors import ServiceError
from repro.matching import spans as spans_mod
from repro.matching.multi import MultiPatternSet
from repro.service.cache import (
    ArtifactCache,
    pattern_key,
    ruleset_key,
    scans_built,
)
from repro.service.client import ServiceClient
from repro.service.protocol import (
    DRAIN_CEILING,
    encode_message,
    error_reply,
    parse_header,
    ProtocolError,
)
from repro.service.server import (
    INLINE_MAX_BYTES,
    MAX_STREAMS_PER_CONNECTION,
    MatchService,
)


# ---------------------------------------------------------------------------
# Protocol unit tests
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_roundtrip_no_payload(self):
        wire = encode_message({"op": "ping"})
        assert wire.endswith(b"\n")
        header, declared = parse_header(wire[:-1])
        assert header == {"op": "ping"}
        assert declared == -1

    def test_roundtrip_with_payload(self):
        wire = encode_message({"op": "match"}, b"\x00\xff\n binary")
        line, rest = wire.split(b"\n", 1)
        header, declared = parse_header(line)
        assert declared == len(b"\x00\xff\n binary")
        assert rest == b"\x00\xff\n binary" + b"\n"

    def test_empty_payload_is_framed(self):
        wire = encode_message({"op": "match"}, b"")
        line, rest = wire.split(b"\n", 1)
        _, declared = parse_header(line)
        assert declared == 0
        assert rest == b"\n"

    def test_bad_json_raises_protocol_error(self):
        with pytest.raises(ProtocolError):
            parse_header(b"{not json")

    def test_non_object_header_rejected(self):
        with pytest.raises(ProtocolError):
            parse_header(b"[1, 2]")

    def test_negative_payload_rejected(self):
        with pytest.raises(ProtocolError):
            parse_header(b'{"op": "x", "payload": -5}')

    def test_error_reply_shape(self):
        r = error_reply("bad-request", "nope", limit=3)
        assert r["ok"] is False
        assert r["error"]["kind"] == "bad-request"
        assert r["limit"] == 3


# ---------------------------------------------------------------------------
# Cache unit tests
# ---------------------------------------------------------------------------


class TestArtifactCache:
    def test_hit_miss_accounting(self):
        cache = ArtifactCache(8)
        m1, hit1 = cache.get_pattern("(ab)*")
        m2, hit2 = cache.get_pattern("(ab)*")
        assert not hit1 and hit2
        assert m1 is m2
        s = cache.stats()
        assert s["hits"] == 1 and s["misses"] == 1
        assert s["compile_seconds"] > 0

    def test_flags_split_entries(self):
        cache = ArtifactCache(8)
        a, _ = cache.get_pattern("abc", ignore_case=False)
        b, _ = cache.get_pattern("abc", ignore_case=True)
        assert a is not b
        assert len(cache) == 2

    def test_lru_eviction_order(self):
        cache = ArtifactCache(2)
        cache.get_pattern("a")
        cache.get_pattern("b")
        cache.get_pattern("a")  # refresh 'a'; 'b' is now oldest
        cache.get_pattern("c")  # evicts 'b'
        assert cache.stats()["evictions"] == 1
        assert pattern_key("b") not in cache.keys()
        assert pattern_key("a") in cache.keys()
        _, hit = cache.get_pattern("a")
        assert hit

    def test_eviction_under_churn_stays_bounded(self):
        cache = ArtifactCache(4)
        for i in range(20):
            m, _ = cache.get_pattern(f"(ab){{{i + 1}}}")
            assert m.fullmatch(b"ab" * (i + 1))
        s = cache.stats()
        assert s["entries"] == 4
        assert s["evictions"] == 16
        # A re-request of an evicted pattern recompiles and still works.
        m, hit = cache.get_pattern("(ab){1}")
        assert not hit and m.fullmatch(b"ab")

    def test_ruleset_key_is_order_sensitive(self):
        # rule indices are observable, so [a, b] and [b, a] differ
        assert ruleset_key(["a", "b"], [False, False], "search") != \
            ruleset_key(["b", "a"], [False, False], "search")

    def test_ruleset_key_is_length_framed(self):
        # byte-regex sources may contain any byte (incl. NUL); without
        # length framing these two distinct rulesets collide on one
        # digest and the cache would serve the wrong compiled ruleset
        assert ruleset_key(["a\x00-b"], [False], "search") != \
            ruleset_key(["a", "b"], [False, False], "search")
        assert ruleset_key(["ab"], [False], "search") != \
            ruleset_key(["a", "b"], [False, False], "search")

    def test_ruleset_cache_roundtrip(self):
        cache = ArtifactCache(4)
        r1, hit1 = cache.get_ruleset(["abc", "zz*top"])
        r2, hit2 = cache.get_ruleset(["abc", "zz*top"])
        assert not hit1 and hit2 and r1 is r2
        assert r1.matches(b"xx abc zztop") == {0, 1}

    def test_warm_is_idempotent(self):
        cache = ArtifactCache(4)
        m, _ = cache.get_pattern("(ab)*")
        built1 = cache.warm(m, ["dfa", "sfa", "spans"], kernel="stride2")
        built2 = cache.warm(m, ["dfa", "sfa", "spans"], kernel="stride2")
        assert built1 == ["dfa", "sfa", "spans"]
        assert built2 == []

    def test_warm_spans_builds_b_only_without_prefilter(self):
        cache = ArtifactCache(4)
        lit, _ = cache.get_pattern("ERROR [0-9]+")
        free, _ = cache.get_pattern("[a-z]+=[0-9]+")
        cache.warm(lit, ["spans"])
        cache.warm(free, ["spans"])
        assert lit.span_engine()._bwd is None  # the prefilter stands in
        assert free.span_engine()._bwd is not None

    def test_warm_unknown_stage_rejected(self):
        cache = ArtifactCache(4)
        m, _ = cache.get_pattern("a")
        with pytest.raises(ServiceError):
            cache.warm(m, ["nfa"])

    def test_capacity_validated(self):
        with pytest.raises(ServiceError):
            ArtifactCache(0)

    def test_failed_compile_releases_reservation(self):
        cache = ArtifactCache(4)
        with pytest.raises(Exception):
            cache.get_pattern("(ab")  # syntax error
        # the key is not wedged: a later valid compile under churn works
        m, hit = cache.get_pattern("(ab)*")
        assert not hit and m.fullmatch(b"")

    def test_lookup_never_compiles_and_counts_hits_only(self):
        cache = ArtifactCache(4)
        assert cache.lookup_pattern("(ab)*") is None
        assert cache.lookup_ruleset(["abc"], [False]) is None
        assert len(cache) == 0
        s = cache.stats()
        assert s["hits"] == 0 and s["misses"] == 0
        m, _ = cache.get_pattern("(ab)*")
        mps, _ = cache.get_ruleset(["abc"], [False], "search", "eager")
        assert cache.lookup_pattern("(ab)*") is m
        assert cache.lookup_pattern("(ab)*", ignore_case=True) is None
        assert cache.lookup_ruleset(["abc"], [False], "search", "eager") is mps
        assert cache.lookup_ruleset(["abc"], [False], "search", "lazy") is None
        s = cache.stats()
        assert s["hits"] == 2 and s["misses"] == 2

    def test_lookup_refreshes_lru(self):
        cache = ArtifactCache(2)
        cache.get_pattern("a")
        cache.get_pattern("b")
        cache.lookup_pattern("a")  # refresh 'a'; 'b' is now oldest
        cache.get_pattern("c")
        assert pattern_key("b") not in cache.keys()
        assert pattern_key("a") in cache.keys()

    def test_scans_built_probes_without_building(self):
        from repro.planning.plan import Plan

        serial = Plan(engine="dfa", kernel="python", num_chunks=1)
        m = compile_pattern("ERROR [0-9]+")
        for task in ("fullmatch", "contains", "spans"):
            assert not scans_built(m, task, 100, serial)
        assert m._min_dfa is None and m._search is None and m._spans is None
        m.span_engine()  # builds min_dfa too
        assert scans_built(m, "spans", 100, serial)
        assert scans_built(m, "fullmatch", 100, serial)
        assert not scans_built(m, "fullmatch", 100, Plan(engine="lockstep"))
        assert not scans_built(m, "contains", 100, serial)
        m.contains(b"ERROR 1")
        assert scans_built(m, "contains", 100, serial)
        free = compile_pattern("[a-z]+=[0-9]+")
        free.span_engine()
        assert not scans_built(free, "spans", 100, serial)  # B unbuilt
        free.finditer(b"k=1")
        assert scans_built(free, "spans", 100, serial)
        eager = MultiPatternSet(RULES)
        lazy = MultiPatternSet(RULES, backend="lazy")
        multi = Plan(engine="lockstep", kernel="python", num_chunks=1)
        assert scans_built(eager, "multi", 100, multi)
        assert scans_built(lazy, "multi", 100, multi)
        assert not scans_built(eager, "multi", 100, Plan(kernel="stride2"))
        assert not scans_built(eager, "multi", 10_000, Plan(num_chunks=4))

    def test_concurrent_first_compiles_build_once(self):
        cache = ArtifactCache(8)
        results = []

        def worker():
            results.append(cache.get_pattern("(ab)*c{2,5}"))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        objs = {id(m) for m, _ in results}
        assert len(objs) == 1  # single-flight: one compiled object
        assert cache.stats()["misses"] == 1


# ---------------------------------------------------------------------------
# Server fixture
# ---------------------------------------------------------------------------


class _ServerHandle:
    def __init__(self, **kw):
        import asyncio

        self.service = MatchService(port=0, **kw)
        self._ready = threading.Event()
        self._loop = None

        def run():
            async def main():
                await self.service.start()
                self._loop = asyncio.get_running_loop()
                self._ready.set()
                await self.service.serve_until_shutdown()

            asyncio.run(main())

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        assert self._ready.wait(10), "server failed to start"
        self.port = self.service.port

    def client(self, **kw) -> ServiceClient:
        return ServiceClient(port=self.port, timeout=kw.pop("timeout", 30.0))

    def stop(self, timeout: float = 10.0):
        if self.thread.is_alive():
            self._loop.call_soon_threadsafe(self.service._shutdown.set)
        self.thread.join(timeout)
        assert not self.thread.is_alive(), "server failed to stop"


@pytest.fixture()
def server():
    handle = _ServerHandle(cache_size=32)
    yield handle
    handle.stop()


RULES = ["abc", "a[0-9]+b", "zz*top", "(GET|POST) /[a-z]+"]


# ---------------------------------------------------------------------------
# End-to-end: basics and equivalence
# ---------------------------------------------------------------------------


class TestServiceBasics:
    def test_ping_and_stats(self, server):
        with server.client() as c:
            assert c.ping()
            stats = c.stats()
            assert stats["cache"]["capacity"] == 32
            assert stats["counters"]["requests"] >= 1

    def test_match_equivalence(self, server):
        cases = [
            ("(ab)*", b"abab", True), ("(ab)*", b"aba", False),
            ("a[0-9]+b", b"a42b", True), ("a[0-9]+b", b"ab", False),
        ]
        with server.client() as c:
            for pattern, data, want in cases:
                assert c.match(pattern, data) is want, (pattern, data)
                local = compile_pattern(pattern).fullmatch(data)
                assert c.match(pattern, data) is bool(local)

    def test_match_contains_and_chunked(self, server):
        data = b"x" * 5000 + b"needle42" + b"y" * 5000
        with server.client() as c:
            assert c.match("needle[0-9]+", data, mode="contains")
            assert c.scan("needle[0-9]+", data, chunks=8, kernel="stride2")
            assert not c.scan("absent", data, chunks=8)

    def test_finditer_equivalence(self, server):
        data = b"xx ERROR 42 yy ERROR 7 zz" * 40
        m = compile_pattern("ERROR [0-9]+")
        want = list(m.finditer(data))
        with server.client() as c:
            assert c.finditer("ERROR [0-9]+", data) == want
            assert c.finditer("ERROR [0-9]+", data, chunks=4,
                              kernel="stride2") == want
            assert c.finditer("ERROR [0-9]+", data, limit=3) == want[:3]

    def test_finditer_limit_zero_returns_no_spans(self, server):
        with server.client() as c:
            assert c.finditer("ab", b"abxab", limit=0) == []
            assert c.finditer("ab", b"abxab", limit=1) == [(0, 2)]
            err = c.request(
                {"op": "finditer", "pattern": "ab", "limit": -1}, b"abxab",
                check=False,
            )
            assert err["error"]["kind"] == "bad-request"
            err = c.request(
                {"op": "finditer", "pattern": "ab", "limit": True}, b"abxab",
                check=False,
            )
            assert err["error"]["kind"] == "bad-request"

    def test_finditer_above_lane_gates_equals_re(self, server):
        rng = random.Random(17)
        data = b"".join(
            b"k%s=%d ip 10.%d.0.%d\n" % (
                rng.choice([b"ey", b"", b"id"]), rng.randrange(1000),
                rng.randrange(256), rng.randrange(256),
            )
            for _ in range(spans_mod.LANE_START_MIN // 4)
        )
        assert len(data) >= spans_mod.LANE_START_MIN
        with server.client() as c:
            for pattern in (r"[a-z]+=[0-9]+", r"[0-9]+\.[0-9]+\.[0-9]+"):
                want = [x.span() for x in re.finditer(pattern.encode(), data)]
                assert len(want) >= spans_mod.LANE_ENDS_MIN
                assert c.finditer(pattern, data) == want
                assert c.finditer(pattern, data, plan="auto") == want

    def test_multiscan_equivalence(self, server):
        data = b"pad abc pad a42b pad GET /index"
        want = sorted(MultiPatternSet(RULES).matches(data))
        with server.client() as c:
            assert c.multiscan(RULES, data) == want
            assert c.multiscan(RULES, data, chunks=4, kernel="stride2") == want

    def test_compile_reports_and_caches(self, server):
        with server.client() as c:
            r1 = c.compile("(ab)*", stages=["dfa", "sfa", "spans"],
                           kernel="stride2")
            assert r1["cached"] is False
            assert r1["sizes"]["d_sfa"] == 6
            assert set(r1["built"]) == {"dfa", "sfa", "spans"}
            r2 = c.compile("(ab)*", stages=["dfa", "sfa", "spans"],
                           kernel="stride2")
            assert r2["cached"] is True
            assert r2["built"] == []
            # a match on the warmed pattern is a pure cache hit
            assert c.match("(ab)*", b"abab")
            assert c.stats()["cache"]["hits"] >= 2

    def test_compile_ruleset(self, server):
        with server.client() as c:
            r = c.compile(rules=RULES, stages=["sfa"])
            assert r["sizes"]["rules"] == len(RULES)
            assert r["sizes"]["union_dfa"] > 1

    def test_correlation_id_echoed(self, server):
        with server.client() as c:
            reply = c.request({"op": "ping", "id": 7})
            assert reply["id"] == 7
            err = c.request({"op": "bogus", "id": "x"}, check=False)
            assert err["id"] == "x"


class TestServiceErrors:
    def test_unknown_op_keeps_connection(self, server):
        with server.client() as c:
            err = c.request({"op": "frobnicate"}, check=False)
            assert err["ok"] is False
            assert err["error"]["kind"] == "bad-request"
            assert c.ping()  # connection survives

    def test_compile_error_is_structured(self, server):
        with server.client() as c:
            err = c.request({"op": "match", "pattern": "(ab"}, b"x",
                            check=False)
            assert err["error"]["kind"] == "compile"
            assert c.ping()

    def test_check_raises_service_error(self, server):
        with server.client() as c:
            with pytest.raises(ServiceError) as ei:
                c.match("(ab", b"x")
            assert ei.value.kind == "compile"

    def test_missing_payload_rejected(self, server):
        with server.client() as c:
            err = c.request({"op": "match", "pattern": "a"}, check=False)
            assert err["error"]["kind"] == "bad-request"
            assert "payload" in err["error"]["message"]

    def test_oversized_payload_structured_error(self):
        handle = _ServerHandle(cache_size=4, max_payload=1024)
        try:
            with handle.client() as c:
                err = c.request({"op": "match", "pattern": "a+"},
                                b"x" * 2048, check=False)
                assert err["error"]["kind"] == "payload-too-large"
                assert err["limit"] == 1024
                # the oversized payload was drained: same connection works
                assert c.match("a+", b"aaa")
        finally:
            handle.stop()

    def test_insane_payload_declaration_drops_connection(self, server):
        with server.client() as c:
            c.send_raw(json.dumps(
                {"op": "match", "pattern": "a", "payload": DRAIN_CEILING + 1}
            ).encode() + b"\n")
            reply = c.read_reply()
            assert reply["error"]["kind"] == "protocol"
            with pytest.raises(ServiceError):
                c.request({"op": "ping"})  # server hung up

    def test_garbage_header_gets_protocol_error(self, server):
        with server.client() as c:
            c.send_raw(b"this is not json\n")
            reply = c.read_reply()
            assert reply["ok"] is False
            assert reply["error"]["kind"] == "protocol"

    def test_server_survives_disconnect_mid_payload(self, server):
        # declare a payload, hang up before sending it
        sock = socket.create_connection(("127.0.0.1", server.port))
        sock.sendall(json.dumps(
            {"op": "match", "pattern": "a", "payload": 4096}
        ).encode() + b"\n" + b"x" * 10)
        sock.close()
        time.sleep(0.1)
        with server.client() as c:  # the server is still serving
            assert c.ping()

    def test_unhashable_field_keeps_connection(self, server):
        # a malformed request must get a structured reply, never kill the
        # connection task with an unclassified exception
        with server.client() as c:
            err = c.request({"op": "stream_feed", "stream": [1]}, b"x",
                            check=False)
            assert err["ok"] is False
            assert err["error"]["kind"] in ("bad-request", "internal")
            err = c.request({"op": "match", "pattern": "a", "chunks": [4]},
                            b"x", check=False)
            assert err["ok"] is False
            assert c.ping()  # connection survived both

    def test_dead_server_raises_not_sigpipe(self):
        # a killed server must surface as ServiceError (CLI exit 2), not
        # as a BrokenPipeError the CLI would treat as benign SIGPIPE
        handle = _ServerHandle(cache_size=4)
        c = handle.client()
        assert c.ping()
        handle.stop()
        with pytest.raises(ServiceError):
            for _ in range(10):  # sendall may buffer once before EPIPE
                c.request({"op": "match", "pattern": "a+"}, b"x" * 65536)
        c.close()

    def test_bad_knobs_rejected(self, server):
        with server.client() as c:
            err = c.request(
                {"op": "match", "pattern": "a", "chunks": 0}, b"x",
                check=False,
            )
            assert err["error"]["kind"] == "bad-request"
            err = c.request(
                {"op": "finditer", "pattern": "a", "kernel": "warp9"},
                b"x", check=False,
            )
            assert err["error"]["kind"] == "engine"


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------


class TestServiceStreams:
    def test_span_stream_matches_batch(self, server):
        data = b"xx ERROR 42 yy ERROR 7 zz ERR ERROR 123"
        want = list(compile_pattern("ERROR [0-9]+").finditer(data))
        with server.client() as c:
            st = c.open_stream(pattern="ERROR [0-9]+")
            got = []
            for i in range(0, len(data), 7):
                got += st.feed(data[i:i + 7])
            got += st.finish()
            assert got == want

    def test_span_stream_random_blockings(self, server):
        rng = random.Random(2940)
        pattern = "a[0-9]+b|zz+"
        m = compile_pattern(pattern)
        with server.client() as c:
            for trial in range(10):
                n = rng.randrange(0, 200)
                data = bytes(rng.choice(b"ab0123z ") for _ in range(n))
                want = list(m.finditer(data))
                st = c.open_stream(pattern=pattern)
                got, pos = [], 0
                while pos < len(data):
                    step = rng.randrange(1, 20)
                    got += st.feed(data[pos:pos + step])
                    pos += step
                got += st.finish()
                assert got == want, (trial, data)

    def test_multi_stream_reports_each_rule_once(self, server):
        data = b"xx abc yy zztop zz a77b GET /path"
        want = sorted(MultiPatternSet(RULES).matches(data))
        with server.client() as c:
            st = c.open_stream(rules=RULES, kind="multi")
            seen = []
            for i in range(0, len(data), 5):
                seen += st.feed(data[i:i + 5])
            seen += st.finish()
            assert sorted(seen) == want
            assert len(seen) == len(set(seen))  # exactly-once

    def test_multispan_stream_matches_batch(self, server):
        data = b"abc zztop abc"
        want = MultiPatternSet(["abc", "zz*top"]).finditer(data)
        with server.client() as c:
            st = c.open_stream(rules=["abc", "zz*top"], kind="multispans")
            got = []
            for i in range(0, len(data), 4):
                got += st.feed(data[i:i + 4])
            got += st.finish()
            assert got == [tuple(t) for t in want]

    def test_stream_sessions_are_per_connection(self, server):
        with server.client() as c1, server.client() as c2:
            st = c1.open_stream(pattern="a+")
            err = c2.request(
                {"op": "stream_feed", "stream": st.stream_id}, b"aaa",
                check=False,
            )
            assert err["error"]["kind"] == "bad-request"
            st.close()

    def test_stream_limit_enforced(self, server):
        with server.client() as c:
            streams = [
                c.open_stream(pattern="a+")
                for _ in range(MAX_STREAMS_PER_CONNECTION)
            ]
            err = c.request({"op": "stream_open", "pattern": "a+"},
                            check=False)
            assert err["error"]["kind"] == "limit"
            streams[0].close()  # closing frees a slot
            st = c.open_stream(pattern="a+")
            assert st.feed(b"b aa b") == [(2, 4)]

    def test_finish_closes_session(self, server):
        with server.client() as c:
            st = c.open_stream(pattern="a+")
            st.feed(b"aa b")
            st.finish()
            err = c.request(
                {"op": "stream_feed", "stream": st.stream_id}, b"x",
                check=False,
            )
            assert err["error"]["kind"] == "bad-request"

    def test_disconnect_mid_stream_frees_server(self, server):
        c = server.client()
        st = c.open_stream(pattern="ERROR [0-9]+")
        st.feed(b"xx ERROR 4")
        c._sock.close()  # vanish without finish/close
        time.sleep(0.1)
        with server.client() as c2:
            assert c2.ping()
            assert c2.stats()["open_streams"] == 0


# ---------------------------------------------------------------------------
# Concurrency and lifecycle
# ---------------------------------------------------------------------------


class TestServiceConcurrency:
    def test_64_concurrent_clients_bit_identical(self, server):
        pattern = "ERROR [0-9]+|warn(ing)?"
        rng = random.Random(7)
        payloads = [
            bytes(rng.choice(b"ERROR 0123warning xyz\n") for _ in range(400))
            for _ in range(16)
        ]
        m = compile_pattern(pattern)
        expect = {p: list(m.finditer(p)) for p in payloads}
        mps = MultiPatternSet(RULES)
        failures = []
        barrier = threading.Barrier(64)

        def worker(i):
            try:
                data = payloads[i % len(payloads)]
                with server.client() as c:
                    barrier.wait(timeout=30)
                    if i % 3 == 0:
                        got = c.finditer(pattern, data, chunks=4)
                        assert got == expect[data], "spans diverged"
                    elif i % 3 == 1:
                        st = c.open_stream(pattern=pattern)
                        got = st.feed(data[:100]) + st.feed(data[100:])
                        got += st.finish()
                        assert got == expect[data], "stream diverged"
                    else:
                        want = sorted(mps.matches(data))
                        assert c.multiscan(RULES, data) == want
            except Exception as e:  # pragma: no cover - failure reporting
                failures.append((i, repr(e)))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(64)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not failures, failures[:5]

    def test_shared_executor_server(self):
        handle = _ServerHandle(cache_size=8, executor="threads", num_workers=2)
        try:
            data = b"x" * 3000 + b"needle7" + b"y" * 3000
            with handle.client() as c:
                assert c.scan("needle[0-9]", data, chunks=4)
                spans = c.finditer("needle[0-9]", data, chunks=4)
                assert spans == [(3000, 3007)]
                assert c.stats()["executor"] == "threads"
        finally:
            handle.stop()

    def test_shutdown_op_stops_server(self):
        handle = _ServerHandle(cache_size=4)
        with handle.client() as c:
            assert c.shutdown()["stopping"]
        handle.thread.join(10)
        assert not handle.thread.is_alive()

    def test_remote_shutdown_can_be_disabled(self):
        handle = _ServerHandle(cache_size=4, allow_shutdown=False)
        try:
            with handle.client() as c:
                err = c.request({"op": "shutdown"}, check=False)
                assert err["error"]["kind"] == "shutdown"
                assert c.ping()
        finally:
            handle.stop()

    def test_cache_shared_across_connections(self, server):
        with server.client() as c1:
            c1.match("zfj[0-9]{2}", b"zfj42")
        with server.client() as c2:
            c2.match("zfj[0-9]{2}", b"zfj43")
            stats = c2.stats()["cache"]
        assert stats["hits"] >= 1  # second connection hit the first's entry


class TestHopFreeHits:
    """A cached ``match``/``finditer``/``multiscan`` whose automata are
    built and whose payload is at most ``INLINE_MAX_BYTES`` runs on the
    event loop; everything else hops to the handler pool (§3.8)."""

    @staticmethod
    def _count_hops(handle):
        """Record every call into the handler pool from now on."""
        hops = []
        service = handle.service
        to_pool = service._in_thread

        async def counting(fn, *args):
            hops.append(fn)
            return await to_pool(fn, *args)

        service._in_thread = counting
        return hops

    def test_built_hits_skip_the_pool(self, server):
        data = b"xx ERROR 42 yy abc a12b zztop GET /index"
        spans = list(compile_pattern("ERROR [0-9]+").finditer(data))
        rules = sorted(MultiPatternSet(RULES).matches(data))
        find = {"op": "finditer", "pattern": "ERROR [0-9]+"}
        full = {"op": "match", "pattern": ".*ERROR.*", "mode": "fullmatch"}
        contains = {"op": "match", "pattern": ".*ERROR.*", "mode": "contains"}
        multi = {"op": "multiscan", "rules": RULES}
        hops = self._count_hops(server)
        with server.client() as c:
            for header, answer in ((find, ("spans", [list(s) for s in spans])),
                                   (full, ("match", True)),
                                   (multi, ("rules", rules))):
                before = len(hops)
                first = c.request(header, data)
                assert first["cached"] is False and len(hops) == before + 1
                for _ in range(3):
                    again = c.request(header, data)
                    assert again["cached"] is True
                    assert again[answer[0]] == first[answer[0]] == answer[1]
                assert len(hops) == before + 1  # the hits never hopped
            # A hit whose automata are not built yet hops once to build
            # them: the pattern is cached, its search automaton is not.
            before = len(hops)
            for _ in range(3):
                reply = c.request(contains, data)
                assert reply["cached"] is True and reply["match"] is True
            assert len(hops) == before + 1
            cache = c.stats()["cache"]
        assert cache["misses"] == 3 and cache["hits"] == 12

    def test_large_payloads_and_unbuilt_start_passes_hop(self, server):
        pattern = "[a-z]+=[0-9]+"  # no literal prefilter: the start pass runs
        small = b"k=1 id=22 "
        big = small * (INLINE_MAX_BYTES // len(small) + 1)
        m = compile_pattern(pattern)
        hops = self._count_hops(server)
        with server.client() as c:
            assert c.finditer(pattern, small) == list(m.finditer(small))
            assert len(hops) == 1  # miss
            assert c.finditer(pattern, small) == list(m.finditer(small))
            assert len(hops) == 1  # built hit
            assert c.finditer(pattern, big) == list(m.finditer(big))
            assert c.finditer(pattern, big) == list(m.finditer(big))
            assert len(hops) == 3  # above INLINE_MAX_BYTES: always the pool
            mid = big[:spans_mod.LANE_START_MIN + 5]
            assert c.finditer(pattern, mid) == list(m.finditer(mid))
            assert c.finditer(pattern, mid) == list(m.finditer(mid))
            assert len(hops) == 3  # the big scans built the lane tables

    def test_lazy_union_walks_build_on_the_pool(self, server):
        data = b"xx abc yy a12b zztop GET /index "
        fresh = b"zzzzzz top GET /x a9b " * 3
        multi = {"op": "multiscan", "rules": RULES, "backend": "lazy"}
        want = MultiPatternSet(RULES)
        hops = self._count_hops(server)
        with server.client() as c:
            assert c.request(multi, data)["rules"] == sorted(want.matches(data))
            assert len(hops) == 1  # miss
            assert c.request(multi, data)["rules"] == sorted(want.matches(data))
            assert len(hops) == 1  # every transition the walk needs is built
            reply = c.request(multi, fresh)
            assert reply["cached"] is True
            assert reply["rules"] == sorted(want.matches(fresh))
            assert len(hops) == 2  # new transitions: built on the pool
            assert c.request(multi, fresh)["rules"] == reply["rules"]
            assert len(hops) == 2

    def test_lane_tables_are_built_off_the_loop(self, server):
        pattern = "[a-z]+=[0-9]+"
        mid = b"k=1 id=22 " * (spans_mod.LANE_START_MIN // 10 + 1)
        m = compile_pattern(pattern)
        hops = self._count_hops(server)
        with server.client() as c:
            c.finditer(pattern, b"k=1")
            assert len(hops) == 1
            assert c.finditer(pattern, mid) == list(m.finditer(mid))
            assert len(hops) == 2  # lane start pass unbuilt: hop
            assert c.finditer(pattern, mid) == list(m.finditer(mid))
            assert len(hops) == 2

    def test_loop_and_pool_share_the_cache_under_churn(self):
        """Hits on the loop and misses on the pool update one cache (and
        build one pattern's automata) concurrently: no lost counts, no
        diverging answers."""
        import sys

        handle = _ServerHandle(cache_size=4)
        patterns = ["ERROR [0-9]+", "[a-z]+=[0-9]+", "id=[0-9]+", "[0-9]{2}:[0-9]{2}",
                    "GET /[a-z]+", "k[a-z]*=1", "(ab|cd)+e", "x[0-9]?y"]
        rng = random.Random(29)
        line = b"12:30 GET /api k=1 id=42 ERROR 7 abcde x5y "
        payloads = [line * n for n in (1, 9, spans_mod.LANE_START_MIN // len(line) + 2)]
        want = {(p, d): list(compile_pattern(p).finditer(d))
                for p in patterns for d in payloads}
        jobs = [[(rng.choice(patterns), rng.choice(payloads)) for _ in range(30)]
                for _ in range(8)]
        failures = []

        def client(work):
            try:
                with handle.client() as c:
                    for p, d in work:
                        if c.finditer(p, d) != want[p, d]:
                            failures.append((p, len(d)))
            except Exception as e:  # pragma: no cover - failure reporting
                failures.append(repr(e))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(w,)) for w in jobs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        try:
            with handle.client() as c:
                cache = c.stats()["cache"]
        finally:
            handle.stop()
        assert not failures, failures[:5]
        assert cache["hits"] + cache["misses"] == sum(map(len, jobs))

    def test_slow_compile_does_not_stall_hits(self):
        """DESIGN.md §3.8: a compile on one connection never stalls
        another connection's cache hits."""
        handle = _ServerHandle(cache_size=8)
        slow = "(a|b)*a(a|b){15}"  # 2^16-state DFA: over a second to build
        data = b"xx ERROR 42 yy " * 20
        want = list(compile_pattern("ERROR [0-9]+").finditer(data))
        done = {}

        def compile_slow():
            with handle.client(timeout=300) as c:
                t0 = time.perf_counter()
                done["spans"] = c.finditer(slow, b"ab" * 20)
                done["seconds"] = time.perf_counter() - t0

        try:
            with handle.client() as c:
                assert c.finditer("ERROR [0-9]+", data) == want
                worker = threading.Thread(target=compile_slow)
                worker.start()
                latencies = []
                while worker.is_alive():
                    t0 = time.perf_counter()
                    assert c.finditer("ERROR [0-9]+", data) == want
                    latencies.append(time.perf_counter() - t0)
                worker.join()
        finally:
            handle.stop()
        assert done["spans"] == [(0, 40)]
        assert len(latencies) >= 5
        assert max(latencies) < done["seconds"] / 4, (
            max(latencies), done["seconds"]
        )


class TestServiceBackends:
    """The union-backend knob over the wire (DESIGN.md §3.11)."""

    def test_multiscan_backend_knob_is_result_invariant(self, server):
        data = b"pad abc pad a42b pad GET /index"
        want = sorted(MultiPatternSet(RULES).matches(data))
        with server.client() as c:
            assert c.multiscan(RULES, data, backend="eager") == want
            assert c.multiscan(RULES, data, backend="lazy") == want
            assert c.multiscan(RULES, data, backend="sharded") == want
            assert c.multiscan(RULES, data) == want  # default: auto

    def test_bad_backend_is_a_structured_error(self, server):
        with server.client() as c:
            err = c.request(
                {"op": "multiscan", "rules": RULES, "backend": "magic"},
                b"x", check=False,
            )
            assert err["ok"] is False
            assert err["error"]["kind"] == "bad-request"
            assert "magic" in err["error"]["message"]

    def test_stats_report_ruleset_backends(self, server):
        with server.client() as c:
            c.multiscan(RULES, b"abc", backend="lazy")
            entries = c.stats()["cache"]["rulesets"]
            assert any(
                e["backend"] == "lazy" and e["num_materialized"] >= 1
                for e in entries
            )

    def test_compile_reply_names_the_backend(self, server):
        with server.client() as c:
            r = c.compile(rules=RULES, stages=["dfa"], backend="lazy")
            assert r["backend"] == "lazy"
            assert r["sizes"]["union_dfa_materialized"] >= 1
            assert r["built"] == []  # nothing eager to warm
            # and the analyze op's report carries the blowup lint field
            report = c.analyze(rules=RULES)
            assert "warnings" in report

    def test_stream_multi_backend_knob(self, server):
        data = b"pad abc pad a42b pad GET /index"
        want = sorted(MultiPatternSet(RULES).matches(data))
        with server.client() as c:
            with c.open_stream(rules=RULES, backend="lazy") as st:
                got = sorted(
                    set(st.feed(data[:10]) + st.feed(data[10:]) + st.finish())
                )
            assert got == want


# ---------------------------------------------------------------------------
# Metrics accounting, named rulesets, drain behavior (DESIGN.md §3.12)
# ---------------------------------------------------------------------------


class TestServiceMetrics:
    def test_stats_carry_metrics_block(self, server):
        with server.client() as c:
            c.match("abc", b"xxabcxx")
            m = c.stats()["metrics"]
        assert m["requests"] >= 1
        assert m["errors"] == 0
        assert m["req_per_s"] > 0
        assert set(m["latency_ms"]) == {"p50", "p95", "p99"}
        assert m["latency_samples"] >= 1
        assert m["cache_hit_rate"] is None or 0.0 <= m["cache_hit_rate"] <= 1.0

    def test_no_lost_counter_updates_under_16_threads(self):
        """The §3.12 lost-update fix: 16 threads hammer match/multiscan
        and every single request must land in both ``counters`` and the
        plan distribution — exact equality, zero lost updates."""
        threads, per_thread = 16, 25
        handle = _ServerHandle(cache_size=32)
        try:
            errors: list = []

            def hammer(tid: int):
                try:
                    with handle.client() as c:
                        for i in range(per_thread):
                            if (tid + i) % 2:
                                assert c.match("a[0-9]+b", b"a42b")
                            else:
                                assert c.multiscan(RULES, b"x abc x") == [0]
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            workers = [
                threading.Thread(target=hammer, args=(t,))
                for t in range(threads)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join(60)
            assert not errors, errors

            total = threads * per_thread
            with handle.client() as c:
                stats = c.stats()
            assert stats["counters"]["requests"] == total
            assert stats["counters"]["errors"] == 0
            dist = stats["plans"]["distribution"]
            assert sum(dist.values()) == total
            assert stats["metrics"]["requests"] == total
        finally:
            handle.stop()

    def test_named_ruleset_and_hot_reload(self, tmp_path):
        rules = tmp_path / "main.rules"
        rules.write_text("abc\nerror [0-9]+\n")
        handle = _ServerHandle(cache_size=8, rulesets={"main": str(rules)})
        try:
            with handle.client() as c:
                assert c.multiscan(data=b"x error 9", ruleset="main") == [1]
                stats = c.stats()
                assert stats["rulesets"]["version"] == 1
                assert stats["rulesets"]["loaded"]["main"]["rules"] == 2
                # grow the file on disk, then hot-swap it in
                rules.write_text("abc\nerror [0-9]+\nzz*top\n")
                reply = c.reload()
                assert reply["version"] == 2
                assert reply["rulesets"]["main"]["rules"] == 3
                assert c.multiscan(data=b"zztop", ruleset="main") == [2]
        finally:
            handle.stop()

    def test_unknown_ruleset_is_bad_request(self, tmp_path):
        rules = tmp_path / "main.rules"
        rules.write_text("abc\n")
        handle = _ServerHandle(cache_size=8, rulesets={"main": str(rules)})
        try:
            with handle.client() as c:
                err = c.request(
                    {"op": "multiscan", "ruleset": "nope"}, b"x", check=False
                )
                assert err["ok"] is False
                assert err["error"]["kind"] == "bad-request"
                assert "main" in err["error"]["message"]  # lists loaded names
        finally:
            handle.stop()

    def test_reload_without_rulesets_is_bad_request(self, server):
        with server.client() as c:
            err = c.request({"op": "reload"}, check=False)
            assert err["ok"] is False
            assert err["error"]["kind"] == "bad-request"


class TestServiceDrain:
    def test_request_after_shutdown_is_clean_service_error(self):
        """A client caught mid-drain gets a structured ServiceError —
        never a raw OSError traceback, never a false success."""
        handle = _ServerHandle(cache_size=8)
        bystander = handle.client()
        assert bystander.ping()  # established before the drain starts
        with handle.client() as c:
            assert c.shutdown()["ok"] is True
        handle.thread.join(10)
        assert not handle.thread.is_alive()
        with pytest.raises(ServiceError) as excinfo:
            for _ in range(3):  # buffered writes may need a round-trip
                bystander.request({"op": "ping"})
        assert excinfo.value.kind in ("protocol", "io")
        bystander.close()

    def test_requests_racing_shutdown_never_raise_raw_errors(self):
        """Threads hammering the server while another shuts it down must
        only ever see clean replies or ServiceError — nothing raw."""
        handle = _ServerHandle(cache_size=8)
        raw: list = []
        done = threading.Event()

        def hammer():
            try:
                with handle.client(timeout=5.0) as c:
                    while not done.is_set():
                        c.match("abc", b"xabcx")
            except ServiceError:
                pass  # the clean outcome
            except Exception as exc:  # pragma: no cover
                raw.append(exc)

        workers = [threading.Thread(target=hammer) for _ in range(4)]
        for w in workers:
            w.start()
        time.sleep(0.2)
        try:
            with handle.client() as c:
                c.shutdown()
        except ServiceError:
            pass  # shutdown reply may race the drain
        handle.thread.join(10)
        done.set()
        for w in workers:
            w.join(10)
        assert not raw, raw
        assert not handle.thread.is_alive()
