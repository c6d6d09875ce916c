"""Extension — the match service: what the compiled-pattern cache buys.

The ROADMAP north star is serving heavy traffic, and Table III is the
reason a per-request compile cannot: construction dominates end-to-end
latency for one-shot matches.  This bench runs a real
:class:`~repro.service.server.MatchService` on a loopback socket and
drives it with the blocking client, measuring

* **cold** round-trips — every request carries a fresh pattern, so the
  server compiles per request (the one-shot CLI cost model),
* **warm** round-trips — the same pattern repeated, so requests after the
  first are one LRU hit plus one kernel scan, and
* payload throughput (MB/s) and aggregate multi-client req/s.

The acceptance bar (ISSUE 5): a cached ``match`` round-trip must be at
least 10× faster than the cold per-request-compile round-trip.
"""

import asyncio
import os
import threading

from repro.bench.harness import BenchRecord, format_table, shape_check, time_callable
from repro.bench.report import emit, emit_json
from repro.planning.plan import Plan
from repro.service.client import ServiceClient
from repro.service.server import MatchService

# A pattern family with a real construction cost (subset construction
# over (a|b)*a(a|b)^k is exponential in k), varied by a literal suffix so
# every "cold" request is a distinct cache key with identical work.
PATTERN = "(a|b)*a(a|b){8}"
COLD_REQUESTS = 12
WARM_REQUESTS = 200
PAYLOAD = (b"ab" * 512) + b"a" + (b"ab" * 4) + b"b"  # ~1 KB, matches
BULK_PAYLOAD = b"xy ERROR 42 " * 16_000  # ~192 KB for throughput


class _Server:
    def __init__(self, **kw):
        self.service = MatchService(port=0, **kw)
        ready = threading.Event()

        def run():
            async def main():
                await self.service.start()
                ready.set()
                await self.service.serve_until_shutdown()

            asyncio.run(main())

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        assert ready.wait(10)
        self.port = self.service.port

    def stop(self):
        try:
            with ServiceClient(port=self.port) as c:
                c.shutdown()
        except Exception:  # pragma: no cover - already down
            pass
        self.thread.join(10)


def test_cached_vs_cold_roundtrip(benchmark):
    srv = _Server(cache_size=256)
    try:
        with ServiceClient(port=srv.port) as c:
            # Cold: a distinct pattern per request -> compile every time.
            cold_patterns = [f"{PATTERN}c{{{i + 1}}}" for i in range(COLD_REQUESTS)]
            cold_payloads = [PAYLOAD + b"c" * (i + 1) for i in range(COLD_REQUESTS)]
            import time

            t0 = time.perf_counter()
            for pat, data in zip(cold_patterns, cold_payloads):
                assert c.match(pat, data)
            t_cold = (time.perf_counter() - t0) / COLD_REQUESTS

            # Warm: one pattern, many requests; first request pays the
            # compile, so time only the steady state.
            assert c.match(PATTERN + "c{1}", PAYLOAD + b"c")
            t0 = time.perf_counter()
            for _ in range(WARM_REQUESTS):
                assert c.match(PATTERN + "c{1}", PAYLOAD + b"c")
            t_warm = (time.perf_counter() - t0) / WARM_REQUESTS

            stats = c.stats()["cache"]
        speedup = t_cold / t_warm
        rows = [
            BenchRecord("cold (compile per request)", {
                "ms/req": t_cold * 1e3, "req/s": 1 / t_cold, "speedup": 1.0,
            }),
            BenchRecord("warm (LRU cache hit)", {
                "ms/req": t_warm * 1e3, "req/s": 1 / t_warm,
                "speedup": speedup,
            }),
        ]
        emit(format_table(
            "Match service — cached vs per-request-compile round-trips "
            f"({len(PAYLOAD) + 1} B payload, loopback TCP)",
            ["ms/req", "req/s", "speedup"],
            rows,
            note="Cold requests each carry a fresh pattern (every request "
            "is a cache miss); warm requests repeat one pattern, so the "
            "round-trip is one LRU hit + one scan.  This is Table III's "
            "construction-dominates observation turned into a service "
            "design: the cache amortizes compilation across requests.",
        ))
        emit_json("bench_service", "match cold (per-request compile)",
                  req_per_s=round(1 / t_cold, 1), ms_per_req=round(t_cold * 1e3, 3))
        emit_json("bench_service", "match warm (cached)",
                  req_per_s=round(1 / t_warm, 1), ms_per_req=round(t_warm * 1e3, 3),
                  speedup=speedup)
        assert stats["hits"] >= WARM_REQUESTS
        # The acceptance bar: caching must be a 10x latency win.
        shape_check(
            "cached match round-trip >= 10x faster than cold compile",
            speedup >= 10.0,
            f"cold {t_cold * 1e3:.2f} ms vs warm {t_warm * 1e3:.2f} ms "
            f"({speedup:.1f}x)",
        )
    finally:
        srv.stop()

    # steady-state benchmark metric: warm round-trip latency
    srv2 = _Server(cache_size=16)
    try:
        c = ServiceClient(port=srv2.port)
        c.match("(ab)*", b"abab")
        benchmark.pedantic(
            lambda: c.match("(ab)*", b"abab"), rounds=20, iterations=5
        )
        c.close()
    finally:
        srv2.stop()


def test_payload_throughput_and_concurrency(benchmark):
    srv = _Server(cache_size=16)
    try:
        with ServiceClient(port=srv.port) as c:
            c.compile("ERROR [0-9]+", stages=["spans"])  # pre-warm
            t_spans = time_callable(
                lambda: c.finditer("ERROR [0-9]+", BULK_PAYLOAD, limit=1),
                repeat=3,
            )
            chunked = Plan(engine="sfa", num_chunks=4, kernel="stride2")
            t_scan = time_callable(
                lambda: c.match("ERROR [0-9]+", BULK_PAYLOAD,
                                mode="contains", plan=chunked),
                repeat=3,
            )
        mbps_spans = len(BULK_PAYLOAD) / 1e6 / t_spans
        mbps_scan = len(BULK_PAYLOAD) / 1e6 / t_scan

        # Aggregate req/s with 8 concurrent clients on one warm pattern.
        NCLIENTS, PER_CLIENT = 8, 40
        errs = []
        barrier = threading.Barrier(NCLIENTS + 1)

        def worker():
            try:
                with ServiceClient(port=srv.port) as cc:
                    cc.match("(ab)*", b"abab")  # connect + warm
                    barrier.wait(timeout=30)
                    for _ in range(PER_CLIENT):
                        assert cc.match("(ab)*", b"abab")
                    barrier.wait(timeout=60)
            except Exception as e:  # pragma: no cover
                errs.append(repr(e))

        threads = [threading.Thread(target=worker) for _ in range(NCLIENTS)]
        for t in threads:
            t.start()
        import time

        barrier.wait(timeout=30)
        t0 = time.perf_counter()
        barrier.wait(timeout=60)
        elapsed = time.perf_counter() - t0
        for t in threads:
            t.join(10)
        assert not errs, errs[:3]
        agg = NCLIENTS * PER_CLIENT / elapsed

        rows = [
            BenchRecord("finditer (serial, warm)", {
                "MB/s": mbps_spans, "req/s": 1 / t_spans,
            }),
            BenchRecord("scan chunks=4 stride2", {
                "MB/s": mbps_scan, "req/s": 1 / t_scan,
            }),
            BenchRecord(f"{NCLIENTS} concurrent clients", {
                "MB/s": None, "req/s": agg,
            }),
        ]
        emit(format_table(
            f"Match service — payload throughput ({len(BULK_PAYLOAD) // 1000} KB "
            "payload) and aggregate concurrent req/s",
            ["MB/s", "req/s"],
            rows,
            note="Requests ship the payload over loopback TCP, so MB/s "
            "includes framing + copy cost, not just the kernel scan; the "
            "concurrent series exercises the handler thread pool and the "
            "shared cache under contention.",
        ))
        emit_json("bench_service", "finditer warm", mb_per_s=mbps_spans)
        emit_json("bench_service", "scan chunks=4 stride2", mb_per_s=mbps_scan)
        emit_json("bench_service", f"{NCLIENTS} concurrent clients",
                  req_per_s=round(agg, 1))
        shape_check("service survives concurrent load", agg > 0, f"{agg:.0f} req/s")

        benchmark.pedantic(
            lambda: ServiceClient(port=srv.port).close(), rounds=5, iterations=1
        )
    finally:
        srv.stop()


def _prefork_req_per_s(workers: int, connections: int, threads: int) -> float:
    """Aggregate connection-per-second rate against a pre-fork server.

    Every request rides its own TCP connection (the grep-as-a-service
    access pattern), spread over ``threads`` client threads so the
    backlog stays saturated without needing a thousand OS threads.
    """
    import time

    from repro.service.prefork import PreforkServer

    srv = PreforkServer("127.0.0.1", 0, workers, cache_size=64)
    srv.start()
    sup = threading.Thread(target=srv.supervise, daemon=True)
    sup.start()
    try:
        # Warm every worker's cache (reuseport balancing reaches all of
        # them within a few connections).
        for _ in range(8 * workers):
            with ServiceClient(port=srv.port) as c:
                assert c.match("(ab)*", b"abab")

        per_thread = connections // threads
        errs: list = []
        barrier = threading.Barrier(threads + 1)

        def client_thread():
            try:
                barrier.wait(timeout=60)
                for _ in range(per_thread):
                    with ServiceClient(port=srv.port, timeout=30.0) as cc:
                        assert cc.match("(ab)*", b"abab")
                barrier.wait(timeout=120)
            except Exception as e:  # pragma: no cover
                errs.append(repr(e))

        ts = [threading.Thread(target=client_thread) for _ in range(threads)]
        for t in ts:
            t.start()
        barrier.wait(timeout=60)
        t0 = time.perf_counter()
        barrier.wait(timeout=120)
        elapsed = time.perf_counter() - t0
        for t in ts:
            t.join(10)
        assert not errs, errs[:3]
        return threads * per_thread / elapsed
    finally:
        srv.request_shutdown()
        sup.join(30)


def test_prefork_scaling_1k_connections():
    """ISSUE 9 acceptance: req/s vs worker count under 1k connections.

    On a multi-core box 2 workers must clear 1.5x one worker; in a
    single-core CI container the bar is no-collapse (>= 0.8x), since two
    processes cannot beat one on one CPU.
    """
    CONNECTIONS, THREADS = 1024, 32
    cores = os.cpu_count() or 1
    bar = 1.5 if cores >= 2 else 0.8

    series = {w: _prefork_req_per_s(w, CONNECTIONS, THREADS) for w in (1, 2)}
    ratio = series[2] / series[1]
    if ratio < bar:  # deflake: one re-measure before judging
        series = {
            w: _prefork_req_per_s(w, CONNECTIONS, THREADS) for w in (1, 2)
        }
        ratio = series[2] / series[1]

    rows = [
        BenchRecord(f"workers={w}", {
            "req/s": rate, "speedup": rate / series[1],
        })
        for w, rate in series.items()
    ]
    emit(format_table(
        f"Match service — pre-fork scaling ({CONNECTIONS} connections, "
        f"{THREADS} client threads, one request per connection, "
        f"{cores} core(s))",
        ["req/s", "speedup"],
        rows,
        note="Each worker is a full process with its own GIL, accept "
        "loop and handler pool; SO_REUSEPORT load-balances connections "
        "in the kernel.  Scaling is real on multi-core hosts; on one "
        "core the check only pins the absence of a coordination "
        "collapse.",
    ))
    for w, rate in series.items():
        emit_json("bench_service", f"prefork workers={w}",
                  req_per_s=round(rate, 1), connections=CONNECTIONS,
                  speedup=rate / series[1], cores=cores)
    shape_check(
        f"prefork workers=2 >= {bar}x workers=1 on {cores} core(s)",
        ratio >= bar,
        f"workers=1 {series[1]:.0f} req/s vs workers=2 {series[2]:.0f} "
        f"req/s ({ratio:.2f}x)",
    )
