"""Extension — multi-pattern scanning (the paper's IDS motivation).

The introduction positions SFA against systems that get parallelism only
from having many rules/packets.  This bench shows the two compose: a
whole ruleset compiled into one union automaton is scanned once (chunk-
parallel), versus scanning the payload once per rule.  The union automaton
amortizes the scan across rules, and Theorem 3 still applies — per-rule
verdicts are chunk-invariant.
"""

from repro import compile_pattern
from repro.bench.harness import BenchRecord, format_table, shape_check, time_callable
from repro.bench.report import emit, emit_json
from repro.matching.multi import MultiPatternSet
from repro.planning.plan import Plan
from repro.workloads.textgen import random_text

RULES = [
    "attack[0-9]{1,3}",
    "(GET|POST) /admin",
    "(?i)select\\+",
    "\\.\\./\\.\\./",
    "cmd=[a-z]{2,8}",
]

PAYLOAD_BYTES = 300_000


def test_union_scan_vs_per_rule(benchmark):
    mps = MultiPatternSet(RULES, mode="search")
    singles = [compile_pattern(r).search_pattern() for r in RULES]
    payload = random_text(PAYLOAD_BYTES, seed=3, alphabet=b"abcdefg /.=+0123")

    def union_scan():
        return mps.matches(payload, plan=Plan(num_chunks=16))

    def per_rule_scan():
        return {
            i for i, s in enumerate(singles)
            if s.fullmatch(payload, plan=Plan(engine="lockstep", num_chunks=16))
        }

    assert union_scan() == per_rule_scan()  # identical verdicts
    t_union = time_callable(union_scan, repeat=2)
    t_per_rule = time_callable(per_rule_scan, repeat=2)

    rows = [
        BenchRecord("one union scan (5 rules)", {
            "seconds": t_union,
            "MB/s effective": PAYLOAD_BYTES * len(RULES) / 1e6 / t_union,
        }),
        BenchRecord("5 per-rule scans", {
            "seconds": t_per_rule,
            "MB/s effective": PAYLOAD_BYTES * len(RULES) / 1e6 / t_per_rule,
        }),
        BenchRecord("speedup", {
            "seconds": t_per_rule / t_union, "MB/s effective": None,
        }),
    ]
    emit(
        format_table(
            f"Extension — union-automaton ruleset scan, {PAYLOAD_BYTES//1000} KB payload",
            ["seconds", "MB/s effective"],
            rows,
            note=f"union DFA {mps.dfa.num_states} states, union D-SFA "
            f"{mps.sfa.num_states} states; one chunk-parallel pass decides "
            "all rules at once.",
        )
    )
    shape_check("union scan beats per-rule scans", t_union < t_per_rule,
                f"{t_union:.3f} vs {t_per_rule:.3f}")

    benchmark.pedantic(union_scan, rounds=3, iterations=1)


def test_kernel_executor_series(benchmark):
    """Extension — kernel × executor series on a generated SNORT ruleset.

    The seed p=1 multi-pattern scan was a per-byte NumPy-indexed union-DFA
    walk; PR 3 routes serial scans through the compiled kernels (cached
    flat-list walk, largest affordable stride table) and threads the
    executor backends through the chunked path.  The acceptance bar is the
    stride4 kernel at ≥ 3× the seed per-byte scan at p=1 — on this
    ruleset's 37-class alphabet a k⁴ table is unbuildable, so stride4
    degrades to the 2-gram table and the win comes from stride2 + the
    cached scan loop.
    """
    from repro.workloads.snort import generate_ruleset

    rules = list(generate_ruleset(12, seed=5))[:5]
    mps = MultiPatternSet(rules, max_dfa_states=300_000)
    payload = random_text(PAYLOAD_BYTES, seed=11, alphabet=b"abcdefg /.=+0123")
    mb = PAYLOAD_BYTES / 1e6

    def seed_scan():
        # the pre-kernel p=1 path, kept as the comparison baseline
        q = mps.dfa.run_classes(mps.partition.translate(payload))
        return set(mps.rule_sets[q])

    ref = seed_scan()
    rows = []
    times = {}

    def series(label, fn):
        assert fn() == ref, label  # bit-identical verdicts, every combo
        t = time_callable(fn, repeat=2)
        times[label] = t
        rows.append(BenchRecord(label, {"seconds": t, "MB/s": mb / t}))

    series("seed DFA walk (p=1)", seed_scan)
    for kernel in ("python", "stride2", "stride4"):
        series(
            f"p=1 kernel={kernel}",
            lambda kernel=kernel: mps.matches(payload, plan=Plan(kernel=kernel)),
        )
    for executor in ("serial", "threads", "processes"):
        for kernel in ("python", "stride4"):
            series(
                f"p=4 executor={executor} kernel={kernel}",
                lambda e=executor, k=kernel: mps.matches(payload, plan=Plan(
                    num_chunks=4, executor=e, num_workers=4, kernel=k,
                )),
            )
    emit(
        format_table(
            f"Extension — multi-pattern kernel × executor series, "
            f"{PAYLOAD_BYTES//1000} KB payload, {len(rules)} SNORT-like rules",
            ["seconds", "MB/s"],
            rows,
            note=f"union DFA {mps.dfa.num_states} states, "
            f"{mps.partition.num_classes} byte classes; chunked rows scan "
            f"the union D-SFA ({mps.sfa.num_states} states).",
        )
    )
    base = times["seed DFA walk (p=1)"]
    for label, t in times.items():
        emit_json("bench_multipattern", label, mb_per_s=mb / t,
                  speedup=base / t)
    speedup = times["seed DFA walk (p=1)"] / times["p=1 kernel=stride4"]
    shape_check(
        "stride4 kernel >= 3x the seed per-byte multi scan at p=1",
        speedup >= 3.0,
        f"{speedup:.1f}x",
    )
    benchmark.pedantic(
        lambda: mps.matches(payload, plan=Plan(kernel="stride4")), rounds=3, iterations=1
    )


def test_rule_count_scaling_series(benchmark):
    """Extension — backend scaling to 100/1000-rule rulesets (§3.11).

    The eager union cross-product explodes long before real IDS scale
    (~a dozen random rules already exceed 200k states), so the scaling
    series runs on the lazy backend: compile seconds and warm-scan MB/s
    as the rule count grows 5 → 100 → 1000.  Acceptance bars (recorded
    in BENCH_results.json): the 1000-rule lazy compile stays under 10 s
    while eager with a shared reduced budget raises StateExplosionError;
    the 1000-rule warm scan holds ≥ 1/3 of the 5-rule lazy throughput
    (the on-the-fly walk's per-symbol cost is rule-count-independent
    once the hot region is materialized); and ``backend="auto"`` picks a
    non-exploding backend with no user knobs and agrees bit-for-bit.
    """
    import time

    from repro.errors import StateExplosionError
    from repro.workloads.snort import generate_ruleset

    payload = random_text(PAYLOAD_BYTES, seed=11, alphabet=b"abcdefg /.=+0123")
    mb = PAYLOAD_BYTES / 1e6
    shared_budget = 2_000  # states; eager must fail *fast* to be a bar

    rows = []
    series = {}
    for n in (5, 100, 1000):
        rules = list(generate_ruleset(n, seed=2940).patterns)
        t0 = time.perf_counter()
        mps = MultiPatternSet(rules, backend="lazy")
        t_compile = time.perf_counter() - t0
        t0 = time.perf_counter()
        verdict = mps.matches(payload)
        t_cold = time.perf_counter() - t0
        t_warm = time_callable(lambda: mps.matches(payload), repeat=2)
        series[n] = {
            "compile": t_compile, "warm": t_warm, "verdict": verdict,
            "rules": rules,
        }
        rows.append(BenchRecord(f"lazy {n} rules", {
            "compile s": t_compile,
            "cold scan s": t_cold,
            "warm MB/s": mb / t_warm,
            "states": mps.num_materialized,
        }))
        emit_json("bench_multipattern_scale", f"lazy_{n}_rules",
                  mb_per_s=mb / t_warm, compile_seconds=t_compile,
                  num_materialized=mps.num_materialized)

    # Bar 1: 1000-rule lazy compile < 10 s.
    shape_check("1000-rule lazy compile < 10 s",
                series[1000]["compile"] < 10.0,
                f"{series[1000]['compile']:.2f}s")

    # Bar 2: the same ruleset with the same (reduced, shared) budget
    # explodes eagerly — the lazy backend is what makes it servable.
    t0 = time.perf_counter()
    try:
        MultiPatternSet(series[1000]["rules"], max_dfa_states=shared_budget)
        exploded = False
    except StateExplosionError:
        exploded = True
    t_eager = time.perf_counter() - t0
    rows.append(BenchRecord("eager 1000 rules (budget 2k)", {
        "compile s": t_eager, "cold scan s": None, "warm MB/s": None,
        "states": None,
    }))
    emit_json("bench_multipattern_scale", "eager_1000_rules_explodes",
              exploded=exploded, compile_seconds=t_eager,
              state_budget=shared_budget)
    shape_check("eager union explodes at 1000 rules", exploded,
                f"budget {shared_budget}, {t_eager:.2f}s to fail")

    # Bar 3: warm throughput within 3x of the 5-rule series.
    ratio = series[5]["warm"] and series[1000]["warm"] / series[5]["warm"]
    shape_check(
        "1000-rule warm scan within 3x of 5-rule throughput",
        series[1000]["warm"] <= 3.0 * series[5]["warm"],
        f"{ratio:.2f}x slower",
    )

    # Bar 4: backend="auto" never raises and agrees bit-for-bit.
    t0 = time.perf_counter()
    auto = MultiPatternSet(series[1000]["rules"], backend="auto")
    t_auto = time.perf_counter() - t0
    assert auto.matches(payload) == series[1000]["verdict"]
    emit_json("bench_multipattern_scale", "auto_1000_rules",
              backend=auto.backend, compile_seconds=t_auto,
              groups=auto.group_count)
    shape_check("auto picks a non-exploding backend at 1000 rules",
                auto.backend in ("lazy", "sharded"), auto.backend)

    emit(
        format_table(
            f"Extension — lazy-backend rule-count scaling, "
            f"{PAYLOAD_BYTES//1000} KB payload",
            ["compile s", "cold scan s", "warm MB/s", "states"],
            rows,
            note=f"auto resolved to backend={auto.backend!r} "
            f"({auto.group_count} groups); eager budget {shared_budget} "
            "states shared across the explosion leg.",
        )
    )
    mps1000 = MultiPatternSet(series[1000]["rules"], backend="lazy")
    mps1000.matches(payload)  # warm before the pedantic rounds
    benchmark.pedantic(lambda: mps1000.matches(payload),
                       rounds=3, iterations=1)


def test_chunk_invariance_of_rule_sets(benchmark):
    mps = MultiPatternSet(RULES, mode="search")
    payload = (b"x" * 999 + b"attack42 " + b"y" * 500 + b"GET /admin " +
               b"z" * 700 + b"../../ ")
    ref = mps.matches(payload, plan=Plan(num_chunks=1))
    assert ref == {0, 1, 3}
    for p in (2, 3, 7, 16, 64):
        assert mps.matches(payload, plan=Plan(num_chunks=p)) == ref
    benchmark.pedantic(lambda: mps.matches(payload, plan=Plan(num_chunks=16)),
                       rounds=3, iterations=1)
