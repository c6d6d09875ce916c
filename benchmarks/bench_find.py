"""Span extraction vs acceptance-only scanning vs stdlib ``re.finditer``.

The span engine (DESIGN.md §3.7) pays two linear passes where acceptance
pays one: the right-to-left start pass (lane-parallel above a few KiB)
plus the sparse forward emission walks.  The tentpole acceptance claim is
that on a grep-shaped workload (sparse matches in bulk text) span
extraction stays within **3×** of the acceptance-only scan at ``p = 1``.

Spans are also cross-checked byte-identical against ``re.finditer`` on
this workload (the pattern has no greedy/longest divergence).
"""

import re

from repro import compile_pattern
from repro.bench.harness import (
    BenchRecord,
    format_table,
    measure_throughput,
    shape_check,
)
from repro.bench.report import emit, emit_json
from repro.matching.parallel_sfa import parallel_sfa_run
from repro.workloads.textgen import random_text

TEXT_BYTES = 1_500_000
PATTERN = "ERROR [0-9]+"


def _workload() -> bytes:
    """Log-like text: ~99% misses, a planted match every ~1500 bytes."""
    base = bytearray(random_text(
        TEXT_BYTES, seed=11, alphabet=b"abcdefghij ._=\n"
    ))
    step = 1500
    for i, off in enumerate(range(0, len(base) - 20, step)):
        needle = b"ERROR %d " % (i % 997)
        base[off:off + len(needle)] = needle
    return bytes(base)


def test_find_throughput(benchmark):
    text = _workload()
    m = compile_pattern(PATTERN)
    search = m.search_pattern()
    classes = search.translate(text)
    expected = [x.span() for x in re.finditer(PATTERN.encode(), text)]

    spans = list(m.finditer(text))
    shape_check("spans byte-identical to re.finditer on the workload",
                spans == expected, f"{len(spans)} vs {len(expected)} spans")
    shape_check("workload is non-trivial", len(spans) > 500, f"{len(spans)}")

    tput = {
        # acceptance-only: one Algorithm-5 pass over the containment SFA
        "accept p=1 python": measure_throughput(
            lambda: parallel_sfa_run(search.sfa, classes, 1, kernel="python"),
            len(text), repeat=3,
        ),
        "find p=1 python": measure_throughput(
            lambda: m.count(text), len(text), repeat=3,
        ),
        "find p=4 lockstep-chunked": measure_throughput(
            lambda: m.count(text, num_chunks=4), len(text), repeat=3,
        ),
        "find p=1 stride4": measure_throughput(
            lambda: m.count(text, num_chunks=2, kernel="stride4"),
            len(text), repeat=3,
        ),
        "re.finditer": measure_throughput(
            lambda: sum(1 for _ in re.finditer(PATTERN.encode(), text)),
            len(text), repeat=3,
        ),
    }

    base = tput["accept p=1 python"]
    rows = [
        BenchRecord(k, {"MB/s": v, "vs accept-only": v / base})
        for k, v in tput.items()
    ]
    emit(
        format_table(
            f"find/finditer — span extraction on {PATTERN!r}, "
            f"{TEXT_BYTES / 1e6:.1f} MB, {len(spans)} matches",
            ["MB/s", "vs accept-only"],
            rows,
            note="accept-only is the Algorithm-5 membership scan of the "
            "containment SFA (no positions).  find adds the right-to-left "
            "start pass + sparse emission walks; the acceptance claim is "
            "find >= accept/3 at p=1.  re.finditer is the stdlib "
            "backtracker on the same bytes.",
        )
    )
    for k, v in tput.items():
        emit_json("bench_find", k, mb_per_s=v, speedup=v / base,
                  pattern=PATTERN, text_bytes=TEXT_BYTES)

    shape_check(
        "span extraction within 3x of acceptance-only at p=1",
        tput["find p=1 python"] * 3 >= base,
        f"{tput['find p=1 python']:.1f} vs {base:.1f} MB/s",
    )

    benchmark.pedantic(lambda: m.count(text), rounds=3, iterations=1)


# -- literal prefilter: bearing vs free pattern classes ---------------------

#: patterns with a required literal factor >= 2 bytes (prefilter engages)
LITERAL_BEARING = ["ERROR [0-9]+", "fghij[0-9]"]
#: no usable literal run — the engine must fall back with ~zero overhead
LITERAL_FREE = ["[0-9]+", "[0-9][a-j_]{3}"]


def test_prefilter_throughput(benchmark):
    """§3.9: the literal prefilter on grep-shaped (sparse-match) input.

    Acceptance: literal-bearing patterns >= 5x faster with the prefilter;
    literal-free patterns never below 0.9x (the fallback costs one
    ``choose_prefilter`` call at compile time and nothing per scan).
    Both paths stay byte-identical to the unfiltered engine.
    """
    text = _workload()
    rows = []
    ratios = {}
    for pattern in LITERAL_BEARING + LITERAL_FREE:
        m = compile_pattern(pattern)
        engaged = m.span_engine().prefilter is not None
        shape_check(
            f"prefilter engagement as classified for {pattern!r}",
            engaged == (pattern in LITERAL_BEARING), f"engaged={engaged}",
        )
        shape_check(
            f"prefiltered spans byte-identical for {pattern!r}",
            list(m.finditer(text)) == list(m.finditer(text, prefilter=False)),
            "span mismatch",
        )
        on = measure_throughput(lambda: m.count(text), len(text), repeat=3)
        off = measure_throughput(
            lambda: m.count(text, prefilter=False), len(text), repeat=3
        )
        ratios[pattern] = on / off
        rows.append(BenchRecord(
            f"{'lit' if engaged else 'free'} {pattern}",
            {"on MB/s": on, "off MB/s": off, "speedup": on / off},
        ))
        emit_json(
            "bench_find", f"prefilter {pattern}", mb_per_s=on,
            mb_per_s_unfiltered=off, speedup=on / off,
            literal_bearing=pattern in LITERAL_BEARING,
            pattern=pattern, text_bytes=TEXT_BYTES,
        )

    emit(
        format_table(
            f"literal prefilter — bearing vs free classes, "
            f"{TEXT_BYTES / 1e6:.1f} MB sparse-match text",
            ["on MB/s", "off MB/s", "speedup"],
            rows,
            note="'lit' rows carry a required literal factor (>= 2 bytes) "
            "that gates candidate starts via bytes.find; 'free' rows have "
            "no such factor and take the plain start pass.  The acceptance "
            "claims are lit >= 5x and free >= 0.9x.",
        )
    )

    for pattern in LITERAL_BEARING:
        shape_check(
            f"prefilter >= 5x on literal-bearing {pattern!r}",
            ratios[pattern] >= 5.0, f"{ratios[pattern]:.2f}x",
        )
    for pattern in LITERAL_FREE:
        shape_check(
            f"prefilter fallback >= 0.9x on literal-free {pattern!r}",
            ratios[pattern] >= 0.9, f"{ratios[pattern]:.2f}x",
        )

    m = compile_pattern(LITERAL_BEARING[0])
    benchmark.pedantic(lambda: m.count(text), rounds=3, iterations=1)
