#!/usr/bin/env python
"""IDS-style payload scanning with a synthetic SNORT-like ruleset.

The paper motivates SFA with deep-packet inspection: thousands of PCRE
rules matched against packet payloads.  This example:

1. generates a synthetic ruleset (same mechanisms as SNORT patterns),
2. compiles each rule to a containment automaton (Σ*·L·Σ*),
3. scans a corpus of synthetic "packets" — some benign, some with
   planted rule matches — using the data-parallel lockstep engine,
4. reports per-rule hits and aggregate scan throughput.

Run:  python examples/ids_scan.py [num_rules] [num_packets]
"""

import sys
import time

import numpy as np

from repro import Plan, StateExplosionError, compile_pattern
from repro.workloads.snort import generate_ruleset
from repro.workloads.textgen import accepted_text, random_text


def build_matchers(num_rules: int):
    """Compile rules, skipping blow-ups exactly like the paper's study."""
    ruleset = generate_ruleset(num_rules, seed=2940)
    matchers = []
    skipped = 0
    for pat in ruleset:
        try:
            m = compile_pattern(pat, max_dfa_states=1000, max_sfa_states=500_000)
            s = m.search_pattern()
            s.sfa  # force containment-SFA construction
            matchers.append((pat, s))
        except StateExplosionError:
            skipped += 1
    print(f"compiled {len(matchers)} rules ({skipped} skipped for state budget)")
    return matchers


def build_packets(matchers, num_packets: int):
    """Synthetic payloads; ~30% get a planted match of some rule."""
    rng = np.random.default_rng(7)
    packets = []
    planted = 0
    for i in range(num_packets):
        body = bytearray(random_text(1024, seed=1000 + i, alphabet=b"abcdefgh /.:=%"))
        plant = rng.random() < 0.3
        if plant and matchers:
            pat, s = matchers[int(rng.integers(0, len(matchers)))]
            try:
                needle = accepted_text(s.min_dfa, 40, seed=i)
            except Exception:
                needle = b""
            if needle:
                pos = int(rng.integers(0, max(1, len(body) - len(needle))))
                body[pos : pos + len(needle)] = needle
                planted += 1
        packets.append(bytes(body))
    print(f"built {len(packets)} packets ({planted} with planted matches)")
    return packets


def scan(matchers, packets, num_chunks: int = 4):
    hits = {}
    total_bytes = 0
    t0 = time.perf_counter()
    for pkt in packets:
        total_bytes += len(pkt)
        for pat, s in matchers:
            if s.fullmatch(pkt, plan=Plan(engine="lockstep", num_chunks=num_chunks)):
                hits[pat] = hits.get(pat, 0) + 1
    elapsed = time.perf_counter() - t0
    scanned = total_bytes * len(matchers)
    print()
    print(f"scanned {total_bytes/1e3:.0f} KB x {len(matchers)} rules "
          f"in {elapsed:.2f}s  ({scanned/1e6/elapsed:.1f} MB/s rule-bytes)")
    print()
    top = sorted(hits.items(), key=lambda kv: -kv[1])[:10]
    if top:
        print("top matching rules:")
        for pat, n in top:
            shown = pat if len(pat) <= 50 else pat[:47] + "..."
            print(f"  {n:4d}  {shown}")
    else:
        print("no rule matched any packet")
    return hits


def main() -> None:
    num_rules = int(sys.argv[1]) if len(sys.argv) > 1 else 30
    num_packets = int(sys.argv[2]) if len(sys.argv) > 2 else 60
    matchers = build_matchers(num_rules)
    packets = build_packets(matchers, num_packets)
    scan(matchers, packets)


if __name__ == "__main__":
    main()
