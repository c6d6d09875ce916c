#!/usr/bin/env python
"""Large-log grep: chunk-parallel scan of a multi-megabyte log stream.

Demonstrates the throughput story of the paper on a realistic workload:
find lines matching a timestamped-error pattern in a synthetic server log.
Compares the sequential DFA engine (Algorithm 2) with the data-parallel
lockstep SFA engine (Algorithm 5) at several chunk counts, on the *same*
containment automaton.

Run:  python examples/log_search.py [megabytes]
"""

import sys
import time

import numpy as np

from repro import Plan, compile_pattern

PATTERN = r"ERROR [0-9]{3} (timeout|refused|reset) at [0-9]{2}:[0-9]{2}:[0-9]{2}"

_LINES = [
    b"INFO  200 ok served /index in 00:00:03\n",
    b"DEBUG cache warm for key user:42\n",
    b"WARN  slow query 00:00:09 on shard 3\n",
    b"ERROR 504 timeout at 12:34:56 upstream api\n",
    b"INFO  201 created /upload in 00:00:01\n",
    b"ERROR 111 refused at 23:59:59 connecting db\n",
]


def synth_log(target_mb: float, seed: int = 11) -> bytes:
    rng = np.random.default_rng(seed)
    out = bytearray()
    target = int(target_mb * 1e6)
    # errors are rare: ~3% of lines
    weights = np.array([0.30, 0.30, 0.20, 0.015, 0.17, 0.015])
    idx = rng.choice(len(_LINES), size=target // 35, p=weights / weights.sum())
    for i in idx:
        out += _LINES[int(i)]
        if len(out) >= target:
            break
    return bytes(out)


def main() -> None:
    target_mb = float(sys.argv[1]) if len(sys.argv) > 1 else 4.0
    log = synth_log(target_mb)
    print(f"log size: {len(log)/1e6:.1f} MB")

    m = compile_pattern(PATTERN)
    search = m.search_pattern()
    print("pattern:", PATTERN)
    print("containment automaton:", search.sizes())

    # verdict first: does the log contain an error line?
    verdict = search.fullmatch(log, plan=Plan(engine="lockstep", num_chunks=8))
    print("log contains an ERROR match:", verdict)

    print()
    print(f"{'engine':<22}{'chunks':>7}{'seconds':>10}{'MB/s':>10}")
    t0 = time.perf_counter()
    search.fullmatch(log, plan=Plan(engine="dfa"))
    t_dfa = time.perf_counter() - t0
    print(f"{'dfa (Algorithm 2)':<22}{1:>7}{t_dfa:>10.3f}{len(log)/1e6/t_dfa:>10.1f}")

    for p in (1, 2, 4, 8, 16, 32, 64):
        t0 = time.perf_counter()
        search.fullmatch(log, plan=Plan(engine="lockstep", num_chunks=p))
        t = time.perf_counter() - t0
        print(f"{'sfa lockstep (Alg. 5)':<22}{p:>7}{t:>10.3f}{len(log)/1e6/t:>10.1f}")

    print()
    print("The lockstep engine advances all chunk states with one vectorized")
    print("gather per position, so throughput grows with the chunk count —")
    print("the single-process realization of the paper's Fig. 6 curve.")


if __name__ == "__main__":
    main()
