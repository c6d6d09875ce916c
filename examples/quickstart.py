#!/usr/bin/env python
"""Quickstart: compile a regex, inspect the pipeline, match in parallel.

Walks the paper's four-step pipeline on the worked example ``(ab)*``
(Figs. 1–2, Table I) and runs every matching engine on the same input.

Run:  python examples/quickstart.py
"""

from repro import Plan, compile_pattern


def main() -> None:
    # 1. Compile.  Construction is staged and lazy: regex -> NFA -> DFA ->
    #    minimal DFA -> D-SFA, each stage built on first use.
    m = compile_pattern("(ab)*")

    print("pattern:", m.pattern)
    print("pipeline sizes:", m.sizes())
    # The paper's worked example: |D1| = 3 (Fig. 1), |S1| = 6 (Fig. 2).
    assert m.sizes()["min_dfa"] == 3
    assert m.sizes()["d_sfa"] == 6

    # 2. Simple membership (Algorithm 2: sequential DFA run).
    print()
    print("fullmatch(b'abab')   ->", m.fullmatch(b"abab"))
    print("fullmatch(b'aba')    ->", m.fullmatch(b"aba"))

    # 3. Data-parallel membership (Algorithm 5).  The input is cut into
    #    chunks; each chunk is scanned independently starting from the SFA's
    #    identity state; chunk results are reduced with the associative ⊙.
    data = b"ab" * 1_000_000
    print()
    for engine, chunks in [("dfa", 1), ("speculative", 8), ("sfa", 8), ("lockstep", 8)]:
        verdict = m.fullmatch(data, plan=Plan(engine=engine, num_chunks=chunks))
        print(f"engine={engine:<12} chunks={chunks}  2MB accepted -> {verdict}")

    # 4. Substring search (what an IDS does): membership in Σ*·L·Σ*.
    print()
    print("contains(b'xx abab xx') ->", m.contains(b"xx abab xx"))

    # 5. Look inside: the SFA state reached on a chunk *is* the mapping
    #    "state -> state after reading the chunk" for every possible start.
    print()
    classes = m.translate(b"abab")
    f = m.sfa.run_classes(classes)
    print("SFA state after 'abab' maps each DFA state q to:")
    for q in range(m.min_dfa.num_states):
        print(f"   {q} -> {m.sfa.apply_mapping(f, q)}")
    print("accepting?", bool(m.sfa.accept[f]))


if __name__ == "__main__":
    main()
