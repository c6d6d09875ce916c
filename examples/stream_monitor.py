#!/usr/bin/env python
"""Online multi-rule monitoring of a byte stream.

Combines the two production extensions built on the SFA's compositional
structure (Lemma 1):

* a :class:`MultiPatternSet` compiles several IDS-style rules into one
  union automaton whose states know *which* rules matched;
* a :class:`StreamMatcher` folds arriving blocks into a running SFA state,
  so verdicts are available after every block without replaying —
  something a plain DFA loop also does, but here each block scan could
  itself be chunk-parallel (ParallelStreamMatcher).

Run:  python examples/stream_monitor.py
"""

from repro.matching.multi import MultiPatternSet
from repro.matching.stream import ParallelStreamMatcher, StreamMatcher
from repro.planning.plan import Plan

RULES = [
    r"SELECT\+[a-z]+\+FROM",     # SQL injection shape (URL-encoded spaces)
    r"\.\./\.\./",               # path traversal
    r"(?i)powershell",            # lolbin invocation
]

# A "network stream" arriving in irregular blocks.
BLOCKS = [
    b"GET /index.html HTTP/1.1\r\nHost: example.com\r\n\r\n",
    b"POST /search?q=SELECT+name+",
    b"FROM+users HTTP/1.1\r\n",          # completes rule 0 across blocks!
    b"Cookie: session=../",
    b"../etc/passwd\r\n",                 # completes rule 1 across blocks!
    b"User-Agent: PowerShell/7.2\r\n",    # rule 2 (case-insensitive)
]


def main() -> None:
    mps = MultiPatternSet(RULES, mode="search")
    print("rules:")
    for i, r in enumerate(RULES):
        print(f"  [{i}] {r}")
    print("union automaton:", mps.sizes())
    print()

    # Stream the blocks through a single online cursor over the union SFA.
    cursor = StreamMatcher(mps.sfa)
    fired = set()
    for i, block in enumerate(BLOCKS):
        cursor.feed(block)
        # which rules have matched somewhere in the stream so far?
        state = cursor.final_states()[0]
        hits = set(mps.rule_sets[state])
        new = hits - fired
        fired = hits
        flag = f"  !! rules {sorted(new)} fired" if new else ""
        print(f"block {i}: +{len(block):3d} B "
              f"(total {cursor.bytes_consumed:3d} B){flag}")

    print()
    print("rules fired over the whole stream:", sorted(fired))
    assert fired == {0, 1, 2}

    # The parallel cursor gives identical verdicts (Lemma 1: composition
    # is associative, so block boundaries and intra-block chunking are
    # both irrelevant).
    par = ParallelStreamMatcher(mps.sfa, plan=Plan(num_chunks=4))
    for block in BLOCKS:
        par.feed(block)
    assert par.state == cursor.state
    print("parallel cursor reached the identical SFA state — Lemma 1 holds.")


if __name__ == "__main__":
    main()
