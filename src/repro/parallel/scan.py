"""Table-scan kernels shared by every executor backend.

These are the per-chunk inner loops of Algorithms 3 and 5 factored into a
plain module so that worker *processes* can run them: a process pool cannot
pickle the closures that :mod:`repro.matching` builds around an automaton,
but it can ship ``(kernel name, shared-memory reference, span)`` triples and
let the worker import the kernel by name and run it against a zero-copy
view of the table (DESIGN.md §3.4).

Two scan *kinds* cover every chunked engine:

* ``"sfa"`` — Algorithm 5 chunk scan: walk *one* state through the chunk,
  one table lookup per character; returns the reached state index.
* ``"transform"`` — Algorithm 3 chunk scan: simulate *all* states at once;
  returns the transformation vector.

:func:`mask_scan` — the span engine's scalar per-position pass (DESIGN.md
§3.7) — lives here too, but is called in-process, never dispatched.

Each kind can run under two scan *shapes* (DESIGN.md §3.5):

* ``"python"`` — the reference per-symbol loop.
* ``"vector"`` — block-composed: per-block mappings are built with chained
  ``np.take_along_axis`` over the per-symbol transformation columns and
  tree-reduced with the associative ``right[left]`` composition, replacing
  the per-character Python loop with ``O(block + log(n/block))`` NumPy ops.

The multi-stride kernels (``"stride2"``/``"stride4"``) are not separate
scan shapes: the engine swaps in a precomposed superalphabet table
(:mod:`repro.automata.stride`) and packs the symbol stream
(:func:`repro.regex.charclass.pack_stride`), then dispatches one of the
shapes above over ``n/stride`` symbols — so workers need no stride logic.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Callable, Dict, Tuple, Union

import numpy as np

from repro.errors import MatchEngineError

#: Kernel knob values accepted by the engines (and threaded down here).
KERNELS = ("python", "stride2", "stride4", "vector")

SCAN_KINDS = ("sfa", "transform")

# ---------------------------------------------------------------------------
# Per-table derived-view caches
# ---------------------------------------------------------------------------

# Rebuilding the flattened lookup list (or the transposed column array) on
# every chunk call is an O(|Q|·k) tax repeated in every warm worker; cache
# them keyed on the table's identity — which, for shared-memory tables, is
# the per-segment view the worker's attachment cache keeps stable.  Cached
# tables are frozen (writeable=False) so an in-place mutation after caching
# fails loudly instead of silently scanning a stale derived view — the same
# contract ProcessExecutor applies to published tables.  Eviction is FIFO
# and bounded both by entry count and by total table entries (a boxed-int
# list costs ~9× the table bytes, so the byte cap matters for stride
# tables near their 4 MiB budget).
_DERIVED_LIMIT = 64
_DERIVED_ENTRY_BUDGET = 8_000_000  # total cached table entries across views
_CACHE_LOCK = threading.Lock()
_FLAT_CACHE: Dict[int, Tuple[Any, list, int]] = {}
_COLS_CACHE: Dict[int, Tuple[Any, np.ndarray, int]] = {}


def _cached_view(cache: Dict[int, Tuple[Any, Any, int]], table: np.ndarray, build: Callable):
    key = id(table)
    hit = cache.get(key)
    if hit is not None and hit[0]() is table:
        return hit[1]
    value = build(table)
    try:
        table.flags.writeable = False
        wr = weakref.ref(table)
    except (ValueError, TypeError):  # pragma: no cover - exotic array subclass
        return value  # cannot pin identity safely; rebuild per call
    size = int(table.size)
    with _CACHE_LOCK:  # ThreadExecutor workers share these caches
        while cache and (
            len(cache) >= _DERIVED_LIMIT
            or sum(e[2] for e in cache.values()) + size > _DERIVED_ENTRY_BUDGET
        ):
            cache.pop(next(iter(cache)), None)
        cache[key] = (wr, value, size)
    return value


def _scaled_flat(table: np.ndarray) -> list:
    """The table as a flat Python list with entries pre-scaled by the width.

    With ``flat[i] = table.flat[i] * k`` the walk keeps its state scaled
    (``f == state * k``) and each step is a single add + lookup,
    ``f = flat[f + c]`` — one fewer int allocation per symbol than
    ``flat[f * k + c]``, which is the loop's dominant cost.  Scaling is
    done in int64 so huge tables cannot overflow int32.
    """
    return _cached_view(
        _FLAT_CACHE,
        table,
        lambda t: (t.ravel().astype(np.int64) * t.shape[1]).tolist(),
    )


def _symbol_iter(classes: np.ndarray):
    """Cheapest per-symbol iterable: bytes for ``uint8`` streams.

    ``tobytes`` is one memcpy and iterating bytes yields interned small
    ints, where ``tolist`` materializes a list object per element first.
    """
    if classes.dtype == np.uint8:
        return classes.tobytes()
    return classes.tolist()


def table_columns(table: np.ndarray) -> np.ndarray:
    """Per-class transformation columns ``(k, n)``, cached per table."""
    return _cached_view(_COLS_CACHE, table, lambda t: np.ascontiguousarray(t.T))


# Accept vectors expanded to the scaled-state domain: acc[q * k] = accept[q]
# (intermediate offsets are never indexed — the walk only lands on
# multiples of k).  Keyed on (accept identity, width) since the same accept
# vector may pair with tables of different widths (base vs stride tables
# share |Q| but not k).
_ACC_CACHE: Dict[Tuple[int, int], Tuple[Any, bytes]] = {}


def _accept_flat(accept: np.ndarray, k: int) -> bytes:
    key = (id(accept), k)
    hit = _ACC_CACHE.get(key)
    if hit is not None and hit[0]() is accept:
        return hit[1]
    value = np.repeat(np.asarray(accept, dtype=np.uint8), k).tobytes()
    try:
        accept.flags.writeable = False
        wr = weakref.ref(accept)
    except (ValueError, TypeError, AttributeError):
        return value  # cannot pin identity safely; rebuild per call
    with _CACHE_LOCK:
        while len(_ACC_CACHE) >= _DERIVED_LIMIT:
            _ACC_CACHE.pop(next(iter(_ACC_CACHE)), None)
        _ACC_CACHE[key] = (wr, value)
    return value


# ---------------------------------------------------------------------------
# Reference (python) kernels
# ---------------------------------------------------------------------------


def sfa_scan(table: np.ndarray, initial: int, classes: np.ndarray) -> int:
    """Walk one automaton state through ``classes`` (Algorithm 5 lines 1-5).

    The flattened lookup list is cached per table (rebuilding it on every
    chunk call was an O(|Q|·k) tax repeated in every warm worker) and
    pre-scaled so the loop body is one add + one list pick per symbol.
    """
    k = table.shape[1]
    flat = _scaled_flat(table)
    f = int(initial) * k
    for c in _symbol_iter(classes):
        f = flat[f + c]
    return f // k


def _accept_suffix_threshold(accept: np.ndarray) -> int:
    """``thr`` if accepting states are exactly indices ``thr..n-1``, else -1.

    The span engine renumbers its private automata into this layout
    (:func:`repro.matching.spans.accept_last`) so the mask scan's accept
    test is one int comparison on a rarely-taken branch instead of a
    lookup + store per symbol (~1.7× on grep-shaped inputs).
    """
    n = len(accept)
    thr = n - int(np.count_nonzero(accept))
    if accept[thr:].all() and not accept[:thr].any():
        return thr
    return -1


def mask_scan(
    table: np.ndarray, accept: np.ndarray, initial: int, classes: np.ndarray
) -> np.ndarray:
    """Single-state walk recording the accept bit after every symbol.

    Returns ``out`` with ``out[j] = accept[state after classes[0..j]]``.
    This is the span engine's scalar start/alive pass (DESIGN.md §3.7): run
    over a *reversed* input with the reversed-pattern automaton, ``out``
    marks the positions where a match begins.  The bit at every position
    is demanded, so the stride kernels (which skip positions) cannot
    apply; above its gate the span engine runs the lane start pass
    instead, with this loop as its reference.  When the automaton is
    renumbered accepting-last the loop body is one list pick plus one int
    compare per symbol; otherwise it falls back to a per-symbol
    accept-table lookup.
    """
    k = table.shape[1]
    flat = _scaled_flat(table)
    f = int(initial) * k
    thr = _accept_suffix_threshold(accept)
    if thr == 0:  # every state accepts
        return np.ones(len(classes), dtype=np.bool_)
    if thr == len(accept):  # no state accepts
        return np.zeros(len(classes), dtype=np.bool_)
    if thr > 0:
        scaled_thr = thr * k
        hits: list = []
        append = hits.append
        for i, c in enumerate(_symbol_iter(classes)):
            f = flat[f + c]
            if f >= scaled_thr:
                append(i)
        out = np.zeros(len(classes), dtype=np.bool_)
        if hits:
            out[hits] = True
        return out
    acc = _accept_flat(accept, k)
    out_b = bytearray(len(classes))
    for i, c in enumerate(_symbol_iter(classes)):
        f = flat[f + c]
        out_b[i] = acc[f]
    return np.frombuffer(bytes(out_b), dtype=np.bool_)


def transform_scan(table: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Simulate transitions from all states over ``classes`` (Algorithm 3).

    Returns the transformation vector ``T`` with ``T[q]`` = state reached
    from ``q`` after the chunk; one vectorized gather per character.
    """
    n, k = table.shape
    flat = table.ravel()
    t = np.arange(n, dtype=np.int32)
    for c in classes.tolist():
        # T[q] <- δ(T[q], c) for all q at once
        t = flat[t * k + c]
    return t


# ---------------------------------------------------------------------------
# Vectorized (block-composed) kernels
# ---------------------------------------------------------------------------

#: Symbols composed per block by the vector shape.  Larger blocks mean fewer
#: per-block mapping rows held live; smaller blocks shorten the scalar tail.
VECTOR_BLOCK = 256


def transform_scan_vector(
    table: np.ndarray, classes: np.ndarray, block: int = VECTOR_BLOCK
) -> np.ndarray:
    """Algorithm 3 chunk scan with block-composed mappings.

    The chunk is cut into ``g = n // block`` blocks; all block mappings are
    built simultaneously with ``block`` chained gathers (each advancing
    every block by one symbol), then ``⊙``-reduced as a balanced tree with
    the ``right[left]`` composition — ``block + ⌈log₂ g⌉`` NumPy calls per
    chunk instead of one Python-loop gather per character.  The ``< block``
    leftover is composed symbol-by-symbol.
    """
    n = table.shape[0]
    cols = table_columns(table)
    m = len(classes)
    g = m // block
    t = None
    rest_start = 0
    if g >= 1:
        body = classes[: g * block].reshape(g, block)
        cur = cols[body[:, 0]]
        for j in range(1, block):
            # cur[b][q] <- δ(cur[b][q], c_{b,j}) for every block b at once
            cur = np.take_along_axis(cols[body[:, j]], cur, axis=1)
        while cur.shape[0] > 1:
            even = (cur.shape[0] // 2) * 2
            merged = np.take_along_axis(cur[1:even:2], cur[0:even:2], axis=1)
            if cur.shape[0] & 1:
                merged = np.concatenate([merged, cur[-1:]])
            cur = merged
        t = cur[0]
        rest_start = g * block
    for c in classes[rest_start:].tolist():
        t = cols[c] if t is None else cols[c][t]
    if t is None:  # empty chunk: the identity transformation
        return np.arange(n, dtype=np.int32)
    return t.astype(np.int32, copy=False)


def sfa_scan_vector(
    table: np.ndarray, initial: int, classes: np.ndarray, block: int = VECTOR_BLOCK
) -> int:
    """Vector-shape Algorithm 5 chunk scan: full block transform, then pick.

    Computes the chunk's transformation vector and applies it to
    ``initial`` — ``O(|Q|)`` work per symbol, all inside NumPy.  Pays off
    for small state counts; for large ``|Q|`` the stride kernels are the
    single-state accelerator of choice.
    """
    if len(classes) == 0:
        return int(initial)
    return int(transform_scan_vector(table, classes, block)[initial])


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def scan_block(
    automaton,
    state: int,
    classes: np.ndarray,
    kernel: str,
    stride_budget: "int | None" = None,
) -> int:
    """Advance one automaton state through a block with the chosen kernel.

    Works for any table automaton (DFA or SFA — anything with ``table``
    and ``stride_table``).  The stride kernels walk the largest affordable
    precomposed table (under ``stride_budget``, degrading stride4 →
    stride2 → the 1-gram loop) and finish the ``< stride`` leftover on
    the base table; the running state stays a plain state index
    throughout.  This is the shared serial scan of the stream cursors and
    ``MultiPatternSet``'s one-chunk path.
    """
    from repro.automata.stride import best_stride_table

    if kernel in ("stride2", "stride4"):
        st = best_stride_table(
            automaton, 2 if kernel == "stride2" else 4, stride_budget
        )
        if st is not None:
            packed, tail = st.pack(classes)
            state = sfa_scan(st.table, state, packed)
            return sfa_scan(automaton.table, state, tail)
        kernel = "python"
    if kernel == "vector":
        return sfa_scan_vector(automaton.table, state, classes)
    return sfa_scan(automaton.table, state, classes)


def run_scan(
    kind: str,
    table: np.ndarray,
    initial: int,
    classes: np.ndarray,
    kernel: str = "python",
) -> Union[int, np.ndarray]:
    """Dispatch a named kernel (``initial`` is ignored by ``"transform"``).

    ``kernel`` selects the scan shape.  The stride kernels reach this point
    as ``"python"``/``"vector"`` over a precomposed table (the table swap
    and symbol packing happen in the engine), so ``"stride2"``/``"stride4"``
    here simply run the reference loop on whatever table they are given.
    """
    if kernel not in KERNELS:
        raise MatchEngineError(
            f"unknown kernel {kernel!r} (choose from {', '.join(KERNELS)})"
        )
    if kind == "sfa":
        if kernel == "vector":
            return sfa_scan_vector(table, initial, classes)
        return sfa_scan(table, initial, classes)
    if kind == "transform":
        if kernel == "vector":
            return transform_scan_vector(table, classes)
        return transform_scan(table, classes)
    raise MatchEngineError(f"unknown scan kind {kind!r}")
