"""Input chunking for data-parallel scans.

Theorem 3 lets the input be divided at *any* points; these helpers produce
balanced contiguous chunks.  Balance matters because parallel wall time is
the max over chunks (plus reduction).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import MatchEngineError


def split_balanced(n: int, p: int) -> List[Tuple[int, int]]:
    """Split ``range(n)`` into ``p`` contiguous spans differing by ≤ 1.

    The first ``n % p`` spans get the extra element.  Always returns ``p``
    spans (possibly empty when ``p > n``).
    """
    if p < 1:
        raise MatchEngineError("need at least one chunk")
    base, extra = divmod(n, p)
    spans = []
    start = 0
    for i in range(p):
        length = base + (1 if i < extra else 0)
        spans.append((start, start + length))
        start += length
    return spans


def clamp_chunks(n: int, p: int) -> int:
    """Effective chunk count for an ``n``-symbol input: ``max(1, min(p, n))``.

    With ``p > n`` balanced splitting yields empty spans that are pure
    dispatch overhead (and a degenerate ``m == 0`` lockstep block); the
    chunked engines clamp with this before splitting, so no more than one
    chunk per symbol is ever shipped.
    """
    if p < 1:
        raise MatchEngineError("need at least one chunk")
    return max(1, min(p, n))


def split_classes(classes: np.ndarray, p: int) -> List[np.ndarray]:
    """Split a class-index array into ``p`` balanced contiguous views."""
    return [classes[a:b] for a, b in split_balanced(len(classes), p)]


#: Bytes added to a lane layout's row pitch when it would be a power of
#: two of at least :data:`PITCH_PAD_MIN` bytes.  A transpose that reads or
#: writes rows a power of two bytes apart maps every row to the same few
#: cache sets, which measured 3-6x slower (2,048 lanes of 2,048 ``uint8``
#: symbols: 37.6 ms against 6.4 ms padded; ``uint16``: 42.4 against 17.8
#: ms; 2 vCPUs).  Shorter rows share few cache lines and are left alone.
PITCH_PAD_BYTES = 64
PITCH_PAD_MIN = 1 << 10


def _needs_pad(pitch: int) -> bool:
    return pitch >= PITCH_PAD_MIN and pitch & (pitch - 1) == 0


def lockstep_layout(classes: np.ndarray, p: int) -> Tuple[np.ndarray, np.ndarray]:
    """Reshape for lockstep scanning: equal-length chunk block + tail.

    Returns ``(block, tail)`` where ``block`` has shape ``(m, p)`` —
    ``block[j, i]`` is position ``j`` of chunk ``i`` (position-major so each
    lockstep step reads one contiguous row) — and ``tail`` is the leftover
    ``n % p`` symbols appended to the *last* chunk after the block.

    No row pitch of the transpose is a power of two of 1 KiB or more: when
    the chunks (the source rows, ``m`` symbols) or the lanes (the block
    rows, ``p`` symbols) would be, that side is laid out in a buffer whose
    rows are :data:`PITCH_PAD_BYTES` longer, and ``block`` is a view of
    its first ``p`` columns.  The lane count and every value are
    unchanged.
    """
    if p < 1:
        raise MatchEngineError("need at least one chunk")
    n = len(classes)
    m = n // p
    body = classes[: m * p]
    tail = classes[m * p :]
    src = body.reshape(p, m)
    size = classes.itemsize
    pad = PITCH_PAD_BYTES // size
    if _needs_pad(m * size):
        padded = np.empty((p, m + pad), dtype=classes.dtype)
        padded[:, :m] = src
        src = padded[:, :m]
    if _needs_pad(p * size):
        out = np.empty((m, p + pad), dtype=classes.dtype)
        out[:, :p] = src.T
        return out[:, :p], tail
    return np.ascontiguousarray(src.T), tail
