"""Byte sets and byte-class alphabet compression.

A :class:`CharSet` is an immutable set of byte values (0..255) stored as a
256-bit integer mask.  A :class:`ByteClassPartition` groups the 256 byte
values into equivalence classes that the regex cannot distinguish — the
standard RE2-style optimization.  Automata are then built over class indices
(typically a handful) instead of 256 raw symbols, which shrinks transition
tables by 1–2 orders of magnitude.  The paper's cache-size arguments assume
full 256-wide tables; builders accept ``expanded=True`` to reproduce those.
"""

from __future__ import annotations

import mmap
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

_ALL_MASK = (1 << 256) - 1

#: Bytes per slice when :meth:`ByteClassPartition.translate` reads a
#: buffer that has no ``translate`` method (an ``mmap``, a
#: ``memoryview``): each slice is copied out, translated and stored, and
#: 64 KiB keeps the three passes in cache (2 vCPUs: 12 ms per 8.4 MB,
#: against 9 ms for ``bytes.translate`` and 33 ms for the fancy index).
TRANSLATE_SLICE = 1 << 16


class CharSet:
    """Immutable set of byte values 0..255 backed by an int bitmask."""

    __slots__ = ("mask",)

    def __init__(self, mask: int = 0):
        if not 0 <= mask <= _ALL_MASK:
            raise ValueError("CharSet mask out of range")
        self.mask = mask

    # -- constructors -------------------------------------------------
    @classmethod
    def from_bytes(cls, values: Iterable[int]) -> "CharSet":
        """Set containing exactly the given byte values."""
        mask = 0
        for v in values:
            if not 0 <= v <= 255:
                raise ValueError(f"byte value out of range: {v}")
            mask |= 1 << v
        return cls(mask)

    @classmethod
    def single(cls, value: int) -> "CharSet":
        """Singleton set {value}."""
        if not 0 <= value <= 255:
            raise ValueError(f"byte value out of range: {value}")
        return cls(1 << value)

    @classmethod
    def from_ranges(cls, *ranges: Tuple[int, int]) -> "CharSet":
        """Set from inclusive (lo, hi) byte ranges."""
        mask = 0
        for lo, hi in ranges:
            if not (0 <= lo <= hi <= 255):
                raise ValueError(f"bad range ({lo}, {hi})")
            mask |= ((1 << (hi - lo + 1)) - 1) << lo
        return cls(mask)

    @classmethod
    def from_str(cls, chars: str | bytes) -> "CharSet":
        """Set of the byte values of the given characters (latin-1)."""
        if isinstance(chars, str):
            chars = chars.encode("latin-1")
        return cls.from_bytes(chars)

    @classmethod
    def any_byte(cls) -> "CharSet":
        """The full alphabet (what ``.`` matches in DOTALL mode)."""
        return cls(_ALL_MASK)

    @classmethod
    def dot(cls) -> "CharSet":
        """``.`` — every byte except newline (0x0A)."""
        return cls(_ALL_MASK ^ (1 << 0x0A))

    @classmethod
    def empty(cls) -> "CharSet":
        """The empty set."""
        return cls(0)

    # -- set algebra ---------------------------------------------------
    def union(self, other: "CharSet") -> "CharSet":
        return CharSet(self.mask | other.mask)

    def intersect(self, other: "CharSet") -> "CharSet":
        return CharSet(self.mask & other.mask)

    def difference(self, other: "CharSet") -> "CharSet":
        return CharSet(self.mask & ~other.mask & _ALL_MASK)

    def negate(self) -> "CharSet":
        return CharSet(~self.mask & _ALL_MASK)

    __or__ = union
    __and__ = intersect
    __sub__ = difference
    __invert__ = negate

    def case_fold(self) -> "CharSet":
        """Close the set under ASCII case swapping (for the ``i`` flag)."""
        mask = self.mask
        for v in self:
            if 0x41 <= v <= 0x5A:
                mask |= 1 << (v + 0x20)
            elif 0x61 <= v <= 0x7A:
                mask |= 1 << (v - 0x20)
        return CharSet(mask)

    # -- queries -------------------------------------------------------
    def __contains__(self, value: int) -> bool:
        return 0 <= value <= 255 and (self.mask >> value) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CharSet) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def ranges(self) -> List[Tuple[int, int]]:
        """Return the set as a minimal list of inclusive (lo, hi) ranges."""
        out: List[Tuple[int, int]] = []
        run_start = None
        prev = None
        for v in self:
            if run_start is None:
                run_start = prev = v
            elif v == prev + 1:
                prev = v
            else:
                out.append((run_start, prev))
                run_start = prev = v
        if run_start is not None:
            out.append((run_start, prev))
        return out

    def to_bool_array(self) -> np.ndarray:
        """256-element boolean membership array."""
        return _unpack_masks(self.mask.to_bytes(32, "little"))[0]

    def __repr__(self) -> str:
        parts = []
        for lo, hi in self.ranges()[:8]:
            if lo == hi:
                parts.append(f"{lo:#04x}")
            else:
                parts.append(f"{lo:#04x}-{hi:#04x}")
        body = ",".join(parts)
        if len(self.ranges()) > 8:
            body += ",..."
        return f"CharSet[{body}]"


def _unpack_masks(masks: bytes) -> np.ndarray:
    """Membership rows ``bool[m, 256]`` of ``m`` concatenated 32-byte
    little-endian masks (bit ``v`` of a mask is byte value ``v``)."""
    raw = np.frombuffer(masks, dtype=np.uint8).reshape(-1, 32)
    return np.unpackbits(raw, axis=1, bitorder="little").view(bool)


# Named classes used by the parser's escape handling.
DIGIT = CharSet.from_ranges((0x30, 0x39))
WORD = CharSet.from_ranges((0x30, 0x39), (0x41, 0x5A), (0x61, 0x7A)) | CharSet.single(0x5F)
SPACE = CharSet.from_bytes(b" \t\n\r\f\v")


class ByteClassPartition:
    """Partition of the byte alphabet into regex-indistinguishable classes.

    Two bytes are equivalent iff every :class:`CharSet` appearing in the
    regex either contains both or neither.  The partition provides:

    ``classmap``
        ``uint8[256]`` mapping each byte value to its class index.
    ``num_classes``
        number of classes (automata table width).
    ``representatives``
        one byte value per class, used to expand class-indexed tables back
        to full 256-wide tables and to synthesize accepted texts.
    """

    __slots__ = ("classmap", "num_classes", "representatives", "_lut")

    def __init__(self, charsets: Sequence[CharSet]):
        masks = b"".join(cs.mask.to_bytes(32, "little") for cs in charsets)
        # Bytes with identical membership columns form one class: pack
        # each byte's column (one bit per charset) into a fixed-width key.
        cols = np.packbits(_unpack_masks(masks or bytes(32)), axis=0).T
        keys = np.ascontiguousarray(cols).view(f"V{cols.shape[1]}").ravel()
        _, first, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        # Renumber classes by first occurrence so numbering is stable.
        order = np.argsort(first)
        rank = np.empty(len(first), dtype=np.uint8)
        rank[order] = np.arange(len(first))
        self.classmap = rank[inverse.reshape(256)]
        self.num_classes = len(first)
        self.representatives = first[order].astype(np.uint8)
        # ``bytes.translate`` table; the classmap is frozen so it cannot
        # drift from this copy.
        self.classmap.flags.writeable = False
        self._lut = self.classmap.tobytes()

    def classes_of(self, cs: CharSet) -> List[int]:
        """Class indices whose bytes are members of ``cs``.

        Raises ``ValueError`` if ``cs`` does not respect the partition
        (i.e. it was not among the charsets used to build it).
        """
        # counts[c] = (bytes of class c outside cs, bytes inside cs)
        counts = np.bincount(
            self.classmap.astype(np.intp) * 2 + cs.to_bool_array(),
            minlength=2 * self.num_classes,
        ).reshape(-1, 2)
        inside = counts[:, 1] > 0
        if (inside & (counts[:, 0] > 0)).any():
            raise ValueError("CharSet splits a byte class")
        return np.flatnonzero(inside).tolist()

    def translate(
        self, data: bytes | bytearray | memoryview | mmap.mmap | np.ndarray
    ) -> np.ndarray:
        """Byte→class translation of an input text, as a ``uint8`` array.

        Every buffer takes one C pass, ``bytes.translate`` with the
        classmap as its table: the result of a ``bytes`` input is a
        read-only view of the translated copy, a ``bytearray`` input's is
        writable, and other buffers (``mmap``, ``memoryview``) are
        translated in :data:`TRANSLATE_SLICE`-byte slices into one
        array.  NumPy's fancy index, ``classmap[arr]``, would first cast
        the input to an ``intp`` index array of 8 bytes per byte; only
        ``ndarray`` input still takes it.
        """
        if isinstance(data, np.ndarray):
            return self.classmap[data]
        if isinstance(data, (bytes, bytearray)):
            return np.frombuffer(data.translate(self._lut), dtype=np.uint8)
        with memoryview(data) as view:
            if not view.c_contiguous:  # a strided view: copy it first
                return np.frombuffer(
                    view.tobytes().translate(self._lut), dtype=np.uint8
                )
            with view.cast("B") as flat:
                out = np.empty(len(flat), dtype=np.uint8)
                for i in range(0, len(flat), TRANSLATE_SLICE):
                    piece = flat[i:i + TRANSLATE_SLICE].tobytes()
                    out[i:i + len(piece)] = np.frombuffer(
                        piece.translate(self._lut), dtype=np.uint8
                    )
        return out

    def __repr__(self) -> str:
        return f"ByteClassPartition(num_classes={self.num_classes})"


def pack_stride(
    classes: np.ndarray, num_classes: int, stride: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Pack a class-index stream into ``stride``-gram superalphabet symbols.

    Returns ``(packed, tail)``: ``packed[i]`` encodes classes
    ``[i·stride, (i+1)·stride)`` big-endian (the earliest class is the most
    significant base-``num_classes`` digit), matching the symbol layout of
    :func:`repro.automata.stride.build_stride_table`; ``tail`` is the
    ``< stride`` leftover to be scanned with the base table.  Packing is
    vectorized (one multiply-add per stride position) and accumulates in
    the packed dtype itself: ``uint8`` when the superalphabet of
    ``k^stride`` symbols fits a byte, ``uint16`` when it fits two, else
    ``int32``/``int64``.  Every partial value stays below ``k^stride``,
    so the narrow accumulator is exact.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    classes = np.asarray(classes)
    if stride == 1:
        return classes, classes[:0]
    m = len(classes) // stride
    body = classes[: m * stride]
    tail = classes[m * stride :]
    width = num_classes**stride
    if width <= 1 << 8:
        dtype = np.uint8
    elif width <= 1 << 16:
        dtype = np.uint16
    else:
        dtype = np.int64 if width > 2**31 else np.int32
    if not np.can_cast(body.dtype, dtype):
        body = body.astype(dtype)  # wide class streams (not translate's)
    acc = body[0::stride].astype(dtype)
    for j in range(1, stride):
        acc *= num_classes
        acc += body[j::stride]
    return acc, tail
