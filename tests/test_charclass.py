"""Unit tests for CharSet and ByteClassPartition."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.regex.charclass import (
    DIGIT,
    SPACE,
    WORD,
    ByteClassPartition,
    CharSet,
)


class TestCharSetConstruction:
    def test_single(self):
        cs = CharSet.single(ord("a"))
        assert ord("a") in cs
        assert ord("b") not in cs
        assert len(cs) == 1

    def test_single_out_of_range(self):
        with pytest.raises(ValueError):
            CharSet.single(256)
        with pytest.raises(ValueError):
            CharSet.single(-1)

    def test_from_ranges(self):
        cs = CharSet.from_ranges((0x30, 0x39))
        assert all(c in cs for c in range(0x30, 0x3A))
        assert 0x2F not in cs and 0x3A not in cs
        assert len(cs) == 10

    def test_from_ranges_rejects_reversed(self):
        with pytest.raises(ValueError):
            CharSet.from_ranges((5, 3))

    def test_from_str(self):
        cs = CharSet.from_str("abc")
        assert len(cs) == 3
        assert ord("b") in cs

    def test_any_byte_and_dot(self):
        assert len(CharSet.any_byte()) == 256
        dot = CharSet.dot()
        assert len(dot) == 255
        assert 0x0A not in dot

    def test_empty(self):
        cs = CharSet.empty()
        assert len(cs) == 0
        assert not cs


class TestCharSetAlgebra:
    def test_union_intersect(self):
        a = CharSet.from_str("abc")
        b = CharSet.from_str("bcd")
        assert sorted(a | b) == [ord(c) for c in "abcd"]
        assert sorted(a & b) == [ord(c) for c in "bc"]

    def test_difference(self):
        a = CharSet.from_str("abc")
        b = CharSet.from_str("b")
        assert sorted(a - b) == [ord("a"), ord("c")]

    def test_negate_involution(self):
        a = CharSet.from_str("xyz")
        assert a.negate().negate() == a
        assert len(a.negate()) == 256 - 3

    def test_case_fold(self):
        a = CharSet.from_str("aZ")
        folded = a.case_fold()
        assert ord("A") in folded and ord("z") in folded
        assert len(folded) == 4

    def test_case_fold_nonalpha_unchanged(self):
        a = CharSet.from_str("1#")
        assert a.case_fold() == a

    def test_named_classes(self):
        assert len(DIGIT) == 10
        assert len(WORD) == 63
        assert len(SPACE) == 6
        assert ord("_") in WORD


class TestCharSetQueries:
    def test_ranges_roundtrip(self):
        cs = CharSet.from_str("abcxz")
        assert cs.ranges() == [(97, 99), (120, 120), (122, 122)]

    def test_iteration_sorted(self):
        cs = CharSet.from_str("zay")
        assert list(cs) == sorted(cs)

    def test_hashable_and_eq(self):
        assert CharSet.from_str("ab") == CharSet.from_str("ba")
        assert hash(CharSet.from_str("ab")) == hash(CharSet.from_str("ba"))
        assert CharSet.from_str("ab") != CharSet.from_str("ac")

    def test_to_bool_array(self):
        arr = CharSet.from_str("a").to_bool_array()
        assert arr.shape == (256,)
        assert arr.sum() == 1
        assert arr[ord("a")]

    @given(st.sets(st.integers(0, 255), max_size=64))
    def test_from_bytes_membership(self, values):
        cs = CharSet.from_bytes(values)
        assert set(cs) == values
        assert len(cs) == len(values)

    @given(
        st.sets(st.integers(0, 255), max_size=32),
        st.sets(st.integers(0, 255), max_size=32),
    )
    def test_union_is_set_union(self, a, b):
        assert set(CharSet.from_bytes(a) | CharSet.from_bytes(b)) == a | b


class TestByteClassPartition:
    def test_single_charset_two_classes(self):
        p = ByteClassPartition([CharSet.from_str("ab")])
        assert p.num_classes == 2
        assert p.classmap[ord("a")] == p.classmap[ord("b")]
        assert p.classmap[ord("c")] != p.classmap[ord("a")]

    def test_overlapping_sets_refine(self):
        p = ByteClassPartition([CharSet.from_str("ab"), CharSet.from_str("bc")])
        # classes: {a}, {b}, {c}, rest
        assert p.num_classes == 4
        a, b, c = (p.classmap[ord(x)] for x in "abc")
        assert len({a, b, c}) == 3

    def test_empty_partition_single_class(self):
        p = ByteClassPartition([])
        assert p.num_classes == 1
        assert len(set(p.classmap.tolist())) == 1

    def test_classmap_covers_all_bytes(self):
        p = ByteClassPartition([DIGIT, WORD, SPACE])
        assert p.classmap.shape == (256,)
        assert set(p.classmap.tolist()) == set(range(p.num_classes))

    def test_representatives_consistent(self):
        p = ByteClassPartition([DIGIT, WORD])
        for idx in range(p.num_classes):
            rep = int(p.representatives[idx])
            assert p.classmap[rep] == idx

    def test_translate_vectorized(self):
        p = ByteClassPartition([CharSet.from_str("ab")])
        out = p.translate(b"abz")
        assert out.tolist() == [
            int(p.classmap[ord("a")]),
            int(p.classmap[ord("b")]),
            int(p.classmap[ord("z")]),
        ]

    def test_classes_of_exact(self):
        p = ByteClassPartition([DIGIT])
        classes = p.classes_of(DIGIT)
        assert len(classes) == 1

    def test_classes_of_rejects_splitting_set(self):
        p = ByteClassPartition([DIGIT])
        with pytest.raises(ValueError):
            p.classes_of(CharSet.from_str("5"))

    @given(st.lists(st.sets(st.integers(0, 255), min_size=1, max_size=16), max_size=6))
    def test_partition_respects_every_charset(self, sets):
        charsets = [CharSet.from_bytes(s) for s in sets]
        p = ByteClassPartition(charsets)
        arr = np.arange(256)
        for cs in charsets:
            member = cs.to_bool_array()
            for idx in range(p.num_classes):
                byte_vals = arr[p.classmap == idx]
                inside = member[byte_vals]
                # a class is never split by any source charset
                assert inside.all() or not inside.any()


class _ReferencePartition:
    """The per-byte-loop ``ByteClassPartition`` the vectorized one replaced
    (kept as the identity reference)."""

    def __init__(self, charsets):
        if charsets:
            members = np.stack([_member_by_iteration(cs) for cs in charsets])
        else:
            members = np.zeros((1, 256), dtype=bool)
        _, classmap = np.unique(members.T, axis=0, return_inverse=True)[:2]
        classmap = np.ascontiguousarray(classmap.reshape(256))
        order = {}
        stable = np.empty(256, dtype=np.uint8)
        reps = []
        for b in range(256):
            key = int(classmap[b])
            if key not in order:
                order[key] = len(order)
                reps.append(b)
            stable[b] = order[key]
        self.classmap = stable
        self.num_classes = len(order)
        self.representatives = np.array(reps, dtype=np.uint8)


def _member_by_iteration(cs):
    arr = np.zeros(256, dtype=bool)
    for v in cs:
        arr[v] = True
    return arr


def _random_charset(rng):
    kind = rng.random()
    if kind < 0.3:
        return CharSet.from_ranges(*[
            tuple(sorted((rng.randrange(256), rng.randrange(256))))
            for _ in range(rng.randrange(1, 4))
        ])
    if kind < 0.6:
        return CharSet.from_bytes(rng.randrange(256) for _ in range(rng.randrange(6)))
    return CharSet(rng.getrandbits(256))


class TestVectorizedPartitionIdentity:
    def _assert_same(self, charsets):
        got, want = ByteClassPartition(charsets), _ReferencePartition(charsets)
        assert got.num_classes == want.num_classes
        assert np.array_equal(got.classmap, want.classmap)
        assert np.array_equal(got.representatives, want.representatives)
        assert got.classmap.dtype == want.classmap.dtype == np.uint8
        assert got.representatives.dtype == np.uint8

    def test_random_charset_lists(self):
        import random

        rng = random.Random(2024)
        for _ in range(400):
            m = rng.choice([1, 2, 3, 5, 8, 9, 17, 40])
            self._assert_same([_random_charset(rng) for _ in range(m)])

    @pytest.mark.parametrize("charsets", [
        [],
        [CharSet.any_byte()],
        [CharSet.empty()],
        [CharSet.single(v) for v in range(256)],
        [CharSet.dot(), DIGIT, WORD, SPACE, CharSet.any_byte()],
    ], ids=["empty-list", "full-set", "empty-set", "256-singletons", "named"])
    def test_edge_lists(self, charsets):
        self._assert_same(charsets)

    def test_classes_of_matches_member_scan(self):
        import random

        rng = random.Random(7)
        for _ in range(100):
            charsets = [_random_charset(rng) for _ in range(rng.randrange(1, 9))]
            p = ByteClassPartition(charsets)
            for cs in charsets:
                member = _member_by_iteration(cs)
                want = [c for c in range(p.num_classes)
                        if member[p.classmap == c].all()]
                assert p.classes_of(cs) == want

    def test_classes_of_raises_on_split(self):
        p = ByteClassPartition([CharSet.from_str("abc"), CharSet.from_ranges((0x80, 0xFF))])
        for splitter in (CharSet.from_str("a"), CharSet.from_str("bz"),
                         CharSet.from_ranges((0x70, 0x90))):
            with pytest.raises(ValueError):
                p.classes_of(splitter)
        assert p.classes_of(CharSet.empty()) == []
        assert len(p.classes_of(CharSet.any_byte())) == p.num_classes

    @given(st.integers(0, (1 << 256) - 1))
    def test_to_bool_array_equals_iteration(self, mask):
        cs = CharSet(mask)
        arr = cs.to_bool_array()
        assert arr.dtype == bool and arr.shape == (256,)
        assert np.array_equal(arr, _member_by_iteration(cs))
