"""Tests for disc-word classification, enumeration, products, and the
vanishing of higher products."""

import pytest

from wpmirror.aside.strip import PointKind, intersections
from wpmirror.aside.words import (
    DiscWord,
    Letter,
    MalformedWord,
    classify_disc_word,
    enumerate_accepted_words,
    higher_products_vanish,
    m2_product,
)
from wpmirror.bside import DualElement, compose_dual
from wpmirror.weights import Weights

W23 = Weights((2, 3))


def L(piece, curve, sign):
    return Letter(piece, curve, sign)


class TestClassify:
    def test_accepts_arc_triangle_both_orientations(self):
        assert classify_disc_word(W23, [L("C", 0, -1), L("C", 1, 1), L("C", 2, -1)]) \
            == (True, None)
        assert classify_disc_word(W23, [L("C", 0, 1), L("C", 1, -1), L("C", 2, 1)]) \
            == (True, None)

    def test_accepts_segment_triangle(self):
        word = [L("s+", 0, 1), L("C", 0, 1), L("C", 1, -1), L("s+", 1, -1),
                L("s-", 3, -1)]
        assert classify_disc_word(W23, word) == (True, None)

    def test_rejects_decreasing_subscripts(self):
        word = [L("C", 2, 1), L("C", 1, -1), L("C", 3, 1)]
        assert classify_disc_word(W23, word) == (False, "non-decreasing subscripts")

    def test_rejects_three_consecutive_segments(self):
        word = [L("s+", 0, 1), L("s-", 1, 1), L("s+", 2, -1)]
        assert classify_disc_word(W23, word) == (False, "three consecutive segments")

    def test_rejects_segment_only_disc(self):
        word = [L("s+", 0, -1), L("s-", 3, -1)]
        ok, reason = classify_disc_word(W23, word)
        assert not ok and reason in ("segment-only disc", "orientation pairing",
                                     "missing corner")

    def test_rejects_four_arcs(self):
        word = [L("C", 0, 1), L("C", 1, -1), L("C", 2, 1), L("C", 3, -1)]
        assert classify_disc_word(W23, word) == (False, "endpoints both arcs")

    def test_rejects_same_sign_arc_pair(self):
        word = [L("s+", 0, 1), L("C", 0, 1), L("C", 1, 1), L("s+", 1, 1),
                L("s-", 3, -1)]
        ok, reason = classify_disc_word(W23, word)
        assert not ok and reason == "orientation pairing"

    def test_rejects_missing_corner(self):
        # gap 1 < a0 = 2, so the closing segment corner does not exist
        word = [L("s+", 0, 1), L("C", 0, 1), L("C", 1, -1), L("s+", 1, -1),
                L("s-", 2, -1)]
        ok, reason = classify_disc_word(W23, word)
        assert not ok and reason == "missing corner"

    def test_rejects_broken_group_traversal(self):
        word = [L("s-", 0, 1), L("C", 0, 1), L("C", 1, -1), L("s+", 1, -1),
                L("s-", 3, -1)]
        ok, reason = classify_disc_word(W23, word)
        assert not ok and reason == "orientation pairing"

    def test_malformed_raises(self):
        with pytest.raises(MalformedWord):
            classify_disc_word(W23, [])
        with pytest.raises(MalformedWord):
            classify_disc_word(W23, [L("C", 9, 1)])
        with pytest.raises(ValueError):
            Letter("arc", 0, 1)
        with pytest.raises(ValueError):
            Letter("C", 0, 2)


class TestEnumeration:
    def test_counts_small_example(self):
        words = enumerate_accepted_words(W23)
        by_len = {}
        for word in words:
            by_len[len(word.letters)] = by_len.get(len(word.letters), 0) + 1
        # 4 arc triangles over C(4,3) triples and 2 mixed five-letter discs
        assert by_len == {3: 4, 5: 2}

    def test_every_word_classifies_as_accepted(self):
        # The search skips the letter validation; the validating classifier
        # must agree with it on every word of every pair with l <= 10.
        for a in [(a0, a1) for a0 in range(1, 10) for a1 in range(a0, 11 - a0)]:
            w = Weights(a)
            for word in enumerate_accepted_words(w):
                assert classify_disc_word(w, word) == (True, None)
                assert len(word.corners) == 3

    def test_equal_letters_are_one_object(self):
        seen = {}
        for word in enumerate_accepted_words(Weights((2, 5))):
            for x in word.letters:
                assert seen.setdefault(x, x) is x
        assert len(seen) > 1

    def test_curves_outside_range_rejected(self):
        with pytest.raises(MalformedWord):
            enumerate_accepted_words(W23, curves=(0, 1, 4))

    def test_no_duplicate_words(self):
        for a in [(2, 3), (3, 4)]:
            w = Weights(a)
            words = [tuple(x.letters) for x in enumerate_accepted_words(w)]
            assert len(words) == len(set(words))

    def test_one_disc_per_nonzero_product(self):
        # Each accepted word is a triangle realizing exactly one structure
        # constant, so corner triples must be distinct.
        for a in [(2, 3), (2, 5)]:
            w = Weights(a)
            seen = set()
            for word in enumerate_accepted_words(w):
                p0, p1, out = word.corners
                key = (p0.pair, p0.kind, p1.pair, p1.kind)
                assert key not in seen
                seen.add(key)


class TestM2:
    @pytest.mark.parametrize("a", [(1, 3), (2, 3), (3, 4), (2, 5), (1, 6)])
    def test_matches_truncated_wedge(self, a):
        w = Weights(a)
        for i in range(w.l - 1):
            for j in range(i + 1, w.l - 1):
                for k in range(j + 1, w.l - 1):
                    for p0 in intersections(w, i, j):
                        for p1 in intersections(w, j, k):
                            out = m2_product(w, p1, p0)
                            dual = compose_dual(
                                w,
                                DualElement(j, i, p0.label),
                                DualElement(k, j, p1.label),
                            )
                            if out is None:
                                assert dual is None or dual.is_zero()
                            else:
                                assert dual is not None
                                assert out.label == dual.label
                                assert dual.coefficient == 1

    def test_non_composable_raises(self):
        w = Weights((2, 3))
        p0 = intersections(w, 0, 1)[0]
        p1 = intersections(w, 2, 3)[0]
        with pytest.raises(ValueError):
            m2_product(w, p1, p0)

    def test_unit_like_arc_composition(self):
        w = Weights((2, 3))
        [pm] = [p for p in intersections(w, 0, 2) if p.kind is PointKind.SEG_PM]
        arc = intersections(w, 2, 3)[0]
        out = m2_product(w, arc, pm)
        assert out is not None and out.kind is PointKind.SEG_PM
        assert out.pair == (0, 3)


class TestHigherProducts:
    @pytest.mark.parametrize("a", [(1, 2), (2, 3), (3, 4), (2, 7)])
    def test_vanish(self, a):
        report = higher_products_vanish(Weights(a), 8)
        assert report.ok
        assert all(length in (3, 5) for length in report.counts_by_length)

    def test_word_length_bound_guard(self):
        with pytest.raises(ValueError):
            higher_products_vanish(W23, 5)
