"""Tests for the exact strip model: curve coordinates, intersection
points (against an independent line-arrangement oracle), and Maslov
degrees."""

import re
from enum import IntEnum
from fractions import Fraction

import numpy as np
import pytest

from wpmirror.aside import strip
from wpmirror.aside.strip import (
    PointKind,
    build_curves,
    hom_space,
    intersections,
    maslov_degree,
)
from wpmirror.bside import dual_ext
from wpmirror.weights import Weights


def oracle_segment_crossings(w, j, k):
    """Independent oracle: intersect the segment lines over explicit period
    shifts with exact rational arithmetic, keeping hits with 0 < x < 1.

    Returns {(kind, shift): x} where kind 'pm' pairs the lower curve's
    upper segment with the upper curve's lower segment and 'mp' the other
    way around.
    """
    l = w.l
    period = 4 * (l - 1)

    def line(curve_index, upper, shift):
        if upper:
            slope = 2 * curve_index - 2 * l + 4 * w.a[0]
            intercept = 2 * curve_index + 1
        else:
            slope = 2 * curve_index
            intercept = 2 * curve_index + 1 - 2 * (l - 1)
        return slope, intercept + period * shift

    hits = {}
    for shift in range(-3, 4):
        # lower j's upper segment against upper k's lower segment
        m1, b1 = line(j, True, 0)
        m2, b2 = line(k, False, shift)
        if m1 != m2:
            x = Fraction(b2 - b1, m1 - m2)
            if 0 < x < 1:
                hits[("pm", shift)] = x
        # upper k's upper segment against lower j's lower segment
        m1, b1 = line(k, True, shift)
        m2, b2 = line(j, False, 0)
        if m1 != m2:
            x = Fraction(b2 - b1, m1 - m2)
            if 0 < x < 1:
                hits[("mp", shift)] = x
    return hits


class TestCurves:
    def test_marked_points_example(self):
        w = Weights((2, 3))
        c = build_curves(w)[0]
        assert c.p_plus == (0, 1)
        assert c.p_minus == (0, -7)
        assert c.q_minus == (1, -7)
        assert c.q_plus == (1, -1)
        assert c.arc_center == (0, -3) and c.arc_radius == 4

    def test_requires_two_sorted_weights(self):
        with pytest.raises(ValueError):
            build_curves(Weights((3, 2)))
        with pytest.raises(ValueError):
            build_curves(Weights((1, 2, 3)))


class TestIntersections:
    @pytest.mark.parametrize("a", [(1, 2), (2, 3), (1, 4), (3, 4), (2, 5)])
    def test_against_line_oracle(self, a):
        w = Weights(a)
        for j in range(w.l - 1):
            for k in range(j + 1, w.l - 1):
                pts = intersections(w, j, k)
                hits = oracle_segment_crossings(w, j, k)
                found = {}
                for p in pts:
                    if p.kind is PointKind.SEG_PM:
                        found[("pm", p.d)] = p.x
                    elif p.kind is PointKind.SEG_MP:
                        # stored shift applies to the upper curve's segment
                        found[("mp", p.d)] = p.x
                assert found == hits, (a, j, k)

    def test_arc_always_present(self):
        w = Weights((2, 3))
        for j in range(w.l - 1):
            for k in range(j + 1, w.l - 1):
                kinds = [p.kind for p in intersections(w, j, k)]
                assert kinds.count(PointKind.ARC) == 1

    def test_gap_conditions(self):
        w = Weights((2, 3))
        kinds = {p.kind for p in intersections(w, 0, 1)}
        assert kinds == {PointKind.ARC}
        kinds = {p.kind for p in intersections(w, 0, 2)}
        assert kinds == {PointKind.ARC, PointKind.SEG_PM}
        kinds = {p.kind for p in intersections(w, 0, 3)}
        assert kinds == {PointKind.ARC, PointKind.SEG_PM, PointKind.SEG_MP}

    def test_known_coordinate(self):
        w = Weights((2, 3))
        [pm] = [p for p in intersections(w, 0, 3) if p.kind is PointKind.SEG_PM]
        assert pm.x == Fraction(1, 4)

    def test_invalid_pair(self):
        with pytest.raises(ValueError):
            intersections(Weights((2, 3)), 2, 1)

    @pytest.mark.parametrize("name", ["_seg_pm_x", "_seg_mp_x"])
    def test_crossing_outside_strip_raises(self, monkeypatch, name):
        # Raised, not asserted, so the check also holds under python -O.
        monkeypatch.setattr(strip, name, lambda w, j, k: Fraction(3, 2))
        with pytest.raises(ArithmeticError, match="outside"):
            intersections(Weights((2, 3)), 0, 3)

    def test_crossing_x_decreases_in_gap(self):
        # The premise of the monotonicity lemma of the word search: each
        # segment crossing's x strictly decreases in the gap g = k - j over
        # its existence range, a0 <= g (SEG_PM) or a1 <= g (SEG_MP), up to
        # l - 2, on every pair with l <= 40.
        for a0 in range(1, 40):
            for a1 in range(a0, 41 - a0):
                w = Weights((a0, a1))
                for x_of, first in ((strip._seg_pm_x, a0), (strip._seg_mp_x, a1)):
                    xs = [x_of(w, 0, g) for g in range(first, w.l - 1)]
                    assert all(x > y for x, y in zip(xs, xs[1:])), (a0, a1, x_of)


# Every pair a0 <= a1 with l = a0 + a1 <= 25.
PAIRS_UP_TO_25 = [(a0, a1) for a0 in range(1, 25) for a1 in range(a0, 26 - a0)]


class TestMaslov:
    @pytest.mark.parametrize("a", PAIRS_UP_TO_25)
    def test_arc_zero_segment_one(self, a):
        w = Weights(a)
        for j in range(w.l - 1):
            for k in range(j + 1, w.l - 1):
                for p in intersections(w, j, k):
                    expected = 0 if p.kind is PointKind.ARC else 1
                    assert maslov_degree(w, p) == expected

    @pytest.mark.parametrize("kind", [PointKind.ARC, PointKind.SEG_PM])
    def test_inconsistent_grading_raises(self, monkeypatch, kind):
        # An endpoint grading off by one unit of pi / 2(l-1) cannot cancel.
        # (On the SEG_MP path the two gradings cancel identically.)
        w = Weights((2, 3))
        [p] = [p for p in intersections(w, 0, 3) if p.kind is kind]
        real = strip._phi_plus
        monkeypatch.setattr(strip, "_phi_plus", lambda w, i: real(w, i) + 1)
        with pytest.raises(ArithmeticError):
            maslov_degree(w, p)


class TestHomSpace:
    def test_identity_and_directedness(self):
        w = Weights((2, 3))
        assert hom_space(w, 1, 1).dims_by_degree == {0: 1}
        assert len(hom_space(w, 2, 1).basis) == 0

    @pytest.mark.parametrize("a", [(1, 2), (2, 3), (1, 4), (4, 5)])
    def test_dims_match_dual_algebra(self, a):
        w = Weights(a)
        for j in range(w.l - 1):
            for k in range(w.l - 1):
                assert hom_space(w, j, k).dims_by_degree \
                    == dual_ext(w, k, j).dims_by_degree

    def test_depends_on_gap_only(self):
        # The translation lemma: the basis from curve j to curve k, degrees
        # and labels, is the basis from curve 0 to curve k - j, and it is
        # the one that the points of the pair (j, k) itself give.
        for a in [(a0, a1) for a0 in range(1, 12) for a1 in range(a0, 13 - a0)]:
            w = Weights(a)
            for j in range(w.l - 1):
                for k in range(j, w.l - 1):
                    basis = hom_space(w, j, k).basis
                    assert basis == hom_space(w, 0, k - j).basis, (a, j, k)
                    if k > j:  # intersections refuses j == k
                        own = sorted(((maslov_degree(w, p), p.label) for p in intersections(w, j, k)),
                                     key=lambda t: (t[0], t[1].subset))
                        assert basis == tuple(own), (a, j, k)

    def test_points_depend_on_gap_only(self):
        # The translation lemma, point by point, against the per-pair
        # builder: kind, x, period shift, label and Maslov degree of the
        # points of (j, k) are those of (0, k - j), on every pair with l <= 25.
        def facts(w, j, k):
            return [(p.kind, p.x, p.d, p.label, maslov_degree(w, p))
                    for p in intersections(w, j, k)]

        count = 0
        for a in [(a0, a1) for a0 in range(1, 25) for a1 in range(a0, 26 - a0)]:
            w = Weights(a)
            for j in range(w.l - 1):
                for k in range(j + 1, w.l - 1):
                    assert facts(w, j, k) == facts(w, 0, k - j), (a, j, k)
                    count += 1
        assert count == 21814

    def test_pair_outside_the_curves_refused(self):
        w = Weights((2, 3))
        for j, k in [(-1, 1), (2, 4), (0, 4)]:
            with pytest.raises(ValueError, match="need 0 <= j < k <= l-2"):
                hom_space(w, j, k)
        assert w._tables["points"] == {}

    def test_index_outside_the_curves_refused_for_every_pair(self):
        # j >= k is checked as well: a diagonal pair past the curves has no
        # identity, and a pair below zero no zero space.
        w = Weights((2, 3))
        for j, k in [(100, 100), (9, -4), (4, 4), (-1, -1), (4, 0), (3, -1)]:
            with pytest.raises(ValueError, match=rf"^need 0 <= k <= j <= l-2, got j={j}, k={k}$"):
                hom_space(w, j, k)
        assert w._tables["points"] == {}

    def test_in_range_pairs_keep_their_answers(self):
        w = Weights((2, 3))
        e_empty = w.exterior_basis[0][1]
        for j in range(w.l - 1):
            hom = hom_space(w, j, j)
            assert (hom.source, hom.target, hom.basis) == (j, j, ((0, e_empty),))
            for k in range(j):
                hom = hom_space(w, j, k)
                assert (hom.source, hom.target, hom.basis) == (j, k, ())

    @pytest.mark.parametrize("bad", [0.5, 1.0, 1.5, True, False, "1", None])
    def test_non_int_index_refused_by_name(self, bad):
        # As on the derived side: a bool, float, str or None is no curve
        # index, whatever it compares to, and never keys the point table.
        w = Weights((2, 3))
        for call in (hom_space, intersections):
            for args, name in (((bad, 2), "j"), ((0, bad), "k"), ((bad, bad), "j")):
                message = f"^{name}={re.escape(repr(bad))} is not an integer object index$"
                with pytest.raises(ValueError, match=message):
                    call(w, *args)
        assert w._tables["points"] == {}

    def test_integer_types_taken_as_ints(self):
        class Index(IntEnum):
            ZERO = 0
            THREE = 3

        w = Weights((2, 3))
        for j, k in [(np.int64(0), np.int64(3)), (Index.ZERO, Index.THREE), (0, np.int8(3))]:
            hom = hom_space(w, j, k)
            assert (type(hom.source), type(hom.target)) == (int, int)
            assert hom == hom_space(w, 0, 3)
            assert [(p.j, p.k) for p in intersections(w, j, k)] == [(0, 3)] * 3
            assert type(hom_space(w, k, j).source) is int
        assert list(w._tables["points"]) == [3]
        assert type(next(iter(w._tables["points"]))) is int
