"""Tests for marked polytopes, bisections, coherence weights, the exact
critical-value splitting against the float tracker it replaced, and
tracking configs."""

import cmath
import itertools
import json
import random
import re
from bisect import bisect_left
from fractions import Fraction

import pytest

from wpmirror import bisection
from wpmirror.bisection import (
    Bisection,
    MarkedPolytope,
    SplittingReport,
    _meet,
    bisection_from_config,
    coherence_weights,
    critical_values_univariate,
    load_config,
    seeded_coefficients,
    track_splitting,
    validate_bisection,
    validate_subdivision,
)
from wpmirror.weights import LatticePolytope, convex_hull_2d, cross


def interval(points):
    xs = [p if isinstance(p, int) else p[0] for p in points]
    return MarkedPolytope(LatticePolytope((min(xs), max(xs))), tuple(points))


def segment(*points):
    """A segment of the plane through the given lattice points, all marked."""
    return MarkedPolytope(LatticePolytope((min(points), max(points))), points)


def triangle(vertices, marked=None):
    return MarkedPolytope(LatticePolytope(tuple(vertices)),
                          tuple(marked if marked is not None else vertices))


B1D = Bisection(interval([-1, 0, 1]), interval([1, 2]))
P1D = interval([-1, 0, 1, 2])

CELL2D_0 = triangle([(1, 0), (0, 1), (-1, -1)],
                    marked=[(1, 0), (0, 1), (-1, -1), (0, 0)])
CELL2D_1 = triangle([(1, 0), (0, 1), (2, 3)])
B2D = Bisection(CELL2D_0, CELL2D_1)
P2D = MarkedPolytope(
    LatticePolytope(((-1, -1), (1, 0), (0, 1), (2, 3))),
    ((-1, -1), (1, 0), (0, 1), (2, 3), (0, 0)),
)


class TestValidation:
    def test_1d_bisection_passes(self):
        report = validate_bisection(B1D, P1D)
        assert report.passed, report.violations

    def test_2d_blowup_bisection_passes(self):
        report = validate_bisection(B2D, P2D)
        assert report.passed, report.violations

    def test_origin_on_wall_fails(self):
        b = Bisection(interval([-1, 0]), interval([0, 1]))
        report = validate_bisection(b, interval([-1, 0, 1]))
        assert not report.passed
        assert any("origin" in v for v in report.violations)

    def test_overlapping_cells_fail(self):
        b = Bisection(interval([-1, 1]), interval([0, 2]))
        report = validate_bisection(b, P1D)
        assert not report.passed
        assert any("overlap" in v for v in report.violations)

    def test_missing_region_fails(self):
        b = Bisection(interval([-1, 0]), interval([1, 2]))
        report = validate_bisection(b, P1D)
        assert not report.passed
        assert any("measure" in v for v in report.violations)

    def test_2d_overlap_fails(self):
        # The second triangle sits inside the first, so the interiors meet.
        c1 = triangle([(1, 0), (0, 1), (0, 0)])
        report = validate_subdivision((CELL2D_0, c1), P2D)
        assert not report.passed
        assert any("overlap" in v or "measure" in v for v in report.violations)

    def test_vertical_subdivision_passes(self):
        # An interval off the x-axis: the shared face is the point (-3, -1).
        cells = (segment((-3, -2), (-3, -1)), segment((-3, -1), (-3, 0)))
        report = validate_subdivision(cells, segment((-3, -2), (-3, -1), (-3, 0)))
        assert report.passed, report.violations

    def test_vertical_overlap_fails(self):
        cells = (segment((1, -2), (1, 1)), segment((1, 0), (1, 3)))
        report = validate_subdivision(cells, segment((1, -2), (1, 3)))
        assert any("overlap" in v for v in report.violations), report.violations

    def test_unmarked_vertex_fails(self):
        mp = MarkedPolytope(LatticePolytope((0, 3)), ((0,),))
        assert mp.violations()

    @pytest.mark.parametrize("points, bad", [(((0.5,), (3,)), 0.5), (((True, 1.5),), True),
                                             ((0, 3.0), 3.0)])
    def test_non_integer_marked_point_refused(self, points, bad):
        # Never truncated: (0.5,) was marked as (0,), and (True, 1.5) as (1, 1).
        with pytest.raises(ValueError, match=f"^coordinate={re.escape(repr(bad))} is not an integer$"):
            MarkedPolytope(LatticePolytope((0, 3)), points)


# A triangle and a segment off it: clipping the triangle by the segment's
# whole line once gave the chord (-1,-1)-(1,1) as their wall.
FAR_TRIANGLE = triangle([(-1, -1), (2, 0), (0, 2)])
FAR_SEGMENT = segment((5, 5), (6, 6))

MEET_CELLS = {
    "far-triangle": FAR_TRIANGLE,
    "far-segment": FAR_SEGMENT,
    "cell0": CELL2D_0,
    "cell1": CELL2D_1,
    "inner-triangle": triangle([(1, 0), (0, 1), (0, 0)]),
    "diagonal": segment((-1, -1), (0, 0), (1, 1)),
    "antidiagonal": segment((0, 2), (1, 1), (2, 0)),
    "axis-interval": interval([-1, 0, 1]),
    "origin": segment((0, 0)),
    "point-outside": segment((7, 7)),
}


def meet_reference(c0, c1):
    """The intersection of two cells by the Sutherland–Hodgman clip of one
    hull by the other, a polygon's if either is one, with rational
    vertices; only points of both cells are kept.  The reference that the
    lattice-vertex meet is tested against."""
    subject, clip = bisection._hull(c0.Q), bisection._hull(c1.Q)
    if len(convex_hull_2d(subject + clip)) <= 2:
        lo, hi = max(subject[0], clip[0]), min(subject[-1], clip[-1])
        return [] if lo > hi else sorted({lo, hi})
    if len(clip) < 3:
        # A segment or a point would clip by its whole line.
        subject, clip = clip, subject

    def line_intersect(a, b, p, q):
        d1 = (b[0] - a[0], b[1] - a[1])
        d2 = (q[0] - p[0], q[1] - p[1])
        t = Fraction((p[0] - a[0]) * d2[1] - (p[1] - a[1]) * d2[0],
                     d1[0] * d2[1] - d1[1] * d2[0])
        return (a[0] + t * d1[0], a[1] + t * d1[1])

    for a, b in bisection._edges(clip):
        if not subject:
            break
        out = []
        prev = subject[-1]
        for cur in subject:
            side_prev, side_cur = cross(a, b, prev), cross(a, b, cur)
            if side_cur >= 0:
                if side_prev < 0:
                    out.append(line_intersect(a, b, prev, cur))
                out.append(cur)
            elif side_prev >= 0:
                out.append(line_intersect(a, b, prev, cur))
            prev = cur
        subject = [p for i, p in enumerate(out) if i == 0 or out[i - 1] != p]
        if len(subject) > 1 and subject[0] == subject[-1]:
            subject.pop()
    return [p for p in subject
            if bisection._contains(c0.Q, p) and bisection._contains(c1.Q, p)]


def meet_hull(c0, c1):
    shared = _meet(c0, c1)
    return None if shared is None else convex_hull_2d(shared)


def random_cell(rng):
    """A point, a segment or a polygon with vertices in [-3, 3]^2, as its
    rank and the cell."""
    rank = rng.randrange(3)
    while True:
        pts = [(rng.randint(-3, 3), rng.randint(-3, 3))
               for _ in range(rank + 1 if rank < 2 else rng.randint(3, 5))]
        if bisection._rank(convex_hull_2d(pts)) == rank:
            return rank, MarkedPolytope(LatticePolytope(tuple(pts)), tuple(pts))


class TestMeet:
    @pytest.mark.parametrize("a", MEET_CELLS)
    @pytest.mark.parametrize("b", MEET_CELLS)
    def test_order_free(self, a, b):
        ab = meet_hull(MEET_CELLS[a], MEET_CELLS[b])
        assert ab == meet_hull(MEET_CELLS[b], MEET_CELLS[a]), ab

    @pytest.mark.parametrize("a, b, expected", [
        ("far-triangle", "far-segment", []),
        ("far-triangle", "point-outside", []),
        ("far-triangle", "origin", [(0, 0)]),
        ("cell0", "cell1", [(0, 1), (1, 0)]),
        ("diagonal", "antidiagonal", [(1, 1)]),
        ("far-segment", "antidiagonal", []),
        # The segments cross and the triangles overlap: their interiors
        # meet.  Explicit ids keep the `expectedN` form a None would lose.
        pytest.param("axis-interval", "diagonal", None, id="axis-interval-diagonal-expected6"),
        pytest.param("cell0", "inner-triangle", None, id="cell0-inner-triangle-expected7"),
    ])
    def test_meet(self, a, b, expected):
        assert meet_hull(MEET_CELLS[a], MEET_CELLS[b]) == expected

    def test_matches_the_clip(self):
        # Two polygons meet in None exactly when the clip has positive
        # area; any other meet that is not None spans the clip's hull, with
        # int vertices, in either order.  A segment or a point that crosses
        # another cell ("crossing") meets it in None.
        rng = random.Random(29)
        seen = dict.fromkeys(("overlap", "crossing", "empty", "touching"), 0)
        for _ in range(12_000):
            (rank0, c0), (rank1, c1) = random_cell(rng), random_cell(rng)
            shared, reference = _meet(c0, c1), convex_hull_2d(meet_reference(c0, c1))
            assert shared == _meet(c1, c0), (c0, c1)
            if rank0 == rank1 == 2:
                assert (shared is None) == (len(reference) >= 3), (c0, c1, reference)
            if shared is None:
                assert reference, (c0, c1)
                seen["overlap" if len(reference) >= 3 else "crossing"] += 1
                continue
            assert all(type(x) is int for p in shared for x in p), shared
            assert convex_hull_2d(shared) == reference, (c0, c1, shared, reference)
            seen["touching" if shared else "empty"] += 1
        assert min(seen.values()) > 500, seen

    def test_disjoint_cells_have_no_weight(self):
        with pytest.raises(ValueError):
            coherence_weights(Bisection(FAR_TRIANGLE, FAR_SEGMENT))


class TestCoherenceWeights:
    def test_1d_weight_pair(self):
        eta, tau = coherence_weights(B1D)
        assert [eta[p,] for p in (-1, 0, 1, 2)] == [0, 0, 0, -1]
        assert [tau[p,] for p in (-1, 0, 1, 2)] == [-2, -1, 0, 0]

    def test_symmetric_interval_weight(self):
        b = Bisection(interval([-1, 0]), interval([0, 1]))
        eta = coherence_weights(b)[0]
        assert [eta[p,] for p in (-1, 0, 1)] == [0, 0, -1]

    def test_2d_blowup_weights(self):
        eta, tau = coherence_weights(B2D)
        assert eta[2, 3] == -4
        assert eta[0, 0] == 0 and eta[1, 0] == 0 and eta[0, 1] == 0
        assert tau[0, 0] == -1
        assert tau[-1, -1] == -3
        assert tau[2, 3] == 0 and tau[1, 0] == 0 and tau[0, 1] == 0

    def test_diagonal_interval_weight_is_primitive(self):
        # On the line through (1, 1) the wall functional counts lattice
        # steps: one per point, not the squared length of the step.
        b = Bisection(segment((-1, -1), (0, 0), (1, 1)), segment((1, 1), (2, 2), (3, 3)))
        eta, tau = coherence_weights(b)
        assert [eta[p, p] for p in (-1, 0, 1, 2, 3)] == [0, 0, 0, -1, -2]
        assert [tau[p, p] for p in (-1, 0, 1, 2, 3)] == [-2, -1, 0, 0, 0]

    def test_weight_is_integral(self):
        for p, v in coherence_weights(B2D)[0].items():
            assert isinstance(v, int)


class TestCriticalValues:
    def test_laurent_example(self):
        vals = sorted(v.real for v in critical_values_univariate({1: 1, -1: 1}))
        assert vals == pytest.approx([-2.0, 2.0])

    def test_polynomial_example(self):
        [v] = critical_values_univariate({1: 2, 2: -1})
        assert v == pytest.approx(1.0)

    def test_count_equals_newton_length(self):
        vals = critical_values_univariate({-1: 1, 0: 2, 1: -1, 2: 3})
        assert len(vals) == 3

    def test_too_few_monomials(self):
        with pytest.raises(ValueError):
            critical_values_univariate({0: 5})


# The float tracker that `track_splitting` replaced, kept as the reference
# that the exact decision is checked against.  It samples the deformed
# critical values at each t of a fixed schedule, matches them to each
# cell's targets, extrapolates the matched trajectories to t = 0, and
# compares them with the targets within TOLERANCE.
T_SCHEDULE = (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000))


def deform_coeffs(coeffs, weight, t):
    """The coefficients of a Laurent polynomial deformed by an integral
    weight psi at the parameter t: c_alpha becomes c_alpha * t^(-psi(alpha)),
    exact rationals."""
    return {alpha: c * t ** (-weight[alpha]) for alpha, c in coeffs.items()}


def extrapolate_to_zero(ts, vs):
    """Lagrange extrapolation of a sampled trajectory to t = 0."""
    total = 0j
    for i, (ti, vi) in enumerate(zip(ts, vs)):
        weight = 1.0
        for j, tj in enumerate(ts):
            if j != i:
                weight *= (0.0 - tj) / (ti - tj)
        total += complex(vi) * weight
    return total


def bottleneck_assignment(targets, values):
    """Injective matching of each target to a distinct value that minimizes
    the worst error, ties broken toward the lowest value index target by
    target: the first minimizer in the order of
    `itertools.permutations(range(len(values)), len(targets))`.  Returns
    (worst error, combo), where target i matches values[combo[i]].

    Bottleneck matching in polynomial time: a binary search over the
    distinct errors finds the least bound that admits a complete matching,
    then each target in turn takes the lowest free value within the bound
    that leaves the later targets matchable.  Every test is one run of
    augmenting paths.
    """
    m, n = len(targets), len(values)
    if m > n:
        raise ValueError(f"cannot match {m} targets to {n} distinct values")
    if not m:
        return 0.0, ()
    err = [[abs(t - v) for v in values] for t in targets]

    def complete(bound, fixed):
        """Whether the targets after the fixed prefix can take distinct
        values outside it, each within bound."""
        owner = {}

        def augment(i, seen):
            for j in range(n):
                if j not in seen and err[i][j] <= bound:
                    seen.add(j)
                    if j not in owner or augment(owner[j], seen):
                        owner[j] = i
                        return True
            return False

        return all(augment(i, set(fixed)) for i in range(len(fixed), m))

    levels = sorted({e for row in err for e in row})
    bound = levels[bisect_left(levels, True, key=lambda e: complete(e, ()))]
    combo = []
    for i in range(m):
        combo.append(next(j for j in range(n) if j not in combo and err[i][j] <= bound
                          and complete(bound, combo + [j])))
    return bound, tuple(combo)


def track_splitting_reference(b, coeffs=None, seed=bisection.DEFAULT_SEED,
                              match=bottleneck_assignment):
    """The splitting report of the float tracker, with `match` as its
    matching: m is the number of cell 0's targets and r the number of
    deformed critical values."""
    import numpy as np

    tol = bisection.TOLERANCE
    a_all = sorted(set(b.cell0.A) | set(b.cell1.A))
    if coeffs is None:
        coeffs = seeded_coefficients(a_all, seed, a0=b.cell0.A, a1=b.cell1.A)
    coeffs = dict(sorted({k: Fraction(v) for k, v in coeffs.items()}.items()))
    eta, tau = coherence_weights(b)

    def restricted(points):
        return {p[0]: coeffs[p] for p in points}

    targets0 = critical_values_univariate(restricted(b.cell0.A))
    targets1 = critical_values_univariate(restricted(b.cell1.A))
    violations = []
    if any(abs(v) < tol for v in targets1):
        violations.append("restriction to the second cell has a zero critical value")

    def values_at(weight, t):
        deformed = deform_coeffs(coeffs, weight, t)
        with np.errstate(all="ignore"):
            vals = critical_values_univariate({p[0]: c for p, c in deformed.items()})
        assert all(cmath.isfinite(v) for v in vals), t
        return vals

    r = None

    def sample(t):
        """The critical values at t under both weights, each matched to its
        cell's targets; None, with a violation, when a count differs from
        the first sample's r."""
        nonlocal r
        vals, vals_re = values_at(eta, t), values_at(tau, t)
        if r is None:
            r = len(vals)
        if len(vals) != r or len(vals_re) != r:
            violations.append(f"critical-value count changed at t={t}")
            return None
        err0, match0 = match(targets0, vals)
        err1, match1 = match(targets1, vals_re)
        return {"t": t, "values": vals, "values_rebased": vals_re,
                "match_cell0": match0, "match_cell1": match1,
                "err_cell0": err0, "err_cell1": err1}

    steps = [s for s in map(sample, T_SCHEDULE) if s is not None]
    if not steps:
        violations.append("no schedule step could be evaluated")
    else:
        # Two refinement points below the schedule sharpen the limit.
        refined = [sample(T_SCHEDULE[-1] / 10), sample(T_SCHEDULE[-1] / 100)]
        samples = steps + [s for s in refined if s is not None]
        ts = [float(s["t"]) for s in samples]
        for key, targets in (("cell0", targets0), ("cell1", targets1)):
            for ti, target in enumerate(targets):
                vs = [s["values" if key == "cell0" else "values_rebased"]
                      [s[f"match_{key}"][ti]] for s in samples]
                err = abs(extrapolate_to_zero(ts, vs) - target)
                if err > tol:
                    violations.append(f"{key} critical value {target:.6g} not reached: "
                                      f"extrapolated error {err:.3g}")
        if len(steps) > 1 and (steps[-1]["err_cell0"] > steps[0]["err_cell0"] + tol
                               or steps[-1]["err_cell1"] > steps[0]["err_cell1"] + tol):
            violations.append("matching error not decreasing along the schedule")
    return SplittingReport(ok=not violations, m=len(targets0), r=r or 0,
                           targets_cell0=targets0, targets_cell1=targets1,
                           violations=violations)


class TestDeformation:
    COEFFS = {(-1,): Fraction(1), (0,): Fraction(2), (1,): Fraction(-1),
              (2,): Fraction(3)}

    def test_t_equal_one_is_identity(self):
        assert deform_coeffs(self.COEFFS, coherence_weights(B1D)[0], Fraction(1)) == self.COEFFS

    def test_exact_scaling(self):
        out = deform_coeffs(self.COEFFS, coherence_weights(B1D)[0], Fraction(1, 10))
        # eta[2,] = -1, so the coefficient at 2 is multiplied by t
        assert out[(2,)] == Fraction(3, 10)
        assert out[(0,)] == Fraction(2)

    def test_rebased_fixes_second_cell(self):
        out = deform_coeffs(self.COEFFS, coherence_weights(B1D)[1], Fraction(1, 100))
        assert out[(1,)] == self.COEFFS[(1,)]
        assert out[(2,)] == self.COEFFS[(2,)]
        assert out[(-1,)] == Fraction(1, 10 ** 4)


def best_assignment_reference(targets, values):
    """The matching by brute force: the first permutation in order whose
    worst error is least.  None if there are more targets than values."""
    best = None
    for combo in itertools.permutations(range(len(values)), len(targets)):
        errs = [abs(targets[i] - values[j]) for i, j in enumerate(combo)]
        worst = max(errs) if errs else 0.0
        if best is None or worst < best[0]:
            best = (worst, combo)
    return best


def random_points(rng, count, grid):
    """Complex points: on a small integer grid, where errors tie exactly,
    or Gaussian."""
    if grid:
        return [complex(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(count)]
    return [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(count)]


class TestBestAssignment:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference(self, seed):
        rng = random.Random(seed)
        for case in range(100):
            r = rng.randint(1, 7)
            m = rng.randint(0, r)
            # Every third case lies on the grid.
            targets, values = (random_points(rng, k, grid=case % 3 == 0) for k in (m, r))
            assert bottleneck_assignment(targets, values) == \
                best_assignment_reference(targets, values), (targets, values)

    def test_ties_go_to_the_lowest_value_index(self):
        # Every matching has worst error 1; the first in order is kept.
        targets, values = [0j, 0j], [1 + 0j, 1j, -1 + 0j]
        assert bottleneck_assignment(targets, values) == (1.0, (0, 1))

    @pytest.mark.parametrize("r", range(5))
    def test_no_targets(self, r):
        values = random_points(random.Random(r), r, grid=False)
        assert bottleneck_assignment([], values) == best_assignment_reference([], values) \
            == (0.0, ())

    @pytest.mark.parametrize("r", range(1, 7))
    def test_as_many_targets_as_values(self, r):
        rng = random.Random(r)
        for grid in (True, False):
            targets, values = (random_points(rng, r, grid) for _ in range(2))
            assert bottleneck_assignment(targets, values) == \
                best_assignment_reference(targets, values)

    def test_more_targets_than_values_refused(self):
        with pytest.raises(ValueError, match="3 targets to 2"):
            bottleneck_assignment([0j, 1j, 2j], [0j, 1j])


def bisection_at(lo, split, hi):
    """The 1D bisection of [lo, hi] at split, every lattice point marked."""
    return Bisection(interval(list(range(lo, split + 1))), interval(list(range(split, hi + 1))))


class TestTracking:
    def test_seeded_run_passes(self):
        report = track_splitting(B1D, seed=42)
        assert report.ok, report.violations
        assert report.m == 2 and report.r == 3
        assert len(report.targets_cell1) == report.r - report.m

    def test_many_seeds_pass(self):
        for seed in range(10):
            report = track_splitting(B1D, seed=seed)
            assert report.ok, (seed, report.violations)

    def test_zero_critical_value_flagged(self):
        # On the second cell {1, 2, 3} the restriction z - 2 z^2 + z^3
        # = z (1 - z)^2 has critical value 0 at z = 1.
        b = Bisection(interval([-1, 0, 1]), interval([1, 2, 3]))
        coeffs = {(-1,): 1, (0,): 1, (1,): 1, (2,): -2, (3,): 1}
        report = track_splitting(b, coeffs=coeffs)
        assert not report.ok
        assert any("zero critical value" in v for v in report.violations)

    def test_near_zero_critical_value_passes(self):
        # On the second cell {6, 7} the restriction z^6 - 3 z^7 has the one
        # critical value 64/823543, below the tolerance but not zero: the
        # float tracker read it as zero.
        b = Bisection(interval(list(range(-1, 7))), interval([6, 7]))
        coeffs = {(-1,): 2, (0,): -2, (1,): 1, (2,): 3, (3,): 2, (4,): -3, (5,): -1,
                  (6,): 1, (7,): -3}
        report = track_splitting(b, coeffs=coeffs)
        assert report.ok, report.violations
        assert (report.m, report.r) == (7, 8)
        [value] = report.targets_cell1
        assert value == pytest.approx(64 / 823543, rel=1e-9)
        assert track_splitting_reference(b, coeffs=coeffs).violations == [
            "restriction to the second cell has a zero critical value"]

    @pytest.mark.parametrize("point, cell", [(-1, 0), (1, 0), (2, 1)])
    def test_zero_coefficient_at_a_vertex_refused(self, point, cell):
        coeffs = {(p,): 1 for p in (-1, 0, 1, 2)} | {(point,): 0}
        with pytest.raises(ValueError, match=f"^the coefficient at {point}, a vertex of "
                                             f"cell {cell}, is zero$"):
            track_splitting(B1D, coeffs=coeffs)

    @pytest.mark.parametrize("b, zero, m, r", [(B1D, 0, 2, 3), (bisection_at(-2, 1, 4), -1, 3, 6),
                                               (bisection_at(-2, 1, 4), 3, 3, 6)])
    def test_zero_coefficient_off_the_vertices_allowed(self, b, zero, m, r):
        # The constant term is no point of x f'(x), and a zero inside a
        # cell leaves the hull's edges as they are.
        coeffs = {p: 1 + p[0] % 3 for p in set(b.cell0.A) | set(b.cell1.A)} | {(zero,): 0}
        report = track_splitting(b, coeffs=coeffs)
        assert report.ok, report.violations
        assert (report.m, report.r) == (m, r)

    def test_report_independent_of_coefficient_order(self):
        # The coefficients are sorted by point whatever the order of the
        # given map, so the float targets agree to the last bit.
        b = Bisection(interval([-2, -1, 0, 1]), interval([1, 2, 3]))
        coeffs = {(-2,): 1, (-1,): 1, (0,): -3, (1,): -1, (2,): 2, (3,): 1}
        forward = track_splitting(b, coeffs=coeffs)
        backward = track_splitting(b, coeffs=dict(reversed(coeffs.items())))
        assert forward.ok, forward.violations
        assert forward == backward

    @pytest.mark.parametrize("r", range(4, 9))
    @pytest.mark.parametrize("seed", [5, 6])
    def test_report_equals_brute_force_matching(self, r, seed):
        # The exact report equals the float tracker's, matched by the scan
        # of every assignment.
        rng = random.Random(f"{r}:{seed}")
        m = rng.choice((r // 2, r - r // 2))
        lo = rng.randint(1 - m, -1)
        b = bisection_at(lo, lo + m, lo + r)
        report = track_splitting(b, seed=seed)
        assert report.ok, report.violations
        assert (report.m, report.r) == (m, r)
        assert track_splitting_reference(b, seed=seed, match=best_assignment_reference) == report

    def test_criterion_9_config_equals_reference(self):
        report = track_splitting(B1D, seed=42)
        assert report == track_splitting_reference(B1D, seed=42, match=best_assignment_reference)
        assert report.ok and (report.m, report.r) == (2, 3)

    def test_twelve_critical_values(self):
        # 12P7, about 4 million permutations per matching: out of reach of
        # the brute-force scan, so the reference matches in polynomial time.
        b = bisection_at(-6, 1, 6)
        report = track_splitting(b)
        assert report.ok, report.violations
        assert (report.m, report.r) == (7, 12)
        assert track_splitting_reference(b) == report

    @pytest.mark.parametrize("b", [B1D, bisection_at(-3, 2, 5),
                                   Bisection(interval([-1, 0, 1, 2]), interval([-3, -2, -1]))],
                             ids=["readme", "right", "left"])
    def test_negated_wall_changes_the_counts(self, monkeypatch, b):
        # With the wall functional negated, eta is positive on the second
        # cell: the lower hull is one sloped edge, so no critical point has
        # valuation 0 under either weight.
        clean = track_splitting(b, seed=3)
        assert clean.ok, clean.violations
        wall = bisection._wall
        monkeypatch.setattr(bisection, "_wall", lambda b: {p: -v for p, v in wall(b).items()})
        report = track_splitting(b, seed=3)
        assert not report.ok
        assert (report.m, report.r) == (0, clean.r) != (clean.m, clean.r)
        assert len(report.violations) == 2, report.violations

    def test_generic_coefficients_are_small_nonzero(self):
        coeffs = seeded_coefficients([(-1,), (0,), (1,), (2,)], seed=7, a0=B1D.cell0.A,
                                     a1=B1D.cell1.A)
        for v in coeffs.values():
            assert v != 0 and abs(v) <= 3


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg_path = tmp_path / "track.json"
        cfg_path.write_text(json.dumps({
            "A": [-1, 0, 1, 2],
            "A0": [-1, 0, 1],
            "A1": [1, 2],
            "seed": 3,
        }))
        cfg = load_config(str(cfg_path))
        b, parent = bisection_from_config(cfg)
        assert validate_bisection(b, parent).passed
        report = track_splitting(b, seed=cfg["seed"])
        assert report.ok, report.violations

    def test_missing_key(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"A": [0, 1]}))
        with pytest.raises(ValueError):
            load_config(str(cfg_path))
