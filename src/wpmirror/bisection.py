"""Marked polytopes, bisections, coherence weights, and the numeric
critical-value splitting of deformed potentials.

Geometry stays in dimensions one and two with exact integer
predicates.  The deformation machinery perturbs a Laurent polynomial by
integral weights, tracks its critical values along a decreasing parameter
schedule, and verifies that they split into the critical values of the two
halves of a bisection.
"""

import cmath
import itertools
import json
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .weights import (LatticePolytope, as_2d, as_point, convex_hull_2d, cross,
                      normalized_volume)

# The fixed schedule and matching tolerance of every tracking run, and the
# seed of its coefficient draw when a config names none.
T_SCHEDULE = (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000))
TOLERANCE = 1e-4
DEFAULT_SEED = 42


def _show(p):
    """A point as a config writes it: an int in 1D, a pair in 2D."""
    return p[0] if len(p) == 1 else p


def _hull(poly):
    """The planar hull of a polytope's vertices, counterclockwise; an
    interval's hull is its two ends in coordinate order, a point's is the
    point."""
    return convex_hull_2d([as_2d(v) for v in poly.vertices])


def _rank(hull):
    """The affine rank of a point set, from its planar hull."""
    return min(len(hull), 3) - 1


def _edges(hull):
    return [(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))]


def _on_segment(q, a, b, strict=False):
    """Exact membership of a point in the closed segment ab, or in its
    relative interior if strict; for a == b the segment is that point."""
    if cross(a, b, q) != 0:
        return False
    dot = (q[0] - a[0]) * (q[0] - b[0]) + (q[1] - a[1]) * (q[1] - b[1])
    return dot < 0 if strict else dot <= 0


def _contains(poly, p, strict=False):
    """Exact membership of a point in a 1- or 2-dimensional polytope, or
    in its relative interior if strict."""
    hull, q = _hull(poly), as_2d(p)
    if len(hull) <= 2:
        return _on_segment(q, hull[0], hull[-1], strict)
    side = min(cross(a, b, q) for a, b in _edges(hull))
    return side > 0 if strict else side >= 0


@dataclass(frozen=True)
class MarkedPolytope:
    """A polytope with a chosen set of marked lattice points containing its
    vertices."""

    Q: LatticePolytope
    A: tuple

    def __post_init__(self):
        object.__setattr__(self, "A", tuple(as_point(p) for p in self.A))

    def violations(self):
        out = []
        hull_pts = {v[:self.Q.ambient_dim] for v in _hull(self.Q)}
        if not hull_pts <= set(self.A):
            out.append(f"vertices {[_show(p) for p in sorted(hull_pts - set(self.A))]} "
                       "not marked")
        for p in self.A:
            if not _contains(self.Q, p):
                out.append(f"marked point {_show(p)} outside the polytope")
        return out


@dataclass(frozen=True)
class Bisection:
    cell0: MarkedPolytope
    cell1: MarkedPolytope


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.violations


def _meet(c0, c1):
    """The exact intersection of two cells as its ends in coordinate order,
    or None when their interiors meet.

    Take two convex lattice cells whose interiors do not meet.  The line of
    some edge of one of them weakly separates them.  Each cell meets that
    line in one of its faces, so their intersection is a point or a
    segment, and its ends are vertices of the cells, which are lattice
    points.  So the meet is None when no edge line of either hull leaves
    the other hull weakly on its outer side, and otherwise the vertices of
    either hull that lie in both cells.  Cells on one line meet in the
    overlap of their ends; a point's one edge is degenerate, so a point
    meets a cell in itself or in nothing."""
    h0, h1 = _hull(c0.Q), _hull(c1.Q)
    if len(convex_hull_2d(h0 + h1)) <= 2:
        # Along one line the coordinate order is the order of the points.
        lo, hi = max(h0[0], h1[0]), min(h0[-1], h1[-1])
        return [] if lo > hi else sorted({lo, hi})
    if not any(all(cross(a, b, v) <= 0 for v in other)
               for hull, other in ((h0, h1), (h1, h0)) for a, b in _edges(hull)):
        return None
    return sorted({v for v in h0 + h1 if _contains(c0.Q, v) and _contains(c1.Q, v)})


def validate_subdivision(cells, parent):
    """Check the four clauses for `cells` to subdivide `parent`, with exact
    arithmetic: full-dimensional cells, union equal to the parent, pairwise
    common-face intersections, and matching marked points on overlaps."""
    report = ValidationReport()
    fail = report.violations.append
    for mp in list(cells) + [parent]:
        report.violations.extend(mp.violations())

    dim = _rank(_hull(parent.Q))
    for idx, cell in enumerate(cells):
        if _rank(_hull(cell.Q)) != dim:
            fail(f"cell {idx} is not full-dimensional")
        for v in cell.Q.vertices:
            if not _contains(parent.Q, v):
                fail(f"cell {idx} leaves the parent polytope at {_show(v)}")

    if not report.passed:
        return report

    # Union: containment plus additivity of measure (interiors disjoint is
    # implied by the face condition below).
    total = sum(normalized_volume(c.Q) for c in cells)
    if total != normalized_volume(parent.Q):
        fail(f"cells cover measure {total}, parent has {normalized_volume(parent.Q)}")

    for (i, ci), (j, cj) in itertools.combinations(enumerate(cells), 2):
        shared = _meet(ci, cj)
        if shared is None:
            fail(f"cells {i},{j} overlap with positive area")
            continue
        if _rank(shared) == dim:
            ends = tuple(_show(v[:parent.Q.ambient_dim]) for v in shared)
            fail(f"cells {i},{j} overlap on a full interval {ends}")
            continue
        if shared and not _is_common_face(ci, cj, shared):
            fail(f"cells {i},{j} intersection is not a common face")
        # Matching marked points on the shared face.
        mi, mj = ({p for p in c.A if shared and _on_segment(as_2d(p), shared[0], shared[-1])}
                  for c in (ci, cj))
        if mi != mj:
            fail(f"cells {i},{j} mark the shared face differently: "
                 f"{[_show(p) for p in sorted(mi)]} vs {[_show(p) for p in sorted(mj)]}")
    return report


def _is_common_face(ci, cj, inter):
    """The exact intersection (a point or segment) must be a vertex or a
    full edge of both hulls."""
    def faces(c):
        hull = _hull(c.Q)
        return [frozenset([v]) for v in hull] + [frozenset(e) for e in _edges(hull)]

    key = frozenset(inter)
    return key in faces(ci) and key in faces(cj)


def validate_bisection(b, parent):
    """A bisection is a two-cell subdivision with the origin interior to the
    first cell and the cells jointly marking exactly the parent's points."""
    report = validate_subdivision((b.cell0, b.cell1), parent)
    origin = (0,) * parent.Q.ambient_dim
    if not _contains(b.cell0.Q, origin, strict=True):
        report.violations.append("origin not interior to the first cell")
    marked, parent_marked = set(b.cell0.A) | set(b.cell1.A), set(parent.A)
    for points, message in ((parent_marked - marked, "parent marks points no cell marks"),
                            (marked - parent_marked, "cells mark points the parent does not")):
        if points:
            report.violations.append(f"{message}: {[_show(p) for p in sorted(points)]}")
    return report


def _wall(b):
    """The primitive integral affine functional that vanishes on the shared
    wall and is negative on the interior of the second cell, as a map from
    each marked point of either cell to its value."""
    wall = _meet(b.cell0, b.cell1)
    hull1 = _hull(b.cell1.Q)
    line = convex_hull_2d(_hull(b.cell0.Q) + hull1)
    if len(line) <= 2:
        # Cells on one line meet in a wall point.  The functional counts
        # lattice steps along the line: its gradient takes the value 1 on
        # the line's primitive direction (a Bezout pair), and a single
        # point reads the first coordinate.
        if len(wall) != 1:
            raise ValueError("cells do not share a wall point")
        p = wall[0]
        (x0, y0), (x1, y1) = line[0], line[-1]
        g = gcd(x1 - x0, y1 - y0)
        dx, dy = ((x1 - x0) // g, (y1 - y0) // g) if g else (1, 0)
        if dx:
            inv = pow(dy, -1, dx)
            grad = ((1 - dy * inv) // dx, inv)
        else:
            grad = (0, 1)
    else:
        if wall is None or len(wall) < 2:
            raise ValueError("cells do not share a wall edge")
        p, q = wall[0], wall[-1]
        dx, dy = q[0] - p[0], q[1] - p[1]
        g = gcd(dx, dy)
        grad = (dy // g, -dx // g)
    const = -(grad[0] * p[0] + grad[1] * p[1])
    # The sign test at the vertex centroid of the second cell, scaled by
    # the vertex count.
    if (grad[0] * sum(v[0] for v in hull1) + grad[1] * sum(v[1] for v in hull1)
            + const * len(hull1) > 0):
        grad, const = (-grad[0], -grad[1]), -const
    return {p: const + sum(g * x for g, x in zip(grad, as_2d(p)))
            for p in b.cell0.A + b.cell1.A}


def coherence_weights(b):
    """The coherence weight of a bisection and its re-basing at the second
    cell, (eta, tau), both maps from each marked point to an int read from
    one wall functional.  eta is zero on the origin cell and the primitive
    wall functional on the rest; its piecewise-linear extension is concave
    with linearity domains exactly the two cells.  tau = eta minus the wall
    functional vanishes on the second cell's marked points and is negative
    at the origin."""
    lam = _wall(b)
    eta = dict.fromkeys(b.cell0.A, 0)
    for p in b.cell1.A:
        if p not in eta:
            eta[p] = lam[p]
        elif lam[p] != 0:
            raise ValueError(f"shared marked point {_show(p)} off the wall")
    return eta, {p: v - lam[p] for p, v in eta.items()}


def deform_coeffs(coeffs, weight, t):
    """The coefficients of a Laurent polynomial deformed by an integral
    weight psi at the parameter t: c_alpha becomes c_alpha * t^(-psi(alpha)),
    exact rationals."""
    return {alpha: c * t ** (-weight[alpha]) for alpha, c in coeffs.items()}


def critical_values_univariate(coeffs):
    """Critical values of a one-variable Laurent polynomial, given as a map
    from int exponent to coefficient: roots of z f'(z) cleared to an
    ordinary polynomial, evaluated back through f.

    For generic coefficients the count equals the lattice length of the
    Newton segment of f.
    """
    support = {a: v for a, v in coeffs.items() if v != 0}
    if len(support) < 2:
        raise ValueError("need at least two monomials for critical points")
    d_support = {a: a * c for a, c in support.items() if a != 0}
    if not d_support:
        raise ValueError("constant-like input has no critical points")
    import numpy as np  # on first use: the exact commands never load numpy

    lo, hi = min(d_support), max(d_support)
    poly = [complex(d_support.get(a, 0)) for a in range(hi, lo - 1, -1)]
    roots = np.roots(poly)

    def f(z):
        return sum(complex(c) * z ** a for a, c in support.items())

    return [f(complex(z)) for z in roots]


def seeded_coefficients(A, seed, a0, a1):
    """Small nonzero integer coefficients on the points A from a seeded
    generator, rejecting configurations whose potential or whose
    restrictions to the cells' points a0 and a1 have nearly colliding or
    nearly zero critical values (within 10x TOLERANCE)."""
    rng = random.Random(seed)
    points = [as_point(p) for p in A]
    for _ in range(200):
        cand = {p: Fraction(rng.choice([x for x in range(-3, 4) if x != 0]))
                for p in points}
        ok = True
        for part in (a0, a1, points):
            sub = {p[0]: cand[p] for p in part if p in cand}
            if len(sub) < 2:
                continue
            try:
                vals = critical_values_univariate(sub)
            except ValueError:
                ok = False
                break
            for i, u in enumerate(vals):
                if abs(u) < 10 * TOLERANCE:
                    ok = False
                for v in vals[i + 1:]:
                    if abs(u - v) < 10 * TOLERANCE:
                        ok = False
        if ok:
            return cand
    raise RuntimeError("could not draw a generic coefficient vector")


def _extrapolate_to_zero(ts, vs):
    """Lagrange extrapolation of a sampled trajectory to t = 0."""
    total = 0j
    for i, (ti, vi) in enumerate(zip(ts, vs)):
        weight = 1.0
        for j, tj in enumerate(ts):
            if j != i:
                weight *= (0.0 - tj) / (ti - tj)
        total += complex(vi) * weight
    return total


def _best_assignment(targets, values):
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


@dataclass
class SplittingReport:
    ok: bool
    m: int
    r: int
    targets_cell0: list
    targets_cell1: list
    steps: list  # per t: dict with values and matches
    violations: list = field(default_factory=list)


def track_splitting(b, coeffs=None, seed=DEFAULT_SEED):
    """Numerically verify the critical-value splitting of a 1D bisection.

    Along T_SCHEDULE the deformed potential's critical values split: m of
    them approach the critical values of the restriction to the origin
    cell, and under the re-based weight the remaining r - m approach those
    of the other cell, all nonzero, each within TOLERANCE.  Coefficients so
    far apart that the deformed critical values cannot be evaluated in
    floats raise ValueError.
    """
    import numpy as np  # on first use: the exact commands never load numpy

    a_all = sorted(set(b.cell0.A) | set(b.cell1.A))
    if any(len(p) != 1 for p in a_all):
        raise ValueError("critical-value tracking is 1D only")
    if coeffs is None:
        coeffs = seeded_coefficients(a_all, seed, a0=b.cell0.A, a1=b.cell1.A)
    # Sorted by point, so the deformed potential is summed in one order
    # whatever the order of the given map.
    coeffs = dict(sorted({as_point(k): Fraction(v) for k, v in coeffs.items()}.items()))
    stray = sorted(set(a_all) ^ set(coeffs))
    if stray:
        raise ValueError(f"the coefficients and the marked points differ at {_show(stray[0])}")

    eta, tau = coherence_weights(b)

    def restricted(points):
        return {p[0]: coeffs[p] for p in points}

    targets0 = critical_values_univariate(restricted(b.cell0.A))
    targets1 = critical_values_univariate(restricted(b.cell1.A))
    m = len(targets0)

    violations = []
    if any(abs(v) < TOLERANCE for v in targets1):
        violations.append("restriction to the second cell has a zero critical value")

    def values_at(weight, t):
        deformed = deform_coeffs(coeffs, weight, t)
        try:
            with np.errstate(all="ignore"):
                vals = critical_values_univariate({p[0]: c for p, c in deformed.items()})
        except (ArithmeticError, np.linalg.LinAlgError):
            vals = None
        if vals is None or not all(cmath.isfinite(v) for v in vals):
            # A small t scales the coefficients by t^(-psi) past float range.
            raise ValueError(f"the deformed critical values at t = {float(t):g} "
                             "cannot be evaluated in floats")
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
        err0, match0 = _best_assignment(targets0, vals)
        err1, match1 = _best_assignment(targets1, vals_re)
        return {"t": t, "values": vals, "values_rebased": vals_re,
                "match_cell0": match0, "match_cell1": match1,
                "err_cell0": err0, "err_cell1": err1}

    steps = [s for s in map(sample, T_SCHEDULE) if s is not None]
    if not steps:
        violations.append("no schedule step could be evaluated")
    else:
        # The matched trajectories are analytic in t, so their values at
        # t = 0 are recovered by polynomial extrapolation; two refinement
        # points below the schedule sharpen the limit estimate without
        # changing the tracked schedule itself.
        refined = [sample(T_SCHEDULE[-1] / 10), sample(T_SCHEDULE[-1] / 100)]
        samples = steps + [s for s in refined if s is not None]
        ts = [float(s["t"]) for s in samples]
        for key, targets in (("cell0", targets0), ("cell1", targets1)):
            for ti, target in enumerate(targets):
                vs = [s["values" if key == "cell0" else "values_rebased"]
                      [s[f"match_{key}"][ti]] for s in samples]
                limit = _extrapolate_to_zero(ts, vs)
                err = abs(limit - target)
                if err > TOLERANCE:
                    violations.append(
                        f"{key} critical value {target:.6g} not reached: "
                        f"extrapolated error {err:.3g}")
        if len(steps) > 1 and (steps[-1]["err_cell0"] > steps[0]["err_cell0"] + TOLERANCE
                               or steps[-1]["err_cell1"] > steps[0]["err_cell1"] + TOLERANCE):
            violations.append("matching error not decreasing along the schedule")
    return SplittingReport(
        ok=not violations,
        m=m,
        r=r or 0,
        targets_cell0=targets0,
        targets_cell1=targets1,
        steps=steps,
        violations=violations,
    )


def _config_point(p):
    """A config point, an int or a one-element int list, as a 1-tuple."""
    if isinstance(p, list) and len(p) == 1:
        p = p[0]
    if type(p) is not int:
        raise ValueError(f"a point must be an int or a one-element int list, got {p!r}")
    return (p,)


def _config_number(value, what):
    """A config number, a JSON number or a string such as "3/2" or "1e-3",
    as an exact Fraction in float range; `what` names it in a refusal."""
    try:
        number = Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{what} is not a number: {value!r}")
    try:
        float(number)
    except OverflowError:
        raise ValueError(f"{what} is outside float range: {value!r}")
    return number


def load_config(path):
    """Read a tracking-experiment config: the marked points A, the two
    cells A0 and A1, and optionally a seed or coefficients.  Any other key,
    or a value of the wrong shape, raises ValueError."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("the config must be a JSON object")
    for key in raw:
        if key not in ("A", "A0", "A1", "seed", "coefficients"):
            raise ValueError(f"unknown config key {key!r}")
    cfg = {}
    for key in ("A", "A0", "A1"):
        if key not in raw:
            raise ValueError(f"config missing {key}")
        if not isinstance(raw[key], list) or not raw[key]:
            raise ValueError(f"{key} must be a nonempty list of points")
        cfg[key] = [_config_point(p) for p in raw[key]]
    cfg["seed"] = raw.get("seed", DEFAULT_SEED)
    if type(cfg["seed"]) is not int:
        raise ValueError(f"seed must be an integer, got {cfg['seed']!r}")
    if "coefficients" in raw:
        if not isinstance(raw["coefficients"], dict):
            raise ValueError("coefficients must be a JSON object")
        cfg["coefficients"] = {}
        for k, v in raw["coefficients"].items():
            p = _config_point(json.loads(k))
            cfg["coefficients"][p] = _config_number(v, f"the coefficient at {_show(p)}")
    return cfg


def bisection_from_config(cfg):
    def interval(points):
        xs = [p[0] for p in points]
        return MarkedPolytope(LatticePolytope((min(xs), max(xs))), tuple(points))

    parent = interval(cfg["A"])
    return Bisection(interval(cfg["A0"]), interval(cfg["A1"])), parent
