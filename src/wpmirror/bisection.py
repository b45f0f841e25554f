"""Marked polytopes, bisections, coherence weights, and the critical-value
splitting of deformed potentials.

Geometry stays in dimensions one and two with exact integer
predicates.  The splitting of a 1D bisection is decided exactly from the
Newton polygon of the potential deformed by its coherence weights: the
critical points that stay at valuation 0 under each weight are counted in
integers, and a zero critical value of the second cell is found by a gcd
over the rationals.  Only the reported critical values are floats.
"""

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .weights import (LatticePolytope, as_2d, as_point, convex_hull_2d, cross,
                      normalized_volume)

# A seeded coefficient draw keeps the float critical values 10 x TOLERANCE
# apart and away from zero; DEFAULT_SEED is its seed when a config names
# none.
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


def _valuation_counts(coeffs, weight):
    """The critical points of the potential deformed by an integral weight,
    f_t = sum of c_p t^(-weight(p)) x^p, as (how many have t-adic valuation
    0, how many there are): the run of the flat edge and the width of the
    lower hull of {(p, -weight(p)) : p != 0, c_p != 0}."""
    pts = [(p[0], -weight[p]) for p, c in coeffs.items() if p[0] and c]
    hull = convex_hull_2d(pts)
    # The counterclockwise hull runs along its lower chain from the
    # leftmost point to the rightmost.
    lower = hull[:hull.index(max(pts)) + 1]
    flat = sum(b[0] - a[0] for a, b in zip(lower, lower[1:]) if a[1] == b[1])
    return flat, lower[-1][0] - lower[0][0]


def _has_zero_critical_value(f):
    """Whether a one-variable Laurent polynomial, a map from int exponent to
    Fraction whose lowest coefficient is nonzero, has a zero critical
    value: whether f and x f' share a root in C*.  Cleared by the lowest
    power, f has no root at 0, so this is whether the two polynomials have
    a gcd of positive degree, from Euclid's algorithm over Q."""
    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    span = range(min(f), max(f) + 1)
    u, v = trim([f.get(a, 0) for a in span]), trim([a * f.get(a, 0) for a in span])
    while v:
        while len(u) >= len(v):
            q, shift = u[-1] / v[-1], len(u) - len(v)
            for i, c in enumerate(v):
                u[shift + i] -= q * c
            trim(u)
        u, v = v, u
    return len(u) > 1


@dataclass
class SplittingReport:
    ok: bool
    m: int
    r: int
    targets_cell0: list
    targets_cell1: list
    violations: list = field(default_factory=list)


def track_splitting(b, coeffs=None, seed=DEFAULT_SEED):
    """Decide the critical-value splitting of a 1D bisection exactly.

    Deform f = sum of c_p x^p by the coherence weight eta to
    f_t = sum of c_p t^(-eta(p)) x^p.  The critical points of f_t are the
    roots of x f_t'(x) = sum of p c_p t^(-eta(p)) x^p, whose coefficient
    at p has t-adic valuation -eta(p).  By Newton-Puiseux, the roots of
    valuation s are counted by the lattice length of the edge of slope -s
    on the lower hull of {(p, -eta(p)) : p != 0, c_p != 0}, and their
    leading coefficients are the roots of that edge's polynomial, counted
    with multiplicity.  eta is 0 on cell 0 and the negative wall functional
    on cell 1, so the hull has two edges, one over each cell.  So m roots
    have valuation 0; their leading coefficients are the critical points
    of f restricted to cell 0, and since every other term carries a
    positive power of t, their critical values tend to those of the
    restriction.  No simple-root condition is needed.  The re-based weight
    tau does the same for cell 1.  (Maclagan and Sturmfels, Introduction
    to Tropical Geometry, ch. 2-3.)

    What is left to decide, in ints and Fractions: (a) the valuation-0
    counts under eta and tau are the cells' lattice lengths, m and r - m,
    where r counts all critical points; (b) f restricted to cell 1 has no
    zero critical value, that is f_1 and x f_1' are coprime over Q.  A
    zero coefficient at a vertex of a cell would shorten its edge, and
    raises ValueError naming the point.  The targets, the critical values
    of the two restrictions, are computed in floats for the report.
    """
    a_all = sorted(set(b.cell0.A) | set(b.cell1.A))
    if any(len(p) != 1 for p in a_all):
        raise ValueError("critical-value tracking is 1D only")
    if coeffs is None:
        coeffs = seeded_coefficients(a_all, seed, a0=b.cell0.A, a1=b.cell1.A)
    # Sorted by point, so the report does not depend on the order of the
    # given map.
    coeffs = dict(sorted({as_point(k): Fraction(v) for k, v in coeffs.items()}.items()))
    stray = sorted(set(a_all) ^ set(coeffs))
    if stray:
        raise ValueError(f"the coefficients and the marked points differ at {_show(stray[0])}")
    for i, cell in enumerate((b.cell0, b.cell1)):
        for v in (min(cell.A), max(cell.A)):
            if not coeffs[v]:
                raise ValueError(f"the coefficient at {_show(v)}, a vertex of cell {i}, is zero")

    def restricted(points):
        return {p[0]: coeffs[p] for p in points}

    f1 = restricted(b.cell1.A)
    targets0 = critical_values_univariate(restricted(b.cell0.A))
    targets1 = critical_values_univariate(f1)

    violations = []
    if _has_zero_critical_value(f1):
        violations.append("restriction to the second cell has a zero critical value")
    eta, tau = coherence_weights(b)
    (m, r), (m1, _) = _valuation_counts(coeffs, eta), _valuation_counts(coeffs, tau)
    for i, (flat, cell) in enumerate(((m, b.cell0), (m1, b.cell1))):
        length = normalized_volume(cell.Q)
        if flat != length:
            violations.append(f"{flat} critical points of valuation 0 under the weight of "
                              f"cell {i}, whose lattice length is {length}")
    return SplittingReport(
        ok=not violations,
        m=m,
        r=r,
        targets_cell0=targets0,
        targets_cell1=targets1,
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
