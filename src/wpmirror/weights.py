"""Weighted graded-ring arithmetic, the weighted exterior algebra, the
one integer check of every index, weight and coordinate, and the small
lattice-polytope utilities that `bisection` reads.

Everything here is exact: arbitrary-precision integers and `fractions.Fraction`
only, no floating point, so that downstream certificates are bit-stable.
"""

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import gcd


def as_index(x, name, kind="an integer object index"):
    """x as an int: an int as it is, any other integer type but bool
    through `operator.index`; anything else, a bool, float, str or None
    among them, is refused by name, "<name>=<x!r> is not <kind>"."""
    if type(x) is int:
        return x
    if isinstance(x, bool) or not hasattr(x, "__index__"):
        raise ValueError(f"{name}={x!r} is not {kind}")
    return operator.index(x)


def as_point(p):
    """A point, a tuple or list of coordinates or one coordinate alone, as
    a tuple of ints; a coordinate that is not an integer is refused by
    name."""
    coords = p if isinstance(p, (tuple, list)) else (p,)
    return tuple(as_index(x, "coordinate", "an integer") for x in coords)


@dataclass(frozen=True)
class Weights:
    """A vector of positive integer weights (a_0, ..., a_n)."""

    a: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(as_index(x, "weight", "an integer") for x in self.a))
        if len(self.a) == 0:
            raise ValueError("weights must be non-empty")
        if any(x < 1 for x in self.a):
            raise ValueError(f"weights must be positive, got {self.a}")

    @property
    def n(self):
        return len(self.a) - 1

    @cached_property
    def l(self):
        """Total weight l = sum(a_i)."""
        return sum(self.a)

    @cached_property
    def subsets(self):
        """Every index subset J with its weight a_J, by size and then in
        lexicographic order (the dual basis order); dies with the object."""
        return tuple((J, sum(self.a[x] for x in J))
                     for r in range(self.n + 2) for J in combinations(range(self.n + 1), r))

    @cached_property
    def exterior_basis(self):
        """The dual basis entry (|J|, e_J) of each subset J, in the order of
        `subsets`: one e_J per subset, shared by every dual Ext space.  A
        subset from `combinations` is sorted and repeats no index, so e_J
        is made without re-validation."""
        return tuple((len(J), ExteriorBasisElement._trusted(J)) for J, _ in self.subsets)

    @cached_property
    def _tables(self):
        """The facts that depend on these weights alone, one table per
        owner, each entry built once and freed with the object: "suffixes"
        ((s, degree) -> the exponent tuples of a_s..a_n for s >= 1, the
        suffix table that `monomial_basis` builds on), "monomials" (degree
        -> the monomials of `monomial_basis`), "ext" (gap k - j -> the
        basis of `bside.ext_pushforward`), "dual" (span k - i -> the
        basis of `bside.dual_ext`), "oracle" (span k - i -> the basis of
        `bside.verify_prop6_via_resolution`, by its own criterion) and
        "points" (gap d -> the row of `aside.strip.gap_points`: the points
        of the pair (0, d) by kind and the `hom_space` basis of gap d)."""
        return {"suffixes": {}, "monomials": {}, "ext": {}, "dual": {}, "oracle": {}, "points": {}}

    def __repr__(self):
        return f"Weights{self.a}"


@dataclass(frozen=True)
class Monomial:
    """A monomial in the weighted polynomial ring, stored by exponents."""

    exponents: tuple

    def __post_init__(self):
        object.__setattr__(self, "exponents",
                           tuple(as_index(e, "exponent", "an integer") for e in self.exponents))
        if any(e < 0 for e in self.exponents):
            raise ValueError("exponents must be nonnegative")

    @classmethod
    def _trusted(cls, exponents):
        """A monomial of a tuple of nonnegative ints, taken as it is."""
        m = object.__new__(cls)
        object.__setattr__(m, "exponents", exponents)
        return m


@dataclass(frozen=True)
class ExteriorBasisElement:
    """A basis element e_J of the exterior algebra, J a sorted index subset."""

    subset: tuple

    def __post_init__(self):
        subset = tuple(sorted(as_index(i, "subset index", "an integer") for i in self.subset))
        if len(set(subset)) != len(subset):
            raise ValueError("repeated index in exterior subset")
        object.__setattr__(self, "subset", subset)

    @classmethod
    def _trusted(cls, subset):
        """e_J of a sorted tuple of distinct ints, taken as it is."""
        e = object.__new__(cls)
        object.__setattr__(e, "subset", subset)
        return e


@dataclass(frozen=True)
class LatticePolytope:
    """A lattice polytope of dimension <= 2, given by its vertices.

    One-dimensional intervals may be given either by integers or by
    degenerate (collinear) coordinate tuples.
    """

    vertices: tuple

    def __post_init__(self):
        verts = [as_point(v) for v in self.vertices]
        if not verts:
            raise ValueError("empty vertex list")
        dims = {len(v) for v in verts}
        if len(dims) != 1:
            raise ValueError("mixed coordinate dimensions")
        if len(verts[0]) > 2:
            raise ValueError("only dimensions 1 and 2 are supported")
        object.__setattr__(self, "vertices", tuple(verts))

    @property
    def ambient_dim(self):
        return len(self.vertices[0])


def graded_dim(w, k):
    """Dimension of the degree-k piece of the weighted polynomial ring."""
    if k < 0:
        return 0
    # Count exponent vectors with sum a_i e_i = k by a running convolution.
    counts = [0] * (k + 1)
    counts[0] = 1
    for a in w.a:
        for d in range(a, k + 1):
            counts[d] += counts[d - a]
    return counts[k]


def _suffix(w, s, d):
    """The exponent tuples of a_s..a_n, s >= 1, in degree d: the suffix
    table's entry, built once per (suffix, degree) and `Weights` object."""
    table = w._tables["suffixes"]
    out = table.get((s, d))
    if out is None:
        out = table[s, d] = _exponents(w, s, d)
    return out


def _exponents(w, s, d):
    """The exponent tuples of a_s..a_n in degree d, largest e_s first.

    Each is an exponent e of a_s, from d // a_s down to 0, joined to a
    tuple of a_{s+1}..a_n in degree d - e * a_s from the suffix table; the
    last weight alone has one tuple when a_n divides d.  Every exponent is
    a nonnegative int.
    """
    a = w.a[s]
    if s == w.n:
        return ((d // a,),) if d % a == 0 else ()
    return tuple((e,) + tail for e in range(d // a, -1, -1)
                 for tail in _suffix(w, s + 1, d - e * a))


def monomial_basis(w, k):
    """All monomials of weighted degree k, in the fixed lexicographic order.

    The order (largest leading exponent first) is the basis order used in
    every downstream table and certificate.  The monomials of a degree are
    built once per `Weights` object, from its suffix table and without
    re-validation; each call returns a new list of them.
    """
    if k < 0:
        return []
    table = w._tables["monomials"]
    basis = table.get(k)
    if basis is None:
        basis = table[k] = tuple(map(Monomial._trusted, _exponents(w, 0, k)))
    return list(basis)


def sheaf_cohomology_dim(w, p, k):
    """dim H^p of the degree-k twisting sheaf on the weighted projective space."""
    if p < 0 or p > w.n:
        raise ValueError(f"cohomological degree {p} outside [0, {w.n}]")
    if p == 0 and k >= 0:
        return graded_dim(w, k)
    if p == w.n and k <= -w.l:
        return graded_dim(w, -k - w.l)
    return 0


def as_2d(p):
    """A 1- or 2-dimensional point as a point of the plane: (x,) is (x, 0)."""
    return p if len(p) == 2 else (p[0], 0)


def cross(o, a, b):
    """The cross product of a - o and b - o: positive when o, a, b turn
    counterclockwise, zero when they are collinear."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def twice_area(pts):
    """Twice the area of the polygon with the vertices `pts`, in order."""
    s = 0
    for i in range(len(pts)):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % len(pts)]
        s += x0 * y1 - x1 * y0
    return abs(s)


def convex_hull_2d(points):
    """Andrew's monotone chain; returns hull vertices counterclockwise, so
    collinear points give their two ends and one point gives itself."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def normalized_volume(p):
    """d! times the euclidean volume, read from the planar hull: twice the
    area of a polygon, or the lattice length of a (possibly degenerate)
    1-dimensional interval, the gcd of the steps between its two ends.

    Zero-dimensional input is rejected.
    """
    hull = convex_hull_2d([as_2d(v) for v in p.vertices])
    if len(hull) == 1:
        raise ValueError("degenerate polytope: all vertices coincide")
    if len(hull) == 2:
        (x0, y0), (x1, y1) = hull
        return gcd(x1 - x0, y1 - y0)
    return twice_area(hull)
