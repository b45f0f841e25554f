"""Exact planar strip model of the vanishing cycles for two weights.

Each curve lives in the strip 0 <= Re(z) <= 1 with vertical period 4(l-1)
and consists of two straight segments joined by a half-circle in the
Re(z) <= 0 half-plane.  All coordinates are Gaussian integers or exact
rationals; Maslov degrees are computed exactly in integer units of
pi / 2(l-1) and must cancel to integer multiples of pi.
"""

import enum
from dataclasses import dataclass
from fractions import Fraction

from ..bside import BigradedHom
from ..weights import ExteriorBasisElement, as_index


def _require_strip_weights(w):
    if w.n != 1:
        raise ValueError("the strip model needs exactly two weights")
    if w.a[0] > w.a[1]:
        raise ValueError("strip model expects a0 <= a1; normalize the weights first")


class PointKind(enum.Enum):
    ARC = "arc"          # half-circle / half-circle crossing
    SEG_PM = "seg_pm"    # s_{j+} with s_{k-}
    SEG_MP = "seg_mp"    # s_{k+} with s_{j-}

    # Members are singletons, so the identity hash, in C, serves the point
    # tables that key by kind; `Enum.__hash__` is a Python-level call.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class StripCurve:
    """One vanishing cycle in strip coordinates (Gaussian-integer tuples)."""

    index: int
    p_plus: tuple
    p_minus: tuple
    q_plus: tuple
    q_minus: tuple
    arc_center: tuple
    arc_radius: int


def _q_minus(w, i):
    """Height of the lower marked endpoint q_- of curve i on Re(z) = 1."""
    return 4 * i + 1 - 2 * (w.l - 1)


def _q_plus(w, i):
    """Height of the upper marked endpoint q_+ of curve i on Re(z) = 1."""
    return _q_minus(w, i) + 4 * w.a[0] - 2


def build_curves(w):
    """The l-1 vanishing cycles of the strip model, exact coordinates."""
    _require_strip_weights(w)
    l = w.l
    curves = []
    for k in range(l - 1):
        p_plus = (0, 2 * k + 1)
        p_minus = (0, 2 * k + 1 - 2 * (l - 1))
        curves.append(StripCurve(
            index=k,
            p_plus=p_plus,
            p_minus=p_minus,
            q_plus=(1, _q_plus(w, k)),
            q_minus=(1, _q_minus(w, k)),
            arc_center=(0, p_minus[1] + (l - 1)),
            arc_radius=l - 1,
        ))
    return curves


@dataclass(frozen=True)
class IntersectionPoint:
    """A labeled intersection of two curves (indices j < k).

    Segment crossings carry an exact x-coordinate in (0, 1) and the integer
    period shift that realizes them; half-circle crossings are symbolic.
    """

    j: int
    k: int
    kind: PointKind
    x: object  # Fraction for segment kinds, None for ARC
    d: object  # period shift for segment kinds, None for ARC
    label: ExteriorBasisElement


def _seg_pm_x(w, j, k):
    """x-coordinate of s_{j+} crossing s_{k-}, shift d = 0."""
    return Fraction((j - k) + (w.l - 1), (k - j) + w.l - 2 * w.a[0])


def _seg_mp_x(w, j, k):
    """x-coordinate of s_{k+} crossing s_{j-}, shift d = -1."""
    return Fraction((k - j) - (w.l - 1), (j - k) + w.l - 2 * w.a[0])


def _require_pair(w, j, k):
    if not 0 <= j < k <= w.l - 2:
        raise ValueError(f"need 0 <= j < k <= l-2, got j={j}, k={k}")


def intersections(w, j, k):
    """All intersection points of curves j < k, one period representative each.

    The half-circles always cross once; the segment crossings exist exactly
    when the index gap admits them (a0 <= k-j, resp. a1 <= k-j).
    """
    _require_strip_weights(w)
    j, k = as_index(j, "j"), as_index(k, "k")
    _require_pair(w, j, k)
    # The shared labels; for two weights the subsets are (), (0,), (1,), (0, 1).
    (_, e_empty), (_, e_0), (_, e_1) = w.exterior_basis[:3]
    points = [IntersectionPoint(j, k, PointKind.ARC, None, None, e_empty)]
    if w.a[0] <= k - j:
        x = _seg_pm_x(w, j, k)
        if not 0 < x < 1:
            raise ArithmeticError(f"seg_pm x={x} outside (0,1)")
        points.append(IntersectionPoint(j, k, PointKind.SEG_PM, x, 0, e_0))
    if w.a[1] <= k - j:
        x = _seg_mp_x(w, j, k)
        if not 0 < x < 1:
            raise ArithmeticError(f"seg_mp x={x} outside (0,1)")
        points.append(IntersectionPoint(j, k, PointKind.SEG_MP, x, -1, e_1))
    return points


def gap_points(w, d):
    """The row of gap d, from one `intersections(w, 0, d)` per `Weights`
    object: the points by kind and the `hom_space` basis, which serve every
    pair (j, j + d) by the translation lemma of `enumerate_accepted_words`."""
    table = w._tables["points"]
    row = table.get(d)
    if row is None:
        points = intersections(w, 0, d)
        basis = sorted(((maslov_degree(w, p), p.label) for p in points),
                       key=lambda t: (t[0], t[1].subset))
        row = table[d] = ({p.kind: p for p in points}, tuple(basis))
    return row


# Every angle of the Maslov pipeline is a multiple of pi / D with
# D = 2(l - 1), so the pipeline runs on integers in that unit.

def _phi_plus(w, i):
    """Boundary grading at the upper endpoint of curve i, in units of pi/D."""
    return 2 * (w.l - 1) - _q_plus(w, i)


def _phi_minus(w, i):
    """Boundary grading at the lower endpoint of curve i, in units of pi/D."""
    return -_q_minus(w, i)


def _xi_semicircle(w, two_r):
    """Angle swept along the boundary semicircle of height parameter r,
    given as 2r, in units of pi/D."""
    return 2 * (w.l - 1) - two_r


def maslov_degree(w, p):
    """Maslov degree of an intersection point via the exact angle pipeline.

    Every case-specific path decomposition is evaluated in units of pi/D;
    the result must cancel to a multiple of D, an integer multiple of pi.
    """
    _require_strip_weights(w)
    d = 2 * (w.l - 1)
    j, k = p.j, p.k
    # Path endpoints: the marked boundary points of curves k (upper role)
    # and j (lower role).
    q_plus_im_k = _q_plus(w, k)
    q_minus_im_j = _q_minus(w, j)
    phi_k = _phi_plus(w, k)
    phi_j = _phi_minus(w, j)
    if p.kind is PointKind.ARC:
        # Boundary semicircle traversed backwards, no extra loop.
        xi = -_xi_semicircle(w, q_plus_im_k - q_minus_im_j)
        orientation = 0
    elif p.kind is PointKind.SEG_PM:
        # Same semicircle plus a full backwards loop around the boundary.
        xi = -_xi_semicircle(w, q_plus_im_k - q_minus_im_j) - 2 * d
        orientation = d
    elif p.kind is PointKind.SEG_MP:
        # Straight chord between the endpoint gradings, then a backwards loop.
        xi = (phi_j - phi_k) - 2 * d
        orientation = d
    else:  # pragma: no cover
        raise ValueError(f"unknown point kind {p.kind}")
    mu = -(xi + orientation + phi_k - phi_j)
    if mu % d:
        raise ArithmeticError(
            f"Maslov pipeline failed to cancel: mu = {mu}/{d} pi for {p}"
        )
    return mu // d


def hom_space(w, j, k):
    """The morphism space from curve j to curve k: labeled intersection
    points graded by Maslov degree; identity for j = k, zero for j > k.
    Both indices must name curves, 0 <= j, k <= l-2, for every pair."""
    _require_strip_weights(w)
    j, k = as_index(j, "j"), as_index(k, "k")  # only ints key the point table
    if j < k:
        _require_pair(w, j, k)
        return BigradedHom._trusted(j, k, gap_points(w, k - j)[1])
    if not 0 <= k <= j <= w.l - 2:
        raise ValueError(f"need 0 <= k <= j <= l-2, got j={j}, k={k}")
    return BigradedHom._trusted(j, k, ((0, w.exterior_basis[0][1]),) if j == k else ())
