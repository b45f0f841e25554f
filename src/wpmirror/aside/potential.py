"""Critical data of the superpotential for two weights.

The potential restricted to the fiber direction has l-1 nondegenerate
critical values, the (l-1)-st roots of unity scaled by l-1; they are kept
in exact polar form.  The auxiliary one-variable polynomial
h_q(x) = x^l - l^l x + l^l q detects the discriminant: at the special
parameter values two of its roots collide, which the root report flags.
"""

import cmath
from dataclasses import dataclass
from fractions import Fraction

# The near-double-root flag's threshold, relative to the root scale.
_RTOL = 1e-4


@dataclass(frozen=True)
class CriticalDatum:
    """One critical value in exact polar form: modulus * e^{i pi * angle}."""

    index: int
    modulus: int
    angle: Fraction  # in units of pi, reduced to [0, 2)

    @property
    def value(self):
        return self.modulus * cmath.exp(1j * cmath.pi * float(self.angle))


def critical_data(w):
    """The l-1 critical values (l-1) * zeta^i, zeta = e^{2 pi i/(l-1)}."""
    m = w.l - 1
    out = []
    for i in range(m):
        angle = Fraction(2 * i, m) % 2
        out.append(CriticalDatum(index=i, modulus=m, angle=angle))
    return out


@dataclass(frozen=True)
class HPolyRoots:
    """Roots of h_q for one parameter value, with a near-double-root flag."""

    q: complex
    roots: tuple
    min_separation: float
    near_double_root: bool


def h_poly_roots(w, q):
    """Roots of h_q(x) = x^l - l^l x + l^l q, sorted by (argument, modulus).

    Since h_q(l y) = l^l (y^l - l y + q), the roots are l times those of
    y^l - l y + q, whose coefficients stay within float range for every l
    and every finite q.  The near_double_root flag fires when the smallest
    pairwise root separation drops below _RTOL times the root scale, which
    happens exactly near the critical parameter values.
    """
    import numpy as np  # on first use: the exact commands never load numpy

    l = w.l
    roots = np.roots([1.0] + [0.0] * (l - 2) + [-float(l), complex(q)])
    ordered = sorted(
        (l * complex(r) for r in roots),
        key=lambda z: (cmath.phase(z), abs(z)),
    )
    min_sep = min(
        abs(a - b)
        for i, a in enumerate(ordered)
        for b in ordered[i + 1:]
    )
    scale = max(1.0, max(abs(r) for r in ordered))
    return HPolyRoots(
        q=complex(q),
        roots=tuple(ordered),
        min_separation=min_sep,
        near_double_root=min_sep < _RTOL * scale,
    )


def monodromy_data(w):
    """Local monodromy weights of the fibration around the torus-fixed
    points and the ramification order of the branched covering.  The two
    winding numbers are congruent mod l-1 by the identity
    a0 - (1 - a1) = l - 1, so no pair needs a check."""
    a0, a1 = w.a[0], w.a[1]
    return {
        "around_100": a0,
        "around_010": -a1,
        "branch_ramification": w.l - 1,
    }
