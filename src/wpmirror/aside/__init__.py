"""The Fukaya side for two weights: the exact strip model of vanishing
cycles, intersection enumeration, Maslov degrees, disc-word products, and
the critical data of the potential."""

from .strip import (
    IntersectionPoint,
    PointKind,
    StripCurve,
    build_curves,
    hom_space,
    intersections,
    maslov_degree,
)
from .words import (
    DiscWord,
    Letter,
    enumerate_accepted_words,
    higher_product_report,
)
from .potential import (
    CriticalDatum,
    HPolyRoots,
    critical_data,
    h_poly_roots,
    monodromy_data,
)
