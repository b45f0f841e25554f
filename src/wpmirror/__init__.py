"""Verification library for the mirror correspondence of weighted
projective blowups: exact computation of both sides of the equivalence,
machine-checkable certificates, and the polytope-bisection machinery."""

# The one version string: the CLI, the certificates (whose hashed payload
# holds it) and the package metadata all read it from here.
__version__ = "0.1.0"

from .weights import (
    ExteriorBasisElement,
    LatticePolytope,
    Monomial,
    Weights,
    graded_dim,
    monomial_basis,
    normalized_volume,
    sheaf_cohomology_dim,
)
from .bside import (
    BigradedHom,
    cm_sequence,
    compose_dual,
    dual_ext,
    ext_pushforward,
    generation_certificate,
    resolution_summands,
    verify_prop6_via_resolution,
)
from .verify import Certificate, hms_certificate, sweep
