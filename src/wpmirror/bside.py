"""The derived-category side: Ext algebras of the line-bundle collection on
the blowup, the dual (simple-module) Ext algebra as a weight-truncated
exterior algebra, projective resolutions as summand bookkeeping, and the
generation certificate for the exceptional range [0, l-2].
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .weights import ExteriorBasisElement, monomial_basis


def _check_object_index(w, idx, name="index"):
    if not 0 <= idx <= w.l - 2:
        raise ValueError(f"{name}={idx} outside the object range [0, {w.l - 2}]")


@dataclass(frozen=True)
class BigradedHom:
    """A hom space with a (cohomological degree, label)-graded basis.

    Labels are Monomials on the quiver side and ExteriorBasisElements on the
    dual side; the basis order is degree-major, then label order, and is the
    order used in all certificates.
    """

    source: int
    target: int
    basis: tuple  # of (coh_degree, label)

    @property
    def dims_by_degree(self):
        dims = {}
        for deg, _ in self.basis:
            dims[deg] = dims.get(deg, 0) + 1
        return dims

    @property
    def total_dim(self):
        return len(self.basis)

    def dim(self, degree):
        return self.dims_by_degree.get(degree, 0)


@dataclass(frozen=True)
class DualElement:
    """A basis element of Ext between simple modules: a scaled e_J."""

    source: int
    target: int
    label: ExteriorBasisElement
    coefficient: Fraction = Fraction(1)

    @property
    def coh_degree(self):
        return self.label.degree

    def is_zero(self):
        return self.coefficient == 0


def ext_pushforward(w, j, k):
    """Ext of the pushed-forward twisting sheaves O(j) -> O(k).

    Degree 0 is the weighted graded piece R_{k-j}, degree 1 is R_{k-j-1};
    the space vanishes for k < j (semi-orthogonality).
    """
    _check_object_index(w, j, "source")
    _check_object_index(w, k, "target")
    if k < j:
        return BigradedHom(j, k, ())
    basis = [(0, m) for m in monomial_basis(w, k - j)]
    basis += [(1, m) for m in monomial_basis(w, k - j - 1)]
    return BigradedHom(j, k, tuple(basis))


def dual_ext(w, k, i):
    """Ext from the simple at k to the simple at i: all e_J with total
    weight a_J <= k - i, placed in cohomological degree |J|."""
    _check_object_index(w, k, "source")
    _check_object_index(w, i, "target")
    if k < i:
        return BigradedHom(k, i, ())
    basis = []
    for r in range(w.n + 2):
        for J in combinations(range(w.n + 1), r):
            if sum(w.a[x] for x in J) <= k - i:
                basis.append((r, ExteriorBasisElement(J)))
    basis.sort(key=lambda t: (t[0], t[1].subset))
    return BigradedHom(k, i, tuple(basis))


def _merge_sign(left, right):
    """Sign of merging two disjoint sorted index tuples by concatenation."""
    inversions = sum(1 for x in left for y in right if x > y)
    return -1 if inversions % 2 else 1


def compose_dual(w, u, v):
    """Compose u after v (v: k -> j, u: j -> i) as a truncated wedge u ^ v.

    Zero when the subsets overlap or the merged weight exceeds the
    truncation bound k - i; the sign is the parity of merge inversions.
    """
    if v.target != u.source:
        raise ValueError(
            f"cannot compose: v ends at {v.target}, u starts at {u.source}"
        )
    span = v.source - u.target
    ju, jv = u.label.subset, v.label.subset
    if set(ju) & set(jv):
        return None
    merged = ExteriorBasisElement(ju + jv)
    if merged.weight(w) > span:
        return None
    sign = _merge_sign(ju, jv)
    return DualElement(
        source=v.source,
        target=u.target,
        label=merged,
        coefficient=sign * u.coefficient * v.coefficient,
    )


def cm_sequence(w, m):
    """The m-th term c_m of the filling sequence in Z^{n+1}: fill
    coordinate 0 up to a_0, then coordinate 1, and so on."""
    if not 0 <= m <= w.l:
        raise ValueError(f"m={m} outside [0, {w.l}]")
    c = []
    remaining = m
    for a in w.a:
        take = min(a, remaining)
        c.append(take)
        remaining -= take
    return tuple(c)


@dataclass
class GenerationReport:
    """Result of the generation certificate: per-step summand degrees for
    every index subset, with the range checks of each step."""

    passed: bool
    rows: list = field(default_factory=list)  # (m, J, degree, ok)
    violations: list = field(default_factory=list)


def generation_certificate(w):
    """Check the degree bookkeeping that makes the simple modules generate.

    For every step 1 <= m < l and subset J the cokernel summand degree
    sum_{j in J} c_{m-1,j} must lie in [0, l-2]; at the final step m = l
    every summand stays within [0, l-1] and the unique top summand (the
    full subset) hits l-1 exactly.  Consecutive c-vectors must differ by a
    standard basis vector.
    """
    report = GenerationReport(passed=True)
    l = w.l
    subsets = [J for r in range(w.n + 2) for J in combinations(range(w.n + 1), r)]
    if cm_sequence(w, 0) != (0,) * (w.n + 1):
        report.passed = False
        report.violations.append("c_0 is not the zero vector")
    for m in range(1, l + 1):
        prev = cm_sequence(w, m - 1)
        cur = cm_sequence(w, m)
        diff = tuple(a - b for a, b in zip(cur, prev))
        if sorted(diff) != [0] * w.n + [1]:
            report.passed = False
            report.violations.append(f"step {m}: c_m - c_(m-1) = {diff} not a basis vector")
        for J in subsets:
            degree = sum(prev[j] for j in J)
            if m < l:
                ok = 0 <= degree <= l - 2
            elif len(J) <= w.n:
                ok = 0 <= degree <= l - 1
            else:
                ok = degree == l - 1
            report.rows.append((m, J, degree, ok))
            if not ok:
                report.passed = False
                report.violations.append(f"step {m}, J={J}: summand degree {degree}")
    return report


@dataclass(frozen=True)
class ResolutionSummand:
    """One projective summand P_i[shift] of the resolution of a simple,
    tagged with the index subset that produced it."""

    homological_position: int
    projective_index: int
    internal_shift: int
    witness_subset: tuple


def resolution_summands(w, k, positions=None):
    """Summands of the projective resolution of the simple at k.

    By default positions 0..n are reported; pass an explicit range for the
    full resolution.  Summands whose projective index would be negative are
    pruned (the P_i = 0 for i < 0 convention).
    """
    _check_object_index(w, k)
    if positions is None:
        positions = range(w.n + 1)
    # (J, |J| - a_J) for every index subset J, by size and then in
    # lexicographic order, so each subset's weight is summed once per scan.
    offsets = [(J, r - sum(w.a[x] for x in J))
               for r in range(w.n + 2) for J in combinations(range(w.n + 1), r)]
    out = []
    for j in positions:
        for J, offset in offsets:
            if len(J) > j:
                break
            i = k - j + offset
            if i >= 0:
                out.append(ResolutionSummand(j, i, len(J) - j, J))
    return out


def resolution_by_projective(w, k):
    """Independent oracle for the dual Ext algebra out of the simple at k:
    scan the full resolution of the simple once and group its summands by
    projective index, each P_i counted by total grading.

    The differential restricted to these summands vanishes, so entry i is
    the Ext space to the simple at i; it must agree with dual_ext(w, k, i).
    Returns one BigradedHom per object i in [0, l-2].
    """
    _check_object_index(w, k)
    # The resolution extends past position n; position k + |J| - a_J is the
    # last one at which a given subset J contributes.  Every weight is at
    # least 1, so that position is at most k, reached by the empty subset.
    summands = resolution_summands(w, k, positions=range(k + 1))
    # Sorting the scan by (total grading, subset) puts every group in basis
    # order.
    summands.sort(key=lambda s: (len(s.witness_subset), s.witness_subset))
    labels = {}
    bases = [[] for _ in range(w.l - 1)]
    for summand in summands:
        J = summand.witness_subset
        label = labels.get(J)
        if label is None:
            label = labels[J] = ExteriorBasisElement(J)
        bases[summand.projective_index].append((len(J), label))
    return [BigradedHom(k, i, tuple(basis)) for i, basis in enumerate(bases)]


def verify_prop6_via_resolution(w, k, i):
    """The resolution oracle's Ext space from the simple at k to the simple
    at i; see resolution_by_projective."""
    _check_object_index(w, i)
    return resolution_by_projective(w, k)[i]
