"""The derived-category side: Ext algebras of the line-bundle collection on
the blowup, the dual (simple-module) Ext algebra as a weight-truncated
exterior algebra, projective resolutions as summand bookkeeping, and the
generation certificate for the exceptional range [0, l-2].
"""

from dataclasses import dataclass, field

from .weights import as_index, monomial_basis


def _check_object_index(w, idx, name="index"):
    """The object index idx as an int: an integer type other than bool is
    taken, anything else is refused by name, as is an index outside
    [0, l - 2]."""
    idx = as_index(idx, name)
    if not 0 <= idx <= w.l - 2:
        raise ValueError(f"{name}={idx} outside the object range [0, {w.l - 2}]")
    return idx


def _check_object_indices(w, first, second, first_name, second_name):
    """The two object indices of a hom space as ints, in one call: two ints
    in [0, l - 2] pass at once; anything else goes to `_check_object_index`,
    the first index before the second, so each refusal and its message is
    that of the checks one by one."""
    top = w.l - 2
    if type(first) is int and type(second) is int and 0 <= first <= top and 0 <= second <= top:
        return first, second
    return (_check_object_index(w, first, first_name),
            _check_object_index(w, second, second_name))


@dataclass(frozen=True, slots=True)
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

    @staticmethod
    def _trusted(source, target, basis):
        """A hom space of checked int indices and a basis tuple, its three
        slots set directly: about half the cost of the frozen `__init__`
        that the public constructor keeps.  A staticmethod, as a
        classmethod would cost a bound method per call."""
        hom = _new_object(BigradedHom)
        _set_source(hom, source)
        _set_target(hom, target)
        _set_basis(hom, basis)
        return hom


_new_object = object.__new__
_set_source = BigradedHom.source.__set__
_set_target = BigradedHom.target.__set__
_set_basis = BigradedHom.basis.__set__


def ext_pushforward(w, j, k):
    """Ext of the pushed-forward twisting sheaves O(j) -> O(k).

    Degree 0 is the weighted graded piece R_{k-j}, degree 1 is R_{k-j-1};
    the space vanishes for k < j (semi-orthogonality).  The basis depends
    only on the gap k - j and is built once per gap and `Weights` object.
    """
    j, k = _check_object_indices(w, j, k, "source", "target")
    table = w._tables["ext"]
    basis = table.get(k - j)
    if basis is None:  # empty for k < j: no monomial has a negative degree
        basis = table[k - j] = (tuple((0, m) for m in monomial_basis(w, k - j))
                                + tuple((1, m) for m in monomial_basis(w, k - j - 1)))
    return BigradedHom._trusted(j, k, basis)


def dual_ext(w, k, i):
    """Ext from the simple at k to the simple at i: all e_J with total
    weight a_J <= k - i, placed in cohomological degree |J|.  The basis
    depends only on the span k - i and is built once per span and
    `Weights` object, from the shared entries of `w.exterior_basis`."""
    k, i = _check_object_indices(w, k, i, "source", "target")
    table = w._tables["dual"]
    basis = table.get(k - i)
    if basis is None:
        basis = table[k - i] = () if k < i else tuple(
            e for (_, weight), e in zip(w.subsets, w.exterior_basis) if weight <= k - i)
    return BigradedHom._trusted(k, i, basis)


def compose_dual(w, span, ju, jv):
    """Compose e_ju after e_jv (e_jv: k -> j, e_ju: j -> i, span = k - i)
    as the truncated wedge e_ju ^ e_jv: (merged subset, sign), or None.

    Zero when the subsets overlap or the merged weight exceeds the
    truncation bound k - i; the sign is the parity of merge inversions,
    the pairs x in ju, y in jv with x > y, read in the same pass over the
    pairs as the overlap.
    """
    sign = 1
    for x in ju:
        for y in jv:
            if x == y:
                return None
            if x > y:
                sign = -sign
    merged = tuple(sorted(ju + jv))
    if sum(map(w.a.__getitem__, merged)) > span:
        return None
    return merged, sign


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

    rows: list = field(default_factory=list)  # (m, J, degree, ok)
    violations: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.violations


def generation_certificate(w):
    """Check the degree bookkeeping that makes the simple modules generate.

    For every step 1 <= m < l and subset J the cokernel summand degree
    sum_{j in J} c_{m-1,j} must lie in [0, l-2]; at the final step m = l
    every summand stays within [0, l-1] and the unique top summand (the
    full subset) hits l-1 exactly.  Consecutive c-vectors must differ by a
    standard basis vector.  Each c_m is computed once, and serves as the
    current vector of step m and the previous one of step m + 1.
    """
    report = GenerationReport()
    l = w.l
    prev = cm_sequence(w, 0)
    if prev != (0,) * (w.n + 1):
        report.violations.append("c_0 is not the zero vector")
    for m in range(1, l + 1):
        cur = cm_sequence(w, m)
        diff = tuple(a - b for a, b in zip(cur, prev))
        if sorted(diff) != [0] * w.n + [1]:
            report.violations.append(f"step {m}: c_m - c_(m-1) = {diff} not a basis vector")
        for J, _ in w.subsets:
            degree = sum(map(prev.__getitem__, J))
            if m < l:
                ok = 0 <= degree <= l - 2
            elif len(J) <= w.n:
                ok = 0 <= degree <= l - 1
            else:
                ok = degree == l - 1
            report.rows.append((m, J, degree, ok))
            if not ok:
                report.violations.append(f"step {m}, J={J}: summand degree {degree}")
        prev = cur
    return report


def resolution_summands(w, k):
    """Summands of the projective resolution of the simple at k at
    positions 0..n, as (position, projective index, internal shift, subset)
    tuples.

    Subset J at position j gives P_{k - j + |J| - a_J} with shift |J| - j.
    Summands whose projective index would be negative are pruned (the
    P_i = 0 for i < 0 convention).
    """
    k = _check_object_index(w, k)
    out = []
    for j in range(w.n + 1):
        for J, weight in w.subsets:
            if len(J) > j:
                break
            i = k - j + len(J) - weight
            if i >= 0:
                out.append((j, i, len(J) - j, J))
    return out


def verify_prop6_via_resolution(w, k, i):
    """Independent oracle for the Ext space from the simple at k to the
    simple at i, by a position rule rather than from the summands that
    `resolution_summands` lists (the two disagree, e.g. for weights (1, 3)
    at k = 2, i = 0).

    Subset J is placed at the one position j = k - i + |J| - a_J that
    would give P_i, and counts when |J| <= j <= k.  The result must agree
    with dual_ext(w, k, i).

    The lower bound depends on the span k - i alone; no subset meets it
    for k < i, so a negative span's basis is empty, with no scan.  The
    upper bound is |J| - a_J <= i, which every weight >= 1 makes hold for
    each i >= 0; it is checked at i = 0 for every subset as each other
    span's basis is built, once per span and `Weights` object, and a
    subset that breaks it raises.
    """
    k, i = _check_object_indices(w, k, i, "index", "index")
    table = w._tables["oracle"]
    basis = table.get(k - i)
    if basis is None:
        basis = []
        for (J, weight), e in zip(w.subsets, w.exterior_basis) if k >= i else ():
            j = k - i + len(J) - weight
            if j > k - i:
                raise ArithmeticError(
                    f"subset {J} of weight {weight} reaches position {j} "
                    f"of the resolution of the simple at {k - i}")
            if j >= len(J):
                basis.append(e)
        basis = table[k - i] = tuple(basis)
    return BigradedHom._trusted(k, i, basis)
