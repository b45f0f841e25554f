"""Acceptance suite: the eleven top-level criteria, one test each.

Each test checks one criterion end to end; the terminal summary (see
conftest.py) prints one PASS/FAIL line per criterion.  All tolerances are
pinned here as module constants.
"""

import itertools
import random
import time

import pytest

from wpmirror import bisection
from wpmirror.aside import (
    critical_data,
    h_poly_roots,
    hom_space,
    intersections,
    maslov_degree,
)
from wpmirror.bisection import (
    Bisection,
    MarkedPolytope,
    coherence_weights,
    track_splitting,
)
from wpmirror.bside import (
    dual_ext,
    generation_certificate,
    verify_prop6_via_resolution,
)
from wpmirror.verify import hms_certificate
from wpmirror.weights import (
    LatticePolytope,
    Weights,
    graded_dim,
    normalized_volume,
    sheaf_cohomology_dim,
)

L_MAX = 25                  # bound for the full two-weight sweeps
TOL_CRITICAL = 1e-9         # double-root detection at the critical parameters
TOL_SPLIT = 1e-4            # critical-value matching in the bisection tracking
HILBERT_K = 50              # Hilbert-series truncation order
SERRE_RANGE = range(-40, 1) # twist range for the duality symmetry
BUDGET_DIMS = 10.0          # seconds, criterion 1
BUDGET_CRITICAL = 1.0       # seconds, criterion 5
BUDGET_SPLIT = 2.0          # seconds, criterion 9


def weight_pairs(l_max=L_MAX):
    return [Weights((a0, a1))
            for a0 in range(1, l_max)
            for a1 in range(a0, l_max - a0 + 1)]


def weight_vectors(max_size, l_max):
    out = []
    for size in range(1, max_size + 1):
        for a in itertools.combinations_with_replacement(range(1, l_max + 1), size):
            if 2 <= sum(a) <= l_max:
                out.append(Weights(a))
    return out


def test_criterion_01_mirror_dimension_match():
    """Per-degree hom dimensions agree on both sides for every object pair,
    every two-weight vector with l <= 25, exactly and under budget."""
    start = time.perf_counter()
    for w in weight_pairs():
        for j in range(w.l - 1):
            for k in range(j, w.l - 1):
                assert hom_space(w, j, k).dims_by_degree \
                    == dual_ext(w, k, j).dims_by_degree, (w, j, k)
    assert time.perf_counter() - start < BUDGET_DIMS


def test_criterion_02_mirror_composition_match(certificates):
    """The full tables of disc-counted products and truncated-wedge products
    coincide entry by entry (labels and coefficients) for every l <= 25,
    read from each pair's certificate."""
    for w in weight_pairs():
        cert = certificates[w.a]
        assert cert.aside_digest == cert.bside_digest, w


def test_criterion_03_higher_products_vanish(certificates):
    """Word enumeration finds only three-cornered discs, so all products
    beyond the two-fold one vanish, for every l <= 25, read from each
    pair's certificate (its report of the certificate's one enumeration)."""
    for w in weight_pairs():
        cert = certificates[w.a]
        assert cert.higher_products["ok"], (w, cert.failures)


def test_criterion_04_maslov_pipeline_exact():
    """The angle-sum degree evaluates to exactly 0 on arc points and exactly
    1 on segment points: the pi-coefficients cancel identically."""
    for w in weight_pairs():
        for j in range(w.l - 1):
            for k in range(j + 1, w.l - 1):
                for p in intersections(w, j, k):
                    expected = 0 if p.kind.value == "arc" else 1
                    assert maslov_degree(w, p) == expected, (w, j, k, p)


def test_criterion_05_critical_values_and_double_roots():
    """For weights (2,3) the critical values are {4, 4i, -4, -4i} and the
    double-root detector fires exactly at them, within 1e-9, under budget."""
    start = time.perf_counter()
    w = Weights((2, 3))
    values = [c.value for c in critical_data(w)]
    expected = [4 + 0j, 4j, -4 + 0j, -4j]
    assert len(values) == 4
    for want in expected:
        assert min(abs(v - want) for v in values) < TOL_CRITICAL
    for q in values:
        assert h_poly_roots(w, q).near_double_root
    for q in [0.0, 1 + 1j, 4.1, 3.9, -4.2, 4.05j, 2 - 2j]:
        assert not h_poly_roots(w, q).near_double_root
    assert time.perf_counter() - start < BUDGET_CRITICAL


def test_criterion_06_resolution_oracle():
    """The resolution-derived Ext computation agrees with the truncated
    exterior algebra for all object pairs, all vectors with n <= 2, l <= 15."""
    for w in weight_vectors(max_size=3, l_max=15):
        for k in range(w.l - 1):
            for i in range(w.l - 1):
                assert verify_prop6_via_resolution(w, k, i).basis \
                    == dual_ext(w, k, i).basis, (w, k, i)


def test_criterion_07_generation_certificate():
    """Generation bookkeeping passes for all vectors with n <= 3, l <= 15:
    interior summand degrees in [0, l-2], one top summand at l-1."""
    for w in weight_vectors(max_size=4, l_max=15):
        report = generation_certificate(w)
        assert report.passed, (w, report.violations)
        top = [row for row in report.rows
               if row[0] == w.l and len(row[1]) == w.n + 1 and row[2] == w.l - 1]
        assert len(top) == 1, w


def brute_hilbert_counts(w, k_max):
    """Independent oracle: count exponent vectors of each weighted degree by
    direct enumeration."""
    counts = [0] * (k_max + 1)

    def rec(i, total):
        if i > w.n:
            counts[total] += 1
            return
        e = 0
        while total + e * w.a[i] <= k_max:
            rec(i + 1, total + e * w.a[i])
            e += 1

    rec(0, 0)
    return counts


def test_criterion_08_graded_ring_identities():
    """Hilbert-series truncation at K=50 and the duality symmetry
    dim H^n(O(k)) = dim R_{-k-l} on [-40, 0] hold for 20 seeded vectors."""
    rng = random.Random(2024)
    for _ in range(20):
        size = rng.randint(2, 4)
        w = Weights(tuple(rng.randint(1, 6) for _ in range(size)))
        oracle = brute_hilbert_counts(w, HILBERT_K)
        for k in range(HILBERT_K + 1):
            assert graded_dim(w, k) == oracle[k], (w, k)
        for k in SERRE_RANGE:
            assert sheaf_cohomology_dim(w, w.n, k) == graded_dim(w, -k - w.l), (w, k)


def test_criterion_09_bisection_splitting():
    """On the interval {-1,0,1,2} bisected at 1 with seed 42: exactly three
    critical values split 2 + 1 onto the two restrictions within 1e-4, and
    the weight pair is eta=(0,0,0,-1), tau=(-2,-1,0,0), all under budget."""
    start = time.perf_counter()
    b = Bisection(
        MarkedPolytope(LatticePolytope((-1, 1)), ((-1,), (0,), (1,))),
        MarkedPolytope(LatticePolytope((1, 2)), ((1,), (2,))),
    )
    eta, tau = coherence_weights(b)
    assert [eta[p,] for p in (-1, 0, 1, 2)] == [0, 0, 0, -1]
    assert [tau[p,] for p in (-1, 0, 1, 2)] == [-2, -1, 0, 0]
    assert bisection.TOLERANCE == TOL_SPLIT
    report = track_splitting(b, seed=42)
    assert report.ok, report.violations
    assert report.r == 3 and report.m == 2
    assert len(report.targets_cell1) == 1
    assert time.perf_counter() - start < BUDGET_SPLIT


def test_criterion_10_volume_consistency():
    """The normalized volume of Conv{(1,0),(0,1),(a0,a1)} equals l-1 for
    every weight pair with l <= 25, exactly."""
    for a0 in range(1, L_MAX):
        for a1 in range(1, L_MAX - a0 + 1):
            tri = LatticePolytope(((1, 0), (0, 1), (a0, a1)))
            assert normalized_volume(tri) == a0 + a1 - 1, (a0, a1)


def test_criterion_11_mutation_sensitivity():
    """Ten seeded single-constant flips, on either side's product table,
    each force the certificate to fail."""
    rng = random.Random(42)
    clean = hms_certificate(Weights((2, 3)))
    assert clean.passed
    for _ in range(10):
        side = rng.choice(["aside", "bside"])
        idx = rng.randrange(0, 50)
        cert = hms_certificate(Weights((2, 3)), corrupt=(side, idx))
        assert not cert.passed, (side, idx)
        # The failure names the triple of the bumped entry.
        digest = getattr(clean, side + "_digest")
        triple = list(digest)[idx % len(digest)][0]
        assert any(f.startswith(f"composition digests differ at triple {triple}:")
                   for f in cert.failures), (side, idx, cert.failures)
