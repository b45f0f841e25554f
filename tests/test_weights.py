"""Tests for the exact graded-ring and polytope utilities."""

import itertools
import re
from enum import IntEnum

import numpy as np
import pytest

from perfbench.workloads import BSIDE_L, bside_vectors
from wpmirror import weights
from wpmirror.verify import hms_certificate
from wpmirror.weights import (
    ExteriorBasisElement,
    LatticePolytope,
    Monomial,
    Weights,
    graded_dim,
    monomial_basis,
    normalized_volume,
    sheaf_cohomology_dim,
)


def brute_graded_dim(w, k):
    """Independent oracle: enumerate exponent vectors directly."""
    if k < 0:
        return 0
    count = 0
    ranges = [range(k // a + 1) for a in w.a]
    for exps in itertools.product(*ranges):
        if sum(a * e for a, e in zip(w.a, exps)) == k:
            count += 1
    return count


def monomial_basis_reference(w, k):
    """Reference builder: a recursion over the weights that builds every
    suffix anew for each degree, with the validating `Monomial(...)`."""
    if k < 0:
        return []
    out = []

    def rec(i, remaining, prefix):
        if i == w.n:
            if remaining % w.a[i] == 0:
                out.append(Monomial(prefix + (remaining // w.a[i],)))
            return
        for e in range(remaining // w.a[i], -1, -1):
            rec(i + 1, remaining - e * w.a[i], prefix + (e,))

    rec(0, k, ())
    return out


class TestWeights:
    def test_basic_properties(self):
        w = Weights((2, 3))
        assert w.n == 1 and w.l == 5

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            Weights(())
        with pytest.raises(ValueError):
            Weights((1, 0))
        with pytest.raises(ValueError):
            Weights((1, -2))
        # A weight of a non-integer type is refused by name, never truncated.
        for a, bad in [((1.5, 2.7), 1.5), ("12", "1"), ((True, 2), True), ((2, 3.0), 3.0),
                       ((2, None), None), ((2, False), False)]:
            with pytest.raises(ValueError, match=f"^weight={re.escape(repr(bad))} is not an integer$"):
                Weights(a)
        with pytest.raises(ValueError, match="^weight=2.9 is not an integer$"):
            hms_certificate((2.9, 3.2))

    def test_integer_types_taken_as_ints(self):
        class Weight(IntEnum):
            TWO = 2

        w = Weights((np.int64(1), Weight.TWO, np.uint8(3)))
        assert w == Weights((1, 2, 3)) and [type(x) for x in w.a] == [int, int, int]


class TestSubsets:
    @pytest.mark.parametrize("a", [(1,), (2, 3), (1, 2, 3), (2, 2, 5), (3, 1, 4, 1)])
    def test_matches_combinations(self, a):
        w = Weights(a)
        listing = [(J, sum(w.a[x] for x in J))
                   for r in range(w.n + 2) for J in itertools.combinations(range(w.n + 1), r)]
        assert list(w.subsets) == listing
        # One table per object, which dies with it.
        assert w.subsets is w.subsets
        assert Weights(a).subsets is not w.subsets


class TestGradedDim:
    @pytest.mark.parametrize("a", [(1,), (1, 1), (2, 3), (1, 2, 3), (2, 2, 5)])
    def test_matches_brute_force(self, a):
        w = Weights(a)
        for k in range(-2, 30):
            assert graded_dim(w, k) == brute_graded_dim(w, k), (a, k)

    def test_standard_projective_line(self):
        w = Weights((1, 1))
        for k in range(10):
            assert graded_dim(w, k) == k + 1

    def test_negative_degree_is_zero(self):
        assert graded_dim(Weights((2, 3)), -1) == 0


class TestMonomialBasis:
    def test_fixed_order_example(self):
        w = Weights((2, 3))
        basis = monomial_basis(w, 6)
        assert [m.exponents for m in basis] == [(3, 0), (0, 2)]

    @pytest.mark.parametrize("a,k", [((2, 3), 12), ((1, 2, 3), 9), ((1, 1), 5)])
    def test_counts_and_degrees(self, a, k):
        w = Weights(a)
        basis = monomial_basis(w, k)
        assert len(basis) == graded_dim(w, k)
        assert all(sum(a * e for a, e in zip(w.a, m.exponents)) == k for m in basis)
        assert len(set(basis)) == len(basis)

    @pytest.mark.parametrize(
        "a", bside_vectors(BSIDE_L) + [(3, 1, 4, 1, 5), (1, 1, 1, 1, 1, 1), (7,), (2, 3)])
    def test_matches_reference(self, a):
        w = Weights(a)
        for k in range(w.l):
            basis = monomial_basis(w, k)
            assert [m.exponents for m in basis] \
                == [m.exponents for m in monomial_basis_reference(w, k)], (a, k)
            # Built without validation, so pin what validation would check.
            assert all(type(e) is int and e >= 0 for m in basis for e in m.exponents), (a, k)

    def test_built_once_per_degree(self, monkeypatch):
        # Each monomial comes from the trusted constructor, so counting its
        # calls counts the monomials built.
        built = []
        real = weights.Monomial._trusted

        def counting_trusted(exponents):
            built.append(exponents)
            return real(exponents)

        monkeypatch.setattr(weights.Monomial, "_trusted", staticmethod(counting_trusted))
        w = Weights((1, 2, 3))
        basis = monomial_basis(w, 7)
        count = len(built)
        assert count == graded_dim(w, 7)
        basis.append(None)  # each caller gets a list of its own
        again = monomial_basis(w, 7)
        assert again == basis[:-1]
        assert len(built) == count
        assert all(x is y for x, y in zip(again, basis))
        # A new object builds its own basis.
        fresh = monomial_basis(Weights((1, 2, 3)), 7)
        assert fresh == again
        assert not any(x is y for x, y in zip(fresh, again))
        assert len(built) == 2 * count

    def test_suffix_table_built_once(self, monkeypatch):
        # Each degree's tuples are joined once, and every suffix row below
        # it (s >= 1) is built on its first call only, however many
        # degrees reach it; the whole ring's rows are not kept.
        built = []
        real = weights._exponents

        def counting_exponents(w, s, d):
            built.append((s, d))
            return real(w, s, d)

        monkeypatch.setattr(weights, "_exponents", counting_exponents)
        w = Weights((1, 1, 1, 1, 1, 1))
        for k in range(w.l):
            monomial_basis(w, k)
        suffixes = {(s, d) for s in range(1, 6) for d in range(w.l)}
        assert len(built) == len(set(built))
        assert set(built) == {(0, d) for d in range(w.l)} | suffixes
        assert set(w._tables["suffixes"]) == suffixes

    def test_public_constructor_still_validates(self):
        m = Monomial((np.int64(2), 1))
        assert m.exponents == (2, 1) and [type(e) for e in m.exponents] == [int, int]
        with pytest.raises(ValueError):
            Monomial((1, -1))

    @pytest.mark.parametrize("bad", [1.5, 2.0, True, "1", None])
    def test_non_integer_exponent_refused(self, bad):
        # Never truncated: Monomial((1.5, 2)) was Monomial((1, 2)).
        with pytest.raises(ValueError, match=f"^exponent={re.escape(repr(bad))} is not an integer$"):
            Monomial((bad, 2))

    def test_leading_exponent_descending(self):
        w = Weights((1, 1))
        exps = [m.exponents[0] for m in monomial_basis(w, 4)]
        assert exps == sorted(exps, reverse=True)


class TestSheafCohomology:
    def test_global_sections(self):
        w = Weights((2, 3))
        assert sheaf_cohomology_dim(w, 0, 6) == graded_dim(w, 6)
        assert sheaf_cohomology_dim(w, 0, -1) == 0

    def test_top_cohomology(self):
        w = Weights((2, 3))
        assert sheaf_cohomology_dim(w, 1, -5) == graded_dim(w, 0)
        assert sheaf_cohomology_dim(w, 1, -8) == graded_dim(w, 3)
        assert sheaf_cohomology_dim(w, 1, -4) == 0

    def test_serre_symmetry(self):
        for a in [(1, 1), (2, 3), (1, 2, 3)]:
            w = Weights(a)
            for k in range(-40, 1):
                assert sheaf_cohomology_dim(w, w.n, k) == graded_dim(w, -k - w.l)

    def test_out_of_range_degree(self):
        with pytest.raises(ValueError):
            sheaf_cohomology_dim(Weights((2, 3)), 2, 0)


class TestExteriorBasis:
    def test_element_invariants(self):
        e = ExteriorBasisElement((1, 0))
        assert e.subset == (0, 1) and len(e.subset) == 2
        with pytest.raises(ValueError):
            ExteriorBasisElement((0, 0))

    @pytest.mark.parametrize("bad", [0.7, True, "1", None])
    def test_non_integer_index_refused(self, bad):
        # Never truncated: ExteriorBasisElement((0.7, True)) had subset (0, 1).
        with pytest.raises(ValueError,
                           match=f"^subset index={re.escape(repr(bad))} is not an integer$"):
            ExteriorBasisElement((2, bad))


class TestNormalizedVolume:
    def test_interval(self):
        assert normalized_volume(LatticePolytope((0, 3))) == 3
        assert normalized_volume(LatticePolytope((-1, 2))) == 3

    def test_embedded_interval(self):
        p = LatticePolytope(((0, 0), (2, 4)))
        assert normalized_volume(p) == 2  # lattice length of (2,4)

    def test_triangle(self):
        p = LatticePolytope(((0, 0), (1, 0), (0, 1)))
        assert normalized_volume(p) == 1

    def test_blowup_triangle_formula(self):
        for a0 in range(1, 13):
            for a1 in range(a0, 25 - a0 + 1):
                p = LatticePolytope(((1, 0), (0, 1), (a0, a1)))
                assert normalized_volume(p) == a0 + a1 - 1

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            normalized_volume(LatticePolytope(((1, 1), (1, 1))))

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            LatticePolytope(((0, 0, 0), (1, 1, 1)))

    @pytest.mark.parametrize("vertices, bad", [(((0.5, 1.9), (2, 3)), 0.5), ((True, 3), True),
                                               ((0, 3.0), 3.0), (((0, 0), (1, "1")), "1")])
    def test_non_integer_vertex_refused(self, vertices, bad):
        # Never truncated: ((0.5, 1.9), (2, 3)) had vertices ((0, 1), (2, 3)).
        with pytest.raises(ValueError, match=f"^coordinate={re.escape(repr(bad))} is not an integer$"):
            LatticePolytope(vertices)
