"""Tests for the derived-category side: quiver Ext spaces, the dual
exterior algebra, resolutions, and the generation certificate."""

import itertools
from fractions import Fraction

import pytest

from wpmirror import bside
from wpmirror.bside import (
    DualElement,
    cm_sequence,
    compose_dual,
    dual_ext,
    ext_pushforward,
    generation_certificate,
    resolution_by_projective,
    resolution_summands,
    verify_prop6_via_resolution,
)
from wpmirror.weights import ExteriorBasisElement, Weights, graded_dim


def brute_dual_dims(w, k, i):
    """Independent oracle: count index subsets by total weight directly."""
    if k < i:
        return {}
    dims = {}
    for r in range(w.n + 2):
        for J in itertools.combinations(range(w.n + 1), r):
            if sum(w.a[x] for x in J) <= k - i:
                dims[r] = dims.get(r, 0) + 1
    return dims


class TestExtPushforward:
    @pytest.mark.parametrize("a", [(1, 1), (2, 3), (1, 2, 3)])
    def test_dims_follow_graded_pieces(self, a):
        w = Weights(a)
        for j in range(w.l - 1):
            for k in range(w.l - 1):
                hom = ext_pushforward(w, j, k)
                if k < j:
                    assert hom.total_dim == 0  # semi-orthogonality
                else:
                    assert hom.dim(0) == graded_dim(w, k - j)
                    assert hom.dim(1) == graded_dim(w, k - j - 1)

    def test_endomorphisms_scalar(self):
        w = Weights((2, 3))
        for j in range(w.l - 1):
            assert ext_pushforward(w, j, j).dims_by_degree == {0: 1}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ext_pushforward(Weights((2, 3)), 0, 4)


class TestDualExt:
    @pytest.mark.parametrize("a", [(1, 1), (2, 3), (1, 4), (1, 2, 3), (2, 2, 5)])
    def test_dims_match_brute_force(self, a):
        w = Weights(a)
        for k in range(w.l - 1):
            for i in range(w.l - 1):
                assert dual_ext(w, k, i).dims_by_degree == brute_dual_dims(w, k, i)

    def test_truncation_example(self):
        w = Weights((2, 3))
        # gap 3 admits e0 (weight 2) and e1 (weight 3) but not e01 (weight 5)
        labels = [lab.subset for _, lab in dual_ext(w, 3, 0).basis]
        assert labels == [(), (0,), (1,)]

    def test_directedness(self):
        w = Weights((2, 3))
        assert dual_ext(w, 0, 3).total_dim == 0


class TestComposeDual:
    def test_unit_composition(self):
        w = Weights((2, 3))
        u = DualElement(3, 0, ExteriorBasisElement((0,)))
        v = DualElement(3, 3, ExteriorBasisElement(()))
        out = compose_dual(w, u, v)
        assert out.label.subset == (0,) and out.coefficient == 1

    def test_weight_truncation_kills(self):
        w = Weights((2, 3))
        # e0 * e1 has weight 5 > 4, the largest available gap
        u = DualElement(3, 1, ExteriorBasisElement((0,)))
        v = DualElement(4, 3, ExteriorBasisElement((1,)))
        assert compose_dual(w, u, v) is None

    def test_weight_truncation_bound(self):
        # e0 after e1 over span 2: weight 5 > 2 for (2, 3) is cut, while
        # weight 2 = 2 for (1, 1, 2) is kept.
        u, v = (DualElement(1, 0, ExteriorBasisElement((0,))),
                DualElement(2, 1, ExteriorBasisElement((1,))))
        assert compose_dual(Weights((2, 3)), u, v) is None
        out = compose_dual(Weights((1, 1, 2)), u, v)
        assert (out.source, out.target) == (2, 0)
        assert out.label.subset == (0, 1) and out.coefficient == 1

    def test_overlap_kills(self):
        w = Weights((1, 1, 3))
        u = DualElement(2, 1, ExteriorBasisElement((0,)))
        v = DualElement(3, 2, ExteriorBasisElement((0,)))
        assert compose_dual(w, u, v) is None

    def test_anticommutation_sign(self):
        w = Weights((1, 1, 3))
        # e1 after e0 vs e0 after e1 between the same simples
        a = compose_dual(w, DualElement(1, 0, ExteriorBasisElement((1,))),
                         DualElement(2, 1, ExteriorBasisElement((0,))))
        b = compose_dual(w, DualElement(1, 0, ExteriorBasisElement((0,))),
                         DualElement(2, 1, ExteriorBasisElement((1,))))
        assert a.label == b.label
        assert a.coefficient == -b.coefficient

    def test_associativity_sample(self):
        w = Weights((1, 1, 1, 2))
        x = DualElement(4, 3, ExteriorBasisElement((0,)), Fraction(1))
        y = DualElement(3, 2, ExteriorBasisElement((1,)), Fraction(1))
        z = DualElement(2, 0, ExteriorBasisElement((2,)), Fraction(1))

        def comp(u, v):
            return compose_dual(w, u, v)

        lhs = comp(comp(z, y), x)
        rhs = comp(z, comp(y, x))
        assert lhs is not None and rhs is not None
        assert lhs.label == rhs.label and lhs.coefficient == rhs.coefficient


class TestCmSequence:
    def test_greedy_fill(self):
        w = Weights((2, 3))
        assert cm_sequence(w, 0) == (0, 0)
        assert cm_sequence(w, 1) == (1, 0)
        assert cm_sequence(w, 2) == (2, 0)
        assert cm_sequence(w, 3) == (2, 1)
        assert cm_sequence(w, 5) == (2, 3)

    def test_bounds(self):
        with pytest.raises(ValueError):
            cm_sequence(Weights((2, 3)), 6)


class TestGenerationCertificate:
    @pytest.mark.parametrize("a", [(1, 1), (2, 3), (1, 2, 3), (1, 1, 2, 3)])
    def test_passes(self, a):
        assert generation_certificate(Weights(a)).passed

    def test_final_step_top_degree(self):
        w = Weights((2, 3))
        report = generation_certificate(w)
        top = [row for row in report.rows
               if row[0] == w.l and len(row[1]) == w.n + 1]
        assert len(top) == 1 and top[0][2] == w.l - 1


class TestResolution:
    def test_default_positions(self):
        w = Weights((2, 3))
        summands = resolution_summands(w, 3)
        positions = {s.homological_position for s in summands}
        assert positions <= set(range(w.n + 1))

    def test_negative_indices_pruned(self):
        w = Weights((2, 3))
        for s in resolution_summands(w, 0, positions=range(6)):
            assert s.projective_index >= 0

    @pytest.mark.parametrize("a", [
        a for n in (3, 4)
        for a in itertools.combinations_with_replacement(range(1, 11), n)
        if sum(a) <= 10])
    def test_oracle_agrees_with_dual_ext_three_and_four_weights(self, a):
        w = Weights(a)
        for k in range(w.l - 1):
            for i in range(w.l - 1):
                assert verify_prop6_via_resolution(w, k, i).basis \
                    == dual_ext(w, k, i).basis

    def test_one_scan_serves_every_target(self):
        w = Weights((1, 2, 3))
        for k in range(w.l - 1):
            by_target = resolution_by_projective(w, k)
            assert len(by_target) == w.l - 1
            for i, hom in enumerate(by_target):
                assert (hom.source, hom.target) == (k, i)
                assert hom == verify_prop6_via_resolution(w, k, i)

    @pytest.mark.parametrize("a", [(2, 3), (1, 2, 3), (1, 1, 2, 3)])
    def test_one_label_per_subset(self, monkeypatch, a):
        built = []
        real_element = bside.ExteriorBasisElement

        def counting_element(subset):
            built.append(subset)
            return real_element(subset)

        monkeypatch.setattr(bside, "ExteriorBasisElement", counting_element)
        w = Weights(a)
        for k in range(w.l - 1):
            built.clear()
            resolution_by_projective(w, k)
            assert len(built) <= 2 ** (w.n + 1)
            assert len(built) == len(set(built))

    @pytest.mark.parametrize("a", [(2, 3), (1, 4), (1, 2, 3), (2, 2, 5), (1, 1)])
    def test_oracle_agrees_with_dual_ext(self, a):
        w = Weights(a)
        for k in range(w.l - 1):
            for i in range(w.l - 1):
                assert verify_prop6_via_resolution(w, k, i).basis \
                    == dual_ext(w, k, i).basis
