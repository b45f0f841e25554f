"""Tests for the critical data and the auxiliary one-variable polynomial."""

import cmath
import json
from fractions import Fraction
from pathlib import Path

import pytest

from wpmirror.aside.potential import critical_data, h_poly_roots, monodromy_data
from wpmirror.weights import Weights

# The inputs, for the pair (1, l - 1), at which solving h_q with its l^l
# coefficients in floats gave the wrong flag or failed.
DEFECTS = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "numeric-defects.json"


def recorded_defects():
    with open(DEFECTS) as fh:
        failures = json.load(fh)["failures"]
    cases = [f for f in failures if f["l"] in (34, 50, 60)]
    cases += [f for f in failures if f["l"] == 144][::20]
    return [pytest.param(f["l"], Fraction(f["modulus"]), Fraction(f["angle"]),
                         id=f"{f['kind']}-l{f['l']}-{f['modulus']}-{f['angle']}")
            for f in cases]


class TestCriticalData:
    def test_blowup_2_3_values(self):
        w = Weights((2, 3))
        values = sorted((c.value for c in critical_data(w)),
                        key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        expected = sorted([4 + 0j, 4j, -4 + 0j, -4j],
                          key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        for got, want in zip(values, expected):
            assert abs(got - want) < 1e-12

    def test_polar_data_exact(self):
        w = Weights((2, 3))
        data = critical_data(w)
        assert [c.modulus for c in data] == [4, 4, 4, 4]
        assert [c.angle for c in data] == [Fraction(0), Fraction(1, 2),
                                           Fraction(1), Fraction(3, 2)]

    def test_count_is_l_minus_1(self):
        for a in [(1, 2), (3, 4), (2, 5)]:
            w = Weights(a)
            data = critical_data(w)
            assert len(data) == w.l - 1
            # they are the (l-1)-st roots of (l-1)^l / ... : pairwise distinct
            vals = [c.value for c in data]
            for i, u in enumerate(vals):
                for v in vals[i + 1:]:
                    assert abs(u - v) > 1e-9


class TestHPolyRoots:
    def test_root_count(self):
        w = Weights((2, 3))
        rep = h_poly_roots(w, 0.5 + 0.5j)
        assert len(rep.roots) == w.l

    def test_double_root_fires_at_critical_parameters(self):
        w = Weights((2, 3))
        for c in critical_data(w):
            assert h_poly_roots(w, c.value).near_double_root

    def test_no_false_positive_away_from_critical(self):
        w = Weights((2, 3))
        for q in [0.0, 1.0 + 1.0j, -2.5, 3.9 + 0.3j, 10j]:
            assert not h_poly_roots(w, q).near_double_root

    def test_roots_satisfy_polynomial(self):
        w = Weights((2, 3))
        l = w.l
        rep = h_poly_roots(w, 1.25)
        for z in rep.roots:
            assert abs(z ** l - l ** l * z + l ** l * 1.25) < 1e-6 * max(1.0, abs(z) ** l)

    @pytest.mark.parametrize("l, modulus, angle", recorded_defects())
    def test_recorded_defects_exact(self, l, modulus, angle):
        # h_q has a double root exactly when q^(l-1) = (l-1)^(l-1), that is
        # q = (l-1) e^(i pi angle) with (l-1) * angle even.
        rep = h_poly_roots(Weights((1, l - 1)), modulus * cmath.exp(1j * cmath.pi * float(angle)))
        assert len(rep.roots) == l
        assert rep.near_double_root == (modulus == l - 1 and angle * (l - 1) % 2 == 0)


class TestMonodromy:
    def test_winding_data(self):
        w = Weights((2, 3))
        data = monodromy_data(w)
        assert data == {"around_100": 2, "around_010": -3,
                        "branch_ramification": 4}

    @pytest.mark.parametrize("a", [(1, 1), (2, 3), (3, 8)])
    def test_congruence_holds(self, a):
        w = Weights(a)
        data = monodromy_data(w)
        assert (data["around_100"] - (1 - (-data["around_010"]))) % (w.l - 1) == 0
