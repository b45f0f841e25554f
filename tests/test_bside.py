"""Tests for the derived-category side: quiver Ext spaces, the dual
exterior algebra, resolutions, and the generation certificate."""

import dataclasses
import enum
import itertools

import numpy as np
import pytest

from perfbench.workloads import BSIDE_L, bside_hash, bside_pass, bside_vectors, load
from wpmirror import bside, weights
from wpmirror.aside import strip
from wpmirror.bside import (
    BigradedHom,
    cm_sequence,
    compose_dual,
    dual_ext,
    ext_pushforward,
    generation_certificate,
    resolution_summands,
    verify_prop6_via_resolution,
)
from wpmirror.weights import ExteriorBasisElement, Weights, graded_dim, monomial_basis

THREE_AND_FOUR_WEIGHTS_L10 = [
    a for n in (3, 4)
    for a in itertools.combinations_with_replacement(range(1, 11), n)
    if sum(a) <= 10]


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
                    assert hom.basis == ()  # semi-orthogonality
                else:
                    dims = hom.dims_by_degree
                    assert dims.get(0, 0) == graded_dim(w, k - j)
                    assert dims.get(1, 0) == graded_dim(w, k - j - 1)

    def test_endomorphisms_scalar(self):
        w = Weights((2, 3))
        for j in range(w.l - 1):
            assert ext_pushforward(w, j, j).dims_by_degree == {0: 1}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ext_pushforward(Weights((2, 3)), 0, 4)


def table_keys_are_ints(w):
    """Every key of every `Weights._tables` table is an int or a tuple of
    ints."""
    keys = [key for table in w._tables.values() for key in table]
    return all(type(x) is int for key in keys
               for x in (key if type(key) is tuple else (key,)))


class TestObjectIndices:
    """Each hom space checks its two object indices: an integer other than
    a bool is taken as an int, any other index is refused by name, and an
    int outside [0, l - 2] keeps the range message."""

    HOMS = [(ext_pushforward, ("source", "target")), (dual_ext, ("source", "target")),
            (verify_prop6_via_resolution, ("index", "index"))]

    @pytest.mark.parametrize("hom,names", HOMS)
    @pytest.mark.parametrize("bad", [1.5, 1.0, True, False, "a", None])
    def test_non_int_refused_by_name(self, hom, names, bad):
        w = Weights((2, 3))
        for args, name in (((bad, 0), names[0]), ((0, bad), names[1]), ((bad, bad), names[0])):
            with pytest.raises(ValueError, match=f"^{name}={bad!r} is not an integer"):
                hom(w, *args)
        bside_pass(w)
        assert all(w._tables[name] for name in ("suffixes", "monomials", "ext", "dual", "oracle"))
        assert table_keys_are_ints(w)

    def test_resolution_summands_refuses_non_int(self):
        w = Weights((2, 3))
        for bad in (1.5, 2.0, True, "a"):
            with pytest.raises(ValueError, match=f"^index={bad!r} is not an integer"):
                resolution_summands(w, bad)

    @pytest.mark.parametrize("hom,names", HOMS)
    def test_out_of_range_messages(self, hom, names):
        w = Weights((2, 3))
        source, target = names
        cases = [((-1, 0), f"{source}=-1 outside the object range [0, 3]"),
                 ((4, 0), f"{source}=4 outside the object range [0, 3]"),
                 ((0, -1), f"{target}=-1 outside the object range [0, 3]"),
                 ((0, 4), f"{target}=4 outside the object range [0, 3]"),
                 ((9, "a"), f"{source}=9 outside the object range [0, 3]"),
                 ((0.5, 9), f"{source}=0.5 is not an integer object index")]
        for args, message in cases:
            with pytest.raises(ValueError) as caught:
                hom(w, *args)
            assert str(caught.value) == message, args
        with pytest.raises(ValueError, match=r"^index=4 outside the object range \[0, 3\]$"):
            resolution_summands(w, 4)

    @pytest.mark.parametrize("hom,names", HOMS)
    def test_integer_types_taken_as_int(self, hom, names):
        class Index(enum.IntEnum):
            ONE = 1
            THREE = 3

        w = Weights((2, 3))
        for k, i in ((np.int64(3), np.int64(1)), (Index.THREE, Index.ONE), (3, np.int8(1))):
            got = hom(w, k, i)
            assert got == hom(w, 3, 1)
            assert type(got.source) is int and type(got.target) is int
        assert resolution_summands(w, np.int64(2)) == resolution_summands(w, 2)
        assert resolution_summands(w, Index.THREE) == resolution_summands(w, 3)
        assert table_keys_are_ints(w)


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
        assert dual_ext(w, 0, 3).basis == ()

    def test_depends_on_span_only(self):
        # The basis from k to i, degrees and labels, is the basis of the
        # span k - i, which the certificate builds once per signed span.
        pairs = [(a0, a1) for a0 in range(1, 12) for a1 in range(a0, 13 - a0)]
        for a in pairs + THREE_AND_FOUR_WEIGHTS_L10:
            w = Weights(a)
            for k in range(w.l - 1):
                for i in range(w.l - 1):
                    span = k - i
                    assert dual_ext(w, k, i).basis == \
                        dual_ext(w, max(span, 0), max(-span, 0)).basis, (a, k, i)


class TestSharedTables:
    """The bases that depend only on a gap or a span are built once per
    `Weights` object and shared by every call on it."""

    @pytest.mark.parametrize("a", [(2, 3), (1, 2, 3), (2, 3, 4, 1)])
    def test_one_basis_per_span_and_gap(self, a):
        w = Weights(a)
        for k in range(w.l - 2):
            for i in range(w.l - 2):
                assert dual_ext(w, k, i).basis is dual_ext(w, k + 1, i + 1).basis
                assert verify_prop6_via_resolution(w, k, i).basis \
                    is verify_prop6_via_resolution(w, k + 1, i + 1).basis
                assert ext_pushforward(w, i, k).basis is ext_pushforward(w, i + 1, k + 1).basis

    def test_fresh_weights_fresh_tables(self):
        w, v = Weights((2, 3, 4, 1)), Weights((2, 3, 4, 1))
        assert w.exterior_basis == v.exterior_basis
        assert w.exterior_basis is not v.exterior_basis
        for hom, args in ((dual_ext, (5, 1)), (ext_pushforward, (1, 5))):
            assert hom(w, *args).basis == hom(v, *args).basis
            assert hom(w, *args).basis is not hom(v, *args).basis

    def test_monomial_basis_returns_a_new_list(self):
        w = Weights((2, 3, 4, 1))
        first = monomial_basis(w, 6)
        first.clear()
        assert monomial_basis(w, 6) is not monomial_basis(w, 6)
        assert monomial_basis(w, 6) == [m for d, m in ext_pushforward(w, 0, 6).basis if d == 0]
        assert len(monomial_basis(w, 6)) == graded_dim(w, 6)


class TestFastConstructors:
    """The producers build each hom space through `BigradedHom._trusted`,
    and the dual basis through `ExteriorBasisElement._trusted`; what they
    make is what the public constructors make."""

    @staticmethod
    def every_hom(w):
        objects = range(w.l - 1)
        producers = [ext_pushforward, dual_ext, verify_prop6_via_resolution]
        if w.n == 1:
            producers.append(strip.hom_space)
        return [hom(w, j, k) for hom in producers for j in objects for k in objects]

    @pytest.mark.parametrize("a", [(2, 3), (1, 2, 3), (2, 3, 4, 1)])
    def test_same_as_public_constructor(self, a):
        homs = self.every_hom(Weights(a))
        assert len(homs) == (4 if len(a) == 2 else 3) * (sum(a) - 1) ** 2
        for h in homs:
            public = BigradedHom(h.source, h.target, h.basis)
            assert type(h) is BigradedHom
            assert h == public and hash(h) == hash(public) and repr(h) == repr(public)
            assert h.dims_by_degree == public.dims_by_degree

    def test_frozen_slotted_and_replaceable(self):
        h = dual_ext(Weights((2, 3, 4, 1)), 5, 1)
        assert not hasattr(h, "__dict__")
        for name, value in (("source", 0), ("target", 0), ("basis", ())):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(h, name, value)
        with pytest.raises((dataclasses.FrozenInstanceError, AttributeError, TypeError)):
            h.extra = 1
        shorter = dataclasses.replace(h, basis=h.basis[:-1])
        assert shorter == BigradedHom(5, 1, h.basis[:-1]) and shorter != h
        assert dataclasses.replace(h) == h

    @pytest.mark.parametrize("a", [(2, 3), (1, 2, 3), (2, 3, 4, 1), (1,) * 6])
    def test_exterior_labels_same_as_public_constructor(self, a):
        w = Weights(a)
        assert len(w.exterior_basis) == 2 ** len(a)
        for (J, _), (size, e) in zip(w.subsets, w.exterior_basis):
            public = ExteriorBasisElement(J)
            assert size == len(J)
            assert e == public and hash(e) == hash(public) and repr(e) == repr(public)
            assert type(e.subset) is tuple


class TestComposeDual:
    # compose_dual(w, span, ju, jv) is e_ju after e_jv over span = k - i.
    def test_unit_composition(self):
        w = Weights((2, 3))
        # e0: 3 -> 0 after the identity e(): 3 -> 3
        assert compose_dual(w, 3, (0,), ()) == ((0,), 1)

    def test_weight_truncation_kills(self):
        w = Weights((2, 3))
        # e0: 3 -> 1 after e1: 4 -> 3; e0 ^ e1 has weight 5 > 3
        assert compose_dual(w, 3, (0,), (1,)) is None

    def test_weight_truncation_bound(self):
        # e0: 1 -> 0 after e1: 2 -> 1, over span 2: weight 5 > 2 for (2, 3)
        # is cut, while weight 2 = 2 for (1, 1, 2) is kept.
        assert compose_dual(Weights((2, 3)), 2, (0,), (1,)) is None
        assert compose_dual(Weights((1, 1, 2)), 2, (0,), (1,)) == ((0, 1), 1)

    def test_overlap_kills(self):
        w = Weights((1, 1, 3))
        # e0: 2 -> 1 after e0: 3 -> 2
        assert compose_dual(w, 2, (0,), (0,)) is None

    def test_anticommutation_sign(self):
        w = Weights((1, 1, 3))
        # e1 after e0 vs e0 after e1 between the same simples
        a = compose_dual(w, 2, (1,), (0,))
        b = compose_dual(w, 2, (0,), (1,))
        assert a[0] == b[0] == (0, 1)
        assert a[1] == -b[1]

    def test_associativity_sample(self):
        w = Weights((1, 1, 1, 2))
        # x = e0: 4 -> 3, y = e1: 3 -> 2, z = e2: 2 -> 0, as
        # (source, target, subset, coefficient)
        x, y, z = (4, 3, (0,), 1), (3, 2, (1,), 1), (2, 0, (2,), 1)

        def comp(u, v):
            prod = compose_dual(w, v[0] - u[1], u[2], v[2])
            assert prod is not None
            return (v[0], u[1], prod[0], prod[1] * u[3] * v[3])

        # e2 ^ e1 ^ e0 reverses three indices: sign -1 either way round.
        assert comp(comp(z, y), x) == comp(z, comp(y, x)) == (4, 0, (0, 1, 2), -1)


def compose_dual_reference(w, span, ju, jv):
    """Reference for compose_dual: the wedge e_ju ^ e_jv as the word ju + jv
    sorted by adjacent swaps, each swap flipping the sign; zero on a
    repeated index or a weight past the span."""
    word = list(ju + jv)
    if len(set(word)) < len(word) or sum(w.a[x] for x in word) > span:
        return None
    sign = 1
    for end in range(len(word) - 1, 0, -1):
        for p in range(end):
            if word[p] > word[p + 1]:
                word[p], word[p + 1] = word[p + 1], word[p]
                sign = -sign
    return tuple(word), sign


@pytest.mark.parametrize("a", [(1, 2, 3), (2, 3, 4, 1), (1,) * 6])
def test_compose_dual_matches_reference_on_every_pair_and_span(a):
    # Every ordered subset pair at every span in [0, l - 2], sign included.
    w = Weights(a)
    subsets = [J for J, _ in w.subsets]
    signs = set()
    for span in range(w.l - 1):
        for ju in subsets:
            for jv in subsets:
                got = compose_dual(w, span, ju, jv)
                assert got == compose_dual_reference(w, span, ju, jv), (span, ju, jv)
                if got is not None:
                    assert type(got[0]) is tuple
                    signs.add(got[1])
    assert signs == {1, -1}


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


def generation_certificate_reference(w):
    """Reference for generation_certificate: its loop before each c_m was
    computed once, taking c_(m-1) and c_m afresh at every step and each
    summand degree from a generator.  It reads `bside.cm_sequence` at call
    time, so a patch of that name reaches both."""
    report = bside.GenerationReport()
    l = w.l
    if bside.cm_sequence(w, 0) != (0,) * (w.n + 1):
        report.violations.append("c_0 is not the zero vector")
    for m in range(1, l + 1):
        prev = bside.cm_sequence(w, m - 1)
        cur = bside.cm_sequence(w, m)
        diff = tuple(a - b for a, b in zip(cur, prev))
        if sorted(diff) != [0] * w.n + [1]:
            report.violations.append(f"step {m}: c_m - c_(m-1) = {diff} not a basis vector")
        for J, _ in w.subsets:
            degree = sum(prev[j] for j in J)
            if m < l:
                ok = 0 <= degree <= l - 2
            elif len(J) <= w.n:
                ok = 0 <= degree <= l - 1
            else:
                ok = degree == l - 1
            report.rows.append((m, J, degree, ok))
            if not ok:
                report.violations.append(f"step {m}, J={J}: summand degree {degree}")
    return report


GENERATION_VECTORS = bside_vectors(BSIDE_L) + [(1,), (7,), (1,) * 6]


def assert_same_report(got, want, a):
    assert got.rows == want.rows, a
    assert got.violations == want.violations, a
    assert got.passed == want.passed, a


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

    def test_matches_reference(self):
        # The benchmark's bside-multi vectors, one weight and six.
        assert len(GENERATION_VECTORS) == 226
        for a in GENERATION_VECTORS:
            w = Weights(a)
            report = generation_certificate(w)
            assert report.passed
            assert_same_report(report, generation_certificate_reference(w), a)

    @pytest.mark.parametrize("a", [(2, 3), (1, 2, 3), (2, 3, 4, 1), (1,), (7,), (1,) * 6])
    def test_broken_steps_match_reference(self, monkeypatch, a):
        # c_0 and one middle c_m (c_0 again for l = 1) pushed one step too
        # far along coordinate 0: the zero check and the basis-vector steps
        # next to them fail, with any summand degree pushed out of range,
        # in the reference's order.
        real = bside.cm_sequence
        w = Weights(a)
        middle = w.l // 2

        def broken(w, m):
            c = real(w, m)
            return (c[0] + 1,) + c[1:] if m in (0, middle) else c

        monkeypatch.setattr(bside, "cm_sequence", broken)
        report = generation_certificate(w)
        assert report.violations[0] == "c_0 is not the zero vector"
        assert any(v.endswith("not a basis vector") for v in report.violations)
        assert not report.passed
        assert_same_report(report, generation_certificate_reference(w), a)

    def test_each_c_m_computed_once(self, monkeypatch):
        real = bside.cm_sequence
        seen = []

        def counting(w, m):
            seen.append(m)
            return real(w, m)

        monkeypatch.setattr(bside, "cm_sequence", counting)
        w = Weights((2, 3, 4, 1))
        assert generation_certificate(w).passed
        assert seen == list(range(w.l + 1))


def full_resolution_by_projective(w, k):
    """The resolution of the simple at k at every position 0..k, built
    summand by summand and grouped by projective index: entry i lists the
    (degree, subset) labels of the P_i summands in basis order."""
    subsets = [J for r in range(w.n + 2)
               for J in itertools.combinations(range(w.n + 1), r)]
    groups = [[] for _ in range(w.l - 1)]
    for j in range(k + 1):
        for J in subsets:
            i = k - j + len(J) - sum(w.a[x] for x in J)
            if len(J) <= j and i >= 0:
                groups[i].append((len(J), J))
    return [sorted(group) for group in groups]


def resolution_oracle_reference(w, k, i):
    """Reference for verify_prop6_via_resolution: one scan of every subset
    per call, with the whole bound |J| <= j <= k on J's position j."""
    basis = []
    for (J, weight), e in zip(w.subsets, w.exterior_basis):
        j = k - i + len(J) - weight
        if len(J) <= j <= k:
            basis.append(e)
    return tuple(basis)


class TestResolution:
    def test_default_positions(self):
        w = Weights((2, 3))
        summands = resolution_summands(w, 3)
        positions = {j for j, _, _, _ in summands}
        assert positions <= set(range(w.n + 1))

    def test_negative_indices_pruned(self):
        w = Weights((2, 3))
        for _, i, _, _ in resolution_summands(w, 0):
            assert i >= 0

    @pytest.mark.parametrize("a", THREE_AND_FOUR_WEIGHTS_L10)
    def test_oracle_agrees_with_dual_ext_three_and_four_weights(self, a):
        w = Weights(a)
        for k in range(w.l - 1):
            for i in range(w.l - 1):
                assert verify_prop6_via_resolution(w, k, i).basis \
                    == dual_ext(w, k, i).basis

    def test_matches_full_resolution(self):
        for a in THREE_AND_FOUR_WEIGHTS_L10:
            w = Weights(a)
            for k in range(w.l - 1):
                full = full_resolution_by_projective(w, k)
                for i in range(w.l - 1):
                    hom = verify_prop6_via_resolution(w, k, i)
                    assert (hom.source, hom.target) == (k, i)
                    assert [(d, lab.subset) for d, lab in hom.basis] == full[i], (a, k, i)

    @pytest.mark.parametrize("a", [(2, 3), (1, 4), (1, 2, 3), (1, 1, 2, 3)])
    def test_one_label_per_subset(self, monkeypatch, a):
        # Across every (k, i) of dual_ext and of the oracle on one Weights,
        # and for two weights every pair of the strip model's intersections
        # and hom_space, each e_J is built at most once, and all of them
        # hand out those objects.  A build is counted on either path: the
        # public constructor (its __post_init__) and the trusted one.
        built = []
        element = weights.ExteriorBasisElement
        real_trusted = element._trusted.__func__
        real_post_init = element.__post_init__

        def counting_trusted(cls, subset):
            built.append(subset)
            return real_trusted(cls, subset)

        def counting_post_init(self):
            real_post_init(self)
            built.append(self.subset)

        monkeypatch.setattr(element, "_trusted", classmethod(counting_trusted))
        monkeypatch.setattr(element, "__post_init__", counting_post_init)
        assert element((1, 0)).subset == (0, 1) and built.pop() == (0, 1)
        assert element._trusted((0, 1)).subset == (0, 1) and built.pop() == (0, 1)
        w = Weights(a)
        shared = {id(lab) for _, lab in w.exterior_basis}
        for k in range(w.l - 1):
            for i in range(w.l - 1):
                homs = [dual_ext(w, k, i), verify_prop6_via_resolution(w, k, i)]
                if w.n == 1:
                    homs.append(strip.hom_space(w, i, k))
                    if i < k:
                        labels = {id(p.label) for p in strip.intersections(w, i, k)}
                        assert labels <= shared, (i, k)
                for hom in homs:
                    assert {id(lab) for _, lab in hom.basis} <= shared, (k, i)
        assert len(built) == len(set(built)) == 2 ** (w.n + 1)

    def test_oracle_table_matches_reference(self):
        # Every (k, i) of the benchmark's bside-multi vectors and of five
        # weights out of order.
        vectors = bside_vectors(BSIDE_L)
        assert len(vectors) == 223
        for a in vectors + [(3, 1, 4, 1, 5)]:
            w = Weights(a)
            for k in range(w.l - 1):
                for i in range(w.l - 1):
                    hom = verify_prop6_via_resolution(w, k, i)
                    assert (hom.source, hom.target) == (k, i)
                    assert hom.basis == resolution_oracle_reference(w, k, i), (a, k, i)

    def test_oracle_refuses_a_subset_past_the_resolution(self):
        # A weight 0, which `Weights` refuses, puts e_J past position k at
        # target 0; the oracle raises rather than count it.
        w = Weights((1, 2, 3))
        object.__setattr__(w, "a", (0, 2, 3))
        with pytest.raises(ArithmeticError, match=r"subset \(0,\) of weight 0"):
            verify_prop6_via_resolution(w, 2, 0)

    def test_negative_spans_are_empty_without_a_scan(self):
        # For k < i no subset has a_J <= k - i, and none reaches P_i in the
        # resolution of the simple at k: both bases are empty on every
        # negative span of the benchmark's bside-multi vectors.
        for a in bside_vectors(BSIDE_L):
            w = Weights(a)
            for k in range(w.l - 1):
                for i in range(k + 1, w.l - 1):
                    assert dual_ext(w, k, i).basis == () \
                        == verify_prop6_via_resolution(w, k, i).basis, (a, k, i)
        # Neither reads the subsets for a negative span: with them gone,
        # any scan would raise.
        w = Weights((2, 3, 4))
        w.__dict__["subsets"] = w.__dict__["exterior_basis"] = None
        for i in range(1, w.l - 1):
            assert dual_ext(w, 0, i).basis == () == verify_prop6_via_resolution(w, 0, i).basis
        assert w._tables["dual"] == w._tables["oracle"] == {-i: () for i in range(1, w.l - 1)}

    @pytest.mark.parametrize("a", [(2, 3), (1, 4), (1, 2, 3), (2, 2, 5), (1, 1)])
    def test_oracle_agrees_with_dual_ext(self, a):
        w = Weights(a)
        for k in range(w.l - 1):
            for i in range(w.l - 1):
                assert verify_prop6_via_resolution(w, k, i).basis \
                    == dual_ext(w, k, i).basis


class TestRecordedHashes:
    def test_bside_multi_hashes_match_recorded(self):
        # The benchmark's pass and hash, read only, on every nondecreasing
        # vector of 3 or 4 weights with l <= 10.
        recorded = load("bside-multi.json")["hashes"]
        for a in THREE_AND_FOUR_WEIGHTS_L10:
            assert bside_hash(bside_pass(Weights(a))) == recorded[",".join(map(str, a))], a
