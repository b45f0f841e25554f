"""Tests for the cross-verification certificates and the sweep."""

import gc
import hashlib
import json
import operator
import weakref
from collections import Counter
from dataclasses import replace
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from perfbench.workloads import BSIDE_L, bside_vectors
from wpmirror import verify
from wpmirror.aside import strip, words
from wpmirror.bside import (compose_dual, dual_ext, ext_pushforward,
                            verify_prop6_via_resolution)
from wpmirror.verify import aside_digest, bside_digest, hms_certificate, sweep
from wpmirror.weights import Weights, monomial_basis


class TestCertificate:
    def test_blowup_2_3_passes(self):
        cert = hms_certificate(Weights((2, 3)))
        assert cert.passed, cert.failures
        # gap 3 between objects 0 and 3: one degree-0 and two degree-1 classes
        entry = cert.dim_table["0,3"]
        assert entry["aside"] == {"0": 1, "1": 2}
        assert entry["bside"] == {"0": 1, "1": 2}

    def test_trivial_weights_pass(self):
        cert = hms_certificate(Weights((1, 1)))
        assert cert.passed
        assert cert.dim_table == {"0,0": {"aside": {"0": 1}, "bside": {"0": 1}}}
        assert cert.aside_digest == [] and cert.bside_digest == []

    def test_off_diagonal_dims(self):
        cert = hms_certificate(Weights((1, 4)))
        for j in range(4):
            for k in range(j + 1, 4):
                dims = cert.dim_table[f"{j},{k}"]["aside"]
                assert 1 <= sum(dims.values()) <= 3
                assert set(dims) <= {"0", "1"}

    def test_digest_deterministic(self):
        a = hms_certificate(Weights((2, 3)))
        b = hms_certificate(Weights((2, 3)))
        assert a.to_json(include_timestamp=False) == b.to_json(include_timestamp=False)
        assert a.digest() == b.digest()

    def test_json_round_trip(self):
        cert = hms_certificate(Weights((2, 3)))
        payload = json.loads(cert.to_json())
        assert payload["weights"] == [2, 3]
        assert payload["passed"] is True
        assert "timestamp" in payload
        assert "timestamp" not in json.loads(cert.to_json(include_timestamp=False))

    def test_conventions_recorded(self):
        cert = hms_certificate(Weights((2, 3)))
        assert set(cert.conventions) == {"object_identification",
                                         "weight_convention",
                                         "orientation_convention"}
        assert cert.tool_version


class TestOncePerCertificate:
    @pytest.mark.parametrize("a", [(1, 4), (2, 3), (3, 5)])
    def test_one_enumeration_and_one_point_build_per_gap(self, monkeypatch, a):
        enumerations = []
        built = Counter()
        real_enumerate = words.enumerate_accepted_words
        real_intersections = strip.intersections

        def counting_enumerate(*args, **kwargs):
            enumerations.append(args)
            return real_enumerate(*args, **kwargs)

        def counting_intersections(w, j, k):
            built[j, k] += 1
            return real_intersections(w, j, k)

        monkeypatch.setattr(verify, "enumerate_accepted_words", counting_enumerate)
        # `gap_points` builds each gap's points for the dimension table and
        # the word search alike.
        monkeypatch.setattr(strip, "intersections", counting_intersections)
        cert = hms_certificate(Weights(a))
        assert cert.passed
        assert len(enumerations) == 1
        # Exactly one build per gap 1..l-2, from the pair (0, gap), for the
        # whole certificate.
        l = sum(a)
        assert built == Counter({(0, gap): 1 for gap in range(1, l - 1)})

    def test_weights_collected_with_its_tables(self):
        # The tables live on the object alone: once the caller drops a
        # `Weights` it has certified, the object and every table entry go.
        w = Weights((2, 5))
        assert hms_certificate(w).passed
        assert verify_prop6_via_resolution(w, 5, 0).basis is w._tables["oracle"][5]
        kept = [w, monomial_basis(w, 7)[0], ext_pushforward(w, 0, 5).basis[-1][1],
                dual_ext(w, 5, 0).basis[-1][1], w._tables["oracle"][5][-1][1],
                strip.gap_points(w, 5)[0][strip.PointKind.SEG_MP]]
        assert all(w._tables.values())
        refs = [weakref.ref(x) for x in kept]
        del w, kept
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)


def direct_bside_digest(w):
    """Reference for bside_digest: one compose_dual per basis pair of every
    triple, with no product table."""
    objects = range(w.l - 1)
    entries = []
    for i in objects:
        for j in range(i + 1, w.l - 1):
            for k in range(j + 1, w.l - 1):
                for _, lab0 in dual_ext(w, j, i).basis:
                    for _, lab1 in dual_ext(w, k, j).basis:
                        prod = compose_dual(w, k - i, lab0.subset, lab1.subset)
                        if prod is not None:
                            entries.append(((i, j, k), lab0.subset, lab1.subset,
                                            prod[0], prod[1]))
    entries.sort()
    return entries


def bside_digest_reference(w):
    """Reference for bside_digest: every triple in turn, one product table
    keyed by (subset0, subset1, k - i), and one sort of all entries at the
    end."""
    objects = range(w.l - 1)
    bases = [[J for J, a in w.subsets if a <= span] for span in objects]
    products = {}  # (subset0, subset1, k - i) -> (subset, sign) or None
    entries = []
    for i in objects:
        for j in range(i + 1, w.l - 1):
            for k in range(j + 1, w.l - 1):
                for J0 in bases[j - i]:
                    for J1 in bases[k - j]:
                        key = (J0, J1, k - i)
                        if key in products:
                            found = products[key]
                        else:
                            found = products[key] = compose_dual(w, k - i, J0, J1)
                        if found is not None:
                            entries.append(((i, j, k), J0, J1, found[0], found[1]))
    entries.sort()
    return entries


class TestBsideProductTable:
    def test_matches_reference_bside_multi(self):
        # Every vector of the benchmark's bside-multi workload, and every
        # vector of five weights with l <= 9, where -1 signs are densest.
        vectors = bside_vectors(BSIDE_L)
        five = [a for a in combinations_with_replacement(range(1, 10), 5) if sum(a) <= 9]
        assert (len(vectors), len(five)) == (223, 12)
        signs = set()
        gap_pairs = built = 0
        for a in vectors + five:
            digest = bside_digest(Weights(a))
            assert digest == bside_digest_reference(Weights(a)), a
            signs |= {e[4] for e in digest}
            # Gap pairs with equal tails share one tail, built once.
            tails = digest.tails.values()
            assert len({id(t) for t in tails}) == len(set(tails)), a
            if a in vectors:
                gap_pairs += len(tails)
                built += len(set(tails))
        # Three or more weights give products with sign -1.
        assert signs == {1, -1}
        assert (gap_pairs, built) == (10903, 5050)

    def test_matches_reference_certificates(self, certificates):
        for a, cert in certificates.items():
            assert cert.bside_digest == bside_digest_reference(Weights(a)), a

    def test_matches_direct_loop_three_and_four_weights(self):
        signs = set()
        for a in [a for n in (3, 4)
                  for a in combinations_with_replacement(range(1, 11), n)
                  if sum(a) <= 10]:
            digest = bside_digest(Weights(a))
            assert digest == direct_bside_digest(Weights(a)), a
            signs |= {e[4] for e in digest}
        # Three or more weights give products with sign -1.
        assert signs == {1, -1}

    def test_matches_direct_loop_two_weights(self):
        for a in [(a0, a1) for a0 in range(1, 12) for a1 in range(a0, 13 - a0)]:
            assert bside_digest(Weights(a)) == direct_bside_digest(Weights(a)), a

    @pytest.mark.parametrize("a", [(2, 3), (1, 2, 3), (1, 1, 2, 3), (1, 1, 1, 2, 3)])
    def test_one_product_per_key(self, monkeypatch, a):
        # The truncation never binds inside a triple, so each ordered
        # subset pair (ju, jv) is composed once, whatever its span.
        keys = []
        real_compose = verify.compose_dual

        def counting_compose(w, span, ju, jv):
            keys.append((ju, jv))
            return real_compose(w, span, ju, jv)

        monkeypatch.setattr(verify, "compose_dual", counting_compose)
        w = Weights(a)
        assert bside_digest(w)
        # The pairs whose least gaps, a_J but at least 1, fit a triple.
        least = {J: max(weight, 1) for J, weight in w.subsets}
        assert sorted(keys) == sorted((J0, J1) for J0 in least for J1 in least
                                      if least[J0] + least[J1] <= w.l - 2)


# Digests recorded by the benchmark for every pair with a0 + a1 <= 25.
EXPECTED_SWEEP = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "sweep-2w.json"


@pytest.fixture(scope="module")
def certificates_l12(certificates):
    return {a: cert for a, cert in certificates.items() if sum(a) <= 12}


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=40,
)


subsets = st.lists(st.integers(0, 3) | st.booleans()
                   | st.lists(st.integers(0, 3), max_size=2).map(tuple), max_size=3).map(tuple)
tails_lists = st.lists(st.tuples(subsets, subsets, subsets, st.integers(-1, 2) | st.booleans()),
                       max_size=3)
gap_tables = st.dictionaries(st.tuples(st.integers(1, 6), st.integers(1, 6)), tails_lists,
                             max_size=8)


def text_of(value):
    """The whole text of the encoder's chunks."""
    return "".join(verify.json_chunks(value))


class TestDigestEncoding:
    @given(json_values)
    # True == 1 and False == 0, so equal tuples may need different text.
    @example([(1,), (True,), (False, 0), (0, False)])
    @example([(True,), (1,), ((True, 1),), ((1, True),)])
    @example({"b": [(0,), [(False,)]], "a": [(False,), [(0,)]]})
    @example({"\u00e9": "\x00\x1f\u2028\ud800 \U0001f600", "\x7f": ["\t\n"]})
    @example({"z": [], "y": (), "x": {}, "w": [[], (), {}]})
    # json's text of the floats that float.__repr__ writes otherwise, and
    # floats equal by == to another value of different text.
    @example([float("nan"), float("inf"), -float("inf"), -0.0, 1e308, 5e-324, 1e16])
    @example([[0.0], [-0.0], [0], [False], (1.0,), (1,), (True,), {"a": 1.0}, {"a": 1}])
    # A digest entry is formatted as its triple and a shared tail, and equal
    # lists and dicts once per level; each example below needs two of those
    # pieces that are equal by == to have different text.
    @example([((0, 1, 2), (True,), (), (), 1), ((0, 1, 2), (1,), (), (), 1)])
    @example([((0, 1, 2), (0,), (1,), (0, 1), True), ((0, 1, 3), (0,), (1,), (0, 1), 1),
              ((0, 2, 3), (0,), (1,), (0, 1), False), ((1, 2, 3), (0,), (1,), (0, 1), 0)])
    @example([[(0, 1)], [(0, True)], {"a": (0, 1)}, {"a": (0, True)}])
    @example([[(0, 1)], [[(0, 1)]], [(0, True)], {"a": (0, 1)}, [{"a": (0, 1)}],
              {"a": (0, True)}])
    @example([{"a": (0, 1), "b": (0, True)}, {"b": (0, 1), "a": (0, True)}])
    @example([((0, 1, 2), (0,), (), (), 1), 5, "x", None, (1, 2),
              [((0, 1, 2), (0,), (), (), True)], ((0, 1, 2), (0,), (), (), True),
              {"e": ((0, 1, 2), (0,), (), (), 1)}, ((0, 1, 2), (0,), ()), ((0, 1, 2),)])
    def test_matches_json_dumps(self, value):
        assert text_of(value) == json.dumps(value, sort_keys=True, indent=2)

    @given(st.integers(0, 7), gap_tables, st.none() | st.tuples(st.integers(0, 7), gap_tables))
    # Equal by == but not in text: a True constant next to a 1.
    @example(4, {(1, 1): [((0,), (1,), (0, 1), True), ((0,), (1,), (0, 1), 1)]},
             (4, {(1, 1): [((0,), (1,), (0, 1), 1), ((0,), (1,), (0, 1), 1)]}))
    @example(5, {(1, 1): [((0, (1, 2)), (), (True,), -1)], (1, 2): [], (2, 2): [((), (), (), 0)]},
             (5, {(2, 2): [((), (), (), False)], (1, 2): [((0, (1, 2)), (), (True,), -1)]}))
    # One gap table, two sizes.
    @example(4, {(1, 1): [((), (), (), 1)], (1, 2): [((0,), (), (0,), 1)]},
             (3, {(1, 1): [((), (), (), 1)], (1, 2): [((0,), (), (0,), 1)]}))
    @example(0, {}, (3, {(1, 1): []}))
    def test_table_matches_json_dumps(self, n, tails, other):
        # Each value holds two tables with equal gap tables and, from
        # `other`, one more; `w` holds a table one level deeper, next to a
        # plain list of the same entries.
        table = verify.DigestTable(n, tails)
        value = {"t": table, "u": verify.DigestTable(n, dict(reversed(tails.items()))),
                 "w": [table, list(table)]}
        if other is not None:
            value["v"] = verify.DigestTable(*other)
        plain = {key: [list(t) for t in v] if key == "w" else list(v) for key, v in value.items()}
        assert text_of(value) == json.dumps(plain, sort_keys=True, indent=2)
        # A table comes in one chunk per first index of its triples and one
        # for its closing bracket.
        firsts = {triple[0] for triple, *_ in table}
        chunks = list(verify.json_chunks(table))
        assert len(chunks) == len(firsts) + 1 if firsts else chunks == ["[]"]

    @given(st.integers(0, 7), gap_tables, st.integers(0, 7), gap_tables)
    # One gap table, two sizes; and two empty tables of different sizes.
    @example(4, {(1, 1): [((), (), (), 1)]}, 5, {(1, 1): [((), (), (), 1)]})
    @example(3, {}, 6, {(4, 4): [((), (), (), 1)]})
    # Equal by ==, as a list compares them: a True constant next to a 1.
    @example(3, {(1, 1): [((0,), (), (0,), True)]}, 3, {(1, 1): [((0,), (), (0,), 1)]})
    def test_table_acts_as_its_entries(self, n, tails, m, other_tails):
        # The entries that the table makes on demand are those of the
        # list of every triple's tail, and == and len agree with that
        # list.
        table, other = verify.DigestTable(n, tails), verify.DigestTable(m, other_tails)
        entries = [((i, j, k), J0, J1, Jout, c)
                   for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)
                   for J0, J1, Jout, c in tails.get((j - i, k - j), ())]
        assert list(table) == entries and len(table) == len(entries)
        assert table == entries and entries == table and not table != entries
        assert table != entries + [((0, 1, 2), (), (), (), 1)]
        assert table == verify.DigestTable(n, dict(reversed(tails.items())))
        assert (table == other) == (entries == list(other)) == (not table != other)
        assert (other == entries) == (list(other) == entries)

    def test_table_refuses_change(self):
        entry = ((0, 1, 2), (0,), (1,), (0, 1), 1)
        table = verify.DigestTable(3, {(1, 1): [entry[1:]], (2, 1): []})
        text = text_of({"t": table})
        # A table is no list: item changes and in-place operators raise
        # TypeError, and it has no list method that changes a list.
        changes = [lambda t: operator.setitem(t, 0, entry), lambda t: operator.delitem(t, 0),
                   lambda t: operator.iadd(t, [entry]), lambda t: operator.imul(t, 2),
                   lambda t: operator.setitem(t.tails, (1, 1), ())]
        for change in changes:
            with pytest.raises(TypeError):
                change(table)
        for name in ("append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"):
            assert not hasattr(table, name)
        assert table == [entry] and dict(table.tails) == {(1, 1): (entry[1:],)}
        assert text_of({"t": table}) == text
        # A changed copy is a plain list, formatted through the generic path.
        changed = list(table)
        changed[0] = entry[:4] + (2,)
        assert text_of({"t": changed}) == json.dumps({"t": changed}, sort_keys=True,
                                                               indent=2)

    # The ids are those the cases had next to the two float cases of
    # `test_floats_encoded`, which were refused until floats were encoded.
    @pytest.mark.parametrize("value", [{1: "a"}, {"a": {2}}, [object()], (1, object())],
                             ids=["value2", "value3", "value4", "value5"])
    def test_other_types_rejected(self, value):
        with pytest.raises(TypeError):
            text_of(value)

    @pytest.mark.parametrize("value", [1.0, (1, 2.5)])
    def test_floats_encoded(self, value):
        assert text_of(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_to_json_matches_json_dumps(self, certificates, certificates_l12):
        # (1, 19) is the largest sweep-2w pair; the corrupted copy fails,
        # so its two digest tables differ in one constant.
        corrupted = hms_certificate(Weights((1, 19)), corrupt=("bside", 0))
        assert corrupted.aside_digest != corrupted.bside_digest and not corrupted.passed
        cases = {**certificates_l12, (1, 19): certificates[(1, 19)], "corrupted": corrupted}
        for a, cert in cases.items():
            payload = dict(vars(cert))
            assert cert.to_json() == json.dumps(payload, sort_keys=True, indent=2,
                                                default=list), a
            del payload["timestamp"]
            assert cert.to_json(include_timestamp=False) == \
                json.dumps(payload, sort_keys=True, indent=2, default=list), a

    def test_digest_hashes_the_text(self, certificates, certificates_l12):
        # The digest feeds the encoder's chunks to one hash; it is the hash
        # of the whole text, on passing certificates, on each side's
        # corrupted one (a plain list beside a table) and at l = 2, whose
        # tables are empty.
        corrupted = [hms_certificate(Weights((1, 19)), corrupt=(side, 7))
                     for side in ("aside", "bside")]
        assert not any(cert.passed for cert in corrupted)
        empty = hms_certificate(Weights((1, 1)))
        assert empty.aside_digest == empty.bside_digest == []
        cases = [*certificates_l12.values(), certificates[(1, 19)], *corrupted, empty]
        for cert in cases:
            text = cert.to_json(include_timestamp=False)
            assert cert.digest() == hashlib.sha256(text.encode()).hexdigest(), cert.weights

    def test_digests_match_recorded(self, certificates):
        with open(EXPECTED_SWEEP) as fh:
            recorded = json.load(fh)["digests"]
        assert len(certificates) == len(recorded) == 156
        for a, cert in certificates.items():
            assert cert.digest() == recorded[f"{a[0]},{a[1]}"], a

    def test_public_digests_match_certificate(self, certificates_l12):
        # Criterion 2 reads the two tables from the certificates.
        for a, cert in certificates_l12.items():
            w = Weights(a)
            assert aside_digest(w, words.enumerate_accepted_words(w)) == cert.aside_digest, a
            assert bside_digest(Weights(a)) == cert.bside_digest, a


class TestMutation:
    @pytest.mark.parametrize("side", ["aside", "bside"])
    def test_single_constant_flip_fails(self, side):
        clean = hms_certificate(Weights((2, 3)))
        for idx in range(3):
            cert = hms_certificate(Weights((2, 3)), corrupt=(side, idx))
            assert not cert.passed
            # The failure names the bumped entry and each side's constant.
            triple, J0, J1, Jout, c = list(getattr(clean, side + "_digest"))[idx]
            const = {"aside": c, "bside": c, side: c + 1}
            assert cert.failures == [
                f"composition digests differ at triple {triple}: J0 {J0} J1 {J1} "
                f"Jout {Jout}, aside {const['aside']}, bside {const['bside']}"]

    def test_mismatch_names_entry_absent_on_one_side(self):
        first, second = ((0, 1, 2), (0,), (1,), (0, 1), 1), ((0, 1, 3), (), (), (), -1)
        assert verify._digest_mismatch([first, second], [second]) == (
            "composition digests differ at triple (0, 1, 2): J0 (0,) J1 (1,) Jout (0, 1), "
            "aside 1, bside absent")
        assert verify._digest_mismatch([first], [first, second]) == (
            "composition digests differ at triple (0, 1, 3): J0 () J1 () Jout (), "
            "aside absent, bside -1")

    def test_corrupted_digest_changes_hash(self):
        clean = hms_certificate(Weights((2, 3)))
        bad = hms_certificate(Weights((2, 3)), corrupt=("bside", 0))
        assert clean.digest() != bad.digest()


class TestComponentMutation:
    """Each check of the certificate that is not a digest catches a fault
    in what it reads: one thing is broken where `verify` looks it up, and
    the certificate fails with that check's reason alone."""

    @staticmethod
    def failures():
        cert = hms_certificate((2, 3))
        assert not cert.passed
        return cert.failures

    @staticmethod
    def patch_hom_space(monkeypatch, change_basis):
        """Replace the A-side basis of the pair (0, 3) by a changed copy.
        For (2, 3) it is e() in degree 0 and e0, e1 in degree 1."""
        real = verify.hom_space

        def hom_space(w, j, k):
            hom = real(w, j, k)
            if (j, k) == (0, 3):
                assert [(d, lab.subset) for d, lab in hom.basis] == [(0, ()), (1, (0,)), (1, (1,))]
                hom = replace(hom, basis=change_basis(list(hom.basis)))
            return hom

        monkeypatch.setattr(verify, "hom_space", hom_space)

    def test_oracle_drops_a_basis_element(self, monkeypatch):
        real = verify.verify_prop6_via_resolution

        def oracle(w, k, i):
            hom = real(w, k, i)
            return replace(hom, basis=hom.basis[:-1]) if (k, i) == (3, 0) else hom

        monkeypatch.setattr(verify, "verify_prop6_via_resolution", oracle)
        assert self.failures() == ["resolution oracle disagrees at (k=3, i=0)"]

    def test_hom_space_degree_shift(self, monkeypatch):
        def shift(basis):
            (d, label), *rest = basis
            return ((d + 1, label), *rest)

        self.patch_hom_space(monkeypatch, shift)
        [failure] = self.failures()
        assert failure.startswith("dimension mismatch at pair (0,3)")

    def test_label_swapped_at_same_degree(self, monkeypatch):
        def swap(basis):
            basis[1] = (basis[1][0], basis[2][1])  # e0 -> e1, still degree 1
            return tuple(basis)

        self.patch_hom_space(monkeypatch, swap)
        assert self.failures() == ["label mismatch at pair (0,3)"]

    def test_four_corner_word(self, monkeypatch):
        real = verify.enumerate_accepted_words

        def enumerate_with_square(*args, **kwargs):
            found = real(*args, **kwargs)
            word = found[0]
            return found + [words.DiscWord(word.letters, word.corners + word.corners[:1])]

        monkeypatch.setattr(verify, "enumerate_accepted_words", enumerate_with_square)
        # The failure names the added word, the first word of the search.
        assert self.failures() == [
            "higher products do not vanish: s0+(+) C0(+) C1(-) s1+(-) s3-(-)"]


class TestSweep:
    def test_sweep_5(self):
        summary = sweep(5)
        assert len(summary.results) == 6
        assert summary.all_passed
        weights = sorted(w for w, _, _ in summary.results)
        assert weights == [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3)]

    def test_sweep_2_minimal(self):
        summary = sweep(2)
        assert [w for w, _, _ in summary.results] == [(1, 1)]

    def test_csv_format(self):
        lines = sweep(3).to_csv().strip().splitlines()
        assert lines[0] == "weights,l,passed"
        assert lines[1] == "1|1,2,True"

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            sweep(1)
