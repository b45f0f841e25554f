"""Tests for the disc-word rules, the word search, and the vanishing of
higher products."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest

import pytest

from wpmirror.aside.strip import (IntersectionPoint, PointKind, gap_points, intersections,
                                  maslov_degree)
from wpmirror.aside.words import (
    _FLOW_ORDER,
    _NEXT_PIECE,
    _OTHER_SEGMENT,
    ARC,
    SEG_MINUS,
    SEG_PLUS,
    _PATTERNS,
    DiscWord,
    Letter,
    _corner_kind,
    _shape,
    enumerate_accepted_words,
    higher_product_report,
)
from wpmirror.aside import words
from wpmirror.verify import aside_digest
from wpmirror.weights import ExteriorBasisElement, Weights

W23 = Weights((2, 3))


def L(piece, curve, sign):
    return Letter(piece, curve, sign)


def pairs_up_to(l_max):
    """Every weight pair a0 <= a1 with l = a0 + a1 <= l_max."""
    return [(a0, a1) for a0 in range(1, l_max) for a1 in range(a0, l_max + 1 - a0)]


def closable_words(w, max_len, caps=True):
    """Every closable word of the search without pruning, in search order:
    the successors of the search and, when `caps` is set, its caps (at most
    three arcs; with any segment at most two, adjacent; no three
    consecutive segments)."""
    curves = range(w.l - 1)

    def successors(last):
        out = []
        nxt = _NEXT_PIECE[last.piece, last.sign]
        if nxt is not None:
            out.append(Letter(nxt, last.curve, last.sign))
        for c2 in curves:
            gap = c2 - last.curve
            if gap <= 0:
                continue
            if last.piece == ARC:
                out.append(Letter(ARC, c2, -last.sign))
            elif last.piece == SEG_MINUS and last.sign == 1 and w.a[1] <= gap:
                out.append(Letter(SEG_PLUS, c2, 1))
            elif last.piece == SEG_PLUS and last.sign == -1 and w.a[0] <= gap:
                out.append(Letter(SEG_MINUS, c2, -1))
        return out

    def within_caps(word):
        arcs = [i for i, x in enumerate(word) if x.piece == ARC]
        segments = len(word) - len(arcs)
        run = len(word) - 1 - arcs[-1] if arcs else len(word)
        if run >= 3 or len(arcs) > 3:
            return False
        if segments and len(arcs) > 2:
            return False
        return not (segments and len(arcs) == 2 and arcs[1] != arcs[0] + 1)

    def dfs(word):
        if word[0].curve < word[-1].curve:
            yield word
        if len(word) < max_len:
            for nxt in successors(word[-1]):
                if not caps or within_caps(word + (nxt,)):
                    yield from dfs(word + (nxt,))

    for c in curves:
        for piece in (SEG_PLUS, ARC, SEG_MINUS):
            for sign in (1,) if piece == ARC else (1, -1):
                yield from dfs((Letter(piece, c, sign),))


def canonical_triangle(letters):
    """All-arc words: the flow convention makes the triangle (+,-,+); the
    reversed alternation (-,+,-) names the same disc and is accepted as an
    alias, normalized here."""
    signs = (letters[0].sign, letters[1].sign, letters[2].sign)
    if signs == (1, -1, 1):
        return letters
    if signs == (-1, 1, -1):
        return tuple(Letter(x.piece, x.curve, -x.sign) for x in letters)
    return None


@lru_cache(maxsize=1 << 12)
def pair_points(w, j, k):
    """The points of the curve pair j < k keyed by kind, each with its
    Maslov degree, from their own `intersections(w, j, k)`: the per-pair
    reference for the gap points that the search reads."""
    return {p.kind: (p, maslov_degree(w, p)) for p in intersections(w, j, k)}


def corner_facts(w, corners):
    """What each corner records: its kind, gap, x, period shift, label and
    Maslov degree.  A corner of the search is the point of its gap, so it
    agrees with the per-pair point it stands for in these, not in its
    curves.  `maslov_degree` reads a point's curves and kind alone, so its
    value is read from `pair_points`."""
    return [(p.kind, p.k - p.j, p.x, p.d, p.label, pair_points(w, p.j, p.k)[p.kind][1])
            for p in corners]


def assert_rules_accept(w, word):
    """`word_rules` accepts the letters of `word`, with corners whose facts
    are those of the word's corners."""
    corners, reason = word_rules(w, word.letters)
    assert reason is None, (w, word, reason)
    assert (word.letters, corner_facts(w, corners)) \
        == (word.letters, corner_facts(w, word.corners)), (w, word)


def _corner(w, prev, nxt, is_wrap):
    """The corner point where `prev` hands over to `nxt`: the kind of
    `_corner_kind`, looked up between the two letters' curves.  Returns
    (point, None), or (None, reason) when the two letters cannot meet."""
    kind, reason = _corner_kind(prev, nxt, is_wrap)
    if kind is None:
        return None, reason
    lower, upper = (nxt, prev) if is_wrap else (prev, nxt)
    found = pair_points(w, lower.curve, upper.curve).get(kind)
    if found is None:
        return None, "missing corner"
    return found[0], None


def _monotone(letter, corner_in, corner_out):
    """Boundary monotonicity of a letter entered at `corner_in` and left at
    `corner_out`, both on other curves: the letter must pass the two in the
    direction of its sign; positions compared exactly.  The reference for
    the monotonicity lemma of `enumerate_accepted_words`, which shows that
    every word the search returns passes it.

    Along the flow a half-circle meets its crossings with curves of
    decreasing index (the crossing height is affine in the partner index),
    s- meets increasing x and s+ decreasing x.  So a < b exactly when the
    letter runs from `corner_in` to `corner_out` with the flow.  A letter
    entered and left at one point has nothing to order.
    """
    if corner_in is corner_out:
        return True
    if letter.piece == ARC:
        a = corner_out.j if corner_out.k == letter.curve else corner_out.k
        b = corner_in.j if corner_in.k == letter.curve else corner_in.k
    elif letter.piece == SEG_MINUS:
        a, b = corner_in.x, corner_out.x
    else:
        a, b = corner_out.x, corner_in.x
    return a != b and (a < b) == (letter.sign > 0)


def word_rules(w, letters):
    """Core rule pipeline on a nonempty word of letters on the curves
    0..l-2, the reference the word search is tested against.  Returns
    (corners, None) on accept or (None, reason) on reject."""
    curves = [x.curve for x in letters]
    if sorted(curves) != curves:
        return None, "non-decreasing subscripts"

    # Consecutive letters on one curve walk it consecutively in a single
    # direction.
    for a, b in zip(letters, letters[1:]):
        if a.curve == b.curve and (
                b.sign != a.sign or b.piece != _NEXT_PIECE[a.piece, a.sign]):
            return None, "orientation pairing"

    if curves[0] == curves[-1]:  # sorted, so every letter is on one curve
        return None, "missing corner"

    run = 0
    for x in letters:
        run = run + 1 if x.piece != ARC else 0
        if run >= 3:
            return None, "three consecutive segments"

    arcs = [i for i, x in enumerate(letters) if x.piece == ARC]
    reason = _shape(letters, arcs)
    if reason is not None:
        return None, reason
    if len(arcs) == len(letters):
        letters = canonical_triangle(letters)
        if letters is None:
            return None, "orientation pairing"

    # Corners: the jumps between consecutive letters on different curves,
    # in order, then the wrap (last letter, first letter).  starts[k] is
    # the position of the letter that leaves at corner k.
    last = len(letters) - 1
    starts = [i for i in range(last) if curves[i] != curves[i + 1]] + [last]
    corners = []
    for i in starts:
        point, reason = _corner(w, letters[i], letters[(i + 1) % len(letters)],
                                i == last)
        if point is None:
            return None, reason
        corners.append(point)

    # A letter that is entered at corner k and left at the next corner.
    for k, i in enumerate(starts):
        nk = (k + 1) % len(starts)
        pos = (i + 1) % len(letters)
        if starts[nk] == pos and not _monotone(letters[pos], corners[k], corners[nk]):
            return None, "non-monotone boundary"

    return tuple(corners), None




def all_first_curves_search(w):
    """The pruned search started from every first curve in turn, as it ran
    before the translation lemma of `enumerate_accepted_words` let the
    search start from curve 0 alone: the reference for that lemma."""
    accepted = []

    def may_extend(arcs, seg_count):
        if len(arcs) > 3:
            return False
        if seg_count and len(arcs) > 1:
            return len(arcs) == 2 and arcs[1] == arcs[0] + 1
        return True

    interned = {}
    successor_table = {}
    wraps = {}

    def letter(piece, curve, sign):
        found = interned.get((piece, curve, sign))
        if found is None:
            found = interned[piece, curve, sign] = Letter(piece, curve, sign)
        return found

    def close(stack, corners, arcs):
        first, last = stack[0], stack[-1]
        if first.curve >= last.curve:
            return
        if _shape(stack, arcs) is not None:
            return
        found = wraps.get(id(last))
        if found is None:
            found = wraps[id(last)] = _corner(w, last, first, True)
        wrap = found[0]
        if wrap is None:
            return
        if stack[1].curve != first.curve and not _monotone(first, wrap, corners[0]):
            return
        if stack[-2].curve != last.curve and not _monotone(last, corners[-1], wrap):
            return
        accepted.append(DiscWord(stack, corners + (wrap,)))

    def successors(last):
        found = successor_table.get(id(last))
        if found is not None:
            return found
        out = []
        nxt = _NEXT_PIECE[last.piece, last.sign]
        if nxt is not None:
            out.append((letter(nxt, last.curve, last.sign), None))
        piece = ARC if last.piece == ARC else _OTHER_SEGMENT[last.piece]
        for c2 in range(last.curve + 1, w.l - 1):
            for sign in (1, -1):
                cand = letter(piece, c2, sign)
                corner = _corner(w, last, cand, False)[0]
                if corner is not None:
                    out.append((cand, corner))
        found = successor_table[id(last)] = tuple(out)
        return found

    def dfs(stack, corners, arcs, seg_count, seg_run):
        close(stack, corners, arcs)
        depth = len(stack)
        last = stack[-1]
        entered = corners[-1] if depth > 1 and stack[-2].curve != last.curve else None
        for nxt, corner in successors(last):
            if nxt.piece == ARC:
                n_arcs, n_seg, n_run = arcs + (depth,), seg_count, 0
            else:
                n_arcs, n_seg, n_run = arcs, seg_count + 1, seg_run + 1
                if n_run >= 3:
                    continue
            if not may_extend(n_arcs, n_seg):
                continue
            if corner is None:
                dfs(stack + (nxt,), corners, n_arcs, n_seg, n_run)
            elif entered is None or _monotone(last, entered, corner):
                dfs(stack + (nxt,), corners + (corner,), n_arcs, n_seg, n_run)

    for c in range(w.l - 1):
        for piece in _FLOW_ORDER:
            is_arc = piece == ARC
            for sign in (1,) if is_arc else (1, -1):
                wraps.clear()
                dfs((letter(piece, c, sign),), (), (0,) if is_arc else (),
                    int(not is_arc), int(not is_arc))
    return accepted


def corner_pairs(letters):
    """The curve pair (lower, upper) of each corner of a word: its jumps,
    in order, then its wrap."""
    curves = [x.curve for x in letters]
    return [(a, b) for a, b in zip(curves, curves[1:]) if a != b] + [(curves[0], curves[-1])]


def shifted_copies(w, words):
    """Every accepted word on the curves 0..l-2, from the curve-0 words of
    one enumeration, in the order the search emitted them before each word
    stood for its translation orbit: row c holds each word's copy shifted
    by c, or nothing past its top curve, and the rows run in order of c.
    The copies take the letters of `words` where they exist, one `Letter`
    per (piece, curve, sign) otherwise, and as corners the points of
    `pair_points` between the copy's own curves.
    """
    interned = {(x.piece, x.curve, x.sign): x for word in words for x in word.letters}

    def letter(piece, curve, sign):
        found = interned.get((piece, curve, sign))
        if found is None:
            found = interned[piece, curve, sign] = Letter(piece, curve, sign)
        return found

    # Each letter and corner of a curve-0 word with its copies shifted by
    # c = 0, 1, ... while they stay on the curves 0..l-2.
    def copies(word):
        letters = [[letter(x.piece, x.curve + c, x.sign) for c in range(w.l - 1 - x.curve)]
                   for x in word.letters]
        corners = [[pair_points(w, j + c, k + c)[p.kind][0] for c in range(w.l - 1 - k)]
                   for p, (j, k) in zip(word.corners, corner_pairs(word.letters))]
        # A word's last letter and its wrap corner lie on its top curve, so
        # zip stops at the last shift that keeps the word on the curves.
        return zip(zip(*letters), zip(*corners))

    return [DiscWord(*copy) for row in zip_longest(*map(copies, words)) for copy in row if copy]


def aside_digest_reference(words):
    """Reference for `aside_digest`: one entry per accepted triangle of the
    full word list (`shifted_copies`), keyed by its own triple, and one sort
    of all entries at the end."""
    entries = []
    for word in words:
        if len(word.corners) != 3:
            continue
        p0, p1, out = word.corners
        entries.append(((p0.j, p0.k, p1.k), p0.label.subset, p1.label.subset,
                        out.label.subset, 1))
    entries.sort()
    return entries


def reference_search(w, max_len):
    """The search as it was before pruning: `word_rules` on every closable
    word."""
    accepted = []
    for word in closable_words(w, max_len):
        corners, _ = word_rules(w, word)
        if corners is not None:
            accepted.append(DiscWord(word, corners))
    return accepted


def classify(w, letters):
    """(True, None) when the rules accept `letters`, else (False, reason)."""
    corners, reason = word_rules(w, tuple(letters))
    return corners is not None, reason


class TestClassify:
    def test_accepts_arc_triangle_both_orientations(self):
        assert classify(W23, [L("C", 0, -1), L("C", 1, 1), L("C", 2, -1)]) == (True, None)
        assert classify(W23, [L("C", 0, 1), L("C", 1, -1), L("C", 2, 1)]) == (True, None)

    def test_accepts_segment_triangle(self):
        word = [L("s+", 0, 1), L("C", 0, 1), L("C", 1, -1), L("s+", 1, -1),
                L("s-", 3, -1)]
        assert classify(W23, word) == (True, None)

    def test_rejects_decreasing_subscripts(self):
        word = [L("C", 2, 1), L("C", 1, -1), L("C", 3, 1)]
        assert classify(W23, word) == (False, "non-decreasing subscripts")

    def test_rejects_three_consecutive_segments(self):
        word = [L("s+", 0, 1), L("s-", 1, 1), L("s+", 2, -1)]
        assert classify(W23, word) == (False, "three consecutive segments")

    def test_rejects_segment_only_disc(self):
        word = [L("s+", 0, -1), L("s-", 3, -1)]
        ok, reason = classify(W23, word)
        assert not ok and reason in ("segment-only disc", "orientation pairing",
                                     "missing corner")

    def test_rejects_four_arcs(self):
        word = [L("C", 0, 1), L("C", 1, -1), L("C", 2, 1), L("C", 3, -1)]
        assert classify(W23, word) == (False, "endpoints both arcs")

    def test_rejects_same_sign_arc_pair(self):
        word = [L("s+", 0, 1), L("C", 0, 1), L("C", 1, 1), L("s+", 1, 1),
                L("s-", 3, -1)]
        ok, reason = classify(W23, word)
        assert not ok and reason == "orientation pairing"

    def test_rejects_missing_corner(self):
        # gap 1 < a0 = 2, so the closing segment corner does not exist
        word = [L("s+", 0, 1), L("C", 0, 1), L("C", 1, -1), L("s+", 1, -1),
                L("s-", 2, -1)]
        ok, reason = classify(W23, word)
        assert not ok and reason == "missing corner"

    def test_rejects_broken_group_traversal(self):
        word = [L("s-", 0, 1), L("C", 0, 1), L("C", 1, -1), L("s+", 1, -1),
                L("s-", 3, -1)]
        ok, reason = classify(W23, word)
        assert not ok and reason == "orientation pairing"

    def test_malformed_raises(self):
        with pytest.raises(ValueError):
            Letter("arc", 0, 1)
        with pytest.raises(ValueError):
            Letter("C", 0, 2)


class TestEnumeration:
    def test_counts_small_example(self):
        words = enumerate_accepted_words(W23)
        # From curve 0: the arc triangles (0, j, k) and both mixed discs.
        assert Counter(len(word.letters) for word in words) == {3: 3, 5: 2}
        # 4 arc triangles over C(4,3) triples and 2 mixed five-letter discs
        assert Counter(len(word.letters) for word in shifted_copies(W23, words)) == {3: 4, 5: 2}

    def test_every_word_classifies_as_accepted(self):
        # The rules accept every word of the search and every shifted copy,
        # with the corners the search carried, on every pair with l <= 10.
        for a in pairs_up_to(10):
            w = Weights(a)
            words = enumerate_accepted_words(w)
            assert {word.letters[0].curve for word in words} <= {0}
            for word in shifted_copies(w, words):
                assert word_rules(w, word.letters) == (word.corners, None)
                assert len(word.corners) == 3
        # The monotonicity lemma of `enumerate_accepted_words`: the search
        # checks no corner order, and the rules, which do, accept every
        # curve-0 word with corners that agree with its own, on every pair
        # with l <= 40.
        count = 0
        for a in pairs_up_to(40):
            w = Weights(a)
            for word in enumerate_accepted_words(w):
                assert_rules_accept(w, word)
                count += 1
        assert count == 324520

    def test_equal_letters_are_one_object(self):
        seen = {}
        for word in enumerate_accepted_words(Weights((2, 5))):
            for x in word.letters:
                assert seen.setdefault(x, x) is x
        assert len(seen) > 1

    def test_no_duplicate_words(self):
        for a in [(2, 3), (3, 4)]:
            w = Weights(a)
            words = [tuple(x.letters) for x in
                     shifted_copies(w, enumerate_accepted_words(w))]
            assert len(words) == len(set(words))

    def test_one_disc_per_nonzero_product(self):
        # Each accepted word is a triangle realizing exactly one structure
        # constant, so corner triples must be distinct.
        for a in [(2, 3), (2, 5)]:
            w = Weights(a)
            seen = set()
            for word in shifted_copies(w, enumerate_accepted_words(w)):
                p0, p1, out = word.corners
                key = ((p0.j, p0.k), p0.kind, (p1.j, p1.k), p1.kind)
                assert key not in seen
                seen.add(key)


def arc_point(j, k):
    return IntersectionPoint(j, k, PointKind.ARC, None, None, ExteriorBasisElement(()))


def seg_point(x):
    return IntersectionPoint(0, 1, PointKind.SEG_PM, Fraction(x), 0,
                             ExteriorBasisElement((0,)))


class TestMonotone:
    """The "non-monotone boundary" rule on synthetic (letter, entering
    corner, leaving corner) triples.  Along the flow a half-circle meets
    partners of decreasing index, s- increasing x and s+ decreasing x."""

    @pytest.mark.parametrize("sign", [1, -1])
    def test_arc(self, sign):
        high, low = arc_point(2, 4), arc_point(1, 2)
        # Entered from curve 4, left towards curve 1: with the flow.
        assert _monotone(L("C", 2, sign), high, low) == (sign == 1)
        assert _monotone(L("C", 2, sign), low, high) == (sign == -1)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_segment_minus(self, sign):
        left, right = seg_point("1/3"), seg_point("2/3")
        assert _monotone(L("s-", 1, sign), left, right) == (sign == 1)
        assert _monotone(L("s-", 1, sign), right, left) == (sign == -1)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_segment_plus(self, sign):
        left, right = seg_point("1/3"), seg_point("2/3")
        assert _monotone(L("s+", 1, sign), right, left) == (sign == 1)
        assert _monotone(L("s+", 1, sign), left, right) == (sign == -1)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_equal_positions_rejected(self, sign):
        # Two distinct corners at one position order nothing either way.
        assert not _monotone(L("C", 2, sign), arc_point(1, 2), arc_point(1, 2))
        for piece in ("s+", "s-"):
            assert not _monotone(L(piece, 1, sign), seg_point("1/2"), seg_point("1/2"))

    def test_one_corner_has_nothing_to_order(self):
        p = seg_point("1/2")
        assert _monotone(L("s-", 1, 1), p, p)


class TestPrunedSearch:
    """The search prunes on each corner as it pushes a letter; with their
    shifted copies, its words must be what the unpruned search finds, in
    the same order, with the same corners."""

    @pytest.mark.parametrize("max_len", [6, 8, 12])
    def test_matches_unpruned_search(self, max_len):
        # The caps stop the search at 5 letters, so no unpruned bound of at
        # least 6 may find a word the search misses.
        for a in pairs_up_to(12):
            w = Weights(a)
            words = shifted_copies(w, enumerate_accepted_words(w))
            assert words == reference_search(w, max_len), a


def pattern_paths():
    """Every path of `_PATTERNS` from a root, as its tuple of nodes."""
    stack = [(root,) for root in _PATTERNS]
    while stack:
        path = stack.pop()
        yield path
        node = path[-1]
        stack += [path + (child,) for child in (node.step, node.jump and node.jump[1])
                  if child is not None]


def path_letters(path):
    """The symbolic letters of a path of `_PATTERNS`: each letter's curve is
    the number of jumps before it, read from whether each node is its
    parent's jump child."""
    curve, letters = 0, [Letter(path[0].piece, 0, path[0].sign)]
    for parent, node in zip(path, path[1:]):
        curve += parent.step is not node
        letters.append(Letter(node.piece, curve, node.sign))
    return letters


class TestPatterns:
    """The pattern trie that `enumerate_accepted_words` walks, built once
    from the word rules on symbolic letters."""

    def test_paths_end_by_six_letters(self):
        # The caps bound of the lemma of `higher_product_report`.
        paths = list(pattern_paths())
        assert len(paths) == 37
        assert max(len(path) for path in paths) == 6

    def test_five_closing_nodes(self):
        # The premise of the monotonicity lemma of `enumerate_accepted_words`.
        closing = {str(DiscWord(tuple(path_letters(path)))): path[-1].wrap
                   for path in pattern_paths() if path[-1].wrap is not None}
        assert closing == {
            "C0(+) C1(-) C2(+)": PointKind.ARC,
            "s0+(+) C0(+) C1(-) s1+(-) s2-(-)": PointKind.SEG_PM,
            "s0+(-) s1-(-) C1(-) C2(+) s2-(+)": PointKind.SEG_PM,
            "s0-(+) s1+(+) C1(+) C2(-) s2+(-)": PointKind.SEG_MP,
            "s0-(-) C0(-) C1(+) s1-(+) s2+(+)": PointKind.SEG_MP,
        }

    def test_one_jump_sign_per_node(self):
        # The sign laws of `_corner_kind` admit at most one jump sign, on
        # the symbolic letters of each path, and the trie keeps that jump
        # unless the caps stop it.
        for path in pattern_paths():
            letters = path_letters(path)
            last, node = letters[-1], path[-1]
            piece = ARC if last.piece == ARC else _OTHER_SEGMENT[last.piece]
            kinds = [(sign, _corner_kind(last, Letter(piece, last.curve + 1, sign), False)[0])
                     for sign in (1, -1)]
            admitted = [(sign, kind) for sign, kind in kinds if kind is not None]
            assert len(admitted) <= 1, letters
            if node.jump is not None:
                kind, child = node.jump
                assert admitted == [(child.sign, kind)] and child.piece == piece

    def test_enumeration_applies_no_rule_per_word(self, monkeypatch):
        # The rules ran once, at import; a search only looks points up.
        calls = Counter()
        for name in ("_corner_kind", "_shape", "_seg_jump_ok"):
            real = getattr(words, name)

            def counting(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(words, name, counting)
        found = [enumerate_accepted_words(Weights(a)) for a in pairs_up_to(12)]
        assert sum(map(len, found)) > 1000
        assert calls == Counter()


class TestTranslation:
    """The translation lemma of `enumerate_accepted_words`: the search from
    curve 0 and its shifted copies find what a search from every first
    curve finds, in the same order, with the same corners."""

    def test_matches_all_first_curves_search(self):
        # Every pair of the benchmark's sweep (a0 + a1 <= 20).
        for a in pairs_up_to(20):
            w = Weights(a)
            words = enumerate_accepted_words(w)
            assert {word.letters[0].curve for word in words} <= {0}, a
            assert shifted_copies(w, words) == all_first_curves_search(w), a

    @pytest.mark.parametrize("a", [(5, 31), (13, 27), (17, 19), (1, 39)])
    def test_matches_all_first_curves_search_large(self, a):
        # Pairs past the sweep, with a0 from 1 to about l / 2, so the
        # SEG_PM gaps start low, in the middle and high.
        w = Weights(a)
        assert shifted_copies(w, enumerate_accepted_words(w)) == all_first_curves_search(w)

    def test_shifted_corners_are_the_shared_points(self):
        # Every corner of a curve-0 word is the object of the gap row of
        # `w`, and each corner of a shifted copy, the point between the
        # copy's own curves, records what the word's corner records.
        w = Weights((2, 5))
        words = enumerate_accepted_words(w)
        copies = shifted_copies(w, words)
        assert {word.letters[0].curve for word in words} == {0}
        assert {word.letters[0].curve for word in copies} == set(range(w.l - 3))
        for word in words:
            for p in word.corners:
                assert p.j == 0 and gap_points(w, p.k)[0][p.kind] is p
        by_letters = {word.letters: word for word in words}
        for copy in copies:
            c = copy.letters[0].curve
            word = by_letters[tuple(Letter(x.piece, x.curve - c, x.sign) for x in copy.letters)]
            assert corner_facts(w, copy.corners) == corner_facts(w, word.corners)
            assert [(p.j, p.k) for p in copy.corners] == corner_pairs(copy.letters)


class TestOrbitForm:
    """`aside_digest` and `higher_product_report` read each curve-0 word as
    its translation orbit; they must give what the full word list of
    `shifted_copies` gives."""

    def test_matches_full_word_list(self, certificates):
        # Every certificate of the fixture (a0 + a1 <= 25), which holds
        # every pair of the benchmark's sweep.
        for a, cert in certificates.items():
            w = Weights(a)
            words = enumerate_accepted_words(w)
            full = shifted_copies(w, words)
            assert aside_digest(w, words) == aside_digest_reference(full) \
                == cert.aside_digest, a
            report = higher_product_report(w, words)
            assert report.ok and report.offenders == [], a
            assert report.accepted_count == len(full) \
                == cert.higher_products["accepted_count"], a
            assert report.counts_by_length == Counter(len(x.letters) for x in full), a

    def test_offender_counts_once_per_shift(self):
        # On the curves 0..3 of (2, 3), a four-corner word whose last letter
        # is on curve 2 stands for its copies at shifts 0 and 1: both are
        # counted, it is listed once, and the digest skips it.
        words = enumerate_accepted_words(W23)
        word = next(x for x in words if x.letters[-1].curve == 2)
        square = DiscWord(word.letters, word.corners + word.corners[:1])
        report = higher_product_report(W23, words + [square])
        full = shifted_copies(W23, words)
        assert not report.ok and report.offenders == [square]
        assert report.accepted_count == len(full) + 2
        assert report.counts_by_length == {3: 4 + 2, 5: 2}
        assert aside_digest(W23, words + [square]) == aside_digest_reference(full)


class TestLengthBound:
    def test_search_reaches_no_word_past_five_letters(self):
        # The lemma of higher_product_report: the caps and gap conditions
        # stop the search at 5 letters.
        lengths = set()
        for a in pairs_up_to(12):
            lengths |= {len(word) for word in closable_words(Weights(a), 12)}
        assert lengths == {2, 3, 4, 5}

    def test_rules_accept_no_word_of_six_to_eight_letters(self):
        # Without the caps and the three-segment cut the search reaches
        # thousands of closable words of 6-8 letters; the rules reject all.
        long_words = 0
        for a in pairs_up_to(10):
            w = Weights(a)
            for word in closable_words(w, 8, caps=False):
                if len(word) >= 6:
                    long_words += 1
                    assert word_rules(w, word)[0] is None, (a, word)
        assert long_words > 1000


class TestHigherProducts:
    @pytest.mark.parametrize("a", [(1, 2), (2, 3), (3, 4), (2, 7)])
    def test_vanish(self, a):
        w = Weights(a)
        report = higher_product_report(w, enumerate_accepted_words(w))
        assert report.ok
        assert all(length in (3, 5) for length in report.counts_by_length)
