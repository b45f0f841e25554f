"""Boundary words of holomorphic discs in the strip model.

A disc is recorded by reading the pieces of vanishing cycles along its
boundary: letters are half-circles C_i or segments s_{i+}, s_{i-}, each
signed by whether the boundary runs with (+) or against (-) the curve's
flow (upper marked endpoint towards lower marked endpoint).  Corners
between letters on different curves are the marked intersection points.

The classification rules reject every word that cannot bound a disc:
subscripts must be non-decreasing, letters on one curve must be traversed
consecutively in one direction, three consecutive segment letters never
occur, segment-only and single-half-circle words are impossible, and the
corner positions along each letter must be monotone for the letter's
direction (checked from exact coordinates).  The surviving words are the
all-half-circle triangle and the five-letter triangles with one arc pair,
which carry the product structure.
"""

from dataclasses import dataclass

from .strip import PointKind, intersections

SEG_PLUS = "s+"
ARC = "C"
SEG_MINUS = "s-"

_FLOW_ORDER = (SEG_PLUS, ARC, SEG_MINUS)

# (piece, sign) -> the next piece along the curve in that direction, or None.
_NEXT_PIECE = {
    (SEG_PLUS, 1): ARC, (ARC, 1): SEG_MINUS, (SEG_MINUS, 1): None,
    (SEG_MINUS, -1): ARC, (ARC, -1): SEG_PLUS, (SEG_PLUS, -1): None,
}


@dataclass(frozen=True)
class Letter:
    piece: str  # "s+", "C", "s-"
    curve: int
    sign: int   # +1 with the flow, -1 against

    def __post_init__(self):
        if self.piece not in _FLOW_ORDER:
            raise ValueError(f"unknown piece {self.piece!r}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.curve < 0:
            raise ValueError(f"negative curve index {self.curve}")

    def __str__(self):
        mark = "+" if self.sign > 0 else "-"
        if self.piece == ARC:
            return f"C{self.curve}({mark})"
        return f"s{self.curve}{self.piece[1]}({mark})"


@dataclass(frozen=True)
class DiscWord:
    letters: tuple
    corners: tuple = ()

    def __str__(self):
        return " ".join(str(x) for x in self.letters)

    @property
    def corner_count(self):
        return len(self.corners)


class MalformedWord(ValueError):
    """The letters do not form a syntactically valid word at all."""


# Point kind -> the pieces (lower curve, upper curve) that cross there.
_KIND_PIECES = {
    PointKind.ARC: (ARC, ARC),
    PointKind.SEG_PM: (SEG_PLUS, SEG_MINUS),
    PointKind.SEG_MP: (SEG_MINUS, SEG_PLUS),
}


def _point_table(w):
    """The intersection points of curves lo < hi, keyed by the pieces
    (lower, upper) that cross there, as a lookup that builds each pair once
    and lives as long as the caller keeps it."""
    table = {}

    def points(lo, hi):
        found = table.get((lo, hi))
        if found is None:
            found = table[lo, hi] = {_KIND_PIECES[p.kind]: p
                                     for p in intersections(w, lo, hi)}
        return found

    return points


def _seg_jump_ok(prev, nxt):
    """Sign law for consecutive segment letters within the word: the pieces
    alternate and both run the same way, leaving s- with the flow or s+
    against it."""
    if prev.piece == SEG_MINUS and nxt.piece == SEG_PLUS:
        return prev.sign == 1 and nxt.sign == 1
    if prev.piece == SEG_PLUS and nxt.piece == SEG_MINUS:
        return prev.sign == -1 and nxt.sign == -1
    return False


def _canonical_triangle(letters):
    """All-arc words: the flow convention makes the triangle (+,-,+); the
    reversed alternation (-,+,-) names the same disc and is accepted as an
    alias, normalized here."""
    signs = tuple(x.sign for x in letters)
    if signs == (1, -1, 1):
        return letters
    if signs == (-1, 1, -1):
        return tuple(Letter(x.piece, x.curve, -x.sign) for x in letters)
    return None


def _check_letters(w, letters):
    """Raise MalformedWord unless `letters` is a nonempty sequence of
    letters on the curves 0..l-2."""
    if not letters:
        raise MalformedWord("empty word")
    top = w.l - 2
    for x in letters:
        if not isinstance(x, Letter):
            raise MalformedWord(f"not a letter: {x!r}")
        if x.curve > top:
            raise MalformedWord(f"curve {x.curve} outside [0, {top}]")


def _word_rules(letters, points):
    """Core rule pipeline on a word of valid letters (see _check_letters).
    Returns (corners, None) on accept or (None, reason) on reject.
    `points` is the corner lookup of `_point_table`."""
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

    arc_positions = [i for i, x in enumerate(letters) if x.piece == ARC]
    if not arc_positions:
        return None, "segment-only disc"

    if len(arc_positions) == len(letters):
        # All-arc word: only the triangle closes up.
        if len(letters) != 3 or not curves[0] < curves[1] < curves[2]:
            return None, "endpoints both arcs"
        canon = _canonical_triangle(letters)
        if canon is None:
            return None, "orientation pairing"
        letters = canon
    else:
        if letters[0].piece == ARC and letters[-1].piece == ARC:
            return None, "endpoints both arcs"
        if len(arc_positions) != 2 or arc_positions[1] != arc_positions[0] + 1:
            return None, "orientation pairing"
        a, b = letters[arc_positions[0]], letters[arc_positions[1]]
        if a.curve == b.curve or a.sign == b.sign:
            return None, "orientation pairing"

    # Jump and wrap corners: consecutive letters on different curves and
    # the closing pair (last letter, first letter).
    last = len(letters) - 1
    # (prev_position, next_position, is_wrap)
    boundary_pairs = [(i, i + 1, False) for i in range(last) if curves[i] != curves[i + 1]]
    boundary_pairs.append((last, 0, True))

    corners = []
    for ip, inx, is_wrap in boundary_pairs:
        prev, nxt = letters[ip], letters[inx]
        lower, upper = (nxt, prev) if is_wrap else (prev, nxt)
        if prev.piece == ARC and nxt.piece == ARC:
            if prev.sign == nxt.sign and not is_wrap:
                return None, "orientation pairing"
        elif prev.piece != ARC and nxt.piece != ARC:
            if is_wrap:
                if prev.sign == nxt.sign:
                    return None, "orientation pairing"
            elif not _seg_jump_ok(prev, nxt):
                return None, "orientation pairing"
        else:
            return None, "missing corner"
        point = points(lower.curve, upper.curve).get((lower.piece, upper.piece))
        if point is None:
            return None, "missing corner"
        corners.append(point)

    # Boundary monotonicity: a letter whose neighbours both lie on other
    # curves enters at the corner of one boundary pair and leaves at the
    # corner of the next, and must pass the two in the direction of its
    # sign; positions compared exactly.  Along the flow a
    # half-circle meets its crossings with curves of decreasing index (the
    # crossing height is affine in the partner index), s- meets increasing
    # x and s+ decreasing x.  So a < b exactly when the letter runs from
    # its entering to its leaving corner with the flow.
    for k, (_, pos, _) in enumerate(boundary_pairs):
        nk = (k + 1) % len(corners)
        pin, pout = corners[k], corners[nk]
        if boundary_pairs[nk][0] != pos or pin is pout:
            continue
        x = letters[pos]
        if x.piece == ARC:
            a = pout.j if pout.k == x.curve else pout.k
            b = pin.j if pin.k == x.curve else pin.k
        elif x.piece == SEG_MINUS:
            a, b = pin.x, pout.x
        else:
            a, b = pout.x, pin.x
        if a == b or (a < b) != (x.sign > 0):
            return None, "non-monotone boundary"

    return tuple(corners), None


def classify_disc_word(w, word):
    """Accept or reject a boundary word; rejects carry the violated rule.

    Malformed input raises MalformedWord instead of classifying.
    """
    letters = tuple(word.letters) if isinstance(word, DiscWord) else tuple(word)
    _check_letters(w, letters)
    corners, reason = _word_rules(letters, _point_table(w))
    if corners is None:
        return False, reason
    return True, None


def enumerate_accepted_words(w, max_len=8, curves=None):
    """Exhaustively enumerate accepted words up to the given length.

    The search walks extendable letter sequences, pruning prefixes that can
    no longer satisfy the structural rules, and runs the full rule pipeline
    on every closable word.  Pure-arc words are emitted with the canonical
    (+,-,+) orientation only, so each disc appears exactly once.
    """
    if curves is None:
        curves = range(w.l - 1)
    curves = sorted(curves)
    # Every letter of the search lies on one of these curves, so the words
    # go to the rule core without a per-word letter check.
    if curves and not 0 <= curves[0] <= curves[-1] <= w.l - 2:
        raise MalformedWord(f"curves {curves} outside [0, {w.l - 2}]")
    accepted = []
    attempts = [0]
    points = _point_table(w)

    def may_extend(arc_count, seg_count, arc_adjacent_ok):
        if arc_count > 3:
            return False
        if seg_count and arc_count > 2:
            return False
        if seg_count and arc_count == 2 and not arc_adjacent_ok:
            return False
        return True

    interned = {}  # (piece, curve, sign) -> the one Letter of this call
    successor_table = {}  # Letter -> the letters that may follow it

    def letter(piece, curve, sign):
        found = interned.get((piece, curve, sign))
        if found is None:
            found = interned[piece, curve, sign] = Letter(piece, curve, sign)
        return found

    def close(stack):
        if stack[0].curve >= stack[-1].curve:
            return
        attempts[0] += 1
        corners, reason = _word_rules(stack, points)
        if corners is not None:
            accepted.append(DiscWord(stack, corners))

    def successors(last):
        found = successor_table.get(last)
        if found is not None:
            return found
        out = []
        nxt = _NEXT_PIECE[last.piece, last.sign]
        if nxt is not None:
            out.append(letter(nxt, last.curve, last.sign))
        for c2 in curves:
            if c2 <= last.curve:
                continue
            gap = c2 - last.curve
            if last.piece == ARC:
                # arc signs alternate; keep the canonical +,-,+ start
                out.append(letter(ARC, c2, -last.sign))
            elif last.piece == SEG_MINUS and last.sign == 1 and w.a[1] <= gap:
                out.append(letter(SEG_PLUS, c2, 1))
            elif last.piece == SEG_PLUS and last.sign == -1 and w.a[0] <= gap:
                out.append(letter(SEG_MINUS, c2, -1))
        found = successor_table[last] = tuple(out)
        return found

    def dfs(stack, arcs, seg_count, seg_run):
        """`arcs` holds the positions of the arc letters in `stack`."""
        close(stack)
        if len(stack) >= max_len:
            return
        for nxt in successors(stack[-1]):
            if nxt.piece == ARC:
                n_arcs, n_seg, n_run = arcs + (len(stack),), seg_count, 0
            else:
                n_arcs, n_seg, n_run = arcs, seg_count + 1, seg_run + 1
                if n_run >= 3:
                    continue
            adjacent = len(n_arcs) < 2 or (
                len(n_arcs) == 2 and n_arcs[1] == n_arcs[0] + 1)
            if not may_extend(len(n_arcs), n_seg, adjacent):
                continue
            dfs(stack + (nxt,), n_arcs, n_seg, n_run)

    for c in curves:
        for piece in _FLOW_ORDER:
            is_arc = piece == ARC
            for sign in (1,) if is_arc else (1, -1):
                dfs((letter(piece, c, sign),), (0,) if is_arc else (),
                    int(not is_arc), int(not is_arc))
    return accepted


def m2_product(w, p1, p0):
    """The two-fold product of composable intersection points, computed by
    searching for the accepted triangle word whose first two corners are
    p0 and p1; returns the output point or None for zero.

    p0 lies in Hom(L_i, L_j), p1 in Hom(L_j, L_k); the result lies in
    Hom(L_i, L_k).
    """
    if p0.k != p1.j:
        raise ValueError(
            f"points do not compose: p0 targets {p0.k}, p1 starts at {p1.j}"
        )
    i, j, k = p0.j, p0.k, p1.k
    results = []
    for word in enumerate_accepted_words(w, max_len=8, curves=(i, j, k)):
        if len(word.corners) != 3:
            continue
        c0, c1, out = word.corners
        if (c0.pair, c0.kind) == ((i, j), p0.kind) and \
           (c1.pair, c1.kind) == ((j, k), p1.kind):
            results.append(out)
    if not results:
        return None
    if len(results) > 1:
        raise ArithmeticError(
            f"multiple discs for one product: {p0} * {p1}"
        )
    return results[0]


@dataclass
class HigherProductReport:
    ok: bool
    max_word_len: int
    accepted_count: int
    counts_by_length: dict
    offenders: list


def higher_product_report(words, max_word_len):
    """Check that every accepted word of one enumeration bounded by
    `max_word_len` is a triangle (three corners), so no products beyond
    the two-fold one receive contributions."""
    if max_word_len < 6:
        raise ValueError("word-length bound below 6 cannot cover the triangles")
    counts = {}
    offenders = []
    for word in words:
        counts[len(word.letters)] = counts.get(len(word.letters), 0) + 1
        if len(word.corners) != 3:
            offenders.append(word)
    return HigherProductReport(
        ok=not offenders,
        max_word_len=max_word_len,
        accepted_count=len(words),
        counts_by_length=counts,
        offenders=offenders,
    )


def higher_products_vanish(w, max_word_len=8):
    """Enumerate all accepted words up to the length bound and report
    whether every one is a triangle."""
    return higher_product_report(
        enumerate_accepted_words(w, max_len=max_word_len), max_word_len)
