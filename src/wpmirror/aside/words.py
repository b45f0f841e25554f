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

from .strip import PointKind, points_by_kind

SEG_PLUS = "s+"
ARC = "C"
SEG_MINUS = "s-"

_FLOW_ORDER = (SEG_PLUS, ARC, SEG_MINUS)

# (piece, sign) -> the next piece along the curve in that direction, or None.
_NEXT_PIECE = {
    (SEG_PLUS, 1): ARC, (ARC, 1): SEG_MINUS, (SEG_MINUS, 1): None,
    (SEG_MINUS, -1): ARC, (ARC, -1): SEG_PLUS, (SEG_PLUS, -1): None,
}
_OTHER_SEGMENT = {SEG_PLUS: SEG_MINUS, SEG_MINUS: SEG_PLUS}


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


# The pieces (lower curve, upper curve) that cross at a point -> its kind.
_PIECES_KIND = {
    (ARC, ARC): PointKind.ARC,
    (SEG_PLUS, SEG_MINUS): PointKind.SEG_PM,
    (SEG_MINUS, SEG_PLUS): PointKind.SEG_MP,
}


def _seg_jump_ok(prev, nxt):
    """Sign law for consecutive segment letters within the word: the pieces
    alternate and both run the same way, leaving s- with the flow or s+
    against it."""
    if prev.piece == SEG_MINUS and nxt.piece == SEG_PLUS:
        return prev.sign == 1 and nxt.sign == 1
    if prev.piece == SEG_PLUS and nxt.piece == SEG_MINUS:
        return prev.sign == -1 and nxt.sign == -1
    return False


def _shape(letters, arcs):
    """Word-shape rules, given the positions `arcs` of the arc letters.
    Returns the reason the word is rejected, or None.  An all-arc word
    passes as a triangle on increasing curves, whatever its orientation."""
    if not arcs:
        return "segment-only disc"
    if len(arcs) == len(letters):
        # All-arc word: only the triangle closes up.
        if len(letters) != 3 or not letters[0].curve < letters[1].curve < letters[2].curve:
            return "endpoints both arcs"
        return None
    if letters[0].piece == ARC and letters[-1].piece == ARC:
        return "endpoints both arcs"
    if len(arcs) != 2 or arcs[1] != arcs[0] + 1:
        return "orientation pairing"
    a, b = letters[arcs[0]], letters[arcs[1]]
    if a.curve == b.curve or a.sign == b.sign:
        return "orientation pairing"
    return None


def _corner(w, prev, nxt, is_wrap):
    """The corner where `prev` hands over to `nxt`: a jump to a higher
    curve, or the wrap from the last letter back to the first.  Returns
    (point, None), or (None, reason) when the two letters cannot meet."""
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
    lower, upper = (nxt, prev) if is_wrap else (prev, nxt)
    point = points_by_kind(w, lower.curve, upper.curve).get(
        _PIECES_KIND.get((lower.piece, upper.piece)))
    if point is None:
        return None, "missing corner"
    return point, None


def _monotone(letter, corner_in, corner_out):
    """Boundary monotonicity of a letter entered at `corner_in` and left at
    `corner_out`, both on other curves: the letter must pass the two in the
    direction of its sign; positions compared exactly.

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


def enumerate_accepted_words(w):
    """Exhaustively enumerate the accepted words on the curves 0..l-2, one
    per translation orbit: the words whose first letter is on curve 0.

    The search walks extendable letter sequences and prunes prefixes that
    can no longer satisfy the word rules of the module docstring.  It checks each jump
    corner once per letter edge and each letter's monotonicity when the
    jump that leaves it is pushed; a failure there stays in every extension,
    so the whole subtree goes.  A closable word then needs only the shape
    rules, its wrap corner and the monotonicity of the two letters that
    touch the wrap.  Pure-arc words are emitted with the canonical (+,-,+)
    orientation only, so each disc appears exactly once.  The caps stop
    every word at 5 letters (see `higher_product_report`).

    Lemma (translation).  Shifting every curve index by c maps the search
    from curve 0 onto the search from curve c, cut at curve l-2: `_corner`
    and `_monotone` read only the gap k - j (whether a point of a kind
    exists, and its x from `_seg_pm_x` or `_seg_mp_x`) or compare curve
    indices, whose order a shift keeps, and `maslov_degree` too reads only
    the gap.  Curves never decrease along a word, so the words from curve c
    are the curve-0 words whose last letter lies on a curve <= l-2-c,
    shifted by c, in the same order.  So the search runs from curve 0 only,
    and each word it returns stands for its orbit, its copies shifted by
    c = 0 .. l-2-top, where top is the curve of its last letter.
    """
    accepted = []

    def may_extend(arcs, seg_count):
        """Caps on a word that may still grow, given its arc positions: at
        most three arcs, and with any segment at most two, adjacent."""
        if len(arcs) > 3:
            return False
        if seg_count and len(arcs) > 1:
            return len(arcs) == 2 and arcs[1] == arcs[0] + 1
        return True

    # Tables of this call.  Letters are interned, so the tables key them by
    # id, which is cheaper than the dataclass hash.
    interned = {}  # (piece, curve, sign) -> the one Letter of this call
    successor_table = {}  # id(letter) -> ((next letter, jump corner or None), ...)
    # id(last) -> _corner(w, last, first, True) for the first letter of
    # the subtree being searched; cleared when the first letter changes.
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
        # An all-arc search word starts at C(+) and alternates, so it is
        # the canonical triangle once its shape passes.
        if _shape(stack, arcs) is not None:
            return
        found = wraps.get(id(last))
        if found is None:
            found = wraps[id(last)] = _corner(w, last, first, True)
        wrap = found[0]
        if wrap is None:
            return
        # Only the first and last letters touch the wrap corner; the search
        # checked every other letter's monotonicity as it pushed the jump
        # that leaves it.
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
        # A jump meets an arc from an arc, the other segment from a
        # segment; _corner decides the sign and whether the point exists.
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
        """`corners` holds the jump corners of `stack`, `arcs` the
        positions of its arc letters."""
        close(stack, corners, arcs)
        depth = len(stack)
        last = stack[-1]
        # The corner `last` was entered at, if it was entered by a jump.
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

    for piece in _FLOW_ORDER:
        is_arc = piece == ARC
        for sign in (1,) if is_arc else (1, -1):
            wraps.clear()
            dfs((letter(piece, 0, sign),), (), (0,) if is_arc else (),
                int(not is_arc), int(not is_arc))

    return accepted


@dataclass
class HigherProductReport:
    ok: bool
    accepted_count: int
    counts_by_length: dict
    offenders: list


def higher_product_report(w, words):
    """Check that every word of one enumeration is a triangle (three
    corners), so no products beyond the two-fold one receive contributions.

    Each of `words` stands for its orbit (`enumerate_accepted_words`) and
    is counted once per shift; `offenders` lists the words themselves.

    Lemma (length bound).  The search never builds a word of more than 5
    letters, so no accepted word has more; the search's caps and gap
    conditions set this bound.  The caps admit at most three arcs in an
    all-arc word and, once a segment occurs, at most two adjacent arcs
    between runs of at most two segments: 6 letters at most.
    A segment meets an arc only on its own curve, and a segment on another
    curve only by the jumps s-(+) s+(+), of gap at least a1, and
    s+(-) s-(-), of gap at least a0.  So a 6-letter word is
    s-(+) s+(+) C(+) C(-) s+(-) s-(-) or s+(-) s-(-) C(-) C(+) s-(+) s+(+),
    whose curves span at least a0 + a1 + 1 = l + 1, more than the curves
    0..l-2 allow.
    """
    counts = {}
    offenders = []
    for word in words:
        n = len(word.letters)
        counts[n] = counts.get(n, 0) + w.l - 1 - word.letters[-1].curve
        if len(word.corners) != 3:
            offenders.append(word)
    return HigherProductReport(
        ok=not offenders,
        accepted_count=sum(counts.values()),
        counts_by_length=counts,
        offenders=offenders,
    )
