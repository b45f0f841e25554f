"""Boundary words of holomorphic discs in the strip model.

A disc is recorded by reading the pieces of vanishing cycles along its
boundary: letters are half-circles C_i or segments s_{i+}, s_{i-}, each
signed by whether the boundary runs with (+) or against (-) the curve's
flow (upper marked endpoint towards lower marked endpoint).  Corners
between letters on different curves are the marked intersection points.

The classification rules reject every word that cannot bound a disc:
subscripts must be non-decreasing, letters on one curve must be traversed
consecutively in one direction, three consecutive segment letters never
occur, segment-only and single-half-circle words are impossible, and
each corner point must exist.  The corner positions along each letter are
then monotone for the letter's direction, by the monotonicity lemma of
`enumerate_accepted_words`, so the search checks no corner order.  The
surviving words are the all-half-circle triangle and the five-letter
triangles with one arc pair, which carry the product structure.
"""

from dataclasses import dataclass
from typing import NamedTuple

from .strip import PointKind, gap_points

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
    corners: tuple = ()  # each the point of its gap d (j = 0, k = d), not on the word's curves

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


def _corner_kind(prev, nxt, is_wrap):
    """The kind of the corner where `prev` hands over to `nxt`: a jump to a
    higher curve, or the wrap from the last letter back to the first.  It
    reads the pieces and signs alone.  Returns (kind, None), or (None,
    reason) when the two letters cannot meet at a point of any kind."""
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
    kind = _PIECES_KIND.get((lower.piece, upper.piece))
    if kind is None:
        return None, "missing corner"
    return kind, None


class _Pattern(NamedTuple):
    """A node of `_PATTERNS`: the last letter of a letter pattern, by its
    piece and sign, and what the word rules let follow it."""

    piece: str
    sign: int
    wrap: object   # the kind of its wrap corner, or None
    step: object   # the child pattern one step along the curve, or None
    jump: object   # (kind, child pattern) of its one jump, or None


def _pattern(letters, arcs, seg_run):
    """The node of `_PATTERNS` for `letters`, symbolic letters whose curve is
    the number of jumps before them; `arcs` are the positions of its arc
    letters and `seg_run` the number of segments that end it."""
    first, last = letters[0], letters[-1]
    wrap = None
    if first.curve < last.curve and _shape(letters, arcs) is None:
        wrap = _corner_kind(last, first, True)[0]

    def child(nxt):
        """The pattern that `nxt` extends `letters` to, or None past the
        caps: at most three arcs, and with any segment at most two,
        adjacent; no three consecutive segments."""
        if nxt.piece == ARC:
            n_arcs, n_run = arcs + (len(letters),), 0
        else:
            n_arcs, n_run = arcs, seg_run + 1
        if n_run >= 3 or len(n_arcs) > 3:
            return None
        has_segment = len(n_arcs) <= len(letters)
        if has_segment and len(n_arcs) > 1 and n_arcs != (n_arcs[0], n_arcs[0] + 1):
            return None
        return _pattern(letters + (nxt,), n_arcs, n_run)

    piece = _NEXT_PIECE[last.piece, last.sign]
    step = None if piece is None else child(Letter(piece, last.curve, last.sign))
    # A jump meets an arc from an arc, the other segment from a segment,
    # with the sign that the sign laws of `_corner_kind` leave.
    piece = ARC if last.piece == ARC else _OTHER_SEGMENT[last.piece]
    jumps = []
    for sign in (1, -1):
        nxt = Letter(piece, last.curve + 1, sign)
        kind = _corner_kind(last, nxt, False)[0]
        found = None if kind is None else child(nxt)
        if found is not None:
            jumps.append((kind, found))
    # The sign laws leave one jump sign at most; a second fails here, at import.
    [jump] = jumps or [None]
    return _Pattern(last.piece, last.sign, wrap, step, jump)


# The letter patterns that the word rules admit, as a trie of roots, one
# per first letter on curve 0, in search order.  Pure-arc words start at
# C(+) only, so each arc triangle appears once, in the canonical (+,-,+)
# orientation.
_PATTERNS = tuple(_pattern((Letter(piece, 0, sign),), (0,) if piece == ARC else (),
                           int(piece != ARC))
                  for piece in _FLOW_ORDER for sign in ((1,) if piece == ARC else (1, -1)))


def enumerate_accepted_words(w):
    """Exhaustively enumerate the accepted words on the curves 0..l-2, one
    per translation orbit: the words whose first letter is on curve 0.

    The search walks the pattern trie `_PATTERNS` with the curve c of the
    last letter.  A step keeps c; a jump of kind K runs over the gaps d at
    which a point of kind K exists, while c + d <= l-2.  A pattern closes
    at gap c when its wrap kind exists there.  Every corner of gap d is
    the point of the pair (0, d), read once per call from `gap_points`.

    Lemma (patterns).  Every rule but the existence of a corner point
    reads only the pieces and signs of a word and the order of
    its curves: the caps, the three-segment cut, the steps of
    `_NEXT_PIECE`, the sign laws and the corner kind of `_corner_kind`,
    and `_shape`.  Along a word the curve stays on a step and rises on a
    jump, so the order of curves is that of the number of jumps before
    each letter.  `_shape` compares the curves of two consecutive arcs
    only, and an arc steps to a segment, so two consecutive arcs are
    always a jump and lie on different curves.  So the rules give the
    same answer on symbolic letters whose curve is the number of jumps
    before them, and `_PATTERNS`, built once from those, holds every
    admitted word shape.  The caps stop every pattern at 6 letters.

    Lemma (monotonicity).  Each letter of a word the search returns passes
    the corners it is entered and left at in the direction of its sign:
    along the flow a half-circle meets its crossings with curves of
    decreasing index, s- meets increasing x and s+ decreasing x.  So no
    corner order is checked.  Write the curves as jump counts, with jump
    gaps d1, d2 and c = d1 + d2 <= l-2.  `_PATTERNS` has exactly five
    closing nodes, one under each root, and every letter but those named
    here is entered or left by a step, so meets one corner at most:
      C0(+) C1(-) C2(+): each arc meets the other two curves, of indices
        0 < d1 < c, in the order of its sign;
      s+0(+) C0(+) C1(-) s+1(-) s-2(-): the last letter needs
        x_pm(d2) > x_pm(c);
      s+0(-) s-1(-) C1(-) C2(+) s-2(+): the first letter needs
        x_pm(d1) > x_pm(c);
      s-0(+) s+1(+) C1(+) C2(-) s+2(-): the first letter needs
        x_mp(d1) > x_mp(c);
      s-0(-) C0(-) C1(+) s-1(+) s+2(+): the last letter needs
        x_mp(d2) > x_mp(c).
    Here x_pm(g) = (l-1-g)/(a1-a0+g), from `_seg_pm_x`, and
    x_mp(g) = (l-1-g)/(g-a1+a0), from `_seg_mp_x`.  Each strictly
    decreases on its existence range, g >= a0 and g >= a1 respectively, up
    to l-2: its numerator is positive and falling, its denominator
    positive and rising.  Since c > d1 and c > d2, every order holds.

    Lemma (translation).  Shifting every curve index by c maps the search
    from curve 0 onto the search from curve c, cut at curve l-2: whether a
    point of a kind exists, its x (`_seg_pm_x`, `_seg_mp_x`) and its
    `maslov_degree` depend only on the gap k - j.  So each gap's points
    are read once, from the pair (0, d).  Curves never decrease along a
    word, so the words from curve c are the curve-0 words whose last
    letter lies on a curve <= l-2-c, shifted by c, in the same order.  So
    the search runs from curve 0 only, and each word it returns stands for
    its orbit, its copies shifted by c = 0 .. l-2-top, where top is the
    curve of its last letter.
    """
    top = w.l - 2
    # points[d]: the points of gap d by kind, the corner of every jump of gap d.
    points = [None] + [gap_points(w, d)[0] for d in range(1, top + 1)]
    # kind -> the gaps, ascending, at which a point of that kind exists.
    gaps = {kind: [d for d in range(1, top + 1) if kind in points[d]] for kind in PointKind}
    accepted = []
    # (piece, sign) -> the one Letter of this call on each curve 0..l-2.
    letters = {(piece, sign): [Letter(piece, c, sign) for c in range(top + 1)]
               for piece in _FLOW_ORDER for sign in (1, -1)}

    def walk(node, c, stack, corners):
        """`corners` holds the jump corners of `stack`."""
        _, _, wrap, step, jump = node
        if wrap is not None:
            point = points[c].get(wrap)
            if point is not None:
                accepted.append(DiscWord(stack, corners + (point,)))
        if step is not None:
            walk(step, c, stack + (letters[step.piece, step.sign][c],), corners)
        if jump is not None:
            kind, child = jump
            row = letters[child.piece, child.sign]
            for d in gaps[kind]:
                if c + d > top:
                    break
                walk(child, c + d, stack + (row[c + d],), corners + (points[d][kind],))

    for root in _PATTERNS:
        walk(root, 0, (letters[root.piece, root.sign][0],), ())
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
    between runs of at most two segments: 6 letters at most, the longest
    path of `_PATTERNS`.
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
