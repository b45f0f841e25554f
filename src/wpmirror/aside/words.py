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

    @property
    def is_segment(self):
        return self.piece != ARC

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


def _next_piece(piece, sign):
    """The next piece along the curve in the given direction, or None."""
    order = _FLOW_ORDER if sign > 0 else _FLOW_ORDER[::-1]
    idx = order.index(piece)
    return order[idx + 1] if idx + 1 < len(order) else None


def _point_table(w):
    """The intersection points of curves lo < hi, keyed by kind, as a lookup
    that builds each pair once and lives as long as the caller keeps it."""
    table = {}

    def points(lo, hi):
        found = table.get((lo, hi))
        if found is None:
            found = table[lo, hi] = {p.kind: p for p in intersections(w, lo, hi)}
        return found

    return points


def _corner_point(points, lower, upper):
    """The intersection point between a letter on the lower curve and one
    on the upper curve, or None if those pieces never meet."""
    if lower.piece == ARC and upper.piece == ARC:
        kind = PointKind.ARC
    elif lower.piece == SEG_PLUS and upper.piece == SEG_MINUS:
        kind = PointKind.SEG_PM
    elif lower.piece == SEG_MINUS and upper.piece == SEG_PLUS:
        kind = PointKind.SEG_MP
    else:
        return None
    return points(lower.curve, upper.curve).get(kind)


def _seg_jump_ok(prev, nxt):
    """Sign law for consecutive segment letters within the word: the pieces
    alternate and both run the same way, leaving s- with the flow or s+
    against it."""
    if prev.piece == SEG_MINUS and nxt.piece == SEG_PLUS:
        return prev.sign == 1 and nxt.sign == 1
    if prev.piece == SEG_PLUS and nxt.piece == SEG_MINUS:
        return prev.sign == -1 and nxt.sign == -1
    return False


def _arc_height(w, curve, partner):
    """Twice the height of the half-circle crossing of two curves; exact."""
    center = lambda m: 2 * m + 1 - (w.l - 1)
    return center(curve) + center(partner)


def _seg_param(w, letter, point):
    """Position of a corner along a segment letter, increasing with the
    curve's flow."""
    x = point.x
    return x if letter.piece == SEG_MINUS else 1 - x


def _arc_param(w, letter, point):
    """Position of a corner along a half-circle letter, increasing with the
    flow (which runs top to bottom)."""
    partner = point.j if point.k == letter.curve else point.k
    return -_arc_height(w, letter.curve, partner)


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


def _word_rules(w, letters, points):
    """Core rule pipeline on a word of valid letters (see _check_letters).
    Returns (corners, None) on accept or (None, reason) on reject.
    `points` is the corner lookup of `_point_table`."""
    curves = [x.curve for x in letters]
    if any(b < a for a, b in zip(curves, curves[1:])):
        return None, "non-decreasing subscripts"

    # Split into groups of consecutive letters on one curve and check that
    # each group walks its curve consecutively in a single direction.
    groups = []
    for i, x in enumerate(letters):
        if groups and groups[-1][-1][1].curve == x.curve:
            groups[-1].append((i, x))
        else:
            groups.append([(i, x)])
    for grp in groups:
        for (_, a), (_, b) in zip(grp, grp[1:]):
            if b.sign != a.sign or b.piece != _next_piece(a.piece, a.sign):
                return None, "orientation pairing"

    if len(groups) < 2:
        return None, "missing corner"

    run = 0
    for x in letters:
        run = run + 1 if x.is_segment else 0
        if run >= 3:
            return None, "three consecutive segments"

    arc_positions = [i for i, x in enumerate(letters) if x.piece == ARC]
    if not arc_positions:
        return None, "segment-only disc"

    if len(arc_positions) == len(letters):
        # All-arc word: only the triangle closes up.
        if len(letters) != 3 or len(groups) != 3:
            return None, "endpoints both arcs"
        canon = _canonical_triangle(letters)
        if canon is None:
            return None, "orientation pairing"
        letters = canon
        groups = [[(i, x)] for i, x in enumerate(letters)]
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
    boundary_pairs = []  # (prev_position, next_position, is_wrap)
    for grp, nxt in zip(groups, groups[1:]):
        boundary_pairs.append((grp[-1][0], nxt[0][0], False))
    boundary_pairs.append((groups[-1][-1][0], groups[0][0][0], True))

    corners = []
    for ip, inx, is_wrap in boundary_pairs:
        prev, nxt = letters[ip], letters[inx]
        if is_wrap:
            lower, upper = nxt, prev
        else:
            lower, upper = prev, nxt
        if prev.piece == ARC and nxt.piece == ARC:
            if prev.sign == nxt.sign and not is_wrap:
                return None, "orientation pairing"
        elif prev.is_segment and nxt.is_segment:
            if is_wrap:
                if prev.sign == nxt.sign:
                    return None, "orientation pairing"
            elif not _seg_jump_ok(prev, nxt):
                return None, "orientation pairing"
        else:
            return None, "missing corner"
        point = _corner_point(points, lower, upper)
        if point is None:
            return None, "missing corner"
        corners.append(point)

    # Boundary monotonicity: a letter carrying two corners must pass them
    # in the direction of its sign; positions compared exactly.  Letters are
    # keyed by position, since equal letters may be one shared object.
    enter = {}
    leave = {}
    for (ip, inx, _), corner in zip(boundary_pairs, corners):
        leave[ip] = corner
        enter[inx] = corner
    for pos, x in enumerate(letters):
        pin, pout = enter.get(pos), leave.get(pos)
        if pin is None or pout is None or pin is pout:
            continue
        param = _seg_param if x.is_segment else _arc_param
        t_in, t_out = param(w, x, pin), param(w, x, pout)
        if t_in == t_out or (t_out - t_in > 0) != (x.sign > 0):
            return None, "non-monotone boundary"

    return tuple(corners), None


def classify_disc_word(w, word):
    """Accept or reject a boundary word; rejects carry the violated rule.

    Malformed input raises MalformedWord instead of classifying.
    """
    letters = tuple(word.letters) if isinstance(word, DiscWord) else tuple(word)
    _check_letters(w, letters)
    corners, reason = _word_rules(w, letters, _point_table(w))
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
        corners, reason = _word_rules(w, stack, points)
        if corners is not None:
            accepted.append(DiscWord(stack, corners))

    def successors(last):
        found = successor_table.get(last)
        if found is not None:
            return found
        out = []
        nxt = _next_piece(last.piece, last.sign)
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
