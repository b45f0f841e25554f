"""Cross-verification of the two sides and the machine-checkable certificate.

A certificate for a weight pair records, for every ordered object pair, the
per-degree dimensions on both sides; the full multiplication tables of both
algebras as order-independent digests; the higher-product report; and the
resolution-oracle comparison.  The certificate passes only if every
component check passes, and flipping any single structure constant on
either side flips it to fail.
"""

import hashlib
import itertools
import marshal
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from types import MappingProxyType

from . import __version__
from .aside import enumerate_accepted_words, higher_product_report, hom_space
from .bside import compose_dual, dual_ext, verify_prop6_via_resolution
from .weights import Weights

# The payload's "max_word_len" field.  The search has no length bound (its
# caps stop every pattern at 6 letters, and the length-bound lemma of
# `higher_product_report` every accepted word at 5); the value is kept
# because every recorded digest hashes it.
MAX_WORD_LEN = 8

CONVENTIONS = {
    "object_identification": "curve k on the A-side corresponds to the simple module at k",
    "weight_convention": "morphism weight = (target - source) + cohomological degree",
    "orientation_convention": "letter signs follow the curve flow from the upper to the lower end",
}


class DigestTable:
    """A digest table: the entries `((i, j, k), J0, J1, Jout, c)` of every
    triple i < j < k < n_objects, one per tail in the sorted list
    `tails[j - i, k - j]` of its gaps, so both digests come out sorted with
    no sort of the whole table.  It keeps only `n_objects` and its gap
    table, read-only, without empty tails or gaps that fit no triple.
    `json_chunks` formats it from the gap table, and two tables are equal
    when their gap tables are; against a list, it compares its entries.
    Entries are made on demand, by iteration in sorted order, and `len`
    counts them; a changed copy is a plain `list(table)`.
    """

    __slots__ = ("n_objects", "tails")

    def __init__(self, n_objects, tails):
        self.n_objects = n_objects
        self.tails = MappingProxyType({(g0, g1): tuple(tail) for (g0, g1), tail in tails.items()
                                       if tail and 0 < g0 and 0 < g1 and g0 + g1 < n_objects})

    def __iter__(self):
        n, tails = self.n_objects, self.tails
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    tail = tails.get((j - i, k - j))
                    if tail:
                        triple = (i, j, k)  # one tuple shared by the triple's entries
                        for rest in tail:
                            yield (triple, *rest)

    def __len__(self):
        # Gaps (g0, g1) fit the n_objects - g0 - g1 triples (i, i + g0, i + g0 + g1).
        return sum(len(tail) * (self.n_objects - g0 - g1)
                   for (g0, g1), tail in self.tails.items())

    def __eq__(self, other):
        if type(other) is DigestTable:
            # Equal nonempty gap tables make equal entries only for one size.
            return self.tails == other.tails and (
                self.n_objects == other.n_objects or not self.tails)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented


def aside_digest(w, words):
    """Sorted nonzero two-fold product table of the Fukaya side, from the
    accepted words of one enumeration: each accepted triangle contributes
    exactly one structure constant +1, keyed by the triple and the three
    point labels.

    Each word stands for its orbit (`enumerate_accepted_words`), whose
    copies reach every triple with its gaps (g0, g1) with the same labels,
    so a triangle gives one tail (J0, J1, Jout, 1) to the gaps of its two
    jump corners, each the point of its gap (`gap_points`).  Entries
    on both sides have one form, `((i, j, k), J0, J1, Jout, c)` with int
    tuples, from construction to the encoded certificate.
    """
    tails = {}  # (j - i, k - j) -> sorted (subset0, subset1, subset, 1)
    for word in words:
        if len(word.corners) != 3:
            continue
        p0, p1, out = word.corners
        tails.setdefault((p0.k - p0.j, p1.k - p1.j), []).append(
            (p0.label.subset, p1.label.subset, out.label.subset, 1))
    for tail in tails.values():
        tail.sort()
    return DigestTable(w.l - 1, tails)


def bside_digest(w):
    """Sorted nonzero truncated-wedge product table of the dual algebra,
    over the same index triples and labels.

    The basis of `dual_ext(w, k, i)` depends only on the span k - i and
    grows with it, so each subset has a first span, read from those bases.
    A triple (i, j, k) multiplies J0 from span j - i by J1 from span k - j.
    The truncation never binds inside a triple: a_J0 <= j - i and a_J1 <=
    k - j, so the wedge has weight <= k - i.  The product of a triple thus
    depends on (J0, J1) alone, and each ordered subset pair that fits some
    gap pair gets one `compose_dual`, at its least span.  The nonzero
    products (J0, J1, Jout, sign) are sorted once, and each gap pair's
    tail is the sublist of those whose subsets fit its gaps, so every tail
    comes out sorted.  That sublist is fixed by the largest least gaps
    e0 <= gap0 and e1 <= gap1 that some product has, so it is built once
    per (e0, e1) and shared by the gap pairs with those floors; the
    products are filtered by e0 once, and each e1 filters that list.
    """
    n_objects = w.l - 1
    least_gap = {}  # subset -> the least gap >= 1 whose dual_ext basis holds it
    for span in range(n_objects):
        for _, e in dual_ext(w, span, 0).basis:
            least_gap.setdefault(e.subset, max(span, 1))
    products = []  # ((subset0, subset1, subset, sign), least gap0, least gap1)
    for J0, g0 in least_gap.items():
        for J1, g1 in least_gap.items():
            if g0 + g1 < n_objects:
                found = compose_dual(w, g0 + g1, J0, J1)
                if found is not None:
                    products.append(((J0, J1) + found, g0, g1))
    products.sort()
    firsts = {g0 for _, g0, _ in products}, {g1 for _, _, g1 in products}
    # (e0, e1) -> the products whose least gaps fit it; these are the floors of gap pair (e0, e1)
    built = {}
    for e0 in firsts[0]:
        fit0 = [(p, g1) for p, g0, g1 in products if g0 <= e0]
        for e1 in firsts[1]:
            if e0 + e1 < n_objects:
                built[e0, e1] = tuple([p for p, g1 in fit0 if g1 <= e1])
    floor0, floor1 = ([max([e for e in es if e <= gap], default=0) for gap in range(n_objects)]
                      for es in firsts)
    tails = {(gap0, gap1): built.get((floor0[gap0], floor1[gap1]), ())
             for gap0 in range(1, n_objects) for gap1 in range(1, n_objects - gap0)}
    return DigestTable(n_objects, tails)


def json_chunks(value):
    """Yield the text of `json.dumps(value, sort_keys=True, indent=2)` for
    values made of dicts with str keys, lists, `DigestTable`s, tuples, str,
    int, bool, None and float, a Fraction as {"den": str, "num": str} and a
    complex as {"im": float, "re": float} (any other type raises TypeError),
    in chunks: one per key and per value of a dict `value`, and for a digest
    table one per first index i of its triples and one for its closing
    bracket.  Every command writes its JSON from these chunks.

    The C encoder of `json` ignores `indent`, so `json.dumps` would run its
    pure-Python encoder here, at about three times the cost.  Instead each
    list and dict is formatted once per indent level, in a table that lives
    for one call, so the dimension-table entry that one gap shares is
    formatted once.  A `DigestTable` is formatted from its gap table: each
    distinct tail `(J0, J1, Jout, c)` once per level, each triple's head
    once, and the entries of a triple in one join of its head with the
    texts of its gaps' tails.  Two tables with equal gap tables, the two
    digests of a passing certificate, are formatted once.  The memo is
    keyed by marshal bytes, which tell True from 1 and a tuple from a list
    where equality does not; version 2 writes no back-references, so equal
    values of one type give equal bytes.
    """
    texts = {}  # (formatter, level, marshal bytes of the key) -> its text or chunks

    def memo(o, key, level, fmt):
        if not level:  # the whole value, met once
            return fmt(o, level)
        try:
            key = fmt, level, marshal.dumps(key, 2)
        except ValueError:  # a type marshal cannot write; encode rejects it
            return fmt(o, level)
        text = texts.get(key)
        if text is None:
            text = texts[key] = fmt(o, level)
        return text

    def encode(o, level):
        t = type(o)
        if t is tuple:
            return sequence(o, level)
        if t is int:
            return int.__repr__(o)
        if t is str:
            return encode_basestring_ascii(o)
        if t is list:
            return memo(o, o, level, sequence)
        if t is dict:
            return memo(o, o, level, mapping)
        if t is DigestTable:
            return "".join(chunks(o, level))
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        # The types of the other commands, tested after every certificate type.
        if isinstance(o, float):
            text = float.__repr__(o)
            return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)
        if isinstance(o, Fraction):
            return encode({"den": str(o.denominator), "num": str(o.numerator)}, level)
        if isinstance(o, complex):
            return encode({"im": o.imag, "re": o.real}, level)
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")

    def chunks(o, level):  # a digest table's chunks, or the whole text of o
        if type(o) is DigestTable:
            return memo(o, (o.n_objects, sorted(o.tails.items())), level, table)
        return (encode(o, level),)

    def sequence(o, level):
        if not o:
            return "[]"
        newline = "\n" + "  " * (level + 1)
        return ("[" + newline
                + ("," + newline).join([encode(x, level + 1) for x in o])
                + newline[:-2] + "]")

    def mapping(o, level):
        return "".join(items(o, level))

    def items(o, level):
        newline = "\n" + "  " * (level + 1)
        lead = "{" + newline
        for k, v in sorted(o.items()):
            # encode_basestring_ascii raises TypeError on a key that is not a str.
            yield lead + encode_basestring_ascii(k) + ": "
            yield from chunks(v, level + 1)
            lead = "," + newline
        yield newline[:-2] + "}" if o else "{}"

    def after_triple(tail, level):  # an entry's text from the "," after its triple
        return "," + sequence(tail, level)[1:]

    def table(o, level):
        if not o:
            return ["[]"]
        newline = "\n" + "  " * (level + 1)
        sep = "," + newline
        # An entry's text up to the end of its triple (i, j, k): i's start, then ends[j][k].
        inner = "," + newline + "    "
        n = o.n_objects
        ends = [[f"{j}{inner}{k}{newline}  ]" for k in range(n)] for j in range(n)]
        by_tail = {}  # id of a tail of the gap table -> the texts of its entries after the triple
        for tail in o.tails.values():
            if id(tail) not in by_tail:
                by_tail[id(tail)] = [memo(x, x, level + 1, after_triple) for x in tail]
        rests_of = {gaps: by_tail[id(tail)] for gaps, tail in o.tails.items()}
        out, lead = [], "[" + newline
        for i in range(n):
            start = f"[{newline}  [{newline}    {i}{inner}"
            row = []
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    rests = rests_of.get((j - i, k - j))
                    if rests:
                        head = start + ends[j][k]
                        row.append(head + (sep + head).join(rests))
            if row:
                out.append(lead + sep.join(row))
                lead = sep
        return out + [newline[:-2] + "]"]

    yield from items(value, 0) if type(value) is dict else chunks(value, 0)


@dataclass
class Certificate:
    weights: tuple
    l: int
    dim_table: dict        # "j,k" -> {"aside": {...}, "bside": {...}}
    aside_digest: DigestTable  # a plain list once `corrupt` has changed it
    bside_digest: DigestTable
    higher_products: dict
    resolution_check: dict
    conventions: dict
    passed: bool
    failures: list
    timestamp: str
    tool_version: str = __version__

    def _json_chunks(self, timestamp):
        return json_chunks({k: v for k, v in vars(self).items() if timestamp or k != "timestamp"})

    def to_json(self, include_timestamp=True):
        """The JSON text of every field, without the timestamp on request."""
        return "".join(self._json_chunks(include_timestamp))

    def digest(self):
        """Content hash of `to_json(include_timestamp=False)`, chunk by chunk."""
        h = hashlib.sha256()
        for chunk in self._json_chunks(False):
            h.update(chunk.encode())
        return h.hexdigest()


def _digest_mismatch(dig_a, dig_b):
    """The failure reason for two sorted digests that differ: the first
    entry, in sorted order, whose constant differs, read as absent on a
    side that lacks it."""
    pair = next(p for p in itertools.zip_longest(dig_a, dig_b) if p[0] != p[1])
    key = min(e[:4] for e in pair if e is not None)
    aside_c, bside_c = (e[4] if e is not None and e[:4] == key else "absent" for e in pair)
    triple, J0, J1, Jout = key
    return (f"composition digests differ at triple {triple}: J0 {J0} J1 {J1} Jout {Jout}, "
            f"aside {aside_c}, bside {bside_c}")


def hms_certificate(w, corrupt=None):
    """Build the full certificate for one weight pair.

    `corrupt` is the mutation-testing hook: ("aside"|"bside", index) bumps
    one structure constant of the chosen digest before comparison.
    """
    if not isinstance(w, Weights):
        w = Weights(w)
    failures = []
    # Held as a tuple, which a size past the memory cannot allocate: such an
    # input raises MemoryError here, before any work.
    objects = tuple(range(w.l - 1))
    # Both sides depend only on the gap k - j (the translation lemma of
    # `enumerate_accepted_words`), so each basis is built once per gap, the
    # dual one once per signed span.  The dimension table and the word
    # search read each gap's intersections from the one row on `w`.
    dual = {s: dual_ext(w, max(s, 0), max(-s, 0)) for s in range(2 - w.l, w.l - 1)}

    by_gap = []  # gap -> (dim_table entry, A-side dims, B-side dims, labels agree)
    for gap in objects:
        hom_a, hom_b = hom_space(w, 0, gap), dual[gap]
        da, db = hom_a.dims_by_degree, hom_b.dims_by_degree
        by_gap.append(({"aside": {str(d): v for d, v in sorted(da.items())},
                        "bside": {str(d): v for d, v in sorted(db.items())}}, da, db,
                       sorted(lab.subset for _, lab in hom_a.basis)
                       == sorted(lab.subset for _, lab in hom_b.basis)))

    dim_table = {}
    for j in objects:
        for k in range(j, w.l - 1):
            entry, da, db, labels_ok = by_gap[k - j]
            dim_table[f"{j},{k}"] = entry
            if da != db:
                failures.append(f"dimension mismatch at pair ({j},{k}): {da} vs {db}")
            if not labels_ok:
                failures.append(f"label mismatch at pair ({j},{k})")

    # One enumeration serves both the triangle digest and the higher-product
    # report.
    words = enumerate_accepted_words(w)
    hp = higher_product_report(w, words)
    dig_a = aside_digest(w, words)
    dig_b = bside_digest(w)
    if corrupt is not None:
        side, idx = corrupt
        target = list(dig_a if side == "aside" else dig_b)  # a DigestTable cannot change
        if target:
            triple, J0, J1, Jout, c = target[idx % len(target)]
            target[idx % len(target)] = triple, J0, J1, Jout, c + 1
        if side == "aside":
            dig_a = target
        else:
            dig_b = target
    if dig_a != dig_b:
        failures.append(_digest_mismatch(dig_a, dig_b))

    higher = {
        "ok": hp.ok,
        "max_word_len": MAX_WORD_LEN,
        "accepted_count": hp.accepted_count,
        "counts_by_length": {str(k): v for k, v in sorted(hp.counts_by_length.items())},
    }
    if not hp.ok:
        failures.append("higher products do not vanish: "
                        + "; ".join(str(x) for x in hp.offenders[:3]))

    # The oracle, like `dual`, depends only on the signed span k - i, so it
    # is compared once per span and a disagreement listed at each (k, i).
    res_agrees = {s: verify_prop6_via_resolution(w, max(s, 0), max(-s, 0)).basis == hom.basis
                  for s, hom in dual.items()}
    res_ok = all(res_agrees.values())
    failures += [f"resolution oracle disagrees at (k={k}, i={i})"
                 for k in objects for i in objects if not res_agrees[k - i]]

    return Certificate(
        weights=tuple(w.a),
        l=w.l,
        dim_table=dim_table,
        aside_digest=dig_a,
        bside_digest=dig_b,
        higher_products=higher,
        resolution_check={"ok": res_ok},
        conventions=dict(CONVENTIONS),
        passed=not failures,
        failures=failures,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )


@dataclass
class SweepSummary:
    l_max: int
    results: list = field(default_factory=list)  # (weights, l, passed)

    @property
    def all_passed(self):
        return all(p for _, _, p in self.results)

    def to_csv(self):
        lines = ["weights,l,passed"]
        for weights, l, passed in self.results:
            lines.append(f"{'|'.join(map(str, weights))},{l},{passed}")
        return "\n".join(lines) + "\n"


def sweep(l_max):
    """One certificate per weight pair with a0 <= a1 and a0 + a1 <= l_max;
    deterministic order, order-insensitive summary."""
    if l_max < 2:
        raise ValueError("the sweep bound must be at least 2")
    summary = SweepSummary(l_max=l_max)
    for a0 in range(1, l_max):
        for a1 in range(a0, l_max - a0 + 1):
            cert = hms_certificate(Weights((a0, a1)))
            summary.results.append((cert.weights, cert.l, cert.passed))
    summary.results.sort()
    return summary
