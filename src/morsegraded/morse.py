"""Facet-order discrete Morse machinery on interval order complexes.

Faces of the open-interval complex are bitmasks over the interval's element
list.  Each facet owns the faces no earlier facet contains; within one
facet the matching toggles the lowest element of a distinguished skipped
interval.  One walk per interval yields the facets in facet order with
their skipped-interval systems (walk_systems).  Everything the theory
promises is re-verified at run time rather than trusted:

- each facet's new faces are exactly the transversals of its
  skipped-interval system.  Only the transversals are inserted, and
  lookups in the faces already owned certify the equality
  (build_face_matching);
- the matching is a perfect matching off the critical cells, and it is
  acyclic.  Both depend on a facet's shape (interior length and system)
  alone, so each shape is matched and checked once per basis, on rank
  subsets, in a table the basis holds for every interval of a command
  run, and the cycle search runs only on shapes whose pairs toggle more
  than one rank, which is exact (build_face_matching, _verify_shape);
  verify_acyclic searches from every matched face;
- the Groebner-read systems are the overlap-defined ones: checks (a) and
  (b) prove it up to which systems are empty, and the test of that is
  exact (characterization_certified).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import factorial, prod

from .chains import (
    Facet,
    FacetOrderConfig,
    facet_walk,
    interval_contents,
    is_run,
    maximal_overlaps,
    skipped_ranks,
)
from .errors import (
    AcyclicityFailure,
    CrossingViolation,
    InternalInvariantError,
    MorsegradedError,
)
from .groebner import GroebnerBasis, leading_ideal_member
from .orders import Monomial, content_monomial
from .semigroup import IntervalData, SemigroupPresentation, Vector


@dataclass(frozen=True)
class RankInterval:
    """Consecutive interior ranks [lo, hi] skipped by a maximal overlap."""

    lo: int
    hi: int
    kind: str = "overlap"  # descent | syzygy | overlap

    def span(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    @property
    def mask(self) -> int:
        """The ranks as a mask, bit r - 1 for rank r."""
        return (1 << self.hi) - (1 << (self.lo - 1))


def rank_mask(system) -> int:
    """The ranks a skipped-interval system covers, bit r - 1 for rank r."""
    covered = 0
    for iv in system:
        covered |= iv.mask
    return covered


@dataclass(frozen=True)
class CriticalCell:
    facet: Facet
    ranks: tuple[int, ...]
    elements: tuple[Vector, ...]
    is_base: bool = False

    @property
    def dimension(self) -> int:
        return len(self.ranks) - 1


def _assert_non_nested(spans, labels) -> None:
    for a in spans:
        for b in spans:
            if a != b and a[0] >= b[0] and a[1] <= b[1]:
                raise InternalInvariantError(
                    f"facet {labels}: nested skipped intervals {a} in {b}"
                )


# -- characterization from the Groebner data ---------------------------------


def _labels_of(facet_or_labels) -> tuple[int, ...]:
    return tuple(getattr(facet_or_labels, "labels", facet_or_labels))


def _lead_extremes(rank, lead: Monomial) -> tuple[int, int]:
    vars_ = [i for i, e in enumerate(lead) if e > 0]
    return min(vars_, key=lambda i: rank[i]), max(vars_, key=lambda i: rank[i])


class SyzygyWindows(dict):
    """The syzygy window predicate: window labels -> is it a syzygy window.

    A weakly increasing window of at least two labels is a syzygy window
    when its product carries a leading term whose extremal divisors sit at
    the window's endpoints, and dropping either endpoint label leaves a
    product no leading term divides (minimality).  The caller keeps the
    window weakly increasing; the answer depends on the window alone, so
    each window is tested once, on first read.  syzygy_windows keeps one
    table per basis and term order.

    firsts[x] holds the labels a window ending in label x can start with:
    the lowest-rank divisor of each lead whose highest-rank divisor is x.
    A window whose first label is not among them fails _is_window's own
    first test, so _skipped_steps looks up only the windows that pass it,
    and every lookup it skips would have read False.
    """

    def __init__(self, gb: GroebnerBasis, cfg: FacetOrderConfig):
        super().__init__()
        self.gb, self.n = gb, cfg.order.n
        rank = cfg.order.label_rank
        self.extremes = [(_lead_extremes(rank, b.plus), b.plus) for b in gb.elements]
        firsts: list[set[int]] = [set() for _ in range(self.n)]
        for (lo, hi), _ in self.extremes:
            firsts[hi].add(lo)
        self.firsts = [frozenset(f) for f in firsts]

    def __missing__(self, window) -> bool:
        hit = self[window] = self._is_window(window)
        return hit

    def _is_window(self, window) -> bool:
        prod = content_monomial(window, self.n)
        ends = (window[0], window[-1])
        if not any(
            extremes == ends and all(e <= p for e, p in zip(lead, prod))
            for extremes, lead in self.extremes
        ):
            return False
        prefix = content_monomial(window[:-1], self.n)
        suffix = content_monomial(window[1:], self.n)
        return not (
            leading_ideal_member(self.gb, prefix) or leading_ideal_member(self.gb, suffix)
        )


def syzygy_windows(gb: GroebnerBasis, cfg: FacetOrderConfig) -> SyzygyWindows:
    """The window table of gb under cfg's order, kept on gb once made."""
    tables = gb.window_tables
    if cfg.order not in tables:
        tables[cfg.order] = SyzygyWindows(gb, cfg)
    return tables[cfg.order]


def _skipped_steps(rank, windows: SyzygyWindows, word, found=(), start=0, b=1):
    """Advance (found, start) through ranks b .. len(word) - 1 of word.

    found holds the skipped intervals of word that end at ranks 1 .. b - 1,
    as (lo, hi, kind) tuples, and start is the start of the weakly
    increasing run through label b - 1.  Rank b lies between labels b - 1
    and b.  A descent there is the interval [b, b] and starts a new run at
    b.  A weak ascent ends the syzygy intervals [a + 1, b] of the minimal
    weakly increasing runs word[a .. b] that are syzygy windows, a at or
    after the run start.  Rank b reads word[:b + 1] alone.  Only windows
    whose first label passes the table's firsts test are looked up.
    """
    for b in range(b, len(word)):
        if rank[word[b - 1]] > rank[word[b]]:
            found += ((b, b, "descent"),)
            start = b
        elif firsts := windows.firsts[word[b]]:
            for a in range(start, b):
                if word[a] in firsts and windows[word[a : b + 1]]:
                    found += ((a + 1, b, "syzygy"),)
    return found, start


def _checked_system(found, labels) -> tuple[RankInterval, ...]:
    """The intervals found for labels, sorted by span and checked non-nested.
    A rank ends one descent or syzygy intervals of distinct starts, so no
    two share a span, and the (lo, hi, kind) tuples sort by span."""
    out = sorted(found)
    _assert_non_nested([iv[:2] for iv in out], labels)
    return tuple([RankInterval(*iv) for iv in out])


def interned_system(systems: dict, found, labels) -> tuple[RankInterval, ...]:
    """The system of the intervals found, from systems (found -> system):
    built and nested-checked on first read, for labels, the first word read
    with them, and shared by every later word that found the same."""
    system = systems.get(found)
    if system is None:
        system = systems[found] = _checked_system(found, labels)
    return system


def msi_characterization(
    gb: GroebnerBasis, cfg: FacetOrderConfig, facet
) -> tuple[RankInterval, ...]:
    """Skipped intervals read off the labels alone: descents plus syzygy runs."""
    labels = _labels_of(facet)
    found, _ = _skipped_steps(cfg.order.label_rank, syzygy_windows(gb, cfg), labels)
    return _checked_system(found, labels)


def walk_systems(ivl: IntervalData, cfg: FacetOrderConfig, gb: GroebnerBasis, contents):
    """Yield (facet, shared, system) for every facet, in facet order.

    chains.facet_walk over contents, with _skipped_steps as its step, so
    system is the facet's msi_characterization and shared the prefix it
    shares with the previous facet.  Facets that find the same intervals
    share one system, built and nested-checked once; facets come in order,
    so a nested system names its first facet, as one call per facet would.
    """
    step = partial(_skipped_steps, cfg.order.label_rank, syzygy_windows(gb, cfg))
    systems: dict[tuple, tuple[RankInterval, ...]] = {}
    for facet, shared, (found, _) in facet_walk(ivl, cfg, contents, step):
        yield facet, shared, interned_system(systems, found, facet.labels)


def covering_search(gb: GroebnerBasis, cfg: FacetOrderConfig, counts, length: int):
    """Yield (word, system) for every word that has a critical cell
    (cell_intervals), at most `length` labels long, with label i used at
    most counts[i] times; system is the word's msi_characterization.

    Rank q (1 <= q < m) of a word of m labels lies between labels q-1 and
    q.  A depth-first search appends one label at a time, and each frame
    carries (found, run start, covered ranks), the ranks a mask as
    RankInterval.mask writes them: appending a label at position b takes
    _skipped_steps at rank b alone.  That rank reads word[:b + 1] alone, so
    the step a frame takes is the one msi_characterization takes at rank b
    of every word grown from it, and found is exactly that call's, tuple
    for tuple.  A descent covers its own rank and closes the run; a weak
    ascent at position b covers the ranks of every syzygy window (a, b)
    with a at or after the run start.  A word is yielded when its mask is
    all_ranks of its interior, which is cell_intervals' coverage test on
    the mask of the same intervals; the empty word is yielded too.  Words
    that find the same intervals share one system, built and nested-checked
    once (interned_system), as in walk_systems, so a nested system names
    the first word yielded with it.

    Two cuts drop a child with no cell below it, the child included.  Both
    rest on three facts: the intervals ending at ranks up to b are fixed
    once position b is filled; a descent covers only its own rank; and a
    syzygy window is weakly increasing, so it lies inside one run, and
    whether it is a window depends on its labels alone.

    - The descent cut.  A descent at rank b closes the run start .. b-1;
      when one of its ranks start+1 .. b-1 is uncovered, no later interval
      can cover it.  It reads only the ranks of the two labels and the
      parent's (start, covered), so it is decided before the step runs.
    - The window cut.  Let q be the lowest uncovered rank of the child's
      open run, ranks run+1 .. b.  A later interval that covers q is a
      window (a, b') with b' > b, lying inside q's run, so a is at or
      after the run start (run starts never move back) and a <= q-1: a is
      a position the child has already filled.  Its label word[a] is the
      lowest-rank divisor of a lead (SyzygyWindows.firsts), or the window
      fails _is_window's first test.  So when no position run .. q-1 holds
      a label of any firsts set, q stays uncovered in every extension.

    Both cuts test the union of the intervals, so they stay sound under any
    yield test that implies union coverage, such as one on J-intervals.

    One search serves a whole degree window (counts of `length` for every
    label) as well as one content (that content's counts and size).  The
    cuts and the search state depend on the prefix alone, not on the
    content a prefix is completed to, so the tree searched for a window is
    exactly the union of the trees searched for each of its contents, and
    a prefix shared by many contents is walked once.  Children are tried
    in increasing label order, so the words of each content come out in
    lexicographic order whichever way the search is bounded; a cut drops
    only subtrees that yield nothing, so the order of the other yields, and
    the word each system is interned under, do not move.
    """
    rank = cfg.order.label_rank
    windows = syzygy_windows(gb, cfg)
    step = partial(_skipped_steps, rank, windows)
    opener = frozenset().union(*windows.firsts)  # labels a window can start with
    systems: dict[tuple, tuple[RankInterval, ...]] = {}
    # the mask a word of b labels must reach: all ranks of its interior
    full = [all_ranks(b - 1) for b in range(length + 2)]
    # (word, remaining count per label, found, run start, covered rank mask,
    #  positions holding an opener label, bit a for position a)
    stack = [((), tuple(counts), (), 0, 0, 0)]
    while stack:
        word, left, found, start, covered, opens = stack.pop()
        b = len(word)  # the rank the next label closes
        if covered == full[b]:
            yield word, interned_system(systems, found, word)
        if b == length:
            continue
        if b:
            closed = (1 << (b - 1)) - (1 << start)  # ranks start+1 .. b-1
            # a label ranked below floor descends and closes a run left uncovered
            floor = rank[word[-1]] if covered & closed != closed else -1
        children = []
        for x, k in enumerate(left):
            if not k:
                continue
            grown = word + (x,)
            now, run, cov = found, start, covered
            if b:
                if rank[x] < floor:  # the descent cut
                    continue
                now, run = step(grown, found, start, b)
                if now is not found:  # the step found intervals at rank b
                    for lo, hi, _ in now[len(found) :]:
                        cov |= (1 << hi) - (1 << (lo - 1))  # RankInterval(lo, hi).mask
            if b + 1 < length:
                at = opens | (1 << b) if x in opener else opens
                if gap := ~cov & ((1 << b) - (1 << run)):  # uncovered ranks run+1 .. b
                    q = (gap & -gap).bit_length()
                    if not at & ((1 << q) - (1 << run)):  # the window cut
                        continue
                children.append((grown, left[:x] + (k - 1,) + left[x + 1 :], now, run, cov, at))
            elif cov == full[b + 1]:  # a leaf is yielded here, where its pop would
                yield grown, interned_system(systems, now, grown)
        stack.extend(reversed(children))


# -- direct computation from earlier facets -----------------------------------


def direct_interval_system(facets: list[Facet], j: int) -> tuple[RankInterval, ...]:
    """Skipped intervals of facets[j] from maximal overlaps with facets[:j].

    This is the defining computation; msi_characterization must agree with
    it.  Raises CrossingViolation when a maximal overlap face skips a
    disconnected rank set, which is exactly the crossing condition.
    """
    (spans,) = direct_interval_spans(facets, (j,))
    return tuple(RankInterval(lo, hi, "overlap") for lo, hi in spans)


def direct_interval_spans(facets: list[Facet], js=None) -> list[tuple[tuple[int, int], ...]]:
    """The spans of direct_interval_system(facets, j) for each j in js
    (default every index, ascending), from one maximal_overlaps pass.

    Every facet's system is built in order before the caller sees any, so
    the first duplicate facet or crossing violation, in facet order, is the
    one raised.
    """
    js = range(len(facets)) if js is None else js
    out = []
    for j, overlaps in zip(js, maximal_overlaps(facets, js)):
        facet = facets[j]
        spans = []
        for skipped in overlaps:  # bit q for rank q
            if not skipped:
                raise InternalInvariantError(
                    f"facet {facet.labels}: duplicate facet in overlap computation"
                )
            if not is_run(skipped):
                ranks = list(skipped_ranks(skipped))
                raise CrossingViolation(f"facet {facet.labels} skips disconnected ranks {ranks}")
            spans.append(((skipped & -skipped).bit_length() - 1, skipped.bit_length() - 1))
        spans.sort()
        _assert_non_nested(spans, facet.labels)
        out.append(tuple(spans))
    return out


# -- truncation and critical cells --------------------------------------------


def truncate_to_j_intervals(i_intervals) -> tuple[RankInterval, ...]:
    """Disjoint intervals from a sorted, non-nested system, in one pass.

    The J-intervals keep the lowest interval, chop its ranks off the rest,
    discard what became empty or non-minimal, and repeat.  Both ends
    strictly increase in such a system, so one pass suffices: each interval
    keeps the ranks above the last kept one, or goes when none are left;
    one starting at most one rank past the kept interval before the last
    goes too, since chopped it would strictly contain the last kept one.
    """
    out: list[RankInterval] = []
    for iv in i_intervals:
        if len(out) > 1 and iv.lo <= out[-2].hi + 1:
            continue
        lo = max(iv.lo, out[-1].hi + 1) if out else iv.lo
        if lo <= iv.hi:
            out.append(iv if lo == iv.lo else RankInterval(lo, iv.hi, iv.kind))
    return tuple(out)


def all_ranks(r: int) -> int:
    """Ranks 1 .. r as a mask, bit r - 1 for rank r; none when r <= 0."""
    return (1 << r) - 1 if r > 0 else 0


def cell_intervals(system, r: int) -> tuple[RankInterval, ...] | None:
    """The critical-cell rule, for a facet or word of r interior ranks and
    its sorted, non-nested skipped-interval system.

    The facet has a critical cell exactly when its intervals cover every
    rank, rank_mask(system) == all_ranks(r); the cell then sits at the
    lowest rank of each J-interval, and these J-intervals are returned.
    None means some rank is left uncovered: no cell but, in the face
    matching, the base cell when the facet is the least one.  The face
    matching (_toggle_rule), the label level and covering_search all read
    this rule; the search tests its coverage half on the mask it grows.
    """
    if rank_mask(system) != all_ranks(r):
        return None
    return truncate_to_j_intervals(system)


def _cell(facet: Facet, ranks, is_base: bool = False) -> CriticalCell:
    """The cell of facet's interior elements at the given ranks."""
    return CriticalCell(facet, ranks, tuple(facet.interior[k - 1] for k in ranks), is_base)


# -- the face matching ---------------------------------------------------------


@dataclass
class FaceMatching:
    """Per-interval matching state.

    faces maps every nonempty chain (as an element bitmask) to the index of
    its earliest containing facet; partner maps matched faces both ways.
    Critical masks are the unmatched ones.
    """

    ivl: IntervalData
    cfg: FacetOrderConfig
    facets: list[Facet]
    systems: list[tuple[RankInterval, ...]]
    owner: dict[int, int] = field(default_factory=dict)
    partner: dict[int, int] = field(default_factory=dict)
    critical: dict[int, CriticalCell] = field(default_factory=dict)
    empty_cell: CriticalCell | None = None

    def cells(self) -> list[CriticalCell]:
        out = [] if self.empty_cell is None else [self.empty_cell]
        out.extend(self.critical.values())
        return out

    def dim(self, mask: int) -> int:
        return mask.bit_count() - 1


# Most interior subsets the facets of one interval may span, summed over
# the facets: this bounds the face-table entries build_face_matching makes,
# and it inserts only the transversals among them.
# The largest interval of the benchmark inputs at degree window 7,
# pair_swap (4,4,1,1,1), spans 255,360.  The oracle's own budget is
# homology.ORACLE_FACE_BUDGET.
FACE_BUDGET = 1 << 21


def refuse_deep_target(pres: SemigroupPresentation, lam: Vector) -> None:
    """Refuse lam before [0, lam] is sliced when every facet alone spans
    more than FACE_BUDGET interior subsets, in build_face_matching's words.

    Each label adds at most max_g sum(g) to the coordinate sum, so every
    factorization of lam has at least m = ceil(sum(lam) / max_g sum(g))
    labels: each facet has at least m - 1 interior elements, and
    _interior_subsets is at least 2^(m-1).  So this refuses only what the
    build would refuse, before the slice, which for such a lam costs far
    more than the build's count.  A lam outside the semigroup is left to
    the interval's own refusal.
    """
    m = -(-sum(lam) // max(map(sum, pres.generators)))
    # 2^(m-1) > FACE_BUDGET exactly when m - 1 reaches the budget's bit length
    if m - 1 >= FACE_BUDGET.bit_length() and pres.member(lam):
        raise MorsegradedError(
            f"face matching at {lam}: more than {FACE_BUDGET} faces to enumerate"
        )


def arrangements(content) -> int:
    """multinomial(content): the words of that content, which are the
    facets of that content in an interval it factors (chains.facet_walk)."""
    return factorial(sum(content)) // prod(map(factorial, content))


def _interior_subsets(contents) -> int:
    """Sum of 2^|interior| over the facets: content c has arrangements(c)
    facets of |c| - 1 interior elements (the empty one, one of none)."""
    total = 0
    for c in contents:
        m = sum(c)
        total += arrangements(c) << m - 1 if m else 1
    return total


def _breach(fm: FaceMatching, j: int, what: str, kind=InternalInvariantError):
    """An invariant error naming the stage, the multidegree and facet j."""
    return kind(f"face matching at {fm.ivl.top}: facet {fm.facets[j].labels}: {what}")


def _transversals(r: int, system) -> list[int]:
    """The nonempty rank subsets of 1 .. r that meet every interval of
    system, ascending.

    A rank subset has bit r - 1 for rank r.  Subsets grow one rank at a
    time, and a partial subset goes as soon as it misses an interval that
    ends at the rank just placed; subsets without rank k come before those
    with it, so the list stays in ascending order.
    """
    ending: list[list[int]] = [[] for _ in range(r)]
    for iv in system:
        ending[iv.hi - 1].append(iv.mask)
    subs = [0]
    for k in range(r):
        subs += [sub | 1 << k for sub in subs]
        for span in ending[k]:
            subs = [sub for sub in subs if sub & span]
    return subs if system else subs[1:]


class _ShapeBreach(Exception):
    """A check failed on a shape.  args: (what, error kind, an outside
    partner's rank subset or None); the build names the facet."""


def _toggle_rule(r: int, system, subs: list[int]):
    """Match the transversals subs of one shape by toggling one rank each.

    Returns the partner map on rank subsets and the critical subsets, each
    with its cell's ranks and whether it is the base cell.  When
    cell_intervals finds the cell, it is the set of lowest ranks of the
    J-intervals, and any other subset toggles the lowest rank of the first
    J-interval it meets above that rank.  Otherwise some rank q is left
    uncovered: every subset toggles the lowest such q, and {q} alone is the
    base cell.
    """
    j_system = cell_intervals(system, r)
    if j_system is None:
        uncovered = ~rank_mask(system) & all_ranks(r)
        cone = uncovered & -uncovered  # the lowest uncovered rank
        # {q} is the lowest vertex of the least facet: the base critical cell
        cell, ranks, is_base = cone, (cone.bit_length(),), True
        toggles = [(-1, cone)]  # every subset toggles it
    else:
        ranks = tuple(iv.lo for iv in j_system)
        cell, is_base = sum(1 << (q - 1) for q in ranks), False
        toggles = [(iv.mask & ~(1 << (iv.lo - 1)), 1 << (iv.lo - 1)) for iv in j_system]
    partner: dict[int, int] = {}
    critical = {}
    for sub in subs:
        if sub == cell:
            critical[sub] = (ranks, is_base)
            continue
        for above, bit in toggles:
            if sub & above:
                partner[sub] = sub ^ bit
                break
        else:
            raise _ShapeBreach(
                "new face differs from the critical cell in no truncated interval",
                InternalInvariantError, None,
            )
    return partner, critical


def _verify_shape(subs: list[int], partner: dict[int, int], critical) -> None:
    """Check that partner is a perfect acyclic matching of subs off critical.

    The checks, in this order: the matching is an involution, matched
    subsets differ in one rank, every partner is among subs, and every
    subset is matched or critical.  The cycle search runs only when the
    pairs toggle more than one rank: if all toggle the same rank v, an
    up-matched subset x lacks v and every successor of x (a subset of
    partner[x] other than x) contains v, so it is matched down or critical,
    and the alternating digraph has no edge.
    """
    new = set(subs)
    toggled = set()
    for sub, other in partner.items():
        if partner.get(other) != sub:
            raise _ShapeBreach("matching is not an involution", InternalInvariantError, None)
        x = sub ^ other
        if not x or x & (x - 1):
            raise _ShapeBreach(
                "matched faces differ in other than one element", InternalInvariantError, None
            )
        if other not in new:
            raise _ShapeBreach(
                "matched pair crosses facet ownership", InternalInvariantError, other
            )
        toggled.add(x)
    for sub in subs:
        if sub not in partner and sub not in critical:
            raise _ShapeBreach("face neither matched nor critical", InternalInvariantError, None)
    if len(toggled) > 1 and alternating_cycle(partner, partner) is not None:
        raise _ShapeBreach("the matching has a directed cycle", AcyclicityFailure, None)


@dataclass(slots=True)
class _Shape:
    """The matching of one (interior length, skipped-interval spans), on
    rank subsets, which a facet maps to faces through its face table."""

    complements: tuple[int, ...]  # facet minus I, for each I leaving a face
    transversals: list[int]  # ascending: the new faces
    partner: dict[int, int]
    critical: dict[int, tuple[tuple[int, ...], bool]]  # subset -> (cell ranks, is base)
    breach: tuple | None  # _ShapeBreach's args


def _match_shape(r: int, system) -> _Shape:
    """Form, match and verify the transversals of one shape on rank subsets.

    Only the spans of system are read, never the interval kinds, so every
    system with these spans has this shape.  A check that fails is kept as
    the shape's breach, for the build to raise with a facet's name once
    that facet's own checks have passed.
    """
    full = (1 << r) - 1
    complements = tuple(rest for iv in system if (rest := full & ~iv.mask))
    subs = _transversals(r, system)
    try:
        partner, critical = _toggle_rule(r, system, subs)
        _verify_shape(subs, partner, critical)
    except _ShapeBreach as err:
        return _Shape(complements, subs, {}, {}, err.args)
    return _Shape(complements, subs, partner, critical, None)


def build_face_matching(
    ivl: IntervalData, cfg: FacetOrderConfig, gb: GroebnerBasis
) -> FaceMatching:
    """The full facet-by-facet acyclic matching for one interval.

    One walk (walk_systems; chains.facet_walk proves the order) yields the
    facets in facet order, each with its skipped-interval system, the
    Groebner characterization, and the prefix it shares with the previous
    facet.  The faces a facet adds must be exactly its transversals.  Only
    the transversals are inserted, and two checks certify that they are
    the new faces:

    (a) no transversal is owned yet;
    (b) for each skipped interval I whose complement in the facet is
        nonempty, the face "facet minus the ranks of I" is owned already.

    Proof.  By induction owner holds exactly the faces of the earlier
    facets, a down-closed set D.  By (a) every transversal is new.  A
    nonempty rank subset that is not a transversal misses some interval I,
    so its face lies in the facet minus the ranks of I; that face is
    nonempty and in D by (b), and D is down-closed, so the subset's face
    is in D.  The new faces are therefore exactly the transversals, and
    adding them to owner makes it the faces of this facet and the earlier
    ones.  This is the equality an all-subsets comparison would check.

    Everything else depends on the facet's shape, its interior length r
    and the spans of its system, alone: the transversals, the toggle rule
    and the checks read ranks, never the descent or syzygy kind of an
    interval.  Each shape is matched and verified once per basis, on rank
    subsets (_match_shape): its transversals, the toggle rule
    (_toggle_rule), and the checks of _verify_shape.  The shapes live in
    gb.shape_table, keyed by (r, spans), which every interval built with gb
    shares, so one command run matches each shape once, whatever the kinds
    of its intervals.  walk_systems makes equal systems one object, so a
    build looks its shapes up by (r, id(system)), and only once per
    distinct system forms the spans and reads the shared table.  A facet
    maps the shape's subsets to faces through its face table, runs (b),
    then (a) with the owner inserts, raises the shape's breach if it has
    one, and inserts the partners and critical cells.  A shape's breach
    therefore names the first facet of that shape, in facet order, of the
    interval being built, whichever interval first put the shape in the
    table.

    Proof that this checks what a check of the built maps would.  The map
    from a rank subset S to the face of facet j at those ranks is injective
    (the interior elements are distinct), preserves containment both ways,
    and maps subsets differing in one rank to faces differing in one
    element and back.  Its image on the transversals is the new faces, by
    (a) and (b).  So facet j's pairs form an involution, differ in one
    element, stay among its new faces (owner[partner] == j), and leave no
    new face unmatched and not critical, exactly when the shape's pairs
    do the same on subsets.  The pairs keep their owner, and a face's
    faces are owned by its own facet or earlier ones, so no cycle of the
    alternating digraph leaves a facet: every cycle lies in one facet's
    new faces.  There the map is an isomorphism of alternating digraphs
    (a successor is a face of the partner, up-matched, other than the
    face), so facet j's new faces carry a cycle exactly when the shape's
    subsets do.  The shape searches for one only when its pairs toggle
    more than one rank, which is exact (_verify_shape).

    Entry S of facet j's face table is the element mask of its interior
    elements at the ranks in S (bit r - 1 for rank r).  The table grows one
    rank at a time, doubling, so the table of the first k ranks is its
    first 2^k entries.  The build keeps one table across facets: each facet
    cuts it to the 2^shared entries of the interior prefix it shares with
    the previous facet, which the walk reports, and doubles it once per
    rank past that prefix.

    Checks (a) and (b) also back full's characterization_equals_direct
    and crossing_condition: the Groebner-read systems equal the
    overlap-defined ones, and the crossing condition holds, exactly when
    characterization_certified says so, which reads the built matching
    alone.  The direct overlap pass
    (pipeline.characterization_matches_direct) still runs where it says
    no, in the tests, and, for an explicit facet order, in
    chains.check_crossing_condition.

    Intervals whose facets span more than FACE_BUDGET interior subsets in
    all are refused before any chain, system or face is formed: the count
    is read off the contents alone (_interior_subsets).  The walk runs to
    its end before the first face, so a nested system is raised before
    any breach of (a) or (b).
    """
    contents = interval_contents(ivl, cfg)
    if _interior_subsets(contents) > FACE_BUDGET:
        raise MorsegradedError(
            f"face matching at {ivl.top}: more than {FACE_BUDGET} faces to enumerate"
        )
    table = gb.shape_table
    local: dict[tuple[int, int], _Shape] = {}
    facets, prefixes, systems, shapes = [], [], [], []
    for facet, shared, system in walk_systems(ivl, cfg, gb, contents):
        facets.append(facet)
        prefixes.append(shared)
        systems.append(system)
        r = len(facet.interior)
        shape = local.get((r, id(system)))
        if shape is None:
            key = (r, tuple([(iv.lo, iv.hi) for iv in system]))
            shape = table.get(key)
            if shape is None:
                shape = table[key] = _match_shape(r, system)
            local[r, id(system)] = shape
        shapes.append(shape)
    fm = FaceMatching(ivl, cfg, facets, systems)

    if len(facets) == 1 and not facets[0].interior:
        fm.empty_cell = _cell(facets[0], ())
        return fm

    owner, partner, critical = fm.owner, fm.partner, fm.critical
    index = ivl.index
    face = [0]  # the current facet's face table
    for j, (facet, shape, shared) in enumerate(zip(facets, shapes, prefixes)):
        del face[1 << shared :]  # the table of the shared ranks
        for e in facet.interior[shared:]:
            bit = 1 << index(e)
            face += [f | bit for f in face]
        for rest in shape.complements:
            if face[rest] not in owner:  # (b)
                raise _transversal_breach(fm, j)
        owned = len(owner)
        owner.update(dict.fromkeys(map(face.__getitem__, shape.transversals), j))
        if len(owner) - owned != len(shape.transversals):  # (a); the faces are distinct
            raise _transversal_breach(fm, j)
        if shape.breach is not None:
            raise _shape_breach(fm, j, shape.breach, face)
        partner.update([(face[sub], face[other]) for sub, other in shape.partner.items()])
        for sub, (ranks, is_base) in shape.critical.items():
            critical[face[sub]] = _cell(facet, ranks, is_base)
    return fm


def characterization_certified(fm: FaceMatching) -> bool:
    """Is every facet's Groebner-read system its overlap-defined one, with
    the crossing condition, as the face-matching build already showed?

    Precondition: fm.facets and fm.systems are those of a matching that
    build_face_matching returned, so every facet passed checks (a) and (b)
    (cancel_cells keeps both lists).  True when the first facet's system
    is empty and no later facet's is.  Then, for every j,
    direct_interval_system(fm.facets, j) has the spans of fm.systems[j],
    and no maximal overlap skips a disconnected rank set.  False happens
    exactly when the systems differ from the direct ones, and the caller
    runs the direct pass (pipeline.characterization_matches_direct) for
    its verdict and its errors.

    Proof.  Take facet F_j with system S, and let D be the faces of the
    earlier facets.  By the proof in build_face_matching, the nonempty
    faces of F_j in D are exactly its rank subsets that are not
    transversals of S, that is the nonempty faces of the sets F_j - I over
    I in S.  A face of F_j lies in D exactly when it lies in an overlap
    F_j & F_i with i < j, so when j > 0 the maximal overlaps are the
    maximal elements of the faces of F_j in D and the empty face.  S is
    non-nested (_checked_system asserts it), so the sets F_j - I are
    pairwise incomparable.  If S is nonempty and j > 0, the maximal overlaps are
    therefore exactly the sets F_j - I (the one empty set when S is
    {[1, r]}), and they skip the ranks of the intervals I: the direct
    system has the spans of S, no overlap is the whole facet, and every
    skipped set is a run, which is the crossing condition.  If S is empty
    and j > 0, F_j has no nonempty face in D, its one maximal overlap is
    the empty face, and the direct system is {[1, r]}, not S.  For j = 0
    there is no overlap: the direct system is empty, which S must be.  So
    the systems all equal the direct ones exactly when S is empty for
    j = 0 alone.  A lone facet with no interior, whose build runs neither
    check, is the case j = 0, and its system, read off one label, is
    empty.
    """
    systems = fm.systems
    return not any(systems[:1]) and all(systems[1:])


def _transversal_breach(fm: FaceMatching, j: int) -> InternalInvariantError:
    return _breach(
        fm, j, "new faces do not match the transversals of its skipped-interval system"
    )


def _shape_breach(fm: FaceMatching, j: int, breach, face) -> InternalInvariantError:
    """Facet j's error for its shape's breach; an outside partner is named
    by the facet that owns its face."""
    what, kind, outside = breach
    if outside is not None:
        what += f" (partner owned by facet {fm.facets[fm.owner[face[outside]]].labels})"
    return _breach(fm, j, what, kind)


def verify_acyclic(fm: FaceMatching) -> bool:
    """Is the modified Hasse digraph (matched edges up) free of cycles?

    Every up-matched face seeds alternating_cycle, which is exact for
    any matching whose pairs differ in one element.  A matching from
    build_face_matching has already passed the same search, shape by shape
    on rank subsets (_verify_shape); this one serves reversed matchings
    and tests.
    """
    return alternating_cycle(fm.partner, fm.partner) is None


def alternating_cycle(partner: dict[int, int], seeds) -> int | None:
    """A face on a directed cycle reachable from seeds, or None.

    The modified Hasse digraph points every face at each of its faces one
    dimension down, except that a matched pair's edge points up.  Its
    directed cycles are exactly those of the alternating digraph searched
    here, whose nodes are the up-matched faces (partner[x] > x, which is
    containment when matched faces differ in one element): from x matched
    to y = partner[x], an edge leads to every other face x' of y that is
    itself matched upward.

    Proof.  A face is matched to at most one other, so after the up-edge
    x -> partner[x] the next edge cannot be another up-edge: two up-edges
    are never consecutive.  Around a cycle the up-edges and the down-edges
    are equal in number, since each changes the dimension by one, so they
    strictly alternate and the cycle lies in two consecutive dimensions.
    Its lower faces, read in order, form a cycle of the alternating
    digraph, and every cycle of the alternating digraph expands, through
    the matched faces above it, into one of the modified Hasse digraph.

    Seeds not matched upward are skipped.  The search is an iterative
    depth-first search with faces on the current path marked True and
    finished faces False; an edge back to a marked face closes a cycle,
    and that face is returned.  Each node is expanded once.
    """
    get = partner.get
    state: dict[int, bool] = {}
    for seed in seeds:
        if seed in state or get(seed, 0) < seed:
            continue
        state[seed] = True
        path = [seed]
        todo = [_successors(seed, get)]
        while todo:
            succ = todo[-1]
            if succ:
                y = succ.pop()
                mark = state.get(y)
                if mark is None:
                    state[y] = True
                    path.append(y)
                    todo.append(_successors(y, get))
                elif mark:
                    return y
            else:
                todo.pop()
                state[path.pop()] = False
    return None


def _successors(x: int, get) -> list[int]:
    """The up-matched faces of partner[x] other than x."""
    up = get(x)
    out = []
    m = x  # the elements of up other than the one x lacks
    while m:
        bit = m & -m
        m ^= bit
        y = up ^ bit
        if get(y, 0) > y:
            out.append(y)
    return out


def morse_numbers(cells) -> dict[int, int]:
    out: dict[int, int] = {}
    for c in cells:
        out[c.dimension] = out.get(c.dimension, 0) + 1
    return dict(sorted(out.items()))

