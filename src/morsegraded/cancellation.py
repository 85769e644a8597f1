"""Cancelling critical cells along certified-unique gradient paths.

The matching rules follow the non-essential-set discipline: a cell's
highest syzygy window with shiftable labels picks a pivot label, and the
partner is the cell with that pivot shifted across the window boundary.
One pass, mutual_pivots, proposes the pairs at both levels, and each level
certifies them its own way.  At the face level no pair is reversed on
trust: every match is certified by exhaustive path enumeration (exactly
one path), the critical-cell multigraph is checked acyclic fiber by fiber,
and the reversed face matching is checked acyclic along every reversed
path.  At the label level a pair is matched only when the 321 theorem
makes its path unique.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .chains import FacetOrderConfig
from .errors import (
    AcyclicityFailure,
    InternalInvariantError,
    PathCapExceeded,
    UnmatchedUnsaturatedCell,
)
from .groebner import GroebnerBasis
from .homology import below_vanishing_bound
from .morse import (
    CriticalCell,
    FaceMatching,
    RankInterval,
    all_ranks,
    alternating_cycle,
    build_face_matching,
    cell_intervals,
    covering_search,
    morse_numbers,
    msi_characterization,
    rank_mask,
    refuse_deep_target,
)
from .orders import content_monomial
from .semigroup import SemigroupPresentation, Vector

DEFAULT_PATH_CAP = 10_000


def _cancel_breach(fm: FaceMatching, what: str, *labels, kind=InternalInvariantError):
    """An invariant error naming the stage, the multidegree and the facets."""
    facets = f"facets {' / '.join(map(str, labels))}: " if labels else ""
    return kind(f"cancellation at {fm.ivl.top}: {facets}{what}")


def _labels(fm: FaceMatching, mask: int) -> tuple[int, ...]:
    """The labels of the facet that owns a face."""
    return fm.facets[fm.owner[mask]].labels


# -- gradient paths -----------------------------------------------------------


@dataclass(frozen=True)
class GradientPath:
    """Alternating cell masks tau, y1, x1, ..., ending at the lower cell."""

    cells: tuple[int, ...]


def gradient_paths_from(
    fm: FaceMatching, tau_mask: int, targets, cap: int = DEFAULT_PATH_CAP
) -> dict[int, list[GradientPath]]:
    """Gradient paths from tau to each target mask, sorted per target.

    Exhaustive DFS over the modified Hasse digraph: drop one element, then
    climb the matching edge of the face below if it has one.  A target ends
    its branch.  Critical cells are unmatched, so they end every branch
    anyway, and one traversal finds the paths to all critical targets at
    once.  Complete below cap paths per target.

    Owner floor.  The matching must be one build_face_matching built: its
    pairs share their owner, since a shape's partners are among its own
    transversals, and a face's faces are owned by its own facet or by
    earlier ones.  So the owner never rises along a gradient path, and a
    face y owned below the least owner of the targets reaches none of
    them: the search skips it.  A target that is no face of the interval
    sets no floor.
    """
    owner = fm.owner
    floor = min((owner.get(t, 0) for t in targets), default=0)
    found: dict[int, list[GradientPath]] = {}
    stack: list[tuple[int, tuple[int, ...]]] = [(tau_mask, (tau_mask,))]
    while stack:
        x, trail = stack.pop()
        m = x
        while m:
            bit = m & -m
            m ^= bit
            y = x ^ bit
            if not y:
                continue
            if y in targets:
                paths = found.setdefault(y, [])
                paths.append(GradientPath(trail + (y,)))
                if len(paths) > cap:
                    raise PathCapExceeded(cap, tau_mask, y)
                continue
            if owner[y] < floor:
                continue
            up = fm.partner.get(y)
            if up is not None and fm.dim(up) == fm.dim(y) + 1 and up != x:
                stack.append((up, trail + (y, up)))
    for paths in found.values():
        paths.sort(key=lambda p: p.cells)
    return found


def enumerate_gradient_paths(
    fm: FaceMatching, tau_mask: int, sigma_mask: int, cap: int = DEFAULT_PATH_CAP
) -> list[GradientPath]:
    """Every gradient path from tau down to sigma; complete below cap."""
    if fm.dim(tau_mask) != fm.dim(sigma_mask) + 1:
        raise _cancel_breach(
            fm, "gradient paths need consecutive dimensions",
            _labels(fm, tau_mask), _labels(fm, sigma_mask),
        )
    return gradient_paths_from(fm, tau_mask, (sigma_mask,), cap).get(sigma_mask, [])


# -- 321-avoidance and theorem-backed uniqueness -------------------------------


def transforming_permutation(src, dst) -> list[int]:
    """perm with dst[i] = src[perm[i]], matching repeated labels stably."""
    pools: dict[int, list[int]] = {}
    for i, x in enumerate(src):
        pools.setdefault(x, []).append(i)
    taken = {k: 0 for k in pools}
    perm = []
    for x in dst:
        perm.append(pools[x][taken[x]])
        taken[x] += 1
    return perm


def is_321_avoiding(perm) -> bool:
    """Does the permutation (distinct entries 0 .. m-1) avoid the pattern 321?

    It does exactly when its entries that are not left-to-right maxima
    increase.  An entry below an earlier one is no maximum, so a 321 at
    i < j < k puts two such entries, perm[j] > perm[k], out of order;
    conversely, two such entries perm[j] > perm[k] with j < k, perm[j]
    below some earlier perm[i], are a 321.
    """
    top = low = -1
    for p in perm:
        if p > top:
            top = p
        elif p < low:
            return False
        else:
            low = p
    return True


def check_321_uniqueness(cfg: FacetOrderConfig, tau_labels, sigma_labels) -> str:
    """unique-by-theorem when the transforming permutation is 321-avoiding
    and moves one ascending block up or one label down; else defer.

    Moving a block A of tau rotates one segment of tau, B A into A B when
    A moves down and A B into B A when it moves up, and leaves every label
    outside the segment where it was.  So a move that gives sigma rotates a
    segment that holds every position where tau and sigma differ, and only
    those segments are tried; when the words are equal, every segment is.
    """
    tau, sigma = tuple(tau_labels), tuple(sigma_labels)
    if sorted(tau) != sorted(sigma):
        return "needs-enumeration"
    if not is_321_avoiding(transforming_permutation(tau, sigma)):
        return "needs-enumeration"
    rank = cfg.order.label_rank
    m = len(tau)
    differ = [i for i in range(m) if tau[i] != sigma[i]]
    first, end = (differ[0], differ[-1] + 1) if differ else (m - 1, 0)
    for s in range(first + 1):
        # the longest weakly ascending run of tau from s: the blocks that may move up
        up = s + 1
        while up < m and rank[tau[up - 1]] <= rank[tau[up]]:
            up += 1
        for e in range(max(s + 2, end), m + 1):
            seg, want = tau[s:e], sigma[s:e]
            if want == seg[-1:] + seg[:-1]:  # tau[e - 1] down to s
                return "unique-by-theorem"
            for k in range(1, min(up, e - 1) - s + 1):  # tau[s:s + k] up past the rest
                if want == seg[k:] + seg[:k]:
                    return "unique-by-theorem"
    return "needs-enumeration"


# -- syzygy windows and non-essential sets -------------------------------------


class SystemTable(dict):
    """Word -> skipped-interval system, seeded and otherwise computed once.

    Both levels fill a table one way: it is seeded with the systems a walk
    or search already built (the face matching's facets for cancel_cells,
    the words morse.covering_search yields at the label level), and any
    other word's system is computed by msi_characterization on first read.
    """

    def __init__(self, gb: GroebnerBasis, cfg: FacetOrderConfig, systems=()):
        super().__init__(systems)
        self.gb, self.cfg = gb, cfg

    def __missing__(self, word):
        system = self[word] = msi_characterization(self.gb, self.cfg, word)
        return system


def windows_of(systems: SystemTable, labels) -> list[RankInterval]:
    """The syzygy intervals of labels: window w spans label positions
    w.lo - 1 .. w.hi."""
    return [iv for iv in systems[labels] if iv.kind == "syzygy"]


def _has_interior_window(systems: SystemTable, labels) -> bool:
    return any(w.hi > w.lo for w in windows_of(systems, labels))


@dataclass(frozen=True)
class ShiftMember:
    """One non-essential label of a window, with its matching partner word."""

    label: int
    kind: str  # inside | outside
    partner_labels: tuple[int, ...]


@dataclass(frozen=True)
class NonEssentialSet:
    window: RankInterval
    members: tuple[ShiftMember, ...]

    def labels(self) -> tuple[int, ...]:
        return tuple(sorted({m.label for m in self.members}))


def _not_window_interior(windows: list[RankInterval], pos: int) -> bool:
    return all(not (w.lo <= pos < w.hi) for w in windows)


def _is_cell(systems: SystemTable, word) -> bool:
    """Does word have a critical cell?  The coverage half of
    morse.cell_intervals, for callers that need no J-intervals."""
    return rank_mask(systems[word]) == all_ranks(len(word) - 1)


def _passes(systems: SystemTable, x: int, passed) -> bool:
    """Does every label x is shifted past rank below x and commute with it?"""
    rank = systems.cfg.order.label_rank
    commutes = systems.gb.commutes[x]
    return all(rank[y] < rank[x] and commutes[y] for y in passed)


def _down_slot(systems: SystemTable, labels, w: RankInterval, p: int):
    """Shift labels[p] out of window w to the highest landing that leaves a
    critical cell with the label outside every window interior."""
    x = labels[p]
    if not _passes(systems, x, labels[w.lo : p]):
        return None
    for q in range(w.lo - 1, -1, -1):
        if not _passes(systems, x, labels[q : q + 1]):
            return None
        word = labels[:q] + (x,) + labels[q:p] + labels[p + 1 :]
        if _is_cell(systems, word) and _not_window_interior(windows_of(systems, word), q):
            return word
    return None


def _insert_sorted(cfg: FacetOrderConfig, labels, w: RankInterval, p: int):
    """Shift labels[p] (below the window) up into the window interior."""
    rank = cfg.order.label_rank
    x = labels[p]
    rest = list(labels[:p] + labels[p + 1 :])
    start = w.lo - 2  # window slides down by the removed label
    offset = 0
    for k in range(start, w.hi):
        if rank[rest[k]] <= rank[x]:
            offset = k - start + 1
    rest.insert(start + offset, x)
    return tuple(rest), start + offset


def _upward_shiftable(systems: SystemTable, labels, w: RankInterval, p: int):
    x = labels[p]
    rank = systems.cfg.order.label_rank
    commutes = systems.gb.commutes
    a1, a2 = labels[w.lo - 1], labels[w.hi]
    if not (rank[a1] < rank[x] < rank[a2] and _passes(systems, x, labels[p + 1 : w.lo - 1])):
        return None
    for y in labels[w.lo - 1 : w.hi + 1]:
        if not commutes[x][y]:
            return None
    # the label may not top a window whose loss breaks criticality
    for w2 in windows_of(systems, labels):
        if w2.hi != p:
            continue
        if w2.hi > w2.lo:
            return None
        mu, nu = labels[w2.lo - 1], labels[p + 1]
        descent = rank[mu] > rank[nu]
        pair_lead = rank[mu] <= rank[nu] and not commutes[mu][nu]
        if not (descent or pair_lead):
            return None
    word, at = _insert_sorted(systems.cfg, labels, w, p)
    if not _is_cell(systems, word) or _not_window_interior(windows_of(systems, word), at):
        return None
    return word


def non_essential_sets(systems: SystemTable, labels) -> list[NonEssentialSet]:
    """Per-window shiftable labels of a critical cell's label sequence.

    Inside members carry the word with the label shifted out to its highest
    feasible slot; outside members the word with it shifted in.  Repeated
    label values keep a single copy, and a label below several windows
    belongs to the lowest one that accepts it.
    """
    labels = tuple(labels)
    out = []
    claimed_outside: set[int] = set()
    for w in windows_of(systems, labels):
        members: list[ShiftMember] = []
        seen_values: set[int] = set()
        for p in range(w.lo, w.hi):
            x = labels[p]
            if x in seen_values:
                continue
            word = _down_slot(systems, labels, w, p)
            if word is not None:
                members.append(ShiftMember(x, "inside", word))
                seen_values.add(x)
        for p in range(w.lo - 1):
            if p in claimed_outside:
                continue
            x = labels[p]
            if x in seen_values:
                continue
            word = _upward_shiftable(systems, labels, w, p)
            if word is not None:
                members.append(ShiftMember(x, "outside", word))
                seen_values.add(x)
                claimed_outside.add(p)
        members.sort(key=lambda m: systems.cfg.order.label_rank[m.label])
        out.append(NonEssentialSet(w, tuple(members)))
    return out


def pivot_partner(systems: SystemTable, word) -> tuple[int, ...] | None:
    """The word the pivot rule pairs with word, or None.

    The expanding interval is the highest window with a nonempty
    non-essential set.  Its pivot is the member with the smallest label,
    which sits highest among the stacked-out positions, and the partner is
    word with the pivot shifted across the window boundary.
    """
    live = [s for s in non_essential_sets(systems, word) if s.members]
    if not live:
        return None
    expanding = max(live, key=lambda s: s.window.span())
    rank = systems.cfg.order.label_rank
    return min(expanding.members, key=lambda m: rank[m.label]).partner_labels


def mutual_pivots(systems: SystemTable, dims: dict, matched, stage: str, notes: list[str]):
    """Yield (word, partner) for each unmatched word of dims, in dims'
    order, whose pivot partner is an unmatched word of dims naming it back.

    dims maps the caller's cells to their dimensions.  matched is read as
    the pass goes, so a pair the caller matches on a yield is skipped after
    it, and one it declines stays free.  A pivot partner that is no free
    cell, or that pairs elsewhere, puts a line in notes.  A mutual pair
    whose dimensions differ by other than one is a breach, raised with
    stage in front.
    """
    for word, dim in dims.items():
        if word in matched or (other := pivot_partner(systems, word)) is None:
            continue
        if other not in dims or other in matched:
            notes.append(f"pivot partner unavailable for {word}")
        elif pivot_partner(systems, other) != word:
            notes.append(f"pivot not mutual for {word}")
        elif abs(dim - dims[other]) != 1:
            raise InternalInvariantError(
                f"{stage} {word} / {other}: matched cells must differ in dimension by "
                f"exactly one, not by {abs(dim - dims[other])}"
            )
        else:
            yield word, other


# -- cancellation over a built face matching -----------------------------------


@dataclass(frozen=True)
class MatchedPair:
    high_labels: tuple[int, ...]
    low_labels: tuple[int, ...]
    rule: str
    path_count: int
    theorem_status: str
    path: GradientPath | None = None


@dataclass
class CancellationResult:
    matching: FaceMatching
    survivors: list[CriticalCell]
    pairs: list[MatchedPair]
    residual_low_cells: list[CriticalCell]
    notes: list[str] = field(default_factory=list)

    def survivor_words(self) -> list[tuple[int, ...]]:
        """Top-down label sequences of non-base survivors."""
        out = []
        for c in self.survivors:
            if c.is_base:
                continue
            out.append(tuple(reversed(c.facet.labels)))
        return sorted(out)

    def morse_numbers(self) -> dict[int, int]:
        return morse_numbers(self.survivors)


def _cell_sort_key(cfg: FacetOrderConfig):
    rank = cfg.order.label_rank

    def key(cell: CriticalCell):
        return (
            tuple(sorted(rank[i] for i in cell.facet.labels)),
            tuple(rank[i] for i in cell.facet.labels),
        )

    return key


Pair = tuple[tuple[int, ...], tuple[int, ...]]


def _path_table(fm: FaceMatching, cells, path_cap: int) -> dict[Pair, list[GradientPath]]:
    """Gradient paths between critical cells of equal content one dimension
    apart, keyed by (upper labels, lower labels); pairs without a path are
    left out.  The cells are bucketed once by (content, dimension), and one
    traversal per upper cell reaches every cell of the bucket below it."""
    mask_of = {c.facet.labels: m for m, c in fm.critical.items()}
    buckets: dict[tuple, dict[int, CriticalCell]] = {}  # (content, dimension) -> mask -> cell
    for c in cells:
        key = (tuple(sorted(c.facet.labels)), c.dimension)
        buckets.setdefault(key, {})[mask_of[c.facet.labels]] = c
    table: dict[Pair, list[GradientPath]] = {}
    for (content, dimension), uppers in buckets.items():
        below = buckets.get((content, dimension - 1))
        if not below:
            continue
        for hm, hi in uppers.items():
            found = gradient_paths_from(fm, hm, below, path_cap)
            for lm, lo in below.items():
                if lm in found:
                    table[(hi.facet.labels, lo.facet.labels)] = found[lm]
    return table


def _fiber_acyclic(matched: dict, table: dict[Pair, list[GradientPath]]) -> bool:
    """Toposort the critical multigraph with matched edges reversed."""
    nodes = set()
    for hi, lo in table:
        nodes.add(hi)
        nodes.add(lo)
    succ = {v: [] for v in nodes}
    indeg = {v: 0 for v in nodes}
    for hi, lo in table:
        if matched.get(lo) == hi:
            succ[lo].append(hi)
            indeg[hi] += 1
        else:
            succ[hi].append(lo)
            indeg[lo] += 1
    queue = [v for v in nodes if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == len(nodes)


def _apply_reversals(fm: FaceMatching, chosen: list[GradientPath]) -> FaceMatching:
    """fm with every chosen gradient path reversed.

    A path tau, y1, x1, ..., y_k = sigma drops the pairs (y_i, x_i) and
    adds (tau, y1), (x1, y2), ..., (x_{k-1}, sigma).  The owner map is
    shared with fm, which nothing changes after the build.
    """
    partner = dict(fm.partner)
    removed: set[tuple[int, int]] = set()
    added: dict[int, int] = {}

    def drop(a, b):
        if (a, b) in removed or partner.get(a) != b:
            raise _cancel_breach(
                fm, "reversed paths are not edge-disjoint", _labels(fm, a), _labels(fm, b)
            )
        removed.add((a, b))
        removed.add((b, a))
        del partner[a]
        del partner[b]

    def add(a, b):
        if a in partner or b in partner or a in added or b in added:
            raise _cancel_breach(fm, "reversed paths collide", _labels(fm, a), _labels(fm, b))
        added[a] = b
        added[b] = a

    for path in chosen:
        cells = path.cells
        k = len(cells) // 2
        for i in range(1, k):
            drop(cells[2 * i - 1], cells[2 * i])
        for i in range(1, k + 1):
            add(cells[2 * i - 2], cells[2 * i - 1])
    partner.update(added)
    cancelled = {p.cells[0] for p in chosen} | {p.cells[-1] for p in chosen}
    return replace(
        fm, partner=partner, critical={m: c for m, c in fm.critical.items() if m not in cancelled}
    )


def _verify_reversals(fm: FaceMatching, chosen: list[GradientPath]) -> None:
    """Raise AcyclicityFailure when reversing chosen closed a cycle in fm.

    Precondition: the matching the paths were reversed in has passed the
    checks of morse.build_face_matching, as every matching it returns has,
    so its modified Hasse digraph is acyclic.  Reversing a path
    tau, y1, x1, ..., y_k turns each up-edge y_i -> x_i into a down-edge
    ending at y_i, and each down-edge x_{i-1} -> y_i (x_0 = tau) into an
    up-edge leaving y_i; no other edge changes.  A cycle of fm's digraph
    must use a changed edge, since the old digraph had none, so it passes
    through some y_i.  Now matched upward to x_{i-1}, y_i is one of the
    cycle's lower faces, a node of the alternating digraph that
    morse.alternating_cycle searches.  The search therefore starts from the
    lower cells of the reversed paths alone.  The facet owning the face it
    returns is named in the error.
    """
    face = alternating_cycle(fm.partner, [y for p in chosen for y in p.cells[1::2]])
    if face is not None:
        raise _cancel_breach(
            fm, "reversed matching has a directed cycle", _labels(fm, face),
            kind=AcyclicityFailure,
        )


def cancel_cells(
    fm: FaceMatching, gb: GroebnerBasis, path_cap: int = DEFAULT_PATH_CAP
) -> CancellationResult:
    """The cancellation engine over a built face matching.

    The pivot rule pairs what it can, then a certified greedy pass pairs the
    cells the basis calls stranded.  For a quadratic basis a stranded
    cell keeps a syzygy window with interior, and none may survive.  For
    degree d >= 3 it sits below the vanishing bound -1 + (deg - 1)/(d - 1),
    deg the length of a shortest saturated chain, and survivors of that
    kind are reported as residual low cells.

    fm must have passed the checks of morse.build_face_matching: every
    caller takes it from there.  The check of the reversed matching rests
    on that.
    """
    cfg = fm.cfg
    d = max(2, gb.degree)
    deg = min((len(f) for f in fm.facets), default=0)
    systems = SystemTable(gb, cfg, ((f.labels, s) for f, s in zip(fm.facets, fm.systems)))

    def stranded(cell: CriticalCell) -> bool:
        if gb.quadratic:
            return _has_interior_window(systems, cell.facet.labels)
        return below_vanishing_bound(cell.dimension, deg, d)

    notes: list[str] = []
    cells = [c for c in fm.critical.values() if not c.is_base and c.dimension >= 0]
    cells.sort(key=_cell_sort_key(cfg))
    table = _path_table(fm, cells, path_cap)
    by_labels = {c.facet.labels: c for c in cells}
    matched: dict[tuple[int, ...], tuple[int, ...]] = {}
    chosen: list[GradientPath] = []
    pairs: list[MatchedPair] = []

    def certify(hi: CriticalCell, lo: CriticalCell, rule: str):
        found = table.get((hi.facet.labels, lo.facet.labels), [])
        if len(found) != 1:
            raise _cancel_breach(
                fm, f"matched pair has {len(found)} gradient paths, expected exactly 1",
                hi.facet.labels, lo.facet.labels,
            )
        status = check_321_uniqueness(cfg, hi.facet.labels, lo.facet.labels)
        matched[hi.facet.labels] = lo.facet.labels
        matched[lo.facet.labels] = hi.facet.labels
        chosen.append(found[0])
        pairs.append(
            MatchedPair(hi.facet.labels, lo.facet.labels, rule, 1, status, found[0])
        )

    # primary pass: pivot of the expanding interval
    dims = {labels: c.dimension for labels, c in by_labels.items()}
    stage = f"cancellation at {fm.ivl.top}: facets"
    for word, other in mutual_pivots(systems, dims, matched, stage, notes):
        hi, lo = sorted((by_labels[word], by_labels[other]), key=lambda c: -c.dimension)
        certify(hi, lo, "expanding-interval pivot")

    # fallback: certified greedy pairing for whatever the rules left behind
    for cell in cells:
        if cell.facet.labels in matched or not stranded(cell):
            continue
        for partner in cells:
            if (
                partner.facet.labels in matched
                or partner is cell
                or abs(partner.dimension - cell.dimension) != 1
                or sorted(partner.facet.labels) != sorted(cell.facet.labels)
            ):
                continue
            hi, lo = (cell, partner) if cell.dimension > partner.dimension else (partner, cell)
            if len(table.get((hi.facet.labels, lo.facet.labels), [])) != 1:
                continue
            trial = dict(matched)
            trial[lo.facet.labels] = hi.facet.labels
            if not _fiber_acyclic(trial, table):
                continue
            certify(hi, lo, "greedy certified")
            break

    low_matched = {
        lo: hi for lo, hi in matched.items() if by_labels[lo].dimension < by_labels[hi].dimension
    }
    if not _fiber_acyclic(low_matched, table):
        raise _cancel_breach(fm, "critical multigraph matching has a cycle")

    new_fm = _apply_reversals(fm, chosen)
    _verify_reversals(new_fm, chosen)
    survivors = new_fm.cells()
    residual = [c for c in survivors if not c.is_base and c.dimension >= 0 and stranded(c)]
    if gb.quadratic and residual:
        raise _cancel_breach(
            fm, "cell kept a syzygy interval with interior", residual[0].facet.labels,
            kind=UnmatchedUnsaturatedCell,
        )
    return CancellationResult(new_fm, survivors, pairs, residual, notes)


def cancel_interval(
    pres: SemigroupPresentation,
    lam: Vector,
    cfg: FacetOrderConfig,
    gb: GroebnerBasis,
    path_cap: int = DEFAULT_PATH_CAP,
) -> CancellationResult:
    refuse_deep_target(pres, lam)
    zero = tuple([0] * pres.dimension)
    fm = build_face_matching(pres.interval(zero, lam), cfg, gb)
    return cancel_cells(fm, gb, path_cap)


# -- fiber-local survivors (fast path for wide windows) -------------------------


def fiber_survivor_words(
    gb: GroebnerBasis, cfg: FacetOrderConfig, content
) -> list[tuple[int, ...]]:
    """Bottom-up label sequences of surviving cells of one content class.

    Uses only label arithmetic (no face complex): the matching is the pivot
    rule, and uniqueness of each reversed path is by the 321 theorem.  The
    face-level engine must agree on bounded intervals; tests enforce that.
    The critical cells are the full-length words covering_search yields
    under the content's counts, and they seed the content's SystemTable.
    """
    content = tuple(sorted(content))
    m = len(content)
    counts = content_monomial(content, cfg.order.n)
    searched = ((w, s) for w, s in covering_search(gb, cfg, counts, m) if len(w) == m)
    systems = SystemTable(gb, cfg, searched)
    return _fiber_survivors(systems, content, list(systems))


def _fiber_survivors(systems: SystemTable, content, words) -> list[tuple[int, ...]]:
    """The survivors among words, the covering words of content in
    lexicographic order, each checked against its system in systems."""
    dims: dict[tuple[int, ...], int] = {}
    for word in words:
        j_system = cell_intervals(systems[word], len(word) - 1)
        if j_system is None:
            raise InternalInvariantError(
                f"fiber cancellation of content {content}: covering search found {word}, "
                "which is not a critical cell"
            )
        dims[word] = len(j_system) - 1
    matched: set[tuple[int, ...]] = set()
    stage = f"fiber cancellation of content {content}: words"
    for word, other in mutual_pivots(systems, dict(sorted(dims.items())), matched, stage, []):
        # a declined pair stays unmatched, free to pair the other way round
        if check_321_uniqueness(systems.cfg, word, other) == "unique-by-theorem":
            matched.update((word, other))
    out = []
    for word in dims:
        if word in matched:
            continue
        if systems.gb.quadratic and _has_interior_window(systems, word):
            raise UnmatchedUnsaturatedCell(
                f"fiber cancellation of content {content}: word {word}: "
                "stranded with a syzygy window with interior"
            )
        out.append(word)
    return sorted(out)


def face_level_survivor_words(
    pres: SemigroupPresentation,
    gb: GroebnerBasis,
    cfg: FacetOrderConfig,
    content,
    path_cap: int = DEFAULT_PATH_CAP,
) -> list[tuple[int, ...]]:
    """Survivors of one content via the full face-level engine."""
    lam = tuple([0] * pres.dimension)
    for i in content:
        lam = tuple(a + b for a, b in zip(lam, pres.generators[i]))
    res = cancel_interval(pres, lam, cfg, gb, path_cap)
    want = tuple(sorted(content))
    return sorted(
        c.facet.labels
        for c in res.survivors
        if not c.is_base and tuple(sorted(c.facet.labels)) == want
    )


def survivor_words_by_content(
    pres: SemigroupPresentation,
    gb: GroebnerBasis,
    cfg: FacetOrderConfig,
    max_degree: int,
    path_cap: int = DEFAULT_PATH_CAP,
) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Fiber-local survivors for every content in the degree window.

    Contents are multisets of generator indices of size <= max_degree;
    every such multiset is a factorization of its own multidegree.  One
    covering_search over the whole window finds the critical cells of
    every content at once (see its docstring for why that search is the
    union of the per-content ones); each content's words then go through
    the same checks and pivot pass as fiber_survivor_words.  When the
    label-level matching rules strand a cell (interacting relations), that
    content falls back to the face-level engine, whose greedy pass
    certifies pairs by explicit path enumeration under path_cap.

    One SystemTable serves the whole window, seeded with the system the
    search yields for each word.  That is the word's msi_characterization
    (covering_search proves it), so each searched word's system is the one
    a fresh computation gives; any other word a shift helper tries is
    computed on first read.  A content with no covering word has no cell
    and no survivor, so it takes no pass.
    """
    systems = SystemTable(gb, cfg)
    cells_of: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for word, system in covering_search(gb, cfg, [max_degree] * pres.n, max_degree):
        systems[word] = system
        cells_of.setdefault(tuple(sorted(word)), []).append(word)
    out: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(max_degree):
        nxt = []
        for c in frontier:
            lo = c[-1] if c else 0
            for i in range(lo, pres.n):
                nxt.append(c + (i,))
        for c in nxt:
            if c not in cells_of:
                out[c] = []
                continue
            try:
                out[c] = _fiber_survivors(systems, c, cells_of[c])
            except UnmatchedUnsaturatedCell:
                out[c] = face_level_survivor_words(pres, gb, cfg, c, path_cap)
        frontier = nxt
    return out
