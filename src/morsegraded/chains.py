"""Saturated chains of an interval, their label sequences, and facet orders.

A facet is stored bottom-up: labels[k] is the generator applied at step k,
interior[k] the chain element reached after it (the top is not stored).
Contents compare by the term order; ties within a fiber break
lexicographically using the order's degree-one restriction.  facet_walk
yields the facets in that order, with no sort.
"""

from __future__ import annotations

from dataclasses import dataclass

from .orders import TermOrder, content_monomial
from .semigroup import IntervalData, Vector


@dataclass(frozen=True)
class Facet:
    labels: tuple[int, ...]
    interior: tuple[Vector, ...]

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class FacetOrderConfig:
    order: TermOrder

    def content(self, facet_or_labels) -> tuple[int, ...]:
        labels = getattr(facet_or_labels, "labels", facet_or_labels)
        return content_monomial(labels, self.order.n)

    def facet_key(self, facet: Facet) -> tuple:
        """Sort key of the facet order: the content's term-order key, then
        the label ranks."""
        rank = self.order.label_rank
        return self.order.key(self.content(facet)), tuple([rank[i] for i in facet.labels])


def saturated_chains(ivl: IntervalData) -> list[Facet]:
    """Every maximal chain of the interval, once, in label-index DFS order.

    The search keeps one cover-edge iterator per element of the current
    chain on an explicit stack, so chains of any length need no recursion.
    """
    bottom_idx = ivl.index(ivl.bottom)
    top_idx = ivl.index(ivl.top)
    if bottom_idx == top_idx:
        return [Facet((), ())]
    cover, elements = ivl.cover_edges, ivl.elements
    out: list[Facet] = []
    labels: list[int] = []
    interior: list[Vector] = []
    stack = [iter(cover[bottom_idx])]
    while stack:
        for gen, nxt in stack[-1]:
            if nxt == top_idx:
                out.append(Facet(tuple(labels) + (gen,), tuple(interior)))
                continue
            labels.append(gen)
            interior.append(elements[nxt])
            stack.append(iter(cover[nxt]))
            break
        else:
            stack.pop()
            if stack:
                labels.pop()
                interior.pop()
    return out


def interval_contents(ivl: IntervalData, cfg: FacetOrderConfig) -> list[tuple[int, ...]]:
    """The contents of the interval's facets, the factorizations of
    top - bottom as exponent vectors, in term order, each keyed once.

    The elements are a linear extension, so one pass in index order
    collects the contents of the paths from bottom to every element.
    """
    reach = [set() for _ in ivl.elements]
    reach[ivl.index(ivl.bottom)].add((0,) * cfg.order.n)
    for i, edges in enumerate(ivl.cover_edges):
        for gen, j in edges:
            reach[j].update(c[:gen] + (c[gen] + 1,) + c[gen + 1 :] for c in reach[i])
    return sorted(reach[ivl.index(ivl.top)], key=cfg.order.key)


def facet_walk(ivl: IntervalData, cfg: FacetOrderConfig, contents, step=None):
    """Yield (facet, shared, state) for every facet, in facet order.

    contents are interval_contents(ivl, cfg); shared is the length of the
    prefix, of labels and of interior alike, that the facet shares with the
    previous one (0 for the first); state is ((), 0) advanced by
    step(word, *state, b) at each rank b.  Each frame of the explicit stack
    keeps its state, so each node of a content's trie takes its step once.

    Proof.  The generators are atoms and every partial sum of a
    factorization c of top - bottom lies below top, so the facets of
    content c are exactly the arrangements of c.  Distinct monomials have
    distinct term-order keys, so the facet order (facet_key) takes the
    contents in turn, and within one the rank sequences lexicographically.
    Per content, a depth-first search tries the labels still left in rank
    order; each has its cover edge, so there is no dead end, and the
    leaves are c's arrangements, each once, in that order.  So shared is
    the lowest depth the search backtracked to since the previous facet.
    Across contents, the last arrangement (ranks descending) and the next
    first one (ranks ascending) share just a run of one label g, the
    former's highest and the latter's lowest, as often as both hold it.
    """
    bottom, top = ivl.index(ivl.bottom), ivl.index(ivl.top)
    if bottom == top:
        yield Facet((), ()), 0, ((), 0)
        return
    rank, elements = cfg.order.label_rank, ivl.elements
    ranked = [sorted(edges, key=lambda e: rank[e[0]]) for edges in ivl.cover_edges]
    by_rank = sorted(range(cfg.order.n), key=rank.__getitem__)
    highest = None  # the previous content's highest-rank label and its count
    for content in contents:
        left = list(content)
        g = next(x for x in by_rank if left[x])
        low = min(highest[1], left[g]) if highest and highest[0] == g else 0
        interior: list[Vector] = []
        stack = [(iter(ranked[bottom]), (), ((), 0))]
        while stack:
            edges, word, state = stack[-1]
            b = len(word)  # the rank the next label closes
            for gen, nxt in edges:
                if not left[gen]:
                    continue
                grown = word + (gen,)
                after = step(grown, *state, b) if b and step else state
                if nxt == top:
                    yield Facet(grown, tuple(interior)), low, after
                    low = b
                    continue
                left[gen] -= 1
                interior.append(elements[nxt])
                stack.append((iter(ranked[nxt]), grown, after))
                break
            else:
                stack.pop()
                if b:
                    left[word[-1]] += 1
                    interior.pop()
                    low = min(low, b - 1)
        g = next(x for x in reversed(by_rank) if content[x])
        highest = (g, content[g])


def ordered_facets(ivl: IntervalData, cfg: FacetOrderConfig) -> list[Facet]:
    """The saturated chains in facet order, as facet_walk yields them."""
    return [facet for facet, _, _ in facet_walk(ivl, cfg, interval_contents(ivl, cfg))]


@dataclass(frozen=True)
class CrossingReport:
    ok: bool
    facet: Facet | None = None
    earlier: Facet | None = None
    skipped: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def maximal_overlaps(facets: list[Facet], js=None):
    """Ranks of facets[j] skipped by its maximal overlaps with earlier
    facets, for each j in js (default every index, ascending).

    The overlap with facets[i], i < j, is the set of interior ranks q of
    facets[j] whose element facets[i] also passes through; it is maximal
    when no overlap with another earlier facet strictly contains it.
    Yields, per j, a map from each maximal overlap's skipped ranks, as a
    bitmask with bit q for rank q, to the least i that produces it.

    Each facet's interior is one bitmask over the elements the facets pass
    through, built once per call, so an overlap is one AND of two masks.
    Ranks are the element order of facets[j], so overlaps map to rank sets
    one to one: the maximal ones are found on element masks, and only they
    are mapped to ranks.
    """
    js = range(len(facets)) if js is None else js
    slot: dict[Vector, int] = {}
    masks = []
    for facet in facets[: max(js, default=-1) + 1]:
        mask = 0
        for e in facet.interior:
            mask |= 1 << slot.setdefault(e, len(slot))
        masks.append(mask)
    for j in js:
        mine = masks[j]
        overlaps = [mask & mine for mask in masks[:j]]
        slots = [slot[e] for e in facets[j].interior]
        full = (1 << len(slots) + 1) - 2
        kept: list[int] = []
        out: dict[int, int] = {}
        # distinct overlaps in order of first appearance; a strict superset
        # has more ranks, so it is seen, and kept, first
        for shared in sorted(dict.fromkeys(overlaps), key=int.bit_count, reverse=True):
            if not any(shared & other == shared for other in kept):
                kept.append(shared)
                ranks = 0
                for q, s in enumerate(slots, start=1):
                    if shared >> s & 1:
                        ranks |= 1 << q
                out[full ^ ranks] = overlaps.index(shared)
        yield out


def skipped_ranks(mask: int) -> tuple[int, ...]:
    return tuple(q for q in range(mask.bit_length()) if mask >> q & 1)


def is_run(mask: int) -> bool:
    """Empty, or one block of consecutive ranks."""
    low = mask >> (mask & -mask).bit_length() - 1 if mask else 0
    return low & (low + 1) == 0


def check_crossing_condition(facets: list[Facet]) -> CrossingReport:
    """Crossing condition for an explicit facet order.

    For every facet F and earlier G whose shared face skips a disconnected
    rank set, some earlier G' must share strictly more of F: equivalently,
    every maximal overlap skips a run.  Returns the first violation, by F
    and then G in facet order.
    """
    for f, overlaps in zip(facets, maximal_overlaps(facets)):
        bad = [(i, skipped) for skipped, i in overlaps.items() if not is_run(skipped)]
        if bad:
            i, skipped = min(bad)
            return CrossingReport(False, f, facets[i], skipped_ranks(skipped))
    return CrossingReport(True)

