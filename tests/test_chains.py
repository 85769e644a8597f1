"""Saturated chain enumeration, facet comparison, crossing condition."""

import json
import random
from functools import cmp_to_key
from math import factorial

import pytest

from conftest import (
    FIXTURES,
    fixture_and_seeded_rings,
    reference_compare,
    reference_direct_spans,
    reference_maximal_overlaps,
)
from morsegraded.chains import (
    CrossingReport,
    Facet,
    FacetOrderConfig,
    check_crossing_condition,
    maximal_overlaps,
    ordered_facets,
    saturated_chains,
)
from morsegraded.errors import CrossingViolation, InternalInvariantError
from morsegraded.io import parse_input
from morsegraded.morse import direct_interval_spans, direct_interval_system
from morsegraded.orders import TermOrder


def compare_facets(cfg, a, b):
    """Reference facet comparator: contents by the term order, then label
    ranks lexicographically."""
    c = reference_compare(cfg.order, cfg.content(a), cfg.content(b))
    if c:
        return c
    ra = [cfg.order.label_rank[i] for i in a.labels]
    rb = [cfg.order.label_rank[i] for i in b.labels]
    return -1 if ra < rb else (0 if ra == rb else 1)


def expected_chain_count(pres, lam):
    """Sum of distinct arrangements over all factorizations."""
    total = 0
    for f in pres.factorizations(lam):
        count = factorial(len(f))
        for x in set(f):
            count //= factorial(f.count(x))
        total += count
    return total


def test_relation_interval_has_36_chains(squares):
    chains = saturated_chains(squares.interval((2, 2, 1, 1)))
    assert len(chains) == 36
    by_content = {}
    for c in chains:
        by_content.setdefault(tuple(sorted(c.labels)), []).append(c)
    assert len(by_content[(1, 2, 3, 4)]) == 24
    assert len(by_content[(0, 0, 2, 3)]) == 12


def test_atom_interval_single_chain(squares):
    chains = saturated_chains(squares.interval((0, 0, 1, 0)))
    assert len(chains) == 1 and chains[0].labels == (2,)


def test_diamond_two_chains(free_plane):
    ivl = free_plane.pres.interval((0, 0), (1, 1))
    assert len(saturated_chains(ivl)) == 2


def test_chain_counts_match_multinomials(squares):
    for lam in sorted(squares.pres.degree_window(4)):
        got = len(saturated_chains(squares.interval(lam)))
        assert got == expected_chain_count(squares.pres, lam), lam


def test_compare_facets_totality(squares):
    facets = saturated_chains(squares.interval((2, 2, 1, 1)))
    cfg = squares.cfg
    assert len({cfg.facet_key(f) for f in facets}) == len(facets)
    for a in facets:
        assert compare_facets(cfg, a, a) == 0
        for b in facets:
            ca, cb = compare_facets(cfg, a, b), compare_facets(cfg, b, a)
            assert ca == -cb
            if a is not b:
                assert ca != 0
            ka, kb = cfg.facet_key(a), cfg.facet_key(b)
            assert ca == (ka > kb) - (ka < kb)
    ordered = ordered_facets(squares.interval((2, 2, 1, 1)), cfg)
    for x, y, z in zip(ordered, ordered[1:], ordered[2:]):
        assert compare_facets(cfg, x, y) < 0 and compare_facets(cfg, y, z) < 0


@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.json")))
def test_ordered_facets_match_comparator_sort(name):
    """The key sort equals the comparator sort on every interval of the
    window up to degree 5."""
    raw = json.loads((FIXTURES / f"{name}.json").read_text())
    raw.pop("groebner_basis", None)  # a stale one is refused; no basis is read
    doc = parse_input(json.dumps(raw))
    pres, cfg = doc.presentation, FacetOrderConfig(doc.order)
    zero = tuple([0] * pres.dimension)
    window = pres.degree_window(5)
    assert window
    for lam in sorted(window):
        ivl = pres.interval(zero, lam)
        expected = sorted(saturated_chains(ivl), key=cmp_to_key(lambda a, b: compare_facets(cfg, a, b)))
        assert ordered_facets(ivl, cfg) == expected, lam


def test_ordered_facets_key_each_content_once(pair_swap, monkeypatch):
    # the sort reads each content's term-order key from a dict local to the
    # call, and the order is the one facet_key defines
    cfg = FacetOrderConfig(TermOrder(pair_swap.pres.n))  # the default order, unshared
    ivl = pair_swap.interval((4, 4, 1, 1, 1))
    want = sorted(saturated_chains(ivl), key=cfg.facet_key)
    keyed = []
    honest = cfg.order.key
    monkeypatch.setattr(cfg.order, "key", lambda m: keyed.append(m) or honest(m))
    got = ordered_facets(ivl, cfg)
    assert got == want and len(got) == 3_990
    assert len(keyed) == len(set(keyed)) == len({cfg.content(f) for f in got})
    keyed.clear()
    ordered_facets(ivl, cfg)  # a second call keys its contents afresh
    assert len(keyed) == len(set(keyed)) > 0


def test_earlier_content_comes_first(squares):
    ordered = ordered_facets(squares.interval((2, 2, 1, 1)), squares.cfg)
    contents = [tuple(sorted(f.labels)) for f in ordered]
    assert contents[:12] == [(0, 0, 2, 3)] * 12
    assert contents[12:] == [(1, 2, 3, 4)] * 24


def test_sorted_word_is_least_within_fiber(squares):
    ordered = ordered_facets(squares.interval((2, 2, 1, 1)), squares.cfg)
    assert ordered[0].labels == (0, 0, 2, 3)
    assert ordered[12].labels == (1, 2, 3, 4)


def test_crossing_condition_small_intervals(squares):
    for lam in sorted(squares.pres.degree_window(4)):
        facets = ordered_facets(squares.interval(lam), squares.cfg)
        assert check_crossing_condition(facets).ok, lam


def test_crossing_condition_diamond(free_plane):
    facets = ordered_facets(free_plane.pres.interval((0, 0), (1, 1)), free_plane.cfg)
    assert check_crossing_condition(facets).ok


def test_scrambled_order_violates_crossing(squares):
    facets = ordered_facets(squares.interval((2, 2, 1, 1)), squares.cfg)
    rng = random.Random(2)
    found = None
    for _ in range(40):
        scrambled = facets[:]
        rng.shuffle(scrambled)
        report = check_crossing_condition(scrambled)
        if not report.ok:
            found = report
            break
    assert found is not None
    assert found.facet is not None and found.earlier is not None
    assert len(found.skipped) >= 2


def reference_crossing(facets):
    """The exhaustive O(F^3) check: every disconnected overlap of a facet
    with an earlier one must be strictly inside another earlier overlap."""

    def overlap(f, g):
        shared = set(g.interior)
        return tuple(r for r, e in enumerate(f.interior, start=1) if e in shared)

    for j, f in enumerate(facets):
        full = set(range(1, len(f.interior) + 1))
        for i in range(j):
            shared = overlap(f, facets[i])
            skipped = tuple(sorted(full - set(shared)))
            if all(b == a + 1 for a, b in zip(skipped, skipped[1:])):
                continue
            if not any(
                set(shared) < set(overlap(f, facets[k])) for k in range(j) if k != i
            ):
                return CrossingReport(False, f, facets[i], skipped)
    return CrossingReport(True)


def violates_direct(facets):
    try:
        for j in range(len(facets)):
            direct_interval_system(facets, j)
    except CrossingViolation:
        return True
    return False


@pytest.mark.parametrize("name, lam", [
    ("squares", (2, 2, 1, 1)),
    ("minor", (2, 2, 2, 2)),
    ("pair_swap", (2, 2, 1, 1, 0)),
    ("cyclic3", (0, 0, 2, 1, 2, 3)),
])
def test_crossing_check_matches_exhaustive_reference(name, lam, request):
    ring = request.getfixturevalue(name)
    facets = ordered_facets(ring.interval(lam), ring.cfg)
    rng = random.Random(f"crossing/{name}")
    orders = [facets] + [rng.sample(facets, len(facets)) for _ in range(12)]
    verdicts = set()
    for order in orders:
        report = check_crossing_condition(order)
        assert report == reference_crossing(order), (name, [f.labels for f in order])
        assert violates_direct(order) == (not report.ok)
        verdicts.add(report.ok)
    assert verdicts == {True, False}


def test_crossing_check_reports_earliest_violating_facet():
    # two earlier facets, each sharing a disconnected rank set with the last
    # and neither inside the other: the report names the earlier one
    last = Facet((0,) * 6, ((1,), (2,), (3,), (4,), (5,)))
    odd = Facet((1,) * 6, ((1,), (9,), (3,), (8,), (5,)))
    even = Facet((2,) * 6, ((7,), (2,), (6,), (4,), (10,)))
    for order, earlier, skipped in (
        ([odd, even, last], odd, (2, 4)),
        ([even, odd, last], even, (1, 3, 5)),
    ):
        report = check_crossing_condition(order)
        assert report == reference_crossing(order) == CrossingReport(False, last, earlier, skipped)
        assert violates_direct(order)


def is_least_content_increasing(pres, ivl, cfg):
    """Least chain of every subinterval weakly increasing, and its label
    sequence equal to or preceding every other chain's content.

    The hypothesis the facet-ordered matching rests on.  No report depends
    on it: build_face_matching verifies its outcome (transversals,
    involution, one-element pairs, acyclicity) on every interval it builds.
    """
    rank = cfg.order.label_rank
    for x in ivl.elements:
        for y in ivl.elements:
            if x == y or not pres.leq(x, y):
                continue
            chains = ordered_facets(pres.interval(x, y), cfg)
            least = chains[0]
            ranks = [rank[i] for i in least.labels]
            if ranks != sorted(ranks):
                return False
            for other in chains[1:]:
                labels = tuple(sorted(other.labels, key=rank.__getitem__))
                rearranged = Facet(labels, other.interior)
                if cfg.facet_key(least) > cfg.facet_key(rearranged):
                    return False
    return True


def test_least_content_increasing_default_order(squares):
    for lam in [(2, 2, 0, 0), (2, 2, 1, 0), (1, 1, 1, 1)]:
        if squares.pres.member(lam):
            assert is_least_content_increasing(squares.pres, squares.interval(lam), squares.cfg)


def test_least_content_increasing_single_chain(squares):
    assert is_least_content_increasing(squares.pres, squares.interval((0, 0, 1, 0)), squares.cfg)


def test_facet_content_helper(squares):
    f = Facet((3, 1, 2), ())
    assert squares.cfg.content(f) == (0, 1, 1, 1, 0)


def outcome(fn, *args):
    """("ok", fn's result), or ("error", type, text) of the invariant
    error it raised."""
    try:
        return "ok", fn(*args)
    except InternalInvariantError as err:
        return "error", type(err), str(err)


def test_batched_overlaps_equal_the_per_facet_reference():
    # one maximal_overlaps pass over the interval gives each facet the
    # overlaps, in the same order, and the direct systems of the per-facet
    # computation it replaced
    for name, pres, cfg, gb in fixture_and_seeded_rings(4):
        zero = tuple([0] * pres.dimension)
        for lam in sorted(pres.degree_window(4)):
            facets = ordered_facets(pres.interval(zero, lam), cfg)
            js = range(len(facets))
            assert [list(o.items()) for o in maximal_overlaps(facets)] == [
                list(reference_maximal_overlaps(facets, j).items()) for j in js
            ], (name, lam)
            expected = [outcome(reference_direct_spans, facets, j) for j in js]
            per_facet = [
                outcome(lambda j: tuple(iv.span() for iv in direct_interval_system(facets, j)), j)
                for j in js
            ]
            assert per_facet == expected, (name, lam)
            first_error = next((e for e in expected if e[0] == "error"), None)
            batched = first_error or ("ok", [e[1] for e in expected])
            assert outcome(direct_interval_spans, facets) == batched, (name, lam)
