"""Semigroup membership, intervals, fibers, degree.

Expected values marked 'oracle' are frozen from the brute-force searchers
defined at the top of this file, which share no code with the package
internals they check.
"""

import random
from pathlib import Path

import pytest
from conftest import RINGS, random_presentation

from morsegraded.errors import NotComparable, ValidationError
from morsegraded.homology import tor_tables
from morsegraded.io import parse_input
from morsegraded.semigroup import (
    SemigroupPresentation,
    bit_indices,
    vec_add,
    vec_dominates,
    vec_sub,
)


def oracle_member(gens, target):
    """Exhaustive search with per-generator multiplicity bounds."""
    if any(c < 0 for c in target):
        return False
    if not any(target):
        return True
    for i, g in enumerate(gens):
        if all(tc >= gc for tc, gc in zip(target, g)):
            if oracle_member(gens[i:], vec_sub(target, g)):
                return True
    return False


def oracle_interval_elements(gens, lam):
    """Box scan: every gamma <= lam componentwise with both sides members."""
    out = []

    def scan(prefix):
        if len(prefix) == len(lam):
            g = tuple(prefix)
            if oracle_member(gens, g) and oracle_member(gens, vec_sub(lam, g)):
                out.append(g)
            return
        for c in range(lam[len(prefix)] + 1):
            scan(prefix + [c])

    scan([])
    return sorted(out)


def reference_interval(pres, mu, lam):
    """The breadth-first interval search that poset slices replaced.

    Returns (elements, cover_edges) as IntervalData holds them.
    """
    diff = vec_sub(lam, mu)
    zero = tuple([0] * pres.dimension)
    found = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for v in frontier:
            for g in pres.generators:
                w = vec_add(v, g)
                if w in found or not vec_dominates(diff, w):
                    continue
                if pres.member(vec_sub(diff, w)):
                    found.add(w)
                    nxt.append(w)
        frontier = nxt
    elements = tuple(sorted((vec_add(mu, v) for v in found), key=lambda e: (sum(e), e)))
    index = {e: i for i, e in enumerate(elements)}
    edges = []
    for e in elements:
        row = []
        for gi, g in enumerate(pres.generators):
            j = index.get(vec_add(e, g))
            if j is not None:
                row.append((gi, j))
        edges.append(tuple(row))
    return elements, tuple(edges)


def assert_slice_equals_reference(pres, mu, lam):
    ivl = pres.interval(mu, lam)
    assert (ivl.bottom, ivl.top) == (mu, lam)
    assert (ivl.elements, ivl.cover_edges) == reference_interval(pres, mu, lam), (mu, lam)


# (dimension, generators, window): the conftest rings, and presentations that
# are not standard-graded; in <2,7> the window of degree 4 holds 28 = 7*4
# but not 26 <= 28, whose shortest factorization has 8 generators
SLICE_CASES = {
    **{name: (dim, gens, 5) for name, (dim, gens, _) in RINGS.items()},
    "n345": (1, [(3,), (4,), (5,)], 6),
    "skew2d": (2, [(1, 2), (3, 0), (0, 3), (2, 1), (1, 3)], 4),
    "n27": (1, [(2,), (7,)], 4),
}


@pytest.mark.parametrize("name", sorted(SLICE_CASES))
def test_interval_slices_equal_reference_in_hostile_order(name):
    dim, gens, window = SLICE_CASES[name]
    pres = SemigroupPresentation(dim, gens)  # a fresh, empty poset
    zero = tuple([0] * dim)
    assert_slice_equals_reference(pres, zero, zero)
    tops = sorted(pres.degree_window(window), key=lambda e: (sum(e), e), reverse=True)
    # the largest top first grows the whole poset; the rest are slices of it
    for lam in tops:
        assert_slice_equals_reference(pres, zero, lam)
    held = len(pres.elements)
    # prefer a pair whose difference is nonnegative but not in the semigroup
    incomparable = [(a, b) for a in tops for b in tops if not pres.leq(a, b)]
    mu, lam = min(incomparable, key=lambda p: not vec_dominates(p[1], p[0]))
    with pytest.raises(NotComparable):
        pres.interval(mu, lam)
    assert len(pres.elements) == held
    outside = vec_add(tops[0], gens[-1])
    assert outside not in pres._poset
    assert_slice_equals_reference(pres, zero, outside)
    assert_slice_equals_reference(pres, gens[0], outside)


@pytest.mark.parametrize(
    "name, lam", [("squares", (2, 2, 1, 1)), ("cyclic3", (1, 1, 1, 1, 1, 1))]
)
def test_subinterval_slices_equal_reference(name, lam):
    dim, gens, _ = RINGS[name]
    pres = SemigroupPresentation(dim, gens)
    elements = reference_interval(pres, tuple([0] * dim), lam)[0]
    pairs = [(x, y) for x in elements for y in elements if pres.leq(x, y)]
    assert len(pairs) > len(elements)
    for x, y in reversed(pairs):
        assert_slice_equals_reference(pres, x, y)


def test_window_poset_is_built_once(monkeypatch):
    dim, gens, _ = RINGS["squares"]
    pres = SemigroupPresentation(dim, gens)
    zero = tuple([0] * dim)
    window = pres.degree_window(4)
    tor_tables(pres, window, (0,))
    calls = []
    member = pres.member
    monkeypatch.setattr(pres, "member", lambda v: calls.append(v) or member(v))
    for lam in window:
        pres.interval(zero, lam)
    assert calls == []
    monkeypatch.undo()
    closure = {e for lam in window for e in reference_interval(pres, zero, lam)[0]}
    assert len(pres.elements) == len(closure)
    assert set(pres.elements) == closure
    assert pres._poset == {e: i for i, e in enumerate(pres.elements)}


FIXTURES = Path(__file__).parent / "fixtures"
GROWTH_FIXTURES = ["cyclic_split3", "minor", "pair_swap", "ring5_seed22", "skew2d", "squares"]


def _growth_rings(group):
    """One fixture to window 5; <2,3> and <3,4,5>; or four seeded rings to
    window 4.  Each as (dimension, generators, window degree)."""
    if group in GROWTH_FIXTURES:
        pres = parse_input((FIXTURES / f"{group}.json").read_text()).presentation
        yield pres.dimension, pres.generators, 5
    elif group == "numerical":
        yield 1, [(2,), (3,)], 6
        yield 1, [(3,), (4,), (5,)], 4
    else:
        rng = random.Random(20261020)
        for _ in range(4):
            pres = random_presentation(rng, window_degree=4, face_budget=20_000)
            yield pres.dimension, pres.generators, 4


def _growth_orders(window):
    """The window's tops sorted, reversed, deepest first and shuffled."""
    tops = sorted(window)
    shuffled = list(tops)
    random.Random(7).shuffle(shuffled)
    deep = sorted(tops, key=lambda lam: -window[lam])
    return {"sorted": tops, "reversed": tops[::-1], "deep-first": deep, "shuffle": shuffled}


@pytest.mark.parametrize("group", GROWTH_FIXTURES + ["numerical", "seeded"])
def test_poset_grown_in_any_order_keeps_up_sets_heights_and_tor(group):
    """Whatever order the tops arrive in, every stored strict up-set is
    {w : v in down[w], w != v}, every height is the longest chain along
    the cover edges of the element's interval, and the Tor tables equal
    those of the sorted growth."""
    unsorted = False
    for dim, gens, degree in _growth_rings(group):
        zero = tuple([0] * dim)
        expected = None
        for name, tops in _growth_orders(SemigroupPresentation(dim, gens).degree_window(degree)).items():
            pres = SemigroupPresentation(dim, gens)
            window = pres.degree_window(degree)
            for lam in tops:
                pres.index(lam)
            keys = [(sum(e), e) for e in pres.elements]
            unsorted = unsorted or keys != sorted(keys)
            up_sets = [0] * len(pres.elements)
            for w, down in enumerate(pres.down):
                for v in bit_indices(down):
                    if v != w:
                        up_sets[v] |= 1 << w
            assert pres.above == up_sets, (gens, name)
            for i, e in enumerate(pres.elements):
                ivl = pres.interval(zero, e)
                longest = [0] * len(ivl)
                for j, edges in enumerate(ivl.cover_edges):
                    for _, k in edges:
                        longest[k] = max(longest[k], longest[j] + 1)
                assert pres.height[i] == longest[-1], (gens, name, e)
            tables = tor_tables(pres, window, (0, 2, 3))
            got = {c: (t.ranks, t.interval_betti) for c, t in tables.items()}
            expected = expected or got
            assert got == expected, (gens, name)
    if group != "numerical":
        assert unsorted  # some growth put an element before a smaller key


def _poset_by_element(pres):
    """The poset's arrays read through the elements their indices stand
    for: per element its sort key, down-set, strict up-set, height, upper
    covers and whether it is in `beats`."""
    els = pres.elements
    assert pres._poset == {e: i for i, e in enumerate(els)}

    def named(bits):
        return frozenset(map(els.__getitem__, bit_indices(bits)))

    return {
        e: (
            pres._keys[i],
            named(pres.down[i]),
            named(pres.above[i]),
            pres.height[i],
            tuple((gi, els[j]) for gi, j in pres._up[i]),
            pres.beats >> i & 1,
        )
        for i, e in enumerate(els)
    }


@pytest.mark.parametrize("name", GROWTH_FIXTURES)
def test_poset_grown_in_pieces_equals_one_grown_at_once(name):
    """Window 3, then window 5, then one deep target through `index` give
    the poset that one grow of all of them gives, array by array and
    `beats` included: `beats` marks no element by the order it came in."""
    gens = parse_input((FIXTURES / f"{name}.json").read_text()).presentation.generators
    dim = len(gens[0])
    deep = gens[0]
    for g in gens + gens[:2]:  # every generator, and the first two again
        deep = vec_add(deep, g)
    pieces = SemigroupPresentation(dim, gens)
    pieces.grow(pieces.degree_window(3))
    pieces.grow(pieces.degree_window(5))
    held = len(pieces.elements)
    pieces.index(deep)
    whole = SemigroupPresentation(dim, gens)
    whole.grow([*whole.degree_window(5), deep])
    assert len(pieces.elements) > held
    assert pieces.beats and pieces.beats != (1 << len(pieces.elements)) - 2
    assert _poset_by_element(pieces) == _poset_by_element(whole)


def test_leq_relation_multidegree(squares):
    assert squares.pres.leq((0, 0, 0, 0), (2, 2, 0, 0))


def test_leq_reflexive(squares):
    assert squares.pres.leq((2, 2, 1, 1), (2, 2, 1, 1))


def test_leq_rejects_non_member_difference(squares):
    assert not squares.pres.leq((0, 0, 0, 0), (1, 0, 0, 0))


def test_membership_agrees_with_oracle(squares):
    gens = squares.pres.generators
    rng = random.Random(7)
    for _ in range(200):
        v = tuple(rng.randint(0, 4) for _ in range(4))
        assert squares.pres.member(v) == oracle_member(gens, v), v


def test_interval_atom(squares):
    ivl = squares.interval((0, 0, 1, 0))
    assert len(ivl) == 2
    assert sum(len(r) for r in ivl.cover_edges) == 1
    assert ivl.cover_edges[0][0][0] == 2  # labeled by the third generator


def test_interval_diamond(free_plane):
    ivl = free_plane.pres.interval((0, 0), (1, 1))
    assert len(ivl) == 4


def test_interval_elements_match_box_scan(squares):
    lam = (2, 2, 1, 1)
    ivl = squares.interval(lam)
    assert sorted(ivl.elements) == oracle_interval_elements(squares.pres.generators, lam)


def test_interval_requires_comparability(squares):
    with pytest.raises(NotComparable):
        squares.pres.interval((0, 0, 0, 0), (1, 0, 0, 0))


def test_fiber_of_relation_multidegree(squares):
    assert squares.pres.factorizations((2, 2, 1, 1)) == ((0, 0, 2, 3), (1, 2, 3, 4))


def test_fiber_of_zero(squares):
    assert squares.pres.factorizations((0, 0, 0, 0)) == ((),)


def test_fiber_of_degree_two_relation(squares):
    assert squares.pres.factorizations((2, 2, 0, 0)) == ((0, 0), (1, 4))


def test_fiber_outside_semigroup_is_empty(squares):
    assert squares.pres.factorizations((1, 0, 0, 0)) == ()


def test_degree_values(squares):
    assert squares.pres.degree((2, 2, 0, 0)) == 2
    assert squares.pres.degree((2, 2, 1, 1)) == 4
    for g in squares.pres.generators:
        assert squares.pres.degree(g) == 1
    assert squares.pres.degree((0, 0, 0, 0)) == 0


def test_rejects_zero_generator():
    with pytest.raises(ValidationError):
        SemigroupPresentation(2, [(1, 0), (0, 0)])


def test_rejects_duplicate_generators():
    with pytest.raises(ValidationError):
        SemigroupPresentation(2, [(1, 0), (1, 0)])


def test_rejects_non_atomic_generator():
    # (1,1) = (1,0) + (0,1): chains could skip it, so it is refused up front
    with pytest.raises(ValidationError):
        SemigroupPresentation(2, [(1, 0), (0, 1), (1, 1)])


def test_partial_order_axioms_on_samples():
    rng = random.Random(11)
    pres = random_presentation(rng, max_generators=4, max_dimension=3, window_degree=4)
    window = sorted(pres.degree_window(3))
    pts = window[:12]
    for a in pts:
        assert pres.leq(a, a)
        for b in pts:
            if pres.leq(a, b) and pres.leq(b, a):
                assert a == b
            for c in pts:
                if pres.leq(a, b) and pres.leq(b, c):
                    assert pres.leq(a, c)


def test_interval_translation_isomorphism(squares):
    base = squares.interval((2, 2, 1, 1))
    shifted = squares.pres.interval((1, 1, 0, 0), (3, 3, 1, 1))
    translated = sorted(vec_sub(e, (1, 1, 0, 0)) for e in shifted.elements)
    assert translated == sorted(base.elements)


def test_degree_subadditive(squares):
    window = sorted(squares.pres.degree_window(3))
    for a in window[:10]:
        for b in window[:10]:
            lam = tuple(x + y for x, y in zip(a, b))
            assert squares.pres.degree(a) + squares.pres.degree(b) >= squares.pres.degree(lam)


def test_maximal_chain_labels_are_factorizations(squares):
    from morsegraded.chains import saturated_chains

    lam = (2, 2, 1, 1)
    facs = set(squares.pres.factorizations(lam))
    for facet in saturated_chains(squares.interval(lam)):
        assert tuple(sorted(facet.labels)) in facs


def test_degree_window_levels(squares):
    window = squares.pres.degree_window(3)
    assert all(1 <= d <= 3 for d in window.values())
    assert window[(2, 2, 0, 0)] == 2
    for g in squares.pres.generators:
        assert window[g] == 1


def test_degree_outside_semigroup_raises(squares):
    with pytest.raises(ValidationError):
        squares.pres.degree((1, 0, 0, 0))
