"""Gradient paths, non-essential sets, and the cancellation engine."""

import random
from itertools import combinations, combinations_with_replacement, permutations
from pathlib import Path

import pytest

import morsegraded.cancellation as cancellation
from conftest import FIXTURE_NAMES, random_presentation
from morsegraded.chains import FacetOrderConfig
from morsegraded.groebner import groebner_for
from morsegraded.io import parse_input
from morsegraded.orders import TermOrder, content_monomial
from morsegraded.semigroup import SemigroupPresentation, standard_grading_functional
from morsegraded.cancellation import (
    DEFAULT_PATH_CAP,
    GradientPath,
    SystemTable,
    cancel_cells,
    cancel_interval,
    check_321_uniqueness,
    enumerate_gradient_paths,
    face_level_survivor_words,
    fiber_survivor_words,
    is_321_avoiding,
    non_essential_sets,
    survivor_words_by_content,
    transforming_permutation,
)
from morsegraded.errors import (
    InternalInvariantError,
    MorsegradedError,
    PathCapExceeded,
    UnmatchedUnsaturatedCell,
)
from morsegraded.morse import cell_intervals, covering_search, msi_characterization, verify_acyclic

FIXTURES = Path(__file__).parent / "fixtures"


def mask_map(fm):
    return {c.facet.labels: m for m, c in fm.critical.items()}


# -- gradient path enumeration ---------------------------------------------------


def test_unique_path_between_worked_pair(squares):
    fm = squares.matching((2, 2, 1, 1))
    masks = mask_map(fm)
    paths = enumerate_gradient_paths(fm, masks[(3, 2, 1, 4)], masks[(2, 1, 3, 4)])
    assert len(paths) == 1
    cells = paths[0].cells
    assert cells[0] == masks[(3, 2, 1, 4)] and cells[-1] == masks[(2, 1, 3, 4)]
    assert len(cells) % 2 == 0  # alternating, ends one dimension down


def test_paths_never_reach_later_content(squares):
    # owner indices weakly decrease along any path, so content never grows
    fm = squares.matching((2, 2, 1, 1))
    masks = mask_map(fm)
    for hi, lo in [((3, 2, 1, 4), (2, 1, 3, 4)), ((2, 1, 4, 3), (1, 2, 4, 3))]:
        for path in enumerate_gradient_paths(fm, masks[hi], masks[lo]):
            owners = [fm.owner[m] for m in path.cells]
            assert all(a >= b for a, b in zip(owners, owners[1:]))


def test_path_cap(squares):
    fm = squares.matching((2, 2, 1, 1))
    masks = mask_map(fm)
    with pytest.raises(PathCapExceeded):
        enumerate_gradient_paths(fm, masks[(3, 2, 1, 4)], masks[(2, 1, 3, 4)], cap=0)


def reference_paths(fm, tau_mask, sigma_mask, cap=DEFAULT_PATH_CAP):
    """The per-pair DFS: one search from tau for every lower cell sigma."""
    paths = []
    stack = [(tau_mask, (tau_mask,))]
    while stack:
        x, trail = stack.pop()
        m = x
        while m:
            bit = m & -m
            m ^= bit
            y = x ^ bit
            if not y:
                continue
            if y == sigma_mask:
                paths.append(GradientPath(trail + (y,)))
                if len(paths) > cap:
                    raise PathCapExceeded(cap, tau_mask, sigma_mask)
                continue
            up = fm.partner.get(y)
            if up is not None and fm.dim(up) == fm.dim(y) + 1 and up != x:
                stack.append((up, trail + (y, up)))
    paths.sort(key=lambda p: p.cells)
    return paths


def unsaturated_cells(fm):
    return [c for c in fm.critical.values() if not c.is_base and c.dimension >= 0]


def reference_table(fm):
    masks = mask_map(fm)
    cells = unsaturated_cells(fm)
    table = {}
    for hi in cells:
        for lo in cells:
            if hi.dimension != lo.dimension + 1 or sorted(hi.facet.labels) != sorted(lo.facet.labels):
                continue
            paths = reference_paths(fm, masks[hi.facet.labels], masks[lo.facet.labels])
            if paths:
                table[(hi.facet.labels, lo.facet.labels)] = paths
    return table


def test_path_table_equals_per_pair_search(squares, pair_swap, minor, cyclic3):
    compared = 0
    for ring in (squares, pair_swap, minor, cyclic3):
        for lam in sorted(ring.pres.degree_window(4)):
            fm = ring.matching(lam)
            table = cancellation._path_table(fm, unsaturated_cells(fm), DEFAULT_PATH_CAP)
            assert table == reference_table(fm), (ring.name, lam)
            compared += len(table)
    assert compared > 100
    # the largest degree-7 squares interval, and the first cyclic3 interval
    # where an upper cell with two lower cells reaches one of them twice
    for ring, lam in ((squares, (5, 5, 1, 1)), (cyclic3, (2, 2, 2, 2, 2, 2))):
        fm = ring.matching(lam)
        table = cancellation._path_table(fm, unsaturated_cells(fm), DEFAULT_PATH_CAP)
        assert table and table == reference_table(fm), (ring.name, lam)
    assert any(len(paths) > 1 for paths in table.values())


def unpruned_paths_from(fm, tau_mask, targets, cap=DEFAULT_PATH_CAP):
    """gradient_paths_from without the owner floor: every branch runs until
    it reaches a target or a face with no upward partner."""
    found = {}
    stack = [(tau_mask, (tau_mask,))]
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
            up = fm.partner.get(y)
            if up is not None and fm.dim(up) == fm.dim(y) + 1 and up != x:
                stack.append((up, trail + (y, up)))
    for paths in found.values():
        paths.sort(key=lambda p: p.cells)
    return found


def test_owner_floor_keeps_every_path(monkeypatch):
    # every query the path table makes, on the six fixtures at window 5 and
    # the three deep intervals of the benchmark's faces workload at window 7,
    # finds the paths the search without the owner floor finds
    queries = []
    pruned = cancellation.gradient_paths_from

    def both(fm, tau_mask, targets, cap=DEFAULT_PATH_CAP):
        got = pruned(fm, tau_mask, targets, cap)
        assert got == unpruned_paths_from(fm, tau_mask, targets, cap)
        queries.append(len(got))
        return got

    monkeypatch.setattr(cancellation, "gradient_paths_from", both)
    deep = {"squares": (5, 5, 1, 1), "pair_swap": (4, 4, 1, 1, 1), "cyclic_split3": (3, 3, 2, 2, 2, 2)}
    for name in FIXTURE_NAMES:
        doc = parse_input((FIXTURES / f"{name}.json").read_text())
        pres, cfg = doc.presentation, FacetOrderConfig(doc.order)
        gbs = {window: groebner_for(pres, doc.order, window) for window in (5, 7)}
        cases = [(lam, 5) for lam in sorted(pres.degree_window(5))]
        cases += [(deep[name], 7)] if name in deep else []
        for lam, window in cases:
            try:
                cancellation.cancel_interval(pres, lam, cfg, gbs[window])
            except MorsegradedError:
                continue  # a known breach (ROADMAP item 4) ends the build first
    assert len(queries) > 500 and sum(queries) > 500


def test_one_traversal_per_upper_cell(squares, pair_swap, cyclic3, monkeypatch):
    # every critical cell is a dead end, so the search from an upper cell
    # serves all its lower cells, and certified pairs, greedy ones included,
    # are looked up, not searched again
    from morsegraded.chains import FacetOrderConfig
    from morsegraded.morse import build_face_matching
    from morsegraded.orders import TermOrder
    from morsegraded.semigroup import SemigroupPresentation

    # the twisted cubic's relations share variables, which strands a cell
    # that only the greedy pass pairs
    twisted = SemigroupPresentation(2, [(3, 0), (2, 1), (1, 2), (0, 3)])
    order = TermOrder(twisted.n)
    twisted_gb = groebner_for(twisted, order, 4)
    cases = [
        (squares.matching((2, 2, 1, 1)), squares.gb),
        (pair_swap.matching((2, 2, 1, 1, 1)), pair_swap.gb),
        (cyclic3.matching((2, 2, 2, 2, 2, 2)), cyclic3.gb),
        (
            build_face_matching(twisted.interval((0, 0), (6, 6)), FacetOrderConfig(order), twisted_gb),
            twisted_gb,
        ),
    ]
    searched = []
    original = cancellation.gradient_paths_from

    def spy(fm, tau_mask, targets, cap=DEFAULT_PATH_CAP):
        searched.append(tau_mask)
        return original(fm, tau_mask, targets, cap)

    monkeypatch.setattr(cancellation, "gradient_paths_from", spy)
    rules = set()
    for fm, gb in cases:
        masks = mask_map(fm)
        cells = unsaturated_cells(fm)
        upper = sorted(
            masks[hi.facet.labels]
            for hi in cells
            if any(
                lo.dimension + 1 == hi.dimension and sorted(lo.facet.labels) == sorted(hi.facet.labels)
                for lo in cells
            )
        )
        searched.clear()
        res = cancel_cells(fm, gb)
        rules.update(p.rule for p in res.pairs)
        assert upper and sorted(searched) == upper, fm.ivl.top
    assert rules == {"expanding-interval pivot", "greedy certified"}


def test_pair_swap_reduced_expression_path(pair_swap):
    # unique path from the full descent to the worked critical cell
    fm = pair_swap.matching((2, 2, 1, 1, 1))
    masks = mask_map(fm)
    paths = enumerate_gradient_paths(fm, masks[(4, 3, 2, 1, 5)], masks[(3, 2, 1, 4, 5)])
    assert len(paths) == 1


# -- 321 machinery -----------------------------------------------------------------


def test_transforming_permutation_stable():
    assert transforming_permutation((0, 0, 2), (0, 2, 0)) == [0, 2, 1]


def test_321_detection():
    assert is_321_avoiding([0, 1, 2, 3])
    assert is_321_avoiding([1, 0, 2])
    assert not is_321_avoiding([2, 1, 0])
    assert not is_321_avoiding([3, 1, 0, 2])


def test_adjacent_transposition_unique(squares):
    assert (
        check_321_uniqueness(squares.cfg, (2, 1, 3, 4), (1, 2, 3, 4))
        == "unique-by-theorem"
    )


def test_full_reversal_needs_enumeration(cyclic3):
    assert check_321_uniqueness(cyclic3.cfg, (5, 4, 3), (3, 4, 5)) == "needs-enumeration"


def test_single_label_shift_unique(pair_swap):
    # the worked reduced-expression pair: one label climbs into the window
    assert (
        check_321_uniqueness(pair_swap.cfg, (4, 3, 2, 1, 5), (3, 2, 1, 4, 5))
        == "unique-by-theorem"
    )


def test_ascending_block_shift_unique(pair_swap):
    # the ascending block (2,3) moves up across the smaller label 1
    assert (
        check_321_uniqueness(pair_swap.cfg, (2, 3, 1, 4, 5), (1, 2, 3, 4, 5))
        == "unique-by-theorem"
    )


def test_different_content_needs_enumeration(squares):
    assert check_321_uniqueness(squares.cfg, (1, 2), (3, 4)) == "needs-enumeration"


def reference_is_321_avoiding(perm) -> bool:
    """The quadratic scan: no entry has a larger one before it and a
    smaller one after it."""
    m = len(perm)
    for j in range(m):
        if any(perm[i] > perm[j] for i in range(j)) and any(
            perm[k] < perm[j] for k in range(j + 1, m)
        ):
            return False
    return True


def reference_block_shifts(src, dst):
    """Every (start, length, destination) whose block move turns src into dst."""
    m = len(src)
    for i in range(m):
        for length in range(1, m - i + 1):
            block = src[i : i + length]
            rest = src[:i] + src[i + length :]
            for dest in range(m - length + 1):
                if dest == i:
                    continue
                if rest[:dest] + block + rest[dest:] == dst:
                    yield i, length, dest


def reference_321_uniqueness(cfg, tau_labels, sigma_labels) -> str:
    """check_321_uniqueness over every block move of tau."""
    tau_labels, sigma_labels = tuple(tau_labels), tuple(sigma_labels)
    if sorted(tau_labels) != sorted(sigma_labels):
        return "needs-enumeration"
    if not reference_is_321_avoiding(transforming_permutation(tau_labels, sigma_labels)):
        return "needs-enumeration"
    rank = cfg.order.label_rank
    for i, length, dest in reference_block_shifts(tau_labels, sigma_labels):
        block = tau_labels[i : i + length]
        ascending = all(rank[block[t]] <= rank[block[t + 1]] for t in range(length - 1))
        if dest > i and ascending:
            return "unique-by-theorem"
        if length == 1 and dest < i:
            return "unique-by-theorem"
    return "needs-enumeration"


def test_321_avoidance_equals_brute_force():
    for m in range(8):
        for perm in permutations(range(m)):
            has_321 = any(a > b > c for a, b, c in combinations(perm, 3))
            assert is_321_avoiding(perm) is not has_321, perm


def test_321_uniqueness_equals_every_block_move_reference():
    # every same-content pair of words of one to five labels, equal words
    # included, over three and four labels, under both label rankings
    pairs = unique = 0
    for n in (3, 4):
        for priority in (list(range(n)), list(range(n))[::-1]):
            cfg = FacetOrderConfig(TermOrder(n, "lex", priority))
            for m in range(1, 6):
                for content in combinations_with_replacement(range(n), m):
                    words = sorted(set(permutations(content)))
                    for tau in words:
                        for sigma in words:
                            want = reference_321_uniqueness(cfg, tau, sigma)
                            assert check_321_uniqueness(cfg, tau, sigma) == want, (tau, sigma)
                            unique += want == "unique-by-theorem"
                    pairs += len(words) ** 2
    assert pairs == 79_822
    assert 0 < unique < pairs


# -- non-essential sets --------------------------------------------------------------


def test_nes_of_full_window(squares):
    sets = non_essential_sets(SystemTable(squares.gb, squares.cfg), (1, 2, 3, 4))
    assert len(sets) == 1
    assert sets[0].labels() == (2, 3)


def test_nes_of_worked_pair_swap_facet(pair_swap):
    sets = non_essential_sets(SystemTable(pair_swap.gb, pair_swap.cfg), (3, 2, 1, 4, 5))
    live = [s for s in sets if s.members]
    assert len(live) == 1
    assert live[0].labels() == (2, 3, 4)


def test_nes_empty_for_adjacent_window(squares):
    # (1,4,3,2): window has no interior and nothing can shift in
    sets = non_essential_sets(SystemTable(squares.gb, squares.cfg), (1, 4, 3, 2))
    assert all(not s.members for s in sets)


def test_nes_upward_member_witnessed_by_path(squares):
    # label 3 sits below the window in (3,1,4,2) and shifts into it
    sets = non_essential_sets(SystemTable(squares.gb, squares.cfg), (3, 1, 4, 2))
    member = next(m for s in sets for m in s.members if m.label == 3)
    assert member.kind == "outside"
    assert member.partner_labels == (1, 3, 4, 2)
    fm = squares.matching((2, 2, 1, 1))
    masks = mask_map(fm)
    paths = enumerate_gradient_paths(fm, masks[(3, 1, 4, 2)], masks[(1, 3, 4, 2)])
    assert len(paths) == 1


# -- quadratic cancellation -------------------------------------------------------------


def test_relation_interval_survivors(squares):
    res = cancel_cells(squares.matching((2, 2, 1, 1)), squares.gb)
    assert res.morse_numbers() == {0: 1, 2: 2}
    words = res.survivor_words()
    assert words == [(2, 3, 4, 1), (1, 2, 3, 4)] or set(words) == {(2, 3, 4, 1), (1, 2, 3, 4)}
    assert verify_acyclic(res.matching)


def test_every_pair_certified(squares):
    res = cancel_cells(squares.matching((2, 2, 1, 1)), squares.gb)
    assert len(res.pairs) == 4
    for p in res.pairs:
        assert p.path_count == 1
        assert p.theorem_status == "unique-by-theorem"


def test_single_facet_interval_nothing_to_cancel(squares):
    res = cancel_cells(squares.matching((4, 0, 0, 0)), squares.gb)
    assert not res.pairs
    assert res.morse_numbers() == {0: 1}  # just the base vertex


def test_two_point_interval_keeps_both_cells(squares):
    res = cancel_cells(squares.matching((2, 0, 1, 0)), squares.gb)
    assert not res.pairs
    assert res.morse_numbers() == {0: 2}


def test_boolean_algebra_cancels_completely(pair_swap):
    fm = pair_swap.matching((2, 2, 1, 1, 1))
    res = cancel_cells(fm, pair_swap.gb)
    assert res.morse_numbers() == {0: 1, 3: 2}
    S = (2, 3, 4)
    cancelled = {p.high_labels for p in res.pairs} | {p.low_labels for p in res.pairs}
    for r in range(4):
        for T in combinations(S, r):
            outside = tuple(sorted(set(S) - set(T), key=lambda i: -i))
            word = outside + (1,) + tuple(sorted(T)) + (5,)
            assert word in cancelled


# -- degree-d cancellation ----------------------------------------------------------------


def test_cyclic3_relation_interval(cyclic3):
    res = cancel_cells(cyclic3.matching((1, 1, 1, 1, 1, 1)), cyclic3.gb)
    assert res.morse_numbers() == {0: 2, 1: 2}
    assert not res.residual_low_cells  # bound is i < 0: the 0-cell may stay
    words = set(res.survivor_words())
    assert (5, 4, 3) in words  # the disconnection witness, read top-down


def test_cyclic3_free_fiber_untouched(cyclic3):
    res = cancel_cells(cyclic3.matching((2, 2, 0, 0, 0, 0)), cyclic3.gb)
    assert not res.pairs  # no syzygy windows in a relation-free interval


def test_321_pairs_have_at_most_two_paths(cyclic3):
    # full reversals of three labels: 321 pattern, at most two paths each
    found = []
    window = sorted(lam for lam, d in cyclic3.pres.degree_window(3).items() if d == 3)
    for lam in window:
        fm = cyclic3.matching(lam)
        masks = mask_map(fm)
        for hi in masks:
            for lo in masks:
                if hi == lo or sorted(hi) != sorted(lo):
                    continue
                ch, cl = fm.critical[masks[hi]], fm.critical[masks[lo]]
                if ch.dimension != cl.dimension + 1:
                    continue
                if is_321_avoiding(transforming_permutation(hi, lo)):
                    continue
                n = len(enumerate_gradient_paths(fm, masks[hi], masks[lo]))
                assert n <= 2, (lam, hi, lo, n)
                if n:
                    found.append((lam, hi, lo, n))
        if len(found) >= 6:
            break
    assert len(found) >= 5


def test_full_reversal_pair_has_two_paths(cyclic3):
    fm = cyclic3.matching((1, 1, 1, 1, 1, 1))
    masks = mask_map(fm)
    assert len(enumerate_gradient_paths(fm, masks[(5, 4, 3)], masks[(3, 4, 5)])) == 2


def test_unique_by_theorem_pairs_verified_by_enumeration(squares, pair_swap):
    for ring, lam in ((squares, (2, 2, 1, 1)), (pair_swap, (2, 2, 1, 1, 1))):
        fm = ring.matching(lam)
        res = cancel_cells(fm, ring.gb)
        for p in res.pairs:
            if p.theorem_status == "unique-by-theorem":
                assert p.path_count == 1


# -- fiber-local fast path ---------------------------------------------------------------


def test_fiber_local_agrees_with_face_level(squares, pair_swap):
    for ring, depth in ((squares, 4), (pair_swap, 4)):
        for lam in sorted(ring.pres.degree_window(depth)):
            res = cancel_interval(ring.pres, lam, ring.cfg, ring.gb)
            face_words = {c.facet.labels for c in res.survivors if not c.is_base}
            fib_words = set()
            for f in ring.pres.factorizations(lam):
                fib_words.update(fiber_survivor_words(ring.gb, ring.cfg, f))
            assert face_words == fib_words, (ring.name, lam)


def test_fiber_local_single_letter(squares):
    assert fiber_survivor_words(squares.gb, squares.cfg, (2,)) == [(2,)]


def test_fiber_local_stuttering_content(squares):
    assert fiber_survivor_words(squares.gb, squares.cfg, (0, 0, 2, 3)) == []


def _ring_from(generators, degree):
    pres = SemigroupPresentation(len(generators[0]), generators)
    order = TermOrder(pres.n)
    return pres, groebner_for(pres, order, degree), FacetOrderConfig(order)


def reference_cell_words(gb, cfg, content):
    """Every distinct arrangement, in lexicographic order, kept when the
    critical-cell rule, cell_intervals, finds a cell for it."""
    systems = SystemTable(gb, cfg)
    return [
        w
        for w in sorted(set(permutations(content)))
        if cell_intervals(systems[w], len(w) - 1) is not None
    ]


def covering_words(gb, cfg, counts, length):
    """The words covering_search yields, without their systems."""
    return [word for word, _ in covering_search(gb, cfg, counts, length)]


def content_cell_words(gb, cfg, content):
    """covering_search bounded to one content: its full-length words."""
    counts = content_monomial(content, cfg.order.n)
    return [w for w in covering_words(gb, cfg, counts, len(content)) if len(w) == len(content)]


def window_cell_words(gb, cfg, degree):
    """One covering_search over the degree window, grouped by content."""
    grouped = {}
    for word in covering_words(gb, cfg, [degree] * cfg.order.n, degree):
        grouped.setdefault(tuple(sorted(word)), []).append(word)
    return grouped


def assert_search_equals_filter(pres, gb, cfg, degree):
    """The window search and each per-content search yield, content by
    content and in order, the words of the exhaustive filter."""
    window = window_cell_words(gb, cfg, degree)
    for d in range(degree + 1):
        for content in combinations_with_replacement(range(pres.n), d):
            want = reference_cell_words(gb, cfg, content)
            assert content_cell_words(gb, cfg, content) == want, (pres.generators, content)
            # the window search gives each content the same words, in order
            assert window.pop(content, []) == want, (pres.generators, content)
    assert window == {}


def test_covering_words_equal_exhaustive_filter(squares, pair_swap, minor, cyclic3):
    split = parse_input((FIXTURES / "cyclic_split3.json").read_text()).presentation
    rings = [(r.pres, r.gb, r.cfg, 6) for r in (squares, pair_swap, minor, cyclic3)]
    rings.append((*_ring_from(split.generators, 6), 6))
    rings.append((*_ring_from([(1, 2), (3, 0), (0, 3), (2, 1), (1, 3)], 5), 5))  # skew2d
    rings.append(  # ring5_seed22
        (*_ring_from([(1, 0, 1), (2, 0, 0), (0, 1, 1), (0, 2, 0), (1, 1, 0)], 5), 5)
    )
    assert [r[1].degree for r in rings[3:5]] == [3, 3]
    for pres, gb, cfg, degree in rings:
        assert_search_equals_filter(pres, gb, cfg, degree)
    # the empty word is a cell; so is every one-letter word
    assert content_cell_words(squares.gb, squares.cfg, ()) == [()]
    assert content_cell_words(squares.gb, squares.cfg, (3,)) == [(3,)]
    n = squares.pres.n
    assert covering_words(squares.gb, squares.cfg, [1] * n, 1) == [
        (),
        *((x,) for x in range(n)),
    ]


def sampled_deep_rings():
    """Eight seeded rings of at least four generators whose basis at
    window 5 has degree 3 or more, under shuffled priorities, lex and
    graded-revlex by turns."""
    rng = random.Random(20261021)
    made = 0
    while made < 8:
        pres = random_presentation(rng, max_dimension=3, window_degree=4, face_budget=20_000)
        priority = list(range(pres.n))
        rng.shuffle(priority)
        order = TermOrder(pres.n, "graded-revlex" if made % 2 else "lex", priority)
        gb = groebner_for(pres, order, 5)
        if gb.degree >= 3 and pres.n >= 4 and pres.dimension >= 2:
            made += 1
            yield pres, gb, FacetOrderConfig(order)


def test_covering_words_equal_exhaustive_filter_on_sampled_deep_rings():
    # the search's cuts read the union of intervals, which bases of degree
    # 3 and more build from longer windows
    degrees = []
    for pres, gb, cfg in sampled_deep_rings():
        assert_search_equals_filter(pres, gb, cfg, 5)
        degrees.append(gb.degree)
    assert max(degrees) >= 6


def test_fiber_survivors_label_only_covering_words(pair_swap, monkeypatch):
    emitted, labelled = [], []
    search, original = cancellation.covering_search, cancellation._fiber_survivors

    def spy_search(gb, cfg, counts, length):
        for word, system in search(gb, cfg, counts, length):
            emitted.append(word)
            yield word, system

    def spy_survivors(systems, content, words):
        # the words the pivot pass labels, each with the rule's verdict
        labelled.extend((w, cell_intervals(systems[w], len(w) - 1) is not None) for w in words)
        return original(systems, content, words)

    monkeypatch.setattr(cancellation, "covering_search", spy_search)
    monkeypatch.setattr(cancellation, "_fiber_survivors", spy_survivors)
    survivor_words_by_content(pair_swap.pres, pair_swap.gb, pair_swap.cfg, 6)
    # one search emits the whole window in preorder; each content's words,
    # in order, are labelled.  The empty word's content is not in the window
    by_content = {}
    for word in emitted:
        by_content.setdefault(tuple(sorted(word)), []).append(word)
    assert by_content.pop(()) == [()]
    window_order = sorted(by_content, key=lambda c: (len(c), c))
    assert [w for w, _ in labelled] == [w for c in window_order for w in by_content[c]]
    assert all(ok for _, ok in labelled)
    assert len(labelled) == 1279  # the exhaustive filter labelled 55,986 words


def sampled_label_rings():
    """Eight seeded rings with relations at window 4.  The first two of
    every four are standard-graded (each generator gets a leading
    coordinate 1); every other ring is under graded-revlex with shuffled
    priority instead of lex."""
    rng = random.Random(20261019)
    made = 0
    while made < 8:
        pres = random_presentation(rng, max_dimension=3, window_degree=4, face_budget=20_000)
        if made % 4 < 2:
            pres = SemigroupPresentation(pres.dimension + 1, [(1, *g) for g in pres.generators])
        priority = list(range(pres.n))
        rng.shuffle(priority)
        order = TermOrder(pres.n, "graded-revlex", priority) if made % 2 else TermOrder(pres.n)
        gb = groebner_for(pres, order, 4)
        if gb.elements:
            made += 1
            yield pres, gb, FacetOrderConfig(order)


def test_window_search_equals_per_content_search_on_sampled_rings():
    # the twisted cubic strands a cell at degree 4, so some contents fall
    # back to the face level
    rings = [*sampled_label_rings(), _ring_from([(3, 0), (2, 1), (1, 2), (0, 3)], 4)]
    graded, fallbacks = [], 0
    for pres, gb, cfg in rings:
        graded.append(standard_grading_functional(pres) is not None)
        table = survivor_words_by_content(pres, gb, cfg, 4)
        for content, words in table.items():
            try:
                want = fiber_survivor_words(gb, cfg, content)
            except UnmatchedUnsaturatedCell:
                fallbacks += 1
                want = face_level_survivor_words(pres, gb, cfg, content)
            assert words == want, (pres.generators, content)
    assert any(graded) and not all(graded)
    assert fallbacks


def spy_systems(monkeypatch) -> list:
    """The words whose skipped-interval system cancellation computes."""
    calls = []
    honest = cancellation.msi_characterization

    def spy(gb, cfg, word):
        calls.append(tuple(word))
        return honest(gb, cfg, word)

    monkeypatch.setattr(cancellation, "msi_characterization", spy)
    return calls


# the window search seeds the system of every word it yields, so only the
# words a shift helper tries that the search never yielded are computed
@pytest.mark.parametrize("name, words", [("pair_swap", 432), ("squares", 123)])
def test_one_system_per_word(name, words, request, monkeypatch):
    ring = request.getfixturevalue(name)
    calls = spy_systems(monkeypatch)
    survivor_words_by_content(ring.pres, ring.gb, ring.cfg, 6)
    assert len(calls) == len(set(calls)) == words


@pytest.mark.parametrize(
    "name, lam",
    [
        ("pair_swap", (2, 2, 1, 1, 1)),
        ("squares", (2, 2, 1, 1)),
        ("cyclic3", (2, 2, 2, 2, 2, 2)),
    ],
)
def test_cancel_cells_computes_no_system(name, lam, request, monkeypatch):
    # the face matching already holds the system of every facet, and every
    # word a shift helper tries is a facet of the same interval
    ring = request.getfixturevalue(name)
    fm = ring.matching(lam)
    calls = spy_systems(monkeypatch)
    res = cancel_cells(fm, ring.gb)
    assert res.pairs
    assert calls == []


def test_non_cell_from_covering_search_is_an_invariant_breach(squares, monkeypatch):
    word = (1, 3, 2, 4)
    system = msi_characterization(squares.gb, squares.cfg, word)
    monkeypatch.setattr(
        cancellation, "covering_search", lambda gb, cfg, counts, length: iter([(word, system)])
    )
    with pytest.raises(InternalInvariantError, match=r"\(1, 2, 3, 4\).*\(1, 3, 2, 4\)"):
        fiber_survivor_words(squares.gb, squares.cfg, (1, 2, 3, 4))


_EQUAL_DIMENSIONS = ": matched cells must differ in dimension by exactly one, not by 0"


def plant_pivots(monkeypatch, a, b):
    """A pivot rule that pairs the words a and b with each other, and no other."""
    planted = {a: b, b: a}
    monkeypatch.setattr(cancellation, "pivot_partner", lambda systems, word: planted.get(word))


def test_equal_dimension_pivot_pair_is_one_breach_at_both_levels(squares, monkeypatch):
    # the face level, on two critical cells of one dimension
    lam = (2, 2, 1, 1)
    fm = squares.matching(lam)
    cells = sorted(
        (c for c in fm.critical.values() if not c.is_base and c.dimension == 1),
        key=cancellation._cell_sort_key(squares.cfg),
    )
    a, b = cells[0].facet.labels, cells[1].facet.labels
    plant_pivots(monkeypatch, a, b)
    with pytest.raises(InternalInvariantError) as err:
        cancel_cells(fm, squares.gb)
    assert str(err.value) == f"cancellation at {lam}: facets {a} / {b}" + _EQUAL_DIMENSIONS
    # the label level, on the two words of content (1, 4), both of dimension 0
    plant_pivots(monkeypatch, (1, 4), (4, 1))
    with pytest.raises(InternalInvariantError) as err:
        fiber_survivor_words(squares.gb, squares.cfg, (1, 4))
    assert str(err.value) == (
        "fiber cancellation of content (1, 4): words (1, 4) / (4, 1)" + _EQUAL_DIMENSIONS
    )


def test_fiber_level_pairs_a_declined_pair_the_other_way_round(squares, monkeypatch):
    # a 321 check that certifies a pair only from its lexicographically
    # larger word: the pass meets each pair from its smaller word first
    content = (1, 2, 3, 4)
    honest = fiber_survivor_words(squares.gb, squares.cfg, content)
    calls = []

    def one_way(cfg, tau, sigma):
        calls.append((tau, sigma))
        return "unique-by-theorem" if tau > sigma else "needs-enumeration"

    monkeypatch.setattr(cancellation, "check_321_uniqueness", one_way)
    assert fiber_survivor_words(squares.gb, squares.cfg, content) == honest
    declined = [(w, o) for w, o in calls if w < o]
    assert len(declined) == 4
    assert [(o, w) for w, o in declined] == [(w, o) for w, o in calls if w > o]


def test_survivor_words_by_content_window(squares):
    table = survivor_words_by_content(squares.pres, squares.gb, squares.cfg, 3)
    assert table[(1, 4)] == [(1, 4), (4, 1)]
    assert table[(0, 0)] == []
    assert table[(0, 1)] == [(1, 0)]


def test_fallback_honours_path_cap(monkeypatch):
    # relations sharing variables strand a cell at degree 4, so that content
    # falls back to the face-level engine, which must get the caller's cap
    import morsegraded.cancellation as cancellation
    from morsegraded.chains import FacetOrderConfig
    from morsegraded.orders import TermOrder
    from morsegraded.semigroup import SemigroupPresentation

    pres = SemigroupPresentation(2, [(3, 0), (2, 1), (1, 2), (0, 3)])
    order = TermOrder(pres.n)
    gb = groebner_for(pres, order, 4)
    caps = []
    original = cancellation.cancel_interval

    def spy(pres, lam, cfg, gb, path_cap=cancellation.DEFAULT_PATH_CAP):
        caps.append(path_cap)
        return original(pres, lam, cfg, gb, path_cap)

    monkeypatch.setattr(cancellation, "cancel_interval", spy)
    survivor_words_by_content(pres, gb, FacetOrderConfig(order), 4, 777)
    assert caps == [777]


def test_label_cell_dimensions(squares):
    systems = SystemTable(squares.gb, squares.cfg)

    def dimension(word):
        j_system = cell_intervals(systems[word], len(word) - 1)
        return None if j_system is None else len(j_system) - 1

    assert dimension((1, 2, 3, 4)) == 0
    assert dimension((4, 3, 2, 1)) == 2
    assert dimension((1, 3, 2, 4)) is None
    assert dimension((2,)) == -1


def test_commutation_table(squares):
    table = squares.gb.commutes
    assert not table[1][4] and not table[4][1]
    assert table[0][0] and table[2][3] and table[1][2]


def test_cyclic3_double_relation_interval(cyclic3):
    # both relation factorizations appear twice; cancellation reaches the
    # oracle Betti numbers (0,0,0,1,2,1) reduced with nothing stranded
    res = cancel_interval(cyclic3.pres, (2, 2, 2, 2, 2, 2), cyclic3.cfg, cyclic3.gb)
    assert res.morse_numbers() == {0: 1, 2: 1, 3: 2, 4: 1}
    assert not res.residual_low_cells


def test_degree_bound_on_survivor_dimensions(cyclic3):
    # survivors never sit below the degree bound: residual lists stay empty
    d = cyclic3.gb.degree
    for lam in sorted(cyclic3.pres.degree_window(5)):
        res = cancel_cells(cyclic3.matching(lam), cyclic3.gb)
        assert not res.residual_low_cells, lam
        deg = cyclic3.pres.degree(lam)
        for c in res.survivors:
            if c.is_base or c.dimension < 0:
                continue
            assert (c.dimension + 1) * (d - 1) >= deg - 1, (lam, c.facet.labels)
