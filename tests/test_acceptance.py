"""Acceptance criteria: one test per criterion, exact tolerances, PASS lines.

Run with -s to see the per-criterion report.  Every expected number is
either a worked value from the fixture rings or an exact cross-module
equality; nothing is tuned.
"""

import random
import time
from itertools import combinations

from conftest import flood_fill_class, random_presentation
from morsegraded.automaton import (
    build_degree_d_automaton,
    build_quadratic_automaton,
    commutation_classes,
    rational_series,
)
from morsegraded.cancellation import (
    SystemTable,
    cancel_interval,
    cancel_cells,
    enumerate_gradient_paths,
    is_321_avoiding,
    non_essential_sets,
    check_321_uniqueness,
    survivor_words_by_content,
    transforming_permutation,
)
from morsegraded.chains import check_crossing_condition, ordered_facets
from morsegraded.groebner import groebner_for
from morsegraded.homology import (
    below_vanishing_bound,
    order_complex,
    reduced_betti,
    tor_ranks,
    tor_tables,
    verify_vanishing,
)
from morsegraded.morse import direct_interval_system, msi_characterization
from morsegraded.orders import TermOrder
from morsegraded.pipeline import morse_vs_betti
from morsegraded.resolution import morse_boundary


def report(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def mask_map(fm):
    return {c.facet.labels: m for m, c in fm.critical.items()}


def test_criterion_01_worked_quadratic_interval(squares):
    """Relation interval: the two worked cells, one path, survivors (1,0,2)."""
    fm = squares.matching((2, 2, 1, 1))
    cells = {c.facet.labels: c for c in fm.cells()}
    ok = cells[(3, 2, 1, 4)].ranks == (1, 2, 3) and cells[(3, 2, 1, 4)].dimension == 2
    ok = ok and cells[(2, 1, 3, 4)].ranks == (1, 2) and cells[(2, 1, 3, 4)].dimension == 1
    masks = mask_map(fm)
    ok = ok and len(enumerate_gradient_paths(fm, masks[(3, 2, 1, 4)], masks[(2, 1, 3, 4)])) == 1
    res = cancel_cells(fm, squares.gb)
    m = res.morse_numbers()
    ok = ok and (m.get(0, 0), m.get(1, 0), m.get(2, 0)) == (1, 0, 2)
    betti = reduced_betti(order_complex(squares.pres, (2, 2, 1, 1)), 0)
    ok = ok and betti == (0, 0, 0, 2)
    report("1 worked-example interval", ok)


def test_criterion_02_boolean_algebra(pair_swap):
    """The stated cell, its non-essential set, and the 8-cell Boolean algebra."""
    lam = (2, 2, 1, 1, 1)
    fm = pair_swap.matching(lam)
    masks = mask_map(fm)
    cell = fm.critical[masks[(3, 2, 1, 4, 5)]]
    ok = cell.ranks == (1, 2, 3)
    systems = SystemTable(pair_swap.gb, pair_swap.cfg)
    live = [s for s in non_essential_sets(systems, (3, 2, 1, 4, 5)) if s.members]
    ok = ok and len(live) == 1 and live[0].labels() == (2, 3, 4)
    S = (2, 3, 4)

    def crit_word(T):
        outside = tuple(sorted(set(S) - set(T), key=lambda i: -i))
        return outside + (1,) + tuple(sorted(T)) + (5,)

    for r in range(4):
        for T in combinations(S, r):
            ok = ok and crit_word(T) in masks
            for U in combinations(S, r + 1):
                n = len(enumerate_gradient_paths(fm, masks[crit_word(T)], masks[crit_word(U)]))
                ok = ok and n == (1 if set(T) < set(U) else 0)
    report("2 non-essential set and Boolean algebra", ok)


def test_criterion_03_vanishing_bound(squares, pair_swap, minor, cyclic3):
    """Homology below the degree bound vanishes: named rings plus 20 sampled."""
    start = time.time()
    ok = True
    for ring in (squares, minor, cyclic3, pair_swap):
        window = ring.pres.degree_window(6)
        rep = verify_vanishing(tor_tables(ring.pres, window, (0, 2, 3)), ring.gb.degree, window)
        ok = ok and rep["ok"]
    rng = random.Random(20250806)
    for sampled in range(20):
        kwargs = dict(window_degree=6, face_budget=250_000)
        if sampled % 2:
            kwargs["max_dimension"] = 2  # low dimension makes relations likely
        pres = random_presentation(rng, **kwargs)
        order = TermOrder(pres.n)
        gb = groebner_for(pres, order, 6)
        window = pres.degree_window(6)
        rep = verify_vanishing(tor_tables(pres, window, (0, 2, 3)), gb.degree, window)
        ok = ok and rep["ok"]
    elapsed = time.time() - start
    ok = ok and elapsed < 600
    report(f"3 vanishing bound (20 sampled rings, {elapsed:.0f}s)", ok)


def test_criterion_04_sharpness(minor, cyclic3):
    """The interval below the degree-d relation element is disconnected."""
    ok = True
    for ring, lam in ((minor, (1, 1, 1, 1)), (cyclic3, (1, 1, 1, 1, 1, 1))):
        d = ring.gb.degree
        ok = ok and ring.pres.degree(lam) == d
        betti = reduced_betti(order_complex(ring.pres, lam), 0)
        ok = ok and betti[1] >= 1  # reduced b_0
        ok = ok and not below_vanishing_bound(0, d, d)  # the bound permits it
    report("4 sharpness of the bound", ok)


def test_criterion_05_morse_inequalities(squares, pair_swap, minor, cyclic3):
    """m_i >= b_i and the Euler identity on every tested interval."""
    ok = True
    for ring, depth in ((squares, 5), (pair_swap, 4), (minor, 4), (cyclic3, 4)):
        for lam in sorted(ring.pres.degree_window(depth)):
            res = cancel_interval(ring.pres, lam, ring.cfg, ring.gb)
            betti = reduced_betti(order_complex(ring.pres, lam), 0)
            cmp = morse_vs_betti(res, betti)
            ok = ok and cmp["inequality_ok"] and cmp["euler_ok"]
    report("5 Morse inequalities and Euler identity", ok)


def test_criterion_06_quadratic_minimality(squares, minor):
    """Degree-5 window: survivor counts equal Tor ranks; boundary is minimal."""
    ok = True
    for ring in (squares, minor):
        window = ring.pres.degree_window(5)
        results = {lam: cancel_interval(ring.pres, lam, ring.cfg, ring.gb) for lam in window}
        data = morse_boundary(ring.pres, ring.gb, results)
        table = tor_ranks(ring.pres, window, 0)
        morse_side = {k: v for k, v in data.tor.items() if k[0] >= 1}
        oracle_side = {k: v for k, v in table.ranks.items() if k[0] >= 1}
        ok = ok and morse_side == oracle_side
        zero = ring.zero
        for rows in data.differentials.values():
            for (hi, lo), coeff in rows.items():
                hi_g = hi[-1] if hi else zero
                lo_g = lo[-1] if lo else zero
                ok = ok and (coeff == 0 or hi_g != lo_g)
        # boundary-squared-zero was asserted during construction
    report("6 quadratic minimality (m = Tor, minimal boundary)", ok)


def test_criterion_07_automaton_series(squares, pair_swap, cyclic3):
    """Language equals survivors; series coefficients equal brute counts."""
    ok = True
    for ring, depth in ((squares, 6), (pair_swap, 5)):
        auto = build_quadratic_automaton(ring.gb, ring.cfg)
        accepted = {w for ws in auto.words_up_to(depth).values() for w in ws}
        table = survivor_words_by_content(ring.pres, ring.gb, ring.cfg, depth)
        survivors = {tuple(reversed(w)) for ws in table.values() for w in ws}
        ok = ok and accepted == survivors
    auto3 = build_degree_d_automaton(cyclic3.gb, cyclic3.cfg)
    accepted3 = {w for ws in auto3.words_up_to(4).values() for w in ws}
    table3 = survivor_words_by_content(cyclic3.pres, cyclic3.gb, cyclic3.cfg, 4)
    survivors3 = {tuple(reversed(w)) for ws in table3.values() for w in ws}
    ok = ok and accepted3 == survivors3
    auto = build_quadratic_automaton(squares.gb, squares.cfg)
    series = rational_series(auto, verify_len=8)
    coeffs = series.coefficients(9)
    direct = auto.count_words(8)
    ok = ok and coeffs == direct
    ok = ok and coeffs[1] == 5 and coeffs[2] == 11
    window = squares.pres.degree_window(2)
    table = tor_ranks(squares.pres, window, 0)
    ok = ok and table.total(1) == 5 and table.total(2) == 11
    report("7 automaton and rational series", ok)


def test_criterion_08_class_bijection(squares, pair_swap):
    """Commutation classes biject with survivors per content, degree 6."""
    ok = True
    for ring in (squares, pair_swap):
        table = survivor_words_by_content(ring.pres, ring.gb, ring.cfg, 6)
        for content, words in table.items():
            classes = commutation_classes(ring.gb, ring.cfg, content)
            ok = ok and len(classes) == len(words)
            survivors = {tuple(reversed(w)) for w in words}
            reps_hit = set()
            for cls in classes:
                members = flood_fill_class(ring.gb, cls.representative)
                hits = members & survivors
                ok = ok and len(hits) == 1
                reps_hit |= hits
            ok = ok and reps_hit == survivors
    report("8 commutation-class bijection", ok)


def test_criterion_09_crossing_and_characterization(squares, pair_swap, minor, cyclic3):
    """Crossing holds and the leading-term description matches overlaps."""
    ok = True
    for ring, depth in ((squares, 5), (pair_swap, 4), (minor, 4), (cyclic3, 4)):
        for lam in sorted(ring.pres.degree_window(depth)):
            facets = ordered_facets(ring.interval(lam), ring.cfg)
            ok = ok and check_crossing_condition(facets).ok
            for j, facet in enumerate(facets):
                direct = tuple(iv.span() for iv in direct_interval_system(facets, j))
                implied = tuple(iv.span() for iv in msi_characterization(ring.gb, ring.cfg, facet))
                ok = ok and direct == implied
    report("9 crossing condition and characterization", ok)


def test_criterion_10_path_uniqueness(squares, pair_swap, cyclic3):
    """Theorem-certified pairs have exactly one path; 321 pairs at most two."""
    ok = True
    for ring, lam in ((squares, (2, 2, 1, 1)), (pair_swap, (2, 2, 1, 1, 1))):
        fm = ring.matching(lam)
        res = cancel_cells(fm, ring.gb)
        for p in res.pairs:
            if p.theorem_status == "unique-by-theorem":
                ok = ok and p.path_count == 1
        ok = ok and all(p.theorem_status == "unique-by-theorem" for p in res.pairs)
    found = []
    for lam in sorted(l for l, d in cyclic3.pres.degree_window(3).items() if d == 3):
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
                assert check_321_uniqueness(cyclic3.cfg, hi, lo) == "needs-enumeration"
                n = len(enumerate_gradient_paths(fm, masks[hi], masks[lo]))
                ok = ok and n <= 2
                if n:
                    found.append((lam, hi, lo))
        if len(found) >= 6:
            break
    ok = ok and len(found) >= 5
    report("10 gradient path uniqueness", ok)
