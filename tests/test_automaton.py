"""Language construction, rational series, commutation classes."""

from itertools import permutations
from math import comb

import pytest

from morsegraded.automaton import (
    CommutationClass,
    _distinct_permutations,
    MorseAutomaton,
    build_degree_d_automaton,
    build_quadratic_automaton,
    commutation_classes,
    rational_series,
)
from morsegraded.cancellation import survivor_words_by_content
from morsegraded.errors import MorsegradedError


def survivor_word_set(ring, depth):
    table = survivor_words_by_content(ring.pres, ring.gb, ring.cfg, depth)
    return {tuple(reversed(w)) for words in table.values() for w in words}


def accepted_word_set(auto, depth):
    return {w for ws in auto.words_up_to(depth).values() for w in ws}


def test_distinct_permutations_lexicographic():
    for items in [(), (2,), (1, 1), (3, 0, 2, 0), (2, 1, 2, 0, 1, 2), tuple(range(6))]:
        assert list(_distinct_permutations(items)) == sorted(set(permutations(items)))
    # iterative: a word far longer than the recursion limit is fine
    assert next(_distinct_permutations([0] * 5000)) == (0,) * 5000


def test_squares_counts(squares):
    auto = build_quadratic_automaton(squares.gb, squares.cfg)
    counts = auto.count_words(4)
    assert counts[1] == 5 and counts[2] == 11


def test_free_semigroup_binomial_counts(free_plane):
    auto = build_quadratic_automaton(free_plane.gb, free_plane.cfg)
    counts = auto.count_words(4)
    assert counts[1:] == [comb(2, k) for k in range(1, 5)]


def test_free_semigroup_words_strictly_increase(free_plane):
    auto = build_quadratic_automaton(free_plane.gb, free_plane.cfg)
    for words in auto.words_up_to(2).values():
        for w in words:
            assert list(w) == sorted(set(w))


def test_language_equals_survivors_squares(squares):
    auto = build_quadratic_automaton(squares.gb, squares.cfg)
    assert accepted_word_set(auto, 6) == survivor_word_set(squares, 6)


def test_language_equals_survivors_pair_swap(pair_swap):
    auto = build_quadratic_automaton(pair_swap.gb, pair_swap.cfg)
    assert accepted_word_set(auto, 5) == survivor_word_set(pair_swap, 5)


def test_language_equals_survivors_minor(minor):
    auto = build_quadratic_automaton(minor.gb, minor.cfg)
    assert accepted_word_set(auto, 6) == survivor_word_set(minor, 6)


def test_accepts_and_rejects(squares):
    auto = build_quadratic_automaton(squares.gb, squares.cfg)
    assert auto.accepts((2, 3, 4, 1))  # worked survivor, read top-down
    assert auto.accepts((1, 2, 3, 4))
    assert not auto.accepts((4, 1, 3))  # label 3 lands in a non-essential set
    assert not auto.accepts((0, 0))  # stuttering
    assert not auto.accepts((4, 3, 4))  # no transition on equal-content repeat


def test_quadratic_builder_rejects_cubic(cyclic3):
    with pytest.raises(MorsegradedError):
        build_quadratic_automaton(cyclic3.gb, cyclic3.cfg)


def test_degree_builder_matches_quadratic(squares, minor):
    for ring in (squares, minor):
        a = build_quadratic_automaton(ring.gb, ring.cfg)
        b = build_degree_d_automaton(ring.gb, ring.cfg)
        wa, wb = a.words_up_to(8), b.words_up_to(8)
        assert all(wa[k] == wb[k] for k in wa)


def test_degree_automaton_cyclic3(cyclic3):
    auto = build_degree_d_automaton(cyclic3.gb, cyclic3.cfg)
    assert auto.accepts((5, 4, 3))  # collection completing the cubic lead
    assert auto.accepts((3, 4, 5))  # plain descents, read top-down
    assert not auto.accepts((5, 4, 4))
    got = accepted_word_set(auto, 4)
    want = survivor_word_set(cyclic3, 4)
    assert got == want


def test_degree_automaton_word_counts_bound_tor(cyclic3):
    # accepted words per multidegree dominate the multidegree's Tor total
    from morsegraded.homology import tor_ranks

    auto = build_degree_d_automaton(cyclic3.gb, cyclic3.cfg)
    window = cyclic3.pres.degree_window(3)
    table = tor_ranks(cyclic3.pres, window, 0)
    per_multidegree: dict = {}
    for ws in auto.words_up_to(3).values():
        for w in ws:
            lam = [0] * cyclic3.pres.dimension
            for i in w:
                lam = [a + b for a, b in zip(lam, cyclic3.pres.generators[i])]
            lam = tuple(lam)
            per_multidegree[lam] = per_multidegree.get(lam, 0) + 1
    for lam in window:
        tor_total = sum(v for (i, mu), v in table.ranks.items() if mu == lam and i >= 1)
        assert per_multidegree.get(lam, 0) >= tor_total, lam


def test_series_squares(squares):
    auto = build_quadratic_automaton(squares.gb, squares.cfg)
    series = rational_series(auto)
    assert series.coefficients(3) == [0, 5, 11]
    assert series.denominator[0] == 1


def test_series_coefficients_match_brute_enumeration(squares, pair_swap):
    for ring in (squares, pair_swap):
        auto = build_quadratic_automaton(ring.gb, ring.cfg)
        series = rational_series(auto, verify_len=8)
        counts = [len(ws) for k, ws in sorted(auto.words_up_to(8).items())]
        assert series.coefficients(9)[1:] == counts


def test_series_free_semigroup():
    from morsegraded.chains import FacetOrderConfig
    from morsegraded.groebner import buchberger
    from morsegraded.orders import TermOrder

    order = TermOrder(5)
    gb = buchberger([], order)
    auto = build_quadratic_automaton(gb, FacetOrderConfig(order))
    series = rational_series(auto)
    assert series.coefficients(7) == [0] + [comb(5, k) for k in range(1, 7)]


def test_series_render_shape(squares):
    auto = build_quadratic_automaton(squares.gb, squares.cfg)
    text = rational_series(auto).render()
    assert "/" in text and "t" in text


def test_series_expansion_table_matches_morse_numbers(squares):
    # quadratic case: coefficient at t^l counts survivors of dimension l-2
    auto = build_quadratic_automaton(squares.gb, squares.cfg)
    series = rational_series(auto)
    table = survivor_words_by_content(squares.pres, squares.gb, squares.cfg, 4)
    by_len: dict[int, int] = {}
    for words in table.values():
        for w in words:
            by_len[len(w)] = by_len.get(len(w), 0) + 1
    coeffs = series.coefficients(5)
    for k in range(1, 5):
        assert coeffs[k] == by_len.get(k, 0)


def test_word_length_tracks_dimension(squares):
    # every quadratic survivor is saturated: word length = dimension + 2
    from morsegraded.cancellation import label_cell

    table = survivor_words_by_content(squares.pres, squares.gb, squares.cfg, 5)
    for words in table.values():
        for w in words:
            cell = label_cell(squares.gb, squares.cfg, w)
            assert len(w) == cell.dimension + 2


def test_classes_squares(squares):
    assert len(commutation_classes(squares.gb, squares.cfg, (1, 2, 3, 4))) == 2
    assert len(commutation_classes(squares.gb, squares.cfg, (0, 0, 2, 3))) == 0
    assert len(commutation_classes(squares.gb, squares.cfg, (2,))) == 1


def test_class_representatives_are_least(squares):
    for cls in commutation_classes(squares.gb, squares.cfg, (1, 2, 3, 4)):
        assert isinstance(cls, CommutationClass)
        assert min(cls.size, 1) == 1


def test_class_bijection_with_survivors(squares, pair_swap):
    for ring, depth in ((squares, 6), (pair_swap, 6)):
        table = survivor_words_by_content(ring.pres, ring.gb, ring.cfg, depth)
        for content, words in table.items():
            classes = commutation_classes(ring.gb, ring.cfg, content)
            assert len(classes) == len(words), (ring.name, content)


def test_exactly_one_class_member_per_survivor(squares):
    table = survivor_words_by_content(squares.pres, squares.gb, squares.cfg, 5)
    for content, words in table.items():
        survivors = {tuple(reversed(w)) for w in words}
        for cls in commutation_classes(squares.gb, squares.cfg, content):
            # expand the class and count surviving members
            members = _class_members(squares, cls)
            assert len(members & survivors) == 1


def _class_members(ring, cls):
    words = {cls.representative}
    stack = [cls.representative]
    while stack:
        w = stack.pop()
        for k in range(len(w) - 1):
            a, b = w[k], w[k + 1]
            if a != b and ring.gb.commutes[a][b]:
                s = w[:k] + (b, a) + w[k + 2 :]
                if s not in words:
                    words.add(s)
                    stack.append(s)
    return words


def test_serialization_round_trip(squares):
    auto = build_quadratic_automaton(squares.gb, squares.cfg)
    doc = auto.to_json()
    rebuilt = MorseAutomaton(
        doc["alphabet"],
        list(range(doc["n_states"])),
        doc["initial"],
        set(doc["finals"]),
        {(s, a): t for s, a, t in doc["transitions"]},
    )
    assert rebuilt.count_words(5) == auto.count_words(5)


def test_degree_automaton_cyclic3_depth6(cyclic3):
    auto = build_degree_d_automaton(cyclic3.gb, cyclic3.cfg)
    accepted = accepted_word_set(auto, 6)
    assert len(accepted) == 106
    assert accepted == survivor_word_set(cyclic3, 6)


def test_series_equals_poincare_betti_totals(squares):
    # quadratic case: the Morse-number series is the Tor total series
    from morsegraded.homology import tor_ranks

    auto = build_quadratic_automaton(squares.gb, squares.cfg)
    coeffs = rational_series(auto).coefficients(5)
    table = tor_ranks(squares.pres, squares.pres.degree_window(4), 0)
    assert coeffs[1:5] == [table.total(i) for i in range(1, 5)]
