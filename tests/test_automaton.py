"""Language construction, rational series, commutation classes."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import comb
from pathlib import Path

import pytest

from conftest import (
    distinct_permutations,
    fixture_and_seeded_rings,
    flood_fill_class,
    random_presentation,
    reference_commutation_classes,
)
from morsegraded import automaton
from morsegraded.automaton import (
    INIT,
    _Rules,
    _explore,
    MorseAutomaton,
    RationalSeries,
    build_degree_d_automaton,
    build_quadratic_automaton,
    commutation_classes,
    rational_series,
)
from morsegraded.cancellation import survivor_words_by_content
from morsegraded.chains import FacetOrderConfig
from morsegraded.errors import (
    CollectionEnumerationOverflow,
    InternalInvariantError,
    MorsegradedError,
)
from morsegraded.groebner import (
    buchberger,
    groebner_for,
    leading_ideal_member,
    toric_ideal_basis,
    verify_groebner,
)
from morsegraded.io import parse_input
from morsegraded.orders import TermOrder, content_monomial
from morsegraded.semigroup import SemigroupPresentation

FIXTURES = Path(__file__).parent / "fixtures"


def survivor_word_set(ring, depth):
    table = survivor_words_by_content(ring.pres, ring.gb, ring.cfg, depth)
    return {tuple(reversed(w)) for words in table.values() for w in words}


def accepted_word_set(auto, depth):
    return {w for ws in auto.words_up_to(depth).values() for w in ws}


def fixture_basis(name):
    """Groebner basis and facet order of one fixture, at window 5."""
    doc = parse_input((FIXTURES / f"{name}.json").read_text())
    pres, order = doc.presentation, doc.order
    return doc.supplied_basis or groebner_for(pres, order, 5), FacetOrderConfig(order)


def contents_to(n_labels, depth):
    """Every content of at most `depth` letters, as a sorted tuple."""
    for d in range(depth + 1):
        yield from combinations_with_replacement(range(n_labels), d)


def test_distinct_permutations_lexicographic():
    for items in [(), (2,), (1, 1), (3, 0, 2, 0), (2, 1, 2, 0, 1, 2), tuple(range(6))]:
        assert list(distinct_permutations(items)) == sorted(set(permutations(items)))


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
    from morsegraded.morse import cell_intervals, msi_characterization

    table = survivor_words_by_content(squares.pres, squares.gb, squares.cfg, 5)
    for words in table.values():
        for w in words:
            system = msi_characterization(squares.gb, squares.cfg, w)
            assert len(w) == len(cell_intervals(system, len(w) - 1)) + 1


def test_classes_squares(squares):
    assert len(commutation_classes(squares.gb, squares.cfg, (1, 2, 3, 4))) == 2
    assert len(commutation_classes(squares.gb, squares.cfg, (0, 0, 2, 3))) == 0
    assert len(commutation_classes(squares.gb, squares.cfg, (2,))) == 1


def test_class_representatives_are_least(squares):
    rank = squares.cfg.order.label_rank
    for content in contents_to(squares.pres.n, 5):
        for cls in commutation_classes(squares.gb, squares.cfg, content):
            members = flood_fill_class(squares.gb, cls.representative)
            assert cls.representative == min(members, key=lambda w: [rank[i] for i in w])
            assert cls.size == len(members)


def test_classes_match_flood_fill_reference(squares, pair_swap, minor, cyclic3):
    cases = [(ring.gb, ring.cfg, 6) for ring in (squares, pair_swap, minor)]
    cases.append((cyclic3.gb, cyclic3.cfg, 5))
    cases += [(*fixture_basis(name), 5) for name in ("cyclic_split3", "skew2d", "ring5_seed22")]
    for gb, cfg, depth in cases:
        for content in contents_to(cfg.order.n, depth):
            want = reference_commutation_classes(gb, cfg, content)
            assert commutation_classes(gb, cfg, content) == want, content


def test_class_search_pushes_fewer_words_than_arrangements(pair_swap, monkeypatch):
    extend = automaton._extend
    pushed = 0

    def spy(*args):
        nonlocal pushed
        mask = extend(*args)
        pushed += mask is not None
        return mask

    monkeypatch.setattr(automaton, "_extend", spy)
    monkeypatch.setitem(vars(pair_swap.gb), "class_tables", {})  # grown here, not by earlier tests
    for content in contents_to(pair_swap.pres.n, 6):
        commutation_classes(pair_swap.gb, pair_swap.cfg, content)
    # each word of length <= 6 arranges exactly one content
    arrangements = sum(pair_swap.pres.n**d for d in range(7))
    assert 2 * pushed < arrangements


# -- one class table per basis ----------------------------------------------------


def test_class_table_equals_reference_on_fixture_and_seeded_rings():
    rings = 0
    for name, _, cfg, gb in fixture_and_seeded_rings(5):
        for content in contents_to(cfg.order.n, 5):
            want = reference_commutation_classes(gb, cfg, content)
            assert commutation_classes(gb, cfg, content) == want, (name, content)
        rings += 1
    assert rings == 12


def test_class_table_answers_do_not_depend_on_request_order():
    # contents asked for longest first grow the table in one request; one
    # content asked for alone on a fresh basis reads the same list
    several = 0
    for name in ("squares", "pair_swap", "cyclic_split3"):
        gb, cfg = fixture_basis(name)
        contents = list(contents_to(cfg.order.n, 5))
        ascending = {c: commutation_classes(gb, cfg, c) for c in contents}
        gb, cfg = fixture_basis(name)
        for content in reversed(contents):
            assert commutation_classes(gb, cfg, content) == ascending[content], (name, content)
        for content in contents[:: len(contents) // 25]:
            gb, cfg = fixture_basis(name)
            assert commutation_classes(gb, cfg, content) == ascending[content], (name, content)
        several += sum(len(classes) > 1 for classes in ascending.values())
    assert several


def test_second_sweep_over_contents_grows_nothing(monkeypatch):
    extend = automaton._extend
    calls = 0

    def spy(*args):
        nonlocal calls
        calls += 1
        return extend(*args)

    monkeypatch.setattr(automaton, "_extend", spy)
    gb, cfg = fixture_basis("pair_swap")
    contents = list(contents_to(cfg.order.n, 5))
    first = [commutation_classes(gb, cfg, c) for c in contents]
    grown = calls
    assert grown > 0
    assert [commutation_classes(gb, cfg, c) for c in contents] == first
    assert calls == grown


def test_returned_class_list_is_the_callers_own(squares):
    content = (1, 2, 3, 4)
    got = commutation_classes(squares.gb, squares.cfg, content)
    want = list(got)
    assert len(want) == 2
    got.clear()
    assert commutation_classes(squares.gb, squares.cfg, content) == want
    got = commutation_classes(squares.gb, squares.cfg, content)
    got.append(got[0])
    assert commutation_classes(squares.gb, squares.cfg, content) == want


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
            members = flood_fill_class(squares.gb, cls.representative)
            assert len(members & survivors) == 1


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


# -- reference: the former two rule sets, a pair-window class and a subclass ---


class ReferenceQuadraticRules:
    """Transition logic for a fixed degree-2 basis."""

    def __init__(self, gb, cfg):
        self.gb = gb
        self.commutes = gb.commutes
        self.rank = cfg.order.label_rank
        self.n = cfg.order.n

    def pair_kind(self, lam, mu):
        if self.rank[lam] > self.rank[mu]:
            return "descent"
        if not self.commutes[lam][mu]:
            return "lead"
        return None

    def _labels_after(self, items, pos):
        return [it[1] for it in items[pos + 1 :] if it[0] == "L"]

    def in_nes(self, items, window_pos, lam):
        a1, a2 = items[window_pos][1]
        if not (self.rank[a1] < self.rank[lam] < self.rank[a2]):
            return False
        if not self.commutes[lam][a1] or not self.commutes[lam][a2]:
            return False
        for nu in self._labels_after(items, window_pos):
            if not self.commutes[lam][nu]:
                return False
            if self.rank[nu] >= self.rank[lam]:
                return False
        return True

    def nes_violation(self, items, lam):
        return any(
            it[0] == "I" and self.in_nes(items, pos, lam) for pos, it in enumerate(items)
        )

    def letter_can_drop_into(self, items, lam, mu):
        for q, it in enumerate(items):
            if it[0] != "L":
                continue
            mu_p = it[1]
            if not (self.rank[lam] < self.rank[mu_p] < self.rank[mu]):
                continue
            later = self._labels_after(items, q)
            if any(self.rank[x] <= self.rank[mu_p] for x in later):
                continue
            if any(not self.commutes[mu_p][x] for x in later):
                continue
            pruned = items[:q] + items[q + 1 :]
            if any(jt[0] == "I" and self.in_nes(pruned, r, mu) for r, jt in enumerate(pruned)):
                return True
        return False

    def append(self, items, new_items):
        out = [it for it in items if it not in new_items]
        out.extend(new_items)
        return tuple(out)

    def step(self, state, letter):
        if state == INIT:
            return ("F", (("L", letter),), letter)
        if state[0] == "F":
            _, items, last = state
            kind = self.pair_kind(letter, last)
            if kind is None:
                return None
            if kind == "lead":
                if self.letter_can_drop_into(items, letter, last):
                    return None
                new = self.append(items, (("L", letter), ("I", (letter, last))))
                if self.nes_violation(items, letter):
                    return ("U", new, letter, last)
                return ("F", new, letter)
            if self.nes_violation(items, letter):
                return ("U", self.append(items, (("L", letter),)), letter, last)
            return ("F", self.append(items, (("L", letter),)), letter)
        _, items, lam, mu = state
        if self.rank[letter] > self.rank[lam] or self.commutes[letter][lam]:
            return None
        rescue = (
            self.rank[letter] < self.rank[mu]
            and self.commutes[letter][mu]
            and not self._shift_stays_critical(items, lam, letter)
        )
        if not rescue:
            pruned = tuple(it for it in items if it != ("L", lam))
            rescue = self.nes_violation(pruned, letter)
        if not rescue:
            return None
        return ("F", self.append(items, (("L", letter), ("I", (letter, lam)))), letter)

    def _shift_stays_critical(self, items, lam, lam2):
        before = tuple(it for it in items if it != ("L", lam))
        target = None
        for pos in range(len(before) - 1, -1, -1):
            if before[pos][0] == "I" and self.in_nes(before, pos, lam):
                target = pos
                break
        if target is None:
            return False
        a1 = before[target][1][0]
        segment = [it[1] for it in before[target + 1 :] if it[0] == "L"]
        run = [lam2] + list(reversed(segment)) + [a1, lam]
        if any(self.rank[a] > self.rank[b] for a, b in zip(run, run[1:])):
            return False
        last = len(run) - 1
        for i in range(len(run)):
            for j in range(i + 1, len(run)):
                if (i, j) != (0, last) and not self.commutes[run[i]][run[j]]:
                    return False
        return True


class ReferenceDegreeRules(ReferenceQuadraticRules):
    """General-degree transitions: pair logic plus collection completions."""

    def __init__(self, gb, cfg):
        super().__init__(gb, cfg)
        self.high_leads = []
        for b in gb.elements:
            labels = []
            for i, e in enumerate(b.plus):
                labels.extend([i] * e)
            if len(labels) > 2:
                labels.sort(key=lambda i: self.rank[i])
                self.high_leads.append(tuple(labels))

    def in_nes_window(self, items, pos, window, lam):
        a1, a2 = window[0], window[-1]
        if not (self.rank[a1] < self.rank[lam] < self.rank[a2]):
            return False
        without_last = content_monomial(window[:-1] + (lam,), self.n)
        without_first = content_monomial(window[1:] + (lam,), self.n)
        if leading_ideal_member(self.gb, without_last) or leading_ideal_member(
            self.gb, without_first
        ):
            return False
        for nu in self._labels_after(items, pos):
            if not self.commutes[lam][nu] or self.rank[nu] >= self.rank[lam]:
                return False
        return True

    def in_nes(self, items, window_pos, lam):
        window = items[window_pos][1]
        if len(window) == 2:
            return super().in_nes(items, window_pos, lam)
        return self.in_nes_window(items, window_pos, window, lam)

    def collection_starts(self, items, last):
        out = []
        for lead in self.high_leads:
            if lead[-1] != last:
                continue
            rest = tuple(reversed(lead[:-1]))
            if self.letter_can_drop_into(items, lead[0], last):
                continue
            out.append((lead, rest))
        return out

    def step(self, state, letter):
        if state and state[0] == "C":
            _, base, lead, consumed = state
            rest = tuple(reversed(lead[:-1]))
            if letter != rest[consumed]:
                return None
            consumed += 1
            if consumed < len(rest):
                return ("C", base, lead, consumed)
            _, items, last = base
            return ("F", self.append(items, (("L", letter), ("I", lead))), letter)
        nxt = super().step(state, letter)
        if nxt is not None or state == INIT or state[0] != "F":
            return nxt
        _, items, last = state
        candidates = [lead for lead, rest in self.collection_starts(items, last) if rest[0] == letter]
        if not candidates:
            return None
        if len(candidates) > 1:
            raise CollectionEnumerationOverflow(
                "ambiguous overlapping collection transitions; basis not supported"
            )
        return ("C", state, candidates[0], 1)


def reference_automaton(gb, cfg, quadratic, state_budget=1_000_000):
    """The former builders: pair rules alone, or pair rules plus collections."""
    rules = ReferenceQuadraticRules if quadratic else ReferenceDegreeRules
    return _explore(rules(gb, cfg), cfg.order.n, state_budget)


def _outcome(build):
    try:
        return build().to_json()
    except CollectionEnumerationOverflow as exc:
        return ("raises", str(exc))


def assert_matches_reference(gb, cfg, state_budget=1_000_000):
    """Equal to_json(), state numbering included, or the same error; the
    quadratic builder against the pair rules, the general one against the
    pair rules plus collections."""
    cases = [(build_degree_d_automaton, False)]
    if gb.degree <= 2:
        cases.append((build_quadratic_automaton, True))
    outcomes = []
    for build, quadratic in cases:
        want = _outcome(lambda: reference_automaton(gb, cfg, quadratic, state_budget))
        assert _outcome(lambda: build(gb, cfg, state_budget)) == want, (build.__name__, gb)
        outcomes.append(want)
    return outcomes[0]


def test_builders_match_reference_on_conftest_rings(squares, pair_swap, minor, cyclic3, free_plane):
    for ring in (squares, pair_swap, minor, cyclic3, free_plane):
        assert_matches_reference(ring.gb, ring.cfg)


def test_builders_match_reference_on_fixtures():
    names = ["cyclic_split3", "minor", "pair_swap", "ring5_seed22", "skew2d", "squares"]
    for name in names:
        assert_matches_reference(*fixture_basis(name))


def test_builders_match_reference_on_seeded_rings():
    ambiguous = SemigroupPresentation(2, [(2, 2), (2, 1), (3, 0), (2, 0)])
    rings = [(ambiguous, 4)]
    rng = random.Random(5)
    by_degree = {2: 0, 3: 0}
    seen = set()
    while min(by_degree.values()) < 12:
        pres = random_presentation(
            rng, max_generators=6, max_dimension=3, window_degree=3, face_budget=20_000
        )
        cap = 2 + 2 * (len(seen) % 2)  # quadric-only input and up to quartics
        degree = buchberger(toric_ideal_basis(pres, cap), TermOrder(pres.n)).degree
        if degree < 2 or pres.generators in seen:
            continue
        seen.add(pres.generators)
        by_degree[min(degree, 3)] += 1
        rings.append((pres, cap))
    errors = []
    for pres, cap in rings:
        order = TermOrder(pres.n)
        gb = buchberger(toric_ideal_basis(pres, cap), order)
        out = assert_matches_reference(gb, FacetOrderConfig(order), state_budget=3_000)
        if isinstance(out, tuple):
            errors.append(out[1])
    assert any("ambiguous" in e for e in errors)
    assert len(errors) < len(rings) // 2


def test_rescue_run_with_non_commuting_pair():
    """A quadratic ring on which _shift_stays_critical meets a run with a
    non-commuting pair other than its ends, so the rejection for it fires.

    Reading 0, 5, 2, 3 top-down opens the pair windows (5, 0) and (2, 5),
    then the descent 3 enters U; the climb of 3 into (5, 0) under the
    letter 1 needs the run 1, 2, 5, 3, whose labels 2 and 5 do not commute.
    """
    pres = SemigroupPresentation(
        3, [(0, 1, 1), (1, 1, 0), (1, 1, 1), (1, 1, 2), (2, 1, 1), (2, 1, 2)]
    )
    order = TermOrder(6, "graded-revlex", [0, 3, 5, 2, 1, 4])
    gb = groebner_for(pres, order, 2)
    verify_groebner(gb, pres, 4)
    cfg = FacetOrderConfig(order)
    assert gb.degree == 2 and not gb.commutes[2][5]
    rules = _Rules(gb, cfg)
    state = INIT
    for letter in (0, 5, 2, 3):
        state = rules.step(state, letter)
    assert state[0] == "U"
    _, items, lam, _ = state
    assert not rules._shift_stays_critical(items, lam, 1)
    rescued = rules.step(state, 1)
    assert rescued[0] == "F"
    assert ReferenceDegreeRules(gb, cfg).step(state, 1) == rescued


@pytest.mark.xfail(strict=True, reason="known defect: overlapping degree-3 windows")
@pytest.mark.parametrize("name", ["skew2d", "ring5_seed22"])
def test_language_equals_survivors_degree3_fixtures(name):
    doc = parse_input((FIXTURES / f"{name}.json").read_text())
    pres, order = doc.presentation, doc.order
    cfg = FacetOrderConfig(order)
    gb = groebner_for(pres, order, 5)
    assert gb.degree == 3
    auto = build_degree_d_automaton(gb, cfg)
    table = survivor_words_by_content(pres, gb, cfg, 5)
    survivors = {tuple(reversed(w)) for words in table.values() for w in words}
    assert accepted_word_set(auto, 5) == survivors


# -- the series route: minimisation, Faddeev-LeVerrier, breaches ---------------


def hand_built(n_labels, n_states, finals, edges):
    return MorseAutomaton(n_labels, list(range(n_states)), 0, set(finals), dict(edges))


# the words a b^k: 0 -a-> 1, 1 -b-> 1, state 1 final; series t / (1 - t)
A_B_STAR = {(0, 0): 1, (1, 1): 1}


def test_series_of_empty_language():
    no_finals = hand_built(1, 1, [], {(0, 0): 0})
    # state 2 is final, but no word leads to it
    unreachable_final = hand_built(2, 3, [2], {(0, 0): 1, (1, 1): 1, (2, 0): 0})
    for auto in (no_finals, unreachable_final):
        assert automaton._minimize(auto) is None
        series = rational_series(auto)
        assert (series.numerator, series.denominator) == ((0,), (1,))
        assert series.render() == "(0) / (1)"


def test_dead_branch_and_unreachable_state_leave_the_series():
    base = hand_built(2, 2, [1], A_B_STAR)
    # 0 -b-> 2 <-a-> 3 never reaches a final state
    dead = hand_built(2, 4, [1], {**A_B_STAR, (0, 1): 2, (2, 0): 3, (3, 0): 2})
    # state 2 is final and leads into the language, but nothing leads to it
    unreachable = hand_built(2, 3, [1, 2], {**A_B_STAR, (2, 0): 0, (2, 1): 2})
    want = rational_series(base)
    assert (want.numerator, want.denominator) == ((0, 1), (1, -1))
    for auto in (dead, unreachable):
        assert rational_series(auto) == want
        assert automaton._minimize(auto).to_json() == automaton._minimize(base).to_json()


def test_dead_and_unreachable_states_added_to_squares(squares):
    auto = build_quadratic_automaton(squares.gb, squares.cfg)
    n = len(auto.states)
    s, letter = next(
        (s, a) for s in range(n) for a in range(auto.n_labels) if (s, a) not in auto.transitions
    )
    edges = dict(auto.transitions)
    edges[(s, letter)] = n  # a dead cycle n <-> n + 1
    edges[(n, 0)] = n + 1
    edges[(n + 1, 0)] = n
    for a in range(auto.n_labels):  # an unreachable final state n + 2
        edges[(n + 2, a)] = auto.initial
    padded = MorseAutomaton(
        auto.n_labels, list(range(n + 3)), auto.initial, auto.finals | {n + 2}, edges
    )
    assert rational_series(padded, verify_len=6) == rational_series(auto, verify_len=6)


def fraction_det(rows):
    """Determinant by Gaussian elimination over Q."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def test_faddeev_leverrier_equals_determinant_of_i_minus_km():
    rng = random.Random(20)
    for trial in range(60):
        n = trial % 8
        low = -3 if trial % 2 else 0  # transfer matrices are nonnegative
        mat = [[rng.randint(low, 3) for _ in range(n)] for _ in range(n)]
        poly = automaton._det_one_minus_tm(mat)
        assert poly[0] == 1 and len(poly) <= n + 1
        for k in range(n + 1):
            value = sum(c * k**j for j, c in enumerate(poly))
            i_minus_km = [[(i == j) - k * mat[i][j] for j in range(n)] for i in range(n)]
            assert value == fraction_det(i_minus_km), (mat, k)


def test_inexact_faddeev_leverrier_division_is_a_breach():
    with pytest.raises(InternalInvariantError, match=r"^series: trace 1/2 not divisible by 1"):
        automaton._det_one_minus_tm([[Fraction(1, 2)]])


def miscount_last(monkeypatch, when=lambda max_len: True):
    original = MorseAutomaton.count_words

    def miscount(self, max_len):
        counts = original(self, max_len)
        counts[-1] += when(max_len)
        return counts

    monkeypatch.setattr(MorseAutomaton, "count_words", miscount)


def test_series_expansion_breaches_name_the_stage():
    with pytest.raises(InternalInvariantError, match="^series: denominator has zero constant term"):
        RationalSeries((1,), (0, 1)).coefficients(3)
    with pytest.raises(InternalInvariantError, match="^series: expansion is not integral"):
        RationalSeries((1,), (2, 1)).coefficients(3)


def test_series_breaches_name_the_stage(squares, monkeypatch):
    auto = build_quadratic_automaton(squares.gb, squares.cfg)
    empty = hand_built(1, 1, [], {(0, 0): 0})
    miscount_last(monkeypatch, when=lambda max_len: max_len == 5)
    with pytest.raises(InternalInvariantError, match="^series: transfer-matrix counts disagree"):
        rational_series(auto, verify_len=5)
    with pytest.raises(InternalInvariantError, match="^series: empty minimal automaton"):
        rational_series(empty, verify_len=5)
    miscount_last(monkeypatch)
    with pytest.raises(InternalInvariantError, match="^series: numerator degree exceeds"):
        rational_series(auto, verify_len=5)
