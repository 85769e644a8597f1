"""The window basis from fiber minima, its reference Buchberger, lead queries."""

import json
import random
from itertools import combinations, permutations, product
from operator import mul
from pathlib import Path

import pytest

from conftest import random_presentation
from morsegraded.errors import InvalidBasis, MorsegradedError
from morsegraded.groebner import (
    Binomial,
    GroebnerBasis,
    buchberger,
    dividing_leading_term,
    groebner_for,
    leading_ideal_member,
    normal_form,
    phi,
    toric_ideal_basis,
    verify_groebner,
)
from morsegraded.orders import KINDS, TermOrder, monomial_div, monomial_lcm, monomial_mul
from morsegraded.semigroup import SemigroupPresentation, standard_grading_functional

FIXTURES = Path(__file__).parent / "fixtures"


def test_squares_ring_single_relation(squares):
    gens = toric_ideal_basis(squares.pres, 2)
    assert gens == [((0, 1, 0, 0, 1), (2, 0, 0, 0, 0))]


def test_free_semigroup_has_no_relations(free_plane):
    assert toric_ideal_basis(free_plane.pres, 3) == []


def test_minor_ring_single_quadric(minor):
    gens = toric_ideal_basis(minor.pres, 2)
    assert len(gens) == 1
    u, v = gens[0]
    assert sorted([u, v]) == [(0, 0, 1, 1), (1, 1, 0, 0)]


def test_cap_must_be_at_least_two(squares):
    with pytest.raises(MorsegradedError):
        toric_ideal_basis(squares.pres, 1)


def test_buchberger_on_single_binomial(squares):
    gb = squares.gb
    assert len(gb.elements) == 1
    assert gb.elements[0].plus == (0, 1, 0, 0, 1)
    assert gb.degree == 2
    verify_groebner(gb, squares.pres, 4)


def test_buchberger_empty_input():
    order = TermOrder(3)
    gb = buchberger([], order)
    assert gb.elements == ()
    assert gb.degree == 0


def test_buchberger_permutation_independent():
    # twisted cubic: three quadrics, a classical Groebner basis
    pres = SemigroupPresentation(2, [(3, 0), (2, 1), (1, 2), (0, 3)])
    order = TermOrder(4)
    gens = toric_ideal_basis(pres, 2)
    assert len(gens) == 3
    reference = buchberger(gens, order)
    for perm in permutations(gens):
        assert buchberger(list(perm), order).elements == reference.elements


def test_buchberger_full_generators_reduce_all_collisions():
    # the three twisted-cubic quadrics are the textbook reduced basis;
    # every fiber collision up to degree 3 must reduce to zero through it
    pres = SemigroupPresentation(2, [(3, 0), (2, 1), (1, 2), (0, 3)])
    order = TermOrder(4)
    gens = toric_ideal_basis(pres, 2)
    gb = buchberger(gens, order)
    assert len(gb.elements) == 3
    assert {b.plus for b in gb.elements} == {
        (1, 0, 1, 0),
        (1, 0, 0, 1),
        (0, 1, 0, 1),
    }
    verify_groebner(gb, pres, 3)
    for u, v in toric_ideal_basis(pres, 3):
        assert normal_form(u, v, list(gb.elements)) is None


def s_pairs_reduce_to_zero(gb):
    """Buchberger's criterion: every S-pair of gb reduces to zero modulo gb."""
    basis = list(gb.elements)
    for f, g in combinations(basis, 2):
        lcm = monomial_lcm(f.plus, g.plus)
        u = monomial_mul(monomial_div(lcm, f.plus), f.minus)
        v = monomial_mul(monomial_div(lcm, g.plus), g.minus)
        if normal_form(u, v, basis) is not None:
            return False
    return True


def test_buchberger_completion_from_partial_generators():
    # two of the three minors generate a smaller ideal; completion must
    # still deliver a Groebner basis of that ideal, which misses a lead of
    # the toric ideal's
    pres = SemigroupPresentation(2, [(3, 0), (2, 1), (1, 2), (0, 3)])
    order = TermOrder(4)
    gens = toric_ideal_basis(pres, 2)
    gb = buchberger(gens[:2], order)
    assert s_pairs_reduce_to_zero(gb)
    assert any(b.plus == (1, 0, 2, 0) for b in gb.elements)  # cubic completion
    with pytest.raises(InvalidBasis):
        verify_groebner(gb, pres, 2)


def test_multigrading_preserved(squares):
    for b in squares.gb.elements:
        assert phi(squares.pres, b.plus) == phi(squares.pres, b.minus)


def test_membership_agrees_with_normal_form(squares):
    # monomial in the leading ideal iff its normal form differs from itself
    rng = random.Random(13)
    basis = list(squares.gb.elements)
    for _ in range(200):
        m = tuple(rng.randint(0, 2) for _ in range(5))
        direct = leading_ideal_member(squares.gb, m)
        reduced = normal_form(m, m, basis)
        changed = False
        from morsegraded.groebner import _reduce_monomial

        changed = _reduce_monomial(m, basis) != m
        assert direct == changed


def test_dividing_leading_term(squares):
    hit = dividing_leading_term(squares.gb, (0, 1, 1, 0, 1))  # z1*z2*z4
    assert hit is not None and hit.plus == (0, 1, 0, 0, 1)
    assert dividing_leading_term(squares.gb, (0, 0, 0, 0, 0)) is None


def test_dividing_leading_term_pair_swap(pair_swap):
    hit = dividing_leading_term(pair_swap.gb, (0, 1, 1, 0, 0, 1))  # z2*z3*z6
    assert hit is not None and hit.plus == (0, 1, 0, 0, 0, 1)


def fixture_ring(name):
    """Presentation and term order of one fixture document; its basis is not read."""
    doc = json.loads((FIXTURES / name).read_text())
    pres = SemigroupPresentation(doc["dimension"], doc["generators"])
    return pres, TermOrder.from_json(pres.n, doc.get("term_order"))


FIXTURE_NAMES = sorted(p.name for p in FIXTURES.glob("*.json"))


def test_verify_rejects_incomplete_basis():
    # dropping any one element of the window's basis leaves a minimal lead
    # of the window that no remaining lead divides
    twisted = SemigroupPresentation(2, [(3, 0), (2, 1), (1, 2), (0, 3)]), TermOrder(4)
    for pres, order in [twisted, *map(fixture_ring, FIXTURE_NAMES)]:
        full = groebner_for(pres, order, 4)
        verify_groebner(full, pres, 4)
        for k, dropped in enumerate(full.elements):
            stale = GroebnerBasis(order, full.elements[:k] + full.elements[k + 1 :])
            with pytest.raises(InvalidBasis) as err:
                verify_groebner(stale, pres, 4)
            assert str(err.value) == (
                f"relation {dropped.plus} - {dropped.minus} does not reduce to zero: basis is stale"
            )
    assert len(groebner_for(*twisted, 4).elements) == 3


def test_verify_rejects_bad_orientation(squares):
    flipped = GroebnerBasis(
        squares.order,
        tuple(Binomial(b.minus, b.plus) for b in squares.gb.elements),
    )
    with pytest.raises(InvalidBasis):
        verify_groebner(flipped, squares.pres, 2)


def test_degree_ceiling_guard():
    # completing from a partial generator set forces a degree-3 addition
    pres = SemigroupPresentation(2, [(3, 0), (2, 1), (1, 2), (0, 3)])
    order = TermOrder(4)
    gens = toric_ideal_basis(pres, 2)
    with pytest.raises(MorsegradedError):
        buchberger(gens[:2], order, degree_ceiling=2)


def test_cubic_relation_ring(cyclic3):
    gb = cyclic3.gb
    assert len(gb.elements) == 1
    assert gb.degree == 3
    assert gb.elements[0].plus == (0, 0, 0, 1, 1, 1)


def test_two_by_three_minor_ideal_basis():
    # product-of-segments ring: the reduced basis is the three 2x2 minors
    pres = SemigroupPresentation(
        5,
        [
            (1, 0, 1, 0, 0),
            (1, 0, 0, 1, 0),
            (1, 0, 0, 0, 1),
            (0, 1, 1, 0, 0),
            (0, 1, 0, 1, 0),
            (0, 1, 0, 0, 1),
        ],
    )
    order = TermOrder(6)
    gb = groebner_for(pres, order, 3)
    assert len(gb.elements) == 3
    verify_groebner(gb, pres, 3)
    for b in gb.elements:
        assert sum(b.plus) == 2 and sum(b.minus) == 2


def reference_toric_ideal_basis(pres, cap):
    """Every monomial up to cap, each image computed from scratch by phi."""
    from itertools import combinations

    from morsegraded.orders import monomial_div, monomial_gcd

    by_image = {}
    level = [tuple([0] * pres.n)]
    seen = {level[0]}
    for _ in range(cap):
        nxt = []
        for m in level:
            for i in range(pres.n):
                w = list(m)
                w[i] += 1
                w = tuple(w)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        for m in nxt:
            by_image.setdefault(phi(pres, m), []).append(m)
        level = nxt
    found = set()
    for group in by_image.values():
        for u, v in combinations(group, 2):
            g = monomial_gcd(u, v)
            uu, vv = monomial_div(u, g), monomial_div(v, g)
            if uu != vv:
                found.add(frozenset((uu, vv)))
    return sorted(tuple(sorted(pair)) for pair in found)


@pytest.mark.parametrize(
    "dimension, generators, cap",
    [
        (4, [(1, 1, 0, 0), (2, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 2, 0, 0)], 6),
        (4, [(1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1), (0, 1, 1, 0)], 6),
        (2, [(3, 0), (2, 1), (1, 2), (0, 3)], 5),
        (2, [(1, 2), (3, 0), (0, 3), (2, 1), (1, 3)], 5),  # not standard-graded
        (1, [(3,), (4,), (5,)], 8),  # numerical semigroup
        (3, [(1, 0, 1), (2, 0, 0), (0, 1, 1), (0, 2, 0), (1, 1, 0)], 5),
    ],
    ids=["squares", "minor", "twisted_cubic", "skew2d", "n345", "ring5_seed22"],
)
def test_toric_ideal_basis_equals_phi_reference(dimension, generators, cap):
    pres = SemigroupPresentation(dimension, generators)
    for c in range(2, cap + 1):
        assert toric_ideal_basis(pres, c) == reference_toric_ideal_basis(pres, c)


def coordinate_sum_cap(pres, window_degree):
    """The coordinate-sum cap: the window times the ratio of the largest to
    the smallest coordinate sum, which bounds the trailing side of a
    relation whose lead has at most that many letters."""
    sums = [sum(g) for g in pres.generators]
    d = max(1, window_degree)
    return max(2, -(-d * max(sums) // min(sums)))


def hyperplane_points(a, c):
    """Points p of N^len(a) with a . p = c."""
    return [p for p in product(range(c + 1), repeat=len(a)) if sum(x * y for x, y in zip(a, p)) == c]


def window_part(gb, d):
    return tuple(b for b in gb.elements if sum(b.plus) <= d)


def region(pres, d):
    """groebner_for's region, recomputed: the integer generator weights (1
    under a standard grading, else coordinate sums) and the weight bound."""
    if standard_grading_functional(pres) is not None:
        weight = [1] * pres.n
    else:
        weight = [sum(g) for g in pres.generators]
    return weight, max(2, d) * max(weight)


def restricted_reference(pres, order, d):
    """Buchberger's reduced basis at a cap that takes in every fiber of the
    region, restricted to the elements whose lead lies in the region.

    A monomial of a region fiber has at most bound / min weight letters, so
    the relations up to that cap generate the toric ideal in every region
    fiber, and the reduced basis elements with leads there are the toric
    ideal's.
    """
    weight, bound = region(pres, d)
    gb = buchberger(toric_ideal_basis(pres, max(2, bound // min(weight))), order)
    return tuple(b for b in gb.elements if sum(map(mul, weight, b.plus)) <= bound)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_pass_equals_restricted_buchberger_on_fixtures(name):
    pres, order = fixture_ring(name)
    for d in range(3, 8):
        assert groebner_for(pres, order, d).elements == restricted_reference(pres, order, d), d


def random_order(rng, n, kind):
    """A term order of the given kind with a shuffled priority; a weight
    matrix gets a positive first row and unit rows for full rank."""
    priority = rng.sample(range(n), n)
    if kind != "weight-matrix":
        return TermOrder(n, kind=kind, priority=priority)
    units = [[int(j == v) for j in range(n)] for v in priority[: n - 1]]
    return TermOrder(n, kind=kind, rows=[[rng.randint(1, 3) for _ in range(n)]] + units)


def test_pass_equals_restricted_buchberger_on_seeded_rings():
    # 12 standard-graded rings and 12 others, all with relations, cycling
    # through the four term-order kinds.  The reference enumerates every
    # monomial up to its cap, so draws whose cap exceeds 8 (skewed weights)
    # are skipped: one at cap 16 takes a minute.  skew2d covers skewed
    # weights at caps up to 9.
    rng = random.Random(20261019)
    left = {True: 12, False: 12}
    while any(left.values()):
        pres = random_presentation(rng, max_dimension=3, window_degree=4, face_budget=20_000)
        weight, bound = region(pres, 4)
        graded = standard_grading_functional(pres) is not None
        if not left[graded] or bound // min(weight) > 8:
            continue
        order = random_order(rng, pres.n, KINDS[sum(left.values()) % len(KINDS)])
        gb = groebner_for(pres, order, 4)
        assert gb.elements == restricted_reference(pres, order, 4), (pres.generators, order.to_json())
        if gb.elements:
            verify_groebner(gb, pres, 4)
            left[graded] -= 1


def test_window_cap_keeps_window_leads_on_graded_rings():
    """On standard-graded rings with unequal coordinate sums, the window's
    basis is the coordinate-sum cap's basis cut at lead degree d: the
    region of a standard grading is the fibers of degree <= max(2, d), and
    the coordinate-sum cap certifies the elements there.  Beyond d that
    basis lists elements on this sample, and the window's lists none."""
    rng = random.Random(20261019)
    planes = [hyperplane_points((1, 1, 2), 4), hyperplane_points((1, 2, 3), 6)]
    beyond = deep = 0
    for draw in range(12):
        points = planes[draw % 2]
        while True:
            gens = rng.sample(points, 5 - draw % 2)
            if len({sum(g) for g in gens}) > 1:
                break
        pres = SemigroupPresentation(3, gens)
        assert standard_grading_functional(pres) is not None
        kind = ("lex", "graded-lex", "graded-revlex")[draw % 3]
        order = TermOrder(pres.n, kind=kind, priority=rng.sample(range(pres.n), pres.n))
        for d in (3, 4, 5):
            old = buchberger(toric_ideal_basis(pres, coordinate_sum_cap(pres, d)), order)
            new = groebner_for(pres, order, d)
            assert new.elements == window_part(old, d), (gens, d)
            beyond += window_part(old, d) != old.elements
            deep += any(sum(b.plus) > 2 for b in new.elements)
    assert beyond and deep

