"""Toric generators, Buchberger completion, leading-term queries."""

import random
from itertools import permutations, product

import pytest

from morsegraded.errors import InvalidBasis, MorsegradedError
from morsegraded.groebner import (
    Binomial,
    GroebnerBasis,
    buchberger,
    default_cap,
    dividing_leading_term,
    groebner_for,
    leading_ideal_member,
    normal_form,
    phi,
    toric_ideal_basis,
    verify_groebner,
)
from morsegraded.orders import TermOrder
from morsegraded.semigroup import SemigroupPresentation, standard_grading_functional


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
    verify_groebner(gb, squares.pres)


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
    verify_groebner(gb, pres)
    for u, v in toric_ideal_basis(pres, 3):
        assert normal_form(u, v, list(gb.elements)) is None


def test_buchberger_completion_from_partial_generators():
    # two of the three minors generate a smaller ideal; completion must
    # still deliver a basis passing the S-pair criterion for that ideal
    pres = SemigroupPresentation(2, [(3, 0), (2, 1), (1, 2), (0, 3)])
    order = TermOrder(4)
    gens = toric_ideal_basis(pres, 2)
    gb = buchberger(gens[:2], order)
    verify_groebner(gb, pres)
    assert any(b.plus == (1, 0, 2, 0) for b in gb.elements)  # cubic completion


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


def test_verify_rejects_incomplete_basis():
    pres = SemigroupPresentation(2, [(3, 0), (2, 1), (1, 2), (0, 3)])
    order = TermOrder(4)
    full = buchberger(toric_ideal_basis(pres, 2), order)
    assert len(full.elements) == 3
    stale = GroebnerBasis(order, full.elements[:2])
    with pytest.raises(InvalidBasis):
        verify_groebner(stale, pres)


def test_verify_rejects_bad_orientation(squares):
    flipped = GroebnerBasis(
        squares.order,
        tuple(Binomial(b.minus, b.plus) for b in squares.gb.elements),
    )
    with pytest.raises(InvalidBasis):
        verify_groebner(flipped, squares.pres)


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
    gb = buchberger(toric_ideal_basis(pres, 2), order)
    assert len(gb.elements) == 3
    verify_groebner(gb, pres, completeness_cap=3)
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
    """default_cap's formula before it read the standard grading: the ratio
    of the largest to the smallest coordinate sum, on every presentation."""
    sums = [sum(g) for g in pres.generators]
    d = max(1, window_degree)
    return max(2, -(-d * max(sums) // min(sums)))


def hyperplane_points(a, c):
    """Points p of N^len(a) with a . p = c."""
    return [p for p in product(range(c + 1), repeat=len(a)) if sum(x * y for x, y in zip(a, p)) == c]


def window_part(gb, d):
    return tuple(b for b in gb.elements if sum(b.plus) <= d)


def test_window_cap_keeps_window_leads_on_graded_rings():
    """On standard-graded rings with unequal coordinate sums, the cap
    max(2, d) and the coordinate-sum cap yield the same basis elements of
    lead degree <= d.  Beyond d neither basis is certified, and the two
    differ there on this sample in both directions."""
    rng = random.Random(20261019)
    planes = [hyperplane_points((1, 1, 2), 4), hyperplane_points((1, 2, 3), 6)]
    old_only = new_only = deep = 0
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
            assert default_cap(pres, d) == d < coordinate_sum_cap(pres, d)
            old = groebner_for(pres, order, coordinate_sum_cap(pres, d))
            new = groebner_for(pres, order, default_cap(pres, d))
            assert window_part(new, d) == window_part(old, d), (gens, d)
            old_only += window_part(old, d) != old.elements
            new_only += window_part(new, d) != new.elements
            deep += any(sum(b.plus) > 2 for b in window_part(new, d))
    assert old_only and new_only and deep


def test_default_cap_uses_coordinate_sums_without_a_grading():
    skew = SemigroupPresentation(2, [(1, 2), (3, 0), (0, 3), (2, 1), (1, 3)])
    assert standard_grading_functional(skew) is None
    for d in range(1, 7):
        assert default_cap(skew, d) == coordinate_sum_cap(skew, d)
