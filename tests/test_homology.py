"""The simplicial homology oracle: ranks, torsion, Tor tables, vanishing."""

from fractions import Fraction

from morsegraded import homology
from morsegraded.homology import (
    below_vanishing_bound,
    betti_numbers,
    integral_homology,
    order_complex,
    rational_from_primes,
    reduced_betti,
    smith_normal_form,
    standard_grading_functional,
    tor_ranks,
    tor_tables,
    verify_vanishing,
)
from morsegraded.semigroup import SemigroupPresentation


def test_two_points(free_plane):
    cx = order_complex(free_plane.pres.interval((0, 0), (1, 1)))
    assert reduced_betti(cx, 0) == (0, 1)


def test_empty_complex(squares):
    cx = order_complex(squares.interval((0, 0, 1, 0)))
    assert reduced_betti(cx, 0) == (1,)


def test_wedge_of_two_spheres(squares):
    cx = order_complex(squares.interval((2, 2, 1, 1)))
    for char in (0, 2, 3):
        assert reduced_betti(cx, char) == (0, 0, 0, 2)


def test_four_points_in_minor_ring(minor):
    cx = order_complex(minor.interval((1, 1, 1, 1)))
    assert reduced_betti(cx, 0) == (0, 3)


def test_two_circles_in_cyclic3(cyclic3):
    cx = order_complex(cyclic3.interval((1, 1, 1, 1, 1, 1)))
    assert reduced_betti(cx, 0) == (0, 1, 2)
    assert cx.euler_characteristic() == 0


def test_euler_characteristic_equals_alternating_betti(squares):
    zero = squares.zero
    for lam in sorted(squares.pres.degree_window(4)):
        cx = order_complex(squares.interval(lam))
        betti = reduced_betti(cx, 0)
        alt = sum((-1) ** i * b for i, b in enumerate(betti, start=-1))
        # reduced Euler characteristic = chi - 1
        assert alt == cx.euler_characteristic() - 1, lam


def test_field_independence_on_rings(squares, minor, reference_betti):
    for ring in (squares, minor):
        for lam in sorted(ring.pres.degree_window(3)):
            cx = order_complex(ring.interval(lam))
            b0 = reference_betti(cx, 0)
            assert b0 == reduced_betti(cx, 2) == reduced_betti(cx, 3), (ring.name, lam)


def test_integral_homology_matches_rational_ranks(squares):
    cx = order_complex(squares.interval((2, 2, 1, 1)))
    ranks = [r for r, _ in integral_homology(cx)]
    assert tuple(ranks) == reduced_betti(cx, 0)
    assert all(not tor for _, tor in integral_homology(cx))


def test_certificate_declines_homology_in_both_parities(monkeypatch, reference_betti):
    pres = SemigroupPresentation(3, [(1, 0, 3), (0, 3, 2), (0, 1, 3), (2, 2, 3), (3, 3, 0)])
    cx = order_complex(pres.interval((0, 0, 0), (4, 4, 6)))
    primes = [reduced_betti(cx, 2), reduced_betti(cx, 3)]
    assert primes == [(0, 1, 1), (0, 1, 1)]
    assert rational_from_primes(cx, primes) is None
    fields = []
    real_rank = homology.matrix_rank

    def spy(columns, characteristic, leads=None):
        fields.append(characteristic)
        return real_rank(columns, characteristic, leads)

    monkeypatch.setattr(homology, "matrix_rank", spy)
    assert betti_numbers(cx, (0, 2, 3))[0] == (0, 1, 1) == reference_betti(cx, 0)
    assert 0 in fields  # the exact rational elimination ran


def test_tor_tables_match_one_field_tables(squares):
    window = squares.pres.degree_window(4)
    tables = tor_tables(squares.pres, window, (0, 2, 3))
    for char in (0, 2, 3):
        single = tor_ranks(squares.pres, window, char)
        assert tables[char].ranks == single.ranks
        assert tables[char].interval_betti == single.interval_betti


def test_smith_normal_form_known_values():
    assert smith_normal_form([[2]]) == [2]
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    # divisibility normalization
    diag = smith_normal_form([[2, 0], [0, 3]])
    assert diag == [1, 6]


def test_tor_index_correspondence(squares):
    window = squares.pres.degree_window(4)
    table = tor_ranks(squares.pres, window, 0)
    assert table.rank(0, (0, 0, 0, 0)) == 1
    assert table.total(1) == squares.pres.n  # one generator each
    assert table.total(2) == 11  # ten commuting pairs plus one relation
    assert table.rank(4, (2, 2, 1, 1)) == 2
    assert table.rank(2, (2, 2, 0, 0)) == 2  # three points below the relation


def test_tor_ranks_free_plane(free_plane):
    window = free_plane.pres.degree_window(3)
    table = tor_ranks(free_plane.pres, window, 0)
    assert table.total(1) == 2
    assert table.total(2) == 1  # the single commuting pair
    assert table.total(3) == 0


def test_minor_ring_tor2_diagonal(minor):
    window = minor.pres.degree_window(2)
    table = tor_ranks(minor.pres, window, 0)
    # four generic pairs contribute 1 each; both relation factorizations
    # share one multidegree whose four isolated points contribute 3
    assert table.total(2) == 7
    assert table.rank(2, (1, 1, 1, 1)) == 3


def test_vanishing_report_squares(squares):
    window = squares.pres.degree_window(5)
    tables = tor_tables(squares.pres, window, (0, 2, 3))
    report = verify_vanishing(tables, squares.gb.degree, window)
    assert report["ok"] and not report["violations"]
    assert report["checks"] > 0


def test_vanishing_bound_vacuous_for_generators():
    assert not below_vanishing_bound(-1, 1, 2)
    assert below_vanishing_bound(-1, 2, 2)
    assert not below_vanishing_bound(0, 2, 2)
    # d = 3: bound i < -1 + (deg-1)/2
    assert not below_vanishing_bound(0, 3, 3)
    assert below_vanishing_bound(0, 4, 3)


def test_sharpness_allows_nonzero_b0_at_bound(cyclic3):
    cx = order_complex(cyclic3.interval((1, 1, 1, 1, 1, 1)))
    betti = reduced_betti(cx, 0)
    assert not below_vanishing_bound(0, 3, 3)  # b0 may be nonzero
    assert betti[1] >= 1


def test_standard_grading_detection(squares, free_plane):
    w = standard_grading_functional(squares.pres)
    assert w == (Fraction(1, 2), Fraction(1, 2), Fraction(1), Fraction(1))
    assert standard_grading_functional(free_plane.pres) == (Fraction(1), Fraction(1))


def test_non_graded_presentation_detected():
    from morsegraded.semigroup import SemigroupPresentation

    pres = SemigroupPresentation(1, [(2,), (3,)])
    assert standard_grading_functional(pres) is None
