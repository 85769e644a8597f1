"""Cross-module orchestration: witnesses, reports, the full suite."""

from morsegraded.cancellation import (
    SystemTable,
    cancel_interval,
    enumerate_gradient_paths,
    gradient_paths_from,
    non_essential_sets,
)
from morsegraded.pipeline import (
    characterization_matches_direct,
    full_consistency_suite,
    morse_vs_betti,
    sharpness_report,
)
from morsegraded.homology import order_complex, reduced_betti, tor_ranks
from morsegraded.morse import morse_numbers


def tor_degrees(ring, degree):
    """(i, window degree) of every nonzero Tor_i(k, k) with i >= 1, over Q."""
    window = ring.pres.degree_window(degree)
    table = tor_ranks(ring.pres, window, 0)
    return {(i, window[lam]) for (i, lam), v in table.ranks.items() if v and i >= 1}


def test_koszul_diagonal_squares(squares):
    assert tor_degrees(squares, 4) == {(i, i) for i in range(1, 5)}


def test_koszul_diagonal_minor(minor):
    assert tor_degrees(minor, 4) == {(i, i) for i in range(1, 5)}
    out = full_consistency_suite(minor.pres, minor.gb, minor.cfg, 4)
    assert out["ok"], out["checks"]


def test_sharpness_report_entries(minor, cyclic3):
    for ring, lam in ((minor, (1, 1, 1, 1)), (cyclic3, (1, 1, 1, 1, 1, 1))):
        window = ring.pres.degree_window(ring.gb.degree)
        entries = sharpness_report(tor_ranks(ring.pres, window, 2), ring.gb.degree, window)
        assert any(tuple(e["multidegree"]) == lam for e in entries)


def test_full_suite_squares(squares):
    out = full_consistency_suite(squares.pres, squares.gb, squares.cfg, 4)
    assert out["ok"], out["checks"]
    assert out["checks"]["class_bijection"]


def test_full_suite_cyclic3(cyclic3):
    out = full_consistency_suite(cyclic3.pres, cyclic3.gb, cyclic3.cfg, 3)
    assert out["ok"], out["checks"]
    assert out["checks"]["resolution_bounds"]
    assert out["details"]["sharpness_witnesses"]


def test_full_suite_builds_one_order_complex_per_multidegree(squares, monkeypatch):
    import morsegraded.homology as homology
    import morsegraded.pipeline as pipeline

    built = []
    original = homology.order_complex

    def spy(*args):
        built.append(args[-1].top)
        return original(*args)

    for module in (homology, pipeline):
        if getattr(module, "order_complex", None) is original:
            monkeypatch.setattr(module, "order_complex", spy)
    full_consistency_suite(squares.pres, squares.gb, squares.cfg, 4)
    assert sorted(built) == sorted(squares.pres.degree_window(4))


def test_morse_vs_betti_shapes(squares):
    res = cancel_interval(squares.pres, (2, 2, 1, 1), squares.cfg, squares.gb)
    betti = reduced_betti(order_complex(squares.interval((2, 2, 1, 1))), 0)
    cmp = morse_vs_betti(res, betti)
    assert cmp["inequality_ok"] and cmp["euler_ok"]
    assert cmp["euler_morse"] == 3
    assert morse_numbers([c for c in res.survivors if not c.is_base]) == {2: 2}


def test_characterization_helper(squares):
    assert characterization_matches_direct(squares.matching((2, 2, 1, 1)))


def test_witnessed_membership(squares):
    # every non-essential member's partner is one gradient path away
    fm = squares.matching((2, 2, 1, 1))
    mask_of = {c.facet.labels: m for m, c in fm.critical.items()}
    labels = (1, 2, 3, 4)
    systems = SystemTable(squares.gb, squares.cfg)
    members = [m for s in non_essential_sets(systems, labels) for m in s.members]
    assert members
    for m in members:
        a, b = mask_of[labels], mask_of[m.partner_labels]
        hi, lo = (a, b) if fm.dim(a) > fm.dim(b) else (b, a)
        paths = enumerate_gradient_paths(fm, hi, lo)
        assert len(paths) == 1, m
        assert paths[0].cells[0] == hi and paths[0].cells[-1] == lo


def test_critical_multigraph_structure(squares):
    # edge multiplicities are gradient path counts, from the upper cell down
    fm = squares.matching((2, 2, 1, 1))
    mask_of = {c.facet.labels: m for m, c in fm.critical.items()}
    hi, lo = mask_of[(3, 2, 1, 4)], mask_of[(2, 1, 3, 4)]
    assert len(enumerate_gradient_paths(fm, hi, lo)) == 1
    assert gradient_paths_from(fm, lo, {hi}) == {}
    assert not fm.critical[mask_of[(1, 2, 3, 4)]].is_base


def test_free_semigroup_is_koszul(free_plane):
    assert tor_degrees(free_plane, 3) == {(1, 1), (2, 2)}
    out = full_consistency_suite(free_plane.pres, free_plane.gb, free_plane.cfg, 3)
    assert out["ok"], out["checks"]


def test_full_suite_interacting_relations():
    # rings whose relations share variables exercise the matching fallback
    # and the refined automaton escape; everything must still agree
    from morsegraded.chains import FacetOrderConfig
    from morsegraded.groebner import groebner_for
    from morsegraded.orders import TermOrder
    from morsegraded.semigroup import SemigroupPresentation

    cases = [
        (2, [(3, 0), (2, 1), (1, 2), (0, 3)]),
        (
            5,
            [
                (1, 0, 1, 0, 0),
                (1, 0, 0, 1, 0),
                (1, 0, 0, 0, 1),
                (0, 1, 1, 0, 0),
                (0, 1, 0, 1, 0),
                (0, 1, 0, 0, 1),
            ],
        ),
    ]
    for e, gens in cases:
        pres = SemigroupPresentation(e, gens)
        order = TermOrder(pres.n)
        cfg = FacetOrderConfig(order)
        gb = groebner_for(pres, order, 4)
        out = full_consistency_suite(pres, gb, cfg, 4, deep_degree=4)
        assert out["ok"], out["checks"]


def test_full_suite_under_alternate_orders(squares):
    # the construction works for any term order, not just the default lex
    from morsegraded.chains import FacetOrderConfig
    from morsegraded.groebner import buchberger, toric_ideal_basis
    from morsegraded.orders import TermOrder

    rows = [[1, 1, 1, 1, 1], [0, 0, 0, 0, 1], [0, 0, 0, 1, 0], [0, 0, 1, 0, 0], [0, 1, 0, 0, 0]]
    orders = [
        TermOrder(5, kind="graded-lex"),
        TermOrder(5, kind="graded-revlex"),
        TermOrder(5, kind="weight-matrix", rows=rows),
    ]
    for order in orders:
        cfg = FacetOrderConfig(order)
        gb = buchberger(toric_ideal_basis(squares.pres, 2), order)
        out = full_consistency_suite(squares.pres, gb, cfg, 4)
        assert out["ok"], (order.kind, out["checks"])


def test_full_suite_square_leading_term():
    # relation 2*(1,1) = (2,0) + (0,2) with the square as leading term
    from morsegraded.chains import FacetOrderConfig
    from morsegraded.groebner import buchberger, toric_ideal_basis
    from morsegraded.orders import TermOrder
    from morsegraded.semigroup import SemigroupPresentation

    pres = SemigroupPresentation(2, [(2, 0), (0, 2), (1, 1)])
    order = TermOrder(3)
    gb = buchberger(toric_ideal_basis(pres, 2), order)
    assert gb.elements[0].plus == (0, 0, 2)
    out = full_consistency_suite(pres, gb, FacetOrderConfig(order), 5, deep_degree=5)
    assert out["ok"], out["checks"]


def test_full_suite_non_graded_numerical_semigroup():
    # <2,3>: chains of unequal length, quadratic basis, non-pure complexes
    from morsegraded.chains import FacetOrderConfig
    from morsegraded.groebner import groebner_for
    from morsegraded.orders import TermOrder
    from morsegraded.semigroup import SemigroupPresentation

    pres = SemigroupPresentation(1, [(2,), (3,)])
    order = TermOrder(2)
    gb = groebner_for(pres, order, 6)
    assert gb.degree == 2
    out = full_consistency_suite(pres, gb, FacetOrderConfig(order), 6, deep_degree=6)
    assert out["ok"], out["checks"]
