"""Cross-module orchestration: witnesses, reports, the full suite."""

import dataclasses
import random

import pytest

from conftest import reference_direct_spans
from morsegraded import pipeline
from morsegraded.cancellation import (
    CancellationResult,
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
from morsegraded.chains import check_crossing_condition
from morsegraded.errors import CrossingViolation, InternalInvariantError
from morsegraded.homology import order_complex, reduced_betti, tor_ranks
from morsegraded.morse import RankInterval, morse_numbers
from morsegraded.semigroup import SemigroupPresentation


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


def test_characterization_breaches_name_the_stage_and_multidegree(squares):
    """A duplicated facet, and a facet order that breaks the crossing
    condition, reach the caller as breaches prefixed with the stage and λ."""
    fm = squares.matching((2, 2, 1, 1))
    twice = dataclasses.replace(fm, facets=[fm.facets[0]] * 2, systems=[fm.systems[0]] * 2)
    prefix = r"^characterization at \(2, 2, 1, 1\): facet \("
    with pytest.raises(InternalInvariantError, match=prefix + r".*duplicate facet"):
        characterization_matches_direct(twice)
    rng = random.Random(7)
    orders = (rng.sample(fm.facets, len(fm.facets)) for _ in range(100))
    crossed = next(o for o in orders if not check_crossing_condition(o).ok)
    with pytest.raises(CrossingViolation, match=prefix + r".*skips disconnected ranks"):
        characterization_matches_direct(dataclasses.replace(fm, facets=crossed))


def test_shuffled_orders_raise_the_reference_first_error(squares):
    """On each of the 100 shuffled facet orders above, the batched check
    raises what the per-facet reference raises first, facet by facet, or
    nothing when the reference raises nothing."""
    fm = squares.matching((2, 2, 1, 1))
    rng = random.Random(7)
    raised = 0
    for _ in range(100):
        order = rng.sample(fm.facets, len(fm.facets))
        try:
            for j in range(len(order)):
                reference_direct_spans(order, j)
            expected = None
        except InternalInvariantError as err:
            expected = type(err), f"characterization at (2, 2, 1, 1): {err}"
        try:
            characterization_matches_direct(dataclasses.replace(fm, facets=order))
            got = None
        except InternalInvariantError as err:
            got = type(err), str(err)
        assert got == expected, [f.labels for f in order]
        raised += expected is not None
    assert 0 < raised < 100


def test_sharpness_report_entries(minor, cyclic3):
    for ring, lam in ((minor, (1, 1, 1, 1)), (cyclic3, (1, 1, 1, 1, 1, 1))):
        window = ring.pres.degree_window(ring.gb.degree)
        entries = sharpness_report(tor_ranks(ring.pres, window, 2), ring.gb.degree, window)
        assert any(tuple(e["multidegree"]) == lam for e in entries)


def test_full_suite_squares(squares):
    out = full_consistency_suite(squares.pres, squares.gb, squares.cfg, 4)
    assert out["ok"], out["checks"]
    assert out["checks"]["class_bijection"]


# A fault planted at the input of one of full's checks, on a fixture where
# every check holds (FULL_PLANTS names it).  On squares, the worked interval
# (2, 2, 1, 1) has nonreduced Betti numbers (1, 0, 2), equal to its Morse
# numbers, and the content (1, 2, 3, 4) has two commutation classes.
WORKED = (2, 2, 1, 1)


def plant_betti(monkeypatch, shifts):
    """morse_vs_betti reads WORKED's reduced Betti numbers shifted by
    shifts (dimension -> change); no other stage sees the change."""
    honest = pipeline.morse_vs_betti

    def planted(res, betti):
        if res.matching.ivl.top == WORKED:
            betti = tuple(b + shifts.get(i, 0) for i, b in enumerate(betti, start=-1))
        return honest(res, betti)

    monkeypatch.setattr(pipeline, "morse_vs_betti", planted)


def plant_face_word(monkeypatch):
    """WORKED's face-level survivors gain the least facet's word, which the
    base cell keeps out.  A fiber word added would also move
    language_equals_survivors and class_bijection, which read the same
    survivor set, so the word goes on the face side of the comparison."""
    honest = CancellationResult.survivor_words

    def planted(res):
        words = honest(res)
        if res.matching.ivl.top == WORKED:
            words.append(tuple(reversed(res.matching.facets[0].labels)))
        return words

    monkeypatch.setattr(CancellationResult, "survivor_words", planted)


def plant_dropped_class(monkeypatch):
    """The content (1, 2, 3, 4) loses its first commutation class."""
    honest = pipeline.commutation_classes

    def planted(gb, cfg, content):
        classes = honest(gb, cfg, content)
        return classes[1:] if tuple(content) == (1, 2, 3, 4) else classes

    monkeypatch.setattr(pipeline, "commutation_classes", planted)


def plant_vanishing(monkeypatch):
    """verify_vanishing reads WORKED's b0 one higher over the first prime
    field.  At degree 4 under a quadratic basis b0 lies below the bound, and
    the rational table is then checked on its own, where it still vanishes."""
    honest = pipeline.verify_vanishing

    def planted(tables, gb_degree, window):
        char = next(c for c in tables if c)
        table = tables[char]
        betti = list(table.interval_betti[WORKED])
        betti[1] += 1  # betti[i + 1] is b_i
        shifted = {**table.interval_betti, WORKED: tuple(betti)}
        tables = {**tables, char: dataclasses.replace(table, interval_betti=shifted)}
        return honest(tables, gb_degree, window)

    monkeypatch.setattr(pipeline, "verify_vanishing", planted)


def plant_resolution(monkeypatch, shift):
    """The resolution witness counts one more (shift 1) or one fewer (-1)
    Tor_1 cell at the first generator's multidegree, where the oracle
    counts one."""
    honest = pipeline.morse_boundary

    def planted(pres, gb, results):
        data = honest(pres, gb, results)
        key = (1, tuple(pres.generators[0]))
        return dataclasses.replace(data, tor={**data.tor, key: data.tor.get(key, 0) + shift})

    monkeypatch.setattr(pipeline, "morse_boundary", planted)


# check -> (ring, window, planted fault).  The quadratic rows run on
# squares (test_full_suite_squares: every check holds), and
# resolution_bounds, which only a basis of higher degree checks, on
# cyclic3 (test_full_suite_cyclic3)
FULL_PLANTS = {
    # b1 and b2 one higher: m1 = 0 < 1, and the Euler characteristic is kept
    "morse_inequalities": ("squares", 4, lambda mp: plant_betti(mp, {1: 1, 2: 1})),
    # b2 one lower: the inequalities still hold, the Euler identity does not
    "euler_identity": ("squares", 4, lambda mp: plant_betti(mp, {2: -1})),
    "face_level_agrees_with_fiber_level": ("squares", 4, plant_face_word),
    "class_bijection": ("squares", 4, plant_dropped_class),
    "vanishing_bound": ("squares", 4, plant_vanishing),
    "resolution_minimal": ("squares", 4, lambda mp: plant_resolution(mp, 1)),
    "resolution_bounds": ("cyclic3", 3, lambda mp: plant_resolution(mp, -1)),
}


@pytest.mark.parametrize("check", sorted(FULL_PLANTS))
def test_planted_fault_fails_its_full_check_alone(check, request, monkeypatch):
    name, window, plant = FULL_PLANTS[check]
    ring = request.getfixturevalue(name)
    plant(monkeypatch)
    out = full_consistency_suite(ring.pres, ring.gb, ring.cfg, window)
    assert out["checks"] == dict.fromkeys(out["checks"], True) | {check: False}
    assert out["ok"] is False


def test_full_suite_reads_quadratic_off_the_basis(squares, monkeypatch):
    # squares is quadratic; a basis that says otherwise takes every
    # high-degree branch of the suite
    from morsegraded.groebner import GroebnerBasis

    monkeypatch.setattr(GroebnerBasis, "quadratic", property(lambda gb: False))
    out = full_consistency_suite(squares.pres, squares.gb, squares.cfg, 4)
    checks, details = out["checks"], out["details"]
    assert "resolution_bounds" in checks and "resolution_minimal" not in checks
    assert "class_bijection" not in checks
    assert "face_level_agrees_with_fiber_level" not in checks
    assert {"face_level_survivors", "fiber_level_survivors"} <= set(details)


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

    def spy(pres, lam):
        built.append(lam)
        return original(pres, lam)

    for module in (homology, pipeline):
        if getattr(module, "order_complex", None) is original:
            monkeypatch.setattr(module, "order_complex", spy)
    full_consistency_suite(squares.pres, squares.gb, squares.cfg, 4)
    assert sorted(built) == sorted(squares.pres.degree_window(4))


def test_full_suite_slices_each_deep_multidegree_once(squares, monkeypatch):
    """The face level slices each deep multidegree's interval once; the
    oracle slices none."""
    sliced = []
    original = SemigroupPresentation.interval

    def spy(self, mu, lam):
        sliced.append(lam)
        return original(self, mu, lam)

    monkeypatch.setattr(SemigroupPresentation, "interval", spy)
    full_consistency_suite(squares.pres, squares.gb, squares.cfg, 4, deep_degree=3)
    window = squares.pres.degree_window(4)
    assert sorted(sliced) == sorted(lam for lam, d in window.items() if d <= 3)


def test_morse_vs_betti_shapes(squares):
    res = cancel_interval(squares.pres, (2, 2, 1, 1), squares.cfg, squares.gb)
    betti = reduced_betti(order_complex(squares.pres, (2, 2, 1, 1)), 0)
    cmp = morse_vs_betti(res, betti)
    assert cmp["inequality_ok"] and cmp["euler_ok"]
    assert cmp["euler_morse"] == 3
    assert morse_numbers([c for c in res.survivors if not c.is_base]) == {2: 2}


def test_characterization_helper(squares):
    assert characterization_matches_direct(squares.matching((2, 2, 1, 1)))


def test_full_suite_reads_the_characterization_off_the_builds(squares, monkeypatch):
    # the certificate answers on every deep interval, so no overlap is
    # computed
    import morsegraded.chains as chains
    import morsegraded.morse as morse

    calls = []
    original = chains.maximal_overlaps

    def spy(*args):
        calls.append(args)
        return original(*args)

    for module in (chains, morse):
        monkeypatch.setattr(module, "maximal_overlaps", spy)
    out = full_consistency_suite(squares.pres, squares.gb, squares.cfg, 4)
    assert out["checks"]["characterization_equals_direct"] and out["checks"]["crossing_condition"]
    assert calls == []


def test_systems_failing_the_emptiness_test_go_to_the_direct_pass(squares, monkeypatch):
    # after cancellation, one interval's least facet gets a nonempty
    # system and another's second facet an empty one; the certificate
    # declines both, and the direct pass, run on those two alone, reports
    # them unequal
    import morsegraded.pipeline as pipeline

    planted = {
        (2, 2, 1, 1): lambda j, system: (RankInterval(1, 1, "descent"),) if j == 0 else system,
        (1, 1, 1, 1): lambda j, system: () if j == 1 else system,
    }
    honest_cancel, honest_direct = pipeline.cancel_interval, pipeline.characterization_matches_direct

    def cancel(pres, lam, *args):
        res = honest_cancel(pres, lam, *args)
        if lam not in planted:
            return res
        fm = res.matching
        systems = [planted[lam](j, s) for j, s in enumerate(fm.systems)]
        return dataclasses.replace(res, matching=dataclasses.replace(fm, systems=systems))

    direct = []

    def spy(fm):
        direct.append((fm.ivl.top, honest_direct(fm)))
        return direct[-1][1]

    monkeypatch.setattr(pipeline, "cancel_interval", cancel)
    monkeypatch.setattr(pipeline, "characterization_matches_direct", spy)
    out = full_consistency_suite(squares.pres, squares.gb, squares.cfg, 4)
    assert sorted(direct) == [((1, 1, 1, 1), False), ((2, 2, 1, 1), False)]
    assert out["checks"] == dict.fromkeys(out["checks"], True) | {
        "characterization_equals_direct": False
    }


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
