"""Boundary maps of the cancelled complex: minimality and exactness data."""

from types import SimpleNamespace

import pytest

from morsegraded import resolution
from morsegraded.cancellation import cancel_interval
from morsegraded.errors import InternalInvariantError
from morsegraded.homology import tor_ranks
from morsegraded.resolution import morse_boundary


def resolve(ring, window):
    results = {lam: cancel_interval(ring.pres, lam, ring.cfg, ring.gb) for lam in window}
    return morse_boundary(ring.pres, ring.gb, results)


def build(ring, depth):
    window = ring.pres.degree_window(depth)
    return window, resolve(ring, window)


def test_squares_resolution_matches_oracle(squares):
    window, data = build(squares, 4)
    table = tor_ranks(squares.pres, window, 0)
    morse_side = {k: v for k, v in data.tor.items() if k[0] >= 1}
    oracle_side = {k: v for k, v in table.ranks.items() if k[0] >= 1}
    assert morse_side == oracle_side


def test_minor_resolution_matches_oracle(minor):
    window, data = build(minor, 4)
    table = tor_ranks(minor.pres, window, 0)
    assert {k: v for k, v in data.tor.items() if k[0] >= 1} == {
        k: v for k, v in table.ranks.items() if k[0] >= 1
    }


def test_no_equal_multidegree_incidence(squares):
    window, data = build(squares, 4)
    zero = squares.zero
    for rows in data.differentials.values():
        for (hi, lo), coeff in rows.items():
            hi_grade = hi[-1] if hi else zero
            lo_grade = lo[-1] if lo else zero
            assert coeff == 0 or hi_grade != lo_grade


def test_boundary_squared_zero_is_enforced(squares, monkeypatch):
    window, data = build(squares, 4)
    assert data.differentials[2] and data.differentials[1]
    honest = resolution._unit_incidences

    def flip_one_sign(differentials, zero):
        # plant d^2 != 0: negate one incidence of d_2 after it is computed
        rows = differentials[2]
        key = next(iter(rows))
        rows[key] = -rows[key]
        return honest(differentials, zero)

    monkeypatch.setattr(resolution, "_unit_incidences", flip_one_sign)
    with pytest.raises(InternalInvariantError, match=r"^resolution at \(.*\): boundary squared"):
        resolve(squares, window)


def unmatch_one_pair(ring, window):
    """Cancellations of window with one matched pair of faces both made
    critical: the upper one's boundary then meets the lower one in the
    same multidegree with coefficient +-1."""
    results = {lam: cancel_interval(ring.pres, lam, ring.cfg, ring.gb) for lam in window}
    lam = min(lam for lam in results if results[lam].matching.partner)
    fm = results[lam].matching
    pair = min((x, y) for x, y in fm.partner.items() if x < y)
    cells = [SimpleNamespace(is_base=False, elements=fm.face_elements(x)) for x in pair]
    results[lam] = SimpleNamespace(
        matching=SimpleNamespace(
            partner={x: y for x, y in fm.partner.items() if x not in pair},
            face_elements=fm.face_elements,
        ),
        survivors=results[lam].survivors + cells,
    )
    return results


def test_unit_incidence_is_enforced_on_quadratic_basis(squares, cyclic3):
    results = unmatch_one_pair(squares, squares.pres.degree_window(3))
    with pytest.raises(
        InternalInvariantError, match=r"^resolution at \(.*\): unit incidence between equal"
    ):
        morse_boundary(squares.pres, squares.gb, results)
    # beyond degree 2 the same incidence is a recorded finding
    results = unmatch_one_pair(cyclic3, cyclic3.pres.degree_window(3))
    data = morse_boundary(cyclic3.pres, cyclic3.gb, results)
    assert [coeff for _, _, coeff in data.unit_incidences] in ([1], [-1])


def test_uncancelled_multidegree_is_named(squares):
    # plant a hole: drop the cancellation of one multidegree of the window,
    # so its chains are neither matched nor critical
    window = squares.pres.degree_window(3)
    results = {lam: cancel_interval(squares.pres, lam, squares.cfg, squares.gb) for lam in window}
    del results[(2, 2, 0, 0)]
    with pytest.raises(
        InternalInvariantError,
        match=r"^resolution at \(2, 2, 0, 0\): chain \(.*\(2, 2, 0, 0\)\) neither matched nor critical$",
    ):
        morse_boundary(squares.pres, squares.gb, results)


def test_first_differential_coefficients(squares):
    window, data = build(squares, 2)
    ones = data.differentials.get(1, {})
    # every generator cell maps onto the augmentation cell with coefficient 1
    for (hi, lo), coeff in ones.items():
        assert lo == () and coeff == 1
    assert len(ones) == squares.pres.n


def test_tor_zero_is_the_augmentation(squares):
    window, data = build(squares, 2)
    assert data.tor[(0, squares.zero)] == 1


def test_generator_cells_survive(squares):
    window, data = build(squares, 2)
    for g in squares.pres.generators:
        assert data.tor[(1, g)] == 1


def test_relation_contributes_tor_two(squares):
    window, data = build(squares, 2)
    assert data.tor[(2, (2, 2, 0, 0))] == 2


def test_cyclic3_resolution_dominates_oracle(cyclic3):
    window = {
        lam: d for lam, d in cyclic3.pres.degree_window(3).items()
    }
    data = resolve(cyclic3, window)
    table = tor_ranks(cyclic3.pres, window, 0)
    for k, v in table.ranks.items():
        if k[0] >= 1:
            assert data.tor.get(k, 0) >= v, k


def test_degree3_equal_content_pairs_cancel_in_boundary(cyclic3):
    # two gradient paths with opposite signs: net incidence zero between
    # equal-content survivors (their grades coincide, so minimality covers it)
    window = {lam: d for lam, d in cyclic3.pres.degree_window(3).items() if d <= 3}
    data = resolve(cyclic3, window)
    zero = cyclic3.zero
    for rows in data.differentials.values():
        for (hi, lo), coeff in rows.items():
            if (hi[-1] if hi else zero) == (lo[-1] if lo else zero):
                assert coeff == 0
