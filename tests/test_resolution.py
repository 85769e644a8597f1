"""Boundary maps of the cancelled complex: minimality and exactness data."""

from types import SimpleNamespace

import pytest

from conftest import fixture_and_seeded_rings
from morsegraded import resolution
from morsegraded.cancellation import cancel_interval
from morsegraded.errors import InternalInvariantError, MorsegradedError
from morsegraded.homology import tor_ranks
from morsegraded.resolution import (
    ResolutionData,
    _assert_square_zero,
    _grade,
    _resolution_breach,
    _unit_incidences,
    morse_boundary,
)
from morsegraded.semigroup import bit_indices


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


def face_elements(ivl, mask):
    """The interval's elements at the set bits of a face mask, ascending."""
    return tuple(ivl.elements[i] for i in bit_indices(mask))


def unmatch_one_pair(ring, window):
    """Cancellations of window with one matched pair of faces both made
    critical: the upper one's boundary then meets the lower one in the
    same multidegree with coefficient +-1."""
    results = {lam: cancel_interval(ring.pres, lam, ring.cfg, ring.gb) for lam in window}
    lam = min(lam for lam in results if results[lam].matching.partner)
    fm = results[lam].matching
    pair = min((x, y) for x, y in fm.partner.items() if x < y)
    cells = [SimpleNamespace(is_base=False, elements=face_elements(fm.ivl, x)) for x in pair]
    results[lam] = SimpleNamespace(
        matching=SimpleNamespace(
            ivl=fm.ivl,
            partner={x: y for x, y in fm.partner.items() if x not in pair},
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


# -- the chain-bitmask witness against the tuple-chain reference -------------


def reference_morse_boundary(pres, gb, results):
    """morse_boundary on chains as element tuples, sliced and compared as
    tuples: the route the bitmask witness replaced."""
    zero = tuple([0] * pres.dimension)
    partner = {}
    critical = {(): zero}
    for lam in sorted(results):
        res = results[lam]
        fm = res.matching
        for mask, other in fm.partner.items():
            chain, up = face_elements(fm.ivl, mask), face_elements(fm.ivl, other)
            partner[chain + (lam,)] = up + (lam,)
        for cell in res.survivors:
            if cell.is_base:
                chain, up = (lam,), cell.elements + (lam,)
                partner[chain] = up
                partner[up] = chain
                continue
            critical[cell.elements + (lam,)] = lam

    flows = {}

    def boundary(chain):
        for j in range(len(chain)):
            yield (1 if j % 2 == 0 else -1), chain[:j] + chain[j + 1 :]

    def flow(chain):
        stack = [(chain, 0, None)]
        while stack:
            cur, sign_cur, faces = stack.pop()
            if cur in flows:
                continue
            if faces is not None:
                acc = {}
                for sgn, face in faces:
                    for tgt, coeff in flows[face].items():
                        acc[tgt] = acc.get(tgt, 0) + (-sign_cur) * sgn * coeff
                flows[cur] = {k: v for k, v in acc.items() if v}
                continue
            if cur in critical:
                flows[cur] = {cur: 1}
                continue
            up = partner.get(cur)
            if up is None:
                raise _resolution_breach(
                    _grade(cur, zero), f"chain {cur} neither matched nor critical"
                )
            if len(up) < len(cur):
                flows[cur] = {}
                continue
            faces = []
            for sgn, face in boundary(up):
                if face == cur:
                    sign_cur = sgn
                else:
                    faces.append((sgn, face))
            stack.append((cur, sign_cur, faces))
            stack.extend((face, 0, None) for _, face in faces if face not in flows)
        return flows[chain]

    differentials = {}
    for chain in sorted(critical, key=lambda c: (len(c), c)):
        if not chain:
            continue
        row = {}
        for sgn, face in boundary(chain):
            for tgt, coeff in flow(face).items():
                row[tgt] = row.get(tgt, 0) + sgn * coeff
        for tgt, coeff in row.items():
            if coeff:
                differentials.setdefault(len(chain), {})[(chain, tgt)] = coeff
    units = _unit_incidences(differentials, zero)
    if units and gb.degree <= 2:
        hi, lo, _ = units[0]
        raise _resolution_breach(
            _grade(hi, zero), f"unit incidence between equal multidegrees: {hi} -> {lo}"
        )
    _assert_square_zero(differentials)
    tor = {}
    for chain, grade in critical.items():
        tor[(len(chain), grade)] = tor.get((len(chain), grade), 0) + 1
    return ResolutionData(critical, differentials, tor, units)


def in_order(data):
    """A witness's fields with every dict as its item list, in order."""
    return (
        list(data.critical.items()),
        [(i, list(rows.items())) for i, rows in data.differentials.items()],
        list(data.tor.items()),
        data.unit_incidences,
    )


def test_bitmask_witness_equals_tuple_reference():
    compared = []
    for name, pres, cfg, gb in fixture_and_seeded_rings(4):
        try:
            results = {lam: cancel_interval(pres, lam, cfg, gb) for lam in pres.degree_window(4)}
        except MorsegradedError:
            continue  # a known cancellation breach: no witness to compare
        data = morse_boundary(pres, gb, results)
        assert in_order(data) == in_order(reference_morse_boundary(pres, gb, results)), name
        compared.append(name)
    assert len(compared) >= 10, compared


def test_bitmask_witness_errors_equal_tuple_reference(squares, cyclic3):
    # the planted unit incidence and the uncancelled multidegree above
    window = squares.pres.degree_window(3)
    holed = {lam: cancel_interval(squares.pres, lam, squares.cfg, squares.gb) for lam in window}
    del holed[(2, 2, 0, 0)]
    for results in (unmatch_one_pair(squares, window), holed):
        with pytest.raises(InternalInvariantError) as got:
            morse_boundary(squares.pres, squares.gb, results)
        with pytest.raises(InternalInvariantError) as expected:
            reference_morse_boundary(squares.pres, squares.gb, results)
        assert str(got.value) == str(expected.value)
    results = unmatch_one_pair(cyclic3, cyclic3.pres.degree_window(3))
    assert in_order(morse_boundary(cyclic3.pres, cyclic3.gb, results)) == in_order(
        reference_morse_boundary(cyclic3.pres, cyclic3.gb, results)
    )
