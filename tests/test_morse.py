"""Interval systems, truncation, critical cells, the face matching."""

import json
from pathlib import Path

import pytest

from morsegraded import cancellation, morse
from morsegraded.cancellation import (
    SystemTable,
    _apply_reversals,
    _verify_reversals,
    cancel_cells,
    gradient_paths_from,
    label_cell,
)
from morsegraded.chains import FacetOrderConfig, ordered_facets
from morsegraded.errors import AcyclicityFailure, InternalInvariantError
from morsegraded.groebner import GroebnerBasis, groebner_for
from morsegraded.homology import order_complex
from morsegraded.io import parse_input
from morsegraded.morse import (
    FaceMatching,
    RankInterval,
    alternating_cycle,
    build_face_matching,
    covers_all_ranks,
    direct_interval_system,
    morse_numbers,
    msi_characterization,
    truncate_to_j_intervals,
    verify_acyclic,
)


FIXTURES = Path(__file__).parent / "fixtures"


def spans(system):
    return tuple(iv.span() for iv in system)


def morse_euler(cells):
    """Alternating count of the cells of dimension >= 0."""
    return sum((-1) ** d * k for d, k in morse_numbers(cells).items() if d >= 0)


# -- characterization on the worked facets ------------------------------------


def test_least_facet_has_empty_system(squares):
    facets = ordered_facets(squares.interval((2, 2, 1, 1)), squares.cfg)
    assert facets[0].labels == (0, 0, 2, 3)
    assert direct_interval_system(facets, 0) == ()


def test_descending_witness_facet_system(squares):
    # descents at ranks 1 and 2 plus the adjacent syzygy pair at rank 3
    system = msi_characterization(squares.gb, squares.cfg, (3, 2, 1, 4))
    assert spans(system) == ((1, 1), (2, 2), (3, 3))
    kinds = [iv.kind for iv in system]
    assert kinds == ["descent", "descent", "syzygy"]


def test_interspersed_witness_facet_system(squares):
    # descent at rank 1, syzygy run over labels 1,3,4 spanning ranks 2..3
    system = msi_characterization(squares.gb, squares.cfg, (2, 1, 3, 4))
    assert spans(system) == ((1, 1), (2, 3))
    assert system[1].kind == "syzygy"


def test_full_window_facet_system(squares):
    system = msi_characterization(squares.gb, squares.cfg, (1, 2, 3, 4))
    assert spans(system) == ((1, 3),)


def test_no_system_for_free_ascending(free_plane):
    assert msi_characterization(free_plane.gb, free_plane.cfg, (0, 1)) == ()


def test_pair_swap_worked_facet(pair_swap):
    # descents at ranks 1,2 and the syzygy run over labels z2,z5,z6
    system = msi_characterization(pair_swap.gb, pair_swap.cfg, (3, 2, 1, 4, 5))
    assert spans(system) == ((1, 1), (2, 2), (3, 4))


def test_characterization_equals_direct_everywhere(squares, pair_swap, minor, cyclic3):
    for ring, depth in ((squares, 5), (pair_swap, 4), (minor, 4), (cyclic3, 4)):
        for lam in sorted(ring.pres.degree_window(depth)):
            facets = ordered_facets(ring.interval(lam), ring.cfg)
            for j, facet in enumerate(facets):
                direct = spans(direct_interval_system(facets, j))
                implied = spans(msi_characterization(ring.gb, ring.cfg, facet))
                assert direct == implied, (ring.name, lam, facet.labels)


# -- truncation -----------------------------------------------------------------


def make(spans_):
    return [RankInterval(lo, hi, "syzygy") for lo, hi in spans_]


def test_truncation_disjoint_unchanged():
    assert spans(truncate_to_j_intervals(make([(1, 1), (2, 3)]))) == ((1, 1), (2, 3))


def test_truncation_single_overlap():
    assert spans(truncate_to_j_intervals(make([(1, 2), (2, 3)]))) == ((1, 2), (3, 3))


def test_truncation_discards_swallowed_interval():
    # the middle interval is chopped to nothing and dropped
    assert spans(truncate_to_j_intervals(make([(1, 3), (2, 3), (3, 5)]))) == (
        (1, 3),
        (4, 5),
    )


def test_truncation_discards_non_minimal():
    # after chopping, (4,5) strictly contains (4,4) and is discarded
    got = spans(truncate_to_j_intervals(make([(1, 3), (2, 4), (3, 5)])))
    assert got == ((1, 3), (4, 4))


def reference_truncation(i_intervals):
    """Repeatedly: keep the interval of lowest rank, chop the ranks it covers
    off the rest, discard chopped intervals that became empty or now
    contain another one, re-sort, continue."""
    items = sorted(i_intervals, key=lambda iv: iv.span())
    out = []
    while items:
        first = items[0]
        out.append(first)
        rest = []
        for iv in items[1:]:
            lo = max(iv.lo, first.hi + 1)
            if lo <= iv.hi:
                rest.append(RankInterval(lo, iv.hi, iv.kind))
        spans_ = {iv.span() for iv in rest}
        kept = []
        seen = set()
        for iv in rest:
            if iv.span() in seen:
                continue
            if any(s != iv.span() and iv.lo <= s[0] and s[1] <= iv.hi for s in spans_):
                continue
            seen.add(iv.span())
            kept.append(iv)
        items = sorted(kept, key=lambda iv: iv.span())
    return tuple(out)


def test_truncation_equals_reference_on_fixtures():
    count = 0
    for path in sorted(FIXTURES.glob("*.json")):
        raw = json.loads(path.read_text())
        raw.pop("groebner_basis", None)  # a stale one is refused; compute it
        doc = parse_input(json.dumps(raw))
        pres, cfg = doc.presentation, FacetOrderConfig(doc.order)
        gb = groebner_for(pres, doc.order, 4)
        zero = tuple([0] * pres.dimension)
        for lam in sorted(pres.degree_window(4)):
            for facet in ordered_facets(pres.interval(zero, lam), cfg):
                system = msi_characterization(gb, cfg, facet)
                want = reference_truncation(system)
                assert truncate_to_j_intervals(system) == want, (path.name, facet.labels)
                count += 1
        if path.stem == "skew2d":
            # the one facet system to window 5 where an interval starts
            # within the kept interval before the last: three x4^3 windows
            system = msi_characterization(gb, cfg, (4, 4, 4, 4, 4))
            assert spans(system) == ((1, 2), (2, 3), (3, 4))
            assert truncate_to_j_intervals(system) == reference_truncation(system)
    assert count > 10_000


def test_one_window_predicate_per_basis(squares, monkeypatch):
    made, tested = [], []
    table = morse.SyzygyWindows
    honest_init, honest_test = table.__init__, table._is_window

    def init(self, gb, cfg):
        made.append(gb)
        honest_init(self, gb, cfg)

    def is_window(self, window):
        tested.append(window)
        return honest_test(self, window)

    monkeypatch.setattr(table, "__init__", init)
    monkeypatch.setattr(table, "_is_window", is_window)
    gb = GroebnerBasis(squares.gb.order, squares.gb.elements)  # no table yet
    fm = build_face_matching(squares.interval((5, 5, 1, 1)), squares.cfg, gb)
    assert len(fm.facets) == 2_142
    assert made == [gb]
    assert tested and len(tested) == len(set(tested))
    # the covering search reads the same table and tests no window again
    assert list(morse.covering_words(gb, squares.cfg, (0, 1, 1, 2, 3, 4)))
    assert made == [gb] and len(tested) == len(set(tested))


# -- critical cells ---------------------------------------------------------------


def test_cell_of_descending_witness(squares):
    facet = next(
        f
        for f in ordered_facets(squares.interval((2, 2, 1, 1)), squares.cfg)
        if f.labels == (3, 2, 1, 4)
    )
    cell = label_cell(SystemTable(squares.gb, squares.cfg), facet.labels)
    assert cell.ranks == (1, 2, 3) and cell.dimension == 2


def test_cell_of_interspersed_witness(squares):
    facet = next(
        f
        for f in ordered_facets(squares.interval((2, 2, 1, 1)), squares.cfg)
        if f.labels == (2, 1, 3, 4)
    )
    cell = label_cell(SystemTable(squares.gb, squares.cfg), facet.labels)
    assert cell.ranks == (1, 2) and cell.dimension == 1


def test_non_covering_system_gives_no_cell(squares):
    facet = next(
        f
        for f in ordered_facets(squares.interval((2, 2, 1, 1)), squares.cfg)
        if f.labels == (1, 3, 2, 4)
    )
    system = msi_characterization(squares.gb, squares.cfg, facet)
    assert not covers_all_ranks(system, 3)
    assert label_cell(SystemTable(squares.gb, squares.cfg), facet.labels) is None


def test_labels_contribute(squares):
    # a word contributes a critical cell when its system covers every rank
    def contributes(word):
        return covers_all_ranks(msi_characterization(squares.gb, squares.cfg, word), len(word) - 1)

    assert contributes((3, 2, 1, 4))
    assert not contributes((1, 3, 2, 4))


# -- the face matching --------------------------------------------------------------


def test_matching_on_relation_interval(squares):
    fm = squares.matching((2, 2, 1, 1))
    numbers = morse_numbers(fm.cells())
    assert numbers == {0: 2, 1: 4, 2: 5}
    assert verify_acyclic(fm)
    assert morse_euler(fm.cells()) == order_complex(fm.ivl).euler_characteristic()


def test_matching_two_points(free_plane):
    ivl = free_plane.pres.interval((0, 0), (1, 1))
    fm = build_face_matching(ivl, free_plane.cfg, free_plane.gb)
    assert morse_numbers(fm.cells()) == {0: 2}
    assert order_complex(ivl).euler_characteristic() == 2


def test_matching_atom_interval(squares):
    ivl = squares.interval((0, 0, 1, 0))
    fm = build_face_matching(ivl, squares.cfg, squares.gb)
    cells = fm.cells()
    assert len(cells) == 1 and cells[0].dimension == -1
    assert cells[0].facet.labels == (2,)


def test_base_cell_is_least_facet_vertex(squares):
    fm = squares.matching((2, 2, 1, 1))
    base = [c for c in fm.cells() if c.is_base]
    assert len(base) == 1
    assert base[0].facet.labels == (0, 0, 2, 3)
    assert base[0].dimension == 0


def test_every_face_matched_or_critical(squares):
    fm = squares.matching((2, 2, 1, 1))
    crit = set(fm.critical)
    for mask in fm.owner:
        assert (mask in fm.partner) != (mask in crit)
    for a, b in fm.partner.items():
        assert fm.partner[b] == a
        assert abs(fm.dim(a) - fm.dim(b)) == 1


def test_morse_numbers_empty():
    assert morse_numbers([]) == {}


def test_verify_acyclic_identity_matching(squares):
    import copy

    fm = copy.copy(squares.matching((2, 2, 0, 0)))
    fm.partner = {}  # nothing matched: trivially acyclic
    assert verify_acyclic(fm)


def test_verify_acyclic_detects_cyclic_matching(squares):
    # triangle boundary matched all the way around: v_i <-> e_{i,i+1}
    import copy

    fm = copy.copy(squares.matching((2, 2, 0, 0)))
    v1, v2, v3 = 1, 2, 4
    e12, e23, e31 = v1 | v2, v2 | v3, v3 | v1
    fm.owner = {m: 0 for m in (v1, v2, v3, e12, e23, e31)}
    fm.partner = {v1: e12, e12: v1, v2: e23, e23: v2, v3: e31, e31: v3}
    fm.critical = {}
    assert not verify_acyclic(fm)
    with pytest.raises(AcyclicityFailure, match=r"^face matching at \(2, 2, 0, 0\): facet \("):
        morse._verify_matching(fm)
    # breaking one pair breaks the only cycle
    del fm.partner[v3], fm.partner[e31]
    assert verify_acyclic(fm)


def test_euler_identity_across_window(squares):
    for lam in sorted(squares.pres.degree_window(4)):
        fm = squares.matching(lam)
        assert morse_euler(fm.cells()) == order_complex(fm.ivl).euler_characteristic(), lam


def test_cell_dimension_counts_j_intervals(squares):
    fm = squares.matching((2, 2, 1, 1))
    systems = SystemTable(squares.gb, squares.cfg)
    for j, facet in enumerate(fm.facets):
        cell = label_cell(systems, facet.labels)
        if cell is not None and j > 0:
            assert cell.dimension == len(fm.j_systems[j]) - 1


def test_interval_system_accessor(squares):
    fm = squares.matching((2, 2, 1, 1))
    j = next(i for i, f in enumerate(fm.facets) if f.labels == (2, 1, 3, 4))
    assert spans(fm.systems[j]) == ((1, 1), (2, 3))
    assert spans(fm.j_systems[j]) == ((1, 1), (2, 3))


def test_pure_lead_window_height_bound(squares, pair_swap, cyclic3):
    # a syzygy interval whose window is exactly a leading term (nothing
    # interspersed) has height at most (basis degree) - 1
    for ring in (squares, pair_swap, cyclic3):
        d = ring.gb.degree
        leads = {b.plus for b in ring.gb.elements}
        for lam in sorted(ring.pres.degree_window(4)):
            from morsegraded.chains import saturated_chains
            from morsegraded.orders import content_monomial

            for facet in saturated_chains(ring.interval(lam)):
                for iv in msi_characterization(ring.gb, ring.cfg, facet):
                    if iv.kind != "syzygy":
                        continue
                    window = facet.labels[iv.lo - 1 : iv.hi + 1]
                    if content_monomial(window, ring.pres.n) in leads:
                        assert iv.hi - iv.lo + 1 <= d - 1


# -- the bitmask kernel against the set- and list-based reference ---------------


def editable_copy(fm):
    return FaceMatching(
        fm.ivl, fm.cfg, fm.facets, fm.systems, fm.j_systems,
        dict(fm.owner), dict(fm.partner), dict(fm.critical), fm.empty_cell,
    )


def reference_check_transversals(facet, system, new_faces, r, j):
    """A facet's new faces, as subsets of its interior, are its transversals."""
    got = {sub for sub, _ in new_faces}
    want = set()
    spans_ = [iv.span() for iv in system]
    for sub in range(1, 1 << r):
        ranks = {k + 1 for k in range(r) if sub >> k & 1}
        if all(any(lo <= q <= hi for q in ranks) for lo, hi in spans_):
            want.add(sub)
    if got != want:
        raise InternalInvariantError(
            f"facet {facet.labels} (index {j}): new faces do not match the "
            f"transversals of its skipped-interval system"
        )


def reference_verify_acyclic(fm):
    """Kahn's sort over stored successor lists of the modified Hasse digraph."""
    succ = {m: [] for m in fm.owner}
    indeg = {m: 0 for m in fm.owner}
    for mask in fm.owner:
        up = fm.partner.get(mask)
        if up is not None and bin(up).count("1") == bin(mask).count("1") + 1:
            succ[mask].append(up)
            indeg[up] += 1
        m = mask
        while m:
            bit = m & -m
            m ^= bit
            sub = mask ^ bit
            if sub and fm.partner.get(mask) != sub:
                succ[mask].append(sub)
                indeg[sub] += 1
    queue = [m for m, d in indeg.items() if d == 0]
    seen = 0
    while queue:
        x = queue.pop()
        seen += 1
        for y in succ[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                queue.append(y)
    return seen == len(fm.owner)


def reference_face_matching(ivl, cfg, gb):
    """Every face rebuilt from scratch, held to the reference checks."""
    facets = ordered_facets(ivl, cfg)
    systems = [morse.msi_characterization(gb, cfg, f) for f in facets]
    fm = FaceMatching(ivl, cfg, facets, systems, [truncate_to_j_intervals(s) for s in systems])
    if len(facets) == 1 and not facets[0].interior:
        fm.empty_cell = morse._cell(facets[0], ())
        return fm
    for j, facet in enumerate(facets):
        bits = [1 << ivl.index(e) for e in facet.interior]
        r = len(bits)
        new_faces = []
        for sub in range(1, 1 << r):
            mask = 0
            for k in range(r):
                if sub >> k & 1:
                    mask |= bits[k]
            if mask not in fm.owner:
                fm.owner[mask] = j
                new_faces.append((sub, mask))
        reference_check_transversals(facet, systems[j], new_faces, r, j)
        morse._match_within_facet(fm, j, facet, bits, dict(new_faces), [sub for sub, _ in new_faces])
    assert reference_verify_acyclic(fm)
    return fm


def assert_kernel_equals_reference(ring, lam):
    fm = ring.matching(lam)
    ref = reference_face_matching(ring.interval(lam), ring.cfg, ring.gb)
    assert list(fm.owner.items()) == list(ref.owner.items()), (ring.name, lam)
    assert list(fm.partner.items()) == list(ref.partner.items()), (ring.name, lam)
    assert list(fm.critical.items()) == list(ref.critical.items()), (ring.name, lam)
    assert fm.empty_cell == ref.empty_cell
    assert verify_acyclic(fm) and reference_verify_acyclic(fm)
    reversed_fm = cancel_cells(fm, ring.gb).matching
    assert verify_acyclic(reversed_fm) == reference_verify_acyclic(reversed_fm) is True


def test_face_kernel_equals_reference_across_window(squares, pair_swap, minor, cyclic3):
    for ring in (squares, pair_swap, minor, cyclic3):
        for lam in sorted(ring.pres.degree_window(4)):
            assert_kernel_equals_reference(ring, lam)


def test_face_kernel_equals_reference_deep_interval(squares):
    assert_kernel_equals_reference(squares, (5, 5, 1, 1))


def test_dropped_skipped_interval_breaks_transversal_check(squares, monkeypatch):
    honest = morse.msi_characterization
    monkeypatch.setattr(morse, "msi_characterization", lambda *a: honest(*a)[1:])
    ivl = squares.interval((2, 2, 1, 1))
    with pytest.raises(InternalInvariantError, match="transversals") as err:
        build_face_matching(ivl, squares.cfg, squares.gb)
    assert str(err.value).startswith("face matching at (2, 2, 1, 1): facet (")
    with pytest.raises(InternalInvariantError, match="transversals"):
        reference_face_matching(ivl, squares.cfg, squares.gb)


def test_planted_cycle_fails_both_acyclicity_checks(squares):
    fm = editable_copy(squares.matching((2, 2, 1, 1)))
    assert verify_acyclic(fm) and reference_verify_acyclic(fm)
    triangle = next(m for m in fm.owner if m.bit_count() == 3)
    p, q, r = (1 << i for i in range(triangle.bit_length()) if triangle >> i & 1)
    cycle = {p: p | q, q: q | r, r: r | p}
    for face in [*cycle, *cycle.values()]:
        other = fm.partner.pop(face, None)
        if other is not None:
            fm.partner.pop(other, None)
    for lo, hi in cycle.items():
        fm.partner[lo], fm.partner[hi] = hi, lo
    assert not verify_acyclic(fm)
    assert not reference_verify_acyclic(fm)


def test_matched_pair_must_be_face_and_coface(squares):
    # swap the partners of two pairs in one facet and dimension so that a
    # face is matched one dimension up to a face that does not contain it
    fm = editable_copy(squares.matching((2, 2, 1, 1)))
    ups = [(a, b) for a, b in fm.partner.items() if a.bit_count() < b.bit_count()]
    a, big_a, b, big_b = next(
        (a, big_a, b, big_b)
        for a, big_a in ups
        for b, big_b in ups
        if fm.owner[a] == fm.owner[b]
        and a.bit_count() == b.bit_count()
        and a & big_b != a
    )
    fm.partner.update({a: big_b, big_b: a, b: big_a, big_a: b})
    assert abs(fm.dim(a) - fm.dim(big_b)) == 1  # the dimension test alone passes
    with pytest.raises(InternalInvariantError, match="other than one element"):
        morse._verify_matching(fm)


# -- the alternating cycle search against Kahn's sort ------------------------------


def plant_cycle(fm, face, d):
    """Match faces of face around a cycle in dimensions d and d + 1.

    With three elements a, b, c of face and a base of d others, the faces
    base+a, base+b, base+c are matched up to base+a+b, base+b+c, base+c+a,
    whatever they were matched to before.  Returns the planted pairs.
    """
    elements = [1 << i for i in range(face.bit_length()) if face >> i & 1]
    a, b, c = elements[:3]
    base = sum(elements[3 : 3 + d])
    cycle = {base | a: base | a | b, base | b: base | b | c, base | c: base | c | a}
    for f in [*cycle, *cycle.values()]:
        other = fm.partner.pop(f, None)
        if other is not None:
            fm.partner.pop(other, None)
    for lo, hi in cycle.items():
        fm.partner[lo], fm.partner[hi] = hi, lo
    return cycle


@pytest.mark.parametrize("d", [0, 1, 2])
def test_planted_cycle_in_each_dimension_pair(squares, d):
    fm = editable_copy(squares.matching((4, 4, 1, 1)))
    face = next(m for m in fm.owner if m.bit_count() == d + 3)
    cycle = plant_cycle(fm, face, d)
    assert not verify_acyclic(fm)
    assert not reference_verify_acyclic(fm)
    # seeded on the cycle alone, the search returns one of its lower faces
    assert alternating_cycle(fm.partner, [next(iter(cycle))]) in cycle
    # unmatching one planted pair opens the cycle, and both checks agree
    lo = next(iter(cycle))
    del fm.partner[lo], fm.partner[cycle[lo]]
    assert verify_acyclic(fm) and reference_verify_acyclic(fm)


def two_path_reversal(cyclic3):
    """A certified cancellation path and one of two paths between two cells.

    On cyclic3 (2,2,2,2,2,2) the upper cell (5, 4, 3, 2, 1, 0) reaches the
    lower cell (3, 4, 5, 2, 1, 0) by two gradient paths, so reversing
    either one closes a cycle with the other.  The certified path is the
    one cancel_cells reverses.
    """
    fm = cyclic3.matching((2, 2, 2, 2, 2, 2))
    mask_of = {c.facet.labels: m for m, c in fm.critical.items()}
    hi, lo = mask_of[(5, 4, 3, 2, 1, 0)], mask_of[(3, 4, 5, 2, 1, 0)]
    paths = gradient_paths_from(fm, hi, {lo})[lo]
    assert len(paths) == 2
    (pair,) = cancel_cells(fm, cyclic3.gb).pairs
    return fm, pair.path, paths


def test_reversing_one_of_two_paths_closes_a_cycle(cyclic3):
    fm, _, paths = two_path_reversal(cyclic3)
    for path in paths:
        out = _apply_reversals(fm, [path])
        assert not reference_verify_acyclic(out)
        assert not verify_acyclic(out)
        assert alternating_cycle(out.partner, path.cells[1::2]) is not None
        with pytest.raises(
            AcyclicityFailure,
            match=r"^face matching at \(2, 2, 2, 2, 2, 2\): facet \(.*\): "
            r"reversed matching has a directed cycle$",
        ):
            _verify_reversals(out, [path])


def test_reversal_check_seeds_every_reversed_path(cyclic3):
    # the cycle runs through the second path only: a check seeded from the
    # first reversed path alone would miss it
    fm, certified, paths = two_path_reversal(cyclic3)
    chosen = [certified, paths[0]]
    out = _apply_reversals(fm, chosen)
    assert not reference_verify_acyclic(out)
    with pytest.raises(AcyclicityFailure, match="reversed matching has a directed cycle"):
        _verify_reversals(out, chosen)
    _verify_reversals(_apply_reversals(fm, chosen[:1]), chosen[:1])


def test_reversal_check_visits_few_faces(squares, monkeypatch):
    class Recording(dict):
        def get(self, key, default=None):
            touched.add(key)
            return super().get(key, default)

    touched: set[int] = set()
    search = cancellation.alternating_cycle
    monkeypatch.setattr(
        cancellation, "alternating_cycle", lambda partner, seeds: search(Recording(partner), seeds)
    )
    fm = squares.matching((5, 5, 1, 1))
    res = cancel_cells(fm, squares.gb)
    assert res.pairs and len(fm.owner) == 20_153
    # about 3,800 faces, where the check of the built matching reads 20,140
    assert 0 < len(touched) < len(fm.owner) // 5
    assert reference_verify_acyclic(res.matching)
