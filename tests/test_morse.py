"""Interval systems, truncation, critical cells, the face matching."""

import dataclasses
import json
import random
from itertools import combinations, combinations_with_replacement

import pytest

from conftest import (
    FIXTURE_NAMES,
    FIXTURES,
    common_prefix,
    facet_systems,
    fixture_and_seeded_rings,
    random_presentation,
    reference_face_table,
)
from morsegraded import cancellation, morse
from morsegraded.cancellation import (
    _apply_reversals,
    _verify_reversals,
    cancel_cells,
    gradient_paths_from,
)
from morsegraded.chains import FacetOrderConfig, interval_contents, ordered_facets, saturated_chains
from morsegraded.errors import AcyclicityFailure, InternalInvariantError, MorsegradedError
from morsegraded.groebner import GroebnerBasis, groebner_for
from morsegraded.homology import order_complex
from morsegraded.io import parse_input
from morsegraded.morse import (
    FaceMatching,
    RankInterval,
    alternating_cycle,
    build_face_matching,
    cell_intervals,
    characterization_certified,
    direct_interval_system,
    morse_numbers,
    msi_characterization,
    rank_mask,
    truncate_to_j_intervals,
    verify_acyclic,
    walk_systems,
)
from morsegraded.orders import TermOrder
from morsegraded.pipeline import characterization_matches_direct
from morsegraded.semigroup import standard_grading_functional


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


def test_nested_skipped_intervals_name_the_facet(squares, monkeypatch):
    # plant a syzygy run over the descents at ranks 1 and 2
    honest = morse._skipped_steps

    def planted(rank, windows, word, *state):
        found, start = honest(rank, windows, word, *state)
        if word == (3, 2, 1, 4):  # through rank 3, the last
            found += ((1, 3, "syzygy"),)
        return found, start

    monkeypatch.setattr(morse, "_skipped_steps", planted)
    nested = r"^facet \(3, 2, 1, 4\): nested skipped intervals \(1, 1\) in \(1, 3\)$"
    with pytest.raises(InternalInvariantError, match=nested):
        msi_characterization(squares.gb, squares.cfg, (3, 2, 1, 4))
    # the build's walk takes the same steps and makes the same check
    with pytest.raises(InternalInvariantError, match=nested):
        build_face_matching(squares.interval((2, 2, 1, 1)), squares.cfg, squares.gb)


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


def test_facet_systems_equal_per_facet_characterization(squares, pair_swap, minor, cyclic3):
    # one walk over the facets in order, taking each trie node's step once,
    # gives every facet its own characterization, and equal systems are one
    # object
    for ring, depth in ((squares, 5), (pair_swap, 5), (minor, 5), (cyclic3, 5)):
        for lam in sorted(ring.pres.degree_window(depth)):
            ivl = ring.interval(lam)
            walked = list(walk_systems(ivl, ring.cfg, ring.gb, interval_contents(ivl, ring.cfg)))
            facets = [facet for facet, _, _ in walked]
            systems = [system for _, _, system in walked]
            assert systems == [msi_characterization(ring.gb, ring.cfg, f) for f in facets]
            assert len({id(s) for s in systems}) == len(set(systems)), (ring.name, lam)


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
    assert list(morse.covering_search(gb, squares.cfg, (1, 2, 1, 1, 1), 6))
    assert made == [gb] and len(tested) == len(set(tested))


def search_systems(gb, cfg, degree):
    """Word -> the system covering_search yields for it, over the window."""
    return dict(morse.covering_search(gb, cfg, [degree] * cfg.order.n, degree))


def label_guard_rings():
    """(name, facet order config, basis at window 6) for the six fixtures and
    the seeded rings of fixture_and_seeded_rings, drawn at window 5 (draws
    at window 6 take minutes)."""
    for name, pres, cfg, _ in fixture_and_seeded_rings(5):
        yield name, cfg, groebner_for(pres, cfg.order, 6)


def test_search_systems_equal_characterization_and_window_prefilter_is_exact():
    searched = 0
    for name, cfg, gb in label_guard_rings():
        got = search_systems(gb, cfg, 6)
        assert got == {w: msi_characterization(gb, cfg, w) for w in got}, name
        searched += len(got)
        # every window a search or walk to degree 6 reaches is weakly
        # increasing, of 2 .. 6 labels; the step looks one up only when
        # the prefilter passes it, and must read what _is_window reads
        table = morse.syzygy_windows(gb, cfg)
        assert all(hit == table._is_window(w) for w, hit in table.items()), name
        by_rank = sorted(range(cfg.order.n), key=cfg.order.label_rank.__getitem__)
        for k in range(2, 7):
            for w in combinations_with_replacement(by_rank, k):
                prefiltered = w[0] in table.firsts[w[-1]] and table[w]
                assert prefiltered == table._is_window(w), (name, w)
    assert searched > 5000


def test_search_yields_one_system_object_per_distinct_system(pair_swap):
    # as in the facet walk, words that find the same intervals share one system
    systems = search_systems(pair_swap.gb, pair_swap.cfg, 6).values()
    assert len({id(s) for s in systems}) == len(set(systems)) > 1


def test_search_guard_catches_a_step_that_drops_a_syzygy_interval(pair_swap, monkeypatch):
    # the reference is read before the plant, so only the search takes the
    # planted step, which drops the syzygy interval ending at rank 2
    gb, cfg = pair_swap.gb, pair_swap.cfg
    want = {w: msi_characterization(gb, cfg, w) for w in search_systems(gb, cfg, 6)}
    assert search_systems(gb, cfg, 6) == want
    honest = morse._skipped_steps

    def planted(rank, windows, word, found=(), start=0, b=1):
        now, run = honest(rank, windows, word, found, start, b)
        return tuple(iv for iv in now if iv[1:] != (2, "syzygy")), run

    monkeypatch.setattr(morse, "_skipped_steps", planted)
    assert search_systems(gb, cfg, 6) != want


def test_covering_search_steps_only_prefixes_its_cuts_keep(pair_swap, monkeypatch):
    # pair_swap's degree-6 window search takes 3,698 steps for its 1,280
    # words: 7,248 without the window cut, and 14,076 when the descent cut
    # also waits for the step
    honest, steps = morse._skipped_steps, []

    def spy(rank, windows, word, found=(), start=0, b=1):
        steps.append(word)
        return honest(rank, windows, word, found, start, b)

    monkeypatch.setattr(morse, "_skipped_steps", spy)
    assert len(search_systems(pair_swap.gb, pair_swap.cfg, 6)) == 1280
    assert len(steps) <= 4000
    assert len(steps) == len(set(steps))  # each prefix steps once


# -- critical cells ---------------------------------------------------------------


def test_cell_of_descending_witness(squares):
    facet = next(
        f
        for f in ordered_facets(squares.interval((2, 2, 1, 1)), squares.cfg)
        if f.labels == (3, 2, 1, 4)
    )
    j_system = cell_intervals(msi_characterization(squares.gb, squares.cfg, facet), 3)
    assert tuple(iv.lo for iv in j_system) == (1, 2, 3)


def test_cell_of_interspersed_witness(squares):
    facet = next(
        f
        for f in ordered_facets(squares.interval((2, 2, 1, 1)), squares.cfg)
        if f.labels == (2, 1, 3, 4)
    )
    j_system = cell_intervals(msi_characterization(squares.gb, squares.cfg, facet), 3)
    assert tuple(iv.lo for iv in j_system) == (1, 2)


def test_non_covering_system_gives_no_cell(squares):
    facet = next(
        f
        for f in ordered_facets(squares.interval((2, 2, 1, 1)), squares.cfg)
        if f.labels == (1, 3, 2, 4)
    )
    system = msi_characterization(squares.gb, squares.cfg, facet)
    assert rank_mask(system) != morse.all_ranks(3)
    assert cell_intervals(system, 3) is None


def test_labels_contribute(squares):
    # a word contributes a critical cell when its system covers every rank
    def contributes(word):
        system = msi_characterization(squares.gb, squares.cfg, word)
        return cell_intervals(system, len(word) - 1) is not None

    assert contributes((3, 2, 1, 4))
    assert not contributes((1, 3, 2, 4))


def non_nested_span_systems(r):
    """Every sorted, non-nested span system on ranks 1 .. r, the empty one
    included: both ends strictly increase from one span to the next."""
    spans_ = [(lo, hi) for lo in range(1, r + 1) for hi in range(lo, r + 1)]
    stack = [((), 0)]
    while stack:
        system, start = stack.pop()
        yield system
        for i in range(start, len(spans_)):
            lo, hi = spans_[i]
            if not system or (lo > system[-1][0] and hi > system[-1][1]):
                stack.append((system + (spans_[i],), i + 1))


def test_face_matching_cells_follow_the_shared_rule_on_every_shape():
    # a shape has a non-base critical cell exactly when cell_intervals
    # accepts its system, at the lowest ranks of its J-intervals.  A shape
    # whose J-intervals leave a face the toggle rule cannot match keeps a
    # breach instead (ROADMAP item 1); only accepted systems do that
    accepted = breached = 0
    for r in range(1, 8):
        for spans_ in non_nested_span_systems(r):
            system = tuple(RankInterval(lo, hi) for lo, hi in spans_)
            j_system = cell_intervals(system, r)
            accepted += j_system is not None
            shape = morse._match_shape(r, system)
            if shape.breach is not None:
                assert j_system is not None, (r, spans_)
                breached += 1
                continue
            cells = [ranks for ranks, is_base in shape.critical.values() if not is_base]
            assert cells == ([] if j_system is None else [tuple(iv.lo for iv in j_system)])
    assert (accepted, breached) == (625, 176)


# -- the face matching --------------------------------------------------------------


def test_matching_on_relation_interval(squares):
    fm = squares.matching((2, 2, 1, 1))
    numbers = morse_numbers(fm.cells())
    assert numbers == {0: 2, 1: 4, 2: 5}
    assert verify_acyclic(fm)
    cx = order_complex(squares.pres, (2, 2, 1, 1))
    assert morse_euler(fm.cells()) == cx.euler_characteristic()


def test_matching_two_points(free_plane):
    ivl = free_plane.pres.interval((0, 0), (1, 1))
    fm = build_face_matching(ivl, free_plane.cfg, free_plane.gb)
    assert morse_numbers(fm.cells()) == {0: 2}
    assert order_complex(free_plane.pres, (1, 1)).euler_characteristic() == 2


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
        reference_verify_matching(fm)
    # breaking one pair breaks the only cycle
    del fm.partner[v3], fm.partner[e31]
    assert verify_acyclic(fm)


def test_euler_identity_across_window(squares):
    for lam in sorted(squares.pres.degree_window(4)):
        fm = squares.matching(lam)
        cx = order_complex(squares.pres, lam)
        assert morse_euler(fm.cells()) == cx.euler_characteristic(), lam


def test_cell_dimension_counts_j_intervals(squares):
    fm = squares.matching((2, 2, 1, 1))
    for j, facet in enumerate(fm.facets):
        system = msi_characterization(squares.gb, squares.cfg, facet)
        j_system = cell_intervals(system, len(facet.interior))
        if j_system is not None and j > 0:
            assert len(j_system) == len(truncate_to_j_intervals(fm.systems[j]))


def test_interval_system_accessor(squares):
    fm = squares.matching((2, 2, 1, 1))
    j = next(i for i, f in enumerate(fm.facets) if f.labels == (2, 1, 3, 4))
    assert spans(fm.systems[j]) == ((1, 1), (2, 3))
    assert spans(truncate_to_j_intervals(fm.systems[j])) == ((1, 1), (2, 3))


def test_pure_lead_window_height_bound(squares, pair_swap, cyclic3):
    # a syzygy interval whose window is exactly a leading term (nothing
    # interspersed) has height at most (basis degree) - 1
    for ring in (squares, pair_swap, cyclic3):
        d = ring.gb.degree
        leads = {b.plus for b in ring.gb.elements}
        for lam in sorted(ring.pres.degree_window(4)):
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
        fm.ivl, fm.cfg, fm.facets, fm.systems,
        dict(fm.owner), dict(fm.partner), dict(fm.critical), fm.empty_cell,
    )


def reference_check_transversals(top, facet, system, new_faces, r):
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
            f"face matching at {top}: facet {facet.labels}: new faces do not match "
            f"the transversals of its skipped-interval system"
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


def _match_within_facet(fm: FaceMatching, j, facet, bits, new_faces) -> None:
    """Match facet j's new faces, given as (rank subset, face) pairs.

    A rank subset has bit r - 1 for rank r.
    """
    uncovered = ~morse.rank_mask(fm.systems[j]) & ((1 << len(bits)) - 1)
    if uncovered:
        q = (uncovered & -uncovered).bit_length()  # the lowest uncovered rank
        cone_bit = bits[q - 1]
        for _, mask in new_faces:
            other = mask ^ cone_bit
            if other == 0:
                # lowest vertex of the least facet: the base critical cell
                fm.critical[mask] = morse._cell(facet, (q,), is_base=True)
                continue
            fm.partner[mask] = other
        return
    j_sys = truncate_to_j_intervals(fm.systems[j])
    cell = morse._cell(facet, tuple(iv.lo for iv in j_sys))
    cell_sub = sum(1 << (q - 1) for q in cell.ranks)
    # a face toggles the lowest rank of the first truncated interval it
    # meets above that rank
    toggles = [(iv.mask & ~(1 << (iv.lo - 1)), bits[iv.lo - 1]) for iv in j_sys]
    for sub, mask in new_faces:
        if sub == cell_sub:
            fm.critical[mask] = cell
            continue
        for above, bit in toggles:
            if sub & above:
                fm.partner[mask] = mask ^ bit
                break
        else:
            raise morse._breach(
                fm, j, "new face differs from the critical cell in no truncated interval"
            )


def reference_verify_matching(fm: FaceMatching) -> None:
    """Check that fm is a perfect acyclic matching off its critical cells,
    on the built maps: involution, one-element differences, pairs within
    one facet's faces, every face matched or critical, then the cycle
    search seeded from the facets whose pairs toggle more than one element.
    """
    owner, partner = fm.owner, fm.partner
    toggle: dict[int, int] = {}  # facet -> the one element its pairs toggle, or 0
    for mask, other in partner.items():
        if partner.get(other) != mask:
            raise morse._breach(fm, owner[mask], "matching is not an involution")
        x = mask ^ other
        if not x or x & (x - 1):
            raise morse._breach(fm, owner[mask], "matched faces differ in other than one element")
        j = owner[mask]
        if j != owner[other]:
            raise morse._breach(
                fm, j,
                f"matched pair crosses facet ownership (partner owned by facet "
                f"{fm.facets[owner[other]].labels})",
            )
        if toggle.setdefault(j, x) != x:
            toggle[j] = 0
    for mask in owner:
        if mask not in partner and mask not in fm.critical:
            raise morse._breach(fm, owner[mask], "face neither matched nor critical")
    face = alternating_cycle(partner, [m for m in partner if not toggle[owner[m]]])
    if face is not None:
        raise morse._breach(
            fm, owner[face], "the matching has a directed cycle", AcyclicityFailure
        )


def reference_face_matching(ivl, cfg, gb):
    """Every face rebuilt from scratch, facet by facet, held to the
    reference checks."""
    facets = ordered_facets(ivl, cfg)
    systems = [morse.msi_characterization(gb, cfg, f) for f in facets]
    fm = FaceMatching(ivl, cfg, facets, systems)
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
        reference_check_transversals(ivl.top, facet, systems[j], new_faces, r)
        _match_within_facet(fm, j, facet, bits, new_faces)
    reference_verify_matching(fm)
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


def test_face_kernel_equals_reference_deep_interval(squares, pair_swap, cyclic3):
    # the deep intervals of the benchmark's faces workload; cyclic3 is the
    # ring of the cyclic_split3 fixture
    assert_kernel_equals_reference(squares, (5, 5, 1, 1))
    assert_kernel_equals_reference(pair_swap, (4, 4, 1, 1, 1))
    assert_kernel_equals_reference(cyclic3, (3, 3, 2, 2, 2, 2))


def fresh_shape_table(monkeypatch, gb):
    """Give gb an empty shape table until the test ends, so the build under
    test matches every shape itself, and what a test plants or counts stays
    out of the table the session's rings share."""
    monkeypatch.setitem(vars(gb), "shape_table", {})


def plant_in_systems(monkeypatch, ring, edit):
    """Apply edit to every facet's system, in the build's walk and in the
    per-facet characterization the reference reads."""
    fresh_shape_table(monkeypatch, ring.gb)
    honest_walk, honest = morse.walk_systems, morse.msi_characterization
    monkeypatch.setattr(
        morse, "walk_systems", lambda *a: ((f, s, edit(sys)) for f, s, sys in honest_walk(*a))
    )
    monkeypatch.setattr(morse, "msi_characterization", lambda *a: edit(honest(*a)))


def test_dropped_skipped_interval_breaks_transversal_check(squares, monkeypatch):
    plant_in_systems(monkeypatch, squares, lambda system: system[1:])
    ivl = squares.interval((2, 2, 1, 1))
    with pytest.raises(InternalInvariantError, match="transversals") as err:
        build_face_matching(ivl, squares.cfg, squares.gb)
    assert str(err.value).startswith("face matching at (2, 2, 1, 1): facet (")
    with pytest.raises(InternalInvariantError, match="transversals"):
        reference_face_matching(ivl, squares.cfg, squares.gb)


def test_spurious_skipped_interval_breaks_transversal_check(squares, monkeypatch):
    # an extra interval leaves new faces off the transversals, which only
    # the complement lookup sees: the least facet, with an empty system,
    # now misses its face without rank 1
    spurious = RankInterval(1, 1, "descent")
    plant_in_systems(monkeypatch, squares, lambda system: system + (spurious,))
    ivl = squares.interval((2, 2, 1, 1))
    least = ordered_facets(ivl, squares.cfg)[0]
    with pytest.raises(InternalInvariantError, match="transversals") as err:
        build_face_matching(ivl, squares.cfg, squares.gb)
    assert str(err.value).startswith(f"face matching at (2, 2, 1, 1): facet {least.labels}: ")
    with pytest.raises(InternalInvariantError, match="transversals") as ref_err:
        reference_face_matching(ivl, squares.cfg, squares.gb)
    assert str(ref_err.value) == str(err.value)


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


def test_transversal_checks_come_before_the_shape_breach(squares, monkeypatch):
    # one facet's system loses an interval, so the facet adds faces already
    # owned and fails (a); a fault planted in its new shape must not hide that
    lam = (2, 2, 1, 1)
    fm = squares.matching(lam)
    j, system = next(
        (j, s[1:]) for j, s in enumerate(fm.systems) if len(s) > 1 and s[1:] not in fm.systems[:j]
    )
    honest_walk, honest_rule = morse.walk_systems, morse._toggle_rule

    def walk(*args):
        for i, (f, shared, s) in enumerate(honest_walk(*args)):
            yield f, shared, system if i == j else s

    def rule(r, planted, subs):
        partner, critical = honest_rule(r, planted, subs)
        if planted == system:
            partner.clear()  # every subset unmatched
        return partner, critical

    fresh_shape_table(monkeypatch, squares.gb)
    monkeypatch.setattr(morse, "walk_systems", walk)
    monkeypatch.setattr(morse, "_toggle_rule", rule)
    with pytest.raises(InternalInvariantError) as err:
        build_face_matching(squares.interval(lam), squares.cfg, squares.gb)
    assert str(err.value) == (
        f"face matching at {lam}: facet {fm.facets[j].labels}: "
        "new faces do not match the transversals of its skipped-interval system"
    )


def plant_in_first_shape(monkeypatch, ring, lam, edit):
    """Build lam's matching with a fault planted in the toggle rule's output.

    edit(system, subs, partner, critical) changes the rank-subset maps in
    place and returns True once it has planted; it is offered each shape, in
    facet order, until then.  Asserts that the error names the first facet of
    the planted shape, and returns the error, the honest matching and the
    index of that facet.
    """
    fm = build_face_matching(ring.interval(lam), ring.cfg, ring.gb)
    honest, planted = morse._toggle_rule, []

    def rule(r, system, subs):
        partner, critical = honest(r, system, subs)
        if not planted and edit(system, subs, partner, critical):
            planted.append((r, system))
        return partner, critical

    fresh_shape_table(monkeypatch, ring.gb)
    monkeypatch.setattr(morse, "_toggle_rule", rule)
    with pytest.raises(InternalInvariantError) as err:
        build_face_matching(ring.interval(lam), ring.cfg, ring.gb)
    (shape,) = planted
    j = next(j for j, f in enumerate(fm.facets) if (len(f.interior), fm.systems[j]) == shape)
    assert str(err.value).startswith(f"face matching at {lam}: facet {fm.facets[j].labels}: ")
    return err.value, fm, j


def test_matched_pair_must_be_face_and_coface(squares, monkeypatch):
    # swap the partners of two pairs in one shape and dimension so that a
    # subset is matched one rank up to a subset that does not contain it
    def swap(system, subs, partner, critical):
        if not system:
            return False  # past the least facet
        ups = [(a, big) for a, big in partner.items() if a < big]
        for a, big_a in ups:
            for b, big_b in ups:
                if a.bit_count() == b.bit_count() and a & big_b != a:
                    assert big_b.bit_count() - a.bit_count() == 1  # the dimension test passes
                    partner.update({a: big_b, big_b: a, b: big_a, big_a: b})
                    return True
        return False

    err, _, _ = plant_in_first_shape(monkeypatch, squares, (2, 2, 1, 1), swap)
    assert type(err) is InternalInvariantError
    assert str(err).endswith(": matched faces differ in other than one element")


def test_non_involution_is_a_breach(squares, monkeypatch):
    def unpair_one_side(system, subs, partner, critical):
        if not (system and partner):
            return False
        del partner[partner[next(iter(partner))]]
        return True

    err, _, _ = plant_in_first_shape(monkeypatch, squares, (2, 2, 1, 1), unpair_one_side)
    assert str(err).endswith(": matching is not an involution")


def test_unmatched_face_is_a_breach(squares, monkeypatch):
    def unpair(system, subs, partner, critical):
        if not (system and partner):
            return False
        del partner[partner.pop(next(iter(partner)))]
        return True

    err, _, _ = plant_in_first_shape(monkeypatch, squares, (2, 2, 1, 1), unpair)
    assert str(err).endswith(": face neither matched nor critical")


def test_partner_owned_by_an_earlier_facet_is_a_breach(squares, monkeypatch):
    # match a transversal one rank down, to a subset that misses an interval:
    # its face belongs to an earlier facet, which the error names
    outside = []

    def pair_outside(system, subs, partner, critical):
        new = set(subs)
        for sub in list(partner):
            for k in range(sub.bit_length()):
                down = sub ^ (1 << k)
                if sub >> k & 1 and down and down not in new:
                    del partner[partner[sub]]
                    partner[sub], partner[down] = down, sub
                    outside.append(down)
                    return True
        return False

    lam = (2, 2, 1, 1)
    err, fm, j = plant_in_first_shape(monkeypatch, squares, lam, pair_outside)
    ivl = squares.interval(lam)
    interior = fm.facets[j].interior
    face = sum(1 << ivl.index(e) for k, e in enumerate(interior) if outside[0] >> k & 1)
    earlier = fm.owner[face]
    assert earlier < j
    assert str(err).endswith(
        f": matched pair crosses facet ownership (partner owned by facet "
        f"{fm.facets[earlier].labels})"
    )


def test_face_outside_every_truncated_interval_is_a_breach(squares, monkeypatch):
    # a truncation that loses its last interval leaves the cell plus that
    # interval's lowest rank toggling nothing; the first facet whose system
    # covers every rank is the first to meet it
    lam = (2, 2, 1, 1)
    fm = squares.matching(lam)
    honest = morse.truncate_to_j_intervals
    fresh_shape_table(monkeypatch, squares.gb)
    monkeypatch.setattr(morse, "truncate_to_j_intervals", lambda system: honest(system)[:-1])
    with pytest.raises(InternalInvariantError) as err:
        build_face_matching(squares.interval(lam), squares.cfg, squares.gb)
    first = next(
        f
        for f, s in zip(fm.facets, fm.systems)
        if s and cell_intervals(s, len(f.interior)) is not None
    )
    assert str(err.value) == (
        f"face matching at {lam}: facet {first.labels}: "
        "new face differs from the critical cell in no truncated interval"
    )


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
            match=r"^cancellation at \(2, 2, 2, 2, 2, 2\): facets \(.*\): "
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


# -- the cycle search on facets with more than one toggle -----------------------


def facet_toggles(fm):
    """Facet index -> the elements its matched pairs toggle."""
    out = {}
    for a, b in fm.partner.items():
        out.setdefault(fm.owner[a], set()).add(a ^ b)
    return out


def test_restricted_cycle_search_agrees_with_full_search():
    breaches = []
    for name in FIXTURE_NAMES:
        doc = parse_input((FIXTURES / f"{name}.json").read_text())
        pres, cfg = doc.presentation, FacetOrderConfig(doc.order)
        gb = groebner_for(pres, doc.order, 5)
        zero = tuple([0] * pres.dimension)
        for lam in sorted(pres.degree_window(5)):
            try:
                fm = build_face_matching(pres.interval(zero, lam), cfg, gb)
            except InternalInvariantError as err:
                # ROADMAP item 4: the matching on an interval that is not graded
                assert "differs from the critical cell in no truncated interval" in str(err)
                breaches.append((name, lam))
                continue
            # the restricted search found no cycle, and neither does the full one
            assert verify_acyclic(fm), (name, lam)
    assert breaches == [("skew2d", (5, 15))]


def spans(system):
    """The shape table's key for a system: its spans, kinds left out."""
    return tuple(iv.span() for iv in system)


def test_cycle_search_seeds_only_facets_with_several_toggles(squares, monkeypatch):
    matched, searched = [], []
    match, search = morse._match_shape, morse.alternating_cycle

    def match_spy(r, system):
        matched.append((r, spans(system)))
        return match(r, system)

    def search_spy(partner, seeds):
        searched.append(dict(partner))
        return search(partner, seeds)

    fresh_shape_table(monkeypatch, squares.gb)
    monkeypatch.setattr(morse, "_match_shape", match_spy)
    monkeypatch.setattr(morse, "alternating_cycle", search_spy)
    fm = build_face_matching(squares.interval((5, 5, 1, 1)), squares.cfg, squares.gb)
    shapes = [(len(f.interior), spans(s)) for f, s in zip(fm.facets, fm.systems)]
    # one shape routine per distinct (interior length, spans): the 353
    # distinct systems, which differ in kinds too, have 151 span tuples
    assert len(fm.facets) == 2_142
    assert len({(len(f.interior), s) for f, s in zip(fm.facets, fm.systems)}) == 353
    assert len(matched) == len(set(matched)) == 151 and set(matched) == set(shapes)
    # the cycle search runs once per shape whose pairs toggle more than one
    # rank, on that shape's rank subsets
    toggles = facet_toggles(fm)
    several = {shapes[j] for j, xs in toggles.items() if len(xs) > 1}
    assert len(toggles) == 2_129 and sum(len(xs) > 1 for xs in toggles.values()) == 2
    # the two facets with several toggles share one shape, searched once
    assert len(several) == len(searched) == 1
    for partner in searched:
        assert len({a ^ b for a, b in partner.items()}) > 1


def test_cycle_planted_in_a_one_toggle_facet_is_found(squares, monkeypatch):
    # the certificate is read off the partner map: a cycle planted among
    # the subsets of a shape whose pairs all toggled one rank gives that
    # shape several toggles, so the search reaches it
    def plant_cycle(system, subs, partner, critical):
        if not system or len({a ^ b for a, b in partner.items()}) != 1:
            return False  # past the least facet, and one toggle
        new = set(subs)
        for face in subs:
            ranks = [1 << i for i in range(face.bit_length()) if face >> i & 1]
            for a, b, c in combinations(ranks, 3):
                if not all(face ^ x in new for x in (b | c, a | c, a | b, c, a, b)):
                    continue
                base = face ^ a ^ b ^ c
                cycle = {base | a: base | a | b, base | b: base | b | c, base | c: base | c | a}
                for sub in [*cycle, *cycle.values()]:
                    other = partner.pop(sub, None)
                    if other is not None:
                        del partner[other]
                        # left unmatched, so critical
                        ranks = tuple(k + 1 for k in range(other.bit_length()) if other >> k & 1)
                        critical[other] = (ranks, False)
                    critical.pop(sub, None)
                for lo, hi in cycle.items():
                    partner[lo], partner[hi] = hi, lo
                return True
        return False

    err, _, _ = plant_in_first_shape(monkeypatch, squares, (4, 4, 1, 1), plant_cycle)
    assert type(err) is AcyclicityFailure
    assert str(err).endswith(": the matching has a directed cycle")


# -- the transversal kernel against the all-subsets reference on sampled rings --


def matching_or_breach(build, ivl, cfg, gb):
    """The matching's owner, partner and critical maps in insertion order,
    or the text of the breach that ended the build."""
    try:
        fm = build(ivl, cfg, gb)
    except MorsegradedError as err:
        return f"{type(err).__name__}: {err}"
    return [list(fm.owner.items()), list(fm.partner.items()), list(fm.critical.items()), fm.empty_cell]


def property_rings():
    """Sixteen seeded rings at window 4, alternately under lex and under
    graded-revlex with shuffled priority, then <2,3> and <3,4,5>."""
    rng = random.Random(20261118)
    for i in range(16):
        pres = random_presentation(rng, window_degree=4, face_budget=20_000)
        priority = list(range(pres.n))
        rng.shuffle(priority)
        order = TermOrder(pres.n, "graded-revlex", priority) if i % 2 else TermOrder(pres.n)
        yield pres, order, 4
    for name, window in (("two_three", 4), ("three_four_five", 6)):
        doc = parse_input((FIXTURES / "breaches" / f"{name}.json").read_text())
        yield doc.presentation, doc.order, window


def test_face_matching_equals_reference_on_sampled_rings():
    graded, breaches = [], 0
    for pres, order, window in property_rings():
        graded.append(standard_grading_functional(pres) is not None)
        cfg, gb = FacetOrderConfig(order), groebner_for(pres, order, window)
        zero = tuple([0] * pres.dimension)
        for lam in sorted(pres.degree_window(window)):
            ivl = pres.interval(zero, lam)
            got = matching_or_breach(build_face_matching, ivl, cfg, gb)
            assert got == matching_or_breach(reference_face_matching, ivl, cfg, gb), (
                pres.generators, lam,
            )
            breaches += isinstance(got, str)
    assert any(graded) and not all(graded)
    assert breaches  # the two breach fixtures at least


# -- one shape table per basis -------------------------------------------------


def test_shared_shape_table_equals_a_fresh_table_per_interval():
    # every interval of the six fixtures at window 5, built with one shape
    # table for the whole run, has the owner, partner and critical maps, in
    # content and insertion order, of a build with a fresh table of its own
    for name in FIXTURE_NAMES:
        doc = parse_input((FIXTURES / f"{name}.json").read_text())
        pres, cfg = doc.presentation, FacetOrderConfig(doc.order)
        shared, fresh = (groebner_for(pres, doc.order, 5) for _ in range(2))
        zero = tuple([0] * pres.dimension)
        per_interval = 0
        for lam in sorted(pres.degree_window(5)):
            ivl = pres.interval(zero, lam)
            vars(fresh).pop("shape_table", None)  # the next read makes a new one
            got = matching_or_breach(build_face_matching, ivl, cfg, shared)
            assert got == matching_or_breach(build_face_matching, ivl, cfg, fresh), (name, lam)
            per_interval += len(fresh.shape_table)
        assert len(shared.shape_table) < per_interval, name


def test_breach_in_a_shape_from_an_earlier_interval_names_the_later_one(squares, monkeypatch):
    # the earlier interval puts its shapes in the table; a breach planted in
    # one of them is raised by the later interval, naming its multidegree and
    # its first facet of that shape
    fresh_shape_table(monkeypatch, squares.gb)
    early = (2, 2, 1, 1)
    build_face_matching(squares.interval(early), squares.cfg, squares.gb)
    table = squares.gb.shape_table

    def shapes(lam):
        facets = ordered_facets(squares.interval(lam), squares.cfg)
        systems = facet_systems(squares.gb, squares.cfg, facets)
        return facets, [(len(f.interior), spans(s)) for f, s in zip(facets, systems)]

    window = squares.pres.degree_window(4)
    late, facets, key = next(
        (lam, facets, key)
        for lam in sorted(window)
        if lam != early and window[lam] == window[early]
        for facets, keys in [shapes(lam)]
        for key in keys
        if key[1] and key in table and key != keys[0]
    )
    j = shapes(late)[1].index(key)
    assert j > 0
    table[key] = dataclasses.replace(table[key], breach=("planted", InternalInvariantError, None))
    with pytest.raises(InternalInvariantError) as err:
        build_face_matching(squares.interval(late), squares.cfg, squares.gb)
    assert str(err.value) == f"face matching at {late}: facet {facets[j].labels}: planted"


# -- face tables on shared prefixes --------------------------------------------


def per_facet_table_build(ivl, cfg, gb):
    """build_face_matching with a face table of its own for each facet
    (reference_face_table), its checks and inserts otherwise the build's."""
    facets = ordered_facets(ivl, cfg)
    systems = facet_systems(gb, cfg, facets)
    fm = FaceMatching(ivl, cfg, facets, systems)
    if len(facets) == 1 and not facets[0].interior:
        fm.empty_cell = morse._cell(facets[0], ())
        return fm
    shapes = {}
    for j, (facet, system) in enumerate(zip(facets, systems)):
        r = len(facet.interior)
        key = (r, spans(system))
        if key not in shapes:
            shapes[key] = morse._match_shape(r, system)
        shape = shapes[key]
        face = reference_face_table(ivl, facet)
        if any(face[rest] not in fm.owner for rest in shape.complements):
            raise morse._transversal_breach(fm, j)
        for sub in shape.transversals:
            if face[sub] in fm.owner:
                raise morse._transversal_breach(fm, j)
            fm.owner[face[sub]] = j
        if shape.breach is not None:
            raise morse._shape_breach(fm, j, shape.breach, face)
        fm.partner.update((face[a], face[b]) for a, b in shape.partner.items())
        for sub, (ranks, is_base) in shape.critical.items():
            fm.critical[face[sub]] = morse._cell(facet, ranks, is_base)
    return fm


def shared_prefix_cases():
    """(name, interval, facet order config, basis): every interval of the
    six fixtures at window 5, of the three breach fixtures, and the three
    deep intervals of the benchmark's faces workload at window 7."""
    deep = {"squares": (5, 5, 1, 1), "pair_swap": (4, 4, 1, 1, 1), "cyclic_split3": (3, 3, 2, 2, 2, 2)}
    inputs = [(FIXTURES / f"{name}.json", 5) for name in FIXTURE_NAMES]
    inputs += [(FIXTURES / "breaches" / f"{name}.json", 5) for name in
               ("two_three", "three_four_five", "graded_pivot")]
    for path, window in inputs:
        doc = parse_input(path.read_text())
        pres, cfg = doc.presentation, FacetOrderConfig(doc.order)
        gb = groebner_for(pres, doc.order, window)
        zero = tuple([0] * pres.dimension)
        for lam in sorted(pres.degree_window(window)):
            yield path.stem, pres.interval(zero, lam), cfg, gb
    for name, lam in deep.items():
        doc = parse_input((FIXTURES / f"{name}.json").read_text())
        gb = groebner_for(doc.presentation, doc.order, 7)
        zero = tuple([0] * doc.presentation.dimension)
        yield name, doc.presentation.interval(zero, lam), FacetOrderConfig(doc.order), gb


def test_shared_prefix_face_tables_equal_a_table_per_facet():
    # owner, partner and critical in content and insertion order, or the
    # breach text, as a build that makes each facet's table from scratch
    breaches = set()
    for name, ivl, cfg, gb in shared_prefix_cases():
        got = matching_or_breach(build_face_matching, ivl, cfg, gb)
        assert got == matching_or_breach(per_facet_table_build, ivl, cfg, gb), (name, ivl.top)
        if isinstance(got, str):
            breaches.add(name)
    assert {"skew2d", "two_three", "three_four_five"} <= breaches


def test_walk_equals_sorted_chains_common_prefixes_and_characterizations():
    # the facets come in the facet_key order of saturated_chains, each with
    # the prefix (labels and interior alike) it shares with the previous
    # facet and its own characterization; equal systems are one object
    for name, ivl, cfg, gb in shared_prefix_cases():
        walked = list(walk_systems(ivl, cfg, gb, interval_contents(ivl, cfg)))
        facets = [facet for facet, _, _ in walked]
        assert facets == sorted(saturated_chains(ivl), key=cfg.facet_key), (name, ivl.top)
        labels, interior = (), ()  # the first facet shares nothing
        for facet, shared, _ in walked:
            assert shared == common_prefix(facet.labels, labels), (name, facet)
            assert shared == common_prefix(facet.interior, interior), (name, facet)
            labels, interior = facet.labels, facet.interior
        systems = [system for _, _, system in walked]
        assert systems == [msi_characterization(gb, cfg, f) for f in facets], (name, ivl.top)
        assert len({id(s) for s in systems}) == len(set(systems)), (name, ivl.top)


def test_content_budget_counts_the_interior_subsets_of_every_facet():
    for name, ivl, cfg, gb in shared_prefix_cases():
        budget = morse._interior_subsets(interval_contents(ivl, cfg))
        assert budget == sum(1 << len(f.interior) for f in saturated_chains(ivl)), (name, ivl.top)


# -- the characterization certificate -------------------------------------------


def test_certificate_equals_the_direct_pass_on_every_accepted_interval():
    accepted = 0
    for name, pres, cfg, gb in fixture_and_seeded_rings(5):
        zero = tuple([0] * pres.dimension)
        for lam in sorted(pres.degree_window(5)):
            try:
                fm = build_face_matching(pres.interval(zero, lam), cfg, gb)
            except MorsegradedError:
                continue
            certified = characterization_certified(fm)
            assert certified == characterization_matches_direct(fm), (name, lam)
            accepted += 1
    assert accepted > 1000


def test_one_interval_dropped_or_added_in_one_facet_is_a_transversal_breach(
    squares, monkeypatch
):
    # dropping I leaves the owned face "facet minus I" a transversal, which
    # (a) sees; adding an uncovered single rank q (r > 1) makes "facet
    # minus q" a face the system says is owned but is not, which (b) sees.
    # Either way the breach names the planted facet.
    fresh_shape_table(monkeypatch, squares.gb)
    lam = (2, 2, 1, 1)
    ivl = squares.interval(lam)
    facets = ordered_facets(ivl, squares.cfg)
    honest = facet_systems(squares.gb, squares.cfg, facets)
    honest_walk = morse.walk_systems
    plants = {"drop": [], "add": []}
    for j, (facet, system) in enumerate(zip(facets, honest)):
        r = len(facet.interior)
        for k, iv in enumerate(system):
            if iv.mask != (1 << r) - 1:
                plants["drop"].append((j, system[:k] + system[k + 1 :]))
        for q in range(1, r + 1):
            if r > 1 and not rank_mask(system) >> (q - 1) & 1:
                grown = sorted(system + (RankInterval(q, q, "descent"),), key=RankInterval.span)
                plants["add"].append((j, tuple(grown)))
    assert all(plants.values())
    for j, planted in plants["drop"] + plants["add"]:
        systems = honest[:j] + [planted] + honest[j + 1 :]
        monkeypatch.setattr(
            morse,
            "walk_systems",
            lambda *args, systems=systems: (
                (f, shared, s) for (f, shared, _), s in zip(honest_walk(*args), systems)
            ),
        )
        with pytest.raises(InternalInvariantError) as err:
            build_face_matching(ivl, squares.cfg, squares.gb)
        assert str(err.value) == (
            f"face matching at {lam}: facet {facets[j].labels}: "
            "new faces do not match the transversals of its skipped-interval system"
        )
