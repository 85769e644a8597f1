"""The simplicial homology oracle: ranks, torsion, Tor tables, vanishing."""

import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from conftest import fixture_and_seeded_rings, random_presentation
from morsegraded import homology
from morsegraded.homology import (
    OrderComplex,
    below_vanishing_bound,
    betti_numbers,
    boundary_matrix,
    integral_homology,
    matrix_rank,
    order_complex,
    reduced_betti,
    smith_normal_form,
    tor_ranks,
    tor_tables,
    verify_vanishing,
)
from morsegraded.io import parse_input
from morsegraded.semigroup import (
    SemigroupPresentation,
    bit_indices,
    standard_grading_functional,
)

FIXTURES = Path(__file__).parent / "fixtures"


def reference_faces(ivl):
    """Faces as increasing vertex tuples, each dimension in lexicographic
    order; vertex v is element v + 1 of the interval."""
    n = len(ivl.elements)
    reach = [0] * n  # reach[i]: bitset of the elements strictly above element i
    for i in range(n - 1, -1, -1):
        bits = 0
        for _, j in ivl.cover_edges[i]:
            bits |= reach[j] | (1 << j)
        reach[i] = bits
    m = max(n - 2, 0)
    above = [bit_indices(reach[v + 1] >> 1 & (1 << m) - 1) for v in range(m)]
    by_dim = []
    layer = [(v,) for v in range(m)]
    while layer:
        by_dim.append(layer)
        layer = [f + (j,) for f in layer for j in above[f[-1]]]
    return by_dim


def reference_boundary(faces, d):
    """Sparse dict columns {row: +-1} of C_d -> C_{d-1}; for d = 0, row 0
    is the empty face."""
    if d == 0:
        return [{0: 1} for _ in faces[0]]
    index = {f: i for i, f in enumerate(faces[d - 1])}
    cols = []
    for f in faces[d]:
        col = {}
        for j in range(len(f)):
            col[index[f[:j] + f[j + 1 :]]] = 1 if j % 2 == 0 else -1
        cols.append(col)
    return cols


def reference_field_betti(faces, p):
    """Reduced Betti numbers over Q (p = 0) or F_p by universal coefficients
    from the Smith forms of dense matrices of the reference columns."""
    counts = [1] + [len(fs) for fs in faces]  # counts[d + 1]: number of d-faces
    snf = [[]]  # snf[d + 1]: Smith diagonal of the boundary map out of dimension d
    for d in range(len(faces)):
        dense = [[0] * counts[d + 1] for _ in range(counts[d])]
        for j, col in enumerate(reference_boundary(faces, d)):
            for i, v in col.items():
                dense[i][j] = v
        snf.append(smith_normal_form(dense))
    snf.append([])
    out = []
    for k in range(len(counts)):  # dimension k - 1
        free = counts[k] - len(snf[k]) - len(snf[k + 1])
        torsion = [t for t in snf[k + 1] if t > 1]  # of H~_{k-1}
        below = [t for t in snf[k] if t > 1]  # of H~_{k-2}
        if p:
            free += sum(t % p == 0 for t in torsion) + sum(t % p == 0 for t in below)
        out.append(free)
    return tuple(out)


def _has_top(xs, leq):
    """Some element of xs lies above every other."""
    return any(all(z == y or leq(z, y) for z in xs) for y in xs)


def sweep_core(less, alive):
    """Sweep the surviving vertices upward in the order of `alive` and
    delete each whose surviving elements below have a maximum, or above
    have a minimum, until a sweep deletes nothing.  `less` holds the
    strict order as pairs, and any element may be the maximum or minimum,
    not only the highest or lowest."""
    swept = None
    while swept != alive:
        swept = list(alive)
        for x in swept:
            below = [y for y in alive if (y, x) in less]
            above = [y for y in alive if (x, y) in less]
            if _has_top(below, lambda a, b: (a, b) in less) or _has_top(
                above, lambda a, b: (b, a) in less
            ):
                alive.remove(x)
    return set(alive)


def reference_core(faces, rank):
    """The beat-point core's vertices, by the deletions `order_complex` makes.

    An upward pass in the order of `rank` (the vertices' poset indices)
    first deletes each vertex whose surviving elements below have a
    maximum, the poset's down-beat points inside the interval; then the
    sweeps of `sweep_core`.  The order is read off the reference 1-faces.
    """
    less = set(faces[1]) if len(faces) > 1 else set()
    alive = sorted((f[0] for f in faces[0]), key=rank.__getitem__) if faces else []
    for x in list(alive):
        if _has_top([y for y in alive if (y, x) in less], lambda a, b: (a, b) in less):
            alive.remove(x)
    return sweep_core(less, alive)


def core_chains(pres, ivl, faces):
    """The reference faces whose vertices all lie in the core, as chains of
    elements, every dimension kept, so the layers above the core's
    dimension are empty; each layer in lexicographic order of poset
    indices."""
    rank = [pres.index(e) for e in ivl.elements[1:-1]]
    core = reference_core(faces, rank)
    return [
        [
            tuple(ivl.elements[v + 1] for v in f)
            for f in sorted(fs, key=lambda f: [rank[v] for v in f])
            if core.issuperset(f)
        ]
        for fs in faces
    ]


def complex_chains(cx):
    """The faces of an order complex as chains of its elements."""
    return [[tuple(cx.elements[v] for v in bit_indices(f)) for f in fs] for fs in cx.faces]


def assert_no_beat_point(pres, elements):
    """No element has a maximum among the others below it, nor a minimum
    among those above it, in the semigroup order."""
    for x in elements:
        below = [y for y in elements if y != x and pres.leq(y, x)]
        above = [y for y in elements if y != x and pres.leq(x, y)]
        assert not any(all(pres.leq(z, y) for z in below) for y in below), x
        assert not any(all(pres.leq(y, z) for z in above) for y in above), x


def full_complex(faces):
    """An OrderComplex of every chain, from the reference tuples."""
    return OrderComplex(tuple(tuple(sum(1 << v for v in f) for f in fs) for fs in faces))


@pytest.mark.parametrize("name", ["squares", "pair_swap", "minor", "cyclic3", "cyclic_split3"])
def test_mask_faces_and_pair_columns_match_tuple_reference(name, request, reference_betti):
    """Faces are the reference chains inside the beat-point core, in order,
    padded with empty layers to the whole open interval's dimension, at
    every multidegree of window 4, and no core element is a beat point.
    On complexes of at most 120 faces, the Betti numbers over Q, F_2, F_3
    and F_5 are those of the reference's full chain set, both with
    clearing and from the rank of every whole boundary map (clearing skips
    enough columns to hide some wrong signs)."""
    if name == "cyclic_split3":
        pres = parse_input((FIXTURES / "cyclic_split3.json").read_text()).presentation
    else:
        pres = request.getfixturevalue(name).pres
    zero = tuple([0] * pres.dimension)
    compared = 0
    for lam in sorted(pres.degree_window(4)):
        ivl = pres.interval(zero, lam)
        cx = order_complex(pres, lam)
        faces = reference_faces(ivl)
        assert complex_chains(cx) == core_chains(pres, ivl, faces), lam
        assert_no_beat_point(pres, cx.elements)
        if sum(map(len, faces)) <= 120:  # dense Smith form is cubic
            compared += 1
            got = betti_numbers(cx, (0, 2, 3, 5))
            for p in (0, 2, 3, 5):
                expected = reference_field_betti(faces, p)
                assert got[p] == reference_betti(cx, p) == expected, (lam, p)
    assert compared


CORE_FIXTURES = ["cyclic_split3", "minor", "pair_swap", "ring5_seed22", "skew2d", "squares"]


def _core_rings(group):
    """One fixture to window 5; <2,3> and <3,4,5>, which are not
    standard-graded; or sixteen seeded rings to window 4."""
    if group in CORE_FIXTURES:
        yield parse_input((FIXTURES / f"{group}.json").read_text()).presentation, 5
    elif group == "numerical":
        yield SemigroupPresentation(1, [(2,), (3,)]), 6
        yield SemigroupPresentation(1, [(3,), (4,), (5,)]), 4
    else:
        rng = random.Random(20261019)
        for _ in range(16):
            yield random_presentation(rng, window_degree=4, face_budget=20_000), 4


@pytest.mark.parametrize("group", CORE_FIXTURES + ["numerical", "seeded"])
def test_core_homology_equals_full_complex_homology(group, reference_betti):
    """Betti numbers of the core over Q, F_2, F_3 and F_5 equal the uncleared
    ranks of the whole chain set, and integral homology, torsion included,
    agrees wherever the whole complex has at most 120 faces."""
    graded = []
    for pres, degree in _core_rings(group):
        graded.append(standard_grading_functional(pres) is not None)
        zero = tuple([0] * pres.dimension)
        for lam in sorted(pres.degree_window(degree)):
            ivl = pres.interval(zero, lam)
            cx, faces = order_complex(pres, lam), reference_faces(ivl)
            assert_no_beat_point(pres, cx.elements)
            full = full_complex(faces)
            assert cx.dim == full.dim, lam
            got = betti_numbers(cx, (0, 2, 3, 5))
            for p in (0, 2, 3, 5):
                assert got[p] == reference_betti(full, p), (pres.generators, lam, p)
            if sum(map(len, faces)) <= 120:  # dense Smith form is cubic
                assert integral_homology(cx) == integral_homology(full), (pres.generators, lam)
    if group == "seeded":  # the sample mixes standard-graded rings and others
        assert any(graded) and not all(graded)


def test_cores_after_down_beat_points_match_references_on_sampled_rings():
    """On the fixtures and seeded rings at window 4, every core has no beat
    point, has the face counts of the core the sweeps alone leave (Stong:
    the core is unique up to isomorphism, whichever beat points go first),
    and has the reference's Betti numbers over Q, F_2 and F_3 on the whole
    chain set wherever that has at most 120 faces."""
    compared = 0
    for name, pres, _, _ in fixture_and_seeded_rings(4):
        zero = tuple([0] * pres.dimension)
        for lam in sorted(pres.degree_window(4)):
            ivl = pres.interval(zero, lam)
            cx, faces = order_complex(pres, lam), reference_faces(ivl)
            assert_no_beat_point(pres, cx.elements)
            less = set(faces[1]) if len(faces) > 1 else set()
            swept = sweep_core(less, [f[0] for f in faces[0]] if faces else [])
            counts = [sum(swept.issuperset(f) for f in fs) for fs in faces]
            assert [cx.face_count(d) for d in range(len(faces))] == counts, (name, lam)
            if sum(map(len, faces)) <= 120:  # dense Smith form is cubic
                compared += 1
                got = betti_numbers(cx, (0, 2, 3))
                for p in (0, 2, 3):
                    assert got[p] == reference_field_betti(faces, p), (name, lam, p)
    assert compared


def test_boundary_matrix_skips_columns_without_building_them(squares, cyclic3):
    """The whole map equals the reference's signed columns on the full chain
    set, and with a skip set it equals the whole map without those columns,
    for the lead rows clearing passes down and for every other index."""
    full = full_complex(reference_faces(squares.interval((2, 2, 1, 1))))
    faces = [[tuple(bit_indices(f)) for f in fs] for fs in full.faces]
    for d in range(full.dim + 1):
        want = [
            (
                sum(1 << i for i, v in col.items() if v == 1),
                sum(1 << i for i, v in col.items() if v == -1),
            )
            for col in reference_boundary(faces, d)
        ]
        assert boundary_matrix(full, d) == want, d
    for cx in (full, order_complex(cyclic3.pres, (1, 1, 1, 1, 1, 1))):
        leads = set()
        for d in range(cx.dim, -1, -1):
            whole = boundary_matrix(cx, d)
            cleared = [col for k, col in enumerate(whole) if k not in leads]
            assert boundary_matrix(cx, d, leads) == cleared, d
            for skip in (set(range(0, len(whole), 2)), set(range(len(whole)))):
                kept = [col for k, col in enumerate(whole) if k not in skip]
                assert boundary_matrix(cx, d, skip) == kept, (d, sorted(skip))
            leads = set(homology._unit_pivots(cleared))
        assert leads == {0}  # the augmentation's one pivot


def test_point_core_eliminates_nothing(squares, monkeypatch):
    """A one-vertex core, padded or not, is a point: its Betti numbers are
    all 0 over every field with no boundary map built, as its integral
    homology says."""
    cores = [order_complex(squares.pres, lam) for lam in sorted(squares.pres.degree_window(5))]
    points = [cx for cx in cores if cx.face_count(0) == 1]
    assert len(points) > len(cores) // 2 and any(cx.dim > 0 for cx in points)
    integral = [integral_homology(cx) for cx in points]

    def no_boundary(cx, d):
        raise AssertionError("a point core built a boundary map")

    monkeypatch.setattr(homology, "boundary_matrix", no_boundary)
    for cx, expected in zip(points, integral):
        assert expected == [(0, [])] * (cx.dim + 2)
        got = betti_numbers(cx, (0, 2, 3))
        assert got == {c: tuple(free for free, _ in expected) for c in (0, 2, 3)}


def test_two_points(free_plane):
    cx = order_complex(free_plane.pres, (1, 1))
    assert reduced_betti(cx, 0) == (0, 1)


def test_empty_complex(squares):
    cx = order_complex(squares.pres, (0, 0, 1, 0))
    assert reduced_betti(cx, 0) == (1,)


def test_wedge_of_two_spheres(squares):
    cx = order_complex(squares.pres, (2, 2, 1, 1))
    for char in (0, 2, 3):
        assert reduced_betti(cx, char) == (0, 0, 0, 2)


def test_four_points_in_minor_ring(minor):
    cx = order_complex(minor.pres, (1, 1, 1, 1))
    assert reduced_betti(cx, 0) == (0, 3)


def test_two_circles_in_cyclic3(cyclic3):
    cx = order_complex(cyclic3.pres, (1, 1, 1, 1, 1, 1))
    assert reduced_betti(cx, 0) == (0, 1, 2)
    assert cx.euler_characteristic() == 0


def test_euler_characteristic_equals_alternating_betti(squares):
    zero = squares.zero
    for lam in sorted(squares.pres.degree_window(4)):
        cx = order_complex(squares.pres, lam)
        betti = reduced_betti(cx, 0)
        alt = sum((-1) ** i * b for i, b in enumerate(betti, start=-1))
        # reduced Euler characteristic = chi - 1
        assert alt == cx.euler_characteristic() - 1, lam


def test_field_independence_on_rings(squares, minor, reference_betti):
    for ring in (squares, minor):
        for lam in sorted(ring.pres.degree_window(3)):
            cx = order_complex(ring.pres, lam)
            b0 = reference_betti(cx, 0)
            assert b0 == reduced_betti(cx, 2) == reduced_betti(cx, 3), (ring.name, lam)


def test_integral_homology_matches_rational_ranks(squares):
    cx = order_complex(squares.pres, (2, 2, 1, 1))
    ranks = [r for r, _ in integral_homology(cx)]
    assert tuple(ranks) == reduced_betti(cx, 0)
    assert all(not tor for _, tor in integral_homology(cx))


def test_unit_route_certifies_every_fixture_interval(monkeypatch):
    """Every interval of the six fixtures at window 5, and the complex with
    homology in both parities, is ranked by unit pivots alone: the Smith
    fallback never runs."""

    def no_fallback(rows):
        raise AssertionError("the unit route declined")

    monkeypatch.setattr(homology, "smith_normal_form", no_fallback)
    for name in CORE_FIXTURES:
        pres = parse_input((FIXTURES / f"{name}.json").read_text()).presentation
        zero = tuple([0] * pres.dimension)
        for lam in sorted(pres.degree_window(5)):
            betti_numbers(order_complex(pres, lam), (0, 2, 3))
    pres = SemigroupPresentation(3, [(1, 0, 3), (0, 3, 2), (0, 1, 3), (2, 2, 3), (3, 3, 0)])
    cx = order_complex(pres, (4, 4, 6))
    assert betti_numbers(cx, (0, 2, 3)) == {c: (0, 1, 1) for c in (0, 2, 3)}


# The 6-vertex triangulation of the real projective plane.
RP2_TRIANGLES = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
]


def test_torsion_falls_back_to_smith_normal_form(reference_betti):
    """On RP^2 the unit route declines at the triangles, whose Smith form
    holds a 2, and the fallback gives F_2 its extra classes."""
    faces = [sorted({c for f in RP2_TRIANGLES for c in combinations(f, k)}) for k in (1, 2, 3)]
    cx = OrderComplex(tuple(tuple(sum(1 << v for v in f) for f in fs) for fs in faces))
    assert [cx.face_count(d) for d in range(3)] == [6, 15, 10]
    triangles = boundary_matrix(cx, 2)
    assert homology._unit_pivots(triangles) is None
    assert (matrix_rank(triangles, 0), matrix_rank(triangles, 2)) == (10, 9)
    assert integral_homology(cx) == [(0, []), (0, []), (0, [2]), (0, [])]
    got = betti_numbers(cx, (0, 2, 3))
    assert got == {0: (0, 0, 0, 0), 2: (0, 0, 1, 1), 3: (0, 0, 0, 0)}
    for p in (0, 2, 3):
        assert got[p] == reference_betti(cx, p)


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
    cx = order_complex(cyclic3.pres, (1, 1, 1, 1, 1, 1))
    betti = reduced_betti(cx, 0)
    assert not below_vanishing_bound(0, 3, 3)  # b0 may be nonzero
    assert betti[1] >= 1


def test_standard_grading_detection(squares, free_plane):
    w = standard_grading_functional(squares.pres)
    assert w == (Fraction(1, 2), Fraction(1, 2), Fraction(1), Fraction(1))
    assert standard_grading_functional(free_plane.pres) == (Fraction(1), Fraction(1))


def test_non_graded_presentation_detected():
    pres = SemigroupPresentation(1, [(2,), (3,)])
    assert standard_grading_functional(pres) is None
