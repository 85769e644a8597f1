"""Shared rings and cached pipelines for the test suite.

Ring nicknames used throughout:
  squares      k[x1x2, x1^2, x3, x4, x2^2]      (one quadratic relation z1z4 = z0^2)
  pair_swap    6 generators with z1z5 = z0^2    (labels 0..5)
  minor        4 generators with z2z3 = z0z1
  cyclic3      6 generators with z3z4z5 = z0z1z2 (cubic relation)
"""

import random
from math import gcd
from pathlib import Path

import pytest

from morsegraded.automaton import CommutationClass
from morsegraded.chains import FacetOrderConfig, is_run, skipped_ranks
from morsegraded.errors import CrossingViolation, InternalInvariantError, ValidationError
from morsegraded.groebner import GroebnerBasis, groebner_for
from morsegraded.homology import Column, boundary_matrix
from morsegraded.io import parse_input
from morsegraded import morse
from morsegraded.morse import build_face_matching
from morsegraded.orders import TermOrder
from morsegraded.semigroup import SemigroupPresentation, Vector, bit_indices

RINGS = {
    "squares": (4, [(1, 1, 0, 0), (2, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 2, 0, 0)], 2),
    "pair_swap": (
        5,
        [(1, 1, 0, 0, 0), (2, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (0, 2, 0, 0, 0)],
        2,
    ),
    "minor": (4, [(1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1), (0, 1, 1, 0)], 2),
    "cyclic3": (
        6,
        [
            (1, 1, 0, 0, 0, 0),
            (0, 0, 1, 1, 0, 0),
            (0, 0, 0, 0, 1, 1),
            (1, 0, 0, 1, 0, 0),
            (0, 1, 0, 0, 1, 0),
            (0, 0, 1, 0, 0, 1),
        ],
        3,
    ),
}


def reference_compare(order, a, b):
    """A term order's comparison written out kind by kind, without
    TermOrder.key: -1, 0 or +1."""
    if order.kind == "weight-matrix":
        for row in order.rows:
            s = sum(r * (x - y) for r, x, y in zip(row, a, b))
            if s:
                return 1 if s > 0 else -1
        return 0
    if order.kind in ("graded-lex", "graded-revlex") and sum(a) != sum(b):
        return 1 if sum(a) > sum(b) else -1
    if order.kind == "graded-revlex":
        # among equal degrees: larger iff the lowest-priority variable where
        # they differ has the smaller exponent
        for v in reversed(order.priority):
            if a[v] != b[v]:
                return -1 if a[v] > b[v] else 1
        return 0
    for v in order.priority:
        if a[v] != b[v]:
            return 1 if a[v] > b[v] else -1
    return 0


# The per-field elimination kernels the oracle ran before it eliminated
# once over Z, kept as the reference that `uncleared_betti` ranks with.


def _entries(column: Column, minus_one: int = -1) -> dict[int, int]:
    """A column's nonzero entries by row, with -1 written as minus_one."""
    plus, minus = column
    col = dict.fromkeys(bit_indices(plus), 1)
    col.update(dict.fromkeys(bit_indices(minus), minus_one))
    return col


def _pivots_rational(columns: list[Column]) -> dict[int, dict[int, int]]:
    """Fraction-free sparse elimination; rank over Q equals rank over Z."""
    pivots: dict[int, dict[int, int]] = {}
    for col in sorted(map(_entries, columns), key=len):
        while col:
            lead = min(col)
            piv = pivots.get(lead)
            if piv is None:
                g = 0
                for v in col.values():
                    g = gcd(g, v)
                pivots[lead] = {k: v // g for k, v in col.items()}
                break
            a, b = piv[lead], col[lead]
            merged: dict[int, int] = {}
            for k, v in col.items():
                merged[k] = a * v
            for k, v in piv.items():
                merged[k] = merged.get(k, 0) - b * v
            col = {k: v for k, v in merged.items() if v}
            if col:
                g = 0
                for v in col.values():
                    g = gcd(g, v)
                col = {k: v // g for k, v in col.items()}
    return pivots


def _pivots_mod_2(columns: list[Column]) -> dict[int, int]:
    """Bitset elimination: each column is one integer, rows are bit indexes."""
    pivots: dict[int, int] = {}
    for v in sorted((plus | minus for plus, minus in columns), key=int.bit_count):
        while v:
            lead = v.bit_length() - 1
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = v
                break
            v ^= piv
    return pivots


def _pivots_mod_3(columns: list[Column]) -> dict[int, Column]:
    """Bitsliced GF(3) elimination: a column is a (ones, twos) bit pair,
    which is (plus, minus) since -1 == 2."""

    def add(a, b):
        a1, a2 = a
        b1, b2 = b
        s1 = (a1 & ~b1 & ~b2) | (~a1 & ~a2 & b1) | (a2 & b2)
        s2 = (a2 & ~b1 & ~b2) | (~a1 & ~a2 & b2) | (a1 & b1)
        mask = a1 | a2 | b1 | b2
        return (s1 & mask, s2 & mask)

    pivots: dict[int, Column] = {}
    for v in columns:
        while v[0] | v[1]:
            lead = (v[0] | v[1]).bit_length() - 1
            piv = pivots.get(lead)
            if piv is None:
                if v[1] >> lead & 1:
                    v = (v[1], v[0])  # normalize lead coefficient to 1
                pivots[lead] = v
                break
            # subtract coeff * pivot: -1 == +2 swaps the trit planes
            if v[0] >> lead & 1:
                v = add(v, (piv[1], piv[0]))
            else:
                v = add(v, piv)
    return pivots


def _pivots_mod_p(columns: list[Column], p: int) -> dict[int, dict[int, int]]:
    pivots: dict[int, dict[int, int]] = {}
    for col in sorted((_entries(c, p - 1) for c in columns), key=len):
        while col:
            lead = min(col)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(col[lead], -1, p)
                pivots[lead] = {k: v * inv % p for k, v in col.items()}
                break
            b = col[lead]
            col = {
                k: v
                for k in set(col) | set(piv)
                if (v := (col.get(k, 0) - b * piv.get(k, 0)) % p)
            }
    return pivots


def reference_rank(columns: list[Column], characteristic: int) -> int:
    """Rank of (plus, minus) columns over Q (characteristic 0) or F_p."""
    if characteristic == 0:
        return len(_pivots_rational(columns))
    if characteristic == 2:
        return len(_pivots_mod_2(columns))
    if characteristic == 3:
        return len(_pivots_mod_3(columns))
    return len(_pivots_mod_p(columns, characteristic))


def uncleared_betti(cx, characteristic):
    """Reduced Betti numbers from the full rank of every boundary map.

    The reference route: no clearing and no elimination over Z, each field
    ranked by its own kernel.
    """
    if cx.dim < 0:
        return (1,)
    ranks = [reference_rank(boundary_matrix(cx, d), characteristic) for d in range(cx.dim + 1)]
    ranks.append(0)
    return (1 - ranks[0],) + tuple(
        cx.face_count(d) - ranks[d] - ranks[d + 1] for d in range(cx.dim + 1)
    )


@pytest.fixture(scope="session")
def reference_betti():
    return uncleared_betti


# The per-facet overlap computation that maximal_overlaps and
# direct_interval_spans replaced: each facet's overlaps found by element
# lookups, one earlier facet at a time.


def reference_maximal_overlaps(facets, j):
    """Ranks of facets[j] skipped by its maximal overlaps with facets[:j],
    as a bitmask with bit q for rank q, mapped to the least i producing it."""
    facet = facets[j]
    rank_of = {e: q for q, e in enumerate(facet.interior, start=1)}
    full = (1 << len(facet.interior) + 1) - 2
    by_shared = {}
    for i in range(j):
        shared = 0
        for e in facets[i].interior:
            q = rank_of.get(e)
            if q is not None:
                shared |= 1 << q
        by_shared.setdefault(shared, i)
    kept = []
    out = {}
    for shared in sorted(by_shared, key=int.bit_count, reverse=True):
        if not any(shared & other == shared for other in kept):
            kept.append(shared)
            out[full ^ shared] = by_shared[shared]
    return out


def reference_direct_spans(facets, j):
    """The spans of facets[j]'s direct system, sorted, raising what
    direct_interval_system raised on a duplicate facet, a crossing
    violation or nested intervals."""
    facet = facets[j]
    out = []
    for skipped in reference_maximal_overlaps(facets, j):
        if not skipped:
            raise InternalInvariantError(
                f"facet {facet.labels}: duplicate facet in overlap computation"
            )
        ranks = skipped_ranks(skipped)
        if not is_run(skipped):
            raise CrossingViolation(f"facet {facet.labels} skips disconnected ranks {list(ranks)}")
        out.append((ranks[0], ranks[-1]))
    out.sort()
    for a in out:
        for b in out:
            if a != b and a[0] >= b[0] and a[1] <= b[1]:
                raise InternalInvariantError(
                    f"facet {facet.labels}: nested skipped intervals {a} in {b}"
                )
    return tuple(out)


# The per-facet face table of the face-matching build, before the build
# kept one table across facets and rebuilt only past the shared prefix.


def reference_face_table(ivl, facet):
    """The facet's faces by rank subset: entry sub is the element mask of
    the interior elements at the ranks in sub (bit r - 1 for rank r)."""
    index = ivl.index
    table = [0]
    for e in facet.interior:
        bit = 1 << index(e)
        table += [face | bit for face in table]
    return table


# The facet-list pass of the face-matching build, before one walk per
# interval yielded the facets with their systems and shared prefixes
# (morse.walk_systems).


def common_prefix(a, b) -> int:
    """The length of the longest common prefix of two sequences."""
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def facet_systems(gb, cfg, facets):
    """msi_characterization of every facet, in one pass over facets in order.

    A facet keeps the steps of the prefix it shares with the previous facet
    and takes only the steps past it (step b reads labels[:b + 1]).  Facets
    that find the same intervals share one system, sorted and nested-checked
    once, so a nested system names its first facet.
    """
    rank, windows = cfg.order.label_rank, morse.syzygy_windows(gb, cfg)
    steps = []
    previous = ()
    systems = {}
    out = []
    for facet in facets:
        labels = facet.labels
        del steps[max(common_prefix(labels, previous) - 1, 0) :]
        for b in range(len(steps) + 1, len(labels)):
            state = steps[-1] if steps else ((), 0)
            steps.append(morse._skipped_steps(rank, windows, labels[: b + 1], *state, b))
        found = steps[-1][0] if steps else ()
        system = systems.get(found)
        if system is None:
            system = systems[found] = morse._checked_system(found, labels)
        out.append(system)
        previous = labels
    return out


def flood_fill_class(gb, word):
    """Every word reached from `word` by swapping adjacent commuting letters."""
    words = {word}
    stack = [word]
    while stack:
        w = stack.pop()
        for k in range(len(w) - 1):
            a, b = w[k], w[k + 1]
            if a != b and gb.commutes[a][b]:
                s = w[:k] + (b, a) + w[k + 2 :]
                if s not in words:
                    words.add(s)
                    stack.append(s)
    return words


def distinct_permutations(items):
    """Distinct arrangements of items, in lexicographic order."""
    values = sorted(set(items))
    n = len(items)
    stack = [((), tuple(list(items).count(v) for v in values))]
    while stack:
        word, left = stack.pop()
        if len(word) == n:
            yield word
            continue
        for i in reversed(range(len(values))):
            if left[i]:
                stack.append((word + (values[i],), left[:i] + (left[i] - 1,) + left[i + 1 :]))


def reference_commutation_classes(gb, cfg, content):
    """The exhaustive route `commutation_classes` replaced: flood-fill the
    class of every arrangement of the content in label-lex order, and keep
    the classes in which no member repeats a self-commuting letter
    adjacently."""
    rank = cfg.order.label_rank

    def key(w):
        return [rank[i] for i in w]

    content = tuple(sorted(content, key=lambda i: rank[i]))
    out = []
    seen = set()
    for word in sorted(distinct_permutations(content), key=key):
        if word in seen:
            continue
        cls = flood_fill_class(gb, word)
        seen |= cls
        stutter = any(
            w[k] == w[k + 1] and gb.commutes[w[k]][w[k]] for w in cls for k in range(len(w) - 1)
        )
        if not stutter:
            out.append(CommutationClass(content, min(cls, key=key), len(cls)))
    return out


def random_presentation(
    rng: random.Random,
    max_generators: int = 6,
    max_dimension: int = 5,
    max_coord: int = 3,
    face_budget: int = 150_000,
    window_degree: int = 6,
) -> SemigroupPresentation:
    """Sample a pointed presentation whose degree window stays desk-sized.

    Resamples until the generators are distinct atoms and a crude count of
    chains over the degree window fits the face budget, so downstream
    property suites stay inside their runtime budgets.
    """
    while True:
        e = rng.randint(1, max_dimension)
        n = rng.randint(1, max_generators)
        gens: list[Vector] = []
        pres = None
        for _ in range(n * 8):
            g = tuple(rng.randint(0, max_coord) for _ in range(e))
            if not any(g) or g in gens:
                continue
            try:
                candidate = SemigroupPresentation(e, gens + [g])
            except ValidationError:
                continue  # keeps every generator an atom
            gens.append(g)
            pres = candidate
            if len(gens) == n:
                break
        if pres is None:
            continue
        work = 0
        feasible = True
        for lam in pres.degree_window(window_degree):
            facs = pres.factorizations(lam)
            for f in facs:
                count = 1
                for k in range(1, len(f) + 1):
                    count *= k
                work += count
                if work > face_budget:
                    feasible = False
                    break
            if not feasible:
                break
        if feasible:
            return pres


FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_NAMES = ["cyclic_split3", "minor", "pair_swap", "ring5_seed22", "skew2d", "squares"]


def fixture_and_seeded_rings(window, seeded=6):
    """(name, presentation, facet order config, basis at window) for the six
    input fixtures, then for the first `seeded` rings drawn by
    random_presentation of dimension at least 2 with a nonempty basis."""
    for name in FIXTURE_NAMES:
        doc = parse_input((FIXTURES / f"{name}.json").read_text())
        yield name, doc.presentation, FacetOrderConfig(doc.order), groebner_for(
            doc.presentation, doc.order, window
        )
    rng = random.Random(20261020)
    drawn = 0
    while drawn < seeded:
        pres = random_presentation(rng, max_dimension=3, window_degree=window, face_budget=20_000)
        order = TermOrder(pres.n)
        gb = groebner_for(pres, order, window)
        if pres.dimension > 1 and gb.elements:
            yield f"seeded{drawn}", pres, FacetOrderConfig(order), gb
            drawn += 1


class Ring:
    def __init__(self, name):
        dim, gens, window = RINGS[name]
        self.name = name
        self.pres = SemigroupPresentation(dim, gens)
        self.order = TermOrder(self.pres.n)
        self.cfg = FacetOrderConfig(self.order)
        self.gb = groebner_for(self.pres, self.order, window)
        self.zero = tuple([0] * dim)
        self._matchings = {}

    def interval(self, lam):
        return self.pres.interval(self.zero, lam)

    def matching(self, lam):
        if lam not in self._matchings:
            self._matchings[lam] = build_face_matching(self.interval(lam), self.cfg, self.gb)
        return self._matchings[lam]


@pytest.fixture(scope="session")
def squares():
    return Ring("squares")


@pytest.fixture(scope="session")
def pair_swap():
    return Ring("pair_swap")


@pytest.fixture(scope="session")
def minor():
    return Ring("minor")


@pytest.fixture(scope="session")
def cyclic3():
    return Ring("cyclic3")


@pytest.fixture(scope="session")
def free_plane():
    pres = SemigroupPresentation(2, [(1, 0), (0, 1)])
    order = TermOrder(2)
    ring = Ring.__new__(Ring)
    ring.name = "free_plane"
    ring.pres = pres
    ring.order = order
    ring.cfg = FacetOrderConfig(order)
    ring.gb = GroebnerBasis(order, ())
    ring.zero = (0, 0)
    ring._matchings = {}
    return ring
