"""Shared rings and cached pipelines for the test suite.

Ring nicknames used throughout:
  squares      k[x1x2, x1^2, x3, x4, x2^2]      (one quadratic relation z1z4 = z0^2)
  pair_swap    6 generators with z1z5 = z0^2    (labels 0..5)
  minor        4 generators with z2z3 = z0z1
  cyclic3      6 generators with z3z4z5 = z0z1z2 (cubic relation)
"""

import pytest

from morsegraded.automaton import CommutationClass
from morsegraded.chains import FacetOrderConfig
from morsegraded.groebner import buchberger, toric_ideal_basis
from morsegraded.homology import boundary_matrix, matrix_rank
from morsegraded.morse import build_face_matching
from morsegraded.orders import TermOrder
from morsegraded.semigroup import SemigroupPresentation

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


def uncleared_betti(cx, characteristic):
    """Reduced Betti numbers from the full rank of every boundary map.

    The reference route: no clearing and no prime-field certificate, so
    over Q it is the fraction-free elimination of every column.
    """
    if cx.dim < 0:
        return (1,)
    ranks = [matrix_rank(boundary_matrix(cx, d), characteristic) for d in range(cx.dim + 1)]
    ranks.append(0)
    return (1 - ranks[0],) + tuple(
        cx.face_count(d) - ranks[d] - ranks[d + 1] for d in range(cx.dim + 1)
    )


@pytest.fixture(scope="session")
def reference_betti():
    return uncleared_betti


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


class Ring:
    def __init__(self, name):
        dim, gens, cap = RINGS[name]
        self.name = name
        self.pres = SemigroupPresentation(dim, gens)
        self.order = TermOrder(self.pres.n)
        self.cfg = FacetOrderConfig(self.order)
        self.gb = buchberger(toric_ideal_basis(self.pres, cap), self.order)
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
    ring.gb = buchberger([], order)
    ring.zero = (0, 0)
    ring._matchings = {}
    return ring
