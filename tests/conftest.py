"""Shared rings and cached pipelines for the test suite.

Ring nicknames used throughout:
  squares      k[x1x2, x1^2, x3, x4, x2^2]      (one quadratic relation z1z4 = z0^2)
  pair_swap    6 generators with z1z5 = z0^2    (labels 0..5)
  minor        4 generators with z2z3 = z0z1
  cyclic3      6 generators with z3z4z5 = z0z1z2 (cubic relation)
"""

import pytest

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
