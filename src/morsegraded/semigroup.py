"""Affine semigroups in N^e: membership, divisibility order, finite intervals.

A presentation is a list of n distinct nonzero generator vectors.  The
divisibility order is mu <= lam iff lam - mu is an N-combination of the
generators; pointedness inside N^e keeps every interval finite.  Each
presentation grows one down-closed poset of this order on demand, and every
interval is a slice of it.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotComparable, ValidationError

Vector = tuple[int, ...]


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def vec_dominates(a: Vector, b: Vector) -> bool:
    """Componentwise b <= a."""
    return all(x >= y for x, y in zip(a, b))


def bit_indices(bits: int) -> list[int]:
    """Positions of the set bits, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


@dataclass(frozen=True)
class IntervalData:
    """A finite closed interval [bottom, top] of the semigroup order.

    elements are sorted by (coordinate sum, tuple) which is a linear
    extension of the order.  cover_edges[i] lists (generator index, j)
    pairs with elements[j] = elements[i] + generator.
    """

    bottom: Vector
    top: Vector
    elements: tuple[Vector, ...]
    cover_edges: tuple[tuple[tuple[int, int], ...], ...]

    def index(self, v: Vector) -> int:
        return self._index[v]

    def __post_init__(self):
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(self.elements)})

    def __len__(self) -> int:
        return len(self.elements)


class SemigroupPresentation:
    """n marked generators of a pointed affine semigroup in N^e.

    Validation rejects zero or repeated generators and generators that are
    not atoms of the semigroup they generate.  Atomicity is what makes
    saturated chains of an interval correspond to orderings of the
    factorizations of its top; without it single cover steps could be
    refined and the facet/fiber correspondence breaks down.
    """

    def __init__(self, dimension: int, generators: list[Vector] | tuple[Vector, ...]):
        if dimension < 1:
            raise ValidationError("dimension must be >= 1")
        gens = tuple(tuple(int(c) for c in g) for g in generators)
        if not gens:
            raise ValidationError("at least one generator required")
        for g in gens:
            if len(g) != dimension:
                raise ValidationError(f"generator {g} has wrong dimension")
            if any(c < 0 for c in g):
                raise ValidationError(f"generator {g} has a negative coordinate")
            if all(c == 0 for c in g):
                raise ValidationError("zero generator makes the order non-pointed")
        if len(set(gens)) != len(gens):
            raise ValidationError("generators must be pairwise distinct")
        self.dimension = dimension
        self.generators = gens
        self.n = len(gens)
        zero = tuple([0] * dimension)
        self._member: dict[Vector, bool] = {zero: True}
        # The divisibility poset grown so far, down-closed: element -> index,
        # and per index the element, its (sum, e) sort key, the bitmask of
        # its down-set and its upper covers (generator index, index) in
        # generator order.
        self._poset: dict[Vector, int] = {zero: 0}
        self._elements: list[Vector] = [zero]
        self._keys: list[tuple[int, Vector]] = [(0, zero)]
        self._down: list[int] = [1]
        self._up: list[list[tuple[int, int]]] = [[]]
        for i, gi in enumerate(gens):
            for j, gj in enumerate(gens):
                if i != j and vec_dominates(gi, gj) and self.member(vec_sub(gi, gj)):
                    raise ValidationError(
                        f"generator {gi} is not an atom (divisible by {gj})"
                    )

    # -- membership / order ------------------------------------------------

    def member(self, v: Vector) -> bool:
        """Is v an N-combination of the generators?

        Depth-first over generator indices in fixed order with componentwise
        dominance pruning; memoized on the difference vector.
        """
        cached = self._member.get(v)
        if cached is not None:
            return cached
        if any(c < 0 for c in v):
            self._member[v] = False
            return False
        stack = [(v, iter(range(self.n)))]
        seen_on_stack = {v}
        while stack:
            target, gen_iter = stack[-1]
            advanced = False
            for i in gen_iter:
                g = self.generators[i]
                if not vec_dominates(target, g):
                    continue
                rest = vec_sub(target, g)
                known = self._member.get(rest)
                if known is True:
                    # unwind: everything on the stack is a member
                    for t, _ in stack:
                        self._member[t] = True
                    return self._member[v]
                if known is False or rest in seen_on_stack:
                    continue
                stack.append((rest, iter(range(self.n))))
                seen_on_stack.add(rest)
                advanced = True
                break
            if not advanced:
                self._member[target] = False
                seen_on_stack.discard(target)
                stack.pop()
        return self._member.setdefault(v, False)

    def leq(self, mu: Vector, lam: Vector) -> bool:
        return self.member(vec_sub(lam, mu))

    # -- fibers and degree ---------------------------------------------------

    def factorizations(self, lam: Vector) -> tuple[tuple[int, ...], ...]:
        """All multisets of generator indices summing to lam, as sorted tuples.

        Empty for lam outside the semigroup.  Depth-first with an explicit
        stack, so deep multidegrees do not meet the recursion limit.
        """
        out: list[tuple[int, ...]] = []
        stack: list[tuple[Vector, tuple[int, ...]]] = [(lam, ())]
        while stack:
            target, acc = stack.pop()
            if not any(target):
                out.append(acc)
                continue
            for i in range(acc[-1] if acc else 0, self.n):
                g = self.generators[i]
                if vec_dominates(target, g) and self.member(vec_sub(target, g)):
                    stack.append((vec_sub(target, g), acc + (i,)))
        return tuple(sorted(out))

    def degree(self, lam: Vector) -> int:
        """Length of a shortest saturated chain from 0 to lam.

        By convention 0 for lam = 0.  Equals the standard degree when the
        generators lie on an affine hyperplane.
        """
        if all(c == 0 for c in lam):
            return 0
        facs = self.factorizations(lam)
        if not facs:
            raise ValidationError(f"{lam} is not in the semigroup")
        return min(len(f) for f in facs)

    # -- intervals -----------------------------------------------------------

    def interval(self, mu: Vector, lam: Vector) -> IntervalData:
        """All gamma with mu <= gamma <= lam plus single-generator edges.

        The slice [0, lam - mu] of the down-closed poset, translated by mu:
        elements in (sum, e) order, cover edges in generator order.
        """
        diff = vec_sub(lam, mu)
        top = self._poset.get(diff)
        if top is None:
            if not self.leq(mu, lam):
                raise NotComparable(f"{mu} !<= {lam}")
            top = self._grow(diff)
        order = bit_indices(self._down[top])
        order.sort(key=self._keys.__getitem__)
        local = {p: j for j, p in enumerate(order)}
        up = self._up
        edges = tuple(
            tuple((gi, local[w]) for gi, w in up[p] if w in local) for p in order
        )
        elements = tuple(map(self._elements.__getitem__, order))
        if any(mu):  # translating by 0 is the identity
            elements = tuple(vec_add(mu, e) for e in elements)
        return IntervalData(mu, lam, elements, edges)

    def _grow(self, lam: Vector) -> int:
        """Add the down-set of the member lam to the poset; return lam's index.

        Walks down from lam by generator steps, stopping at held elements,
        whose down-sets are held already.  New elements go in by (sum, e),
        so every lower cover w - g of a new w is present when w is added.
        """
        poset = self._poset
        new = {lam}
        stack = [lam]
        while stack:
            v = stack.pop()
            for g in self.generators:
                if vec_dominates(v, g):
                    u = vec_sub(v, g)
                    if u not in poset and u not in new and self.member(u):
                        new.add(u)
                        stack.append(u)
        for key in sorted((sum(e), e) for e in new):
            w = key[1]
            i = len(self._elements)
            down = 1 << i
            for gi, g in enumerate(self.generators):
                j = poset.get(vec_sub(w, g))
                if j is not None:
                    down |= self._down[j]
                    insort(self._up[j], (gi, i))
            poset[w] = i
            self._elements.append(w)
            self._keys.append(key)
            self._down.append(down)
            self._up.append([])
        return poset[lam]

    def degree_window(self, max_degree: int) -> dict[Vector, int]:
        """All nonzero lam with degree(lam) <= max_degree, with their degrees.

        BFS over generator sums; the level at which a multidegree first
        appears is its degree (shortest factorization).
        """
        zero = tuple([0] * self.dimension)
        out: dict[Vector, int] = {}
        level = {zero}
        for d in range(1, max_degree + 1):
            nxt = set()
            for v in level:
                for g in self.generators:
                    w = vec_add(v, g)
                    if w not in out:
                        nxt.add(w)
            for w in nxt:
                out.setdefault(w, d)
            level = nxt
        return out


def standard_grading_functional(pres: SemigroupPresentation) -> tuple[Fraction, ...] | None:
    """Rational w with w . generator = 1 for all generators, if one exists."""
    rows = [[Fraction(c) for c in g] + [Fraction(1)] for g in pres.generators]
    cols = pres.dimension
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][cols] != 0:
            return None
    w = [Fraction(0)] * cols
    for k, c in enumerate(pivots):
        w[c] = rows[k][cols]
    if any(sum(wc * gc for wc, gc in zip(w, g)) != 1 for g in pres.generators):
        return None
    return tuple(w)


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
