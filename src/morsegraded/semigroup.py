"""Affine semigroups in N^e: membership, divisibility order, finite intervals.

A presentation is a list of n distinct nonzero generator vectors.  The
divisibility order is mu <= lam iff lam - mu is an N-combination of the
generators; pointedness inside N^e keeps every interval finite.  Each
presentation grows one down-closed poset of this order on demand, holding
each element's down-set and strict up-set as bitmasks over the poset's
indices and its height, and every interval is a slice of it.  The index
order is a linear extension of the order, and the poset marks the
down-beat points that the oracle deletes first (see `grow`).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotComparable, ValidationError
from .orders import row_reduce

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
        # and per index the element, its (sum, e) sort key, the bitmasks of
        # its down-set (itself included) and strict up-set, its height (the
        # longest chain from 0) and its upper covers (generator, index).
        self._poset: dict[Vector, int] = {zero: 0}
        self.elements: list[Vector] = [zero]
        self._keys: list[tuple[int, Vector]] = [(0, zero)]
        self.down: list[int] = [1]
        self.above: list[int] = [0]
        self.height: list[int] = [0]
        self._up: list[list[tuple[int, int]]] = [[]]
        # The down-beat points that every open interval (0, lam) may delete
        # first, as a bitmask over the indices (see `grow`).
        self.beats = 0
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
        if diff not in self._poset and not self.member(diff):
            raise NotComparable(f"{mu} !<= {lam}")
        order = bit_indices(self.down[self.index(diff)])
        order.sort(key=self._keys.__getitem__)
        local = {p: j for j, p in enumerate(order)}
        up = self._up
        edges = tuple(
            tuple((gi, local[w]) for gi, w in up[p] if w in local) for p in order
        )
        elements = tuple(map(self.elements.__getitem__, order))
        if any(mu):  # translating by 0 is the identity
            elements = tuple(vec_add(mu, e) for e in elements)
        return IntervalData(mu, lam, elements, edges)

    def index(self, lam: Vector) -> int:
        """lam's index in the poset, growing lam's down-set first if need be."""
        if lam not in self._poset:
            if not self.member(lam):
                raise NotComparable(f"{lam} is not in the semigroup")
            self.grow((lam,))
        return self._poset[lam]

    def grow(self, tops) -> None:
        """Add the down-sets of tops, all members, to the poset in one pass.

        Walks down from the tops by generator steps, stopping at held
        elements, and records each new element's lower covers as
        (generator index, element) pairs, which the insertion reads.  New
        elements go in by (sum, e), so every lower cover of a new w is
        present when w is added: the index order is a linear extension, as
        u < w is a chain of cover steps to ever later indices.  Adding w at
        index i sets bit i in the up-set of every element below it; w's
        height is one more than its highest lower cover's.

        `beats` marks down-beat points once for every open interval: w
        joins it when its strict down-set, minus 0 and minus the earlier
        members of `beats`, has a maximum, one more test per new element.
        For any lam above w, w's strict down-set in (0, lam) is its strict
        down-set in the poset minus 0, which does not depend on lam, and
        every element of it has an earlier index.  So deleting the members
        of `beats` below lam from (0, lam) in index order deletes, each
        time, an element whose surviving elements below have a maximum: a
        beat point of what is left, and a collapse of its order complex
        (see `homology.order_complex`).  By induction on the down-sets,
        whether w is in `beats` does not depend on the order the poset
        grew in.
        """
        poset = self._poset
        new: dict[Vector, list[tuple[int, Vector]]] = {v: [] for v in tops if v not in poset}
        stack = list(new)
        while stack:
            v = stack.pop()
            covers = new[v]
            for gi, g in enumerate(self.generators):
                if vec_dominates(v, g):
                    u = vec_sub(v, g)
                    if u not in poset and u not in new:
                        if not self.member(u):
                            continue
                        new[u] = []
                        stack.append(u)
                    covers.append((gi, u))
        down_sets, above, height, up = self.down, self.above, self.height, self._up
        beats = self.beats
        for key in sorted((sum(e), e) for e in new):
            w = key[1]
            i = len(self.elements)
            down, steps = 1 << i, 0
            for gi, u in new[w]:
                j = poset[u]
                down |= down_sets[j]
                steps = max(steps, height[j] + 1)
                insort(up[j], (gi, i))
            for j in bit_indices(down ^ 1 << i):
                above[j] |= 1 << i
            low = down & ~(beats | 1 | 1 << i)
            if low and not low & ~down_sets[low.bit_length() - 1]:
                beats |= 1 << i
            poset[w] = i
            self.elements.append(w)
            self._keys.append(key)
            down_sets.append(down)
            above.append(0)
            height.append(steps)
            up.append([])
        self.beats = beats

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
    cols = pres.dimension
    rows, pivots = row_reduce([list(g) + [1] for g in pres.generators])
    if cols in pivots:
        return None  # some combination of the rows reads 0 = 1
    w = [Fraction(0)] * cols
    for k, c in enumerate(pivots):
        w[c] = rows[k][cols]
    if any(sum(wc * gc for wc, gc in zip(w, g)) != 1 for g in pres.generators):
        return None
    return tuple(w)
