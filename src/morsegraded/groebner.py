"""Binomial arithmetic for toric ideals: the window's Groebner basis, lead queries.

Binomials are pairs of exponent vectors with equal image under the generator
map.  `groebner_for` reads the reduced Groebner basis of the toric ideal off
the term-order minima of its fibers, over the region of multidegrees that a
degree window reads; `verify_groebner` holds a supplied basis to it.
Buchberger's algorithm on fiber-collision relations stays at the end of the
module as the reference the tests compare against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import add

from .errors import InvalidBasis, MorsegradedError
from .orders import (
    Monomial,
    TermOrder,
    monomial_div,
    monomial_divides,
    monomial_gcd,
    monomial_lcm,
    monomial_mul,
    total_degree,
)
from .semigroup import SemigroupPresentation, standard_grading_functional, vec_add


@dataclass(frozen=True)
class Binomial:
    """plus - minus with plus strictly larger in the owning term order."""

    plus: Monomial
    minus: Monomial


@dataclass(frozen=True)
class GroebnerBasis:
    order: TermOrder
    elements: tuple[Binomial, ...]

    @property
    def degree(self) -> int:
        return max((total_degree(b.plus) for b in self.elements), default=0)

    @property
    def quadratic(self) -> bool:
        """Is every lead of degree at most 2?  Every quadratic branch reads
        this: the label rules strand no cell, the automaton is the
        quadratic one, and the Morse resolution is minimal."""
        return self.degree <= 2

    @cached_property
    def commutes(self) -> tuple[tuple[bool, ...], ...]:
        """commutes[a][b]: the product of labels a and b avoids the leading ideal."""
        n = self.order.n
        table = [[True] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                m = [0] * n
                m[a] += 1
                m[b] += 1
                if leading_ideal_member(self, tuple(m)):
                    table[a][b] = table[b][a] = False
        return tuple(map(tuple, table))

    @cached_property
    def window_tables(self) -> dict:
        """Term order -> morse.SyzygyWindows of this basis, made on first use."""
        return {}

    @cached_property
    def shape_table(self) -> dict:
        """(interior length, skipped-interval spans) -> the matching of
        that facet shape on rank subsets (morse._match_shape), filled by
        every face matching built with this basis."""
        return {}

    @cached_property
    def class_tables(self) -> dict:
        """Term order -> the commutation-class search tree of this basis
        under that label order (automaton._ClassTable), grown one word
        length at a time by commutation_classes."""
        return {}


def phi(pres: SemigroupPresentation, m: Monomial):
    """Multidegree of a monomial under the generator map."""
    out = tuple([0] * pres.dimension)
    for i, e in enumerate(m):
        for _ in range(e):
            out = vec_add(out, pres.generators[i])
    return out


def order_key(order: TermOrder):
    """Sort key of binomials: the lead's term-order key, then the trail's."""
    return lambda b: (order.key(b.plus), order.key(b.minus))


def groebner_for(pres: SemigroupPresentation, order: TermOrder, d: int) -> GroebnerBasis:
    """The reduced Groebner basis elements of the toric ideal I whose leads
    lie in the region a degree window d reads, in one pass over its fibers.

    Write phi for the generator map N^n -> Lambda and std(lam) for the
    term-order minimum of the fiber phi^-1(lam).

    One standard monomial per fiber.  I is spanned by the binomials
    x^u - x^v with phi(u) = phi(v), so it is homogeneous for the Lambda
    grading, and a homogeneous element of degree lam has coefficients
    summing to zero (its image in k[Lambda] is their sum times t^lam).  So
    it has two terms or more and its lead is not std(lam), while every
    other monomial m of the fiber is the lead of m - std(lam) in I.  As
    in(I) is spanned by leads of homogeneous elements, std(lam) is the one
    standard monomial of its fiber, and the reduced basis element with a
    minimal lead m is m - std(phi(m)), the normal form of m being the
    standard monomial of m's fiber.

    The order-ideal recursion.  A divisor of a standard monomial is
    standard, since in(I) is an ideal.  So for lam != 0 and i the last
    variable of std(lam), std(lam) / x_i is standard and lies in the fiber
    of lam - g_i: it is std(lam - g_i).  Hence std(lam) is the least of the
    candidates x_i * std(lam - g_i), and it suffices to push x_i * std(mu)
    into the fiber of mu + g_i for the variables i at or after the last
    variable of std(mu).  Each monomial is then pushed at most once, from
    its last variable.

    Minimality.  The minimal leads of I are the nonstandard monomials m
    whose one-variable divisors m / x_j are all standard.  Such an m is
    pushed into its fiber, since m / x_i is standard for its last variable
    i, and the pass emits m - std(phi(m)) for exactly those pushed
    candidates.

    The region.  Let w be the standard-grading functional, or else the
    coordinate sum, scaled so that each generator has a positive integer
    weight w(g_i) (1 under a standard grading).  The pass reads the fibers
    with w(lam) <= max(2, d) * max_i w(g_i) in increasing w, so each fiber
    has all its candidates, which come from lighter fibers, when it is
    read.  The region is down-closed, holds the fiber of every monomial
    with at most max(2, d) letters, so every lead the window's queries
    test, and every quadric that `GroebnerBasis.commutes` reads.  Leads
    outside it are not computed, and no element is returned that the
    region does not certify.
    """
    n = pres.n
    graded = standard_grading_functional(pres) is not None
    weight = [1] * n if graded else [sum(g) for g in pres.generators]
    bound = max(2, d) * max(weight)
    key = order.key

    def candidate_key(candidate):
        return key(candidate[0])

    # layers[t]: fiber of weight t -> its candidates, each a monomial and
    # its last variable
    layers: list[dict] = [{} for _ in range(bound + 1)]
    layers[0][tuple([0] * pres.dimension)] = [(tuple([0] * n), 0)]
    standard = set()
    elements = []
    for t, layer in enumerate(layers):
        for lam, candidates in layer.items():
            low, last = min(candidates, key=candidate_key) if len(candidates) > 1 else candidates[0]
            standard.add(low)
            for m, i in candidates:
                # i is m's last variable, and m / x_i the standard monomial
                # m was pushed from
                if m != low and all(
                    m[:j] + (m[j] - 1,) + m[j + 1 :] in standard for j in range(i) if m[j]
                ):
                    elements.append(Binomial(m, low))
            for i in range(last, n):
                u = t + weight[i]
                if u <= bound:
                    fiber = tuple(map(add, lam, pres.generators[i]))
                    pushed = low[:i] + (low[i] + 1,) + low[i + 1 :]
                    layers[u].setdefault(fiber, []).append((pushed, i))
    elements.sort(key=order_key(order))
    return GroebnerBasis(order, tuple(elements))


def verify_groebner(gb: GroebnerBasis, pres: SemigroupPresentation, d: int) -> None:
    """Check that gb is a Groebner basis of the toric ideal for the window d.

    Each element must be oriented (plus exceeds minus) and multihomogeneous
    (both sides in one fiber), so each lead is a nonstandard monomial and
    lies in the leading ideal.  Every minimal lead of `groebner_for`'s
    region must be divisible by a lead of gb, so the two leading ideals
    agree on the region.  Raises InvalidBasis on the first failure.
    """
    for b in gb.elements:
        if gb.order.compare(b.plus, b.minus) <= 0:
            raise InvalidBasis(f"{b} is not normalized: plus must exceed minus")
        if phi(pres, b.plus) != phi(pres, b.minus):
            raise InvalidBasis(f"{b} is not multihomogeneous for this presentation")
    for b in groebner_for(pres, gb.order, d).elements:
        if not leading_ideal_member(gb, b.plus):
            raise InvalidBasis(
                f"relation {b.plus} - {b.minus} does not reduce to zero: basis is stale"
            )


def dividing_leading_term(gb: GroebnerBasis, m: Monomial) -> Binomial | None:
    """First basis element (in list order) whose leading term divides m."""
    for b in gb.elements:
        if monomial_divides(b.plus, m):
            return b
    return None


def leading_ideal_member(gb: GroebnerBasis, m: Monomial) -> bool:
    return dividing_leading_term(gb, m) is not None


def default_cap(pres: SemigroupPresentation, window_degree: int) -> int:
    """The window degree itself, which `groebner_for` takes in place of a cap.

    Kept only because the benchmark's label workload calls it; it goes with
    the benchmark change of ROADMAP item 7.
    """
    return window_degree


# -- the reference: Buchberger on fiber-collision relations ----------------------


def orient(u: Monomial, v: Monomial, order: TermOrder) -> Binomial | None:
    c = order.compare(u, v)
    if c == 0:
        return None
    return Binomial(u, v) if c > 0 else Binomial(v, u)


def toric_ideal_basis(pres: SemigroupPresentation, cap: int) -> list[tuple[Monomial, Monomial]]:
    """All coprime binomial relations of total degree <= cap, by fiber collision.

    They generate the toric ideal in every fiber whose monomials all have at
    most cap letters.
    """
    if cap < 2:
        raise MorsegradedError("cap must be >= 2")
    by_image: dict[tuple, list[Monomial]] = {}
    # (monomial, its image, its last raised variable): raising only that
    # variable or a later one reaches each monomial once, and a child's
    # image is its parent's plus one generator, so phi never runs here
    level = [(tuple([0] * pres.n), tuple([0] * pres.dimension), 0)]
    for _ in range(cap):
        nxt = []
        for m, image, start in level:
            for i in range(start, pres.n):
                w = m[:i] + (m[i] + 1,) + m[i + 1 :]
                w_image = vec_add(image, pres.generators[i])
                by_image.setdefault(w_image, []).append(w)
                nxt.append((w, w_image, i))
        level = nxt
    found = set()
    for group in by_image.values():
        if len(group) < 2:
            continue
        for u, v in combinations(group, 2):
            g = monomial_gcd(u, v)
            uu, vv = monomial_div(u, g), monomial_div(v, g)
            if uu != vv:
                found.add(frozenset((uu, vv)))
    out = []
    for pair in found:
        u, v = sorted(pair)
        out.append((u, v))
    out.sort()
    return out


def _reduce_monomial(m: Monomial, basis: list[Binomial]) -> Monomial:
    changed = True
    while changed:
        changed = False
        for b in basis:
            if monomial_divides(b.plus, m):
                m = monomial_mul(monomial_div(m, b.plus), b.minus)
                changed = True
                break
    return m


def normal_form(u: Monomial, v: Monomial, basis: list[Binomial]) -> tuple[Monomial, Monomial] | None:
    """Reduce the binomial u - v; None when it reduces to zero."""
    u = _reduce_monomial(u, basis)
    v = _reduce_monomial(v, basis)
    if u == v:
        return None
    return u, v


def buchberger(
    gens,
    order: TermOrder,
    degree_ceiling: int = 60,
) -> GroebnerBasis:
    """Reduced Groebner basis from binomial generators.

    gens may be Binomials or raw (u, v) pairs.  Raises on intermediate
    degree explosion past degree_ceiling.
    """
    basis: list[Binomial] = []
    for g in gens:
        u, v = (g.plus, g.minus) if isinstance(g, Binomial) else g
        b = orient(u, v, order)
        if b is not None and b not in basis:
            basis.append(b)
    basis.sort(key=lambda b: (total_degree(b.plus), b.plus, b.minus))

    def push(heap, i, j):
        lcm = monomial_lcm(basis[i].plus, basis[j].plus)
        heapq.heappush(heap, (total_degree(lcm), lcm, i, j))

    heap: list = []
    for i in range(len(basis)):
        for j in range(i):
            push(heap, i, j)
    while heap:
        _, lcm, i, j = heapq.heappop(heap)
        f, g = basis[i], basis[j]
        if monomial_gcd(f.plus, g.plus) == tuple([0] * order.n):
            continue  # coprime leads: S-pair reduces to zero
        u = monomial_mul(monomial_div(lcm, f.plus), f.minus)
        v = monomial_mul(monomial_div(lcm, g.plus), g.minus)
        nf = normal_form(u, v, basis)
        if nf is None:
            continue
        b = orient(*nf, order)
        if max(total_degree(b.plus), total_degree(b.minus)) > degree_ceiling:
            raise MorsegradedError(
                f"Buchberger intermediate degree exceeded ceiling {degree_ceiling}; "
                f"offending leading term {b.plus}"
            )
        basis.append(b)
        k = len(basis) - 1
        for t in range(k):
            push(heap, k, t)
    return _reduce_basis(basis, order)


def _reduce_basis(basis: list[Binomial], order: TermOrder) -> GroebnerBasis:
    # ascending leads: any divisor of a lead was already scanned
    basis = sorted(set(basis), key=order_key(order))
    kept: list[Binomial] = []
    for b in basis:
        if any(monomial_divides(c.plus, b.plus) for c in kept):
            continue
        kept.append(b)
    # tail reduction keeps every minus in normal form modulo the other leads
    changed = True
    while changed:
        changed = False
        for i, b in enumerate(kept):
            others = kept[:i] + kept[i + 1 :]
            m = _reduce_monomial(b.minus, others)
            if m != b.minus:
                kept[i] = Binomial(b.plus, m)
                changed = True
    kept.sort(key=order_key(order))
    return GroebnerBasis(order, tuple(kept))
