"""Binomial arithmetic for toric ideals: generators, Buchberger, lead queries.

Binomials are pairs of exponent vectors with equal image under the generator
map; coefficients never leave {+1, -1}, so S-polynomials and remainders stay
binomial throughout.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

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


def orient(u: Monomial, v: Monomial, order: TermOrder) -> Binomial | None:
    c = order.compare(u, v)
    if c == 0:
        return None
    return Binomial(u, v) if c > 0 else Binomial(v, u)


def phi(pres: SemigroupPresentation, m: Monomial):
    """Multidegree of a monomial under the generator map."""
    out = tuple([0] * pres.dimension)
    for i, e in enumerate(m):
        for _ in range(e):
            out = vec_add(out, pres.generators[i])
    return out


def toric_ideal_basis(pres: SemigroupPresentation, cap: int) -> list[tuple[Monomial, Monomial]]:
    """All coprime binomial relations of total degree <= cap, by fiber collision.

    Sufficient to generate the toric ideal up to the working degree window;
    completeness beyond the cap is the caller's concern.
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


# Most S-pair reductions one buchberger run may make.  The test suite needs
# at most 1,678, and the benchmark inputs at degree windows 4-7 at most
# 7,608 (skew2d at window 7).
S_PAIR_BUDGET = 50_000


def buchberger(
    gens,
    order: TermOrder,
    degree_ceiling: int = 60,
) -> GroebnerBasis:
    """Reduced Groebner basis from binomial generators.

    gens may be Binomials or raw (u, v) pairs.  Raises on intermediate
    degree explosion past degree_ceiling, and after S_PAIR_BUDGET S-pair
    reductions.
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
    reductions = 0
    while heap:
        _, lcm, i, j = heapq.heappop(heap)
        f, g = basis[i], basis[j]
        if monomial_gcd(f.plus, g.plus) == tuple([0] * order.n):
            continue  # coprime leads: S-pair reduces to zero
        reductions += 1
        if reductions > S_PAIR_BUDGET:
            raise MorsegradedError(
                f"Buchberger exceeded the budget of {S_PAIR_BUDGET} S-pair reductions "
                f"with {len(basis)} basis elements"
            )
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


def order_key(order: TermOrder):
    """Sort key of binomials: the lead's term-order key, then the trail's."""
    return lambda b: (order.key(b.plus), order.key(b.minus))


def dividing_leading_term(gb: GroebnerBasis, m: Monomial) -> Binomial | None:
    """First basis element (in list order) whose leading term divides m."""
    for b in gb.elements:
        if monomial_divides(b.plus, m):
            return b
    return None


def leading_ideal_member(gb: GroebnerBasis, m: Monomial) -> bool:
    return dividing_leading_term(gb, m) is not None


def verify_groebner(
    gb: GroebnerBasis,
    pres: SemigroupPresentation | None = None,
    completeness_cap: int | None = None,
) -> None:
    """S-pair criterion plus orientation and multigrading checks.

    With a presentation and cap, additionally require every fiber-collision
    relation up to the cap to reduce to zero (catches stale bases that are
    internally consistent but miss low-degree relations).  Raises
    InvalidBasis on the first failure.
    """
    basis = list(gb.elements)
    for b in basis:
        if gb.order.compare(b.plus, b.minus) <= 0:
            raise InvalidBasis(f"{b} is not normalized: plus must exceed minus")
        if pres is not None and phi(pres, b.plus) != phi(pres, b.minus):
            raise InvalidBasis(f"{b} is not multihomogeneous for this presentation")
    for f, g in combinations(basis, 2):
        lcm = monomial_lcm(f.plus, g.plus)
        u = monomial_mul(monomial_div(lcm, f.plus), f.minus)
        v = monomial_mul(monomial_div(lcm, g.plus), g.minus)
        if normal_form(u, v, basis) is not None:
            raise InvalidBasis(
                f"S-pair of {f} and {g} does not reduce to zero: not a Groebner basis"
            )
    if pres is not None and completeness_cap is not None:
        for u, v in toric_ideal_basis(pres, completeness_cap):
            if normal_form(u, v, basis) is not None:
                raise InvalidBasis(
                    f"relation {u} - {v} does not reduce to zero: basis is stale"
                )


def groebner_for(pres: SemigroupPresentation, order: TermOrder, cap: int, degree_ceiling: int = 60) -> GroebnerBasis:
    return buchberger(toric_ideal_basis(pres, cap), order, degree_ceiling)


def default_cap(pres: SemigroupPresentation, window_degree: int) -> int:
    """Degree cap sufficient for leading-term queries over the window d.

    The cap is max(2, ceil(d * max w(g) / min w(g))) over the generators g,
    for a linear functional w positive on them.

    Without a standard grading, w is the coordinate sum.  A relation whose
    leading side has at most d letters then has a trailing side of at most
    d * max w(g) / min w(g) letters, since both sides share a multidegree
    and so a w-value.  Fiber collisions up to that cap therefore reach
    every basis element whose lead the window can see.

    With a standard grading (a rational w with w(g) = 1 for every
    generator, standard_grading_functional), the ratio is 1 and the cap is
    max(2, d).  Both sides of a relation u - v then have one total degree,
    w(phi(u)) = w(phi(v)), so the toric ideal I is homogeneous, and so is
    the ideal J generated by its relations of degree <= d.  I and J agree
    in every degree e <= d, since I_e is spanned by coprime relations of
    degree <= e times monomials.  For a homogeneous ideal the leads of
    degree e are the monomials of in(I_e), and the reduced basis element
    with lead m is m minus the normal form of m, which lies in degree
    deg m.  So the reduced bases of I and J hold the same elements of lead
    degree <= d, the only ones the window's bounds read.  J's elements of
    higher degree, if any, need not be I's, and no window query reaches
    them.
    """
    w = standard_grading_functional(pres) or (1,) * pres.dimension
    values = [sum(a * c for a, c in zip(w, g)) for g in pres.generators]
    d = max(1, window_degree)
    return max(2, -(-d * max(values) // min(values)))
