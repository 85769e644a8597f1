"""Minimal-resolution witness: boundary maps between surviving cells.

Cells of the ambient chain complex are finite chains in the semigroup,
graded by their top element.  The per-interval matchings glue into one
grade-preserving acyclic matching; the boundary of a survivor is computed
by flowing its simplicial boundary through the matching.  The flow runs on
chains as bitmasks over the presentation's poset indices, and the result
names cells by their element tuples, ascending.  Minimality (no
equal-grade incidences) and boundary-squared-zero are asserted, not
assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cancellation import CancellationResult
from .errors import InternalInvariantError
from .groebner import GroebnerBasis
from .morse import FaceMatching
from .semigroup import SemigroupPresentation, Vector, bit_indices

Chain = tuple[Vector, ...]


@dataclass
class ResolutionData:
    """Surviving cells of a degree window plus their signed incidences.

    differentials[i] maps (cell of homological index i, cell of index i-1)
    to a nonzero integer coefficient; the monomial factor is recovered from
    the grade difference.  unit_incidences lists entries between cells of
    equal grade: provably empty for quadratic bases, possible beyond.
    """

    critical: dict[Chain, Vector]
    differentials: dict[int, dict[tuple[Chain, Chain], int]]
    tor: dict[tuple[int, Vector], int]
    unit_incidences: list[tuple[Chain, Chain, int]]


def _grade(chain: Chain, zero: Vector) -> Vector:
    return chain[-1] if chain else zero


def _faces(chain: int) -> list[tuple[int, int]]:
    """The simplicial boundary of a chain bitmask: (sign, face) for each
    element dropped, lowest first, the k-th lowest with sign (-1)^k."""
    out = []
    sign, rest = 1, chain
    while rest:
        low = rest & -rest
        rest ^= low
        out.append((sign, chain ^ low))
        sign = -sign
    return out


def _lift(mask: int, bits: list[int]) -> int:
    """An interval's face mask as a poset bitmask: bit k goes to bits[k].
    Distinct bits go to distinct bits, so _lift(a ^ b) is
    _lift(a) ^ _lift(b)."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= bits[low.bit_length() - 1]
    return out


def morse_boundary(
    pres: SemigroupPresentation,
    gb: GroebnerBasis,
    results: dict[Vector, CancellationResult],
) -> ResolutionData:
    """Assemble the cellular resolution of the cancelled intervals `results`.

    results maps each multidegree of a degree window to its cancellation.
    Unit incidences are a hard error exactly when minimality is promised
    (quadratic bases) and a recorded finding otherwise.

    Chains are bitmasks over pres's poset indices.  Each interval's faces
    are lifted to them once, through pres.index on its elements.  The
    index order is a linear extension, so within a chain the bit order is
    the element order: a chain's grade is its highest set bit, and the
    k-th lowest bit is the k-th element, dropped with sign (-1)^k.  Only
    the critical chains, and a chain named in an error, are turned back
    into element tuples.
    """
    zero = tuple([0] * pres.dimension)
    index = pres.index
    partner: dict[int, int] = {}
    critical: dict[int, Chain] = {0: ()}  # chain -> its element tuple

    for lam in sorted(results):
        res = results[lam]
        fm: FaceMatching = res.matching
        bits = [1 << index(e) for e in fm.ivl.elements]
        top = 1 << index(lam)
        for mask, other in fm.partner.items():
            chain = top | _lift(mask, bits)
            partner[chain] = chain ^ _lift(mask ^ other, bits)  # a pair differs in one element
        for cell in res.survivors:
            chain = top
            for e in cell.elements:
                chain |= 1 << index(e)
            if cell.is_base:
                # reduced convention: the base vertex absorbs the 0-cell {lam}
                partner[top] = chain
                partner[chain] = top
                continue
            critical[chain] = cell.elements + (lam,)

    flows: dict[int, dict[int, int]] = {}

    def flow(chain: int) -> dict[int, int]:
        """chain's image in the critical cells.  A chain matched up to up
        flows as minus its incidence in up times up's other faces; its first
        visit scans up's faces and its second sums their flows."""
        stack: list[tuple[int, int, list | None]] = [(chain, 0, None)]
        while stack:
            cur, sign_cur, faces = stack.pop()
            if cur in flows:
                continue
            if faces is not None:
                acc: dict[int, int] = {}
                for sgn, face in faces:
                    for tgt, coeff in flows[face].items():
                        acc[tgt] = acc.get(tgt, 0) + (-sign_cur) * sgn * coeff
                flows[cur] = {k: v for k, v in acc.items() if v}
                continue
            if cur in critical:
                flows[cur] = {cur: 1}
                continue
            up = partner.get(cur)
            if up is None:
                named = tuple(pres.elements[i] for i in bit_indices(cur))
                raise _resolution_breach(
                    _grade(named, zero), f"chain {named} neither matched nor critical"
                )
            if up.bit_count() < cur.bit_count():
                flows[cur] = {}
                continue
            faces = []
            for sgn, face in _faces(up):
                if face == cur:
                    sign_cur = sgn
                else:
                    faces.append((sgn, face))
            stack.append((cur, sign_cur, faces))
            stack.extend((face, 0, None) for _, face in faces if face not in flows)
        return flows[chain]

    differentials: dict[int, dict[tuple[Chain, Chain], int]] = {}
    for chain, cell in sorted(critical.items(), key=lambda kv: (len(kv[1]), kv[1])):
        if not chain:
            continue
        i = len(cell)  # homological index: Tor_i basis element
        row: dict[int, int] = {}
        for sgn, face in _faces(chain):
            for tgt, coeff in flow(face).items():
                row[tgt] = row.get(tgt, 0) + sgn * coeff
        for tgt, coeff in row.items():
            if coeff:
                differentials.setdefault(i, {})[(cell, critical[tgt])] = coeff

    units = _unit_incidences(differentials, zero)
    if units and gb.quadratic:
        hi, lo, _ = units[0]
        raise _resolution_breach(
            _grade(hi, zero), f"unit incidence between equal multidegrees: {hi} -> {lo}"
        )
    _assert_square_zero(differentials)
    cells = {cell: _grade(cell, zero) for cell in critical.values()}
    tor: dict[tuple[int, Vector], int] = {}
    for cell, lam in cells.items():
        key = (len(cell), lam)
        tor[key] = tor.get(key, 0) + 1
    return ResolutionData(cells, differentials, tor, units)


def _resolution_breach(grade: Vector, what: str) -> InternalInvariantError:
    """An invariant error naming the stage and the multidegree."""
    return InternalInvariantError(f"resolution at {grade}: {what}")


def _unit_incidences(differentials, zero) -> list[tuple[Chain, Chain, int]]:
    out = []
    for rows in differentials.values():
        for (hi, lo), coeff in rows.items():
            if coeff and _grade(hi, zero) == _grade(lo, zero):
                out.append((hi, lo, coeff))
    return sorted(out)


def _assert_square_zero(differentials) -> None:
    for i, rows in differentials.items():
        below: dict[Chain, list[tuple[Chain, int]]] = {}
        for (mid, lo), c2 in differentials.get(i - 1, {}).items():
            below.setdefault(mid, []).append((lo, c2))
        acc: dict[tuple, int] = {}
        for (hi, mid), c1 in rows.items():
            for lo, c2 in below.get(mid, ()):
                key = (hi, lo)
                acc[key] = acc.get(key, 0) + c1 * c2
        bad = {k: v for k, v in acc.items() if v}
        if bad:
            hi = min(bad)[0]  # a cell of d_i with i >= 2, so never empty
            raise _resolution_breach(hi[-1], f"boundary squared is nonzero: {bad}")
