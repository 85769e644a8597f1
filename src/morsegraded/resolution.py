"""Minimal-resolution witness: boundary maps between surviving cells.

Cells of the ambient chain complex are finite chains in the semigroup
(tuples of multidegrees, ascending), graded by their top element.  The
per-interval matchings glue into one grade-preserving acyclic matching; the
boundary of a survivor is computed by flowing its simplicial boundary
through the matching.  Minimality (no equal-grade incidences) and
boundary-squared-zero are asserted, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cancellation import CancellationResult
from .errors import InternalInvariantError
from .groebner import GroebnerBasis
from .morse import FaceMatching
from .semigroup import SemigroupPresentation, Vector

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


def morse_boundary(
    pres: SemigroupPresentation,
    gb: GroebnerBasis,
    results: dict[Vector, CancellationResult],
) -> ResolutionData:
    """Assemble the cellular resolution of the cancelled intervals `results`.

    results maps each multidegree of a degree window to its cancellation.
    Unit incidences are a hard error exactly when minimality is promised
    (quadratic bases) and a recorded finding otherwise.
    """
    zero = tuple([0] * pres.dimension)
    partner: dict[Chain, Chain] = {}
    critical: dict[Chain, Vector] = {(): zero}

    for lam in sorted(results):
        res = results[lam]
        fm: FaceMatching = res.matching
        for mask, other in fm.partner.items():
            chain = fm.face_elements(mask) + (lam,)
            partner[chain] = fm.face_elements(other) + (lam,)
        for cell in res.survivors:
            if cell.is_base:
                # reduced convention: the base vertex absorbs the 0-cell {lam}
                chain = (lam,)
                up = cell.elements + (lam,)
                partner[chain] = up
                partner[up] = chain
                continue
            critical[cell.elements + (lam,)] = lam

    flows: dict[Chain, dict[Chain, int]] = {}

    def boundary(chain: Chain):
        for j in range(len(chain)):
            yield (1 if j % 2 == 0 else -1), chain[:j] + chain[j + 1 :]

    def flow(chain: Chain) -> dict[Chain, int]:
        """chain's image in the critical cells.  A chain matched up to up
        flows as minus its incidence in up times up's other faces; its first
        visit scans boundary(up) and its second sums their flows."""
        stack: list[tuple[Chain, int, list | None]] = [(chain, 0, None)]
        while stack:
            cur, sign_cur, faces = stack.pop()
            if cur in flows:
                continue
            if faces is not None:
                acc: dict[Chain, int] = {}
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
                raise _resolution_breach(
                    _grade(cur, zero), f"chain {cur} neither matched nor critical"
                )
            if len(up) < len(cur):
                flows[cur] = {}
                continue
            faces = []
            for sgn, face in boundary(up):
                if face == cur:
                    sign_cur = sgn
                else:
                    faces.append((sgn, face))
            stack.append((cur, sign_cur, faces))
            stack.extend((face, 0, None) for _, face in faces if face not in flows)
        return flows[chain]

    differentials: dict[int, dict[tuple[Chain, Chain], int]] = {}
    for chain in sorted(critical, key=lambda c: (len(c), c)):
        if not chain:
            continue
        i = len(chain)  # homological index: Tor_i basis element
        row: dict[Chain, int] = {}
        for sgn, face in boundary(chain):
            for tgt, coeff in flow(face).items():
                row[tgt] = row.get(tgt, 0) + sgn * coeff
        for tgt, coeff in row.items():
            if coeff:
                differentials.setdefault(i, {})[(chain, tgt)] = coeff

    units = _unit_incidences(differentials, zero)
    if units and gb.degree <= 2:
        hi, lo, _ = units[0]
        raise _resolution_breach(
            _grade(hi, zero), f"unit incidence between equal multidegrees: {hi} -> {lo}"
        )
    _assert_square_zero(differentials)
    tor: dict[tuple[int, Vector], int] = {}
    for chain, grade in critical.items():
        key = (len(chain), grade)
        tor[key] = tor.get(key, 0) + 1
    return ResolutionData(critical, differentials, tor, units)


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
