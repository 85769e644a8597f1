"""Independent ground truth: reduced simplicial homology in exact arithmetic.

The oracle builds the order complex of each open interval (0, lam) straight
from the presentation's poset: its down-sets and strict up-sets, bitmasks
over an index order that is a linear extension.  Beat points are deleted
first (Stong, Trans. AMS 123, 1966), each deletion a collapse, so the
core's complex has the homotopy type of the open interval's.  The poset
marks the down-beat points once, as it grows (`SemigroupPresentation.grow`),
and each interval deletes those below its top before it sweeps for the
rest.  A core past ORACLE_FACE_BUDGET faces is refused as its layers grow.
Empty layers pad it to the interval's dimension, so Betti tuples keep their
length, and a one-vertex core is a point.  Nothing here touches the Morse
pipeline.

A face is a vertex bitmask, and a boundary column is the pair (plus, minus)
of bitmasks of the rows where it is +1 and -1: an integer vector with
entries in {-1, 0, 1}.  A boundary map is built only at the columns that
clearing keeps.

`betti_numbers` is the one routine behind every Betti number, over every
field at once.  It eliminates each boundary map of a complex once, over Z,
top dimension first, and every requested field reads its ranks off the
same invariant factors.

Unit pivots.  `_unit_pivots` reduces each column at its highest nonzero
row by +-1 times the pivot there, and declines as soon as an entry would
leave {-1, 0, 1}.  So each pivot is an integer combination of the columns
with entry 1 at its lead, and no two pivots share a lead.  Each step
subtracts an integer multiple of a pivot, which is invertible over Z, and
each column ends as zero or as a pivot, so the pivots span the columns'
lattice.  A pivot is zero above its lead, so with the pivots ordered by
lead, their entries at the lead rows form a unitriangular matrix; the
pivots and the unit vectors of the other rows are a basis of Z^rows.  The
lattice is a direct summand, every invariant factor is 1, and the rank
over every field is the number of pivots.

Clearing.  A column of d_k whose index is the lead of a pivot of the
reduced d_{k+1} is skipped.  Let P hold those pivots, and split its rows,
and the columns of d_k, into the leads L and the rest K.  Each pivot is a
boundary, hence a cycle: d_k P = 0 reads A_L P_L = -A_K P_K, and P_L is
unitriangular, hence invertible over Z.  So every skipped column is an
integer combination of the kept ones, the kept columns span the lattice
of all of d_k, and they have its invariant factors (Chen-Kerber,
"Persistent homology computation with a twist", 2011, over a field; the
unitriangular block carries the argument to Z).  The skipped columns are
never built.

The fallback.  Where the unit route declines, the dense Smith normal form
of that map's kept columns gives its invariant factors, and the rank over
a field of characteristic c counts the factors c does not divide (all of
them over Q).  It yields no leads, so the next map down is ranked whole.
The 6-vertex RP^2 declines and has F_2 Betti numbers (0, 0, 1, 1) against
(0, 0, 0, 0) over Q.  `integral_homology`, torsion included, runs the
Smith normal form of every whole map, as the tests' reference.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from math import gcd

from .errors import MorsegradedError
from .semigroup import SemigroupPresentation, Vector, bit_indices

Column = tuple[int, int]  # (plus, minus): bitmasks of the rows at +1 and at -1

# Most faces the core of one open interval may have; order_complex refuses
# a larger one as its layers grow, as morse.FACE_BUDGET bounds the face
# matching.  The largest core of the test and benchmark inputs, pair_swap
# (3,3,1,1,1), has 5,217 faces.  Ranking costs memory about quadratic in
# the faces: `betti --degree-window 9` on squares, whose largest core
# (7,7,1,1) has 330,793, peaks at 1.3 GB, and pair_swap, cyclic_split3 and
# skew2d stop at cores of 699,241, 666,867 and 401,920 faces built.
ORACLE_FACE_BUDGET = 400_000


@dataclass(frozen=True)
class OrderComplex:
    """The chains of an open interval's beat-point core, by dimension.

    A face is a bitmask with bit v for each vertex v, the core element
    elements[v]; faces of each dimension are in lexicographic order of
    their vertex sequences.  The empty face is implicit (reduced
    convention).  Layers above the core's dimension are empty, so `dim` is
    the dimension of the order complex of the whole open interval.
    """

    faces: tuple[tuple[int, ...], ...]  # faces[d] lists d-faces
    elements: tuple[Vector, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.faces) - 1

    def face_count(self, d: int) -> int:
        if d == -1:
            return 1
        if 0 <= d < len(self.faces):
            return len(self.faces[d])
        return 0

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(fs) for d, fs in enumerate(self.faces))


def order_complex(pres: SemigroupPresentation, lam: Vector) -> OrderComplex:
    """The order complex of the beat-point core of the open interval (0, lam),
    padded with empty layers to the whole open interval's dimension.

    The vertices are the poset indices in lam's down-set but 0 and lam,
    ordered by the stored down-sets and strict up-sets.  The index order is
    a linear extension: the poset adds an element only after all its lower
    covers (`SemigroupPresentation.grow`), so u < v gives index u < index v.

    The core: first delete the poset's marked down-beat points below lam
    (`pres.beats`) in index order.  Each is a beat point when its turn
    comes: its strict down-set in (0, lam) is its strict down-set in the
    poset minus 0, whatever lam is, so what survives below it is what
    `SemigroupPresentation.grow` found a maximum in.  Then sweep the
    surviving vertices upward, deleting each x whose surviving elements
    strictly below have a maximum or strictly above have a minimum (a
    beat point), until a sweep deletes nothing.  In a linear extension the
    only candidate maximum is the highest surviving element below x, and
    the only candidate minimum the lowest above it.
    If y is the maximum below x, the link of x in the order complex is the
    join of the chains below x, a cone with apex y, with the chains above
    x; so the link is a cone, and the complex collapses onto the order
    complex of the poset without x (pair each face s + x, y not in s, with
    s + x + y).  Dually for a minimum above.  A collapse is a strong
    deformation retraction, so the core's order complex is homotopy
    equivalent to that of the open interval (Stong, Trans. AMS 123, 1966;
    McCord, Duke Math. J. 33, 1966; Barmak, LNM 2032, 2011), and reduced
    integral homology, torsion included, is unchanged, hence so is every
    Betti number over every field, and the Euler characteristic.  The
    core has no beat point, so it is the core of the open interval, unique
    up to isomorphism (Stong), whichever beat points went first: its size,
    its face counts and its Betti numbers do not depend on the order.

    The survivors are renumbered 0..k-1 in index order; a face grows by a
    core vertex above its highest one, so each dimension comes out in
    lexicographic order.  A longest chain of the open interval has
    height(lam) - 1 elements: that many layers, the empty ones with no
    homology, make up the complex.  A one-vertex core is a point, which is
    contractible, so `betti_numbers` eliminates nothing for it.  A core
    with more than ORACLE_FACE_BUDGET faces is refused, checked after each
    layer is built.
    """
    top = pres.index(lam)
    down, above = pres.down, pres.above
    alive = down[top] & ~(pres.beats | 1 | 1 << top)  # index 0 is the bottom, 0
    swept = -1
    while swept != alive:
        swept = alive
        for x in bit_indices(swept):
            low = down[x] & alive ^ 1 << x
            if low and not low & ~down[low.bit_length() - 1]:
                alive ^= 1 << x
                continue
            high = above[x] & alive
            z = high & -high
            if high and not high & ~above[z.bit_length() - 1] ^ z:
                alive ^= 1 << x
    core = bit_indices(alive)
    local = {v: 1 << k for k, v in enumerate(core)}
    up = [[local[w] for w in bit_indices(above[v] & alive)] for v in core]
    by_dim: list[list[int]] = []
    layer = list(local.values())
    count = 0
    while layer:
        count += len(layer)
        if count > ORACLE_FACE_BUDGET:
            raise MorsegradedError(
                f"order complex at {lam}: {count} faces built, "
                f"more than the budget of {ORACLE_FACE_BUDGET}"
            )
        by_dim.append(layer)
        layer = [f | b for f in layer for b in up[f.bit_length() - 1]]
    by_dim.extend([] for _ in range(pres.height[top] - 1 - len(by_dim)))
    return OrderComplex(tuple(map(tuple, by_dim)), tuple(map(pres.elements.__getitem__, core)))


def boundary_matrix(cx: OrderComplex, d: int, skip: Collection[int] = ()) -> list[Column]:
    """The columns of the boundary map C_d -> C_{d-1}, for 0 <= d <= dim,
    but for those whose index is in skip, which are not built.

    Removing the k-th lowest vertex of a face gives the row of that face
    with sign (-1)^k.  For d = 0 the map is the augmentation onto the one
    row of the empty face, and skip holds vertex indices.  The row faces
    map to their row numbers, and each entry is shifted into place.
    """
    if d == 0:
        return [(1, 0)] * (len(cx.faces[0]) - len(skip))
    index = {f: i for i, f in enumerate(cx.faces[d - 1])}
    cols = []
    for k, f in enumerate(cx.faces[d]):
        if k in skip:
            continue
        plus = minus = 0
        rest = f
        while rest:  # vertices from the lowest up, at signs +1, -1, +1, ...
            bit = rest & -rest
            plus |= 1 << index[f ^ bit]
            rest ^= bit
            if not rest:
                break
            bit = rest & -rest
            minus |= 1 << index[f ^ bit]
            rest ^= bit
        cols.append((plus, minus))
    return cols


def _unit_pivots(columns: list[Column]) -> dict[int, Column] | None:
    """Integer column elimination with unit leads: the pivots by lead row,
    or None where an entry leaves {-1, 0, 1}.

    A column's lead is its highest nonzero row.  A column whose lead holds
    a pivot subtracts +-1 times that pivot, which clears the lead; a column
    whose lead is free becomes the pivot there, negated if its lead entry
    is -1.  Both stay (plus, minus) pairs as long as no row meets a +1 and
    a -1 in one subtraction; such a row would hold +-2, and the elimination
    declines, so every lead of a returned pivot is 1.
    """
    pivots: dict[int, Column] = {}
    for plus, minus in columns:
        while plus | minus:
            lead = (plus | minus).bit_length() - 1
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = (plus, minus) if plus >> lead & 1 else (minus, plus)
                break
            p, m = piv if plus >> lead & 1 else (piv[1], piv[0])
            if plus & m or minus & p:
                return None
            plus, minus = (plus & ~p) | (m & ~minus), (minus & ~m) | (p & ~plus)
    return pivots


def _dense(columns: list[Column]) -> list[list[int]]:
    """The integer matrix with these columns, down to its last nonzero row."""
    rows = max(((plus | minus).bit_length() for plus, minus in columns), default=0)
    dense = [[0] * len(columns) for _ in range(rows)]
    for j, (plus, minus) in enumerate(columns):
        for i in bit_indices(plus):
            dense[i][j] = 1
        for i in bit_indices(minus):
            dense[i][j] = -1
    return dense


def _invariant_factors(columns: list[Column]) -> tuple[list[int], Collection[int]]:
    """The nonzero invariant factors of the integer matrix with these
    columns, and the lead rows that clearing may skip.

    Unit pivots prove the factors all 1, and their leads are the rows,
    as a set of their own: a view of the pivot dict would keep every pivot
    alive while the caller ranks the next layer.  Otherwise the dense Smith
    normal form gives the factors, and no row.
    """
    pivots = _unit_pivots(columns)
    if pivots is None:
        return smith_normal_form(_dense(columns)), ()
    return [1] * len(pivots), set(pivots)


def _field_rank(factors: list[int], characteristic: int) -> int:
    """The rank over a field: the invariant factors its characteristic
    does not divide.  Each factor divides the next, so where the last is 1,
    as on the unit route, they all are, and every field counts them all."""
    if characteristic == 0 or not factors or factors[-1] == 1:
        return len(factors)
    return sum(t % characteristic != 0 for t in factors)


def matrix_rank(columns: list[Column], characteristic: int) -> int:
    """Rank of (plus, minus) columns over Q (characteristic 0) or F_p."""
    return _field_rank(_invariant_factors(columns)[0], characteristic)


def betti_numbers(cx: OrderComplex, characteristics) -> dict[int, tuple[int, ...]]:
    """Reduced Betti numbers b~_{-1} .. b~_dim over every requested field.

    The nonempty layers' boundary maps are eliminated once over Z, top
    dimension first with clearing, and every field reads its ranks off the
    same invariant factors.  Each layer's columns live only while that
    layer is eliminated, and only its lead rows are kept for the next,
    whose columns at those indices `boundary_matrix` never builds.  A
    one-vertex complex is a point, which is contractible: every reduced
    Betti number is 0, with nothing eliminated.
    """
    wanted = tuple(dict.fromkeys(characteristics))
    if cx.dim < 0 or not wanted:
        return {c: (1,) for c in wanted}
    if cx.face_count(0) == 1:
        return {c: (0,) * (cx.dim + 2) for c in wanted}
    factors: list[list[int]] = [[] for _ in range(cx.dim + 2)]
    leads: Collection[int] = ()
    for d in range(sum(map(bool, cx.faces)) - 1, -1, -1):
        factors[d], leads = _invariant_factors(boundary_matrix(cx, d, leads))
    betti = {}
    for c in wanted:
        ranks = [_field_rank(f, c) for f in factors]
        betti[c] = (1 - ranks[0],) + tuple(
            cx.face_count(d) - ranks[d] - ranks[d + 1] for d in range(cx.dim + 1)
        )
    return betti


def reduced_betti(cx: OrderComplex, characteristic: int = 0) -> tuple[int, ...]:
    """Reduced Betti numbers b~_{-1} .. b~_dim over the requested field."""
    return betti_numbers(cx, (characteristic,))[characteristic]


def smith_normal_form(rows: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix."""
    m = [row[:] for row in rows]
    if not m or not m[0]:
        return []
    nr, nc = len(m), len(m[0])
    diag = []
    r = c = 0
    while r < nr and c < nc:
        pr, pc, best = -1, -1, 0
        for i in range(r, nr):
            for j in range(c, nc):
                v = abs(m[i][j])
                if v and (best == 0 or v < best):
                    pr, pc, best = i, j, v
        if best == 0:
            break
        m[r], m[pr] = m[pr], m[r]
        for row in m:
            row[c], row[pc] = row[pc], row[c]
        while True:
            done = True
            for i in range(r + 1, nr):
                if m[i][c]:
                    q = m[i][c] // m[r][c]
                    m[i] = [x - q * y for x, y in zip(m[i], m[r])]
                    if m[i][c]:
                        m[r], m[i] = m[i], m[r]
                        done = False
            for j in range(c + 1, nc):
                if m[r][j]:
                    q = m[r][j] // m[r][c]
                    for row in m:
                        row[j] -= q * row[c]
                    if m[r][j]:
                        for row in m:
                            row[c], row[j] = row[j], row[c]
                        done = False
            if done:
                break
        diag.append(abs(m[r][c]))
        r += 1
        c += 1
    # enforce divisibility d1 | d2 | ...
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            g = gcd(a, b)
            diag[i], diag[j] = g, a * b // g if g else 0
    return diag


def integral_homology(cx: OrderComplex) -> list[tuple[int, list[int]]]:
    """(rank, torsion coefficients) of reduced homology per dimension >= -1."""
    # snf[d + 1]: the Smith diagonal of the boundary map out of dimension d
    snf = [[]]
    for d in range(cx.dim + 1):
        snf.append(smith_normal_form(_dense(boundary_matrix(cx, d))))
    snf.append([])
    return [
        (cx.face_count(d) - len(snf[d + 1]) - len(snf[d + 2]), [t for t in snf[d + 2] if t > 1])
        for d in range(-1, cx.dim + 1)
    ]


@dataclass
class BettiTable:
    """Tor ranks per (homological index, multidegree)."""

    characteristic: int
    ranks: dict[tuple[int, Vector], int]
    interval_betti: dict[Vector, tuple[int, ...]]

    def total(self, i: int) -> int:
        return sum(v for (k, _), v in self.ranks.items() if k == i)

    def rank(self, i: int, lam: Vector) -> int:
        return self.ranks.get((i, lam), 0)

    def to_rows(self):
        rows = []
        for (i, lam), v in sorted(self.ranks.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            rows.append((list(lam), i, v))
        return rows


def tor_tables(
    pres: SemigroupPresentation, window: dict[Vector, int], characteristics
) -> dict[int, BettiTable]:
    """Tor_i ranks at every multidegree of the window, over every field in one pass.

    The index correspondence Tor_i <-> b~_{i-2} is validated by tests on
    generator and relation multidegrees before anything else trusts it.
    """
    zero = tuple([0] * pres.dimension)
    tables = {c: BettiTable(c, {(0, zero): 1}, {}) for c in characteristics}
    pres.grow(window)
    for lam in sorted(window):
        cx = order_complex(pres, lam)
        for char, betti in betti_numbers(cx, characteristics).items():
            table = tables[char]
            table.interval_betti[lam] = betti
            for d, b in enumerate(betti, start=-1):
                if b:
                    table.ranks[(d + 2, lam)] = b
    return tables


def tor_ranks(
    pres: SemigroupPresentation, window: dict[Vector, int], characteristic: int = 0
) -> BettiTable:
    """Tor_i ranks at every multidegree of the window over one field."""
    return tor_tables(pres, window, (characteristic,))[characteristic]


def below_vanishing_bound(i: int, degree: int, d: int) -> bool:
    """i < -1 + (degree - 1)/(d - 1), kept in integer arithmetic."""
    return (i + 1) * (d - 1) < degree - 1


def verify_vanishing(
    tables: dict[int, BettiTable], gb_degree: int, window: dict[Vector, int]
) -> dict:
    """Check reduced homology vanishes below the degree bound, every field.

    tables holds one Betti table over the window per field checked.
    Violations land in the report; an empty violation list is the claim.
    Characteristic-zero entries are certified through a prime field where
    possible: universal coefficients give b_Q <= b_{F_p}, so prime-field
    vanishing already settles the rational case.
    """
    d = max(2, gb_degree)
    primes = [c for c in tables if c != 0]
    checks = 0
    certified = 0
    violations = []
    for lam in sorted(window):
        degree = window[lam]
        prime_ok = bool(primes)
        for char in primes + [0] if 0 in tables else primes:
            betti = tables[char].interval_betti[lam]
            below = [i for i in range(-1, len(betti) - 1) if below_vanishing_bound(i, degree, d)]
            checks += len(below)
            if char == 0 and prime_ok:
                certified += len(below)
                continue
            for i in below:
                b = betti[i + 1]
                if b:
                    prime_ok = False
                    violations.append(
                        {"multidegree": list(lam), "i": i, "characteristic": char, "betti": b}
                    )
    return {
        "groebner_degree": d,
        "multidegrees": len(window),
        "characteristics": list(tables),
        "checks": checks,
        "rational_certified_via_prime": certified,
        "violations": violations,
        "ok": not violations,
    }
