"""Monomial term orders on k[z_0..z_{n-1}] and their degree-one label order.

Monomials are exponent tuples.  All comparators return -1/0/+1.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError, ValidationError

Monomial = tuple[int, ...]

KINDS = ("lex", "graded-lex", "graded-revlex", "weight-matrix")


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """a | b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def monomial_gcd(a: Monomial, b: Monomial) -> Monomial:
    return tuple(min(x, y) for x, y in zip(a, b))


def total_degree(a: Monomial) -> int:
    return sum(a)


def unit(n: int, i: int) -> Monomial:
    return tuple(1 if j == i else 0 for j in range(n))


def content_monomial(labels, n: int) -> Monomial:
    """Exponent vector of a multiset of generator indices."""
    exps = [0] * n
    for i in labels:
        exps[i] += 1
    return tuple(exps)


def row_reduce(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan elimination over Q: the reduced row echelon form of the
    rows, and the pivot column of each of its leading nonzero rows."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots


def _integers(value, what: str) -> tuple[int, ...]:
    """A list or tuple of ints as a tuple; anything else, a bool or a float
    entry included, is a ValidationError."""
    if not isinstance(value, (list, tuple)) or not all(type(x) is int for x in value):
        raise ValidationError(f"{what} must be an array of integers, got {value!r}")
    return tuple(value)


def refuse_unknown_fields(doc: dict, fields) -> None:
    """Refuse the first key of a JSON object that is not among fields: a
    misspelt optional field would otherwise be ignored silently."""
    for key in doc:
        if key not in fields:
            raise ParseError(f"unknown field {key!r}")


class TermOrder:
    """A total multiplicative order with 1 minimal.

    priority lists variable indices from highest to lowest and must be a
    permutation of range(n).  For weight-matrix orders the rows must have
    full rank n (totality) and every column's topmost nonzero entry must be
    positive (1 is minimal).  Every entry must be an int, not a bool or a
    float.  All of this is checked at construction.
    """

    def __init__(self, n: int, kind: str = "lex", priority=None, rows=None):
        if kind not in KINDS:
            raise ValidationError(f"unknown term order kind {kind!r}")
        self.n = n
        self.kind = kind
        if priority is None:
            priority = tuple(range(n - 1, -1, -1))
        self.priority = _integers(priority, "priority")
        if sorted(self.priority) != list(range(n)):
            raise ValidationError("priority must be a permutation of the variables")
        self.rows = None
        if kind == "weight-matrix":
            if not isinstance(rows, (list, tuple)) or not rows:
                raise ValidationError(f"weight-matrix order needs an array of rows, got {rows!r}")
            rows = [_integers(r, "a weight-matrix row") for r in rows]
            if any(len(r) != n for r in rows):
                raise ValidationError("weight rows must have length n")
            for col in range(n):
                top = next((r[col] for r in rows if r[col] != 0), None)
                if top is None or top < 0:
                    raise ValidationError(
                        "weight matrix does not keep 1 minimal (bad column %d)" % col
                    )
            if len(row_reduce(rows)[1]) != n:
                raise ValidationError("weight matrix is rank-deficient: not a term order")
            self.rows = tuple(rows)
        elif rows is not None:
            raise ValidationError("rows only apply to weight-matrix orders")
        # label order: the restriction to degree-one monomials, as ranks
        idx = sorted(range(n), key=lambda i: self.key(unit(n, i)))
        self.label_rank = tuple(idx.index(i) for i in range(n))

    def key(self, m: Monomial) -> tuple[int, ...]:
        """A tuple whose order on monomials is this term order.

        lex: the exponents in priority order.  graded-lex: the degree, then
        the lex key.  graded-revlex: the degree, then the negated exponents
        in reverse priority, so of two monomials of one degree the larger
        has the smaller exponent at the lowest-priority variable where they
        differ.  weight-matrix: the row dot products, which the full-rank
        rows make injective.
        """
        if self.kind == "weight-matrix":
            return tuple(sum(r * x for r, x in zip(row, m)) for row in self.rows)
        if self.kind == "graded-revlex":
            return (sum(m),) + tuple(-m[v] for v in reversed(self.priority))
        lex = tuple(m[v] for v in self.priority)
        return (sum(m),) + lex if self.kind == "graded-lex" else lex

    def compare(self, a: Monomial, b: Monomial) -> int:
        if len(a) != self.n or len(b) != self.n:
            raise ValidationError("monomial has wrong variable count")
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)

    def to_json(self) -> dict:
        doc = {"kind": self.kind, "priority": list(self.priority)}
        if self.rows is not None:
            doc["rows"] = [list(r) for r in self.rows]
        return doc

    @classmethod
    def from_json(cls, n: int, doc: dict | None) -> "TermOrder":
        if doc is None:
            return cls(n)
        refuse_unknown_fields(doc, ("kind", "priority", "rows"))
        return cls(
            n,
            kind=doc.get("kind", "lex"),
            priority=doc.get("priority"),
            rows=doc.get("rows"),
        )
