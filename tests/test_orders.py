"""Term orders against the reference comparator in conftest."""

import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import permutations

import pytest

from conftest import reference_compare
from morsegraded.errors import ValidationError
from morsegraded.orders import KINDS, TermOrder, row_reduce


WEIGHT_ROWS = (
    [[1, 1, 1, 1], [1, 0, 0, -1], [0, 1, -1, 0], [0, 0, 1, 0]],
    [[2, 1, 0, 3], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
)


@pytest.mark.parametrize("kind", KINDS)
def test_matches_reference_on_random_pairs(kind):
    """compare and the order of key tuples both equal the reference."""
    rng = random.Random(3)
    for trial in range(20):
        priority = rng.sample(range(4), 4)
        rows = WEIGHT_ROWS[trial % 2] if kind == "weight-matrix" else None
        order = TermOrder(4, kind=kind, priority=priority, rows=rows)
        for _ in range(60):
            a = tuple(rng.randint(0, 3) for _ in range(4))
            b = tuple(rng.randint(0, 3) for _ in range(4)) if rng.random() < 0.9 else a
            ka, kb = order.key(a), order.key(b)
            assert order.compare(a, b) == (ka > kb) - (ka < kb) == reference_compare(order, a, b)


def test_default_lex_prefers_high_index():
    order = TermOrder(5)
    # z1*z4 against z0^2
    assert order.compare((0, 1, 0, 0, 1), (2, 0, 0, 0, 0)) > 0


def test_equal_monomials_compare_equal():
    order = TermOrder(3, kind="graded-revlex")
    assert order.compare((1, 0, 2), (1, 0, 2)) == 0


def test_grevlex_classic_example():
    # with z0 > z1 > z2: z0*z2 vs z1^2 have equal degree; grevlex favors z1^2? no:
    # last nonzero of difference (1,-2,1) scanning z2,z1,z0 is +1 at z2 -> z0*z2 smaller
    order = TermOrder(3, kind="graded-revlex", priority=(0, 1, 2))
    assert order.compare((1, 0, 1), (0, 2, 0)) < 0


def test_one_is_minimal_and_multiplicative():
    rng = random.Random(5)
    for kind in ("lex", "graded-lex", "graded-revlex"):
        order = TermOrder(4, kind=kind)
        one = (0, 0, 0, 0)
        for _ in range(100):
            m = tuple(rng.randint(0, 3) for _ in range(4))
            if m != one:
                assert order.compare(one, m) < 0
            a = tuple(rng.randint(0, 3) for _ in range(4))
            b = tuple(rng.randint(0, 3) for _ in range(4))
            c = tuple(rng.randint(0, 2) for _ in range(4))
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            assert order.compare(a, b) == order.compare(ac, bc)


def test_weight_matrix_order():
    order = TermOrder(3, kind="weight-matrix", rows=[[1, 1, 1], [1, 0, 0], [0, 1, 0]])
    assert order.compare((1, 0, 0), (0, 0, 1)) > 0
    assert order.compare((0, 0, 2), (1, 0, 0)) > 0  # degree first


def test_weight_matrix_rejects_rank_deficiency():
    with pytest.raises(ValidationError):
        TermOrder(3, kind="weight-matrix", rows=[[1, 1, 1], [2, 2, 2]])


def test_weight_matrix_rejects_negative_leading_column():
    with pytest.raises(ValidationError):
        TermOrder(2, kind="weight-matrix", rows=[[1, -1], [0, 1]])


def test_priority_must_be_permutation():
    with pytest.raises(ValidationError):
        TermOrder(3, priority=(0, 0, 2))


def test_label_rank_orders_variables():
    order = TermOrder(4)
    ranks = [order.label_rank[i] for i in range(4)]
    assert ranks == [0, 1, 2, 3]
    rev = TermOrder(4, priority=(0, 1, 2, 3))
    assert [rev.label_rank[i] for i in range(4)] == [3, 2, 1, 0]


def test_totality_on_small_support():
    order = TermOrder(3, kind="graded-revlex")
    mons = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    ordered = sorted(mons, key=cmp_to_key(order.compare))
    for x, y in zip(ordered, ordered[1:]):
        assert order.compare(x, y) < 0
    # antisymmetry and transitivity on every permutation of a sample triple
    for tri in permutations(mons[:9], 3):
        a, b, c = tri
        if order.compare(a, b) <= 0 and order.compare(b, c) <= 0:
            assert order.compare(a, c) <= 0


def test_row_reduce_is_gauss_jordan_over_q():
    rows, pivots = row_reduce([[2, 4, 1], [1, 2, 0], [3, 6, 1]])
    assert pivots == [0, 2]
    assert rows == [[1, 2, 0], [0, 0, 1], [0, 0, 0]]
    rows, pivots = row_reduce([[0, 3], [2, 1]])
    assert pivots == [0, 1] and rows == [[1, 0], [0, 1]]
    assert row_reduce([[Fraction(1, 2), 1]]) == ([[1, 2]], [0])
    assert row_reduce([]) == ([], [])


@pytest.mark.parametrize("entry", [1.5, "1", True])
def test_non_int_entries_are_refused(entry):
    """A float, string or bool entry is refused, not coerced to an int."""
    with pytest.raises(ValidationError, match="a weight-matrix row must be an array of integers"):
        TermOrder(3, kind="weight-matrix", rows=[[entry, 1, 1], [0, 0, 1], [0, 1, 0]])
    with pytest.raises(ValidationError, match="priority must be an array of integers"):
        TermOrder(3, priority=[entry, 0, 2])
