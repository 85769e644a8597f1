"""Seeded randomized property checks across sampled presentations."""

import random
from pathlib import Path

import pytest

from morsegraded import homology
from morsegraded.chains import FacetOrderConfig, check_crossing_condition, ordered_facets
from morsegraded.groebner import groebner_for, phi
from morsegraded.homology import (
    betti_numbers,
    integral_homology,
    order_complex,
    rational_from_primes,
    reduced_betti,
)
from morsegraded.io import parse_input
from morsegraded.morse import (
    build_face_matching,
    direct_interval_system,
    morse_numbers,
    msi_characterization,
)
from morsegraded.orders import TermOrder
from morsegraded.semigroup import random_presentation

FIXTURES = Path(__file__).parent / "fixtures"


def sample_rings(seed, count, window_degree=4):
    rng = random.Random(seed)
    rings = []
    while len(rings) < count:
        pres = random_presentation(rng, window_degree=window_degree, face_budget=40_000)
        order = TermOrder(pres.n)
        gb = groebner_for(pres, order, window_degree)
        rings.append((pres, FacetOrderConfig(order), gb))
    return rings


@pytest.fixture(scope="module")
def sampled():
    return sample_rings(20250808, 6)


def test_sampled_generators_are_atoms(sampled):
    for pres, _, _ in sampled:
        for i, g in enumerate(pres.generators):
            for j, h in enumerate(pres.generators):
                if i != j:
                    diff = tuple(a - b for a, b in zip(g, h))
                    assert not pres.member(diff) or any(c < 0 for c in diff)


def test_sampled_basis_is_multigraded(sampled):
    for pres, _, gb in sampled:
        for b in gb.elements:
            assert phi(pres, b.plus) == phi(pres, b.minus)


def test_sampled_crossing_and_characterization(sampled):
    for pres, cfg, gb in sampled:
        zero = tuple([0] * pres.dimension)
        window = sorted(pres.degree_window(3))
        for lam in window[:25]:
            facets = ordered_facets(pres.interval(zero, lam), cfg)
            assert check_crossing_condition(facets).ok, (pres.generators, lam)
            for j, facet in enumerate(facets):
                direct = tuple(iv.span() for iv in direct_interval_system(facets, j))
                implied = tuple(iv.span() for iv in msi_characterization(gb, cfg, facet))
                assert direct == implied, (pres.generators, lam, facet.labels)


def test_sampled_morse_inequalities(sampled):
    for pres, cfg, gb in sampled:
        zero = tuple([0] * pres.dimension)
        window = sorted(pres.degree_window(3))
        for lam in window[:20]:
            ivl = pres.interval(zero, lam)
            fm = build_face_matching(ivl, cfg, gb)
            m = morse_numbers(fm.cells())
            betti = reduced_betti(order_complex(ivl), 0)
            padded = {i: b for i, b in enumerate(betti, start=-1)}
            # reduced comparison: the base cell stands in for the empty face
            assert m.get(-1, 0) >= padded.get(-1, 0)
            for i in range(0, max(len(betti) - 1, 0)):
                bound = padded.get(i, 0) + (1 if i == 0 and padded.get(-1, 0) == 0 else 0)
                assert m.get(i, 0) >= bound, (pres.generators, lam, i)


def test_sampled_field_independence(sampled, reference_betti):
    for pres, _, _ in sampled:
        zero = tuple([0] * pres.dimension)
        window = sorted(pres.degree_window(3))
        for lam in window[:15]:
            cx = order_complex(pres.interval(zero, lam))
            b0 = reference_betti(cx, 0)
            assert b0 == reduced_betti(cx, 2) == reduced_betti(cx, 3)


def _betti_from_integral(integral, p):
    """Universal coefficients: b~_i(F_p) counts free ranks plus the p-torsion
    of H~_i and H~_{i-1}."""
    out = []
    for k, (free, torsion) in enumerate(integral):
        below = integral[k - 1][1] if k else []
        out.append(free + sum(t % p == 0 for t in torsion) + sum(t % p == 0 for t in below))
    return tuple(out)


def _oracle_rings():
    for name in ("squares", "pair_swap", "minor", "cyclic_split3"):
        yield name, parse_input((FIXTURES / f"{name}.json").read_text()).presentation, 5
    rng = random.Random(20260314)
    drawn = 0
    while drawn < 20:
        pres = random_presentation(rng, window_degree=4, face_budget=20_000)
        if pres.n >= 3:  # fewer generators give only points and empty complexes
            drawn += 1
            yield f"random{drawn}", pres, 4


def test_cleared_certified_betti_match_references(monkeypatch, reference_betti):
    """The one-pass route against uncleared ranks, exact Q and integral homology.

    Every interval is also run through the exact rational route with the
    certificate switched off, so clearing over Q is checked everywhere, not
    only where the certificate declines.
    """
    fields = (0, 2, 3)
    declined = {}
    for name, pres, degree in _oracle_rings():
        zero = tuple([0] * pres.dimension)
        declined[name] = 0
        for lam in sorted(pres.degree_window(degree)):
            cx = order_complex(pres.interval(zero, lam))
            got = betti_numbers(cx, fields)
            for p in fields:
                assert got[p] == reference_betti(cx, p), (name, lam, p)
            primes = [got[2], got[3]]
            declined[name] += rational_from_primes(cx, primes) is None
            with monkeypatch.context() as m:
                m.setattr(homology, "rational_from_primes", lambda cx, primes: None)
                assert betti_numbers(cx, (0,))[0] == got[0], (name, lam)
            if sum(len(fs) for fs in cx.faces) <= 120:  # dense Smith form is cubic
                integral = integral_homology(cx)
                assert tuple(free for free, _ in integral) == got[0], (name, lam)
                got.update(betti_numbers(cx, (5, 7)))  # the sparse modular route
                for p in (2, 3, 5, 7):
                    assert _betti_from_integral(integral, p) == got[p], (name, lam, p)
    # the exact fallback ran on real intervals: homology in both parities
    assert declined["cyclic_split3"] == 13


def test_sampled_translation_invariance(sampled):
    rng = random.Random(99)
    for pres, _, _ in sampled[:3]:
        zero = tuple([0] * pres.dimension)
        window = sorted(pres.degree_window(2))
        if len(window) < 2:
            continue
        mu = window[rng.randrange(len(window))]
        lam = window[rng.randrange(len(window))]
        top = tuple(a + b for a, b in zip(mu, lam))
        shifted = pres.interval(mu, top)
        base = pres.interval(zero, lam)
        translated = sorted(tuple(a - b for a, b in zip(e, mu)) for e in shifted.elements)
        assert translated == sorted(base.elements)


def test_sampled_full_consistency_suites():
    from morsegraded.errors import CollectionEnumerationOverflow
    from morsegraded.pipeline import full_consistency_suite

    rng = random.Random(424242)
    done = attempts = 0
    while done < 10 and attempts < 60:
        attempts += 1
        kwargs = dict(window_degree=3, face_budget=120_000)
        if attempts % 2:
            kwargs["max_dimension"] = 2
        pres = random_presentation(rng, **kwargs)
        order = TermOrder(pres.n)
        gb = groebner_for(pres, order, 3)
        try:
            out = full_consistency_suite(
                pres, gb, FacetOrderConfig(order), 3, deep_degree=3
            )
        except CollectionEnumerationOverflow as exc:
            if "ambiguous overlapping collection" not in str(exc):
                raise  # only ambiguous collections are declared unsupported
            continue
        assert out["ok"], (pres.generators, out["checks"])
        done += 1
    assert done >= 10
