"""Cross-module orchestration: consistency suites and composite reports.

Everything here ties the independent routes together: characterization
against direct overlaps, Morse numbers against oracle Betti numbers,
survivors against automaton language and commutation classes.  Each
per-interval object is built once per run: the deep window's
cancellations feed the Morse inequalities, the characterization check
(certified by each matching's build, with one batched overlap pass per
interval as the fallback) and the resolution witness, and the matchings
share the basis's shape table.  full_consistency_suite can report the
wall time of each of its stages.
"""

from __future__ import annotations

import time

from .automaton import build_degree_d_automaton, commutation_classes, rational_series
from .cancellation import CancellationResult, cancel_interval, survivor_words_by_content
from .chains import FacetOrderConfig
from .errors import InternalInvariantError
from .groebner import GroebnerBasis
from .homology import BettiTable, tor_tables, verify_vanishing
from .io import RunConfig
from .morse import FaceMatching, characterization_certified, direct_interval_spans
from .resolution import morse_boundary
from .semigroup import SemigroupPresentation, Vector


def characterization_matches_direct(fm: FaceMatching) -> bool:
    """Do the matching's Groebner-read systems equal the overlap-defined ones?

    direct_interval_spans raises CrossingViolation where the facet order
    breaks the crossing condition.  Every facet's direct system is built
    before any is compared, so a False answer still certifies the crossing
    condition, and a breach is re-raised with the stage and the multidegree
    in front.  The matching's systems are interned, so each distinct one
    is turned into spans once.
    """
    try:
        direct = direct_interval_spans(fm.facets)
    except InternalInvariantError as exc:
        raise type(exc)(f"characterization at {fm.ivl.top}: {exc}") from exc
    spans: dict[int, tuple] = {}
    for system in fm.systems:
        if id(system) not in spans:
            spans[id(system)] = tuple(iv.span() for iv in system)
    return all(a == spans[id(b)] for a, b in zip(direct, fm.systems))


def morse_vs_betti(res: CancellationResult, betti: tuple[int, ...]) -> dict:
    """Morse inequality and Euler identity data for one interval."""
    m = res.morse_numbers()
    padded = {i: b for i, b in enumerate(betti, start=-1)}
    nonreduced = dict(padded)
    if any(d >= 0 for d in m) or sum(betti):
        nonreduced[0] = padded.get(0, 0) + (1 if padded.get(-1, 0) == 0 else 0)
    top = max(set(m) | set(nonreduced), default=-1)
    ok_ineq = all(m.get(i, 0) >= nonreduced.get(i, 0) for i in range(0, top + 1))
    ok_ineq = ok_ineq and m.get(-1, 0) >= padded.get(-1, 0)
    euler_m = sum((-1) ** i * k for i, k in m.items() if i >= 0)
    euler_b = sum((-1) ** i * k for i, k in nonreduced.items() if i >= 0)
    return {
        "morse_numbers": m,
        "betti": {i: b for i, b in padded.items() if b},
        "inequality_ok": ok_ineq,
        "euler_morse": euler_m,
        "euler_betti": euler_b,
        "euler_ok": euler_m == euler_b,
    }


def sharpness_report(table: BettiTable, gb_degree: int, window: dict[Vector, int]) -> list[dict]:
    """Multidegrees at the Groebner degree whose interval is disconnected.

    b~_0 counts components, so a table over any field will do.
    """
    d = max(2, gb_degree)
    out = []
    for lam in sorted(window):
        if window[lam] != d:
            continue
        betti = table.interval_betti[lam]
        b0 = betti[1] if len(betti) > 1 else 0
        if b0 > 0:
            out.append({"multidegree": list(lam), "reduced_b0": b0})
    return out


def word_count_length(window: int) -> int:
    """How long the words a report over a degree window counts, and checks
    its series against, run: two past the window, at most 8."""
    return min(8, window + 2)


class _Laps:
    """Wall seconds per stage: lap(stage) books the time since the last lap."""

    def __init__(self, spent: dict[str, float]):
        self.spent, self.last = spent, time.perf_counter()

    def __call__(self, stage: str) -> None:
        now = time.perf_counter()
        self.spent[stage] = self.spent.get(stage, 0.0) + now - self.last
        self.last = now


def full_consistency_suite(
    pres: SemigroupPresentation,
    gb: GroebnerBasis,
    cfg: FacetOrderConfig,
    max_degree: int,
    characteristics=RunConfig.characteristics,
    path_cap: int = RunConfig.path_cap,
    state_budget: int = RunConfig.state_budget,
    deep_degree: int | None = None,
    targets: tuple[Vector, ...] = (),
    stage_s: dict[str, float] | None = None,
) -> dict:
    """Run every cross-check the package knows on one presentation.

    Face-level work (matchings, cancellation, path certificates) runs on
    intervals up to deep_degree (default max_degree capped at 4); label and
    homology level checks cover the whole window.  Each multidegree's
    Betti numbers come from one `tor_tables` pass over the requested fields
    plus Q, and each deep multidegree is cancelled once.  The report's
    targets block gives the Morse numbers and survivors of each target,
    reusing the deep window's cancellations and cancelling only targets
    outside it.

    characterization_equals_direct and crossing_condition rest on each
    deep matching's build: its transversal checks decide both, up to
    whether each facet's system is empty, which characterization_certified
    reads off the matching.  An interval that fails that test goes to the
    direct overlap pass, characterization_matches_direct, whose answer is
    then the interval's and which raises CrossingViolation where the
    crossing condition fails.  The direct pass also runs in the tests and,
    per facet order, in chains.check_crossing_condition.

    Whether the basis is quadratic is decided in one place,
    GroebnerBasis.quadratic, which every branch on it reads: here
    class_bijection, face_level_agrees_with_fiber_level and
    resolution_minimal against their high-degree counterparts, and in the
    cancellation and resolution stages below them.

    A stage_s dict, when given, receives the wall seconds of each stage:
    oracle (Betti tables, vanishing bound, sharpness), face_level
    (cancellations and Morse inequalities), characterization (the
    certificate, and the direct overlap pass where it runs), labels
    (automaton, survivors, classes, series) and resolution (the resolution
    witness).
    """
    lap = _Laps({} if stage_s is None else stage_s)
    window = pres.degree_window(max_degree)
    deep = deep_degree if deep_degree is not None else min(max_degree, 4)
    deep_window = {lam: d for lam, d in window.items() if d <= deep}
    tables = tor_tables(pres, window, tuple(dict.fromkeys((*characteristics, 0))))
    lap("oracle")
    rational = tables[0]
    checks: dict[str, bool] = {}
    details: dict[str, object] = {}

    results: dict[Vector, CancellationResult] = {}
    charact_ok = True
    ineq_ok = True
    euler_ok = True
    for lam in sorted(deep_window):
        res = cancel_interval(pres, lam, cfg, gb, path_cap)
        results[lam] = res
        lap("face_level")
        # every interval is certified or passes through the direct pass,
        # which raises CrossingViolation if the crossing condition fails, so
        # a completed loop also certifies it
        fm = res.matching
        if not (characterization_certified(fm) or characterization_matches_direct(fm)):
            charact_ok = False
        lap("characterization")
        cmp = morse_vs_betti(res, rational.interval_betti[lam])
        ineq_ok = ineq_ok and cmp["inequality_ok"]
        euler_ok = euler_ok and cmp["euler_ok"]
        lap("face_level")
    checks["crossing_condition"] = True
    checks["characterization_equals_direct"] = charact_ok
    checks["morse_inequalities"] = ineq_ok
    checks["euler_identity"] = euler_ok

    vanishing = verify_vanishing({c: tables[c] for c in characteristics}, gb.degree, window)
    checks["vanishing_bound"] = vanishing["ok"]
    details["vanishing"] = vanishing
    lap("oracle")

    auto = build_degree_d_automaton(gb, cfg, state_budget)
    accepted = {
        w for ws in auto.words_up_to(max_degree).values() for w in ws
    }
    survivor_words: set[tuple[int, ...]] = set()
    bijection_ok = True
    by_content = survivor_words_by_content(pres, gb, cfg, max_degree, path_cap)
    for content, words in by_content.items():
        survivor_words.update(tuple(reversed(w)) for w in words)
        if gb.quadratic and len(commutation_classes(gb, cfg, content)) != len(words):
            bijection_ok = False
    checks["language_equals_survivors"] = accepted == survivor_words
    if gb.quadratic:
        checks["class_bijection"] = bijection_ok
    series = rational_series(auto, verify_len=word_count_length(max_degree))
    details["series"] = {
        "numerator": list(series.numerator),
        "denominator": list(series.denominator),
        "coefficients": series.coefficients(max_degree + 1),
    }

    deep_survivors = {w for res in results.values() for w in res.survivor_words()}
    deep_fiber = {w for w in survivor_words if len(w) <= deep}
    if gb.quadratic:
        # quadratic survivors are canonical: the engines must coincide
        checks["face_level_agrees_with_fiber_level"] = deep_survivors == deep_fiber
    else:
        # high-degree cancellation is matching-order dependent, so the two
        # engines may legitimately keep different cells; both sides are
        # held to the oracle instead (inequalities above, bounds below)
        details["face_level_survivors"] = len(deep_survivors)
        details["fiber_level_survivors"] = len(deep_fiber)
    details["deep_accepted_words"] = len({w for w in accepted if len(w) <= deep})
    lap("labels")

    data = morse_boundary(pres, gb, results)
    morse_side = {k: v for k, v in data.tor.items() if k[0] >= 1}
    oracle_side = {
        (i, lam): v for (i, lam), v in rational.ranks.items() if i >= 1 and lam in deep_window
    }
    if gb.quadratic:
        resolution_ok = morse_side == oracle_side
    else:
        resolution_ok = all(morse_side.get(k, 0) >= v for k, v in oracle_side.items())
    checks["resolution_" + ("minimal" if gb.quadratic else "bounds")] = resolution_ok
    lap("resolution")

    details["sharpness_witnesses"] = sharpness_report(rational, gb.degree, window)
    lap("oracle")
    target_reports = {}
    for lam in targets:
        res = results[lam] if lam in results else cancel_interval(pres, lam, cfg, gb, path_cap)
        target_reports[",".join(map(str, lam))] = {
            "morse_numbers": {str(k): v for k, v in res.morse_numbers().items()},
            "survivors": sorted(list(c.facet.labels) for c in res.survivors if not c.is_base),
        }
    lap("face_level")
    return {
        "checks": checks,
        "ok": all(checks.values()),
        "details": details,
        "targets": target_reports,
    }


