"""Spans around the public layer-boundary functions of `morsegraded`.

`Tracer.install` replaces each boundary function, by identity, in every
`morsegraded.*` namespace that holds it (and patches boundary methods on
their class), so calls between modules are recorded without touching the
package.  Hot leaf helpers (`member`, `vec_add`, `FaceMatching.dim`, term
order comparisons, label-word predicates) stay unwrapped: they run millions
of times and their time lands in the self time of the boundary that calls
them.  A layer is a package module; its self time is the time of its spans
minus the time of their child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _interval(counts, spans, span, args, result):
    pres, mu, lam = args[0], args[1], args[2]
    counts["semigroup.interval_calls"] += 1
    counts.setdefault("_intervals", set()).add((pres.generators, mu, lam))


def _relations(counts, spans, span, args, result):
    counts["groebner.relations"] += len(result)


def _basis(counts, spans, span, args, result):
    counts["groebner.basis_elements"] += len(result.elements)


def _crossing(counts, spans, span, args, result):
    counts["chains.crossing_s"] += span[3] - span[2]


def _ordered_facets(counts, spans, span, args, result):
    counts["chains.ordered_facets_calls"] += 1


def _face_matching(counts, spans, span, args, result):
    counts["morse.faces"] += len(result.owner)
    counts["morse.critical_cells"] += len(result.critical)


def _verify_acyclic(counts, spans, span, args, result):
    counts["morse.verify_acyclic_calls"] += 1


def _cancel_cells(counts, spans, span, args, result):
    counts["cancellation.pairs"] += len(result.pairs)
    counts["_theorem_pairs"] += sum(p.theorem_status == "unique-by-theorem" for p in result.pairs)
    counts["cancellation.notes"] += len(result.notes)


def _path_search(counts, spans, span, args, result):
    counts["cancellation.path_searches"] += 1


def _fallback(counts, spans, span, args, result):
    counts["cancellation.fallbacks"] += 1


def _order_complex(counts, spans, span, args, result):
    counts["homology.order_complex_calls"] += 1
    counts["homology.faces"] += sum(len(fs) for fs in result.faces)


def _boundary_matrix(counts, spans, span, args, result):
    counts["homology.boundary_matrix_calls"] += 1


def _rank(counts, spans, span, args, result):
    counts[RANK_FIELDS[args[1]]] += span[3] - span[2]


def _betti(counts, spans, span, args, result):
    # a rational Betti computation directly under verify_vanishing is a
    # multidegree the prime fields could not certify
    parent = span[4]
    if parent >= 0 and spans[parent][1] == "verify_vanishing" and args[1] == 0:
        counts["_rational_direct"] += 1


def _vanishing(counts, spans, span, args, result):
    if 0 in result["characteristics"]:
        counts["_rational_multidegrees"] += result["multidegrees"]


def _resolution(counts, spans, span, args, result):
    counts["resolution.critical_cells"] += len(result.critical)


def _automaton(counts, spans, span, args, result):
    counts["automaton.states"] += len(result.states)


def _classes(counts, spans, span, args, result):
    counts["automaton.classes"] += len(result)


# (layer, module, function or Class.method, hook run on the result)
BOUNDARIES = (
    ("semigroup", "semigroup", "SemigroupPresentation.interval", _interval),
    ("semigroup", "semigroup", "SemigroupPresentation.factorizations", None),
    ("semigroup", "semigroup", "SemigroupPresentation.degree_window", None),
    ("groebner", "groebner", "toric_ideal_basis", _relations),
    ("groebner", "groebner", "buchberger", _basis),
    ("groebner", "groebner", "verify_groebner", None),
    ("chains", "chains", "saturated_chains", None),
    ("chains", "chains", "ordered_facets", _ordered_facets),
    ("chains", "chains", "check_crossing_condition", _crossing),
    ("morse", "morse", "build_face_matching", _face_matching),
    ("morse", "morse", "verify_acyclic", _verify_acyclic),
    ("morse", "morse", "direct_interval_system", None),
    ("morse", "morse", "msi_characterization", None),
    ("cancellation", "cancellation", "cancel_interval", None),
    ("cancellation", "cancellation", "cancel_cells", _cancel_cells),
    ("cancellation", "cancellation", "enumerate_gradient_paths", _path_search),
    ("cancellation", "cancellation", "survivor_words_by_content", None),
    ("cancellation", "cancellation", "fiber_survivor_words", None),
    ("cancellation", "cancellation", "face_level_survivor_words", _fallback),
    ("homology", "homology", "order_complex", _order_complex),
    ("homology", "homology", "boundary_matrix", _boundary_matrix),
    ("homology", "homology", "matrix_rank", _rank),
    ("homology", "homology", "reduced_betti", _betti),
    ("homology", "homology", "tor_ranks", None),
    ("homology", "homology", "verify_vanishing", _vanishing),
    ("resolution", "resolution", "morse_boundary", _resolution),
    ("automaton", "automaton", "build_quadratic_automaton", _automaton),
    ("automaton", "automaton", "build_degree_d_automaton", _automaton),
    ("automaton", "automaton", "commutation_classes", _classes),
    ("automaton", "automaton", "rational_series", None),
    ("automaton", "automaton", "MorseAutomaton.words_up_to", None),
    ("automaton", "automaton", "MorseAutomaton.count_words", None),
    ("io", "io", "parse_input", None),
    ("io", "io", "canonical_json", None),
    ("io", "io", "report_envelope", None),
    ("pipeline", "pipeline", "full_consistency_suite", None),
    ("pipeline", "pipeline", "characterization_matches_direct", None),
    ("pipeline", "pipeline", "morse_vs_betti", None),
    ("pipeline", "pipeline", "sharpness_report", None),
    ("cli", "cli", "main", None),
    ("cli", "cli", "run_command", None),
)

LAYERS = (
    "semigroup",
    "groebner",
    "chains",
    "morse",
    "cancellation",
    "homology",
    "resolution",
    "automaton",
    "io",
    "pipeline",
    "cli",
)

COUNTS = (
    "semigroup.interval_calls",
    "chains.ordered_facets_calls",
    "morse.faces",
    "morse.critical_cells",
    "morse.verify_acyclic_calls",
    "cancellation.path_searches",
    "cancellation.pairs",
    "cancellation.fallbacks",
    "cancellation.notes",
    "homology.order_complex_calls",
    "homology.boundary_matrix_calls",
    "homology.faces",
    "resolution.critical_cells",
    "automaton.states",
    "automaton.classes",
    "groebner.basis_elements",
    "groebner.relations",
)

RANK_FIELDS = {0: "homology.rank_q_s", 2: "homology.rank_f2_s", 3: "homology.rank_f3_s"}


class Tracer:
    """Records (layer, name, start, end, parent) spans for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn, hook):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [layer, name, clock(), None, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, spans, span, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "morsegraded"]
        for layer, module, attr, hook in BOUNDARIES:
            owner = sys.modules[f"morsegraded.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(layer, meth, original, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, attr, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def summary(self, wall: float) -> dict[str, float]:
        """Self time per layer, the exact counts, and the unspanned remainder."""
        n = len(self.spans)
        child = [0.0] * n
        top_total = 0.0
        for layer, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                top_total += end - start
        selfs = dict.fromkeys(LAYERS, 0.0)
        for k, (layer, name, start, end, parent) in enumerate(self.spans):
            selfs[layer] += end - start - child[k]
        out = {f"{layer}.self_s": v for layer, v in selfs.items()}
        out["bench.self_s"] = wall - top_total
        c = self.counts
        for key in COUNTS:
            out[key] = c[key]
        calls = c["semigroup.interval_calls"]
        out["semigroup.interval_reuse"] = len(c.get("_intervals", ())) / calls if calls else 0.0
        out["chains.crossing_s"] = c["chains.crossing_s"]
        pairs = c["cancellation.pairs"]
        out["cancellation.theorem_share"] = c["_theorem_pairs"] / pairs if pairs else 0.0
        for key in RANK_FIELDS.values():
            out[key] = c[key]
        rational = c["_rational_multidegrees"]
        out["homology.rational_via_prime_share"] = (
            1 - c["_rational_direct"] / rational if rational else 0.0
        )
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: layer, function, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
