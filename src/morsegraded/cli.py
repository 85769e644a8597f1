"""Command line entry point: one input file, one command, one JSON report."""

from __future__ import annotations

import argparse
import sys
import time

from .automaton import build_degree_d_automaton, rational_series
from .chains import FacetOrderConfig, ordered_facets
from .errors import InternalInvariantError, MorsegradedError, ValidationError
from .groebner import groebner_for, verify_groebner
from .homology import tor_tables, verify_vanishing
from .io import (
    COMMANDS,
    InputDocument,
    RunConfig,
    betti_tsv,
    canonical_json,
    parse_input,
    report_envelope,
)
from .morse import build_face_matching
from .pipeline import cancel_interval, full_consistency_suite, sharpness_report


class _Parser(argparse.ArgumentParser):
    """A bad flag is a validation error: one error line and exit 1."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="morsegraded",
        description="Exact discrete Morse engine for affine semigroup posets",
    )
    parser.add_argument("--input", required=True, help="JSON input document")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--degree-window", type=int, default=4)
    parser.add_argument(
        "--field",
        type=int,
        action="append",
        help="field characteristic, repeatable (default: 0 2 3)",
    )
    parser.add_argument("--path-cap", type=int, default=10_000)
    parser.add_argument("--state-budget", type=int, default=1_000_000)
    parser.add_argument("--format", choices=("json", "tsv"), default="json")
    parser.add_argument("--out", default=None)
    parser.add_argument("--timing", action="store_true")
    return parser


# commands whose reports never read the Groebner basis
_BASIS_FREE = ("interval", "chains", "betti")


def _basis(doc: InputDocument, cfg: RunConfig):
    """The supplied basis, checked for the degree window (parsing checks it
    only up to its own degree), or the window's basis computed."""
    if doc.supplied_basis is not None:
        verify_groebner(doc.supplied_basis, doc.presentation, cfg.degree_window)
        return doc.supplied_basis
    return groebner_for(doc.presentation, doc.order, cfg.degree_window)


def _cells_json(cells) -> list[dict]:
    """Critical cells by dimension, then facet labels."""
    return [
        {
            "facet": list(c.facet.labels),
            "ranks": list(c.ranks),
            "dimension": c.dimension,
            "base": c.is_base,
        }
        for c in sorted(cells, key=lambda c: (c.dimension, c.facet.labels))
    ]


def _targets(doc: InputDocument, pres, cfg: RunConfig):
    if doc.targets:
        return list(doc.targets)
    window = pres.degree_window(cfg.degree_window)
    return sorted(window)


def run_command(cfg: RunConfig, text: str) -> tuple[dict, str | None]:
    """Dispatch one command; returns (report payload, optional tsv body)."""
    doc = parse_input(text)
    pres = doc.presentation
    fcfg = FacetOrderConfig(doc.order)
    gb = None if cfg.command in _BASIS_FREE else _basis(doc, cfg)
    zero = tuple([0] * pres.dimension)
    tsv = None
    if cfg.command == "gb":
        payload = {
            "degree": gb.degree,
            "elements": [
                {"plus": list(b.plus), "minus": list(b.minus)} for b in gb.elements
            ],
            "term_order": fcfg.order.to_json(),
        }
    elif cfg.command == "interval":
        entries = []
        for lam in _targets(doc, pres, cfg):
            ivl = pres.interval(zero, lam)
            entries.append(
                {
                    "multidegree": list(lam),
                    "elements": len(ivl),
                    "cover_edges": sum(len(r) for r in ivl.cover_edges),
                    "degree": pres.degree(lam),
                    "factorizations": [list(f) for f in pres.factorizations(lam)],
                }
            )
        payload = {"intervals": entries}
    elif cfg.command == "chains":
        entries = []
        for lam in _targets(doc, pres, cfg):
            facets = ordered_facets(pres.interval(zero, lam), fcfg)
            entries.append(
                {
                    "multidegree": list(lam),
                    "facets": [list(f.labels) for f in facets],
                }
            )
        payload = {"chains": entries}
    elif cfg.command == "morse":
        entries = []
        for lam in _targets(doc, pres, cfg):
            fm = build_face_matching(pres.interval(zero, lam), fcfg, gb)
            cells = []
            for j, facet in enumerate(fm.facets):
                system = [list(iv.span()) + [iv.kind] for iv in fm.systems[j]]
                if system:
                    cells.append({"facet": list(facet.labels), "system": system})
            entries.append(
                {
                    "multidegree": list(lam),
                    "interval_systems": cells,
                    "critical_cells": _cells_json(fm.cells()),
                }
            )
        payload = {"morse": entries}
    elif cfg.command == "cancel":
        entries = []
        for lam in _targets(doc, pres, cfg):
            res = cancel_interval(pres, lam, fcfg, gb, cfg.path_cap)
            entries.append(
                {
                    "multidegree": list(lam),
                    "morse_numbers": {str(k): v for k, v in res.morse_numbers().items()},
                    "survivors": _cells_json(res.survivors),
                    "matched_pairs": [
                        {
                            "high": list(p.high_labels),
                            "low": list(p.low_labels),
                            "rule": p.rule,
                            "paths": p.path_count,
                            "uniqueness": p.theorem_status,
                        }
                        for p in res.pairs
                    ],
                    "residual_low_cells": [
                        list(c.facet.labels) for c in res.residual_low_cells
                    ],
                }
            )
        payload = {"cancellation": entries}
    elif cfg.command == "betti":
        window = pres.degree_window(cfg.degree_window)
        tables = tor_tables(pres, window, cfg.characteristics)
        payload = {
            "tor": {
                str(char): [
                    {"multidegree": lam, "i": i, "rank": r} for lam, i, r in table.to_rows()
                ]
                for char, table in tables.items()
            }
        }
        tsv = betti_tsv(tables[cfg.characteristics[0]].to_rows())
    elif cfg.command == "automaton":
        auto = build_degree_d_automaton(gb, fcfg, cfg.state_budget)
        payload = {
            "automaton": auto.to_json(),
            "word_counts": auto.count_words(min(8, cfg.degree_window + 2)),
        }
    elif cfg.command == "series":
        auto = build_degree_d_automaton(gb, fcfg, cfg.state_budget)
        series = rational_series(auto, verify_len=min(8, cfg.degree_window + 2))
        payload = {
            "numerator": list(series.numerator),
            "denominator": list(series.denominator),
            "rendered": series.render(),
            "expansion": series.coefficients(cfg.degree_window + 3),
        }
    elif cfg.command == "verify-bounds":
        window = pres.degree_window(cfg.degree_window)
        tables = tor_tables(pres, window, cfg.characteristics)
        payload = {
            "vanishing": verify_vanishing(tables, gb.degree, window),
            "sharpness_witnesses": sharpness_report(
                tables[cfg.characteristics[0]], gb.degree, window
            ),
        }
    else:  # full
        payload = full_consistency_suite(
            pres,
            gb,
            fcfg,
            cfg.degree_window,
            cfg.characteristics,
            cfg.path_cap,
            cfg.state_budget,
            targets=doc.targets,
        )
    return payload, tsv


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = RunConfig(
            input_path=args.input,
            command=args.command,
            degree_window=args.degree_window,
            characteristics=tuple(args.field) if args.field else (0, 2, 3),
            path_cap=args.path_cap,
            state_budget=args.state_budget,
            output_format=args.format,
            out_path=args.out,
            timing=args.timing,
        )
        with open(args.input, encoding="utf-8") as handle:
            text = handle.read()
        start = time.monotonic()
        payload, tsv = run_command(cfg, text)
        elapsed = int((time.monotonic() - start) * 1000)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 2
    except MorsegradedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if cfg.output_format == "tsv":
        body = tsv
    else:
        body = canonical_json(report_envelope(cfg, payload, elapsed)) + "\n"
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8") as handle:
            handle.write(body)
    else:
        sys.stdout.write(body)
    return 0


if __name__ == "__main__":
    sys.exit(main())
