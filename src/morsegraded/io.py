"""Input documents, run configuration, and deterministic serialization.

One wire format: JSON with multidegrees and monomials as plain integer
arrays.  Reports serialize with sorted keys and canonical list orders so
identical configurations produce byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import isqrt

from . import __version__
from .errors import ParseError, ValidationError
from .groebner import Binomial, GroebnerBasis, verify_groebner
from .orders import TermOrder
from .semigroup import SemigroupPresentation, Vector

COMMANDS = (
    "gb",
    "interval",
    "chains",
    "morse",
    "cancel",
    "betti",
    "automaton",
    "series",
    "verify-bounds",
    "full",
)


@dataclass
class InputDocument:
    presentation: SemigroupPresentation
    order: TermOrder
    supplied_basis: GroebnerBasis | None
    targets: tuple[Vector, ...]

    @property
    def dimension(self) -> int:
        return self.presentation.dimension


def _integers(value, what: str) -> tuple[int, ...]:
    """A JSON array of integers as a tuple; anything else is a ParseError."""
    if not isinstance(value, list) or not all(type(c) is int for c in value):
        raise ParseError(f"{what} must be an array of integers, got {value!r}")
    return tuple(value)


def parse_input(text: str) -> InputDocument:
    """Validated input document; a supplied basis is re-verified, not trusted."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("input document must be a JSON object")
    try:
        dimension = doc["dimension"]
        generators = doc["generators"]
    except KeyError as exc:
        raise ParseError(f"missing required field {exc}") from exc
    if type(dimension) is not int:
        raise ParseError(f"dimension must be an integer, got {dimension!r}")
    if not isinstance(generators, list) or not generators:
        raise ParseError("generators must be a nonempty list of integer vectors")
    try:
        pres = SemigroupPresentation(dimension, [_integers(g, "a generator") for g in generators])
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc
    term_order = doc.get("term_order")
    if term_order is not None and not isinstance(term_order, dict):
        raise ParseError(f"term_order must be an object, got {term_order!r}")
    try:
        order = TermOrder.from_json(pres.n, term_order)
    except (TypeError, ValueError, ValidationError) as exc:
        raise ParseError(f"bad term_order: {exc}") from exc
    basis = None
    if doc.get("groebner_basis") is not None:
        if not isinstance(doc["groebner_basis"], list):
            raise ParseError("groebner_basis must be a list of binomials")
        elements = []
        for entry in doc["groebner_basis"]:
            if not isinstance(entry, dict) or "plus" not in entry or "minus" not in entry:
                raise ParseError(f"bad basis element {entry!r}")
            plus = _integers(entry["plus"], "a basis exponent vector")
            minus = _integers(entry["minus"], "a basis exponent vector")
            if len(plus) != pres.n or len(minus) != pres.n:
                raise ParseError("basis exponent vectors must have one entry per generator")
            elements.append(Binomial(plus, minus))
        basis = GroebnerBasis(order, tuple(elements))
        verify_groebner(basis, pres, basis.degree)
    raw_targets = doc.get("targets", [])
    if not isinstance(raw_targets, list):
        raise ParseError("targets must be a list of integer vectors")
    targets = tuple(_integers(t, "a target") for t in raw_targets)
    for t in targets:
        if len(t) != dimension:
            raise ParseError(f"target {t} has wrong dimension")
        if not pres.member(t):
            raise ParseError(f"target {t} is not in the semigroup")
    return InputDocument(pres, order, basis, targets)


@dataclass
class RunConfig:
    input_path: str
    command: str
    degree_window: int = 4
    characteristics: tuple[int, ...] = (0, 2, 3)
    path_cap: int = 10_000
    state_budget: int = 1_000_000
    output_format: str = "json"
    out_path: str | None = None
    timing: bool = False

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValidationError(f"unknown command {self.command!r}")
        if self.degree_window < 1:
            raise ValidationError("degree window must be >= 1")
        if self.path_cap <= 0 or self.state_budget <= 0:
            raise ValidationError("caps must be positive")
        if self.output_format not in ("json", "tsv"):
            raise ValidationError("format must be json or tsv")
        if self.output_format == "tsv" and self.command != "betti":
            raise ValidationError("--format tsv is only available for the betti command")
        if not self.characteristics:
            raise ValidationError("at least one field characteristic is required")
        if len(set(self.characteristics)) != len(self.characteristics):
            raise ValidationError(
                f"field characteristics {list(self.characteristics)} repeat a field"
            )
        for p in self.characteristics:
            if p != 0 and not _is_prime(p):
                raise ValidationError(
                    f"field characteristic {p} is neither 0 nor a prime below 2^31"
                )

    def echo(self) -> dict:
        return {
            "input": self.input_path,
            "command": self.command,
            "degree_window": self.degree_window,
            "fields": list(self.characteristics),
            "path_cap": self.path_cap,
            "state_budget": self.state_budget,
            "format": self.output_format,
        }


MAX_CHARACTERISTIC = 2**31  # keeps the trial division below 46,341 steps


def _is_prime(p: int) -> bool:
    return 2 <= p < MAX_CHARACTERISTIC and all(p % q for q in range(2, isqrt(p) + 1))


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "), indent=1)


def report_envelope(cfg: RunConfig, payload: dict, elapsed_ms: int | None) -> dict:
    return {
        "config": cfg.echo(),
        "version": __version__,
        "timing_ms": elapsed_ms if cfg.timing else None,
        "report": payload,
    }


def betti_tsv(rows) -> str:
    """Tor table as TSV: one row per multidegree, one column per index."""
    by_lam: dict[tuple, dict[int, int]] = {}
    top = 0
    for lam, i, rank in rows:
        by_lam.setdefault(tuple(lam), {})[i] = rank
        top = max(top, i)
    lines = ["multidegree\t" + "\t".join(f"i={i}" for i in range(top + 1))]
    for lam in sorted(by_lam):
        cells = [str(by_lam[lam].get(i, 0)) for i in range(top + 1)]
        lines.append(",".join(map(str, lam)) + "\t" + "\t".join(cells))
    return "\n".join(lines) + "\n"
