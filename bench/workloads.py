"""The four workloads: their fixed inputs, the seeded sampler, and job runners.

Each workload is a list of jobs.  A job is one JSON input document plus what
to do with it: a `morsegraded` CLI command line, or the label-level library
calls of the `labels` workload.  The program only ever sees the JSON text.

Every workload has a fixed part, whose outputs are pinned by digests in
`digests.json`, and a small seeded part drawn by `Sampler` from the run's
seed.  The seeded part is sized so that it stays well below the fixed part
in cost: the fixed part then sets each end-to-end figure, and the seed only
varies which inputs the program sees.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

INPUTS = Path(__file__).resolve().parent / "inputs"
FIXTURES = ("squares", "pair_swap", "minor", "cyclic_split3")
FIELDS = ("--field", "0", "--field", "2", "--field", "3")
LABEL_DEGREE = 6

# Deep intervals of the `faces` workload: 20k-37k faces each at seed.
DEEP_TARGETS = {
    "squares": [5, 5, 1, 1],
    "pair_swap": [4, 4, 1, 1, 1],
    "cyclic_split3": [3, 3, 2, 2, 2, 2],
}


@dataclass(frozen=True)
class Job:
    """One unit of work: a JSON document and the command that consumes it.

    `argv` is the CLI command line without `--input`; an empty `argv` marks
    a label-level library job.  `pinned` names the fixed jobs whose output
    must reproduce the digest recorded for `name`; `focus` narrows the
    digest of a `cancel` report to the entry of that multidegree.
    """

    name: str
    text: str
    argv: tuple[str, ...] = ()
    pinned: bool = False
    focus: tuple[int, ...] | None = None

    @property
    def command(self) -> str:
        return self.argv[self.argv.index("--command") + 1] if self.argv else "labels"


class Sampler:
    """The benchmark's own seeded input generator.

    Rings are drawn from the degree-2 monomials in 3 or 4 variables, so every
    sample is a standard-graded presentation whose generators are distinct
    atoms: no draw is rejected, and a seeded job that fails counts as a
    failure rather than being redrawn.
    """

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"morsegraded-bench/{workload}/{seed}")

    def ring(self, generators: int) -> dict:
        dim = self.rng.choice((3, 4))
        monomials = [
            [int(k == i) + int(k == j) for k in range(dim)]
            for i in range(dim)
            for j in range(i, dim)
        ]
        return {"dimension": dim, "generators": self.rng.sample(monomials, generators)}

    def target(self, generators: list[list[int]], size: int) -> list[int]:
        picks = [self.rng.randrange(len(generators)) for _ in range(size)]
        return [sum(generators[i][c] for i in picks) for c in range(len(generators[0]))]


def _fixture(name: str) -> str:
    return (INPUTS / f"{name}.json").read_text(encoding="utf-8")


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


def _full(sampler: Sampler) -> list[Job]:
    argv = ("--command", "full", "--degree-window", "5") + FIELDS
    # One 4-generator ring (0.2-0.4 s): with five jobs the median job is
    # squares whatever the seed.
    return [Job(name, _fixture(name), argv, pinned=True) for name in FIXTURES] + [
        Job("seeded0", _dump(sampler.ring(4)), argv)
    ]


def known_defects() -> list[Job]:
    """Inputs on which `full` is known to fail (`language_equals_survivors`).

    A timed pass holds only jobs that pass, so that a run's failure count does
    not hang on how many passes fit into it.  These are run once per `full`
    run, after the passes, and their outcome is printed, so the defects stay
    in view and a fix shows.
    """
    argv = ("--command", "full", "--degree-window", "5") + FIELDS
    return [Job(name, _fixture(name), argv) for name in ("skew2d", "ring5_seed22")]


def _oracle(sampler: Sampler) -> list[Job]:
    betti = ("--command", "betti", "--degree-window", "5") + FIELDS
    bounds = ("--command", "verify-bounds", "--degree-window", "6") + FIELDS
    jobs = [Job(f"betti/{name}", _fixture(name), betti, pinned=True) for name in FIXTURES]
    # 4-generator rings (0.2-0.5 s) stay below every fixed job but betti/minor;
    # with nine jobs the median job is verify-bounds/minor whatever the seed.
    for k in range(3):
        jobs.append(Job(f"betti/seeded{k}", _dump(sampler.ring(4)), betti))
    for name in ("squares", "minor"):
        jobs.append(Job(f"verify-bounds/{name}", _fixture(name), bounds, pinned=True))
    return jobs


def _faces(sampler: Sampler) -> list[Job]:
    argv = ("--command", "cancel", "--degree-window", "7")
    jobs = []
    for name, deep in DEEP_TARGETS.items():
        ring = json.loads(_fixture(name))
        gens = ring["generators"]
        # Sums of six generators cost 0.01-0.25 s each; sums of seven swing
        # between 0.4 s and 2.1 s and would let the seed set faces.wall_s.
        extra = [sampler.target(gens, 6) for _ in range(2)]
        doc = {"dimension": ring["dimension"], "generators": gens, "targets": [deep] + extra}
        jobs.append(Job(name, _dump(doc), argv, pinned=True, focus=tuple(deep)))
    return jobs


def _labels(sampler: Sampler) -> list[Job]:
    # One 4-generator ring (0.2-0.5 s): with five jobs the median job is
    # squares whatever the seed.  Label-level cost on 5-generator rings ranges
    # from 0.7 s to 5.6 s, more than the whole fixed part varies.
    return [Job(name, _fixture(name), pinned=True) for name in FIXTURES] + [
        Job("seeded0", _dump(sampler.ring(4)))
    ]


WORKLOADS = {"full": _full, "oracle": _oracle, "faces": _faces, "labels": _labels}


def build_jobs(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](Sampler(workload, seed))


def write_inputs(jobs: list[Job], directory: Path) -> list[Path]:
    """Write each job's document where the CLI can read it."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, job in enumerate(jobs):
        path = directory / f"job{k}.json"
        path.write_text(job.text, encoding="utf-8")
        paths.append(path)
    return paths


# -- running one job ------------------------------------------------------------


def run_cli(mg, job: Job, path: Path) -> dict:
    """Run one CLI command in-process; returns the parsed report payload."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mg.cli.main(["--input", str(path), *job.argv])
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())["report"]


def run_labels(mg, job: Job) -> dict:
    """Label-level library calls: fiber survivors, classes, automaton, series."""
    doc = mg.parse_input(job.text)
    pres, order = doc.presentation, doc.order
    cfg = mg.FacetOrderConfig(order)
    gb = doc.supplied_basis or mg.groebner_for(pres, order, mg.default_cap(pres, LABEL_DEGREE))
    by_content = mg.survivor_words_by_content(pres, gb, cfg, LABEL_DEGREE)
    quadratic = gb.degree <= 2
    classes = {}
    if quadratic:
        classes = {c: mg.commutation_classes(gb, cfg, c) for c in by_content}
        auto = mg.build_quadratic_automaton(gb, cfg)
    else:
        auto = mg.build_degree_d_automaton(gb, cfg)
    words = auto.words_up_to(LABEL_DEGREE)
    series = mg.rational_series(auto)
    return {
        "quadratic": quadratic,
        "survivors": {
            ",".join(map(str, c)): [list(w) for w in ws] for c, ws in by_content.items()
        },
        "classes": {
            ",".join(map(str, c)): [[list(k.representative), k.size] for k in ks]
            for c, ks in classes.items()
        },
        "automaton": auto.to_json(),
        "words": {str(k): [list(w) for w in ws] for k, ws in words.items()},
        "series": [list(series.numerator), list(series.denominator)],
    }
