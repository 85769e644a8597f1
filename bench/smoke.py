"""Smoke check of the benchmark itself, on shrunken passes.

    python3 bench/smoke.py

For every workload it runs one shrunken untraced pass and two shrunken
traced passes, then checks that every metric declared in BENCHMARK.json is
printed by name with its declared unit (as a text line and in the final
JSON object), and that the per-layer counts repeat exactly between the two
traced runs.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run
from workloads import WORKLOADS, write_inputs

SPEC = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"smoke check failed: {message}")


def shrink(jobs):
    """The cheapest jobs of a workload: minor and the seeded part.

    `faces` has no cheap fixed job, so its documents keep only their seeded
    degree-6 targets and lose their pinned deep target.
    """
    out = []
    for job in jobs:
        if job.command == "cancel":
            doc = json.loads(job.text)
            doc["targets"] = doc["targets"][1:]
            out.append(dataclasses.replace(job, text=json.dumps(doc), pinned=False, focus=None))
        elif "minor" in job.name or "seeded0" in job.name:
            out.append(job)
    return out


def shrunken_run(workload: str, trace: bool) -> tuple[str, dict]:
    r = run.Run(workload, SEED, 0)
    r.jobs = shrink(r.jobs)
    r.paths = write_inputs(r.jobs, run.OUT / "smoke" / workload)
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        result = run.traced(r) if trace else run.untraced(r)
        print(json.dumps(result))
    return text.getvalue(), json.loads(text.getvalue().strip().splitlines()[-1])


def check_printed(workload: str, declared: list[dict], text: str, result: dict) -> None:
    lines = text.splitlines()
    require(
        set(result["metrics"]) == {m["name"] for m in declared},
        f"{workload}: metric names differ from BENCHMARK.json",
    )
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        require(result["metrics"][name]["unit"] == unit, f"{workload}: {name} is not in {unit}")
        require(
            any(line.split()[:1] == [name] and line.split()[2:3] == [unit] for line in lines),
            f"{workload}: no line prints {name} with unit {unit}",
        )
    require(result["attempted"] >= 1 and result["correct"], f"{workload}: {result}")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    for workload in sorted(WORKLOADS):
        text, result = shrunken_run(workload, trace=False)
        check_printed(workload, SPEC["end_to_end"], text, result)
        first_text, first = shrunken_run(workload, trace=True)
        check_printed(workload, SPEC["per_layer"], first_text, first)
        _, second = shrunken_run(workload, trace=True)
        counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
        for name in counts:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            require(a == b, f"{workload}: {name} changed between traced runs ({a} != {b})")
        print(f"{workload}: {len(SPEC['end_to_end'])} end-to-end and "
              f"{len(SPEC['per_layer'])} per-layer metrics printed; {len(counts)} counts repeat")
    return 0


if __name__ == "__main__":
    sys.exit(main())
