"""Closed-loop benchmark of the morsegraded engine.

    python3 bench/run.py --workload full --seed 1 --seconds 30 --trace 0

One process, one client, no threads: each job of the workload is fed its
JSON input document through the `morsegraded` CLI entry point (or, for the
`labels` workload, the label-level library calls), the next job starting
when the previous one returns.  A pass runs the whole job list; passes
repeat while the next one still fits in `--seconds`.  Every output is
checked after its pass, outside the timed region.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1`, untraced and traced passes alternate
and the object holds the per-layer metrics (see tracing.py).  Lines before it
name each metric with its unit for a human reader.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from checks import check_job, digest_key, load_digests, payload_digest
from tracing import Tracer
from workloads import WORKLOADS, build_jobs, known_defects, run_cli, run_labels, write_inputs

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 11
# Median time of reference_loop() on a 2-vCPU Xeon VM at 2.0 GHz; end-to-end
# times are reported at this reference speed (see speed_factor).
REFERENCE_S = 0.016

E2E_UNITS = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def reference_loop() -> float:
    """Seconds for a fixed integer loop that never touches the program."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - start


def speed_factor(before: float, after: float) -> float:
    """Scale that brings a time measured between two reference loops to the
    reference speed.

    Other tenants of a shared host slow every process on it by up to 80% for
    minutes at a time.  The loop slows with them, so scaling by it cancels
    most of that: over 30 passes of `full` the coefficient of variation of
    pass times was 18% raw and 6% scaled.
    """
    return REFERENCE_S / ((before + after) / 2)


def import_package():
    """A fresh import of morsegraded, as a new process would do it."""
    for name in [n for n in sys.modules if n.split(".")[0] == "morsegraded"]:
        del sys.modules[name]
    mg = importlib.import_module("morsegraded")
    importlib.import_module("morsegraded.cli")
    return mg


def setup(workload: str, seed: int):
    """One set-up at reference speed: fresh import plus the input documents."""
    before = reference_loop()
    start = time.perf_counter()
    mg = import_package()
    jobs = build_jobs(workload, seed)
    paths = write_inputs(jobs, OUT / "inputs" / workload)
    elapsed = time.perf_counter() - start
    return elapsed * speed_factor(before, reference_loop()), mg, jobs, paths


def run_pass(mg, jobs, paths):
    """Run every job once, a reference loop before and after each.

    Returns the per-job times, raw and at reference speed, and the outcomes.
    """
    raw, scaled, outcomes = [], [], []
    loop = reference_loop()
    for job, path in zip(jobs, paths):
        start = time.perf_counter()
        try:
            result, error = (run_cli(mg, job, path) if job.argv else run_labels(mg, job)), None
        except Exception as exc:  # a job that raises is a failed job, not a crash of the run
            result, error = None, f"{type(exc).__name__}: {exc}"
        raw.append(time.perf_counter() - start)
        outcomes.append((result, error))
        after = reference_loop()
        scaled.append(raw[-1] * speed_factor(loop, after))
        loop = after
    return raw, scaled, outcomes


def evaluate(workload: str, jobs, outcomes, digests) -> tuple[dict[str, list[str]], bool]:
    """Problems per failed job, and whether a pinned job missed its digest."""
    problems = {}
    mismatched = False
    for job, (result, error) in zip(jobs, outcomes):
        issues = [error] if error else []
        if result is not None:
            try:
                issues += check_job(job, result)
            except (KeyError, TypeError, ValueError) as exc:
                issues.append(f"malformed report: {type(exc).__name__}: {exc}")
        if job.pinned and (
            result is None or payload_digest(job, result) != digests[digest_key(workload, job)]
        ):
            issues.append("payload differs from the recorded digest")
            mismatched = True
        if issues:
            problems[job.name] = issues
    return problems, mismatched


class Run:
    """Everything one invocation measured and checked."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.digests = load_digests()
        self.setup_times = []
        for _ in range(SETUP_REPEATS):
            elapsed, self.mg, self.jobs, self.paths = setup(workload, seed)
            self.setup_times.append(elapsed)
        self.attempted = 0
        self.failed = 0
        self.mismatched = False
        self.problems: dict[str, list[str]] = {}

    def one_pass(self, tracer: Tracer | None = None):
        if tracer is not None:
            tracer.install()
        try:
            raw, scaled, outcomes = run_pass(self.mg, self.jobs, self.paths)
        finally:
            if tracer is not None:
                tracer.uninstall()
        problems, mismatched = evaluate(self.workload, self.jobs, outcomes, self.digests)
        self.attempted += len(self.jobs)
        self.failed += len(problems)
        self.mismatched |= mismatched
        for name, issues in problems.items():
            self.problems.setdefault(name, issues)
        return raw, scaled

    def measure(self, kinds):
        """Cycle through pass kinds until the next pass would overrun."""
        start = time.perf_counter()
        done = {kind: [] for kind in kinds}
        longest = 0.0
        k = 0
        while k < len(kinds) or time.perf_counter() - start + longest <= self.seconds:
            kind = kinds[k % len(kinds)]
            tracer = Tracer() if kind == "traced" else None
            began = time.perf_counter()
            raw, scaled = self.one_pass(tracer)
            longest = max(longest, time.perf_counter() - began)
            done[kind].append((raw, scaled, tracer))
            k += 1
        return done

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        return {
            "correct": not self.mismatched,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def untraced(run: Run) -> dict:
    passes = run.measure(["plain"])["plain"]
    per_job = [statistics.median(scaled[k] for _, scaled, _ in passes) for k in range(len(run.jobs))]
    values = {
        "wall_s": statistics.median(sum(scaled) for _, scaled, _ in passes),
        "job_p50_s": statistics.median(s for _, scaled, _ in passes for s in scaled),
        "job_tail_s": max(per_job),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(run.setup_times),
    }
    raw_wall = statistics.median(sum(raw) for raw, _, _ in passes)
    print(f"{run.workload} seed {run.seed}: {len(passes)} passes of {len(run.jobs)} jobs")
    for job, seconds in zip(run.jobs, per_job):
        print(f"  job {job.name}: median {seconds:.4f} s")
    print(f"failed_share {run.failed / run.attempted:.4f} share ({run.failed} of {run.attempted} jobs)")
    print(f"raw_wall_s {raw_wall:.6g} s (unscaled; host speed {values['wall_s'] / raw_wall:.3f} of reference)")
    for name, value in values.items():
        note = f"  (p100: slowest of {len(per_job)} jobs, median of {len(passes)} passes)" if name == "job_tail_s" else ""
        print(f"{name} {value:.6g} {E2E_UNITS[name]}{note}")
    return run.result({k: (v, E2E_UNITS[k]) for k, v in values.items()})


def traced(run: Run) -> dict:
    passes = run.measure(["plain", "traced"])
    # Per-layer figures are raw seconds from the fastest traced pass, so that
    # with bench.self_s they add up to trace.wall_s; counts must agree
    # between traced passes.
    raw, _, tracer = min(passes["traced"], key=lambda p: sum(p[0]))
    wall = sum(raw)
    summary = tracer.summary(wall)
    others = [t.summary(sum(r)) for r, _, t in passes["traced"]]
    repeat = all(s[k] == summary[k] for s in others for k in s if not k.endswith("_s"))
    metrics = {}
    for key, value in summary.items():
        unit = "s" if key.endswith("_s") else ("share" if key.endswith(("_share", "_reuse")) else "count")
        metrics[key] = (value, unit)
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - min(sum(r) for r, _, _ in passes["plain"]), "s")
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"trace-{run.workload}-{run.seed}"
    tracer.write(stem.with_suffix(".spans.jsonl"))
    stem.with_suffix(".json").write_text(
        json.dumps({k: v for k, (v, _) in metrics.items()}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"{run.workload} seed {run.seed}: {len(passes['traced'])} traced passes, counts repeat: {repeat}")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    return run.result(metrics)


def report_known_defects(run: Run) -> None:
    """Run each known-defect input of `full` once, untimed and uncounted,
    and print whether it still fails."""
    jobs = known_defects()
    paths = write_inputs(jobs, OUT / "inputs" / "known-defects")
    for job, path in zip(jobs, paths):
        try:
            issues = check_job(job, run_cli(run.mg, job, path))
        except Exception as exc:  # reported like any other failure of this input
            issues = [f"{type(exc).__name__}: {exc}"]
        state = f"still fails: {'; '.join(issues)}" if issues else "passes now"
        print(f"known defect {run.workload}/{job.name}: {state}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "morsegraded" / "__init__.py").is_file():
        # never fall back to an installed copy: the checkout is what is measured
        print(f"error: no morsegraded package under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    run = Run(args.workload, args.seed, args.seconds)
    result = traced(run) if args.trace else untraced(run)
    if args.workload == "full":
        report_known_defects(run)
    for name, issues in sorted(run.problems.items()):
        print(f"failed {run.workload}/{name}: {'; '.join(issues)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
