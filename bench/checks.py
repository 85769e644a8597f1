"""Output checks, run after a pass and outside every timed span.

Fixed jobs must reproduce the digest of their mathematical payload recorded
in `digests.json` (the config echo and timing are not part of the payload).
Every job, fixed or seeded, is also held to invariants read off its own
report, so a seeded input is checked even though no reference exists for it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def digest_key(workload: str, job) -> str:
    return f"{workload}/{job.name}"


def payload_digest(job, result: dict) -> str:
    payload = result
    if job.focus is not None:
        payload = [e for e in result["cancellation"] if tuple(e["multidegree"]) == job.focus]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _universal_coefficients(tor: dict) -> list[str]:
    """b_Q <= b_Fp in every index, with equal Euler characteristic per multidegree."""
    tables: dict[str, dict[tuple, dict[int, int]]] = {}
    for char, rows in tor.items():
        table = tables.setdefault(char, {})
        for row in rows:
            table.setdefault(tuple(row["multidegree"]), {})[row["i"]] = row["rank"]
    rational = tables.get("0", {})
    problems = []
    for char, table in tables.items():
        if char == "0":
            continue
        for lam in sorted(set(rational) | set(table)):
            q, p = rational.get(lam, {}), table.get(lam, {})
            if any(q.get(i, 0) > p.get(i, 0) for i in set(q) | set(p)):
                problems.append(f"b_Q > b_F{char} at {list(lam)}")
            euler_q = sum((-1) ** i * r for i, r in q.items())
            euler_p = sum((-1) ** i * r for i, r in p.items())
            if euler_q != euler_p:
                problems.append(f"Euler characteristic over Q and F{char} differ at {list(lam)}")
    return problems


def _labels(result: dict) -> list[str]:
    accepted = {tuple(w) for ws in result["words"].values() for w in ws}
    survivors = {tuple(reversed(w)) for ws in result["survivors"].values() for w in ws}
    problems = []
    if accepted != survivors:
        problems.append(
            f"automaton words != survivors ({len(accepted - survivors)} extra, "
            f"{len(survivors - accepted)} missing)"
        )
    if result["quadratic"]:
        for content, words in result["survivors"].items():
            if len(result["classes"][content]) != len(words):
                problems.append(f"class bijection fails for content {content}")
    return problems


def check_job(job, result: dict) -> list[str]:
    """Problems the report shows about itself; empty when the job passed."""
    command = job.command
    if command == "full":
        failing = sorted(k for k, ok in result["checks"].items() if not ok)
        return [] if result["ok"] else [f"ok: false ({', '.join(failing)})"]
    if command == "betti":
        return _universal_coefficients(result["tor"])
    if command == "verify-bounds":
        vanishing = result["vanishing"]
        return [] if vanishing["ok"] and not vanishing["violations"] else ["vanishing bound violated"]
    if command == "cancel":
        return [
            f"pair {p['high']} / {p['low']} at {e['multidegree']} has {p['paths']} paths"
            for e in result["cancellation"]
            for p in e["matched_pairs"]
            if p["paths"] != 1
        ]
    return _labels(result)
