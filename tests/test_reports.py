"""Golden digests of every CLI report on the tests/fixtures inputs.

Each command runs on each fixture at degree window 4, from inside the
fixtures directory so the echoed input path is the bare file name.  The
SHA-256 of stdout, the SHA-256 of stderr and the exit code must equal the
values in report_digests.json.  The deep cases run `cancel` at degree
window 7 on one large interval of a fixture ring each (20k-37k faces), a
document holding the fixture's generators and that one target.  A change
that is meant to alter a report re-records them with

    PYTHONPATH=src python tests/record_report_digests.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from morsegraded.cli import main
from morsegraded.io import COMMANDS

FIXTURES = Path(__file__).parent / "fixtures"
DIGESTS = Path(__file__).parent / "report_digests.json"
WINDOW = 4
DEEP_WINDOW = 7
DEEP_TARGETS = {
    "squares.json": (5, 5, 1, 1),
    "pair_swap.json": (4, 4, 1, 1, 1),
    "cyclic_split3.json": (3, 3, 2, 2, 2, 2),
}
CASES = [
    f"{path.name} {command}"
    for path in sorted(FIXTURES.glob("*.json"))
    for command in COMMANDS
] + [
    f"{name} cancel {','.join(map(str, target))}"
    for name, target in DEEP_TARGETS.items()
]


def _run(directory: Path, name: str, command: str, window: int) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["--input", name, "--command", command, "--degree-window", str(window)])
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def report_digest(case: str) -> dict:
    """Run one case; digest its stdout, stderr and exit code.

    A case is 'fixture command' at degree window 4, or 'fixture cancel
    target' for a deep case at degree window 7.
    """
    name, command, *target = case.split()
    if not target:
        code, out, err = _run(FIXTURES, name, command, WINDOW)
    else:
        ring = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
        doc = {
            "dimension": ring["dimension"],
            "generators": ring["generators"],
            "targets": [[int(c) for c in target[0].split(",")]],
        }
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / name).write_text(json.dumps(doc), encoding="utf-8")
            code, out, err = _run(Path(tmp), name, command, DEEP_WINDOW)
    return {
        "exit": code,
        "stdout": hashlib.sha256(out.encode()).hexdigest(),
        "stderr": hashlib.sha256(err.encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_every_case_is_recorded(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden_digest(case, golden):
    assert report_digest(case) == golden[case]
