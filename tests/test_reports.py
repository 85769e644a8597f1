"""Golden digests of every CLI report on the tests/fixtures inputs.

Each command runs on each fixture at degree window 4, from inside the
fixtures directory so the echoed input path is the bare file name.  The
SHA-256 of stdout, the SHA-256 of stderr and the exit code must equal the
values in report_digests.json.  A change that is meant to alter a report
re-records them with

    PYTHONPATH=src python tests/record_report_digests.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from morsegraded.cli import main
from morsegraded.io import COMMANDS

FIXTURES = Path(__file__).parent / "fixtures"
DIGESTS = Path(__file__).parent / "report_digests.json"
WINDOW = 4
CASES = [
    f"{path.name} {command}"
    for path in sorted(FIXTURES.glob("*.json"))
    for command in COMMANDS
]


def report_digest(case: str) -> dict:
    """Run one 'fixture command' case; digest its stdout, stderr and exit code."""
    name, command = case.split()
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(FIXTURES)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["--input", name, "--command", command, "--degree-window", str(WINDOW)])
    finally:
        os.chdir(cwd)
    return {
        "exit": code,
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_every_case_is_recorded(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden_digest(case, golden):
    assert report_digest(case) == golden[case]
