"""Record the golden report digests that tests/test_reports.py checks.

    PYTHONPATH=src python tests/record_report_digests.py

Run it only when a change to the engine is meant to change its reports;
the test then holds later commits to the new outputs.
"""

from __future__ import annotations

import json
import sys

from test_reports import CASES, DIGESTS, report_digest


def main() -> int:
    digests = {}
    for case in CASES:
        digests[case] = report_digest(case)
        print(case, digests[case]["exit"], digests[case]["stdout"][:12])
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
