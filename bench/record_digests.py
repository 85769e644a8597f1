"""Record the payload digests of every workload's fixed jobs.

    python3 bench/record_digests.py

Run it only when a change to the engine is meant to change its reports; the
benchmark's checks then hold later commits to the new outputs.
"""

from __future__ import annotations

import json
import sys

from checks import DIGESTS, digest_key, payload_digest
from run import SRC, OUT, import_package
from workloads import WORKLOADS, build_jobs, run_cli, run_labels, write_inputs


def main() -> int:
    sys.path.insert(0, str(SRC))
    mg = import_package()
    digests = {}
    for workload in sorted(WORKLOADS):
        jobs = build_jobs(workload, 0)
        paths = write_inputs(jobs, OUT / "inputs" / workload)
        for job, path in zip(jobs, paths):
            if job.pinned:
                result = run_cli(mg, job, path) if job.argv else run_labels(mg, job)
                digests[digest_key(workload, job)] = payload_digest(job, result)
                print(digest_key(workload, job), digests[digest_key(workload, job)][:12])
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
