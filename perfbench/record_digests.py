"""Record the sha256 of every job's stdout at the default seed.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json, which run.py compares against whenever it
runs with the default seed. Record only from a commit whose CLI output is
the reference: the digests pin stdout byte for byte.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run


def main() -> int:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    recorded = {}
    for workload in run.inputs.WORKLOADS:
        workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
        try:
            run.fresh_setup(workload, run.inputs.DEFAULT_SEED, workdir)
            cli = sys.modules["sqk.cli"]
            recorded[workload] = {}
            for job in run.inputs.jobs(workload, workdir):
                code, out = cli.run(list(job.argv))
                problem = run.oracle.check(job, code, out)
                if problem is not None:
                    print(f"{workload} {job.id}: {problem}", file=sys.stderr)
                    return 1
                recorded[workload][job.id] = run.oracle.digest(out)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
