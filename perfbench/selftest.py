"""Self-test of the correctness checks behind fail_frac.

    python3 perfbench/selftest.py

Runs a two-job pass on R_8 (decompose, and iso against a relabelled copy),
then the same pass three times with one output corrupted: a flipped stdout
byte, a wrong group order, and an iso map that is not a homomorphism. The
clean pass must have fail_frac 0; each corrupted pass must fail exactly the
corrupted job. Exits 1 if any of that does not hold.
"""

from __future__ import annotations

import os
import random
import shutil
import sys
import tempfile

import run
from inputs import Job, antipodal_table, closure_order, relabel


def _write(path: str, t) -> None:
    from sqk import fileio
    from sqk.quandle import quandle_from_table
    from sqk.symmetric import attach_involution

    S = attach_involution(quandle_from_table(t.op), t.rho)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(fileio.format_qnd(S))


def flip_byte(job, code, out):
    if job.kind != "decompose":
        return code, out
    mid = len(out) // 2
    return code, out[:mid] + chr(ord(out[mid]) ^ 1) + out[mid + 1:]


def wrong_order(job, code, out):
    if job.kind != "decompose":
        return code, out
    return code, out.replace("group order: 8\n", "group order: 9\n")


def broken_iso(job, code, out):
    if job.kind != "iso":
        return code, out
    head, rest = out.split("\n", 1)
    f = head[len("isomorphism: ["):-1].split()
    f[0], f[1] = f[1], f[0]
    return code, "isomorphism: [" + " ".join(f) + "]\n" + rest


def main() -> int:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from sqk import cli

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    try:
        r8 = antipodal_table(8)
        _write(os.path.join(workdir, "a.qnd"), r8)
        _write(os.path.join(workdir, "b.qnd"),
               relabel(r8, closure_order(r8.op, random.Random(1))))
        a, b = os.path.join(workdir, "a.qnd"), os.path.join(workdir, "b.qnd")
        jobs = [Job("decompose-R8", ("decompose", a), 0, "decompose", (8, (4, 4))),
                Job("iso-R8", ("iso", a, b, "--symmetric"), 0, "iso", (True,))]
        digests = {j.id: run.oracle.digest(cli.run(list(j.argv))[1]) for j in jobs}

        ok = True
        cases = (("clean", None, digests, set()),
                 ("flipped stdout byte", flip_byte, digests, {"decompose-R8"}),
                 ("wrong group order", wrong_order, {}, {"decompose-R8"}),
                 ("non-homomorphic iso map", broken_iso, {}, {"iso-R8"}))
        for name, corrupt, known, expected in cases:
            result = run.run_pass(cli, jobs, known, corrupt)
            failed = {job_id for job_id, _ in result.failures}
            fail_frac = len(result.failures) / len(result.times)
            good = failed == expected
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {name}: fail_frac {fail_frac:.2f}"
                  + "".join(f"; {job_id}: {why}" for job_id, why in result.failures))
        return 0 if ok else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
