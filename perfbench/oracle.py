"""Correctness checks for one job's exit code and stdout.

Every fact checked here is independent of the labelling the seed chose:
group orders, orbit sizes, involution counts, verification verdicts, and
whether an isomorphism exists. Returned maps and involutions are re-checked
with plain loops over the .qnd files, never with sqk code. For the default
seed the stdout digest is compared as well.
"""

from __future__ import annotations

import hashlib
import re

# checks of one verify_decomposition report: C1-C6 and four psi checks
VERIFICATION_LINES = 10
# involutions re-checked in full per job; every listed one is checked for
# being a distinct involution
GOODNESS_SAMPLE = 64

_ORBIT = re.compile(r"^  orbit \d+: rep \d+, size (\d+): ([\d ]+)$", re.M)
_DEC_ORBIT = re.compile(r"^  i=\d+: q=\d+, orbit size (\d+), \|H\|=(\d+)$", re.M)
_PSI = re.compile(r"^  \S+ -> (\d+)$", re.M)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_qnd(path: str) -> tuple[list[list[int]], list[int] | None]:
    """Operation table and rho of a .qnd file."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.split("#", 1)[0].strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    n = int(lines[0].split()[1])
    op = [[int(v) for v in ln.split()] for ln in lines[1:1 + n]]
    rho = None
    if len(lines) > 1 + n and lines[1 + n].startswith("rho:"):
        rho = [int(v) for v in lines[1 + n][4:].split()]
    return op, rho


def _value(pattern: str, out: str) -> int | None:
    m = re.search(pattern, out, re.M)
    return int(m.group(1)) if m else None


def _check_orbits(out: str, sizes: tuple[int, ...]) -> str | None:
    found = _ORBIT.findall(out)
    if tuple(sorted(int(s) for s, _ in found)) != tuple(sorted(sizes)):
        return f"orbit sizes {[s for s, _ in found]}, expected {sizes}"
    points = sorted(int(p) for _, members in found for p in members.split())
    if points != list(range(sum(sizes))):
        return "orbits do not partition the points"
    return None


def _check_orbit_sizes(out: str, facts, argv) -> str | None:
    return _check_orbits(out, facts[0])


def _check_group(out: str, facts, argv) -> str | None:
    order, sizes = facts
    got = _value(r"^order: (\d+)$", out)
    if got != order:
        return f"group order {got}, expected {order}"
    return _check_orbits(out, sizes)


def _check_decompose(out: str, facts, argv) -> str | None:
    order, sizes = facts
    got = _value(r"^group order: (\d+)$", out)
    if got != order:
        return f"group order {got}, expected {order}"
    orbits = [(int(s), int(h)) for s, h in _DEC_ORBIT.findall(out)]
    if sorted(s for s, _ in orbits) != sorted(sizes):
        return f"orbit sizes {orbits}, expected {sizes}"
    if any(s * h != order for s, h in orbits):
        return "orbit size times stabilizer order is not the group order"
    psi = [int(v) for v in _PSI.findall(out)]
    if sorted(psi) != list(range(sum(sizes))):
        return "psi is not a bijection onto the points"
    verdicts = out.split("verification:\n", 1)[-1].split("result:", 1)[0].splitlines()
    if len(verdicts) != VERIFICATION_LINES or \
            not all(v.endswith(": pass") for v in verdicts):
        return "verification lines do not all read pass"
    if not out.endswith("result: ok\n"):
        return "result is not ok"
    return None


def _dual(op: list[list[int]]) -> list[list[int]]:
    n = len(op)
    dual = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            dual[op[a][b]][b] = a
    return dual


def _is_good_involution(op, dual, rho) -> bool:
    n = len(op)
    return (all(rho[rho[a]] == a for a in range(n))
            and all(rho[op[a][b]] == op[rho[a]][b] and op[a][rho[b]] == dual[a][b]
                    for a in range(n) for b in range(n)))


def _check_involutions(out: str, facts, argv) -> str | None:
    (count,) = facts
    got = _value(r"^count: (\d+)$", out)
    if got != count:
        return f"involution count {got}, expected {count}"
    rhos = [tuple(int(v) for v in m.split())
            for m in re.findall(r"\[([\d ]+)\]$", out, re.M)]
    if len(rhos) != count or len(set(rhos)) != count:
        return "listed involutions are not the counted number of distinct arrays"
    if not all(r[r[a]] == a for r in rhos for a in range(len(r))):
        return "a listed map is not an involution"
    op, _ = read_qnd(argv[1])
    dual = _dual(op)
    if not all(_is_good_involution(op, dual, r) for r in rhos[:GOODNESS_SAMPLE]):
        return "a listed involution is not good"
    return None


def _check_iso(out: str, facts, argv) -> str | None:
    (exists,) = facts
    if not exists:
        return None if out == "isomorphism: none\n" else "expected no isomorphism"
    m = re.match(r"isomorphism: \[([\d ]+)\]\n", out)
    if not m:
        return "no isomorphism printed"
    f = [int(v) for v in m.group(1).split()]
    (op1, rho1), (op2, rho2) = read_qnd(argv[1]), read_qnd(argv[2])
    n = len(op1)
    if len(op2) != n or sorted(f) != list(range(n)):
        return "isomorphism is not a bijection"
    if any(f[op1[a][b]] != op2[f[a]][f[b]] for a in range(n) for b in range(n)):
        return "isomorphism does not preserve the operation"
    if "--symmetric" in argv and any(f[rho1[a]] != rho2[f[a]] for a in range(n)):
        return "isomorphism does not commute with rho"
    return None


def _check_table(out: str, facts, argv) -> str | None:
    (n,) = facts
    expected = (f"order: {n}\nrack: yes\nquandle: yes\nkei: yes\n"
                "rho: present\ngood involution: yes\n")
    return None if out == expected else "check verdicts differ"


def _check_written(out: str, facts, argv) -> str | None:
    (header,) = facts
    if out:
        return "expected no stdout"
    with open(argv[argv.index("-o") + 1], encoding="utf-8") as fh:
        first = fh.readline().strip()
    return None if first == header else f"written file starts {first!r}"


def check(job, code: int, out: str, expected_digest: str | None = None) -> str | None:
    """None if the job's output is right, else the first thing wrong."""
    if code != job.code:
        return f"exit code {code}, expected {job.code}"
    if expected_digest is not None and digest(out) != expected_digest:
        return "stdout differs from the recorded digest"
    return _CHECKS[job.kind](out, job.facts, job.argv)


_CHECKS = {"decompose": _check_decompose, "group": _check_group,
           "orbits": _check_orbit_sizes, "involutions": _check_involutions,
           "iso": _check_iso, "check": _check_table, "wrote": _check_written}
