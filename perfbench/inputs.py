"""Seeded inputs and job lists for the three workloads.

Every input is an isomorphic copy of a standard object: an antipodal
dihedral quandle R_n, a transposition quandle T_m (not in the catalog), or
a catalog conjugation or trivial quandle. The seed picks the copy; the
program only ever sees the written .qnd files.

`generate` imports sqk inside the function so that set-up can be timed
from a fresh import.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import combinations

DEFAULT_SEED = 0
WORKLOADS = ("decompose", "search", "roundtrip")

# Relabelled copies of each `aut` instance in one search pass. The search
# cost of one copy depends on its labelling; summing over several copies
# keeps a pass steady from seed to seed.
SEARCH_COPIES = 16


@dataclass(frozen=True)
class Job:
    """One CLI call and the facts its output must show (see oracle.py)."""
    id: str
    argv: tuple[str, ...]
    code: int               # expected exit code
    kind: str               # oracle check to apply
    facts: tuple = ()


@dataclass(frozen=True)
class Table:
    """A symmetric quandle as plain tuples: op[a][b] = a*b, and rho."""
    op: tuple[tuple[int, ...], ...]
    rho: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.op)


def transposition_table(m: int) -> Table:
    """T_m: the transpositions of S_m under conjugation, rho = identity."""
    points = list(combinations(range(m), 2))
    index = {p: k for k, p in enumerate(points)}

    def conj(a, b):
        k, l = b
        swap = {k: l, l: k}
        i, j = (swap.get(x, x) for x in a)
        return index[(min(i, j), max(i, j))]

    op = tuple(tuple(conj(a, b) for b in points) for a in points)
    return Table(op, tuple(range(len(points))))


def closure_order(op, rng: random.Random) -> list[int]:
    """New label of each element: elements are numbered in the order a
    closure enumeration reaches them from randomly chosen generators, with
    random tie-breaking. Uniformly random labels are avoided on purpose:
    they make the backtracking searches swing by 10-100x from copy to copy
    (see README.md)."""
    n = len(op)
    order: list[int] = []
    seen: set[int] = set()
    reached: set[int] = set()   # products of labelled elements, not yet labelled
    while len(order) < n:
        pool = sorted(reached) or [x for x in range(n) if x not in seen]
        x = rng.choice(pool)
        order.append(x)
        seen.add(x)
        for y in order:
            reached.update((op[x][y], op[y][x]))
        reached -= seen
    label = [0] * n
    for new, old in enumerate(order):
        label[old] = new
    return label


def relabel(t: Table, label: list[int]) -> Table:
    n = t.n
    op = [[0] * n for _ in range(n)]
    rho = [0] * n
    for a in range(n):
        rho[label[a]] = label[t.rho[a]]
        for b in range(n):
            op[label[a]][label[b]] = label[t.op[a][b]]
    return Table(tuple(map(tuple, op)), tuple(rho))


def _conj_d12_other_rho(rho: tuple[int, ...]) -> tuple[int, ...]:
    """A second good involution of Conj(D_12): rotations r^k with 3 not
    dividing k go to r^(6-k) instead of r^-k. It fixes 14 points, as
    inversion does, but (Conj(D_12), inversion) and (Conj(D_12), this) are
    not isomorphic, so the search has to exhaust the candidates."""
    return tuple((6 - x) % 12 if x < 12 and x % 3 else rho[x]
                 for x in range(24))


def antipodal_table(n: int) -> Table:
    """R_n (a*b = 2b - a mod n) with rho(x) = x + n/2, for even n."""
    op = tuple(tuple((2 * b - a) % n for b in range(n)) for a in range(n))
    return Table(op, tuple((x + n // 2) % n for x in range(n)))


def _source(name: str) -> Table:
    """Source object of an input, in its standard labelling. R_n and T_m
    are written out here; the rest comes from the catalog."""
    from sqk import catalog

    if name == "TRIV10":
        return Table(catalog.trivial_quandle(10).op, tuple(range(10)))
    if name[0] == "R":
        return antipodal_table(int(name[1:]))
    if name[0] == "T":
        return transposition_table(int(name[1:]))
    groups = {"CS4": lambda: catalog.symmetric_group(4),
              "CD6": lambda: catalog.dihedral_group(6),
              "CD12": lambda: catalog.dihedral_group(12)}
    S = catalog.conj_symmetric_quandle(groups[name.rstrip("x")]())
    rho = _conj_d12_other_rho(S.rho) if name == "CD12x" else S.rho
    return Table(S.quandle.op, rho)


def _input_names(workload: str) -> list[tuple[str, str]]:
    """(file stem, source name) pairs a workload needs."""
    if workload == "decompose":
        return [(s, s) for s in ("R12", "R64", "R96", "T5", "T6", "CS4", "CD6")]
    if workload == "search":
        copies = [(f"{s}-c{k}", s) for s in ("R20", "R24", "CD12")
                  for k in range(SEARCH_COPIES)]
        others = ("CS4", "CD12", "CD12x", "TRIV10", "R12")
        return copies + [(s, s) for s in others] + [("CD12b", "CD12")]
    if workload == "roundtrip":
        return [(s, s) for s in ("T5", "R24", "R128", "R256")]
    raise ValueError(f"unknown workload {workload!r}")


def generate(workload: str, seed: int, workdir: str) -> None:
    """Write the workload's input files into workdir.

    Each copy is validated by sqk's own quandle_from_table and
    attach_involution before it is written with fileio.format_qnd.
    """
    from sqk import fileio
    from sqk.quandle import quandle_from_table
    from sqk.symmetric import attach_involution

    sources: dict[str, Table] = {}
    for stem, src in _input_names(workload):
        if src not in sources:
            sources[src] = _source(src)
        base = sources[src]
        rng = random.Random(f"{seed}:{workload}:{stem}")
        t = relabel(base, closure_order(base.op, rng))
        S = attach_involution(quandle_from_table(t.op), t.rho)
        with open(os.path.join(workdir, stem + ".qnd"), "w", encoding="utf-8") as fh:
            fh.write(fileio.format_qnd(S))


def jobs(workload: str, workdir: str) -> list[Job]:
    """The workload's job list, in the order one pass runs it."""
    def p(name: str) -> str:
        return os.path.join(workdir, name)

    if workload == "decompose":
        out = []
        for stem, order, orbits in (("R64", 64, (32, 32)), ("R96", 96, (48, 48)),
                                    ("T5", 120, (10,)), ("T6", 720, (15,)),
                                    ("CS4", 24, (1, 3, 6, 6, 8))):
            out.append(Job(f"decompose-inn-{stem}",
                           ("decompose", p(stem + ".qnd"), "--group", "inn"),
                           0, "decompose", (order, orbits)))
        for stem, order, orbits in (("R12", 48, (12,)), ("CD6", 48, (2, 4, 6)),
                                    ("CS4", 24, (1, 3, 6, 6, 8))):
            out.append(Job(f"decompose-aut-{stem}",
                           ("decompose", p(stem + ".qnd"), "--group", "aut",
                            "--max-n", "24"), 0, "decompose", (order, orbits)))
        out.append(Job("inn-T6", ("inn", p("T6.qnd")), 0, "group", (720, (15,))))
        out.append(Job("orbits-R96", ("orbits", p("R96.qnd")), 0, "orbits",
                       ((48, 48),)))
        return out

    if workload == "search":
        out = []
        for src, order, orbits in (("R20", 160, (20,)), ("R24", 192, (24,)),
                                   ("CD12", 768, (2, 2, 4, 4, 12))):
            for k in range(SEARCH_COPIES):
                stem = f"{src}-c{k}"
                out.append(Job(f"aut-{stem}", ("aut", p(stem + ".qnd"), "--max-n", "24"),
                               0, "group", (order, orbits)))
        out.append(Job("aut-symmetric-CS4",
                       ("aut", p("CS4.qnd"), "--symmetric", "--max-n", "24"),
                       0, "group", (24, (1, 3, 6, 6, 8))))
        out.append(Job("iso-positive-CD12", ("iso", p("CD12.qnd"), p("CD12b.qnd"),
                                             "--symmetric"), 0, "iso", (True,)))
        out.append(Job("iso-negative-CD12", ("iso", p("CD12.qnd"), p("CD12x.qnd"),
                                             "--symmetric"), 1, "iso", (False,)))
        out.append(Job("involutions-TRIV10", ("involutions", p("TRIV10.qnd")),
                       0, "involutions", (9496,)))
        out.append(Job("involutions-R12", ("involutions", p("R12.qnd")),
                       0, "involutions", (4,)))
        out.append(Job("involutions-CD12", ("involutions", p("CD12.qnd"), "--max-n", "24"),
                       0, "involutions", (64,)))
        return out

    if workload == "roundtrip":
        return [
            Job("catalog-paper-example", ("catalog", "paper-example", "-o", p("pe.prs")),
                0, "wrote", ("presentation 2",)),
            Job("build-paper-example", ("build", p("pe.prs"), "-o", p("pe.qnd")),
                0, "wrote", ("quandle 4",)),
            Job("decompose-emit-T5", ("decompose", p("T5.qnd"), "--group", "inn",
                                      "--emit-prs", p("T5.prs")),
                0, "decompose", (120, (10,))),
            Job("build-T5", ("build", p("T5.prs"), "-o", p("T5-rebuilt.qnd")),
                0, "wrote", ("quandle 10",)),
            Job("iso-rebuilt-T5", ("iso", p("T5-rebuilt.qnd"), p("T5.qnd"), "--symmetric"),
                0, "iso", (True,)),
            Job("decompose-emit-R24", ("decompose", p("R24.qnd"), "--group", "aut",
                                       "--max-n", "24", "--emit-prs", p("R24.prs")),
                0, "decompose", (192, (24,))),
            Job("build-R24", ("build", p("R24.prs"), "-o", p("R24-rebuilt.qnd")),
                0, "wrote", ("quandle 24",)),
            Job("iso-rebuilt-R24", ("iso", p("R24-rebuilt.qnd"), p("R24.qnd"),
                                    "--symmetric"), 0, "iso", (True,)),
            Job("check-R128", ("check", p("R128.qnd")), 0, "check", (128,)),
            Job("check-R256", ("check", p("R256.qnd")), 0, "check", (256,)),
        ]
    raise ValueError(f"unknown workload {workload!r}")
