import random
import sys
from contextlib import contextmanager
from itertools import combinations

import pytest

from helpers import relabel
from sqk import (
    antipodal,
    attach_involution,
    conj_symmetric_quandle,
    cyclic_group,
    dihedral_group,
    dihedral_quandle,
    quandle_from_table,
    quaternion_group,
    symmetric_group,
    trivial_quandle,
)

R4_TABLE = ((0, 2, 0, 2), (3, 1, 3, 1), (2, 0, 2, 0), (1, 3, 1, 3))


@pytest.fixture(scope="session")
def quat():
    return quaternion_group()


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def r4():
    return dihedral_quandle(4)


@pytest.fixture(scope="session")
def anti4():
    return antipodal(4)


@pytest.fixture(scope="session")
def conj_s3(s3):
    return conj_symmetric_quandle(s3)


def catalog_symmetric_quandles(max_order=12):
    """The symmetric quandles the property suites run over: antipodal maps,
    keis with the identity, and conjugation symmetric quandles of small
    groups."""
    out = []
    for n in range(2, max_order + 1, 2):
        out.append((f"antipodal({n})", antipodal(n)))
    for n in range(1, max_order + 1):
        out.append((f"(R_{n}, id)", attach_involution(dihedral_quandle(n),
                                                      list(range(n)))))
    for name, G in [("Z2", cyclic_group(2)), ("Z3", cyclic_group(3)),
                    ("Z4", cyclic_group(4)), ("Z5", cyclic_group(5)),
                    ("Z6", cyclic_group(6)), ("S3", symmetric_group(3)),
                    ("D4", dihedral_group(4)), ("Q8", quaternion_group())]:
        out.append((f"Conj({name})", conj_symmetric_quandle(G)))
    out.append(("(T3, id)", attach_involution(trivial_quandle(3),
                                              [0, 1, 2])))
    return [(name, s) for name, s in out if s.order <= max_order]


def transposition_quandle(m):
    """T_m: the transpositions of S_m under conjugation, rho = identity."""
    points = list(combinations(range(m), 2))
    index = {p: k for k, p in enumerate(points)}

    def conj(a, b):
        swap = {b[0]: b[1], b[1]: b[0]}
        i, j = (swap.get(x, x) for x in a)
        return index[(min(i, j), max(i, j))]

    table = [[conj(a, b) for b in points] for a in points]
    return attach_involution(quandle_from_table(table), list(range(len(points))))


def relabelled(S, seed):
    """S transported along a seeded uniformly random bijection."""
    p = list(range(S.order))
    random.Random(seed).shuffle(p)
    rho = [0] * S.order
    for a in range(S.order):
        rho[p[a]] = p[S.rho[a]]
    return attach_involution(quandle_from_table(relabel(S.quandle.op, p)), rho)


@contextmanager
def shallow_stack(frames):
    """Lower the recursion limit to the current stack depth plus frames,
    so code that recurses once per element fails on a large input."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)
