"""Self-distributivity and associativity are proved on a generating set and
the n^2 checks compare whole rows. These tests hold the proofs to the
verdict and the first witness of a brute-force scan written here, and
bound the work they do."""

import random
from itertools import combinations, permutations, product

import pytest

from sqk import (
    conj_symmetric_quandle,
    dihedral_group,
    dihedral_quandle,
    group_from_table,
    perm,
    symmetric_group,
)
from sqk.errors import NotAssociative
from sqk.quandle import product_violation, q3_violation
from sqk.symmetric import dual_violation, equivariance_violation

from test_verification import transposition_quandle


def brute_q3(t):
    n = len(t)
    for a, b, c in product(range(n), repeat=3):
        if t[t[a][b]][c] != t[t[a][c]][t[b][c]]:
            return (a, b, c)
    return None


def brute_assoc(t):
    n = len(t)
    for x, y, z in product(range(n), repeat=3):
        if t[t[x][y]][z] != t[x][t[y][z]]:
            return (x, y, z)
    return None


def tables_from_columns(cols):
    n = len(cols)
    return [[cols[b][a] for b in range(n)] for a in range(n)]


def small_tables():
    """Every table of order <= 3 whose columns are bijections."""
    for n in (1, 2, 3):
        for cols in product(list(permutations(range(n))), repeat=n):
            yield tables_from_columns(cols)


def column_swaps(table):
    """Every table made by swapping two cells of one column."""
    n = len(table)
    for b in range(n):
        for a1, a2 in combinations(range(n), 2):
            t = [list(row) for row in table]
            t[a1][b], t[a2][b] = t[a2][b], t[a1][b]
            yield t


SWAP_BASES = {
    "R6": dihedral_quandle(6).op,
    "R8": dihedral_quandle(8).op,
    "T4": transposition_quandle(4).quandle.op,
    "Conj(S3)": conj_symmetric_quandle(symmetric_group(3)).quandle.op,
    "Conj(D4)": conj_symmetric_quandle(dihedral_group(4)).quandle.op,
}


def test_q3_matches_brute_force_on_all_small_tables():
    count = violations = 0
    for t in small_tables():
        expected = brute_q3(t)
        assert q3_violation(t) == expected, t
        count += 1
        violations += expected is not None
    assert count == 1 + 2 ** 2 + 6 ** 3
    assert 0 < violations < count


def test_q3_matches_brute_force_on_non_bijective_tables():
    # without Q2 there is no proof; the answer still comes from a full scan
    for cells in product(range(2), repeat=4):
        t = [list(cells[:2]), list(cells[2:])]
        assert q3_violation(t) == brute_q3(t), t


@pytest.mark.parametrize("name", sorted(SWAP_BASES))
def test_q3_matches_brute_force_on_column_swaps(name):
    violations = 0
    for t in column_swaps(SWAP_BASES[name]):
        expected = brute_q3(t)
        assert q3_violation(t) == expected, t
        violations += expected is not None
    assert violations > 0


def normalized_latin_squares(n):
    """Every Latin square of order n whose first row and column are 0..n-1,
    i.e. every loop on 0..n-1 with identity 0, in lexicographic order."""
    rows = [list(range(n))] + [[r] + [-1] * (n - 1) for r in range(1, n)]
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield [row[:] for row in rows]
            return
        r, c = cells[k]
        used = set(rows[r][:c]) | {rows[i][c] for i in range(r)}
        for v in range(n):
            if v not in used:
                rows[r][c] = v
                yield from fill(k + 1)
        rows[r][c] = -1

    yield from fill(0)


def relabel(table, sigma):
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[sigma[x]][sigma[y]] = sigma[table[x][y]]
    return out


def loops():
    """Every normalized Latin square of order <= 5 and a seeded sample of
    order 6, relabelled so that the identity is not 0 (order 1 aside)."""
    rng = random.Random(20221018)
    squares = [sq for n in range(1, 6) for sq in normalized_latin_squares(n)]
    squares += rng.sample(list(normalized_latin_squares(6)), 600)
    for sq in squares:
        n = len(sq)
        sigma = list(range(n))
        while n > 1 and sigma[0] == 0:
            rng.shuffle(sigma)
        yield relabel(sq, sigma)


def test_associativity_matches_brute_force_on_loops():
    count = nonassociative = 0
    for t in loops():
        expected = brute_assoc(t)
        if expected is None:
            G = group_from_table(t)
            assert G.product[G.identity] == tuple(range(len(t)))
        else:
            with pytest.raises(NotAssociative) as exc:
                group_from_table(t)
            assert exc.value.triple == expected, t
            nonassociative += 1
        count += 1
    assert count == 1 + 1 + 1 + 4 + 56 + 600
    # the groups of order <= 5 among the loops: Z1, Z2, Z3, Z4, V4, Z5
    assert count - nonassociative >= 6
    assert nonassociative > 500


def _flips(seq):
    n = len(seq)
    for k in range(n):
        for v in range(n):
            if v != seq[k]:
                yield seq[:k] + (v,) + seq[k + 1:]


@pytest.mark.parametrize("name", sorted(SWAP_BASES))
def test_row_kernels_match_brute_force(name):
    op = SWAP_BASES[name]
    n = len(op)
    dual = tuple(zip(*(perm.inverse(col) for col in zip(*op))))
    maps = [tuple(range(n))] + list(_flips(tuple(range(n)))) + \
        [tuple(m) for m in permutations(range(n)) if m[0] < 2][:200]
    for f in maps:
        assert product_violation(op, op, f) == next(
            ((a, b) for a in range(n) for b in range(n)
             if f[op[a][b]] != op[f[a]][f[b]]), None)
        assert equivariance_violation(op, f) == next(
            ((a, b) for a in range(n) for b in range(n)
             if f[op[a][b]] != op[f[a]][b]), None)
        assert dual_violation(op, dual, f) == next(
            ((a, b) for a in range(n) for b in range(n)
             if op[a][f[b]] != dual[a][b]), None)


class CountingRows(list):
    """A table that counts how often its rows are looked up."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_q3_work_is_quadratic():
    # R_128 is generated by two points; a full scan reads the rows about
    # 5 n^3 times
    n = 128
    table = CountingRows(dihedral_quandle(n).op)
    assert perm.spanning_points(list(zip(*table))) == [0, 1]
    assert q3_violation(table) is None
    assert table.reads <= 4 * n * n


def test_associativity_work_is_bounded_by_generators(monkeypatch):
    # S_5: a greedy generating set has at most 1 + log2(120) elements, and
    # each costs one product per element
    els = sorted(permutations(range(5)))
    index = {p: i for i, p in enumerate(els)}
    table = [[index[tuple(q[p[a]] for a in range(5))] for q in els] for p in els]
    calls = [0]
    real = perm.compose

    def counting(p, q):
        calls[0] += 1
        return real(p, q)

    monkeypatch.setattr(perm, "compose", counting)
    G = group_from_table(table)
    assert G.order == 120
    assert 1 <= calls[0] <= 120 * 7


def test_spanning_points():
    # the trivial quandle: every translation is the identity
    ident = tuple(range(4))
    assert perm.spanning_points([ident] * 4) == [0, 1, 2, 3]
    # Z_6 by right multiplication: 0 is the identity, 1 generates
    assert perm.spanning_points(
        [tuple((x + s) % 6 for x in range(6)) for s in range(6)]) == [0, 1]
    # a point reached only through a later map is still covered
    maps = [(0, 1, 2), (2, 1, 0), (1, 0, 2)]
    assert perm.spanning_points(maps) == [0, 1]


def test_compose_small_degrees():
    assert perm.compose((), ()) == ()
    assert perm.compose((0,), (0,)) == (0,)
    assert perm.compose((1, 0, 2), (2, 0, 1)) == (0, 2, 1)
    assert perm.compose([1, 0], [5, 7, 9]) == (7, 5)
