"""Finite racks and quandles as operation tables.

Rows index the left argument, columns the right: op[a][b] = a*b, so the
translation s_b is column b. The dual table is derived by inverting each
column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from . import perm
from .errors import (
    AxiomQ1Violated,
    AxiomQ2Violated,
    AxiomQ3Violated,
    FormatError,
)

Table = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Quandle:
    order: int
    op: Table
    dual: Table
    rack_only: bool = False

    def column(self, b: int) -> perm.Perm:
        """The translation map a -> a*b."""
        return tuple(self.op[a][b] for a in range(self.order))

    def translations(self) -> tuple[perm.Perm, ...]:
        return tuple(zip(*self.op))


@dataclass(frozen=True)
class Isomorphism:
    source: object
    target: object
    map: perm.Perm


def q2_violation(table: Sequence[Sequence[int]]) -> int | None:
    """First column that is not a bijection, or None."""
    n = len(table)
    for b in range(n):
        if sorted(table[a][b] for a in range(n)) != list(range(n)):
            return b
    return None


def q3_violation(table: Sequence[Sequence[int]]) -> tuple[int, int, int] | None:
    """First (a,b,c) with (a*b)*c != (a*c)*(b*c), or None.

    Self-distributivity is proved on a generating set. Q3 at c says that
    the translation s_c: a -> a*c is an endomorphism, i.e. for every b the
    column maps satisfy s_b s_c = s_c s_{b*c} (apply left, then right).
    Let Sigma be the set of c whose s_c is an endomorphism; for bijective
    columns these are automorphisms. For c, d in Sigma,
    s_{c*d} = s_d^-1 s_c s_d and s_{c/d} = s_d s_c s_d^-1 are automorphisms
    too, so Sigma is closed under * and its inverse. The columns are
    checked at the points of perm.spanning_points, whose closure under
    their own column maps is every point, so Sigma is everything.

    The proof needs bijective columns (Q2); without them, and whenever the
    proof fails, the triple loop runs to report the lexicographically first
    witness, so the answer is the one of a full scan.
    """
    n = len(table)
    cols = list(zip(*table))
    points = set(range(n))
    if len(cols) == n and all(set(col) == points for col in cols):
        compose = perm.compose
        prove = all(compose(cols[b], cols[c]) == compose(cols[c], cols[table[b][c]])
                    for c in perm.spanning_points(cols) for b in range(n))
        if prove:
            return None
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[table[a][c]][table[b][c]]:
                    return (a, b, c)
    return None


def q1_violation(table: Sequence[Sequence[int]]) -> int | None:
    """First a with a*a != a, or None."""
    for a in range(len(table)):
        if table[a][a] != a:
            return a
    return None


def _dual_table(op: Table) -> Table:
    n = len(op)
    dual = [[0] * n for _ in range(n)]
    for b in range(n):
        col = [op[a][b] for a in range(n)]
        for a in range(n):
            dual[col[a]][b] = a
    return tuple(tuple(row) for row in dual)


def quandle_from_table(table: Sequence[Sequence[int]],
                       allow_rack: bool = False) -> Quandle:
    """Validate an operation table and return the quandle (or rack) it defines.

    Checks bijectivity of the translations, then self-distributivity, then
    idempotence. Self-distributivity is proved on a generating set of the
    table (see q3_violation), which covers every triple; a failure names
    the same first triple as a full scan. A table failing only idempotence
    is accepted with rack_only=True when allow_rack is set.
    """
    n = len(table)
    if n == 0:
        raise FormatError("empty operation table")
    rows = []
    for a, row in enumerate(table):
        row = tuple(row)
        if len(row) != n:
            raise FormatError(f"row {a} has {len(row)} entries, expected {n}")
        for v in row:
            if not isinstance(v, int) or not 0 <= v < n:
                raise FormatError(f"entry {v!r} in row {a} not in 0..{n - 1}")
        rows.append(row)
    op = tuple(rows)

    b = q2_violation(op)
    if b is not None:
        raise AxiomQ2Violated(b)
    abc = q3_violation(op)
    if abc is not None:
        raise AxiomQ3Violated(*abc)
    a = q1_violation(op)
    rack_only = False
    if a is not None:
        if not allow_rack:
            raise AxiomQ1Violated(a)
        rack_only = True
    return Quandle(order=n, op=op, dual=_dual_table(op), rack_only=rack_only)


def is_kei(Q: Quandle) -> bool:
    """True iff every translation is an involution, i.e. dual == op."""
    return Q.dual == Q.op


def first_mismatch(lhs_rows: list[tuple[int, ...]],
                   rhs_rows: list[tuple[int, ...]]) -> tuple[int, int] | None:
    """First (a,b) with lhs_rows[a][b] != rhs_rows[a][b], or None.

    The tables are compared whole, as lists of tuples; only when that
    comparison fails are they scanned for the first row that differs, and
    that row cell by cell.
    """
    if lhs_rows == rhs_rows:
        return None
    a = next(a for a, (lhs, rhs) in enumerate(zip(lhs_rows, rhs_rows)) if lhs != rhs)
    return a, next(b for b, (x, y) in enumerate(zip(lhs_rows[a], rhs_rows[a]))
                   if x != y)


def product_violation(op1: Sequence[Sequence[int]], op2: Sequence[Sequence[int]],
                      f: Sequence[int]) -> tuple[int, int] | None:
    """First (a,b) with f(a*b) != f(a)*f(b), or None: row a of f(a*b) is
    compose(op1[a], f), and row a of f(a)*f(b) is compose(f, op2[f[a]])."""
    compose = perm.compose
    return first_mismatch([compose(row, f) for row in op1],
                          [compose(f, op2[fa]) for fa in f])


def is_homomorphism_map(Q1: Quandle, Q2: Quandle, f: Sequence[int]) -> bool:
    return product_violation(Q1.op, Q2.op, f) is None


class _MapSearch:
    """Backtracking search for operation-preserving bijections op1 -> op2.

    The set-up is done once and shared by every run: the keys of each
    element (the cycle type of its translation, which an isomorphism must
    match, and, when rho constraints are present, its rho fixed-point
    status), the candidate images that share its key, and the checks of
    each position. Elements are assigned images in the given order
    (default 0, 1, ...); each product a*b = c, and each pair (a, rho1(a)),
    is checked at the position where the last of its elements is assigned.
    candidates is None when the keys do not match up, so no bijection
    exists.
    """

    def __init__(self, op1: Table, op2: Table,
                 rho1: perm.Perm | None = None,
                 rho2: perm.Perm | None = None,
                 order: Sequence[int] | None = None):
        self.op1, self.op2, self.rho1, self.rho2 = op1, op2, rho1, rho2
        self.candidates: list[list[int]] | None = None
        n = len(op1)
        if len(op2) != n:
            return
        key1 = [(perm.cycle_type(col), rho1 is not None and rho1[b] == b)
                for b, col in enumerate(zip(*op1))]
        key2 = [(perm.cycle_type(col), rho2 is not None and rho2[b] == b)
                for b, col in enumerate(zip(*op2))]
        if sorted(key1) != sorted(key2):
            return
        self.key1, self.key2 = key1, key2
        self.candidates = [[v for v in range(n) if key2[v] == key1[a]]
                           for a in range(n)]
        self.order = tuple(range(n)) if order is None else tuple(order)
        pos = [0] * n
        for i, a in enumerate(self.order):
            pos[a] = i
        self.products: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        for a, row in enumerate(op1):
            for b, c in enumerate(row):
                self.products[max(pos[a], pos[b], pos[c])].append((a, b, c))
        self.rho_pairs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        if rho1 is not None:
            for a, c in enumerate(rho1):
                self.rho_pairs[max(pos[a], pos[c])].append((a, c))

    def run(self, prefix: Sequence[int] = (),
            find_all: bool = False) -> list[perm.Perm]:
        """The maps sending the first len(prefix) elements of the order to
        the entries of prefix.

        The remaining elements are assigned in order, candidates tried in
        ascending order, so results come out least first (lexicographically
        for the default order); without find_all the search stops at the
        first. Every product is checked once all three of its elements are
        assigned; complete maps are re-checked in full before being
        accepted.
        """
        if self.candidates is None:
            return []
        op1, op2, rho1, rho2 = self.op1, self.op2, self.rho1, self.rho2
        candidates, order = self.candidates, self.order
        products, rho_pairs = self.products, self.rho_pairs
        n = len(op1)
        f = [-1] * n
        used = [False] * n
        results: list[perm.Perm] = []

        def consistent(i: int) -> bool:
            for a, b, c in products[i]:
                if f[c] != op2[f[a]][f[b]]:
                    return False
            for a, c in rho_pairs[i]:
                if f[c] != rho2[f[a]]:
                    return False
            return True

        def full_check() -> bool:
            if product_violation(op1, op2, f) is not None:
                return False
            return rho1 is None or perm.compose(rho1, f) == perm.compose(f, rho2)

        for i, v in enumerate(prefix):
            a = order[i]
            if used[v] or self.key2[v] != self.key1[a]:
                return []
            f[a] = v
            used[v] = True
            if not consistent(i):
                return []
        # a depth-first walk with an explicit stack: one iterator over the
        # candidates not yet tried per assigned position past the prefix
        start = len(prefix)
        stack: list[Iterator[int]] = []
        i = start
        while True:
            if i == n:
                if full_check():
                    results.append(tuple(f))
                    if not find_all:
                        break
            else:
                stack.append(iter(candidates[order[i]]))
            while stack:
                i = start + len(stack) - 1
                a = order[i]
                if f[a] >= 0:
                    used[f[a]] = False
                    f[a] = -1
                for v in stack[-1]:
                    if used[v]:
                        continue
                    f[a] = v
                    used[v] = True
                    if consistent(i):
                        break
                    used[v] = False
                    f[a] = -1
                else:
                    stack.pop()
                    continue
                i += 1
                break
            else:
                break
        return results


def _search_maps(op1: Table, op2: Table,
                 rho1: perm.Perm | None = None,
                 rho2: perm.Perm | None = None,
                 find_all: bool = False) -> list[perm.Perm]:
    """Operation-preserving bijections op1 -> op2 (commuting with the rho
    constraints, when given), lexicographically least first: the first
    one, or every one with find_all. See _MapSearch."""
    return _MapSearch(op1, op2, rho1, rho2).run(find_all=find_all)


def find_quandle_isomorphism(Q1: Quandle, Q2: Quandle) -> Isomorphism | None:
    """Lexicographically least operation-preserving bijection, or None."""
    maps = _search_maps(Q1.op, Q2.op)
    if not maps:
        return None
    return Isomorphism(source=Q1, target=Q2, map=maps[0])


def all_automorphism_maps(Q: Quandle) -> list[perm.Perm]:
    """Every permutation preserving the operation, lexicographically sorted."""
    return _search_maps(Q.op, Q.op, find_all=True)
