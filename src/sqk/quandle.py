"""Finite racks and quandles as operation tables.

Rows index the left argument, columns the right: op[a][b] = a*b, so the
translation s_b is column b.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    """A rack or quandle given by its operation table. The columns, their
    spanning points and the dual are functions of op, derived on first
    read and kept, so whatever proof accepts op accepts them too."""
    order: int
    op: Table
    rack_only: bool = False

    @cached_property
    def columns(self) -> tuple[perm.Perm, ...]:
        """The translations s_b: a -> a*b, column b of op."""
        return tuple(zip(*self.op))

    @cached_property
    def spanning_points(self) -> list[int]:
        """perm.spanning_points of the columns, where the proofs of Q3, of
        a kei and of a good involution check their condition."""
        return perm.spanning_points(self.columns)

    @cached_property
    def dual(self) -> Table:
        """The table of a/b = s_b^-1(a): column b inverted. On a kei,
        s_b^-1 = s_b and the dual is op itself."""
        if is_kei(self):
            return self.op
        return tuple(zip(*map(perm.inverse, self.columns)))


@dataclass(frozen=True)
class Isomorphism:
    source: object
    target: object
    map: perm.Perm


def _first_non_bijection(cols: Sequence[Sequence[int]]) -> int | None:
    """First column, given as a whole tuple, whose entries are not every
    point 0..n-1, or None. For n entries in 0..n-1 that is exactly the
    first column that is not a bijection."""
    points = set(range(len(cols)))
    return next((b for b, col in enumerate(cols) if set(col) != points), None)


def q2_violation(table: Sequence[Sequence[int]]) -> int | None:
    """First column that is not a bijection, or None."""
    return _first_non_bijection(list(zip(*table)))


def q3_violation(table: Sequence[Sequence[int]]) -> tuple[int, int, int] | None:
    """First (a,b,c) with (a*b)*c != (a*c)*(b*c), or None.

    Q3 at c says that s_c: a -> a*c is an endomorphism: s_b s_c =
    s_c s_{b*c} for every b (apply left, then right). With bijective
    columns (Q2), Q3 at c and d makes s_{c*d} = s_d^-1 s_c s_d an
    automorphism, so Q3 is checked at perm.spanning_points. Without Q2,
    and whenever the proof fails, the triple loop names the
    lexicographically first witness, as a full scan would.
    """
    cols = list(zip(*table))
    bijective = len(cols) == len(table) and _first_non_bijection(cols) is None
    return _q3_violation(table, cols,
                         perm.spanning_points(cols) if bijective else ())


def _q3_violation(table: Sequence[Sequence[int]], cols: Sequence[perm.Perm],
                  span: Sequence[int]) -> tuple[int, int, int] | None:
    """q3_violation on the columns of table and their spanning points;
    span is empty when the columns are not all bijections."""
    n = len(table)
    if span:
        compose = perm.compose
        if all(compose(cols[b], cols[c]) == compose(cols[c], cols[table[b][c]])
               for c in span for b in range(n)):
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


def quandle_from_table(table: Sequence[Sequence[int]],
                       allow_rack: bool = False) -> Quandle:
    """Validate an operation table and return the quandle (or rack) it defines.

    Checks the entries (perm.square_rows), then that each column is a
    bijection (its set of entries is every point), then
    self-distributivity at the spanning points (q3_violation), then
    idempotence, on the columns and spanning points of the returned
    Quandle. A failing whole-column or spanning check runs the per-column
    or triple loop, which names the witness a cell-by-cell scan would. A
    table failing only idempotence is accepted with rack_only=True when
    allow_rack is set.
    """
    n = len(table)
    if n == 0:
        raise FormatError("empty operation table")
    op = perm.square_rows(table)
    a = q1_violation(op)
    Q = Quandle(order=n, op=op, rack_only=a is not None)
    b = _first_non_bijection(Q.columns)
    if b is not None:
        raise AxiomQ2Violated(b)
    abc = _q3_violation(op, Q.columns, Q.spanning_points)
    if abc is not None:
        raise AxiomQ3Violated(*abc)
    if a is not None and not allow_rack:
        raise AxiomQ1Violated(a)
    return Q


def is_kei(Q: Quandle) -> bool:
    """True iff every translation is an involution, i.e. dual == op.

    Decided at Q.spanning_points of a rack: by Q3,
    s_{b*d}^2 = s_d^-1 s_b^2 s_d, so the b with s_b^2 = id are closed
    under b -> b*d.
    """
    cols, ident = Q.columns, perm.identity(Q.order)
    return all(perm.compose(cols[c], cols[c]) == ident for c in Q.spanning_points)


def first_mismatch(lhs_rows: list[tuple[int, ...]],
                   rhs_rows: list[tuple[int, ...]]) -> tuple[int, int] | None:
    """First (a,b) with lhs_rows[a][b] != rhs_rows[a][b], or None. The
    tables are compared whole, and scanned row by row, then cell by cell,
    only when they differ."""

    if lhs_rows == rhs_rows:
        return None
    a = next(a for a, (lhs, rhs) in enumerate(zip(lhs_rows, rhs_rows)) if lhs != rhs)
    return a, next(b for b, (x, y) in enumerate(zip(lhs_rows[a], rhs_rows[a]))
                   if x != y)


def product_violation(op1: Sequence[Sequence[int]], op2: Sequence[Sequence[int]],
                      f: Sequence[int]) -> tuple[int, int] | None:
    """First (a,b) with f(a*b) != f(a)*f(b), or None: row a of f(a*b) is
    compose(op1[a], f), and row a of f(a)*f(b) is compose(f, op2[f[a]])."""
    return first_mismatch([perm.compose(row, f) for row in op1],
                          perm.compose_each(f, map(op2.__getitem__, f)))


def _generation_order(op: Table,
                      rho: perm.Perm | None = None) -> tuple[list[int], list[int]]:
    """Every point, in the order the subquandles generated by 0..k are
    reached for k = 0, 1, ..., and the generating points: the k not in the
    subquandle generated by 0..k-1.

    The subquandle generated by S (closed under *, the dual and rho, when
    given) is the closure T of S under s_b for b in S (and rho), so
    perm.greedy_span over the columns, with rho as a generator, lists it.
    The b in T with T closed under s_b hold S and are closed under
    b -> b*c, as s_{b*c} = s_c^-1 s_b s_c, and under rho, as
    s_rho(b) = s_b^-1; by the closure lemma (perm.spanning_points) they
    are all of T. Every other point is reached as a*g or rho(a) from
    points before it, g a generating point.
    """
    gens, order = perm.greedy_span(range(len(op)), list(zip(*op)), perm.image,
                                   gens=[rho] if rho is not None else [])
    return order, gens


class _MapSearch:
    """Backtracking search for operation-preserving bijections op1 -> op2.

    The set-up is shared by every run: the key of each element, which an
    isomorphism must match (its translation's cycle type and, with rho,
    whether rho fixes it), and the candidate images of each key,
    ascending, or None when the keys do not match up.

    The map-search argument: the order is op1's generation order
    (_generation_order, with rho1), and gens its generating points. Only
    the products a*b = c with b in gens, and the pairs (a, rho1(a)), are
    checked, each at the position where the last of its elements is
    assigned. That proves every product inside each generated subquandle
    T before the next generating point is branched on: the b in T with
    f(a*b) = f(a)*f(b) for every a in T hold the generating points of T
    and are closed under *, the dual and rho (f(a/c) = f(a)/f(c) since s_c
    permutes T), so by the closure lemma (perm.spanning_points) they are
    all of T. So the search reaches the same branch nodes as one that
    checks every product.

    A check whose last element c has a and b earlier admits only
    f(c) = f(a)*f(b) (or rho2(f(a))); derived[i] is the first such (a, b)
    (or (a, -1)) of position i, or None. Every position but the
    generating points is derived.
    """

    def __init__(self, op1: Table, op2: Table,
                 rho1: perm.Perm | None = None,
                 rho2: perm.Perm | None = None):
        self.op1, self.op2, self.rho1, self.rho2 = op1, op2, rho1, rho2
        order, gens = _generation_order(op1, rho1)
        self.order, self.gens = tuple(order), gens
        self.candidates: list[list[int]] | None = None
        n = len(op1)
        if len(op2) != n:
            return
        key1 = [(perm.cycle_type(col), rho1 is not None and rho1[b] == b)
                for b, col in enumerate(zip(*op1))]
        if op2 is op1 and rho2 is rho1:
            key2 = key1
        else:
            key2 = [(perm.cycle_type(col), rho2 is not None and rho2[b] == b)
                    for b, col in enumerate(zip(*op2))]
            if sorted(key1) != sorted(key2):
                return
        self.key1, self.key2 = key1, key2
        by_key: dict[tuple, list[int]] = {}
        for v, key in enumerate(key2):
            by_key.setdefault(key, []).append(v)
        self.candidates = [by_key[key] for key in key1]
        pos = [0] * n
        for i, a in enumerate(self.order):
            pos[a] = i
        products: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        derived: list[tuple[int, int] | None] = [None] * n
        for a, row in enumerate(op1):
            pa = pos[a]
            for b in gens:
                c = row[b]
                i = max(pa, pos[b])
                if pos[c] > i:
                    i = pos[c]
                    if derived[i] is None:
                        derived[i] = (a, b)
                products[i].append((a, b, c))
        rho_pairs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        if rho1 is not None:
            for a, c in enumerate(rho1):
                i = pos[a]
                if pos[c] > i:
                    i = pos[c]
                    if derived[i] is None:
                        derived[i] = (a, -1)
                rho_pairs[i].append((a, c))
        self.products, self.rho_pairs, self.derived = products, rho_pairs, derived

    def run(self, prefix: Sequence[int] = (),
            find_all: bool = False) -> list[perm.Perm]:
        """The maps sending the first len(prefix) elements of the order to
        the entries of prefix.

        The rest are assigned in order. A branch position tries its
        candidates in ascending order; a derived position tries only the
        image its check dictates, as every other candidate fails that
        check. Complete maps are checked in full (product_violation, and
        rho). Results come out least first, and without find_all the
        search stops at the first. That is the lexicographic order: two
        maps first differ at a generating point g, and every label below g
        lies in the subquandle generated before g, where they agree. In a
        search of a table against itself, the leading prefix positions
        that map their element to itself need no check: every check
        recorded there has all its elements among them, all fixed.
        """
        if self.candidates is None:
            return []
        op1, op2, rho1, rho2 = self.op1, self.op2, self.rho1, self.rho2
        candidates, order = self.candidates, self.order
        products, rho_pairs, derived = self.products, self.rho_pairs, self.derived
        key1, key2 = self.key1, self.key2
        n, m = len(op1), len(prefix)
        f = [-1] * n
        used = [False] * n
        results: list[perm.Perm] = []
        fixed = 0
        if op2 is op1 and rho2 is rho1:
            while fixed < m and prefix[fixed] == order[fixed]:
                fixed += 1

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

        def clear(i: int) -> None:
            """Unassign positions i, i+1, ... up to the first unassigned one."""
            while i < n and f[order[i]] >= 0:
                used[f[order[i]]] = False
                f[order[i]] = -1
                i += 1

        def fill(i: int) -> int:
            """Assign positions i, i+1, ... while each has one image, its
            prefix entry or its derived image. Returns the first branch
            position, or n; or -1, with those positions unassigned again,
            when an image is taken, of another key or fails its check."""
            start = i
            while i < n:
                if i < m:
                    v = prefix[i]
                elif derived[i] is None:
                    return i
                else:
                    a, b = derived[i]
                    v = op2[f[a]][f[b]] if b >= 0 else rho2[f[a]]
                a = order[i]
                if used[v] or key2[v] != key1[a]:
                    break
                f[a] = v
                used[v] = True
                if i >= fixed and not consistent(i):
                    break
                i += 1
            else:
                return n
            clear(start)
            return -1

        # a depth-first walk with an explicit stack: each branch position
        # with an iterator over its candidates not yet tried
        stack: list[tuple[int, Iterator[int]]] = []
        i = fill(0)
        while True:
            if i == n:
                if full_check():
                    results.append(tuple(f))
                    if not find_all:
                        break
            elif i >= 0:
                stack.append((i, iter(candidates[order[i]])))
            while stack:
                j, untried = stack[-1]
                clear(j)
                a = order[j]
                for v in untried:
                    if used[v]:
                        continue
                    f[a] = v
                    used[v] = True
                    if consistent(j):
                        i = fill(j + 1)
                        if i >= 0:
                            break
                    used[v] = False
                    f[a] = -1
                else:
                    stack.pop()
                    continue
                break
            else:
                break
        return results


# perfbench/tracing.py counts the searches by this name
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


# kept in sqk because perfbench/tracing.py wraps it by name
def all_automorphism_maps(Q: Quandle) -> list[perm.Perm]:
    """Every permutation preserving the operation, lexicographically sorted."""
    return _search_maps(Q.op, Q.op, find_all=True)
