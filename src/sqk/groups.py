"""Finite groups on dense element indices: multiplication tables, subgroups,
right cosets, conjugacy classes.

The one product convention used everywhere: ``mul(x, y)`` means "x then y".
For permutation groups acting on the right this reads a.(x*y) = (a.x).y.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import perm
from .errors import (
    FormatError,
    IndexOutOfRange,
    NoIdentity,
    NotAssociative,
    NotASubgroup,
    NotLatinSquare,
)


class GroupLike:
    """Minimal group interface shared by table-backed and permutation groups."""

    order: int
    identity: int

    def mul(self, x: int, y: int) -> int:
        raise NotImplementedError

    def inv(self, x: int) -> int:
        raise NotImplementedError

    def name_of(self, x: int) -> str:
        return str(x)

    def conj(self, x: int, y: int) -> int:
        """y^-1 x y."""
        return self.mul(self.mul(self.inv(y), x), y)

    def check_index(self, x) -> int:
        if not isinstance(x, int) or not 0 <= x < self.order:
            raise IndexOutOfRange(x, self.order)
        return x


@dataclass(frozen=True)
class FiniteGroup(GroupLike):
    order: int
    product: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]
    names: tuple[str, ...] | None = None

    def mul(self, x: int, y: int) -> int:
        return self.product[x][y]

    def inv(self, x: int) -> int:
        return self.inverse[x]

    def name_of(self, x: int) -> str:
        return self.names[x] if self.names else str(x)


@dataclass(frozen=True)
class Subgroup:
    parent: GroupLike
    elements: tuple[int, ...]  # strictly increasing

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        i = bisect_left(self.elements, x)
        return i < len(self.elements) and self.elements[i] == x


@dataclass(frozen=True)
class CosetSpace:
    parent: GroupLike
    subgroup: Subgroup
    cosets: tuple[tuple[int, ...], ...]  # sorted by representative
    representatives: tuple[int, ...]     # minimal element of each coset
    coset_index: tuple[int, ...]         # element -> index of its coset

    @property
    def count(self) -> int:
        return len(self.cosets)


def group_from_table(table: Sequence[Sequence[int]],
                     names: Sequence[str] | None = None) -> FiniteGroup:
    """Validate a multiplication table and return the group it defines.

    Checks, in order: Latin square (rows then columns), existence of a
    two-sided identity, associativity. Inverses are then read off the table.

    Associativity is proved by Light's test on a generating set. The set A
    of a with (xa)z = x(az) for all x, z is closed under products: for a, b
    in A, (x(ab))z = ((xa)b)z = (xa)(bz) = x(a(bz)) = x((ab)z). With rows
    as maps z -> xz, a lies in A iff row(xa) = compose(row(a), row(x)) for
    every x. That is checked for the points s of perm.spanning_points over
    the columns x -> xs, whose closure under right multiplication by
    themselves is every element, so A is everything. A greedy generating
    set of a group has at most 1 + log2 |G| elements (the first may be the
    identity, and each later one at least doubles the subgroup reached).
    When the proof fails, the triple loop runs to report the
    lexicographically first witness, the one a full scan would report.
    """
    n = len(table)
    if n == 0:
        raise FormatError("empty product table")
    rows = []
    for x, row in enumerate(table):
        row = tuple(row)
        if len(row) != n:
            raise FormatError(f"row {x} has {len(row)} entries, expected {n}")
        for v in row:
            if not isinstance(v, int) or not 0 <= v < n:
                raise FormatError(f"entry {v!r} in row {x} not in 0..{n - 1}")
        rows.append(row)
    product = tuple(rows)
    if names is not None:
        names = tuple(names)
        if len(names) != n:
            raise FormatError(f"{len(names)} names for {n} elements")

    full = list(range(n))
    for x in range(n):
        if sorted(product[x]) != full:
            raise NotLatinSquare("row", x)
    for y in range(n):
        if sorted(product[x][y] for x in range(n)) != full:
            raise NotLatinSquare("column", y)

    identity = None
    for e in range(n):
        if all(product[e][y] == y for y in range(n)) and \
           all(product[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NoIdentity()

    compose = perm.compose
    cols = list(zip(*product))
    if not all(product[product[x][s]] == compose(product[s], product[x])
               for s in perm.spanning_points(cols) for x in range(n)):
        for x in range(n):
            for y in range(n):
                xy = product[x][y]
                for z in range(n):
                    if product[xy][z] != product[x][product[y][z]]:
                        raise NotAssociative(x, y, z)

    inverse = [0] * n
    for x in range(n):
        y = product[x].index(identity)
        assert product[y][x] == identity
        inverse[x] = y

    return FiniteGroup(order=n, product=product, identity=identity,
                       inverse=tuple(inverse), names=names)


def subgroup_closure(G: GroupLike, gens: Iterable[int]) -> Subgroup:
    """Smallest subgroup of G containing gens: the elements reached from e
    by right multiplication by gens. For x and y = g1...gk reached, so is
    x y, and a finite product-closed set containing e is a subgroup."""
    gens = [G.check_index(g) for g in gens]
    elements = {G.identity}
    frontier = [G.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = G.mul(x, g)
                if y not in elements:
                    elements.add(y)
                    nxt.append(y)
        frontier = nxt
    return Subgroup(parent=G, elements=tuple(sorted(elements)))


def subgroup_from_elements(G: GroupLike, elements: Iterable[int]) -> Subgroup:
    """Validate that elements form a subgroup of G."""
    elems = sorted(set(G.check_index(x) for x in elements))
    eset = set(elems)
    if G.identity not in eset:
        raise NotASubgroup("identity missing")
    for x in elems:
        if G.inv(x) not in eset:
            raise NotASubgroup(f"inverse of {x} missing")
        for y in elems:
            if G.mul(x, y) not in eset:
                raise NotASubgroup(f"product {x}*{y} escapes the set")
    return Subgroup(parent=G, elements=tuple(elems))


def right_cosets(G: GroupLike, H: Subgroup | Iterable[int]) -> CosetSpace:
    """Partition of G into right cosets Hx, ordered by minimal element."""
    if not isinstance(H, Subgroup):
        H = subgroup_from_elements(G, H)
    elif H.parent is not G:
        H = subgroup_from_elements(G, H.elements)
    n = G.order
    coset_index = [-1] * n
    cosets: list[tuple[int, ...]] = []
    reps: list[int] = []
    for x in range(n):
        if coset_index[x] >= 0:
            continue
        members = sorted(G.mul(h, x) for h in H.elements)
        idx = len(cosets)
        for m in members:
            coset_index[m] = idx
        cosets.append(tuple(members))
        reps.append(members[0])
    return CosetSpace(parent=G, subgroup=H, cosets=tuple(cosets),
                      representatives=tuple(reps), coset_index=tuple(coset_index))


def centralizes(G: GroupLike, z: int, H: Subgroup) -> bool:
    """True iff z^-1 h z = h, that is h z = z h, for every h in H."""
    z = G.check_index(z)
    return all(G.mul(h, z) == G.mul(z, h) for h in H.elements)


def centralizer(G: GroupLike, x: int) -> Subgroup:
    """All g with g x = x g."""
    x = G.check_index(x)
    elems = [g for g in range(G.order) if G.mul(g, x) == G.mul(x, g)]
    return Subgroup(parent=G, elements=tuple(elems))


def conjugacy_classes(G: GroupLike) -> tuple[tuple[int, ...], ...]:
    """Classes ordered by minimal element, each ascending."""
    seen = [False] * G.order
    classes = []
    for g in range(G.order):
        if seen[g]:
            continue
        cls = sorted({G.conj(g, x) for x in range(G.order)})
        for m in cls:
            seen[m] = True
        classes.append(tuple(cls))
    return tuple(classes)
