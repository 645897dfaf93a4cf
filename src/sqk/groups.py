"""Finite groups on dense element indices: multiplication tables, subgroups,
right cosets, conjugacy classes.

The one product convention used everywhere: ``mul(x, y)`` means "x then y".
For permutation groups acting on the right this reads a.(x*y) = (a.x).y.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

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
    """Minimal group interface shared by table-backed and permutation groups.

    mul and inv work on element indices. element, index_of, times and
    invert work on the elements in the group's own representation, where a
    condition on elements is decided (cosets.validate_presentation): here
    an element is its index, and a permutation group (autgroup.PermGroup)
    composes and inverts permutations instead."""

    order: int
    identity: int

    def mul(self, x: int, y: int) -> int:
        raise NotImplementedError

    def inv(self, x: int) -> int:
        raise NotImplementedError

    def element(self, x: int):
        return x

    def index_of(self, g) -> int | None:
        return g

    def times(self, g, h):
        return self.mul(g, h)

    def invert(self, g):
        return self.inv(g)

    def conj(self, x: int, y: int) -> int:
        """y^-1 x y."""
        return self.mul(self.mul(self.inv(y), x), y)

    def check_index(self, x) -> int:
        if not isinstance(x, int) or not 0 <= x < self.order:
            raise IndexOutOfRange(x, self.order)
        return x


@dataclass(frozen=True)
class FiniteGroup(GroupLike):
    """A group given by its product table, its identity and, optionally,
    the names of its elements. The order and the inverses are functions of
    the table, derived on first read and kept."""
    product: tuple[tuple[int, ...], ...]
    identity: int
    names: tuple[str, ...] | None = None

    @cached_property
    def order(self) -> int:
        return len(self.product)

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        """x^-1 for each x: the y with x y = e, read off row x."""
        return tuple(row.index(self.identity) for row in self.product)

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

    def holds(self, g) -> bool:
        """Whether the element g, in the parent's representation, lies in
        the subgroup."""
        return self.parent.index_of(g) in self

    def least_outside(self, ok: Callable[[object], bool]) -> object | None:
        """The first element h, in index order, with ok(h) false, or None:
        a scan of the elements, in the parent's representation."""
        return next((h for h in map(self.parent.element, self.elements)
                     if not ok(h)), None)


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

    def name(self, c: int) -> str:
        """The name of the representative of coset c."""
        return self.parent.name_of(self.representatives[c])


def group_from_table(table: Sequence[Sequence[int]],
                     names: Sequence[str] | None = None) -> FiniteGroup:
    """Validate a multiplication table and return the group it defines.
    Names, when given, must be n distinct tokens that a .grp file can hold:
    not empty, with no whitespace and no "#".

    The verdict is the first of these that fails, in order, with the
    witness a cell-by-cell scan names: the entries (perm.square_rows),
    Latin rows, Latin columns, a two-sided identity (row e and column e
    are 0..n-1), associativity. The columns are scanned only when the
    identity or associativity fails: otherwise each x has a right
    inverse, so the monoid is a group, its columns are Latin, and the
    right inverse that FiniteGroup.inverse reads off row x is two-sided.

    Associativity is Light's test: row(xs) = compose(row(s), row(x)) for
    every x says (xs)z = x(sz) for all x, z, and the s where that holds
    are closed under products, as (x(ab))z = ((xa)b)z = (xa)(bz) =
    x(a(bz)) = x((ab)z). So it is checked at perm.spanning_points of the
    columns x -> xs, at most 1 + log2 |G| of them, the identity skipped.
    When it fails, the triple loop names the first witness.
    """
    n = len(table)
    if n == 0:
        raise FormatError("empty product table")
    product = perm.square_rows(table)
    if names is not None:
        names = tuple(names)
        if len(names) != n:
            raise FormatError(f"{len(names)} names for {n} elements")
        first: dict[str, int] = {}
        for x, name in enumerate(names):
            if (not isinstance(name, str) or "#" in name
                    or name.split() != [name]):
                raise FormatError(f"name {name!r} of element {x} is not a "
                                  "token: empty, or with whitespace or '#'")
            y = first.setdefault(name, x)
            if y != x:
                raise FormatError(
                    f"name {name!r} given to elements {y} and {x}")

    points = set(range(n))
    for x, row in enumerate(product):
        if set(row) != points:
            raise NotLatinSquare("row", x)
    cols = list(zip(*product))
    full = perm.identity(n)
    identity = next((e for e in range(n)
                     if product[e] == full and cols[e] == full), None)

    # for each s, row(xs) over every x against row(x) gathered through row(s)
    if identity is None or not all(
            list(perm.compose(cols[s], product)) ==
            perm.compose_each(product[s], product)
            for s in perm.spanning_points(cols) if s != identity):
        for y, col in enumerate(cols):
            if set(col) != points:
                raise NotLatinSquare("column", y)
        if identity is None:
            raise NoIdentity()
        for x in range(n):
            for y in range(n):
                xy = product[x][y]
                for z in range(n):
                    if product[xy][z] != product[x][product[y][z]]:
                        raise NotAssociative(x, y, z)

    return FiniteGroup(product=product, identity=identity, names=names)


def subgroup_closure(G: GroupLike, gens: Iterable[int]) -> Subgroup:
    """Smallest subgroup of G containing gens: the elements reached from e
    by right multiplication by gens. For x and y = g1...gk reached, so is
    x y, and a finite product-closed set containing e is a subgroup."""
    gens = [G.check_index(g) for g in gens]
    elements = perm.closure([G.identity], gens, G.mul)
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
    """Partition of G into right cosets Hx, ordered by minimal element. H is
    a subgroup of G (anything with parent G and the indices of its
    elements, as autgroup.Stabilizer), or element indices, which are
    validated."""
    elements = getattr(H, "elements", None)
    if elements is None:
        H = subgroup_from_elements(G, H)
    elif H.parent is not G:
        H = subgroup_from_elements(G, elements)
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
